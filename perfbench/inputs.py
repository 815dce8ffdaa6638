"""Benchmark inputs: the workloads' designs and the ECO edit stream.

Every input is a function of the workload name and the ``--seed`` given
to the benchmark, so the same seed always gives the same inputs.  Designs
are generated with ``repro.benchgen`` and written as design JSON files
before any timing starts; the program under test only ever reads those
files.

Regenerate a workload's inputs by hand with::

    python3 perfbench/inputs.py --workload blockage --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    scale: float
    blockage_fraction: float
    #: Designs are served by ``repro serve`` (else legalized in-process).
    service: bool = False
    #: Check the flow's own properties, which hold only while Tetris has
    #: nothing to fix (see ``checker.check_method_properties``).
    method_properties: bool = False


WORKLOADS: Dict[str, Workload] = {
    "plain": Workload("plain", "fft_2", 0.4, 0.0, method_properties=True),
    "blockage": Workload("blockage", "fft_2", 0.8, 0.15),
    "eco_service": Workload("eco_service", "fft_2", 0.05, 0.15, service=True),
}

#: benchgen seed of every workload's design (the generator's default).
BENCHGEN_SEED = 0
#: GP variants per run, and how far (in sites) each moves a cell's x.
VARIANTS = 5
JITTER_SITES = 0.25

#: ECO edit mix: a round is ROUND requests; the last of each round moves
#: cells by several sites, the others nudge them by under a site.
ROUND = 5
EDIT_FRACTION = 0.01
NUDGE_SITES = 0.5
MOVE_SITES = (3.0, 8.0)


def write_inputs(workload: Workload, seed: int, directory: str) -> Tuple[str, str]:
    """Write the workload's design and the seed's GP variants of it into
    *directory*; returns the two paths.

    The design is the benchgen instance of ``BENCHGEN_SEED``; the seed
    picks ``VARIANTS`` global placements of it, each moving every
    movable cell's x by up to ``JITTER_SITES`` sites.  Runs with different
    seeds thus solve different problems of one design, and the spread
    between them measures the program rather than which instance the
    generator drew: from one benchgen seed to the next the blockage
    design's worst displacement ranges from 218 to 912 sites, and with
    one-site jitter a median over five variants still reads 276 to 381.
    """
    from repro.benchgen import generate_benchmark
    from repro.io import save_design
    from repro.io.jsonio import design_to_dict

    from checker import Layout

    design = generate_benchmark(
        workload.profile,
        scale=workload.scale,
        seed=BENCHGEN_SEED,
        blockage_fraction=workload.blockage_fraction,
    )
    design_path = os.path.join(directory, "design.json")
    variants_path = os.path.join(directory, "variants.json")
    save_design(design, design_path)
    layout = Layout.from_dict(design_to_dict(design))
    with open(variants_path, "w") as fh:
        json.dump([gp_variant(layout, seed, k) for k in range(VARIANTS)], fh)
    return design_path, variants_path


def gp_variant(layout, seed: int, k: int) -> List[float]:
    """Variant *k* of the seed: the GP x of every cell, each movable cell
    moved by up to ``JITTER_SITES`` sites and kept inside the core."""
    rng = np.random.default_rng([seed, k])
    dx = rng.uniform(-JITTER_SITES, JITTER_SITES, len(layout.names))
    gp_x = np.clip(
        layout.gp_x + dx * layout.site_width,
        layout.xl,
        layout.xh - layout.width,
    )
    return np.where(layout.fixed, layout.gp_x, gp_x).tolist()


def eco_edit(seed: int, index: int, layout) -> Tuple[np.ndarray, np.ndarray]:
    """The ``index``-th ECO edit of the seed's stream on *layout* (a
    :class:`checker.Layout`): which cells move and their new GP x.
    Request ``index`` moves cells by several sites when
    ``index % ROUND == ROUND - 1`` and nudges them otherwise."""
    rng = np.random.default_rng([seed, VARIANTS + index])
    candidates = np.flatnonzero(~layout.fixed)
    count = max(1, int(round(EDIT_FRACTION * candidates.size)))
    cells = np.sort(rng.choice(candidates, size=count, replace=False))
    if index % ROUND == ROUND - 1:
        lo, hi = MOVE_SITES
        dx = rng.uniform(lo, hi, size=count) * rng.choice([-1.0, 1.0], count)
    else:
        dx = rng.uniform(-NUDGE_SITES, NUDGE_SITES, size=count)
    new_x = np.clip(
        layout.gp_x[cells] + dx * layout.site_width,
        layout.xl,
        layout.xh - layout.width[cells],
    )
    return cells, new_x


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write to")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(args.out, exist_ok=True)
    for path in write_inputs(WORKLOADS[args.workload], args.seed, args.out):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
