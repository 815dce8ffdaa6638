"""The process that legalizes in-process (workloads ``plain`` and
``blockage``).

Started by ``run.py`` with the design file and its GP variants.  It
imports the program the way ``repro legalize`` does, loads the design,
and prints ``READY``: the parent times process start to that line as the
set-up.  ``--setup-only`` stops there.  Otherwise it legalizes fresh
copies of the design with the default :class:`LegalizerConfig`, call i
with GP variant i mod the number of variants, for ``--seconds`` and at
least ``--min-calls`` times; checks every output with the independent
checker; and prints one JSON line with the samples.  With ``--trace 1``
it alternates untraced calls with calls whose layers are wrapped by
:class:`layers.LayerClock`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from checker import (
    Layout,
    check_method_properties,
    check_placement,
    displacement,
)
from layers import LayerClock


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--design", required=True)
    parser.add_argument("--variants", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-calls", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--method-properties", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro.cli  # noqa: F401  (what `repro legalize` imports)
    from repro import legalize
    from repro.io import load_design

    pristine = load_design(args.design)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    with open(args.design) as fh:
        base = Layout.from_dict(json.load(fh))
    with open(args.variants) as fh:
        variants = json.load(fh)
    layouts = [base.with_gp(gp_x) for gp_x in variants]

    calls = []
    clock = LayerClock()
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < args.min_calls or time.perf_counter() < deadline:
        traced = bool(args.trace) and index % 2 == 1
        variant = index % len(variants)
        layout = layouts[variant]
        design = pristine.clone()
        for cell, gp_x in zip(design.cells, layout.gp_x):
            cell.gp_x = float(gp_x)
        if traced:
            clock.op = index
            clock.install_flow()
        error = result = None
        start = time.perf_counter()
        try:
            result = legalize(design)
        except Exception as exc:  # noqa: BLE001 - counted as a failed call
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        clock.uninstall()
        calls.append(
            _record(index, variant, traced, seconds, error, result, design,
                    layout, args.method_properties)
        )
        index += 1

    layer_ops = clock.per_op()
    for call in calls:
        if call["traced"]:
            call["layers"] = layer_ops.get(call["index"], {})
    out = {
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(out), flush=True)
    return 0


def _record(index, variant, traced, seconds, error, result, design, layout,
            method_properties):
    """One call's outcome: time, reported and recomputed quality, and
    every problem the checks found."""
    call = {"index": index, "variant": variant, "traced": traced,
            "seconds": seconds, "problems": []}
    if error is not None:
        call["problems"].append(error)
        return call
    x = [c.x for c in design.cells]
    y = [c.y for c in design.cells]
    problems = call["problems"]
    if not result.audit_clean:
        problems.append("program audit reports an illegal placement")
    problems.extend(check_placement(layout, x, y))
    total, worst = displacement(layout, x, y)
    reported = result.displacement
    site_w = layout.site_width
    if abs(total - reported.total_manhattan_sites) > 1e-6 * max(1.0, total):
        problems.append(
            f"displacement {reported.total_manhattan_sites!r} reported, "
            f"{total!r} recomputed"
        )
    if abs(worst - reported.max_manhattan / site_w) > 1e-6 * max(1.0, worst):
        problems.append(
            f"max displacement {reported.max_manhattan / site_w!r} reported, "
            f"{worst!r} recomputed"
        )
    call["illegal_after_qp"] = result.num_illegal
    # The properties hold only where Tetris left the QP result alone.
    call["method_checked"] = method_properties and result.num_illegal == 0
    if call["method_checked"]:
        problems.extend(check_method_properties(layout, x, y))
    call["displacement_sites"] = total
    call["max_displacement_sites"] = worst
    call["positions_hash"] = hash((tuple(x), tuple(y)))
    return call


if __name__ == "__main__":
    sys.exit(main())
