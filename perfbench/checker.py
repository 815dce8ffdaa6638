"""Independent output checker for the benchmark.

Written from the design file format alone, without ``repro.legality`` or
``repro.metrics``, so a fault in the program's own audit or metrics cannot
hide from the benchmark.  A placement is given as arrays ``x`` and ``y``
in the order of the design file's ``cells`` list.

:func:`check_placement` checks, for every movable cell, core containment,
the site and row grid and the power-rail parity of even-height cells, and
checks that no two cells overlap (fixed blockages included; two fixed
cells may overlap, since obstacles are inputs).  :func:`displacement`
recomputes the total and worst Manhattan displacement in site widths.
:func:`check_method_properties` checks what the MMSIM flow must give when
the Tetris stage has nothing to fix: every cell in its nearest
rail-correct row and the global-placement order kept in every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Snap tolerance as a fraction of the site width / row height.
GRID_TOL = 1e-6

#: Problems listed per check before the rest are only counted.
MAX_LISTED = 5


@dataclass
class Layout:
    """The static facts of one design: core geometry and per-cell shape,
    rail class, fixedness and global-placement position."""

    xl: float
    yl: float
    num_rows: int
    row_height: float
    num_sites: int
    site_width: float
    #: True when row 0's bottom rail is VDD; rails alternate upwards.
    row0_vdd: bool
    names: List[str]
    width: np.ndarray
    height_rows: np.ndarray
    #: For even-height cells, True when the designed bottom rail is VDD.
    bottom_vdd: np.ndarray
    fixed: np.ndarray
    gp_x: np.ndarray
    gp_y: np.ndarray

    @property
    def xh(self) -> float:
        return self.xl + self.num_sites * self.site_width

    @property
    def yh(self) -> float:
        return self.yl + self.num_rows * self.row_height

    @property
    def even(self) -> np.ndarray:
        return self.height_rows % 2 == 0

    @classmethod
    def from_dict(cls, data: Dict) -> "Layout":
        """Build from a design in the JSON file format."""
        if data.get("fences"):
            raise ValueError("fence regions are outside this checker")
        core = data["core"]
        masters = {m["name"]: m for m in data["masters"]}
        cells = data["cells"]
        master_of = [masters[c["master"]] for c in cells]
        return cls(
            xl=float(core["xl"]),
            yl=float(core["yl"]),
            num_rows=int(core["num_rows"]),
            row_height=float(core["row_height"]),
            num_sites=int(core["num_sites"]),
            site_width=float(core["site_width"]),
            row0_vdd=core["row0_bottom_rail"] == "VDD",
            names=[c["name"] for c in cells],
            width=np.array([m["width"] for m in master_of], dtype=float),
            height_rows=np.array(
                [m["height_rows"] for m in master_of], dtype=np.intp
            ),
            bottom_vdd=np.array(
                [m["bottom_rail"] == "VDD" for m in master_of], dtype=bool
            ),
            fixed=np.array([c["fixed"] for c in cells], dtype=bool),
            gp_x=np.array([c["gp_x"] for c in cells], dtype=float),
            gp_y=np.array([c["gp_y"] for c in cells], dtype=float),
        )

    def with_gp(self, gp_x) -> "Layout":
        """The same design with other global-placement x positions."""
        return Layout(**{**self.__dict__, "gp_x": np.asarray(gp_x, dtype=float)})


def _listed(problems: List[str], label: str, ids: np.ndarray,
            layout: Layout, detail) -> None:
    for i in ids[:MAX_LISTED]:
        problems.append(f"{label}: {layout.names[i]} {detail(i)}")
    if ids.size > MAX_LISTED:
        problems.append(f"{label}: {ids.size - MAX_LISTED} more cells")


def _row_spans(layout: Layout, y: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Every (cell, row) pair whose body meets the row: cell ids and rows,
    the rows found from the cell's y extent."""
    rh = layout.row_height
    lo = np.floor((y - layout.yl) / rh + GRID_TOL).astype(np.intp)
    hi = np.floor(
        (y + layout.height_rows * rh - layout.yl) / rh - GRID_TOL
    ).astype(np.intp)
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, layout.num_rows - 1)
    counts = np.maximum(hi - lo + 1, 0)
    ids = np.repeat(np.arange(len(y)), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.repeat(lo, counts) + np.arange(ids.size) - starts
    return ids, rows


def check_placement(layout: Layout, x: Sequence[float],
                    y: Sequence[float]) -> List[str]:
    """All legality problems of a placement; an empty list means legal."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(layout.names)
    if x.shape != (n,) or y.shape != (n,):
        return [f"placement has {x.size} x / {y.size} y values for {n} cells"]
    problems: List[str] = []
    sw, rh = layout.site_width, layout.row_height
    tol_x, tol_y = GRID_TOL * sw, GRID_TOL * rh
    movable = ~layout.fixed
    if not np.all(np.isfinite(x) & np.isfinite(y)):
        return ["placement has non-finite coordinates"]

    top = y + layout.height_rows * rh
    outside = movable & (
        (x < layout.xl - tol_x)
        | (x + layout.width > layout.xh + tol_x)
        | (y < layout.yl - tol_y)
        | (top > layout.yh + tol_y)
    )
    _listed(problems, "outside core", np.flatnonzero(outside), layout,
            lambda i: f"at ({x[i]:g}, {y[i]:g})")

    sites = (x - layout.xl) / sw
    off_site = movable & (np.abs(sites - np.round(sites)) > GRID_TOL)
    _listed(problems, "off site grid", np.flatnonzero(off_site), layout,
            lambda i: f"x={float(x[i])!r}")
    rows = (y - layout.yl) / rh
    row = np.round(rows).astype(np.intp)
    off_row = movable & (np.abs(rows - row) > GRID_TOL)
    _listed(problems, "off row grid", np.flatnonzero(off_row), layout,
            lambda i: f"y={float(y[i])!r}")

    # Row r's bottom rail is row 0's rail for even r, the other one for
    # odd r; an even-height cell's designed bottom rail must match it.
    row_vdd = (row % 2 == 0) == layout.row0_vdd
    wrong_rail = movable & ~off_row & layout.even & (
        row_vdd != layout.bottom_vdd
    )
    _listed(problems, "wrong rail", np.flatnonzero(wrong_rail), layout,
            lambda i: f"even-height cell on row {row[i]}")

    problems.extend(_overlaps(layout, x, y))
    return problems


def _overlaps(layout: Layout, x: np.ndarray, y: np.ndarray) -> List[str]:
    """Overlapping pairs with at least one movable cell, found per row by
    comparing each span's left edge with the furthest right edge of the
    spans sorted before it (movable and fixed tracked apart, so a pair of
    two fixed obstacles is not reported)."""
    tol = GRID_TOL * layout.site_width
    ids, rows = _row_spans(layout, y)
    if ids.size == 0:
        return []
    xl = x[ids]
    xh = xl + layout.width[ids]
    order = np.lexsort((xh, xl, rows))
    ids, rows, xl, xh = ids[order], rows[order], xl[order], xh[order]
    fixed = layout.fixed[ids]
    bounds = np.flatnonzero(np.diff(rows)) + 1
    problems: List[str] = []
    found = 0
    for seg_lo, seg_hi in zip(
        np.concatenate([[0], bounds]), np.concatenate([bounds, [rows.size]])
    ):
        seg = slice(seg_lo, seg_hi)
        s_xl, s_xh, s_fixed = xl[seg], xh[seg], fixed[seg]
        reach_all = np.maximum.accumulate(s_xh)
        reach_mov = np.maximum.accumulate(np.where(s_fixed, -np.inf, s_xh))
        prev_all = np.concatenate([[-np.inf], reach_all[:-1]])
        prev_mov = np.concatenate([[-np.inf], reach_mov[:-1]])
        prev = np.where(s_fixed, prev_mov, prev_all)
        hits = np.flatnonzero(s_xl < prev - tol)
        for k in hits:
            if found < MAX_LISTED:
                cell = ids[seg][k]
                problems.append(
                    f"overlap: {layout.names[cell]} in row {rows[seg][k]} "
                    f"starts at {s_xl[k]:g} before a cell ending at "
                    f"{prev[k]:g}"
                )
            found += 1
    if found > MAX_LISTED:
        problems.append(f"overlap: {found - MAX_LISTED} more")
    return problems


def displacement(layout: Layout, x: Sequence[float],
                 y: Sequence[float]) -> Tuple[float, float]:
    """Total and worst Manhattan displacement of the movable cells from
    their global placement, in site widths."""
    movable = ~layout.fixed
    d = (
        np.abs(np.asarray(x, float) - layout.gp_x)
        + np.abs(np.asarray(y, float) - layout.gp_y)
    )[movable]
    if d.size == 0:
        return 0.0, 0.0
    return float(d.sum() / layout.site_width), float(d.max() / layout.site_width)


def check_method_properties(layout: Layout, x: Sequence[float],
                            y: Sequence[float]) -> List[str]:
    """Properties of the paper's flow on a placement that the Tetris stage
    left alone: each movable cell in its nearest rail-correct row, and in
    every row the cells in the order of their global-placement x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rh = layout.row_height
    movable = np.flatnonzero(~layout.fixed)
    problems: List[str] = []

    # Nearest rail-correct row: look two rows either side of the rounded
    # GP row (the nearest row of the right parity is at most one away
    # after clamping), keep those that fit and match the rail.
    gp_row = np.round((layout.gp_y[movable] - layout.yl) / rh).astype(np.intp)
    max_bottom = layout.num_rows - layout.height_rows[movable]
    gp_row = np.clip(gp_row, 0, max_bottom)
    cand = gp_row[:, None] + np.arange(-2, 3)[None, :]
    ok = (cand >= 0) & (cand <= max_bottom[:, None])
    even = layout.even[movable]
    cand_vdd = (cand % 2 == 0) == layout.row0_vdd
    ok &= ~even[:, None] | (cand_vdd == layout.bottom_vdd[movable][:, None])
    dist = np.abs(layout.yl + cand * rh - layout.gp_y[movable][:, None])
    best = np.where(ok, dist, np.inf).min(axis=1)
    actual = np.abs(y[movable] - layout.gp_y[movable])
    far = movable[actual > best + GRID_TOL * rh]
    _listed(problems, "not in nearest correct row", far, layout,
            lambda i: f"y={y[i]:g}, gp_y={layout.gp_y[i]:g}")

    # GP order per row: sort each row's movable cells by (gp_x, index)
    # and require non-decreasing final x along that order.
    ids, rows = _row_spans(layout, y)
    keep = ~layout.fixed[ids]
    ids, rows = ids[keep], rows[keep]
    order = np.lexsort((ids, layout.gp_x[ids], rows))
    ids, rows = ids[order], rows[order]
    same_row = rows[1:] == rows[:-1]
    swapped = same_row & (x[ids[1:]] < x[ids[:-1]] - GRID_TOL * layout.site_width)
    _listed(problems, "GP order broken", ids[1:][swapped], layout,
            lambda i: f"x={x[i]:g}, gp_x={layout.gp_x[i]:g}")
    return problems
