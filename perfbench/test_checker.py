"""Tests of the benchmark's independent checker.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checker import (  # noqa: E402
    Layout,
    check_method_properties,
    check_placement,
    displacement,
)


def small_design():
    """A 4-row, 20-site core (row 0 bottom rail VSS) with two single-row
    cells, one double-row cell designed for a VSS bottom rail, and one
    fixed blockage."""
    return {
        "format_version": 1,
        "name": "small",
        "core": {"xl": 0.0, "yl": 0.0, "num_rows": 4, "row_height": 10.0,
                 "num_sites": 20, "site_width": 2.0,
                 "row0_bottom_rail": "VSS"},
        "masters": [
            {"name": "s4", "width": 4.0, "height_rows": 1, "bottom_rail": None},
            {"name": "d4", "width": 4.0, "height_rows": 2, "bottom_rail": "VSS"},
            {"name": "blk", "width": 6.0, "height_rows": 1, "bottom_rail": None},
        ],
        "cells": [
            {"name": "a", "master": "s4", "gp_x": 1.0, "gp_y": 1.0,
             "x": 1.0, "y": 1.0, "fixed": False, "flipped": False},
            {"name": "b", "master": "s4", "gp_x": 7.0, "gp_y": 2.0,
             "x": 7.0, "y": 2.0, "fixed": False, "flipped": False},
            {"name": "d", "master": "d4", "gp_x": 12.0, "gp_y": 18.0,
             "x": 12.0, "y": 18.0, "fixed": False, "flipped": False},
            {"name": "blk", "master": "blk", "gp_x": 20.0, "gp_y": 30.0,
             "x": 20.0, "y": 30.0, "fixed": True, "flipped": False},
        ],
        "nets": [],
    }


# A legal placement of small_design(): a and b side by side in row 0, the
# double-row cell on rows 2-3 (row 2 has a VSS bottom rail), the blockage
# where it was given.
LEGAL_X = [0.0, 6.0, 12.0, 20.0]
LEGAL_Y = [0.0, 0.0, 20.0, 30.0]


class CheckPlacementTest(unittest.TestCase):
    def setUp(self):
        self.layout = Layout.from_dict(small_design())

    def test_legal_placement_passes(self):
        self.assertEqual(check_placement(self.layout, LEGAL_X, LEGAL_Y), [])

    def test_overlapping_pair(self):
        x = list(LEGAL_X)
        x[1] = 2.0  # b starts inside a
        problems = check_placement(self.layout, x, LEGAL_Y)
        self.assertEqual(len(problems), 1)
        self.assertIn("overlap: b in row 0", problems[0])

    def test_wide_cell_covering_a_later_one(self):
        # a (0..16) overlaps b (6..10) next to it and c (12..16) behind
        # b, which only a running furthest right edge sees.
        data = small_design()
        data["masters"].append(
            {"name": "s16", "width": 16.0, "height_rows": 1, "bottom_rail": None}
        )
        data["cells"][0]["master"] = "s16"
        data["cells"].append(dict(data["cells"][1], name="c"))
        layout = Layout.from_dict(data)
        problems = check_placement(
            layout, [0.0, 6.0, 12.0, 20.0, 12.0], LEGAL_Y + [0.0]
        )
        self.assertEqual(
            [p.split(" starts")[0] for p in problems],
            ["overlap: b in row 0", "overlap: c in row 0"],
        )

    def test_overlap_with_fixed_blockage(self):
        x, y = list(LEGAL_X), list(LEGAL_Y)
        x[1], y[1] = 22.0, 30.0  # b on top of the blockage in row 3
        problems = check_placement(self.layout, x, y)
        self.assertTrue(any(p.startswith("overlap") for p in problems), problems)

    def test_fixed_pair_may_overlap(self):
        data = small_design()
        data["cells"].append(dict(data["cells"][3], name="blk2", x=22.0, gp_x=22.0))
        layout = Layout.from_dict(data)
        self.assertEqual(
            check_placement(layout, LEGAL_X + [22.0], LEGAL_Y + [30.0]), []
        )

    def test_off_site_x(self):
        x = list(LEGAL_X)
        x[1] = 7.0  # site width 2
        problems = check_placement(self.layout, x, LEGAL_Y)
        self.assertEqual(problems, ["off site grid: b x=7.0"])

    def test_off_row_y(self):
        y = list(LEGAL_Y)
        y[0] = 4.0
        problems = check_placement(self.layout, LEGAL_X, y)
        self.assertIn("off row grid: a y=4.0", problems)

    def test_wrong_rail_double_height(self):
        y = list(LEGAL_Y)
        y[2] = 10.0  # row 1 has a VDD bottom rail
        problems = check_placement(self.layout, LEGAL_X, y)
        self.assertEqual(
            problems, ["wrong rail: d even-height cell on row 1"]
        )

    def test_outside_core(self):
        x = list(LEGAL_X)
        x[2] = 38.0  # core ends at 40, cell is 4 wide
        problems = check_placement(self.layout, x, LEGAL_Y)
        self.assertIn("outside core: d at (38, 20)", problems)

    def test_displacement(self):
        total, worst = displacement(self.layout, LEGAL_X, LEGAL_Y)
        # |dx| + |dy| per movable cell: a 1+1, b 1+2, d 0+2 -> 7 units,
        # 3.5 sites; the worst is b at 3 units, 1.5 sites.
        self.assertAlmostEqual(total, 3.5)
        self.assertAlmostEqual(worst, 1.5)


class MethodPropertiesTest(unittest.TestCase):
    def setUp(self):
        self.layout = Layout.from_dict(small_design())

    def test_legal_placement_has_them(self):
        self.assertEqual(
            check_method_properties(self.layout, LEGAL_X, LEGAL_Y), []
        )

    def test_farther_row_is_reported(self):
        y = list(LEGAL_Y)
        y[0] = 10.0  # a's GP y is 1, row 0 is nearest
        problems = check_method_properties(self.layout, [0.0, 6.0, 12.0, 20.0], y)
        self.assertEqual(len(problems), 1)
        self.assertIn("not in nearest correct row: a", problems[0])

    def test_swapped_gp_order_is_reported(self):
        x = [6.0, 0.0, 12.0, 20.0]  # b left of a, against their GP order
        problems = check_method_properties(self.layout, x, LEGAL_Y)
        self.assertEqual(len(problems), 1)
        self.assertIn("GP order broken", problems[0])


if __name__ == "__main__":
    unittest.main()
