"""Colored-partition series (two algorithms plus a brute-force
enumeration oracle for small cases), oscillator graded dimensions
cross-checked against explicit monomial enumeration, and character
tables of truncated modules: totals, s-independence, factor selection,
comparison reports, and exports."""

import csv
import io
import json
import unittest

from toralg.characters import (CharacterTable, colored_partition_series,
                               compare_character, graded_character,
                               oscillator_dimensions, sample_lattice_points)
from toralg.fock import enumerate_osc, mono_depth
from toralg.lie_table import load_table
from toralg.rep import ActionParams, build_module, rank0_params
from toralg.scalar import Q
from toralg.toroidal import AlgebraParams


def brute_colored_partitions(colors, n, max_part=None):
    """Count partitions of n with parts colored in `colors` ways:
    recursion over (largest part size, color multiset per size)."""
    from math import comb
    if n == 0:
        return 1
    if max_part is None:
        max_part = n
    total = 0
    for k in range(min(n, max_part), 0, -1):
        # j parts of size k: multiset of colors, then recurse below k.
        j = 1
        while j * k <= n:
            total += comb(j + colors - 1, j) * \
                brute_colored_partitions(colors, n - j * k, k - 1)
            j += 1
    return total


def sl2_module(depth, smax):
    alg = AlgebraParams(2, load_table("sl2"), mu=0, c=1)
    ap = ActionParams(alg, (Q(1, 3), Q(1, 5)), (1, 0), h_bar=Q(1, 7))
    return build_module(ap, depth, smax)


class TestSeries(unittest.TestCase):
    def test_single_color_partitions(self):
        self.assertEqual(colored_partition_series(1, 8).as_list(),
                         [1, 1, 2, 3, 5, 7, 11, 15, 22])
        self.assertEqual(colored_partition_series(1, 5)[5], 7)

    def test_hand_values_24(self):
        # n=2: 24 single parts of size 2 plus C(25,2)=300 pairs; n=3:
        # 24 + 24*24 + C(26,3)=2600.
        s = colored_partition_series(24, 3)
        self.assertEqual(s.as_list(), [1, 24, 324, 3200])
        self.assertEqual(24 + 300, 324)
        self.assertEqual(24 + 576 + 2600, 3200)

    def test_brute_force_oracle(self):
        for colors in (1, 2, 3, 4):
            s = colored_partition_series(colors, 6)
            for n in range(7):
                self.assertEqual(s[n], brute_colored_partitions(colors, n),
                                 msg=f"colors={colors} n={n}")

    def test_algorithms_agree_to_50(self):
        for colors in (1, 4, 24):
            a = colored_partition_series(colors, 50, method="product")
            b = colored_partition_series(colors, 50, method="euler")
            self.assertEqual(a.as_list(), b.as_list())
        # the default method runs both and would raise on disagreement
        colored_partition_series(24, 50)

    def test_bad_arguments(self):
        with self.assertRaises(ValueError):
            colored_partition_series(0, 5)
        with self.assertRaises(ValueError):
            colored_partition_series(2, -1)
        with self.assertRaises(ValueError):
            colored_partition_series(2, 5, method="magic")

    def test_str_prints_integer_list(self):
        self.assertEqual(str(colored_partition_series(24, 2)),
                         "[1, 24, 324]")


class TestOscillatorDimensions(unittest.TestCase):
    def test_matches_enumeration(self):
        for N, cap in ((1, 7), (2, 6), (12, 4)):
            dims = oscillator_dimensions(N, cap)
            counts = [0] * (cap + 1)
            for osc in enumerate_osc(N, cap):
                counts[mono_depth(osc)] += 1
            self.assertEqual(dims.as_list(), counts)

    def test_matches_colored_series(self):
        self.assertEqual(oscillator_dimensions(12, 8).as_list(),
                         colored_partition_series(24, 8).as_list())
        self.assertEqual(oscillator_dimensions(2, 10).as_list(),
                         colored_partition_series(4, 10).as_list())


class TestSamplePoints(unittest.TestCase):
    def test_small_box_is_full(self):
        pts = sample_lattice_points(2, 1)
        self.assertEqual(len(pts), 9)
        self.assertEqual(pts[0], (-1, -1))

    def test_large_box_sampled(self):
        pts = sample_lattice_points(12, 1)
        self.assertEqual(pts, sample_lattice_points(12, 1))
        self.assertEqual(pts[0], (0,) * 12)
        self.assertIn((1,) * 12, pts)
        self.assertIn((-1,) * 12, pts)
        self.assertEqual(len(set(pts)), len(pts))
        for p in pts:
            self.assertTrue(all(abs(x) <= 1 for x in p))

    def test_zero_box(self):
        self.assertEqual(sample_lattice_points(12, 0), [(0,) * 12])


class TestGradedCharacter(unittest.TestCase):
    def test_trivial_window(self):
        tab = graded_character(sl2_module(0, 0))
        self.assertEqual(tab.column((0, 0)), [1])
        self.assertEqual(tab.total((0, 0)), 1)

    def test_totals_match_basis(self):
        mod = sl2_module(2, 1)
        tab = graded_character(mod)
        for s in tab.points:
            self.assertEqual(tab.total(s), len(mod.basis_at(s)))

    def test_oscillator_factor(self):
        mod = sl2_module(3, 0)
        tab = graded_character(mod, factor="oscillator")
        self.assertEqual(tab.column((0, 0)),
                         [len(mod.osc_slice(d)) for d in range(4)])
        rep = compare_character(tab, colored_partition_series(4, 8))
        self.assertTrue(rep["pass"])

    def test_rank0_columns(self):
        mod = build_module(rank0_params(), 3, 1)
        tab = graded_character(mod)
        self.assertTrue(tab.s_independent())
        col = tab.column((0,) * 12)
        self.assertEqual(col[:4], [1, 24, 324, 3200])
        self.assertEqual(tab.complete_depth, 3)

    def test_errors(self):
        mod = sl2_module(1, 0)
        with self.assertRaises(ValueError):
            graded_character(mod, max_n=99)
        with self.assertRaises(ValueError):
            graded_character(mod, points=[(2, 0)])
        with self.assertRaises(ValueError):
            graded_character(mod, factor="spin")


class TestCompare(unittest.TestCase):
    def test_rank0_pass(self):
        mod = build_module(rank0_params(), 3, 1)
        tab = graded_character(mod)
        rep = compare_character(tab, colored_partition_series(24, 8))
        self.assertTrue(rep["pass"])
        self.assertIsNone(rep["mismatch"])
        self.assertEqual(rep["checked"], 4 * len(tab.points))

    def test_wrong_colors_fail_at_one(self):
        mod = build_module(rank0_params(), 2, 0)
        tab = graded_character(mod)
        rep = compare_character(tab, colored_partition_series(23, 8))
        self.assertFalse(rep["pass"])
        self.assertEqual(rep["mismatch"]["n"], 1)
        self.assertEqual(rep["mismatch"]["table"], 24)
        self.assertEqual(rep["mismatch"]["series"], 23)


class TestExports(unittest.TestCase):
    def test_csv(self):
        tab = graded_character(sl2_module(1, 0))
        rows = list(csv.reader(io.StringIO(tab.to_csv())))
        self.assertEqual(rows[0], ["n", "s1", "s2", "dim"])
        self.assertEqual(len(rows), 1 + len(tab.points) * (tab.max_n + 1))
        self.assertEqual(rows[1], ["0", "0", "0", "1"])

    def test_json(self):
        tab = graded_character(sl2_module(1, 0))
        doc = json.loads(tab.to_json())
        self.assertEqual(doc["max_n"], tab.max_n)
        self.assertEqual(doc["factor"], "full")
        got = {(n, tuple(s)): d for n, s, d in doc["rows"]}
        self.assertEqual(got[(0, (0, 0))], 1)
        self.assertEqual(json.loads(tab.to_json()), doc)


if __name__ == "__main__":
    unittest.main()
