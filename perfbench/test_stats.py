"""Self-tests of the benchmark's own statistics and answer checks.

    python3 perfbench/test_stats.py
"""

import os
import sys
import tempfile
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import answers  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(150), 90.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertIsNone(stats.tail_percentile(39))

    def test_summarize_reports_count_median_and_tail(self):
        values = list(range(1, 1001))  # 1..1000
        s = stats.summarize(values)
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p50"], 500.5)
        self.assertEqual(s["tail_p"], 99.0)
        self.assertAlmostEqual(s["tail"], 990.01)
        small = stats.summarize([3.0, 1.0, 2.0])
        self.assertEqual((small["n"], small["p50"], small["tail"]),
                         (3, 2.0, None))

    def test_median_and_percentile(self):
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.mean([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.percentile([0, 10], 50), 5)
        self.assertEqual(stats.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            stats.median([])
        with self.assertRaises(ValueError):
            stats.mean([])


class WindowedMedian(unittest.TestCase):
    def test_windows_are_averaged(self):
        # Window 0 holds 1, 2, 9 (median 2), window 1 holds 5, 6, 7
        # (median 6); the pair starting at 2.0 s has too few samples.
        samples = [(0.0, 1), (0.5, 9), (0.9, 2), (1.0, 5), (1.2, 7),
                   (1.9, 6), (2.0, 100)]
        self.assertEqual(stats.windowed_median(samples, 1.0), 4.0)

    def test_follows_the_share_of_a_slow_mode(self):
        # Fast windows read 1, slow ones 2. The whole-run median jumps
        # between the modes; the windowed median moves with the share.
        def run(slow_windows):
            return [(w + i / 10, 2.0 if w < slow_windows else 1.0)
                    for w in range(10) for i in range(5)]
        self.assertEqual(stats.median([v for _, v in run(4)]), 1.0)
        self.assertEqual(stats.median([v for _, v in run(6)]), 2.0)
        self.assertAlmostEqual(stats.windowed_median(run(4), 1.0), 1.4)
        self.assertAlmostEqual(stats.windowed_median(run(6), 1.0), 1.6)

    def test_no_full_window_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.windowed_median([(0.0, 1.0)], 1.0)


def span_file(groups):
    """Writes span groups in the driver's format; returns the path."""
    with tempfile.NamedTemporaryFile("w", suffix=".spans",
                                     delete=False) as f:
        for spans in groups:
            f.write("#group\n")
            for name, start, end, parent in spans:
                f.write("%s %d %d %d 0\n" % (name, start, end, parent))
    return f.name


class SelfTime(unittest.TestCase):
    def totals(self, groups, root=None):
        path = span_file(groups)
        try:
            return stats.span_file_totals(path, root)
        finally:
            os.unlink(path)

    def test_children_are_subtracted_once(self):
        selfs, durs = self.totals([[("op", 0, 100, -1),
                                    ("parse", 10, 30, 0),
                                    ("solve", 40, 90, 0),
                                    ("inner", 50, 60, 2)]])
        self.assertEqual(selfs, {"op": 30, "parse": 20, "solve": 40,
                                 "inner": 10})
        self.assertEqual(durs["solve"], 50)

    def test_children_are_clipped_to_the_parent(self):
        selfs, _ = self.totals([[("op", 0, 100, -1), ("late", 90, 120, 0)]])
        self.assertEqual(selfs["op"], 90)

    def test_parent_indices_are_local_to_a_group(self):
        selfs, _ = self.totals([[("op", 0, 10, -1), ("parse", 2, 4, 0)],
                                [("op", 0, 5, -1), ("parse", 0, 5, 0)]])
        self.assertEqual(selfs, {"op": 8, "parse": 7})

    def test_root_filter_keeps_one_phase(self):
        groups = [[("cold", 0, 100, -1), ("solve", 10, 90, 0),
                   ("warm", 100, 120, -1), ("solve", 101, 119, 2)]]
        cold, _ = self.totals(groups, root="cold")
        self.assertEqual(cold, {"cold": 20, "solve": 80})


class Ratios(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        self.assertEqual(stats.ratio(3, 4), {"value": 0.75, "base": 4})

    def test_empty_base_is_zero_not_an_error(self):
        self.assertEqual(stats.ratio(0, 0), {"value": 0.0, "base": 0})


def leia_answer(vars_, rows):
    return {"vars": vars_, "bottom": False, "rows": rows}


class Answers(unittest.TestCase):
    # E[x'] == x + 3/2 and E[y'] >= y, over dims (x, y, E[x'], E[y']).
    ANSWER = leia_answer(["x", "y"], [
        ["eq", "3/2", "1", "0", "-1", "0"],
        ["ge", "0", "0", "-1", "0", "1"],
    ])

    def test_parse_row(self):
        op, coeffs, const = answers.parse_row("E[x' + y'] <= 2*x - 1/2")
        self.assertEqual(op, "<=")
        self.assertEqual(coeffs, {("E", "x"): 1, ("E", "y"): 1,
                                  ("pre", "x"): -2})
        self.assertEqual(const, Fraction(1, 2))

    def test_equal_and_weaker_invariants_pass(self):
        self.assertEqual(answers.check_leia(self.ANSWER, [
            "E[x'] == x + 3/2", "E[x'] >= x", "E[x'] <= x + 2",
            "E[y'] >= y - 1"]), [])

    def test_stronger_or_missing_invariants_fail(self):
        self.assertEqual(len(answers.check_leia(self.ANSWER, [
            "E[x'] == x + 1", "E[y'] == y", "E[y'] <= y"])), 3)

    def test_rounded_rows_are_snapped(self):
        # 137/12 and a unit coefficient off by about 1e-9, as the 2^-40
        # rounding grid leaves them.
        answer = leia_answer(["c"], [["eq", "474591969163", "41570100454",
                                      "-41570100830"]])
        self.assertEqual(answers.check_leia(answer, ["E[c'] == c + 137/12"]),
                         [])
        self.assertEqual(len(answers.check_leia(answer,
                                                ["E[c'] == c + 11"])), 1)

    def test_bottom_fails(self):
        self.assertEqual(len(answers.check_leia(
            {"vars": ["x"], "bottom": True, "rows": []}, ["E[x'] == x"])), 1)

    def test_bi_and_mdp(self):
        expected = {"bi": {"p": {"mass": "1", "marginals": {"b": "1/4"},
                                 "states": {"{b=T}": "1/4"}}},
                    "mdp": {"q": "3"}}
        good = {"mass": 0.9999999999, "states": {"{b=T}": 0.25,
                                                  "{b=F}": 0.75}}
        self.assertEqual(answers.check("bi/p", good, expected), [])
        bad = {"mass": 1.0, "states": {"{b=T}": 0.3, "{b=F}": 0.7}}
        self.assertEqual(len(answers.check("bi/p", bad, expected)), 2)
        self.assertEqual(answers.check("mdp/q", {"reward": 3.0}, expected), [])
        self.assertEqual(len(answers.check("mdp/q", {"reward": 3.1},
                                           expected)), 1)

    def test_expected_file_parses(self):
        import json
        expected = json.loads(answers.EXPECTED.read_text())
        self.assertEqual((len(expected["leia"]), len(expected["bi"]),
                          len(expected["mdp"])), (13, 7, 5))
        for rows in expected["leia"].values():
            for row in rows:
                answers.parse_row(row)


if __name__ == "__main__":
    unittest.main()
