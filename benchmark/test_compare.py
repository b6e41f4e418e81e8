#!/usr/bin/env python3
"""Unit tests for compare.py on synthetic result sets.

    python3 benchmark/test_compare.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "delivery_pct", "unit": "%", "better": "higher", "bound": 0.05},
]}


def record(walls, delivery=50.0, attempted=None, failed=0):
    runs = [{"wall_s": w, "delivery_pct": delivery} for w in walls]
    return {"stamp": {}, "workloads": {"dense-urban": {
        "runs": runs, "attempted": attempted or len(runs), "failed": failed}}}


def verdicts(parent, change):
    rows, failures = compare.compare(parent["workloads"], change["workloads"],
                                     SPEC)
    return {metric: j["verdict"] for _, metric, j in rows}, failures


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


class JudgeTest(unittest.TestCase):
    def test_clear_gain_over_ten_pairs(self):
        v, failures = verdicts(record(STEADY),
                               record([x * 0.8 for x in STEADY]))
        self.assertEqual(v["wall_s"], "gain")
        self.assertEqual(failures, [])

    def test_gain_needs_ten_pairs(self):
        v, _ = verdicts(record(STEADY[:9]),
                        record([x * 0.8 for x in STEADY[:9]]))
        self.assertEqual(v["wall_s"], "no change")

    def test_gain_needs_nine_wins_in_ten(self):
        change = [x * 0.8 for x in STEADY]
        change[0] = change[1] = 2.0  # two lost pairs: 8 wins of 10
        v, _ = verdicts(record(STEADY), record(change))
        self.assertEqual(v["wall_s"], "no change")

    def test_gain_needs_medians_apart_by_more_than_spread(self):
        v, _ = verdicts(record(STEADY),
                        record([x - 0.005 for x in STEADY]))
        self.assertEqual(v["wall_s"], "no change")

    def test_ties_count_for_neither(self):
        v, _ = verdicts(record(STEADY), record(STEADY))
        self.assertEqual(v["wall_s"], "no change")
        self.assertEqual(v["delivery_pct"], "no change")

    def test_regression_beyond_bound(self):
        v, _ = verdicts(record(STEADY), record([x * 1.2 for x in STEADY]))
        self.assertEqual(v["wall_s"], "regression")

    def test_slower_within_bound_is_no_change(self):
        v, _ = verdicts(record(STEADY), record([x * 1.05 for x in STEADY]))
        self.assertEqual(v["wall_s"], "no change")

    def test_higher_is_better_direction(self):
        v, _ = verdicts(record(STEADY, delivery=50.0),
                        record(STEADY, delivery=45.0))
        self.assertEqual(v["delivery_pct"], "regression")

    def test_noisy_parent_is_unresolved(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.4, 0.9, 1.2, 0.6, 1.1]
        v, _ = verdicts(record(noisy), record(noisy[::-1]))
        self.assertEqual(v["wall_s"], "unresolved")

    def test_noisy_parent_resolved_when_every_change_run_is_better(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.4, 0.9, 1.2, 0.6, 1.1]
        v, _ = verdicts(record(noisy), record([x * 0.3 for x in STEADY]))
        self.assertEqual(v["wall_s"], "gain")

    def test_fail_frac_rise_fails(self):
        _, failures = verdicts(record(STEADY),
                               record(STEADY, attempted=20, failed=1))
        self.assertEqual(len(failures), 1)


class FileTest(unittest.TestCase):
    def write(self, directory, name, records):
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")
        return path

    def test_records_concatenate_and_exit_code(self):
        with tempfile.TemporaryDirectory() as d:
            spec = os.path.join(d, "spec.json")
            with open(spec, "w") as f:
                json.dump(SPEC, f)
            parent = self.write(d, "parent.jsonl",
                                [record(STEADY[:5]), record(STEADY[5:])])
            runs = compare.load_runs(parent)["dense-urban"]
            self.assertEqual(len(runs["runs"]), 10)
            self.assertEqual(runs["attempted"], 10)
            slower = self.write(d, "slower.jsonl",
                                [record([x * 1.3 for x in STEADY])])
            same = self.write(d, "same.jsonl", [record(STEADY)])
            devnull = open(os.devnull, "w")
            stdout, sys.stdout = sys.stdout, devnull
            try:
                self.assertEqual(
                    compare.main([parent, slower, "--spec", spec]), 1)
                self.assertEqual(
                    compare.main([parent, same, "--spec", spec]), 0)
            finally:
                sys.stdout = stdout
                devnull.close()


if __name__ == "__main__":
    unittest.main()
