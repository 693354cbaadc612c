"""Unit tests of the benchmark's metric arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest

sys.dont_write_bytecode = True

import analysis  # noqa: E402


def span(name, start, end, parent=-1, cell=0):
    return [name, start, end, parent, cell]


class SelfTimeTest(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(analysis.self_times([span("a", 1.0, 3.5)]), [2.5])

    def test_children_are_subtracted(self):
        spans = [span("cell", 0.0, 10.0),
                 span("sim.construct", 1.0, 2.0, parent=0),
                 span("sim.run", 3.0, 7.0, parent=0)]
        self.assertEqual(analysis.self_times(spans), [5.0, 1.0, 4.0])

    def test_only_direct_children_count(self):
        spans = [span("cell", 0.0, 10.0),
                 span("sec.attack", 2.0, 8.0, parent=0),
                 span("sim.run", 3.0, 5.0, parent=1)]
        self.assertEqual(analysis.self_times(spans), [4.0, 4.0, 2.0])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0.0, 10.0),
                 span("a", 1.0, 4.0, parent=0),
                 span("b", 3.0, 6.0, parent=0)]
        self.assertAlmostEqual(analysis.self_times(spans)[0], 5.0)

    def test_children_clipped_to_parent(self):
        spans = [span("root", 2.0, 4.0),
                 span("late", 3.0, 9.0, parent=0)]
        self.assertAlmostEqual(analysis.self_times(spans)[0], 1.0)

    def test_cells_do_not_share_children(self):
        spans = [span("cell", 0.0, 4.0, cell=0),
                 span("sim.run", 1.0, 3.0, parent=0, cell=0),
                 span("cell", 4.0, 6.0, cell=1),
                 span("sim.run", 4.5, 5.0, parent=2, cell=1)]
        self.assertEqual(analysis.self_times(spans), [2.0, 2.0, 1.5, 0.5])


class DigestTest(unittest.TestCase):
    DUMP = {
        "manifest": {
            "schema_version": 1, "config_hash": "0x1",
            "git_describe": "abc", "build_type": "RelWithDebInfo",
            "compiler": "GNU 12.2.0", "build_flags": "",
            "host": "vm, 4 hardware threads", "translator_epoch": 7,
            "phases": {"total": 0.25},
        },
        "name": "sim",
        "counters": {"instructions": {"value": 100, "desc": "x"}},
    }

    def variant(self, **manifest):
        doc = dict(self.DUMP)
        doc["manifest"] = dict(self.DUMP["manifest"], **manifest)
        return doc

    def test_scrub_drops_host_only_members(self):
        scrubbed = analysis.scrub(self.DUMP)["manifest"]
        for key in analysis.HOST_ONLY_MANIFEST_KEYS:
            self.assertNotIn(key, scrubbed)
        self.assertEqual(scrubbed["config_hash"], "0x1")
        self.assertEqual(scrubbed["translator_epoch"], 7)
        self.assertIn("phases", self.DUMP["manifest"])  # input untouched

    def test_digest_ignores_host_and_wall_time(self):
        base = analysis.digest([("c", self.DUMP)])
        other = self.variant(host="other", git_describe="def",
                             compiler="Clang 17", build_flags="-O3",
                             phases={"total": 9.0})
        self.assertEqual(analysis.digest([("c", other)]), base)

    def test_digest_sees_simulated_output(self):
        base = analysis.digest([("c", self.DUMP)])
        changed = dict(self.DUMP, counters={
            "instructions": {"value": 101, "desc": "x"}})
        self.assertNotEqual(analysis.digest([("c", changed)]), base)
        epoch = self.variant(translator_epoch=8)
        self.assertNotEqual(analysis.digest([("c", epoch)]), base)

    def test_digest_depends_on_labels_and_order(self):
        a = analysis.digest([("x", self.DUMP), ("y", self.DUMP)])
        self.assertNotEqual(a, analysis.digest([("y", self.DUMP),
                                                ("x", self.DUMP)]))

    def test_docs_without_manifest(self):
        self.assertEqual(analysis.scrub({"stats": {}}), {"stats": {}})


class ErrorRateTest(unittest.TestCase):
    def test_base_is_cells_attempted(self):
        self.assertEqual(analysis.error_rate(0, 40), 0.0)
        self.assertEqual(analysis.error_rate(2, 8), 0.25)

    def test_rejects_empty_base_and_bad_counts(self):
        with self.assertRaises(ValueError):
            analysis.error_rate(0, 0)
        with self.assertRaises(ValueError):
            analysis.error_rate(3, 2)


class AggregationTest(unittest.TestCase):
    def test_sum_of_medians_is_per_cell(self):
        passes = [[1.0, 10.0], [3.0, 30.0], [2.0, 20.0]]
        self.assertEqual(analysis.sum_of_medians(passes), 22.0)

    def test_sum_of_minimums_takes_each_cells_best_pass(self):
        passes = [[1.0, 30.0], [3.0, 10.0], [2.0, 20.0]]
        self.assertEqual(analysis.sum_of_minimums(passes), 11.0)

    def test_flatten_stats_walks_groups(self):
        dump = {"counters": {"instructions": {"value": 5}},
                "formulas": {"ipc": {"value": 1.5}},
                "groups": [{"name": "mem", "counters": {},
                            "groups": [{"name": "l1d", "counters": {
                                "misses": {"value": 2}}}]}]}
        self.assertEqual(analysis.flatten_stats(dump),
                         {"instructions": 5, "ipc": 1.5,
                          "mem.l1d.misses": 2})

    def test_ratio_of_empty_base(self):
        self.assertEqual(analysis.ratio(3, 0), 0.0)


if __name__ == "__main__":
    unittest.main()
