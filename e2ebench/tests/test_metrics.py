"""Tests for the benchmark's own code, on canned runner outputs.

  python3 -m unittest discover -s e2ebench/tests
"""

import shutil
import struct
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402
import run  # noqa: E402

GATE = metrics.load_gate(HERE.parent.parent)


class SetupDerivationTest(unittest.TestCase):
    def test_setup_is_wall_minus_round_walls(self):
        result = metrics.load_json(DATA / "result_ok.json")
        walls = [r["wall_s"] for r in result["rounds"]]
        self.assertAlmostEqual(metrics.setup_seconds(5.0, walls), 4.55)

    def test_setup_ignores_program_reported_setup(self):
        # result_ok.json reports setup_seconds=1.5 (attestation only); the derived
        # figure must come from the outside wall time instead.
        result = metrics.load_json(DATA / "result_ok.json")
        walls = [r["wall_s"] for r in result["rounds"]]
        self.assertNotAlmostEqual(metrics.setup_seconds(5.0, walls), result["setup_seconds"])

    def test_rounds_longer_than_wall_are_rejected(self):
        with self.assertRaises(ValueError):
            metrics.setup_seconds(0.3, [0.25, 0.2])
        with self.assertRaises(ValueError):
            metrics.setup_seconds(0.0, [])


class PercentileTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(metrics.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(ValueError):
            metrics.median([])

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertEqual(metrics.tail_percentile(40), 75.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(200), 95.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_summarize_reports_count_and_tail(self):
        values = [float(i) for i in range(1, 101)]
        s = metrics.summarize(values)
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["p50"], 50.5)
        self.assertEqual(s["tail_pct"], 90.0)
        self.assertAlmostEqual(s["tail"], 90.1)
        self.assertNotIn("tail_pct", metrics.summarize([1.0, 2.0, 3.0]))


class CounterTest(unittest.TestCase):
    def load(self, name):
        return [metrics.load_json(p) for p in sorted((DATA / name).glob("*.json"))]

    def test_tcp_counters_sum_across_roles(self):
        total = metrics.sum_counters(self.load("cluster_ok"))
        self.assertEqual(total["net.bus.sent"], 50)
        self.assertEqual(total["net.bus.sent_bytes"], 121000)
        self.assertEqual(total["net.channel.seal"], 14)
        self.assertEqual(total["net.retry.attempts"], 12)
        self.assertEqual(total["net.retry.timeouts"], 1)

    def test_clean_roles_have_no_forbidden_counters(self):
        for snapshot in self.load("cluster_ok"):
            self.assertEqual(metrics.forbidden_hits(snapshot, GATE), [])

    def test_open_rejected_is_forbidden(self):
        hits = [h for s in self.load("cluster_rejected") for h in metrics.forbidden_hits(s, GATE)]
        self.assertEqual(hits, [("net.channel.open_rejected", 1)])


class FailureAccountingTest(unittest.TestCase):
    def test_operations_are_joins_plus_uploads(self):
        self.assertEqual(metrics.job_operations(4, 10), 44)

    def test_clean_job_has_no_failures(self):
        result = metrics.load_json(DATA / "result_ok.json")
        failed, reasons = metrics.job_failures(result, 0, [], True, 4, 2)
        self.assertEqual((failed, reasons), (0, []))

    def test_each_fault_counts_once(self):
        result = metrics.load_json(DATA / "result_degraded.json")
        hits = [("party0", "net.channel.open_rejected", 1)]
        failed, reasons = metrics.job_failures(result, 0, hits, False, 4, 2)
        # status + 2 dropouts + 1 unclean role + 1 forbidden counter + mismatch + 1 of 2
        # rounds reported.
        self.assertEqual(failed, 7, reasons)

    def test_crashed_runner_fails_every_operation(self):
        self.assertEqual(metrics.job_failures(None, 134, [], False, 4, 2)[0], 12)

    def test_params_match(self):
        a = [0.5, -1.25, 3.0]
        self.assertTrue(metrics.params_match(a, list(a), 0.0))
        nudged = [a[0], struct.unpack("<f", struct.pack("<I", 0xBFA00001))[0], a[2]]
        self.assertFalse(metrics.params_match(a, nudged, 0.0))
        self.assertTrue(metrics.params_match(a, nudged, 1e-4))
        self.assertFalse(metrics.params_match(a, [0.5, -1.0, 3.0], 1e-4))
        self.assertFalse(metrics.params_match(a, a[:2], 1e-4))


class CheckJobTest(unittest.TestCase):
    """run.check_job over a canned cluster output directory."""

    def check(self, telemetry):
        with tempfile.TemporaryDirectory() as tmp:
            job_dir = Path(tmp)
            tele = job_dir / "telemetry"
            shutil.copytree(DATA / telemetry, tele)
            # A full cluster writes one snapshot per role: pad the canned three to nine.
            for i in range(6):
                shutil.copy(DATA / "cluster_ok" / "observer.json", tele / f"extra{i}.json")
            params = [0.25, 0.5]
            (job_dir / "params.bin").write_bytes(struct.pack("<2f", *params))
            result = metrics.load_json(DATA / "result_ok.json")
            result["rounds"] = result["rounds"] * 6  # bulk_tcp runs 12 rounds
            record = {"seed": 1, "exit_code": 0, "result": result, "dir": job_dir}
            run.check_job(record, "bulk_tcp", GATE, tuple(params))
            return record

    def test_clean_cluster_passes(self):
        record = self.check("cluster_ok")
        self.assertEqual(record["failed"], 0)
        self.assertEqual(record["attempted"], 4 + 4 * 12)
        self.assertEqual(record["counters"]["net.channel.seal"], 14)

    def test_doctored_open_rejected_counts_as_failure(self):
        self.assertEqual(self.check("cluster_rejected")["failed"], 1)


class TraceTest(unittest.TestCase):
    def setUp(self):
        self.spans = metrics.load_json(DATA / "trace.json")["spans"]

    def test_self_times_add_up_to_the_root(self):
        self_times = metrics.self_times(self.spans, "replay.round")
        self.assertAlmostEqual(self_times["fl.party.train"], 0.030)
        self.assertAlmostEqual(self_times["net.channel.seal"], 0.040)
        self.assertAlmostEqual(self_times["crypto.paillier.encrypt"], 0.020)
        self.assertAlmostEqual(self_times["bench.standin"], 0.003)
        self.assertAlmostEqual(self_times["replay.round"], 0.007)
        self.assertAlmostEqual(sum(self_times.values()), 0.100)

    def test_per_op_and_root(self):
        self.assertAlmostEqual(metrics.per_op_ms(self.spans, "crypto.paillier.encrypt"), 0.1)
        self.assertAlmostEqual(metrics.per_op_ms(self.spans, "net.channel.seal"), 40.0)
        # The second root's 6 ms stand-in span is not part of the replayed path.
        self.assertAlmostEqual(metrics.root_seconds(self.spans, "replay.round"), 0.097)


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics run.py emits, with the same units."""

    def setUp(self):
        self.bench = metrics.load_json(HERE.parent.parent / "BENCHMARK.json")
        result = metrics.load_json(DATA / "result_ok.json")
        self.record = {"seed": 1, "failed": 0, "wall_s": 5.0, "cpu_s": 9.0,
                       "rss_mb": 16.0, "result": result, "counters": {}}

    def declared(self, section):
        return {m["name"]: m["unit"] for m in self.bench[section]}

    def test_end_to_end_metrics(self):
        values, _ = run.e2e_metrics([self.record])
        self.assertEqual({k: u for k, (_, u) in values.items()}, self.declared("end_to_end"))

    def test_per_layer_metrics(self):
        names = ["crypto.ec.keygen", "crypto.ecdsa.sign", "crypto.ecdsa.verify",
                 "crypto.ecdh.agree", "core.auth.verify", "core.auth.register",
                 "fl.party.train", "core.transform.apply", "core.transform.invert",
                 "fl.update.encode", "fl.update.decode", "net.channel.seal",
                 "net.channel.open", "net.tcp.rtt", "net.inproc.rtt", "fl.aggregation",
                 "crypto.paillier.encrypt", "crypto.paillier.decrypt",
                 "crypto.paillier.add", "replay.round", "replay.setup"]
        spans = [{"id": i, "parent": -1, "name": n, "start_ns": 0, "end_ns": 1000, "ops": 1}
                 for i, n in enumerate(names)]
        values = run.trace_metrics(self.record, spans, 2)
        self.assertEqual({k: u for k, (_, u) in values.items()}, self.declared("per_layer"))

    def test_gated_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertEqual([m["name"] for m in self.bench["end_to_end"]
                          if m["better"] == "higher"], ["uploads_per_s"])


if __name__ == "__main__":
    unittest.main()
