"""Self-test of the benchmark harness at tiny scale (about ten seconds).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, that a
tampered pinned digest and a raising or overrunning call are reported as
failed calls, that the check-random gate rejects a report with a dropped,
repeated or wrong witness, and that traced and untraced passes produce
identical outputs, and that the host-speed probe puts intervals on the
reference scale.
"""

from __future__ import annotations

import dataclasses
import json
import time
import types
import unittest

import run
import speed
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def tiny(workload: str, trace: bool, pinned: dict | None = None) -> dict:
    return run.measure(workload, SEED, 0, trace, scale="tiny", pinned=pinned or {})


class HarnessSelfTest(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    record = tiny(workload, trace)
                    self.assertEqual(record["failed"], 0, record["calls"])
                    emitted = {name: m["unit"] for name, m in record["metrics"].items()}
                    self.assertEqual(emitted, expected)

    def test_tampered_pin_is_a_failed_call(self):
        workload = "grid-bound"
        clean = tiny(workload, False)
        pins = {c["label"]: c["digest"] for c in clean["calls"][0]}
        self.assertEqual(tiny(workload, False, pins)["failed"], 0)
        victim = sorted(pins)[0]
        pins[victim] = "0" * 16
        record = tiny(workload, False, pins)
        failed = [c for p in record["calls"] for c in p if c["error"]]
        self.assertEqual([c["label"] for c in failed], [victim] * len(record["calls"]))
        self.assertIn("pinned", failed[0]["error"])

    def test_traced_and_untraced_outputs_match(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                record = tiny(workload, True)
                untraced, traced = record["calls"][0], record["calls"][1]
                self.assertEqual(
                    {c["label"]: c["digest"] for c in untraced},
                    {c["label"]: c["digest"] for c in traced},
                )
                self.assertNotIn(None, [c["digest"] for c in traced])
                self.assertTrue(record["spans"][0]["spans"])

    def test_gate_rejects_dropped_and_invented_witnesses(self):
        package = run.import_package()
        calls = workloads.build("check-random", package, SEED, "tiny")
        for call in calls:
            report = getattr(package, call.func)(*call.args, **call.kwargs)
            self.assertEqual(call.gate(report), [], call.label)
            if not report.witnesses:
                continue
            with self.subTest(call=call.label):
                first, *rest = report.witnesses
                tampered = [
                    dataclasses.replace(report, witnesses=tuple(rest)),
                    dataclasses.replace(report, witnesses=(), passed=True),
                    dataclasses.replace(report, witnesses=(first, first, *rest)),
                    dataclasses.replace(
                        report, witnesses=(dataclasses.replace(first, d_g=first.d_g + 1), *rest)
                    ),
                ]
                for bad in tampered:
                    self.assertTrue(call.gate(bad))

    def test_raising_and_overrunning_calls_are_recorded(self):
        package = types.SimpleNamespace(boom=lambda: 1 / 0, slow=lambda: time.sleep(5))
        calls = [
            workloads.Call("boom", "boom", (), lambda _: []),
            workloads.Call("slow", "slow", (), lambda _: [], cap_s=0.2),
        ]
        (t0, t1), records, outputs = run.run_pass(package, calls, time.perf_counter() + 60)
        self.assertEqual([r.error.split(":")[0] for r in records], ["ZeroDivisionError", "timeout"])
        self.assertIn("ZeroDivisionError", records[0].traceback)
        self.assertEqual(outputs, [None, None])
        self.assertLess(t1 - t0, 2)

    def test_probe_normalises_to_reference_speed(self):
        probe = speed.Probe()
        # Probes at t = 0, 0.1, ... 1.0, each taking 1 ms.
        probe.starts = [i / 10 for i in range(11)]
        probe.lengths = [0.001] * 11
        busy = 0.001 * 5  # probes starting in [0.2, 0.7)
        factor = speed.NOMINAL_PROBE_S / 0.001  # reference speed over host speed
        self.assertAlmostEqual(probe.normalise(0.2, 0.7), (0.5 - busy) * factor)
        probe.lengths = [0.002] * 11  # host half as fast: the same interval is half the work
        self.assertAlmostEqual(probe.normalise(0.2, 0.7), (0.5 - 2 * busy) * factor / 2)
        live = speed.Probe()
        live.start()
        try:
            t0 = time.perf_counter()
            cpu_end = time.process_time() + 0.2
            while time.process_time() < cpu_end:
                pass
            t1 = time.perf_counter()
        finally:
            live.stop()
        self.assertGreaterEqual(len(live.lengths), 5)  # at start, every 20 ms of CPU, at stop
        self.assertGreater(live.normalise(t0, t1), 0)


if __name__ == "__main__":
    unittest.main()
