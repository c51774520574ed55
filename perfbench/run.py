"""Run one workload of the sppreserve benchmark and print its metrics.

    python3 perfbench/run.py --workload check-random --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout that
holds this file, never from an installed copy.  One process runs one
workload with one thread.  Set-up (importing the package and building the
inputs) runs ``SETUP_REPEATS`` times before every pass, each time after a
garbage collection, and the median of all set-ups is reported.  Passes over
the workload's call list repeat while another still fits in ``--seconds``
(set-up time is not counted); at least one runs.  Timings are medians over
the passes, and each is put on the scale of a reference host speed by
:mod:`speed`: a probe samples the host's speed all through the run, and a
timed interval is reported as the seconds it would have taken at the
reference speed.  The record keeps the raw wall times too.

With ``--trace 0`` the metrics are the end-to-end ones and no wrapper is
installed.  With ``--trace 1`` untraced and traced passes alternate; each
traced sample re-runs set-up and the pass under :class:`tracer.Tracer`, and
the metrics are the per-layer ones (medians over traced samples) plus
``trace.overhead_share``.  Spans are timed with the probe's time taken out.

Every call is checked outside the timed region: by its workload gate, by
its output digest against ``pinned.json`` where a pin exists for its label,
and against the first pass's digest.  A call that raises, passes its cap or
fails a check is recorded with its error and counted as failed; the command
then exits with status 1.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record (seed, git revision, Python version, nproc, every call) is
written to ``.perfbench_out/`` in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import speed
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
PINNED = BENCH_DIR / "pinned.json"
PACKAGE = "sppreserve"
DEFAULT_SEED = 1
SETUP_REPEATS = 8  # set-ups before each pass
# No call starts after this many seconds; with the per-call caps this keeps
# a run under three minutes even when the library hangs.
RUN_DEADLINE_S = 150.0

E2E_UNITS = {
    "wall_s": "s",
    "op_max_s": "s",
    "pass_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupError(RuntimeError):
    """The checkout does not hold a package this benchmark can import."""


class CallTimeout(BaseException):
    """Raised into a call that runs past its cap.

    A BaseException, so that no ``except Exception`` inside the library can
    swallow it.
    """


@dataclasses.dataclass
class CallRecord:
    label: str
    start: float  # perf_counter at the call
    seconds: float  # wall time
    error: str | None
    digest: str | None = None
    traceback: str | None = None
    ref_seconds: float | None = None  # at the reference speed, see speed.py


# ------------------------------------------------------------------ set-up


def import_package():
    """Import the package afresh from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    origin = Path(package.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"{PACKAGE} was imported from {origin}, outside {src}")
    return package


def setup(workload: str, seed: int, scale: str):
    """Import the package and build the workload's inputs; returns the
    package, the call list and the ``perf_counter`` interval it took."""
    t0 = time.perf_counter()
    package = import_package()
    calls = workloads.build(workload, package, seed, scale)
    return package, calls, (t0, time.perf_counter())


# ------------------------------------------------------------------ passes


def _on_alarm(signum, frame):
    raise CallTimeout


@contextlib.contextmanager
def _capped(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_pass(package, calls, deadline: float):
    """Issue every call once, in order; returns the pass's ``perf_counter``
    interval, the records and the outputs (None where a call failed)."""
    gc.collect()
    records, outputs = [], []
    t_pass = time.perf_counter()
    for call in calls:
        fn = getattr(package, call.func)
        cap = min(call.cap_s, deadline - time.perf_counter())
        output, error, trace = None, None, None
        t0 = time.perf_counter()
        if cap <= 0:
            error = "timeout: run deadline reached before the call started"
        else:
            try:
                with _capped(cap):
                    output = fn(*call.args, **call.kwargs)
            except CallTimeout:
                error = "timeout"
            except Exception as exc:  # recorded, counted as failed, never dropped
                error = f"{type(exc).__name__}: {exc}"
                trace = traceback.format_exc()
        t1 = time.perf_counter()
        records.append(CallRecord(call.label, t0, t1 - t0, error, traceback=trace))
        outputs.append(output)
    return (t_pass, time.perf_counter()), records, outputs


def canonical(result):
    """A JSON-ready form of a call's result that pins every exact value."""
    if hasattr(result, "to_json"):
        return result.to_json()
    if isinstance(result, Fraction):
        return f"{result.numerator}/{result.denominator}"
    if isinstance(result, tuple):  # min_aspect_ratio: (optimum, map, certificate)
        optimum, wmap, _ = result
        return {"optimum": canonical(optimum), "weights": [canonical(w) for w in wmap.weights]}
    raise TypeError(f"no canonical form for {type(result).__name__}")


def digest(result) -> str:
    text = json.dumps(canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_pass(calls, records, outputs, pinned: dict, reference: dict) -> None:
    """Gate every successful call; a failed check becomes the record's error.

    ``reference`` maps labels to the first pass's digests and is filled on
    the first pass, so later passes (traced ones too) must reproduce it.
    """
    for call, record, output in zip(calls, records, outputs):
        if record.error is not None:
            continue
        try:
            problems = call.gate(output)
            record.digest = digest(output)
        except Exception as exc:
            problems = [f"gate raised {type(exc).__name__}: {exc}"]
            record.traceback = traceback.format_exc()
        if not problems and record.label in pinned and record.digest != pinned[record.label]:
            problems = [f"digest {record.digest} differs from pinned {pinned[record.label]}"]
        expected = reference.setdefault(record.label, record.digest)
        if not problems and record.digest != expected:
            problems = [f"digest {record.digest} differs from the first pass's {expected}"]
        if problems:
            record.error = "gate: " + "; ".join(problems[:3])


# ---------------------------------------------------------------- measure


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    pinned: dict | None = None,
) -> dict:
    """Run one workload and return its result record (see the module doc)."""
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    if pinned is None:
        pinned = json.loads(PINNED.read_text())
    probe = speed.Probe()
    setup_spans = []
    reference: dict[str, str] = {}
    passes: list[list[CallRecord]] = []
    untraced, traced, layer_samples, spans = [], [], [], []
    # Passes (or untraced/traced pairs) repeat while another one of the
    # longest length seen still fits in the run's time; at least one runs.
    spent = step = 0.0
    probe.start()
    try:
        while not passes or (spent + step <= seconds and time.perf_counter() + step <= deadline):
            # Set-ups are spread over the run, one batch before each pass.
            # They are not counted against ``seconds``.
            for _ in range(1 if trace else SETUP_REPEATS):
                gc.collect()
                package, calls, span = setup(workload, seed, scale)
                setup_spans.append(span)
            t_step = time.perf_counter()
            span, records, outputs = run_pass(package, calls, deadline)
            check_pass(calls, records, outputs, pinned, reference)
            passes.append(records)
            untraced.append((span, records))
            if trace:
                # Binds the modules set-up just imported; spans leave out
                # the probe's time.
                tr = tracer.Tracer(PACKAGE, probe.clock)
                tr.install()
                try:
                    traced_calls = workloads.build(workload, package, seed, scale)
                    span, records, outputs = run_pass(package, traced_calls, deadline)
                finally:
                    tr.uninstall()
                check_pass(traced_calls, records, outputs, pinned, reference)
                passes.append(records)
                traced.append((span, records))
                layer_samples.append(tr.metrics())
                spans.append(tr.spans())
            elapsed = time.perf_counter() - t_step
            spent += elapsed
            step = max(step, elapsed)
    finally:
        probe.stop()

    # Every interval is put on the reference scale once the run's last
    # probe is in, so each has probes on both sides.
    for records in passes:
        for r in records:
            r.ref_seconds = probe.normalise(r.start, r.start + r.seconds)
    untraced_walls = [probe.normalise(*span) for span, _ in untraced]
    traced_walls = [probe.normalise(*span) for span, _ in traced]
    op_max = [max(r.ref_seconds for r in records) for _, records in untraced]
    setup_times = [probe.normalise(*span) for span in setup_spans]
    raw = {
        "wall_s": statistics.median(b - a for (a, b), _ in untraced),
        "op_max_s": statistics.median(max(r.seconds for r in records) for _, records in untraced),
        "setup_s": statistics.median(b - a for a, b in setup_spans),
        "probes": len(probe.lengths),
        "probe_median_s": statistics.median(probe.lengths),
    }

    attempted = sum(len(p) for p in passes)
    failed = sum(r.error is not None for p in passes for r in p)
    if trace:
        units = tracer.metric_units()
        values = {name: statistics.median(s[name] for s in layer_samples) for name in layer_samples[0]}
        values["trace.overhead_share"] = (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
        )
    else:
        units = E2E_UNITS
        values = {
            "wall_s": statistics.median(untraced_walls),
            "op_max_s": statistics.median(op_max),
            "pass_share": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes),
        "run_s": time.perf_counter() - started,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "raw": raw,
        "calls": [[dataclasses.asdict(r) for r in p] for p in passes],
        "spans": spans,
    }


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git;
    "unknown" when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_record(record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans")
    if spans:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(spans))
    path = OUT_DIR / f"result-{stem}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = write_record(record)
    print(
        f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"passes={record['passes']} git={record['git_revision'][:12]} "
        f"python={record['python']} nproc={record['nproc']} record={path.relative_to(ROOT)}"
    )
    for passes in record["calls"]:
        for call in passes:
            if call["error"] is not None:
                print(f"FAILED {call['label']}: {call['error']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
