"""Benchmark of the qig command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the checkout's ``src/`` and
exits 2 without a result when there is none.  Each operation is one
``python -m qig.cli`` process, started by a single client in a closed loop
(the next starts when the previous exits), with BLAS pinned to one thread.
Workloads, with inputs drawn from --seed:

  verify-all   `qig verify all` back to back; drives every layer.
  cli-oneshot  a seeded sequence of short commands, mostly start-up cost.
  overlay      `qig export --what overlay` over one trajectory.

--trace 0 runs the workload for --seconds and reports the end-to-end
metrics: set-up time (a fresh interpreter finishing `import qig.cli`), the
mean wall time of one operation, and the largest child max-RSS.  The two
times are scaled by a calibration kernel timed in the same run (see
CALIBRATION), because a shared machine's speed drifts by tens of percent
from one minute to the next.  The report before the result line also gives
the unscaled figures a user sees (verify_wall_s, cli_p50_ms, cli_p90_ms,
overlay_steps_per_s, error_rate) with their sample counts.

--trace 1 replays the workload's command lines in rounds of one untraced
and one traced pass (perfbench/tracer.py wraps the library's public
functions at run time) and reports per-layer counts and self times; the
traced passes must give identical counts.

Every operation's result is checked (see workloads.py).  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it are a report with provenance: machine, versions, BLAS
and its thread caps, commit, seed and load average.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import SUITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "QIG_THREADS": "1"}
SAMPLE_PAIRS = 15       # set-up and calibration samples per end-to-end run
IMPORTTIME_REPEATS = 5  # `python -X importtime` children per traced run
TRACE_PASSES = 2
CLI_TRACE_OPS = 10      # cli-oneshot ops replayed in a traced run
DEADLINE_S = 170.0      # a run never outlives this, whatever --seconds is
# The calibration kernel: a fresh interpreter importing numpy and running a
# loop of small-array calls, the same kind of work as a qig command, but no
# qig code.  Wall times in a run are scaled by CALIBRATION_REF_S over its
# mean wall time in that run, which cancels most of the drift of a shared
# machine's speed.  CALIBRATION_REF_S is about its wall time on the machine
# the baseline was recorded on (2 vCPUs, Python 3.11.7, numpy 2.4.6).
CALIBRATION = """
import numpy as np
v, m = np.array([0.1, 0.2, 0.3]), np.array([[2.0, 0.5], [0.5, 1.0]])
acc = 0.0
for i in range(1500):
    v = 0.5 * np.cross(v, (0.3, 0.2, 0.1))
    w, _ = np.linalg.eigh(m)
    acc += float(w[0]) + i % 7
"""
CALIBRATION_REF_S = 0.30
# A check raises these on a wrong or unreadable result (workloads.Mismatch
# is a ValueError).
CHECK_ERRORS = (ValueError, KeyError, TypeError, IndexError)

# Per-layer metric -> (span written by tracer.py, field of the span, unit).
# The import.* metrics come from `python -X importtime` instead.
SPAN_METRICS = {
    "cli.main.self_s": ("cli.main", "self_s", "s"),
    **{f"verify.{s}.wall_s": (f"verify.{s}", "total_s", "s") for s in SUITES},
    **{f"{span}.{field}": (span, field, unit)
       for span in ("vector_fields.field_eval", "vector_fields.lie_bracket_numeric",
                    "metric_family.metric_cartesian", "metric_family.inverse_metric",
                    "metric_family.big_f", "ode_classifier.classify",
                    "group_actions.action_alpha_a", "group_actions.action_bkm",
                    "group_actions.sl_from_generators", "group_actions.spectral",
                    "state_space.bloch_from_state", "kernel.eigh", "kernel.cross")
       for field, unit in (("calls", "count"), ("self_s", "s"))},
    "vector_fields.verify_commutator_relations.self_s":
        ("vector_fields.verify_commutator_relations", "self_s", "s"),
    "metric_family.scan_monotonicity.self_s":
        ("metric_family.scan_monotonicity", "self_s", "s"),
    "flow_engine.integrate_flow.self_s": ("flow_engine.integrate_flow", "self_s", "s"),
    "flow_engine.orbit_curve.self_s": ("flow_engine.orbit_curve", "self_s", "s"),
    "flow_engine.rk4_steps": ("flow_engine.integrate_flow", "units", "count"),
    "flow_engine.orbit_samples": ("flow_engine.orbit_curve", "units", "count"),
    "kernel.eigh.matrices": ("kernel.eigh", "units", "count"),
}
IMPORT_METRICS = {"import.numpy_ms": "numpy", "import.qig_ms": "qig",
                  "import.cli_ms": "qig.cli"}


class Runner:
    """Starts python children in the checkout with the caps and src/ on the path."""

    def __init__(self, started: float):
        self.deadline = started + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # children use the bytecode cache
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")

    def python(self, args: list):
        """Run `python ARGS`; return (wall seconds, exit code, stdout, stderr)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            return time.perf_counter() - start, None, "", f"timed out: {exc}"
        return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr

    def qig(self, argv: list):
        return self.python(["-m", "qig.cli", *argv])

    def traced(self, argv: list, trace_file: Path):
        return self.python([str(HERE / "tracer.py"), str(trace_file), *argv])


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, op, code, out: str, err: str) -> bool:
        self.attempted += 1
        try:
            if code is None:
                raise RuntimeError(err)
            op.check(code, out)
            return True
        except (RuntimeError, *CHECK_ERRORS) as exc:
            self.fail(f"{' '.join(op.argv)[:120]}: {exc}; stderr: {err[-300:]}")
            return False

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


def median(values):
    return statistics.median(values) if values else float("nan")


def nearest_rank(values, q: float):
    """The q-quantile by nearest rank, and how many samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_loop(runner: Runner, ops: list, seconds: float, tally: Tally):
    """Closed loop over ops for `seconds`.

    Returns the wall times of the ops, of the set-up samples (a fresh
    interpreter finishing `import qig.cli`) and of the calibration samples.
    SAMPLE_PAIRS pairs of one set-up and one calibration sample are spread
    evenly through the loop, so they see the same machine load as the ops.
    An op starts only if one more median-length op still ends in time, so a
    run of long ops does not overshoot `seconds` by a whole op.
    """
    setup_args = ["-c", "import qig.cli"]
    runner.python(setup_args)  # untimed: writes the bytecode cache, as an install does
    walls, setups, cals = [], [], []

    def sample_pair():
        wall, code, _, err = runner.python(setup_args)
        tally.attempted += 1
        if code != 0:
            tally.fail(f"import qig.cli exited {code}: {err[-300:]}")
        setups.append(wall)
        wall, code, _, err = runner.python(["-c", CALIBRATION])
        if code != 0:
            raise RuntimeError(f"calibration kernel exited {code}: {err[-300:]}")
        cals.append(wall)

    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while len(setups) < min(SAMPLE_PAIRS, 1 + int(SAMPLE_PAIRS * elapsed / seconds)):
            sample_pair()
        if walls and elapsed + median(walls) > seconds:
            break
        if time.monotonic() >= runner.deadline:
            break
        op = ops[len(walls) % len(ops)]
        wall, code, out, err = runner.qig(op.argv)
        tally.record(op, code, out, err)
        walls.append(wall)
    while len(setups) < SAMPLE_PAIRS and time.monotonic() < runner.deadline:
        sample_pair()
    return walls, setups, cals


def end_to_end(workload: str, runner: Runner, ops: list, seconds: float,
               tally: Tally):
    """Gated metrics, scaled to reference speed, and the report's named metrics.

    The scale is CALIBRATION_REF_S over the run's mean calibration time.  A
    mean, unlike a median, moves smoothly with the share of a run that a
    shared machine spends slowed down, so the op and calibration means cancel
    that share.
    """
    walls, setups, cals = run_loop(runner, ops, seconds, tally)
    speed = CALIBRATION_REF_S / statistics.fmean(cals)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    n = len(walls)
    metrics = {
        "setup_s": {"value": median(setups) * speed, "unit": "s"},
        "call_mean_ref_ms": {"value": 1000.0 * statistics.fmean(walls) * speed,
                             "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    named = {
        "setup_s": dict(metrics["setup_s"], samples=len(setups)),
        "call_mean_ref_ms": dict(metrics["call_mean_ref_ms"], samples=n),
        "setup_raw_s": {"value": median(setups), "unit": "s", "samples": len(setups)},
        "calibration_mean_s": {"value": statistics.fmean(cals), "unit": "s",
                               "samples": len(cals), "speed_factor": speed},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "samples": tally.attempted},
        "error_rate": {"value": tally.failed / tally.attempted, "unit": "ratio",
                       "samples": tally.attempted},
    }
    if workload == "verify-all":
        named["verify_wall_s"] = {"value": median(walls), "unit": "s", "samples": n}
    elif workload == "cli-oneshot":
        p90, beyond = nearest_rank(walls, 0.9)
        named["cli_p50_ms"] = {"value": 1000.0 * median(walls), "unit": "ms",
                               "samples": n}
        named["cli_p90_ms"] = {"value": 1000.0 * p90, "unit": "ms", "samples": n,
                               "samples_beyond": beyond}
    else:
        from workloads import OVERLAY_STEPS
        named["overlay_steps_per_s"] = {"value": OVERLAY_STEPS / median(walls),
                                        "unit": "1/s", "samples": n,
                                        "steps": OVERLAY_STEPS}
    named["samples_s"] = {"calls": walls, "setup": setups, "calibration": cals}
    return metrics, named


def import_times(runner: Runner, tally: Tally) -> dict:
    """Median cumulative `-X importtime` of numpy, qig and qig.cli, in ms."""
    per_module = {name: [] for name in IMPORT_METRICS.values()}
    for _ in range(IMPORTTIME_REPEATS):
        _, code, _, err = runner.python(["-X", "importtime", "-c", "import qig.cli"])
        tally.attempted += 1
        if code != 0:
            tally.fail(f"importtime child exited {code}")
            continue
        seen = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
            if m and m.group(2) in per_module:
                seen.setdefault(m.group(2), int(m.group(1)) / 1000.0)
        for name, values in per_module.items():
            values.append(seen.get(name, 0.0))
    return {metric: median(per_module[name]) for metric, name in IMPORT_METRICS.items()}


def per_layer(runner: Runner, ops: list, tally: Tally, work: Path):
    """TRACE_PASSES rounds of one untraced and one traced pass over ops."""
    passes, untraced_walls, traced_walls, absent = [], [], [], set()
    for p in range(TRACE_PASSES):
        total = 0.0
        for op in ops:
            wall, code, out, err = runner.qig(op.argv)
            tally.record(op, code, out, err)
            total += wall
        untraced_walls.append(total)
        spans, total = {}, 0.0
        for i, op in enumerate(ops):
            trace_file = work / f"trace-{p}-{i}.json"
            wall, code, out, err = runner.traced(op.argv, trace_file)
            total += wall
            if not tally.record(op, code, out, err) or not trace_file.exists():
                continue
            report = json.loads(trace_file.read_text(encoding="utf-8"))
            absent.update(report["absent"])
            for name, stat in report["spans"].items():
                acc = spans.setdefault(name, dict.fromkeys(stat, 0))
                for key, value in stat.items():
                    acc[key] += value
        passes.append(spans)
        traced_walls.append(total)

    counts = [{name: (s["calls"], s["units"]) for name, s in spans.items()}
              for spans in passes]
    tally.attempted += 1
    changed = sorted(n for n in set().union(*counts)
                     if len({c.get(n) for c in counts}) > 1)
    if changed:
        tally.fail(f"traced counts differ between passes: {changed[:5]}")

    metrics, absent_metrics = {}, []
    for metric, (span, field, unit) in SPAN_METRICS.items():
        values = [spans.get(span, {}).get(field, 0) for spans in passes]
        value = values[0] if unit == "count" else statistics.fmean(values)
        metrics[metric] = {"value": value, "unit": unit}
        if span in absent:
            absent_metrics.append(metric)
    for metric, value in import_times(runner, tally).items():
        metrics[metric] = {"value": value, "unit": "ms"}
    overhead = statistics.fmean(traced_walls) - statistics.fmean(untraced_walls)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, absent_metrics, {"untraced_wall_s": untraced_walls,
                                     "traced_wall_s": traced_walls,
                                     "ops_replayed": len(ops)}


def provenance(seed: int) -> dict:
    import numpy as np

    info = {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "load_average_at_start": list(os.getloadavg()),
            "thread_caps_env": THREAD_CAPS,
            "blas_threads_in_effect": _openblas_threads(),
            "git_commit": _git_commit(), "src_sha256": _src_digest()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = None
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_threads():
    """Threads OpenBLAS will use in this process, which has the children's caps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, name, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-all", "cli-oneshot", "overlay"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "qig" / "cli.py").is_file():
        sys.stderr.write(f"no qig sources under {SRC}; run from a qig checkout\n")
        return 2
    os.environ.update(THREAD_CAPS)  # before numpy loads, here and in children
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    runner = Runner(started)
    tally = Tally()
    info = provenance(args.seed)
    ops = WORKLOADS[args.workload](args.seed)
    report = {"workload": args.workload, "trace": args.trace, "provenance": info}
    if args.trace:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
            trace_ops = ops[:CLI_TRACE_OPS] if args.workload == "cli-oneshot" else ops
            metrics, absent, detail = per_layer(runner, trace_ops, tally, Path(work))
        report.update(absent=absent, replay=detail)
    else:
        metrics, named = end_to_end(args.workload, runner, ops, args.seconds, tally)
        report["metrics"] = named
    report.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.reasons)
    print(json.dumps(report, indent=2))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
