#!/usr/bin/env python3
"""Benchmark for hfg: three closed-loop workloads, measured end to end and traced.

Run from the repository root:

    python3 perfbench/run.py --workload verify_ladder --seed 1 --seconds 30 --trace 0

Workloads: verify_ladder, invariants_sweep, ideal_products (see
perfbench/README.md).  With ``--trace 0`` the workload runs for ``--seconds``
and the end-to-end metrics are printed.  With ``--trace 1`` one pass runs
untraced and then the same pass runs traced, in-process and serially, and
the per-layer metrics are printed together with the tracing overhead.

Lines starting with "#" are for people: the environment fingerprint and
every metric with its unit and sample count.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Exit status: 0 when every output matched its reference, 1 when one
did not, 2 when the benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("verify_ladder", "invariants_sweep", "ideal_products")
HFG_MODULES = (
    "hfg",
    "hfg.cli",
    "hfg.errors",
    "hfg.fatgrid",
    "hfg.invariants",
    "hfg.polycore",
    "hfg.projective",
    "hfg.verify",
)
SETUP_REPEATS = 11
# Kernel time at reference speed: when one kernel run takes REF_KERNEL_S,
# raw and reference seconds agree (see SpeedProbe).
REF_KERNEL_S = 0.0025
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 0.5
PROBE_BURST = 8


def calibration_kernel() -> None:
    """Fixed stdlib work in the style of hfg's inner loops: exact Fraction
    sums whose denominators grow into big integers."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)


class SpeedProbe:
    """Tracks the machine's speed by timing a fixed kernel between operations.

    On a shared CPU the speed of the same Python code can drift by tens of
    percent within minutes.  The gated times are therefore given in
    reference seconds: each operation's raw time x REF_KERNEL_S / (mean
    kernel time over the samples taken from PROBE_WINDOW_S before it starts
    to PROBE_WINDOW_S after it ends).  The kernel runs at most every
    PROBE_INTERVAL_S, also while the CLI subprocess of verify_ladder works.
    It does not touch hfg, so a change to hfg moves raw and reference
    seconds alike.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._last = time.perf_counter()

    def sample(self, force: bool = False) -> None:
        since = time.perf_counter() - self._last
        if not force and since < PROBE_INTERVAL_S:
            return
        for _ in range(min(PROBE_BURST, max(1, int(since / PROBE_INTERVAL_S)))):
            # CPU time of this thread: the kernel's speed, not its share of
            # the CPUs (it may run beside the CLI's busy workers)
            start = time.thread_time()
            calibration_kernel()
            self.kernel_s.append(time.thread_time() - start)
            self.times.append(time.perf_counter())
        self._last = time.perf_counter()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per raw second for work done in [start, end]."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        if lo == hi:  # no sample in the window: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return REF_KERNEL_S / statistics.fmean(self.kernel_s[lo:hi])


class BenchError(Exception):
    """The benchmark cannot run here (exit status 2)."""


def load_hfg(root: Path = ROOT):
    """Import hfg from the source tree of `root`, and from nowhere else."""
    src = root / "src"
    if not (src / "hfg" / "cli.py").is_file():
        raise BenchError("no hfg source tree at %s" % (src / "hfg"))
    sys.path.insert(0, str(src))
    for name in HFG_MODULES:
        importlib.import_module(name)
    hfg = sys.modules["hfg"]
    if Path(hfg.__file__).resolve().parent != (src / "hfg").resolve():
        raise BenchError("hfg was imported from %s, not %s" % (hfg.__file__, src))
    return hfg


def make_workload(name: str, hfg, seed: int):
    if name == "verify_ladder":
        return wl.VerifyLadder(hfg, seed, ROOT, OUT)
    if name == "invariants_sweep":
        return wl.InvariantsSweep(hfg, seed)
    return wl.IdealProducts(hfg, seed)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure_setup(name: str, hfg, seed: int, probe: SpeedProbe):
    """Set-up time: a fresh interpreter importing hfg.cli, plus building the
    workload's inputs, SETUP_REPEATS times.  Returns the raw times, their
    (start, end) spans and the workload."""
    times, spans = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import hfg.cli"],
            cwd=ROOT,
            env=child_env(),
            check=True,
        )
        workload = make_workload(name, hfg, seed)
        end = time.perf_counter()
        times.append(end - start)
        spans.append((start, end))
        probe.sample(force=True)
    return times, spans, workload


def cpu_now() -> float:
    """CPU seconds of this process plus its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Samples:
    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.items: list = []
        self.failures: list[str] = []
        self.passes = 0

    def __len__(self) -> int:
        return len(self.wall)


def run_loop(
    workload,
    seconds: float,
    max_passes: int | None = None,
    tracer=None,
    probe: SpeedProbe | None = None,
):
    """Closed loop: run operations until `seconds` have passed.

    Workloads with whole_passes stop only between passes, and start a pass
    only when the mean pass time so far still fits in the time left.
    """
    samples = Samples()
    start = time.perf_counter()
    k = 0
    while max_passes is None or k < max_passes:
        elapsed = time.perf_counter() - start
        if workload.whole_passes and k and elapsed * (k + 1) / k > seconds:
            break
        stopped = False
        for item in workload.pass_ops(k):
            if not workload.whole_passes and time.perf_counter() - start >= seconds:
                stopped = True
                break
            if tracer is not None:
                tracer.op = len(samples)
            if probe is not None:
                probe.sample()
            error = None
            cpu0 = cpu_now()
            t0 = time.perf_counter()
            try:
                outcome = workload.run(item)
            except Exception as exc:  # an operation that raises is a failed one
                error = "%s raised %s: %s" % (item, type(exc).__name__, exc)
            t1 = time.perf_counter()
            cpu1 = cpu_now()
            if error is None:
                try:
                    error = workload.check(item, outcome)
                except Exception as exc:
                    error = "checking %s raised %s: %s" % (item, type(exc).__name__, exc)
            samples.wall.append(t1 - t0)
            samples.cpu.append(cpu1 - cpu0)
            samples.spans.append((t0, t1))
            samples.items.append(item)
            if error is not None:
                samples.failures.append(error)
        if stopped:
            break
        k += 1
        samples.passes = k
    if probe is not None:
        probe.sample(force=True)
    return samples


def per_pass(workload, samples: Samples, values: list[float]) -> float:
    """Expected total of `values` over one pass: the sum over the pass's
    groups (bands, slots or grids) of each group's mean.  A run that stops
    mid-pass thus does not tilt the figure towards the groups it reached."""
    groups: dict = {}
    for value, item in zip(values, samples.items):
        groups.setdefault(workload.group(item), []).append(value)
    total = sum(statistics.fmean(vs) for vs in groups.values())
    return total * workload.pass_size / len(groups)


def percentile(workload, samples: Samples, values: list[float], q: float) -> float:
    """Nearest-rank q-quantile of `values`, each group weighted equally
    (over whole passes this is the plain nearest-rank quantile)."""
    counts: dict = {}
    for item in samples.items:
        key = workload.group(item)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(
        (value, 1.0 / counts[workload.group(item)])
        for value, item in zip(values, samples.items)
    )
    target = q * len(counts)
    cumulative = 0.0
    for value, weight in ordered:
        cumulative += weight
        if cumulative >= target - 1e-9:
            return value
    return ordered[-1][0]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload, samples: Samples, setup, probe: SpeedProbe):
    """Two lists of (name, value, unit, samples): the gated metrics, then the
    figures printed for people only (the same times in raw seconds, and the
    workload-specific figures)."""
    n = len(samples)
    setup_raw, setup_spans = setup

    def figures(wall, cpu, setup_times):
        return [
            ("setup_s", statistics.median(setup_times), "s", len(setup_times)),
            ("pass_s", per_pass(workload, samples, wall), "s", n),
            ("pass_cpu_s", per_pass(workload, samples, cpu), "s", n),
            ("op_p50_ms", percentile(workload, samples, wall, 0.50) * 1e3, "ms", n),
            ("op_p95_ms", percentile(workload, samples, wall, 0.95) * 1e3, "ms", n),
        ]

    factors = [probe.factor(*span) for span in samples.spans]
    gated = figures(
        [w * f for w, f in zip(samples.wall, factors)],
        [c * f for c, f in zip(samples.cpu, factors)],
        [t * probe.factor(*span) for t, span in zip(setup_raw, setup_spans)],
    )
    gated.append(("peak_rss_mb", peak_rss_mb(), "MB", 1))
    raw = figures(samples.wall, samples.cpu, setup_raw)
    info = [("raw_" + name, value, unit, count) for name, value, unit, count in raw]
    info.append(("speed_factor", statistics.median(factors), "ratio", n))
    info.append(("failed_share", len(samples.failures) / n, "ratio", n))
    if workload.name == "verify_ladder":
        example = [i for i, item in enumerate(samples.items) if item[0] == "example"]
        info += [
            ("verify_ladder_s", raw[1][1], "s", samples.passes),
            ("verify_example_s", statistics.median(samples.wall[i] for i in example), "s", len(example)),
            ("verify_example_cpu_s", statistics.median(samples.cpu[i] for i in example), "s", len(example)),
            ("verify_cpu_s", raw[2][1], "s", samples.passes),
            ("checks_skipped", workload.skipped / samples.passes, "count", samples.passes),
            ("pool_utilization", sum(samples.cpu) / (workload.jobs * sum(samples.wall)), "ratio", n),
        ]
    elif workload.name == "invariants_sweep":
        under = sum(1 for item in samples.items if item["under_cap"])
        info += [
            ("invariants_per_s", n / sum(samples.wall), "1/s", n),
            ("invariants_p50_ms", raw[3][1], "ms", n),
            ("invariants_p95_ms", raw[4][1], "ms", n),
            ("under_cap_share", under / n, "ratio", n),
        ]
    else:
        info += [
            ("ideal_ops_per_s", n / sum(samples.wall), "1/s", n),
            ("ideal_op_p50_ms", raw[3][1], "ms", n),
        ]
    return gated, info


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("share", "efficiency")):
        return "ratio"
    if name.endswith("coeff_bits.max"):
        return "bits"
    return "count"


def traced(workload, samples_untraced: Samples):
    """Run the same single pass again under the tracer."""
    release = getattr(workload, "release", None)
    if release is not None:
        release()
    tracer = Tracer()
    tracer.install()
    try:
        samples = run_loop(workload, math.inf, max_passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.summary(len(samples), getattr(workload, "jobs", 1))
    untraced_s, traced_s = sum(samples_untraced.wall), sum(samples.wall)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["cli.checks_skipped"] = getattr(workload, "skipped", 0)
    return samples, metrics, tracer


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hfg").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(args, workload) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    try:
        import gmpy2  # noqa: F401  (hfg.verify.exact_rank switches on it)

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    seeds = {"seed": args.seed}
    pool = getattr(workload, "pool", None)
    if pool is not None:
        seeds["pool_seed"] = pool["pool_seed"]
        seeds["pick"] = "%s:%d:<pass>" % (workload.name, args.seed)
    else:
        seeds["grid"] = "verify_ladder:%d" % args.seed
    return {
        "commit": commit,
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "gmpy2": has_gmpy2,
        "workload": args.workload,
        "trace": args.trace,
        "seeds": seeds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        hfg = load_hfg()
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    probe = SpeedProbe()
    *setup, workload = measure_setup(args.workload, hfg, args.seed, probe)
    workload.while_waiting = probe.sample
    print("# env %s" % json.dumps(fingerprint(args, workload), sort_keys=True))

    if args.trace:
        if args.workload == "verify_ladder":
            workload.in_process = True
        first = run_loop(workload, math.inf, max_passes=1)
        workload.skipped = 0
        second, layer, tracer = traced(workload, first)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / ("trace-%s-%d.json" % (args.workload, args.seed))
        tracer.write(trace_path)
        print("# spans written to %s" % trace_path.relative_to(ROOT))
        if tracer.missing:
            print("# missing (not reported): %s" % ", ".join(tracer.missing))
        failures = first.failures + second.failures
        attempted = len(first) + len(second)
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in sorted(layer.items())
        }
        for name, value in sorted(layer.items()):
            print("# %-52s %14.6g %s" % (name, value, layer_unit(name)))
    else:
        samples = run_loop(workload, args.seconds, probe=probe)
        gated, info = end_to_end(workload, samples, setup, probe)
        failures, attempted = samples.failures, len(samples)
        for name, value, unit, count in gated + info:
            print("# %-20s %14.6g %-6s n=%d" % (name, value, unit, count))
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in gated}

    for failure in failures[:10]:
        print("FAILED: %s" % failure, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
