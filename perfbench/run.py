"""rncurves benchmark.

    python3 perfbench/run.py --workload witness|atlas|ideal --seed N --seconds S --trace 0|1

Run from the repository root.  One caller in one process and one thread
sends `rncurves` command lines to `rncurves.cli.main(argv)` in a closed loop
and checks every output against its oracle (see workloads.py and
oracles.py).  The seed fixes INPUT_SETS input sets of one pass each, all
with the same mix of ops; the run repeats whole passes, cycling through the
sets, while the next pass is expected to end within `--seconds`.
Throughput is the median over passes, so one slow pass does not move it.
The op timings are scaled to a reference speed of the machine (see
REF_NOMINAL_S).

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` the run makes one untraced pass and then one traced pass (see
tracing.py) and reports the per-layer metrics; the spans go to
perfbench/out/.  The line before the result is a report with the
environment, the failure fraction, sample counts and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
INPUT_SETS = 4

# The development machine's host slows every process on it by up to 2x, for
# a fraction of a second to minutes at a time.  So the run times a short
# fixed Fraction loop between ops, about every REF_EVERY_S, and restates each
# latency for a machine on which that loop takes REF_NOMINAL_S: it is
# multiplied by REF_NOMINAL_S / (mean of the reference times just before and
# just after it).  The loop does not touch rncurves, so a change to the
# program moves the scaled timings as much as the raw ones, which the report
# line carries too.
REF_ITERATIONS = 3000
REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.25

# A fresh interpreter importing the CLI and building the inputs of the first
# pass: what one user invocation pays before its first command runs.  The
# child prints the monotonic clock when it is done, so interpreter teardown
# and the parent's wait (which polls in steps of up to 50 ms) are not counted.
SETUP_CHILD = (
    "import sys, time\n"
    "from pathlib import Path\n"
    "import rncurves.cli\n"
    "import workloads\n"
    "workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))\n"
    "print(time.perf_counter())\n"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["witness", "atlas", "ideal"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rncurves").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def reference_s() -> float:
    """Time of a fixed pure-Python Fraction loop that does not touch rncurves:
    the machine's speed at the moment."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, REF_ITERATIONS):
        total += Fraction(i, i % 97 + 1)
    return perf_counter() - start


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """A time measured between two reference times, restated for a machine
    on which the reference loop takes REF_NOMINAL_S."""
    return seconds * 2 * REF_NOMINAL_S / (ref_before + ref_after)


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall times of SETUP_PROBES fresh processes, after one untimed probe
    that fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    times = []
    for i in range(SETUP_PROBES + 1):
        cmd = [sys.executable, "-c", SETUP_CHILD, workload, str(seed), str(workdir / f"setup-{i}")]
        start = perf_counter()
        res = subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120, capture_output=True, text=True)
        if i:
            times.append(float(res.stdout.split()[-1]) - start)
    return times


def run_op(cli, op) -> tuple[float, str | None]:
    """Run one op; returns its latency and None, or a failure message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # an op that crashes is a failed op, not a dead run
            rc = f"{type(e).__name__}: {e}"
        latency = perf_counter() - start
    if rc != 0:
        return latency, f"exit {rc!r} {err.getvalue().strip()[:200]}"
    try:
        return latency, op.check(out.getvalue())
    except (ValueError, KeyError, TypeError) as e:
        return latency, f"unreadable output: {type(e).__name__}: {e}"


@dataclass
class Pass:
    wall: float  # wall time of the pass, without the reference loops
    latencies: list[float]
    scaled: list[float]  # the latencies, each scaled by the references around it
    refs: list[float]
    failed: int


def run_pass(cli, ops, failures, tracer=None) -> Pass:
    """One pass over the op list.  Untraced, it times the reference loop
    before the first op, after the last and whenever REF_EVERY_S of ops
    have run since the last time."""
    failed = len(failures)
    latencies, segment, refs = [], [], []
    since_ref = REF_EVERY_S
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_index = i
        elif since_ref >= REF_EVERY_S:
            refs.append(reference_s())
            since_ref = 0.0
        latency, problem = run_op(cli, op)
        latencies.append(latency)
        segment.append(len(refs) - 1)
        since_ref += latency
        if problem:
            failures.append(f"{op.kind} {' '.join(op.argv)}: {problem}")
    wall = perf_counter() - start
    if tracer is None:
        refs.append(reference_s())
        wall -= sum(refs[:-1])
    scaled_latencies = [scaled(x, refs[k], refs[k + 1]) for x, k in zip(latencies, segment)] if refs else []
    return Pass(wall, latencies, scaled_latencies, refs, len(failures) - failed)


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated (statistics.quantiles, inclusive)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rncurves" / "__init__.py").is_file():
        print(f"rncurves sources not found under {SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import rncurves.cli as cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported rncurves from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"run-{os.getpid()}"
    failures: list[str] = []
    report: dict = {}
    try:
        setup = measure_setup(args.workload, args.seed, workdir)
        sets = workloads.build_sets(args.workload, args.seed, workdir / "inputs", INPUT_SETS)
        ops = sets[0]
        if args.trace:
            import tracing

            plain = run_pass(cli, ops, failures).wall
            tracer = tracing.Tracer()
            tracer.install()
            traced = run_pass(cli, ops, failures, tracer).wall
            passes = 2
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
            metrics["bench.untraced_ops_per_s"] = {"value": len(ops) / plain, "unit": "ops/s"}
            metrics["bench.traced_ops_per_s"] = {"value": len(ops) / traced, "unit": "ops/s"}
            metrics["bench.trace_slowdown"] = {"value": traced / plain, "unit": "ratio"}
        else:
            elapsed = passes = 0
            rates = {"raw": [], "scaled": []}
            latencies = {"raw": [], "scaled": []}
            refs = []
            while True:
                start = perf_counter()
                done = run_pass(cli, sets[passes % INPUT_SETS], failures)
                last = perf_counter() - start
                rate = (len(ops) - done.failed) / done.wall
                rates["raw"].append(rate)
                # The oracle checks between ops take the pass's mean scale.
                rates["scaled"].append(rate * sum(done.latencies) / sum(done.scaled))
                latencies["raw"] += done.latencies
                latencies["scaled"] += done.scaled
                refs += done.refs
                elapsed += last
                passes += 1
                if elapsed + last > args.seconds:
                    break
            timings = {
                kind: {
                    "ops_per_s": statistics.median(rates[kind]),
                    "op_p50_ms": 1000 * statistics.median(latencies[kind]),
                    "op_p90_ms": 1000 * quantile(latencies[kind], 90),
                }
                for kind in rates
            }
            units = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
            metrics = {name: {"value": v, "unit": units[name]} for name, v in timings["scaled"].items()}
            metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            }
            p90 = timings["scaled"]["op_p90_ms"] / 1000
            report.update(
                timings=timings,
                samples=len(latencies["scaled"]),
                samples_beyond_p90=sum(x > p90 for x in latencies["scaled"]),
                pass_ops_per_s=rates["scaled"],
                reference_s={"median": statistics.median(refs), "min": min(refs), "max": max(refs), "samples": len(refs)},
            )
        attempted = passes * len(ops)
        report.update(
            workload=args.workload,
            passes=passes,
            ops_per_pass=len(ops),
            fail_frac=len(failures) / attempted,
            failures=failures[:20],
            setup_samples_s=setup,
            environment={
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "loadavg_before": load_before,
                "loadavg_after": os.getloadavg(),
                "rncurves_commit": git_commit(),
                "rncurves_source_sha256": source_digest(),
                "workload_seed": args.seed,
            },
        )
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans, {"report": report, "ops": [op.argv for op in ops]})
            report["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
