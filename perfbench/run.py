"""Benchmark of the orbitdensity CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-exact --seed 1 --seconds 30 --trace 0

``--workload`` is one of WORKLOADS (see workloads.py) or ``all``.

With ``--trace 0`` each repetition spawns ``python -m orbitdensity.cli``
from the checkout's ``src`` once per command of the workload, one child at
a time, and takes each child's wall time, CPU time and peak RSS from its
own rusage (``os.wait4``). Repetitions run until ``--seconds`` would be
exceeded; the reported value of a metric is the mean over them. The
per-repetition times are bimodal on a shared VM (each vCPU switches between
a fast and a slow state), and a median jumps between the two modes where a
mean moves with their mix. ``setup_s`` is the mean wall time of
``<command> --help`` spawns, HELP_SPAWNS after each repetition.

The speed of such a machine also drifts by tens of percent over minutes,
which no statistic within one run removes. So before each workload child
the fixed job in reference.py runs on the same CPU, and the two times are
reported scaled to the reference speed: multiplied by REFERENCE_S over the
run's mean reference time. The table shows the unscaled samples too.

With ``--trace 1`` untraced and traced repetitions alternate. A traced
repetition runs the command in-process under trace_cli.py, which wraps the
program's public functions in place, and the per-layer metrics are the
medians of its per-function totals. ``trace.overhead`` is the traced over
the untraced median wall time, minus 1.

Every repetition's output is checked (workloads.py). The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable table and the run context.
The full record, with every sample, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from trace_cli import reported_fields
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# BLAS threads are fixed, and recorded in the run context, so that a run
# does not depend on the BLAS library's default; one thread keeps each child
# on one core of a 2-core machine.
BLAS_THREADS = 1
MIN_REPEATS = 3
HELP_SPAWNS = 2
# Mean wall time of reference.py on the reference machine (0.396 s over five runs);
# wall_s and setup_s are reported as if every reference run had taken this.
REFERENCE_S = 0.4
REFERENCE_ARGV = [sys.executable, str(BENCH_DIR / "reference.py")]
# No run of one workload takes longer than this, whatever --seconds says:
# a child still running at the limit is killed and counted as failed.
RUN_LIMIT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_FUNCTIONS = reported_fields()
LAYERS = ("cli", "finite_gabor", "frames", "linalg", "bergman", "fuchsian", "hyperbolic")
EMIT_FUNCTIONS = ("cli.Emitter.record", "cli.Emitter.summary", "finite_gabor.ScanReport.to_csv")
UNIT = {"self_s": "s"}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for function, fields in LAYER_FUNCTIONS.items():
        units.update({f"{function}.{field}": UNIT.get(field, "count") for field in fields})
    units.update(
        {
            "frames.inner_calls": "count",
            "fuchsian.ball_size": "count",
            "linalg.hermitian_eigen.calls_per_case": "calls/case",
            "frames.gram.calls_per_case": "calls/case",
            "cli.emit.self_s": "s",
            "cli.stdout_bytes": "B",
            "cli.cpu_s": "s",
            "trace.overhead": "ratio",
            "trace.unspanned_s": "s",
            "trace.spans": "count",
            "trace.missing": "count",
        }
    )
    return units


def layer_metrics(report: dict) -> dict:
    """Per-layer numbers of one traced repetition (trace_cli.py's report)."""
    functions = report["functions"]

    def total(name, field):
        return functions.get(name, {}).get(field, 0)

    out = {}
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.self_s"] = sum(
            stats["self_s"] for name, stats in functions.items() if name.startswith(prefix)
        )
    for function, fields in LAYER_FUNCTIONS.items():
        for field in fields:
            out[f"{function}.{field}"] = total(function, field)
    cases = total("finite_gabor.verify_density_theorem", "calls")
    out["frames.inner_calls"] = sum(stats.get("inner_calls", 0) for stats in functions.values())
    out["fuchsian.ball_size"] = total("fuchsian.ball_enumerate", "ball_size")
    out["linalg.hermitian_eigen.calls_per_case"] = (
        total("linalg.hermitian_eigen", "calls") / cases if cases else 0.0
    )
    out["frames.gram.calls_per_case"] = total("frames.gram", "calls") / cases if cases else 0.0
    out["cli.emit.self_s"] = sum(total(name, "self_s") for name in EMIT_FUNCTIONS)
    out["trace.unspanned_s"] = total("cli.main", "self_s")
    out["trace.spans"] = len(report["spans"])
    out["trace.missing"] = len(report["missing"])
    return out


class Child:
    """One finished child process: exit code, output and its own rusage.

    With ``cpu`` set, the child is started pinned to that CPU.
    """

    def __init__(self, argv, env, timeout=RUN_LIMIT_S, cpu=None):
        start = time.perf_counter()
        allowed = os.sched_getaffinity(0)
        if cpu is not None:
            # the child inherits the affinity of the thread that starts it
            os.sched_setaffinity(0, {cpu})
        try:
            proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        finally:
            os.sched_setaffinity(0, allowed)
        lock = threading.Lock()
        reaped = False
        self.timed_out = False

        def kill():
            with lock:
                if not reaped:
                    self.timed_out = True
                    proc.kill()

        stderr = []
        reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
        timer = threading.Timer(timeout, kill)
        reader.start()
        timer.start()
        try:
            stdout = proc.stdout.read()
            reader.join()
            # wait for the exit without reaping, so kill() never hits a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stdout_bytes = len(stdout)
        self.stdout = stdout.decode("utf-8", errors="replace")
        self.stderr = stderr[0].decode("utf-8", errors="replace") if stderr else ""


class Repetition:
    """The children of one repetition, one per command of the workload."""

    def __init__(self, children):
        self.wall_s = sum(c.wall_s for c in children)
        self.cpu_s = sum(c.cpu_s for c in children)
        self.peak_rss_mb = max(c.peak_rss_mb for c in children)
        self.stdout_bytes = sum(c.stdout_bytes for c in children)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


CONTEXT_PROBE = """
import json, sys, numpy, orbitdensity
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "package": orbitdensity.__file__}))
"""


def git_commit() -> str:
    # the ceiling keeps git from reporting a repository that encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_context(env) -> dict:
    """Versions and machine facts; the probe also warms the bytecode cache."""
    probe = Child([sys.executable, "-c", CONTEXT_PROBE], env)
    if probe.exit_code != 0:
        raise SystemExit(f"perfbench: cannot import orbitdensity from {SRC}:\n{probe.stderr}")
    context = json.loads(probe.stdout)
    package = Path(context["package"]).resolve()
    context["measured_src"] = SRC in package.parents
    if not context["measured_src"]:
        raise SystemExit(f"perfbench: orbitdensity was imported from {package}, not {SRC}")
    context.update(
        {
            "commit": git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "blas_threads": BLAS_THREADS,
        }
    )
    return context


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Tally:
    """Attempted and failed child runs, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, label, child, failures):
        self.attempted += 1
        if child.timed_out:
            failures = ["killed at the run time limit"] + failures
        elif child.exit_code != 0:
            failures = [f"exit code {child.exit_code}: {child.stderr.strip()[-500:]}"] + failures
        if failures:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{label}: {'; '.join(failures)}")
        return not failures


def merge_reports(reports) -> dict:
    """One trace report for a repetition made of several commands: per-function
    numbers are summed, spans and missing targets are joined."""
    functions = {}
    for report in reports:
        for name, stats in report["functions"].items():
            merged = functions.setdefault(name, {})
            for key, value in stats.items():
                merged[key] = merged.get(key, 0) + value
    return {
        "functions": functions,
        "spans": [span for report in reports for span in report["spans"]],
        "missing": sorted({name for report in reports for name in report["missing"]}),
        "counter_failures": sorted({n for report in reports for n in report["counter_failures"]}),
    }


def run_workload(name, seed, seconds, trace, smoke=False) -> dict:
    """Measure one workload; returns the full record of the run.

    One repetition runs each of the workload's commands once; its wall and
    CPU time are their sums and its peak RSS their maximum. Each child is
    pinned to one CPU, and consecutive repetitions rotate over the CPUs, so
    that every run samples each CPU alike. Without tracing,
    each repetition is followed by HELP_SPAWNS ``--help`` spawns, so that the
    set-up samples are spread over the same stretch of time as the
    workload's.
    """
    workload = WORKLOADS[name]
    env = child_env()
    context = run_context(env)
    tally = Tally()
    commands = [(command, command.argv(seed, smoke)) for command in workload.commands]
    help_argv = [sys.executable, "-m", "orbitdensity.cli", commands[0][1][0], "--help"]
    OUT_DIR.mkdir(exist_ok=True)
    untraced, setup, traced, facts, reference = [], [], [], {}, []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    while True:
        rep = len(untraced)
        children = []
        for j, (command, cli_argv) in enumerate(commands):
            cpu = cpus[(rep + j) % len(cpus)]
            child = Child(REFERENCE_ARGV, env, deadline - time.perf_counter(), cpu)
            checksum = child.stdout.startswith("reference checksum")
            tally.add(f"reference {rep}", child, [] if checksum else ["reference.py printed no checksum"])
            reference.append(child.wall_s)
            argv = [sys.executable, "-m", "orbitdensity.cli", *cli_argv]
            child = Child(argv, env, deadline - time.perf_counter(), cpu)
            failures, facts[command.label] = command.check(child.stdout, child.stderr, smoke)
            tally.add(f"rep {rep} {command.label}", child, failures)
            children.append(child)
        untraced.append(Repetition(children))
        if trace:
            wall, reports, ok = 0.0, [], True
            for j, (command, cli_argv) in enumerate(commands):
                spans_path = OUT_DIR / f"spans-{name}-{command.label}.json"
                traced_argv = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(rep), str(spans_path)]
                spans_path.unlink(missing_ok=True)
                cpu = cpus[(rep + j) % len(cpus)]
                child = Child(traced_argv + cli_argv, env, deadline - time.perf_counter(), cpu)
                failures, _ = command.check(child.stdout, child.stderr, smoke)
                report = json.loads(spans_path.read_text()) if spans_path.is_file() else None
                if report is None:
                    failures.append("the trace wrote no report")
                elif report["counter_failures"]:
                    # a counter that no longer fits its function would read 0, not fail
                    failures.append("work counters failed: " + ", ".join(report["counter_failures"]))
                ok = tally.add(f"traced rep {rep} {command.label}", child, failures) and ok
                wall += child.wall_s
                reports.append(report)
            if ok:
                traced.append((wall, merge_reports(reports)))
        else:
            for h in range(HELP_SPAWNS):
                cpu = cpus[(rep + h) % len(cpus)]
                child = Child(help_argv, env, deadline - time.perf_counter(), cpu)
                usage = child.stdout.startswith("usage:")
                tally.add(f"setup {rep}", child, [] if usage else ["--help printed no usage"])
                setup.append(child.wall_s)
        elapsed = time.perf_counter() - start
        if len(untraced) >= MIN_REPEATS and elapsed * (1 + 1 / len(untraced)) > seconds:
            break
        if time.perf_counter() >= deadline:
            break
    samples = {
        "wall_s": [r.wall_s for r in untraced],
        "peak_rss_mb": [r.peak_rss_mb for r in untraced],
        "cpu_s": [r.cpu_s for r in untraced],
        "reference_s": reference,
    }
    total_cases = sum(f.get("total_cases", 0) for f in facts.values())
    if total_cases:
        samples["cases_per_s"] = [total_cases / w for w in samples["wall_s"]]
    if trace:
        metrics = traced_metrics(untraced, traced)
        last = traced[-1][1] if traced else {"missing": [], "counter_failures": []}
        facts = dict(facts, missing=last["missing"], counter_failures=last["counter_failures"])
    else:
        samples["setup_s"] = setup
        metrics = {key: statistics.fmean(samples[key]) for key in END_TO_END}
        for key in ("wall_s", "setup_s"):
            metrics[key] *= REFERENCE_S / statistics.fmean(reference)
    return {
        "workload": name,
        "argv": [cli_argv for _, cli_argv in commands],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "context": context,
        "facts": facts,
        "samples": samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "correct": tally.failed == 0,
        "metrics": metrics,
    }


def traced_metrics(untraced, traced) -> dict:
    """Per-layer medians over the traced repetitions, plus the numbers that
    come from the untraced ones."""
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    per_rep = [layer_metrics(report) for _, report in traced]
    walls = [r.wall_s for r in untraced]
    if per_rep:
        metrics.update({key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]})
        metrics["trace.overhead"] = statistics.median(w for w, _ in traced) / statistics.median(walls) - 1
    metrics["cli.stdout_bytes"] = statistics.median(r.stdout_bytes for r in untraced)
    metrics["cli.cpu_s"] = statistics.median(r.cpu_s for r in untraced)
    return metrics


def print_table(record):
    print(f"# perfbench {record['workload']} seed={record['seed']} trace={int(record['trace'])}")
    for argv in record["argv"]:
        print(f"# argv: orbit-density {' '.join(argv)}")
    print("# context: " + " ".join(f"{k}={v!r}" for k, v in record["context"].items()))
    if record["facts"]:
        print("# facts: " + json.dumps(record["facts"]))
    for message in record["failures"]:
        print(f"# FAILED {message}")
    if record["trace"]:
        units = per_layer_units()
        print(f"{'metric':<48} {'unit':>10} {'median':>14}")
        for key, value in record["metrics"].items():
            print(f"{key:<48} {units[key]:>10} {value:>14.6g}")
        return
    units = dict(END_TO_END, cpu_s="s", cases_per_s="1/s", reference_s="s")
    scale = REFERENCE_S / statistics.fmean(record["samples"]["reference_s"])
    print(f"# unscaled samples below; reported wall_s and setup_s are their means times {scale:.6g}")
    print(f"{'metric':<40} {'unit':>8} {'mean':>12} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    for key, values in record["samples"].items():
        q1, median, q3 = quartiles(values)
        mean = statistics.fmean(values)
        print(f"{key:<40} {units[key]:>8} {mean:>12.6g} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>4}")
    error_rate = record["failed"] / record["attempted"]
    print(f"{'error_rate':<40} {'fraction':>8} {error_rate:>12.6g} {'':>12} {'':>12} {'':>12} {record['attempted']:>4}")


def result_line(records) -> str:
    """The result object; with several workloads each metric name is prefixed
    with its workload."""
    named = {}
    for record in records:
        units = per_layer_units() if record["trace"] else END_TO_END
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for key, value in record["metrics"].items():
            named[prefix + key] = {"value": value, "unit": units[key]}
    return json.dumps(
        {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": named,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "orbitdensity" / "cli.py").is_file():
        print(f"perfbench: no orbitdensity sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for record in records:
        print_table(record)
        path = OUT_DIR / f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
    print(result_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
