#!/usr/bin/env python3
"""jcontainers benchmark: seeded closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root (it imports the library from ``src/``).  With
``--trace 0`` the workload runs its job stream for ``--seconds`` seconds and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed number of
rounds twice, untraced and then traced, and reports the per-layer metrics and the tracing overhead.  Every
job's outcome is checked after the timed region.  End-to-end timings are
given at the reference machine's nominal speed (see ``speed.py``); the run
record keeps them raw too.  The last line of stdout
is the result as one JSON object; the line before it is the run record
(seed, versions, machine, percentile used for the tail).

``--workload all`` runs each workload in its own process and prints every
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("solve", "ramsey", "containers", "cli")
# Tail percentile per workload: the highest of p99/p95/p90/p80/p75 that
# leaves about twice the ten samples needed beyond it in a 25 s run of the
# seed code, so that a run at two thirds of the speed still has ten.  It is fixed so that
# runs of different speed compare the same quantile; a run with fewer than
# ten samples beyond it falls back down the ladder and records so.
TAIL_PERCENTILE = {"solve": 95, "ramsey": 95, "containers": 80, "cli": 75}
TAIL_FALLBACK = (99, 95, 90, 80, 75, 50)
PREGENERATED_ROUNDS = 8
# rounds in each pass of a traced run, per second of --seconds
TRACE_ROUNDS_PER_S = {"solve": 0.25, "ramsey": 0.08, "containers": 0.2, "cli": 0.1}
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up: import plus input generation


class Stream:
    """A workload's job stream; the first rounds are drawn at set-up."""

    def __init__(self, workload: str, seed: int, workdir: Path, rounds=None, launcher=None):
        import jcontainers.cli  # noqa: F401  (imports every library module)
        import workloads as wl

        self.wl = wl
        self.workload = workload
        self.rounds = rounds
        self.rng = wl.prng.SplitMix64(seed)
        self.workdir = workdir
        self.first_stdout: dict = {}
        if workload == "solve":
            self.pool = wl.solve_pool()
        if workload == "containers":
            self.pool = wl.containers_pool()
        if workload == "ramsey":
            self.pool = wl.ramsey_pool()
        if workload == "cli":
            workdir.mkdir(parents=True, exist_ok=True)
            self.invocations = wl.cli_inputs(self.rng, workdir)
            self.env = child_env()
            self.launcher = launcher or [sys.executable, "-m", "jcontainers.cli"]
        count = PREGENERATED_ROUNDS if rounds is None else rounds
        self.pending = [self._draw() for _ in range(count)]

    def _draw(self):
        wl = self.wl
        if self.workload == "solve":
            return wl.solve_round(self.rng, self.pool)
        if self.workload == "containers":
            return wl.containers_round(self.rng, self.pool)
        if self.workload == "ramsey":
            return wl.ramsey_round(self.rng, self.pool)
        return None  # cli rounds repeat the same invocations

    def _jobs(self, round_inputs):
        wl = self.wl
        if self.workload == "ramsey":
            return wl.ramsey_jobs(round_inputs)
        if self.workload == "cli":
            return wl.cli_jobs(
                self.invocations, self.workdir, self.env, self.launcher, self.first_stdout
            )
        return iter(round_inputs)

    def __iter__(self):
        """Yields one iterable of jobs per round.  Each round starts with a
        cold memo cache, like a fresh `jc` process, so rounds cost alike
        however many fit in a run, and the cache cannot grow with speed."""
        done = 0
        while self.rounds is None or done < self.rounds:
            round_inputs = self.pending.pop(0) if self.pending else self._draw()
            self.wl.janson.clear_cache()
            yield self._jobs(round_inputs)
            done += 1


def probe_setup(args) -> float:
    """Seconds to import the library and draw a run's inputs, in a fresh
    process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1])


def import_ms() -> float:
    """Median milliseconds of `import jcontainers.cli` in a fresh process."""
    code = (
        "import time; t = time.perf_counter(); import jcontainers.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=child_env(), timeout=120, check=True,
        )
        samples.append(1000.0 * float(proc.stdout.split()[-1]))
    return statistics.median(samples)


BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def child_env() -> dict:
    """Environment of every child process: the library on the path, no
    BLAS threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(BLAS_ENV)
    return env


# ---------------------------------------------------------------------------
# the closed loop


def run_jobs(stream, deadline=None, tracer=None, sampler=None):
    """Run whole rounds of jobs, one job after another, until the stream
    ends or a round finishes past the deadline.  Returns the jobs and, per
    round, the latencies of its jobs; time spent drawing inputs between jobs
    is not latency.  A tracer records only inside the jobs; a speed sampler
    times its kernel between jobs, and each job's midpoint is kept on it."""
    jobs, rounds = [], []
    clock = time.perf_counter
    for round_jobs in stream:
        latencies = []
        for job in round_jobs:
            if sampler is not None:
                sampler.maybe_sample()
            if tracer is not None:
                tracer.start()
            t0 = clock()
            try:
                job.outcome = job.run()
            except Exception as exc:  # a job's failure is recorded, the loop goes on
                job.error = exc
            t1 = clock()
            latencies.append(t1 - t0)
            job.midpoint = (t0 + t1) / 2
            if tracer is not None:
                tracer.stop()
            if job.digest is not None and job.error is None:
                job.outcome = job.digest(job.outcome)
            jobs.append(job)
        rounds.append(latencies)
        if deadline is not None and clock() >= deadline:
            break
    if sampler is not None:
        sampler.sample()
    return jobs, rounds


def check_jobs(jobs) -> list[str]:
    failures = []
    for job in jobs:
        if job.error is not None:
            failures.append(f"{job.kind}: raised {job.error!r}")
            continue
        try:
            reason = job.check(job.outcome)
        except Exception as exc:  # a check that cannot run fails the job
            reason = f"check raised {exc!r}"
        if reason is not None:
            failures.append(f"{job.kind}: {reason}")
    return failures


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(workload, latencies):
    n = len(latencies)
    for q in (TAIL_PERCENTILE[workload],) + TAIL_FALLBACK:
        if q <= TAIL_PERCENTILE[workload] and n * (100 - q) / 100.0 >= 10:
            return q, percentile(sorted(latencies), q)
    return 50, percentile(sorted(latencies), 50)


# ---------------------------------------------------------------------------
# run record


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    model = platform.processor()
    if model:
        return model
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


def kind_counts(jobs) -> dict:
    counts: dict = {}
    for job in jobs:
        counts[job.kind] = counts.get(job.kind, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def timed_setups(args, sampler) -> list[tuple[float, float]]:
    """(raw, at reference speed) seconds of each set-up probe; the kernel
    is timed half a window before and half a window after each probe."""
    import speed

    setups = []
    for _ in range(SETUP_SAMPLES):
        for _ in range(speed.WINDOW // 2):
            sampler.sample()
        start = sampler.clock()
        raw = probe_setup(args)
        for _ in range(speed.WINDOW // 2):
            sampler.sample()
        setups.append((raw, raw * sampler.factor(start)))
    return setups


def untraced(args, workdir: Path):
    import speed

    stream = Stream(args.workload, args.seed, workdir)
    sampler = speed.SpeedSampler()
    jobs, rounds = run_jobs(stream, time.perf_counter() + args.seconds, sampler=sampler)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cli":  # the jc processes are the workload
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failures = check_jobs(jobs)
    raw = [x for lat in rounds for x in lat]
    # run_jobs keeps every job, in order, and one latency per job
    latencies = [x * sampler.factor(job.midpoint) for x, job in zip(raw, jobs)]
    setups = timed_setups(args, sampler)
    q, tail_s = tail(args.workload, latencies)
    _, raw_tail_s = tail(args.workload, raw)
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": 1000.0 * statistics.median(latencies),
        "job_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "tail_percentile": q,
        "jobs": len(jobs),
        "jobs_beyond_tail": sum(1 for x in latencies if x > tail_s),
        "rounds": len(rounds),
        "busy_s": sum(raw),
        "raw": {
            "setup_s": statistics.median(r for r, _ in setups),
            "jobs_per_s": len(raw) / sum(raw),
            "job_p50_ms": 1000.0 * statistics.median(raw),
            "job_tail_ms": 1000.0 * raw_tail_s,
        },
        "kernel_samples": len(sampler.costs),
        "kernel_ms_p10_p50_p90": [1000.0 * c for c in statistics.quantiles(sampler.costs, n=10)[::4]],
        "setup_samples_s": [s for _, s in setups],
        "failed_ratio": len(failures) / len(jobs),
        "undecided_ratio": undecided_ratio(jobs),
        "kinds": kind_counts(jobs),
    }
    return jobs, failures, metrics, extra


def undecided_ratio(jobs) -> float:
    """UNDECIDED share of the verdicts the jobs returned; a solve query's
    digest keeps its verdict as the first item."""
    answers = []
    for job in jobs:
        if job.error is not None:
            continue
        verdict = job.outcome[0] if isinstance(job.outcome, tuple) else job.outcome
        if hasattr(verdict, "answer"):
            answers.append(verdict.answer)
    return answers.count("UNDECIDED") / len(answers) if answers else 0.0


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


PER_LAYER_SPANS = (
    ("janson.min_lambda_exact", True),
    ("janson.min_lambda_fw", True),
    ("janson.dual_lower_bound", True),
    ("measures.lambda_p_pairwise", True),
    ("janson.min_lambda", True),
    ("janson.is_janson", True),
    ("janson.require_verdict", False),
    ("copies.induced_copy_hypergraph", True),
    ("copies.extension_hypergraph", True),
    ("ramsey.check_event_bad", True),
    ("ramsey.check_event_bad_prime", True),
    ("ramsey.check_event_inductive", True),
    ("ramsey.find_bad_coloring", True),
    ("containers.hardcover_family", True),
    ("containers.minimal_members", True),
    ("containers.uniform_container_oracle", True),
    ("containers.non_janson_containers", True),
    ("containers.extension_containers", True),
    ("containers.containment_table", True),
    ("containers.conditional_prob", True),
    ("containers.in_cover", True),
    ("hypercore.restrict_edges", True),
    ("hypercore.independent_sets", True),
)
PER_LAYER_COUNTERS = (
    "janson.exact_supports",
    "janson.fw_iterations",
    "janson.verdict.yes",
    "janson.verdict.no",
    "janson.verdict.undecided",
    "janson.cache_lookups",
    "copies.copy_edges",
    "ramsey.search_nodes",
    "ramsey.janson_queries",
    "ramsey.copy_builds",
    "containers.emitted",
    "containers.oracle_incomplete",
    "containers.violations",
)
CLI_SUBCOMMANDS = (
    "janson", "hardcover", "ramsey-mc", "copies", "certify-cover", "containers",
    "extend-containers", "ramsey-arrows", "ramsey-event",
)
CLI_EXIT_CODES = (0, 1, 2, 3, 4)


def layer_metrics(summary: dict) -> dict:
    spans, counters = summary["spans"], summary["counters"]
    out = {}
    for name, timed in PER_LAYER_SPANS:
        calls, self_s = spans.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        if timed:
            out[f"{name}.self_s"] = self_s
    for name in PER_LAYER_COUNTERS:
        out[name] = counters.get(name, 0)
    solves = out["janson.min_lambda_exact.calls"] + out["janson.min_lambda_fw.calls"]
    lookups = out["janson.cache_lookups"]
    out["janson.cache_hit_ratio"] = (lookups - solves) / lookups if lookups else 0.0
    verdicts = sum(out[f"janson.verdict.{a}"] for a in ("yes", "no", "undecided"))
    out["janson.undecided_ratio"] = out["janson.verdict.undecided"] / verdicts if verdicts else 0.0
    return out


def traced(args, workdir: Path):
    import spans

    rounds = max(1, round(args.seconds * TRACE_ROUNDS_PER_S[args.workload]))
    probe = [sys.executable, str(HERE / "cliprobe.py")]
    # pass A: untraced reference for the overhead
    stream_a = Stream(args.workload, args.seed, workdir / "a", rounds, launcher=probe + ["0"])
    jobs_a, rounds_a = run_jobs(stream_a)
    # pass B: the same inputs, traced
    tracer = spans.Tracer()
    tracer.install()
    stream_b = Stream(args.workload, args.seed, workdir / "b", rounds, launcher=probe + ["1"])
    stream_b.first_stdout = stream_a.first_stdout
    jobs_b, rounds_b = run_jobs(stream_b, tracer=tracer)
    tracer.count_search_nodes()
    failures = check_jobs(jobs_a) + check_jobs(jobs_b)

    parts = [tracer.summary()]
    cli_ms: dict = {name: [] for name in CLI_SUBCOMMANDS}
    cli_import: list = []
    exits = {code: 0 for code in CLI_EXIT_CODES}
    if args.workload == "cli":
        for job in jobs_b:
            if job.error is not None:
                continue
            code, _, stderr = job.outcome
            exits[code] = exits.get(code, 0) + 1
            report = cli_probe_report(stderr)
            if report is None:
                continue
            parts.append(report["summary"])
            cli_import.append(report["import_ms"])
            cli_ms[job.kind.split(":", 1)[1]].append(report["dispatch_ms"])
    metrics = layer_metrics(spans.merge_summaries(parts))
    metrics["cli.import_ms"] = statistics.median(cli_import) if cli_import else import_ms()
    for name in CLI_SUBCOMMANDS:
        metrics[f"cli.{name}.ms"] = statistics.median(cli_ms[name]) if cli_ms[name] else 0.0
    for code in CLI_EXIT_CODES:
        metrics[f"cli.exit.{code}"] = exits.get(code, 0)
    jobs = jobs_a + jobs_b
    metrics["bench.failed_ratio"] = len(failures) / len(jobs)
    busy_a = sum(map(sum, rounds_a))
    busy_b = sum(map(sum, rounds_b))
    metrics["bench.trace_overhead"] = busy_b / busy_a - 1.0

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    tracer.uninstall()
    extra = {
        "rounds_per_pass": rounds,
        "busy_untraced_s": busy_a,
        "busy_traced_s": busy_b,
        "spans": len(tracer.starts),
        "kinds": kind_counts(jobs_b),
    }
    return jobs, failures, metrics, extra


def cli_probe_report(stderr: bytes):
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith("PERFBENCH "):
            return json.loads(line[len("PERFBENCH "):])
    return None


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stderr.write(f"workload {name} exited {proc.returncode}\n")
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        print(lines[-2])
        for metric, entry in results[name]["metrics"].items():
            print(f"{name:<11} {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, r in results.items() for metric, entry in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jcontainers" / "__init__.py").is_file():
        sys.stderr.write(f"no library sources under {SRC}; run from a full checkout\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads: no BLAS threads
    # One CPU for the jobs, their child processes and the speed kernel: the
    # host's slow phases differ between the vCPUs, and the kernel must time
    # the one the jobs run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.probe_setup:
        start = time.perf_counter()
        probe_dir = OUT / f"probe-{os.getpid()}"
        try:
            Stream(args.workload, args.seed, probe_dir)
            print(time.perf_counter() - start)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            jobs, failures, metrics, extra = traced(args, workdir)
            units = per_layer_units()
        else:
            jobs, failures, metrics, extra = untraced(args, workdir)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in failures[:20]:
        sys.stderr.write(f"FAILED {reason}\n")
    for name, value in metrics.items():
        print(f"{name:<44} {value:>14.6g} {units[name]}")
    print(json.dumps({"record": {**run_record(args), **extra, "failures": failures[:20]}}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def per_layer_units() -> dict:
    """Unit of every metric of the traced run (BENCHMARK.json lists the same)."""
    units = {}
    for name, timed in PER_LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        if timed:
            units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in PER_LAYER_COUNTERS})
    units["janson.cache_hit_ratio"] = "ratio"
    units["janson.undecided_ratio"] = "ratio"
    units["cli.import_ms"] = "ms"
    units.update({f"cli.{name}.ms": "ms" for name in CLI_SUBCOMMANDS})
    units.update({f"cli.exit.{code}": "count" for code in CLI_EXIT_CODES})
    units["bench.failed_ratio"] = "ratio"
    units["bench.trace_overhead"] = "ratio"
    return units


if __name__ == "__main__":
    sys.exit(main())
