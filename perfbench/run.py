"""End-to-end benchmark of the toruscount CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One client in one process calls
`toruscount.cli.main(argv)` in a closed loop: each job starts when the last
one has returned. Inputs come from the seed and are written to files under
perfbench/out/inputs before timing starts.

--trace 0 times the loop for S seconds and prints the end-to-end metrics,
as reference times: wall times scaled by the host's speed, measured before
each job (see speed.py).
--trace 1 runs the first three template cycles of jobs: untraced, traced,
untraced. It prints the per-layer metrics of the traced cycle and the
tracing overhead (traced minus mean untraced wall time), and checks that a
second process on the same seed counts the same work. Every job's output is
checked either way, as soon as it returns and with the clock paused; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0
DIGEST_JOBS = 300            # jobs per workload with a recorded stdout digest
SETUP_REPEATS = 8            # fresh interpreters before the timed loop, and again after it
SETUP_CALIBRATIONS = 5       # calibrations in each of them, after the import
PREFILL_CYCLES = 16
REFILL_CYCLES = 8
ORACLE_MAX_ROWS = 10         # b_infinity_oracle's ground-set cap
ORACLE_CHECKS = 10           # binf jobs per run checked against the oracle
BURNSIDE_MAX_JOB_S = 0.5     # skip jobs this slow when picking the Burnside check
COUNTS_TIMEOUT_S = 120       # for the second traced process


# -- running one job -----------------------------------------------------------

def write_job(job, workload):
    directory = OUT / "inputs" / workload
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{job.index:05d}.json"
    path.write_text(json.dumps(job.document), encoding="utf-8")
    return str(path)


def run_job(cli, argv):
    """(wall seconds, exit code or exception text, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse rejects the arguments
            code = f"SystemExit({exc.code})"
        except Exception as exc:        # a crash is a failed job, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
    return wall, code, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- checks ----------------------------------------------------------------------

def check_job(workloads, job, code, stdout, stderr, recorded):
    """Problems with one finished job; empty when it passed."""
    if code != 0:
        return [f"exit {code}: {stderr.strip()[:200]}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON ({exc})"]
    try:
        problems = workloads.check_output(job, payload)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"output lacks an expected field or value ({type(exc).__name__}: {exc})"]
    if recorded is not None and job.index < len(recorded) and digest(stdout) != recorded[job.index]:
        problems.append("stdout differs from the digest recorded at the default seed")
    return problems


def oracle_problems(job, stdout):
    """Off-clock cross-check of a small binf job against b_infinity_oracle."""
    from toruscount.matroid import LinearMatroid, b_infinity_oracle
    rows = [[Fraction(x) for x in row] for row in job.document]
    want = b_infinity_oracle(LinearMatroid(rows))
    got = Fraction(json.loads(stdout)["value"])
    return [] if got == want else [f"binf value {got} != oracle {want}"]


def burnside_problems(job, stdout):
    """Off-clock check of an orbit count against Burnside's average of fixed points."""
    from toruscount.orbits import FiberedAttainingSet
    from toruscount.torus import load_spec
    want = FiberedAttainingSet(load_spec(job.document)).burnside_orbit_count()
    got = json.loads(stdout)["orbit_count"]
    return [] if got == want else [f"orbit_count {got} != Burnside count {want}"]


class Sample:
    """A seeded reservoir: every offered item is equally likely to be kept."""

    def __init__(self, size, seed):
        self.size = size
        self.rng = random.Random(seed)
        self.offered = 0
        self.items = []

    def offer(self, item):
        self.offered += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            k = self.rng.randrange(self.offered)
            if k < self.size:
                self.items[k] = item


class Checker:
    """Checks each finished job as it returns and keeps only the failures.

    The two costly cross-checks run on seeded samples when the run ends, so
    their cost does not grow with the number of jobs a run completes.
    """

    def __init__(self, workloads, workload, seed):
        self.workloads = workloads
        self.recorded = None
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            self.recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
        self.failures = {}
        self.burnside = workload == "analyze-group"
        # (job, stdout) pairs kept for the cross-checks
        self.burnside_sample = Sample(1, f"burnside:{seed}")
        self.oracle_sample = Sample(ORACLE_CHECKS, f"oracle:{seed}")

    def check(self, job, wall, code, stdout, stderr):
        problems = check_job(self.workloads, job, code, stdout, stderr, self.recorded)
        if problems:
            self.failures[job.index] = problems
        elif job.command == "binf" and len(job.document) <= ORACLE_MAX_ROWS:
            self.oracle_sample.offer((job, stdout))
        elif self.burnside and wall <= BURNSIDE_MAX_JOB_S:
            self.burnside_sample.offer((job, stdout))

    def finish(self):
        """Run the cross-checks; return the problems by job index."""
        for check, sample in ((oracle_problems, self.oracle_sample),
                              (burnside_problems, self.burnside_sample)):
            for job, stdout in sample.items:
                problems = _cross_check(check, job, stdout)
                if problems:
                    self.failures[job.index] = problems
        return self.failures


def _cross_check(check, job, stdout):
    try:
        return check(job, stdout)
    except Exception as exc:   # an oracle that fails fails the job, not the benchmark
        return [f"{check.__name__} raised {type(exc).__name__}: {exc}"]


# -- machine facts and set-up time -------------------------------------------

def cpu_max():
    """The cgroup's CPU quota as cgroup v2 writes it ("max 100000" is no limit).

    Read-only. Under cgroup v1 it is built from cpu.cfs_quota_us and
    cpu.cfs_period_us, where a quota of -1 is no limit.
    """
    cgroup = Path("/sys/fs/cgroup")
    try:
        return (cgroup / "cpu.max").read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        quota = (cgroup / "cpu" / "cpu.cfs_quota_us").read_text(encoding="utf-8").strip()
        period = (cgroup / "cpu" / "cpu.cfs_period_us").read_text(encoding="utf-8").strip()
    except OSError:
        return "unavailable"
    return f"{'max' if quota == '-1' else quota} {period}"


def machine_facts():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu.max": cpu_max(),
        "platform": platform.platform(),
    }


def setup_seconds():
    """Times, in fresh interpreters, to import toruscount.cli: [(measured, reference)].

    Each interpreter calibrates after the import, so the speed it is scaled
    by is that of the CPU it ran on.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    snippet = ("import time; t = time.perf_counter(); import toruscount.cli; "
               "t = time.perf_counter() - t; import statistics, sys; "
               "sys.path.insert(0, sys.argv[1]); import speed; "
               f"c = statistics.median(speed.calibrate() for _ in range({SETUP_CALIBRATIONS})); "
               "print(repr(t), repr(t * speed.REFERENCE_S / c))")
    command = [sys.executable, "-c", snippet, str(BENCH_DIR)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        measured, reference = done.stdout.split()
        times.append((float(measured), float(reference)))
    return times


# -- the two modes -----------------------------------------------------------------

def tail(times):
    """Highest percentile with at least ten samples beyond it: (value, pct, beyond).

    With fewer than eleven samples no percentile qualifies; the maximum is
    reported with no samples beyond it.
    """
    ordered = sorted(times)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def timed_loop(cli, workload, stream, seconds, checker):
    """Closed loop for at least `seconds` of measured time, ending on a whole
    template cycle so every run has the workload's stated input mix.
    Generating more inputs, calibrating and checking outputs pause the
    clock. Returns [(template, wall seconds)] per job, (the index of the
    calibration each job followed, the calibration times), and the measured
    time."""
    pool = deque()
    cycle = workload.cycle_length

    def refill(count):
        for _ in range(count):
            job = next(stream)
            pool.append((job, write_job(job, workload.name)))

    refill(cycle * PREFILL_CYCLES)
    walls = []
    calibrations = []
    slots = []                  # the calibration each job was measured after
    since = speed.GAP_S         # job time since the last calibration
    paused = 0.0
    start = perf_counter()
    while True:
        t = perf_counter()
        if not pool:
            refill(cycle * REFILL_CYCLES)
        if since >= speed.GAP_S:
            calibrations.append(speed.calibrate())
            since = 0.0
        slots.append(len(calibrations) - 1)
        paused += perf_counter() - t
        job, path = pool.popleft()
        wall, code, stdout, stderr = run_job(cli, job.argv(path))
        t = perf_counter()
        checker.check(job, wall, code, stdout, stderr)
        walls.append((job.template, wall))
        since += wall
        paused += perf_counter() - t
        elapsed = perf_counter() - start - paused
        if elapsed >= seconds and len(walls) % cycle == 0:
            return walls, (slots, calibrations), elapsed


def end_to_end(args, cli, workloads):
    """Untraced timed loop: (attempted, job failures, run problems, metrics, extra)."""
    workload = workloads.WORKLOADS[args.workload]
    run_job(cli, ["examples"])      # warm-up: first-call costs are not a job's
    # set-up samples on both sides of the loop span more of the machine's load states
    setup = setup_seconds()
    checker = Checker(workloads, workload.name, args.seed)
    walls, (slots, calibrations), elapsed = timed_loop(
        cli, workload, workload.stream(args.seed), args.seconds, checker)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += setup_seconds()
    failures = checker.finish()
    ok = len(walls) - len(failures)
    measured = [wall for _, wall in walls]
    reference = speed.scale(measured, slots, calibrations)

    def timings(times, total, setup_times):
        value, _, _ = tail(times)
        return {
            "jobs_per_s": (ok / total, "jobs/s"),
            "job_p50_ms": (statistics.median(times) * 1000.0, "ms"),
            "job_tail_ms": (value * 1000.0, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
        }

    metrics = timings(reference, sum(reference), [ref for _, ref in setup])
    metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
    _, tail_pct, beyond = tail(reference)
    extra = {
        "job_tail_percentile": tail_pct,
        "job_tail_samples_beyond": beyond,
        "timed_s": elapsed,
        "measured_metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                             timings(measured, elapsed, [m for m, _ in setup]).items()},
        "job_walls": walls,
        "calibrations": calibrations,
        "calibration_slots": slots,
        "setup_samples": setup,
    }
    return len(walls), failures, [], metrics, extra


def run_cycle(cli, workload, stream, tracer=None):
    """One template cycle of fresh jobs: [(job, wall, code, stdout, stderr)].

    Inputs are written before the cycle, and outputs are checked after it,
    so a traced cycle traces only the jobs.
    """
    jobs = [next(stream) for _ in range(workload.cycle_length)]
    paths = [write_job(job, workload.name) for job in jobs]
    done = []
    with (tracing.instrument(tracer) if tracer is not None else contextlib.nullcontext()):
        for job, path in zip(jobs, paths):
            if tracer is not None:
                tracer.job = job.index
            done.append((job, *run_job(cli, job.argv(path))))
    return done


def traced_counts(workload_name, seed):
    """Work counts of the traced cycle, as a process of their own: print them as JSON.

    It repeats the traced run's warm-up and untraced first cycle, so state
    that the package carries from job to job is the same when it counts.
    """
    sys.path.insert(0, str(SRC))
    import workloads
    from toruscount import cli
    workload = workloads.WORKLOADS[workload_name]
    stream = workload.stream(seed)
    run_job(cli, ["examples"])
    run_cycle(cli, workload, stream)
    tracer = tracing.Tracer()
    run_cycle(cli, workload, stream, tracer)
    print(json.dumps(work_counts(tracer)))


def counts_elsewhere(workload_name, seed):
    """(work counts of the traced cycle in a second process, problems)."""
    command = [sys.executable, "-c",
               "import sys, run; run.traced_counts(sys.argv[1], int(sys.argv[2]))",
               workload_name, str(seed)]
    try:
        done = subprocess.run(command, cwd=BENCH_DIR, capture_output=True, text=True,
                              timeout=COUNTS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {}, [f"the second traced process took over {COUNTS_TIMEOUT_S} s"]
    if done.returncode != 0:
        return {}, [f"the second traced process failed: {done.stderr.strip()[-300:]}"]
    return json.loads(done.stdout.strip().splitlines()[-1]), []


def traced(args, cli, workloads):
    """Untraced, traced and untraced cycles of fresh jobs, each job checked.

    Every document runs once in this process. The work counts of the traced
    cycle must match those of a second process on the same seed.
    """
    workload = workloads.WORKLOADS[args.workload]
    problems = [f"trace target {target} is gone from the package"
                for target in tracing.missing_targets()]
    if problems:
        return 1, {}, problems, layer_metrics(tracing.Tracer(), {}, 0.0, 0.0), {}
    stream = workload.stream(args.seed)
    run_job(cli, ["examples"])
    tracer = tracing.Tracer()
    before = run_cycle(cli, workload, stream)
    during = run_cycle(cli, workload, stream, tracer)
    after = run_cycle(cli, workload, stream)

    checker = Checker(workloads, workload.name, args.seed)
    for done in (before, during, after):
        for job, wall, code, stdout, stderr in done:
            checker.check(job, wall, code, stdout, stderr)
    failures = checker.finish()
    counts = work_counts(tracer)
    again, problems = counts_elsewhere(workload.name, args.seed)
    if again:
        problems += [f"work count {k} differs between two traced processes: "
                     f"{counts.get(k)} vs {again.get(k)}"
                     for k in sorted(set(counts) | set(again)) if counts.get(k) != again.get(k)]

    def wall_s(done):
        return sum(wall for _, wall, _, _, _ in done)

    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_dir / f"{workload.name}-seed{args.seed}.tsv")
    metrics = layer_metrics(tracer, counts, (wall_s(before) + wall_s(after)) / 2,
                            wall_s(during))
    extra = {"work_counts": counts, "jobs": [job.template for job, *_ in during]}
    return 3 * workload.cycle_length, failures, problems, metrics, extra


def work_counts(tracer):
    """Every deterministic count of a traced pass, by name."""
    counts = {f"{name}.calls": n for name, n in tracer.calls.items()}
    counts.update(tracer.counts)
    counts.update({f"{name}.distinct": len(keys) for name, keys in tracer.distinct.items()})
    return dict(sorted(counts.items()))


# Per-layer metrics: (metric, unit, source). A source ending in ".calls",
# ".distinct" or naming a counter reads the work counts; "self:<span>" reads
# the span's self time.
PER_LAYER = (
    ("intlinalg.snf.calls", "count", "intlinalg.snf.calls"),
    ("intlinalg.snf.self_s", "s", "self:intlinalg.snf"),
    ("intlinalg.unimodular_inverse.calls", "count", "intlinalg.unimodular_inverse.calls"),
    ("intlinalg.unimodular_inverse.self_s", "s", "self:intlinalg.unimodular_inverse"),
    ("intlinalg.quotient.calls", "count", "intlinalg.quotient.calls"),
    ("intlinalg.det.calls", "count", "intlinalg.det.calls"),
    ("intlinalg.matmul.calls", "count", "intlinalg.matmul.calls"),
    ("torus.load_spec.self_s", "s", "self:torus.load_spec"),
    ("torus.subsets.passes", "count", "torus.subsets.passes"),
    ("torus.subsets.yielded", "count", "torus.subsets.yielded"),
    ("torus.diag_for_support.calls", "count", "torus.diag_for_support.calls"),
    ("torus.diag_for_support.misses", "count", "torus.diag_for_support.misses"),
    ("torus.invariant_A.self_s", "s", "self:torus.invariant_A"),
    ("torus.sigma_set.self_s", "s", "self:torus.sigma_set"),
    ("torus.strata.self_s", "s", "self:torus.strata"),
    ("torus.abscissa.self_s", "s", "self:torus.abscissa"),
    ("torus.lambda_invariant.self_s", "s", "self:torus.lambda_invariant"),
    ("orbits.build_gtilde.self_s", "s", "self:orbits.build_gtilde"),
    ("orbits.gtilde.order", "count", "orbits.gtilde.order"),
    ("orbits.fibered.elements", "count", "orbits.fibered.elements"),
    ("orbits.transport.builds", "count", "orbits.transport.calls"),
    ("orbits.transport.self_s", "s", "self:orbits.transport"),
    ("orbits.act.calls", "count", "orbits.act.calls"),
    ("orbits.act.self_s", "s", "self:orbits.act"),
    ("orbits.orbits.self_s", "s", "self:orbits.orbits"),
    ("localfactors.local_factor.self_s", "s", "self:localfactors.local_factor"),
    ("localfactors.pi_eq.calls", "count", "localfactors.pi_eq.calls"),
    ("localfactors.pi_eq.self_s", "s", "self:localfactors.pi_eq"),
    ("localfactors.hom_count.calls", "count", "localfactors.hom_count.calls"),
    ("localfactors.hom_count.distinct", "count", "localfactors.hom_count.distinct"),
    ("localfactors.hom_count.self_s", "s", "self:localfactors.hom_count"),
    ("localfactors.a_count.calls", "count", "localfactors.a_count.calls"),
    ("localfactors.a_count.self_s", "s", "self:localfactors.a_count"),
    ("matroid.rank.calls", "count", "matroid.rank.calls"),
    ("matroid.rank.distinct", "count", "matroid.rank.distinct"),
    ("matroid.rank.self_s", "s", "self:matroid.rank"),
    ("matroid.b_infinity.calls", "count", "matroid.b_infinity.calls"),
    ("matroid.b_infinity.self_s", "s", "self:matroid.b_infinity"),
    ("archim.assemble.self_s", "s", "self:archim.assemble"),
    ("archim.arch_abscissa.self_s", "s", "self:archim.arch_abscissa"),
    ("archim.check_domination.self_s", "s", "self:archim.check_domination"),
    ("cli.load_document.self_s", "s", "self:cli.load_document"),
    ("cli.build_report.self_s", "s", "self:cli.build_report"),
    ("cli.cmd.self_s", "s", "self:cli.cmd"),
)


def layer_metrics(tracer, counts, plain_s, traced_s):
    by_name, by_layer = tracer.self_times()
    metrics = {}
    for name, unit, source in PER_LAYER:
        if source.startswith("self:"):
            metrics[name] = (by_name.get(source[5:], 0.0), unit)
        else:
            metrics[name] = (counts.get(source, 0), unit)

    def ratio(num, den):
        return num / den if den else 0.0

    calls = counts.get("torus.diag_for_support.calls", 0)
    metrics["torus.diag_for_support.hit_ratio"] = (
        ratio(calls - counts.get("torus.diag_for_support.misses", 0), calls), "ratio")
    metrics["localfactors.hom_count.useful_ratio"] = (
        ratio(counts.get("localfactors.hom_count.distinct", 0),
              counts.get("localfactors.hom_count.calls", 0)), "ratio")
    total = sum(by_layer.values())
    for layer in tracing.LAYERS:
        metrics[f"layer.{layer}.self_s"] = (by_layer.get(layer, 0.0), "s")
        metrics[f"layer.{layer}.share"] = (ratio(by_layer.get(layer, 0.0), total), "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.untraced_s"] = (plain_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_ratio"] = (ratio(traced_s - plain_s, plain_s), "ratio")
    return metrics


# -- entry point -----------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toruscount" / "cli.py").is_file():
        print(f"error: no toruscount sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from toruscount import cli

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload: choose from {', '.join(workloads.WORKLOADS)}")

    shutil.rmtree(OUT / "inputs" / args.workload, ignore_errors=True)
    started = time.time()
    mode = traced if args.trace else end_to_end
    attempted, failures, problems, metrics, extra = mode(args, cli, workloads)
    failed = len(failures)
    correct = not failures and not problems

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "started_at": started, "finished_at": time.time(),
        "machine": machine_facts(), "correct": correct, "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (records / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    for index, job_problems in sorted(failures.items())[:10]:
        print(f"FAILED job {index}: {'; '.join(job_problems)}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    facts = record["machine"]
    summary = (f"# {args.workload} seed={args.seed} trace={args.trace} attempted={attempted} "
               f"failed={failed} failed_ratio={record['failed_ratio']:.4f} "
               f"python={facts['python']} nproc={facts['nproc']} cpu.max={facts['cpu.max']!r}")
    if not args.trace:
        summary += (f" job_tail=p{extra['job_tail_percentile']:.1f}"
                    f" ({extra['job_tail_samples_beyond']} samples beyond) measured:"
                    + "".join(f" {k}={v['value']:.4g}"
                              for k, v in extra["measured_metrics"].items()))
    print(summary)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
