"""funcfield benchmark: one closed-loop workload per invocation.

    python3 bench/run.py --workload ec-heights --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; funcfield is imported from ./src.
A single caller sends one job at a time and waits for its answer (closed
loop, one client, one thread).  Inputs are generated from --seed as plain
strings and ints; every answer is checked by an independent route (see
refmath.py) outside the timed region.  Jobs come in rounds of fixed
composition, and the loop runs whole rounds until the in-library time
reaches --seconds and at least MIN_JOBS jobs have run; throughput is the
median over rounds.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number of
rounds twice, untraced and then with tracer.py's wrappers installed, and
prints the per-layer metrics; its counters repeat exactly for a given seed
and --seconds.  The last line of stdout is always the JSON result.  See
NOTES.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_JOBS = 100
SETUP_REPEATS = 15
WALL_LIMIT_S = 150.0
WORKLOADS = {"ec-heights": "wl_ec", "fp-slicer": "wl_fp",
             "analytic-eval": "wl_analytic", "cli-mix": "wl_cli"}


def _load_library():
    """Import funcfield from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import funcfield
    if os.path.dirname(os.path.abspath(funcfield.__file__)) != \
            os.path.join(SRC, "funcfield"):
        raise ImportError(f"funcfield imported from {funcfield.__file__}, "
                          f"not from {SRC}")


def _workload(name, seed):
    import importlib
    _load_library()
    return importlib.import_module(WORKLOADS[name]).Workload(seed)


def _setup_probe(name, seed):
    """Everything done before the first timed job, in a fresh interpreter."""
    workload = _workload(name, seed)
    workload.round(0)
    workload.warmup()


class SetupProbes:
    """Set-up time, sampled SETUP_REPEATS times across the run.

    Each sample is the time from starting a fresh interpreter until it has
    done all the set-up (`--setup-probe` prints the system-wide monotonic
    clock at that point, so interpreter teardown is not counted).  Samples
    are spread over the run, between rounds, so that one busy moment on the
    machine moves only some of them; the metric is their median.
    """

    def __init__(self, name, seed, seconds):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.times = []
        self.start = time.perf_counter()

    def probe(self):
        start = time.monotonic()
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--setup-probe", "--workload", self.name,
                               "--seed", str(self.seed + len(self.times))],
                              check=True, cwd=ROOT, capture_output=True,
                              text=True, timeout=120).stdout
        self.times.append(float(done) - start)

    def between_rounds(self):
        due = len(self.times) * self.seconds / SETUP_REPEATS
        if len(self.times) < SETUP_REPEATS \
                and time.perf_counter() - self.start >= due:
            self.probe()

    def median(self):
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return statistics.median(self.times)


class Tally:
    """Latencies and outcomes of the jobs of one pass."""

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.tags = []
        self.rounds = []
        self.span_ids = []
        self.failures = []

    def run(self, job, tracer=None, round_index=0):
        sid = tracer.job_span(job.kind) if tracer else None
        start = time.perf_counter()
        try:
            answer = job.call()
            error = None
        except Exception as exc:  # a raising job is a failed job
            answer, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.close(sid)
        self.latencies.append(elapsed)
        self.kinds.append(job.kind)
        self.tags.append(job.tag)
        self.rounds.append(round_index)
        self.span_ids.append(sid)
        if error is None:
            try:
                ok = job.check(answer)
            except Exception as exc:  # a malformed answer fails its check
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            self.failures.append((job.kind, repr(error) if error else
                                  "answer failed its check"))

    @property
    def busy(self):
        return sum(self.latencies)

    def round_rate(self):
        """Median over rounds of jobs per second of in-library time.

        Every round has the same composition, so the median discards
        rounds that a busy neighbour on the machine slowed down.
        """
        per_round = {}
        for r, latency in zip(self.rounds, self.latencies):
            count, busy = per_round.get(r, (0, 0.0))
            per_round[r] = (count + 1, busy + latency)
        return statistics.median(c / b for c, b in per_round.values())

    def percentile(self, q):
        return statistics.quantiles(self.latencies, n=100,
                                    method="inclusive")[q - 1]


def run_rounds(workload, tally, rounds=None, seconds=None, tracer=None,
               between=None):
    """Whole rounds: a fixed count, or until `seconds` of in-library time."""
    wall_start = time.perf_counter()
    r = 0
    while True:
        if rounds is not None and r >= rounds:
            break
        if rounds is None and tally.busy >= seconds \
                and len(tally.latencies) >= MIN_JOBS:
            break
        if time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
        for job in workload.round(r):
            tally.run(job, tracer, r)
        r += 1
        if between:
            between()
    return r


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args):
    setup = SetupProbes(args.workload, args.seed, args.seconds)
    setup.probe()
    workload = _workload(args.workload, args.seed)
    workload.warmup()
    tally = Tally()
    rounds = run_rounds(workload, tally, seconds=args.seconds,
                        between=setup.between_rounds)
    setup_s = setup.median()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    jobs = len(tally.latencies)
    metrics = {
        "jobs_per_s": _metric(tally.round_rate(), "1/s"),
        "latency_p50_ms": _metric(tally.percentile(50) * 1e3, "ms"),
        "latency_p90_ms": _metric(tally.percentile(90) * 1e3, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{jobs} jobs, {len(tally.failures)} failed "
          f"(failed_ratio {len(tally.failures) / jobs:.4f}), "
          f"in-library time {tally.busy:.2f} s")
    _print_kinds(tally)
    return tally, metrics


def _print_kinds(tally):
    by_kind = {}
    for kind, latency in zip(tally.kinds, tally.latencies):
        by_kind.setdefault(kind, []).append(latency)
    for kind, values in sorted(by_kind.items()):
        print(f"  {kind:<22} n={len(values):<5} "
              f"median {statistics.median(values) * 1e3:9.3f} ms  "
              f"max {max(values) * 1e3:9.3f} ms")
    for kind, reason in tally.failures[:10]:
        print(f"  FAILED {kind}: {reason}", file=sys.stderr)


def traced(args):
    import layers
    import tracer as tracing
    workload = _workload(args.workload, args.seed)
    module = sys.modules[type(workload).__module__]
    rounds = max(1, round(args.seconds * module.TRACE_ROUNDS_PER_S))
    workload.warmup()
    plain = Tally()
    run_rounds(workload, plain, rounds=rounds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tally = Tally()
        run_rounds(workload, tally, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    stats, dur, root = tracer.summarize()
    tracer.write(os.path.join(ROOT, ".bench_out",
                              f"trace-{args.workload}-seed{args.seed}.bin"))
    metrics = layers.per_layer(stats, tracer, plain, tally)
    print(f"workload {args.workload} seed {args.seed} (traced): {rounds} "
          f"rounds, {len(tally.latencies)} jobs, {len(tally.failures)} "
          f"failed, {len(tracer.span_name)} spans")
    _print_kinds(tally)
    for line in layers.roadmap_rows(args.workload, stats, tracer, dur, root,
                                    plain, tally):
        print("  roadmap: " + line)
    return tally, metrics


def _fix_hash_seed():
    """Re-execute under PYTHONHASHSEED=0 unless already there.

    funcfield iterates sets of polynomials in places (verify-slicer's zero
    set, for one), and str hashes are salted per process, so without a
    fixed seed the number of calls inside such loops changes from run to
    run and the traced counters would not repeat.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main(argv=None):
    _fix_hash_seed()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "funcfield")):
        print(f"no funcfield sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        print(time.monotonic())
        return 0
    tally, metrics = (traced if args.trace else end_to_end)(args)
    attempted = len(tally.latencies)
    failed = len(tally.failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
