"""Checker self-test: every check must pass the honest answer and fail a
planted wrong one.

    python3 bench/selftest.py [--seed N]

For each workload, the jobs of round 0 (without its largest ones) run
twice through run.Tally: once as they are, and once with the answer
replaced by a corrupted copy (a flipped flag, a shifted value, a dropped
element, an off-by-one count).  Exit code 0 means every honest answer
passed and every planted answer was counted in failed_ratio.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from collections import namedtuple
from fractions import Fraction

import run
from common import Job

FakeElement = namedtuple("FakeElement", "v")

# jobs left out to keep the self-test small
LARGE_TAGS = {"ref-n20", "ref-k4", "square-a6b5"}
LARGE_KINDS = {"eval_exact_deep", "verify-elliptic", "verify-analytic",
               "verify-divisors", "verify-slicer"}


def _plant_json(value):
    """A copy of a JSON outputs object with its first leaf changed."""
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: _plant_json(value[key])}
    if isinstance(value, list):
        return value[:-1] if value else [0]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return str(value) + "+1"


def plant(answer):
    """A wrong answer of the same shape as `answer`."""
    if isinstance(answer, Fraction):
        return answer + Fraction(1, 7)
    if isinstance(answer, tuple) and len(answer) == 2 \
            and isinstance(answer[1], str):  # (exit code, stdout)
        code, text = answer
        try:
            report = json.loads(text)
        except ValueError:  # plain-text report: bump the first integer
            return code, re.sub(r": (-?\d+)",
                                lambda m: f": {int(m.group(1)) + 1}",
                                text, count=1)
        report["outputs"] = _plant_json(report["outputs"])
        return code, json.dumps(report)
    if isinstance(answer, tuple) and len(answer) == 2:  # (point, height)
        return answer[0], answer[1] + 1
    if isinstance(answer, list):  # degree-growth rows
        return answer[:-1]
    if isinstance(answer, frozenset):  # zero set
        return frozenset(list(answer)[1:]) if answer else \
            frozenset({FakeElement(-1)})
    name = type(answer).__name__
    if name == "ECPoint":
        return -answer
    if name == "SliceResult":
        return dataclasses.replace(answer, stabilized=not answer.stabilized)
    if name == "SliceUnionResult":
        at = answer.stabilized_at
        return dataclasses.replace(answer,
                                   stabilized_at=0 if at is None else at + 1)
    if name == "TruncatedSeries":
        cs = list(answer.coefficients)
        cs[2] += 1
        return dataclasses.replace(answer, coefficients=tuple(cs))
    if name == "RatInterval":
        return dataclasses.replace(answer, lo=answer.hi + 1, hi=answer.hi + 2)
    raise TypeError(f"no planted answer for {name}")


def self_test(name, seed):
    workload = run._workload(name, seed)
    jobs = [job for job in workload.round(0)
            if job.tag not in LARGE_TAGS and job.kind not in LARGE_KINDS]
    honest, planted = run.Tally(), run.Tally()
    for job in jobs:
        answers = []

        def call(job=job, answers=answers):
            answers.append(job.call())
            return answers[-1]
        honest.run(Job(job.kind, call, job.check))
        planted.run(Job(job.kind, lambda answers=answers: plant(answers[-1]),
                        job.check))
    kinds = sorted({job.kind for job in jobs})
    print(f"{name}: {len(jobs)} jobs ({', '.join(kinds)}); honest failed "
          f"{len(honest.failures)}, planted failed "
          f"{len(planted.failures)}/{len(jobs)} "
          f"(failed_ratio {len(planted.failures) / len(jobs):.3f})")
    for kind, reason in honest.failures:
        print(f"  honest answer rejected: {kind}: {reason}")
    return not honest.failures and len(planted.failures) == len(jobs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = all([self_test(name, args.seed) for name in run.WORKLOADS])
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
