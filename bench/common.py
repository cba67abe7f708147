"""Shared pieces of the workloads: the job record and seeded sampling."""

from __future__ import annotations

import random
from typing import Any, Callable, NamedTuple


class Job(NamedTuple):
    """One closed-loop request.

    `call` runs the library and returns its raw answer; it is the only part
    that is timed.  `check` receives that answer and returns True when it
    matches the independently computed expectation.  `tag` marks the jobs
    that reproduce a ROADMAP baseline row.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    tag: str = ""


def stratified(rng: random.Random, lo: int, hi: int, count: int, slot: int):
    """An int in the slot-th of `count` equal strata of [lo, hi].

    Cycling `slot` over the rounds spreads sizes evenly over the range, so
    a run's total cost depends on the seed only through the draw inside
    each stratum.
    """
    width = (hi - lo + 1) / count
    start = lo + int(slot % count * width)
    stop = lo + int((slot % count + 1) * width) - 1
    return rng.randint(start, max(start, stop))
