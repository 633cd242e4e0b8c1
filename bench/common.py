"""Operations, seeded sampling and the timed round loop shared by the workloads."""

from __future__ import annotations

import math
import random
import signal
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Optional


def _verdict(result) -> Optional[str]:
    return result


@dataclass
class Op:
    """One benchmark operation.

    ``call`` is the timed part.  ``check`` runs untimed on its result and
    returns None or a failure message; by default the result itself is that
    verdict (exact-law operations check inside the timed call).  A failed
    ``pinned`` operation had a known right answer, so it also makes the run
    incorrect; an unpinned one (an edge input checked against the CLI's
    error contract) only counts as failed.  ``count`` gives work counters
    for the traced run.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]] = _verdict
    pinned: bool = True
    count: Optional[Callable[[object], dict]] = None


LOOP_N = 5000
LOOP_REF_S = 450e-6  # about the median loop_probe time on the host where the baseline was recorded


def loop_probe() -> float:
    """Time a fixed pure-Python integer loop.

    The loop touches no library code and builds no containers, so a change
    to knotstat cannot move it; its time tracks only how fast the host runs
    Python right now.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - start


@dataclass
class Round:
    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[str, str, bool]] = field(default_factory=list)  # kind, why, pinned
    overran: list[bool] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # one before each op, one after the last
    wall: float = 0.0

    def scaled(self, reference: float) -> list[float]:
        """Latencies at the reference host speed.

        Each latency is multiplied by ``reference`` (the probe's time on the
        reference host) over the median of the four probes around it.  An
        operation stopped at the budget keeps its wall time, which the
        budget fixed, not the host.
        """
        return [lat if over else lat * reference / median(self.probes[max(0, i - 1):i + 3])
                for i, (lat, over) in enumerate(zip(self.latencies, self.overran))]


class OpTimeout(BaseException):
    """An operation ran past its wall budget (raised by the interval timer,
    or by a subprocess operation whose child was killed at its timeout)."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_round(ops: list[Op], budget: Optional[float], tracer=None,
              probe: Optional[Callable[[], float]] = loop_probe) -> Round:
    """Run every operation once, in order, with a speed probe around each.

    ``budget`` arms an interval timer.  Subprocess operations pass
    ``budget=None`` and enforce their own timeout, so that no child is left
    running when a timer fires; they also pass a probe that starts
    processes (``cli_cold.control_probe``), because process start-up does
    not follow the loop probe's speed.
    """
    out = Round()
    clock = time.perf_counter
    start = clock()
    if probe is not None:
        out.probes.append(probe())
    if budget is not None:
        previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index + 1
            why, over = None, False
            t0 = clock()
            try:
                if budget is not None:
                    signal.setitimer(signal.ITIMER_REAL, budget)
                try:
                    result = op.call()
                finally:
                    if budget is not None:
                        signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                why, over = "ran past the per-operation wall budget", True
            except Exception as exc:  # an uncaught library exception is a failure
                why = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            if probe is not None:
                out.probes.append(probe())
            out.latencies.append(t1 - t0)
            if why is None:
                why = op.check(result)
                if why is None and tracer is not None and op.count is not None:
                    for key, value in op.count(result).items():
                        tracer.counts[key] = tracer.counts.get(key, 0) + value
            out.overran.append(over)
            if why is not None:
                out.failures.append((op.kind, why, op.pinned))
    finally:
        if budget is not None:
            signal.signal(signal.SIGALRM, previous)
    out.wall = clock() - start
    return out


def stratified(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """k integers in [lo, hi), one uniform draw from each of k equal strata."""
    width = (hi - lo) / k
    return [min(hi - 1, lo + int((i + rng.random()) * width)) for i in range(k)]


def stratified_log(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k floats in [lo, hi), log-uniform, one draw from each of k equal strata."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (i + rng.random()) * (b - a) / k) for i in range(k)]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= p% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]
