"""The one driver of the congruence verifiers: shard, collect, report.

A verifier is a batch kernel plus one call of verify_primes.  Work is
independent per prime; shards are strided so each worker gets a similar mix
of small and large primes (cost grows with p).  Batches must be module-level
functions taking one (static_args, primes_shard) tuple and returning
picklable (checks, skips) lists of CheckRecord and SkipRecord field tuples.
Every verifier's congruence is two side kernels, and its batch runs its shard
through check_shard, the one loop in the package that sets a pass flag.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Mapping, Sequence

from .modular import PrimeCtx
from .report import CheckRecord, SkipRecord, VerificationReport


def run_prime_shards(
    fn: Callable, static_args: tuple, primes: Sequence[int], threads: int
) -> list:
    if threads > 1 and len(primes) > 1:
        shards = [primes[i::threads] for i in range(threads)]
        shards = [s for s in shards if s]
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            return list(pool.map(fn, [(static_args, s) for s in shards]))
    return [fn((static_args, list(primes)))]


def check_shard(
    primes: Sequence[int], grid: Sequence[tuple[str, tuple]], lhs: Callable, rhs: Callable
) -> tuple[list, list]:
    """(checks, skips) of lhs == rhs at each prime and each (label, point) of
    grid, in that order.  A side is a kernel side(ctx, *point) giving a
    residue or the reason (a str) it is undefined; where the left side gives
    a reason, that reason is recorded and the right side is not evaluated.
    """
    checks, skips = [], []
    for p in primes:
        ctx = PrimeCtx(p)
        for label, point in grid:
            left = lhs(ctx, *point)
            right = left if isinstance(left, str) else rhs(ctx, *point)
            if isinstance(right, str):
                skips.append((p, label, right))
            else:
                checks.append((p, label, left, right, left == right))
    return checks, skips


def verify_primes(
    theorem: str, params: dict, batch: Callable, static_args: tuple, window: Sequence[int],
    threads: int, excluded: Mapping[int, str], start: float | None = None,
) -> VerificationReport:
    """Report of batch over the window primes not in excluded, each of which
    (prime -> reason) is a whole-prime skip; elapsed counts from start
    (time.monotonic), by default from this call."""
    if start is None:
        start = time.monotonic()
    report = VerificationReport(
        theorem=theorem,
        params=params,
        window_lo=window[0] if window else 0,
        window_hi=window[-1] if window else 0,
        prime_count=len(window),
    )
    report.skipped.extend(SkipRecord(p, "", reason) for p, reason in excluded.items())
    todo = [p for p in window if p not in excluded]
    for checks, skips in run_prime_shards(batch, static_args, todo, threads):
        report.checks.extend(CheckRecord(*c) for c in checks)
        report.skipped.extend(SkipRecord(*s) for s in skips)
    report.sort_records()
    report.elapsed = time.monotonic() - start
    return report
