"""The one driver of the congruence verifiers: shard, collect, report.

A verifier is a grid of labelled points, a batch and one call of
verify_primes.  The batch is check_shard bound to the congruence's two
module-level side kernels by functools.partial, so check_shard is the one
loop in the package that sets a pass flag, and the batch pickles by
reference into worker processes.  The kernels are bound at import: to change
a side (in a test, say), patch what the kernel calls, not the kernel's own
name.  Work is independent per prime; at most one shard per core (a thread
count below 1 asks for one per core), strided so each worker gets a similar
mix of small and large primes (cost grows with p).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Mapping, Sequence

from .modular import PrimeCtx, require_primes
from .report import CheckRecord, SkipRecord, VerificationReport


def run_prime_shards(
    fn: Callable, static_args: Sequence, primes: Sequence[int], threads: int
) -> list:
    cores = os.cpu_count() or 1
    n = min(threads if threads > 0 else cores, len(primes), cores)
    if n > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~50 ms to import: poolless runs skip it
        with ProcessPoolExecutor(max_workers=n) as pool:
            return list(pool.map(fn, [(static_args, primes[i::n]) for i in range(n)]))
    return [fn((static_args, list(primes)))]


def check_shard(lhs: Callable, rhs: Callable, payload: tuple) -> tuple[list, list]:
    """(checks, skips) field tuples of lhs == rhs at each prime and each
    (label, point) of the grid, in that order, for payload = (grid, primes).
    A side is a kernel side(ctx, *point) giving a residue or the reason (a str)
    it is undefined; where the left side gives a reason, that reason is
    recorded and the right side is not evaluated."""
    grid, primes = payload
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
    theorem: str, params: dict, batch: Callable, static_args: Sequence, window: Sequence[int],
    threads: int, excluded: Mapping[int, str], start: float | None = None,
) -> VerificationReport:
    """Report of batch over the window's distinct primes (require_primes) not
    in excluded, each of which (prime -> reason) is a whole-prime skip; every
    shard gets static_args (a verifier's grid).  elapsed counts from start
    (time.monotonic), by default from this call."""
    if start is None:
        start = time.monotonic()
    primes = require_primes(window)
    lo, hi = (primes[0], primes[-1]) if primes else (0, 0)
    report = VerificationReport(theorem=theorem, params=params, window_lo=lo, window_hi=hi,
                                prime_count=len(primes))
    report.skipped.extend(SkipRecord(p, "", reason) for p, reason in excluded.items())
    todo = [p for p in primes if p not in excluded]
    for checks, skips in run_prime_shards(batch, static_args, todo, threads):
        report.checks.extend(map(CheckRecord._make, checks))
        report.skipped.extend(map(SkipRecord._make, skips))
    report.sort_records()
    report.elapsed = time.monotonic() - start
    return report
