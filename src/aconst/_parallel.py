"""The one driver of the congruence verifiers: shard, collect, report.

A verifier is a grid of labelled points, a batch and one call of
verify_primes.  The batch is check_shard bound to the congruence's two
module-level side kernels by functools.partial, so check_shard is the one
loop in the package that sets a pass flag, and the batch pickles by
reference into worker processes.  A row point (see check_shard) lets a
verifier with many cheap checks per prime, Dobinski's column over n, pay one
kernel call per side and prime.  The kernels are bound at import: to change
a side (in a test, say), patch what the kernel calls, not the kernel's own
name.  Work is independent per prime; at most one shard per core (a thread
count below 1 asks for one per core), strided so each worker gets a similar
mix of small and large primes (cost grows with p).
"""

from __future__ import annotations

import os
import time
from itertools import repeat
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
    recorded and the right value is not.  At a row point the label is a tuple
    of labels, each side gives a sequence of one residue or reason per label,
    and the rows are compared entry by entry, records in label order; both
    kernels run once per row, and a row whose length is not the label count
    raises ValueError, so no entry is ever dropped unchecked."""
    grid, primes = payload
    checks, skips = [], []
    for p in primes:
        ctx = PrimeCtx(p)
        for label, point in grid:
            left = lhs(ctx, *point)
            if type(label) is tuple:
                right = rhs(ctx, *point)
                if not len(left) == len(right) == len(label):
                    raise ValueError(f"rows of {len(left)} and {len(right)} entries "
                                     f"for {len(label)} labels at p = {p}")
            else:  # a scalar point is a row of one
                label, left = (label,), (left,)
                right = left if isinstance(left[0], str) else (rhs(ctx, *point),)
            for key, u, v in zip(label, left, right):
                if isinstance(u, str):
                    skips.append((p, key, u))
                elif isinstance(v, str):
                    skips.append((p, key, v))
                else:
                    checks.append((p, key, u, v, u == v))
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
        # tuple.__new__ wraps at C speed where _make runs Python code per record;
        # check_shard's field tuples have the records' lengths
        report.checks.extend(map(tuple.__new__, repeat(CheckRecord), checks))
        report.skipped.extend(map(tuple.__new__, repeat(SkipRecord), skips))
    report.sort_records()
    report.elapsed = time.monotonic() - start
    return report
