"""Finite analogues of Euler's constant and the congruences tying them together.

The Fermat quotient q_p(x) = (x^(p-1) - 1)/p plays the role of log x; the
Wilson quotient ((p-1)! + 1)/p gives one analogue of Euler's constant, and
alternating sums of Gregory polynomial residues (Mascheroni- and
Kluyver-style) give others.  The theorems verified here say the two kinds
differ only by values of x*q_p(x) and rational constants.

Each theorem has one per-prime kernel.  A verifier is a batch of those
kernels over a shard of primes plus one call of `_parallel.verify_primes`,
which shards, collects and reports; an AElement family is the same kernel
read through `AElement.from_kernel`.  Every verifier computes its two sides
along genuinely independent paths: the sum side from Gregory residue
streams, the quotient side from Fermat and Wilson quotients mod p^2.  Primes
2 and 3 are excluded from verifiers wholesale (the congruences are
sufficiently-large-p statements); primes dividing a relevant numerator or
denominator are skipped per component, with the reason recorded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul
from typing import Sequence

from ._parallel import verify_primes
from .modular import AElement, PrimeCtx, Rational, rational_mod, rational_pow_mod_p2
from .polys import gregory_residue_stream
from .report import VerificationReport

DEFAULT_WINDOW = (5, 1009)
_SMALL_PRIME_BOUND = 3  # verifiers skip p <= 3 outright


def fermat_quotient(x: Rational, p: int) -> int | None:
    """Residue of (x^(p-1) - 1)/p mod p; None unless p is odd and prime to x."""
    if p == 2:
        return None
    r = rational_pow_mod_p2(x, p - 1, p)
    if r is None:
        return None
    return (r - 1) // p % p  # r = 1 mod p by Fermat, so the division is exact


def harmonic(m: int) -> Fraction:
    """H_m = 1 + 1/2 + ... + 1/m, with H_0 = 0."""
    return sum((Fraction(1, j) for j in range(1, m + 1)), Fraction(0))


def delta_minus_one(x: Rational) -> int:
    """Indicator of x = -1, evaluated exactly on the rational x."""
    return 1 if Fraction(x) == -1 else 0


def _ell_component(x: Fraction, p: int) -> int | None:
    # x * q_p(x) mod p, with the conventions ell(0) = 0 and ell(1) = 0
    if x == 0 or x == 1:
        return 0
    q = fermat_quotient(x, p)
    if q is None:
        return None
    xr = x.numerator * pow(x.denominator, -1, p) % p
    return xr * q % p


def ell_A(x: Rational, window: Sequence[int]) -> AElement:
    """The family (x * q_p(x) mod p)_p, i.e. x times the log analogue.

    Zero when x is 0 or 1; elsewhere primes dividing the numerator or
    denominator of x (and p = 2) are exceptional.
    """
    x = Fraction(x)
    reason = f"fermat quotient undefined at x={x}"

    def component(p):
        c = _ell_component(x, p)
        return reason if c is None else c

    return AElement.from_kernel(window, component)


def _wilson_component(p: int) -> int:
    # ((p-1)! + 1)/p mod p, one O(p) pass mod p^2
    p2 = p * p
    f = 1
    for i in range(2, p):
        f = f * i % p2
    return (f + 1) // p % p  # (p-1)! = -1 mod p makes the division exact


def wilson_gamma(window: Sequence[int]) -> AElement:
    """The Wilson-quotient family (((p-1)! + 1)/p mod p)_p."""
    return AElement.from_kernel(window, _wilson_component)


def _alternating_sum(stream: list[int], weights: list[int], p: int) -> int:
    # sum_{n>=1} (-1)^(n-1) stream[n] * weights[n-1] mod p over the n that
    # weights covers, as two O(p) dot products over strided slices
    odd = sum(map(mul, stream[1::2], weights[0::2]))
    even = sum(map(mul, stream[2::2], weights[1::2]))
    return (odd - even) % p


def _mascheroni_sum(stream: list[int], ctx: PrimeCtx) -> int:
    # sum_{n=1}^{p-2} (-1)^(n-1) G_n(x) / n mod p
    p = ctx.p
    return _alternating_sum(stream, ctx.inv_table[1 : p - 1], p)


def _kluyver_sum(stream: list[int], m: int, ctx: PrimeCtx) -> int:
    # m! sum_{n=1}^{p-m-1} (-1)^(n-1) G_n(x) / (n(n+1)...(n+m)) mod p,
    # where 1/(n(n+1)...(n+m)) = (n-1)!/(n+m)!
    p = ctx.p
    fact = ctx.fact_table
    weights = list(map(mul, fact[: p - m - 1], ctx.inv_fact_table[m + 1 :]))
    return _alternating_sum(stream, weights, p) * fact[m] % p


def _kluyver_lhs(stream: list[int], m: int, hm: Fraction, ell: int, ctx: PrimeCtx) -> int:
    # gamma_K's component: the Kluyver sum of order m plus H_m (= hm) minus
    # ell = ell(x+m+1), mod p
    return (_kluyver_sum(stream, m, ctx) + rational_mod(hm, ctx) - ell) % ctx.p


def _truncated_log(y: int, ctx: PrimeCtx) -> int:
    # -sum_{n=1}^{p-1} y^n / n mod p, the truncated series of log(1 - y)
    p = ctx.p
    inv = ctx.inv_table
    s = 0
    w = 1
    for n in range(1, p):
        w = w * y % p
        s += w * inv[n]
    return -s % p


def gamma_M(x: Rational, window: Sequence[int]) -> AElement:
    """Mascheroni-style analogue: alternating sum of G_n(x)/n for n <= p-2."""
    x = Fraction(x)

    def component(p):
        ctx = PrimeCtx(p)
        stream = gregory_residue_stream(x, p - 2, ctx)
        return "p divides den(x)" if stream is None else _mascheroni_sum(stream, ctx)

    return AElement.from_kernel(window, component)


def gamma_K(m: int, x: Rational, window: Sequence[int]) -> AElement:
    """Kluyver-style analogue of order m: the rising-factorial sum plus
    H_m minus the ell component at x+m+1.

    A prime is exceptional when p <= m+1 or when the ell part is undefined;
    the whole component is then dropped rather than split.
    """
    if m < 1:
        raise ValueError("m must be positive")
    x = Fraction(x)
    hm = harmonic(m)

    def component(p):
        if p <= m + 1:
            return f"p <= m+1 = {m + 1}"
        ctx = PrimeCtx(p)
        stream = gregory_residue_stream(x, p - 2, ctx)
        if stream is None:
            return "p divides den(x)"
        ell = _ell_component(x + m + 1, p)
        if ell is None:
            return f"fermat quotient undefined at x+m+1={x + m + 1}"
        return _kluyver_lhs(stream, m, hm, ell, ctx)

    return AElement.from_kernel(window, component)


def G_A(k: int, x: Rational, window: Sequence[int]) -> AElement:
    """The family (G_{p-k}(x) mod p)_p for fixed offset k >= 2."""
    if k < 2:
        raise ValueError("k must be at least 2")
    x = Fraction(x)

    def component(p):
        if p <= k:
            return f"p <= k = {k}"
        stream = gregory_residue_stream(x, p - k, PrimeCtx(p))
        return "p divides den(x)" if stream is None else stream[p - k]

    return AElement.from_kernel(window, component)


def L1(x: Rational, window: Sequence[int]) -> AElement:
    """The log-type family (-sum_{n=1}^{p-1} (1-x)^n / n mod p)_p."""
    x = Fraction(x)

    def component(p):
        ctx = PrimeCtx(p)
        y = rational_mod(1 - x, ctx)
        return "p divides den(x)" if y is None else _truncated_log(y, ctx)

    return AElement.from_kernel(window, component)


def _eisenstein_sides(x: Fraction, ctx: PrimeCtx) -> tuple[int, int] | None:
    # sum_{m=1}^{p-1} (-1)^(m-1) x^m/m  vs  (x+1)q_p(x+1) - x q_p(x), mod p;
    # the left side is the truncated log at y = -x
    p = ctx.p
    xr = rational_mod(x, ctx)
    if xr is None:
        return None
    e1 = _ell_component(x + 1, p)
    e0 = _ell_component(x, p)
    if e1 is None or e0 is None:
        return None
    return _truncated_log(-xr % p, ctx), (e1 - e0) % p


def check_eisenstein(x: Rational, p: int) -> bool | None:
    """Eisenstein's congruence for the truncated log series at x; None when
    a needed quotient is undefined at p."""
    sides = _eisenstein_sides(Fraction(x), PrimeCtx(p))
    if sides is None:
        return None
    return sides[0] == sides[1]


def _small_primes(window: Sequence[int]) -> dict[int, str]:
    return {p: "excluded small prime (p <= 3)" for p in window if p <= _SMALL_PRIME_BOUND}


def _mascheroni_batch(payload):
    (xs,), primes = payload
    checks, skips = [], []
    for p in primes:
        ctx = PrimeCtx(p)
        wilson = _wilson_component(p)
        for x in xs:
            label = f"x={x}"
            stream = gregory_residue_stream(x, p - 2, ctx)
            if stream is None:
                skips.append((p, label, "p divides den(x)"))
                continue
            e2 = _ell_component(x + 2, p)
            e1 = _ell_component(x + 1, p)
            if e2 is None or e1 is None:
                skips.append((p, label, "fermat quotient undefined at x+1 or x+2"))
                continue
            lhs = _mascheroni_sum(stream, ctx)
            rhs = (wilson + e2 - e1 + delta_minus_one(x) - 1) % p
            checks.append((p, label, lhs, rhs, lhs == rhs))
    return checks, skips


def verify_mascheroni(
    xs: Sequence[Rational], window: Sequence[int], threads: int = 1
) -> VerificationReport:
    """Mascheroni-sum analogue against Wilson quotient plus ell terms,
    componentwise over the window, for each sampled x."""
    xs = [Fraction(x) for x in xs]
    params = {"x": [str(x) for x in xs]}
    return verify_primes("mascheroni", params, _mascheroni_batch, (xs,), window,
                         threads, _small_primes(window))


def _interlude_batch(payload):
    (ks, xs), primes = payload
    checks, skips = [], []
    for p in primes:
        ctx = PrimeCtx(p)
        for x in xs:
            stream = gregory_residue_stream(x, p - 2, ctx)
            if stream is None:
                for k in ks:
                    skips.append((p, f"k={k} x={x}", "p divides den(x)"))
                continue
            for k in ks:
                label = f"k={k} x={x}"
                if p <= k:
                    skips.append((p, label, f"p <= k = {k}"))
                    continue
                ells = [_ell_component(x + j + 1, p) for j in range(k + 1)]
                if any(e is None for e in ells):
                    skips.append((p, label, "fermat quotient undefined at some x+j+1"))
                    continue
                rhs = 0
                for j, e in enumerate(ells):
                    t = math.comb(k, j) * e
                    rhs = rhs - t if j % 2 else rhs + t
                rhs = rhs % p if k % 2 else -rhs % p  # overall (-1)^(k-1)
                lhs = stream[p - k]
                checks.append((p, label, lhs, rhs, lhs == rhs))
    return checks, skips


def verify_interlude(
    ks: Sequence[int], xs: Sequence[Rational], window: Sequence[int], threads: int = 1
) -> VerificationReport:
    """G_{p-k}(x) against the alternating binomial combination of ell values."""
    xs = [Fraction(x) for x in xs]
    ks = list(ks)
    if any(k < 2 for k in ks):
        raise ValueError("k must be at least 2")
    params = {"k": ks, "x": [str(x) for x in xs]}
    return verify_primes("interlude", params, _interlude_batch, (ks, xs), window,
                         threads, _small_primes(window))


def _kluyver_batch(payload):
    (ms, xs), primes = payload
    checks, skips = [], []
    for p in primes:
        ctx = PrimeCtx(p)
        wilson = _wilson_component(p)
        for x in xs:
            stream = gregory_residue_stream(x, p - 2, ctx)
            if stream is None:
                for m in ms:
                    skips.append((p, f"m={m} x={x}", "p divides den(x)"))
                continue
            for m in ms:
                label = f"m={m} x={x}"
                if p <= m + 1:
                    skips.append((p, label, f"p <= m+1 = {m + 1}"))
                    continue
                ells = [_ell_component(x + j + 1, p) for j in range(m + 1)]
                if any(e is None for e in ells):
                    skips.append((p, label, "fermat quotient undefined at some x+j+1"))
                    continue
                hm = harmonic(m)
                lhs = _kluyver_lhs(stream, m, hm, ells[m], ctx)
                rhs = wilson + delta_minus_one(x + m) - 1
                rhs += rational_mod(hm - 1, ctx) * ells[m]
                for j in range(m):
                    coef = rational_mod(
                        Fraction((-1) ** (m - j) * math.comb(m, j), m - j), ctx
                    )
                    rhs += coef * ells[j]
                rhs %= p
                checks.append((p, label, lhs, rhs, lhs == rhs))
    return checks, skips


def verify_kluyver(
    ms: Sequence[int], xs: Sequence[Rational], window: Sequence[int], threads: int = 1
) -> VerificationReport:
    """Kluyver-sum analogue (from its defining sum) against the Wilson/ell
    expansion computed on an independent path."""
    xs = [Fraction(x) for x in xs]
    ms = list(ms)
    if any(m < 1 for m in ms):
        raise ValueError("m must be positive")
    params = {"m": ms, "x": [str(x) for x in xs]}
    return verify_primes("kluyver", params, _kluyver_batch, (ms, xs), window,
                         threads, _small_primes(window))


def _eisenstein_batch(payload):
    (xs,), primes = payload
    checks, skips = [], []
    for p in primes:
        ctx = PrimeCtx(p)
        for x in xs:
            label = f"x={x}"
            sides = _eisenstein_sides(x, ctx)
            if sides is None:
                skips.append((p, label, "quotient or residue undefined"))
            else:
                lhs, rhs = sides
                checks.append((p, label, lhs, rhs, lhs == rhs))
    return checks, skips


def verify_eisenstein(
    xs: Sequence[Rational], window: Sequence[int], threads: int = 1
) -> VerificationReport:
    """Eisenstein's congruence for each sampled x over the window."""
    xs = [Fraction(x) for x in xs]
    params = {"x": [str(x) for x in xs]}
    return verify_primes("eisenstein", params, _eisenstein_batch, (xs,), window,
                         threads, _small_primes(window))


def _logadd_batch(payload):
    (pairs,), primes = payload
    checks, skips = [], []
    for p in primes:
        for x, y in pairs:
            label = f"x={x} y={y}"
            qx = fermat_quotient(x, p)
            qy = fermat_quotient(y, p)
            qxy = fermat_quotient(x * y, p)
            if qx is None or qy is None or qxy is None:
                skips.append((p, label, "fermat quotient undefined"))
            else:
                rhs = (qx + qy) % p
                checks.append((p, label, qxy, rhs, qxy == rhs))
    return checks, skips


def verify_log_additivity(
    values: Sequence[Rational], window: Sequence[int], threads: int = 1
) -> VerificationReport:
    """q_p(xy) = q_p(x) + q_p(y) for every pair (with repetition) of values."""
    vals = [Fraction(v) for v in values]
    pairs = list(combinations_with_replacement(vals, 2))
    params = {"values": [str(v) for v in vals]}
    return verify_primes("log-additivity", params, _logadd_batch, (pairs,), window,
                         threads, _small_primes(window))
