"""Finite analogues of Euler's constant and the congruences tying them together.

The Fermat quotient q_p(x) = (x^(p-1) - 1)/p plays the role of log x; the
Wilson quotient ((p-1)! + 1)/p gives one analogue of Euler's constant, and
alternating sums of Gregory polynomial residues (Mascheroni- and
Kluyver-style) give others.  The theorems verified here say the two kinds
differ only by rational constants and rational combinations of the values
ell(x) = x*q_p(x), which every right side gathers through one _ell_form.

Each congruence is a pair of module-level side kernels, lhs(ctx, *point) and
rhs(ctx, *point), each giving a residue mod p or the reason (a str) it is
undefined.  A verifier is a THEOREMS entry (its batch, check_shard bound to
the two kernels, and its parameter axes) plus `grid`, which builds and
range-checks the labelled points: check_shard evaluates the kernels (left
side first, so the left side's reason wins) and `_parallel.verify_primes`
shards, collects and reports.  The AElement families gamma_M, G_A, gamma_K
and L1 are the left kernels of mascheroni, interlude, kluyver and eisenstein
read through `AElement.from_kernel`.  Neither side sees the other's value:
the sum side comes from Gregory residue streams, the quotient side from
Fermat and Wilson quotients mod p^2.  Two congruences share code across
their sides: both Kluyver sides reach fermat_quotient through _ell_component
(the left side subtracts ell(x+m+1)), so a fault there is missed where
H_m = 0 mod p, as at m = 3, p = 11; both log-additivity sides are
fermat_quotient, so a fault that keeps q_p additive (q -> c*q) passes.  The
streams have one owner, the process-wide memo _stream keyed by
(p, num(x), den(x)), so the mascheroni, interlude and kluyver verifiers and
their families build each distinct G_0(x)..G_{p-2}(x) mod p once; only left
kernels read it and the Kluyver weights, one prime's memo, as they come from
the check loop's PrimeCtx tables, which a value-keyed memo would rebuild or
keep alive.  Only right kernels read the bounded memos _wilson, by p, and
_ell, by (p, num(v), den(v)) for ell(v), which all verifier calls share.
A window entry that is not a prime raises ValueError.  Primes 2 and 3 are
excluded from verifiers wholesale (the congruences are sufficiently-large-p
statements); primes dividing a relevant numerator or denominator are
skipped per point, with the reason recorded, and so is every point whose
check cannot fail (Eisenstein at x = 0, a log-additivity pair holding 1).
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, product
from operator import mul
from typing import Mapping, Sequence

from ._parallel import check_shard, verify_primes
from .modular import AElement, PrimeCtx, Rational, rational_mod, rational_pow_mod_p2, require_primes
from .polys import gregory_residue_stream
from .report import VerificationReport

DEFAULT_WINDOW = (5, 1009)


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
    return int(x == -1)


def _ell_component(x: Fraction, ctx: PrimeCtx) -> int | None:
    # x * q_p(x) mod p, with the conventions ell(0) = 0 and ell(1) = 0
    if x == 0 or x == 1:
        return 0
    q = fermat_quotient(x, ctx.p)
    return None if q is None else rational_mod(x, ctx) * q % ctx.p


@lru_cache(maxsize=4096)  # criterion 4, five x over [5, 1009], reads 3337 values
def _ell(p: int, num: int, den: int) -> int | None:
    return _ell_component(Fraction(num, den), PrimeCtx(p))


def _ell_form(ctx: PrimeCtx, x: Fraction, offset: int, coeffs: Sequence[Rational]) -> int | None:
    # sum_j coeffs[j] ell(x+offset+j) mod p, or None where some ell is undefined.
    # x+i is the int pair (num + i*den, den), in lowest terms as x is, so every
    # value has one key whatever x its row starts from
    den = x.denominator
    start = x.numerator + offset * den
    ells = [_ell(ctx.p, num, den) for num in range(start, start + len(coeffs) * den, den)]
    if None in ells:
        return None
    return sum(rational_mod(c, ctx) * e for c, e in zip(coeffs, ells)) % ctx.p


def ell_A(x: Rational, window: Sequence[int]) -> AElement:
    """The family (x * q_p(x) mod p)_p, i.e. x times the log analogue.

    Zero when x is 0 or 1; elsewhere primes dividing the numerator or
    denominator of x (and p = 2) are exceptional.
    """
    x = Fraction(x)
    reason = f"fermat quotient undefined at x={x}"

    def component(p):
        c = _ell_component(x, PrimeCtx(p))
        return reason if c is None else c

    return AElement.from_kernel(window, component)


# Factors per block of _wilson_component: 32 to 64 were fastest for p from
# 10^3 to 10^5 (BENCH_22.json)
_WILSON_BLOCK = 64


def _wilson_component(p: int) -> int:
    # ((p-1)! + 1)/p mod p, one O(p) pass mod p^2: each block lo..hi-1 of
    # consecutive factors is one math.perm product, then one reduction
    p2 = p * p
    f = 1
    for lo in range(2, p, _WILSON_BLOCK):
        hi = min(lo + _WILSON_BLOCK, p)
        f = f * math.perm(hi - 1, hi - lo) % p2
    return (f + 1) // p % p  # (p-1)! = -1 mod p makes the division exact


def wilson_gamma(window: Sequence[int]) -> AElement:
    """The Wilson-quotient family (((p-1)! + 1)/p mod p)_p."""
    return AElement.from_kernel(window, _wilson_component)


def _alternating_sum(stream: Sequence[int], weights: list[int], p: int) -> int:
    # sum_{n>=1} (-1)^(n-1) stream[n] * weights[n-1] mod p over the n that
    # weights covers, as two O(p) dot products over strided slices
    odd = sum(map(mul, stream[1::2], weights[0::2]))
    even = sum(map(mul, stream[2::2], weights[1::2]))
    return (odd - even) % p


def _mascheroni_sum(stream: Sequence[int], ctx: PrimeCtx) -> int:
    # sum_{n=1}^{p-2} (-1)^(n-1) G_n(x) / n mod p
    p = ctx.p
    return _alternating_sum(stream, ctx.inv_table[1 : p - 1], p)


@lru_cache(maxsize=1)
def _kluyver_weights(p: int) -> dict[int, list[int]]:
    return {}  # one prime's weights (n-1)!/(n+m)! mod p, n = 1..p-m-1, by m


def _kluyver_sum(stream: Sequence[int], m: int, ctx: PrimeCtx) -> int:
    # m! sum_{n=1}^{p-m-1} (-1)^(n-1) G_n(x) / (n(n+1)...(n+m)) mod p,
    # where 1/(n(n+1)...(n+m)) = (n-1)!/(n+m)!
    p = ctx.p
    fact = ctx.fact_table
    weights = _kluyver_weights(p)
    if m not in weights:
        weights[m] = list(map(mul, fact[: p - m - 1], ctx.inv_fact_table[m + 1 :]))
    return _alternating_sum(stream, weights[m], p) * fact[m] % p


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


# Byte cap of the stream memo.  Acceptance criterion 4, five x over [5, 1009],
# fills it with 835 streams, 384820 residues in 1.6 MB.
_STREAM_MEMO_BYTES = 4 << 20


class _StreamMemo:
    """G_0(x)..G_{p-2}(x) mod p by (p, num(x), den(x)), for the whole process.

    Every verifier call and every family at one (p, x) reads one stream, so
    each distinct stream is built once; only the left kernels read it, and
    none changes it, since every later caller gets the same array.  A
    stream is kept as 4-byte residues (array "I" holds every p < 2^32), and
    None, the stream where p | den(x), is a stored value, not a miss.  Past
    _STREAM_MEMO_BYTES in all (sys.getsizeof of each value) the oldest entries
    go first.  Pool workers inherit the memo by fork and lose what they add.
    """

    def __init__(self) -> None:
        self.entries: dict[tuple[int, int, int], array | None] = {}
        self.nbytes = 0

    def __call__(self, ctx: PrimeCtx, x: Fraction) -> array | None:
        key = (ctx.p, x.numerator, x.denominator)  # ints hash faster than a Fraction
        if key in self.entries:
            return self.entries[key]
        stream = gregory_residue_stream(x, ctx.p - 2, ctx)
        value = None if stream is None else array("I", stream)
        self.entries[key] = value
        self.nbytes += sys.getsizeof(value)
        while self.nbytes > _STREAM_MEMO_BYTES:
            self.nbytes -= sys.getsizeof(self.entries.pop(next(iter(self.entries))))
        return value

    def clear(self) -> None:
        self.entries.clear()
        self.nbytes = 0


_stream = _StreamMemo()


@lru_cache(maxsize=256)  # criterion 4 reads 167 primes
def _wilson(p: int) -> int:
    return _wilson_component(p)


def _mascheroni_lhs(ctx: PrimeCtx, x: Fraction) -> int | str:
    stream = _stream(ctx, x)
    return "p divides den(x)" if stream is None else _mascheroni_sum(stream, ctx)


def _mascheroni_rhs(ctx: PrimeCtx, x: Fraction) -> int | str:
    # Wilson quotient + ell(x+2) - ell(x+1) + [x = -1] - 1
    ells = _ell_form(ctx, x, 1, (-1, 1))
    if ells is None:
        return "fermat quotient undefined at x+1 or x+2"
    return (_wilson(ctx.p) + ells + delta_minus_one(x) - 1) % ctx.p


def _interlude_lhs(ctx: PrimeCtx, k: int, x: Fraction) -> int | str:
    # G_{p-k}(x) mod p
    stream = _stream(ctx, x)
    if stream is None:
        return "p divides den(x)"
    return f"p <= k = {k}" if ctx.p <= k else stream[ctx.p - k]


def _interlude_rhs(ctx: PrimeCtx, k: int, x: Fraction) -> int | str:
    # (-1)^(k-1) sum_{j=0}^{k} (-1)^j C(k, j) ell(x+j+1)
    ells = _ell_form(ctx, x, 1, [(-1) ** (k - 1 + j) * math.comb(k, j) for j in range(k + 1)])
    return "fermat quotient undefined at some x+j+1" if ells is None else ells


def _kluyver_lhs(ctx: PrimeCtx, m: int, x: Fraction) -> int | str:
    # the Kluyver sum of order m + H_m - ell(x+m+1), mod p, with H_m summed from m
    # inverses by pow: apart from harmonic(), which the right side reads, and with
    # no O(p) inv_table built for m entries
    stream = _stream(ctx, x)
    if stream is None:
        return "p divides den(x)"
    p = ctx.p
    if p <= m + 1:
        return f"p <= m+1 = {m + 1}"
    ell = _ell_component(x + m + 1, ctx)
    if ell is None:
        return "fermat quotient undefined at some x+j+1"
    return (_kluyver_sum(stream, m, ctx) + sum(pow(j, -1, p) for j in range(1, m + 1)) - ell) % p


@lru_cache(maxsize=None)
def _kluyver_coeffs(m: int) -> tuple[Fraction, ...]:
    return (*(Fraction((-1) ** (m - j) * math.comb(m, j), m - j) for j in range(m)), harmonic(m) - 1)


def _kluyver_rhs(ctx: PrimeCtx, m: int, x: Fraction) -> int | str:
    # Wilson quotient + [x+m = -1] - 1 + (H_m - 1) ell(x+m+1)
    #   + sum_{j<m} (-1)^(m-j) C(m, j)/(m-j) ell(x+j+1); check_shard calls
    # it only where the left side is defined, so p > m+1 and every coefficient reduces
    ells = _ell_form(ctx, x, 1, _kluyver_coeffs(m))
    if ells is None:
        return "fermat quotient undefined at some x+j+1"
    return (_wilson(ctx.p) + (x == -1 - m) - 1 + ells) % ctx.p


def _eisenstein_lhs(ctx: PrimeCtx, x: Fraction) -> int | str:
    # sum_{m=1}^{p-1} (-1)^(m-1) x^m/m mod p, the truncated log at y = -x
    xr = rational_mod(x, ctx)
    return "quotient or residue undefined" if xr is None else _truncated_log(-xr % ctx.p, ctx)


def _eisenstein_rhs(ctx: PrimeCtx, x: Fraction) -> int | str:
    # (x+1) q_p(x+1) - x q_p(x) mod p; at x = 0 both sides are 0 by definition
    if x == 0:
        return "definitional: ell(0) = ell(1) = 0"
    ells = _ell_form(ctx, x, 0, (-1, 1))
    return "quotient or residue undefined" if ells is None else ells


def _logadd_lhs(ctx: PrimeCtx, x: Fraction, y: Fraction) -> int | str:
    q = fermat_quotient(x * y, ctx.p)
    return "fermat quotient undefined" if q is None else q


def _logadd_rhs(ctx: PrimeCtx, x: Fraction, y: Fraction) -> int | str:
    if x == 1 or y == 1:  # q_p(1 * y) = 0 + q_p(y) by definition
        return "definitional: q_p(1) = 0"
    qx = fermat_quotient(x, ctx.p)
    qy = fermat_quotient(y, ctx.p)
    return "fermat quotient undefined" if qx is None or qy is None else (qx + qy) % ctx.p


_mascheroni_batch = partial(check_shard, _mascheroni_lhs, _mascheroni_rhs)
_interlude_batch = partial(check_shard, _interlude_lhs, _interlude_rhs)
_kluyver_batch = partial(check_shard, _kluyver_lhs, _kluyver_rhs)
_eisenstein_batch = partial(check_shard, _eisenstein_lhs, _eisenstein_rhs)
_logadd_batch = partial(check_shard, _logadd_lhs, _logadd_rhs)

#: each report theorem's batch and its parameter axes, in the order of a point's entries
THEOREMS = {
    "mascheroni": (_mascheroni_batch, ("x",)),
    "interlude": (_interlude_batch, ("k", "x")),
    "kluyver": (_kluyver_batch, ("m", "x")),
    "eisenstein": (_eisenstein_batch, ("x",)),
    "log-additivity": (_logadd_batch, ("values",)),
}
#: the least value of each integer axis; every other axis is rational
LEAST = {"k": 2, "m": 1}


def grid(theorem: str, params: Mapping[str, Sequence]) -> tuple[dict, list]:
    """The report's params header and labelled points for a THEOREMS entry.

    params maps each axis to its values: a rational goes through Fraction, an
    integer below its LEAST value raises ValueError, and a repeat is dropped
    (the first occurrence kept).  The points are the product of the axes, the
    last outermost, labelled "k=2 x=1/2"; "values" gives every pair "x=2 y=1/3".
    """
    axes = THEOREMS[theorem][1]
    header, values = {}, []
    for axis in axes:
        integer = axis in LEAST
        vals = list(dict.fromkeys(params[axis] if integer else map(Fraction, params[axis])))
        if integer and any(v < LEAST[axis] for v in vals):
            raise ValueError(f"{axis} must be at least {LEAST[axis]}")
        header[axis] = vals if integer else list(map(str, vals))
        values.append(vals)
    names, points = axes, [point[::-1] for point in product(*values[::-1])]
    if axes == ("values",):  # log-additivity's points are the pairs of its values
        names, points = ("x", "y"), list(combinations_with_replacement(values[0], 2))
    return header, [(" ".join(map("{}={}".format, names, point)), point) for point in points]


def verify(theorem: str, params: Mapping[str, Sequence], window: Sequence[int],
           threads: int = 1) -> VerificationReport:
    """Report of a THEOREMS entry at params (see grid) over the window."""
    header, points = grid(theorem, params)
    # the congruences are sufficiently-large-p statements: p <= 3 is skipped whole
    excluded = {p: "excluded small prime (p <= 3)" for p in require_primes(window) if p <= 3}
    return verify_primes(theorem, header, THEOREMS[theorem][0], points, window, threads, excluded)


def gamma_M(x: Rational, window: Sequence[int]) -> AElement:
    """Mascheroni-style analogue: alternating sum of G_n(x)/n for n <= p-2."""
    x = Fraction(x)
    return AElement.from_kernel(window, lambda p: _mascheroni_lhs(PrimeCtx(p), x))


def gamma_K(m: int, x: Rational, window: Sequence[int]) -> AElement:
    """Kluyver-style analogue of order m >= 1: the rising-factorial sum plus
    H_m minus the ell component at x+m+1.

    A prime is exceptional when it divides den(x), when p <= m+1 or when
    the ell part is undefined; the component is then dropped, not split.
    """
    ((_, (m, x)),) = grid("kluyver", {"m": [m], "x": [x]})[1]
    return AElement.from_kernel(window, lambda p: _kluyver_lhs(PrimeCtx(p), m, x))


def G_A(k: int, x: Rational, window: Sequence[int]) -> AElement:
    """The family (G_{p-k}(x) mod p)_p for fixed offset k >= 2."""
    ((_, (k, x)),) = grid("interlude", {"k": [k], "x": [x]})[1]
    return AElement.from_kernel(window, lambda p: _interlude_lhs(PrimeCtx(p), k, x))


def L1(x: Rational, window: Sequence[int]) -> AElement:
    """The log-type family (-sum_{n=1}^{p-1} (1-x)^n / n mod p)_p: Eisenstein's
    left side at x - 1."""
    x = Fraction(x)
    return AElement.from_kernel(window, lambda p: _eisenstein_lhs(PrimeCtx(p), x - 1))


def verify_mascheroni(xs: Sequence[Rational], window: Sequence[int],
                      threads: int = 1) -> VerificationReport:
    """Mascheroni's sum against the Wilson quotient plus ell terms, at each x."""
    return verify("mascheroni", {"x": xs}, window, threads)


def verify_interlude(ks: Sequence[int], xs: Sequence[Rational], window: Sequence[int],
                     threads: int = 1) -> VerificationReport:
    """G_{p-k}(x) against the alternating binomial combination of ell values."""
    return verify("interlude", {"k": ks, "x": xs}, window, threads)


def verify_kluyver(ms: Sequence[int], xs: Sequence[Rational], window: Sequence[int],
                   threads: int = 1) -> VerificationReport:
    """Kluyver's sum of order m against its Wilson quotient and ell expansion."""
    return verify("kluyver", {"m": ms, "x": xs}, window, threads)


def verify_eisenstein(xs: Sequence[Rational], window: Sequence[int],
                      threads: int = 1) -> VerificationReport:
    """Eisenstein's congruence for each sampled x over the window."""
    return verify("eisenstein", {"x": xs}, window, threads)


def verify_log_additivity(values: Sequence[Rational], window: Sequence[int],
                          threads: int = 1) -> VerificationReport:
    """q_p(xy) = q_p(x) + q_p(y) for every pair (with repetition) of values."""
    return verify("log-additivity", {"values": values}, window, threads)
