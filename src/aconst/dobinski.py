"""Bell-type sequences, their coefficient families, and Dobinski congruences.

Dobinski's formula writes the moment-like series sum k^n/k! as b(n)*e with
b(n) the Bell numbers.  The finite analogue truncates the series at k = p-1
and reads it mod p; the Bell-side coefficients pick up a correction sequence
g.  Everything generalizes to an extra power r in the factorial and a
rational weight x: the coefficient polynomials b_{r,j}(n; x) and g_r(n; x)
share one binomial-transform recurrence and differ only in initial values,
and so do the integer sequences b and g, so one helper extends them all.
The polynomials have integer coefficients, so coeff_family runs that helper
on integers, each polynomial packed as its value at a power of two, and
keeps the coefficients as int tuples; their values at x = a/b take one
integer Horner pass and one Fraction each, and RationalPolynomials are made
only when a caller reads CoeffFamily.b or .g.
The truncated sums D^(N)(n) = sum_{k<N} k^n x^k/(k!)^r are the moments of
the weights x^k/(k!)^r, exact or, at one prime, mod p, in one pass per n
(_moments).  Over a window of primes, D(0..n)(p) mod p at every prime comes
from _d_sums_tree, which the verifier and d_r_A_range share: its maps, flat
int tuples, on the one accumulating remainder tree `modular.remainder_tree`,
which the prime scans also use and which trims the maps itself.  The
per-prime pass _d_sums_mod is its oracle.  The congruence is a left and a
right side kernel, and its batch is `_parallel.check_shard` bound to them:
the window's table of sums against the coefficient values, as integer
numerators over one common denominator lcm (which the right kernel inverts
mod its prime), applied to the basis D(0..r-1).  verify_dobinski builds the
table and the grid, one row point labelled n=0..n=n_max, so each side gives
a prime's whole column in one call; primes dividing den(x) or lcm are
whole-prime skips.  With the table built, the check loop runs in one process.

Conventions: 0^0 = 1 (the k = 0 term of every sum), and the g recurrence
starts at shift index 1 -- its initial window spans indices 0..r, one past
the b window, and the index-r value is pinned by the initial data, not the
recurrence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, repeat
from operator import add, mod, mul
from typing import Iterable, Sequence

from ._parallel import check_shard, verify_primes
from .modular import AElement, PrimeCtx, Rational, rational_mod, remainder_tree, require_primes
from .polys import RationalPolynomial
from .report import VerificationReport

DEFAULT_WINDOW = (5, 2003)


def _binomial_transform(row: list, n_max: int, r: int, scale=None) -> list:
    """Extend row in place to f(0)..f(n_max) by f(n) = scale(sum_k C(n-r, k) f(k)).

    The Bell-type sequences and both coefficient tables obey this one
    recurrence and differ only in their initial rows.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    for n in range(len(row), n_max + 1):
        m = n - r
        total = sum(math.comb(m, k) * row[k] for k in range(m + 1))
        row.append(total if scale is None else scale(total))
    return row


def bell(n_max: int) -> list[int]:
    """Bell numbers b(0)..b(n_max): 1, 1, 2, 5, 15, 52, ..."""
    return _binomial_transform([1], n_max, 1)


def g_seq(n_max: int) -> list[int]:
    """The companion sequence 0, 1, 1, 3, 9, 31, ...: g(0)=0, g(1)=1, Bell recurrence."""
    return _binomial_transform([0, 1][: n_max + 1], n_max, 1)


def _values(table: tuple, x: Fraction) -> list[Fraction]:
    """Each integer polynomial of table (coefficients by degree) at x = a/b:
    one Horner pass over a^d b^(deg-d), then one Fraction over b^deg."""
    a, b = x.numerator, x.denominator
    powers = list(accumulate(repeat(b, max(map(len, table), default=0)), mul, initial=1))
    values = []
    for coeffs in table:
        num = 0
        for c, bk in zip(reversed(coeffs), powers):
            num = num * a + c * bk
        values.append(Fraction(num, powers[max(len(coeffs) - 1, 0)]))
    return values


@dataclass(frozen=True)
class CoeffFamily:
    """Tables b_{r,j}(n; x) (j < r) and g_r(n; x) for 0 <= n <= n_max, each
    polynomial a tuple of its integer coefficients by degree; b and g give
    them as RationalPolynomials."""

    r: int
    n_max: int
    b_coeffs: tuple[tuple[tuple[int, ...], ...], ...]  # indexed [j][n]
    g_coeffs: tuple[tuple[int, ...], ...]

    @cached_property
    def b(self) -> tuple[tuple[RationalPolynomial, ...], ...]:
        return tuple(tuple(map(RationalPolynomial, row)) for row in self.b_coeffs)

    @cached_property
    def g(self) -> tuple[RationalPolynomial, ...]:
        return tuple(map(RationalPolynomial, self.g_coeffs))

    def b_values(self, x: Rational) -> list[list[Fraction]]:
        x = Fraction(x)
        return [_values(row, x) for row in self.b_coeffs]

    def g_values(self, x: Rational) -> list[Fraction]:
        return _values(self.g_coeffs, Fraction(x))


def _coeffs(v: int, size: int) -> tuple[int, ...]:
    """The coefficients, by degree, of the integer polynomial whose value at
    x = 2^(8 size) is v, when they share one sign and are below 2^(8 size)."""
    sign, v = (-1, -v) if v < 0 else (1, v)
    raw = v.to_bytes(-(-v.bit_length() // (8 * size)) * size, "little")
    return tuple(sign * int.from_bytes(raw[i : i + size], "little")
                 for i in range(0, len(raw), size))


@lru_cache(maxsize=None)
def coeff_family(r: int, n_max: int) -> CoeffFamily:
    """Build both coefficient tables up to index n_max, once per (r, n_max):
    a CoeffFamily is immutable, so every verifier call shares it.

    b_{r,j}: delta_{j,n} for n < r, then f(n+r) = x sum_k C(n,k) f(k) for n >= 0.
    g_r: (-1)^(r-1) x delta_{n,r} for n <= r, then the same recurrence for n >= 1.

    Every entry is an integer polynomial whose coefficients share one sign, so
    no coefficient exceeds in size the entry's value at x = 1, which is at most
    Bell(n_max) (by induction, as C(n-r, k) <= C(n-1, k)).  The tables are
    therefore built on integers, at x = 2^(8 size) > Bell(n_max), and read
    back size bytes per coefficient.
    """
    if r < 1:
        raise ValueError("r must be positive")
    size = bell(n_max)[-1].bit_length() // 8 + 1
    x = 1 << 8 * size
    times_x = partial(mul, x)
    b_rows = []
    for j in range(r):
        window = [int(n == j) for n in range(min(r, n_max + 1))]
        b_rows.append(_binomial_transform(window, n_max, r, times_x))
    # the g row starts at r + 1: the index-r value comes from the initial data
    g_row = [(-1) ** (r - 1) * x if n == r else 0 for n in range(min(r, n_max) + 1)]
    _binomial_transform(g_row, n_max, r, times_x)
    return CoeffFamily(r, n_max, tuple(tuple(_coeffs(v, size) for v in row) for row in b_rows),
                       tuple(_coeffs(v, size) for v in g_row))


def _moments(w: list, n_max: int) -> list:
    """sum_k w[k] k^n for n = 0..n_max (0^0 = 1), one pass over the weights per
    n.  Nothing is reduced, so exact and mod-p weights share this one pass."""
    ks = range(len(w))
    moments = [sum(w)]
    for _ in range(n_max):
        w = list(map(mul, w, ks))
        moments.append(sum(w))
    return moments


def _partial_sums_exact(r: int, n_max: int, N: int, x: Rational) -> list[Fraction]:
    """D^(N)(n) = sum_{k<N} k^n x^k/(k!)^r for all n = 0..n_max, the exact
    counterpart of _d_sums_mod.

    With x = a/b the weights a^k b^(N-1-k) ((N-1)!/k!)^r are integers over
    the k = 0 one, b^(N-1) ((N-1)!)^r, so each moment costs one division.
    """
    if r < 1 or n_max < 0 or N < 1:
        raise ValueError("need r >= 1, n >= 0, N >= 1")
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    w = [b ** (N - 1) * math.factorial(N - 1) ** r]
    for k in range(1, N):
        w.append(w[-1] * a // (b * k**r))  # exact for k < N
    return [Fraction(s, w[0]) for s in _moments(w, n_max)]


def check_truncation_identity(r: int, n: int, N: int, x: Rational) -> bool:
    """Exact check of the finite-sum recurrence with its boundary term:

    D^(N)(n+r) = x sum_k C(n,k) D^(N)(k) - N^n x^N / ((N-1)!)^r.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = Fraction(x)
    d = _partial_sums_exact(r, n + r, N, x)
    rhs = x * sum(math.comb(n, k) * d[k] for k in range(n + 1))
    rhs -= Fraction(N**n) * x**N / math.factorial(N - 1) ** r
    return d[n + r] == rhs


def _d_sums_mod(r: int, n_max: int, x: Rational, p: int) -> list[int] | None:
    """Residues of sum_{k<p} k^n x^k/(k!)^r for all n = 0..n_max, or None.

    The weights x^k (1/k!)^r mod p come from the inverse factorial table,
    raised to the r-th power by one map over it when r > 1 and weighted by
    x^k unless x = 1 mod p, and one moment pass over them gives every n.
    """
    ctx = PrimeCtx(p)
    xr = rational_mod(x, ctx)
    if xr is None:
        return None
    w = ctx.inv_fact_table
    if r > 1:
        w = list(map(pow, w, repeat(r), repeat(p)))
    if xr != 1:
        xk = accumulate(repeat(xr, p - 1), lambda u, v: u * v % p, initial=1)
        w = [u * f % p for u, f in zip(xk, w)]
    return [m % p for m in _moments(w, n_max)]


def _compose(f: tuple, g: tuple) -> tuple:
    """The map f then g, where a map (M, al, c_0..c_n) sends the state
    [U_0, ..., U_n, alpha] to [M U + c alpha, al alpha]."""
    m1, a1, *c1 = f
    m2, a2, *c2 = g
    return m2 * m1, a2 * a1, *[m2 * u + a1 * v for u, v in zip(c1, c2)]


def _advance(f: tuple, state: list, q: int) -> list:
    """The state [U_0, ..., U_n, alpha] after the map f, reduced mod q."""
    (m, al, *c), alpha = f, state[-1]
    # c has one entry fewer than the state, so zip stops before alpha
    return [(m * v + alpha * w) % q for v, w in zip(state, c)] + [al * alpha % q]


def _steps(a: int, b: int, r: int, n_top: int, lo: int, hi: int) -> tuple:
    """The map (M, alpha, c_0..c_n_top) of the steps K = lo, ..., hi-1 of
    U_m(K) = b K^r U_m(K-1) + K^m a^K, alpha(K) = a^K."""
    m, c, al = 1, [0] * (n_top + 1), 1
    for k in range(lo, hi):
        s = b * k**r
        al *= a
        c = [s * u + v for u, v in zip(c, accumulate(repeat(k, n_top), mul, initial=al))]
        m *= s
    return m, al, *c


def _d_sums_tree(r: int, n_top: int, x: Rational, window: Iterable[int]) -> dict[int, list[int]]:
    """p -> [D(0), ..., D(n_top)] mod p, D(m) = sum_{k<p} k^m x^k/(k!)^r, for
    every distinct window prime (require_primes) not dividing den(x), in one
    tree pass.

    With x = a/b, U_m(K) = sum_{k<=K} k^m a^k b^(K-k) (K!/k!)^r obeys
    U_m(K) = b K^r U_m(K-1) + K^m a^K, so a span of K is one flat map
    (M, alpha, c_0..c_n_top) of the state [U_0, ..., U_n_top, a^K], and maps
    compose by _compose.  The
    tree is `modular.remainder_tree` (Costa, Gerbicz and Harvey), the one the
    scans of `searches` use with scalar maps, run mod p from [e_0, 1] at
    K = 0.  At K = p-1, Wilson and Fermat give D(m) = (-1)^r U_m(p-1) mod p,
    since p does not divide b; a prime dividing a needs no special case.
    _d_sums_mod is the per-prime oracle.
    """
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    primes = [p for p in require_primes(window) if b % p]
    states = remainder_tree(primes, primes, partial(_steps, a, b, r, n_top),
                            _compose, _advance, [1] + [0] * n_top + [1])
    sign = (-1) ** r
    return {p: [sign * v % p for v in state[:-1]] for p, state in zip(primes, states)}


def d_r_A_range(r: int, n_max: int, x: Rational, window: Sequence[int]) -> list[AElement]:
    """All of D_{r,A}(0; x)..D_{r,A}(n_max; x) from one tree pass over the window."""
    if r < 1 or n_max < 0:
        raise ValueError("need r >= 1, n >= 0")
    window = require_primes(window)  # which the tree and each element meet again
    table = _d_sums_tree(r, n_max, x, window)
    bad = {p: "p divides den(x)" for p in window if p not in table}
    return [AElement(window, {p: sums[n] for p, sums in table.items()}, bad)
            for n in range(n_max + 1)]


def _dobinski_lhs(ctx: PrimeCtx, table: dict, n_max: int, g: list, b: tuple, lcm: int) -> list:
    return table[ctx.p][: n_max + 1]


def _dobinski_rhs(ctx: PrimeCtx, table: dict, n_max: int, g: list, b: tuple, lcm: int) -> list:
    # (g + sum_{j<r} b_j D(j)) / lcm at every n, where g and b = (b_0..b_{r-1}) are
    # the columns' numerators over lcm: one map pass per basis entry, then one
    # product with 1/lcm mod p and one reduction.  The theorem defines this side
    # through the basis D(0..r-1), so for n >= r it never reads D(n), the entry
    # it is checked against.
    p = ctx.p
    col = g
    for b_j, d_j in zip(b, table[p][: len(b)]):
        col = map(add, col, map(mul, b_j, repeat(d_j)))
    return list(map(mod, map(mul, col, repeat(pow(lcm, -1, p))), repeat(p)))


_dobinski_batch = partial(check_shard, _dobinski_lhs, _dobinski_rhs)


def verify_dobinski(
    r: int, n_max: int, x: Rational, window: Sequence[int], threads: int = 1
) -> VerificationReport:
    """Check D_{r,A}(n; x) = sum_j b_{r,j}(n; x) D_{r,A}(j; x) + g_r(n; x)
    at every admissible (prime, n) over the window, whose entries must be primes.

    Both sides are computed independently, each as one row over n = 0..n_max
    per prime: the left from the truncated sums, the right from the
    coefficient values, as integer numerators over one common denominator
    lcm, and the basis D(0..r-1).  Primes dividing den(x) or lcm are
    whole-prime skips, decided first (lcm's reason wins); one tree pass
    (_d_sums_tree) then gives the sums at every other prime.

    threads is ignored, and kept only for callers that pass it (the CLI
    offers no --threads here): once the tree has run, a prime's two rows are
    a slice and r map passes, so a process pool would cost more than the loop
    it splits.
    """
    x = Fraction(x)
    window = require_primes(window)
    start = time.monotonic()
    fam = coeff_family(r, n_max)
    cols = [fam.g_values(x), *fam.b_values(x)]  # g, b_0..b_{r-1}, each over n = 0..n_max
    lcm = math.lcm(*(v.denominator for col in cols for v in col))
    g, *b = ([v.numerator * (lcm // v.denominator) for v in col] for col in cols)
    excluded = {p: "p divides den(x)" for p in window if x.denominator % p == 0}
    excluded.update((p, "p divides a coefficient denominator") for p in window if lcm % p == 0)
    # the right side needs the basis D(0..r-1); the tree leaves out p | den(x),
    # and so every excluded prime, since lcm divides a power of den(x)
    table = _d_sums_tree(r, max(n_max, r - 1), x, window)
    params = {"r": r, "n_max": n_max, "x": str(x)}
    grid = [(tuple(f"n={n}" for n in range(n_max + 1)), (table, n_max, g, tuple(b), lcm))]
    return verify_primes("dobinski", params, _dobinski_batch, grid, window, 1, excluded, start)


def numeric_identity_check(
    r: int, n: int, x: Rational, N: int, tolerance: Rational
) -> bool:
    """Exact-rational check that the truncated series satisfy the real-number
    identity D_r(n; x) = sum_j b_{r,j}(n; x) D_r(j; x) to within tolerance.

    Refuses (raises ValueError) when the crude geometric tail bound cannot
    certify the truncation error below the tolerance.
    """
    x = Fraction(x)
    tol = Fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    b_at = [row[n] for row in coeff_family(r, n).b_values(x)]

    def tail_bound(idx: int) -> Fraction:
        # sum_{k>=N} k^idx |x|^k / (k!)^r, bounded by a geometric series
        ax = abs(x)
        t = Fraction(N**idx) * ax**N / math.factorial(N) ** r
        q = (1 + Fraction(1, N)) ** idx * ax / (N + 1) ** r
        if q >= 1:
            raise ValueError(f"tail bound diverges at N={N} (ratio {q} >= 1)")
        return t / (1 - q)

    err = tail_bound(n) + sum(
        (abs(b) * tail_bound(j) for j, b in enumerate(b_at)), Fraction(0)
    )
    if err >= tol / 2:
        raise ValueError(f"truncation tail bound {float(err):.3g} exceeds tolerance/2")

    d = _partial_sums_exact(r, max(n, r - 1), N, x)
    rhs = sum((b_at[j] * d[j] for j in range(r)), Fraction(0))
    return abs(d[n] - rhs) < tol
