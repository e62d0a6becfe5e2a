"""Dense polynomials over Q, Stirling triangles, Gregory polynomials.

A RationalPolynomial is a tuple of Fraction coefficients, index = degree,
trailing zeros trimmed.  An exact series truncated at t^M is the plain list
of its coefficients of t^0..t^M; entries may be Fractions or
RationalPolynomials (anything with ring ops).

Gregory polynomials are the coefficients of t*(1+t)^x / log(1+t).  Over Q
there is one construction: the binomial series (1+t)^x divided by the
series log(1+t)/t, whose division-free recurrence is

    G_n(x) = binom(x, n) - sum_{j<n} (-1)^(n-j) G_j(x) / (n-j+1).

The same call gives values at a rational x and, at the indeterminate
x = RationalPolynomial([0, 1]), the polynomials themselves.

Over F_p the residue stream uses the factorization
t(1+t)^x/log(1+t) = (1+t)^x * t/log(1+t): the Gregory numbers G_n(0) mod p
come once per prime from Newton inversion of log(1+t)/t (Brent and Kung,
JACM 25, 1978) into their one owner, the memo _gregory_zero_packed, and
G_n(x) = sum_k binom(x, k) G_{n-k}(0) is then one series product per x.
The finished streams G_0(x)..G_{p-2}(x) have their own owner, euler's
process-wide (p, x) memo, which calls gregory_residue_stream once per
distinct (p, x) across every Euler verifier and family.
Every series product mod p is a single big-int multiply of coefficients
packed into slots just wide enough for (p-1)^3 (Kronecker substitution;
Harvey, J. Symbolic Comput. 44, 2009), copied byte by byte to and from 8-byte
cells by strided slices, so p < 2642247 (8-byte slots at every p would make
the multiply 1.7x slower at p = 10007).  The residue stream stops at n = p-2:
G_{p-1}(x) picks up a 1/p! term and is not p-integral.  It stays apart from
the fixed-point binomial product analytic._binomial_product, which has the
same shape: running both through one signed product and one Newton
inversion made the Newton step mod p 1.2-1.75x slower, and the whole
residue stream 25-40% slower at p <= 503.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .modular import PrimeCtx, Rational, _binom_row

_ZERO = Fraction(0)
_NEG_INF = float("-inf")
_CELL = range(8) if sys.byteorder == "little" else range(7, -1, -1)  # slot byte b's cell byte


class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else _NEG_INF

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (RationalPolynomial([other])).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial([other])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, (RationalPolynomial, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPolynomial()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return RationalPolynomial([c / scalar for c in self.coeffs])

    def __call__(self, x: Rational) -> Fraction:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc if isinstance(acc, Fraction) else Fraction(acc)

    def shift(self, c: Rational) -> "RationalPolynomial":
        """p(x + c), by Horner recomposition (exact, O(deg^2))."""
        out: list[Fraction] = []
        for a in reversed(self.coeffs):
            # out(x) <- out(x)*(x+c) + a
            out = [_ZERO] + out
            for i in range(len(out) - 1):
                out[i] += c * out[i + 1]
            out[0] += a
        return RationalPolynomial(out)

    def antiderivative(self) -> "RationalPolynomial":
        """The primitive with zero constant term."""
        return RationalPolynomial(
            [_ZERO] + [c / (i + 1) for i, c in enumerate(self.coeffs)]
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "RationalPolynomial(0)"
        terms = [f"{c}*x^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c]
        return "RationalPolynomial(" + " + ".join(terms) + ")"


_X = RationalPolynomial([0, 1])  # the indeterminate


def series_pow_binomial(x: Rational | RationalPolynomial, order: int) -> list:
    """(1+t)^x truncated at t^order, as the list binom(x, 0..order), for
    rational x or, at the indeterminate RationalPolynomial([0, 1]), with
    polynomial coefficients."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not isinstance(x, RationalPolynomial):
        x = Fraction(x)
    coeffs = [x * 0 + 1]  # the one of x's ring
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * (x - n + 1) / n)
    return coeffs


def binomial_polynomial(n: int) -> RationalPolynomial:
    """binom(x, n) = x(x-1)...(x-n+1)/n! as a polynomial in x."""
    return series_pow_binomial(_X, n)[n]


def gregory_values_exact(x: Rational | RationalPolynomial, n_max: int) -> list:
    """G_0(x)..G_{n_max}(x) as exact rationals, or as polynomials at the
    indeterminate: the series (1+t)^x divided by log(1+t)/t, whose
    coefficients (-1)^i/(i+1) start at 1, so each G_n takes no division."""
    g = series_pow_binomial(x, n_max)
    log_over_t = [Fraction((-1) ** i, i + 1) for i in range(n_max + 1)]
    for n in range(1, n_max + 1):
        g[n] -= sum(map(mul, g[:n], log_over_t[n:0:-1]))
    return g


@lru_cache(maxsize=None)
def gregory_polynomials(n_max: int) -> tuple[RationalPolynomial, ...]:
    """G_0(x)..G_{n_max}(x) as polynomials."""
    return tuple(gregory_values_exact(_X, n_max))


def gregory_polynomial(n: int) -> RationalPolynomial:
    return gregory_polynomials(n)[n]


def gregory_explicit(n: int) -> RationalPolynomial:
    """G_n(x) from the unsigned Stirling-cycle expansion (n >= 1).

    ((-1)^n/n!) * sum_{j=1}^{n} ((-1)^j/(j+1)) [n,j] ((x+1)^{j+1} - x^{j+1}),
    an independent construction used to cross-check the recurrence.
    """
    if n < 1:
        raise ValueError("explicit form needs n >= 1")
    row = stirling_rows(n).s1[n]
    acc = RationalPolynomial()
    for j in range(1, n + 1):
        # (x+1)^(j+1) - x^(j+1): the top-degree terms cancel
        diff = RationalPolynomial([math.comb(j + 1, i) for i in range(j + 1)])
        acc = acc + diff * Fraction((-1) ** j * row[j], j + 1)
    return acc * Fraction((-1) ** n, math.factorial(n))


def _slot_bytes(p: int) -> int:
    # A product of two residue series truncated at p-1 terms has coefficients
    # sum_{i+j=n} a_i b_j <= L (p-1)^2 with L <= p-1 terms, so slots holding
    # (p-1)^3 never carry into their neighbours.
    return (((p - 1) ** 3).bit_length() + 7) // 8


def _pack(coeffs: list[int], width: int) -> int:
    """Values below 2**(8 width) as one int, coefficient n in bytes [n*width, (n+1)*width)."""
    cells = array("Q", coeffs).tobytes()
    raw = bytearray(len(coeffs) * width)
    for b, c in zip(range(width), _CELL):
        raw[b::width] = cells[c::8]
    return int.from_bytes(raw, "little")


def _unpack(packed: int, n: int, width: int, p: int) -> list[int]:
    """The first n slots (of width <= 8 bytes) of a packed int, each reduced mod p."""
    size = n * width
    raw = (packed & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    cells = bytearray(8 * n)
    for b, c in zip(range(width), _CELL):
        cells[c::8] = raw[b::width]
    return [v % p for v in memoryview(cells).cast("Q")]


@lru_cache(maxsize=1)
def _gregory_zero_packed(ctx: PrimeCtx) -> int:
    """G_0(0)..G_{p-2}(0) mod p, packed, as the inverse of log(1+t)/t.

    Newton's step h <- h - t^k h e, where f h = 1 + t^k e mod t^(2k),
    doubles the number of correct terms of h = 1/f with two packed
    products, so the whole inversion costs a few products of length p.
    """
    p = ctx.p
    n = p - 1
    width = _slot_bytes(p)
    inv = ctx.inv_table
    coeffs = [inv[i + 1] if i % 2 == 0 else p - inv[i + 1] for i in range(n)]  # (-1)^i/(i+1)
    f = _pack(coeffs, width)
    h = [1]
    while len(h) < n:
        k = len(h)
        k2 = min(2 * k, n)
        hp = _pack(h, width)
        fh = (f & ((1 << 8 * width * k2) - 1)) * hp
        e = _unpack(fh >> 8 * width * k, k2 - k, width, p)
        h += [-c % p for c in _unpack(hp * _pack(e, width), k2 - k, width, p)]
    return _pack(h, width)


def gregory_residue_stream(x: Rational, n_max: int, ctx: PrimeCtx) -> list[int] | None:
    """Residues of G_0(x)..G_{n_max}(x) mod p, or None when p | den(x).

    Requires 0 <= n_max <= p-2 (beyond p-2 the values stop being
    p-integral) and p < 2642247, checked before any O(p) work.  The stream
    is the product of the binomial series (1+t)^x, built in one O(n_max)
    pass, with the Gregory numbers G_n(0) of ctx's prime, truncated at
    n_max.  A call costs O(n_max) steps to build, pack and unpack, plus one
    multiply of ints of at most p * 3 log2(p) bits; a call on another ctx
    than the last adds the Newton inversion, O(log p) such multiplies of
    doubling length.  With M(b) the cost of a b-bit multiply (Karatsuba in
    CPython), that is O(M(p log p)) per prime and per x, against O(n_max^2)
    steps for the division-free recurrence.  Its one caller is euler's (p, x)
    stream memo, and verifier grids list every x of a prime together, so a
    window inverts once per prime, and again only where a later call brings
    a new x.
    """
    p = ctx.p
    if not 0 <= n_max <= p - 2:
        raise ValueError(f"n_max={n_max} outside [0, p-2={p - 2}]")
    width = _slot_bytes(p)
    if width > 8:
        raise ValueError(f"residue streams need p < 2642247 (8-byte slots), got p={p}")
    binom = _binom_row(x, n_max, ctx)
    if binom is None:
        return None
    return _unpack(_pack(binom, width) * _gregory_zero_packed(ctx), n_max + 1, width, p)


def check_shift_identity(n: int, N: int, x: Rational) -> bool:
    """G_n(x) == (-1)^N sum_j (-1)^j binom(N,j) G_{n+N}(x+j), exactly."""
    x = Fraction(x)
    polys = gregory_polynomials(n + N)
    rhs = _ZERO
    for j in range(N + 1):
        rhs += Fraction((-1) ** j * math.comb(N, j)) * polys[n + N](x + j)
    return polys[n](x) == (-1) ** N * rhs


@dataclass(frozen=True)
class StirlingTriangles:
    """Rows 0..n_max of both Stirling triangles.

    s1 is the UNSIGNED first kind (cycle counts); the alternating sign
    (-1)^(n-j) lives in the generating function (log(1+t))^j / j!,
    not in the table.  s2 is the second kind (set partitions).
    """

    s1: tuple[tuple[int, ...], ...]
    s2: tuple[tuple[int, ...], ...]


def stirling_rows(n_max: int) -> StirlingTriangles:
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    s1 = [(1,)]
    s2 = [(1,)]
    for n in range(1, n_max + 1):
        prev1, prev2 = s1[-1], s2[-1]
        row1 = [0] * (n + 1)
        row2 = [0] * (n + 1)
        for j in range(1, n + 1):
            row1[j] = prev1[j - 1] + (n - 1) * (prev1[j] if j < n else 0)
            row2[j] = prev2[j - 1] + j * (prev2[j] if j < n else 0)
        s1.append(tuple(row1))
        s2.append(tuple(row2))
    return StirlingTriangles(tuple(s1), tuple(s2))


def stirling1_row_mod(n: int, ctx: PrimeCtx) -> list[int]:
    """Row n of the unsigned first-kind triangle, reduced mod p."""
    return [v % ctx.p for v in stirling_rows(n).s1[n]]


def check_euler_operator_ode(r: int, order: int) -> bool:
    """Formal check that E(z) = sum z^{rn}/(n!)^r satisfies theta^r E = (rz)^r E
    through z^order, coefficient by coefficient: theta = z d/dz multiplies the
    coefficient of z^k by k, and (rz)^r shifts the series up by r and
    multiplies it by r^r."""
    if r < 1:
        raise ValueError("r must be positive")
    if order < r:
        raise ValueError("order must be at least r")
    E = [_ZERO] * (order + 1)
    for n in range(order // r + 1):
        E[r * n] = Fraction(1, math.factorial(n) ** r)
    lhs = [k**r * c for k, c in enumerate(E)]
    rhs = [_ZERO] * r + [r**r * c for c in E[: order + 1 - r]]
    return lhs == rhs
