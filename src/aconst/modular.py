"""Prime windows and exact arithmetic mod p / mod p**2.

Residues are plain ints in [0, p); a PrimeCtx carries the prime and its
lazily built inverse/factorial tables.  Rationals are reduced into a prime
field only when the denominator is a unit mod p, and only by rational_mod
(binomial rows binom(x, 0..n) only by _binom_row); otherwise the operations
return None ("undefined") rather than assigning an arbitrary value.  An
AElement is the windowed stand-in for a prime-indexed residue family that
is only meaningful at all but finitely many primes: it stores one residue
per window prime, plus the primes where its value carries no meaning.
A window is a set of primes: the tuple require_primes returns, its distinct
primes ascending once every entry is checked.  Every verifier, tree, scan
and family holds that tuple, so each counts, computes and compares a
distinct prime once, whatever the entries' order.  require_primes remembers
the last window it accepted, so a window, its families and their arithmetic
results share one sieve.
Arithmetic is one path, _binary, and a rational operand reduces there only
through from_rational.
The one accumulating remainder tree (remainder_tree) reads a recurrence
stepped over K at K = p-1 for every prime of a window in one pass; the
Dobinski window sums and both prime scans are its callers, each with only
its own map type.  The tree composes only the maps its descent reads and
trims each to the product of the moduli that can still read it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from operator import add, mul, sub
from typing import Callable, Iterable, Mapping, Sequence, Union

Rational = Union[int, Fraction]


def sieve_primes(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending.  Empty range gives []."""
    if hi < 2 or hi < lo:
        return []
    lo = max(lo, 2)
    # sieve the base range [2, sqrt(hi)], then comb the segment [lo, hi]
    root = math.isqrt(hi) + 1
    base = bytearray([1]) * (root + 1)
    base[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(root) + 1):
        if base[i]:
            base[i * i :: i] = bytearray(len(base[i * i :: i]))
    small = [i for i in range(2, root + 1) if base[i]]
    seg = bytearray([1]) * (hi - lo + 1)
    for p in small:
        start = max(p * p, ((lo + p - 1) // p) * p)
        seg[start - lo :: p] = bytearray(len(seg[start - lo :: p]))
    return [p for p in small if p >= lo] + [
        lo + i for i, flag in enumerate(seg) if flag and lo + i > root
    ]


def require_primes(window: Iterable[int]) -> tuple[int, ...]:
    """The window's distinct primes, ascending; ValueError unless every entry
    is a prime.  One sieve over the entries' range (linear in the largest
    entry, like a window's tree), none when the entries are the ones last
    accepted."""
    return _require_prime_set(frozenset(window))


@lru_cache(maxsize=1)
def _require_prime_set(entries: frozenset) -> tuple[int, ...]:  # remembers no raise
    primes = tuple(sorted(entries))
    if primes:
        bad = entries.difference(sieve_primes(primes[0], primes[-1]))
        if bad:
            raise ValueError(f"window entries must be primes, got {min(bad)}")
    return primes


def remainder_tree(primes: list[int], mods: Iterable[int], steps: Callable,
                   compose: Callable, advance: Callable, start: Sequence[int]) -> list:
    """The state at K = p-1, reduced mod mods[i], for each p = primes[i] of an
    ascending list, where a recurrence steps its state at K = 1, 2, ... from
    start at K = 0: one accumulating remainder tree (Costa, Gerbicz and
    Harvey, "A search for Wilson primes", Math. Comp. 83, 2014).

    A state is a sequence of ints and a map a flat tuple of ints; steps(lo, hi)
    is the map of the steps K = lo, ..., hi-1 of a short span, compose(f, g)
    is f then g, and advance(f, s, q) is the state s after f, reduced mod q.
    Each entry of compose(f, g) and of advance(f, s, q) before its reduction
    must be an integer polynomial in the entries of f, g and s, so that a map
    reduced mod a multiple of q gives the same residues mod q.  Leaf i is the
    span [p_{i-1}, p_i) (p_0 = 1) with modulus mods[i]; a node holds the
    composite of its leaves and the product of their moduli.  The descent
    hands each node the state at the start of its span, reduced mod its
    modulus, so the levels are dropped one by one.

    Only what the descent reads is built (compare Bernstein, "Scaled
    remainder trees", 2004, on cutting what a remainder tree carries).  Above
    the leaves a node's map is read by its parent's compose and, if it is a
    left child, by the advance to its right sibling's start, reduced mod that
    sibling's modulus:
    - the last node of each level, the right spine up to the root, has no
      right sibling and its parent is the next level's last node, so no
      advance reads it and it is never composed;
    - every other node's map is reduced mod R, the product of the moduli to
      its right on its level, when it is wider than R.  This is exact: the
      sibling's modulus divides R, and so does the parent's R, the product
      over the nodes right of the pair, so both later uses end in a reduction
      mod a divisor of R.  A map then carries about as many bits as R, where
      the composite of a long span of the recurrence is many times wider.
    Each level's R grows right to left and stops once it is wider than the
    level's widest map, so the tree stays linear in memory.  A leaf's map is
    also read by the final advance mod its own modulus, and is kept whole.
    """

    def span(lo: int, hi: int):
        if hi - lo > 64:  # binary splitting keeps long spans quasi-linear
            mid = (lo + hi) // 2
            return compose(span(lo, mid), span(mid, hi))
        return steps(lo, hi)

    if not primes:
        return []
    maps, mods = [span(lo, hi) for lo, hi in zip([1] + primes, primes)], list(mods)
    levels = [(maps, mods)]
    while len(mods) > 2:  # up to the root's two children: nothing reads the root
        up_mods = [q * s for q, s in zip(mods[::2], mods[1::2])] + mods[len(mods) & ~1 :]
        # every node but the last, whose map no advance reads (an odd node is last)
        up_maps = [compose(f, g) for f, g in zip(maps[: 2 * len(up_mods) - 2 : 2], maps[1::2])]
        maps, mods = _trimmed(up_maps, up_mods), up_mods
        levels.append((maps, mods))
    starts = [start]  # at the root
    while levels:  # each level is dropped once its children's starts are known
        maps, mods = levels.pop()
        below = []
        for j, s in enumerate(starts):
            below.append([v % mods[2 * j] for v in s])
            if 2 * j + 1 < len(mods):
                below.append(advance(maps[2 * j], s, mods[2 * j + 1]))
        starts = below
    return [advance(f, s, q) for f, s, q in zip(maps, starts, mods)]


def _trimmed(maps: list, mods: list) -> list:
    """maps (one per node of a level but the last) with each reduced mod the
    product of the moduli of the nodes to its right, where it is wider."""
    widest = max(map(int.bit_length, chain.from_iterable(maps)), default=0)
    right = 1
    for j in range(len(maps) - 1, -1, -1):
        right *= mods[j + 1]
        width = right.bit_length()
        if width > widest:  # no map left of here is as wide as right
            break
        if max(map(int.bit_length, maps[j])) >= width:
            maps[j] = tuple(v % right for v in maps[j])
    return maps


class PrimeCtx:
    """A prime p with inverse and factorial tables mod p, built on first use.

    All tables are index-aligned: inv_table[i] is the inverse of i for
    1 <= i < p, fact_table[k] = k! mod p for 0 <= k <= p-1.
    """

    def __init__(self, p: int):
        if p < 2:
            raise ValueError(f"modulus must be a prime >= 2, got {p}")
        self.p = p

    @cached_property
    def inv_table(self) -> list[int]:
        # inv[i] = -(p//i) * inv[p%i] mod p, one O(p) pass
        p = self.p
        inv = [0, 1] + [0] * (p - 2)
        for i in range(2, p):
            inv[i] = (p - p // i) * inv[p % i] % p
        return inv

    @cached_property
    def fact_table(self) -> list[int]:
        p = self.p
        fact = [1] * p
        for k in range(1, p):
            fact[k] = fact[k - 1] * k % p
        return fact

    @cached_property
    def inv_fact_table(self) -> list[int]:
        # down from 1/(p-1)! = -1 mod p (Wilson), so no factorial table is built
        p = self.p
        inv_fact = [1] * p
        inv_fact[p - 1] = p - 1
        for k in range(p - 1, 0, -1):
            inv_fact[k - 1] = inv_fact[k] * k % p
        return inv_fact

    def __repr__(self) -> str:
        return f"PrimeCtx({self.p})"


def rational_mod(q: Rational, ctx: PrimeCtx) -> int | None:
    """Residue of a rational mod p, or None when p divides the denominator."""
    num, den = q.numerator, q.denominator
    p = ctx.p
    if den % p == 0:
        return None
    if den == 1:
        return num % p
    return num * pow(den, -1, p) % p


def rational_pow_mod_p2(x: Rational, e: int, p: int) -> int | None:
    """x**e mod p**2, defined only when p divides neither part of x."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    num, den = x.numerator, x.denominator
    if num % p == 0 or den % p == 0:
        return None
    p2 = p * p
    r = pow(num, e, p2)
    if den != 1:
        r = r * pow(pow(den, e, p2), -1, p2) % p2
    return r


def _binom_row(x: Rational, n: int, ctx: PrimeCtx) -> list[int] | None:
    """binom(x, 0..n) mod p for n < p, the coefficients of (1+t)^x; None if p | den(x)."""
    xr = rational_mod(x, ctx)
    if xr is None:
        return None
    p, inv = ctx.p, ctx.inv_table
    row = [1]
    for k in range(1, n + 1):
        row.append(row[-1] * (xr - k + 1) * inv[k] % p)  # |product| < p^3
    return row


def binom_rational_mod(x: Rational, k: int, ctx: PrimeCtx) -> int | None:
    """Residue of x(x-1)...(x-k+1)/k! mod p; None if p | den(x) or k >= p."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    row = None if k >= ctx.p else _binom_row(x, k, ctx)  # k! is not invertible for k >= p
    return None if row is None else row[k]


class AElement:
    """Residue family over a prime window, defined at all but finitely many primes.

    window is require_primes of the window given; components maps each
    meaningful window prime to its residue, an int in [0, p), and exceptional
    maps the remaining window primes to the reason their value is undefined.
    Any other entry, or a prime in both maps, raises ValueError.
    Equality means agreement at every admissible prime of the common window.
    """

    __slots__ = ("window", "components", "exceptional")

    def __init__(
        self,
        window: Iterable[int],
        components: Mapping[int, int],
        exceptional: Mapping[int, str] | None = None,
    ):
        self.window = require_primes(window)
        self.components = dict(components)
        self.exceptional = dict(exceptional or {})
        outside = (self.components.keys() | self.exceptional.keys()) - set(self.window)
        if outside:
            raise ValueError(f"residue or reason at primes {sorted(outside)} outside the window")
        for p in self.window:
            if p in self.components:
                v = self.components[p]
                if p in self.exceptional:
                    raise ValueError(f"window prime {p} has both a residue and a reason")
                if type(v) is not int or not 0 <= v < p:
                    raise ValueError(f"residue {v!r} at p={p} is not an int in [0, p)")
            elif p not in self.exceptional:
                raise ValueError(f"window prime {p} has neither residue nor reason")

    @classmethod
    def from_kernel(cls, window: Iterable[int], fn: Callable[[int], int | str]) -> "AElement":
        """The family whose p-component is fn(p): a residue, or the reason
        (a str) it is undefined, evaluated once per window prime."""
        window = require_primes(window)  # before fn meets a composite
        values = {p: fn(p) for p in window}
        bad = {p: v for p, v in values.items() if isinstance(v, str)}
        comps = {p: v for p, v in values.items() if p not in bad}
        return cls(window, comps, bad)

    @classmethod
    def from_rational(cls, q: Rational, window: Iterable[int]) -> "AElement":
        def component(p):
            r = rational_mod(q, PrimeCtx(p))
            return "p divides denominator" if r is None else r

        return cls.from_kernel(window, component)

    @classmethod
    def zero(cls, window: Iterable[int]) -> "AElement":
        return cls.from_kernel(window, lambda p: 0)

    def __getitem__(self, p: int) -> int:
        if p in self.exceptional:
            raise KeyError(f"component at p={p} undefined: {self.exceptional[p]}")
        return self.components[p]

    def get(self, p: int) -> int | None:
        return self.components.get(p)

    def _binary(self, other, op) -> "AElement":
        if isinstance(other, AElement):
            if self.window != other.window:
                raise ValueError("window mismatch")
            comps = {p: op(self.components[p], other.components[p]) % p
                     for p in self.comparable_primes(other)}
            bad = {**other.exceptional, **self.exceptional}  # self's reason wins
            return AElement(self.window, comps, bad)
        if isinstance(other, (int, Fraction)):
            return self._binary(AElement.from_rational(other, self.window), op)
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, add)

    __radd__ = __add__  # addition mod p commutes; self's reasons still win

    def __sub__(self, other):
        return self._binary(other, sub)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: Rational) -> "AElement":
        """Componentwise product with a rational scalar."""
        return self._binary(Fraction(c), mul)  # a non-rational raises, never NotImplemented

    def comparable_primes(self, other: "AElement") -> list[int]:
        """Window primes where both sides carry a meaningful residue."""
        return [p for p in self.window if p in self.components and p in other.components]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AElement):
            return NotImplemented
        return self.window == other.window and all(
            self.components[p] == other.components[p] for p in self.comparable_primes(other)
        )

    __hash__ = None  # mutable mappings inside

    def __repr__(self) -> str:
        shown = {p: self.components[p] for p in self.window[:4] if p in self.components}
        return (
            f"AElement(window[{len(self.window)}], {shown}..., "
            f"exceptional={sorted(self.exceptional)})"
        )
