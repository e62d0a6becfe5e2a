"""Prime searches for vanishing components (Wilson-type and e-type zeros).

Both quantities vanish only at rare primes.  A scan is one quasi-linear
pass over the window: an accumulating remainder tree (Costa, Gerbicz and
Harvey, "A search for Wilson primes", Math. Comp. 83, 2014) yields every
residue at once.  The residues it hands to the cache are an audit record:
`recompute` (and so `aconst cache verify`) rechecks them with the
independent per-prime kernels below, never with the tree.
"""

from __future__ import annotations

from typing import Sequence

from .cache import ResidueCacheRecord
from .dobinski import _d_sums_mod
from .euler import _wilson_component

SEARCH_TARGETS = ("eA-zero", "wilson")


def e_component(p: int) -> int:
    """Residue of sum_{k<p} 1/k! mod p (the e-analogue's p-component)."""
    return _d_sums_mod(1, 0, 1, p)[0]


_TARGET_FNS = {"eA-zero": ("e_A", e_component), "wilson": ("wilson_q", _wilson_component)}


def _span(lo: int, hi: int, e: int) -> tuple[int, int]:
    """(a, b) with y -> a*y + b the composite of y -> n*y + e, n = lo, ..., hi-1."""
    if hi - lo > 64:  # binary splitting keeps long spans quasi-linear
        mid = (lo + hi) // 2
        (a1, b1), (a2, b2) = _span(lo, mid, e), _span(mid, hi, e)
        return a2 * a1, a2 * b1 + b2
    a, b = 1, 0
    for n in range(lo, hi):
        a, b = a * n, b * n + e
    return a, b


def _remainder_tree(primes: list[int], e: int, power: int) -> list[int]:
    """y_{p-1} mod p**power for each p in the ascending list of primes, where
    y_0 = 1 and y_n = n*y_{n-1} + e.

    e = 0 gives (p-1)!; e = 1 gives a_{p-1} of a_n = n*a_{n-1} + 1, the
    product of the matrices [[n, 1], [0, 1]] applied to (a_0, 1).  Leaf i
    is the step map over [p_{i-1}, p_i) (p_0 = 1) with modulus p_i**power;
    a node holds the composite map of its leaves and the product of their
    moduli.  The descent hands each node y at the start of its span,
    reduced mod the node's modulus, so the levels are dropped one by one.
    """
    if not primes:
        return []
    levels = [([_span(lo, hi, e) for lo, hi in zip([1] + primes, primes)],
               [p**power for p in primes])]
    while len(levels[-1][1]) > 1:
        maps, mods = levels[-1]
        up_maps, up_mods = [], []
        for i in range(0, len(mods) - 1, 2):
            (a1, b1), (a2, b2) = maps[i], maps[i + 1]
            up_maps.append((a2 * a1, a2 * b1 + b2))
            up_mods.append(mods[i] * mods[i + 1])
        if len(mods) % 2:
            up_maps.append(maps[-1])
            up_mods.append(mods[-1])
        levels.append((up_maps, up_mods))
    starts = [1]  # y_0 at the root; every modulus exceeds 1
    maps, mods = levels.pop()
    while levels:
        maps, mods = levels.pop()
        below = []
        for j, y in enumerate(starts):
            below.append(y % mods[2 * j])
            if 2 * j + 1 < len(mods):
                a, b = maps[2 * j]
                below.append((a * y + b) % mods[2 * j + 1])
        starts = below
    return [(a * y + b) % m for (a, b), y, m in zip(maps, starts, mods)]


def _window_residues(target: str, primes: list[int]) -> list[int]:
    if target == "wilson":  # (p-1)! mod p^2 -> ((p-1)! + 1)/p mod p
        return [(f + 1) // p % p for p, f in zip(primes, _remainder_tree(primes, 0, 2))]
    # sum_{k<p} 1/k! = a_{p-1}/(p-1)! and (p-1)! = -1 mod p
    return [-a % p for p, a in zip(primes, _remainder_tree(primes, 1, 1))]


def search_zero_primes(
    target: str, window: Sequence[int]
) -> tuple[list[int], list[ResidueCacheRecord]]:
    """Primes in the window whose target residue is zero, plus one record per
    window entry, both in the window's order."""
    if target not in _TARGET_FNS:
        raise ValueError(f"unknown search target {target!r}")
    tag = _TARGET_FNS[target][0]
    primes = sorted(set(window))
    if primes and primes[0] < 2:
        raise ValueError(f"search windows hold primes, got {primes[0]}")
    residue = dict(zip(primes, _window_residues(target, primes)))
    records = [ResidueCacheRecord(tag, {}, p, residue[p]) for p in window]
    hits = [p for p in window if residue[p] == 0]
    return hits, records


def recompute(tag: str, params: dict, p: int) -> int:
    """Fresh recomputation for cache verification."""
    for target, (t, fn) in _TARGET_FNS.items():
        if t == tag:
            return fn(p)
    raise ValueError(f"no recompute rule for tag {tag!r}")
