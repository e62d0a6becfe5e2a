"""Prime searches for vanishing components (Wilson-type and e-type zeros).

Both quantities vanish only at rare primes.  A scan is one quasi-linear
pass over the window: `modular.remainder_tree` (Costa, Gerbicz and Harvey,
"A search for Wilson primes", Math. Comp. 83, 2014) steps the scalar
affine maps y -> n*y + e, composed as flat pairs (a, b) for y -> a*y + b
that the tree trims itself, mod p^2 for Wilson and mod p for the
e-analogue, and yields every residue at once.  The residues it hands to
the cache are an audit record: `recompute` (and so `aconst cache verify`)
rechecks them with the independent per-prime kernels below, never with
the tree.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

from .cache import ResidueCacheRecord
from .dobinski import _d_sums_mod
from .euler import _wilson_component
from .modular import remainder_tree, require_primes


def e_component(p: int) -> int:
    """Residue of sum_{k<p} 1/k! mod p (the e-analogue's p-component)."""
    return _d_sums_mod(1, 0, 1, p)[0]


_TARGET_FNS = {"eA-zero": ("e_A", e_component), "wilson": ("wilson_q", _wilson_component)}
SEARCH_TARGETS = tuple(_TARGET_FNS)


def _steps(e: int, lo: int, hi: int) -> tuple[int, int]:
    """(a, b) with y -> a*y + b the composite of y -> n*y + e, n = lo, ..., hi-1."""
    a, b = 1, 0
    for n in range(lo, hi):
        a, b = a * n, b * n + e
    return a, b


def _compose(f: tuple[int, int], g: tuple[int, int]) -> tuple[int, int]:
    """The map f then g."""
    return g[0] * f[0], g[0] * f[1] + g[1]


def _advance(f: tuple[int, int], state: list[int], q: int) -> list[int]:
    """The state [y] after the map f, reduced mod q."""
    return [(f[0] * state[0] + f[1]) % q]


def _window_residues(target: str, primes: list[int]) -> list[int]:
    # y_{p-1} of y_0 = 1, y_n = n*y_{n-1} + e for each prime of the ascending
    # list: e = 0 gives (p-1)! mod p^2, e = 1 a_{p-1} of a_n = n*a_{n-1} + 1 mod p
    e, power = (0, 2) if target == "wilson" else (1, 1)
    ys = remainder_tree(primes, [p**power for p in primes], partial(_steps, e),
                        _compose, _advance, [1])
    if target == "wilson":  # (p-1)! mod p^2 -> ((p-1)! + 1)/p mod p
        return [(f + 1) // p % p for p, (f,) in zip(primes, ys)]
    # sum_{k<p} 1/k! = a_{p-1}/(p-1)! and (p-1)! = -1 mod p
    return [-a % p for p, (a,) in zip(primes, ys)]


def search_zero_primes(
    target: str, window: Sequence[int]
) -> tuple[list[int], list[ResidueCacheRecord]]:
    """The window primes (require_primes) whose target residue is zero, plus
    one record per window prime, both ascending."""
    if target not in _TARGET_FNS:
        raise ValueError(f"unknown search target {target!r}")
    tag = _TARGET_FNS[target][0]
    primes = list(require_primes(window))
    residues = _window_residues(target, primes)
    records = [ResidueCacheRecord(tag, {}, p, v) for p, v in zip(primes, residues)]
    return [p for p, v in zip(primes, residues) if v == 0], records


def recompute_rule(tag: str, params: dict) -> Callable[[int], int] | None:
    """The per-prime kernel that recomputes records of tag with params, read
    from _TARGET_FNS when called, or None: no rule reads params yet."""
    if not params:
        for rule_tag, fn in _TARGET_FNS.values():
            if rule_tag == tag:
                return fn
    return None


def recompute(tag: str, params: dict, p: int) -> int:
    """Fresh recomputation for cache verification, by recompute_rule."""
    rule = recompute_rule(tag, params)
    if rule is None:
        raise ValueError(f"no recompute rule for tag {tag!r} with params {params}")
    return rule(p)
