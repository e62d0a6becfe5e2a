"""The remainder-tree scans against the per-prime kernels they replaced."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aconst import cache, dobinski, modular, searches
from aconst.dobinski import _d_sums_tree
from aconst.euler import _wilson_component
from aconst.modular import require_primes, sieve_primes
from aconst.searches import e_component, search_zero_primes

PRIMES = sieve_primes(2, 2000)
ORACLES = {"eA-zero": e_component, "wilson": _wilson_component}


def windows():
    contiguous = st.tuples(st.integers(0, len(PRIMES)), st.integers(0, 40)).map(
        lambda t: PRIMES[t[0] : t[0] + t[1]]
    )
    scattered = st.lists(st.sampled_from(PRIMES), max_size=30)  # unsorted, repeats
    return st.one_of(
        st.just([]), st.just([2, 3]), st.just([2]), st.just([3]),
        st.sampled_from(PRIMES).map(lambda p: [p]), contiguous, scattered,
    )


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(ORACLES)), windows())
@example("wilson", [])
@example("eA-zero", [])
@example("wilson", [3, 2, 2])
@example("eA-zero", [3, 2, 2])
@example("eA-zero", [1999])
@example("wilson", [13, 5, 13])  # two Wilson primes: hits [5, 13], one record each
def test_tree_matches_per_prime_kernels(target, window):
    hits, records = search_zero_primes(target, window)
    primes = require_primes(window)
    expected = [ORACLES[target](p) for p in primes]
    assert [(r.prime, r.residue) for r in records] == list(zip(primes, expected))
    assert hits == [p for p, v in zip(primes, expected) if v == 0]
    assert {r.tag for r in records} <= {searches._TARGET_FNS[target][0]}


@settings(max_examples=60, deadline=None)
@given(windows())
def test_scalar_and_vector_maps_agree(window):
    # the eA-zero scan and the Dobinski tree at (r, n, x) = (1, 0, 1) step the
    # same recurrence U(K) = K U(K-1) + 1 with different maps
    records = search_zero_primes("eA-zero", window)[1]
    table = _d_sums_tree(1, 0, 1, window)
    assert [r.residue for r in records] == [table[p][0] for p in require_primes(window)]


@pytest.mark.parametrize("target", sorted(ORACLES))
@pytest.mark.parametrize("window", [[4], [9], [5, 9, 7]])
def test_composite_window_entries_are_rejected(target, window):
    with pytest.raises(ValueError, match="must be primes"):
        search_zero_primes(target, window)


def test_wilson_primes_below_1e5():
    assert search_zero_primes("wilson", sieve_primes(5, 10**5))[0] == [5, 13, 563]


def test_e_analogue_zeros_match_known_list():
    # the eA_hits of the prime-search benchmark's golden values
    assert search_zero_primes("eA-zero", sieve_primes(5, 5063))[0] == [5, 13, 37, 463]


def test_cache_verify_recomputes_per_prime(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    for target in sorted(ORACLES):
        cache.append_records(search_zero_primes(target, sieve_primes(5, 200))[1])

    def no_tree(*args):
        raise AssertionError("cache verification must not use the remainder tree")

    calls = []

    def counted(tag, params, p):
        calls.append((tag, p))
        return recompute(tag, params, p)

    recompute = searches.recompute
    for module in (modular, searches, dobinski):  # every binding of the one tree
        monkeypatch.setattr(module, "remainder_tree", no_tree)
    monkeypatch.setattr(searches, "recompute", counted)
    checked, mismatches = cache.verify_sample(10, seed=5)
    assert checked == 20 and mismatches == []
    assert len(calls) == 20


def test_recompute_rules_read_the_target_table_when_called(tmp_path, monkeypatch):
    # a table swapped in after import (as a tracer does) reaches both recompute
    # and cache verify through the one rule
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    cache.append_records(search_zero_primes("wilson", [5, 7, 11])[1])
    calls = []

    def wilson(p):
        calls.append(p)
        return _wilson_component(p)

    monkeypatch.setattr(searches, "_TARGET_FNS", {"wilson": ("wilson_q", wilson)})
    assert searches.recompute("wilson_q", {}, 13) == _wilson_component(13)
    assert cache.verify_sample(10, seed=0) == (3, [])
    assert sorted(calls) == [5, 7, 11, 13]
    assert searches.recompute_rule("wilson_q", {"r": 2}) is None
    assert searches.recompute_rule("e_A", {}) is None  # not in the swapped table


def test_recompute_and_cache_verify_call_the_swapped_kernels(tmp_path, monkeypatch):
    # every rule of a swapped table, not only the first, is looked up at call time
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    for target in searches.SEARCH_TARGETS:
        cache.append_records(search_zero_primes(target, sieve_primes(5, 30))[1])
    calls = Counter()

    def counting(tag, fn):
        def kernel(p):
            calls[tag] += 1
            return fn(p)
        return kernel

    table = {t: (tag, counting(tag, fn)) for t, (tag, fn) in searches._TARGET_FNS.items()}
    monkeypatch.setattr(searches, "_TARGET_FNS", table)
    assert searches.recompute("e_A", {}, 31) == e_component(31)
    assert searches.recompute("wilson_q", {}, 31) == _wilson_component(31)
    assert cache.verify_sample(3, seed=0) == (6, [])
    assert calls == {"e_A": 4, "wilson_q": 4}
