import math
import random
import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aconst import euler
from aconst.euler import (
    _eisenstein_batch,
    _eisenstein_rhs,
    _interlude_rhs,
    _kluyver_rhs,
    _kluyver_sum,
    _mascheroni_rhs,
    _mascheroni_sum,
    _truncated_log,
    _wilson_component,
    G_A,
    L1,
    delta_minus_one,
    ell_A,
    fermat_quotient,
    gamma_K,
    gamma_M,
    harmonic,
    verify_eisenstein,
    verify_interlude,
    verify_kluyver,
    verify_log_additivity,
    verify_mascheroni,
    wilson_gamma,
)
from aconst.modular import AElement, PrimeCtx, rational_mod, sieve_primes
from aconst.polys import gregory_values_exact

F = Fraction
WINDOW = sieve_primes(5, 101)


def brute_gamma_M(x, p):
    """Exact-rational oracle for the Mascheroni-type component at p."""
    values = gregory_values_exact(x, p - 2)
    total = F(0)
    for n in range(1, p - 1):
        term = values[n] / n
        total = total + term if n % 2 else total - term
    return rational_mod(total, PrimeCtx(p))


def brute_gamma_K(m, x, p):
    values = gregory_values_exact(x, p - 2)
    total = F(0)
    for n in range(1, p - m):
        term = values[n] / math.prod(range(n, n + m + 1))
        total = total + term if n % 2 else total - term
    total = math.factorial(m) * total + harmonic(m)
    ell = F(x + m + 1) * F(fermat_quotient(x + m + 1, p))
    return (rational_mod(total, PrimeCtx(p)) - rational_mod(ell, PrimeCtx(p))) % p


def loop_mascheroni_sum(stream, ctx):
    """Oracle: sum_{n=1}^{p-2} (-1)^(n-1) G_n(x) / n mod p, term by term."""
    p = ctx.p
    inv = ctx.inv_table
    s = 0
    for n in range(1, p - 1):
        t = stream[n] * inv[n]
        s = s + t if n % 2 else s - t
    return s % p


def loop_kluyver_sum(stream, m, ctx):
    """Oracle: m! sum_{n=1}^{p-m-1} (-1)^(n-1) G_n(x) / (n(n+1)...(n+m)) mod p."""
    p = ctx.p
    inv = ctx.inv_table
    s = 0
    for n in range(1, p - m):
        iv = inv[n]
        for i in range(1, m + 1):
            iv = iv * inv[n + i] % p
        t = stream[n] * iv
        s = s + t if n % 2 else s - t
    return s % p * (math.factorial(m) % p) % p


def loop_ell(x, p):
    """Oracle: x q_p(x) mod p with its own inline reduction of x."""
    if x == 0 or x == 1:
        return 0
    q = fermat_quotient(x, p)
    if q is None:
        return None
    return x.numerator * pow(x.denominator, -1, p) % p * q % p


# Oracles: the four Euler right sides, each gathering its own list of ell
# values and checking it for None before combining.


def loop_mascheroni_rhs(ctx, x):
    p = ctx.p
    e2 = loop_ell(x + 2, p)
    e1 = loop_ell(x + 1, p)
    if e2 is None or e1 is None:
        return "fermat quotient undefined at x+1 or x+2"
    return (_wilson_component(p) + e2 - e1 + delta_minus_one(x) - 1) % p


def loop_interlude_rhs(ctx, k, x):
    p = ctx.p
    ells = [loop_ell(x + j + 1, p) for j in range(k + 1)]
    if any(e is None for e in ells):
        return "fermat quotient undefined at some x+j+1"
    total = sum((-1) ** j * math.comb(k, j) * e for j, e in enumerate(ells))
    return (-1) ** (k - 1) * total % p


def loop_kluyver_rhs(ctx, m, x):
    p = ctx.p
    ells = [loop_ell(x + j + 1, p) for j in range(m + 1)]
    if any(e is None for e in ells):
        return "fermat quotient undefined at some x+j+1"
    rhs = _wilson_component(p) + delta_minus_one(x + m) - 1
    rhs += rational_mod(harmonic(m) - 1, ctx) * ells[m]
    for j in range(m):
        rhs += rational_mod(F((-1) ** (m - j) * math.comb(m, j), m - j), ctx) * ells[j]
    return rhs % p


def loop_eisenstein_rhs(ctx, x):
    if x == 0:
        return "definitional: ell(0) = ell(1) = 0"
    e1 = loop_ell(x + 1, ctx.p)
    e0 = loop_ell(x, ctx.p)
    if e1 is None or e0 is None:
        return "quotient or residue undefined"
    return (e1 - e0) % ctx.p


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-9, 9),
    st.integers(1, 9),
    st.integers(2, 5),
    st.integers(1, 3),
    st.sampled_from(sieve_primes(5, 101)),
)
@example(-1, 1, 2, 1, 5)  # x = -1: the indicator terms
@example(0, 1, 2, 1, 5)  # x = 0: Eisenstein's definitional skip
@example(-3, 5, 2, 1, 5)  # p | den(x): every ell undefined
@example(4, 1, 5, 3, 7)  # p = x+3: one ell undefined partway through
def test_right_sides_match_loops(a, b, k, m, p):
    x, ctx = F(a, b), PrimeCtx(p)
    assert _mascheroni_rhs(ctx, x) == loop_mascheroni_rhs(ctx, x)
    assert _interlude_rhs(ctx, k, x) == loop_interlude_rhs(ctx, k, x)
    assert _kluyver_rhs(ctx, m, x) == loop_kluyver_rhs(ctx, m, x)
    assert _eisenstein_rhs(ctx, x) == loop_eisenstein_rhs(ctx, x)


class TestStreamSums:
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009])
    def test_dot_products_match_loops(self, p):
        # both sums are linear in the stream, so random residues cover them
        rng = random.Random(p)
        ctx = PrimeCtx(p)
        for _ in range(5):
            stream = [rng.randrange(p) for _ in range(p - 1)]
            assert _mascheroni_sum(stream, ctx) == loop_mascheroni_sum(stream, ctx)
            for m in range(1, min(p - 2, 6)):
                assert _kluyver_sum(stream, m, ctx) == loop_kluyver_sum(stream, m, ctx)


class TestFermatQuotient:
    def test_base_two_mod_three(self):
        assert fermat_quotient(2, 3) == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 101])
    def test_one_maps_to_zero(self, p):
        assert fermat_quotient(1, p) == 0

    def test_rational_base_brute_force(self):
        # ((3 * inv2)^6 - 1)/7 with inv2 taken mod 49
        inv2 = next(v for v in range(49) if 2 * v % 49 == 1)
        expected = (pow(3 * inv2, 6, 49) - 1) // 7 % 7
        assert fermat_quotient(F(3, 2), 7) == expected == 4

    def test_undefined_cases(self):
        assert fermat_quotient(F(7, 2), 7) is None
        assert fermat_quotient(F(2, 7), 7) is None
        assert fermat_quotient(3, 2) is None

    def test_minus_one_maps_to_zero(self):
        assert fermat_quotient(-1, 13) == 0


class TestEll:
    def test_zero_and_one(self):
        assert ell_A(0, WINDOW) == AElement.zero(WINDOW)
        assert ell_A(1, WINDOW) == AElement.zero(WINDOW)
        assert ell_A(-1, WINDOW) == AElement.zero(WINDOW)

    def test_two_at_three(self):
        assert ell_A(2, [3])[3] == 2

    def test_exceptional_marks(self):
        elem = ell_A(F(10, 3), [3, 5, 7])
        assert set(elem.exceptional) == {3, 5}
        assert 7 in elem.components

    def test_reordered_window_is_the_same_element(self):
        # a window is the set of its primes, so order and repeats change nothing
        a, b = ell_A(2, [7, 5]), ell_A(2, [5, 7])
        assert a == b and a.window == (5, 7)
        assert a - b == AElement.zero([5, 7])
        assert ell_A(2, [7, 5, 7]).components == {5: 1, 7: 4}  # 2 q_p(2): 2*3 mod 5, 2*9 mod 7


def wilson_loop(p):
    """Oracle: the kernel as first written, one reduction mod p^2 per factor."""
    p2 = p * p
    f = 1
    for i in range(2, p):
        f = f * i % p2
    return (f + 1) // p % p


class TestWilson:
    # every prime to about 300 crosses the block edges of the kernel, and the
    # larger ones put p^2 beyond one 30-bit digit
    @pytest.mark.parametrize("p", sieve_primes(2, 300) + [4999, 32771, 104729])
    def test_blocks_match_the_loop(self, p):
        assert _wilson_component(p) == wilson_loop(p)

    def test_known_quotients(self):
        wg = wilson_gamma([5, 7, 13])
        assert wg[5] == 0
        assert wg[7] == 5  # (720+1)/7 = 103 = 5 mod 7
        assert wg[13] == 0

    @pytest.mark.parametrize("p", sieve_primes(5, 80))
    def test_brute_force(self, p):
        expected = (math.factorial(p - 1) + 1) // p % p
        assert wilson_gamma([p])[p] == expected


class TestGammaM:
    def test_small_prime_oracle(self):
        for p in (5, 7, 11, 13):
            for x in (F(0), F(-1), F(1, 2), F(-3)):
                assert gamma_M(x, [p])[p] == brute_gamma_M(x, p)

    def test_at_minus_one_equals_wilson(self):
        assert gamma_M(-1, WINDOW) == wilson_gamma(WINDOW)

    def test_at_minus_one_equals_wilson_on_a_reordered_window(self):
        shuffled = WINDOW[::-1] + WINDOW[:5]
        lhs, rhs = gamma_M(-1, shuffled), wilson_gamma(WINDOW)
        assert lhs.window == rhs.window == tuple(WINDOW)
        assert lhs == rhs and lhs - rhs == AElement.zero(WINDOW)
        assert lhs.comparable_primes(rhs) == WINDOW

    def test_componentwise_theorem(self):
        x = F(1, 2)
        lhs = gamma_M(x, WINDOW)
        rhs = (
            wilson_gamma(WINDOW)
            + ell_A(x + 2, WINDOW)
            - ell_A(x + 1, WINDOW)
            + (delta_minus_one(x) - 1)
        )
        assert lhs == rhs
        assert len(lhs.comparable_primes(rhs)) > 20


class TestGammaK:
    def test_oracle_small_primes(self):
        for p in (7, 11, 13):
            for m in (1, 2):
                got = gamma_K(m, 0, [p])[p]
                assert got == brute_gamma_K(m, F(0), p)

    def test_indicator_boundary(self):
        # x+m = -1 activates the indicator on the theorem side
        report = verify_kluyver([1], [F(-2)], sieve_primes(5, 60))
        assert report.passed
        assert report.checks

    def test_small_primes_excluded(self):
        elem = gamma_K(3, 0, [3, 5, 7])
        assert 3 in elem.exceptional

    def test_m_guard(self):
        with pytest.raises(ValueError):
            gamma_K(0, 0, [5])


class TestGA:
    def test_against_exact_gregory(self):
        # G_5(0) = 3/160
        exact = gregory_values_exact(F(0), 5)[5]
        assert exact == F(3, 160)
        assert G_A(2, 0, [7])[7] == rational_mod(exact, PrimeCtx(7)) == 4

    def test_telescoped_case(self):
        # at x = -2 the theorem side collapses to ell(-1) = 0
        window = sieve_primes(5, 60)
        lhs = G_A(2, -2, window)
        assert lhs == AElement.zero(window)

    def test_theorem_componentwise(self):
        window = sieve_primes(5, 80)
        for k, x in [(2, F(0)), (3, F(1, 2)), (4, F(-1))]:
            lhs = G_A(k, x, window)
            rhs = AElement.zero(window)
            for j in range(k + 1):
                term = ell_A(x + j + 1, window).scale((-1) ** j * math.comb(k, j))
                rhs = rhs + term
            rhs = rhs.scale((-1) ** (k - 1))
            assert lhs == rhs

    def test_k_guard(self):
        with pytest.raises(ValueError):
            G_A(1, 0, [5])


class TestL1:
    def test_at_one_vanishes(self):
        assert L1(1, WINDOW) == AElement.zero(WINDOW)

    def test_at_two_brute_force(self):
        # -sum (-1)^n / n mod 5
        total = -sum(F((-1) ** n, n) for n in range(1, 5))
        assert L1(2, [5])[5] == rational_mod(total, PrimeCtx(5))

    def test_matches_ell_difference(self):
        for x in (F(2), F(1, 2), F(-3), F(7, 3)):
            lhs = L1(x, WINDOW)
            rhs = ell_A(x, WINDOW) - ell_A(x - 1, WINDOW)
            assert lhs == rhs
            assert len(lhs.comparable_primes(rhs)) > 15

    @pytest.mark.parametrize("p", [5, 7, 31])
    def test_truncated_log_against_exact_sum(self, p):
        # the kernel behind both L1 (y = 1-x) and Eisenstein's left side (y = -x)
        ctx = PrimeCtx(p)
        for y in range(p):
            exact = -sum(F(y**n, n) for n in range(1, p))
            assert _truncated_log(y, ctx) == rational_mod(exact, ctx)


class TestEisenstein:
    def test_hand_example(self):
        # x=1, p=3: lhs = 1 - inv(2) = 2, rhs = 2*q_3(2) - q_3(1) = 2; the
        # verifiers skip p = 3 whole, so the batch runs on the grid directly
        _, points = euler.grid("eisenstein", {"x": [1, 4, 2]})
        checks, skips = _eisenstein_batch((points, [3]))
        assert checks == [(3, "x=1", 2, 2, True), (3, "x=4", 2, 2, True)]
        assert skips == [(3, "x=2", "quotient or residue undefined")]

    def test_integer_point(self):
        report = verify_eisenstein([2], [11])
        assert [(c.prime, c.passed) for c in report.checks] == [(11, True)]

    def test_zero_is_a_definitional_skip(self):
        # both sides are 0 by ell(0) = ell(1) = 0, so no check is recorded
        # there; the left side, which L1 reads, is still defined
        report = verify_eisenstein([F(0)], WINDOW)
        assert not report.checks
        assert {s.reason for s in report.skipped} == {"definitional: ell(0) = ell(1) = 0"}
        assert {s.prime for s in report.skipped} == set(WINDOW)
        assert L1(1, WINDOW).components == {p: 0 for p in WINDOW}

    def test_rational_brute_force(self):
        report = verify_eisenstein([F(5, 3)], [11])
        assert [(c.prime, c.passed) for c in report.checks] == [(11, True)]

    def test_undefined(self):
        report = verify_eisenstein([F(1, 5)], [5])
        assert not report.checks
        assert [(s.prime, s.reason) for s in report.skipped] == [(5, "quotient or residue undefined")]

    def test_window_report(self):
        report = verify_eisenstein([F(7, 3), F(0), F(-1)], sieve_primes(5, 101))
        assert report.passed
        assert {c.label for c in report.checks} == {"x=7/3", "x=-1"}


class TestVerifiers:
    XS = [F(0), F(-1), F(1, 2), F(-3), F(7, 3)]

    def test_mascheroni(self):
        report = verify_mascheroni(self.XS, WINDOW)
        assert report.passed
        assert report.checks

    def test_interlude(self):
        report = verify_interlude([2, 3, 4, 5], [F(0), F(-1), F(1, 2)], WINDOW)
        assert report.passed

    def test_kluyver(self):
        report = verify_kluyver([1, 2, 3], [F(0), F(-1), F(-2), F(1, 2)], WINDOW)
        assert report.passed

    def test_log_additivity(self):
        report = verify_log_additivity([2, 3, 5, F(1, 2), -4, F(7, 3)], WINDOW)
        assert report.passed
        labels = {c.label for c in report.checks} | {s.label for s in report.skipped}
        assert len(labels) == 21  # 6 values, pairs with repetition

    def test_log_additivity_skips_the_value_one(self):
        # q_p(1 * y) = q_p(1) + q_p(y) holds by q_p(1) = 0: a skip, not a check
        report = verify_log_additivity([1, 2, F(1, 3)], WINDOW)
        assert report.passed
        assert {c.label for c in report.checks} == {"x=2 y=2", "x=2 y=1/3", "x=1/3 y=1/3"}
        definitional = {s.label for s in report.skipped if s.reason == "definitional: q_p(1) = 0"}
        assert definitional == {"x=1 y=1", "x=1 y=2", "x=1 y=1/3"}

    def test_small_primes_skipped(self):
        report = verify_mascheroni([F(0)], [2, 3, 5, 7])
        skipped = {s.prime for s in report.skipped}
        assert {2, 3} <= skipped
        assert {c.prime for c in report.checks} == {5, 7}

    def test_threads_match_serial(self):
        serial = verify_interlude([2, 3], [F(0), F(1, 2)], WINDOW, threads=1)
        parallel = verify_interlude([2, 3], [F(0), F(1, 2)], WINDOW, threads=3)
        assert serial.checks == parallel.checks
        assert serial.skipped == parallel.skipped

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            verify_interlude([1], [F(0)], WINDOW)
        with pytest.raises(ValueError):
            verify_kluyver([0], [F(0)], WINDOW)

    @pytest.mark.parametrize("verify", [
        lambda w: verify_mascheroni([F(0)], w),
        lambda w: verify_interlude([2], [F(0)], w),
        lambda w: verify_kluyver([1], [F(0)], w),
        lambda w: verify_eisenstein([F(2)], w),
        lambda w: verify_log_additivity([2, 3], w),
    ], ids=["mascheroni", "interlude", "kluyver", "eisenstein", "log-additivity"])
    @pytest.mark.parametrize("window", [[4], [9], [5, 7, 9]])
    def test_composite_window_entries_are_rejected(self, verify, window):
        # a check at a composite would be a counterexample invented there
        with pytest.raises(ValueError, match="must be primes"):
            verify(window)

    @pytest.mark.parametrize("family", [
        lambda w: gamma_M(0, w),
        lambda w: gamma_K(1, F(1, 2), w),
        lambda w: G_A(2, 0, w),
        lambda w: L1(2, w),
        lambda w: ell_A(2, w),
        lambda w: wilson_gamma(w),
    ], ids=["gamma_M", "gamma_K", "G_A", "L1", "ell_A", "wilson_gamma"])
    @pytest.mark.parametrize("window", [[9], [5, 9]])
    def test_families_reject_composite_entries(self, family, window):
        # a residue read at 9 would be a component of no prime
        with pytest.raises(ValueError, match="must be primes"):
            family(window)


class TestNegativeControls:
    """Each Euler verifier fails every defined check at every prime when one
    thing one of its side kernels calls is off by one.  No grid holds a point
    where both sides are 0 by convention: those are skips (Eisenstein at
    x = 0, a log-additivity pair holding 1)."""

    XS = [F(-1), F(1, 2), F(-3), F(7, 3)]

    @pytest.mark.parametrize("name, modulus, verify", [
        ("_wilson", lambda p: p, lambda xs: verify_mascheroni(xs, WINDOW)),
        ("_ell_form", lambda ctx, *_: ctx.p, lambda xs: verify_interlude([2, 3, 4, 5], xs, WINDOW)),
        ("_wilson", lambda p: p, lambda xs: verify_kluyver([1, 2, 3], xs, WINDOW)),
        ("_ell_form", lambda ctx, *_: ctx.p, lambda xs: verify_eisenstein(xs, WINDOW)),
        # both sides read q_p, so the right side, q_p(x) + q_p(y), moves one more
        ("fermat_quotient", lambda x, p: p,
         lambda xs: verify_log_additivity([2, 3, -4, F(1, 2), F(7, 3)], WINDOW)),
    ], ids=["mascheroni", "interlude", "kluyver", "eisenstein", "log-additivity"])
    def test_every_check_fails(self, monkeypatch, name, modulus, verify):
        orig = getattr(euler, name)

        def off_by_one(*args):
            v = orig(*args)
            return None if v is None else (v + 1) % modulus(*args)

        monkeypatch.setattr(euler, name, off_by_one)
        report = verify(self.XS)
        assert {c.prime for c in report.checks} == set(WINDOW)
        assert not any(c.passed for c in report.checks)

    @pytest.mark.parametrize("name, bump, verify", [
        ("_mascheroni_sum", lambda v, stream, ctx: (v + 1) % ctx.p,
         lambda xs: verify_mascheroni(xs, WINDOW)),
        # every entry of every stream, so G_{p-k}(x) is off by one at each k
        ("gregory_residue_stream",
         lambda v, x, n_max, ctx: None if v is None else [(g + 1) % ctx.p for g in v],
         lambda xs: verify_interlude([2, 3, 4, 5], xs, WINDOW)),
        ("_kluyver_sum", lambda v, stream, m, ctx: (v + 1) % ctx.p,
         lambda xs: verify_kluyver([1, 2, 3], xs, WINDOW)),
        ("_truncated_log", lambda v, y, ctx: (v + 1) % ctx.p,
         lambda xs: verify_eisenstein(xs, WINDOW)),
    ], ids=["mascheroni", "interlude", "kluyver", "eisenstein"])
    def test_every_check_fails_on_the_left(self, monkeypatch, name, bump, verify):
        orig = getattr(euler, name)
        monkeypatch.setattr(euler, name, lambda *args: bump(orig(*args), *args))
        # a stream built before the patch would stand in for the patched one,
        # and a patched stream must not outlive the test
        euler._stream.clear()
        try:
            report = verify(self.XS)
        finally:
            euler._stream.clear()
        assert {c.prime for c in report.checks} == set(WINDOW)
        assert not any(c.passed for c in report.checks)


    def test_log_additivity_fails_on_the_left(self, monkeypatch):
        # q_p off by one only at the products x*y, which only the left side
        # reads, since no product is itself one of the values
        values = [F(2), F(3), F(5), F(1, 2), F(-4), F(7, 3)]
        products = {x * y for x, y in combinations_with_replacement(values, 2)}
        assert products.isdisjoint(values)
        orig = euler.fermat_quotient

        def off_at_products(x, p):
            q = orig(x, p)
            return q if q is None or x not in products else (q + 1) % p

        monkeypatch.setattr(euler, "fermat_quotient", off_at_products)
        report = verify_log_additivity(values, sieve_primes(5, 200))
        assert len(report.checks) == 912 and not any(c.passed for c in report.checks)
        # the pairs with 5 at p = 5 and with 7/3 at p = 7
        assert len(report.skipped) == 12

    def test_wrong_theorem_fails_exactly_where_it_is_wrong(self, monkeypatch):
        # Mascheroni without its [x = -1] term is a different theorem, which
        # differs from the true one only at x = -1
        monkeypatch.setattr(euler, "delta_minus_one", lambda x: 0)
        window = sieve_primes(5, 200)
        report = verify_mascheroni([F(-1), F(0), F(1, 2), F(7, 3)], window)
        at_minus_one = [c for c in report.checks if c.label == "x=-1"]
        others = [c for c in report.checks if c.label != "x=-1"]
        assert {c.prime for c in at_minus_one} == set(window)
        assert not any(c.passed for c in at_minus_one)
        assert {c.label for c in others} == {"x=0", "x=1/2", "x=7/3"}
        assert all(c.passed for c in others)


class TestStreamMemo:
    """The process-wide (p, x) memo of Gregory residue streams moves no byte
    of any report and no family component, cold, warm or evicting on every
    insert, and builds each distinct stream once."""

    XS = [F(-1), F(1, 2), F(1, 5), F(7, 3)]  # p = 5 divides den(1/5)

    def run(self):
        reports = [
            verify_mascheroni(self.XS, WINDOW),
            verify_interlude([2, 3, 4, 5], self.XS, WINDOW),
            verify_kluyver([1, 2, 3], self.XS, WINDOW),
        ]
        families = [gamma_M(x, WINDOW) for x in self.XS]
        families += [G_A(k, x, WINDOW) for x in self.XS for k in (2, 5)]
        families += [gamma_K(m, x, WINDOW) for x in self.XS for m in (1, 3)]
        return ([r.to_jsonl(include_timing=False) for r in reports],
                [(f.components, f.exceptional) for f in families])

    def test_cold_warm_and_evicting_agree(self, monkeypatch):
        euler._stream.clear()
        cold = self.run()
        assert len(euler._stream.entries) == len(WINDOW) * len(self.XS)
        warm = self.run()
        monkeypatch.setattr(euler, "_STREAM_MEMO_BYTES", 1)
        euler._stream.clear()
        evicting = self.run()
        assert euler._stream.entries == {} and euler._stream.nbytes == 0
        assert warm == cold
        assert evicting == cold

    def test_one_build_per_distinct_stream(self, monkeypatch):
        builds = Counter()
        orig = euler.gregory_residue_stream

        def counted(x, n_max, ctx):
            builds[ctx.p, x] += 1
            return orig(x, n_max, ctx)

        monkeypatch.setattr(euler, "gregory_residue_stream", counted)
        verify_mascheroni(self.XS, WINDOW)
        verify_interlude([2, 3, 4, 5], self.XS, WINDOW)
        verify_kluyver([1, 2, 3], self.XS, WINDOW)
        gamma_M(-1, WINDOW)
        assert set(builds) == {(p, x) for p in WINDOW for x in self.XS}
        assert set(builds.values()) == {1}

    def test_byte_cap_evicts_oldest_first(self, monkeypatch):
        def size(p):
            return sys.getsizeof(array("I", [0] * (p - 1)))

        monkeypatch.setattr(euler, "_STREAM_MEMO_BYTES", size(103) + size(107))
        for p in (101, 103, 107):
            euler._stream(PrimeCtx(p), F(1, 2))
        assert list(euler._stream.entries) == [(103, 1, 2), (107, 1, 2)]
        assert euler._stream.nbytes == size(103) + size(107)

    def test_one_stream_cap_keeps_reuse_within_a_call(self, monkeypatch):
        # room for the window's largest stream alone still builds each (p, x)
        # once, as the k at one x read it in a row: a memo that refused new
        # streams once full, instead of evicting the oldest, would rebuild
        # them for every k
        window = sieve_primes(5, 200)
        monkeypatch.setattr(euler, "_STREAM_MEMO_BYTES",
                            sys.getsizeof(array("I", [0] * (window[-1] - 1))))
        builds = Counter()
        orig = euler.gregory_residue_stream

        def counted(x, n_max, ctx):
            builds[ctx.p, x] += 1
            return orig(x, n_max, ctx)

        monkeypatch.setattr(euler, "gregory_residue_stream", counted)
        euler._stream.clear()
        verify_interlude([2, 3, 4, 5], [F(-1), F(1, 2), F(7, 3)], window)
        assert len(builds) == 132 and set(builds.values()) == {1}

    def test_undefined_stream_skips_when_warm(self):
        reason = "p divides den(x)"
        for _ in range(2):  # cold, then warm
            for report in (verify_mascheroni([F(1, 5)], [5, 13]),
                           verify_interlude([3], [F(1, 5)], [5, 13]),
                           verify_kluyver([1], [F(1, 5)], [5, 13])):
                assert [(s.prime, s.reason) for s in report.skipped] == [(5, reason)]
                assert [c.prime for c in report.checks] == [13]
            assert G_A(3, F(1, 5), [5]).exceptional == {5: reason}
            assert euler._stream.entries[5, 1, 5] is None

    def test_right_kernels_never_read_the_memo(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a right kernel read a left-side memo")

        monkeypatch.setattr(euler, "_stream", forbidden)
        monkeypatch.setattr(euler, "_kluyver_weights", forbidden)
        for p in WINDOW:
            ctx = PrimeCtx(p)
            for x in self.XS:
                _mascheroni_rhs(ctx, x)
                _interlude_rhs(ctx, 3, x)
                _kluyver_rhs(ctx, 2, x)
                _eisenstein_rhs(ctx, x)

    def test_left_kernels_never_read_the_right_memo(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a left kernel read a right-side memo")

        monkeypatch.setattr(euler, "_ell", forbidden)
        monkeypatch.setattr(euler, "_wilson", forbidden)
        for x in self.XS:
            gamma_M(x, WINDOW)
            G_A(3, x, WINDOW)
            gamma_K(2, x, WINDOW)
            L1(x, WINDOW)

    def test_one_fermat_quotient_per_distinct_argument(self, monkeypatch):
        # the interlude right sides at k = 2..5 read ell(x+1)..ell(x+6); each
        # argument other than 0 and 1 (where ell is 0 by convention) costs one
        # quotient per prime, undefined ones included
        calls = Counter()
        orig = euler.fermat_quotient

        def counted(x, p):
            calls[p, x] += 1
            return orig(x, p)

        monkeypatch.setattr(euler, "fermat_quotient", counted)
        xs = [F(0), F(1, 2), F(7, 3)]
        window = sieve_primes(7, 101)  # p > k, so no left side skips a point
        verify_interlude([2, 3, 4, 5], xs, window)
        assert set(calls) == {(p, x + j) for p in window for x in xs
                              for j in range(1, 7) if x + j not in (0, 1)}
        assert set(calls.values()) == {1}

    def test_integer_shifts_of_x_share_their_quotients(self, monkeypatch):
        # at x = 0, -1, -2 the right sides' terms ell(x+1), ell(x+2), ... are
        # shifts of one another, so each value is one quotient per prime; the
        # Kluyver left side reads ell(x+m+1) itself, never the right sides' memo
        calls = Counter()
        orig = euler.fermat_quotient

        def counted(x, p):
            calls[p, x] += 1
            return orig(x, p)

        monkeypatch.setattr(euler, "fermat_quotient", counted)
        xs = [F(0), F(-1), F(-2)]
        window = sieve_primes(7, 101)  # p > 6 divides no value, so every side is defined
        # (verifier, last j of the right sides' ell(x+j), the Kluyver left sides' m)
        cases = [(lambda: verify_mascheroni(xs, window), 2, ()),
                 (lambda: verify_interlude([2, 3, 4, 5], xs, window), 6, ()),
                 (lambda: verify_kluyver([1, 2, 3], xs, window), 4, (1, 2, 3))]
        for verify, top, ms in cases:
            calls.clear()
            euler._ell.cache_clear()
            verify()
            expected = Counter({(p, x + j) for p in window for x in xs
                                for j in range(1, top + 1) if x + j not in (0, 1)})
            expected.update((p, x + m + 1) for p in window for x in xs for m in ms
                            if x + m + 1 not in (0, 1))
            assert calls == expected


    def test_verifiers_share_their_quotients(self, monkeypatch):
        # back to back over one window, the three right sides call q_p once per
        # distinct (p, value) in all; the Kluyver left side's own ell(x+m+1)
        # calls come on top, as it never reads the right sides' memo
        calls = Counter()
        orig = euler.fermat_quotient

        def counted(x, p):
            calls[p, x] += 1
            return orig(x, p)

        monkeypatch.setattr(euler, "fermat_quotient", counted)
        xs = [F(0), F(-1), F(1, 2), F(7, 3)]
        window = sieve_primes(7, 101)  # p > 6 divides no value, so every side is defined
        verify_mascheroni(xs, window)
        verify_interlude([2, 3, 4, 5], xs, window)
        verify_kluyver([1, 2, 3], xs, window)
        expected = Counter({(p, x + j) for p in window for x in xs
                            for j in range(1, 7) if x + j not in (0, 1)})
        expected.update((p, x + m + 1) for p in window for x in xs for m in (1, 2, 3)
                        if x + m + 1 not in (0, 1))
        assert calls == expected


class TestFamiliesAreLeftSides:
    """gamma_M, G_A, gamma_K and L1 are the left sides of the mascheroni,
    interlude, kluyver and eisenstein verifiers, prime by prime."""

    XS = [F(0), F(1, 2), F(1, 5), F(7, 3)]

    def cases(self):
        for x in self.XS:
            yield verify_mascheroni([x], WINDOW), gamma_M(x, WINDOW)
            if x != 0:  # a definitional skip: no check reads L1(1)
                yield verify_eisenstein([x], WINDOW), L1(x + 1, WINDOW)
            for k in range(2, 6):
                yield verify_interlude([k], [x], WINDOW), G_A(k, x, WINDOW)
            for m in range(1, 4):
                yield verify_kluyver([m], [x], WINDOW), gamma_K(m, x, WINDOW)

    def test_checks_and_skips_match_family(self):
        for report, family in self.cases():
            assert report.checks
            for c in report.checks:
                assert c.lhs == family[c.prime], (report.theorem, report.params, c)
            skips = {s.prime: s.reason for s in report.skipped}
            # every exceptional prime of the family is a left-side skip with the
            # same reason; any other skip comes from the right side
            for p, reason in family.exceptional.items():
                assert skips.get(p) == reason, (report.theorem, report.params, p)
            assert set(skips) - set(family.exceptional) <= set(family.components)

    def test_reasons_agree_with_verifiers(self):
        # points where the families once gave their own reason texts
        reason = "p divides den(x)"
        assert G_A(5, F(1, 5), [5]).exceptional == {5: reason}
        assert [s.reason for s in verify_interlude([5], [F(1, 5)], [5]).skipped] == [reason]
        reason = "fermat quotient undefined at some x+j+1"
        assert gamma_K(1, F(1, 2), [5]).exceptional == {5: reason}
        assert [s.reason for s in verify_kluyver([1], [F(1, 2)], [5]).skipped] == [reason]
        reason = "quotient or residue undefined"
        assert L1(F(6, 5), [5]).exceptional == {5: reason}
        assert [s.reason for s in verify_eisenstein([F(1, 5)], [5]).skipped] == [reason]
