import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aconst import dobinski, searches
from aconst.modular import (
    AElement,
    PrimeCtx,
    _binom_row,
    binom_rational_mod,
    rational_mod,
    rational_pow_mod_p2,
    remainder_tree,
    require_primes,
    sieve_primes,
)
from aconst.polys import binomial_polynomial


def trial_division_primes(lo, hi):
    out = []
    for n in range(max(lo, 2), hi + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


class TestSieve:
    def test_textbook(self):
        assert sieve_primes(2, 10) == [2, 3, 5, 7]

    def test_single(self):
        assert sieve_primes(5, 5) == [5]

    def test_empty_range(self):
        assert sieve_primes(20, 10) == []
        assert sieve_primes(24, 28) == []

    def test_large_window_against_trial_division(self):
        lo, hi = 10**6, 10**6 + 100
        assert sieve_primes(lo, hi) == trial_division_primes(lo, hi)

    def test_low_clamped(self):
        # hi = 2 is the one window whose base sieve [2, isqrt(hi) + 1] reaches hi
        for lo, hi in [(2, 30), (2, 2), (0, 2), (3, 2)]:
            assert sieve_primes(lo, hi) == trial_division_primes(lo, hi)

    @pytest.mark.parametrize("q", [2, 3, 5, 31, 97, 1009, 10007])
    def test_prime_square_upper_bounds(self, q):
        # q itself must land in the base sieve to comb q^2 out of the segment
        for hi in (q * q - 1, q * q):
            lo = max(2, hi - 300)
            assert sieve_primes(lo, hi) == trial_division_primes(lo, hi)

    @given(st.integers(0, 5000), st.integers(0, 400))
    def test_random_ranges_against_trial_division(self, lo, length):
        assert sieve_primes(lo, lo + length) == trial_division_primes(lo, lo + length)


class TestPrimeCtx:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 1009])
    def test_inverse_table(self, p):
        ctx = PrimeCtx(p)
        for i in range(1, p):
            assert i * ctx.inv_table[i] % p == 1

    @pytest.mark.parametrize("p", sieve_primes(2, 200))
    def test_wilson_in_fact_table(self, p):
        # (p-1)! = -1 mod p
        assert PrimeCtx(p).fact_table[p - 1] == p - 1

    def test_fact_recurrence(self):
        ctx = PrimeCtx(101)
        for k in range(1, 101):
            assert ctx.fact_table[k] == k * ctx.fact_table[k - 1] % 101

    def test_inv_fact(self):
        ctx = PrimeCtx(97)
        for k in range(97):
            assert ctx.fact_table[k] * ctx.inv_fact_table[k] % 97 == 1

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            PrimeCtx(1)


class TestRationalMod:
    def test_half_mod_five(self):
        assert rational_mod(Fraction(1, 2), PrimeCtx(5)) == 3

    def test_denominator_hit(self):
        assert rational_mod(Fraction(7, 3), PrimeCtx(3)) is None

    def test_int_input(self):
        assert rational_mod(-4, PrimeCtx(7)) == 3

    def test_brute_force_example(self):
        # -19/720 mod 7: the unique r with 720*r = -19 (mod 7)
        expected = next(r for r in range(7) if (720 * r + 19) % 7 == 0)
        assert expected == 5
        assert rational_mod(Fraction(-19, 720), PrimeCtx(7)) == expected

    @given(
        num_a=st.integers(-50, 50),
        den_a=st.integers(1, 30),
        num_b=st.integers(-50, 50),
        den_b=st.integers(1, 30),
        p=st.sampled_from([5, 7, 11, 13, 101]),
    )
    def test_ring_homomorphism(self, num_a, den_a, num_b, den_b, p):
        a = Fraction(num_a, den_a)
        b = Fraction(num_b, den_b)
        ctx = PrimeCtx(p)
        ra, rb = rational_mod(a, ctx), rational_mod(b, ctx)
        for combined, res_op in [
            (a + b, lambda: (ra + rb) % p),
            (a - b, lambda: (ra - rb) % p),
            (a * b, lambda: ra * rb % p),
        ]:
            rc = rational_mod(combined, ctx)
            if ra is not None and rb is not None and rc is not None:
                assert rc == res_op()


class TestPowModP2:
    def test_small_integers(self):
        assert rational_pow_mod_p2(2, 4, 5) == 16
        assert rational_pow_mod_p2(2, 2, 3) == 4

    def test_rational_base_against_brute_force(self):
        # 3/2 to the 6th mod 49, via naive search for the inverse of 2^6
        inv64 = next(v for v in range(49) if 64 * v % 49 == 1)
        expected = pow(3, 6) * inv64 % 49
        assert rational_pow_mod_p2(Fraction(3, 2), 6, 7) == expected

    def test_undefined_when_p_divides(self):
        assert rational_pow_mod_p2(Fraction(5, 2), 3, 5) is None
        assert rational_pow_mod_p2(Fraction(2, 5), 3, 5) is None

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            rational_pow_mod_p2(2, -1, 5)


class TestBinomRationalMod:
    def test_minus_one_top(self):
        # binom(-1, p-1) = 1 mod p for odd p
        assert binom_rational_mod(-1, 6, PrimeCtx(7)) == 1

    def test_integer_top_vanishes(self):
        assert binom_rational_mod(3, 10, PrimeCtx(11)) == 0

    def test_half_choose_two(self):
        # (1/2)(-1/2)/2 = -1/8, reduced mod 5
        expected = rational_mod(Fraction(-1, 8), PrimeCtx(5))
        assert expected == 3
        assert binom_rational_mod(Fraction(1, 2), 2, PrimeCtx(5)) == expected

    def test_k_at_least_p_undefined(self):
        assert binom_rational_mod(Fraction(1, 2), 5, PrimeCtx(5)) is None

    def test_denominator_hit_undefined(self):
        assert binom_rational_mod(Fraction(1, 5), 2, PrimeCtx(5)) is None

    @pytest.mark.parametrize("x", [-1, 0, 3, Fraction(1, 2), Fraction(-7, 3)])
    def test_indicator_lemma(self, x):
        # binom(x, p-1) = [x == -1] mod p once p clears every numerator/denominator
        x = Fraction(x)
        bound = max(
            abs(x.numerator), x.denominator, abs(x.numerator + x.denominator)
        )
        expected = 1 if x == -1 else 0
        for p in sieve_primes(bound + 1, 120):
            assert binom_rational_mod(x, p - 1, PrimeCtx(p)) == expected


BINOMIAL_POLYS = [binomial_polynomial(k) for k in range(31)]  # binom(x, k), k < 31


class TestBinomRow:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(-60, 60),
        st.integers(1, 60),
        st.sampled_from(sieve_primes(2, 31)),
        st.data(),
    )
    def test_matches_binomial_polynomials(self, a, b, p, data):
        x = Fraction(a, b)
        ctx = PrimeCtx(p)
        n = data.draw(st.integers(0, p - 1))
        row = _binom_row(x, n, ctx)
        assert (row is None) == (x.denominator % p == 0)
        if row is not None:
            assert row == [rational_mod(BINOMIAL_POLYS[k](x), ctx) for k in range(n + 1)]


class TestRequirePrimes:
    def test_distinct_primes_ascending(self):
        # unsorted, with repeated entries: a window is a set of primes
        assert require_primes([13, 5, 13, 2, 7, 5]) == (2, 5, 7, 13)
        assert require_primes((7, 7)) == (7,)
        assert require_primes(p for p in (11, 3)) == (3, 11)
        assert require_primes([]) == ()

    @pytest.mark.parametrize("window", [[9], [7, 5, 9, 5], [1], [0, 7]])
    def test_composite_rejected(self, window):
        with pytest.raises(ValueError, match="must be primes"):
            require_primes(window)


class TestAElement:
    WINDOW = (5, 7, 11, 13)

    def test_from_rational(self):
        a = AElement.from_rational(Fraction(1, 2), self.WINDOW)
        assert a.components == {5: 3, 7: 4, 11: 6, 13: 7}
        assert a.exceptional == {}

    def test_from_kernel(self):
        a = AElement.from_kernel(self.WINDOW, lambda p: "odd reason" if p == 11 else p % 5)
        assert a.components == {5: 0, 7: 2, 13: 3}  # a zero residue is a residue
        assert a.exceptional == {11: "odd reason"}
        assert a.window == self.WINDOW

    def test_from_kernel_once_per_distinct_prime(self):
        calls = []
        a = AElement.from_kernel([7, 5, 7, 13, 5], lambda p: calls.append(p) or p % 3)
        assert sorted(calls) == [5, 7, 13]
        assert a.window == require_primes([7, 5, 7, 13, 5]) == (5, 7, 13)
        assert a.components == {5: 2, 7: 1, 13: 1}

    def test_window_is_its_distinct_primes(self):
        # every build holds require_primes of the window, so entry order and
        # repeats change nothing
        kernel = lambda p: "a's reason" if p == 7 else p % 4
        builds = [
            lambda w: AElement.from_kernel(w, kernel),
            lambda w: AElement(w, {5: 1, 13: 1}, {7: "a's reason"}),
        ]
        for build in builds:
            a, b = build([13, 7, 5, 7]), build([5, 7, 13])
            assert a.window == b.window == (5, 7, 13)
            assert a == b and (a - b) == AElement(b.window, {5: 0, 13: 0}, {7: "a's reason"})

    def test_binary_op_once_per_distinct_prime(self):
        a = AElement.from_kernel([7, 5, 7], lambda p: p - 1)
        assert a.window == (5, 7)
        calls = []
        total = a._binary(a, lambda u, v: calls.append((u, v)) or u + v)
        assert calls == [(4, 4), (6, 6)]
        assert total.components == {5: 3, 7: 5}

    def test_comparable_primes_are_distinct(self):
        a = AElement.from_kernel([7, 5, 7, 11, 5], lambda p: "a's reason" if p == 11 else 1)
        b = AElement.from_kernel([11, 7, 5], lambda p: 2)
        assert a.comparable_primes(b) == [5, 7]
        assert b.comparable_primes(a) == [5, 7]

    @pytest.mark.parametrize("window", [[9], [5, 9], [1, 5]])
    def test_composite_window_rejected(self, window):
        # every way to build an AElement checks its window, so no arithmetic
        # result can hold a composite either
        builds = [
            lambda: AElement.from_kernel(window, lambda p: 0),
            lambda: AElement.from_rational(Fraction(1, 2), window),
            lambda: AElement.zero(window),
            lambda: AElement(window, {p: 0 for p in window}),
        ]
        for build in builds:
            with pytest.raises(ValueError, match="must be primes"):
                build()

    @pytest.mark.parametrize("c", [2, -1, Fraction(3, 7), Fraction(-5, 11), Fraction(1, 65)])
    def test_scale_is_componentwise(self, c):
        a = AElement.from_kernel(self.WINDOW, lambda p: "a's reason" if p == 11 else p - 2)
        scaled = a.scale(c)
        for p in self.WINDOW:
            if p == 11:  # a's reason wins over the scalar's
                assert scaled.exceptional[p] == "a's reason"
            elif Fraction(c).denominator % p == 0:
                assert scaled.exceptional[p] == "p divides denominator"
            else:
                assert scaled[p] == a[p] * rational_mod(c, PrimeCtx(p)) % p
        assert all((-a)[p] == -a[p] % p for p in a.components)

    def test_scale_rejects_a_non_rational(self):
        a = AElement.zero(self.WINDOW)
        with pytest.raises(TypeError):
            a.scale(a)

    def test_reflected_add_keeps_own_reasons(self):
        a = AElement.from_kernel(self.WINDOW, lambda p: "a's reason" if p == 5 else 1)
        for total in (Fraction(1, 5) + a, a + Fraction(1, 5)):
            assert total.exceptional == {5: "a's reason"}
            assert total.components == {7: 4, 11: 10, 13: 9}  # 1 + 1/5 = 6/5

    def test_exceptional_recorded(self):
        a = AElement.from_rational(Fraction(2, 7), self.WINDOW)
        assert 7 in a.exceptional
        assert a.get(7) is None
        with pytest.raises(KeyError):
            a[7]

    def test_equality_skips_exceptional(self):
        a = AElement(self.WINDOW, {5: 1, 7: 2, 11: 3}, {13: "bad"})
        b = AElement(self.WINDOW, {5: 1, 7: 2, 11: 3, 13: 12}, {})
        # p=13 is exceptional for a: only 5, 7, 11 compared
        assert a.comparable_primes(b) == [5, 7, 11]
        assert a == b

    def test_inequality(self):
        a = AElement.zero(self.WINDOW)
        b = AElement(self.WINDOW, {5: 0, 7: 1, 11: 0, 13: 0})
        assert a != b

    def test_arithmetic(self):
        a = AElement.from_rational(Fraction(1, 2), self.WINDOW)
        b = AElement.from_rational(Fraction(1, 3), self.WINDOW)
        total = a + b
        expected = AElement.from_rational(Fraction(5, 6), self.WINDOW)
        assert total == expected
        assert (a - b) == AElement.from_rational(Fraction(1, 6), self.WINDOW)
        assert a.scale(2) == AElement.from_rational(1, self.WINDOW)
        assert (a + 1) == AElement.from_rational(Fraction(3, 2), self.WINDOW)
        assert (1 - a) == a

    def test_exceptional_union_in_arithmetic(self):
        a = AElement.from_rational(Fraction(1, 5), self.WINDOW)
        b = AElement.from_rational(Fraction(1, 7), self.WINDOW)
        s = a + b
        assert set(s.exceptional) == {5, 7}
        assert s.components.keys() == {11, 13}

    def test_window_mismatch(self):
        a = AElement.zero((5, 7))
        b = AElement.zero((5, 7, 11))
        with pytest.raises(ValueError):
            a + b

    def test_missing_prime_rejected(self):
        with pytest.raises(ValueError):
            AElement((5, 7), {5: 0})

    @pytest.mark.parametrize("components, exceptional, match", [
        ({5: 9, 7: 1, 11: 3}, {13: "x"}, "outside the window"),
        ({5: 4, 7: 1, 11: 3}, {}, "outside the window"),
        ({5: 4, 7: 1}, {13: "x"}, "outside the window"),
        ({5: 4, 7: 1}, {7: "x"}, "both a residue and a reason"),
        ({5: 9, 7: 1}, {}, "not an int in"),
        ({5: -1, 7: 1}, {}, "not an int in"),
        ({5: 4, 7: 1.0}, {}, "not an int in"),
        ({5: 4, 7: Fraction(1)}, {}, "not an int in"),
        ({5: 4, 7: True}, {}, "not an int in"),
    ])
    def test_entries_outside_window_or_range_rejected(self, components, exceptional, match):
        # a residue of 9 at 5 would make this element differ from one holding
        # 4 there, although their difference is zero at both primes
        with pytest.raises(ValueError, match=match):
            AElement((5, 7), components, exceptional)


def unpruned_remainder_tree(primes, mods, steps, compose, advance, start):
    """Oracle: the remainder tree as first written, which composes every node
    up to the root and carries every map whole."""

    def span(lo: int, hi: int):
        if hi - lo > 64:  # binary splitting keeps long spans quasi-linear
            mid = (lo + hi) // 2
            return compose(span(lo, mid), span(mid, hi))
        return steps(lo, hi)

    maps, mods = [span(lo, hi) for lo, hi in zip([1] + primes, primes)], list(mods)
    levels = []
    while len(mods) > 1:
        levels.append((maps, mods))
        up_maps = [compose(f, g) for f, g in zip(maps[::2], maps[1::2])]
        up_mods = [q * s for q, s in zip(mods[::2], mods[1::2])]
        if len(mods) % 2:  # an odd node rises unchanged
            up_maps.append(maps[-1])
            up_mods.append(mods[-1])
        maps, mods = up_maps, up_mods
    starts = [start]  # at the root
    while levels:
        maps, mods = levels.pop()
        below = []
        for j, s in enumerate(starts):
            below.append([v % mods[2 * j] for v in s])
            if 2 * j + 1 < len(mods):
                below.append(advance(maps[2 * j], s, mods[2 * j + 1]))
        starts = below
    return [advance(f, s, q) for f, s, q in zip(maps, starts, mods)]


def tree_args(kind, window, r=1, n_top=0, x=Fraction(1)):
    """remainder_tree's arguments for one of its callers' map types."""
    if kind == "dobinski":
        a, b = x.numerator, x.denominator
        return (window, window, partial(dobinski._steps, a, b, r, n_top),
                dobinski._compose, dobinski._advance, [1] + [0] * n_top + [1])
    e, power = (0, 2) if kind == "wilson" else (1, 1)
    return (window, [p**power for p in window], partial(searches._steps, e),
            searches._compose, searches._advance, [1])


TREE_PRIMES = sieve_primes(2, 1500)
# 0, 1, 2 and 3 leaves, 2^k leaves and 2^k + 1 leaves
TREE_SIZES = [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]
# holds the gap 31397 -> 31469, a leaf longer than 64 steps
GAP_WINDOW = sieve_primes(31379, 31489)


@st.composite
def tree_windows(draw):
    size = draw(st.sampled_from(TREE_SIZES))
    if draw(st.booleans()):  # a run of consecutive primes
        first = draw(st.integers(0, len(TREE_PRIMES) - size))
        return TREE_PRIMES[first : first + size]
    return sorted(draw(st.sets(st.sampled_from(TREE_PRIMES), min_size=size, max_size=size)))


class TestRemainderTree:
    """The pruned tree (no right spine, maps reduced by the moduli to their
    right) against the unpruned oracle, for each caller's map type."""

    @settings(deadline=None, max_examples=60)
    @given(window=tree_windows(), r=st.integers(1, 3), n_top=st.integers(0, 6),
           a=st.integers(-9, 9), b=st.sampled_from([1, 2, 3, 7, 9, 11]))
    @example(window=[2, 3, 5], r=3, n_top=2, a=-4, b=3)  # den(x) is a window prime
    def test_dobinski_maps(self, window, r, n_top, a, b):
        args = tree_args("dobinski", window, r, n_top, Fraction(a, b))
        assert remainder_tree(*args) == unpruned_remainder_tree(*args)

    @pytest.mark.parametrize("r, n_top, x", [(1, 0, Fraction(-1)), (2, 4, Fraction(-5, 3)),
                                             (3, 6, Fraction(7, 3))])
    @pytest.mark.parametrize("size", TREE_SIZES)
    def test_dobinski_maps_at_every_size(self, r, n_top, x, size):
        # x = -5/3 and 7/3: the denominator 3 is the second window prime
        args = tree_args("dobinski", TREE_PRIMES[:size], r, n_top, x)
        assert remainder_tree(*args) == unpruned_remainder_tree(*args)

    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["wilson", "eA-zero"]), window=tree_windows())
    @example(kind="wilson", window=TREE_PRIMES[:65])
    @example(kind="eA-zero", window=TREE_PRIMES[:64])
    def test_scan_maps(self, kind, window):
        args = tree_args(kind, window)
        assert remainder_tree(*args) == unpruned_remainder_tree(*args)

    @pytest.mark.parametrize("kind, r, n_top, x", [
        ("wilson", 1, 0, Fraction(1)), ("eA-zero", 1, 0, Fraction(1)),
        ("dobinski", 2, 2, Fraction(-7, 2)), ("dobinski", 1, 1, Fraction(-3, 31387)),
    ])
    def test_a_leaf_long_enough_to_split(self, kind, r, n_top, x):
        assert 31397 in GAP_WINDOW and 31469 in GAP_WINDOW
        args = tree_args(kind, GAP_WINDOW, r, n_top, x)
        assert remainder_tree(*args) == unpruned_remainder_tree(*args)

    @pytest.mark.parametrize("n, composes", [(16, 11), (17, 15), (64, 57)])
    def test_the_right_spine_is_never_composed(self, monkeypatch, n, composes):
        # the unpruned tree composes n - 1 maps: 15, 16 and 63
        calls = []

        def counted(f, g):
            calls.append(None)
            return compose(f, g)

        compose = searches._compose
        monkeypatch.setattr(searches, "_compose", counted)
        searches.search_zero_primes("wilson", sieve_primes(5, 400)[:n])
        assert len(calls) == composes

    def test_composed_maps_stay_near_the_moduli(self, monkeypatch):
        # unpruned, the widest map composed here has about 60000 bits
        widths = []

        def measured(f, g):
            h = compose(f, g)
            widths.append(max(map(int.bit_length, h)))
            return h

        compose = dobinski._compose
        monkeypatch.setattr(dobinski, "_compose", measured)
        window = sieve_primes(5, 2003)
        dobinski._d_sums_tree(3, 20, Fraction(7, 3), window)
        assert widths and max(widths) <= 2 * math.prod(window).bit_length()
