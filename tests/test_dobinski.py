import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aconst import dobinski, modular
from aconst.dobinski import (
    CoeffFamily,
    _binomial_transform,
    bell,
    check_truncation_identity,
    coeff_family,
    d_r_A_range,
    g_seq,
    _d_sums_mod,
    _d_sums_tree,
    _moments,
    _partial_sums_exact,
    numeric_identity_check,
    verify_dobinski,
)
from aconst.modular import PrimeCtx, rational_mod, require_primes, sieve_primes
from aconst.polys import RationalPolynomial, stirling_rows

F = Fraction

BELL8 = [1, 1, 2, 5, 15, 52, 203, 877]
G8 = [0, 1, 1, 3, 9, 31, 121, 523]


def brute_d_sum_mod(r, n, x, p):
    """Independent oracle: sum_{k<p} k^n x^k/(k!)^r as an exact rational, reduced."""
    total = F(1 if n == 0 else 0)
    for k in range(1, p):
        total += F(k**n) * x**k / math.factorial(k) ** r
    return rational_mod(total, PrimeCtx(p))


def d_sums_pow_pass(r, n_max, x, p):
    """Oracle: _d_sums_mod before its table fast paths, one x^k accumulate
    and one pow(1/k!, r, p) per term at every r and x."""
    ctx = PrimeCtx(p)
    xr = rational_mod(x, ctx)
    if xr is None:
        return None
    xk = accumulate(repeat(xr, p - 1), lambda u, v: u * v % p, initial=1)
    w = [u * pow(f, r, p) % p for u, f in zip(xk, ctx.inv_fact_table)]
    return [m % p for m in _moments(w, n_max)]


def d_sums_loop(r, n_max, x, p):
    """Oracle: the per-prime loop the moment pass replaced.  The weight
    x^k/(k!)^r advances by x * inv(k)^r per step and k^n by one multiply per n."""
    ctx = PrimeCtx(p)
    xr = rational_mod(x, ctx)
    if xr is None:
        return None
    inv = ctx.inv_table
    acc = [0] * (n_max + 1)
    acc[0] = 1
    w = 1
    for k in range(1, p):
        iv = inv[k]
        w = w * xr % p
        for _ in range(r):
            w = w * iv % p
        acc[0] += w
        kp = 1
        for n in range(1, n_max + 1):
            kp = kp * k % p
            acc[n] += kp * w
    return [a % p for a in acc]


def partial_sum_loop(r, n, N, x):
    """Oracle: sum_{k=0}^{N-1} k^n x^k / (k!)^r, one Fraction term at a time."""
    total = F(1 if n == 0 else 0)  # k = 0 term, with 0^0 = 1
    w = F(1)
    for k in range(1, N):
        w = w * x / k**r
        total += k**n * w
    return total


def batch_loop(r, n_max, x, primes):
    """Oracle: the per-prime loop the side kernels replaced.  One _d_sums_mod
    pass per prime, every coefficient reduced by rational_mod, and its own
    den(x) skip after the coefficient-denominator one."""
    fam = coeff_family(r, n_max)
    b_vals, g_vals = fam.b_values(x), fam.g_values(x)
    lcm = math.lcm(*(v.denominator for v in g_vals + [v for row in b_vals for v in row]))
    checks, skips = [], []
    for p in primes:
        if lcm % p == 0:
            skips.append((p, "", "p divides a coefficient denominator"))
            continue
        sums = _d_sums_mod(r, max(n_max, r - 1), x, p)
        if sums is None:
            skips.append((p, "", "p divides den(x)"))
            continue
        ctx = PrimeCtx(p)
        b_res = [[rational_mod(v, ctx) for v in row] for row in b_vals]
        g_res = [rational_mod(v, ctx) for v in g_vals]
        for n in range(n_max + 1):
            rhs = (g_res[n] + sum(b_res[j][n] * sums[j] for j in range(r))) % p
            checks.append((p, f"n={n}", sums[n], rhs, sums[n] == rhs))
    return checks, skips


def dobinski_lhs_per_n(ctx, table, n, row, lcm):
    """Oracle: the left side kernel at one n, before the row point."""
    return table[ctx.p][n]


def dobinski_rhs_per_n(ctx, table, n, row, lcm):
    """Oracle: the right side kernel at one n, before the row point, where
    row = (g, b_0..b_{r-1}) holds column n's numerators over lcm."""
    g, *b = row
    return (g + sum(map(mul, b, table[ctx.p]))) * pow(lcm, -1, ctx.p) % ctx.p


def _times_x(poly):
    return RationalPolynomial([F(0)] + list(poly.coeffs))


def coeff_family_oracle(r, n_max):
    """Oracle: the tables as first built, on RationalPolynomial entries with
    Fraction coefficients; (b, g) as coeff_family's b and g."""
    b_rows = []
    for j in range(r):
        window = [RationalPolynomial([1] if n == j else []) for n in range(min(r, n_max + 1))]
        b_rows.append(tuple(_binomial_transform(window, n_max, r, _times_x)))
    spike = RationalPolynomial([0, (-1) ** (r - 1)])  # (-1)^(r-1) * x
    # the g row starts at r + 1: the index-r value comes from the initial data
    g_row = [spike if n == r else RationalPolynomial() for n in range(min(r, n_max) + 1)]
    _binomial_transform(g_row, n_max, r, _times_x)
    return tuple(b_rows), tuple(g_row)


class TestSequences:
    def test_bell_values(self):
        assert bell(7) == BELL8

    def test_g_values(self):
        assert g_seq(7) == G8

    def test_g_short(self):
        assert g_seq(0) == [0]
        assert g_seq(1) == [0, 1]

    def test_bell_is_specialized_family(self):
        fam = coeff_family(1, 12)
        assert [poly(1) for poly in fam.b[0]] == bell(12)

    def test_g_is_specialized_family(self):
        fam = coeff_family(1, 12)
        assert [poly(1) for poly in fam.g] == g_seq(12)


    def test_families_specialize_to_sequences_at_thirty(self):
        fam = coeff_family(1, 30)
        assert [poly(1) for poly in fam.b[0]] == bell(30)
        assert [poly(1) for poly in fam.g] == g_seq(30)


class TestCoeffFamily:
    def test_r2_table_at_x1(self):
        fam = coeff_family(2, 8)
        assert [poly(1) for poly in fam.b[0]] == [1, 0, 1, 1, 2, 5, 13, 36, 109]
        assert [poly(1) for poly in fam.b[1]] == [0, 1, 0, 1, 2, 4, 10, 29, 90]

    def test_b10_cubic(self):
        fam = coeff_family(1, 3)
        assert fam.b[0][3] == RationalPolynomial([0, 1, 3, 1])

    def test_b10_is_stirling_generating_polynomial(self):
        fam = coeff_family(1, 20)
        tri = stirling_rows(20)
        for n in range(21):
            assert fam.b[0][n] == RationalPolynomial(tri.s2[n])

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_initial_windows(self, r):
        fam = coeff_family(r, r + 3)
        for j in range(r):
            for n in range(r):
                expected = RationalPolynomial([1] if n == j else [])
                assert fam.b[j][n] == expected
        spike = RationalPolynomial([0, (-1) ** (r - 1)])
        for n in range(r + 1):
            assert fam.g[n] == (spike if n == r else RationalPolynomial())

    def test_windows_cut_below_r(self):
        one, zero = RationalPolynomial([1]), RationalPolynomial()
        fam = coeff_family(3, 1)
        assert fam.b == ((one, zero), (zero, one), (zero, zero))
        assert fam.g == (zero, zero)
        fam = coeff_family(2, 0)
        assert fam.b == ((one,), (zero,))
        assert fam.g == (zero,)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_recurrence_rederived(self, r):
        # f(n+r; x) = x sum_k C(n,k) f(k; x): all n >= 0 for b, n >= 1 for g
        n_max = 25
        fam = coeff_family(r, n_max)
        x_poly = RationalPolynomial([0, 1])
        for j in range(r):
            for n in range(n_max - r + 1):
                acc = RationalPolynomial()
                for k in range(n + 1):
                    acc = acc + math.comb(n, k) * fam.b[j][k]
                assert fam.b[j][n + r] == x_poly * acc
        for n in range(1, n_max - r + 1):
            acc = RationalPolynomial()
            for k in range(n + 1):
                acc = acc + math.comb(n, k) * fam.g[k]
            assert fam.g[n + r] == x_poly * acc

    def test_g_index_r_pinned_by_initial_data(self):
        # the n = 0 case of the recurrence would force g_r(r) = 0; the
        # initial data overrides it with (-1)^(r-1) x
        for r in (1, 2, 3):
            fam = coeff_family(r, r)
            assert fam.g[r] == RationalPolynomial([0, (-1) ** (r - 1)])
            assert fam.g[r] != RationalPolynomial()

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_max", [0, 1, 4, 5, 6, 17, 30])
    def test_integer_tables_match_rational_oracle(self, r, n_max):
        fam = coeff_family(r, n_max)
        b, g = coeff_family_oracle(r, n_max)
        assert fam.b == b and fam.g == g
        for x in (F(0), F(1), F(-2), F(1, 2), F(7, 3), F(-5, 6)):
            b_vals, g_vals = fam.b_values(x), fam.g_values(x)
            assert b_vals == [[poly(x) for poly in row] for row in b]
            assert g_vals == [poly(x) for poly in g]
            assert all(type(v) is F for v in g_vals + [v for row in b_vals for v in row])

    def test_values_at(self):
        fam = coeff_family(2, 4)
        assert fam.b_values(1)[0] == [1, 0, 1, 1, 2]
        assert fam.g_values(F(1, 2))[2] == F(-1, 2)


class TestPartialSums:
    def test_first_three_terms_of_e(self):
        assert _partial_sums_exact(1, 0, 3, 1)[0] == F(5, 2)

    def test_weighted_sum(self):
        assert _partial_sums_exact(2, 1, 4, 1)[1] == F(19, 12)

    def test_approaches_e(self):
        assert abs(float(_partial_sums_exact(1, 0, 30, 1)[0]) - math.e) < 1e-12

    def test_zero_power_convention(self):
        # the k = 0 term contributes 1 exactly when n = 0
        assert _partial_sums_exact(3, 0, 1, F(7, 2))[0] == 1
        assert _partial_sums_exact(3, 5, 1, F(7, 2))[5] == 0

    def test_guards(self):
        with pytest.raises(ValueError):
            _partial_sums_exact(0, 0, 3, 1)
        with pytest.raises(ValueError):
            _partial_sums_exact(1, 0, 0, 1)


    @settings(deadline=None, max_examples=60)
    @given(
        r=st.integers(1, 3),
        n_max=st.integers(0, 12),
        N=st.integers(1, 40),
        a=st.integers(-9, 9),
        b=st.integers(1, 9),
    )
    @example(r=2, n_max=12, N=40, a=0, b=1)
    @example(r=3, n_max=5, N=17, a=-7, b=3)
    def test_one_pass_matches_loop(self, r, n_max, N, a, b):
        x = F(a, b)
        expected = [partial_sum_loop(r, n, N, x) for n in range(n_max + 1)]
        assert _partial_sums_exact(r, n_max, N, x) == expected


class TestTruncationIdentity:
    def test_examples(self):
        assert check_truncation_identity(1, 0, 5, 1)
        assert check_truncation_identity(3, 4, 12, F(1, 2))
        assert check_truncation_identity(2, 0, 1, -2)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            check_truncation_identity(2, -1, 5, 1)

    @settings(deadline=None, max_examples=60)
    @given(
        r=st.integers(1, 3),
        n=st.integers(0, 8),
        N=st.integers(1, 20),
        x=st.sampled_from([F(1), F(1, 2), F(-2), F(7, 3), F(-5, 7)]),
    )
    def test_holds_everywhere(self, r, n, N, x):
        assert check_truncation_identity(r, n, N, x)


class TestDSumsMod:
    @settings(deadline=None, max_examples=150)
    @given(
        r=st.integers(1, 3),
        n_max=st.integers(0, 20),
        a=st.integers(-9, 9),
        b=st.integers(1, 9),
        p=st.sampled_from(sieve_primes(2, 400)),
    )
    @example(r=1, n_max=0, a=0, b=1, p=2)  # x = 0: only the k = 0 term
    @example(r=2, n_max=20, a=1, b=1, p=2)
    @example(r=3, n_max=7, a=-9, b=2, p=3)  # p | a
    @example(r=1, n_max=5, a=7, b=3, p=3)  # p | b: undefined
    @example(r=2, n_max=20, a=-5, b=7, p=397)
    def test_matches_loop_and_brute_force(self, r, n_max, a, b, p):
        x = F(a, b)
        got = _d_sums_mod(r, n_max, x, p)
        assert got == d_sums_loop(r, n_max, x, p)
        if x.denominator % p == 0:
            assert got is None
            return
        assert len(got) == n_max + 1 and all(0 <= v < p for v in got)
        if p <= 31:
            assert got == [brute_d_sum_mod(r, n, x, p) for n in range(n_max + 1)]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_fast_paths_match_the_pow_pass(self, r):
        # x = 1 and x = p+1 take the path without x^k, the others weigh by it
        # (or are undefined at p = 2, 3); r = 1 reads the inverse factorial
        # table as it is, r > 1 maps pow over it
        for p in sieve_primes(2, 300):
            for x in (F(1), F(p + 1), F(1, 2), F(-2), F(7, 3)):
                assert _d_sums_mod(r, 4, x, p) == d_sums_pow_pass(r, 4, x, p)

    def test_moments(self):
        assert _moments([5, 2, 3], 3) == [10, 8, 14, 26]
        assert _moments([7], 2) == [7, 0, 0]  # 0^0 = 1, 0^n = 0 for n >= 1


def _tree_one_off(r, n_top, x, window):
    """A mutant of the tree: one entry of one prime's row is off by one."""
    table = _d_sums_tree(r, n_top, x, window)
    if table:
        p = max(table)
        table[p] = table[p][:-1] + [(table[p][-1] + 1) % p]
    return table


class TestDSumsTree:
    @staticmethod
    def mismatches(tree, r, n_max, a, b, window):
        x = F(a, b)
        table = tree(r, n_max, x, window)
        # p | den(x) is excluded, never 0
        assert set(table) == {p for p in window if x.denominator % p}
        return [p for p in set(window) if table.get(p) != _d_sums_mod(r, n_max, x, p)]

    @settings(deadline=None, max_examples=120)
    @given(
        r=st.integers(1, 3),
        n_max=st.integers(0, 20),
        a=st.integers(-9, 9),
        b=st.integers(1, 9),
        window=st.lists(st.sampled_from(sieve_primes(2, 400)), max_size=12),
        small=st.lists(st.sampled_from([2, 3, 5, 7]), max_size=4),
    )
    @example(r=1, n_max=0, a=0, b=1, window=[], small=[2, 3])  # x = 0
    @example(r=3, n_max=20, a=-9, b=2, window=[397, 3, 397], small=[2])  # p | a, p | b
    @example(r=2, n_max=5, a=7, b=9, window=[7, 5], small=[3, 3])  # p | a, p | b
    @example(r=2, n_max=3, a=-5, b=7, window=[389], small=[])  # a leaf split in two
    def test_matches_per_prime_sums(self, r, n_max, a, b, window, small):
        # unsorted windows with repeated entries, 2 and 3 among them
        window = small + window
        assert self.mismatches(_d_sums_tree, r, n_max, a, b, window) == []

    @pytest.mark.parametrize("r, n_max, a, b", [(1, 0, 1, 1), (3, 20, 7, 3), (2, 4, 0, 1)])
    def test_one_entry_off_mutant_is_caught(self, r, n_max, a, b):
        window = [11, 2, 7, 3, 11, 5]
        assert self.mismatches(_tree_one_off, r, n_max, a, b, window) == [11]

    def test_empty_and_all_excluded(self):
        assert _d_sums_tree(2, 3, F(1, 6), []) == {}
        assert _d_sums_tree(2, 3, F(1, 6), [3, 2, 3]) == {}

    @pytest.mark.parametrize("window", [[9], [5, 9]])
    def test_rejects_non_prime_entries(self, window):
        with pytest.raises(ValueError, match="must be primes"):
            _d_sums_tree(1, 0, 1, window)


class TestDrA:
    def test_e_component_at_five(self):
        e_A = d_r_A_range(1, 0, 1, [5, 7, 11])[0]
        assert e_A[5] == 0  # 1+1+3+1+4 = 10

    def test_d1_component_at_five(self):
        assert d_r_A_range(1, 1, 1, [5])[1][5] == 1

    def test_r2_against_brute_force(self):
        got = d_r_A_range(2, 0, 1, [7])[0][7]
        assert got == brute_d_sum_mod(2, 0, F(1), 7)

    def test_range_matches_oracle(self):
        elems = d_r_A_range(2, 5, F(1, 2), [7, 11, 13])
        for n in range(6):
            for p in (7, 11, 13):
                assert elems[n][p] == brute_d_sum_mod(2, n, F(1, 2), p)

    @pytest.mark.parametrize("r, n", [(0, 2), (-1, 0), (1, -1)])
    def test_rejects_undefined_family(self, r, n):
        with pytest.raises(ValueError):
            d_r_A_range(r, n, 1, [5, 7])
        with pytest.raises(ValueError):
            d_r_A_range(r, n, 1, [5])

    @pytest.mark.parametrize("window", [[9], [5, 9], [1, 5], [0, 7], [5, 7, 15]])
    def test_rejects_non_prime_entries(self, window):
        with pytest.raises(ValueError, match="primes"):
            d_r_A_range(1, 1, 1, window)

    def test_window_is_its_distinct_primes(self):
        elems = d_r_A_range(2, 3, F(7, 3), [13, 3, 7, 13, 5])
        assert elems == d_r_A_range(2, 3, F(7, 3), [3, 5, 7, 13])
        for n, elem in enumerate(elems):
            assert elem.window == require_primes([13, 3, 7, 13, 5]) == (3, 5, 7, 13)
            assert elem.exceptional == {3: "p divides den(x)"}
            for p in (5, 7, 13):
                assert elem[p] == _d_sums_mod(2, 3, F(7, 3), p)[n]

    def test_one_sieve_per_call(self, monkeypatch):
        # the window is checked once, not once per element: every element and
        # every arithmetic result meets the remembered window
        window = sieve_primes(5, 2000)
        sieves = []
        orig = modular.sieve_primes
        monkeypatch.setattr(modular, "sieve_primes", lambda lo, hi: sieves.append(hi) or orig(lo, hi))
        modular._require_prime_set.cache_clear()
        elems = d_r_A_range(1, 20, 1, window)
        assert (elems[20] - elems[19].scale(F(1, 2)) + 1).window == tuple(window)
        assert sieves == [window[-1]] and len(elems) == 21
        d_r_A_range(2, 3, F(1, 2), window)  # the same window: no sieve at all
        assert sieves == [window[-1]]

    def test_exceptional_denominator(self):
        elem = d_r_A_range(1, 0, F(1, 7), [5, 7, 11])[0]
        assert 7 in elem.exceptional
        assert elem.get(5) is not None


class TestVerifyDobinski:
    def test_bell_window(self):
        window = sieve_primes(5, 200)
        assert len(window) == 44
        report = verify_dobinski(1, 10, 1, window)
        assert report.passed
        assert len(report.checks) == 44 * 11
        assert not report.skipped

    def test_n_zero_trivial(self):
        report = verify_dobinski(2, 0, F(7, 3), sieve_primes(5, 50))
        assert report.passed
        for c in report.checks:
            assert c.label == "n=0"

    def test_r3_rational_x(self):
        report = verify_dobinski(3, 8, F(2, 3), sieve_primes(7, 500))
        assert report.passed

    def test_skip_reasons_recorded(self):
        report = verify_dobinski(1, 5, F(7, 3), [3, 5, 7])
        skipped = {s.prime for s in report.skipped}
        assert skipped == {3}
        checked = {c.prime for c in report.checks}
        assert checked == {5, 7}

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(0, 8),
        st.integers(-9, 9),
        st.integers(1, 9),
    )
    @example(3, 1, 1, 3)  # n_max < r with p | den(x): the den(x) reason
    @example(2, 6, 7, 3)  # n_max >= r: both reasons apply at 3, the coefficient one wins
    def test_matches_batch_loop(self, r, n_max, a, b):
        x = F(a, b)
        primes = sieve_primes(2, 60)
        report = verify_dobinski(r, n_max, x, primes)
        checks, skips = batch_loop(r, n_max, x, primes)
        assert [tuple(c) for c in report.checks] == checks
        assert [tuple(s) for s in report.skipped] == skips

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.integers(1, 3),
        n_max=st.integers(0, 20),
        a=st.integers(-9, 9),
        b=st.integers(1, 9),
    )
    @example(r=3, n_max=0, a=-7, b=3)  # n_max < r - 1: the basis runs past the row
    @example(r=3, n_max=20, a=-9, b=2)
    def test_row_kernels_match_per_n_kernels(self, r, n_max, a, b):
        # the row point's kernels give, at every checked prime, what the per-n
        # kernels gave at each n, on the grid verify_dobinski builds
        grids, window = [], sieve_primes(2, 200)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dobinski, "verify_primes", lambda *args: grids.append(args))
            verify_dobinski(r, n_max, F(a, b), window)
        (_, _, _, grid, _, _, excluded, _), = grids
        (labels, point), = grid
        assert labels == tuple(f"n={n}" for n in range(n_max + 1))
        table, top, g, b_cols, lcm = point
        assert top == n_max and len(b_cols) == r
        rows = list(zip(g, *b_cols))
        for p in window:
            if p in excluded:
                continue
            ctx = PrimeCtx(p)
            assert dobinski._dobinski_lhs(ctx, *point) == [
                dobinski_lhs_per_n(ctx, table, n, row, lcm) for n, row in enumerate(rows)]
            assert dobinski._dobinski_rhs(ctx, *point) == [
                dobinski_rhs_per_n(ctx, table, n, row, lcm) for n, row in enumerate(rows)]

    def test_right_side_never_reads_its_own_entry(self, monkeypatch):
        # perturb the last truncated sum in the window table, D(n_max) with
        # n_max >= r: only the n = n_max checks may notice, so the right side
        # never read D(n_max)
        def perturbed(r, n_top, x, window):
            table = _d_sums_tree(r, n_top, x, window)
            return {p: sums[:-1] + [sums[-1] + 1] for p, sums in table.items()}

        monkeypatch.setattr(dobinski, "_d_sums_tree", perturbed)
        window = sieve_primes(5, 60)
        report = verify_dobinski(2, 5, F(1, 2), window)
        failed = [(c.prime, c.label) for c in report.checks if not c.passed]
        assert failed == [(p, "n=5") for p in window]
        assert len(report.checks) == 6 * len(window)

    # x = 7/3 over the 44 primes in [5, 200], n = 0..8: every coefficient
    # denominator is a power of 3, so no prime is skipped and 396 checks run
    CONTROL_WINDOW = sieve_primes(5, 200)

    @pytest.mark.parametrize("r, failing, definitional", [(1, 352, 44), (2, 308, 88), (3, 264, 132)])
    def test_every_check_fails_on_the_left(self, monkeypatch, r, failing, definitional):
        # D(n) off by one at every n >= r: each of those checks fails.  The
        # n < r rows are definitional: column n of the table is the unit
        # vector e_n with g = 0, so both sides read the same entry D(n)
        def perturbed(r, n_top, x, window):
            table = _d_sums_tree(r, n_top, x, window)
            return {p: sums[:r] + [(d + 1) % p for d in sums[r:]] for p, sums in table.items()}

        monkeypatch.setattr(dobinski, "_d_sums_tree", perturbed)
        report = verify_dobinski(r, 8, F(7, 3), self.CONTROL_WINDOW)
        below_r = [c for c in report.checks if int(c.label[2:]) < r]
        from_r = [c for c in report.checks if int(c.label[2:]) >= r]
        assert len(from_r) == failing and not any(c.passed for c in from_r)
        assert len(below_r) == definitional and all(c.passed for c in below_r)
        assert report.skipped == []

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_every_check_fails_on_the_right(self, monkeypatch, r):
        # every g value one higher moves the right side by one at every n,
        # the definitional n < r rows included
        orig = CoeffFamily.g_values
        monkeypatch.setattr(CoeffFamily, "g_values", lambda fam, x: [g + 1 for g in orig(fam, x)])
        report = verify_dobinski(r, 8, F(7, 3), self.CONTROL_WINDOW)
        assert len(report.checks) == 396 and not any(c.passed for c in report.checks)

    @pytest.mark.parametrize("window", [[1, 5, 7], [0, 5], [9, 11], [5, -7]])
    def test_rejects_non_prime_entries(self, window):
        with pytest.raises(ValueError, match="primes"):
            verify_dobinski(1, 3, 1, window)

    def test_den_x_is_a_whole_prime_skip(self):
        report = verify_dobinski(3, 1, F(1, 3), sieve_primes(2, 20))
        assert [tuple(s) for s in report.skipped] == [(3, "", "p divides den(x)")]
        assert report.passed and 3 not in {c.prime for c in report.checks}

    def test_records_are_immutable(self):
        report = verify_dobinski(3, 1, F(1, 3), sieve_primes(2, 20))
        with pytest.raises(AttributeError):
            report.checks[0].lhs = 1
        with pytest.raises(AttributeError):
            report.skipped[0].reason = "other"

    def test_threads_match_serial(self):
        window = sieve_primes(5, 120)
        serial = verify_dobinski(2, 6, F(1, 2), window, threads=1)
        parallel = verify_dobinski(2, 6, F(1, 2), window, threads=3)
        assert serial.checks == parallel.checks
        assert serial.skipped == parallel.skipped


class TestNumericIdentity:
    def test_bell_three(self):
        assert numeric_identity_check(1, 3, 1, 40, F(1, 10**20))

    def test_r2_low_moments(self):
        fam = coeff_family(2, 5)
        assert [poly(1) for poly in fam.b[0]][2] == 1
        assert [poly(1) for poly in fam.b[1]][2] == 0
        assert numeric_identity_check(2, 2, 1, 40, F(1, 10**20))

    def test_r2_fifth_moment_coefficients(self):
        fam = coeff_family(2, 5)
        assert fam.b[0][5](1) == 5
        assert fam.b[1][5](1) == 4
        assert numeric_identity_check(2, 5, 1, 40, F(1, 10**20))

    def test_refuses_hopeless_truncation(self):
        with pytest.raises(ValueError):
            numeric_identity_check(1, 8, 1, 3, F(1, 10**20))

    def test_rational_x(self):
        assert numeric_identity_check(2, 4, F(1, 2), 50, F(1, 10**25))
