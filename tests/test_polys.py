import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aconst import euler, polys
from aconst.dobinski import bell, g_seq
from aconst.euler import verify_interlude
from aconst.modular import PrimeCtx, rational_mod, sieve_primes
from aconst.polys import (
    _gregory_zero_packed,
    _pack,
    _slot_bytes,
    _unpack,
    RationalPolynomial,
    binomial_polynomial,
    check_euler_operator_ode,
    check_shift_identity,
    gregory_explicit,
    gregory_polynomial,
    gregory_polynomials,
    gregory_residue_stream,
    gregory_values_exact,
    series_pow_binomial,
    stirling1_row_mod,
    stirling_rows,
)

F = Fraction


def series_log1p(order):
    """log(1+t) = t - t^2/2 + t^3/3 - ... truncated."""
    return [F(0)] + [F((-1) ** (n - 1), n) for n in range(1, order + 1)]


G1 = RationalPolynomial([F(1, 2), 1])
G2 = RationalPolynomial([F(-1, 12), 0, F(1, 2)])
G3 = RationalPolynomial([F(1, 24), 0, F(-1, 4), F(1, 6)])
G4 = RationalPolynomial([F(-19, 720), 0, F(1, 6), F(-1, 6), F(1, 24)])


def recurrence_stream(x, n_max, ctx):
    """Oracle: residues of G_0(x)..G_{n_max}(x) by the O(n^2) recurrence mod p,

    G_n(x) = binom(x, n) - sum_{j<n} (-1)^(n-j) G_j(x) / (n-j+1).
    """
    p = ctx.p
    xr = rational_mod(x, ctx)
    if xr is None:
        return None
    inv = ctx.inv_table
    g = [1]
    binom = 1
    for n in range(1, n_max + 1):
        binom = binom * ((xr - n + 1) % p) % p * inv[n] % p
        pos = sum(map(mul, g[n - 1 :: -2], inv[2::2]))  # inv[i+1], i = n-j odd
        neg = sum(map(mul, g[n - 2 :: -2], inv[3::2])) if n >= 2 else 0
        g.append((binom + pos - neg) % p)
    return g


def recurrence_values(x, n_max, one):
    """Oracle: G_0(x)..G_{n_max}(x) by the division-free recurrence over Q or Q[x],

    G_n(x) = binom(x, n) - sum_{j<n} (-1)^(n-j) G_j(x) / (n-j+1),

    with one the unit of x's ring.
    """
    g = [one]
    binom = one
    for n in range(1, n_max + 1):
        binom = binom * (x - n + 1) / n
        acc = binom
        for j in range(n):
            i = n - j
            term = g[j] / (i + 1)
            acc = acc + term if i % 2 else acc - term
        g.append(acc)
    return g


@st.composite
def stream_cases(draw):
    p = draw(st.sampled_from(sieve_primes(2, 1009)))
    n_max = draw(st.sampled_from([0, p - 2]) | st.integers(0, p - 2))
    num = draw(st.integers(-10**6, 10**6))
    den = draw(st.integers(1, 10**6)) * draw(st.sampled_from([1, 1, p, p * p]))
    return F(num, den), n_max, p


class TestRationalPolynomial:
    def test_trim_and_degree(self):
        assert RationalPolynomial([1, 2, 0, 0]).degree == 1
        assert RationalPolynomial([]).degree == float("-inf")
        assert RationalPolynomial([0]).degree == float("-inf")

    def test_arithmetic(self):
        p = RationalPolynomial([1, 1])
        q = RationalPolynomial([-1, 1])
        assert p * q == RationalPolynomial([-1, 0, 1])
        assert p + q == RationalPolynomial([0, 2])
        assert p - p == RationalPolynomial([])
        assert 2 * p == RationalPolynomial([2, 2])
        assert p / 2 == RationalPolynomial([F(1, 2), F(1, 2)])
        assert 1 - p == RationalPolynomial([0, -1])
        assert p - 1 == RationalPolynomial([0, 1])
        assert p - F(1, 2) == RationalPolynomial([F(1, 2), 1])
        assert q - RationalPolynomial([1, 2, 3]) == RationalPolynomial([-2, -1, -3])
        with pytest.raises(TypeError):
            p - "x"

    def test_eval_horner(self):
        p = RationalPolynomial([1, -3, 2])  # 2x^2 - 3x + 1
        assert p(2) == 3
        assert p(F(1, 2)) == 0

    def test_shift(self):
        p = RationalPolynomial([0, 0, 1])  # x^2
        assert p.shift(1) == RationalPolynomial([1, 2, 1])
        assert p.shift(F(-1, 2))(F(1, 2)) == 0

    def test_antiderivative(self):
        p = RationalPolynomial([1, 2])  # 1 + 2x -> x + x^2
        assert p.antiderivative() == RationalPolynomial([0, 1, 1])

    def test_binomial_polynomial(self):
        assert binomial_polynomial(0) == RationalPolynomial([1])
        assert binomial_polynomial(2) == RationalPolynomial([0, F(-1, 2), F(1, 2)])
        # values agree with math.comb on integers
        for n in range(6):
            poly = binomial_polynomial(n)
            for m in range(10):
                assert poly(m) == math.comb(m, n)


class TestSeries:
    def test_log1p(self):
        assert series_log1p(3) == [0, 1, F(-1, 2), F(1, 3)]

    def test_binomial_sqrt(self):
        assert series_pow_binomial(F(1, 2), 2) == [1, F(1, 2), F(-1, 8)]

    def test_gregory_generating_function(self):
        # t / log(1+t) = 1 + t/2 - t^2/12 + t^3/24 - 19 t^4/720 + ...
        assert gregory_values_exact(0, 4) == [1, F(1, 2), F(-1, 12), F(1, 24), F(-19, 720)]


class TestGregoryPolynomials:
    def test_displayed_small_cases(self):
        assert gregory_polynomial(0) == RationalPolynomial([1])
        assert gregory_polynomial(1) == G1
        assert gregory_polynomial(2) == G2
        assert gregory_polynomial(3) == G3
        assert gregory_polynomial(4) == G4

    def test_explicit_matches_recurrence(self):
        for n in range(1, 31):
            assert gregory_explicit(n) == gregory_polynomial(n)

    def test_forward_difference_recurrence(self):
        # G_n(x) + G_{n-1}(x) = G_n(x+1), as polynomials
        for n in range(1, 31):
            lhs = gregory_polynomial(n) + gregory_polynomial(n - 1)
            assert lhs == gregory_polynomial(n).shift(1)

    def test_integral_characterization(self):
        # G_n(x) = integral of binom(u, n) over [x, x+1]
        for n in range(16):
            prim = binomial_polynomial(n).antiderivative()
            assert prim.shift(1) - prim == gregory_polynomial(n)

    def test_log_inverse_identity(self):
        # sum_{n=1}^{k-1} (-1)^(n-1) G_n(x)/(k-n) = (-1)^k binom(x, k-1) + 1/k
        for k in range(2, 26):
            acc = RationalPolynomial([])
            for n in range(1, k):
                term = gregory_polynomial(n) / (k - n)
                acc = acc + term if n % 2 else acc - term
            rhs = binomial_polynomial(k - 1) * F((-1) ** k) + F(1, k)
            assert acc == rhs

    def test_values_match_polynomials(self):
        for x in [F(0), F(1, 2), F(-7, 3)]:
            values = gregory_values_exact(x, 25)
            for n in range(26):
                assert values[n] == gregory_polynomial(n)(x)


    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(-9, 9), b=st.integers(1, 9), n_max=st.integers(0, 40))
    def test_values_match_recurrence(self, a, b, n_max):
        x = F(a, b)
        assert gregory_values_exact(x, n_max) == recurrence_values(x, n_max, F(1))

    def test_polynomials_match_recurrence(self):
        x = RationalPolynomial([0, 1])
        expected = recurrence_values(x, 20, RationalPolynomial([1]))
        assert gregory_polynomials(20) == tuple(expected)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gregory_polynomial(-1),
        lambda: gregory_values_exact(0, -1),
        lambda: gregory_polynomials(-3),
        lambda: bell(-1),
        lambda: g_seq(-1),
        lambda: stirling_rows(-1),
        lambda: stirling1_row_mod(-1, PrimeCtx(5)),
    ],
    ids=[
        "gregory_polynomial",
        "gregory_values_exact",
        "gregory_polynomials",
        "bell",
        "g_seq",
        "stirling_rows",
        "stirling1_row_mod",
    ],
)
def test_negative_order_rejected(call):
    with pytest.raises(ValueError):
        call()


class TestNnkAndShift:
    """The shift identity: G_n(x) is an alternating binomial sum of G_{n+N}
    over x, x+1, ..., x+N.  The shifted sums N_{n,k}(x) themselves are the
    oracle of the k-shifted series in tests/test_analytic.py."""

    def test_shift_identity_trivial(self):
        assert check_shift_identity(4, 0, F(2, 7))

    def test_shift_identity_single_step(self):
        assert check_shift_identity(3, 1, F(1, 2))

    def test_shift_identity_deeper(self):
        assert check_shift_identity(2, 4, F(-2, 3))

    def test_shift_identity_grid(self):
        for n in range(5):
            for N in range(4):
                assert check_shift_identity(n, N, F(3, 5))


#: the largest prime of each residue slot width, 1 to 8 bytes
WIDEST_PRIMES = (7, 41, 251, 1621, 10321, 65521, 416107, 2642239)


def slot_pack(coeffs, width):
    """Oracle: one int.to_bytes per slot, the packing the strided copies replaced."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def slot_unpack(packed, n, width, p):
    """Oracle: one int.from_bytes per slot, each reduced mod p."""
    size = n * width
    raw = (packed & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    return [int.from_bytes(raw[i : i + width], "little") % p for i in range(0, size, width)]


class TestResidueStream:
    def test_small_gregory_constants(self):
        ctx = PrimeCtx(1009)
        expected = [
            rational_mod(c, ctx)
            for c in [F(1), F(1, 2), F(-1, 12), F(1, 24), F(-19, 720)]
        ]
        assert gregory_residue_stream(0, 4, ctx) == expected

    def test_matches_exact_polynomials(self):
        # full stated grid: n <= 60, primes <= 211, fixed x samples
        values = {
            x: [gregory_polynomial(n)(x) for n in range(61)]
            for x in (F(0), F(-1), F(1, 2), F(-7, 3))
        }
        for p in sieve_primes(5, 211):
            ctx = PrimeCtx(p)
            for x, exact in values.items():
                n_max = min(60, p - 2)
                stream = gregory_residue_stream(x, n_max, ctx)
                if stream is None:
                    continue
                for n in range(n_max + 1):
                    assert stream[n] == rational_mod(exact[n], ctx), (p, x, n)

    def test_undefined_denominator(self):
        assert gregory_residue_stream(F(1, 7), 3, PrimeCtx(7)) is None

    def test_range_guard(self):
        for n_max in (6, -1):
            with pytest.raises(ValueError):
                gregory_residue_stream(0, n_max, PrimeCtx(7))

    @settings(max_examples=60, deadline=None)
    @given(stream_cases())
    def test_matches_recurrence(self, case):
        x, n_max, p = case
        ctx = PrimeCtx(p)
        expected = recurrence_stream(x, n_max, ctx)
        assert (expected is None) == (x.denominator % p == 0)
        assert gregory_residue_stream(x, n_max, ctx) == expected

    def test_shared_context_matches_recurrence(self):
        # the Gregory numbers built by the first call serve every later x
        for p in (1009, 2003):
            ctx = PrimeCtx(p)
            for x in (F(0), F(-1), F(1, 2), F(-7, 3), F(5, p)):
                for n_max in (p - 2, p - 5):
                    assert gregory_residue_stream(x, n_max, ctx) == recurrence_stream(
                        x, n_max, ctx
                    ), (p, x, n_max)

    def test_alternating_contexts_match_recurrence(self):
        # each switch of context evicts the one-entry memo of Gregory numbers
        ctxs = [PrimeCtx(101), PrimeCtx(103), PrimeCtx(101)]
        for x in (F(0), F(-7, 3)):
            for ctx in ctxs + ctxs[::-1]:
                assert gregory_residue_stream(x, ctx.p - 2, ctx) == recurrence_stream(
                    x, ctx.p - 2, ctx
                ), (ctx, x)

    def test_one_inversion_per_prime(self):
        # the Gregory numbers belong to polys, not to the context, and a
        # verifier's x values at one prime share one Newton inversion; a
        # second call over the same window reads every stream from euler's
        # (p, x) memo and inverts nothing
        assert not hasattr(PrimeCtx(7), "gregory_zero")
        euler._stream.clear()
        before = _gregory_zero_packed.cache_info().misses
        verify_interlude([2, 3], [F(0), F(1, 2), F(-2)], sieve_primes(5, 60))
        assert _gregory_zero_packed.cache_info().misses - before == len(sieve_primes(5, 60)) == 15
        before = _gregory_zero_packed.cache_info().misses
        verify_interlude([2, 3], [F(0), F(1, 2), F(-2)], sieve_primes(5, 60))
        assert _gregory_zero_packed.cache_info().misses - before == 0

    def test_packed_product_at_the_slot_bound(self):
        # every coefficient p-1 at full length: slot n of the product holds
        # min(n+1, 2L-1-n) (p-1)^2, which peaks at the bound L (p-1)^2
        p = 10007
        L = p - 1
        a = [p - 1] * L
        n = 2 * L - 1
        expected = [min(k + 1, n - k) % p for k in range(n)]  # (p-1)^2 = 1 mod p
        width = _slot_bytes(p)
        assert _unpack(_pack(a, width) ** 2, n, width, p) == expected
        # one byte narrower and the peak slots carry into their neighbours
        narrow = width - 1
        assert _unpack(_pack(a, narrow) ** 2, n, narrow, p) != expected

    @pytest.mark.parametrize("p", WIDEST_PRIMES)
    def test_packing_matches_the_per_slot_oracle(self, p):
        width = _slot_bytes(p)
        assert width == WIDEST_PRIMES.index(p) + 1
        assert _slot_bytes(sieve_primes(p + 1, p + 200)[0]) == width + 1
        rng = random.Random(p)
        top = (p - 1) ** 3  # the largest value a product slot holds
        residues = [0, p - 1] + [rng.randrange(p) for _ in range(300)]
        slots = [0, p - 1, top] + [rng.randrange(top + 1) for _ in range(300)]
        for values in (residues, slots):
            assert _pack(values, width) == slot_pack(values, width)
        # bits above the n slots read are masked off
        packed = slot_pack(slots, width) + (rng.getrandbits(64) << 8 * width * len(slots))
        for n in (0, 1, 7, len(slots)):
            assert _unpack(packed, n, width, p) == slot_unpack(packed, n, width, p)
        product = _pack(residues, width) * _pack(residues[::-1], width)
        n = 2 * len(residues) - 1
        assert _unpack(product, n, width, p) == slot_unpack(product, n, width, p)

    def test_stream_refuses_wide_slots_before_any_table(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built a binomial row")

        monkeypatch.setattr(polys, "_binom_row", forbidden)
        ctx = PrimeCtx(2642257)
        with pytest.raises(ValueError, match="p < 2642247"):
            gregory_residue_stream(F(1, 2), 10, ctx)
        assert not {"inv_table", "fact_table", "inv_fact_table"} & set(vars(ctx))


class TestStirling:
    def test_second_kind_row(self):
        assert list(stirling_rows(3).s2[3]) == [0, 1, 3, 1]

    def test_first_kind_row(self):
        assert list(stirling_rows(3).s1[3]) == [0, 2, 3, 1]

    def test_row_sums_factorial(self):
        tri = stirling_rows(10)
        for n in range(11):
            assert sum(tri.s1[n]) == math.factorial(n)

    def test_second_kind_edges(self):
        tri = stirling_rows(8)
        for n in range(1, 9):
            assert tri.s2[n][n] == 1
            assert tri.s2[n][1] == 1

    def test_sign_convention_via_generating_function(self):
        # (log(1+t))^j / j! = sum_n (-1)^(n-j) [n, j] t^n / n!
        order = 8
        tri = stirling_rows(order)
        logs = series_log1p(order)
        power = [1] + [0] * order
        for j in range(1, 4):
            power = [sum(map(mul, power[: n + 1], logs[n::-1])) for n in range(order + 1)]
            for n in range(j, order + 1):
                s1 = tri.s1[n][j] if j < len(tri.s1[n]) else 0
                assert power[n] / math.factorial(j) == F((-1) ** (n - j) * s1, math.factorial(n))

    @pytest.mark.parametrize("p", sieve_primes(5, 60))
    def test_top_row_all_ones_mod_p(self, p):
        row = stirling1_row_mod(p - 1, PrimeCtx(p))
        assert all(row[j] == 1 for j in range(1, p))


class TestEulerOperator:
    def test_exponential(self):
        assert check_euler_operator_ode(1, 10)

    def test_bessel_like(self):
        assert check_euler_operator_ode(2, 20)

    def test_cubic(self):
        assert check_euler_operator_ode(3, 30)

    def test_order_guard(self):
        # at r = 0 every term z^{rn} sits at z^0, and r < 0 gives no series
        for r, order in [(3, 2), (0, 5), (-1, 5)]:
            with pytest.raises(ValueError):
                check_euler_operator_ode(r, order)
