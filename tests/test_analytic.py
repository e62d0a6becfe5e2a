import decimal
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from operator import mul

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aconst import analytic
from aconst.analytic import (
    GAMMA_REF_DIGITS,
    _binomial_product,
    _certificate,
    _log_ratio,
    _mul,
    _newton_zeros,
    _signed_pack,
    _signed_unpack,
    _validated_fixed,
    _working_bits,
    bla101_partial,
    gamma_reference,
    gregory_value_float,
    mascheroni_partial,
)
from aconst.dobinski import _partial_sums_exact, bell, numeric_identity_check
from aconst.euler import harmonic
from aconst.polys import gregory_polynomial, gregory_values_exact

F = Fraction


def agrees_to_bits(a, b, bits):
    """|a - b| within 2^-bits, relative above magnitude 1, absolute below."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    scale = max(1, abs(a), abs(b))
    return abs(a - b) <= scale * mpmath.mpf(2) ** (-bits)


def N_nk(n, k, x):
    """Oracle: N_{n,k}(x) = G_n(x) + G_n(x+1) + ... + G_n(x+k-1), exactly,
    from the Gregory polynomial (the kernel sums the k fixed-point streams)."""
    x = F(x)
    poly = gregory_polynomial(n)
    return sum((poly(x + j) for j in range(k)), F(0))


def truncated_d(r, n, x, terms=60):
    """D_r(n; x) = sum_k k^n x^k/(k!)^r truncated at terms, exactly, as an mpf
    at the working precision."""
    return analytic._to_mpf(_partial_sums_exact(r, n, terms, x)[n])


def recurrence_fixed(num, den, n_max, wp):
    """Oracle: G_0(x)..G_{n_max}(x) scaled by 2**wp by the O(n^2) recurrence

    G_n(x) = binom(x, n) - sum_{j<n} (-1)^(n-j) G_j(x) / (n-j+1),

    with 1/i floored to 2**wp once and each sum floored back to scale.
    """
    one = 1 << wp
    inv_fix = [0, one] + [one // i for i in range(2, n_max + 2)]
    invf_odd_i = inv_fix[2::2]  # 1/(i+1) for odd i
    invf_even_i = inv_fix[3::2]  # 1/(i+1) for even i
    g = [one]
    binom = one
    for n in range(1, n_max + 1):
        binom = binom * (num - den * (n - 1)) // (den * n)
        pos = sum(map(mul, g[n - 1 :: -2], invf_odd_i))
        neg = sum(map(mul, g[n - 2 :: -2], invf_even_i)) if n >= 2 else 0
        g.append(binom + ((pos - neg) >> wp))
    return tuple(g)


def oracle_mul(a, b, lo, hi):
    """Oracle: slots lo..hi-1 of a b by the int Kronecker product that the
    engines replaced.  Each operand packs as the sum of its shifted signed
    coefficients, and the product unpacks through a half-slot bias."""
    bits = max(map(int.bit_length, a)) + max(map(int.bit_length, b))
    width = (bits + min(len(a), len(b)).bit_length() + 8) // 8

    def pack(coeffs):
        return sum(c << 8 * width * i for i, c in enumerate(coeffs))

    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * hi, "little")
    low = (pack(a) * pack(b)) & ((1 << 8 * width * hi) - 1)
    raw = (low + bias).to_bytes(width * hi + 1, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half
            for i in range(width * lo, width * hi, width)]


def binomial_errors(x, n_max, wp):
    """S = sum_{k<=n_max} |binom(x, k)| and D, the largest floor error of the
    kernel's recurrence for binom(x, k) 2**wp, both in ulps of 2**-wp."""
    S, D = 0, 0
    b, B = F(1), 1 << wp
    for k in range(n_max + 1):
        if k:
            b = b * (x - k + 1) / k
            B = B * (x.numerator - x.denominator * (k - 1)) // (x.denominator * k)
        S += abs(b)
        D = max(D, abs(B - b * 2**wp))
    return S, D


def ulp_bound(x, n_max, wp):
    """The module docstring's bound S (4H + 8) + 2D + 1 on the kernel's error."""
    S, D = binomial_errors(x, n_max, wp)
    return S * (4 * harmonic(n_max + 1) + 8) + 2 * D + 1


def recurrence_bound(x, ref, wp):
    """The oracle's own error bound, 2D + 2 (||g||_1 + 1) ulps.

    Step n multiplies the g_j by floored 1/i and floors the sum, so it is
    off by under ||g||_1 + 1; the stream's error is that series times
    t/log(1+t), whose coefficients sum to 2 in absolute value, plus the
    binomial recurrence's 2D.
    """
    _, D = binomial_errors(x, len(ref) - 1, wp)
    return 2 * D + 2 * (F(sum(map(abs, ref)), 1 << wp) + 1)


@lru_cache(maxsize=1)
def gregory_numbers_exact(n_max=300):
    return gregory_values_exact(0, n_max)


def exact_value(x, n):
    """G_n(x) = sum_k binom(x, k) G_{n-k}(0), exactly."""
    g0 = gregory_numbers_exact()
    total, b = F(0), F(1)
    for k in range(n + 1):
        if k:
            b = b * (x - k + 1) / k
        total += b * g0[n - k]
    return total


def besseli0_2_exact(terms=40):
    """Independent oracle: cross-sum of 1/(k!)^2 at x=1 equals I_0(2)."""
    return sum(F(1, math.factorial(k) ** 2) for k in range(terms))


class TestGammaReference:
    def test_digit_count(self):
        assert len(GAMMA_REF_DIGITS) >= 52  # "0." plus at least 50 digits

    def test_cross_check_against_mpmath(self):
        # embedded published digits vs mpmath's independent computation
        with mpmath.workprec(340):
            assert agrees_to_bits(gamma_reference(340), mpmath.mpf(mpmath.euler), 320)


class TestGregoryFloats:
    def test_small_constants(self):
        g = gregory_value_float(0, 4, 64)
        assert agrees_to_bits(g[4], mpmath.mpf(-19) / 720, 60)

    def test_half_shift_is_exactly_one(self):
        assert gregory_value_float(F(1, 2), 1, 64)[1] == 1

    def test_century_value_matches_exact(self):
        prec = 64
        exact = gregory_values_exact(0, 100)[100]
        got = gregory_value_float(0, 100, prec)[100]
        with mpmath.workprec(200):
            ref = mpmath.mpf(exact.numerator) / exact.denominator
            assert agrees_to_bits(got, ref, prec // 2)

    @pytest.mark.parametrize("x", [F(0), F(1, 2), F(-1, 2)])
    def test_agrees_with_exact_rationals(self, x):
        prec = 64
        exact = gregory_values_exact(x, 200)
        floats = gregory_value_float(x, 200, prec)
        with mpmath.workprec(200):
            for n in range(201):
                ref = mpmath.mpf(exact[n].numerator) / exact[n].denominator
                assert agrees_to_bits(floats[n], ref, prec // 2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gregory_value_float(0, 5, 32),
            lambda: mascheroni_partial(0, 0, 100, 16),
            lambda: bla101_partial(1, 0, 100, 8),
        ],
        ids=["gregory_value_float", "mascheroni_partial", "bla101_partial"],
    )
    def test_prec_guard(self, call):
        with pytest.raises(ValueError):
            call()


def certified(x, n_max, wp):
    """G_0(x)..G_{n_max}(x) at one working precision, and its certificate T."""
    zeros = _newton_zeros(n_max + 1, wp)
    stream, binom, d = _binomial_product(x.numerator, x.denominator, zeros, wp)
    return stream, _certificate(stream, binom, d, wp)


def raw_stream(x, n_max, wp):
    """G_0(x)..G_{n_max}(x) at one working precision, unchecked."""
    return certified(x, n_max, wp)[0]


@st.composite
def fixed_cases(draw):
    x = F(draw(st.integers(-7, 7)), draw(st.integers(1, 7)))
    n_max = draw(st.one_of(st.just(0), st.just(1), st.integers(0, 300)))
    return x, n_max, _working_bits(draw(st.sampled_from([64, 128])), n_max)


class TestFixedPointKernel:
    @settings(max_examples=80, deadline=None)
    @given(fixed_cases())
    def test_matches_recurrence(self, case):
        x, n_max, wp = case
        got = raw_stream(x, n_max, wp)
        ref = recurrence_fixed(x.numerator, x.denominator, n_max, wp)
        assert len(got) == n_max + 1
        bound = ulp_bound(x, n_max, wp)
        tol = bound + recurrence_bound(x, ref, wp)
        for n in range(n_max + 1):
            assert abs(got[n] - ref[n]) <= tol, (x, n, wp)
        assert abs(got[n_max] - exact_value(x, n_max) * 2**wp) <= bound

    @pytest.mark.parametrize("x", [F(0), F(1, 2)])
    def test_matches_recurrence_at_2000_terms(self, x):
        n_max = 2000
        wp = _working_bits(64, n_max)
        got = raw_stream(x, n_max, wp)
        ref = recurrence_fixed(x.numerator, x.denominator, n_max, wp)
        tol = ulp_bound(x, n_max, wp) + recurrence_bound(x, ref, wp)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= tol

    def test_signed_product_at_the_slot_bound(self):
        # full-size coefficients at full length: slot n of a * b holds
        # -min(n+1, 2L-1-n) (2^60 - 1)^2, which peaks at the bound L (2^60 - 1)^2
        L = 257
        c = (1 << 60) - 1
        a, b = [-c] * L, [c] * L
        n = 2 * L - 1
        expected = [-min(k + 1, n - k) * c * c for k in range(n)]
        assert _mul(a, b, 0, n) == expected
        assert _mul(a, a, L - 1, L) == [L * c * c]
        mixed = [c if i % 3 else -c for i in range(L)]
        direct = [sum(a[i] * mixed[k - i] for i in range(max(0, k - L + 1), min(k, L - 1) + 1))
                  for k in range(n)]
        assert _mul(mixed, a, 0, n) == direct
        assert _mul(a, mixed, 5, 9) == direct[5:9]
        # one byte narrower and the peak slots spill into their neighbours
        narrow = (120 + L.bit_length() + 8) // 8 - 1
        packed = _signed_pack(a, narrow) * _signed_pack(b, narrow)
        assert _signed_unpack(packed, 0, n, narrow) != expected


#: values of _DECIMAL_MIN_BITS that force each engine of _mul
ENGINES = {"int": 1 << 62, "decimal": 0}
OPERAND_KINDS = ("mixed", "zero", "positive", "negative", "full+", "full-", "full+-")


def operand(rnd, n, bits, kind):
    """n coefficients below 2**bits of one kind; the "full" kinds sit at the
    magnitude 2**bits - 1, so same-sign operands reach the slot bound."""
    mag = (1 << bits) - 1
    if kind == "zero":
        return [0] * n
    if kind.startswith("full"):
        signs = {"full+": [1], "full-": [-1], "full+-": [1, -1]}[kind]
        return [mag * rnd.choice(signs) for _ in range(n)]
    lo = 0 if kind == "positive" else -mag
    hi = 0 if kind == "negative" else mag
    return [rnd.randint(lo, hi) for _ in range(n)]


@st.composite
def products(draw, max_len=60, max_bits=200):
    lengths = st.one_of(st.just(1), st.integers(1, max_len))  # one-term operands often
    a_len, b_len = draw(lengths), draw(lengths)
    rnd = random.Random(draw(st.integers(0, 2**32)))
    a = operand(rnd, a_len, draw(st.integers(0, max_bits)), draw(st.sampled_from(OPERAND_KINDS)))
    b = operand(rnd, b_len, draw(st.integers(0, max_bits)), draw(st.sampled_from(OPERAND_KINDS)))
    top = a_len + b_len - 1
    lo = draw(st.integers(0, top))
    hi = draw(st.integers(lo, top + 2))  # slots past the product read 0
    return a, b, lo, hi


def packed_mul(a, b, lo, hi):
    """Slots lo..hi-1 of a b with both operands packed, at the slot width _mul
    picks: the int engine without its one-term path."""
    bits = max(map(int.bit_length, a)) + max(map(int.bit_length, b))
    width = (bits + min(len(a), len(b)).bit_length() + 8) // 8
    return _signed_unpack(_signed_pack(a, width) * _signed_pack(b, width), lo, hi, width)


@st.composite
def one_term_products(draw):
    coeffs = st.integers(-(2**300), 2**300)
    term = [draw(coeffs)]
    other = draw(st.lists(coeffs, min_size=1, max_size=40))
    a, b = (term, other) if draw(st.booleans()) else (other, term)
    lo = draw(st.integers(0, len(other) + 2))
    hi = draw(st.integers(lo, len(other) + 4))  # the product has len(other) slots
    return a, b, lo, hi


def crossover_operands(delta):
    """Operands of 127-bit coefficients whose shorter one is delta terms past
    the shortest length the decimal engine takes."""
    c = (1 << 127) - 1
    short = -(-analytic._DECIMAL_MIN_BITS // 254) + delta
    a = [c if i % 3 else -c for i in range(2 * short)]
    b = [(-1) ** (i // 5) * (c - i) for i in range(short)]
    return a, b


class TestProductEngines:
    """The int and decimal engines of _mul against the int Kronecker oracle."""

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=150, deadline=None)
    @given(case=products())
    def test_matches_the_int_oracle(self, engine, case):
        a, b, lo, hi = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analytic, "_DECIMAL_MIN_BITS", ENGINES[engine])
            assert _mul(a, b, lo, hi) == oracle_mul(a, b, lo, hi)

    @settings(max_examples=25, deadline=None)
    @given(case=products(max_len=700, max_bits=140))
    def test_matches_the_int_oracle_near_the_crossover(self, case):
        a, b, lo, hi = case
        assert _mul(a, b, lo, hi) == oracle_mul(a, b, lo, hi)

    @settings(max_examples=200, deadline=None)
    @given(case=one_term_products())
    @example(case=([-3], [5, -7, 0, 2], 1, 7))  # slots 4..6 lie past the product
    @example(case=([5, -7, 0, 2], [-3], 5, 7))
    def test_one_term_operand_packs_nothing(self, case):
        a, b, lo, hi = case
        packs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analytic, "_signed_pack", lambda *args: packs.append(1))
            got = _mul(a, b, lo, hi)
        assert not packs
        assert got == packed_mul(a, b, lo, hi)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_both_sides_of_the_crossover(self, monkeypatch, delta):
        a, b = crossover_operands(delta)
        calls = []
        real = analytic._decimal_mul
        monkeypatch.setattr(analytic, "_decimal_mul", lambda *args: calls.append(1) or real(*args))
        n = len(a) + len(b) - 1
        assert _mul(a, b, 0, n) == oracle_mul(a, b, 0, n)
        assert _mul(b, a, 7, n - 3) == oracle_mul(a, b, 7, n - 3)
        assert bool(calls) == (delta >= 0)

    def test_wide_slots_stay_on_int(self, monkeypatch):
        called = []
        monkeypatch.setattr(analytic, "_decimal_mul", lambda *args: called.append(1))
        c = (1 << 1100) - 1
        a = [c, -c] * 40
        assert _mul(a, a, 0, 159) == oracle_mul(a, a, 0, 159)
        assert not called

    @pytest.mark.parametrize("wp", [_working_bits(64, 4000), _working_bits(128, 4000)])
    def test_gregory_stream_identical_on_both_engines(self, monkeypatch, wp):
        streams = []
        for threshold in ENGINES.values():
            monkeypatch.setattr(analytic, "_DECIMAL_MIN_BITS", threshold)
            streams.append(raw_stream(F(0), 4000, wp))
        assert streams[0] == streams[1]

    def test_ignores_the_ambient_context(self):
        a, b = crossover_operands(1)
        n = len(a) + len(b) - 1
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.rounding = decimal.ROUND_FLOOR
            ctx.clear_traps()
            got = _mul(a, b, 0, n)
        assert got == oracle_mul(a, b, 0, n)

    def test_an_exact_context_too_short_raises(self, monkeypatch):
        short = analytic._EXACT.copy()
        short.prec = 50
        monkeypatch.setattr(analytic, "_EXACT", short)
        a, b = crossover_operands(1)
        with pytest.raises((decimal.Rounded, decimal.Inexact)):
            _mul(a, b, 0, len(a) + len(b) - 1)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this interpreter has no int/str digit limit")
    def test_no_whole_number_passes_between_int_and_str(self):
        a, b = crossover_operands(1)
        n = len(a) + len(b) - 1
        expected = oracle_mul(a, b, 0, n)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = _mul(a, b, 0, n)
            value = mascheroni_partial(0, 1, 4000, 64)
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == expected
        assert abs(value - gamma_reference()) < 1e-3


class TestValidation:
    """_validated_fixed must reject a stream whose certificate exceeds the
    tolerance, and return the one stream it certified."""

    T = _working_bits(64, 10) - 32  # 2**T: the tolerance below magnitude 1 at prec 64

    def _perturbed(self, monkeypatch, name, index, delta):
        """Add delta to entry index of the G_n(0) (name "_newton_zeros") or of
        the stream (name "_binomial_product") that _validated_fixed computes."""
        real = getattr(analytic, name)

        def fake(*args):
            out = real(*args)
            stream = list(out[0] if name == "_binomial_product" else out)
            stream[index] += delta
            return (tuple(stream), *out[1:]) if name == "_binomial_product" else tuple(stream)

        monkeypatch.setattr(analytic, name, fake)

    # the residual of a wrong entry is about that error, and T twice it: the
    # stream is refused from about half the tolerance on
    def test_rejects_a_mismatch_beyond_tolerance(self, monkeypatch):
        self._perturbed(monkeypatch, "_binomial_product", 3, 3 << (self.T - 2))
        with pytest.raises(ArithmeticError):
            _validated_fixed(F(0), 10, 64)
        with pytest.raises(ArithmeticError):
            gregory_value_float(0, 10, 64)

    def test_rejects_a_mismatch_beside_a_large_entry(self, monkeypatch):
        # |G_10(20)| is about 2^17, but the tolerance is the tightest entry's
        self._perturbed(monkeypatch, "_binomial_product", 3, 3 << self.T)
        with pytest.raises(ArithmeticError):
            _validated_fixed(F(20), 10, 64)

    def test_rejects_a_mismatch_in_the_target_precision_stream(self, monkeypatch):
        # a wrong G_3(0) out of the inversion reaches the stream through the product
        self._perturbed(monkeypatch, "_newton_zeros", 3, 3 << self.T)
        with pytest.raises(ArithmeticError):
            _validated_fixed(F(1, 2), 10, 64)

    def test_accepts_a_mismatch_within_tolerance(self, monkeypatch):
        clean = raw_stream(F(0), 10, _working_bits(64, 10))
        self._perturbed(monkeypatch, "_binomial_product", 3, -(3 << (self.T - 3)))
        stream, wp = _validated_fixed(F(0), 10, 64)
        assert wp == _working_bits(64, 10)
        assert stream == clean[:3] + (clean[3] - (3 << (self.T - 3)),) + clean[4:]


@st.composite
def certificate_cases(draw):
    den = draw(st.integers(1, 12))
    x = F(draw(st.integers(1 - den, 3 * den)), den)  # -1 < x <= 3
    n_max = draw(st.integers(0, 60))
    return x, n_max, _working_bits(draw(st.sampled_from([64, 128])), n_max)


def lemma_case(wp, binom, errs, noise):
    """T for any binomial series and stream, and the error it bounds.

    The stream c is binom h~ floored plus noise, h~ the exact inverse of
    _log_ratio(n, wp), and the true series is binom + errs.  Returns c's T
    with D = max |errs|, and the largest |c_n - ((binom + errs) h)_n|, h the
    exact Gregory numbers."""
    n, one = len(binom), 1 << wp
    f = [F(c, one) for c in _log_ratio(n, wp)]
    inv = [F(1)]
    for m in range(1, n):
        inv.append(-sum(f[i] * inv[m - i] for i in range(1, m + 1)))
    h = gregory_numbers_exact()
    c = tuple(math.floor(sum(binom[k] * inv[m - k] for k in range(m + 1))) + noise[m]
              for m in range(n))
    err = max(abs(c[m] - sum((binom[k] + errs[k]) * h[m - k] for k in range(m + 1)))
              for m in range(n))
    return _certificate(c, binom, max(map(abs, errs)), wp), err


def aligned(n, d):
    """Errors of size d that add up in entry n - 1: the signs of G_{n-1-k}(0)."""
    return [d if k == n - 1 or (n - 1 - k) % 2 else -d for k in range(n)]


@st.composite
def lemma_cases(draw):
    wp, n = draw(st.integers(4, 40)), draw(st.integers(1, 30))
    top = 1 << (wp + draw(st.integers(0, 12)))
    d = draw(st.integers(0, 1 << 10))
    binom = draw(st.lists(st.integers(-top, top), min_size=n, max_size=n))
    errs = draw(st.one_of(st.just(aligned(n, d)),
                          st.lists(st.integers(-d, d), min_size=n, max_size=n)))
    noise = draw(st.lists(st.integers(-(1 << 12), 1 << 12), min_size=n, max_size=n))
    return wp, binom, errs, noise


class TestCertificate:
    """T bounds the error of every entry of the stream it certifies."""

    @settings(max_examples=60, deadline=None)
    @given(lemma_cases())
    # the residual: one wrong entry of the stream
    @example((16, [1 << 16] + [0] * 9, [0] * 10, [0, 0, 0, 1000] + [0] * 6))
    # the 2D term: binomial errors that add up, on a stream of norm 1
    @example((16, [1 << 16] + [0] * 19, aligned(20, 100), [0] * 20))
    # the ||c||_1 term: f~'s roundings scaled by a stream of norm 2^10
    @example((16, [1 << 26] + [0] * 29, [0] * 30, [0] * 30))
    def test_lemma_holds_for_any_series(self, case):
        bound, err = lemma_case(*case)
        assert err <= bound

    @settings(max_examples=80, deadline=None)
    @given(certificate_cases())
    @example((F(1, 2), 60, _working_bits(64, 60)))
    def test_bound_covers_the_true_error(self, case):
        x, n_max, wp = case
        stream, bound = certified(x, n_max, wp)
        exact = gregory_values_exact(x, n_max)
        assert max(abs(c - g * 2**wp) for c, g in zip(stream, exact)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(certificate_cases())
    def test_d_bounds_the_binomial_floors(self, case):
        x, n_max, wp = case
        _, _, d = _binomial_product(x.numerator, x.denominator, _newton_zeros(n_max + 1, wp), wp)
        assert d >= binomial_errors(x, n_max, wp)[1]

    @pytest.mark.parametrize("x", [F(0), F(1, 2), F(7, 3), F(-1, 2)])
    def test_agrees_with_the_doubling_oracle(self, x):
        """The validation T replaced: the stream at about twice the bits
        agrees to prec/2 bits, and lies within both certificates."""
        n_max, prec = 1000, 64
        stream, wp = _validated_fixed(x, n_max, prec)
        bound = certified(x, n_max, wp)[1]
        wp2 = _working_bits(2 * prec, n_max)
        doubled, bound2 = certified(x, n_max, wp2)
        shift = wp2 - wp
        for a, b in zip(stream, doubled, strict=True):
            diff = abs((a << shift) - b)
            assert diff <= max(1 << (wp2 - prec // 2), abs(b) >> (prec // 2))
            assert diff <= (bound << shift) + bound2

    @pytest.mark.parametrize("x, bound", [(F(0), 7), (F(1, 2), 5342)])
    def test_bound_at_4000_terms(self, x, bound):
        assert certified(x, 4000, _working_bits(64, 4000))[1] == bound


class TestMemos:
    """A memoized stream needs no inversion, and one inversion serves every x."""

    def test_a_memoized_stream_inverts_nothing(self):
        first = mascheroni_partial(0, 1, 400)
        mascheroni_partial(0, 1, 300)
        assert mascheroni_partial(0, 1, 400) == first
        assert _newton_zeros.cache_info()[:2] == (0, 2)  # hits, misses

    def test_warm_inversions_invert_nothing(self):
        bla101_partial(1, F(0), 400, 64)
        bla101_partial(1, F(1, 2), 400, 64)  # a new stream on the memoized inversion
        assert _newton_zeros.cache_info()[:2] == (1, 1)


class TestTermCounts:
    """A negative term count is refused by name; zero terms is the empty sum."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: mascheroni_partial(0, 1, n),
            lambda n: bla101_partial(2, F(1, 2), n),
            lambda n: gregory_value_float(0, n),
            lambda n: _validated_fixed(F(7, 3), n, 64),
        ],
        ids=["mascheroni", "bla101", "gregory_value_float", "validated_fixed"],
    )
    def test_negative_count_refused_before_any_inversion(self, monkeypatch, call):
        def unreachable(*args):
            raise AssertionError("inverted for a negative term count")

        monkeypatch.setattr(analytic, "_newton_zeros", unreachable)
        with pytest.raises(ValueError, match="term count must be nonnegative, got -1"):
            call(-1)

    def test_zero_terms_is_the_empty_sum(self):
        with mpmath.workprec(64):
            assert mascheroni_partial(0, 1, 0) == 1 - mpmath.log(2)  # 0.30685...
            assert bla101_partial(2, F(1, 2), 0) == -(
                mpmath.log(mpmath.mpf(3) / 2) + mpmath.log(mpmath.mpf(5) / 2)) / 2
        assert gregory_value_float(F(7, 3), 0) == [1]


class TestMascheroniPartial:
    def test_classical_series_converges(self):
        got = mascheroni_partial(0, 0, 4000, 64)
        assert abs(got - gamma_reference(64)) < 3e-6

    def test_accelerated_series(self):
        got = mascheroni_partial(0, 1, 2000, 64)
        assert abs(got - gamma_reference(64)) < 1e-3

    def test_shifted_argument(self):
        got = mascheroni_partial(F(1, 2), 1, 2000, 64)
        assert abs(got - gamma_reference(64)) < 1e-3

    def test_doubling_gap_shrinks(self):
        gaps = []
        for n in (250, 1000, 4000):
            a = mascheroni_partial(0, 0, n, 64)
            b = mascheroni_partial(0, 0, 2 * n, 64)
            gaps.append(abs(a - b))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_bit_stable_under_precision_doubling(self):
        v64 = mascheroni_partial(0, 1, 1000, 64)
        v128 = mascheroni_partial(0, 1, 1000, 128)
        assert agrees_to_bits(v64, v128, 32)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            mascheroni_partial(-2, 0, 100, 64)
        with pytest.raises(ValueError):
            mascheroni_partial(0, -1, 100, 64)
        with pytest.raises(TypeError):
            mascheroni_partial(1j, 0, 100, 64)


class TestBla101Partial:
    def test_k1_is_mascheroni_bit_for_bit(self):
        for terms in (100, 1500):
            assert bla101_partial(1, 0, terms, 64) == mascheroni_partial(
                0, 0, terms, 64
            )
            assert bla101_partial(1, F(1, 2), terms, 64) == mascheroni_partial(
                F(1, 2), 0, terms, 64
            )

    def test_k2_converges(self):
        got = bla101_partial(2, 0, 3000, 64)
        assert abs(got - gamma_reference(64)) < 1e-3

    def test_k2_inverts_once_per_precision(self):
        # G_n(0) depends only on (n, wp): the two shifts share one inversion
        got = bla101_partial(2, 0, 3000, 64)
        assert _newton_zeros.cache_info()[:2] == (1, 1)  # hits, misses
        _newton_zeros(3001, _working_bits(64, 3000))
        assert _newton_zeros.cache_info().hits == 2  # the one inversion is at wp1
        # bit for bit the value of one inversion per shift
        assert got._mpf_ == (0, 10647717544068405195, -64, 64)

    def test_guards(self):
        with pytest.raises(ValueError):
            bla101_partial(0, 0, 100, 64)
        with pytest.raises(ValueError):
            bla101_partial(1, -1, 100, 64)

    @pytest.mark.parametrize("prec", [64, 128])
    @pytest.mark.parametrize("x", [F(0), F(1, 2), F(-1, 2)])
    @pytest.mark.parametrize("k", [2, 3])
    def test_shifted_column_matches_exact(self, k, x, prec):
        # the Gregory part, the value less its log term, against the exact
        # (1/k) sum_n (-1)^(n-1) N_{n,k}(x)/n
        terms = 40
        value, _, log_term = analytic._kluyver_mean(x, 0, k, terms, prec)
        exact = sum(F((-1) ** (n - 1), n) * N_nk(n, k, x) for n in range(1, terms + 1)) / k
        with mpmath.workprec(2 * prec):
            assert agrees_to_bits(value - log_term, analytic._to_mpf(exact), prec // 2)


class TestNnk:
    def test_k_one_collapses(self):
        assert N_nk(3, 1, F(1, 5)) == gregory_polynomial(3)(F(1, 5))

    def test_two_shifts(self):
        assert N_nk(1, 2, 0) == 2  # 1/2 + 3/2

    def test_direct_sum(self):
        expected = sum(gregory_polynomial(2)(F(-1) + j) for j in range(3))
        assert N_nk(2, 3, -1) == expected


class TestKluyverMean:
    """The one call `aconst gamma` makes: the series value, bit for bit the
    public partial sum's, and the two terms it added, bit for bit those
    computed on their own at prec (as the CLI once computed them)."""

    @pytest.mark.parametrize("x, m, k, prec", [
        (0, 0, 1, 64), (F(1, 2), 3, 1, 128), (F(7, 3), 1, 1, 64),
        (F(-1, 2), 0, 3, 64), (F(1, 3), 0, 2, 128),
    ])
    def test_value_and_terms(self, x, m, k, prec):
        value, h_m, log_term = analytic._kluyver_mean(x, m, k, 300, prec)
        public = mascheroni_partial(x, m, 300, prec) if k == 1 else bla101_partial(k, x, 300, prec)
        assert value._mpf_ == public._mpf_
        with mpmath.workprec(prec):
            logsum = sum(mpmath.log(analytic._to_mpf(F(x) + m + j)) for j in range(1, k + 1))
            assert h_m._mpf_ == analytic._to_mpf(harmonic(m))._mpf_
            assert log_term._mpf_ == (-logsum / k)._mpf_

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: analytic._kluyver_mean(0, -1, 1, 10, 64), "m must be nonnegative",
                     id="mean-m"),
        pytest.param(lambda: analytic._kluyver_mean(0, 0, 0, 10, 64), "k must be positive",
                     id="mean-k"),
        pytest.param(lambda: mascheroni_partial(0, -1, 10), "m must be nonnegative",
                     id="mascheroni_partial"),
        pytest.param(lambda: bla101_partial(0, 0, 10), "k must be positive", id="bla101_partial"),
    ])
    def test_argument_rules(self, call, message):
        # the CLI calls the mean itself, so the mean owns the series' rules
        with pytest.raises(ValueError, match=message):
            call()


class TestAsymptoticSanity:
    """The sign and size pattern of G_n at large n."""

    def test_sign_pattern_at_half(self):
        # the binomial product at full scale: x = 1/2 has no finite binomial series
        floats = gregory_value_float(F(1, 2), 10**4, 64)
        for n in [*range(1000, 1101), *range(9900, 10**4 + 1)]:
            assert (floats[n] > 0) == (n % 2 == 1)

    def test_magnitudes_decrease_at_zero(self):
        exact = gregory_values_exact(0, 200)
        for n in range(2, 200):
            assert abs(exact[n]) > abs(exact[n + 1])


class TestDrNumeric:
    """D_r(n; x) as a real number: the exact truncated sums reach the
    classical values to within their tails."""

    def test_exponential(self):
        with mpmath.workprec(160):
            assert agrees_to_bits(truncated_d(1, 0, 1), mpmath.exp(1), 120)

    def test_bessel_value(self):
        exact = besseli0_2_exact()
        assert _partial_sums_exact(2, 0, 40, 1)[0] == exact
        with mpmath.workprec(200):
            ref = mpmath.mpf(exact.numerator) / exact.denominator
            assert agrees_to_bits(ref, mpmath.besseli(0, 2), 120)

    def test_second_moment_is_twice_e(self):
        with mpmath.workprec(160):
            assert agrees_to_bits(truncated_d(1, 2, 1), 2 * mpmath.exp(1), 120)

    def test_bell_ratios(self):
        # sum k^n/k! = b(n) e exactly; 30 significant digits ~ 100 bits
        b = bell(10)
        with mpmath.workprec(160):
            e_val = truncated_d(1, 0, 1)
            for n in range(11):
                assert agrees_to_bits(truncated_d(1, n, 1) / e_val, mpmath.mpf(b[n]), 100)

    def test_negative_x(self):
        with mpmath.workprec(160):
            assert agrees_to_bits(truncated_d(1, 0, -1), mpmath.exp(-1), 120)

    def test_guards(self):
        # D_r needs r >= 1: the truncated sums and criterion 7's check refuse r = 0
        with pytest.raises(ValueError):
            _partial_sums_exact(0, 0, 60, 1)
        with pytest.raises(ValueError):
            numeric_identity_check(0, 0, 1, 60, F(1, 10**20))
