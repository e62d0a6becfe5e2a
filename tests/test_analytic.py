import decimal
import math
import os
import random
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from operator import mul

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aconst import analytic
from aconst.analytic import (
    GAMMA_REF_DIGITS,
    _gregory_fixed,
    _mul,
    _signed_pack,
    _signed_unpack,
    _validated_fixed,
    _working_bits,
    agrees_to_bits,
    asymptotic_sanity,
    bla101_partial,
    d_r_numeric,
    gamma_reference,
    gregory_value_float,
    mascheroni_partial,
)
from aconst.dobinski import bell
from aconst.euler import harmonic
from aconst.polys import gregory_values_exact

F = Fraction


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
            lambda: asymptotic_sanity(0, 1000, 16),
        ],
        ids=["gregory_value_float", "mascheroni_partial", "bla101_partial", "asymptotic_sanity"],
    )
    def test_prec_guard(self, call):
        with pytest.raises(ValueError):
            call()


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
        got = _gregory_fixed(x.numerator, x.denominator, n_max, wp)
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
        got = _gregory_fixed(x.numerator, x.denominator, n_max, wp)
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
            _gregory_fixed.cache_clear()
            analytic._zero_memo.clear()
            streams.append(_gregory_fixed(0, 1, 4000, wp))
        _gregory_fixed.cache_clear()
        analytic._zero_memo.clear()
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
        _gregory_fixed.cache_clear()
        analytic._zero_memo.clear()
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
    """_validated_fixed must reject streams that disagree under doubling."""

    def _perturbed(self, monkeypatch, index, delta):
        real = analytic._gregory_fixed
        wp2 = _working_bits(128, 10)

        def fake(num, den, n_max, wp):
            stream = list(real(num, den, n_max, wp))
            if wp == wp2:
                stream[index] += delta(wp2 - 32)
            return tuple(stream)

        monkeypatch.setattr(analytic, "_gregory_fixed", fake)

    def test_rejects_a_mismatch_beyond_tolerance(self, monkeypatch):
        # at prec 64 the tolerance below magnitude 1 is 2**(wp2 - 32)
        self._perturbed(monkeypatch, 3, lambda t: 3 << t)
        with pytest.raises(ArithmeticError):
            _validated_fixed(F(0), 10, 64)
        with pytest.raises(ArithmeticError):
            gregory_value_float(0, 10, 64)

    def test_accepts_a_mismatch_within_tolerance(self, monkeypatch):
        self._perturbed(monkeypatch, 3, lambda t: -(1 << t) // 4)
        stream, wp = _validated_fixed(F(0), 10, 64)
        assert stream == _gregory_fixed(0, 1, 10, wp)


def cold_series(k, x, terms=400):
    """bla101_partial from empty stream and inversion memos, as its _mpf_."""
    _gregory_fixed.cache_clear()
    analytic._zero_memo.clear()
    return bla101_partial(k, x, terms, 64)._mpf_


@contextmanager
def second_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def forks(monkeypatch):
    """The list of os.fork calls made while the test runs."""
    calls = []
    real = os.fork

    def counted():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.mark.skipif(not hasattr(os, "fork"), reason="this platform has no os.fork")
class TestConcurrentValidation:
    """_validated_fixed inverts wp1 in a forked child while it inverts wp2."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("x", [F(0), F(1, 2), F(7, 3)])
    def test_fork_changes_no_bit(self, forks, monkeypatch, x, k):
        forked = cold_series(k, x)
        assert len(forks) == 1  # the k shifts share one pair of inversions
        with second_thread():
            threaded = cold_series(k, x)
        monkeypatch.delattr(os, "fork")
        unforked = cold_series(k, x)
        assert len(forks) == 1
        assert forked == threaded == unforked

    def test_no_fork_while_another_thread_runs(self, forks):
        with second_thread():
            cold_series(1, F(0))
        assert not forks

    def test_warm_inversions_fork_nothing(self, forks):
        cold_series(1, F(0))
        bla101_partial(1, F(1, 2), 400, 64)  # a new stream on memoized inversions
        assert len(forks) == 1

    @pytest.mark.parametrize("failure", ["raise", "exit", "short"])
    def test_a_failed_child_leaves_wp1_to_this_process(self, forks, monkeypatch, failure):
        expected = cold_series(2, F(1, 2))
        me = os.getpid()
        real_zeros, real_dumps = analytic._newton_zeros, analytic.marshal.dumps

        def child_fails(n, wp):
            if os.getpid() != me and failure == "raise":
                raise RuntimeError("the child's inversion fails")
            if os.getpid() != me and failure == "exit":
                os._exit(3)
            return real_zeros(n, wp)

        monkeypatch.setattr(analytic, "_newton_zeros", child_fails)
        if failure == "short":
            monkeypatch.setattr(analytic.marshal, "dumps", lambda v: real_dumps(v)[:-5])
        assert cold_series(2, F(1, 2)) == expected
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_a_failed_parent_reaps_its_child(self, forks, monkeypatch, exc):
        me = os.getpid()
        real = analytic._newton_zeros

        def parent_fails(n, wp):
            if os.getpid() == me:
                raise exc("this process's inversion fails")
            return real(n, wp)

        monkeypatch.setattr(analytic, "_newton_zeros", parent_fails)
        with pytest.raises(exc, match="this process's inversion fails"):
            cold_series(1, F(0), terms=4000)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not analytic._zero_memo


class TestTermCounts:
    """A negative term count is refused by name; zero terms is the empty sum.
    asymptotic_sanity refuses both (TestAsymptoticSanity)."""

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
            raise AssertionError("inverted or forked for a negative term count")

        monkeypatch.setattr(analytic, "_newton_zeros", unreachable)
        monkeypatch.setattr(os, "fork", unreachable)
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

    def test_k2_inverts_once_per_precision(self, monkeypatch, tmp_path):
        # G_n(0) depends only on (n, wp): the two shifts share both inversions.
        # Each inversion logs its process and precision to a file, which the
        # child that may invert wp1 can append to as well.
        log = tmp_path / "inversions"
        real = analytic._newton_zeros

        def logged(n, wp):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {wp}\n")
            return real(n, wp)

        monkeypatch.setattr(analytic, "_newton_zeros", logged)
        _gregory_fixed.cache_clear()
        analytic._zero_memo.clear()
        got = bla101_partial(2, 0, 3000, 64)
        runs = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert sorted(wp for _, wp in runs) == [_working_bits(64, 3000), _working_bits(128, 3000)]
        # bit for bit the value of one inversion per shift
        assert got._mpf_ == (0, 10647717544068405195, -64, 64)

    def test_guards(self):
        with pytest.raises(ValueError):
            bla101_partial(0, 0, 100, 64)
        with pytest.raises(ValueError):
            bla101_partial(1, -1, 100, 64)


class TestAsymptoticSanity:
    def test_half_ratio_bracket(self):
        # confirmed by the n = 10^4 run before freezing (ratio 0.90 there)
        ratio = asymptotic_sanity(F(1, 2), 1000)
        assert 0.5 < ratio < 2.0

    def test_half_ratio_bracket_at_ten_thousand(self):
        # the binomial product at full scale: x = 1/2 has no finite binomial series
        ratio = asymptotic_sanity(F(1, 2), 10**4)
        assert 0.5 < ratio < 2.0

    def test_sign_pattern_at_half(self):
        floats = gregory_value_float(F(1, 2), 1100, 64)
        for n in range(1000, 1101):
            assert (floats[n] > 0) == (n % 2 == 1)

    def test_magnitudes_decrease_at_zero(self):
        exact = gregory_values_exact(0, 200)
        for n in range(2, 200):
            assert abs(exact[n]) > abs(exact[n + 1])

    def test_integer_x_uses_correction_term(self):
        # sin(pi x) = 0 at x = 0: the 1/log n term carries the whole estimate
        ratio = asymptotic_sanity(0, 2000)
        assert 0.3 < ratio < 3.0

    def test_small_n_rejected(self):
        for n in (100, 0, -1):
            with pytest.raises(ValueError, match="n >= 1000"):
                asymptotic_sanity(F(1, 2), n)


class TestDrNumeric:
    def test_exponential(self):
        got = d_r_numeric(1, 0, 1, 128)
        with mpmath.workprec(160):
            assert agrees_to_bits(got, mpmath.exp(1), 120)

    def test_bessel_value(self):
        got = d_r_numeric(2, 0, 1, 128)
        exact = besseli0_2_exact()
        with mpmath.workprec(200):
            ref = mpmath.mpf(exact.numerator) / exact.denominator
            assert agrees_to_bits(got, ref, 120)
            assert agrees_to_bits(got, mpmath.besseli(0, 2), 120)

    def test_second_moment_is_twice_e(self):
        got = d_r_numeric(1, 2, 1, 128)
        with mpmath.workprec(160):
            assert agrees_to_bits(got, 2 * mpmath.exp(1), 120)

    def test_bell_ratios(self):
        # sum k^n/k! = b(n) e exactly; 30 significant digits ~ 100 bits
        prec = 160
        b = bell(10)
        e_val = d_r_numeric(1, 0, 1, prec)
        for n in range(11):
            got = d_r_numeric(1, n, 1, prec)
            with mpmath.workprec(prec):
                assert agrees_to_bits(got / e_val, mpmath.mpf(b[n]), 100)

    def test_negative_x(self):
        got = d_r_numeric(1, 0, -1, 128)
        with mpmath.workprec(160):
            assert agrees_to_bits(got, mpmath.exp(-1), 120)

    def test_guards(self):
        with pytest.raises(ValueError):
            d_r_numeric(0, 0, 1)
