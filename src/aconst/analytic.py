"""Real-number evaluation of the slowly converging series for Euler's constant.

The Gregory polynomial values G_n(x) are computed in fixed-point integer
arithmetic (values scaled by 2**wp; one ulp is 2**-wp) from the
factorization t(1+t)^x/log(1+t) = (1+t)^x * t/log(1+t), which the residue
path uses mod p too (polys.gregory_residue_stream):

* The Gregory numbers G_n(0) come from Newton inversion of
  f = log(1+t)/t = sum (-1)^i t^i/(i+1) (Brent and Kung, JACM 25, 1978),
  whose coefficients are rounded to the nearest ulp once.  A step from k
  to 2k terms takes two products: e = (f g)[k:2k], then g <- g - t^k (g e).
* One product with the binomial series binom(x, k), built by a floor
  recurrence and trimmed of trailing zeros, gives G_0(x)..G_n(x).  At an
  integer x >= 0 the trimmed series has x + 1 terms and the product costs
  O(n) steps.

Each product is one big-number multiply by Kronecker substitution (Harvey,
J. Symbolic Comput. 44, 2009): signed coefficients go into slots sized from
the operands' bit lengths and term count, and come out through a half-slot
bias.  A stream of n terms costs O(M(n wp)), with M(b) the cost of a b-bit
multiply, against O(n^2) wp-bit steps for the recurrence it replaced.  The
top Newton product (f g)[k:2k] is taken as (f[:k] g)[k:2k] + (f[k:] g)[:k],
two balanced products whose transforms peak lower than one 2k x k product.

Two engines do the multiply, and _mul picks one per product:

* CPython int (Karatsuba), in byte slots, for products whose shorter
  operand packs to fewer than _DECIMAL_MIN_BITS bits, and for slots wider
  than _DECIMAL_MAX_SLOT_DIGITS decimal digits;
* the standard library's decimal (libmpdec, a number-theoretic transform),
  in base-10^w slots packed by string join, for the rest.  The crossover is
  about where the two break even on the Newton and binomial products
  (BENCH_14.json); at 4000 terms every Newton product from k = 512 on
  is above it.

Both engines pack each operand once, as its slots plus a half-slot bias
less the bias, and read a slot of the product only after the bias is
added back, so no slot borrows from its neighbour.  The decimal engine is
exact by construction and by trap: it runs only through the module context
_EXACT (precision MAX_PREC, Inexact, Rounded, InvalidOperation and Overflow
trapped), never the ambient context, so a rounding raises instead of
returning wrong digits.  Only single slots, never a whole product, pass
between int and str, so the interpreter's int/str digit limit never applies
to a product.

Error bound, in ulps, with H = 1 + 1/2 + ... + 1/(n+1).  Each floor and
each rounding costs under one ulp.  In a Newton step the new block of the
residual f g - 1 is at most 2 + H plus the old residual times ||e||_1, and
||e||_1 is 1/2 at k = 1 and at most 1/6 beyond (0.058 at k = 2^13, the
largest k checked), so the residual stays below 2(2 + H).  As
g - t/log(1+t) is t/log(1+t) times that residual and sum_n |G_n(0)| = 2,
each computed G_n(0) is off by at most 4H + 8.  The binomial product gives

    |computed - G_n(x)| <= S (4H + 8) + 2D + 1,

with S = sum_{k<=n} |binom(x, k)| and D the largest floor error of the
binomial recurrence (S = 1 and D = 0 at x = 0; D <= n for -1 < x <= 1).
At x = 0 and n = 10^4 that is under 49 ulps (6 bits), well inside the
32 + bitlen(n) guard bits of _working_bits.

Exact rationals are hopeless at 10^4 terms (the denominators explode), and
the bound is an argument on paper, not a check of this code, so every
computed stream is still validated by precision doubling: recompute with
twice the target precision and demand agreement to half the target bits,
raising on any mismatch.

The two streams of a validation rest on two Newton inversions, one per
precision, and on a cold memo those are most of its time.  They are
independent, so when neither is memoized they run at once: a forked child
inverts at the target precision and hands its tuple back through a pipe
(marshal) while this process inverts at the doubled one.  The check still
compares two separately computed inversions, and every value is bit for bit
what the serial order gives.  That order is kept when os.fork is missing,
when another thread is alive (the child would hold a copy of only the
calling thread, and of any lock another thread held), and when the child
fails; this process then inverts both.  It is a bare fork, not _parallel's
process pool: the pool costs its import (about 50 ms), and on the
gamma-series workload a pool prototype peaked 13% higher in memory where
the child adds 5-6% (BENCH_27.json).

The reference value of Euler's constant is embedded as digits from an
independent published source (OEIS A001620); nothing here is allowed to be
its own oracle.
"""

from __future__ import annotations

import decimal
import marshal
import math
import os
import threading
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

import mpmath
from mpmath import mpf, workprec

from .euler import harmonic

#: Euler's constant to 100 decimal digits, from OEIS A001620.
GAMMA_REF_DIGITS = (
    "0.5772156649015328606065120900824024310421593359399235988057672348848677"
    "267776646709369470632917467495"
)


def gamma_reference(prec: int = 64) -> mpf:
    """The embedded reference gamma, rounded to prec bits (good to ~330 bits)."""
    with workprec(prec):
        return +mpf(GAMMA_REF_DIGITS)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} exactly")


def _to_mpf(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


def _working_bits(prec: int, n_max: int) -> int:
    # guard bits for the kernel's O(log n_max)-ulp error (module docstring)
    return prec + 32 + max(n_max, 1).bit_length()


#: A product goes to the decimal engine once its shorter operand packs to at
#: least this many bits: break-even lies between 56k and 105k bits on the
#: Newton and binomial products, and this puts each measured one on its
#: faster side (BENCH_14.json).
_DECIMAL_MIN_BITS = 3 << 15
#: Slots wider than this stay on int, so that converting one slot between int
#: and str never meets the lowest limit sys.set_int_max_str_digits accepts.
_DECIMAL_MAX_SLOT_DIGITS = 640
#: Exact integer arithmetic: any rounding, overflow or invalid operation raises.
#: Used only through its methods, never as the ambient context.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)


def _int_bias(n: int, width: int) -> int:
    """A half slot, 2**(8 width - 1), in each of n slots of width bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _signed_pack(coeffs: list[int], width: int) -> int:
    """sum c_i 2**(8 width i) for signed c_i with |c_i| < 2**(8 width - 1):
    one pack of the biased slots c_i + 2**(8 width - 1), less the bias."""
    half = 1 << (8 * width - 1)
    raw = b"".join(map(int.to_bytes, [c + half for c in coeffs], repeat(width), repeat("little")))
    return int.from_bytes(raw, "little") - _int_bias(len(coeffs), width)


def _signed_unpack(packed: int, lo: int, hi: int, width: int) -> list[int]:
    """Slots lo..hi-1 of a signed packed int whose slots are below 2**(8 width - 1).

    Below 2**(8 width hi) the packed int agrees with sum_{n<hi} c_n X^n,
    X = 2**(8 width).  Adding a half-slot bias to each of those slots makes
    every slot a digit c_n + X/2 in [0, X), so slicing cannot borrow from a
    neighbour; a carry out of slot hi-1 lands in one spare byte.
    """
    half = 1 << (8 * width - 1)
    low = packed & ((1 << 8 * width * hi) - 1)
    raw = (low + _int_bias(hi, width)).to_bytes(width * hi + 1, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half
            for i in range(width * lo, width * hi, width)]


def _decimal_bias(n: int, digits: int) -> Decimal:
    """A half slot, 5 * 10**(digits - 1), in each of n >= 1 slots of digits digits.

    Built by doubling the slot count with shifted adds, which is several times
    cheaper than parsing the n-slot string.
    """
    half = Decimal(5 * 10 ** (digits - 1))
    bias, slots = half, 1
    for bit in bin(n)[3:]:
        bias = _EXACT.add(_EXACT.scaleb(bias, slots * digits), bias)
        slots *= 2
        if bit == "1":
            bias = _EXACT.add(_EXACT.scaleb(bias, digits), half)
            slots += 1
    return bias


def _decimal_pack(coeffs: list[int], digits: int) -> Decimal:
    """sum c_i 10**(digits i) for signed c_i with |c_i| < 4 * 10**(digits - 1):
    one string join of the biased slots c_i + 5 * 10**(digits - 1), each
    exactly digits digits long, less the bias."""
    half = 5 * 10 ** (digits - 1)
    text = "".join(map(str, [c + half for c in reversed(coeffs)]))
    if len(text) != digits * len(coeffs):
        raise ArithmeticError("coefficient too wide for its decimal slot")
    return _EXACT.subtract(Decimal(text), _decimal_bias(len(coeffs), digits))


def _decimal_mul(a: list[int], b: list[int], lo: int, hi: int, digits: int) -> list[int]:
    """Slots lo..hi-1 of a b, packed base 10**digits with slots below 10**digits / 2.

    The product comes out with a half-slot bias added to every slot, so each
    slot is a digit string c_n + 10**digits / 2 read by slicing; only slots,
    never the whole product, pass between str and int.
    """
    n = max(len(a) + len(b) - 1, hi)  # slots past the product read 0
    half = 5 * 10 ** (digits - 1)
    prod = _EXACT.fma(_decimal_pack(a, digits), _decimal_pack(b, digits), _decimal_bias(n, digits))
    text = str(prod).zfill(n * digits)  # the top slot may have lost leading zeros
    return [int(text[(n - i - 1) * digits : (n - i) * digits]) - half for i in range(lo, hi)]


def _mul(a: list[int], b: list[int], lo: int, hi: int) -> list[int]:
    """Coefficients lo..hi-1 of the exact product of two integer series.

    Each coefficient is a sum of at most min(len(a), len(b)) products, so
    slots one bit wider than those bounds never carry into the next.
    """
    bits = max(map(int.bit_length, a)) + max(map(int.bit_length, b))
    slot_bits = bits + min(len(a), len(b)).bit_length() + 1
    digits = slot_bits * 30103 // 100000 + 1  # 10**digits >= 2**slot_bits
    if min(len(a), len(b)) * bits >= _DECIMAL_MIN_BITS and digits <= _DECIMAL_MAX_SLOT_DIGITS:
        return _decimal_mul(a, b, lo, hi, digits)
    width = (slot_bits + 7) // 8
    return _signed_unpack(_signed_pack(a, width) * _signed_pack(b, width), lo, hi, width)


def _newton_zeros(n: int, wp: int) -> tuple[int, ...]:
    """G_0(0)..G_{n-1}(0) scaled by 2**wp: Newton inversion of the rounded
    series log(1+t)/t."""
    one = 1 << wp
    f = [(2 * one + i + 1) // (2 * i + 2) for i in range(n)]  # 1/(i+1), rounded
    f[1::2] = [-c for c in f[1::2]]
    g = [one]
    while len(g) < n:
        k = len(g)
        k2 = min(2 * k, n)
        # (f g)[k:k2] = (f[:k] g)[k:k2] + (f[k:k2] g)[:k2-k]: two k x k
        # products, whose transforms peak lower than one 2k x k product
        e = [(c + d) >> wp for c, d in zip(_mul(f[:k], g, k, k2), _mul(f[k:k2], g, 0, k2 - k))]
        g += [-c >> wp for c in _mul(g[: k2 - k], e, 0, k2 - k)]
    return tuple(g)


#: The inversion memo: _newton_zeros(n, wp) by (n, wp), holding the two
#: most recently used keys, one per precision of the doubling validation.
_zero_memo: dict[tuple[int, int], tuple[int, ...]] = {}


def _remember_zeros(key: tuple[int, int], zeros: tuple[int, ...]) -> tuple[int, ...]:
    """Make key the newest entry of the inversion memo, dropping the oldest past two."""
    _zero_memo.pop(key, None)
    _zero_memo[key] = zeros
    if len(_zero_memo) > 2:
        del _zero_memo[next(iter(_zero_memo))]
    return zeros


def _gregory_zero_fixed(n: int, wp: int) -> tuple[int, ...]:
    """G_0(0)..G_{n-1}(0) scaled by 2**wp, through the inversion memo.  It
    does not depend on x, so every shift shares it."""
    zeros = _zero_memo.get((n, wp))
    return _remember_zeros((n, wp), _newton_zeros(n, wp) if zeros is None else zeros)


def _invert_both(n: int, wp1: int, wp2: int) -> None:
    """Put both inversions of a doubling validation into the memo at once.

    Only when neither is memoized: a forked child inverts at wp1 and writes
    the tuple to a pipe (marshal) while this process inverts at wp2.  The
    child leaves only by os._exit, so it runs no exit hook and flushes no
    stdio.  Without os.fork or with another thread alive (the child would
    copy only this thread, and any lock the others hold), nothing is done;
    when the child fails (fork error, nonzero exit, missing or short data),
    wp1 is left unmemoized.  Either way the caller's streams then invert in
    process, as if this were never called.  If this process's inversion
    raises, the child is killed and reaped before the exception propagates.
    """
    fork = getattr(os, "fork", None)
    if fork is None or threading.active_count() > 1:
        return
    if (n, wp1) in _zero_memo or (n, wp2) in _zero_memo:
        return
    rfd, wfd = os.pipe()
    try:
        pid = fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                pipe.write(marshal.dumps(_newton_zeros(n, wp1)))
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    with open(rfd, "rb") as pipe:
        try:
            _gregory_zero_fixed(n, wp2)
            data = pipe.read()
        except BaseException:
            os.kill(pid, 9)  # SIGKILL, whose number POSIX fixes
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if status == 0:
        try:
            zeros = marshal.loads(data)
        except (EOFError, ValueError):  # missing or short data
            return
        _remember_zeros((n, wp1), zeros)


@lru_cache(maxsize=8)
def _gregory_fixed(num: int, den: int, n_max: int, wp: int) -> tuple[int, ...]:
    """G_0(x)..G_{n_max}(x) for x = num/den, scaled by 2**wp.

    The Gregory numbers G_n(0) come from Newton inversion of the rounded
    series log(1+t)/t; their product with the binomial series of (1+t)**x,
    trimmed of trailing zeros, gives the stream (module docstring).
    """
    n = n_max + 1
    binom = [1 << wp]
    for k in range(1, n):
        binom.append(binom[-1] * (num - den * (k - 1)) // (den * k))
    while not binom[-1]:
        binom.pop()
    return tuple(c >> wp for c in _mul(binom, _gregory_zero_fixed(n, wp), 0, n))


def _validated_fixed(x: Fraction, n_max: int, prec: int) -> tuple[tuple[int, ...], int]:
    """Fixed-point stream plus its scale, stable to prec/2 bits under doubling.

    The stream is computed at wp1 and again at wp2, about twice the bits,
    each from its own Newton inversion.  When neither inversion is memoized
    the two run at once, wp1 in a forked child (_invert_both); without
    os.fork, with another thread alive, or when the child fails, they run
    one after the other in this process, as the streams ask for them.
    """
    if prec < 64:
        raise ValueError("prec must be at least 64")
    if n_max < 0:
        raise ValueError(f"term count must be nonnegative, got {n_max}")
    wp1 = _working_bits(prec, n_max)
    wp2 = _working_bits(2 * prec, n_max)
    _invert_both(n_max + 1, wp1, wp2)
    a = _gregory_fixed(x.numerator, x.denominator, n_max, wp1)
    b = _gregory_fixed(x.numerator, x.denominator, n_max, wp2)
    need = prec // 2
    shift = wp2 - wp1
    for n in range(n_max + 1):
        diff = abs((a[n] << shift) - b[n])
        # relative to the value, absolute below magnitude 1
        tol = max(1 << (wp2 - need), abs(b[n]) >> need)
        if diff > tol:
            raise ArithmeticError(f"unstable recurrence at n={n} (prec={prec})")
    return a, wp1


def gregory_value_float(x, n_max: int, prec: int = 64) -> list[mpf]:
    """Floating G_0(x)..G_{n_max}(x) at prec bits, validated by doubling."""
    xf = _as_fraction(x)
    fixed, wp = _validated_fixed(xf, n_max, prec)
    with workprec(prec):
        return [mpmath.ldexp(mpf(v), -wp) for v in fixed]


def agrees_to_bits(a, b, bits: int) -> bool:
    """|a - b| within 2^-bits, relative above magnitude 1, absolute below."""
    a, b = mpf(a), mpf(b)
    scale = max(1, abs(a), abs(b))
    return abs(a - b) <= scale * mpf(2) ** (-bits)


def _rising(n: int, length: int) -> int:
    return math.prod(range(n, n + length))


def _kluyver_mean(x, m: int, k: int, terms: int, prec: int) -> mpf:
    # the mean over j < k of the Kluyver-type partial sums at x + j:
    # m! sum_n (-1)^(n-1) N_{n,k}(x) / (k n(n+1)...(n+m)) + H_m
    #   - (1/k) sum_{j=1}^k log(x+m+j), with N_{n,k}(x) = sum_{j<k} G_n(x+j)
    xf = _as_fraction(x)
    if xf <= -1:
        raise ValueError("x must exceed -1")
    streams, wps = zip(*(_validated_fixed(xf + j, terms, prec) for j in range(k)))
    column = list(map(sum, zip(*streams)))
    acc = 0
    for n in range(1, terms + 1):
        t = column[n] // _rising(n, m + 1)
        acc = acc + t if n % 2 else acc - t
    with workprec(prec):
        s = mpmath.ldexp(mpf(acc), -wps[0])  # one scale: it depends on prec and terms only
        logsum = mpf(0)
        for j in range(1, k + 1):
            logsum = logsum + mpmath.log(_to_mpf(xf + m + j))
        return +(mpf(math.factorial(m)) * s / k + _to_mpf(harmonic(m)) - logsum / k)


def mascheroni_partial(x, m: int, terms: int, prec: int = 64) -> mpf:
    """Partial Mascheroni/Kluyver-type approximation of Euler's constant:

    m! * sum_{n=1}^{terms} (-1)^(n-1) G_n(x) / (n(n+1)...(n+m))
        + H_m - log(x+m+1),   for real x > -1.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _kluyver_mean(x, m, 1, terms, prec)


def bla101_partial(k: int, x, terms: int, prec: int = 64) -> mpf:
    """Partial form of the k-fold shifted-Gregory identity for gamma:

    (1/k) sum_{n=1}^{terms} (-1)^(n-1) N_{n,k}(x)/n - (1/k) sum_{j=1}^k log(x+j),

    with N_{n,k}(x) the sum of G_n over x, x+1, ..., x+k-1.  At k = 1 this
    reproduces mascheroni_partial(x, 0, terms) bit for bit.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return _kluyver_mean(x, 0, k, terms, prec)


def asymptotic_sanity(x, n: int, prec: int = 64) -> mpf:
    """Ratio of the computed G_n(x) to its two-term asymptotic main term.

    Descriptive only: expected within a small constant factor of 1 for
    large n, never asserted at tight tolerance.  Needs x > -1 and n >= 1000
    (below that the asymptotic regime has not set in).
    """
    if n < 1000:
        raise ValueError("asymptotic check needs n >= 1000")
    xf = _as_fraction(x)
    if xf <= -1:
        raise ValueError("x must exceed -1")
    stream, wp = _validated_fixed(xf, n, prec)
    with workprec(prec + 16):
        g_n = mpmath.ldexp(mpf(stream[n]), -wp)
        xm = _to_mpf(xf)
        logn = mpmath.log(n)
        gam = mpmath.gamma(xm + 1)
        bracket = mpmath.sinpi(xm) * gam + (
            mpmath.pi * mpmath.cospi(xm) * gam
            + mpmath.sinpi(xm) * gam * mpmath.digamma(xm + 1)
        ) / logn
        main = (-1) ** (n + 1) / (mpmath.pi * mpf(n) ** (xm + 1) * logn) * bracket
        ratio = g_n / main
    with workprec(prec):
        return +ratio


def d_r_numeric(r: int, n: int, x, prec: int = 64) -> mpf:
    """sum_k k^n x^k / (k!)^r, summed until terms drop below 2^-(prec+8)."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1, n >= 0")
    xf = _as_fraction(x)
    with workprec(prec + 16):
        xm = _to_mpf(xf)
        eps = mpf(2) ** (-(prec + 8))
        floor = max(n, 2, int(2 * abs(xm)) + 1)  # terms may grow until here
        total = mpf(1 if n == 0 else 0)
        w = mpf(1)
        k = 1
        while True:
            w = w * xm / mpf(k) ** r
            t = w * mpf(k) ** n
            total += t
            if k > floor and abs(t) < eps:
                break
            k += 1
        result = +total
    with workprec(prec):
        return +result
