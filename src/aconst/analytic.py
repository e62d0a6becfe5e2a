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
multiply, against O(n^2) wp-bit steps for the recurrence it replaced.
A product with a one-term operand (the binomial series at x = 0, the first
Newton step) is that term times a slice of the other and packs nothing.

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
that bound is an argument on paper, so every stream is certified as
computed, with one more product.  Let f~ be the rounded f that Newton
inverts, B the floored binomial series, c the output stream and h =
t/log(1+t), so h f = 1 and ||h||_1 = 2.  The residual rho = c f~ - B mod t^n
is exact (one _mul at scale 2**(2 wp)), c - B h = h (rho + c (f - f~)) with
|f - f~| <= 1/2 ulp, and |B_k - binom(x, k)| <= D ulps, with D carried
through the binomial recurrence.  So every entry satisfies

    |c_n - G_n(x)| <= T = 2 ceil(||rho||_inf) + ceil(||c||_1) + 2D + 1 ulps,

and a stream whose T exceeds the tolerance of some entry, max(2**(wp -
prec//2), |c_n| >> prec//2) ulps (prec/2 bits, relative above magnitude 1),
raises CertificateError.  At x = 0 and 4000 terms T is 7 ulps; at x = 1/2
it is 5342, nearly all of it 2D.  _gregory_fixed memoizes certified streams
by (x, n_max, prec), and _newton_zeros its last inversion, so the shifts
x + j of one series share one.

The reference value of Euler's constant is embedded as digits from an
independent published source (OEIS A001620); nothing here is allowed to be
its own oracle.

mpmath is imported inside the functions that build or return an mpf, so
importing this module, and every exact command of the package, leaves it
unloaded: about 20 ms and 4 MB less per process (BENCH_30.json).
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from operator import floordiv

from .euler import harmonic

#: Euler's constant to 100 decimal digits, from OEIS A001620.
GAMMA_REF_DIGITS = (
    "0.5772156649015328606065120900824024310421593359399235988057672348848677"
    "267776646709369470632917467495"
)


def gamma_reference(prec: int = 64) -> mpf:
    """The embedded reference gamma, rounded to prec bits (good to ~330 bits)."""
    from mpmath import mpf, workprec

    with workprec(prec):
        return +mpf(GAMMA_REF_DIGITS)


def _to_mpf(q: Fraction) -> mpf:
    from mpmath import mpf

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
    if len(a) == 1 or len(b) == 1:  # a scaled slice, zeros past the product's end
        (c,), other = (a, b) if len(a) == 1 else (b, a)
        out = [c * v for v in other[lo:hi]]
        return out + [0] * (hi - lo - len(out))
    bits = max(map(int.bit_length, a)) + max(map(int.bit_length, b))
    slot_bits = bits + min(len(a), len(b)).bit_length() + 1
    digits = slot_bits * 30103 // 100000 + 1  # 10**digits >= 2**slot_bits
    if min(len(a), len(b)) * bits >= _DECIMAL_MIN_BITS and digits <= _DECIMAL_MAX_SLOT_DIGITS:
        return _decimal_mul(a, b, lo, hi, digits)
    width = (slot_bits + 7) // 8
    return _signed_unpack(_signed_pack(a, width) * _signed_pack(b, width), lo, hi, width)


def _log_ratio(n: int, wp: int) -> list[int]:
    """The series f = log(1+t)/t = sum (-1)^i t^i/(i+1) to n terms, each
    coefficient rounded to the nearest ulp of 2**-wp: the one f that Newton
    inverts and the certificate multiplies by."""
    one = 1 << wp
    f = [(2 * one + i + 1) // (2 * i + 2) for i in range(n)]  # 1/(i+1), rounded
    f[1::2] = [-c for c in f[1::2]]
    return f


@lru_cache(maxsize=1)
def _newton_zeros(n: int, wp: int) -> tuple[int, ...]:
    """G_0(0)..G_{n-1}(0) scaled by 2**wp: Newton inversion of _log_ratio(n, wp).
    G_n(0) does not depend on x, so the shifts of one series share it."""
    f = _log_ratio(n, wp)
    g = [1 << wp]
    while len(g) < n:
        k = len(g)
        k2 = min(2 * k, n)
        e = [c >> wp for c in _mul(f[:k2], g, k, k2)]
        g += [-c >> wp for c in _mul(g[: k2 - k], e, 0, k2 - k)]
    return tuple(g)


def _binomial_product(
    num: int, den: int, zeros: tuple[int, ...], wp: int
) -> tuple[tuple[int, ...], list[int], int]:
    """G_0(x)..G_{n-1}(x) for x = num/den, scaled by 2**wp, from the n values
    G_k(0) in zeros: their product with the floored binomial series B of
    (1+t)**x, trimmed of trailing zeros.  Returns the stream, B and D, an
    integer bound in ulps on |B_k - binom(x, k) 2**wp| for every k < n."""
    n = len(zeros)
    last, e, d = 1 << wp, 0, 0
    binom = [last]
    for k in range(1, n):
        step, div = num - den * (k - 1), den * k
        last, rem = divmod(last * step, div)
        # the carried error times |step|/div, plus this floor's
        e = -(-e * abs(step) // div) + (rem != 0)
        d = max(d, e)
        if last:
            binom.append(last)
        elif not e:
            break  # every later term is exactly 0
        # else a floored 0 stays 0, but the exact terms of a non-integer x do not
    return tuple(c >> wp for c in _mul(binom, zeros, 0, n)), binom, d


def _certificate(stream: tuple[int, ...], binom: list[int], d: int, wp: int) -> int:
    """T in ulps of 2**-wp with |stream_n - G_n(x) 2**wp| <= T for every n,
    from the exact residual stream * _log_ratio - binom (module docstring)."""
    n = len(stream)
    rho = _mul(stream, _log_ratio(n, wp), 0, n)  # scaled by 2**(2 wp)
    for k, b in enumerate(binom):
        rho[k] -= b << wp
    return 2 * -(-max(map(abs, rho)) >> wp) + -(-sum(map(abs, stream)) >> wp) + 2 * d + 1


class CertificateError(ArithmeticError):
    """A stream whose certified error bound exceeds the tolerance."""


@lru_cache(maxsize=8)
def _gregory_fixed(num: int, den: int, n_max: int, prec: int) -> tuple[tuple[int, ...], int]:
    """The memo of certified streams: G_0(x)..G_{n_max}(x) for x = num/den,
    scaled by 2**wp, and wp = _working_bits(prec, n_max), each good to prec/2
    bits (relative to the value, absolute below magnitude 1).

    The stream is computed once, and its certificate T (_certificate) must
    lie within max(2**(wp - prec//2), |G_n| 2**(wp - prec//2)) ulps at every
    n; otherwise CertificateError is raised.
    """
    wp = _working_bits(prec, n_max)
    stream, binom, d = _binomial_product(num, den, _newton_zeros(n_max + 1, wp), wp)
    bound = _certificate(stream, binom, d, wp)
    need = prec // 2
    tol = max(1 << (wp - need), min(map(abs, stream)) >> need)
    if bound > tol:
        raise CertificateError(f"cannot certify G_n(x) to prec/2 bits at x={Fraction(num, den)}, "
                               f"terms={n_max}, prec={prec} (a higher prec may certify it)")
    return stream, wp


def _validated_fixed(x: Fraction, n_max: int, prec: int) -> tuple[tuple[int, ...], int]:
    """Fixed-point stream plus its scale, certified to prec/2 bits
    (_gregory_fixed), after the checks on prec and the term count."""
    if prec < 64:
        raise ValueError("prec must be at least 64")
    if n_max < 0:
        raise ValueError(f"term count must be nonnegative, got {n_max}")
    return _gregory_fixed(x.numerator, x.denominator, n_max, prec)


def gregory_value_float(x, n_max: int, prec: int = 64) -> list[mpf]:
    """Floating G_0(x)..G_{n_max}(x) at prec bits, each certified to prec/2
    bits; CertificateError where the fixed-point stream cannot be."""
    from mpmath import ldexp, mpf, workprec

    xf = Fraction(x)
    fixed, wp = _validated_fixed(xf, n_max, prec)
    with workprec(prec):
        return [ldexp(mpf(v), -wp) for v in fixed]


def _kluyver_mean(x, m: int, k: int, terms: int, prec: int) -> tuple[mpf, mpf, mpf]:
    # the mean over j < k of the Kluyver-type partial sums at x + j:
    # m! sum_n (-1)^(n-1) N_{n,k}(x) / (k n(n+1)...(n+m)) + H_m
    #   - (1/k) sum_{j=1}^k log(x+m+j), with N_{n,k}(x) = sum_{j<k} G_n(x+j);
    # returned with the two terms it adds to the Gregory sum, H_m and the log term
    from mpmath import ldexp, log, mpf, workprec

    if m < 0:
        raise ValueError("m must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    xf = Fraction(x)
    if xf <= -1:
        raise ValueError("x must exceed -1")
    streams, wps = zip(*(_validated_fixed(xf + j, terms, prec) for j in range(k)))
    # t_n = N_{n,k}(x) // (n(n+1)...(n+m)) for n = 1..terms, and n(n+1)...(n+m)
    # is perm(n+m, m+1); acc = t_1 - t_2 + t_3 - ...
    column = islice(map(sum, zip(*streams)), 1, None)
    t = list(map(floordiv, column, map(math.perm, range(m + 1, terms + m + 1), repeat(m + 1))))
    acc = sum(t[::2]) - sum(t[1::2])
    with workprec(prec):
        s = ldexp(mpf(acc), -wps[0])  # one scale: it depends on prec and terms only
        logsum = mpf(0)
        for j in range(1, k + 1):
            logsum = logsum + log(_to_mpf(xf + m + j))
        h_m, log_term = _to_mpf(harmonic(m)), -logsum / k
        return +(mpf(math.factorial(m)) * s / k + h_m + log_term), h_m, log_term


def mascheroni_partial(x, m: int, terms: int, prec: int = 64) -> mpf:
    """Partial Mascheroni/Kluyver-type approximation of Euler's constant:

    m! * sum_{n=1}^{terms} (-1)^(n-1) G_n(x) / (n(n+1)...(n+m))
        + H_m - log(x+m+1),   for real x > -1.
    """
    return _kluyver_mean(x, m, 1, terms, prec)[0]


def bla101_partial(k: int, x, terms: int, prec: int = 64) -> mpf:
    """Partial form of the k-fold shifted-Gregory identity for gamma:

    (1/k) sum_{n=1}^{terms} (-1)^(n-1) N_{n,k}(x)/n - (1/k) sum_{j=1}^k log(x+j),

    with N_{n,k}(x) the sum of G_n over x, x+1, ..., x+k-1.  At k = 1 this
    reproduces mascheroni_partial(x, 0, terms) bit for bit.
    """
    return _kluyver_mean(x, 0, k, terms, prec)[0]
