"""Command-line front end: congruence verifiers, prime searches, sequence
export in OEIS b-file form, and the real-series gamma evaluators.

Exit codes: 0 all checks passed, 1 a congruence failed (counterexample
printed), 2 a refused argv, an I/O error or nothing checked (a verifier
whose window is empty or whose every prime was skipped, a `cache verify`
that found no records it can recheck).  Negative rationals must use the
--x=-2/3 form (a bare "-2/3" parses as a flag).

Every refusal of an argv goes through its subcommand's parser (`args.parser`),
which prints that subcommand's usage line: an unknown option, an option the
chosen --which, --method or --name does not read (each leaf's `read_by`), a
rule across options, and a library ValueError or CertificateError (a window
past p < 2642247, gamma --x <= -1).  An OSError prints a bare `error:` line.
"""

from __future__ import annotations

import argparse
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import analytic, cache, dobinski, euler, searches
from .modular import sieve_primes
from .polys import gregory_values_exact

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d*[1-9]\d*)?$")  # a denominator is nonzero

#: `verify euler --which` names each theorem by its table key, log-additivity by logadd
_WHICH = {("logadd" if t == "log-additivity" else t): t for t in euler.THEOREMS}
#: the integer axes (--m, --k) with the --which that reads each; it defaults to its least value
_READ_BY = {a: (which, euler.LEAST[a]) for which, t in _WHICH.items()
            for a in euler.THEOREMS[t][1] if a in euler.LEAST}

#: partners paired with --x (and --x with itself) by `verify euler --which logadd`
LOGADD_PARTNERS = (
    Fraction(2),
    Fraction(3),
    Fraction(5),
    Fraction(1, 2),
    Fraction(-4),
    Fraction(7, 3),
)


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational literal (use a/b with b nonzero, or an integer)"
        )
    return Fraction(text)


def _int_at_least(low: int):
    """An argparse type: an integer >= low, else a clean usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value

    return parse


def _emit_report(report, args) -> int:
    report.timestamp = datetime.now(timezone.utc).isoformat()
    print(report.format_table())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_jsonl(include_timing=not args.no_timestamp))
        print(f"report written to {args.json}")
    if not report.checks:
        reason = f"{report.prime_count} window prime(s), {len(report.skipped)} skip(s)"
        print(f"error: no checks ran ({reason})", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


def _cmd_verify_dobinski(args) -> int:
    # rows n < r check D(n) against itself; redundant once the verifier skips them
    if args.nmax < args.r:
        args.parser.error("verify dobinski needs --nmax >= --r: rows n < r cannot fail")
    window = sieve_primes(args.pmin, args.pmax)
    report = dobinski.verify_dobinski(args.r, args.nmax, args.x, window)
    return _emit_report(report, args)


def _cmd_verify_euler(args) -> int:
    theorem = _WHICH[args.which]
    params = {axis: [args.x, *LOGADD_PARTNERS] if axis == "values" else [getattr(args, axis)]
              for axis in euler.THEOREMS[theorem][1]}
    report = euler.verify(theorem, params, sieve_primes(args.pmin, args.pmax), threads=args.threads)
    if theorem == "mascheroni" and args.x == -1:
        print("note: at x = -1 the right side reduces to the Wilson quotient")
    return _emit_report(report, args)


def _warn_damaged(damaged: dict[str, int]) -> None:
    for tag, count in sorted(damaged.items()):
        print(
            f"warning: skipped {count} damaged line(s) in {cache.cache_dir() / tag}.jsonl",
            file=sys.stderr,
        )


def _cmd_search(args) -> int:
    window = sieve_primes(args.pmin, args.pmax)
    if not window:
        args.parser.error(f"no primes in [{args.pmin}, {args.pmax}]")
    hits, records = searches.search_zero_primes(args.target, window)
    for p in hits:
        print(p)
    if not args.no_cache:
        damaged: dict[str, int] = {}
        added = cache.append_records(records, damaged)
        _warn_damaged(damaged)
        print(
            f"# {len(hits)} hit(s) in {len(window)} primes; cached {added} new residue(s)",
            file=sys.stderr,
        )
    return 0


def _sequence_lines(name: str, nmax: int, j: int) -> list[str]:
    if name == "bell":
        values = dobinski.bell(nmax)
    elif name == "g":
        values = dobinski.g_seq(nmax)
    elif name == "b2j":
        values = dobinski.coeff_family(2, nmax).b_values(1)[j]
    else:  # gregory
        values = gregory_values_exact(0, nmax)
    return [f"{n} {v}" for n, v in enumerate(values)]


def _cmd_seq(args) -> int:
    lines = _sequence_lines(args.name, args.nmax, args.j)
    for line in lines:
        print(line)
    if args.bfile:
        with open(args.bfile, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_gamma(args) -> int:
    import mpmath  # the one subcommand that loads it (see analytic)

    m, k = {"mascheroni": (0, 1), "kluyver": (args.m, 1), "bla101": (0, args.k)}[args.method]
    value, h_m, log_term = analytic._kluyver_mean(args.x, m, k, args.terms, args.prec)
    corrections = ([(f"-(1/{k}) sum log(x+j)", log_term)] if args.method == "bla101"
                   else [(f"H_{m}", h_m), (f"-log(x+{m + 1})", log_term)])
    print(f"method={args.method} x={args.x} terms={args.terms} prec={args.prec}")
    print(f"approx = {mpmath.nstr(value, 20)}")
    for label, v in corrections:
        print(f"  correction {label} = {mpmath.nstr(v, 20)}")
    with mpmath.workprec(args.prec):
        error = abs(value - analytic.gamma_reference(args.prec))
    print(f"|approx - gamma_ref| = {mpmath.nstr(error, 5)}")
    return 0


def _cmd_cache_verify(args) -> int:
    damaged: dict[str, int] = {}
    checked, mismatches = cache.verify_sample(args.sample, args.seed, damaged)
    _warn_damaged(damaged)
    print(f"checked {checked} cached record(s) from {cache.cache_dir()}")
    if not checked:
        print("error: no cached records to check", file=sys.stderr)
        return 2
    for rec, fresh in mismatches:
        print(f"MISMATCH {rec.tag} p={rec.prime}: cached {rec.residue}, fresh {fresh}")
    return 1 if mismatches else 0


def _add_window_opts(p: argparse.ArgumentParser, window: tuple[int, int]) -> None:
    p.add_argument("--pmin", type=int, default=window[0], help="window lower bound")
    p.add_argument("--pmax", type=int, default=window[1], help="window upper bound")
    p.add_argument("--json", metavar="PATH", help="write a JSONL report")
    p.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timing metadata so identical runs give identical reports",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aconst",
        description="Exact mod-p analogues of e and Euler's constant: "
        "verify the congruences, scan prime windows, export sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a congruence verifier")
    vsub = verify.add_subparsers(dest="family", required=True)

    vd = vsub.add_parser("dobinski", help="Bell-side congruence family")
    vd.add_argument("--r", type=_int_at_least(1), default=1, help="factorial power")
    vd.add_argument("--nmax", type=_int_at_least(0), default=10)
    vd.add_argument("--x", type=parse_rational, default=Fraction(1))
    _add_window_opts(vd, dobinski.DEFAULT_WINDOW)
    vd.set_defaults(fn=_cmd_verify_dobinski, parser=vd)

    ve = vsub.add_parser("euler", help="Euler-constant congruence family")
    ve.add_argument("--which", required=True, choices=list(_WHICH))
    ve.add_argument("--x", type=parse_rational, default=Fraction(0))
    for axis, meaning in (("m", "order"), ("k", "offset")):
        which, least = _READ_BY[axis]
        ve.add_argument(f"--{axis}", type=_int_at_least(least),
                        help=f"{meaning} (default {least}; for --which {which})")
    ve.add_argument("--threads", type=_int_at_least(0), default=0,
                    help="capped at cores; 0 = all")
    _add_window_opts(ve, euler.DEFAULT_WINDOW)
    ve.set_defaults(fn=_cmd_verify_euler, parser=ve, read_by=("which", _READ_BY))

    search = sub.add_parser("search", help="scan for vanishing components")
    search.add_argument("--target", required=True, choices=list(searches.SEARCH_TARGETS))
    search.add_argument("--pmin", type=int, default=5)
    search.add_argument("--pmax", type=int, required=True)
    search.add_argument("--no-cache", action="store_true")
    search.set_defaults(fn=_cmd_search, parser=search)

    seq = sub.add_parser("seq", help="print a sequence in b-file form")
    seq.add_argument("--name", required=True, choices=["bell", "g", "b2j", "gregory"])
    seq.add_argument("--nmax", type=_int_at_least(0), default=10)
    seq.add_argument("--j", type=int, choices=[0, 1], help="row (default 0; for --name b2j)")
    seq.add_argument("--bfile", metavar="PATH", help="also write to a b-file")
    seq.set_defaults(fn=_cmd_seq, parser=seq, read_by=("name", {"j": ("b2j", 0)}))

    gamma = sub.add_parser("gamma", help="real-series gamma approximations")
    gamma.add_argument(
        "--method", required=True, choices=["mascheroni", "kluyver", "bla101"]
    )
    gamma.add_argument("--x", type=parse_rational, default=Fraction(0))
    gamma.add_argument("--m", type=_int_at_least(0), help="order (default 1; for --method kluyver)")
    gamma.add_argument("--k", type=_int_at_least(1), help="offset (default 1; for --method bla101)")
    gamma.add_argument("--terms", type=_int_at_least(1), default=1000)
    gamma.add_argument(
        "--prec", type=_int_at_least(64), default=64, help="precision in bits"
    )
    gamma.set_defaults(fn=_cmd_gamma, parser=gamma,
                       read_by=("method", {"m": ("kluyver", 1), "k": ("bla101", 1)}))

    cachep = sub.add_parser("cache", help="residue cache maintenance")
    csub = cachep.add_subparsers(dest="action", required=True)
    cv = csub.add_parser("verify", help="recompute a random sample of cached residues")
    cv.add_argument("--sample", type=_int_at_least(1), default=20)
    cv.add_argument("--seed", type=int, default=None)
    cv.set_defaults(fn=_cmd_cache_verify, parser=cv)

    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    # read_by: (the choice's dest, {option only one choice reads: (that choice, default)})
    choice, read_by = getattr(args, "read_by", (None, {}))
    for option, (reader, default) in read_by.items():
        if getattr(args, option) is None:
            setattr(args, option, default)
        elif getattr(args, choice) != reader:
            args.parser.error(f"--{option} is read only by --{choice} {reader}")
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, analytic.CertificateError) as exc:  # the library refuses the argv
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
