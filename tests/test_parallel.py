"""The verifier driver: report bytes pinned across versions and thread
counts, shard independence, the whole-prime skips the driver records,
every batch being check_shard bound to its two side kernels, and the Euler
theorem table's grids rebuilding each report's params and labels.

Every pinned report's sha256 lives in golden_reports.json, keyed by the names
of VERIFIERS (library calls) and CLI_REPORTS (CLI argvs).  A report that moves
on purpose is re-pinned by hand there: the failure names the call, the pinned
hash and the computed one."""

import argparse
import concurrent.futures
import hashlib
import json
import random
import shlex
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from aconst import _parallel, cli, dobinski, euler
from aconst._parallel import check_shard, run_prime_shards, verify_primes
from aconst.modular import sieve_primes
from aconst.report import CheckRecord, SkipRecord

F = Fraction

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")
# sha256 of the report bytes under --no-timestamp (to_jsonl(include_timing=False)):
# a format that must not drift between versions or thread counts
GOLDEN = json.loads(GOLDEN_PATH.read_text())

# [2, 60] holds 2 and 3 (a whole-prime skip on the Euler side) and, for
# dobinski at x = 7/3, the coefficient-denominator skip at p = 3
WINDOW = sieve_primes(2, 60)
# the same primes out of order, some of them (2 among them) repeated
SHUFFLED = random.Random(20).sample(WINDOW + WINDOW[::4], len(WINDOW) + len(WINDOW[::4]))

# each verifier with its grid bound; a call adds the window and the thread count
VERIFIERS = {
    "dobinski": partial(dobinski.verify_dobinski, 2, 6, F(7, 3)),
    "mascheroni": partial(euler.verify_mascheroni, [F(0), F(-1), F(7, 3)]),
    "interlude": partial(euler.verify_interlude, [2, 3], [F(0), F(1, 2)]),
    "kluyver": partial(euler.verify_kluyver, [1, 2], [F(0), F(-2)]),
    "eisenstein": partial(euler.verify_eisenstein, [F(7, 3), F(0), F(-1)]),
    "log-additivity": partial(euler.verify_log_additivity, [F(2), F(1, 3), F(-4)]),
}

# CLI-scale windows; a run adds --threads (where the verifier takes it),
# --no-timestamp and --json
CLI_REPORTS = {
    "cli-dobinski": "verify dobinski --r 3 --nmax 20 --x 7/3 --pmin 5 --pmax 2003".split(),
    # the remainder tree over 169 primes (an odd count), x with a negative numerator
    "cli-dobinski-odd": "verify dobinski --r 2 --nmax 12 --x=-2/3 --pmin 2 --pmax 1013".split(),
    # the Euler ones at --threads 2: pool workers inherit the Gregory stream
    # memo by fork and lose what they add
    "cli-mascheroni": "verify euler --which mascheroni --x 1/2 --pmax 1009".split(),
    "cli-kluyver": "verify euler --which kluyver --m 3 --x 7/3 --pmax 1009".split(),
    "cli-interlude": "verify euler --which interlude --k 3 --x 1/2 --pmax 1009".split(),
    "cli-eisenstein": "verify euler --which eisenstein --x 7/3 --pmax 1009".split(),
    "cli-logadd": "verify euler --which logadd --x 7/3 --pmax 1009".split(),
    # residue slots widen from 4 to 5 bytes at p = 1626, inside these windows
    "cli-mascheroni-slots":
        "verify euler --which mascheroni --x 1/2 --pmin 1601 --pmax 1709".split(),
    "cli-kluyver-slots":
        "verify euler --which kluyver --m 3 --x 7/3 --pmin 1601 --pmax 1709".split(),
}


def _assert_pinned(name, data, made_by):
    digest = hashlib.sha256(data).hexdigest()
    assert digest == GOLDEN[name], (
        f"report {name!r} from {made_by} has sha256 {digest}; "
        f"{GOLDEN_PATH.name} pins {GOLDEN[name]}"
    )


def _library_report(name, threads, window=WINDOW):
    call = VERIFIERS[name]
    report = call(window, threads=threads)
    args = ", ".join(map(repr, call.args + (window,)))
    _assert_pinned(name, report.to_jsonl(include_timing=False).encode(),
                   f"{call.func.__name__}({args}, threads={threads})")
    return report


def _cli_report(name, threads, tmp_path):
    # verify dobinski has no --threads: its two runs are one and the same
    takes_threads = hasattr(cli.build_parser().parse_args(CLI_REPORTS[name]), "threads")
    run = CLI_REPORTS[name] + ["--threads", str(threads)] * takes_threads + ["--no-timestamp"]
    path = tmp_path / f"{name}-{threads}.jsonl"
    assert cli.main(run + ["--json", str(path)]) == 0, name
    _assert_pinned(name, path.read_bytes(), "aconst " + shlex.join(run))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_report_bytes_pinned(name, threads):
    report = _library_report(name, threads)
    assert report.checks and report.passed
    # verify_primes wraps check_shard's field tuples without _make's length check
    assert report.skipped
    assert all(type(r) is CheckRecord and len(r) == 5 for r in report.checks)
    assert all(type(r) is SkipRecord and len(r) == 3 for r in report.skipped)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_a_window_is_a_set_of_primes(name, threads):
    # order and repeats do not move a report byte: each prime is checked once
    assert SHUFFLED != WINDOW and len(set(SHUFFLED)) == len(WINDOW) < len(SHUFFLED)
    _library_report(name, threads, SHUFFLED)


@pytest.mark.parametrize("verify, repeated, distinct", [
    (euler.verify_mascheroni, ([0, F(0), "0"],), ([0],)),
    (euler.verify_interlude, ([2, 2], [0, "7/3", F(7, 3)]), ([2], [0, F(7, 3)])),
    (euler.verify_kluyver, ([1, 2, 1], [F(1, 2), "1/2"]), ([1, 2], [F(1, 2)])),
    (euler.verify_log_additivity, ([2, F(1, 3), 2],), ([2, F(1, 3)],)),
], ids=["mascheroni", "interlude", "kluyver", "log-additivity"])
def test_an_axis_is_a_set_of_values(verify, repeated, distinct):
    # a repeated value is one point, checked once, in the place it first took
    window = sieve_primes(2, 30)
    assert (verify(*repeated, window).to_jsonl(include_timing=False)
            == verify(*distinct, window).to_jsonl(include_timing=False))


def test_grid_rebuilds_each_euler_report():
    # the header's theorem and params give back the params and, at every prime
    # not skipped whole, the labels of that prime's records, merged in grid order
    reports = [VERIFIERS[name](WINDOW) for name in VERIFIERS if name != "dobinski"]
    assert sorted(r.theorem for r in reports) == sorted(euler.THEOREMS)
    for report in reports:
        params, points = euler.grid(report.theorem, report.params)
        assert params == report.params
        labels = [label for label, _ in points]
        whole = {s.prime for s in report.skipped if s.label == ""}
        for p in sorted(set(WINDOW) - whole):
            seen = [r.label for r in report.checks + report.skipped if r.prime == p]
            assert sorted(seen, key=labels.index) == labels, (report.theorem, p)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CLI_REPORTS))
def test_cli_report_bytes_pinned(name, threads, tmp_path):
    # one pin for both thread counts, so the two runs also agree byte for byte
    _cli_report(name, threads, tmp_path)


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_registry_pins_every_report_once():
    assert not VERIFIERS.keys() & CLI_REPORTS.keys()
    reports = VERIFIERS.keys() | CLI_REPORTS.keys()
    assert GOLDEN.keys() - reports == set(), "stale pins"
    assert reports - GOLDEN.keys() == set(), "unpinned reports"
    # every argv parses and leaves the options a run adds at their defaults;
    # every theorem the CLI verifies (each --which of a family that has one) is run
    parser = cli.build_parser()
    theorems = set()
    for family, sub in _subcommands(_subcommands(parser)["verify"]).items():
        which = [a.choices for a in sub._actions if a.dest == "which"]
        theorems |= set(which[0]) if which else {family}
    # the --which choices are the theorem table's keys, log-additivity's as logadd
    assert theorems - {"dobinski"} == {
        "logadd" if t == "log-additivity" else t for t in euler.THEOREMS}
    covered = set()
    for name, argv in CLI_REPORTS.items():
        args = parser.parse_args(argv)
        defaults = (getattr(args, "threads", 0), args.json, args.no_timestamp)
        assert defaults == (0, None, False), name
        covered.add(getattr(args, "which", args.family))
    assert covered == theorems


def test_shared_memos_move_no_report_byte(tmp_path):
    # every pinned report in one process, the memos never cleared between them,
    # in registry order and then reversed, so each also runs warm after the
    # others; the CLI ones share euler._stream, _ell and _wilson across
    # 1009-prime windows
    runs = [partial(_library_report, name, 1) for name in VERIFIERS]
    runs += [partial(_cli_report, name, 1, tmp_path) for name in CLI_REPORTS]
    for order in (runs, runs[::-1]):
        for run in order:
            run()


def test_report_header_counts_distinct_primes():
    report = euler.verify_mascheroni([F(0)], [7, 5, 5])
    assert (report.window_lo, report.window_hi, report.prime_count) == (5, 7, 2)
    assert [c.prime for c in report.checks] == [5, 7]
    with pytest.raises(ValueError, match="must be primes"):
        verify_primes("echo", {}, _echo_batch, (0,), [5, 9], 1, {})


def test_whole_prime_skips():
    small = euler.verify_mascheroni([F(0)], WINDOW)
    assert [(s.prime, s.label) for s in small.skipped] == [(2, ""), (3, "")]
    assert {s.reason for s in small.skipped} == {"excluded small prime (p <= 3)"}
    assert euler.verify_mascheroni([F(0)], [2, 3]).passed is False
    coeff = VERIFIERS["dobinski"](WINDOW)
    assert [(s.prime, s.label, s.reason) for s in coeff.skipped] == [
        (3, "", "p divides a coefficient denominator")
    ]
    assert 2 in {c.prime for c in coeff.checks}


def _echo_batch(payload):
    (offset,), primes = payload
    return [(p, "", p, p + offset, offset == 0) for p in primes], []


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_driver_sorts_and_skips(threads):
    report = verify_primes(
        "echo", {"offset": 0}, _echo_batch, (0,), WINDOW, threads, {7: "seven", 2: "two"}
    )
    assert (report.window_lo, report.window_hi, report.prime_count) == (2, 59, len(WINDOW))
    assert [c.prime for c in report.checks] == [p for p in WINDOW if p not in (2, 7)]
    assert [(s.prime, s.reason) for s in report.skipped] == [(2, "two"), (7, "seven")]
    assert report.passed and report.elapsed >= 0


def test_workers_capped_at_core_count(monkeypatch):
    # a huge thread count starts one worker per core, not one per prime, and
    # the shards, strided by the worker count, still cover every prime once
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 3)
    primes = sieve_primes(5, 1000)
    shards = run_prime_shards(_echo_batch, (0,), primes, 10**6)
    assert workers == [3] and len(shards) == 3
    serial_checks, _ = _echo_batch(((0,), primes))
    assert sorted(c for checks, _ in shards for c in checks) == serial_checks
    # threads = 0 asks for one worker per core
    assert run_prime_shards(_echo_batch, (0,), primes, 0) == shards
    assert workers == [3, 3]
    # one core: no pool at all
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert run_prime_shards(_echo_batch, (0,), primes, 10**6) == [(serial_checks, [])]
    assert run_prime_shards(_echo_batch, (0,), primes, 0) == [(serial_checks, [])]
    assert workers == [3, 3]


def _toy_lhs(ctx, left, right):
    return left


def _toy_rhs(ctx, left, right):
    return right


# a row point that carries its two rows: at "b" the right value 99 must never
# reach a record, and at "f" the left reason wins over the right one
TOY_ROW = (("a", "b", "c", "d", "e", "f"),
           ((1, "left", 3, 0, 4, "left f"), (1, 99, 4, "right", 4, "right f")))


def test_row_point_records_each_entry_in_label_order():
    checks, skips = check_shard(_toy_lhs, _toy_rhs, ([TOY_ROW], [5, 7]))
    assert checks == [
        (5, "a", 1, 1, True), (5, "c", 3, 4, False), (5, "e", 4, 4, True),
        (7, "a", 1, 1, True), (7, "c", 3, 4, False), (7, "e", 4, 4, True),
    ]
    assert skips == [(5, "b", "left"), (5, "d", "right"), (5, "f", "left f"),
                     (7, "b", "left"), (7, "d", "right"), (7, "f", "left f")]


def test_row_points_beside_scalar_points():
    # one grid may mix both kinds; records keep grid order, then label order
    grid = [("s", (2, 2)), TOY_ROW, ("t", ("left", 5)), ("u", (3, "right")), TOY_ROW]
    checks, skips = check_shard(_toy_lhs, _toy_rhs, (grid, [11]))
    assert [c[1] for c in checks] == ["s", "a", "c", "e", "a", "c", "e"]
    assert [s[1:] for s in skips] == [
        ("b", "left"), ("d", "right"), ("f", "left f"), ("t", "left"), ("u", "right"),
        ("b", "left"), ("d", "right"), ("f", "left f"),
    ]


@pytest.mark.parametrize("cut", ["left", "right", "labels"])
def test_row_of_the_wrong_length_raises(cut):
    # never a zip that stops early: a dropped entry would be a check that never ran
    labels, (left, right) = TOY_ROW
    point = (left[:-1] if cut == "left" else left, right[:-1] if cut == "right" else right)
    grid = [(labels + ("g",) if cut == "labels" else labels, point)]
    with pytest.raises(ValueError, match="entries"):
        check_shard(_toy_lhs, _toy_rhs, (grid, [5]))


@pytest.mark.parametrize("module", [dobinski, euler], ids=lambda m: m.__name__)
def test_every_batch_is_check_shard_bound_to_its_kernels(module):
    # a verifier is a grid and a kernel pair: no batch has a loop of its own
    # that could set a pass flag
    batches = [name for name in vars(module) if name.endswith("_batch")]
    assert batches
    for name in batches:
        batch, stem = getattr(module, name), name[: -len("_batch")]
        assert isinstance(batch, partial) and batch.func is check_shard, name
        assert batch.args == (getattr(module, stem + "_lhs"), getattr(module, stem + "_rhs"))
        assert not batch.keywords, name
