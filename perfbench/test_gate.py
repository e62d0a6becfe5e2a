"""Tests of the benchmark's correctness gate (run: python3 -m pytest perfbench).

They use small windows, so they take seconds, not a benchmark run.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from aconst.euler import verify_mascheroni  # noqa: E402
from aconst.modular import sieve_primes  # noqa: E402
from aconst.report import CheckRecord  # noqa: E402

XS = workloads.XS_EULER
LABELS = workloads.euler_grids(XS)[0]


def _mascheroni(window):
    report = verify_mascheroni(XS, window)
    return report, report.to_jsonl(include_timing=False)


def _gate(report, text, window, golden):
    out = workloads.Outcome()
    workloads.check_report(out, "mascheroni", report, text, window, LABELS, golden)
    return out


def test_gate_passes_on_a_correct_report():
    window = sieve_primes(5, 61)
    report, text = _mascheroni(window)
    out = _gate(report, text, window, workloads.golden_entry(report, text))
    assert out.failed == 0 and out.ops == len(report.checks) > 0


def test_gate_fails_on_a_corrupted_report_digest():
    window = sieve_primes(5, 61)
    report, text = _mascheroni(window)
    golden = workloads.golden_entry(report, text)
    c = report.checks[7]
    report.checks[7] = CheckRecord(c.prime, c.label, (c.lhs + 1) % c.prime, c.rhs, c.passed)
    out = _gate(report, report.to_jsonl(include_timing=False), window, golden)
    assert out.failures() == ["mascheroni: report sha256 matches golden"]


def test_gate_fails_on_a_zero_check_run():
    report, text = _mascheroni([])
    assert report.passed  # vacuously: all([]) is True
    out = _gate(report, text, [], None)
    assert out.failed == 1 and out.failures() == ["mascheroni: at least one check"]
    assert out.attempted >= 1


def test_gate_fails_when_every_prime_is_skipped():
    window = sieve_primes(5, 13)
    report = verify_mascheroni([Fraction(1, 5 * 7 * 11 * 13)], window)
    out = workloads.Outcome()
    workloads.check_report(out, "mascheroni", report, "", window, ["x=1/5005"], None)
    assert not report.checks and "mascheroni: at least one check" in out.failures()


def test_gate_fails_on_a_missing_record():
    window = sieve_primes(5, 61)
    report, text = _mascheroni(window)
    del report.checks[3]
    out = _gate(report, text, window, None)
    assert "mascheroni: checks and skips cover each (prime, point) once" in out.failures()


def test_failed_check_counts_as_a_failed_operation():
    window = sieve_primes(5, 61)
    report, text = _mascheroni(window)
    c = report.checks[0]
    report.checks[0] = CheckRecord(c.prime, c.label, c.lhs, c.rhs + 1, False)
    out = _gate(report, text, window, None)
    assert out.failed_ops == 1 and out.failed == 1


def test_seeds_draw_same_height_grids_and_seed_zero_is_the_acceptance_grid():
    assert workloads.euler_inputs(0)["xs"] == XS
    for seed in (1, 2, 3):
        xs = workloads.euler_inputs(seed)["xs"]
        assert xs == workloads.euler_inputs(seed)["xs"] and len(set(xs)) == len(XS)
        assert [x.denominator for x in xs] == [x.denominator for x in XS]
        assert all(abs(x.numerator) <= workloads.RATIONAL_HEIGHT for x in xs)


def test_search_gate_checks_hits_against_the_known_lists(tmp_path, monkeypatch):
    monkeypatch.setenv("ACONST_CACHE_DIR", str(tmp_path / "cache"))
    w = workloads.WORKLOADS["prime-search"]
    inp = w.inputs(5)
    inp["window"] = sieve_primes(5, 600)
    res = w.run(inp, 1)
    golden = {"eA_hits": json.loads(workloads.GOLDEN_PATH.read_text())["prime-search"]["eA_hits"]}
    assert w.check(inp, res, golden).failed == 0
    hits, records, written = res["cold"]["wilson"]
    res["cold"]["wilson"] = (hits[:-1], records, written)  # 563 missing
    assert w.check(inp, res, golden).failures() == ["wilson: hits match the known list",
                                                    "wilson: warm pass agrees with cold pass"]
