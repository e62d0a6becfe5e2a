import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from aconst.report import CheckRecord, SkipRecord, VerificationReport


def dumps_jsonl(rep, include_timing=True):
    """Oracle: the json.dumps(sort_keys=True) serializer the line templates replace."""
    lines = [json.dumps({"type": "header", "theorem": rep.theorem, "params": rep.params,
                         "window": {"lo": rep.window_lo, "hi": rep.window_hi,
                                    "primes": rep.prime_count}}, sort_keys=True)]
    for c in rep.checks:
        lines.append(json.dumps({"type": "check", "p": c.prime, "label": c.label, "lhs": c.lhs,
                                 "rhs": c.rhs, "pass": c.passed}, sort_keys=True))
    for sk in rep.skipped:
        lines.append(json.dumps({"type": "skip", "p": sk.prime, "label": sk.label,
                                 "reason": sk.reason}, sort_keys=True))
    summary = {
        "type": "summary",
        "checks": len(rep.checks),
        "passed": sum(c.passed for c in rep.checks),
        "failed": sum(not c.passed for c in rep.checks),
    }
    if include_timing:
        summary["elapsed"] = rep.elapsed
        summary["timestamp"] = rep.timestamp
    lines.append(json.dumps(summary, sort_keys=True))
    return "\n".join(lines) + "\n"


# quotes, backslashes, control characters, non-ASCII and astral text, lone surrogates
texts = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d4b3'),
                          st.characters(blacklist_categories=())), max_size=12)
residues = st.one_of(st.integers(-10, 10), st.integers(), st.integers(-10**60, 10**60))
checks = st.lists(st.builds(CheckRecord, residues, texts, residues, residues, st.booleans()),
                  max_size=12)
skips = st.lists(st.builds(SkipRecord, residues, texts, texts), max_size=6)
reports = st.builds(
    VerificationReport, texts, st.dictionaries(texts, st.one_of(residues, texts), max_size=3),
    residues, residues, residues, checks, skips,
    st.floats(allow_nan=False), texts,
)
EMPTY = VerificationReport("mascheroni", {}, 0, 0, 0)
FALLBACK = VerificationReport(
    "dobinski", {"x": "1"}, 5, 7, 2,
    checks=[CheckRecord(5, "n=0", None, 3, False), CheckRecord(7, "n=1", True, 1, True),
            CheckRecord(7, "n=2", 1, False, False), CheckRecord(7, "n=3", 2, 2, 1),
            CheckRecord(None, "n=4", 2, 2, True), CheckRecord(7, 1.0, 2, 2, True),
            CheckRecord(7, 1, 2, 2, True)],
    skipped=[SkipRecord(5, None, "why"), SkipRecord(True, "", "why"), SkipRecord(7, "", 2)],
)


class TestTemplatesMatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(reports)
    @example(EMPTY)
    @example(FALLBACK)
    @example(VerificationReport(
        "t", {}, 5, 5, 1,
        checks=[CheckRecord(5, 'a"b\\c\x01\u00e9', 0, -3, False),
                CheckRecord(5, "", 10**50, -(10**50), False)],
        skipped=[SkipRecord(5, "\u2603", 'p "divides"\n')],
    ))
    def test_bytes_equal_and_round_trip(self, rep):
        for include_timing in (True, False):
            text = rep.to_jsonl(include_timing)
            assert text == dumps_jsonl(rep, include_timing)
            back = VerificationReport.from_jsonl(text)
            assert back.checks == rep.checks and back.skipped == rep.skipped
            assert back.to_jsonl(include_timing) == text

    def test_fallback_records_keep_their_types(self):
        text = FALLBACK.to_jsonl(include_timing=False)
        assert '"lhs": null' in text and '"lhs": true' in text and '"rhs": false' in text
        back = VerificationReport.from_jsonl(text)
        assert [type(c.lhs) for c in back.checks[:3]] == [type(None), bool, int]
        assert [type(c.label) for c in back.checks[-2:]] == [float, int]




def sample_report():
    return VerificationReport(
        theorem="dobinski",
        params={"r": 1, "n_max": 2, "x": "1"},
        window_lo=5,
        window_hi=11,
        prime_count=3,
        checks=[
            CheckRecord(5, "n=0", 0, 0, True),
            CheckRecord(5, "n=1", 1, 1, True),
            CheckRecord(7, "n=0", 4, 4, True),
        ],
        skipped=[SkipRecord(11, "", "p divides den(x)")],
        elapsed=0.25,
        timestamp="2026-01-01T00:00:00+00:00",
    )


class TestReport:
    def test_pass_state(self):
        rep = sample_report()
        assert rep.passed
        assert rep.pass_rate == 1.0
        assert rep.counterexamples() == []

    def test_failure_detection(self):
        rep = sample_report()
        rep.checks.append(CheckRecord(7, "n=1", 2, 3, False))
        assert not rep.passed
        assert rep.counterexamples() == [CheckRecord(7, "n=1", 2, 3, False)]
        assert 0 < rep.pass_rate < 1

    def test_roundtrip_with_timing(self):
        rep = sample_report()
        text = rep.to_jsonl()
        back = VerificationReport.from_jsonl(text)
        assert back == rep
        assert back.to_jsonl() == text

    def test_roundtrip_without_timing(self):
        rep = sample_report()
        text = rep.to_jsonl(include_timing=False)
        back = VerificationReport.from_jsonl(text)
        assert back.checks == rep.checks
        assert back.skipped == rep.skipped
        assert back.elapsed == 0.0
        assert back.timestamp == ""
        assert back.to_jsonl(include_timing=False) == text

    def test_table_mentions_failures(self):
        rep = sample_report()
        rep.checks.append(CheckRecord(7, "n=1", 2, 3, False))
        table = rep.format_table()
        assert "FAILED" in table
        assert "p=7" in table
        assert "skipped 1: p divides den(x)" in table

    def test_table_of_empty_report_says_nothing_ran(self):
        rep = VerificationReport("mascheroni", {}, 0, 0, 0)
        table = rep.format_table()
        assert "no checks ran" in table
        assert "checks passed" not in table
        assert not rep.passed and rep.pass_rate == 0.0

    def test_sort_is_stable_within_prime(self):
        rep = sample_report()
        rep.checks.insert(0, CheckRecord(7, "n=9", 1, 1, True))
        rep.sort_records()
        assert [c.prime for c in rep.checks] == [5, 5, 7, 7]
        # within p=7 the insertion order survived
        assert [c.label for c in rep.checks if c.prime == 7] == ["n=9", "n=0"]

    def test_from_jsonl_requires_header(self):
        import pytest

        with pytest.raises(ValueError):
            VerificationReport.from_jsonl('{"type": "summary", "checks": 0}')
