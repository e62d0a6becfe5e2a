from aconst.report import CheckRecord, SkipRecord, VerificationReport


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
