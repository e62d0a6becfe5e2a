"""Per-prime verification records and their JSONL serialization.

A VerificationReport is the output of every congruence verifier: one
CheckRecord per (prime, parameter point) with both sides' residues, one
SkipRecord per excluded component with the reason, and summary metadata.
Reports serialize to JSON-lines (header / check / skip / summary records)
and round-trip losslessly; timing metadata is optional so that identical
runs can produce byte-identical files.

The bytes are pinned: every line is what json.dumps(record, sort_keys=True)
writes with its default separators (", " and ": ") and ASCII-escaped
strings.  Check and skip lines come from fixed templates that reproduce
that contract, each distinct string going through json.dumps once (a
check line opens with its label's head, built once per report from the
label's quoted form); a record whose prime and residues are not exactly
int, flag not exactly bool or strings not exactly str falls back to
json.dumps.
tests/test_report.py keeps the json.dumps serializer as the oracle the
templates must match byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple


class CheckRecord(NamedTuple):
    prime: int
    label: str
    lhs: int
    rhs: int
    passed: bool


class SkipRecord(NamedTuple):
    prime: int
    label: str
    reason: str


class _Memo(dict):
    """key -> fn(key), computed on first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@dataclass
class VerificationReport:
    theorem: str
    params: dict
    window_lo: int
    window_hi: int
    prime_count: int
    checks: list[CheckRecord] = field(default_factory=list)
    skipped: list[SkipRecord] = field(default_factory=list)
    elapsed: float = 0.0
    timestamp: str = ""

    @property
    def passed(self) -> bool:
        """Some check ran and every check passed: zero checks never reads as a pass."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    @property
    def pass_rate(self) -> float:
        """Share of checks that passed; 0.0 when no check ran."""
        return sum(c.passed for c in self.checks) / len(self.checks) if self.checks else 0.0

    def counterexamples(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def to_jsonl(self, include_timing: bool = True) -> str:
        window = {"lo": self.window_lo, "hi": self.window_hi, "primes": self.prime_count}
        lines = [json.dumps({"type": "header", "theorem": self.theorem, "params": self.params,
                             "window": window}, sort_keys=True)]
        quoted, passed, failed = _Memo(json.dumps), 0, 0
        # a label's check lines open '{"label": <label>, "lhs": '
        heads = _Memo(lambda label: f'{{"label": {quoted[label]}, "lhs": ')
        for p, label, lhs, rhs, ok in self.checks:
            if type(p) is type(lhs) is type(rhs) is int and type(ok) is bool and type(label) is str:
                lines.append(f'{heads[label]}{lhs}, "p": {p}, '
                             f'"pass": {"true" if ok else "false"}, "rhs": {rhs}, "type": "check"}}')
            else:
                lines.append(json.dumps({"type": "check", "p": p, "label": label, "lhs": lhs,
                                         "rhs": rhs, "pass": ok}, sort_keys=True))
            passed += ok
            failed += not ok
        for p, label, reason in self.skipped:
            if type(p) is int and type(label) is type(reason) is str:
                lines.append(f'{{"label": {quoted[label]}, "p": {p}, '
                             f'"reason": {quoted[reason]}, "type": "skip"}}')
            else:
                lines.append(json.dumps({"type": "skip", "p": p, "label": label, "reason": reason},
                                        sort_keys=True))
        summary = {"type": "summary", "checks": len(self.checks), "passed": passed, "failed": failed}
        if include_timing:
            summary["elapsed"] = self.elapsed
            summary["timestamp"] = self.timestamp
        lines.append(json.dumps(summary, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "VerificationReport":
        report = None
        for line in text.splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            kind = rec["type"]
            if kind == "header":
                report = cls(
                    theorem=rec["theorem"],
                    params=rec["params"],
                    window_lo=rec["window"]["lo"],
                    window_hi=rec["window"]["hi"],
                    prime_count=rec["window"]["primes"],
                )
                continue
            if report is None:
                raise ValueError("no header record found")
            if kind == "check":
                report.checks.append(
                    CheckRecord(rec["p"], rec["label"], rec["lhs"], rec["rhs"], rec["pass"])
                )
            elif kind == "skip":
                report.skipped.append(SkipRecord(rec["p"], rec["label"], rec["reason"]))
            elif kind == "summary":
                report.elapsed = rec.get("elapsed", 0.0)
                report.timestamp = rec.get("timestamp", "")
        if report is None:
            raise ValueError("no header record found")
        return report

    def format_table(self, max_failures: int = 20) -> str:
        """Human-readable summary: one status line plus any counterexamples."""
        out = [
            f"{self.theorem}: {len(self.checks)} checks over "
            f"{self.prime_count} primes in [{self.window_lo}, {self.window_hi}], "
            f"{len(self.skipped)} skipped"
        ]
        if self.params:
            out.append("  params: " + ", ".join(f"{k}={v}" for k, v in self.params.items()))
        bad = self.counterexamples()
        if bad:
            out.append(f"  FAILED {len(bad)}/{len(self.checks)}:")
            for c in bad[:max_failures]:
                out.append(f"    p={c.prime} {c.label}: lhs={c.lhs} rhs={c.rhs}")
            if len(bad) > max_failures:
                out.append(f"    ... and {len(bad) - max_failures} more")
        elif self.checks:
            out.append(f"  all {len(self.checks)} checks passed")
        else:
            out.append("  no checks ran")
        if self.skipped:
            reasons: dict[str, int] = {}
            for s in self.skipped:
                reasons[s.reason] = reasons.get(s.reason, 0) + 1
            for reason, count in sorted(reasons.items()):
                out.append(f"  skipped {count}: {reason}")
        return "\n".join(out)

    def sort_records(self) -> None:
        """Deterministic ordering regardless of worker scheduling.

        Stable sort on the prime alone: within one prime, records keep the
        grid order they were generated in.
        """
        self.checks.sort(key=itemgetter(0))
        self.skipped.sort(key=itemgetter(0))
