"""Per-prime verification records and their JSONL serialization.

A VerificationReport is the output of every congruence verifier: one
CheckRecord per (prime, parameter point) with both sides' residues, one
SkipRecord per excluded component with the reason, and summary metadata.
Reports serialize to JSON-lines (header / check / skip / summary records)
and round-trip losslessly; timing metadata is optional so that identical
runs can produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckRecord:
    prime: int
    label: str
    lhs: int
    rhs: int
    passed: bool


@dataclass(frozen=True)
class SkipRecord:
    prime: int
    label: str
    reason: str


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
        lines = [
            json.dumps(
                {
                    "type": "header",
                    "theorem": self.theorem,
                    "params": self.params,
                    "window": {
                        "lo": self.window_lo,
                        "hi": self.window_hi,
                        "primes": self.prime_count,
                    },
                },
                sort_keys=True,
            )
        ]
        for c in self.checks:
            lines.append(
                json.dumps(
                    {
                        "type": "check",
                        "p": c.prime,
                        "label": c.label,
                        "lhs": c.lhs,
                        "rhs": c.rhs,
                        "pass": c.passed,
                    },
                    sort_keys=True,
                )
            )
        for s in self.skipped:
            lines.append(
                json.dumps(
                    {"type": "skip", "p": s.prime, "label": s.label, "reason": s.reason},
                    sort_keys=True,
                )
            )
        summary = {
            "type": "summary",
            "checks": len(self.checks),
            "passed": sum(c.passed for c in self.checks),
            "failed": sum(not c.passed for c in self.checks),
        }
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
        self.checks.sort(key=lambda c: c.prime)
        self.skipped.sort(key=lambda s: s.prime)
