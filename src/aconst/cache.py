"""Append-only JSONL cache of computed residues.

One file per quantity tag under the cache directory (override with the
ACONST_CACHE_DIR environment variable), one record per line, one record per
(tag, params, prime).  Appending is idempotent: records already present are
skipped byte-identically, so re-runs never grow or reorder the file.  A line
that does not parse (a torn write, or nesting too deep to decode) or holds a
prime below 2 or a residue outside [0, prime) is skipped and counted, never
fatal; the next append starts on a fresh line.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from .modular import sieve_primes

ENV_VAR = "ACONST_CACHE_DIR"


@dataclass(frozen=True)
class ResidueCacheRecord:
    tag: str
    params: dict
    prime: int
    residue: int

    def key(self) -> tuple:
        return (self.tag, json.dumps(self.params, sort_keys=True), self.prime)

    def to_json(self) -> str:
        return json.dumps(
            {
                "tag": self.tag,
                "params": self.params,
                "prime": self.prime,
                "residue": self.residue,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "ResidueCacheRecord":
        rec = json.loads(line)
        tag, params, prime, residue = rec["tag"], rec["params"], rec["prime"], rec["residue"]
        if not (isinstance(tag, str) and isinstance(params, dict)
                and type(prime) is int and type(residue) is int
                and prime >= 2 and 0 <= residue < prime):
            raise ValueError(f"malformed cache record: {line.strip()!r}")
        return cls(tag, params, prime, residue)


def cache_dir() -> Path:
    root = os.environ.get(ENV_VAR)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "aconst"


def _tag_file(tag: str) -> Path:
    return cache_dir() / f"{tag}.jsonl"


def load_records(tag: str, damaged: dict[str, int] | None = None) -> list[ResidueCacheRecord]:
    """The tag's records.  Unparseable lines are skipped; when a dict is given,
    damaged[tag] is raised by their number."""
    path = _tag_file(tag)
    if not path.exists():
        return []
    out = []
    bad = 0
    with path.open(errors="replace") as fh:
        for line in fh:
            if line.strip():
                try:
                    out.append(ResidueCacheRecord.from_json(line))
                except (ValueError, TypeError, KeyError, RecursionError):
                    bad += 1
    if bad and damaged is not None:
        damaged[tag] = damaged.get(tag, 0) + bad
    return out


def known_tags() -> list[str]:
    root = cache_dir()
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.jsonl"))


def _last_line_torn(path: Path) -> bool:
    """True when the file's last line lacks its newline (an interrupted append)."""
    if not path.exists() or path.stat().st_size == 0:
        return False
    with path.open("rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) != b"\n"


def append_records(
    records: list[ResidueCacheRecord], damaged: dict[str, int] | None = None
) -> int:
    """Add records not already cached; returns how many were new.  damaged is
    passed to load_records."""
    added = 0
    by_tag: dict[str, list[ResidueCacheRecord]] = {}
    for rec in records:
        by_tag.setdefault(rec.tag, []).append(rec)
    for tag, recs in by_tag.items():
        existing = {r.key() for r in load_records(tag, damaged)}
        new = []
        for rec in recs:
            key = rec.key()
            if key not in existing:
                existing.add(key)
                new.append(rec.to_json() + "\n")
        if not new:
            continue
        added += len(new)
        path = _tag_file(tag)
        path.parent.mkdir(parents=True, exist_ok=True)
        if _last_line_torn(path):  # never glue a record onto a torn last line
            new.insert(0, "\n")
        with path.open("a") as fh:
            fh.write("".join(new))
    return added


def verify_sample(
    sample: int = 20, seed: int | None = None, damaged: dict[str, int] | None = None
) -> tuple[int, list]:
    """Recompute a random sample of cached records; returns (checked, mismatches).
    damaged is passed to load_records and also counts records no rule can
    recompute (an unknown tag, or params no rule reads) and sampled records
    whose prime is composite."""
    from .searches import recompute, recompute_rule

    rng = random.Random(seed)
    mismatches = []
    checked = 0
    for tag in known_tags():
        records = load_records(tag, damaged)
        ok = [rec for rec in records if recompute_rule(rec.tag, rec.params)]
        bad = len(records) - len(ok)
        for rec in rng.sample(ok, min(sample, len(ok))):
            if sieve_primes(rec.prime, rec.prime) != [rec.prime]:
                bad += 1  # a composite prime marks a damaged line
                continue
            fresh = recompute(rec.tag, rec.params, rec.prime)
            checked += 1
            if fresh != rec.residue:
                mismatches.append((rec, fresh))
        if damaged is not None and bad:
            damaged[tag] = damaged.get(tag, 0) + bad
    return checked, mismatches
