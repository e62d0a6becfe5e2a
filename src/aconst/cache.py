"""Append-only JSONL cache of computed residues.

One file per quantity tag under the cache directory (override with the
ACONST_CACHE_DIR environment variable), one record per line, one record per
(tag, params, prime); the first record of a key wins.  Every line is what
json.dumps(record, sort_keys=True) writes, and to_json fills a fixed
template with exactly those bytes.  Each record line is read as one (key,
record) pair, the key being the line's prefix before "residue": a line that
is byte for byte such a serialization of a valid record of its file's tag
without a JSON parse, any other line through from_json, keyed by the
record's to_json.  A line that does not parse (a torn write, or
nesting too deep to decode) or holds a prime below 2 or a residue outside
[0, prime) is skipped and counted, never fatal.

append_records reads a tag file once and adds only records whose key it
lacks, so re-runs never grow or reorder the file.  It writes the old bytes
verbatim, then the new lines, to a temp file in the same directory, which
os.replace puts in place: a killed search leaves the old file or the new
one, never a torn line.  A torn last line left by other means gets its
newline first.  No lock is taken: when two searches write one tag at once,
the last replace wins, and the other search's new residues are written by
its next run.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .modular import sieve_primes

ENV_VAR = "ACONST_CACHE_DIR"

_HEAD = '{"params": {}, "prime": '
_MID = ', "residue": '


@lru_cache(maxsize=None)
def _tail(tag: str) -> str:
    """What follows the residue on every canonical line of tag."""
    return f', "tag": {json.dumps(tag)}}}'


class ResidueCacheRecord(NamedTuple):  # a tuple, cheap to build for every line
    tag: str
    params: dict
    prime: int
    residue: int

    def to_json(self) -> str:
        """json.dumps of the record with sorted keys; a record whose tag is not
        exactly str, prime and residue not exactly int or params not an empty
        dict falls back to json.dumps."""
        tag, params, prime, residue = self
        if (type(tag) is str and type(prime) is type(residue) is int
                and type(params) is dict and not params):
            return f"{_HEAD}{prime}{_MID}{residue}{_tail(tag)}"
        return json.dumps(self._asdict(), sort_keys=True)  # never the tuple: it dumps as a list

    @classmethod
    def from_json(cls, line: str) -> "ResidueCacheRecord":
        rec = json.loads(line)
        tag, params, prime, residue = rec["tag"], rec["params"], rec["prime"], rec["residue"]
        if not (isinstance(tag, str) and isinstance(params, dict)
                and type(prime) is int and type(residue) is int
                and prime >= 2 and 0 <= residue < prime):
            raise ValueError(f"malformed cache record: {line.strip()!r}")
        return cls(tag, params, prime, residue)


def _key(line: str) -> str:
    # a record's line up to its residue: params, then prime (keys are sorted,
    # and no string of a line holds an unescaped quote)
    return line[: line.rindex(_MID)]


@lru_cache(maxsize=None)
def _line_pattern(tag: str) -> re.Pattern:
    """Each line of a tag file as (key, prime, residue, "") when it is to_json
    of a record of tag with empty params and a prime >= 2, else as ("", "", "",
    line).  Numbers of over 100 digits take the second form, so int() never
    meets the interpreter's int/str digit limit."""
    digits = r"(0|[1-9][0-9]{0,99})"
    return re.compile(f"^(?:({re.escape(_HEAD)}([2-9]|[1-9][0-9]{{1,99}})){re.escape(_MID)}"
                      f"{digits}{re.escape(_tail(tag))}$|(.*)$)", re.M)


def cache_dir() -> Path:
    root = os.environ.get(ENV_VAR)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "aconst"


def _tag_file(tag: str) -> Path:
    return cache_dir() / f"{tag}.jsonl"


def _read(tag: str, damaged: dict[str, int] | None) -> tuple[bytes, list]:
    """The tag file's bytes and one (key, record) pair per record line.
    Damaged lines are skipped; when a dict is given, damaged[tag] is raised
    by their number."""
    try:
        data = _tag_file(tag).read_bytes()
    except FileNotFoundError:
        return b"", []
    entries = []
    bad = 0
    # the lines open() gives: the locale's encoding, errors replaced, universal newlines
    text = io.TextIOWrapper(io.BytesIO(data), errors="replace").read()
    for key, prime, residue, line in _line_pattern(tag).findall(text):
        if key:
            prime, residue = int(prime), int(residue)
            if residue < prime:
                entries.append((key, ResidueCacheRecord(tag, {}, prime, residue)))
            else:
                bad += 1  # what from_json rejects
        elif line.strip():
            try:
                rec = ResidueCacheRecord.from_json(line)
                entries.append((_key(rec.to_json()), rec))
            except (ValueError, TypeError, KeyError, RecursionError):
                bad += 1
    if bad and damaged is not None:
        damaged[tag] = damaged.get(tag, 0) + bad
    return data, entries


def load_records(tag: str, damaged: dict[str, int] | None = None) -> list[ResidueCacheRecord]:
    """The tag's records.  Unparseable lines are skipped; when a dict is given,
    damaged[tag] is raised by their number."""
    return [rec for _, rec in _read(tag, damaged)[1]]


def known_tags() -> list[str]:
    root = cache_dir()
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.jsonl"))


def _replace(path: Path, data: bytes) -> None:
    """Write data to path through a temp file in its directory and os.replace;
    an existing file keeps its mode, a new one gets 0666 & ~umask."""
    try:
        mode = path.stat().st_mode & 0o7777
    except FileNotFoundError:
        mode = None
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def append_records(
    records: list[ResidueCacheRecord], damaged: dict[str, int] | None = None
) -> int:
    """Add records not already cached; returns how many were new.  damaged is
    counted as by load_records."""
    added = 0
    by_tag: dict[str, list[ResidueCacheRecord]] = {}
    for rec in records:
        by_tag.setdefault(rec.tag, []).append(rec)
    for tag, recs in by_tag.items():
        old, entries = _read(tag, damaged)
        seen = {key for key, rec in entries if rec.tag == tag}
        new = []
        for rec in recs:
            line = rec.to_json()
            key = _key(line)
            if key not in seen:
                seen.add(key)
                new.append(line)
        if not new:
            continue
        added += len(new)
        path = _tag_file(tag)
        path.parent.mkdir(parents=True, exist_ok=True)
        if old and not old.endswith(b"\n"):  # never glue a record onto a torn last line
            new.insert(0, "")
        _replace(path, old + ("\n".join(new) + "\n").encode())
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
