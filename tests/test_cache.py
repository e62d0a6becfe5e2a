"""The cache's one serializer and one reader against json.dumps and from_json,
and its atomic append."""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aconst import cache
from aconst.cache import ResidueCacheRecord

R = ResidueCacheRecord
FILE_TAGS = ["wilson_q", "e_A", 'q"uote', "back\\slash", "ünïcode", "tab\there"]


@contextmanager
def cache_at(root):
    with mock.patch.dict(os.environ, {cache.ENV_VAR: str(root)}):
        yield


def dumps(rec: R) -> str:
    return json.dumps({"tag": rec.tag, "params": rec.params, "prime": rec.prime,
                       "residue": rec.residue}, sort_keys=True)


def oracle_load(path: Path) -> tuple[list[R], int]:
    """The records and the damaged count, by from_json on every line of open()."""
    records, bad = [], 0
    if not path.exists():
        return records, bad
    with path.open(errors="replace") as fh:
        for line in fh:
            if line.strip():
                try:
                    records.append(R.from_json(line))
                except (ValueError, TypeError, KeyError, RecursionError):
                    bad += 1
    return records, bad


def key(rec: R) -> tuple:
    return rec.tag, json.dumps(rec.params, sort_keys=True), rec.prime


def oracle_append(path: Path, given_records: list[R]) -> tuple[bytes, int]:
    """The file's bytes after appending, and the count added, with dedupe on
    key and the first record winning."""
    old = path.read_bytes() if path.exists() else b""
    seen = {key(r) for r in oracle_load(path)[0]}
    new = []
    for rec in given_records:
        if key(rec) not in seen:
            seen.add(key(rec))
            new.append(dumps(rec) + "\n")
    sep = "\n" if new and old and not old.endswith(b"\n") else ""
    return old + (sep + "".join(new)).encode(), len(new)


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=5),
                         st.floats(allow_nan=False))
tags = st.one_of(st.sampled_from(FILE_TAGS), st.text(max_size=8))
params = st.one_of(st.just({}), st.dictionaries(st.text(max_size=8), json_scalars, max_size=3))


@st.composite
def records(draw, tag=tags):
    prime = draw(st.integers(2, 10**30))
    return R(draw(tag), draw(params), prime, draw(st.integers(0, prime - 1)))


@st.composite
def lines(draw, file_tag):
    """A valid line of the file's tag or of another, or a mutation of one."""
    rec = draw(records(st.one_of(st.just(file_tag), tags)))
    fields = {"tag": rec.tag, "params": rec.params, "prime": rec.prime, "residue": rec.residue}
    kind = draw(st.sampled_from(["valid", "cut", "glued", "reordered", "spaced", "field", "raw"]))
    if kind == "glued":  # a line run on into the next, or into garbage
        return rec.to_json() + draw(st.one_of(st.text(max_size=5), lines(file_tag)))
    if kind == "cut":
        line = rec.to_json()
        return line[: draw(st.integers(0, len(line)))]
    if kind == "reordered":
        order = draw(st.permutations(sorted(fields)))
        return json.dumps({k: fields[k] for k in order})
    if kind == "spaced":
        line = rec.to_json()
        i = draw(st.integers(0, len(line)))
        return line[:i] + draw(st.sampled_from([" ", "  ", "\t", "\r", "\r\n"])) + line[i:]
    if kind == "field":
        name = draw(st.sampled_from(sorted(fields)))
        fields[name] = draw(st.one_of(
            json_scalars, st.integers(-3, 1), st.just(rec.prime), st.just(rec.prime + 1),
            st.just(float(rec.prime)), st.just({"r": 2}), st.just(10**200)))
        return json.dumps(fields, sort_keys=True)
    if kind == "raw":
        return draw(st.text(max_size=40))
    return rec.to_json()


@st.composite
def tag_files(draw):
    tag = draw(st.sampled_from(FILE_TAGS))
    body = draw(st.lists(lines(tag), max_size=12))
    end = draw(st.sampled_from(["\n", "", "\r\n", "\n\n"]))
    return tag, ("\n".join(body) + end).encode("utf-8", "surrogatepass")


@settings(max_examples=300, deadline=None)
@given(records())
@example(R("wilson_q", {}, 5, 0))
@example(R('a"b\\cé\U0001f600\x00', {}, 2, 1))
@example(R("t", {"residue": 1, "a": [1, 2]}, 7, 3))
def test_to_json_is_json_dumps(rec):
    assert rec.to_json() == dumps(rec)


@pytest.mark.parametrize("rec", [R("t", {}, True, 0), R("t", {}, 5.0, 1), R("t", {}, 5, False),
                                 R(7, {}, 5, 1), R("t", [], 5, 1)])
def test_to_json_falls_back_to_json_dumps(rec):
    assert rec.to_json() == dumps(rec)


@settings(max_examples=300, deadline=None)
@given(tag_files(), st.lists(records(st.sampled_from(FILE_TAGS)), max_size=6))
def test_reader_and_append_match_from_json(tag_file, given_records):
    tag, data = tag_file
    given_records = [R(tag, r.params, r.prime, r.residue) for r in given_records]
    with tempfile.TemporaryDirectory() as root, cache_at(root):
        path = cache._tag_file(tag)
        path.write_bytes(data)
        damaged = {}
        expected, bad = oracle_load(path)
        assert cache.load_records(tag, damaged) == expected
        assert damaged == ({tag: bad} if bad else {})
        after, added = oracle_append(path, given_records + given_records[:2])
        damaged = {}
        assert cache.append_records(given_records + given_records[:2], damaged) == added
        assert damaged == ({tag: bad} if bad and given_records else {})
        assert path.read_bytes() == after
        assert os.listdir(root) == [path.name]  # no temp file left


CANONICAL = '{"params": {}, "prime": %s, "residue": %s, "tag": "wilson_q"}'


@pytest.mark.parametrize("line", [
    CANONICAL % (7, 6), CANONICAL % (7, 7), CANONICAL % (7, 8), CANONICAL % (1, 0),
    CANONICAL % (0, 0), CANONICAL % (-7, 0), CANONICAL % (7, -0), CANONICAL % ("07", 6),
    CANONICAL % (7, "06"), CANONICAL % ("+7", 6), CANONICAL % (7, "-0"), CANONICAL % ("7.0", 6),
    CANONICAL % (7, "6.0"), CANONICAL % ("true", 0), CANONICAL % (7, "true"),
    CANONICAL % ("1" * 100, 6), CANONICAL % ("1" * 101, 6), CANONICAL % (7, "1" * 101),
    CANONICAL % ("1" * 5000, 6), CANONICAL % ("\u0037", 6), CANONICAL % ("\u0667", 6),
    CANONICAL % (7, 6) + "x", CANONICAL % (7, 6) + "}", CANONICAL % (7, 6) + " ",
    CANONICAL % (7, 6) + CANONICAL % (11, 6), " " + CANONICAL % (7, 6),
    CANONICAL.replace("wilson_q", "e_A") % (7, 6), CANONICAL.replace("{}", "{ }") % (7, 6),
])
def test_lines_of_canonical_shape_read_as_from_json(tmp_path, line):
    with cache_at(tmp_path):
        path = cache._tag_file("wilson_q")
        path.write_text(line + "\n" + CANONICAL % (5, 0) + "\n")
        damaged = {}
        expected, bad = oracle_load(path)
        assert cache.load_records("wilson_q", damaged) == expected
        assert damaged == ({"wilson_q": bad} if bad else {})
        assert len(expected) + bad == 2


def test_a_line_cut_at_every_offset_reads_as_from_json(tmp_path):
    rec = R("wilson_q", {}, 104729, 104728)
    line = rec.to_json()
    with cache_at(tmp_path):
        path = cache._tag_file("wilson_q")
        for i in range(len(line) + 1):
            for tail in ("", "\n", "\n" + line):
                path.write_text(line[:i] + tail)
                damaged = {}
                expected, bad = oracle_load(path)
                assert cache.load_records("wilson_q", damaged) == expected
                assert damaged == ({"wilson_q": bad} if bad else {})


def test_every_line_reads_into_one_record_type(tmp_path):
    # canonical lines; a reordered duplicate of the first line's key; lines
    # with new keys that are not canonical; and damaged lines
    canonical = [CANONICAL % (5, 0), CANONICAL % (7, 6), CANONICAL % (11, 10)]
    valid = [
        canonical[0],
        '{"tag": "wilson_q", "residue": 1, "prime": 5, "params": {}}',
        canonical[1],
        '{"residue": 0, "prime": 13, "tag": "wilson_q", "params": {}}',
        canonical[2],
        '{"params": {"r": 2}, "prime": 5, "residue": 3, "tag": "wilson_q"}',
    ]
    damaged_lines = [canonical[1][:20], CANONICAL % (7, 7), "not json"]
    lines = valid[:3] + damaged_lines[:1] + valid[3:5] + damaged_lines[1:] + valid[5:]
    with cache_at(tmp_path):
        path = cache._tag_file("wilson_q")
        path.write_text("\n".join(lines) + "\n")
        damaged = {}
        loaded = cache.load_records("wilson_q", damaged)
        assert all(type(rec) is R for rec in loaded)
        assert loaded == [R.from_json(line) for line in valid]
        assert damaged == {"wilson_q": 3}
        old = path.read_bytes()
        given = [R("wilson_q", {}, 5, 4), R("wilson_q", {}, 13, 1), R("wilson_q", {"r": 2}, 5, 0),
                 R("wilson_q", {}, 17, 16), R("wilson_q", {"r": 2}, 7, 1)]
        assert cache.append_records(given) == 2
        assert path.read_bytes() == old + (given[3].to_json() + "\n"
                                           + given[4].to_json() + "\n").encode()


def test_new_file_mode_follows_umask_and_old_mode_is_kept(tmp_path):
    old = os.umask(0o027)
    try:
        with cache_at(tmp_path):
            cache.append_records([R("t", {}, 5, 1)])
            path = cache._tag_file("t")
            assert path.stat().st_mode & 0o777 == 0o640
            path.chmod(0o600)
            cache.append_records([R("t", {}, 7, 1)])
            assert path.stat().st_mode & 0o777 == 0o600
            assert [r.prime for r in cache.load_records("t")] == [5, 7]
    finally:
        os.umask(old)


CHILD = """
import sys
from aconst import cache
R = cache.ResidueCacheRecord
cache.append_records([R("t", {}, p, 1) for p in range(2, 1002)])
batch = [R("t", {}, p, 1) for p in range(1002, 200_002)]
print("go", flush=True)
cache.append_records(batch)
print("done", flush=True)
sys.stdin.read()
"""


# the batch takes about 0.6 s to append on a 2-core x86-64 host, most of it
# spent serializing before the temp file is written; None kills after it
@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs POSIX signals")
@pytest.mark.parametrize("delay", [0.0, 0.1, 0.3, 0.45, 0.6, None])
def test_killed_append_leaves_all_or_none_of_its_batch(tmp_path, delay):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, cache.ENV_VAR: str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen([sys.executable, "-c", CHILD], env=env, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "go\n"
        if delay is None:
            assert child.stdout.readline() == "done\n"
        else:
            time.sleep(delay)
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=60) == -signal.SIGKILL
    finally:
        child.kill()
        child.wait(timeout=60)
        child.stdin.close()
        child.stdout.close()
    damaged = {}
    with cache_at(tmp_path):
        primes = [r.prime for r in cache.load_records("t", damaged)]
        assert cache.known_tags() == ["t"]
    assert damaged == {}
    assert primes in (list(range(2, 1002)), list(range(2, 200_002)))
