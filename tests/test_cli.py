import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from aconst import cache, cli, dobinski, euler, searches
from aconst.cli import build_parser, main, parse_rational
from aconst.report import VerificationReport


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "cache"))
    return tmp_path


class TestRationalParsing:
    def test_accepts(self):
        assert parse_rational("7/3") == Fraction(7, 3)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational("+1/2") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["1//2", "1/2/3", "1.5", "a/b", "2/-3", "", "1/0", "0/0"])
    def test_rejects(self, bad):
        with pytest.raises(Exception):
            parse_rational(bad)

    def test_malformed_x_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "dobinski", "--x", "1//2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "dobinski", "--x", "1/0"],
            ["verify", "euler", "--which", "mascheroni", "--x", "0/0"],
            ["gamma", "--method", "mascheroni", "--x", "1/0"],
        ],
        ids=["dobinski", "euler", "gamma"],
    )
    def test_zero_denominator_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "is not a rational literal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "euler", "--which", "interlude", "--k", "1"],
            ["verify", "euler", "--which", "kluyver", "--m", "0"],
            ["verify", "dobinski", "--r", "0"],
            ["verify", "dobinski", "--nmax", "-1"],
            ["verify", "euler", "--which", "interlude", "--k", "-2"],
            ["verify", "euler", "--which", "mascheroni", "--threads", "-1"],
        ],
    )
    def test_out_of_range_parameter_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--pmax", "30"])
        assert exc.value.code == 2
        assert "below the minimum" in capsys.readouterr().err


    def test_dobinski_rows_that_cannot_fail_exit_2(self, capsys):
        # every row n < r compares D(n) with itself
        with pytest.raises(SystemExit) as exc:
            main(["verify", "dobinski", "--r", "3", "--nmax", "0", "--pmax", "30"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: aconst verify dobinski")
        assert "--nmax >= --r" in captured.err
        assert captured.out == ""
        assert main(["verify", "dobinski", "--r", "3", "--nmax", "3", "--pmax", "30"]) == 0
        assert "all 32 checks passed" in capsys.readouterr().out


class TestVerifyCommands:
    @pytest.mark.parametrize(
        "argv, module",
        [(["verify", "euler", "--which", "mascheroni"], euler), (["verify", "dobinski"], dobinski)],
        ids=["euler", "dobinski"],
    )
    def test_window_defaults_are_the_modules(self, argv, module):
        args = build_parser().parse_args(argv)
        assert (args.pmin, args.pmax) == module.DEFAULT_WINDOW

    @pytest.mark.parametrize(
        "family, says, not_says",
        [(["euler", "--which", "mascheroni"], "capped at cores; 0 = all", "ignored")],
        ids=["euler"],
    )
    def test_threads_help_says_what_the_option_does(self, family, says, not_says, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *family, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
        threads = text[text.index("--threads THREADS") :].split(" --pmin")[0]
        assert says in threads
        assert not_says not in threads

    def test_dobinski_rejects_threads(self, capsys):
        # the Dobinski verifier checks every prime in this process: no option for it
        with pytest.raises(SystemExit) as exc:
            main(["verify", "dobinski", "--threads", "2", "--pmax", "30"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: aconst verify dobinski ")
        assert "unrecognized arguments: --threads" in captured.err and captured.out == ""
        assert not hasattr(build_parser().parse_args(["verify", "dobinski"]), "threads")

    def test_dobinski_passes(self, capsys):
        code = main(
            ["verify", "dobinski", "--r", "1", "--nmax", "4", "--pmin", "5", "--pmax", "60"]
        )
        assert code == 0
        assert "all" in capsys.readouterr().out

    def test_euler_mascheroni_minus_one(self, capsys):
        code = main(
            ["verify", "euler", "--which", "mascheroni", "--x=-1", "--pmax", "101"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Wilson" in out

    # Eisenstein at x = 0 is a definitional skip, so it runs at an x whose check can fail;
    # each theorem gets only the options it reads
    @pytest.mark.parametrize("which, opts", [("interlude", "--x 0 --k 3"),
                                             ("kluyver", "--x 0 --m 2"),
                                             ("eisenstein", "--x 2"), ("logadd", "--x 0")],
                             ids=["interlude", "kluyver", "eisenstein", "logadd"])
    def test_euler_variants(self, which, opts, capsys):
        code = main(
            ["verify", "euler", "--which", which, *opts.split(), "--pmax", "60"]
        )
        assert code == 0
        assert "checks passed" in capsys.readouterr().out

    def test_json_report_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code = main(
                ["verify", "dobinski", "--nmax", "3", "--pmax", "40",
                 "--json", str(path), "--no-timestamp"]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        report = VerificationReport.from_jsonl(paths[0].read_text())
        assert report.passed
        assert report.theorem == "dobinski"

    def test_json_report_with_timestamp(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        main(["verify", "dobinski", "--nmax", "2", "--pmax", "30", "--json", str(path)])
        report = VerificationReport.from_jsonl(path.read_text())
        assert report.timestamp


class TestNothingChecked:
    """A run that checks nothing must never read as a pass: exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "euler", "--which", "mascheroni", "--pmax", "3"],
            ["verify", "euler", "--which", "mascheroni", "--x", "1/30030", "--pmax", "13"],
            ["verify", "euler", "--which", "kluyver", "--m", "40", "--pmax", "30"],
            ["verify", "dobinski", "--x", "1/30030", "--pmax", "13"],
            # the default --x 0, where both sides are 0 by definition
            ["verify", "euler", "--which", "eisenstein", "--pmax", "30"],
        ],
        ids=["empty-window", "every-x-prime-skipped", "every-order-prime-skipped",
             "dobinski-every-prime-skipped", "eisenstein-definitional"],
    )
    def test_verify_with_no_checks_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "no checks ran" in captured.out
        assert "all 0 checks passed" not in captured.out
        assert "error: no checks ran" in captured.err

    def test_no_checks_still_writes_the_report(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        argv = ["verify", "euler", "--which", "eisenstein", "--pmax", "3", "--json", str(path)]
        assert main(argv) == 2
        assert VerificationReport.from_jsonl(path.read_text()).checks == []

    def test_stream_beyond_the_slot_bound_exits_2(self, capsys):
        # residue streams pack into 8-byte slots; a window past them is bad input
        argv = ["verify", "euler", "--which", "mascheroni", "--pmin", "2642247",
                "--pmax", "2642260"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: aconst verify euler ")
        assert "error: residue streams need p < 2642247" in err
        assert "Traceback" not in err

    def test_cache_verify_on_empty_cache_exits_2(self, capsys):
        assert main(["cache", "verify"]) == 2
        captured = capsys.readouterr()
        assert "checked 0 cached record(s)" in captured.out
        assert "error: no cached records to check" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--target", "wilson", "--pmin", "24", "--pmax", "28"],
            ["search", "--target", "wilson", "--pmax", "1"],
        ],
        ids=["no-prime-in-window", "pmax-1"],
    )
    def test_search_with_empty_window_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: aconst search ")
        assert captured.out == ""
        assert "error: no primes in" in captured.err
        assert not cache.cache_dir().exists()

    def test_cache_verify_on_torn_cache_exits_2(self, capsys):
        main(["search", "--target", "wilson", "--pmin", "5", "--pmax", "5"])
        path = cache.cache_dir() / "wilson_q.jsonl"
        path.write_bytes(path.read_bytes()[:-5])  # the only record, torn
        capsys.readouterr()
        assert main(["cache", "verify"]) == 2
        captured = capsys.readouterr()
        assert "skipped 1 damaged line(s)" in captured.err
        assert "error: no cached records to check" in captured.err


class TestSearch:
    def test_wilson_small(self, capsys):
        code = main(["search", "--target", "wilson", "--pmin", "5", "--pmax", "120"])
        assert code == 0
        out = capsys.readouterr().out.split()
        assert out == ["5", "13"]

    def test_e_zero_includes_five(self, capsys):
        code = main(["search", "--target", "eA-zero", "--pmin", "5", "--pmax", "50"])
        assert code == 0
        assert "5" in capsys.readouterr().out.split()

    def test_unknown_target_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--target", "nope", "--pmax", "50"])
        assert exc.value.code == 2


class TestSeq:
    def test_bell_bfile_format(self, capsys, tmp_path):
        out_path = tmp_path / "b.txt"
        code = main(["seq", "--name", "bell", "--nmax", "7", "--bfile", str(out_path)])
        assert code == 0
        expected = "0 1\n1 1\n2 2\n3 5\n4 15\n5 52\n6 203\n7 877\n"
        assert capsys.readouterr().out == expected
        assert out_path.read_text() == expected

    def test_g_values(self, capsys):
        main(["seq", "--name", "g", "--nmax", "7"])
        values = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        assert values == ["0", "1", "1", "3", "9", "31", "121", "523"]

    def test_gregory_rationals(self, capsys):
        main(["seq", "--name", "gregory", "--nmax", "4"])
        values = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        assert values == ["1", "1/2", "-1/12", "1/24", "-19/720"]

    def test_b2j_rows(self, capsys):
        main(["seq", "--name", "b2j", "--nmax", "8", "--j", "1"])
        values = [int(line.split()[1]) for line in capsys.readouterr().out.splitlines()]
        assert values == [0, 1, 0, 1, 2, 4, 10, 29, 90]

    def test_unknown_name_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "--name", "fib", "--nmax", "5"])
        assert exc.value.code == 2


class TestGammaCommand:
    def test_kluyver_prints_error_estimate(self, capsys):
        code = main(
            ["gamma", "--method", "kluyver", "--m", "1", "--x", "0", "--terms", "500"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "approx" in out and "gamma_ref" in out

    def test_bla101_coarse(self, capsys):
        code = main(
            ["gamma", "--method", "bla101", "--k", "1", "--x", "0", "--terms", "100"]
        )
        assert code == 0
        assert "approx = 0.57" in capsys.readouterr().out

    def test_mascheroni_output_pinned(self, capsys):
        # the third method's lines, H_0 label included, as CI pins the other two
        assert main(["gamma", "--method", "mascheroni", "--x", "0", "--terms", "1000"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "method=mascheroni x=0 terms=1000 prec=64",
            "approx = 0.57720253831064126615",
            "  correction H_0 = 0.0",
            "  correction -log(x+1) = 0.0",
            "|approx - gamma_ref| = 1.3127e-5",
        ]

    @pytest.mark.parametrize("argv, m, k", [
        ("--method mascheroni --x 1/3", 0, 1),
        ("--method kluyver --m 3 --x 7/3 --prec 96", 3, 1),
        ("--method bla101 --k 3 --x=-1/2", 0, 3),
    ], ids=["mascheroni", "kluyver", "bla101"])
    def test_prints_what_one_library_call_returns(self, argv, m, k, capsys, monkeypatch):
        import mpmath

        from aconst import analytic

        calls = []
        orig = analytic._kluyver_mean

        def spy(*args):
            calls.append((args, orig(*args)))
            return calls[-1][1]

        monkeypatch.setattr(analytic, "_kluyver_mean", spy)
        assert main(["gamma", *argv.split(), "--terms", "300"]) == 0
        ((args, (value, h_m, log_term)),) = calls
        assert args[1:3] == (m, k)
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"approx = {mpmath.nstr(value, 20)}"
        shown = [log_term] if k > 1 else [h_m, log_term]
        assert [line.rsplit(" = ", 1)[1] for line in lines[2:-1]] == [
            mpmath.nstr(v, 20) for v in shown
        ]

    def test_domain_error_exits_2(self, capsys):
        for x in ("--x=-1", "--x=-2"):  # the edge and past it
            with pytest.raises(SystemExit) as exc:
                main(["gamma", "--method", "mascheroni", x, "--terms", "100"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            # the library's rule, raised by the series and reported as a usage error
            assert captured.err.startswith("usage: aconst gamma ")
            assert "x must exceed -1" in captured.err and captured.out == ""

    def test_uncertifiable_series_exits_2(self, capsys):
        # at x = 100 the Gregory values reach 2**100, past what 64 bits certify
        with pytest.raises(SystemExit) as exc:
            main(["gamma", "--method", "kluyver", "--m", "1", "--x", "100", "--terms", "2000"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: aconst gamma ")
        assert "x=100, terms=2000, prec=64" in captured.err and captured.out == ""
        assert "a higher prec may" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "--method", "bla101", "--k", "0"],
            ["gamma", "--method", "kluyver", "--m", "-1"],
            ["gamma", "--method", "mascheroni", "--terms", "-5"],
            ["gamma", "--method", "mascheroni", "--prec", "32"],
            ["seq", "--name", "bell", "--nmax", "-3"],
            ["cache", "verify", "--sample", "0"],
            ["cache", "verify", "--sample", "-1"],
        ],
        ids=["gamma-k", "gamma-m", "gamma-terms", "gamma-prec", "seq-nmax",
             "cache-sample-0", "cache-sample-negative"],
    )
    def test_out_of_range_argument_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "below the minimum" in captured.err and captured.out == ""


class TestCache:
    def test_append_dedupes(self):
        _, records = searches.search_zero_primes("wilson", [5, 7, 11, 13])
        assert cache.append_records(records) == 4
        assert cache.append_records(records) == 0
        assert len(cache.load_records("wilson_q")) == 4

    def test_append_to_a_clean_file_parses_no_line(self, monkeypatch):
        # canonical lines are read without json.loads, and each given record
        # is serialized once (its line gives its key), never by json.dumps
        _, records = searches.search_zero_primes("wilson", [5, 7, 11, 13])
        cache.append_records(records[:2])
        path = cache.cache_dir() / "wilson_q.jsonl"
        expected = path.read_bytes() + b"".join(
            (r.to_json() + "\n").encode() for r in records[2:])
        calls = []

        def counted(owner, name, label):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(label(*a)) or fn(*a, **k))

        counted(json, "loads", lambda *a: "json.loads")
        counted(json, "dumps", lambda *a: "json.dumps")
        counted(cache.ResidueCacheRecord, "to_json", lambda rec: rec.prime)
        assert cache.append_records(records + records[:1]) == 2
        assert sorted(calls) == [5, 5, 7, 11, 13]  # 5 is given twice
        assert path.read_bytes() == expected

    def test_rerun_is_byte_identical(self, capsys):
        main(["search", "--target", "wilson", "--pmin", "5", "--pmax", "60"])
        path = cache.cache_dir() / "wilson_q.jsonl"
        first = path.read_bytes()
        main(["search", "--target", "wilson", "--pmin", "5", "--pmax", "60"])
        assert path.read_bytes() == first

    def test_cache_verify_clean(self, capsys):
        main(["search", "--target", "eA-zero", "--pmin", "5", "--pmax", "80"])
        code = main(["cache", "verify", "--sample", "10", "--seed", "1"])
        assert code == 0
        assert "checked" in capsys.readouterr().out

    def test_torn_line_is_skipped_and_reported(self, capsys):
        main(["search", "--target", "wilson", "--pmin", "5", "--pmax", "60"])
        path = cache.cache_dir() / "wilson_q.jsonl"
        torn = path.read_bytes()[:-20]  # an append cut off mid-record
        path.write_bytes(torn)
        capsys.readouterr()
        assert main(["search", "--target", "wilson", "--pmin", "5", "--pmax", "100"]) == 0
        captured = capsys.readouterr()
        assert captured.out.split() == ["5", "13"]
        assert "skipped 1 damaged line(s)" in captured.err
        # the torn record is rewritten on a line of its own, nothing is lost
        assert path.read_bytes().startswith(torn + b"\n")
        assert [r.prime for r in cache.load_records("wilson_q")] == [
            p for p in range(5, 101) if all(p % d for d in range(2, p))
        ]
        assert main(["cache", "verify", "--sample", "50", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 damaged line(s)" in captured.err
        assert "checked 23 cached record(s)" in captured.out

    # one line each that nothing can recheck: prime 0, prime 1, a residue >= p, a tag with no rule
    BAD_LINES = {
        "prime-0": ("wilson_q", {"params": {}, "prime": 0, "residue": 0, "tag": "wilson_q"}),
        "prime-1": ("wilson_q", {"params": {}, "prime": 1, "residue": 0, "tag": "wilson_q"}),
        "residue-out-of-range": ("e_A", {"params": {}, "prime": 7, "residue": 7, "tag": "e_A"}),
        "no-rule": ("nope", {"params": {}, "prime": 7, "residue": 3, "tag": "nope"}),
        "composite-9": ("e_A", {"params": {}, "prime": 9, "residue": 2, "tag": "e_A"}),
        "composite-4": ("wilson_q", {"params": {}, "prime": 4, "residue": 1, "tag": "wilson_q"}),
    }

    @pytest.mark.parametrize("name", sorted(BAD_LINES))
    def test_cache_verify_on_unrecheckable_line(self, name, capsys):
        tag, rec = self.BAD_LINES[name]
        path = cache.cache_dir() / f"{tag}.jsonl"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(rec, sort_keys=True) + "\n")
        assert main(["cache", "verify"]) == 2
        captured = capsys.readouterr()
        assert f"skipped 1 damaged line(s) in {path}" in captured.err
        assert "error: no cached records to check" in captured.err
        # beside a real search cache, the good records are still checked
        main(["search", "--target", "wilson", "--pmin", "5", "--pmax", "60"])
        capsys.readouterr()
        assert main(["cache", "verify", "--sample", "50"]) == 0
        captured = capsys.readouterr()
        assert "checked 15 cached record(s)" in captured.out
        assert f"skipped 1 damaged line(s) in {path}" in captured.err

    def test_cache_verify_leaves_out_params_no_rule_reads(self, capsys):
        # D_{2,A}(0; 1) vanishes at 20879; no rule reads r yet, so the record
        # is left out, never recomputed as r = 1 and reported as a mismatch
        path = cache.cache_dir() / "e_A.jsonl"
        path.parent.mkdir(parents=True)
        r2 = {"params": {"r": 2}, "prime": 20879, "residue": 0, "tag": "e_A"}
        path.write_text(json.dumps(r2, sort_keys=True) + "\n")
        assert main(["cache", "verify"]) == 2
        captured = capsys.readouterr()
        assert f"skipped 1 damaged line(s) in {path}" in captured.err
        assert "error: no cached records to check" in captured.err
        r1 = {"params": {}, "prime": 5, "residue": 0, "tag": "e_A"}
        with path.open("a") as fh:
            fh.write(json.dumps(r1, sort_keys=True) + "\n")
        assert main(["cache", "verify"]) == 0
        captured = capsys.readouterr()
        assert "checked 1 cached record(s)" in captured.out
        assert "MISMATCH" not in captured.out
        with pytest.raises(ValueError, match="no recompute rule"):
            searches.recompute("e_A", {"r": 2}, 20879)

    def test_deeply_nested_line_is_damaged(self, capsys):
        # json.loads gives up on this line with RecursionError, not ValueError
        path = cache.cache_dir() / "e_A.jsonl"
        path.parent.mkdir(parents=True)
        path.write_text("[" * 100_000 + "\n")
        assert main(["cache", "verify"]) == 2
        captured = capsys.readouterr()
        assert f"skipped 1 damaged line(s) in {path}" in captured.err
        assert "error: no cached records to check" in captured.err
        # beside a real search cache, the good records are still checked
        main(["search", "--target", "wilson", "--pmin", "5", "--pmax", "60"])
        capsys.readouterr()
        assert main(["cache", "verify", "--sample", "50"]) == 0
        captured = capsys.readouterr()
        assert "checked 15 cached record(s)" in captured.out
        assert f"skipped 1 damaged line(s) in {path}" in captured.err
        # and a search that appends to the damaged file warns and goes on
        assert main(["search", "--target", "eA-zero", "--pmin", "5", "--pmax", "60"]) == 0
        assert f"skipped 1 damaged line(s) in {path}" in capsys.readouterr().err

    def test_cache_verify_detects_corruption(self, capsys):
        main(["search", "--target", "wilson", "--pmin", "5", "--pmax", "60"])
        path = cache.cache_dir() / "wilson_q.jsonl"
        lines = path.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["residue"] = (rec["residue"] + 1) % rec["prime"]
        lines[0] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        code = main(["cache", "verify", "--sample", "50", "--seed", "3"])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestIOErrors:
    """An I/O failure is a clean exit 2, never a traceback and never the
    counterexample code 1."""

    @pytest.mark.parametrize(
        "case", ["report", "bfile", "cache-dir-is-a-file", "cache-file-is-a-dir"]
    )
    def test_exits_2(self, case, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "nonexistent" / "dir"
        argv = {
            "report": ["verify", "euler", "--which", "eisenstein", "--x", "2", "--pmax", "30",
                       "--json", str(missing / "r.jsonl")],
            "bfile": ["seq", "--name", "bell", "--nmax", "3", "--bfile", str(missing / "b.txt")],
            "cache-dir-is-a-file": ["search", "--target", "wilson", "--pmax", "30"],
            "cache-file-is-a-dir": ["cache", "verify"],
        }[case]
        if case == "cache-dir-is-a-file":
            blocker = tmp_path / "blocker"
            blocker.write_text("")
            monkeypatch.setenv(cache.ENV_VAR, str(blocker))
        elif case == "cache-file-is-a-dir":
            (cache.cache_dir() / "wilson_q.jsonl").mkdir(parents=True)
        assert main(argv) == 2
        err = capsys.readouterr().err
        # not the caller's argv: a bare error line, no usage
        assert err.startswith("error: ") and "usage:" not in err and "Traceback" not in err


def _leaves(parser, path=()):
    """{"verify dobinski": its parser, ...}: every subcommand that runs a handler."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): parser}
    return {name: leaf for sub, sp in subs[0].choices.items()
            for name, leaf in _leaves(sp, path + (sub,)).items()}


LEAVES = _leaves(build_parser())


@pytest.fixture
def handled(monkeypatch):
    """The args each handler is called with; the handlers themselves do nothing."""
    calls = []
    for name in dir(cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda args: calls.append(args) or 0)
    return calls


class TestRefusals:
    """Every refused argv exits 2 through its subcommand's usage line, before any work."""

    @pytest.mark.parametrize("leaf", sorted(LEAVES))
    def test_unknown_option_is_refused_by_its_subcommand(self, leaf, tmp_path, handled, capsys):
        # the options the leaf requires, each at its first choice (or a window bound)
        argv = leaf.split()
        for action in LEAVES[leaf]._actions:
            if action.required and action.option_strings:
                argv += [action.option_strings[0], str((action.choices or [30])[0])]
        report = tmp_path / "r.jsonl"
        if any("--json" in a.option_strings for a in LEAVES[leaf]._actions):
            argv += ["--json", str(report)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bogus", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: aconst {leaf} ")
        assert "unrecognized arguments: --bogus 1" in captured.err and captured.out == ""
        assert handled == [] and not report.exists() and not cache.cache_dir().exists()
        # the same argv without the unknown option reaches the handler
        assert main(argv) == 0 and len(handled) == 1

    def test_every_leaf_is_covered(self):
        assert sorted(LEAVES) == ["cache verify", "gamma", "search", "seq", "verify dobinski",
                                  "verify euler"]

    @pytest.mark.parametrize("argv, option, reader", [
        ("verify euler --which mascheroni --m 2", "--m", "--which kluyver"),
        ("verify euler --which kluyver --k 3", "--k", "--which interlude"),
        ("gamma --method mascheroni --m 2", "--m", "--method kluyver"),
        ("gamma --method kluyver --k 2", "--k", "--method bla101"),
        ("seq --name bell --j 1", "--j", "--name b2j"),
    ], ids=["euler-m", "euler-k", "gamma-m", "gamma-k", "seq-j"])
    def test_unread_option_is_refused_by_name(self, argv, option, reader, handled, capsys):
        leaf = argv.split(" --")[0]
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: aconst {leaf} ")
        assert f"error: {option} is read only by {reader}" in captured.err
        assert captured.out == "" and handled == []

    @pytest.mark.parametrize("argv, option, default", [
        ("verify euler --which kluyver", "m", 1),
        ("verify euler --which interlude", "k", 2),
        ("gamma --method kluyver", "m", 1),
        ("gamma --method bla101", "k", 1),
        ("seq --name b2j", "j", 0),
    ], ids=["euler-m", "euler-k", "gamma-m", "gamma-k", "seq-j"])
    def test_read_option_left_out_takes_its_default(self, argv, option, default, handled):
        assert main(argv.split()) == 0
        (args,) = handled
        assert getattr(args, option) == default


def _child_env() -> dict:
    # the child interpreter imports aconst from this checkout's src/, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Every exact command runs without mpmath; `gamma` is the one that loads it.
# The child prints whether mpmath is loaded after the exact commands, the
# gamma output, and whether it is loaded after that.
IMPORT_HYGIENE_CHILD = """
import contextlib, io, sys
import aconst, aconst.cli as cli
exact = [
    "verify dobinski --r 2 --nmax 6 --pmax 60",
    "verify euler --which mascheroni --x=-1 --pmax 60 --threads 1",
    "search --target wilson --pmax 600 --no-cache",
    "search --target eA-zero --pmax 50",
    "seq --name gregory --nmax 4",
    "cache verify --sample 5 --seed 0",
]
for argv in exact:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv.split()) == 0, argv
print("mpmath" in sys.modules)
cli.main("gamma --method bla101 --k 2 --x 1/2 --terms 3000".split())
print("mpmath" in sys.modules)
"""


class TestEntryPoint:
    def test_only_gamma_loads_mpmath(self):
        proc = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE_CHILD],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "False",
            # the lines the CI workflow pins for this call
            "method=bla101 x=1/2 terms=3000 prec=64",
            "approx = 0.57721560591175643975",
            "  correction -(1/2) sum log(x+j) = -0.66087791999115972361",
            "|approx - gamma_ref| = 5.899e-8",
            "True",
        ]

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aconst.cli", "seq", "--name", "bell", "--nmax", "3"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "0 1\n1 1\n2 2\n3 5\n"

    def test_help_exits_0(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aconst.cli", "--help"], capture_output=True, env=_child_env()
        )
        assert proc.returncode == 0


class TestFailurePath:
    def test_failing_congruence_exits_1(self, capsys, monkeypatch):
        import aconst.cli as cli_mod
        from aconst.report import CheckRecord, VerificationReport

        def fake_verify(r, n_max, x, window):
            rep = VerificationReport("dobinski", {}, 5, 7, 2)
            rep.checks.append(CheckRecord(5, "n=1", 1, 2, False))
            return rep

        monkeypatch.setattr(cli_mod.dobinski, "verify_dobinski", fake_verify)
        code = main(["verify", "dobinski", "--pmax", "10"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "lhs=1 rhs=2" in out
