"""The four benchmark workloads: inputs from a seed, the timed section, the gate.

Every workload is closed-loop: one process makes one call at a time.  Seed 0
gives the acceptance-suite inputs (with the windows and the term count
shrunk so that several repetitions fit in one run); other seeds draw x-grids
of the same height and shift the prime-search window.  The gate is computed
after the timed section and never inside it.

Why these four (each keeps the property named here at its reduced size):

* euler-window: most of its time is ``polys.gregory_residue_stream``, O(p^2)
  per call, with 16 streams built per prime where 5 are distinct.  It
  exercises the Gregory kernel and a shared per-prime memo, single-threaded.
* dobinski-window: builds no Gregory stream; its time goes to
  ``dobinski._d_sums_mod``, the coefficient reductions and report
  serialization, and it is the only workload that fans out to processes
  (through the private pool in ``dobinski``).
* gamma-series: the only user of ``analytic._gregory_fixed`` (a big-int
  fixed-point recurrence at two precisions); no modular arithmetic, and its
  ``lru_cache`` starts cold.
* prime-search: many cheap per-prime kernels where per-prime set-up counts,
  plus cache writes and a warm rescan that today recomputes everything.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from aconst import analytic, cache, dobinski, euler, searches
from aconst.modular import sieve_primes

F = Fraction
GOLDEN_PATH = Path(__file__).with_name("golden.json")

EULER_WINDOW = (5, 503)  # acceptance criterion 4 uses [5, 1009]
XS_EULER = (F(0), F(-1), F(-2), F(1, 2), F(7, 3))
KS_INTERLUDE = (2, 3, 4, 5)
MS_KLUYVER = (1, 2, 3)

DOBINSKI_WINDOW = (5, 1009)  # acceptance criterion 2 uses [5, 2003]
XS_DOBINSKI = (F(1), F(1, 2), F(-2), F(7, 3))
RS_DOBINSKI = (1, 2, 3)
DOBINSKI_N_MAX = 20
DOBINSKI_THREADS = 2

GAMMA_TERMS = 4000  # acceptance criterion 8 uses 10**4
GAMMA_PREC = 64
GAMMA_TOLERANCE = 1e-3

SEARCH_WINDOW = (5, 5000)
SEARCH_MAX_SHIFT = 64  # seeds other than 0 shift the window by 1..63
SEARCH_TARGETS = ("wilson", "eA-zero")
SEARCH_SAMPLE = 20
WILSON_PRIMES = (5, 13, 563)  # all Wilson primes below 2 * 10**13

RATIONAL_HEIGHT = 7  # max(|num|, den) over the acceptance x-grids


@dataclass
class Outcome:
    """What the gate saw: operations with their failures, and gate conditions."""

    ops: int = 0
    failed_ops: int = 0
    gates: list[tuple[str, bool]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def gate(self, description: str, held: bool) -> None:
        self.gates.append((description, bool(held)))

    @property
    def attempted(self) -> int:
        return self.ops + len(self.gates)

    @property
    def failed(self) -> int:
        return self.failed_ops + sum(not held for _, held in self.gates)

    def failures(self) -> list[str]:
        return [d for d, held in self.gates if not held]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def draw_rationals(rng: random.Random, template) -> tuple[Fraction, ...]:
    """Distinct rationals with the template's denominators and numerators of
    absolute value at most RATIONAL_HEIGHT.

    Keeping the denominators keeps the work: the size of the coefficient
    values and which primes are skipped follow the denominators, so a seed
    changes the values checked but not the cost of checking them.
    """
    h = RATIONAL_HEIGHT
    drawn: list[Fraction] = []
    for t in template:
        den = t.denominator
        pool = [F(a, den) for a in range(-h, h + 1) if math.gcd(a, den) == 1]
        drawn.append(rng.choice([x for x in pool if x not in drawn]))
    return tuple(drawn)


def _window(bounds: tuple[int, int], shift: int = 0) -> list[int]:
    return sieve_primes(bounds[0] + shift, bounds[1] + shift)


# --- report gate shared by the verifier workloads ---------------------------


def check_report(out: Outcome, name: str, report, text: str, window, labels,
                 golden: dict | None) -> None:
    """Gate one verifier report.

    Every (prime, label) of the grid must be covered exactly once by a check
    or a skip; a skip with the empty label covers the whole prime.  A report
    with no checks fails, however vacuously ``report.passed`` reads.
    """
    out.ops += len(report.checks)
    out.failed_ops += sum(not c.passed for c in report.checks)
    expected = Counter((p, label) for p in window for label in labels)
    seen = Counter((c.prime, c.label) for c in report.checks)
    for s in report.skipped:
        for label in labels if s.label == "" else (s.label,):
            seen[(s.prime, label)] += 1
    out.gate(f"{name}: at least one check", report.checks)
    out.gate(f"{name}: header counts the window", report.prime_count == len(window))
    out.gate(f"{name}: checks and skips cover each (prime, point) once", seen == expected)
    if golden is not None:
        out.gate(
            f"{name}: check/skip counts match golden",
            (len(report.checks), len(report.skipped)) == (golden["checks"], golden["skips"]),
        )
        out.gate(f"{name}: report sha256 matches golden", digest(text) == golden["sha256"])


def golden_entry(report, text: str) -> dict:
    return {"checks": len(report.checks), "skips": len(report.skipped), "sha256": digest(text)}


# --- euler-window ------------------------------------------------------------


def euler_inputs(seed: int) -> dict:
    xs = XS_EULER if seed == 0 else draw_rationals(random.Random(seed), XS_EULER)
    return {"window": _window(EULER_WINDOW), "xs": xs}


def euler_run(inp: dict, threads: int) -> dict:
    window, xs = inp["window"], inp["xs"]
    reports = [
        euler.verify_mascheroni(xs, window, threads=threads),
        euler.verify_interlude(KS_INTERLUDE, xs, window, threads=threads),
        euler.verify_kluyver(MS_KLUYVER, xs, window, threads=threads),
    ]
    texts = [r.to_jsonl(include_timing=False) for r in reports]
    gamma = euler.gamma_M(-1, window)
    wilson = euler.wilson_gamma(window)
    return {"reports": reports, "texts": texts, "gamma_M": gamma, "wilson": wilson}


def euler_grids(xs) -> list[list[str]]:
    return [
        [f"x={x}" for x in xs],
        [f"k={k} x={x}" for x in xs for k in KS_INTERLUDE],
        [f"m={m} x={x}" for x in xs for m in MS_KLUYVER],
    ]


def euler_check(inp: dict, res: dict, golden: list | None) -> Outcome:
    out = Outcome()
    window = inp["window"]
    for i, labels in enumerate(euler_grids(inp["xs"])):
        report = res["reports"][i]
        check_report(out, report.theorem, report, res["texts"][i], window, labels,
                     None if golden is None else golden[i])
    lhs, rhs = res["gamma_M"], res["wilson"]
    compared = lhs.comparable_primes(rhs)
    out.ops += len(compared)
    out.failed_ops += sum(lhs[p] != rhs[p] for p in compared)
    out.gate("gamma_M(-1) vs wilson_gamma: every window prime compared", compared == window)
    return out


# --- dobinski-window ---------------------------------------------------------


def dobinski_inputs(seed: int) -> dict:
    xs = XS_DOBINSKI if seed == 0 else draw_rationals(random.Random(seed), XS_DOBINSKI)
    return {"window": _window(DOBINSKI_WINDOW), "xs": xs}


def dobinski_run(inp: dict, threads: int) -> dict:
    reports = [
        dobinski.verify_dobinski(r, DOBINSKI_N_MAX, x, inp["window"], threads=threads)
        for r in RS_DOBINSKI
        for x in inp["xs"]
    ]
    return {"reports": reports, "texts": [r.to_jsonl(include_timing=False) for r in reports]}


def dobinski_check(inp: dict, res: dict, golden: list | None) -> Outcome:
    out = Outcome()
    labels = [f"n={n}" for n in range(DOBINSKI_N_MAX + 1)]
    params = [(r, x) for r in RS_DOBINSKI for x in inp["xs"]]
    out.gate("dobinski: one report per (r, x)", len(res["reports"]) == len(params))
    for i, (r, x) in enumerate(params[: len(res["reports"])]):
        check_report(out, f"dobinski r={r} x={x}", res["reports"][i], res["texts"][i],
                     inp["window"], labels, None if golden is None else golden[i])
    return out


# --- gamma-series ------------------------------------------------------------


def gamma_inputs(seed: int) -> dict:
    # fixed for every seed: the series inputs are the acceptance inputs
    cold = analytic._gregory_fixed.cache_info().currsize == 0
    return {"terms": GAMMA_TERMS, "prec": GAMMA_PREC, "cold_cache": cold}


def gamma_run(inp: dict, threads: int) -> dict:
    n, prec = inp["terms"], inp["prec"]
    value = analytic.mascheroni_partial(0, 1, n, prec)
    bla = analytic.bla101_partial(1, 0, n, prec)
    masch0 = analytic.mascheroni_partial(0, 0, n, prec)
    return {"value": value, "bla101": bla, "mascheroni0": masch0}


def gamma_check(inp: dict, res: dict, golden) -> Outcome:
    out = Outcome(ops=3)  # three series evaluations
    err = abs(res["value"] - analytic.gamma_reference(inp["prec"]))
    out.extra["abs_err"] = float(err)
    out.gate("gamma-series: fixed-point cache cold at start", inp["cold_cache"])
    out.gate(f"gamma-series: |approx - A001620| < {GAMMA_TOLERANCE}", err < GAMMA_TOLERANCE)
    out.gate("gamma-series: bla101_partial(1, 0) == mascheroni_partial(0, 0)",
             res["bla101"] == res["mascheroni0"])
    return out


# --- prime-search ------------------------------------------------------------


def search_inputs(seed: int) -> dict:
    shift = 0 if seed == 0 else random.Random(seed).randrange(1, SEARCH_MAX_SHIFT)
    cache.cache_dir().mkdir(parents=True)  # fails if the directory is not fresh
    return {"window": _window(SEARCH_WINDOW, shift), "seed": seed}


def _scan(window) -> dict:
    scans = {}
    for target in SEARCH_TARGETS:
        hits, records = searches.search_zero_primes(target, window)
        scans[target] = (hits, records, cache.append_records(records))
    return scans


def search_run(inp: dict, threads: int) -> dict:
    t0 = time.perf_counter()
    cold = _scan(inp["window"])
    t1 = time.perf_counter()
    warm = _scan(inp["window"])
    t2 = time.perf_counter()
    checked, mismatches = cache.verify_sample(SEARCH_SAMPLE, seed=inp["seed"])
    return {
        "cold": cold,
        "warm": warm,
        "sample": (checked, mismatches),
        "warm_interval": (t1, t2),
    }


def residue_digest(records) -> str:
    return digest(json.dumps([[r.prime, r.residue] for r in records]))


def search_check(inp: dict, res: dict, golden: dict) -> Outcome:
    """golden holds the eA-zero hits over every seed's window, and at seed 0
    the residue digests."""
    out = Outcome()
    window = inp["window"]
    lo, hi = (window[0], window[-1]) if window else (0, -1)
    expected_hits = {
        "wilson": [p for p in WILSON_PRIMES if lo <= p <= hi],
        "eA-zero": [p for p in golden["eA_hits"] if lo <= p <= hi],
    }
    out.gate("prime-search: window has primes", window)
    for target in SEARCH_TARGETS:
        hits, records, written = res["cold"][target]
        whits, wrecords, wwritten = res["warm"][target]
        out.ops += len(records) + len(wrecords)
        out.failed_ops += sum(a.residue != b.residue for a, b in zip(records, wrecords))
        out.gate(f"{target}: one record per scanned prime", [r.prime for r in records] == window)
        out.gate(f"{target}: hits match the known list", hits == expected_hits[target])
        out.gate(f"{target}: cold pass writes every record", written == len(window))
        out.gate(f"{target}: warm pass writes nothing", wwritten == 0)
        out.gate(f"{target}: warm pass agrees with cold pass",
                 whits == hits and [r.prime for r in wrecords] == window)
        if "residue_sha256" in golden:
            out.gate(f"{target}: residue sha256 matches golden",
                     residue_digest(records) == golden["residue_sha256"][target])
    checked, mismatches = res["sample"]
    out.ops += checked
    out.failed_ops += len(mismatches)
    out.gate("cache.verify_sample: full sample rechecked",
             checked == len(SEARCH_TARGETS) * min(SEARCH_SAMPLE, len(window)))
    start, end = res["warm_interval"]
    out.extra["rescan_s"] = end - start
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # thread count of the untraced run; traced runs use 1
    inputs: object
    run: object
    check: object

    def golden(self, seed: int) -> object:
        g = load_golden()[self.name]
        if self.name == "prime-search":
            return g if seed == 0 else {"eA_hits": g["eA_hits"]}
        return g if seed == 0 else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("euler-window", 1, euler_inputs, euler_run, euler_check),
        Workload("dobinski-window", DOBINSKI_THREADS, dobinski_inputs, dobinski_run,
                 dobinski_check),
        Workload("gamma-series", 1, gamma_inputs, gamma_run, gamma_check),
        Workload("prime-search", 1, search_inputs, search_run, search_check),
    )
}


def make_golden() -> dict:
    """Golden values at seed 0, from the program as it stands.  golden.json was
    written once with

        ACONST_CACHE_DIR=$(mktemp -d) PYTHONPATH=src:perfbench python3 -c \\
          "import json, workloads; print(json.dumps(workloads.make_golden(), indent=1))"
    """
    golden = {}
    for name in ("euler-window", "dobinski-window"):
        w = WORKLOADS[name]
        res = w.run(w.inputs(0), 1)
        golden[name] = [golden_entry(r, t) for r, t in zip(res["reports"], res["texts"])]
    full = sieve_primes(SEARCH_WINDOW[0], SEARCH_WINDOW[1] + SEARCH_MAX_SHIFT)
    seed0 = _window(SEARCH_WINDOW)
    golden["prime-search"] = {
        "eA_hits": searches.search_zero_primes("eA-zero", full)[0],
        "residue_sha256": {
            t: residue_digest(searches.search_zero_primes(t, seed0)[1]) for t in SEARCH_TARGETS
        },
    }
    golden["gamma-series"] = {}
    return golden

