"""The aconst benchmark: one workload, measured for a fixed time, with a gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see workloads.py for why each
was chosen): euler-window, dobinski-window, gamma-series, prime-search.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: each
repetition runs in a fresh interpreter (rep.py) until the time is used up,
and the medians are reported.  Set-up is sampled in every timed interpreter
and in set-up-only interpreters interleaved with them.  --trace 1 alternates
untraced and traced repetitions, both at one thread, and reports the
per-layer metrics of BENCHMARK.json, the layers' self times, and the
tracing overhead.

wall_s and setup_s are scaled to a reference host speed.  The speed of this
kind of shared host drifts by up to 2x over minutes, in CPU time as much as
in wall time, so each timing is divided by a reference taken beside it and
multiplied by that reference's time on the reference host:

* wall_s: the timed section over the mean of a fixed pure-Python loop run
  just before and just after it in the same interpreter, x REF_LOOP_S
  (rep.py);
* setup_s: set-up over the start-up time of a bare ``python3 -c pass``
  measured just before it, x REF_START_S.

The reference host is a nominal one, on which the loop takes REF_LOOP_S and
the bare start-up REF_START_S; both are about what they took on the host of
perfbench/BASELINE.json, so scaled and unscaled times are of a size.  A
change to the program moves the scaled times as it moves the unscaled ones,
which are printed beside them (wall_raw_s, setup_raw_s); the traced run's
trace.* walls are unscaled, like its span times.

Every repetition is gated (see workloads.py); the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Scratch files live under .bench_build/perfbench and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REP = Path(__file__).with_name("rep.py")
SETUP_SAMPLES = 5  # set-up-only interpreters before the timed ones
REF_START_S = 0.05  # bare interpreter start-up on the reference host
HARD_LIMIT_S = 170  # a run must end within 180 s


class RepError(RuntimeError):
    pass


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else ref


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.count = 0
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, *extra: str) -> dict:
        self.count += 1
        rep_dir = self.work / f"rep-{self.count}"
        rep_dir.mkdir()
        cmd = [sys.executable, str(REP), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--work", str(rep_dir), *extra]
        left = HARD_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise RepError("out of time before the first repetition ended")
        bare_start = self.bare_start(rep_dir, left)
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RepError(f"repetition did not end within {left:.0f} s")
        if proc.returncode != 0:
            raise RepError(f"repetition exited with {proc.returncode}:\n{err[-3000:]}")
        rec = json.loads(out.strip().splitlines()[-1])
        rec["setup_raw_s"] = rec["ready_at"] - t0
        rec["bare_start_s"] = bare_start
        rec["setup_s"] = rec["setup_raw_s"] / bare_start * REF_START_S
        spans = rep_dir / "spans.jsonl"
        if spans.exists():
            spans.replace(self.work.parent / f"spans-{self.args.workload}.jsonl")
        shutil.rmtree(rep_dir)
        return rec

    def bare_start(self, cwd: Path, timeout: float) -> float:
        """Wall time of starting and ending ``python3 -c pass``."""
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=self.env,
                       timeout=timeout, check=True)
        return time.monotonic() - t0

    def repeat(self, *modes: tuple[str, ...]) -> list[list[dict]]:
        """Run the given modes in turn until the measuring time is used up."""
        results: list[list[dict]] = [[] for _ in modes]
        t_start = time.monotonic()
        while True:
            t_round = time.monotonic()
            for i, extra in enumerate(modes):
                results[i].append(self.spawn(*extra))
            now = time.monotonic()
            if now - t_start + (now - t_round) > self.args.seconds:
                return results


def _spread(values: list[float]) -> str:
    return (f"median {statistics.median(values):.5g} (min {min(values):.5g}, "
            f"max {max(values):.5g}, n={len(values)})")


def _report_reps(reps: list[dict]) -> tuple[int, int, bool]:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for i, r in enumerate(reps, 1):
        print(f"rep {i}: wall_s={r['wall_s']:.4f} wall_raw_s={r['wall_raw_s']:.4f} "
              f"setup_s={r['setup_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} operations={r['ops']} "
              f"failed_operations={r['failed_ops']} gate_failures={len(r['gate_failures'])}")
        for msg in r["gate_failures"]:
            print(f"  GATE FAILED: {msg}")
    print(f"fail_ratio: {failed / attempted:.6g} = {failed} failed / {attempted} attempted "
          f"(checks, compared primes, scanned primes and series evaluations, "
          f"plus gate conditions, over {len(reps)} reps)")
    for key in ("rescan_s", "abs_err"):
        if key in reps[0]:
            print(f"{key}: {_spread([r[key] for r in reps])}")
    return attempted, failed, failed == 0


def _emit(spec: list[dict], values: dict, correct: bool, attempted: int, failed: int) -> None:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_untraced(runner: Runner, bench: dict) -> None:
    runner.spawn("--setup-only")  # warm-up: bytecode compiled, not measured
    setups = [runner.spawn("--setup-only") for _ in range(SETUP_SAMPLES)]
    setup_only, reps = runner.repeat(("--setup-only",), ())
    setups += setup_only + reps
    attempted, failed, correct = _report_reps(reps)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    for key in ("wall_s", "wall_raw_s", "ref_loop_s"):
        print(f"{key}: {_spread([r[key] for r in reps])}")
    for key in ("setup_s", "setup_raw_s", "bare_start_s"):
        print(f"{key}: {_spread([r[key] for r in setups])}")
    print(f"peak_rss_mb: {_spread([r['peak_rss_mb'] for r in reps])}")
    _emit(bench["end_to_end"], values, correct, attempted, failed)


def run_traced(runner: Runner, bench: dict) -> None:
    plain, traced = runner.repeat(("--threads", "1"), ("--trace",))
    attempted, failed, correct = _report_reps(plain + traced)
    # median_low: an observed value, so counts stay whole
    layers = {k: statistics.median_low(r["layers"][k] for r in traced)
              for k in traced[0]["layers"]}
    wall = statistics.median(r["wall_raw_s"] for r in traced)
    untraced = statistics.median(r["wall_raw_s"] for r in plain)
    values = dict(layers)
    values.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "fail_ratio": failed / attempted,
        "rescan_s": statistics.median(r.get("rescan_s", 0.0) for r in plain),
        "abs_err": statistics.median(r.get("abs_err", 0.0) for r in plain),
    })
    print(f"traced wall_s {wall:.4f}, untraced wall_s {untraced:.4f} (threads=1), "
          f"tracing overhead {wall - untraced:+.4f} s")
    print("layer      self_s    share of traced wall")
    for key, value in layers.items():
        if key.startswith("layer."):
            print(f"{key.split('.')[1]:<10} {value:8.4f}  {value / wall:6.1%}")
    _emit(bench["per_layer"], values, correct, attempted, failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "aconst" / "__init__.py").is_file():
        print(f"error: no aconst package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} cpu={_cpu_model()!r} arch={platform.machine()} "
          f"python={platform.python_version()} os={platform.system()} {platform.release()} "
          f"commit={_commit()}")
    work = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args, work)
        (run_traced if args.trace else run_untraced)(runner, bench)
    except RepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
