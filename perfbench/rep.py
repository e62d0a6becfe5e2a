"""One repetition of one workload, in a fresh interpreter; prints one JSON line.

    python3 perfbench/rep.py --workload NAME --seed N --work DIR
                             [--threads T] [--trace] [--setup-only]

run.py starts one of these per measured repetition, so that no cache of the
package (the ``lru_cache`` on ``_gregory_fixed``, the cache on
``gregory_polynomials``, a residue cache directory) survives from one
repetition into the next.  The package is imported from ``src/`` of this
checkout, and ACONST_CACHE_DIR points into DIR, so no run reads or writes
``~/.cache/aconst``.

Set-up (import plus input construction) ends at ``ready_at``, a
CLOCK_MONOTONIC reading that run.py compares with the moment it started this
process.  The timed section follows, between two runs of a fixed reference
loop that give the host's speed at the time (run.py says why and how wall_s
is scaled by them); the gate runs after it, untimed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REF_LOOP_N = 600_000
REF_LOOP_S = 0.05  # the reference loop's time on the reference host


def _ref_loop() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed just now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP_N):
        s += i * i % 7
    return time.perf_counter() - t0


def _rss_kb() -> int:
    """Resident size of this process now, in KiB (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024
    except OSError:
        return 0


def _cache_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.glob("*.jsonl")) if path.is_dir() else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--threads", type=int, help="default: the workload's own")
    ap.add_argument("--trace", action="store_true", help="trace at one thread")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cache_path = args.work / "cache"
    os.environ["ACONST_CACHE_DIR"] = str(cache_path)
    sys.path.insert(0, str(ROOT / "src"))
    import aconst

    if Path(aconst.__file__).resolve().parent != ROOT / "src" / "aconst":
        print(f"imported aconst from {aconst.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    inp = w.inputs(args.seed)
    golden = w.golden(args.seed)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    threads = 1 if args.trace else args.threads or w.threads
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(w.threads)
        tracer.install()
    ref_before = _ref_loop()
    # a forked pool worker's resident size starts with the pages it shares
    # with this process; each worker writes that size down as it starts
    forks = args.work / "forks"
    forks.mkdir()
    os.register_at_fork(
        after_in_child=lambda: (forks / str(os.getpid())).write_text(str(_rss_kb())))
    t0 = time.perf_counter()
    with tracer.root() if tracer else contextlib.nullcontext():
        res = w.run(inp, threads)
    wall = time.perf_counter() - t0
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # the largest worker's peak less the largest size a worker started with:
    # the pool workers run alike, and later pools fork from a larger process
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    start_kb = max((int(f.read_text()) for f in forks.iterdir()), default=0)
    worker_own_kb = max(0, worker_kb - start_kb)
    ref_loop = (ref_before + _ref_loop()) / 2
    if tracer:
        tracer.uninstall()

    out = w.check(inp, res, golden)
    rec = {
        "ready_at": ready_at,
        "wall_s": wall / ref_loop * REF_LOOP_S,
        "wall_raw_s": wall,
        "ref_loop_s": ref_loop,
        # this process's peak plus, for each of the `threads` pool workers,
        # the largest worker's own growth; shared pages count once
        "peak_rss_mb": (self_kb + threads * worker_own_kb) / 1024,
        "attempted": out.attempted,
        "failed": out.failed,
        "ops": out.ops,
        "failed_ops": out.failed_ops,
        "gate_failures": out.failures(),
        **out.extra,
    }
    if tracer is not None:
        warm = None
        if "warm_interval" in res:
            start, end = res["warm_interval"]
            warm = (start, end, len(workloads.SEARCH_TARGETS) * len(inp["window"]))
        rec["layers"] = tracer.metrics(warm, _cache_bytes(cache_path))
        rec["layers"]["parallel.fanout_s"] = tracing.fanout_probe(inp.get("window", []))
        tracer.dump(args.work / "spans.jsonl")
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
