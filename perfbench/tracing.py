"""Span tracing for the traced run, installed from the benchmark's side.

Nothing under ``src/`` changes: each layer's module-level functions are
wrapped, and every module binding of a wrapped function is replaced, since
the package imports its kernels by name (``euler.gregory_residue_stream`` is
the same object as ``polys.gregory_residue_stream``).  Spans stay in memory
as ``[name, layer, start, end, parent]`` lists and are written out once,
after the timed section.

Fan-out sites (``_parallel.run_prime_shards`` and the private pool of
``verify_dobinski``) run in process, shard by shard, under the strided split
into PROBE_SHARDS shards, so that the traced run can time each shard and
size the pickled payloads and results.  The ``parallel.pools``, ``.bytes``
and ``.imbalance`` metrics count these shards only on a workload whose
untraced run uses more than one thread; elsewhere they are 0.  The report
bytes do not depend on the split: the verifiers sort their records by prime.
"""

from __future__ import annotations

import contextlib
import functools
import json
import pickle
import statistics
import sys
import time
from collections import defaultdict

from aconst import _parallel, analytic, cache, dobinski, euler, polys, report, searches
from aconst.modular import PrimeCtx

LAYERS = ("modular", "polys", "euler", "dobinski", "analytic", "parallel", "report",
          "cache", "searches", "bench")
PROBE_SHARDS = 2
_ORIGINAL_RUN_PRIME_SHARDS = _parallel.run_prime_shards


def _noop_shard(payload):
    return None


def fanout_probe(primes, repeats: int = 5) -> float:
    """Median wall time of one pool fan-out over ``primes`` with a no-op worker."""
    if len(primes) < 2:
        return 0.0
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _ORIGINAL_RUN_PRIME_SHARDS(_noop_shard, (), primes, PROBE_SHARDS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _strided(primes) -> list:
    return [s for s in (list(primes[i::PROBE_SHARDS]) for i in range(PROBE_SHARDS)) if s]


class Tracer:
    def __init__(self, workload_threads: int):
        self.workload_threads = workload_threads
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.gregory_keys: list[tuple] = []
        self.gregory_terms = 0
        self.d_sums_terms = 0
        self.report_bytes = 0
        self.report_records = 0
        self.records_written = 0
        self.inv_primes: list[int] = []
        self.fanouts: list[tuple[list, list, list[float]]] = []  # payloads, results, times
        self._restore: list = []

    # --- spans -------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def traced(self, name: str, fn, on_call=None):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self):
        """The benchmark's own span around the timed section."""
        idx = self._open("bench.timed", "bench")
        try:
            yield
        finally:
            self._close(idx)

    # --- installation ------------------------------------------------------

    def _rebind(self, orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "aconst" and not name.startswith("aconst."):
                continue
            for attr in [a for a, v in vars(mod).items() if v is orig]:
                self._restore.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

    def _set_attr(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        fns = [
            (polys.gregory_residue_stream, "polys.gregory_stream", self._on_gregory),
            (euler._wilson_component, "euler.wilson", None),
            (euler.fermat_quotient, "euler.fermat", None),
            (euler._mascheroni_sum, "euler.sums", None),
            (euler._kluyver_sum, "euler.sums", None),
            (dobinski._d_sums_mod, "dobinski.d_sums", self._on_d_sums),
            (dobinski.coeff_family, "dobinski.coeff_family", None),
            (dobinski.verify_dobinski, "dobinski.verify", None),
            (analytic._validated_fixed, "analytic.validate", None),
            (analytic.mascheroni_partial, "analytic.series", None),
            (analytic.bla101_partial, "analytic.series", None),
            (cache.append_records, "cache.append", self._on_append),
            (cache.load_records, "cache.load", None),
            (cache.verify_sample, "cache.verify_sample", None),
            (searches.search_zero_primes, "searches.scan", None),
            (searches.recompute, "searches.recompute", None),
        ]
        for name in ("verify_mascheroni", "verify_interlude", "verify_kluyver", "gamma_M",
                     "wilson_gamma", "_mascheroni_batch", "_interlude_batch", "_kluyver_batch"):
            fns.append((getattr(euler, name), "euler.verify", None))
        for orig, name, hook in fns:
            self._rebind(orig, self.traced(name, orig, hook))

        kernels = {}
        for target, (tag, fn) in searches._TARGET_FNS.items():
            wrapped = self.traced("searches.kernel", fn)
            self._rebind(fn, wrapped)
            kernels[target] = (tag, wrapped)
        self._set_attr(searches, "_TARGET_FNS", kernels)

        fixed = analytic._gregory_fixed
        self._fixed, self._fixed_hits0 = fixed, fixed.cache_info().hits
        self._rebind(fixed, self.traced("analytic.gregory_fixed", fixed))
        self._rebind(_ORIGINAL_RUN_PRIME_SHARDS, self.traced("parallel.shards", self._run_shards))
        batch = dobinski._dobinski_batch
        self._rebind(batch, self.traced("dobinski.verify", self._dobinski_shards(batch)))

        inv = PrimeCtx.__dict__["inv_table"]
        prop = functools.cached_property(self.traced("modular.inv_table", inv.func, self._on_inv))
        prop.__set_name__(PrimeCtx, "inv_table")
        self._set_attr(PrimeCtx, "inv_table", prop)
        cls = report.VerificationReport
        self._set_attr(cls, "to_jsonl", self.traced("report.to_jsonl", cls.to_jsonl,
                                                    self._on_jsonl))
        self._set_attr(cls, "sort_records", self.traced("report.sort", cls.sort_records))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # --- counters at the layer boundaries ----------------------------------

    def _on_gregory(self, args, result) -> None:
        x, n_max, ctx = args
        self.gregory_keys.append((x, n_max, ctx.p))
        self.gregory_terms += n_max

    def _on_d_sums(self, args, result) -> None:
        r, n_max, x, p = args
        if result is not None:
            self.d_sums_terms += (p - 1) * (n_max + 1)

    def _on_append(self, args, result) -> None:
        self.records_written += result

    def _on_inv(self, args, result) -> None:
        self.inv_primes.append(args[0].p)

    def _on_jsonl(self, args, text) -> None:
        self.report_bytes += len(text.encode())
        self.report_records += text.count("\n")

    def _run_shards(self, fn, static_args, primes, threads):
        payloads = [(static_args, s) for s in _strided(primes)] or [(static_args, [])]
        return self._fan_out(fn, payloads)

    def _dobinski_shards(self, batch):
        def run(args):
            *static, primes = args
            payloads = [(*static, s) for s in _strided(primes)] or [args]
            results = self._fan_out(batch, payloads)
            return [c for r in results for c in r[0]], [s for r in results for s in r[1]]

        return run

    def _fan_out(self, fn, payloads) -> list:
        results, times = [], []
        for payload in payloads:
            t0 = time.perf_counter()
            results.append(fn(payload))
            times.append(time.perf_counter() - t0)
        self.fanouts.append((payloads, results, times))
        return results

    # --- metrics -----------------------------------------------------------

    def metrics(self, warm: tuple | None, cache_bytes: int) -> dict:
        """Per-layer metrics; warm is (start, end, primes scanned) of a rescan."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            own = end - start - child[i]
            busy[name] += end - start
            calls[name] += 1
            self_time[name] += own
            layer_self[layer] += own

        distinct = len(set(self.gregory_keys))
        # a workload whose untraced run stays at one thread fans out nowhere,
        # so its emulated shards describe no pool and count for nothing
        fanouts = self.fanouts if self.workload_threads > 1 else []
        sites = [(p, r, t) for p, r, t in fanouts if len(t) > 1]
        pools = len(sites)
        imbalance = (sum(max(t) for _, _, t in sites)
                     / sum(statistics.fmean(t) for _, _, t in sites)) if sites else 0.0
        fan_bytes = sum(len(pickle.dumps(x)) for p, r, _ in fanouts for x in (*p, *r))
        served = 0.0
        if warm is not None:
            start, end, scanned = warm
            computed = sum(1 for s in self.spans
                           if s[0] == "searches.kernel" and start <= s[2] < end)
            served = 1 - computed / scanned
        built = calls["modular.inv_table"]

        m = {
            "polys.gregory_stream.busy_s": busy["polys.gregory_stream"],
            "polys.gregory_stream.calls": calls["polys.gregory_stream"],
            "polys.gregory_stream.distinct": distinct,
            "polys.gregory_stream.reuse": calls["polys.gregory_stream"] - distinct,
            "polys.gregory_stream.terms": self.gregory_terms,
            "euler.wilson.busy_s": busy["euler.wilson"],
            "euler.wilson.calls": calls["euler.wilson"],
            "euler.fermat.busy_s": busy["euler.fermat"],
            "euler.fermat.calls": calls["euler.fermat"],
            "euler.sums.busy_s": busy["euler.sums"],
            "euler.verify.self_s": self_time["euler.verify"],
            "dobinski.d_sums.busy_s": busy["dobinski.d_sums"],
            "dobinski.d_sums.calls": calls["dobinski.d_sums"],
            "dobinski.d_sums.terms": self.d_sums_terms,
            "dobinski.coeff_family.busy_s": busy["dobinski.coeff_family"],
            "dobinski.verify.self_s": self_time["dobinski.verify"],
            "modular.primectx.built": built,
            "modular.primectx.per_prime": built / len(set(self.inv_primes)) if built else 0.0,
            "analytic.gregory_fixed.busy_s": busy["analytic.gregory_fixed"],
            "analytic.gregory_fixed.calls": calls["analytic.gregory_fixed"],
            "analytic.gregory_fixed.cache_hits": (self._fixed.cache_info().hits
                                                   - self._fixed_hits0),
            "analytic.validate.self_s": self_time["analytic.validate"],
            "parallel.pools": pools,
            "parallel.bytes": fan_bytes,
            "parallel.imbalance": imbalance,
            "report.to_jsonl.busy_s": busy["report.to_jsonl"],
            "report.bytes": self.report_bytes,
            "report.records": self.report_records,
            "cache.append_s": busy["cache.append"],
            "cache.load_s": busy["cache.load"],
            "cache.records_written": self.records_written,
            "cache.bytes": cache_bytes,
            "cache.served_ratio": served,
            "searches.kernel_calls": calls["searches.kernel"],
        }
        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = layer_self[layer]
        return m

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

