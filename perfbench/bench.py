"""Timed phases, metrics and report of the benchmark.

One process, one closed-loop client, no threads.  Every time is taken at
the reference speed of the machine (see speed.py): each timed step runs
between reference loops and is scaled by them.  The untraced run (trace 0)
gives the end-to-end metrics:

  setup_s         parse_tv + decompose + Ewds.build + build_nm_layer (trie
                  included): what `nmdecomp query` pays on every call.
                  Median of the rounds' set-ups; summed over a batch.
  encode_s        compute_renumbering + apply_renumbering + both dump_bytes.
                  Median of the encodings; summed over a batch.
  query_p50_us, query_p99_us, query_qps
                  NmLayer.snm_global called back to back in passes over the
                  seeded query pool, each query taking its median latency
                  over the passes; qps is the pool size over the sum of
                  those latencies.  Set-ups, passes and encodings alternate
                  for the given seconds.
  ewds_bytes, implicit_bytes
                  lengths of the two dumps, summed over a batch.
  peak_rss_mb     ru_maxrss read after the timed phases, before the checks.

fail_ratio (failed / attempted operations) is printed with them and is the
`failed` / `attempted` pair of the result line.  The traced run (trace 1)
repeats the pipeline with spans, allocation tracking and operation counters
and gives the per-layer metrics listed in PER_LAYER.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
import tracemalloc
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import nmdecomp.nonmanifold as nonmanifold
from nmdecomp import (
    Complex,
    Ewds,
    NmLayer,
    NotInTrie,
    apply_renumbering,
    build_nm_layer,
    compute_renumbering,
    decompose,
    parse_tv,
)
from nmdecomp.counters import OpCounter

import checks
from checks import Checker
from speed import around, loop_seconds, scale
from tracing import Tracer, patched
from workloads import FULL, GENERATORS, RELATIONS, Shape, Workload

OUT_DIR = Path(__file__).resolve().parent / "out"
TRACE_REPS = 2  # untraced and spanned set-ups in the traced run, each

END_TO_END = [
    ("setup_s", "s"),
    ("encode_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("query_qps", "1/s"),
    ("ewds_bytes", "bytes"),
    ("implicit_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("complexes.parse_s", "s"),
    ("complexes.nt", "count"),
    ("complexes.nv", "count"),
    ("complexes.alloc_peak_kib", "KiB"),
    ("decompose.s", "s"),
    ("decompose.ns", "count"),
    ("decompose.nc", "count"),
    ("decompose.components", "count"),
    ("decompose.alloc_peak_kib", "KiB"),
    ("winged.build_s", "s"),
    ("winged.dump_s", "s"),
    ("winged.size", "count"),
    ("winged.diamond_slots", "count"),
    ("winged.boundary_slots", "count"),
    ("winged.alloc_peak_kib", "KiB"),
    ("nonmanifold.build_s", "s"),
    ("nonmanifold.splitmap_s", "s"),
    ("nonmanifold.vnra", "count"),
    ("nonmanifold.splitmap_keys", "count"),
    ("nonmanifold.splitmap_copies", "count"),
    ("nonmanifold.harvest_visits", "count"),
    ("nonmanifold.phi", "count"),
    ("nonmanifold.H_hat", "bits"),
    ("nonmanifold.alloc_peak_kib", "KiB"),
    ("nonmanifold.query_visits", "count"),
    ("nonmanifold.query_expansions", "count"),
    ("nonmanifold.query_comparisons", "count"),
    ("nonmanifold.ops_per_face", "ratio"),
    ("nonmanifold.route_vertex", "ratio"),
    ("nonmanifold.route_splitmap", "ratio"),
    ("nonmanifold.route_trie", "ratio"),
    *((f"nonmanifold.S{n}{m}_p50_us", "us") for n, m in RELATIONS),
    ("trie.build_s", "s"),
    ("trie.nodes", "count"),
    ("trie.words", "count"),
    ("trie.miss_ratio", "ratio"),
    ("renumber.compute_s", "s"),
    ("renumber.apply_s", "s"),
    ("renumber.stored_ratio", "ratio"),
    ("renumber.perms", "count"),
    ("renumber.alloc_peak_kib", "KiB"),
    ("trace.span_overhead_pct", "%"),
    ("trace.alloc_overhead_pct", "%"),
    ("trace.query_overhead_pct", "%"),
]

# span name -> per-layer self-time metric
SELF_TIME = {
    "complexes.parse_tv": "complexes.parse_s",
    "decompose.decompose": "decompose.s",
    "winged.Ewds.build": "winged.build_s",
    "winged.Ewds.dump_bytes": "winged.dump_s",
    "nonmanifold.build_nm_layer": "nonmanifold.build_s",
    "nonmanifold.build_splitmap": "nonmanifold.splitmap_s",
    "trie.build_ft_trie": "trie.build_s",
    "renumber.compute_renumbering": "renumber.compute_s",
    "renumber.apply_renumbering": "renumber.apply_s",
}


def direct(name: str, fn: Callable, *args: Any) -> Any:
    return fn(*args)


@dataclass
class Built:
    src: Any
    dec: Any
    ew: Any
    nm: Any


@dataclass
class Encoded:
    ren: Any
    imp: Any
    ewds_bytes: bytes
    implicit_bytes: bytes


def setup(text: str, call: Callable = direct) -> Built:
    src = call("complexes.parse_tv", parse_tv, text)
    dec = call("decompose.decompose", decompose, src)
    ew = call("winged.Ewds.build", Ewds.build, dec)
    nm = call("nonmanifold.build_nm_layer", build_nm_layer, ew)
    return Built(src, dec, ew, nm)


def encode(ew: Any, call: Callable = direct) -> Encoded:
    ren = call("renumber.compute_renumbering", compute_renumbering, ew)
    imp = call("renumber.apply_renumbering", apply_renumbering, ew, ren)
    ewds_bytes = call("winged.Ewds.dump_bytes", ew.dump_bytes)
    implicit_bytes = call("renumber.ImplicitEwds.dump_bytes", imp.dump_bytes)
    return Encoded(ren, imp, ewds_bytes, implicit_bytes)


def build_all(texts: list[str], chk: Checker, call: Callable = direct):
    """Seconds to set up every complex, and the built layers (None if one raised)."""
    built: list[Built | None] = []
    chk.attempt(len(texts))
    start = time.perf_counter()
    for k, text in enumerate(texts):
        try:
            built.append(setup(text, call))
        except Exception as exc:  # counted, and the batch goes on
            chk.fail(f"setup of complex {k} raised {exc!r}")
            built.append(None)
    return time.perf_counter() - start, built


def encode_all(built: list[Built | None], chk: Checker, call: Callable = direct):
    encoded: list[Encoded | None] = []
    chk.attempt(len(built))
    start = time.perf_counter()
    for k, b in enumerate(built):
        try:
            encoded.append(encode(b.ew, call))
        except Exception as exc:  # counted, and the batch goes on
            chk.fail(f"encoding of complex {k} raised {exc!r}")
            encoded.append(None)
    return time.perf_counter() - start, encoded


@dataclass
class QueryRun:
    """What the closed-loop client saw, pass by pass."""

    passes: list[array] = field(default_factory=list)  # us at the reference speed
    answers: list = field(default_factory=list)  # of the first pass, as kept

    def ask(self, layers: list, queries: list, chk: Checker, keep: int = 0,
            ask: Callable = NmLayer.snm_global) -> None:
        """One pass over the pool, between reference loops."""
        took_ns, k = around(query_pass, layers, queries, self, chk, keep, ask)
        self.passes.append(array("d", (ns * k / 1000 for ns in took_ns)))

    def per_query_us(self) -> list[float]:
        """Per pool entry, its median latency over the passes."""
        return [statistics.median(col) for col in zip(*self.passes)]

    def latencies_us(self) -> list[float]:
        return sorted(self.per_query_us())

    def qps(self) -> float:
        """Queries per second with every pool query at its median latency."""
        lat = self.per_query_us()
        return len(lat) / (sum(lat) / 1e6)


def query_pass(layers: list, queries: list, run: QueryRun, chk: Checker,
               keep: int = 0, ask: Callable = NmLayer.snm_global) -> list[int]:
    """One pass of the closed-loop client over the pool; per query, the
    nanoseconds its answer took.

    The next query is sent when the previous one returned.  The first
    `keep` answers of the run are kept for the checks.
    """
    took: list[int] = []
    clock = time.perf_counter_ns
    for k, gamma, n, m in queries:
        t0 = clock()
        try:
            out = ask(layers[k], gamma, n, m)
        except Exception as exc:  # counted; the client keeps going
            chk.fail(f"S{n}{m}{gamma} on complex {k} raised {exc!r}")
            out = None
        took.append(clock() - t0)
        if len(run.answers) < keep:
            run.answers.append(out)
    chk.attempt(len(queries))
    return took


def rounds(seconds: float, min_rounds: int, steps: list[Callable[[], None]]) -> int:
    """Run the steps in turn, round after round, for at least `seconds` and
    `min_rounds` rounds; returns the number of rounds.

    Interleaving spreads every measurement over the whole phase, so that a
    slow spell of the machine does not fall on one metric alone.
    """
    deadline = time.perf_counter() + seconds
    done = 0
    while done < min_rounds or time.perf_counter() < deadline:
        for step in steps:
            step()
        done += 1
    return done


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return values[max(0, math.ceil(q * len(values)) - 1)]


def layer_list(built: list[Built | None]) -> list:
    return [b.nm if b is not None else None for b in built]


def shape_of(built: list[Built | None]) -> dict:
    """Sizes that show whether a generator still produces what it claims."""
    tops: Counter = Counter()
    out = Counter()
    for b in built:
        if b is None:
            continue
        tops.update(b.src.dim_of(t) for t in b.src.top_ids)
        out["NS"] += b.dec.ns
        out["NC"] += b.dec.nc
        out["components"] += len(b.dec.components)
        out["vnra"] += len(b.nm.v_nra)
        out["splitmap_keys"] += len(b.nm.splitmap)
        out["diamond_slots"] += b.ew.ttp[1:].count(-1)
    return {"tops": dict(sorted(tops.items())), **out}


def run_checks(wl: Workload, built, encoded, answers, chk: Checker, shape: dict) -> None:
    sources = [Complex(rows, validate=False) for rows in wl.rows]
    for k, rows in enumerate(wl.rows):
        b, e = built[k], encoded[k]
        if b is None or e is None:
            continue  # already counted as failed
        chk.guarded("parse", lambda: checks.check_parse(chk, b.src, rows))
        chk.guarded("paste", lambda: checks.check_paste(chk, b.dec, rows))
        chk.guarded("pairs", lambda: checks.check_manifold_pairs(chk, b.dec, rows))
        if wl.name == "many-small":
            chk.guarded("oracle", lambda: checks.check_oracle_decompose(chk, b.dec, sources[k]))
        chk.guarded("dump", lambda: checks.check_dump(chk, b.ew, e.ewds_bytes))
        chk.guarded("implicit", lambda: checks.check_implicit(chk, b.ew, e.ren, e.imp))
    chk.guarded(
        "queries",
        lambda: checks.check_queries(chk, sources, wl.queries[: len(answers)], answers),
    )
    checks.check_shape(chk, wl.name, shape)


# -- untraced run: end-to-end metrics ---------------------------------------


def untraced(wl: Workload, shape: Shape, seconds: float, chk: Checker):
    """Set-ups, query passes and encodings in turn for `seconds`."""
    texts = wl.texts()
    q = QueryRun()
    setup_times: list[float] = []   # seconds at the reference speed
    encode_times: list[float] = []
    built: list = []
    encoded: list = []

    def setting_up() -> None:
        nonlocal built, encoded
        built, encoded = [], []  # one layer alive at a time
        gc.collect()
        (took, built), k = around(build_all, texts, chk)
        setup_times.append(took * k)

    def encoding() -> None:
        nonlocal encoded
        encoded = []
        gc.collect()
        (took, encoded), k = around(encode_all, built, chk)
        encode_times.append(took * k)

    def asking() -> None:
        q.ask(layer_list(built), wl.queries, chk, wl.sample)

    # the tail latencies need the most samples, so two passes per encoding
    steps = [asking, asking, encoding] * wl.encodings_per_setup
    rounds(seconds, shape.min_rounds, [setting_up] + steps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    shp = shape_of(built)
    run_checks(wl, built, encoded, q.answers, chk, shp)
    lat = q.latencies_us()
    done = [e for e in encoded if e is not None]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "encode_s": statistics.median(encode_times),
        "query_p50_us": statistics.median(lat),
        "query_p99_us": percentile(lat, 0.99),
        "query_qps": q.qps(),
        "ewds_bytes": sum(len(e.ewds_bytes) for e in done),
        "implicit_bytes": sum(len(e.implicit_bytes) for e in done),
        "peak_rss_mb": peak_rss_mb,
    }
    asked = f"{len(lat)} pool queries, median of {len(q.passes)} passes each"
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "encode_s": f"median of {len(encode_times)} encodings",
        "query_p50_us": asked,
        "query_p99_us": f"{asked}; {len(lat) - math.ceil(0.99 * len(lat))} above",
        "query_qps": f"pool size over the sum of those {len(lat)} latencies",
    }
    return metrics, notes, shp


# -- traced run: per-layer metrics -------------------------------------------


def timed_pipeline(texts: list[str], chk: Checker, call: Callable):
    """Seconds to set up and encode every complex, and what that built."""
    gc.collect()
    start = time.perf_counter()
    _, built = build_all(texts, chk, call)
    _, encoded = encode_all(built, chk, call)
    return time.perf_counter() - start, built, encoded


def traced(wl: Workload, shape: Shape, seconds: float, chk: Checker, spans_path: Path):
    texts = wl.texts()
    tracer = Tracer()
    inner = [
        ("build_splitmap", "nonmanifold.build_splitmap"),
        ("build_ft_trie", "trie.build_ft_trie"),
    ]

    # set-up and encoding, untraced and spanned in turn
    plain_s, spanned_s, scales = [], [], []
    for rep in range(TRACE_REPS):
        (took, _, _), k = around(timed_pipeline, texts, chk, direct)
        plain_s.append(took * k)
        tracer.run = f"setup{rep}"
        wrappers = [(attr, tracer.wrap(name, getattr(nonmanifold, attr))) for attr, name in inner]
        with patched(nonmanifold, *wrappers[0]), patched(nonmanifold, *wrappers[1]):
            (took, _, _), k = around(timed_pipeline, texts, chk, tracer.call)
        spanned_s.append(took * k)
        scales.append(k)
    per_run = tracer.self_seconds()
    runs = [per_run[f"setup{rep}"] for rep in range(TRACE_REPS)]
    metrics: dict[str, float] = {
        metric: statistics.median(r.get(span, 0.0) * k for r, k in zip(runs, scales))
        for span, metric in SELF_TIME.items()
    }

    # one more pass with tracemalloc and the harvest counter
    peaks: dict[str, int] = {}
    harvest = OpCounter()
    build_splitmap = nonmanifold.build_splitmap

    def counted_splitmap(ewds, sigma_n, copies_of, v_nra, counter=None):
        return build_splitmap(ewds, sigma_n, copies_of, v_nra, harvest)

    def measured(name: str, fn: Callable, *args: Any) -> Any:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        layer = name.split(".", 1)[0]
        peaks[layer] = max(peaks.get(layer, 0), tracemalloc.get_traced_memory()[1] - base)
        return out

    before = loop_seconds()  # outside tracemalloc, which would slow the loops
    tracemalloc.start()
    try:
        with patched(nonmanifold, "build_splitmap", counted_splitmap):
            alloc_s, built, encoded = timed_pipeline(texts, chk, measured)
    finally:
        tracemalloc.stop()
    alloc_s *= scale(before, loop_seconds())
    for layer in ("complexes", "decompose", "winged", "nonmanifold", "renumber"):
        metrics[f"{layer}.alloc_peak_kib"] = peaks.get(layer, 0) / 1024
    metrics["nonmanifold.harvest_visits"] = harvest.visits
    metrics.update(structure_metrics(built, encoded))
    base_s = statistics.median(plain_s)
    metrics["trace.span_overhead_pct"] = 100 * (statistics.median(spanned_s) / base_s - 1)
    metrics["trace.alloc_overhead_pct"] = 100 * (alloc_s / base_s - 1)

    # queries: untraced passes and passes with spans and counters in turn
    layers = layer_list(built)
    plain, spanned = QueryRun(), QueryRun()
    probe = QueryProbe(tracer)
    rounds(seconds, shape.min_rounds, [
        lambda: plain.ask(layers, wl.queries, chk, wl.sample),
        lambda: spanned.ask(layers, wl.queries, chk, ask=probe.ask),
    ])
    metrics.update(probe.metrics())
    metrics["trace.query_overhead_pct"] = 100 * (
        statistics.median(spanned.latencies_us()) / statistics.median(plain.latencies_us()) - 1
    )
    by_rel: dict[tuple[int, int], list[float]] = {rel: [] for rel in RELATIONS}
    for (_, _, n, m), us in zip(wl.queries, plain.per_query_us()):
        if (n, m) in by_rel:
            by_rel[(n, m)].append(us)
    for (n, m), vals in by_rel.items():
        metrics[f"nonmanifold.S{n}{m}_p50_us"] = statistics.median(vals) if vals else 0.0

    shp = shape_of(built)
    run_checks(wl, built, encoded, plain.answers, chk, shp)
    tracer.write(spans_path)
    return metrics, {}, shp


class QueryProbe:
    """Asks like the plain client, inside a span and with an OpCounter,
    and tallies the route each query takes through NmLayer.snm_global."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counter = OpCounter()
        self.ops: Counter = Counter()
        self.routes: Counter = Counter()
        self.misses = 0
        self.asked = 0

    def ask(self, layer: NmLayer, gamma: tuple, n: int, m: int) -> set:
        route = "vertex" if n == 0 else "splitmap" if gamma in layer.splitmap else "trie"
        self.routes[route] += 1
        counter = self.counter
        counter.reset()
        self.tracer.run = f"query{self.asked}"
        self.asked += 1
        out = self.tracer.call("nonmanifold.snm_global", layer.snm_global, gamma, n, m, counter)
        self.ops["visits"] += counter.visits
        self.ops["expansions"] += counter.expansions
        self.ops["comparisons"] += counter.comparisons
        self.ops["faces"] += len(out)
        if route == "trie":
            try:
                layer.trie.lookup(gamma)
            except NotInTrie:
                self.misses += 1
        return out

    def metrics(self) -> dict:
        asked = max(1, self.asked)
        ops = self.ops
        total = ops["visits"] + ops["expansions"] + ops["comparisons"]
        return {
            "nonmanifold.query_visits": ops["visits"] / asked,
            "nonmanifold.query_expansions": ops["expansions"] / asked,
            "nonmanifold.query_comparisons": ops["comparisons"] / asked,
            "nonmanifold.ops_per_face": total / max(1, ops["faces"]),
            "nonmanifold.route_vertex": self.routes["vertex"] / asked,
            "nonmanifold.route_splitmap": self.routes["splitmap"] / asked,
            "nonmanifold.route_trie": self.routes["trie"] / asked,
            "trie.miss_ratio": self.misses / max(1, self.routes["trie"]),
        }


def structure_metrics(built: list[Built | None], encoded: list[Encoded | None]) -> dict:
    """Sizes and counts of what the pipeline built, summed over a batch."""
    out: Counter = Counter()
    for b, e in zip(built, encoded):
        if b is None or e is None:
            continue
        stats = b.nm.stats()
        ttp = b.ew.ttp[1:]
        out.update({
            "complexes.nt": b.src.num_tops,
            "complexes.nv": b.src.num_vertices,
            "decompose.ns": b.dec.ns,
            "decompose.nc": b.dec.nc,
            "decompose.components": len(b.dec.components),
            "winged.size": b.ew.size,
            "winged.diamond_slots": ttp.count(-1),
            "winged.boundary_slots": ttp.count(0),
            "nonmanifold.vnra": len(b.nm.v_nra),
            "nonmanifold.splitmap_keys": len(b.nm.splitmap),
            "nonmanifold.splitmap_copies": sum(len(c) for c in b.nm.splitmap.values()),
            "nonmanifold.phi": stats["phi"],
            "nonmanifold.H_hat": stats["H_hat"],
            "trie.nodes": b.nm.trie.num_nodes,
            "trie.words": b.nm.trie.num_words,
            "renumber.perms": len(e.ren.perms),
            "stored": len(e.imp.tvpp) - 1,
        })
    out["renumber.stored_ratio"] = out.pop("stored", 0) / max(1, out["winged.size"])
    return dict(out)


# -- entry point -------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        shape: Shape = FULL, spans_path: Path | None = None) -> dict:
    """Run one workload, print the report and return the result record."""
    wl = GENERATORS[workload](seed, shape)
    chk = Checker()
    if trace:
        path = spans_path or OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        values, notes, shp = traced(wl, shape, seconds, chk, path)
        units = PER_LAYER
    else:
        values, notes, shp = untraced(wl, shape, seconds, chk)
        units = END_TO_END
    print(f"workload {workload}  seed {seed}  complexes {len(wl.rows)}  "
          f"queries in pool {len(wl.queries)}")
    print("shape  " + "  ".join(f"{k} {v}" for k, v in shp.items()))
    metrics = {}
    for name, unit in units:
        metrics[name] = {"value": values[name], "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {values[name]:>16.6g} {unit}{note}")
    print(f"{'fail_ratio':34s} {chk.fail_ratio:>16.6g} ratio"
          f"  ({chk.failed} failed of {chk.attempted} operations)")
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result
