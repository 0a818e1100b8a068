"""Metrics from one run's measurements: end to end, and per layer from spans."""

from __future__ import annotations

import bisect
import json
import math
import resource
import statistics

from tracing import self_times

# name -> unit, in print order; bench/README.md defines each metric.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "query_cpu_p50_ms": "ms",
    "query_cpu_p90_ms": "ms",
    "queries_per_cpu_s": "1/s",
    "budget_recall": "ratio",
}


def percentile(values: list[float], pct: float, min_beyond: int = 10) -> float:
    """Nearest-rank percentile; refuses when fewer than `min_beyond`
    samples lie above it, because then the tail is not measured."""
    n = len(values)
    rank = math.ceil(pct / 100 * n)
    if n == 0 or n - rank < min_beyond:
        raise ValueError(f"p{pct:g} of {n} samples has {max(n - rank, 0)} beyond it; "
                         f"needs {min_beyond}")
    return sorted(values)[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


NOMINAL_MS = 1.2     # the reference's time, in ms, that CPU times are scaled to
PROBE_WINDOW = 21    # probes whose median gives the reference's time at a sample


def scaled(samples: list[tuple[float, str, float]], probes: list[tuple[float, float]]
           ) -> list[tuple[str, float]]:
    """Scale each (time, key, value) sample by NOMINAL_MS / k, where k is the
    median reference time of the PROBE_WINDOW probes nearest it in time."""
    times = [t for t, _ in probes]
    window = min(PROBE_WINDOW, len(probes))
    out = []
    for t, key, value in samples:
        lo = hi = bisect.bisect_left(times, t)
        while hi - lo < window:
            if lo > 0 and (hi == len(times) or t - times[lo - 1] <= times[hi] - t):
                lo -= 1
            else:
                hi += 1
        k = statistics.median(k for _, k in probes[lo:hi])
        out.append((key, value * NOMINAL_MS / k))
    return out


def key_medians(samples: list[tuple[str, float]]) -> list[float]:
    """The median value of each key, so every question counts once."""
    groups: dict[str, list[float]] = {}
    for key, value in samples:
        groups.setdefault(key, []).append(value)
    return [statistics.median(values) for values in groups.values()]


def end_to_end(out) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and the unscaled values of the scaled ones."""
    def metrics(setup, query, step):
        query, step = key_medians(query), key_medians(step)
        return {
            "setup_s": statistics.median(v for _, v in setup),
            "query_cpu_p50_ms": statistics.median(query),
            "query_cpu_p90_ms": percentile(query, 90),
            "queries_per_cpu_s": len(step) / (sum(step) / 1000),
        }

    raw = metrics(*([(key, v) for _, key, v in samples]
                    for samples in (out.setup_cpu_s, out.query_cpu_ms, out.step_cpu_ms)))
    values = metrics(*(scaled(samples, out.probes)
                       for samples in (out.setup_cpu_s, out.query_cpu_ms, out.step_cpu_ms)))
    values.update(peak_rss_mb=peak_rss_mb(), success_rate=1 - out.failed / out.attempted,
                  budget_recall=statistics.fmean(out.recalls))
    return {name: values[name] for name in END_TO_END}, raw


def workload_figures(out) -> dict[str, tuple[float, str]]:
    """The workload-specific figures, printed by name next to the metrics."""
    figures = {
        "error_rate": (out.failed / out.attempted, "ratio"),
        "setup_wall_s": (statistics.median(out.setup_s), "s"),
        "query_p50_ms": (statistics.median(out.query_ms), "ms"),
        "query_p90_ms": (percentile(out.query_ms, 90), "ms"),
        "queries_per_s": (len(out.step_ms) / (sum(out.step_ms) / 1000), "1/s"),
    }
    if out.append_ms:
        figures["append_p50_ms"] = (statistics.median(out.append_ms), "ms")
        figures["append_p90_ms"] = (percentile(out.append_ms, 90), "ms")
    if out.oracle:
        seconds = [s for _, _, s in out.oracle]
        figures["oracle_p50_s"] = (statistics.median(seconds), "s")
        figures["oracle_questions_per_s"] = (len(seconds) / sum(seconds), "1/s")
        figures["oracle_success_rate"] = (
            sum(1 for _, ok, _ in out.oracle if ok) / len(out.oracle), "ratio")
        costs = [cost for cost, ok, _ in out.oracle if ok]
        for cost in sorted(set(costs)):
            figures[f"oracle_cost{cost}_questions"] = (costs.count(cost), "count")
    if "sweep_s" in out.info:
        figures["sweep_cells_per_s"] = (out.info["sweep_cells"] / out.info["sweep_s"], "1/s")
    if "host_start_s" in out.info:
        figures["host_start_s"] = (out.info["host_start_s"], "s")
    if out.hop0_share:
        figures["or_candidate_share_p50"] = (statistics.median(out.hop0_share), "ratio")
    return figures


# name -> unit, in print order; every workload reports all of them (0 where
# the workload never enters the layer).
PER_LAYER = {
    "retrieve.grep.calls_per_q": "count/q",
    "retrieve.grep.ms_per_q": "ms/q",
    "retrieve.grep.passages_scanned_per_q": "count/q",
    "retrieve.grep.needles_per_q": "count/q",
    "retrieve.grep.query.ms_per_q": "ms/q",
    "retrieve.grep.entity-hop.ms_per_q": "ms/q",
    "retrieve.grep.prf.ms_per_q": "ms/q",
    "retrieve.grep.hit_ratio": "ratio",
    "retrieve.self_ms_per_q": "ms/q",
    "retrieve.candidates_per_q": "count/q",
    "retrieve.hops_per_q": "count/q",
    "retrieve.entity_hop.ms_per_q": "ms/q",
    "retrieve.prf.ms_per_q": "ms/q",
    "annotate.calls_per_q": "count/q",
    "annotate.ms_per_q": "ms/q",
    "annotate.repeat_ratio": "ratio",
    "parse.calls_per_q": "count/q",
    "parse.ms_per_q": "ms/q",
    "rank.score.ms_per_q": "ms/q",
    "rank.score.items_per_q": "count/q",
    "rank.fuse.ms_per_q": "ms/q",
    "rank.self_ms_per_q": "ms/q",
    "service.requests_per_q": "count/q",
    "service.request_bytes_per_q": "bytes/q",
    "service.client_ms_per_q": "ms/q",
    "service.server_ms_per_q": "ms/q",
    "service.wire_ms_per_q": "ms/q",
    "service.served_per_request": "ratio",
    "truncate.ms_per_q": "ms/q",
    "truncate.candidates_in_per_q": "count/q",
    "truncate.kept_ratio": "ratio",
    "render.ms_per_q": "ms/q",
    "corpus.load_s": "s",
    "corpus.passages": "count",
    "corpus.bytes": "bytes",
    "corpus.build_ms": "ms",
    "oracle.grep.calls_per_q": "count/q",
    "oracle.grep.ms_per_q": "ms/q",
    "oracle.pair_grep_ratio": "ratio",
    "oracle.self_ms_per_q": "ms/q",
    "evaluate.build_matrix_s": "s",
    "evaluate.matrix_write_s": "s",
    "evaluate.matrix_read_s": "s",
    "evaluate.matrix_bytes": "bytes",
    "evaluate.simulate_ms_per_cell": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.span_coverage": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(out, tracer) -> dict[str, float]:
    spans = tracer.spans
    selfs = self_times(spans)
    kinds = {s.sid: s.name for s in spans if s.parent == 0}
    n_query = sum(1 for kind in kinds.values() if kind == "query")
    n_oracle = sum(1 for kind in kinds.values() if kind == "oracle")
    groups: dict[tuple[str, str], list] = {}
    for span in spans:
        if span.parent:
            groups.setdefault((kinds[span.root], span.name), []).append(span)

    def of(name: str, kind: str = "query") -> list:
        return groups.get((kind, name), [])

    def ms(items) -> float:
        return sum(s.duration for s in items) * 1000

    def self_ms(items) -> float:
        return sum(selfs[s.sid] for s in items) * 1000

    def total(items, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in items)

    def per_q(value: float) -> float:
        return _ratio(value, n_query)

    grep = of("retrieve.grep")
    annotate = of("annotate") + of("annotate", "oracle")
    requests = of("service.request")
    truncate = of("truncate")
    oracle_grep = of("oracle.grep", "oracle")
    query_roots = [s for s in spans if s.parent == 0 and s.name == "query"]
    oracle_roots = [s for s in spans if s.parent == 0 and s.name == "oracle"]
    request_bytes = sum(len(json.dumps(s.attrs["payload"], ensure_ascii=False).encode()) + 1
                        for s in requests)
    client_ms = ms(requests)
    server_ms = out.service["score_s"] * 1000
    info = out.info
    traced = sum(t for _, t in out.pairs)
    untraced = sum(u for u, _ in out.pairs)
    metrics = {
        "retrieve.grep.calls_per_q": per_q(len(grep)),
        "retrieve.grep.ms_per_q": per_q(ms(grep)),
        "retrieve.grep.passages_scanned_per_q": per_q(total(grep, "scanned")),
        "retrieve.grep.needles_per_q": per_q(total(grep, "needles")),
        "retrieve.grep.hit_ratio": _ratio(total(grep, "hits"), total(grep, "scanned")),
        "retrieve.self_ms_per_q": per_q(self_ms(of("retrieve"))),
        "retrieve.candidates_per_q": per_q(total(of("retrieve"), "candidates")),
        "retrieve.hops_per_q": per_q(total(of("retrieve"), "hops")),
        "retrieve.entity_hop.ms_per_q": per_q(ms(of("retrieve.entity_hop"))),
        "retrieve.prf.ms_per_q": per_q(ms(of("retrieve.prf"))),
        "annotate.calls_per_q": _ratio(len(annotate), n_query + n_oracle),
        "annotate.ms_per_q": _ratio(ms(annotate), n_query + n_oracle),
        "annotate.repeat_ratio": _ratio(total(annotate, "repeat"), len(annotate)),
        "parse.calls_per_q": per_q(len(of("parse"))),
        "parse.ms_per_q": per_q(ms(of("parse"))),
        "rank.score.ms_per_q": per_q(ms(of("rank.score"))),
        "rank.score.items_per_q": per_q(total(of("rank.score"), "items")),
        "rank.fuse.ms_per_q": per_q(ms(of("rank.fuse"))),
        "rank.self_ms_per_q": per_q(self_ms(of("rank"))),
        "service.requests_per_q": per_q(len(requests)),
        "service.request_bytes_per_q": per_q(request_bytes),
        "service.client_ms_per_q": per_q(client_ms),
        "service.server_ms_per_q": per_q(server_ms),
        "service.wire_ms_per_q": per_q(client_ms - server_ms),
        "service.served_per_request": _ratio(out.service["dispatches"], len(requests)),
        "truncate.ms_per_q": per_q(ms(truncate)),
        "truncate.candidates_in_per_q": per_q(total(truncate, "candidates_in")),
        "truncate.kept_ratio": _ratio(total(truncate, "kept"), total(truncate, "candidates_in")),
        "render.ms_per_q": per_q(ms(of("render"))),
        "corpus.load_s": statistics.median(out.load_s),
        "corpus.passages": info["passages"],
        "corpus.bytes": info["bytes"],
        "corpus.build_ms": statistics.median(out.append_ms) if out.append_ms else 0.0,
        "oracle.grep.calls_per_q": _ratio(len(oracle_grep), n_oracle),
        "oracle.grep.ms_per_q": _ratio(ms(oracle_grep), n_oracle),
        "oracle.pair_grep_ratio": _ratio(sum(1 for s in oracle_grep if s.attrs["needles"] == 2),
                                         len(oracle_grep)),
        "oracle.self_ms_per_q": _ratio(self_ms(oracle_roots), n_oracle),
        "evaluate.build_matrix_s": info.get("build_matrix_s", 0.0),
        "evaluate.matrix_write_s": info.get("matrix_write_s", 0.0),
        "evaluate.matrix_read_s": info.get("matrix_read_s", 0.0),
        "evaluate.matrix_bytes": info.get("matrix_bytes", 0),
        "evaluate.simulate_ms_per_cell": _ratio(info.get("sweep_s", 0.0) * 1000,
                                                info.get("sweep_cells", 0)),
        "trace.overhead_ratio": _ratio(traced, untraced),
        "trace.span_coverage": 1 - _ratio(self_ms(query_roots), ms(query_roots)),
    }
    for provenance in ("query", "entity-hop", "prf"):
        metrics[f"retrieve.grep.{provenance}.ms_per_q"] = per_q(
            ms(s for s in grep if s.attrs["provenance"] == provenance))
    return {name: metrics[name] for name in PER_LAYER}
