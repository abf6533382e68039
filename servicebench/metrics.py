"""End-to-end metrics of an untraced run, per-layer metrics of a traced
one, and the reconciliation of server spans against client latency.

End-to-end values combine per-boot values (see :func:`end_to_end`).  Which
end-to-end metric each layer should move, and where it should not:

=============  ===============================  ===========  ============
layer          should move                      shows on     flat on
=============  ===============================  ===========  ============
client, http   latency_p50_ms, throughput_rps   hot-cache    paper wall_s
fingerprint    latency_p50_ms                   hot, mutate  paper-grid
scheduler      latency_p90_ms                   mutate, hot  paper-grid
dispatcher     throughput_rps, latency_p90_ms   hot, mutate
cache          latency_p50_ms                   hot, mutate  paper-grid
registry       setup_s, mutate latency          all, mutate
overlay        mutate latency_p90_ms            mutate       paper, hot
versioning     mutate latency_p90_ms            mutate       paper, hot
state          mutate latency_p90_ms            mutate       paper, hot
engine         wall_s, latency_p90_ms           paper-grid   hot-cache
columnar       wall_s                           paper-grid   hot-cache
governor       wall_s (memory pressure)         paper-grid
gpusim         nothing: modeled time must       all          all
               repeat exactly
=============  ===============================  ===========  ============
"""

from __future__ import annotations

import statistics

from scenarios import Boot, Run
from spans import Span, covered, percentile, self_times, tail

RECONCILE_TOLERANCE = 0.25
"""At the median /match request, the handler's wait for its job may
exceed the job's queue-wait and dispatch spans by at most this share of
the client's round trip."""

CONTAINMENT_SLACK_S = 50e-6
"""A server handler may start before, or start replying after, its
client span by this much: the two sides read the clock at different
instants."""

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
    "wall_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "goodput_frac": "ratio",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in (("ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_frac", "ratio"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    if name.startswith("versioning.reads_"):
        return "ratio"
    return "count"


def p50_tail(values: list[float]) -> tuple[float, float, int]:
    """Median, value at the highest supported percentile, and that
    percentile; zeros when there are too few samples."""
    if len(values) < 10:
        return (percentile(values, 50.0) if values else 0.0), 0.0, 0
    q, value = tail(values)
    return percentile(values, 50.0), value, int(q)


def boot_metrics(run: Run, boot: Boot) -> dict[str, float]:
    """End-to-end metrics of one boot.  Latency and goodput cover count
    reads, which every workload sends; edge commits count toward
    throughput and are reported apart in the run record."""
    reads = [s for s in boot.samples if s.kind == "read"]
    latencies = [s.latency_ms for s in reads if run.good(s)]
    limit = run.workload.limit_ms
    return {
        "setup_s": boot.setup_s,
        "peak_rss_mb": boot.peak_rss_mb,
        "wall_s": boot.wall_s,
        "throughput_rps": sum(
            1 for s in boot.samples if run.good(s)) / boot.wall_s,
        "latency_p50_ms": percentile(latencies, 50.0),
        "latency_p90_ms": percentile(latencies, 90.0),
        "goodput_frac": sum(1 for v in latencies if v <= limit) / len(reads),
    }


BEST_BOOT = {
    "wall_s": min,
    "latency_p50_ms": min,
    "latency_p90_ms": min,
    "throughput_rps": max,
}
"""Timings that take the run's best boot rather than its median boot."""


def end_to_end(run: Run) -> dict[str, float]:
    """Timings (:data:`BEST_BOOT`) come from the run's best boot: on a
    shared host, time stolen by other guests only ever adds to them,
    arrives in bursts of a few seconds and can double millisecond
    latencies while it lasts, so the boot it touched least is the one
    that reads the program rather than the host.  The other metrics are
    medians over boots (``setup_s`` too, so work moved into set-up
    shows), and the success share counts every request of every boot.
    The gated tail is p90, which every boot's sample supports; the
    highest percentile a run supports, with its sample count, is in the
    run record."""
    per_boot = [boot_metrics(run, boot) for boot in run.boots]
    out = {
        name: BEST_BOOT.get(name, statistics.median)(m[name] for m in per_boot)
        for name in per_boot[0]
    }
    samples = run.samples
    out["success_frac"] = sum(1 for s in samples if run.good(s)) / len(samples)
    return {name: out[name] for name in END_TO_END_UNITS}


def latency_report(run: Run) -> dict[str, object]:
    """Per request kind, over all boots: sample count, median, and the
    tail with the percentile it was taken at."""
    out: dict[str, object] = {}
    for kind in ("read", "commit"):
        values = [s.latency_ms for s in run.samples
                  if s.kind == kind and run.good(s)]
        if values:
            p50, value, q = p50_tail(values)
            out[kind] = {"n": len(values), "p50_ms": p50, f"p{q}_ms": value}
    return out


def _timed(boot: Boot, name: str) -> list[Span]:
    return [s for s in boot.spans
            if s.name == name and boot.start <= s.start <= boot.end]


def _top_level(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {s.id: s for s in spans}

    def nested(span: Span) -> bool:
        parent = by_id.get(span.parent) if span.parent else None
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent) if parent.parent else None
        return False

    return [s for s in spans if s.name == name and not nested(s)]


def reconcile(run: Run, boot: Boot) -> tuple[float, int, int]:
    """Per /match request: client rtt = transport + handler, and the
    handler's wait for its job is covered by that job's queue-wait and
    dispatch spans on the dispatch thread.  Returns the median share of
    rtt left unaccounted, the number of requests matched, and how many
    handler spans fell outside their client span."""
    samples = {s.rid: s for s in boot.samples
               if run.good(s) and s.kind == "read"}
    handlers = [s for s in _timed(boot, "http.handler") if s.rid in samples]
    waits = {s.parent: s for s in _timed(boot, "service.wait")}
    work: dict[str, list[Span]] = {}
    for name in ("scheduler.queue_wait", "dispatcher.dispatch"):
        for span in _timed(boot, name):
            if span.rid is not None:
                work.setdefault(span.rid, []).append(span)
    shares, outside = [], 0
    for handler in handlers:
        sample = samples[handler.rid]
        respond = handler.attrs.get("respond", handler.end)
        if (handler.start < sample.sent - CONTAINMENT_SLACK_S
                or respond > sample.done + CONTAINMENT_SLACK_S):
            outside += 1
            continue
        wait = waits.get(handler.id)
        unaccounted = 0.0
        if wait is not None:
            unaccounted = wait.duration - covered(
                (max(p.start, wait.start), min(p.end, wait.end))
                for p in work.get(handler.rid, [])
                if p.end > wait.start and p.start < wait.end)
        shares.append(unaccounted / (sample.done - sample.sent))
    median = statistics.median(shares) if shares else 0.0
    return median, len(shares), outside


def per_layer(run: Run, untraced: Run) -> dict[str, float]:
    """Per-layer metrics of a one-boot traced run; ``untraced`` gives
    the baseline for ``trace.overhead_frac``."""
    boot = run.boots[0]
    spans = [s for s in boot.spans if boot.start <= s.start <= boot.end]
    selfs = self_times(boot.spans)
    good = [s for s in boot.samples if run.good(s)]
    reads = [s for s in good if s.kind == "read"]
    commits = [s for s in good if s.kind == "commit"]

    def ms(name: str) -> list[float]:
        return [s.duration * 1e3 for s in _timed(boot, name)]

    m: dict[str, float] = {}
    m["client.rtt_p50_ms"], m["client.rtt_tail_ms"], _ = p50_tail(
        [s.rtt_ms for s in good])
    m["client.retries"] = sum(c.retries for c in boot.clients)
    for phase, group in (("warmup", boot.warmup), ("timed", boot.samples)):
        m[f"loadgen.{phase}_sent"] = len(group)
        m[f"loadgen.{phase}_succeeded"] = sum(1 for s in group if s.ok)
        m[f"loadgen.{phase}_failed"] = sum(1 for s in group if not s.ok)
    m["loadgen.lag_tail_ms"] = p50_tail([s.lag_ms for s in boot.samples])[1]
    m["loadgen.read_p50_ms"], m["loadgen.read_tail_ms"], _ = p50_tail(
        [s.latency_ms for s in reads])
    m["loadgen.commit_p50_ms"], m["loadgen.commit_tail_ms"], _ = p50_tail(
        [s.latency_ms for s in commits])

    by_rid = {s.rid: s for s in reads}
    handlers = [s for s in _timed(boot, "http.handler") if s.rid in by_rid]
    m["http.handler_p50_ms"], m["http.handler_tail_ms"], _ = p50_tail(
        [s.duration * 1e3 for s in handlers])
    m["http.handler_self_p50_ms"] = p50_tail(
        [selfs[s.id] * 1e3 for s in handlers])[0]
    m["http.transport_p50_ms"] = p50_tail([
        by_rid[s.rid].rtt_ms - (s.attrs.get("respond", s.end) - s.start) * 1e3
        for s in handlers])[0]
    m["http.connections"] = len(_timed(boot, "http.connection"))

    m["fingerprint.calls"] = len(_timed(boot, "fingerprint"))
    m["fingerprint.ms"] = sum(ms("fingerprint"))

    m["scheduler.queue_wait_p50_ms"], m["scheduler.queue_wait_tail_ms"], _ = (
        p50_tail(ms("scheduler.queue_wait")))
    m["scheduler.depth_max"] = max(
        (s.attrs.get("depth", 0) for s in _timed(boot, "scheduler.submit")),
        default=0)
    before = boot.before["scheduler"]["rejected"]
    rejected = {
        reason: n - before.get(reason, 0)
        for reason, n in boot.after["scheduler"]["rejected"].items()
    }
    run.info["rejected_by_reason"] = rejected
    m["scheduler.rejected"] = sum(rejected.values())

    batches = _timed(boot, "dispatcher.dispatch")
    m["dispatcher.batches"] = len(batches)
    m["dispatcher.batch_size_mean"] = (
        statistics.mean(s.attrs["size"] for s in batches) if batches else 0.0)
    m["dispatcher.busy_frac"] = sum(s.duration for s in batches) / boot.wall_s
    m["dispatcher.coalesced"] = boot.delta("dispatcher", "requests_coalesced")

    # The cache's own counters over the timed phase.
    for key in ("hits", "misses", "puts", "promotions", "invalidations",
                "evictions"):
        m[f"cache.{key}"] = boot.delta("result_cache", key)
    probes = m["cache.hits"] + m["cache.misses"]
    m["cache.hit_ratio"] = m["cache.hits"] / probes if probes else 0.0
    m["cache.get_us"] = p50_tail([v * 1e3 for v in ms("cache.get")])[0]

    m["registry.register_s"] = sum(
        s.duration for s in boot.spans
        if s.name == "registry.register" and s.start < boot.start)
    m["registry.commit_p50_ms"], m["registry.commit_tail_ms"], _ = p50_tail(
        ms("registry.commit"))
    m["overlay.splice_ms"] = p50_tail(ms("overlay.splice"))[0]
    m["versioning.incremental_ms"] = p50_tail(
        ms("versioning.incremental"))[0]
    paths = run.info.get("post_commit_read_paths", {})
    total = sum(paths.values())
    for path in ("promoted", "incremental", "full"):
        m[f"versioning.reads_{path}"] = (
            paths.get(path, 0) / total if total else 0.0)
    m["versioning.incremental_rejects"] = boot.delta(
        "dispatcher", "incremental_rejects")
    m["state.append_version_ms"] = p50_tail(ms("state.append_version"))[0]
    flushes = _timed(boot, "state.record_jobs")
    m["state.record_jobs_calls"] = len(flushes)
    m["state.record_jobs_ms"] = p50_tail(ms("state.record_jobs"))[0]
    m["state.jobs_per_flush"] = (
        statistics.mean(s.attrs["jobs"] for s in flushes) if flushes else 0.0)

    # Engine sums over top-level matches: an incremental re-match is one
    # engine.match whose result already merges its two inner matches.
    matches = _top_level(spans, "engine.match")
    match_s = sum(s.duration for s in matches)
    m["engine.match_calls"] = len(matches)
    m["engine.match_s"] = match_s
    for key in ("paths", "chunks", "intersections_c", "intersections_p"):
        m[f"engine.{key}"] = sum(s.attrs.get(key, 0) for s in matches)
    m["engine.peak_frontier"] = max(
        (s.attrs.get("peak_frontier", 0) for s in matches), default=0)
    staged = 0.0
    for stage in ("anchor_gather", "filter", "intersection", "write_out"):
        seconds = sum(s.attrs.get("stages", {}).get(stage, 0.0)
                      for s in matches)
        m[f"engine.stage.{stage}_s"] = seconds
        staged += seconds
    m["engine.stage_residual_s"] = match_s - staged
    extends = _timed(boot, "columnar.extend")
    m["columnar.extend_calls"] = len(extends)
    m["columnar.extend_self_s"] = sum(selfs[s.id] for s in extends)
    m["governor.chunk_halvings"] = sum(
        s.attrs.get("chunk_halvings", 0) for s in matches)
    m["governor.spilled_chunks"] = sum(
        s.attrs.get("spilled_chunks", 0) for s in matches)
    # Modeled GPU time once per distinct (graph version, query) served.
    served: dict[tuple[str, str], float] = {}
    for s in reads:
        result = s.response.get("result") or {}
        key = (str(s.response.get("graph")), str(s.response.get("query")))
        served[key] = float(result.get("time_ms", 0.0))
    m["gpusim.modeled_ms"] = sum(served.values())

    # The traced boot against the median untraced boot: both are read
    # the same way, whatever the host did.
    headline = run.workload.headline
    m["trace.overhead_frac"] = boot_metrics(run, boot)[headline] / (
        statistics.median(boot_metrics(untraced, b)[headline]
                          for b in untraced.boots)) - 1.0
    unaccounted, matched, outside = reconcile(run, boot)
    m["trace.unaccounted_frac"] = unaccounted
    m["trace.outside_client_span"] = outside
    run.info["reconcile"] = {
        "matched": matched, "outside": outside,
        "unaccounted_p50": unaccounted, "tolerance": RECONCILE_TOLERANCE,
    }
    run.require(outside == 0,
                f"{outside} handler spans fall outside their client span")
    run.require(unaccounted <= RECONCILE_TOLERANCE,
                f"server spans leave {unaccounted:.1%} of rtt unaccounted "
                f"(tolerance {RECONCILE_TOLERANCE:.0%})")
    return m
