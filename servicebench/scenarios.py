"""The three workloads: set-up, load, and the checks on every answer.

Each workload boots into a fresh server, registers its graphs over HTTP
and warms up (that is ``setup_s``), then drives its timed phase.  After
the run, :meth:`Workload.verify` checks every served count against an
oracle that did not come from the server, and checks that the workload
still exercises (or bypasses) the layers it exists for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import CuTSConfig
from repro.core.matcher import CuTSMatcher
from repro.fingerprint import graph_fingerprint
from repro.hostinfo import detect_cpus
from repro.service.client import ServiceClient
from repro.service.http import parse_graph_spec

import workloads as wl
from loadgen import Sample, closed_loop, open_loop
from make_expected import load_table
from spans import Span


class StaleOracle(RuntimeError):
    """expected_counts.json no longer matches the generated inputs."""


@dataclass
class Boot:
    """One server process: its set-up and its timed phase."""

    setup_s: float = 0.0
    warmup: list[Sample] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    clients: list[ServiceClient] = field(default_factory=list)
    before: dict[str, Any] = field(default_factory=dict)
    after: dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    peak_rss_mb: float = 0.0
    spans: list[Span] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def delta(self, section: str, key: str) -> int:
        return int(self.after[section][key]) - int(self.before[section][key])


@dataclass
class Run:
    """Every boot of one workload in one mode (traced or not), plus the
    failures the checks found."""

    workload: "Workload"
    traced: bool
    boots: list[Boot] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wrong_rids: set[str] = field(default_factory=set)
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def samples(self) -> list[Sample]:
        return [s for boot in self.boots for s in boot.samples]

    @property
    def warmup(self) -> list[Sample]:
        return [s for boot in self.boots for s in boot.warmup]

    def wrong(self, sample: Sample, message: str) -> None:
        self.wrong_rids.add(sample.rid)
        if len(self.failures) < 20:
            self.failures.append(message)

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def good(self, sample: Sample) -> bool:
        return sample.ok and sample.rid not in self.wrong_rids

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not self.good(s))

    @property
    def correct(self) -> bool:
        return (not self.failures and self.failed == 0
                and all(s.ok for s in self.warmup))


def _warm(client: ServiceClient, requests: list[tuple[str, Any]]) -> list[Sample]:
    """Set-up requests, recorded as warm-up samples."""
    out = []
    for n, (graph, query) in enumerate(requests):
        sample = Sample(f"warm-{n}", "read", time.perf_counter())
        sample.sent = sample.due
        try:
            sample.response = client.match(graph, query,
                                           idempotency_key=sample.rid)
            sample.ok = sample.response.get("state") == "done"
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            sample.error = str(exc)
        sample.done = time.perf_counter()
        out.append(sample)
    return out


def _count(sample: Sample) -> int | None:
    result = sample.response.get("result")
    return int(result["count"]) if isinstance(result, dict) else None


def _read(client: ServiceClient, sample: Sample, graph: str,
          query: Any) -> dict[str, Any]:
    # The request id rides as the idempotency key, which is how the
    # traced server tags its spans with it.
    return client.match(graph, query, idempotency_key=sample.rid)


class Workload:
    """Inputs, set-up, load and answer checks of one workload."""

    name = ""
    limit_ms = 0.0
    """Latency limit for ``goodput_frac``."""
    headline = "latency_p50_ms"
    """End-to-end metric the tracing overhead is measured on."""
    boots = 5
    """Server boots per untraced run; the timed phase is split evenly
    over them."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.connections = max(1, min(2, detect_cpus()[0]))

    def start_boot(self, index: int) -> None:
        """Called before boot ``index`` of a run starts its server."""

    def serve_args(self, state_dir: str) -> list[str]:
        return []

    def setup(self, client: ServiceClient) -> list[Sample]:
        raise NotImplementedError

    def drive(self, url: str) -> tuple[list[Sample], list[ServiceClient]]:
        raise NotImplementedError

    def verify(self, run: Run, boot: Boot) -> None:
        """Check every answer of one boot; record failures on ``run``."""
        raise NotImplementedError

    def summarize(self, run: Run) -> None:
        """Checks over all boots of a run."""


class PaperGrid(Workload):
    """Closed loop, 1 client, one pass per boot over the Table 3 grid
    plus the scaling case.  Every pair is distinct, so every request
    misses the cache and runs the engine: a change to ``engine`` or
    ``columnar`` must show here."""

    name = "paper-grid"
    limit_ms = 2000.0
    headline = "wall_s"
    boots = 3

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.connections = 1
        self.graphs, self.cases = wl.paper_grid(seed)
        self.table = load_table()
        stale = [
            name for name, graph in self.graphs.items()
            if self.table["graphs"].get(name) != graph_fingerprint(graph)
        ] + [
            case.query.name for case in self.cases
            if self.table["queries"].get(case.query.name)
            != graph_fingerprint(case.query)
        ]
        if stale:
            raise StaleOracle(f"expected_counts.json is stale for "
                              f"{sorted(set(stale))}; rerun make_expected.py")

    def setup(self, client: ServiceClient) -> list[Sample]:
        for name, graph in self.graphs.items():
            client.register_graph(graph, name)
        # P3 is in no grid case, so warming each engine caches nothing
        # the pass will ask for.
        return _warm(client, [(name, "P3") for name in self.graphs])

    def drive(self, url: str) -> tuple[list[Sample], list[ServiceClient]]:
        def send(client: ServiceClient, sample: Sample) -> dict[str, Any]:
            return _read(client, sample, sample.op.graph, sample.op.query)

        return closed_loop(url, [self.cases], send)

    def verify(self, run: Run, boot: Boot) -> None:
        counts = self.table["counts"]
        for sample in boot.samples:
            want = counts[sample.op.key]
            if sample.ok and _count(sample) != want:
                run.wrong(sample, f"count {_count(sample)} != {want} for "
                          f"{sample.op.key}")
        hits = boot.delta("result_cache", "hits")
        calls = boot.delta("dispatcher", "matcher_invocations")
        run.require(hits == 0, f"paper-grid served {hits} cache hits")
        run.require(calls == len(self.cases),
                    f"{calls} engine calls for {len(self.cases)} requests")


class HotCache(Workload):
    """Closed loop, 2 clients, a seeded stream over 16 pairs that set-up
    primes into the result cache, sent as pattern strings and as edge
    lists.  The engine never runs, so the time goes to client, HTTP,
    JSON, fingerprint, queue and cache probe."""

    name = "hot-cache"
    limit_ms = 25.0
    _STREAM = 100_000

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.graphs = wl.hot_graphs()
        self.pairs = wl.hot_pairs()
        self.expected = load_table()["hot"]
        self.streams = wl.hot_streams(seed, self.connections, self._STREAM)

    def setup(self, client: ServiceClient) -> list[Sample]:
        for name, graph in self.graphs.items():
            client.register_graph(graph, name)
        return _warm(client, [(p.graph, p.spec) for p in self.pairs] * 2)

    def drive(self, url: str) -> tuple[list[Sample], list[ServiceClient]]:
        def send(client: ServiceClient, sample: Sample) -> dict[str, Any]:
            return _read(client, sample, sample.op.graph, sample.op.spec)

        return closed_loop(url, self.streams, send, seconds=self.seconds)

    def verify(self, run: Run, boot: Boot) -> None:
        for sample in boot.samples:
            want = self.expected[sample.op.key]
            if sample.ok and _count(sample) != want:
                run.wrong(sample, f"count {_count(sample)} != {want} for "
                          f"{sample.op.key}")
        ok = sum(1 for s in boot.samples if s.ok)
        hits = boot.delta("result_cache", "hits")
        misses = boot.delta("result_cache", "misses")
        # Identical requests in one batch share one probe.
        shared = boot.delta("dispatcher", "requests_coalesced")
        calls = boot.delta("dispatcher", "matcher_invocations")
        run.require(misses == 0 and hits + shared == ok,
                    f"hot-cache: {hits} hits + {shared} coalesced, {misses} "
                    f"misses for {ok} reads")
        run.require(calls == 0, f"hot-cache ran the engine {calls} times")


class MutateRead(Workload):
    """Open loop, seeded Poisson arrivals at one fixed rate on one
    connection: count reads mixed with undirected edge commits on a
    mesh and a hub-heavy social graph, against a fresh state dir.  The
    only workload that commits versions, fsyncs version records,
    promotes and invalidates cache entries and re-matches
    incrementally."""

    name = "mutate-read"
    limit_ms = 100.0
    boots = 6
    RATE = 30.0
    """Arrivals per second: the connection is busy about a fifth of the
    time, so the schedule, not a backlog, sets when requests go out,
    and read latency holds still from run to run."""
    ROUND_READS = 7
    """Reads after each commit: most repeat a (version, query) pair
    already served, so the median read is a cache hit and p90 falls
    among the post-commit re-matches."""
    PATHS = ("promoted", "incremental", "full")

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        # One request in flight at a time: with two, reads that collide
        # with another request's engine work or fsyncs on the server's
        # interpreter lock swing p50 by a third from run to run on a
        # 2-vCPU host.  One connection also keeps commits to a graph in
        # schedule order.
        self.connections = 1
        self.start_boot(0)
        self._matchers: dict[str, CuTSMatcher] = {}
        self._oracle: dict[tuple[str, str], int] = {}

    def start_boot(self, index: int) -> None:
        # Each boot drives its own seeded stream, so the boots of one
        # run average over several arrangements of the same work.
        self.inputs = wl.mutate_read(self.seed, self.seconds, self.RATE,
                                     self.ROUND_READS, part=index)
        self.by_fp = {
            version.fingerprint: (name, version)
            for name, chain in self.inputs.lineage.items()
            for version in chain
        }

    def serve_args(self, state_dir: str) -> list[str]:
        return ["--state-dir", state_dir]

    def setup(self, client: ServiceClient) -> list[Sample]:
        for name, chain in self.inputs.lineage.items():
            client.register_graph(chain[0].graph(name), name)
        return _warm(client, [
            (name, query)
            for name, queries in wl.MUTATE_QUERIES.items()
            for query in queries
        ])

    def drive(self, url: str) -> tuple[list[Sample], list[ServiceClient]]:
        def send(client: ServiceClient, sample: Sample) -> dict[str, Any]:
            op = sample.op
            if op.kind == "read":
                return _read(client, sample, op.graph, op.query)
            return client.mutate_edges(op.graph, insert=op.insert,
                                       delete=op.delete, directed=False)

        return open_loop(url, self.inputs.schedule, send,
                         connections=self.connections)

    def _full_rematch(self, fp: str, query: str) -> int:
        """The count of ``query`` on the shadow's copy of version ``fp``,
        by a full match in this process."""
        key = (fp, query)
        if key not in self._oracle:
            if fp not in self._matchers:
                name, version = self.by_fp[fp]
                self._matchers[fp] = CuTSMatcher(version.graph(name),
                                                 CuTSConfig())
            self._oracle[key] = int(
                self._matchers[fp].match(parse_graph_spec(query)).count)
        return self._oracle[key]

    def verify(self, run: Run, boot: Boot) -> None:
        lineage = self.inputs.lineage
        for sample in boot.samples:
            if not sample.ok or sample.kind != "commit":
                continue
            op, resp = sample.op, sample.response
            chain = lineage[op.graph]
            if (resp.get("fingerprint") != chain[op.version].fingerprint
                    or resp.get("parent_fingerprint")
                    != chain[op.version - 1].fingerprint):
                run.wrong(sample, f"commit {op.graph}@{op.version} landed "
                          f"on an unexpected version")
        first: dict[tuple[str, str], Sample] = {}
        for sample in sorted(boot.samples, key=lambda s: s.done):
            if not sample.ok or sample.kind != "read":
                continue
            fp = str(sample.response.get("graph"))
            if fp not in self.by_fp:
                run.wrong(sample, f"read served unknown version {fp[:12]}")
                continue
            name, version = self.by_fp[fp]
            want = self._full_rematch(fp, sample.op.query)
            if _count(sample) != want:
                run.wrong(sample, f"count {_count(sample)} != full re-match "
                          f"{want} on {name}@{version.index}")
            if version.index > 0:
                first.setdefault((fp, sample.op.query), sample)
        # The first read of each (version, query) after its commit shows
        # which path served it; later reads of the pair are plain hits.
        paths = run.info.setdefault(
            "post_commit_read_paths", dict.fromkeys(self.PATHS, 0))
        for sample in first.values():
            if sample.response.get("cached"):
                paths["promoted"] += 1
            elif sample.response.get("incremental"):
                paths["incremental"] += 1
            else:
                paths["full"] += 1

    def summarize(self, run: Run) -> None:
        paths = run.info.get("post_commit_read_paths", {})
        for path in self.PATHS:
            run.require(paths.get(path, 0) > 0,
                        f"mutate-read had no {path} post-commit read")


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperGrid, HotCache, MutateRead)
}
