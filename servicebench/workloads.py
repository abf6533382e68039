"""Seeded inputs for the three service workloads.

Every function here is a pure function of the workload seed: the same
seed gives the same graphs, queries and request stream, so two runs of
one seed drive the server with the same work.  The server only ever
receives what these functions produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.experiments.datasets import load_dataset
from repro.experiments.workloads import paper_cases
from repro.fingerprint import graph_fingerprint
from repro.graph.build import from_undirected_edges
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    chain_graph,
    cycle_graph,
    mesh_graph,
    social_graph,
)
from repro.service.client import graph_to_spec

PAPER_SCALE = 0.5
"""Vertex budget multiplier on the Table 2 stand-ins."""

SCALING_GRAPH = "mesh45x45"
"""The ROADMAP scaling case (mesh45x45 with chain8), appended to every
paper-grid pass."""


@dataclass(frozen=True)
class GridCase:
    """One paper-grid request: a registered graph name and a query."""

    graph: str
    query: CSRGraph

    @property
    def key(self) -> str:
        return f"{self.graph}/{self.query.name}"


def paper_grid_graphs() -> dict[str, CSRGraph]:
    """The six Table 2 stand-ins at :data:`PAPER_SCALE` plus the mesh."""
    graphs = {case.dataset: case.data for case in paper_cases(scale=PAPER_SCALE)}
    graphs[SCALING_GRAPH] = mesh_graph(45, 45)
    return graphs


def paper_grid(seed: int) -> tuple[dict[str, CSRGraph], list[GridCase]]:
    """Graphs to register and one pass of cases in seeded order.

    The cases are the paper's 198 Table 3 cases (6 datasets x 33
    queries, ties broken as in ``query_workload(top_k=11)``) plus the
    scaling case.  The seed sets only the order: with seeded datasets or
    seeded query tie-breaks, the work in one pass varies from seed to
    seed by more than any bound a regression check could use.
    """
    cases = [
        GridCase(case.dataset, case.query)
        for case in paper_cases(scale=PAPER_SCALE)
    ]
    cases.append(GridCase(SCALING_GRAPH, chain_graph(8)))
    random.Random(seed).shuffle(cases)
    return paper_grid_graphs(), cases


# ---------------------------------------------------------------------------
# hot-cache: a seeded stream over pairs that set-up primes into the cache.

_HOT_GRAPHS = ("roadNet-PA", "roadNet-TX", "roadNet-CA", "mesh32x32")
_HOT_PATTERNS = ("K3", "C4", "P4", "S4")


def _edges_query(name: str, pairs: list[tuple[int, int]]) -> CSRGraph:
    return from_undirected_edges(np.asarray(pairs, dtype=np.int64), name=name)


def _hot_edge_queries() -> list[CSRGraph]:
    return [
        cycle_graph(5, name="C5"),
        chain_graph(5, name="P5"),
        _edges_query("diamond", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        _edges_query("tailed-triangle", [(0, 1), (0, 2), (1, 2), (2, 3)]),
    ]


def hot_graphs() -> dict[str, CSRGraph]:
    graphs = {n: load_dataset(n, PAPER_SCALE) for n in _HOT_GRAPHS[:3]}
    graphs["mesh32x32"] = mesh_graph(32, 32)
    return graphs


@dataclass(frozen=True)
class HotPair:
    """A (graph, query) pair; ``spec`` is what goes on the wire: a
    pattern string or an explicit edge list."""

    graph: str
    query: str
    spec: Any

    @property
    def key(self) -> str:
        return f"{self.graph}/{self.query}"


def hot_pairs() -> list[HotPair]:
    """16 pairs: on each graph two pattern-string and two edge-list
    queries, rotated so every query appears on two graphs."""
    edge_queries = _hot_edge_queries()
    pairs = []
    for i, graph in enumerate(_HOT_GRAPHS):
        for j in range(2):
            pattern = _HOT_PATTERNS[(i + j) % 4]
            pairs.append(HotPair(graph, pattern, pattern))
            query = edge_queries[(i + j + 2) % 4]
            pairs.append(HotPair(graph, query.name, graph_to_spec(query)))
    return pairs


def hot_streams(seed: int, clients: int, length: int) -> list[list[HotPair]]:
    """One seeded request stream per client over :func:`hot_pairs`."""
    pairs = hot_pairs()
    rng = random.Random(seed)
    return [[rng.choice(pairs) for _ in range(length)] for _ in range(clients)]


# ---------------------------------------------------------------------------
# mutate-read: Poisson count reads mixed with undirected edge commits.

MESH_SIDE = 24
_RING = 24
_RING_SPAN = 3


def _mesh_with_ring() -> tuple[int, set[tuple[int, int]]]:
    """A 24x24 mesh plus a disjoint degree-6 circulant ring.  Only ring
    vertices can root a star with six leaves (S6); mesh commits keep every
    mesh degree at 5 or below, so such queries' cache entries are
    provably unaffected by mesh commits and get promoted."""
    side = MESH_SIDE
    edges: set[tuple[int, int]] = set()
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.add((v, v + 1))
            if r + 1 < side:
                edges.add((v, v + side))
    base = side * side
    for i in range(_RING):
        for k in range(1, _RING_SPAN + 1):
            u, v = base + i, base + (i + k) % _RING
            edges.add((min(u, v), max(u, v)))
    return base + _RING, edges


def _mesh_diagonals() -> list[tuple[int, int]]:
    """Toggle candidates: one diagonal per even cell, so no mesh vertex
    is on two of them and its degree stays at most 5."""
    side = MESH_SIDE
    return [
        (r * side + c, (r + 1) * side + c + 1)
        for r in range(0, side - 1, 2)
        for c in range(0, side - 1, 2)
    ]


def _social_edges() -> tuple[int, set[tuple[int, int]]]:
    graph = social_graph(400, 3, community_edges=200, num_communities=8,
                         seed=211, name="social")
    pairs = graph.edge_list()
    keep = pairs[:, 0] < pairs[:, 1]
    return graph.num_vertices, {(int(u), int(v)) for u, v in pairs[keep]}


MUTATE_QUERIES: dict[str, tuple[str, ...]] = {
    # P4/C4 root everywhere (incremental or full re-match after a
    # commit); S6 roots only on the ring (promoted).
    "mesh": ("P4", "C4", "S6"),
    # Commits among low-degree vertices of a hub-heavy graph: their
    # dirty balls reach hubs, so reads re-match (incremental or full).
    "social": ("K3", "K4", "P3"),
}


@dataclass
class Version:
    """One version of a mutable graph as the client-side shadow sees it."""

    index: int
    num_vertices: int
    edges: frozenset[tuple[int, int]]
    fingerprint: str = ""

    def graph(self, name: str) -> CSRGraph:
        pairs = np.asarray(sorted(self.edges), dtype=np.int64).reshape(-1, 2)
        return from_undirected_edges(pairs, num_vertices=self.num_vertices,
                                     name=name)


@dataclass
class Op:
    """A scheduled request: a count read or an edge commit."""

    kind: str
    graph: str
    query: str = ""
    insert: list[list[int]] = field(default_factory=list)
    delete: list[list[int]] = field(default_factory=list)
    version: int = 0


@dataclass
class MutateInputs:
    """The request schedule and, per graph, every version it commits
    (version 0 is what set-up registers)."""

    schedule: list[tuple[float, str, Op]]
    lineage: dict[str, list[Version]]


def _toggle(edges: set[tuple[int, int]], pair: tuple[int, int],
            insert: list[list[int]], delete: list[list[int]]) -> None:
    if pair in edges:
        edges.remove(pair)
        delete.append(list(pair))
    else:
        edges.add(pair)
        insert.append(list(pair))


def poisson_offsets(rng: random.Random, seconds: float,
                    count: int) -> list[float]:
    """``count`` arrival offsets at uniform random times in
    ``[0, seconds)``: a Poisson process conditioned on its count, so
    every seed offers the same load."""
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def _periphery(num_vertices: int, edges: set[tuple[int, int]]) -> list[int]:
    """Vertices of at most median degree: social commits stay among
    them, so no commit's dirty region swallows a hub's neighbourhood and
    commits cost about the same from seed to seed."""
    degree = [0] * num_vertices
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    cut = sorted(degree)[num_vertices // 2]
    return [v for v in range(num_vertices) if degree[v] <= cut]


SKIP_EVERY = 3
"""Every third round is a skip round: none of its graph's pairs are
read on the version it commits, so the next version of that graph has
no cached parent count and re-matches in full."""


def mutate_read(seed: int, seconds: float, rate: float, round_reads: int,
                part: int = 0) -> MutateInputs:
    """Poisson arrivals (:func:`poisson_offsets`) at ``rate`` per second,
    grouped into rounds of one commit and ``round_reads`` count reads.

    Commits alternate between the two graphs, each toggling two edges.
    In a read round every query of the committed graph is read at least
    once and the remaining reads repeat that graph's pairs; in a skip
    round (:data:`SKIP_EVERY`) all reads go to the other graph, whose
    head was read in the round before.  So every seed reads the same
    number of (version, query) pairs after a commit, over the same mix
    of promoted, incremental and full re-match paths.  The seed and
    ``part`` (one stream per server boot of a run) set the arrival
    times, the order of reads within a round and every delta; the
    graphs and the op counts are fixed, so seeds differ in arrangement,
    not in amount of work."""
    if round_reads < max(len(q) for q in MUTATE_QUERIES.values()):
        raise ValueError("a round must read every query of its graph")
    rng = random.Random(f"{seed}.{part}")
    mesh_n, mesh_edges = _mesh_with_ring()
    social_n, social_edges = _social_edges()
    live = {"mesh": mesh_edges, "social": social_edges}
    sizes = {"mesh": mesh_n, "social": social_n}
    lineage = {
        name: [Version(0, sizes[name], frozenset(live[name]))]
        for name in live
    }
    diagonals = _mesh_diagonals()
    periphery = _periphery(social_n, social_edges)
    quiet = set(periphery)
    rounds = int(round(rate * seconds / (round_reads + 1)))
    ops: list[Op] = []
    for index in range(rounds):
        graph, other = (("mesh", "social") if index % 2 == 0
                        else ("social", "mesh"))
        ops.append(Op("commit", graph))
        if index % SKIP_EVERY == 1:
            # The other graph's round came just before and was a read
            # round, so these reads are all cache hits.
            ops += [Op("read", other, rng.choice(MUTATE_QUERIES[other]))
                    for _ in range(round_reads)]
            continue
        queries = MUTATE_QUERIES[graph]
        reads = list(queries) + [
            rng.choice(queries) for _ in range(round_reads - len(queries))]
        rng.shuffle(reads)
        ops += [Op("read", graph, query) for query in reads]
    schedule: list[tuple[float, str, Op]] = []
    for offset, op in zip(poisson_offsets(rng, seconds, len(ops)), ops):
        if op.kind == "read":
            schedule.append((offset, "read", op))
            continue
        edges = live[op.graph]
        if op.graph == "mesh":
            toggles = rng.sample(diagonals, 2)
        else:
            toggles = []
            while len(toggles) < 2:
                if rng.random() < 0.5:
                    pair = rng.choice(sorted(
                        e for e in edges if e[0] in quiet and e[1] in quiet))
                else:
                    u, v = rng.sample(periphery, 2)
                    pair = (min(u, v), max(u, v))
                if pair not in toggles:
                    toggles.append(pair)
        for pair in toggles:
            _toggle(edges, pair, op.insert, op.delete)
        chain = lineage[op.graph]
        op.version = len(chain)
        chain.append(Version(op.version, sizes[op.graph], frozenset(edges)))
        schedule.append((offset, "commit", op))
    for name, chain in lineage.items():
        for version in chain:
            version.fingerprint = graph_fingerprint(version.graph(name))
    return MutateInputs(schedule, lineage)
