"""Versioned mutable graphs (satellites of PR 10).

Three randomized-seed guarantees, each gated on a full-rematch oracle:

* **parity** — the incremental count identity (DESIGN.md §16) agrees
  with a full re-match across insert-only, delete-only, and mixed
  batches on random graphs;
* **cache survival** — result-cache entries whose query provably roots
  outside the commit's dirty ball are promoted across a commit and
  still *hit* (no recompute);
* **time travel** — ``as_of`` on a retired version returns the count
  archived when that version was head.

Plus unit tiers for the delta algebra (normalisation, JSON round-trip),
the overlay splice, dirty-ball BFS, journal recovery, and the guard
rails of the incremental path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CuTSConfig
from repro.core.matcher import CuTSMatcher
from repro.graph import (
    chain_graph,
    clique_graph,
    cycle_graph,
    from_edges,
    mesh_graph,
    random_graph,
    star_graph,
)
from repro.service import MatchingService
from repro.storage.overlay import spliced_graph
from repro.versioning import (
    DeltaError,
    DirtyRegion,
    EdgeDelta,
    GraphVersion,
    IncrementalMismatchError,
    IncrementalUnsupported,
    dirty_region_for,
    promotion_safe,
    query_diameter,
    recover_chains,
    version_from_record,
    version_record,
)

NO_EDGES = np.zeros((0, 2), dtype=np.int64)


def undirected_pairs(graph):
    arcs = graph.edge_list()
    return arcs[arcs[:, 0] < arcs[:, 1]]


def both_ways(pairs):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) == 0:
        return NO_EDGES
    return np.concatenate([pairs, pairs[:, ::-1]], axis=0)


def random_delta(rng, graph, n_insert, n_delete):
    """Directed insert/delete arrays: ``n_delete`` existing undirected
    pairs removed and ``n_insert`` absent pairs added, both arcs each."""
    pairs = undirected_pairs(graph)
    dels = NO_EDGES
    if n_delete:
        picks = rng.choice(len(pairs), size=min(n_delete, len(pairs)),
                           replace=False)
        dels = pairs[picks]
    banned = {(int(u), int(v)) for u, v in pairs}
    inserts = []
    while len(inserts) < n_insert:
        u, v = (int(x) for x in rng.integers(0, graph.num_vertices, size=2))
        if u == v:
            continue
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in banned:
            continue
        banned.add((a, b))
        inserts.append((a, b))
    return both_ways(inserts), both_ways(dels)


def edge_set(graph):
    return {(int(u), int(v)) for u, v in graph.edge_list()}


def combo_graph():
    """A 6x6 mesh (degree <= 4) plus a disjoint K8 (degree 7): the two
    components segregate query root sets by degree, so mesh-side
    commits leave clique-rooted queries provably untouched."""
    mesh = mesh_graph(6, 6)
    k8 = clique_graph(8)
    edges = np.concatenate([mesh.edge_list(), k8.edge_list() + 36], axis=0)
    return from_edges(edges, num_vertices=44)


# ---------------------------------------------------------------------------
# Delta algebra and the overlay splice.
# ---------------------------------------------------------------------------


def test_delta_normalises_noop_edges_away():
    g = mesh_graph(3, 3)
    delta = EdgeDelta.build(
        inserts=[[0, 1]],   # already present -> dropped
        deletes=[[0, 8]],   # absent -> dropped
        parent=g,
    )
    assert delta.is_empty


def test_delta_rejects_edge_on_both_sides():
    g = mesh_graph(3, 3)
    with pytest.raises(DeltaError):
        EdgeDelta.build(inserts=[[0, 5]], deletes=[[0, 5]], parent=g)


def test_delta_undirected_expands_both_arcs():
    g = mesh_graph(3, 3)
    delta = EdgeDelta.build(inserts=[[0, 4]], parent=g, directed=False)
    assert edge_set(spliced_graph(g, delta.inserts, delta.deletes)) == (
        edge_set(g) | {(0, 4), (4, 0)}
    )


def test_delta_touched_is_sorted_unique_endpoints():
    g = mesh_graph(3, 3)
    delta = EdgeDelta.build(
        inserts=both_ways([[0, 4], [4, 8]]), parent=g
    )
    assert delta.touched().tolist() == [0, 4, 8]


def test_delta_json_roundtrip():
    g = mesh_graph(4, 4)
    rng = np.random.default_rng(7)
    ins, dels = random_delta(rng, g, 2, 2)
    delta = EdgeDelta.build(inserts=ins, deletes=dels, parent=g)
    back = EdgeDelta.from_json(delta.to_json())
    assert np.array_equal(back.inserts, delta.inserts)
    assert np.array_equal(back.deletes, delta.deletes)
    assert back.fingerprint() == delta.fingerprint()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_splice_apply_then_invert_roundtrips(seed):
    rng = np.random.default_rng(seed)
    parent = random_graph(30, 0.1, seed=seed)
    ins, dels = random_delta(rng, parent, 3, 3)
    delta = EdgeDelta.build(inserts=ins, deletes=dels, parent=parent)
    child = spliced_graph(parent, delta.inserts, delta.deletes)
    assert edge_set(child) == (
        edge_set(parent) - {tuple(e) for e in delta.deletes.tolist()}
    ) | {tuple(e) for e in delta.inserts.tolist()}
    back = spliced_graph(child, delta.deletes, delta.inserts)
    assert edge_set(back) == edge_set(parent)


# ---------------------------------------------------------------------------
# Dirty-ball BFS.
# ---------------------------------------------------------------------------


def test_dirty_ball_on_a_path_is_the_interval():
    g = chain_graph(9)
    region = DirtyRegion(g, np.array([4], dtype=np.int64))
    assert region.ball(0).tolist() == [4]
    assert region.ball(2).tolist() == [2, 3, 4, 5, 6]


def test_dirty_ball_is_monotone_in_radius():
    g = mesh_graph(5, 5)
    region = DirtyRegion(g, np.array([0, 24], dtype=np.int64))
    previous = set()
    for radius in range(4):
        ball = set(region.ball(radius).tolist())
        assert previous <= ball
        previous = ball


def test_query_diameter_of_standard_shapes():
    assert query_diameter(chain_graph(4)) == 3
    assert query_diameter(clique_graph(3)) == 1
    assert query_diameter(star_graph(4)) == 2


# ---------------------------------------------------------------------------
# Journal recovery (pure, no filesystem).
# ---------------------------------------------------------------------------


def _link(name, fp, parent, depth, delta=None):
    kind = "root" if parent is None else ("delta" if delta else "replace")
    return GraphVersion(
        name=name, fingerprint=fp, parent=parent, depth=depth,
        kind=kind, delta=delta,
    )


def _toy_delta():
    return EdgeDelta.build(inserts=[[0, 2], [2, 0]], parent=chain_graph(3))


def test_recover_chains_head_is_latest_available():
    d = _toy_delta()
    records = [version_record(v) for v in (
        _link("g", "a", None, 0),
        _link("g", "b", "a", 1, d),
        _link("g", "c", "b", 2, d),
    )]
    chains, malformed = recover_chains(records, {"a", "b", "c"})
    assert malformed == 0
    assert [v.fingerprint for v in chains["g"]] == ["a", "b", "c"]
    # The torn-commit case: record for c landed but its graph did not
    # (impossible under the commit order, tolerated anyway).
    chains, _ = recover_chains(records, {"a", "b"})
    assert [v.fingerprint for v in chains["g"]] == ["a", "b"]
    # A pruned ancestor truncates the chain but keeps the head.
    chains, _ = recover_chains(records, {"b", "c"})
    assert [v.fingerprint for v in chains["g"]] == ["b", "c"]


def test_recover_chains_counts_malformed_records():
    records = [
        {"nonsense": True},
        version_record(_link("g", "a", None, 0)),
        {"name": "g", "fingerprint": "x", "parent": "a",
         "depth": "not-an-int", "kind": "delta", "delta": None},
    ]
    chains, malformed = recover_chains(records, {"a"})
    assert malformed == 2
    assert [v.fingerprint for v in chains["g"]] == ["a"]


def test_version_record_roundtrips_delta():
    link = _link("g", "child", "parent", 3, _toy_delta())
    back = version_from_record(version_record(link))
    assert back.fingerprint == "child"
    assert back.delta is not None
    assert back.delta.fingerprint() == link.delta.fingerprint()


# ---------------------------------------------------------------------------
# Promotion predicate and incremental guard rails.
# ---------------------------------------------------------------------------


def test_promotion_safe_for_degree_segregated_query():
    cfg = CuTSConfig()
    parent = combo_graph()
    # Mesh-side insert that keeps every mesh degree below the star's
    # center degree: no version can root S5 inside the ball.
    delta = EdgeDelta.build(inserts=[[0, 2]], parent=parent, directed=False)
    child = spliced_graph(parent, delta.inserts, delta.deletes)
    region = dirty_region_for(child, delta)
    assert promotion_safe(star_graph(5), parent, child, region, cfg)
    # A path query roots everywhere, including inside the ball.
    assert not promotion_safe(chain_graph(3), parent, child, region, cfg)


def test_promotion_never_claims_edgeless_queries():
    cfg = CuTSConfig()
    parent = combo_graph()
    delta = EdgeDelta.build(inserts=[[0, 2]], parent=parent, directed=False)
    child = spliced_graph(parent, delta.inserts, delta.deletes)
    region = dirty_region_for(child, delta)
    lone = from_edges(NO_EDGES, num_vertices=1)
    assert not promotion_safe(lone, parent, child, region, cfg)


def test_incremental_rejects_empty_delta_and_edgeless_query():
    cfg = CuTSConfig()
    g = mesh_graph(4, 4)
    empty = EdgeDelta.build(parent=g)
    matcher = CuTSMatcher(g, cfg)
    with pytest.raises(IncrementalUnsupported):
        matcher.match(chain_graph(3), base_result=0, delta=empty)
    delta = EdgeDelta.build(inserts=[[0, 5]], parent=g, directed=False)
    child = spliced_graph(g, delta.inserts, delta.deletes)
    with pytest.raises(IncrementalUnsupported):
        CuTSMatcher(child, cfg).match(
            from_edges(NO_EDGES, num_vertices=2), base_result=0, delta=delta
        )
    base = matcher.match(chain_graph(3))
    with pytest.raises(ValueError, match="unfiltered"):
        CuTSMatcher(child, cfg).match(
            chain_graph(3), base_result=base, delta=delta, root_filter=[0]
        )


def test_incremental_detects_foreign_base_result():
    cfg = CuTSConfig()
    parent = clique_graph(5)
    delta = EdgeDelta.build(deletes=[[0, 1]], parent=parent, directed=False)
    child = spliced_graph(parent, delta.inserts, delta.deletes)
    with pytest.raises(IncrementalMismatchError):
        # Base count 0 cannot belong to this lineage: the K3 count
        # strictly drops across the delete, driving the merge negative.
        CuTSMatcher(child, cfg).match(
            clique_graph(3), base_result=0, delta=delta
        )


# ---------------------------------------------------------------------------
# Randomized parity: incremental == full re-match (the oracle gate).
# ---------------------------------------------------------------------------

PARITY_QUERIES = [
    chain_graph(3),
    chain_graph(4),
    star_graph(3),
    clique_graph(3),
    cycle_graph(4),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "n_insert,n_delete", [(4, 0), (0, 4), (3, 3)],
    ids=["insert", "delete", "mixed"],
)
def test_incremental_parity_on_random_batches(seed, n_insert, n_delete):
    cfg = CuTSConfig()
    rng = np.random.default_rng(100 + seed)
    parent = random_graph(36, 0.09, seed=seed)
    ins, dels = random_delta(rng, parent, n_insert, n_delete)
    delta = EdgeDelta.build(inserts=ins, deletes=dels, parent=parent)
    assert not delta.is_empty
    child = spliced_graph(parent, delta.inserts, delta.deletes)
    old_matcher = CuTSMatcher(parent, cfg)
    new_matcher = CuTSMatcher(child, cfg)
    for query in PARITY_QUERIES:
        base = old_matcher.match(query)
        full = new_matcher.match(query)
        inc = new_matcher.match(query, base_result=base, delta=delta)
        assert inc.count == full.count, (
            f"seed={seed} ins={n_insert} dels={n_delete} "
            f"q={query.num_vertices}v: {inc.count} != {full.count}"
        )


# ---------------------------------------------------------------------------
# Service-level guarantees: promotion survival, as_of, incremental path.
# ---------------------------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    svc = MatchingService(CuTSConfig(), state_dir=str(tmp_path))
    yield svc
    svc.close()


def test_cache_entry_outside_dirty_ball_survives_commit(service):
    service.register_graph(combo_graph(), "combo")
    star = star_graph(5)
    before = service.match("combo", star, timeout=30)
    summary = service.mutate_graph("combo", inserts=[[0, 2]], directed=False)
    assert summary["changed"]
    assert summary["promoted"] >= 1
    stats = service.metrics()
    hits0 = stats["result_cache"]["hits"]
    invocations0 = stats["dispatcher"]["matcher_invocations"]
    after = service.match("combo", star, timeout=30)
    stats = service.metrics()
    # Promoted entry answers under the child fingerprint: a pure hit,
    # no engine work, and (by the locality lemma) the identical count.
    assert stats["result_cache"]["hits"] == hits0 + 1
    assert stats["dispatcher"]["matcher_invocations"] == invocations0
    assert after.count == before.count


@pytest.mark.parametrize("seed", [0, 1])
def test_service_incremental_matches_full_oracle(service, seed):
    rng = np.random.default_rng(200 + seed)
    graph = random_graph(36, 0.09, seed=seed)
    service.register_graph(graph, "g")
    query = chain_graph(3)
    service.match("g", query, timeout=30)
    for _ in range(3):
        head = service.registry.resolve("g").graph
        ins, dels = random_delta(rng, head, 1, 1)
        service.mutate_graph("g", inserts=ins.tolist(), deletes=dels.tolist())
        got = service.match("g", query, timeout=30)
        oracle = CuTSMatcher(
            service.registry.resolve("g").graph, service.config
        ).match(query)
        assert got.count == oracle.count
    # At least one post-commit miss took the incremental path.
    assert service.metrics()["dispatcher"]["incremental_matches"] >= 1


def test_as_of_on_retired_versions_matches_archived_oracle(tmp_path):
    svc = MatchingService(
        CuTSConfig(versioning_max_versions=4), state_dir=str(tmp_path)
    )
    try:
        rng = np.random.default_rng(42)
        svc.register_graph(random_graph(32, 0.1, seed=9), "g")
        query = cycle_graph(4)
        archive = {}
        head_fp = svc.registry.resolve("g").fingerprint
        archive[head_fp] = svc.match("g", query, timeout=30).count
        for _ in range(3):
            head = svc.registry.resolve("g").graph
            ins, dels = random_delta(rng, head, 2, 1)
            summary = svc.mutate_graph(
                "g", inserts=ins.tolist(), deletes=dels.tolist()
            )
            archive[summary["fingerprint"]] = svc.match(
                "g", query, timeout=30
            ).count
        lineage = svc.versions("g")
        assert len(lineage) == 4
        for entry in lineage:
            fp = entry["fingerprint"]
            got = svc.match("g", query, as_of=fp, timeout=30)
            assert got.count == archive[fp], fp
        with pytest.raises(KeyError):
            svc.match("g", query, as_of="no-such-version", timeout=30)
    finally:
        svc.close()


def test_pruned_version_is_not_servable(tmp_path):
    svc = MatchingService(
        CuTSConfig(versioning_max_versions=2), state_dir=str(tmp_path)
    )
    try:
        svc.register_graph(mesh_graph(5, 5), "g")
        fp0 = svc.registry.resolve("g").fingerprint
        svc.mutate_graph("g", inserts=[[0, 6]], directed=False)
        svc.mutate_graph("g", inserts=[[1, 7]], directed=False)
        assert len(svc.versions("g")) == 2
        with pytest.raises(KeyError):
            svc.match("g", chain_graph(3), as_of=fp0, timeout=30)
    finally:
        svc.close()
