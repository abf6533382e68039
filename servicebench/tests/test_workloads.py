"""Seeded generation: the same seed gives the same request stream, a
different seed a different one."""

import pytest

import workloads as wl


def _grid_keys(seed):
    return [case.key for case in wl.paper_grid(seed)[1]]


def test_paper_grid_order_is_seeded():
    assert _grid_keys(3) == _grid_keys(3)
    assert _grid_keys(3) != _grid_keys(4)
    assert sorted(_grid_keys(3)) == sorted(_grid_keys(4))
    assert len(_grid_keys(3)) == 6 * 33 + 1
    assert len(set(_grid_keys(3))) == len(_grid_keys(3))


def _hot_keys(seed):
    return [[p.key for p in stream] for stream in wl.hot_streams(seed, 2, 200)]


def test_hot_streams_are_seeded():
    assert _hot_keys(5) == _hot_keys(5)
    assert _hot_keys(5) != _hot_keys(6)
    assert len({p.key for p in wl.hot_pairs()}) == 16
    forms = {isinstance(p.spec, str) for p in wl.hot_pairs()}
    assert forms == {True, False}


def _mutate(seed, part=0):
    inputs = wl.mutate_read(seed, 1.0, 60.0, 5, part=part)
    return [
        (round(offset, 9), kind, op.graph, op.query, op.insert, op.delete)
        for offset, kind, op in inputs.schedule
    ], {name: [v.fingerprint for v in chain]
        for name, chain in inputs.lineage.items()}


def test_mutate_read_schedule_and_lineage_are_seeded():
    same = _mutate(7)
    assert same == _mutate(7)
    for other in (_mutate(8), _mutate(7, part=1)):
        assert same[0] != other[0]
        assert same[1] != other[1]


def _reads_per_version(inputs):
    """Distinct queries read on each committed version, per graph."""
    head = {name: 0 for name in inputs.lineage}
    read = {}
    for _offset, kind, op in inputs.schedule:
        if kind == "commit":
            head[op.graph] = op.version
            read.setdefault((op.graph, op.version), set())
        elif head[op.graph] > 0:
            read[(op.graph, head[op.graph])].add(op.query)
    return {key: len(queries) for key, queries in read.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutate_read_reads_the_same_pairs_after_commits_for_every_seed(seed):
    # Every read round reads all three queries of its version; every
    # skip round leaves its version unread.
    counts = _reads_per_version(wl.mutate_read(seed, 4.0, 30.0, 7))
    assert counts == _reads_per_version(wl.mutate_read(0, 4.0, 30.0, 7))
    assert sorted(counts.values()) == [0] * 5 + [3] * 10


@pytest.mark.parametrize("seed", [0, 1])
def test_mutate_read_commits_chain_and_keep_mesh_degrees_low(seed):
    inputs = wl.mutate_read(seed, 2.0, 120.0, 3)
    kinds = [kind for _offset, kind, _op in inputs.schedule]
    assert kinds.count("commit") == 60
    versions = {}
    for _offset, kind, op in inputs.schedule:
        if kind != "commit":
            continue
        # Each graph's commits build one chain in schedule order, and
        # each toggles two distinct edges.
        assert versions.get(op.graph, 0) == op.version - 1
        versions[op.graph] = op.version
        pairs = [tuple(p) for p in op.insert + op.delete]
        assert len(pairs) == 2 == len(set(pairs))
    assert versions == {"mesh": 30, "social": 30}
    mesh = inputs.lineage["mesh"][-1].graph("mesh")
    side = wl.MESH_SIDE
    assert int(mesh.out_degrees[: side * side].max()) <= 5
