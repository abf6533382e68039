"""Checkpoint store, atomic writes, and fingerprint guards."""

import json
import os

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointMismatchError,
    CheckpointStore,
    atomic_write_bytes,
    atomic_write_json,
    check_fingerprints,
    config_fingerprint,
    graph_fingerprint,
    run_durable,
)
from repro.core import CuTSConfig, CuTSMatcher
from repro.core.result import MatchResult
from repro.core.stats import SearchStats
from repro.distributed.runtime import DistributedCuTS
from repro.gpusim.cost import CostModel
from repro.gpusim.device import V100
from repro.graph.generators import clique_graph, social_graph
from repro.parallel.matcher import ParallelMatcher


# ---------------------------------------------------------------------------
# Atomic writes.
# ---------------------------------------------------------------------------


def test_atomic_write_bytes_roundtrip_and_replace(tmp_path):
    path = str(tmp_path / "blob.bin")
    atomic_write_bytes(path, b"first")
    assert open(path, "rb").read() == b"first"
    atomic_write_bytes(path, b"second")
    assert open(path, "rb").read() == b"second"
    # No temp litter: the tmp file was renamed into place.
    assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


def test_atomic_write_json_roundtrip(tmp_path):
    path = str(tmp_path / "m.json")
    atomic_write_json(path, {"a": 1, "nested": {"b": [1, 2]}})
    assert json.load(open(path)) == {"a": 1, "nested": {"b": [1, 2]}}


# ---------------------------------------------------------------------------
# Snapshots.
# ---------------------------------------------------------------------------


def test_snapshot_roundtrip(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    bufs = [np.arange(5, dtype=np.int64), np.array([7, 8], dtype=np.int64)]
    store.save_snapshot(0, bufs, {"count": 3, "layout": []})
    loaded = store.load_latest_snapshot()
    assert loaded is not None
    seq, buffers, meta = loaded
    assert seq == 0
    assert meta["count"] == 3
    assert [b.tolist() for b in buffers] == [[0, 1, 2, 3, 4], [7, 8]]


def test_latest_snapshot_wins_and_prune_keeps_newest(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    for seq in range(4):
        store.save_snapshot(seq, [], {"count": seq})
    assert store.snapshot_seqs() == [0, 1, 2, 3]
    assert store.load_latest_snapshot()[2]["count"] == 3
    store.prune_snapshots(keep=2)
    assert store.snapshot_seqs() == [2, 3]
    store.prune_snapshots(keep=0)
    assert store.snapshot_seqs() == []


def test_corrupt_newest_snapshot_falls_back(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    store.save_snapshot(0, [np.arange(3, dtype=np.int64)], {"count": 1})
    # A torn write: snapshot-00000001.npz exists but is garbage.
    torn = os.path.join(store.directory, "snapshot-00000001.npz")
    with open(torn, "wb") as fh:
        fh.write(b"\x00not-a-zipfile")
    seq, buffers, meta = store.load_latest_snapshot()
    assert seq == 0
    assert meta["count"] == 1


def test_empty_store_has_no_snapshot(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    assert store.load_latest_snapshot() is None
    assert store.read_manifest() is None


# ---------------------------------------------------------------------------
# Spills and shard results.
# ---------------------------------------------------------------------------


def test_spill_roundtrip_and_delete(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    name = store.save_spill(0, np.arange(9, dtype=np.int64))
    assert name == "spill-00000000.npy"
    assert store.load_spill(name).tolist() == list(range(9))
    store.delete_spill(name)
    assert not os.path.exists(os.path.join(store.directory, name))


def test_spill_name_validation(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    with pytest.raises(ValueError):
        store.load_spill("../../etc/passwd")
    with pytest.raises(ValueError):
        store.delete_spill("manifest.json")


def test_part_results_roundtrip(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    store.save_part(2, {"count": 11})
    store.save_part(0, {"count": 5})
    parts = store.load_parts()
    assert parts == {0: {"count": 5}, 2: {"count": 11}}


def test_heartbeat_paths_live_under_hb(tmp_path):
    store = CheckpointStore(str(tmp_path / "job"))
    assert os.path.isdir(store.heartbeat_dir)
    assert store.heartbeat_path(3).endswith(os.path.join("hb", "part-00003"))


# ---------------------------------------------------------------------------
# Fingerprints.
# ---------------------------------------------------------------------------


def test_graph_fingerprint_distinguishes_graphs():
    a = social_graph(50, 3, seed=1)
    b = social_graph(50, 3, seed=2)
    assert graph_fingerprint(a) == graph_fingerprint(social_graph(50, 3, seed=1))
    assert graph_fingerprint(a) != graph_fingerprint(b)


def test_config_fingerprint_tracks_count_relevant_fields_only():
    base = config_fingerprint(CuTSConfig())
    # Count-relevant knob: changes the fingerprint.
    assert config_fingerprint(CuTSConfig(chunk_size=64)) != base
    # Count-irrelevant durability/runtime knobs: fingerprint unchanged,
    # so a resume may alter them freely.
    assert config_fingerprint(CuTSConfig(memory_budget_mb=64)) == base
    assert config_fingerprint(CuTSConfig(checkpoint_every=7)) == base
    assert config_fingerprint(CuTSConfig(lease_timeout_s=1.0)) == base
    assert config_fingerprint(CuTSConfig(lease_retries=9)) == base
    assert config_fingerprint(CuTSConfig(workers=8)) == base


def test_check_fingerprints_raises_on_mismatch():
    current = {"data": "abc", "query": "def"}
    check_fingerprints({"data": "abc", "query": "def"}, current)
    with pytest.raises(CheckpointMismatchError):
        check_fingerprints({"data": "abc", "query": "XXX"}, current)


# ---------------------------------------------------------------------------
# The open/resume/finish protocol, on every durable engine.
# ---------------------------------------------------------------------------

ENGINES = ["serial", "parallel", "distributed"]


@pytest.fixture(scope="module")
def small_world():
    data = social_graph(120, 3, seed=3)
    return CuTSMatcher(data, CuTSConfig()), clique_graph(3)


def _durable(engine, matcher, query, directory, **kwargs):
    """Run ``query`` as a durable job: serial, 2 workers or 2 ranks."""
    if engine == "serial":
        return run_durable(matcher, query, checkpoint_dir=directory, **kwargs)
    if engine == "parallel":
        with ParallelMatcher(matcher.data, matcher.config, workers=2) as pm:
            return pm.match(query, checkpoint_dir=directory, **kwargs)
    return DistributedCuTS(matcher.data, 2, matcher.config).match(
        query, checkpoint_dir=directory, **kwargs
    )


def _forbid_search(monkeypatch):
    """Fail the test if any engine sets up a search or a worker pool."""

    def searched(*_args, **_kwargs):
        raise AssertionError("a finished job started a search")

    monkeypatch.setattr(CuTSMatcher, "make_run_state", searched)
    monkeypatch.setattr(ParallelMatcher, "_make_pool", searched)


@pytest.mark.parametrize("engine", ENGINES)
def test_existing_job_requires_resume(tmp_path, small_world, engine):
    matcher, query = small_world
    d = str(tmp_path / "job")
    _durable(engine, matcher, query, d)
    with pytest.raises(ValueError, match="resume=True"):
        _durable(engine, matcher, query, d)


@pytest.mark.parametrize("engine", ENGINES)
def test_resume_requires_existing_manifest(tmp_path, small_world, engine):
    matcher, query = small_world
    with pytest.raises(ValueError, match="nothing to resume"):
        _durable(engine, matcher, query, str(tmp_path / "void"), resume=True)


@pytest.mark.parametrize("engine", ENGINES)
def test_resume_refuses_mismatched_query(tmp_path, small_world, engine):
    matcher, query = small_world
    d = str(tmp_path / "job")
    _durable(engine, matcher, query, d)
    with pytest.raises(CheckpointMismatchError):
        _durable(engine, matcher, clique_graph(4), d, resume=True)


@pytest.mark.parametrize("engine", ENGINES)
def test_resume_of_complete_job_is_instant_and_exact(
    tmp_path, small_world, engine, monkeypatch
):
    matcher, query = small_world
    d = str(tmp_path / "job")
    expected = matcher.match(query).count
    first = _durable(engine, matcher, query, d)
    _forbid_search(monkeypatch)
    again = _durable(engine, matcher, query, d, resume=True)
    assert again.count == first.count == expected
    if engine == "distributed":
        assert again == first
    else:
        assert again.time_ms == first.time_ms


# A finished job as the format-1 engines wrote it: the literal manifest
# and part-file shapes below must keep resuming without a migration.
STORED_STATS = {
    "cancelled_at_dispatch": 0,
    "chunk_halvings": 0,
    "chunks_processed": 0,
    "intersection_calls": {"c": 3, "p": 0},
    "max_chunk_depth": 0,
    "paths_per_depth": [120, 700, 12345],
    "peak_frontier": 64,
    "peak_tracked_bytes": 4096,
    "peak_trie_words": 0,
    "spilled_chunks": 0,
    "stage_wall_s": {},
}


def _stored_job(engine, directory, matcher, query):
    """Write a complete job for ``engine`` with the fake count 12345."""
    prints = {
        "version": "1",
        "config": config_fingerprint(matcher.config),
        "data": graph_fingerprint(matcher.data),
        "query": graph_fingerprint(query),
    }
    if engine == "serial":
        prints["shard"] = "0/1"
        manifest = {
            "version": 1, "fingerprints": prints, "part": 0, "num_parts": 1,
            "complete": True, "count": 12345, "time_ms": 1.5,
            "stats": STORED_STATS, "order": [0, 1, 2],
        }
    elif engine == "parallel":
        prints.update(mode="parallel", num_parts="2")
        manifest = {
            "version": 1, "fingerprints": prints, "num_parts": 2,
            "complete": True, "count": 12345, "time_ms": 1.5,
        }
        atomic_write_json(
            os.path.join(directory, "part-00000.json"),
            {"count": 12000, "time_ms": 1.5, "stats": STORED_STATS,
             "order": [0, 1, 2]},
        )
        # A part file without "order" still loads (empty order).
        atomic_write_json(
            os.path.join(directory, "part-00001.json"),
            {"count": 345, "time_ms": 1.0, "stats": STORED_STATS},
        )
    else:
        prints.update(mode="distributed", num_ranks="2")
        manifest = {
            "version": 1, "fingerprints": prints, "complete": True,
            "result": {
                "count": 12345, "runtime_ms": 1.5,
                "per_rank_clock_ms": [1.5, 1.0],
                "per_rank_busy_ms": [1.25, 1.0],
                "chunks_processed": [3, 4], "work_transfers": 1,
                "words_transferred": 9, "faults_injected": 0,
                "retransmissions": 0, "ranks_failed": 0,
                "recovered_chunks": 0,
            },
        }
    atomic_write_json(os.path.join(directory, "manifest.json"), manifest)


@pytest.mark.parametrize("engine", ENGINES)
def test_complete_job_in_the_stored_format_resumes_without_search(
    tmp_path, small_world, engine, monkeypatch
):
    matcher, query = small_world
    d = tmp_path / "job"
    d.mkdir()
    _stored_job(engine, str(d), matcher, query)
    _forbid_search(monkeypatch)
    resumed = _durable(engine, matcher, query, str(d), resume=True)
    assert resumed.count == 12345
    if engine == "distributed":
        assert resumed.per_rank_clock_ms == (1.5, 1.0)
    else:
        assert (resumed.time_ms, resumed.order) == (1.5, (0, 1, 2))


def test_result_payload_roundtrip():
    result = MatchResult(
        count=7, matches=None, time_ms=2.5, cost=CostModel(V100),
        stats=SearchStats.from_json(STORED_STATS), order=(2, 0, 1),
    )
    payload = result.to_payload()
    assert json.loads(json.dumps(payload)) == payload
    back = MatchResult.from_payload(payload, V100, shards=(3,))
    assert (back.count, back.time_ms, back.order, back.shards) == (
        7, 2.5, (2, 0, 1), (3,)
    )
    assert back.stats.to_json() == STORED_STATS
    del payload["order"]
    assert MatchResult.from_payload(payload, V100).order == ()


def test_match_api_guards(tmp_path, small_world):
    matcher, query = small_world
    with pytest.raises(ValueError, match="count-only"):
        matcher.match(
            query, checkpoint_dir=str(tmp_path / "x"), materialize=True
        )
    with pytest.raises(ValueError, match="requires checkpoint_dir"):
        matcher.match(query, resume=True)
    with pytest.raises(ValueError, match="root_filter"):
        matcher.match(
            query, checkpoint_dir=str(tmp_path / "y"), root_filter=[0, 1, 2]
        )


def test_durable_serial_equals_inprocess(tmp_path, small_world):
    matcher, query = small_world
    baseline = matcher.match(query)
    durable = run_durable(
        matcher, query, checkpoint_dir=str(tmp_path / "j2"), checkpoint_every=3
    )
    assert durable.count == baseline.count
    assert durable.stats.paths_per_depth == baseline.stats.paths_per_depth


def test_durable_sharded_counts_sum(tmp_path, small_world):
    matcher, query = small_world
    baseline = matcher.match(query)
    total = 0
    for part in range(3):
        r = run_durable(
            matcher, query,
            checkpoint_dir=str(tmp_path / f"shard{part}"),
            part=part, num_parts=3,
        )
        assert r.shards == (part,)
        total += r.count
    assert total == baseline.count
