"""Tests for the shared content-fingerprint module.

The service cache and the checkpoint store key on the *same* hashes
from ``repro.fingerprint``; these tests pin that the fingerprints behave
(content-sensitive, name-insensitive) and that a config fingerprint
covers exactly the fields declared on ``EngineConfig``, with digests
that stored checkpoints and service state dirs depend on.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import CuTSConfig, EngineConfig
from repro.fingerprint import (
    CheckpointMismatchError,
    check_fingerprints,
    config_fingerprint,
    graph_fingerprint,
)
from repro.gpusim import A100
from repro.graph import from_edges, mesh_graph


# ---------------------------------------------------------------------------
# Graph fingerprints.
# ---------------------------------------------------------------------------


def test_graph_fingerprint_is_stable_and_content_keyed(mesh44):
    fp1 = graph_fingerprint(mesh44)
    fp2 = graph_fingerprint(mesh_graph(4, 4))
    assert fp1 == fp2
    assert fp1 != graph_fingerprint(mesh_graph(4, 5))
    assert len(fp1) == 64  # sha256 hex


def test_graph_fingerprint_ignores_name_but_not_labels():
    a = from_edges([(0, 1), (1, 0)], name="a")
    b = from_edges([(0, 1), (1, 0)], name="b")
    assert graph_fingerprint(a) == graph_fingerprint(b)
    labelled = a.with_labels(np.array([1, 2], dtype=np.int64))
    assert graph_fingerprint(labelled) != graph_fingerprint(a)


# ---------------------------------------------------------------------------
# Config fingerprints: count-relevant fields only.
# ---------------------------------------------------------------------------


def test_config_fingerprint_ignores_count_irrelevant_fields():
    base = config_fingerprint(CuTSConfig())
    assert config_fingerprint(
        CuTSConfig(workers=4, memory_budget_mb=64, service_queue_depth=7)
    ) == base


def test_config_fingerprint_tracks_count_relevant_fields():
    base = config_fingerprint(CuTSConfig())
    assert config_fingerprint(CuTSConfig(chunk_size=64)) != base
    assert config_fingerprint(CuTSConfig(ordering="id")) != base


# A valid non-default value for every config field, split by the class
# that declares it.
ENGINE_CHANGES = {
    "device": A100,
    "chunk_size": 64,
    "randomize_placement": False,
    "intersection": "c",
    "ordering": "id",
    "engine": "reference",
    "profile_expansion": True,
    "virtual_warp_size": 8,
    "trie_buffer_fraction": 0.25,
    "seed": 7,
    "max_materialized": 10,
    "neighborhood_filter": True,
}
RUNTIME_CHANGES = {
    "trace_kernels": True,
    "workers": 4,
    "memory_budget_mb": 64,
    "checkpoint_every": 8,
    "lease_timeout_s": 5.0,
    "lease_retries": 0,
    "service_queue_depth": 7,
    "service_cache_bytes": 0,
    "service_max_query_vertices": 9,
    "service_request_timeout_s": 2.0,
    "service_max_body_bytes": 4096,
    "service_degraded_after": 5,
    "service_ranks": 3,
    "service_replication": 3,
    "service_route_timeout_s": 1.0,
    "service_heal_after_ticks": 4,
    "versioning_max_versions": 1,
    "versioning_incremental": False,
}


def test_fingerprint_covers_exactly_the_engine_fields():
    engine = {f.name for f in dataclasses.fields(EngineConfig)}
    every = {f.name for f in dataclasses.fields(CuTSConfig)}
    assert set(ENGINE_CHANGES) == engine
    assert set(RUNTIME_CHANGES) == every - engine
    base = config_fingerprint(CuTSConfig())
    for name, value in RUNTIME_CHANGES.items():
        assert config_fingerprint(CuTSConfig(**{name: value})) == base, name
    for name, value in ENGINE_CHANGES.items():
        assert config_fingerprint(CuTSConfig(**{name: value})) != base, name


def test_config_fingerprint_digests_are_pinned():
    # Stored checkpoints and service state dirs carry these digests;
    # changing one orphans them.
    assert config_fingerprint(CuTSConfig()) == (
        "a7c00c9a9974d634d78c8df920f5a037e7f0d28f27bbcd5a2cd02680a60cdfd8"
    )
    assert config_fingerprint(CuTSConfig(engine="reference")) == (
        "ef1a252d052b291c0683451d7e8236c8a0084f677f027abf5b123fc56a41e2a4"
    )
    assert config_fingerprint(CuTSConfig(chunk_size=64)) == (
        "1598b07796dfad0a02ba0627127d649895dcb7721a411bfb3a144911b907b1e4"
    )


def test_check_fingerprints_raises_on_mismatch(mesh44):
    cfg = CuTSConfig()
    stored = {
        "graph": graph_fingerprint(mesh44),
        "config": config_fingerprint(cfg),
    }
    check_fingerprints(stored, dict(stored))  # identical: fine
    bad = dict(stored, graph="0" * 64)
    with pytest.raises(CheckpointMismatchError):
        check_fingerprints(bad, stored)
