"""The durable job runner: checkpointed, resumable enumeration.

Drives :class:`~repro.core.matcher.CuTSMatcher`'s stepwise API with an
explicit LIFO work stack — the same worker-stack formulation the
distributed runtime and :func:`~repro.core.stream.iter_matches` use, so
counts are exactly those of :meth:`CuTSMatcher.match` — and snapshots
the stack to a :class:`~repro.checkpoint.store.CheckpointStore` every
``checkpoint_every`` expansions.

Each stack item ``(trie, step, frontier)`` is snapshotted as a
*self-contained* sub-trie (``extract_subtrie`` + the wire format of
:mod:`repro.storage.serialize`), so a snapshot is independent of any
in-memory state: a SIGKILL at any instant loses at most the work done
since the last committed snapshot, and a resumed run replays exactly
the remaining stack.  Partial counts and statistics ride in the
snapshot's meta block; modeled ``time_ms`` accumulates across restarts
(the replayed expansions are charged in the run that actually executes
them, so a resumed job's modeled time can differ slightly from an
uninterrupted run's — counts never do).

The memory governor integrates here at two points: chunk sizes come
from :meth:`~repro.core.governor.MemoryGovernor.effective_chunk`, and
past the high-water mark pending stack items are **spilled** to the
store (shallowest first — the biggest remainders) instead of the run
aborting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.matcher import CuTSMatcher
from ..core.result import MatchResult
from ..core.stats import SearchStats
from ..graph.csr import CSRGraph
from ..storage.serialize import deserialize_trie, serialize_trie
from ..storage.trie import PathTrie, TrieLevel
from .store import CheckpointStore, job_fingerprints

__all__ = ["run_durable"]


@dataclass
class _MemItem:
    """An in-memory work item: expand ``frontier`` through ``step``."""

    trie: PathTrie
    step: int
    frontier: np.ndarray
    words: int
    packed: np.ndarray | None = None
    """Cached :func:`_pack` buffer.  Items are immutable once pushed, so
    a buffer computed for one snapshot is reused verbatim by the next —
    only items created since the last snapshot pay serialization."""


@dataclass
class _SpillItem:
    """A work item evicted to the checkpoint store."""

    name: str
    step: int
    words: int


def _item_words(trie: PathTrie, frontier: np.ndarray) -> int:
    """Ship-equivalent footprint of one work item (trie + frontier)."""
    return trie.total_storage_words + int(frontier.size)


def _pack(item: _MemItem) -> np.ndarray:
    """Serialize an item as a self-contained sub-trie buffer (cached)."""
    if item.packed is None:
        sub = item.trie.extract_subtrie(item.trie.depth - 1, item.frontier)
        item.packed = serialize_trie(sub)
    return item.packed


def _unpack(buffer: np.ndarray, step: int) -> _MemItem:
    """Rebuild a work item from a buffer ``_pack`` produced."""
    trie = deserialize_trie(buffer)
    frontier = np.arange(trie.num_paths(), dtype=np.int64)
    return _MemItem(
        trie=trie, step=step, frontier=frontier,
        words=_item_words(trie, frontier), packed=buffer,
    )


def run_durable(
    matcher: CuTSMatcher,
    query: CSRGraph,
    *,
    checkpoint_dir: str,
    checkpoint_every: int | None = None,
    resume: bool = False,
    part: int = 0,
    num_parts: int = 1,
) -> MatchResult:
    """Run (or resume) a checkpointed count of ``query``'s embeddings.

    Parameters
    ----------
    matcher:
        The engine bound to the data graph.
    query:
        The query graph.
    checkpoint_dir:
        Directory for the job's manifest/snapshots; created if missing.
        A directory that already holds a job can only be reopened with
        ``resume=True`` (and matching fingerprints).
    checkpoint_every:
        Snapshot cadence in fused expansions; defaults to
        ``matcher.config.checkpoint_every``.
    resume:
        Continue from the newest committed snapshot.  A job whose
        manifest is already marked complete returns its stored result
        without re-running anything.
    part, num_parts:
        Root-interval striding, as in :meth:`CuTSMatcher.match`.

    Returns
    -------
    A count-only :class:`MatchResult` (checkpointed runs do not
    materialise embeddings).
    """
    if query.num_vertices == 0:
        raise ValueError("query graph must have at least one vertex")
    if not 0 <= part < num_parts:
        raise ValueError("need 0 <= part < num_parts")
    every = (
        matcher.config.checkpoint_every
        if checkpoint_every is None
        else int(checkpoint_every)
    )
    if every < 1:
        raise ValueError("checkpoint_every must be >= 1")

    store = CheckpointStore(checkpoint_dir)
    prints = job_fingerprints(
        matcher.config, matcher.data, query, shard=f"{part}/{num_parts}"
    )
    shards = (part,) if num_parts > 1 else ()
    manifest = store.open_job(
        prints, resume=resume, part=part, num_parts=num_parts
    )
    if manifest is not None and manifest.get("complete"):
        return MatchResult.from_payload(
            manifest, matcher.config.device, shards=shards
        )

    state = matcher.make_run_state(query)
    n_steps = state.order.num_steps
    order = tuple(state.order.sequence)

    base_count = 0
    base_time_ms = 0.0
    base_stats = SearchStats()
    stack: list[_MemItem | _SpillItem] = []
    next_seq = 0
    spill_seq = 0
    live_spills: set[str] = set()

    def finish(count: int, time_ms: float, stats: SearchStats) -> MatchResult:
        """Commit the complete manifest and build the final result."""
        stats.record_governor(state.governor)
        result = MatchResult(
            count=int(count), matches=None, time_ms=float(time_ms),
            cost=state.cost, stats=stats, order=order, shards=shards,
        )
        store.finish_job(
            prints, part=part, num_parts=num_parts, **result.to_payload()
        )
        for name in sorted(live_spills):
            store.delete_spill(name)
        return result

    snapshot = store.load_latest_snapshot() if manifest is not None else None
    if snapshot is not None:
        seq, buffers, meta = snapshot
        next_seq = seq + 1
        base_count = int(meta["count"])
        base_time_ms = float(meta["time_ms"])
        base_stats = SearchStats.from_json(meta["stats"])
        spill_seq = int(meta.get("spill_seq", 0))
        for entry in meta["layout"]:
            step = int(entry["step"])
            if entry["kind"] == "mem":
                stack.append(_unpack(buffers[int(entry["i"])], step))
            else:
                name = str(entry["name"])
                live_spills.add(name)
                stack.append(
                    _SpillItem(
                        name=name, step=step, words=int(entry["words"])
                    )
                )
    else:
        # Fresh start (or resume before the first snapshot committed).
        if query.num_vertices > matcher.data.num_vertices:
            return finish(0, 0.0, SearchStats())
        trie = matcher.initial_frontier(state, part=part, num_parts=num_parts)
        roots = trie.num_paths(0)
        if n_steps == 1:
            return finish(roots, state.cost.time_ms, state.stats)
        if roots:
            frontier = np.arange(roots, dtype=np.int64)
            stack.append(
                _MemItem(
                    trie=trie, step=1, frontier=frontier,
                    words=_item_words(trie, frontier),
                )
            )

    mem_words = sum(it.words for it in stack if isinstance(it, _MemItem))
    state.governor.observe_words(mem_words)
    count = 0
    expansions = 0

    def take_snapshot() -> None:
        nonlocal next_seq
        buffers: list[np.ndarray] = []
        layout: list[dict[str, object]] = []
        for it in stack:
            if isinstance(it, _MemItem):
                layout.append(
                    {"kind": "mem", "i": len(buffers), "step": it.step}
                )
                buffers.append(_pack(it))
            else:
                layout.append(
                    {
                        "kind": "spill", "name": it.name,
                        "step": it.step, "words": it.words,
                    }
                )
        merged = SearchStats.from_json(base_stats.to_json())
        merged.merge(state.stats)
        merged.record_governor(state.governor)
        store.save_snapshot(
            next_seq,
            buffers,
            {
                "layout": layout,
                "count": base_count + count,
                "time_ms": base_time_ms + state.cost.time_ms,
                "stats": merged.to_json(),
                "spill_seq": spill_seq,
            },
        )
        next_seq += 1
        store.prune_snapshots(keep=2)

    def spill_pressure() -> None:
        """Evict pending items (shallowest first) past the high-water
        mark, keeping at least the top-of-stack item in memory."""
        nonlocal mem_words, spill_seq
        if not state.governor.should_spill():
            return
        for i, it in enumerate(stack[:-1]):
            if not isinstance(it, _MemItem):
                continue
            name = store.save_spill(spill_seq, _pack(it))
            spill_seq += 1
            live_spills.add(name)
            stack[i] = _SpillItem(name=name, step=it.step, words=it.words)
            mem_words -= it.words
            state.governor.note_spill()
            state.governor.observe_words(mem_words)
            if not state.governor.should_spill():
                break

    while stack:
        popped = stack.pop()
        if isinstance(popped, _SpillItem):
            item = _unpack(store.load_spill(popped.name), popped.step)
            mem_words += item.words
        else:
            item = popped
            mem_words -= item.words
        chunk = state.governor.effective_chunk(matcher.config.chunk_size)
        frontier = item.frontier
        if frontier.size > chunk:
            rest = frontier[chunk:]
            rest_item = _MemItem(
                trie=item.trie, step=item.step, frontier=rest,
                words=_item_words(item.trie, rest),
            )
            stack.append(rest_item)
            mem_words += rest_item.words
            frontier = frontier[:chunk]
        if isinstance(popped, _SpillItem):
            mem_words -= item.words
        state.governor.observe_words(mem_words)

        pa, ca = matcher.expand_frontier(item.trie, item.step, frontier, state)
        expansions += 1
        if len(ca):
            if item.step + 1 == n_steps:
                count += len(ca)
            else:
                child = PathTrie(
                    levels=[*item.trie.levels, TrieLevel(pa=pa, ca=ca)]
                )
                child_frontier = np.arange(len(ca), dtype=np.int64)
                child_item = _MemItem(
                    trie=child, step=item.step + 1, frontier=child_frontier,
                    words=_item_words(child, child_frontier),
                )
                stack.append(child_item)
                mem_words += child_item.words
                state.governor.observe_words(mem_words)
                spill_pressure()
        if expansions % every == 0 and stack:
            take_snapshot()

    final_stats = SearchStats.from_json(base_stats.to_json())
    final_stats.merge(state.stats)
    return finish(
        base_count + count, base_time_ms + state.cost.time_ms, final_stats
    )

