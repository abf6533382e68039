"""Match results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..gpusim.cost import CostModel
from ..gpusim.device import DeviceSpec
from .stats import SearchStats

__all__ = ["MatchResult"]


@dataclass
class MatchResult:
    """Outcome of one subgraph-isomorphism search.

    Attributes
    ----------
    count:
        Number of monomorphism embeddings found (always exact).
    matches:
        ``(k, |V_Q|)`` matrix when materialisation was requested:
        ``matches[r, q]`` is the data vertex that query vertex ``q`` maps
        to in embedding ``r``.  ``None`` when counting only.  ``k`` may be
        smaller than ``count`` if ``max_materialized`` capped collection.
    time_ms:
        Modeled GPU kernel time (the paper's evaluation metric).
    cost:
        The full hardware-counter snapshot of the run.
    stats:
        Per-depth path counts, chunking activity, peak storage.
    order:
        The query-vertex sequence that was matched.
    shards:
        Root-interval shard ids this result covers (sorted, unique).
        Empty for a whole-search result.  :meth:`merge` uses these to be
        **idempotent under duplicate shard delivery**: merging a result
        whose shards are already covered is a no-op, so a watchdog
        re-lease plus a slow original worker cannot double-count.
    """

    count: int
    matches: np.ndarray | None
    time_ms: float
    cost: CostModel
    stats: SearchStats = field(default_factory=SearchStats)
    order: tuple[int, ...] = ()
    shards: tuple[int, ...] = ()

    def merge(
        self, other: "MatchResult", *, max_materialized: int | None = None
    ) -> "MatchResult":
        """Associative reduction over root-interval shards.

        The level-0 candidate intervals partition the search tree, so
        interval results combine losslessly: counts **sum**, materialised
        rows **concatenate** (truncated to ``max_materialized`` — prefix
        truncation keeps the reduction associative), hardware counters
        sum via :meth:`CostModel.merge`, per-depth stats fold via
        :meth:`SearchStats.merge`.  ``time_ms`` takes the **max** of the
        two sides, modeling intervals running on concurrent devices (the
        merged ``cost.time_ms`` is the serial sum; the field models the
        makespan).

        Both sides must agree on materialisation (both ``matches is
        None`` or neither) and on the matching order.

        When both sides carry shard ids, the merge **dedupes by shard**:
        if every shard of ``other`` is already covered by ``self`` the
        merge returns ``self`` unchanged (duplicate delivery of a
        re-leased interval); a *partial* overlap is a protocol error and
        raises ``ValueError``.
        """
        if self.shards and other.shards:
            mine, theirs = set(self.shards), set(other.shards)
            overlap = mine & theirs
            if overlap == theirs:
                return self
            if overlap:
                raise ValueError(
                    f"cannot merge partially-overlapping shard sets: "
                    f"{sorted(overlap)} delivered twice"
                )
        if (self.matches is None) != (other.matches is None):
            raise ValueError(
                "cannot merge a materialised result with a count-only one"
            )
        if self.order and other.order and self.order != other.order:
            raise ValueError(
                f"cannot merge results with different matching orders: "
                f"{self.order} != {other.order}"
            )
        matches = None
        if self.matches is not None and other.matches is not None:
            matches = np.concatenate([self.matches, other.matches], axis=0)
            if max_materialized is not None and len(matches) > max_materialized:
                matches = matches[:max_materialized]
        cost = CostModel(self.cost.device)
        cost.merge(self.cost)
        cost.merge(other.cost)
        stats = SearchStats()
        stats.merge(self.stats)
        stats.merge(other.stats)
        return MatchResult(
            count=self.count + other.count,
            matches=matches,
            time_ms=max(self.time_ms, other.time_ms),
            cost=cost,
            stats=stats,
            order=self.order or other.order,
            shards=tuple(sorted({*self.shards, *other.shards})),
        )

    def to_payload(self) -> dict[str, Any]:
        """JSON form of a count-only result: what a durable job's part
        files and manifests persist and what the service caches.
        Hardware counters and materialised rows are not part of it."""
        return {
            "count": int(self.count),
            "time_ms": float(self.time_ms),
            "stats": self.stats.to_json(),
            "order": [int(q) for q in self.order],
        }

    @classmethod
    def from_payload(
        cls,
        payload: dict[str, Any],
        device: DeviceSpec,
        *,
        shards: Sequence[int] = (),
    ) -> "MatchResult":
        """Rebuild a result :meth:`to_payload` wrote.  Keys it does not
        read are ignored, so a complete manifest loads directly; a
        payload without ``"order"`` loads with an empty order.  The cost
        model is empty (counters are not persisted)."""
        return cls(
            count=int(payload["count"]),
            matches=None,
            time_ms=float(payload["time_ms"]),
            cost=CostModel(device),
            stats=SearchStats.from_json(payload["stats"]),
            order=tuple(int(q) for q in payload.get("order", ())),
            shards=tuple(shards),
        )

    def mappings(self) -> list[dict[int, int]]:
        """Materialised matches as query→data dictionaries."""
        if self.matches is None:
            raise ValueError("matches were not materialised (count-only run)")
        return [
            {q: int(row[q]) for q in range(len(row))} for row in self.matches
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatchResult(count={self.count}, time_ms={self.time_ms:.3f}, "
            f"materialized={0 if self.matches is None else len(self.matches)})"
        )
