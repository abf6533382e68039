"""Regenerate the paper-grid count oracle, ``expected_counts.json``.

Counts come from the kept ``engine="reference"`` matcher, a different
code path from the columnar engine the server runs.  On roadNet-PA,
whose counts are small, every reference count is also checked against
the DFS backtracking oracle, and the 5-vertex queries against networkx.
A disagreement aborts without writing.  Takes about three minutes::

    PYTHONPATH=src python servicebench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.baselines.dfs import dfs_count  # noqa: E402
from repro.baselines.reference import networkx_count  # noqa: E402
from repro.core.config import CuTSConfig  # noqa: E402
from repro.core.matcher import CuTSMatcher  # noqa: E402
from repro.fingerprint import graph_fingerprint  # noqa: E402

from workloads import hot_graphs, hot_pairs, paper_grid  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected_counts.json")
_SMALL = "roadNet-PA"


def hot_counts() -> dict[str, int]:
    """Reference counts for the hot-cache pairs, DFS-checked on the
    mesh."""
    from repro.service.http import parse_graph_spec

    graphs = hot_graphs()
    counts = {}
    for pair in hot_pairs():
        data, query = graphs[pair.graph], parse_graph_spec(pair.spec)
        count = int(CuTSMatcher(data, CuTSConfig(engine="reference"))
                    .match(query).count)
        if pair.graph == "mesh32x32" and dfs_count(data, query) != count:
            raise SystemExit(f"{pair.key}: reference {count} != DFS")
        counts[pair.key] = count
    return counts


def build_table() -> dict:
    graphs, cases = paper_grid(0)
    matchers = {
        name: CuTSMatcher(graph, CuTSConfig(engine="reference"))
        for name, graph in graphs.items()
    }
    counts: dict[str, int] = {}
    queries: dict[str, str] = {}
    for case in sorted(cases, key=lambda c: c.key):
        count = int(matchers[case.graph].match(case.query).count)
        if case.graph == _SMALL:
            data = graphs[_SMALL]
            if dfs_count(data, case.query) != count:
                raise SystemExit(f"{case.key}: reference {count} != DFS")
            if (case.query.num_vertices == 5
                    and networkx_count(data, case.query) != count):
                raise SystemExit(f"{case.key}: reference {count} != networkx")
        counts[case.key] = count
        queries[case.query.name] = graph_fingerprint(case.query)
    return {
        "engine": "reference",
        "graphs": {n: graph_fingerprint(g) for n, g in graphs.items()},
        "queries": queries,
        "counts": counts,
        "hot": hot_counts(),
    }


def load_table(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    table = build_table()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table['counts'])} counts to {EXPECTED_PATH}")
