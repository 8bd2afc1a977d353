"""Communication graphs: generation, neighborhoods, dynamics.

Nodes are 1-based.  Edges are undirected and stored as (u, v) pairs
with u < v.  Generators only produce connected graphs.
"""
from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs at least one node, got n={self.n}")
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")

    def sparseness(self) -> float:
        """Edge count over the n(n-1)/2 possible edges."""
        if self.n < 2:
            return 0.0
        return len(self.edges) / (self.n * (self.n - 1) / 2)


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def random_tree(n: int, rng: np.random.Generator) -> Graph:
    """Uniformly random labelled tree, decoded from a random Pruefer sequence."""
    if n < 2:
        raise ValueError(f"a tree needs n >= 2, got {n}")
    if n == 2:
        return Graph(2, frozenset({(1, 2)}))
    seq = [int(s) for s in rng.integers(1, n + 1, size=n - 2)]
    degree = [1] * (n + 1)
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append(_edge(leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append(_edge(u, v))
    return Graph(n, frozenset(edges))


def chain(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"a chain needs n >= 2, got {n}")
    return Graph(n, frozenset((v, v + 1) for v in range(1, n)))


def full_graph(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


def add_random_edges(graph: Graph, k: int, rng: np.random.Generator) -> Graph:
    """Add k distinct absent edges chosen uniformly at random."""
    if k < 0:
        raise ValueError(f"edge count must be nonnegative, got {k}")
    n = graph.n
    # Pick i is the i-th absent pair in lexicographic order, found by rank arithmetic
    # without listing the absent pairs: 0-based (u, v) has rank row_start[u] + v - u - 1.
    row_start = np.arange(n) * (2 * n - np.arange(n) - 1) // 2
    u, v = np.array(list(graph.edges), dtype=np.int64).reshape(-1, 2).T - 1
    present = np.sort(row_start[u] + v - u - 1)
    absent = n * (n - 1) // 2 - len(present)
    if k > absent:
        raise ValueError(f"cannot add {k} edges, only {absent} absent")
    picked = rng.choice(absent, size=k, replace=False)
    # present[j] - j absent ranks lie below present[j]: skip those with at most i.
    rank = picked + np.searchsorted(present - np.arange(len(present)), picked, side="right")
    a = np.searchsorted(row_start, rank, side="right") - 1
    return Graph(n, graph.edges | set(zip((a + 1).tolist(), (rank - row_start[a] + a + 2).tolist())))


def neighbors(graph: Graph, v: int, mode: str = "open") -> set[int]:
    """Neighborhood of v: 'open' excludes v itself, 'closed' includes it."""
    if not 1 <= v <= graph.n:
        raise ValueError(f"node {v} outside 1..{graph.n}")
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
    out = {b if a == v else a for a, b in graph.edges if v in (a, b)}
    if mode == "closed":
        out.add(v)
    return out


def _parse_topology(spec: str) -> tuple[str, int | None]:
    """Split a topology spec into its base graph and the K of 'tree+K' (None without '+')."""
    if not re.fullmatch(r"tree|chain|full|tree\+\d+", spec):
        raise ValueError(f"unknown topology {spec!r}")
    base, plus, extra = spec.partition("+")
    return base, int(extra) if plus else None


def build_topology(spec: str, n: int, rng: np.random.Generator) -> Graph:
    """Build 'tree', 'chain', 'full' or 'tree+K' (tree plus K random edges)."""
    base, extra = _parse_topology(spec)
    if base == "chain":
        return chain(n)
    if base == "full":
        return full_graph(n)
    tree = random_tree(n, rng)
    return tree if extra is None else add_random_edges(tree, extra, rng)


@dataclass(frozen=True)
class RewireSchedule:
    """When and how the graph is regenerated during a collaborative run.

    ``topology`` is either a topology spec string or a fixed Graph.
    ``period`` of None means the graph never changes; period p means a
    fresh graph is drawn at every round t with t mod p == 0.  A fixed
    Graph never changes regardless of the period.
    """

    topology: str | Graph
    period: int | None = None

    def __post_init__(self) -> None:
        if self.period is not None and self.period < 1:
            raise ValueError(f"rewire period must be >= 1, got {self.period}")
        if isinstance(self.topology, str):
            _parse_topology(self.topology)

    def initial(self, n: int, rng: np.random.Generator) -> Graph:
        if isinstance(self.topology, Graph):
            if self.topology.n != n:
                raise ValueError(f"fixed graph has {self.topology.n} nodes, expected {n}")
            return self.topology
        return build_topology(self.topology, n, rng)


def rewire(schedule: RewireSchedule, t: int, current: Graph, rng: np.random.Generator) -> Graph:
    """Graph to use at round t, given the round t-1 graph."""
    if t < 1:
        raise ValueError(f"rounds are 1-based, got t={t}")
    if schedule.period is None or isinstance(schedule.topology, Graph):
        return current
    if t % schedule.period != 0:
        return current
    return build_topology(schedule.topology, current.n, rng)


def write_edge_list(graph: Graph, path) -> None:
    """One 'u v' pair per line, 1-based, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in sorted(graph.edges):
            fh.write(f"{u} {v}\n")


def read_edge_list(path, n: int | None = None) -> Graph:
    """Inverse of write_edge_list; n defaults to the largest node id seen."""
    edges = set()
    top = 0
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 'u v', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"{path}: line {lineno}: self-loop {u}")
        edges.add(_edge(u, v))
        top = max(top, u, v)
    return Graph(n if n is not None else top, frozenset(edges))
