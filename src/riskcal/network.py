"""Communication graphs: generation, neighborhoods, dynamics.

Nodes are 1-based and edges undirected.  A ``Graph`` holds its edges as
sorted, distinct (u, v) rows with u < v: the one edge order that every
consumer reads.  Generators only produce connected graphs.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import _count, _read_text


@dataclass(frozen=True, eq=False)
class Graph:
    """n nodes and ``pairs``, the (E, 2) int64 edge rows (u, v), 1 <= u < v <= n, sorted, distinct.

    Built from an array or any iterable of pairs; a repeated pair is one edge.
    Graphs compare and hash by identity: compare ``pairs`` or ``edges`` instead.
    """

    n: int
    pairs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _count("n", self.n, 1))
        pairs = np.asarray(self.pairs if isinstance(self.pairs, np.ndarray) else list(self.pairs))
        if pairs.size and not np.issubdtype(pairs.dtype, np.integer):  # refused, not truncated; [] is float64
            raise ValueError(f"node ids must be integers, got {pairs.dtype}")
        pairs = pairs.astype(np.int64, copy=False).reshape(-1, 2)
        u, v = pairs.T
        for i in np.flatnonzero((u < 1) | (u >= v) | (v > self.n))[:1]:
            raise ValueError(f"bad edge ({u[i]}, {v[i]}) for n={self.n}")
        key = np.sort(u * (self.n + 1) + v)  # (u, v) in lexicographic order, repeats adjacent
        pairs = np.column_stack(np.divmod(key[np.diff(key, prepend=-1) != 0], self.n + 1))
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as a set of (u, v) tuples."""
        return frozenset(map(tuple, self.pairs.tolist()))

    def sparseness(self) -> float:
        """Edge count over the n(n-1)/2 possible edges."""
        if self.n < 2:
            return 0.0
        return len(self.pairs) / (self.n * (self.n - 1) / 2)


def _tree_pairs(n: int, rng: np.random.Generator) -> np.ndarray:
    """Edge rows (min, max), unsorted, of a uniformly random labelled tree, decoded from a random Pruefer sequence."""
    seq = rng.integers(1, n + 1, size=n - 2)
    # Linear-time decode: node seq[i] is joined to leaf[i], the smallest leaf at step i.
    degree = (np.bincount(seq, minlength=n + 1) + 1).tolist()
    leaf = ptr = degree.index(1, 1)
    leaves = []
    for s in seq.tolist():
        leaves.append(leaf)
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr = leaf = degree.index(1, ptr + 1)
    leaves.append(leaf)  # the last two nodes left are this leaf and n
    ends = np.r_[seq, n]
    return np.column_stack([np.minimum(leaves, ends), np.maximum(leaves, ends)])


def random_tree(n: int, rng: np.random.Generator) -> Graph:
    """Uniformly random labelled tree, decoded from a random Pruefer sequence."""
    return Graph(n, _tree_pairs(_count("n", n, 2), rng))


def chain(n: int) -> Graph:
    n = _count("n", n, 2)
    return Graph(n, np.column_stack([np.arange(1, n), np.arange(2, n + 1)]))


def full_graph(n: int) -> Graph:
    return Graph(n, np.column_stack(np.triu_indices(n, 1)) + 1)


def _absent_pairs(n: int, pairs: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct (u, v) rows, u < v, chosen uniformly at random among those absent from ``pairs``, in any order."""
    # Pick i is the i-th absent pair in lexicographic order, found by rank arithmetic
    # without listing the absent pairs: 0-based (u, v) has rank row_start[u] + v - u - 1.
    row_start = np.arange(n) * (2 * n - np.arange(n) - 1) // 2
    u, v = pairs.T - 1
    present = np.sort(row_start[u] + v - u - 1)  # the ranks of the pairs, in any order, increasing
    absent = n * (n - 1) // 2 - len(present)
    if k > absent:
        raise ValueError(f"cannot add {k} edges, only {absent} absent")
    picked = np.sort(rng.choice(absent, size=k, replace=False))  # sorted: faster lookups, same set
    # present[j] - j absent ranks lie below present[j]: skip those with at most i.
    rank = picked + np.searchsorted(present - np.arange(len(present)), picked, side="right")
    a = np.searchsorted(row_start, rank, side="right") - 1
    return np.column_stack([a + 1, rank - row_start[a] + a + 2])


def add_random_edges(graph: Graph, k: int, rng: np.random.Generator) -> Graph:
    """Add k distinct absent edges chosen uniformly at random."""
    return Graph(graph.n, np.concatenate([graph.pairs, _absent_pairs(graph.n, graph.pairs, _count("k", k, 0), rng)]))


NEIGHBORHOODS = ("open", "closed")  # a node's neighborhood leaves the node itself out, or takes it in


def _neighborhood(mode: str, error: type[ValueError] = ValueError) -> str:  # mode, unless not a neighborhood
    if mode not in NEIGHBORHOODS:
        raise error(f"neighborhood must be {' or '.join(map(repr, NEIGHBORHOODS))}, got {mode!r}")
    return mode


def neighbors(graph: Graph, v: int, mode: str = "open") -> set[int]:
    """Neighborhood of v: 'open' excludes v itself, 'closed' includes it."""
    if (v := _count("v", v, 1)) > graph.n:
        raise ValueError(f"node {v} outside 1..{graph.n}")
    _neighborhood(mode)
    out = set(graph.pairs[(graph.pairs == v).any(axis=1)].ravel().tolist()) - {v}  # ids on v's edges
    if mode == "closed":
        out.add(v)
    return out


def _parse_topology(spec: str, n: int | None = None, error: type[ValueError] = ValueError) -> tuple[str, int | None]:
    """A spec's base graph and the K of 'tree+K' (None without '+'), unless unknown or, given n, not buildable on n."""
    if not re.fullmatch(r"tree|chain|full|tree\+\d+", spec):
        raise error(f"unknown topology {spec!r}")
    base, plus, extra = spec.partition("+")
    extra = int(extra) if plus else None
    if n is not None and _count("n", n, 1, error) < 2 and base != "full":
        raise error(f"topology {spec!r} needs n >= 2")
    if n is not None and extra is not None and extra > (absent := (n - 1) * (n - 2) // 2):
        raise error(f"cannot add {extra} edges, only {absent} absent")
    return base, extra


def build_topology(spec: str, n: int, rng: np.random.Generator) -> Graph:
    """Build 'tree', 'chain', 'full' or 'tree+K' (tree plus K random edges)."""
    base, extra = _parse_topology(spec, n)
    if base == "chain":
        return chain(n)
    if base == "full":
        return full_graph(n)
    tree = _tree_pairs(n, rng)  # validated once, as one Graph with any added edges
    return Graph(n, tree if extra is None else np.concatenate([tree, _absent_pairs(n, tree, extra, rng)]))


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
        if self.period is not None:
            _count("period", self.period, 1)
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
    _count("t", t, 1)  # rounds are 1-based
    if schedule.period is None or isinstance(schedule.topology, Graph):
        return current
    if t % schedule.period != 0:
        return current
    return build_topology(schedule.topology, current.n, rng)


def write_edge_list(graph: Graph, path) -> None:
    """One 'u v' pair per line, 1-based, in the graph's sorted order."""
    np.savetxt(path, graph.pairs, fmt="%d")


def read_edge_list(path, n: int | None = None) -> Graph:
    """Inverse of write_edge_list; n defaults to the largest node id seen, so a file of no edges needs it.

    A line whose ids are not 1..n, or not >= 1 with no n, is refused by its number.
    """
    n = n if n is None else _count("n", n, 1)
    ids = f"in 1..{n}" if n is not None else ">= 1"
    edges = []
    for lineno, line in enumerate(_read_text(path, ValueError).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: node ids must be integers, got {line!r}") from None
        if min(u, v) < 1 or n is not None and max(u, v) > n:
            raise ValueError(f"{path}: line {lineno}: node ids must be {ids}, got {line!r}")
        if u == v:
            raise ValueError(f"{path}: line {lineno}: self-loop {u}")
        edges.append((u, v))
    if n is None and not edges:
        raise ValueError(f"{path}: no edges to count the nodes from; pass n for an edgeless graph")
    pairs = np.sort(np.array(edges, dtype=np.int64).reshape(-1, 2), axis=1)  # each pair as (min, max)
    return Graph(n if n is not None else int(pairs.max()), pairs)
