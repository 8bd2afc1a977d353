"""Graph generation, neighborhoods, rewiring and edge-list files."""
from __future__ import annotations

import re

import numpy as np
import pytest

from conftest import bfs_connected
from riskcal.network import (
    Graph,
    RewireSchedule,
    add_random_edges,
    build_topology,
    chain,
    full_graph,
    neighbors,
    random_tree,
    read_edge_list,
    rewire,
    write_edge_list,
)


def test_random_tree_edge_count_and_connectivity():
    for seed in range(50):
        n = 2 + seed % 40
        g = random_tree(n, np.random.default_rng(seed))
        assert len(g.edges) == n - 1
        assert bfs_connected(n, g.edges)


def test_random_tree_matches_textbook_pruefer_decode():
    # Reference: repeatedly join the smallest remaining leaf to the next sequence entry.
    def decoded(n, seq):
        degree = {v: 1 + seq.count(v) for v in range(1, n + 1)}
        edges = set()
        for s in seq:
            leaf = min(v for v, d in degree.items() if d == 1)
            edges.add((min(leaf, s), max(leaf, s)))
            del degree[leaf]
            degree[s] -= 1
        return frozenset(edges | {tuple(sorted(degree))})

    for n in range(2, 41):
        for seed in range(5):
            seq = np.random.default_rng(seed).integers(1, n + 1, size=n - 2).tolist()
            assert random_tree(n, np.random.default_rng(seed)).edges == decoded(n, seq)


def test_random_tree_deterministic_and_varied():
    a = random_tree(30, np.random.default_rng(1))
    b = random_tree(30, np.random.default_rng(1))
    c = random_tree(30, np.random.default_rng(2))
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_random_tree_minimum_size():
    assert random_tree(2, np.random.default_rng(0)).edges == frozenset({(1, 2)})
    with pytest.raises(ValueError):
        random_tree(1, np.random.default_rng(0))


def test_chain_and_full_structure():
    g = chain(5)
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})
    f = full_graph(4)
    assert len(f.edges) == 6
    assert f.sparseness() == 1.0


def test_sparseness_of_trees():
    for n in (2, 3, 10, 50):
        g = random_tree(n, np.random.default_rng(n))
        assert g.sparseness() == 2.0 / n
    assert full_graph(1).sparseness() == 0.0


def test_add_random_edges():
    base = random_tree(20, np.random.default_rng(3))
    g = add_random_edges(base, 15, np.random.default_rng(4))
    assert len(g.edges) == 19 + 15
    assert base.edges <= g.edges
    assert g.sparseness() == 34 / 190
    same = add_random_edges(base, 0, np.random.default_rng(4))
    assert same.edges == base.edges
    with pytest.raises(ValueError, match="cannot add"):
        add_random_edges(full_graph(5), 1, np.random.default_rng(0))


def test_add_random_edges_matches_absent_pair_enumeration():
    # Reference: list every absent pair in lexicographic order, index it by the same draw.
    def enumerated(graph, k, rng):
        absent = sorted(
            (u, v) for u in range(1, graph.n + 1) for v in range(u + 1, graph.n + 1)
            if (u, v) not in graph.edges
        )
        picked = rng.choice(len(absent), size=k, replace=False)
        return graph.edges | {absent[int(i)] for i in picked}

    for n in (2, 3, 5, 8, 13, 21):
        for seed in range(4):
            base = random_tree(n, np.random.default_rng(seed))
            free = n * (n - 1) // 2 - (n - 1)
            for k in sorted({0, min(1, free), free // 2, free}):
                got = add_random_edges(base, k, np.random.default_rng(seed + 50))
                assert got.edges == enumerated(base, k, np.random.default_rng(seed + 50))
    dense = add_random_edges(chain(9), 20, np.random.default_rng(1))
    assert dense.edges == enumerated(chain(9), 20, np.random.default_rng(1))
    with pytest.raises(ValueError, match=r"^k must be >= 0, got -1$"):
        add_random_edges(chain(3), -1, np.random.default_rng(0))


def test_neighbors_open_and_closed():
    g = chain(4)
    assert neighbors(g, 2, "open") == {1, 3}
    assert neighbors(g, 2, "closed") == {1, 2, 3}
    assert neighbors(g, 1, "open") == {2}
    f = full_graph(4)
    assert neighbors(f, 3, "closed") == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        neighbors(g, 5, "open")
    with pytest.raises(ValueError, match=r"^neighborhood must be 'open' or 'closed', got 'semi'$"):
        neighbors(g, 1, "semi")


def test_build_topology_variants():
    rng = np.random.default_rng(5)
    assert len(build_topology("tree", 12, rng).edges) == 11
    assert len(build_topology("chain", 12, rng).edges) == 11
    assert len(build_topology("full", 12, rng).edges) == 66
    assert len(build_topology("tree+8", 12, rng).edges) == 19
    for spec in ("ring", "tree+5\n"):
        with pytest.raises(ValueError, match="unknown topology"):
            build_topology(spec, 12, rng)
        with pytest.raises(ValueError, match="unknown topology"):
            RewireSchedule(spec)


def test_graph_validation():
    with pytest.raises(ValueError, match=r"bad edge \(1, 4\) for n=3"):
        Graph(3, frozenset({(1, 4)}))
    with pytest.raises(ValueError, match=r"bad edge \(2, 2\) for n=3"):
        Graph(3, frozenset({(2, 2)}))
    with pytest.raises(ValueError, match=r"bad edge \(3, 1\) for n=3"):  # the first bad row
        Graph(3, np.array([[1, 2], [3, 1], [0, 2]]))
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        Graph(0, frozenset())
    for pairs in (np.array([[1.9, 2.2]]), [(1.0, 2.0)], np.array([[True, True]])):  # refused, not truncated
        with pytest.raises(ValueError, match=r"node ids must be integers, got (float64|bool)"):
            Graph(3, pairs)
    g = Graph(5, [(4, 5), (1, 3), (2, 4), (1, 3), (1, 2), (4, 5)])
    assert g.pairs.dtype == np.int64
    assert g.pairs.tolist() == [[1, 2], [1, 3], [2, 4], [4, 5]]
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 4), (4, 5)})
    assert g.sparseness() == 4 / 10
    assert Graph(3, []).pairs.shape == (0, 2)
    assert Graph(3, np.array([[2, 3], [1, 3]])).pairs.tolist() == [[1, 3], [2, 3]]


def test_rewire_schedule():
    rng = np.random.default_rng(6)
    sched = RewireSchedule("tree", period=3)
    g0 = sched.initial(10, rng)
    g = g0
    changed = []
    for t in range(1, 10):
        nxt = rewire(sched, t, g, rng)
        changed.append(nxt is not g)
        g = nxt
    assert changed == [False, False, True, False, False, True, False, False, True]

    static = RewireSchedule("tree", period=None)
    h = static.initial(10, rng)
    for t in range(1, 8):
        assert rewire(static, t, h, rng) is h

    fixed = RewireSchedule(chain(6), period=2)
    c = fixed.initial(6, rng)
    assert c.edges == chain(6).edges
    assert rewire(fixed, 2, c, rng) is c  # fixed graphs never change
    assert fixed in {fixed}  # hashable: a Graph hashes by identity

    with pytest.raises(ValueError):
        RewireSchedule("tree", period=0)
    with pytest.raises(ValueError):
        RewireSchedule("pentagram")
    with pytest.raises(ValueError):
        fixed.initial(7, rng)
    with pytest.raises(ValueError):
        rewire(sched, 0, g, rng)


def test_edge_list_round_trip(tmp_path):
    g = add_random_edges(random_tree(15, np.random.default_rng(7)), 5, np.random.default_rng(8))
    p = tmp_path / "graph.txt"
    write_edge_list(g, p)
    lines = p.read_text().strip().splitlines()
    assert len(lines) == len(g.edges)
    u, v = lines[0].split()
    assert int(u) >= 1 and int(v) >= 1  # 1-based ids
    back = read_edge_list(p)
    assert back.edges == g.edges and back.n == 15
    with_n = read_edge_list(p, n=20)
    assert with_n.n == 20
    p.write_text("2 1\n1 2\n\n3 2\n")  # either orientation; a repeated pair is one edge
    both = read_edge_list(p)
    assert both.n == 3 and both.pairs.tolist() == [[1, 2], [2, 3]]


def test_read_edge_list_drops_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.txt"
    p.write_text("\ufeff1 2\n2 3\n", encoding="utf-8")
    assert read_edge_list(p).pairs.tolist() == [[1, 2], [2, 3]]


def test_read_edge_list_refuses_a_file_that_is_not_utf8_by_name(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"1 2\n2 \xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: not UTF-8 text: invalid start byte 0xff$"):
        read_edge_list(p)


def test_read_edge_list_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 3\n")
    with pytest.raises(ValueError, match="line 1"):
        read_edge_list(p)
    p.write_text("2 2\n")
    with pytest.raises(ValueError, match="self-loop"):
        read_edge_list(p)
    for line in ("2 x", "2 3.0"):
        p.write_text(f"1 2\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line 2: node ids must be integers, got '{line}'$"):
            read_edge_list(p)


@pytest.mark.parametrize("text, n, ids, lineno", [
    ("-1 0\n", None, ">= 1", 1),
    ("1 2\n0 1\n", None, ">= 1", 2),
    ("0 3\n", 5, "in 1..5", 1),
    ("1 2\n2 6\n", 5, "in 1..5", 2),
])
def test_read_edge_list_refuses_ids_out_of_range_by_line(tmp_path, text, n, ids, lineno):
    # Every bad line is named by its file and number, ids below 1 and above a given n too.
    p = tmp_path / "ids.txt"
    p.write_text(text)
    line = text.splitlines()[lineno - 1]
    message = f"{p}: line {lineno}: node ids must be {ids}, got {line!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_edge_list(p, n)


def test_read_edge_list_of_no_edges_needs_n(tmp_path):
    p = tmp_path / "none.txt"
    for text in ("", "\n  \n"):
        p.write_text(text)
        message = f"{p}: no edges to count the nodes from; pass n for an edgeless graph"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_edge_list(p)
        g = read_edge_list(p, n=3)
        assert g.n == 3 and g.pairs.shape == (0, 2)
