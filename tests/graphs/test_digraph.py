"""The digraph substrate, cross-checked against networkx."""

import random

import networkx as nx
import pytest

from repro.graphs.digraph import Digraph


class TestBasics:
    def test_nodes_and_arcs(self):
        g = Digraph(nodes=[1, 2], arcs=[(1, 2)])
        assert 1 in g and 3 not in g
        assert g.has_arc(1, 2) and not g.has_arc(2, 1)
        assert len(g) == 2 and g.n_arcs() == 1

    def test_add_arc_creates_nodes(self):
        g = Digraph()
        g.add_arc("a", "b")
        assert "a" in g and "b" in g

    def test_remove_arc(self):
        g = Digraph(arcs=[(1, 2)])
        g.remove_arc(1, 2)
        assert not g.has_arc(1, 2)

    def test_copy_is_independent(self):
        g = Digraph(arcs=[(1, 2)])
        h = g.copy()
        h.add_arc(2, 1)
        assert not g.has_arc(2, 1)

    def test_successors_predecessors(self):
        g = Digraph(arcs=[(1, 2), (1, 3)])
        assert g.successors(1) == {2, 3}
        assert g.predecessors(3) == {1}


class TestCycles:
    def test_empty_acyclic(self):
        assert Digraph().is_acyclic()

    def test_self_loop(self):
        assert Digraph(arcs=[(1, 1)]).has_cycle()

    def test_two_cycle(self):
        assert Digraph(arcs=[(1, 2), (2, 1)]).has_cycle()

    def test_dag(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (1, 3)])
        assert g.is_acyclic()

    def test_find_cycle_returns_real_cycle(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (3, 1), (0, 1)])
        cycle = g.find_cycle()
        assert cycle is not None
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert g.has_arc(a, b)

    def test_find_cycle_none_on_dag(self):
        assert Digraph(arcs=[(1, 2)]).find_cycle() is None

    def test_would_close_cycle(self):
        g = Digraph(arcs=[(1, 2), (2, 3)])
        assert g.would_close_cycle(3, 1)
        assert not g.would_close_cycle(1, 3)
        assert g.would_close_cycle(1, 1)


class TestTopologicalSort:
    def test_respects_arcs(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (1, 4)])
        order = g.topological_sort()
        position = {n: i for i, n in enumerate(order)}
        for u, v in g.arcs:
            assert position[u] < position[v]

    def test_raises_on_cycle(self):
        with pytest.raises(ValueError):
            Digraph(arcs=[(1, 2), (2, 1)]).topological_sort()

    def test_deterministic(self):
        g = Digraph(nodes=[3, 1, 2])
        assert g.topological_sort() == g.topological_sort()


class TestReachability:
    def test_reachable_from(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (4, 1)])
        assert g.reachable_from(1) == {1, 2, 3}
        assert g.reachable_from(3) == {3}


class TestNetworkxCrossCheck:
    def test_random_graphs_agree_on_acyclicity(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(2, 8)
            arcs = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(1, 12))
            ]
            arcs = [(u, v) for u, v in arcs if u != v]
            ours = Digraph(nodes=range(n), arcs=arcs)
            theirs = nx.DiGraph(arcs)
            theirs.add_nodes_from(range(n))
            assert ours.is_acyclic() == nx.is_directed_acyclic_graph(theirs)

    def test_topological_sort_valid_per_networkx(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(2, 8)
            perm = list(range(n))
            rng.shuffle(perm)
            arcs = set()
            for _ in range(rng.randint(1, 10)):
                u, v = sorted(rng.sample(range(n), 2))
                arcs.add((perm[u], perm[v]))
            ours = Digraph(nodes=range(n), arcs=arcs)
            order = ours.topological_sort()
            position = {x: i for i, x in enumerate(order)}
            for u, v in arcs:
                assert position[u] < position[v]

    def test_to_networkx_roundtrip(self):
        g = Digraph(arcs=[(1, 2), (2, 3)])
        nxg = g.to_networkx()
        assert set(nxg.edges()) == {(1, 2), (2, 3)}


def _index_is_topological(g: Digraph) -> bool:
    order = g._ord
    return sorted(order.values()) == list(range(len(g))) and all(
        order[u] < order[v] for u, v in g.arcs
    )


def _random_ops(g: Digraph, rng: random.Random, n: int, steps: int,
                acyclic_only: bool):
    """Random add/remove interleaving; after each step, every query
    agrees with plain reachability."""
    for _ in range(steps):
        arcs = g.arcs
        if arcs and rng.random() < 0.3:
            g.remove_arc(*rng.choice(arcs))
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if not acyclic_only or not g.would_close_cycle(u, v):
                g.add_arc(u, v)
        for tail in range(n):
            for head in range(n):
                assert g.would_close_cycle(tail, head) == (
                    tail in g.reachable_from(head)
                )
        yield


class TestIncrementalOrder:
    def test_queries_match_reachability_on_dags(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 9)
            g = Digraph(nodes=range(n))
            for _ in _random_ops(g, rng, n, 30, acyclic_only=True):
                assert g._ord is not None and _index_is_topological(g)
                assert g.is_acyclic()

    def test_queries_match_reachability_after_a_cycle(self):
        rng = random.Random(3)
        fell_back = 0
        for _ in range(40):
            n = rng.randint(2, 7)
            g = Digraph(nodes=range(n))
            for _ in _random_ops(g, rng, n, 30, acyclic_only=False):
                if g._ord is None:
                    fell_back += 1
                else:
                    assert _index_is_topological(g)
                theirs = nx.DiGraph(g.arcs)
                theirs.add_nodes_from(range(n))
                assert g.is_acyclic() == nx.is_directed_acyclic_graph(theirs)
        assert fell_back > 0

    def test_inserting_a_cycle_drops_the_index(self):
        g = Digraph(arcs=[(1, 2), (2, 3)])
        assert not g.would_close_cycle(1, 3)
        assert g._ord is not None
        g.add_arc(3, 1)
        assert g._ord is None and g.has_cycle()
        g.remove_arc(3, 1)
        # DFS fallback stays exact once the cycle is gone again.
        assert g.is_acyclic()
        assert g.would_close_cycle(3, 1) and not g.would_close_cycle(1, 3)

    def test_reorder_moves_only_the_window(self):
        g = Digraph(nodes=[1, 2, 3, 4, 5])
        assert not g.would_close_cycle(4, 2)  # builds the index
        g.add_arc(4, 2)
        assert _index_is_topological(g)
        assert g._ord[1] == 0 and g._ord[5] == 4
        g.add_arc(6, 1)  # a new node joins the built index at the end
        assert _index_is_topological(g) and g._ord[6] == 0

    def test_copy_carries_the_index(self):
        rng = random.Random(4)
        for acyclic_only in (True, False):
            g = Digraph(nodes=range(6))
            for _ in _random_ops(g, rng, 6, 12, acyclic_only=acyclic_only):
                pass
            arcs, order, cyclic = g.arcs, dict(g._ord or {}), g._cyclic
            h = g.copy()
            assert h._ord == g._ord and h._cyclic == cyclic
            for _ in _random_ops(h, rng, 6, 12, acyclic_only=acyclic_only):
                pass
            assert g.arcs == arcs and dict(g._ord or {}) == order

    def test_add_arcs_if_acyclic_is_all_or_nothing(self):
        g = Digraph(arcs=[(1, 2), (2, 3)])
        assert not g.add_arcs_if_acyclic([(0, 1), (3, 1)])
        assert g.arcs == [(1, 2), (2, 3)]
        assert g.add_arcs_if_acyclic([(0, 1), (1, 3)])
        assert g.has_arc(0, 1) and g.has_arc(1, 3) and g.is_acyclic()
