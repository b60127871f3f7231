"""A small directed-graph library.

Hand-rolled rather than pulled from networkx so that the algorithmic core
of the reproduction is self-contained and auditable; the test suite
cross-checks cycle detection and topological sorting against networkx.

Supports exactly what the deciders and schedulers need: arc insertion,
incremental cycle queries, topological sort, and reachability.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

Node = Hashable


class Digraph:
    """Mutable directed graph over hashable nodes.

    Cycle queries run on an incremental topological index (Pearce &
    Kelly, "A dynamic topological sort algorithm for directed acyclic
    graphs", JEA 2006): every node holds a distinct integer and every
    arc runs from a lower to a higher one.  The index is built by one
    Kahn pass on the first cycle query and then kept up by
    :meth:`add_arc`, which renumbers only the nodes whose index lies
    between the new arc's endpoints; removing an arc never invalidates
    it.  :meth:`would_close_cycle` is O(1) when the index already orders
    tail before head and otherwise searches only that window.  Inserting
    a cycle drops the index for good: from then on the graph answers
    cycle queries with a full depth-first search.
    """

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        arcs: Iterable[tuple[Node, Node]] = (),
    ) -> None:
        self._succ: dict[Node, set[Node]] = {}
        self._pred: dict[Node, set[Node]] = {}
        #: node -> topological index; None until first needed or once
        #: a cycle has been inserted (``_cyclic`` tells the two apart).
        self._ord: dict[Node, int] | None = None
        self._cyclic = False
        for n in nodes:
            self.add_node(n)
        for u, v in arcs:
            self.add_arc(u, v)

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node in self._succ:
            return
        self._succ[node] = set()
        self._pred[node] = set()
        if self._ord is not None:
            # Indices are always a permutation of range(len(self)).
            self._ord[node] = len(self._ord)

    def add_arc(self, tail: Node, head: Node) -> None:
        self.add_node(tail)
        self.add_node(head)
        succ = self._succ[tail]
        if head in succ:
            return
        succ.add(head)
        self._pred[head].add(tail)
        order = self._ord
        if order is not None and order[tail] >= order[head]:
            self._reorder(tail, head)

    def add_arcs_if_acyclic(self, arcs: Iterable[tuple[Node, Node]]) -> bool:
        """Add all of ``arcs`` unless together they would close a cycle.

        All or nothing: on a cycle the arcs added so far are removed
        again and the graph is left as it was.
        """
        added: list[tuple[Node, Node]] = []
        for tail, head in arcs:
            if self.has_arc(tail, head):
                continue
            if self.would_close_cycle(tail, head):
                for arc in added:
                    self.remove_arc(*arc)
                return False
            self.add_arc(tail, head)
            added.append((tail, head))
        return True

    def remove_arc(self, tail: Node, head: Node) -> None:
        self._succ[tail].discard(head)
        self._pred[head].discard(tail)

    def copy(self) -> "Digraph":
        g = Digraph()
        g._succ = {n: set(vs) for n, vs in self._succ.items()}
        g._pred = {n: set(vs) for n, vs in self._pred.items()}
        g._ord = None if self._ord is None else dict(self._ord)
        g._cyclic = self._cyclic
        return g

    # -- topological index -------------------------------------------------

    def _index(self) -> dict[Node, int] | None:
        """The topological index, built on first use; None if cyclic."""
        if self._ord is None and not self._cyclic:
            order = self._kahn()
            if len(order) == len(self._succ):
                self._ord = {n: k for k, n in enumerate(order)}
            else:
                self._cyclic = True
        return self._ord

    def _reorder(self, tail: Node, head: Node) -> None:
        """Restore the index after adding ``tail -> head`` against it.

        Nodes reachable from ``head`` below ``tail``'s index move after
        the nodes reaching ``tail`` above ``head``'s index, reusing the
        same index values; reaching ``tail`` itself means a cycle.
        """
        order = self._ord
        low, high = order[head], order[tail]
        forward = {head}
        stack = [head]
        while stack:
            for nxt in self._succ[stack.pop()]:
                if nxt == tail:
                    self._ord = None
                    self._cyclic = True
                    return
                if nxt not in forward and order[nxt] < high:
                    forward.add(nxt)
                    stack.append(nxt)
        backward = {tail}
        stack = [tail]
        while stack:
            for prev in self._pred[stack.pop()]:
                if prev not in backward and order[prev] > low:
                    backward.add(prev)
                    stack.append(prev)
        moved = sorted(backward, key=order.__getitem__)
        moved += sorted(forward, key=order.__getitem__)
        for node, slot in zip(moved, sorted(order[n] for n in moved)):
            order[node] = slot

    # -- queries -------------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        return list(self._succ.keys())

    @property
    def arcs(self) -> list[tuple[Node, Node]]:
        return [(u, v) for u, vs in self._succ.items() for v in sorted(vs, key=repr)]

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def has_arc(self, tail: Node, head: Node) -> bool:
        return tail in self._succ and head in self._succ[tail]

    def successors(self, node: Node) -> set[Node]:
        return set(self._succ.get(node, ()))

    def predecessors(self, node: Node) -> set[Node]:
        return set(self._pred.get(node, ()))

    def __len__(self) -> int:
        return len(self._succ)

    def n_arcs(self) -> int:
        return sum(len(vs) for vs in self._succ.values())

    # -- algorithms ----------------------------------------------------------

    def has_cycle(self) -> bool:
        """True iff the graph contains a directed cycle.

        Answered by the topological index when it exists; a graph into
        which a cycle was inserted runs an iterative DFS.
        """
        if self._index() is not None:
            return False
        WHITE, GREY, BLACK = 0, 1, 2
        color = dict.fromkeys(self._succ, WHITE)
        for root in self._succ:
            if color[root] != WHITE:
                continue
            stack: list[tuple[Node, Iterator[Node]]] = [
                (root, iter(self._succ[root]))
            ]
            color[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == GREY:
                        return True
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        stack.append((nxt, iter(self._succ[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return False

    def is_acyclic(self) -> bool:
        return not self.has_cycle()

    def topological_sort(self) -> list[Node]:
        """One topological order; raises ``ValueError`` on a cycle.

        Kahn's algorithm with deterministic (insertion-order) tie-breaks so
        results are reproducible across runs.
        """
        order = self._kahn()
        if len(order) != len(self._succ):
            raise ValueError("graph has a cycle; no topological order exists")
        return order

    def _kahn(self) -> list[Node]:
        """Kahn's algorithm; the order misses every node on or behind a
        cycle."""
        indegree = {n: len(self._pred[n]) for n in self._succ}
        queue = [n for n in self._succ if indegree[n] == 0]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            for nxt in self._succ[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    queue.append(nxt)
        return queue

    def reachable_from(self, source: Node) -> set[Node]:
        """All nodes reachable from ``source`` (including itself)."""
        seen = {source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for nxt in self._succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def would_close_cycle(self, tail: Node, head: Node) -> bool:
        """True iff adding ``tail -> head`` would create a cycle.

        Used by the incremental schedulers (SGT and the MVCG scheduler)
        and the polygraph deciders: an arc closes a cycle iff ``tail`` is
        reachable from ``head``.  Every path from ``head`` to ``tail``
        climbs the topological index, so only nodes indexed between the
        two are searched, and none when ``head`` already sits above.
        """
        if tail == head:
            return True
        succ = self._succ
        if head not in succ or tail not in succ:
            return False
        order = self._index()
        if order is None:
            return tail in self.reachable_from(head)
        high = order[tail]
        if order[head] > high:
            return False
        seen = {head}
        stack = [head]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt == tail:
                    return True
                if nxt not in seen and order[nxt] < high:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def find_cycle(self) -> list[Node] | None:
        """Return one directed cycle as a node list, or None if acyclic."""
        color: dict[Node, int] = dict.fromkeys(self._succ, 0)
        parent: dict[Node, Node] = {}
        for root in self._succ:
            if color[root]:
                continue
            stack: list[tuple[Node, Iterator[Node]]] = [
                (root, iter(self._succ[root]))
            ]
            color[root] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == 1:
                        cycle = [nxt, node]
                        cur = node
                        while cur != nxt:
                            cur = parent[cur]
                            cycle.append(cur)
                        cycle.reverse()
                        return cycle[:-1]
                    if color[nxt] == 0:
                        color[nxt] = 1
                        parent[nxt] = node
                        stack.append((nxt, iter(self._succ[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return None

    def to_networkx(self):  # pragma: no cover - exercised in cross-check tests
        """Export to a ``networkx.DiGraph`` (cross-checking only)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._succ.keys())
        for u, vs in self._succ.items():
            g.add_edges_from((u, v) for v in vs)
        return g
