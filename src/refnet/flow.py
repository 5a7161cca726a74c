"""Minimum vertex separators between two terminal sets.

The separator question answered here: given an undirected simple graph and
two (possibly overlapping) terminal sets, find at most ``limit`` vertices
whose removal leaves no connected component containing terminals of both
kinds.  Terminals themselves may be removed; a vertex in both sets must be.

This is solved as unit-capacity maximum flow after the usual vertex split:
vertex v becomes an arc in(v) -> out(v) of capacity one, undirected edges
become a pair of wide arcs between the split halves, and a super source /
sink attach to the terminals with wide arcs.  Every source-sink path then
crosses some internal arc, so the minimum cut picks only internal arcs and
reads back as a vertex set via residual reachability.

The flow is a pure-Python breadth-first augmenting loop over paired-arc
residual arrays; it aborts as soon as the flow exceeds the limit, so a
"no" answer costs at most ``limit + 1`` augmentations.  A caller whose
terminal sets only grow can keep one :class:`Residual` and continue the flow
in it instead of starting from zero: opening more terminal arcs keeps a flow
feasible, and every maximum flow of a network leaves the same vertices
reachable from the source, so the separator read back is the one a fresh
solve returns.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class Residual:
    """One flow in a :class:`SeparatorSolver`'s network.

    ``cap`` holds the residual capacity of every arc and ``flow`` the flow
    value; :meth:`SeparatorSolver.solve` grows both in place.
    """

    __slots__ = ("cap", "flow")

    def __init__(self, cap: list[int], flow: int = 0):
        self.cap = cap
        self.flow = flow

    def copy(self) -> "Residual":
        return Residual(self.cap.copy(), self.flow)


class SeparatorSolver:
    """Reusable separator queries over one fixed graph.

    Build once per graph, then call :meth:`solve` with varying terminal
    sets, from zero or continuing a :meth:`residual`; the flow network
    skeleton is shared across calls.  Nodes are
    numbered in(v) = 2v, out(v) = 2v + 1, then the source and the sink.
    """

    # The one flow implementation; perfbench's tracer labels calls by it.
    backend = "python"

    def __init__(self, n: int, adjacency: Sequence[Sequence[int]]):
        self.n = n
        self._wide = n + 2  # exceeds any possible flow value
        self._source = 2 * n
        self._sink = 2 * n + 1
        to: list[int] = []
        cap: list[int] = []
        head: list[list[int]] = [[] for _ in range(2 * n + 2)]

        def add_arc(a: int, b: int, c: int) -> int:
            idx = len(to)
            head[a].append(idx)
            to.append(b)
            cap.append(c)
            head[b].append(idx + 1)
            to.append(a)
            cap.append(0)
            return idx

        for v in range(n):
            add_arc(2 * v, 2 * v + 1, 1)
        for v in range(n):
            for u in adjacency[v]:
                if u > v:
                    add_arc(2 * v + 1, 2 * u, self._wide)
                    add_arc(2 * u + 1, 2 * v, self._wide)
        self._src_arc = [0] * n
        self._snk_arc = [0] * n
        for v in range(n):
            self._src_arc[v] = add_arc(self._source, 2 * v, 0)
            self._snk_arc[v] = add_arc(2 * v + 1, self._sink, 0)
        self._to = to
        self._cap_template = cap
        self._head = head

    def residual(self) -> Residual:
        """Zero flow with every terminal arc closed, for :meth:`solve` to grow."""
        return Residual(self._cap_template.copy())

    def solve(
        self,
        sources: Iterable[int],
        sinks: Iterable[int],
        limit: int,
        residual: Residual | None = None,
    ) -> list[int] | None:
        """Separator of size <= limit between the terminal sets, or None.

        The returned list is ascending.  ``None`` means every separator is
        larger than ``limit``.  Without ``residual`` the flow starts from
        zero.  With one, it continues from that flow: the given terminals
        are opened on top of those already open in it, and it is updated in
        place to the flow reached (above ``limit`` when the answer is None).
        Opened terminals stay open, so a caller that needs an earlier state
        keeps a :meth:`Residual.copy`.
        """
        if limit < 0:
            return None
        if residual is None:
            residual = self.residual()
        cap = residual.cap
        wide = self._wide
        # An open terminal arc keeps its flow: its residual is wide - flow.
        for v in sources:
            a = self._src_arc[v]
            cap[a] = wide - cap[a ^ 1]
        for v in sinks:
            a = self._snk_arc[v]
            cap[a] = wide - cap[a ^ 1]
        to, head = self._to, self._head
        s, t = self._source, self._sink
        n_nodes = 2 * self.n + 2
        flow = residual.flow
        while flow <= limit:
            # prev_arc doubles as the visited mark: -1 is unvisited.
            prev_arc = [-1] * n_nodes
            prev_arc[s] = -2
            queue = [s]
            qi = 0
            while qi < len(queue) and prev_arc[t] == -1:
                x = queue[qi]
                qi += 1
                for a in head[x]:
                    if cap[a] > 0 and prev_arc[to[a]] == -1:
                        prev_arc[to[a]] = a
                        queue.append(to[a])
            if prev_arc[t] == -1:
                separator = [
                    v
                    for v in range(self.n)
                    if prev_arc[2 * v] != -1 and prev_arc[2 * v + 1] == -1
                ]
                assert len(separator) == flow
                return separator
            bottleneck = wide
            x = t
            while x != s:
                a = prev_arc[x]
                bottleneck = min(bottleneck, cap[a])
                x = to[a ^ 1]
            x = t
            while x != s:
                a = prev_arc[x]
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
                x = to[a ^ 1]
            flow = residual.flow = flow + bottleneck
        return None
