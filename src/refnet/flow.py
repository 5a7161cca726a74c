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
reads back as a vertex set via residual reachability: the vertices whose
internal arc carries flow from a reachable in(v) to an unreachable out(v),
read off the nodes the last search visited.

A vertex can be closed: its internal arc gets capacity zero, so no flow
crosses it and it acts as removed, although its in(v) may still be reached.
It never carries flow, so the read-back skips it.  The exact solver keeps
one network per solve this way and opens vertices as it inserts them.

The flow is a pure-Python breadth-first augmenting loop over paired-arc
residual arrays; it aborts as soon as the flow exceeds the limit, so a
"no" answer costs at most ``limit + 1`` augmentations.  A flow is its
list of residual capacities, and the arcs record everything else: a terminal
arc is open when it has capacity either way, and the flow it carries is its
reverse arc's capacity, so the flow value is the sum over the open source
arcs.  A caller whose terminal sets only grow can keep one such list and
continue the flow in it instead of starting from zero, passing every
terminal on each call: opening a terminal arc again changes nothing, opening
more keeps a flow feasible, and every maximum flow of a network leaves the
same vertices reachable from the source.  So the separator read back is the
one a fresh solve returns, whatever the order of the terminals.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class SeparatorSolver:
    """Reusable separator queries over one fixed graph.

    Build once per graph, then call :meth:`solve` with varying terminal
    sets, from zero or continuing a :meth:`residual`; the flow network
    skeleton is shared across calls.  Nodes are numbered in(v) = 2v,
    out(v) = 2v + 1, then the source and the sink; arc 2v is v's internal
    arc and 2v + 1 its reverse.

    Every vertex starts open.  :meth:`close` shuts its internal arc, so no
    flow crosses it and the vertex acts as removed from the graph until
    :meth:`open` restores it; residuals made from then on see the change.
    """

    # The one flow implementation; perfbench's tracer labels calls by it.
    backend = "python"

    def __init__(self, n: int, adjacency: Sequence[Sequence[int]]):
        self.n = n
        self._wide = wide = n + 2  # exceeds any possible flow value
        self._source = source = 2 * n
        self._sink = sink = 2 * n + 1
        # Internal arcs first: arc 2v runs in(v) -> out(v), arc 2v + 1 back,
        # so node x's first arc is arc x.
        head: list[list[int]] = [[x] for x in range(2 * n)] + [[], []]
        to = [x ^ 1 for x in range(2 * n)]
        cap = [1, 0] * n
        for v in range(n):
            out_v, in_v = 2 * v + 1, 2 * v
            for u in adjacency[v]:
                if u > v:
                    idx = len(to)
                    head[out_v].append(idx)
                    head[2 * u].append(idx + 1)
                    head[2 * u + 1].append(idx + 2)
                    head[in_v].append(idx + 3)
                    to += (2 * u, out_v, in_v, 2 * u + 1)
                    cap += (wide, 0, wide, 0)
        self._src_arc = src_arc = [0] * n
        self._snk_arc = snk_arc = [0] * n
        # Only the arcs into the sink go on the lists: a search starts from
        # the sources it is given, never returns to the source and stops at
        # the sink.
        for v in range(n):
            idx = len(to)
            head[2 * v + 1].append(idx + 2)
            to += (2 * v, source, sink, 2 * v + 1)
            cap += (0, 0, 0, 0)
            src_arc[v] = idx
            snk_arc[v] = idx + 2
        self._to = to
        self._cap_template = cap
        self._head = head
        # prev_arc of the breadth-first search, kept between searches: -1
        # marks a node unvisited, and each search resets only what it visited.
        self._prev_arc = [-1] * (2 * n + 2)

    def open(self, v: int) -> None:
        """Let flow cross vertex v again."""
        self._cap_template[2 * v] = 1

    def close(self, v: int) -> None:
        """Stop all flow through vertex v, as if it were removed."""
        self._cap_template[2 * v] = 0

    def residual(self) -> list[int]:
        """Zero flow with every terminal arc closed, for :meth:`solve` to grow."""
        return self._cap_template.copy()

    def solve(
        self,
        sources: Iterable[int],
        sinks: Iterable[int],
        limit: int,
        residual: list[int] | None = None,
    ) -> list[int] | None:
        """Separator of size <= limit between the terminal sets, or None.

        The returned list is ascending.  ``None`` means every separator is
        larger than ``limit``.  Without ``residual`` the flow starts from
        zero.  With one, it continues from that flow, and the terminals
        passed must include every terminal open in it: their arcs are opened
        (again, for those already open), the flow value is read off the
        source arcs, and the list is updated in place to the flow reached
        (above ``limit`` when the answer is None).  A caller that needs an
        earlier state keeps a copy of the list.  The separator does not
        depend on the order of the terminals.
        """
        if limit < 0:
            return None
        cap = self.residual() if residual is None else residual
        wide, src_arc = self._wide, self._src_arc
        # An open terminal arc keeps its flow, which its reverse arc holds:
        # its residual is wide - flow.  A closed one has no capacity either
        # way.  A vertex listed twice counts once.
        starts = dict.fromkeys(sources)
        flow = 0
        for v in starts:
            a = src_arc[v]
            flow += cap[a ^ 1]
            cap[a] = wide - cap[a ^ 1]
        for v in sinks:
            a = self._snk_arc[v]
            cap[a] = wide - cap[a ^ 1]
        to, head, prev_arc = self._to, self._head, self._prev_arc
        s, t = self._source, self._sink
        while flow <= limit:
            prev_arc[s] = -2
            queue = [s]
            for v in starts:
                a = src_arc[v]
                if cap[a] and prev_arc[2 * v] == -1:
                    prev_arc[2 * v] = a
                    queue.append(2 * v)
            for x in queue:
                for a in head[x]:
                    if cap[a]:
                        y = to[a]
                        if prev_arc[y] == -1:
                            prev_arc[y] = a
                            queue.append(y)
                if prev_arc[t] != -1:
                    break
            if prev_arc[t] == -1:
                # The cut is the set of saturated internal arcs leaving the
                # visited region: a visited in(v) whose out(v) is not, and
                # whose arc carries flow (a closed vertex carries none).
                separator = sorted(
                    [
                        x >> 1
                        for x in queue
                        if not x & 1 and x < s and prev_arc[x + 1] == -1 and cap[x + 1]
                    ]
                )
                for x in queue:
                    prev_arc[x] = -1
                if len(separator) != flow:
                    raise RuntimeError("separator size differs from the maximum flow")
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
            for x in queue:
                prev_arc[x] = -1
            flow += bottleneck
        return None
