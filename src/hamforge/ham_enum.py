"""Exact counting and enumeration of Hamiltonian cycles and paths.

Both searches grow a path from one end over vertex bitmasks and prune by
degree availability: an unvisited neighbour of the path's end that the next
step would leave with too few ways in and out is *critical*.  A node with
two critical neighbours has no child, and one with a single critical
neighbour tries only that vertex.

Counts do not walk each path.  How many ways a partial path can be
finished depends only on where it ends and which vertices are still free
(the Held-Karp state; Held and Karp, J. SIAM 1962), so ``_count`` expands
each such state once and memoises its number of completions.  It counts
cycles in both directions from a vertex of largest degree and halves the
total.  Enumeration stays a backtracker, ``_Search``: it starts cycles at
vertex 0, tries children in increasing vertex order and emits each cycle
once, so its output order and first-found answers are deterministic.
Cycles are returned as undirected edge sets too, paths as vertex tuples
only, and directed or rooted counts are never exposed.

Every search takes a node budget (default 10^9, overridable via
HAMFORGE_BUDGET) and raises SearchTimeout when it is exhausted: a timeout is
an operational result to record, never to silently skip.  An enumeration
charges each node it enters, a count each state it expands.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import SearchTimeout
from .plane_graph import Edge, PlaneGraph, cycle_edges, edge_key

DEFAULT_BUDGET = 10 ** 9


def search_budget(budget=None) -> int:
    """``budget``, else HAMFORGE_BUDGET, else the default.  Anything but a
    positive integer is a ValueError naming where it came from."""
    if budget is None:
        env = os.environ.get("HAMFORGE_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(
                f"HAMFORGE_BUDGET must be a positive integer, got {env!r}")
        return int(env)
    if budget < 1:
        raise ValueError(f"search budget must be a positive integer, got {budget}")
    return budget


def masks_without(nb, exclude: int) -> list[int]:
    """The neighbour masks ``nb`` with the vertices of the bitmask
    ``exclude`` dropped: their own masks 0, and their bits cleared in the
    others."""
    keep = ~exclude
    return [0 if exclude >> v & 1 else m & keep for v, m in enumerate(nb)]


def _prepare(g: PlaneGraph, required_edges, exclude: int = 0):
    """The neighbour masks the search may use and each vertex's required
    neighbours, or None when some vertex has more than two of those.  The
    masks are ``g.nbr_masks``, built with the graph, or a copy without the
    vertices of the bitmask ``exclude``.  Edges are looked up in the masks
    too, so no edge table is built."""
    req = frozenset(edge_key(*e) for e in required_edges)
    n = g.n
    for e in req:
        u, w = e
        if not (0 <= u < n and 0 <= w < n and g.has_edge(u, w)):
            raise ValueError(f"required edge {e} not in graph")
        if (exclude >> u | exclude >> w) & 1:
            raise ValueError(f"required edge {e} has an excluded end")
    nb = masks_without(g.nbr_masks, exclude) if exclude else g.nbr_masks
    req_at = [[] for _ in range(n)]
    for u, v in req:
        req_at[u].append(v)
        req_at[v].append(u)
    if any(len(r) > 2 for r in req_at):
        return None
    return nb, req_at


def _ends(nb, start, end):
    """What the pruning rule needs to know about the path's ends: each
    vertex's ``need`` of free neighbours, the mask a step may take before
    the last one, and how many required edges at the start fix its first
    step (2 for a cycle, whose closing edge takes the other)."""
    if end is None:
        return [1 if m >> start & 1 else 2 for m in nb], -1, 2
    need = [2] * len(nb)
    need[end] = 1
    return need, ~(1 << end), 1


def _count(nb, req_at, n, budget, start, end=None):
    """The number of Hamiltonian start-end paths over the masks ``nb``
    covering ``n`` vertices, or with ``end`` None of the directed
    Hamiltonian cycles through ``start``.

    A state is the path's end v and the mask of vertices off the path, and
    its number of completions is memoised.  Nothing else about the path
    decides that number, required edges included.  The step rule sends each
    vertex on to every required neighbour it did not come from, so a
    required neighbour of v already on the path is the vertex before v, or
    the start, which v can reach only by closing the cycle.

    So a state that covers all n vertices is a Hamiltonian path or cycle
    and needs no check: it holds its required edges, a path search takes
    ``end`` only last, and the pruning keeps the last free vertex of a
    cycle search next to the start, whose edge it needs as its way out.

    Children and pruning are those of ``_Search``, written out in both:
    a step function they shared would cost a call per node, which measured
    about 8% of either search.  Each state expanded counts against the
    budget; a memo hit is free.  On a timeout ``partial`` holds the paths
    completed by the states that finished.
    """
    need, not_end, start_req = _ends(nb, start, end)
    shift = len(nb).bit_length()     # a key is the free mask, then the end
    memo = {}
    nodes = 0

    def expand(v, prev, depth, unvisited):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchTimeout(budget)
        if depth == n:
            return 1
        free = cand = nb[v] & unvisited
        if depth != n - 1:
            cand &= not_end
        req_v = req_at[v]
        if req_v:
            if depth > 1:
                for x in req_v:
                    if x != prev:
                        cand &= 1 << x
            elif len(req_v) == start_req:
                cand &= sum(1 << x for x in req_v)
        if not cand:
            return 0
        critical = 0
        while free:
            bit = free & -free
            free ^= bit
            z = bit.bit_length() - 1
            if (nb[z] & unvisited).bit_count() < need[z]:
                if critical:
                    return 0  # no single step keeps both passable
                critical = bit
        if critical:
            cand &= critical
        total = 0
        try:
            while cand:
                bit = cand & -cand
                cand ^= bit
                w = bit.bit_length() - 1
                rest = unvisited ^ bit
                key = rest << shift | w
                got = memo.get(key)
                if got is None:
                    got = memo[key] = expand(w, v, depth + 1, rest)
                total += got
        except SearchTimeout as exc:
            exc.partial += total
            raise
        return total

    try:
        return expand(start, start, 1, ((1 << len(nb)) - 1) ^ (1 << start))
    finally:
        del expand  # the closure refers to itself: break the cycle


class _Search:
    """The enumerator: Hamiltonian cycle/path backtracking in a fixed order.

    The path grows from one end.  Vertices are bits: ``nb[z]`` is z's
    neighbour mask and ``unvisited`` the mask of vertices off the path, so
    z has ``(nb[z] & unvisited).bit_count()`` free neighbours.  When the end
    moves off v to w, each unvisited neighbour z of v other than w loses v
    for good; z loses w as a free neighbour but gains it as the new end, so
    z stays passable only while it keeps ``need[z]`` free neighbours: 2,
    or 1 for the far end of a path (no way out needed) and for a neighbour
    of the cycle's start (the closing edge is a way out).  The neighbours
    of v below that are its *critical* ones, found once per node.  A path
    that covers all n vertices is a Hamiltonian path or cycle holding its
    required edges (the proof is ``_count``'s, whose steps are these), so
    the only test at a leaf is the cycle's direction rule.  Every
    node entered counts against the budget, and ``nodes`` and ``count``
    stay readable after the search, also after a timeout, whose
    ``partial`` is the number emitted.  ``emit`` gets the vertex tuple of
    each path or cycle found.
    """

    __slots__ = ("nb", "req_at", "n", "budget", "emit", "cap", "nodes",
                 "count")

    def __init__(self, nb, req_at, n, budget, emit, cap=None):
        self.nb = nb
        self.req_at = req_at
        self.n = n  # vertices to cover; the masks keep the graph's ids
        self.budget = budget
        self.emit = emit
        self.cap = cap
        self.nodes = 0
        self.count = 0

    def run_cycles(self):
        if not _has_cycles(self.nb, self.n):
            return 0
        return self._run(0, None)

    def run_paths(self, a, b):
        if not _has_paths(self.req_at, a, b):
            return 0
        return self._run(a, b)

    def _run(self, start, end):
        """Emit the Hamiltonian start-end paths, or with ``end`` None the
        Hamiltonian cycles, each cycle once: in the direction whose second
        vertex is smaller than its last.  Returns how many."""
        n, nb, req_at = self.n, self.nb, self.req_at
        budget, emit, cap = self.budget, self.emit, self.cap
        need, not_end, start_req = _ends(nb, start, end)
        path = [start] * n
        nodes = count = 0

        def extend(v, depth, unvisited):
            nonlocal nodes, count
            nodes += 1
            if nodes > budget:
                raise SearchTimeout(budget, partial=count)
            if depth == n:
                # each cycle once, in one direction
                if end is not None or path[1] < v:
                    count += 1
                    emit(tuple(path))
                return
            free = cand = nb[v] & unvisited
            if depth != n - 1:
                cand &= not_end
            req_v = req_at[v]
            if req_v:
                if depth > 1:
                    prev = path[depth - 2]
                    for x in req_v:
                        if x != prev:
                            cand &= 1 << x
                elif len(req_v) == start_req:
                    cand &= sum(1 << x for x in req_v)
            if not cand:
                return
            critical = 0
            while free:
                bit = free & -free
                free ^= bit
                z = bit.bit_length() - 1
                if (nb[z] & unvisited).bit_count() < need[z]:
                    if critical:
                        return  # no single step keeps both passable
                    critical = bit
            if critical:
                cand &= critical
            while cand:
                bit = cand & -cand
                cand ^= bit
                w = bit.bit_length() - 1
                path[depth] = w
                extend(w, depth + 1, unvisited ^ bit)
                if cap is not None and count >= cap:
                    return

        try:
            extend(start, 1, ((1 << len(nb)) - 1) ^ (1 << start))
        finally:
            self.nodes, self.count = nodes, count
            del extend  # the closure refers to itself: break the cycle
        return count


def _has_cycles(nb, n):
    """False when no Hamiltonian cycle can exist: too few vertices, or one
    with fewer than two neighbours."""
    return n >= 3 and all(m.bit_count() >= 2 for m in nb)


def _has_paths(req_at, a, b):
    """Check the endpoints; False when an end has two required edges."""
    if a == b:
        raise ValueError("path endpoints must differ")
    return len(req_at[a]) <= 1 and len(req_at[b]) <= 1


def count_ham_cycles(g: PlaneGraph, required_edges=(), budget=None) -> int:
    """Exact number of Hamiltonian cycles (as undirected edge sets) containing
    all required edges.  Counted in both directions from a vertex of largest
    degree, lowest id among ties, and halved; a timeout's ``partial`` is half
    the directed cycles completed, rounded up, so it never exceeds the
    count."""
    prep = _prepare(g, required_edges)
    budget = search_budget(budget)
    if prep is None or not _has_cycles(prep[0], g.n):
        return 0
    nb = prep[0]
    start = max(range(g.n), key=lambda v: (nb[v].bit_count(), -v))
    try:
        return _count(*prep, g.n, budget, start) // 2
    except SearchTimeout as exc:
        exc.partial = (exc.partial + 1) // 2
        raise


def enumerate_ham_cycles_raw(g: PlaneGraph, required_edges=(), budget=None,
                             cap=None):
    """Deterministic list of (edge set, vertex tuple) Hamiltonian cycles."""
    prep = _prepare(g, required_edges)
    if prep is None:
        return []
    found = []
    _Search(*prep, g.n, search_budget(budget),
            lambda p: found.append((cycle_edges(p), p)), cap).run_cycles()
    return found


def first_ham_cycle(g: PlaneGraph, required_edges=(), budget=None):
    """Lexicographically first Hamiltonian cycle, or None."""
    out = enumerate_ham_cycles_raw(g, required_edges, budget=budget, cap=1)
    return out[0][0] if out else None


def _path_search(g, a, b, required_edges, exclude: int):
    """The masks and required neighbours for the a-b paths of g minus the
    vertices of the bitmask ``exclude``, and the number of vertices they
    cover; None when some vertex has more than two required edges."""
    n = g.n
    for z in (a, b):
        if not 0 <= z < n:
            raise ValueError(f"path endpoint {z} not in graph")
        if exclude >> z & 1:
            raise ValueError(f"path endpoint {z} is excluded")
    high = exclude >> n    # negative when exclude is: -1 holds every id
    if high:
        z = n + (high & -high).bit_length() - 1
        raise ValueError(f"excluded vertex {z} not in graph")
    prep = _prepare(g, required_edges, exclude)
    return None if prep is None else (*prep, n - exclude.bit_count())


def count_ham_paths(g: PlaneGraph, a: int, b: int, required_edges=(),
                    budget=None, exclude: int = 0) -> int:
    """Exact number of Hamiltonian a-b paths of g minus the vertices of the
    bitmask ``exclude``.  A timeout's ``partial`` is the number of paths
    completed before it."""
    prep = _path_search(g, a, b, required_edges, exclude)
    budget = search_budget(budget)
    if prep is None or not _has_paths(prep[1], a, b):
        return 0
    return _count(*prep, budget, a, b)


def enumerate_ham_paths(g: PlaneGraph, a: int, b: int, required_edges=(),
                        budget=None, cap=None, exclude: int = 0):
    """Deterministic list of the Hamiltonian a-b paths of g minus the
    vertices of the bitmask ``exclude``, each a vertex tuple from a to b in
    g's ids (``path_edges`` gives its edge set).  The search takes the
    steps it takes on the relabeled subgraph: same paths, same order, same
    budget."""
    prep = _path_search(g, a, b, required_edges, exclude)
    found = []
    if prep is not None:
        _Search(*prep, search_budget(budget), found.append,
                cap).run_paths(a, b)
    return found


# ---------------------------------------------------------------------------
# verification helpers and cycle families
# ---------------------------------------------------------------------------

def is_ham_cycle(g: PlaneGraph, edges) -> bool:
    """Whether ``edges`` are the edge set of a Hamiltonian cycle of g.

    Checked on neighbour masks, with no edge table built: every pair is an
    edge of g (a loop, a non-edge or an id out of range is not; an edge
    given in both orientations counts once), every vertex gets exactly two
    distinct neighbours, and the walk from vertex 0 along them covers all
    g.n vertices before it returns.
    """
    n, nb = g.n, g.nbr_masks
    got = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n and nb[u] >> v & 1):
            return False
        got[u] |= 1 << v
        got[v] |= 1 << u
    if any(m.bit_count() != 2 for m in got):
        return False
    # 2-regular: a union of cycles, one of them through 0
    prev, v, seen = 0, got[0].bit_length() - 1, 1
    while v:
        prev, v = v, (got[v] ^ 1 << prev).bit_length() - 1
        seen += 1
    return seen == n


@dataclass
class HamFamily:
    """A deduplicated set of Hamiltonian cycles of one source graph.

    Each member is verified Hamiltonian on add; provenance records which
    construction produced it.  ``log`` accumulates replay events.
    """

    source: PlaneGraph
    cycles: list[frozenset[Edge]] = field(default_factory=list)
    provenance: list[str] = field(default_factory=list)
    log: list[dict] = field(default_factory=list)
    _keys: set[frozenset[Edge]] = field(default_factory=set, repr=False)

    def add(self, edges, provenance: str) -> bool:
        """Verify and insert; returns False on duplicates."""
        edges = frozenset(edge_key(*e) for e in edges)
        if not is_ham_cycle(self.source, edges):
            raise ValueError(f"not a Hamiltonian cycle of {self.source}: {sorted(edges)}")
        if edges in self._keys:
            return False
        self._keys.add(edges)
        self.cycles.append(edges)
        self.provenance.append(provenance)
        return True

    def merge(self, other: HamFamily) -> None:
        for cyc, prov in zip(other.cycles, other.provenance):
            self.add(cyc, prov)
        self.log.extend(other.log)

    def __len__(self):
        return len(self.cycles)

    def __contains__(self, edges):
        return frozenset(edge_key(*e) for e in edges) in self._keys

