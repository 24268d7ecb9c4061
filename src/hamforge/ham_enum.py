"""Exact enumeration and counting of Hamiltonian cycles and paths.

Backtracking with degree-availability pruning.  Cycles are undirected edge
sets; directed or rooted counts are never exposed.  Every search takes a node
budget (default 10^9, overridable via HAMFORGE_BUDGET) and raises
SearchTimeout when it is exhausted: a timeout is an operational result to
record, never to silently skip.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import SearchTimeout
from .plane_graph import Edge, PlaneGraph, edge_key

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


def _prepare(g: PlaneGraph, required_edges, forbidden_edges, exclude=frozenset()):
    req = frozenset(edge_key(*e) for e in required_edges)
    forb = frozenset(edge_key(*e) for e in forbidden_edges)
    if req & forb:
        raise ValueError("required and forbidden edge sets intersect")
    for e in req:
        if e not in g.edge_set:
            raise ValueError(f"required edge {e} not in graph")
        if not exclude.isdisjoint(e):
            raise ValueError(f"required edge {e} has an excluded end")
    adj = [sorted(w for w in g.adj[v] if edge_key(v, w) not in forb)
           for v in range(g.n)]
    if exclude:
        adj = [[] if v in exclude else [w for w in a if w not in exclude]
               for v, a in enumerate(adj)]
    req_at = [[] for _ in range(g.n)]
    for u, v in req:
        req_at[u].append(v)
        req_at[v].append(u)
    if any(len(r) > 2 for r in req_at):
        return None
    return adj, req_at


class _Search:
    """Shared engine for Hamiltonian cycle/path backtracking.

    ``free[z]`` tracks z's unvisited neighbors.  When the endpoint moves off
    v, each unvisited z adjacent to v loses direct access to the path there;
    the w terms cancel (z loses w as a free neighbor but gains it as the new
    endpoint), so the admissible prune is ``free[z] + closure_bonus < need``.
    """

    __slots__ = ("g", "adj", "adjset", "req_at", "budget", "nodes", "count",
                 "emit", "cap", "n")

    def __init__(self, g, adj, req_at, budget, emit, cap, excluded=0):
        self.g = g
        self.n = g.n - excluded  # vertices to cover; arrays keep g's ids
        self.adj = adj
        self.adjset = [frozenset(a) for a in adj]
        self.req_at = req_at
        self.budget = budget
        self.nodes = 0
        self.count = 0
        self.emit = emit
        self.cap = cap

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchTimeout(self.budget, partial=self.count)

    # -- cycles --

    def run_cycles(self):
        n = self.n
        if n < 3 or any(len(a) < 2 for a in self.adj):
            return 0
        start = 0
        visited = [False] * n
        visited[start] = True
        path = [start]
        free = [len(a) for a in self.adj]
        for z in self.adj[start]:
            free[z] -= 1
        self._cycle_extend(path, visited, free, start)
        return self.count

    def _cycle_extend(self, path, visited, free, start):
        self._tick()
        v = path[-1]
        if len(path) == self.n:
            if start in self.adjset[v] and path[1] < path[-1]:
                # required edges at the two closure vertices resolve only here
                if all(x in (path[1], v) for x in self.req_at[start]) and \
                   all(x in (path[-2], start) for x in self.req_at[v]):
                    self._found_cycle(path)
            return
        prev = path[-2] if len(path) > 1 else None
        req_v = self.req_at[v]
        for w in self.adj[v]:
            if visited[w]:
                continue
            if req_v and v != start and not all(x == w or x == prev for x in req_v):
                continue
            if v == start and len(req_v) == 2 and w not in req_v:
                continue
            ok = True
            for z in self.adj[v]:
                if z == w or visited[z]:
                    continue
                if free[z] + (1 if start in self.adjset[z] else 0) < 2:
                    ok = False
                    break
            if not ok:
                continue
            visited[w] = True
            path.append(w)
            for z in self.adj[w]:
                free[z] -= 1
            self._cycle_extend(path, visited, free, start)
            for z in self.adj[w]:
                free[z] += 1
            path.pop()
            visited[w] = False
            if self.cap is not None and self.count >= self.cap:
                return

    def _found_cycle(self, path):
        self.count += 1
        if self.emit is not None:
            n = self.n
            edges = frozenset(edge_key(path[i], path[(i + 1) % n]) for i in range(n))
            self.emit(edges, tuple(path))

    # -- paths --

    def run_paths(self, a, b):
        if a == b:
            raise ValueError("path endpoints must differ")
        if len(self.req_at[a]) > 1 or len(self.req_at[b]) > 1:
            return 0
        visited = [False] * self.g.n
        visited[a] = True
        path = [a]
        free = [len(x) for x in self.adj]
        for z in self.adj[a]:
            free[z] -= 1
        self._path_extend(path, visited, free, a, b)
        return self.count

    def _path_extend(self, path, visited, free, a, b):
        self._tick()
        v = path[-1]
        if len(path) == self.n:
            if v == b and all(x == path[-2] for x in self.req_at[v]) and \
               all(x == path[1] for x in self.req_at[a]):
                self._found_path(path)
            return
        prev = path[-2] if len(path) > 1 else None
        req_v = self.req_at[v]
        for w in self.adj[v]:
            if visited[w]:
                continue
            if w == b and len(path) != self.n - 1:
                continue
            if v == a:
                if req_v and not all(x == w for x in req_v):
                    continue
            elif req_v and not all(x == w or x == prev for x in req_v):
                continue
            ok = True
            for z in self.adj[v]:
                if z == w or visited[z]:
                    continue
                if free[z] < (1 if z == b else 2):
                    ok = False
                    break
            if not ok:
                continue
            visited[w] = True
            path.append(w)
            for z in self.adj[w]:
                free[z] -= 1
            self._path_extend(path, visited, free, a, b)
            for z in self.adj[w]:
                free[z] += 1
            path.pop()
            visited[w] = False
            if self.cap is not None and self.count >= self.cap:
                return

    def _found_path(self, path):
        self.count += 1
        if self.emit is not None:
            edges = frozenset(edge_key(u, v) for u, v in zip(path, path[1:]))
            self.emit(edges, tuple(path))


def count_ham_cycles(g: PlaneGraph, required_edges=(), forbidden_edges=(),
                     budget=None) -> int:
    """Exact number of Hamiltonian cycles (as undirected edge sets) containing
    all required and none of the forbidden edges."""
    prep = _prepare(g, required_edges, forbidden_edges)
    if prep is None:
        return 0
    adj, req_at = prep
    s = _Search(g, adj, req_at, search_budget(budget), None, None)
    return s.run_cycles()


def enumerate_ham_cycles_raw(g: PlaneGraph, required_edges=(), forbidden_edges=(),
                             budget=None, cap=None):
    """Deterministic list of (edge set, vertex tuple) Hamiltonian cycles."""
    prep = _prepare(g, required_edges, forbidden_edges)
    if prep is None:
        return []
    adj, req_at = prep
    found = []
    s = _Search(g, adj, req_at, search_budget(budget),
                lambda e, p: found.append((e, p)), cap)
    s.run_cycles()
    return found


def first_ham_cycle(g: PlaneGraph, required_edges=(), forbidden_edges=(),
                    budget=None):
    """Lexicographically first Hamiltonian cycle, or None."""
    out = enumerate_ham_cycles_raw(g, required_edges, forbidden_edges, budget, cap=1)
    return out[0][0] if out else None


def _run_paths(g, a, b, required_edges, forbidden_edges, exclude, budget,
               emit=None, cap=None) -> int:
    """Search the Hamiltonian a-b paths of g minus ``exclude``; their number."""
    exclude = frozenset(exclude)
    for z in sorted(exclude):
        if z in (a, b):
            raise ValueError(f"path endpoint {z} is excluded")
        if not 0 <= z < g.n:
            raise ValueError(f"excluded vertex {z} not in graph")
    prep = _prepare(g, required_edges, forbidden_edges, exclude)
    if prep is None:
        return 0
    return _Search(g, *prep, search_budget(budget), emit, cap,
                   len(exclude)).run_paths(a, b)


def count_ham_paths(g: PlaneGraph, a: int, b: int, required_edges=(),
                    forbidden_edges=(), budget=None, exclude=()) -> int:
    """Exact number of Hamiltonian a-b paths of g minus ``exclude``."""
    return _run_paths(g, a, b, required_edges, forbidden_edges, exclude, budget)


def enumerate_ham_paths(g: PlaneGraph, a: int, b: int, required_edges=(),
                        forbidden_edges=(), budget=None, cap=None, exclude=()):
    """Deterministic list of (edge set, vertex tuple) Hamiltonian a-b paths
    of g minus ``exclude``, in g's ids.  The search takes the steps it takes
    on the relabeled subgraph: same paths, same order, same budget."""
    found = []
    _run_paths(g, a, b, required_edges, forbidden_edges, exclude, budget,
               lambda e, p: found.append((e, p)), cap)
    return found


# ---------------------------------------------------------------------------
# verification helpers and cycle families
# ---------------------------------------------------------------------------

def is_ham_cycle(g: PlaneGraph, edges) -> bool:
    """Edge-set check: spanning, 2-regular, connected, edges exist."""
    edges = set(edge_key(*e) for e in edges)
    if len(edges) != g.n or not edges <= g.edge_set:
        return False
    deg = [0] * g.n
    nbr = [[] for _ in range(g.n)]
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        nbr[u].append(v)
        nbr[v].append(u)
    if any(d != 2 for d in deg):
        return False
    seen = {0}
    v, prev = nbr[0][0], 0
    while v != 0:
        seen.add(v)
        v, prev = (nbr[v][0] if nbr[v][0] != prev else nbr[v][1]), v
    return len(seen) == g.n


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


def enumerate_ham_cycles(g: PlaneGraph, cap: int, budget=None) -> HamFamily:
    """Deterministic lexicographic-first enumeration up to ``cap`` cycles."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    fam = HamFamily(g)
    for edges, _path in enumerate_ham_cycles_raw(g, budget=budget, cap=cap):
        fam.add(edges, "enumeration")
    return fam
