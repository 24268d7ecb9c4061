"""Plane graphs as rotation systems, and the combinatorial operations on them.

A graph is stored as, for each vertex, the cyclic clockwise sequence of its
neighbors.  Faces are traced from the rotation alone, so the embedding
(including its orientation) is part of the value: mirror images are distinct
inputs.  Everything downstream (closures, contractions, bridges, blocks) is
derived from this one representation.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import (
    DisconnectedGraph,
    DisconnectedInterior,
    EmptyInterior,
    InconsistentRotation,
    MultiEdge,
    NonPlanarTrace,
    NotAChain,
    NotACycle,
    NotContractible,
)

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Normalized undirected edge."""
    return (u, v) if u < v else (v, u)


def path_edges(vertices) -> frozenset[Edge]:
    """Edge set of a vertex path."""
    return frozenset(edge_key(a, b) for a, b in zip(vertices, vertices[1:]))


def cycle_edges(vertices) -> frozenset[Edge]:
    """Edge set of a cyclic vertex sequence."""
    n = len(vertices)
    return frozenset(edge_key(vertices[i], vertices[(i + 1) % n]) for i in range(n))


def _rotate_min(seq: tuple) -> tuple:
    """Lexicographically least rotation of a cyclic sequence."""
    best = None
    for i in range(len(seq)):
        cand = seq[i:] + seq[:i]
        if best is None or cand < best:
            best = cand
    return best


def canonical_cycle(vertices) -> tuple[int, ...]:
    """Canonical representative of a cyclic sequence up to rotation and reflection."""
    t = tuple(vertices)
    return min(_rotate_min(t), _rotate_min(tuple(reversed(t))))


@dataclass(frozen=True)
class Cycle:
    """A cycle given as a cyclic vertex sequence.

    Consecutive vertices must be adjacent in the host graph and all vertices
    distinct; ``validate`` checks both.
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self.vertices

    def edges(self) -> frozenset[Edge]:
        return cycle_edges(self.vertices)

    def validate(self, g: PlaneGraph) -> None:
        vs = self.vertices
        if len(vs) < 3 or len(set(vs)) != len(vs):
            raise NotACycle(f"{vs} is not a cycle")
        for a, b in zip(vs, vs[1:] + vs[:1]):
            if not g.has_edge(a, b):
                raise NotACycle(f"{a}-{b} is not an edge")

    def subpath(self, u: int, v: int) -> tuple[int, ...]:
        """Vertices from u to v following the stored (clockwise) orientation."""
        vs = self.vertices
        i = vs.index(u)
        out = [u]
        while out[-1] != v:
            i = (i + 1) % len(vs)
            out.append(vs[i])
        return tuple(out)

    def canonical(self) -> tuple[int, ...]:
        return canonical_cycle(self.vertices)


class PlaneGraph:
    """A simple plane graph with a designated outer face.

    ``rotation[v]`` is the clockwise neighbor sequence of ``v``.  The face
    census, adjacency sets and edge set are precomputed; instances are
    immutable.  ``is_triangulation`` is set iff every face is a triangle.
    Use :func:`build` to construct from untrusted rotation tables.
    """

    __slots__ = ("n", "rotation", "outer_face_index", "faces", "adj", "edge_set",
                 "degrees", "is_triangulation", "connected", "_pos", "_face_at")

    def __init__(self, rotation, outer_face_index=0, require_connected=True):
        rotation = tuple(tuple(nbrs) for nbrs in rotation)
        n = len(rotation)
        adj = []
        for v, nbrs in enumerate(rotation):
            for w in nbrs:
                if w == v:
                    raise MultiEdge(f"loop at {v}")
                if not 0 <= w < n:
                    raise InconsistentRotation(f"vertex {w} out of range at {v}")
            if len(set(nbrs)) != len(nbrs):
                raise MultiEdge(f"repeated neighbor at {v}")
            adj.append(frozenset(nbrs))
        for v in range(n):
            for w in rotation[v]:
                if v not in adj[w]:
                    raise InconsistentRotation(f"edge ({v},{w}) listed only at {v}")

        self.n = n
        self.rotation = rotation
        self.adj = tuple(adj)
        self.degrees = tuple(len(r) for r in rotation)
        self.edge_set = frozenset(edge_key(v, w) for v in range(n) for w in rotation[v])
        self._pos = tuple({w: i for i, w in enumerate(nbrs)} for nbrs in rotation)

        self.connected = self._bfs_connected()
        if require_connected and not self.connected:
            raise DisconnectedGraph("graph is not connected")

        self.faces, self._face_at = self._trace_faces()
        if self.connected:
            # Euler's formula on the sphere; fails iff the rotation has genus > 0.
            if n - len(self.edge_set) + len(self.faces) != 2:
                raise NonPlanarTrace(
                    f"V-E+F = {n}-{len(self.edge_set)}+{len(self.faces)} != 2")
        self.is_triangulation = (
            self.connected and n >= 3 and all(len(f) == 3 for f in self.faces))
        if not 0 <= outer_face_index < max(1, len(self.faces)):
            raise ValueError("outer face index out of range")
        self.outer_face_index = outer_face_index

    # -- construction helpers --

    def _bfs_connected(self):
        if self.n == 0:
            return True
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            v = queue.popleft()
            for w in self.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    queue.append(w)
        return count == self.n

    def _trace_faces(self):
        """Orbits of (u,v) -> (v, successor of u in rotation[v])."""
        faces = []
        face_at = {}
        for u0 in range(self.n):
            for v0 in self.rotation[u0]:
                if (u0, v0) in face_at:
                    continue
                walk = []
                u, v = u0, v0
                while (u, v) not in face_at:
                    face_at[(u, v)] = len(faces)
                    walk.append(v)
                    nbrs = self.rotation[v]
                    u, v = v, nbrs[(self._pos[v][u] + 1) % len(nbrs)]
                faces.append(tuple(walk))
        return tuple(faces), face_at

    # -- basic queries --

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.rotation[v]

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @property
    def outer_face(self) -> tuple[int, ...]:
        return self.faces[self.outer_face_index]

    def min_degree(self) -> int:
        return min(self.degrees)

    def face_of(self, u: int, v: int) -> int:
        """Index of the face traced through directed edge (u, v)."""
        return self._face_at[(u, v)]

    def face_index(self, vertices) -> int | None:
        """Lowest index of a face bounded by the cyclic sequence ``vertices``
        (up to rotation and reflection), or None when no face is.

        Such a face traces the first edge of ``vertices`` in one of its two
        directions, so only the faces on that edge are compared.
        """
        vs = tuple(vertices)
        if len(vs) < 2 or (vs[0], vs[1]) not in self._face_at:
            return None
        want = canonical_cycle(vs)
        hits = [i for i in (self._face_at[(vs[0], vs[1])], self._face_at[(vs[1], vs[0])])
                if canonical_cycle(self.faces[i]) == want]
        return min(hits, default=None)

    def common_neighbors(self, u: int, v: int) -> frozenset[int]:
        return self.adj[u] & self.adj[v]

    def triangles(self) -> list[tuple[int, int, int]]:
        """All 3-cycles, as sorted vertex triples."""
        out = []
        for u in range(self.n):
            for v in self.adj[u]:
                if v <= u:
                    continue
                for w in self.adj[u] & self.adj[v]:
                    if w > v:
                        out.append((u, v, w))
        return out

    def __eq__(self, other):
        return (isinstance(other, PlaneGraph) and self.rotation == other.rotation
                and self.outer_face_index == other.outer_face_index)

    def __hash__(self):
        return hash((self.rotation, self.outer_face_index))

    def __repr__(self):
        kind = "triangulation" if self.is_triangulation else "plane graph"
        return f"<{kind} n={self.n} m={len(self.edge_set)}>"

    # -- derived graphs --

    def mirror(self) -> PlaneGraph:
        """The reflected embedding (all rotations reversed)."""
        return PlaneGraph([tuple(reversed(r)) for r in self.rotation],
                          require_connected=False)

    def rooted_at_face(self, face_vertices) -> PlaneGraph:
        """Same embedding with the face on these vertices as the outer face."""
        i = self.face_index(face_vertices)
        if i is None:
            raise ValueError(f"{tuple(face_vertices)} is not a face")
        return self.with_outer_face(i)

    def with_outer_face(self, index: int) -> PlaneGraph:
        """Same embedding with face ``index`` as the outer face.

        The copy shares the parent's embedding and every table derived from it.
        """
        if not 0 <= index < max(1, len(self.faces)):
            raise ValueError("outer face index out of range")
        g = object.__new__(PlaneGraph)
        for name in PlaneGraph.__slots__:
            setattr(g, name, getattr(self, name))
        g.outer_face_index = index
        return g

    def delete_vertices(self, drop) -> tuple[PlaneGraph, list[int]]:
        """Embedding restriction to the remaining vertices.

        Returns the restricted graph (possibly disconnected) and the list
        mapping new ids to old ids.
        """
        drop = set(drop)
        keep = [v for v in range(self.n) if v not in drop]
        relabel = {old: new for new, old in enumerate(keep)}
        rotation = [tuple(relabel[w] for w in self.rotation[v] if w not in drop)
                    for v in keep]
        return PlaneGraph(rotation, require_connected=False), keep

    def delete_edges(self, edges) -> PlaneGraph:
        """Embedding restriction with the given edges removed."""
        gone = {edge_key(*e) for e in edges}
        rotation = [tuple(w for w in self.rotation[v] if edge_key(v, w) not in gone)
                    for v in range(self.n)]
        return PlaneGraph(rotation, require_connected=False)

    def induced(self, vertices) -> tuple[PlaneGraph, list[int]]:
        return self.delete_vertices(set(range(self.n)) - set(vertices))


def build(rotation_table) -> PlaneGraph:
    """Validate a rotation table and return the plane graph it describes.

    Raises InconsistentRotation, MultiEdge, DisconnectedGraph or
    NonPlanarTrace when the table is not a simple connected sphere embedding.
    """
    return PlaneGraph(rotation_table, require_connected=True)


def plane_graph_from_faces(faces, outer=None) -> PlaneGraph:
    """Assemble a plane graph from its face cycles.

    Each undirected edge must occur in exactly two faces; orientations are
    fixed automatically by propagation, so the faces may be given with
    arbitrary winding.  ``outer``, if given, is the vertex set or cycle of the
    face to designate as outer.
    """
    faces = [tuple(f) for f in faces]
    by_edge: dict[Edge, list[int]] = {}
    for i, f in enumerate(faces):
        if len(f) != len(set(f)):
            raise ValueError(f"face {f} repeats a vertex")
        for a, b in zip(f, f[1:] + f[:1]):
            by_edge.setdefault(edge_key(a, b), []).append(i)
    for e, fs in by_edge.items():
        if len(fs) != 2:
            raise ValueError(f"edge {e} lies on {len(fs)} faces, expected 2")

    # Propagate a consistent orientation: adjacent faces traverse their shared
    # edge in opposite directions.
    oriented: dict[int, tuple[int, ...]] = {0: faces[0]}
    queue = deque([0])
    directed = {}

    def dir_edges(f):
        return list(zip(f, f[1:] + f[:1]))

    while queue:
        i = queue.popleft()
        for a, b in dir_edges(oriented[i]):
            directed[(a, b)] = i
            j = next(k for k in by_edge[edge_key(a, b)] if k != i)
            if j in oriented:
                continue
            fj = faces[j]
            des = dir_edges(fj)
            if (a, b) in des:
                fj = tuple(reversed(fj))
            oriented[j] = fj
            queue.append(j)
    if len(oriented) != len(faces):
        raise ValueError("face complex is not connected")

    succ: dict[int, dict[int, int]] = {}
    for f in oriented.values():
        k = len(f)
        for idx in range(k):
            a, v, b = f[idx], f[(idx + 1) % k], f[(idx + 2) % k]
            # directed (a -> v) belongs to this face, so b follows a around v
            succ.setdefault(v, {})[a] = b
    n = max(succ) + 1
    rotation = []
    for v in range(n):
        nxt = succ.get(v)
        if not nxt:
            raise ValueError(f"vertex {v} missing from faces")
        start = next(iter(nxt))
        order = [start]
        while True:
            w = nxt[order[-1]]
            if w == start:
                break
            order.append(w)
        if len(order) != len(nxt):
            raise ValueError(f"faces around vertex {v} do not close up")
        rotation.append(tuple(order))

    g = PlaneGraph(rotation, require_connected=True)
    if outer is not None:
        g = g.rooted_at_face(tuple(outer))
    return g


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def _connected_after_removal(g: PlaneGraph, removed: set[int]) -> bool:
    rest = [v for v in range(g.n) if v not in removed]
    if not rest:
        return True
    seen = {rest[0]}
    queue = deque([rest[0]])
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w not in removed and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(rest)


def is_k_connected(g: PlaneGraph, k: int) -> bool:
    """Exhaustive vertex-cut search: true iff n > k and no cut of size < k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n <= k:
        return False
    if not g.connected:
        return False
    for size in range(1, k):
        for cut in itertools.combinations(range(g.n), size):
            if not _connected_after_removal(g, set(cut)):
                return False
    return True


def vertex_connectivity_flow(g: PlaneGraph) -> int:
    """Vertex connectivity by max-flow (Menger), an independent second route.

    Splits every vertex into in/out nodes with unit capacity and computes
    max vertex-disjoint s-t paths over all non-adjacent pairs.
    """
    n = g.n
    if n <= 1:
        return 0
    if all(len(g.adj[v]) == n - 1 for v in range(n)):
        return n - 1
    if not g.connected:
        return 0

    def max_disjoint_paths(s, t):
        # unit-capacity node-split network; BFS augmentation
        # nodes: 2v = v_in, 2v+1 = v_out
        cap = {}
        for v in range(n):
            cap[(2 * v, 2 * v + 1)] = 1 if v not in (s, t) else n
        for u, v in g.edge_set:
            cap[(2 * u + 1, 2 * v)] = n
            cap[(2 * v + 1, 2 * u)] = n
        flow = 0
        while True:
            prev = {2 * s + 1: None}
            queue = deque([2 * s + 1])
            while queue and 2 * t not in prev:
                x = queue.popleft()
                for (a, b), c in cap.items():
                    if a == x and c > 0 and b not in prev:
                        prev[b] = a
                        queue.append(b)
            if 2 * t not in prev:
                return flow
            x = 2 * t
            while prev[x] is not None:
                p = prev[x]
                cap[(p, x)] -= 1
                cap[(x, p)] = cap.get((x, p), 0) + 1
                x = p
            flow += 1

    best = n
    for s in range(n):
        for t in range(s + 1, n):
            if t in g.adj[s]:
                continue
            best = min(best, max_disjoint_paths(s, t))
    return best


# ---------------------------------------------------------------------------
# closures and near triangulations
# ---------------------------------------------------------------------------

class NearTriangulation:
    """A plane graph with a designated outer cycle.

    All faces other than the outer one are triangles exactly when
    ``is_near_triangulation`` is set.  ``origin`` maps the local vertex ids
    back to the ids of the graph this region was cut from, when relevant.
    """

    __slots__ = ("graph", "outer_cycle", "origin")

    def __init__(self, graph: PlaneGraph, outer_cycle: Cycle, origin=None):
        outer_cycle.validate(graph)
        face_index = graph.face_index(outer_cycle.vertices)
        if face_index is None:
            raise NotACycle(f"{outer_cycle.vertices} does not bound a face")
        self.graph = graph.with_outer_face(face_index)
        self.outer_cycle = outer_cycle
        self.origin = tuple(origin) if origin is not None else None

    @property
    def is_near_triangulation(self) -> bool:
        out = self.graph.outer_face_index
        return all(len(f) == 3 for i, f in enumerate(self.graph.faces) if i != out)

    def interior_vertices(self) -> list[int]:
        on_cycle = set(self.outer_cycle.vertices)
        return [v for v in range(self.graph.n) if v not in on_cycle]

    def to_origin(self, v: int) -> int:
        return v if self.origin is None else self.origin[v]

    def __repr__(self):
        return (f"<near triangulation n={self.graph.n} "
                f"outer={self.outer_cycle.vertices}>")


def _side_faces(g: PlaneGraph, c: Cycle) -> tuple[set[int], set[int]]:
    """Partition face indices into (side containing the outer face, other side)."""
    ce = c.edges()
    adj_faces: dict[int, set[int]] = {i: set() for i in range(len(g.faces))}
    for (u, v), i in g._face_at.items():
        e = edge_key(u, v)
        if e in ce:
            continue
        j = g._face_at[(v, u)]
        adj_faces[i].add(j)
        adj_faces[j].add(i)
    start = g.outer_face_index
    outside = {start}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in adj_faces[i]:
            if j not in outside:
                outside.add(j)
                queue.append(j)
    inside = set(range(len(g.faces))) - outside
    if not inside:
        raise NotACycle(f"{c.vertices} does not separate the sphere into two sides")
    return outside, inside


def closure(g: PlaneGraph, c: Cycle) -> NearTriangulation:
    """The subgraph inside the closed disc bounded by ``c``.

    The interior side is the one away from the designated outer face; the
    result has ``c`` as its outer cycle and carries the id mapping back to
    ``g``.
    """
    c.validate(g)
    _outside, inside = _side_faces(g, c)
    vertices = set(c.vertices)
    for i in inside:
        vertices.update(g.faces[i])
    keep_edges = set(c.edges())
    for u, v in g.edge_set:
        if g._face_at[(u, v)] in inside and g._face_at[(v, u)] in inside:
            keep_edges.add((u, v))
    keep_sorted = sorted(vertices)
    relabel = {old: new for new, old in enumerate(keep_sorted)}
    rotation = [tuple(relabel[w] for w in g.rotation[v]
                      if w in vertices and edge_key(v, w) in keep_edges)
                for v in keep_sorted]
    sub = PlaneGraph(rotation, require_connected=True)
    cyc = Cycle(tuple(relabel[v] for v in c.vertices))
    return NearTriangulation(sub, cyc, origin=keep_sorted)


def closure_containing(g: PlaneGraph, c: Cycle, v: int) -> NearTriangulation:
    """Closure of ``c`` on the side containing vertex ``v`` (not on ``c``)."""
    c.validate(g)
    if v in c.vertices:
        raise ValueError(f"vertex {v} lies on the cycle")
    _outside, inside = _side_faces(g, c)
    inside_vertices = set()
    for i in inside:
        inside_vertices.update(g.faces[i])
    if v in inside_vertices - set(c.vertices):
        return closure(g, c)
    # re-root at any inside face so the wanted side becomes "inside"
    g2 = g.with_outer_face(next(iter(inside)))
    return closure(g2, c)


def interior_of(g: PlaneGraph, c: Cycle) -> list[int]:
    """Vertices strictly inside ``c`` (in ``g``'s ids)."""
    cl = closure(g, c)
    on_cycle = set(c.vertices)
    return [cl.to_origin(v) for v in range(cl.graph.n)
            if cl.to_origin(v) not in on_cycle]


def contract_interior(g: PlaneGraph, c: Cycle):
    """Contract everything strictly inside ``c`` to one new vertex.

    Returns ``(graph, new_vertex, origin)`` where ``origin[new_id]`` is the
    old id for kept vertices and ``None`` for the new vertex.  The new vertex
    is adjacent to exactly the cycle vertices that had interior neighbors.
    """
    cl = closure(g, c)
    inner = set(cl.to_origin(v) for v in cl.interior_vertices())
    if not inner:
        raise EmptyInterior(f"{c.vertices} bounds a face")
    if not _induced_connected(g, inner):
        raise DisconnectedInterior(f"interior of {c.vertices} is disconnected")

    attachments = [v for v in c.vertices if g.adj[v] & inner]
    if len(attachments) < 2:
        raise DisconnectedInterior("interior attaches to fewer than 2 cycle vertices")

    _outside, inside = _side_faces(g, c)
    keep = [v for v in range(g.n) if v not in inner]
    relabel = {old: new for new, old in enumerate(keep)}
    star = len(keep)

    new_faces = [tuple(relabel[w] for w in g.faces[i]) for i in _outside]
    # fan faces: between consecutive attachments along the cycle, one face
    # through the new vertex and the cycle stretch between them
    att = set(attachments)
    k = len(c.vertices)
    starts = [i for i in range(k) if c.vertices[i] in att]
    for idx_pos, i in enumerate(starts):
        j = starts[(idx_pos + 1) % len(starts)]
        stretch = [c.vertices[i]]
        p = i
        while p != j:
            p = (p + 1) % k
            stretch.append(c.vertices[p])
        new_faces.append(tuple([star] + [relabel[v] for v in stretch]))

    g2 = plane_graph_from_faces(new_faces)
    origin = keep + [None]
    return g2, star, origin


def _induced_connected(g: PlaneGraph, vertices: set[int]) -> bool:
    if not vertices:
        return False
    start = next(iter(vertices))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w in vertices and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(vertices)


def contract_edge(g: PlaneGraph, u: int, v: int):
    """Contract edge uv of a triangulation (endpoints with 2 common neighbors).

    Returns ``(graph, merged_vertex, origin)`` with ``origin[new_id]`` the old
    id, and ``None`` marking the merged vertex.
    """
    if not g.has_edge(u, v):
        raise NotACycle(f"{u}-{v} is not an edge")
    if len(g.common_neighbors(u, v)) != 2:
        raise NotContractible(f"{u}-{v} has {len(g.common_neighbors(u, v))} common neighbors")
    keep = [w for w in range(g.n) if w not in (u, v)]
    relabel = {old: new for new, old in enumerate(keep)}
    merged = len(keep)

    def rename(w):
        return merged if w in (u, v) else relabel[w]

    new_faces = []
    for f in g.faces:
        if u in f and v in f:
            continue  # the two faces on uv collapse
        new_faces.append(tuple(rename(w) for w in f))
    g2 = plane_graph_from_faces(new_faces)
    return g2, merged, keep + [None]


def add_edge_in_face(g: PlaneGraph, u: int, v: int) -> PlaneGraph:
    """Add chord uv inside a face containing both (splits that face)."""
    if g.has_edge(u, v):
        raise MultiEdge(f"{u}-{v} already present")
    for i, f in enumerate(g.faces):
        if u in f and v in f:
            iu, iv = f.index(u), f.index(v)
            a = f[iu:] + f[:iu]
            cut = a.index(v)
            f1, f2 = a[:cut + 1], a[cut:] + (u,)
            new_faces = [g.faces[j] for j in range(len(g.faces)) if j != i]
            new_faces += [f1, f2]
            return plane_graph_from_faces(new_faces)
    raise NotACycle(f"no face contains both {u} and {v}")


# ---------------------------------------------------------------------------
# bridges and blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BridgeInfo:
    """One H-bridge: a chord of H, or a component of G-H plus its legs."""

    vertices: frozenset[int]
    edges: frozenset[Edge]
    attachments: frozenset[int]

    @property
    def is_chord(self) -> bool:
        return self.vertices == self.attachments


@dataclass(frozen=True)
class BridgeDecomposition:
    """All bridges of a subgraph H in G; they partition E(G) - E(H)."""

    h_vertices: frozenset[int]
    h_edges: frozenset[Edge]
    bridges: tuple[BridgeInfo, ...]


def bridges(g: PlaneGraph, h_vertices, h_edges) -> BridgeDecomposition:
    """Bridge decomposition of the subgraph (h_vertices, h_edges)."""
    hv = frozenset(h_vertices)
    he = frozenset(edge_key(*e) for e in h_edges)
    out = []
    for u, v in sorted(g.edge_set):
        if u in hv and v in hv and (u, v) not in he:
            out.append(BridgeInfo(frozenset((u, v)), frozenset(((u, v),)),
                                  frozenset((u, v))))
    seen = set()
    for v0 in range(g.n):
        if v0 in hv or v0 in seen:
            continue
        comp = {v0}
        queue = deque([v0])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if w not in hv and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        legs = set()
        edges = set()
        for v in comp:
            for w in g.adj[v]:
                if w in hv:
                    legs.add(w)
                    edges.add(edge_key(v, w))
                elif w in comp:
                    edges.add(edge_key(v, w))
        out.append(BridgeInfo(frozenset(comp | legs), frozenset(edges),
                              frozenset(legs)))
    return BridgeDecomposition(hv, he, tuple(out))


def _blocks_and_cuts(g: PlaneGraph):
    """Biconnected components (as edge sets) and articulation vertices."""
    disc = [0] * g.n
    low = [0] * g.n
    timer = [1]
    stack: list[Edge] = []
    blocks: list[frozenset[Edge]] = []
    cuts: set[int] = set()

    def dfs(root):
        work = [(root, None, iter(g.adj[root]))]
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        children = {root: 0}
        while work:
            v, parent, it = work[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if disc[w] == 0:
                    stack.append(edge_key(v, w))
                    disc[w] = low[w] = timer[0]
                    timer[0] += 1
                    children[v] = children.get(v, 0) + 1
                    children[w] = 0
                    work.append((w, v, iter(g.adj[w])))
                    advanced = True
                    break
                elif disc[w] < disc[v]:
                    stack.append(edge_key(v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            work.pop()
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:
                    comp = set()
                    while stack:
                        e = stack.pop()
                        comp.add(e)
                        if e == edge_key(p, v):
                            break
                    blocks.append(frozenset(comp))
                    if p != root or children[root] > 1:
                        cuts.add(p)

    for v in range(g.n):
        if disc[v] == 0 and g.degrees[v] > 0:
            dfs(v)
    return blocks, cuts


@dataclass(frozen=True)
class BlockChain:
    """The blocks of a connected graph arranged on a path from a to b.

    ``cut_vertices[i]`` joins blocks i and i+1; ``endpoints`` repeats the
    chain ends (b0 = a, bt = b) so that block i runs between endpoints[i]
    and endpoints[i+1].
    """

    blocks: tuple[frozenset[int], ...]
    block_edges: tuple[frozenset[Edge], ...]
    cut_vertices: tuple[int, ...]
    endpoints: tuple[int, ...]

    def __len__(self):
        return len(self.blocks)


def block_chain(g: PlaneGraph, a: int, b: int) -> BlockChain:
    """Order the blocks of ``g`` along the a-b path of the block tree.

    Raises NotAChain if any block lies off that path, or if a or b sits in
    the middle of the chain.
    """
    if a == b:
        raise NotAChain("endpoints coincide")
    if not g.connected:
        raise NotAChain("graph is not connected")
    edge_blocks, _cuts = _blocks_and_cuts(g)
    if not edge_blocks:
        raise NotAChain("no edges")
    vertex_sets = [frozenset(itertools.chain.from_iterable(e)) for e in edge_blocks]

    # block tree walk from a block containing `a`
    t = len(vertex_sets)
    containing_a = [i for i in range(t) if a in vertex_sets[i]]
    containing_b = [i for i in range(t) if b in vertex_sets[i]]
    if len(containing_a) != 1 or len(containing_b) != 1:
        raise NotAChain("an endpoint is a cut vertex")
    order = [containing_a[0]]
    ends = [a]
    used = {containing_a[0]}
    while order[-1] != containing_b[0]:
        cur = order[-1]
        nxt = None
        for j in range(t):
            if j in used:
                continue
            shared = vertex_sets[cur] & vertex_sets[j]
            if shared:
                if len(shared) != 1:
                    raise NotAChain("blocks share more than one vertex")
                if nxt is not None:
                    raise NotAChain("block structure branches")
                nxt = (j, next(iter(shared)))
        if nxt is None:
            raise NotAChain("chain does not reach the far endpoint")
        order.append(nxt[0])
        ends.append(nxt[1])
        used.add(nxt[0])
    if len(used) != t:
        raise NotAChain("pendant blocks off the a-b path")
    ends.append(b)
    if ends[1] == a or ends[-2] == b:
        raise NotAChain("an endpoint is interior to the chain")
    return BlockChain(tuple(vertex_sets[i] for i in order),
                      tuple(edge_blocks[i] for i in order),
                      tuple(ends[1:-1]), tuple(ends))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _code_from(g: PlaneGraph, u: int, v: int, direction: int):
    label = [0] * g.n
    label[u] = 1
    label[v] = 2
    nxt = 3
    order = [u]
    entry = {u: v}
    code = []
    qi = 0
    while qi < len(order):
        w = order[qi]
        qi += 1
        rot = g.rotation[w]
        d = len(rot)
        start = g._pos[w][entry[w]]
        for i in range(d):
            nb = rot[(start + direction * i) % d]
            if label[nb] == 0:
                label[nb] = nxt
                nxt += 1
                order.append(nb)
                entry[nb] = w
            code.append(label[nb])
        code.append(0)
    return tuple(code)


def canonical_code(g: PlaneGraph, roots=None) -> tuple[int, ...]:
    """Canonical form of the embedding up to relabeling and reflection.

    Minimum BFS code over rooted traversals; for 3-connected planar graphs
    (all triangulations here) equality of codes is graph isomorphism.
    ``roots`` restricts the starting directed edges (e.g. to the outer face).
    """
    if g.n == 1:
        return (0,)
    degs = g.degrees
    if roots is None:
        candidates = [(u, v) for u in range(g.n) for v in g.rotation[u]]
    else:
        candidates = list(roots)
    best_key = min((degs[u], degs[v]) for u, v in candidates)
    best = None
    for u, v in candidates:
        if (degs[u], degs[v]) != best_key:
            continue
        for direction in (1, -1):
            code = _code_from(g, u, v, direction)
            if best is None or code < best:
                best = code
    return best


def outer_rooted_code(g: PlaneGraph) -> tuple[int, ...]:
    """Canonical form that additionally fixes the designated outer face."""
    f = g.outer_face
    k = len(f)
    roots = [(f[i], f[(i + 1) % k]) for i in range(k)]
    roots += [(f[(i + 1) % k], f[i]) for i in range(k)]
    return canonical_code(g, roots=roots)


def is_isomorphic(g1: PlaneGraph, g2: PlaneGraph) -> bool:
    """Embedding isomorphism (= graph isomorphism for 3-connected inputs)."""
    if g1.n != g2.n or len(g1.edge_set) != len(g2.edge_set):
        return False
    if sorted(g1.degrees) != sorted(g2.degrees):
        return False
    return canonical_code(g1) == canonical_code(g2)
