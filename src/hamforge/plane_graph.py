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

    ``rotation[v]`` is the clockwise neighbor sequence of ``v``.  Building
    one keeps what every caller needs: ``rotation``, ``nbr_masks``
    (``nbr_masks[v]`` has bit w set iff vw is an edge), ``degrees`` and the
    faces, traced at construction so that the Euler check runs there.  Every
    adjacency question is answered from ``rotation`` and ``nbr_masks``;
    :func:`mask_bits` lists a mask's vertices in ascending order.  The other
    tables are built on first read and then kept on the instance:
    ``edge_set``, and the private ``_face_at`` (face of each directed
    edge).  They are properties over slots: a ``__getattr__`` would make
    every other attribute read slower.  ``with_outer_face`` copies share whatever their
    parent has built.  Instances are immutable.
    The slot ``_region`` holds a region graph's ``RegionTables``: None
    until a square-region lemma reads it (``region_tables``), so no other
    graph, and none of the corpus levels a process keeps, pays for one.
    ``is_triangulation`` is set iff every face is a triangle.  Use
    :func:`build` to construct from untrusted rotation tables.
    The graph edits write the new rotation from the parent's: the graph
    rebuilt from its faces, up to where each rotation starts.  What an edit
    does not touch keeps the parent's start, so an edited graph's outer
    face, face 0, is the parent's face 0 wherever that face survives.
    """

    __slots__ = ("n", "rotation", "outer_face_index", "faces", "nbr_masks",
                 "degrees", "is_triangulation", "connected",
                 # the tables built on first read; None until then
                 "_built_edge_set", "_built_face_at", "_region")

    def __init__(self, rotation, outer_face_index=0, require_connected=True):
        rotation = tuple(tuple(nbrs) for nbrs in rotation)
        n = len(rotation)
        masks = []
        for v, nbrs in enumerate(rotation):
            m = 0
            for w in nbrs:
                if w == v:
                    raise MultiEdge(f"loop at {v}")
                if not 0 <= w < n:
                    raise InconsistentRotation(f"vertex {w} out of range at {v}")
                m |= 1 << w
            if m.bit_count() != len(nbrs):
                raise MultiEdge(f"repeated neighbor at {v}")
            masks.append(m)
        for v in range(n):
            for w in rotation[v]:
                if not masks[w] >> v & 1:
                    raise InconsistentRotation(f"edge ({v},{w}) listed only at {v}")

        self.n = n
        self.rotation = rotation
        self.nbr_masks = tuple(masks)
        self.degrees = tuple(len(r) for r in rotation)
        self._built_edge_set = self._built_face_at = self._region = None

        full = (1 << n) - 1
        self.connected = _reach(self.nbr_masks, full & 1, full) == full
        if require_connected and not self.connected:
            raise DisconnectedGraph("graph is not connected")

        self.faces = self._trace_faces()
        if self.connected:
            # Euler's formula on the sphere; fails iff the rotation has genus > 0.
            # A lone vertex bounds one face that no directed edge traces.
            m = sum(self.degrees) // 2
            f = len(self.faces) or 1
            if n - m + f != 2:
                raise NonPlanarTrace(f"V-E+F = {n}-{m}+{f} != 2")
        self.is_triangulation = (
            self.connected and n >= 3 and all(len(f) == 3 for f in self.faces))
        if not 0 <= outer_face_index < max(1, len(self.faces)):
            raise ValueError("outer face index out of range")
        self.outer_face_index = outer_face_index

    # -- tables built on first read --

    @property
    def edge_set(self) -> frozenset[Edge]:
        if self._built_edge_set is None:
            self._built_edge_set = _edge_set(self)
        return self._built_edge_set

    @property
    def _face_at(self) -> dict[tuple[int, int], int]:
        if self._built_face_at is None:
            self._built_face_at = _face_table(self)
        return self._built_face_at

    # -- construction helpers --

    def _trace_faces(self):
        """Orbits of (u,v) -> (v, successor of u in rotation[v]).

        A face lists the heads of its directed edges in walk order, from the
        first edge in vertex and rotation order that it holds; ``seen[u][i]``
        marks directed edge (u, rotation[u][i]) as traced.
        """
        rotation = self.rotation
        seen = [[False] * len(nbrs) for nbrs in rotation]
        faces = []
        for u0, nbrs0 in enumerate(rotation):
            for i0 in range(len(nbrs0)):
                if seen[u0][i0]:
                    continue
                walk = []
                u, i = u0, i0
                while not seen[u][i]:
                    seen[u][i] = True
                    v = rotation[u][i]
                    walk.append(v)
                    nbrs = rotation[v]
                    i = nbrs.index(u) + 1
                    if i == len(nbrs):
                        i = 0
                    u = v
                faces.append(tuple(walk))
        return tuple(faces)

    # -- basic queries --

    def has_edge(self, u: int, v: int) -> bool:
        return self.nbr_masks[u] >> v & 1 == 1

    @property
    def outer_face(self) -> tuple[int, ...]:
        return self.faces[self.outer_face_index]

    def min_degree(self) -> int:
        return min(self.degrees)

    def face_index(self, vertices) -> int | None:
        """Lowest index of a face bounded by the cyclic sequence ``vertices``
        (up to rotation and reflection), or None when no face is.

        Such a face traces the first edge of ``vertices`` in one of its two
        directions, so only the faces on that edge are compared.
        """
        vs = tuple(vertices)
        face_at = self._face_at
        if len(vs) < 2 or (vs[0], vs[1]) not in face_at:
            return None
        want = canonical_cycle(vs)
        hits = [i for i in (face_at[(vs[0], vs[1])], face_at[(vs[1], vs[0])])
                if canonical_cycle(self.faces[i]) == want]
        return min(hits, default=None)

    def common_neighbors(self, u: int, v: int) -> frozenset[int]:
        return frozenset(mask_bits(self.nbr_masks[u] & self.nbr_masks[v]))

    def triangles(self) -> list[tuple[int, int, int]]:
        """All 3-cycles, as sorted vertex triples in ascending order."""
        masks = self.nbr_masks
        out = []
        for u, nbrs in enumerate(self.rotation):
            for v in sorted(nbrs):
                if v > u:
                    # the common neighbours above v, lowest first
                    above = masks[u] & masks[v] >> (v + 1) << (v + 1)
                    while above:
                        low = above & -above
                        out.append((u, v, low.bit_length() - 1))
                        above ^= low
        return out

    def __eq__(self, other):
        return (isinstance(other, PlaneGraph) and self.rotation == other.rotation
                and self.outer_face_index == other.outer_face_index)

    def __hash__(self):
        return hash((self.rotation, self.outer_face_index))

    def __repr__(self):
        kind = "triangulation" if self.is_triangulation else "plane graph"
        return f"<{kind} n={self.n} m={sum(self.degrees) // 2}>"

    # -- derived graphs --

    def rooted_at_face(self, face_vertices) -> PlaneGraph:
        """Same embedding with the face on these vertices as the outer face."""
        i = self.face_index(face_vertices)
        if i is None:
            raise ValueError(f"{tuple(face_vertices)} is not a face")
        return self.with_outer_face(i)

    def with_outer_face(self, index: int) -> PlaneGraph:
        """Same embedding with face ``index`` as the outer face.

        The copy shares the parent's embedding and every table the parent
        has built so far, its ``RegionTables`` too; it builds the others
        itself when they are read.
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


def _face_walk(rotation, exclude: int, u: int, v: int):
    """The face of directed edge (u, v) of the graph minus the bitmask
    ``exclude``, traced on the full ``rotation`` with excluded neighbours
    skipped: the heads of its directed edges from v round to u, and whether
    a step skipped an excluded vertex."""
    walk = []
    skipped = False
    start = (u, v)
    while True:
        walk.append(v)
        nbrs = rotation[v]
        d = len(nbrs)
        i = nbrs.index(u) + 1
        # u itself is kept, so the scan stops
        while exclude >> nbrs[i % d] & 1:
            i += 1
            skipped = True
        u, v = v, nbrs[i % d]
        if (u, v) == start:
            return walk, skipped


def _first_traced(rotation, walk) -> tuple[int, ...]:
    """``walk`` turned to start at its directed edge (walk[j - 1], walk[j])
    that comes first in vertex and rotation order."""
    j = min(range(len(walk)),
            key=lambda j: (walk[j - 1], rotation[walk[j - 1]].index(walk[j])))
    return tuple(walk[j:]) + tuple(walk[:j])


def restriction_faces(g: PlaneGraph, exclude: int) -> list[tuple[tuple[int, ...], bool]]:
    """The faces of g minus the vertices of the bitmask ``exclude``, read
    off g's rotation with the excluded neighbours skipped: the faces of
    ``g.delete_vertices(...)``, in its order and each from its first edge,
    but in g's ids and with no graph built.

    Each face comes with whether its walk skipped an excluded vertex.  A
    face that skipped none is a face of g.  One that skipped is not, except
    on a component that is a bare cycle bounding a face of g: its other
    side skips, yet ``g.face_index`` finds the same cycle as that face.
    """
    rotation = g.rotation
    seen = set()
    out = []
    for u, nbrs in enumerate(rotation):
        if exclude >> u & 1:
            continue
        for v in nbrs:
            if exclude >> v & 1 or (u, v) in seen:
                continue
            walk, skipped = _face_walk(rotation, exclude, u, v)
            seen.update(zip(walk[-1:] + walk[:-1], walk))
            out.append((tuple(walk), skipped))
    return out


class RegionTables:
    """What the square-region lemmas read of one region graph more than
    once: its 3-cycles (``triangles``, as ``PlaneGraph.triangles`` lists
    them), and per bitmask ``exclude`` of dropped vertices the faces
    (``faces``, from ``restriction_faces``) and the blocks and cut
    vertices (``blocks``, from ``_blocks_and_cuts``) of g minus them.
    ``square_fault`` is None until ``tutte._require_square_region`` asks,
    then the hypothesis the region fails, or "" when it holds: with the
    outer cycle a 4-cycle, both the near-triangulation and the
    separating-triangle answer are the graph's own.

    None of these depends on the outer face, so every labelling of a
    region, and every peel level or block that drops the same vertices,
    reads one entry.  A region graph is short-lived; a corpus graph is
    kept for the life of the process (``lru_cache``) and never gets one.
    """

    __slots__ = ("triangles", "faces", "blocks", "square_fault")

    def __init__(self, g: PlaneGraph):
        self.triangles = g.triangles()
        self.faces: dict[int, list[tuple[tuple[int, ...], bool]]] = {}
        self.blocks: dict[int, tuple[list[frozenset[Edge]], set[int]]] = {}
        self.square_fault: str | None = None


def region_tables(g: PlaneGraph) -> RegionTables:
    """g's ``RegionTables``, made on the first call and kept on g (and on
    the ``with_outer_face`` copies taken after it)."""
    if g._region is None:
        g._region = RegionTables(g)
    return g._region


def mask_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def vertex_mask(vertices) -> int:
    """The bitmask with bit v set for each v in ``vertices``."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _reach(masks, start: int, within: int) -> int:
    """The vertices (as a mask) that paths inside ``within`` join to those
    of ``start``, a submask of ``within``: breadth first, a layer at a time."""
    seen = frontier = start
    while frontier:
        layer = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            layer |= masks[low.bit_length() - 1]
        frontier = layer & within & ~seen
        seen |= frontier
    return seen


def _edge_set(g: PlaneGraph) -> frozenset[Edge]:
    return frozenset(edge_key(v, w) for v in range(g.n) for w in g.rotation[v])


def _face_table(g: PlaneGraph) -> dict[tuple[int, int], int]:
    # face f holds the directed edges (f[j - 1], f[j]), from j = 0 in the
    # order they were traced
    return {(f[j - 1], f[j]): i for i, f in enumerate(g.faces) for j in range(len(f))}


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

def _connected_after_removal(g: PlaneGraph, removed: int) -> bool:
    """Whether g minus the vertices of the bitmask ``removed`` is connected."""
    rest = ((1 << g.n) - 1) & ~removed
    return _reach(g.nbr_masks, rest & -rest, rest) == rest


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
            if not _connected_after_removal(g, vertex_mask(cut)):
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
    if all(d == n - 1 for d in g.degrees):
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
            if g.has_edge(s, t):
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
    ``graph`` is the graph given when the cycle bounds its outer face
    already, else its ``with_outer_face`` copy; so the labellings of one
    region share one graph and the ``RegionTables`` on it.
    """

    __slots__ = ("graph", "outer_cycle", "origin")

    def __init__(self, graph: PlaneGraph, outer_cycle: Cycle, origin=None):
        outer_cycle.validate(graph)
        face_index = graph.face_index(outer_cycle.vertices)
        if face_index is None:
            raise NotACycle(f"{outer_cycle.vertices} does not bound a face")
        self.graph = (graph if face_index == graph.outer_face_index
                      else graph.with_outer_face(face_index))
        self.outer_cycle = outer_cycle
        self.origin = tuple(origin) if origin is not None else None

    @property
    def is_near_triangulation(self) -> bool:
        out = self.graph.outer_face_index
        return all(len(f) == 3 for i, f in enumerate(self.graph.faces) if i != out)

    def to_origin(self, v: int) -> int:
        return v if self.origin is None else self.origin[v]

    def __repr__(self):
        return (f"<near triangulation n={self.graph.n} "
                f"outer={self.outer_cycle.vertices}>")


def _side_faces(g: PlaneGraph, c: Cycle) -> tuple[set[int], set[int]]:
    """Partition face indices into (side containing the outer face, other
    side): the faces reached from the outer face without crossing ``c``."""
    ce = c.edges()
    face_at = g._face_at
    outside = {g.outer_face_index}
    stack = [g.outer_face_index]
    while stack:
        f = g.faces[stack.pop()]
        for a, b in zip(f, f[1:] + f[:1]):
            j = face_at[(b, a)]
            if j not in outside and edge_key(a, b) not in ce:
                outside.add(j)
                stack.append(j)
    inside = set(range(len(g.faces))) - outside
    if not inside:
        raise NotACycle(f"{c.vertices} does not separate the sphere into two sides")
    return outside, inside


def disc_faces(g: PlaneGraph, c: Cycle, v: int | None = None) -> tuple[set[int], int]:
    """The face indices inside ``c`` and the vertex bitmask of its closed
    disc (``c`` and everything inside it).

    The inside is the side away from the designated outer face or, given a
    vertex ``v`` not on ``c``, the side holding ``v``.  Raises NotACycle when
    ``c`` is not a cycle of g.
    """
    c.validate(g)
    on_cycle = vertex_mask(c.vertices)
    if v is not None and on_cycle >> v & 1:
        raise ValueError(f"vertex {v} lies on the cycle")
    outside, inside = _side_faces(g, c)
    for faces in (inside, outside):
        disc = on_cycle
        for i in faces:
            disc |= vertex_mask(g.faces[i])
        if v is None or disc >> v & 1:
            return faces, disc
    raise ValueError(f"vertex {v} is not a vertex of the graph")


def closure_of_disc(g: PlaneGraph, c: Cycle, inside: set[int], disc: int) -> NearTriangulation:
    """The closure of ``c`` from its side as ``disc_faces`` gives it: the
    vertices of ``disc`` and the edges with a face in ``inside``, with
    ``c`` as its outer cycle and the id mapping back to ``g``.

    It is not g restricted to the disc's vertices: an edge of g drawn
    outside the disc between two of its vertices is left out.  The replays
    rely on that: in a double wheel the closure of a square u-v-w-x around
    the rim leaves out the chord u-w, and only then does the region minus
    v, x fall into the run of 2-vertex blocks that ``_find_run`` looks for.
    """
    keep = mask_bits(disc)
    relabel = {old: new for new, old in enumerate(keep)}
    face_at = g._face_at
    rotation = [tuple(relabel[w] for w in g.rotation[v]
                      if face_at[(v, w)] in inside or face_at[(w, v)] in inside)
                for v in keep]
    cyc = Cycle(tuple(relabel[v] for v in c.vertices))
    return NearTriangulation(PlaneGraph(rotation), cyc, origin=keep)


def closure_containing(g: PlaneGraph, c: Cycle, v: int) -> NearTriangulation:
    """Closure of ``c`` on the side containing vertex ``v`` (not on ``c``)."""
    return closure_of_disc(g, c, *disc_faces(g, c, v))


def contract_interior(g: PlaneGraph, c: Cycle):
    """Contract everything strictly inside ``c`` to one new vertex.

    Returns ``(graph, new_vertex, origin)`` where ``origin[new_id]`` is the
    old id for kept vertices and ``None`` for the new vertex.  The new vertex
    is adjacent to exactly the cycle vertices that had interior neighbors.
    g's rotation is edited (``_merge``), up to where each rotation starts.
    """
    return _contract_disc(g, c, *disc_faces(g, c))


def contract_interior_containing(g: PlaneGraph, c: Cycle, v: int):
    """``contract_interior`` on the side of ``c`` holding vertex ``v``."""
    return _contract_disc(g, c, *disc_faces(g, c, v))


def _contract_disc(g: PlaneGraph, c: Cycle, inside: set[int], disc: int):
    inner = disc & ~vertex_mask(c.vertices)
    if not inner:
        raise EmptyInterior(f"{c.vertices} bounds a face")
    if _reach(g.nbr_masks, inner & -inner, inner) != inner:
        raise DisconnectedInterior(f"interior of {c.vertices} is disconnected")
    if sum(1 for v in c.vertices if g.nbr_masks[v] & inner) < 2:
        raise DisconnectedInterior("interior attaches to fewer than 2 cycle vertices")
    return _merge(g, inner, inside)


def contract_edge(g: PlaneGraph, u: int, v: int):
    """Contract edge uv of a triangulation (endpoints with 2 common neighbors).

    Returns ``(graph, merged_vertex, origin)`` with ``origin[new_id]`` the old
    id, and ``None`` marking the merged vertex.  g's rotation is edited
    (``_merge``), up to where each rotation starts.
    """
    if not g.has_edge(u, v):
        raise NotACycle(f"{u}-{v} is not an edge")
    if len(g.common_neighbors(u, v)) != 2:
        raise NotContractible(f"{u}-{v} has {len(g.common_neighbors(u, v))} common neighbors")
    return _merge(g, 1 << u | 1 << v)


def _merge(g: PlaneGraph, merged: int, inside=frozenset()):
    """Merge the connected vertex set of the bitmask ``merged`` into one new
    last vertex: ``(graph, new vertex, origin)``.

    Each kept vertex keeps g's rotation, relabelled and starting where g's
    starts, with each run of merged neighbours made one entry for the new
    vertex and the edges whose two faces are both in ``inside`` dropped.
    The new vertex's rotation comes from face walks: the face leaving it
    towards a neighbour a returns to it from the neighbour that a follows
    around it.
    """
    keep = [v for v in range(g.n) if not merged >> v & 1]
    star = len(keep)
    relabel = {old: new for new, old in enumerate(keep)}
    face_at = g._face_at if inside else None
    rotation = []
    for v in keep:
        out = []
        for w in g.rotation[v]:
            if merged >> w & 1:
                if not out or out[-1] != star:
                    out.append(star)
            elif not (inside and face_at[(v, w)] in inside
                      and face_at[(w, v)] in inside):
                out.append(relabel[w])
        if len(out) > 1 and out[0] == out[-1] == star:
            out.pop()
        rotation.append(tuple(out))
    succ = {}
    for a, nbrs in enumerate(rotation):
        if star in nbrs:
            u, v = star, a
            while v != star:
                around = rotation[v]
                u, v = v, around[(around.index(u) + 1) % len(around)]
            succ[u] = a
    around = [min(succ)]
    for _ in range(len(succ) - 1):
        around.append(succ[around[-1]])
    rotation.append(tuple(around))
    return build(rotation), star, keep + [None]


def add_edge_in_face(g: PlaneGraph, u: int, v: int) -> PlaneGraph:
    """Add chord uv inside the first face containing both (splits that face).

    Each end goes into the other's rotation right after the vertex the face
    enters it from; no other rotation changes.
    """
    if g.has_edge(u, v):
        raise MultiEdge(f"{u}-{v} already present")
    for f in g.faces:
        if u in f and v in f:
            walk = f[f.index(u):] + f[:f.index(u)]
            return build(_insert_edge(g.rotation, u, walk[-1], v,
                                      walk[walk.index(v) - 1]))
    raise NotACycle(f"no face contains both {u} and {v}")


def _insert_edge(rotation, u: int, after_u: int, v: int, after_v: int) -> list:
    """``rotation`` with v put right after ``after_u`` around u and u right
    after ``after_v`` around v: edge uv drawn through the face that enters
    u from ``after_u`` and v from ``after_v``."""
    rotation = list(rotation)
    for a, after, b in ((u, after_u, v), (v, after_v, u)):
        nbrs = rotation[a]
        k = nbrs.index(after) + 1
        rotation[a] = nbrs[:k] + (b,) + nbrs[k:]
    return rotation


# ---------------------------------------------------------------------------
# bridges and blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BridgeInfo:
    """One H-bridge: a chord of H, or a component of G-H plus its legs."""

    vertices: frozenset[int]
    edges: frozenset[Edge]
    attachments: frozenset[int]


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
            for w in g.rotation[v]:
                if w not in hv and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        legs = set()
        edges = set()
        for v in comp:
            for w in g.rotation[v]:
                if w in hv:
                    legs.add(w)
                    edges.add(edge_key(v, w))
                elif w in comp:
                    edges.add(edge_key(v, w))
        out.append(BridgeInfo(frozenset(comp | legs), frozenset(edges),
                              frozenset(legs)))
    return BridgeDecomposition(hv, he, tuple(out))


def _blocks_and_cuts(g: PlaneGraph, exclude: int = 0):
    """Biconnected components (as edge sets) and articulation vertices of
    g minus the vertices of the bitmask ``exclude``, in g's ids."""
    disc = [0] * g.n
    low = [0] * g.n
    timer = [1]
    stack: list[Edge] = []
    blocks: list[frozenset[Edge]] = []
    cuts: set[int] = set()

    def dfs(root):
        work = [(root, None, iter(g.rotation[root]))]
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        children = {root: 0}
        while work:
            v, parent, it = work[-1]
            advanced = False
            for w in it:
                if w == parent or exclude >> w & 1:
                    continue
                if disc[w] == 0:
                    stack.append(edge_key(v, w))
                    disc[w] = low[w] = timer[0]
                    timer[0] += 1
                    children[v] = children.get(v, 0) + 1
                    children[w] = 0
                    work.append((w, v, iter(g.rotation[w])))
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
        if disc[v] == 0 and not exclude >> v & 1 and g.nbr_masks[v] & ~exclude:
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
    cut_vertices: tuple[int, ...]
    endpoints: tuple[int, ...]

    def __len__(self):
        return len(self.blocks)


def block_chain(g: PlaneGraph, a: int, b: int, exclude: int = 0,
                edge_blocks=None) -> BlockChain:
    """Order the blocks of g minus the vertices of the bitmask ``exclude``
    along the a-b path of the block tree.  ``edge_blocks``, when the caller
    holds them, are the blocks ``_blocks_and_cuts`` gives for that graph.

    Raises NotAChain if any block lies off that path, or if a or b sits in
    the middle of the chain.
    """
    if a == b:
        raise NotAChain("endpoints coincide")
    if not _connected_after_removal(g, exclude):
        raise NotAChain("graph is not connected")
    if edge_blocks is None:
        edge_blocks, _cuts = _blocks_and_cuts(g, exclude)
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
                      tuple(ends[1:-1]), tuple(ends))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _code_from(g: PlaneGraph, u: int, v: int, direction: int, bound=None):
    """The BFS code of g from directed edge (u, v), turning one way round
    each vertex; None as soon as a finished vertex shows it above ``bound``."""
    label = [0] * g.n
    label[u] = 1
    label[v] = 2
    nxt = 3
    order = [u]
    entry = [0] * g.n
    entry[u] = v
    code = []
    append = code.append
    tied = bound is not None
    for w in order:
        rot = g.rotation[w]
        start = rot.index(entry[w])
        if direction == 1:
            turn = rot[start:] + rot[:start]
        else:
            turn = rot[start::-1] + rot[:start:-1]
        first = len(code)
        for nb in turn:
            c = label[nb]
            if not c:
                c = label[nb] = nxt
                nxt += 1
                order.append(nb)
                entry[nb] = w
            append(c)
        append(0)
        if tied:
            head, ref = tuple(code[first:]), bound[first:len(code)]
            if head != ref:
                if head > ref:
                    return None
                tied = False
    return tuple(code)


def canonical_code(g: PlaneGraph, roots=None) -> tuple[int, ...]:
    """Canonical form of the embedding up to relabeling and reflection.

    Minimum BFS code over rooted traversals; for 3-connected planar graphs
    (all triangulations here) equality of codes is graph isomorphism.
    ``roots`` restricts the starting directed edges (e.g. to the outer face).
    Only roots of minimum (deg u, deg v) are tried, and a traversal stops
    once it is above the best code so far.
    """
    if g.n == 1:
        return (0,)
    degs = g.degrees
    if roots is None:
        low = min(d for d in degs if d)
        candidates = [(u, v) for u in range(g.n) if degs[u] == low
                      for v in g.rotation[u]]
    else:
        candidates = list(roots)
    best_key = min((degs[u], degs[v]) for u, v in candidates)
    best = None
    for u, v in candidates:
        if (degs[u], degs[v]) != best_key:
            continue
        for direction in (1, -1):
            code = _code_from(g, u, v, direction, best)
            if code is not None and (best is None or code < best):
                best = code
    return best


def triangulation_from_code(code) -> PlaneGraph:
    """The triangulation whose ``canonical_code`` is ``code``, numbered by
    the traversal that wrote it: vertex label - 1, each rotation in the
    traversal's turning direction (so reversed when it turned the other way),
    starting at the neighbor it was entered from.

    The code lists the turn of every vertex but label 2, which is labeled
    before the traversal and never queued.  Its rotation follows from the
    others: in a triangulation the neighbor after x around it is the one
    before it around x.  ``build`` validates the result.
    """
    blocks, block = [], []
    for c in code:
        if c:
            block.append(c - 1)
        else:
            blocks.append(tuple(block))
            block = []
    rotation = [blocks[0], ()] + blocks[1:]
    link = [0]
    for _ in range(len(rotation)):
        around = rotation[link[-1]]
        after = around[around.index(1) - 1]
        if after == 0:
            break
        link.append(after)
    rotation[1] = tuple(link)
    return build(rotation)


def is_isomorphic(g1: PlaneGraph, g2: PlaneGraph) -> bool:
    """Embedding isomorphism (= graph isomorphism for 3-connected inputs)."""
    # equal degree sequences mean equal vertex and edge counts
    if sorted(g1.degrees) != sorted(g2.degrees):
        return False
    return canonical_code(g1) == canonical_code(g2)
