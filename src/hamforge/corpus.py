"""Generation and ingestion of the graph instances the experiments run on."""

from __future__ import annotations

import functools
import io
import itertools
import random
from dataclasses import dataclass

from .errors import (
    BadHeader,
    BudgetExceeded,
    FilterUnsatisfiableTimeout,
    HamforgeError,
    TooSmall,
    TruncatedRecord,
    ValidationFailed,
)
from .plane_graph import (
    PlaneGraph,
    _insert_edge,
    build,
    canonical_code,
    edge_key,
    is_k_connected,
    plane_graph_from_faces,
    triangulation_from_code,
)
from .structures import (
    is_four_connected_triangulation,
    link_region_has_separating_triangle,
)

PLANAR_CODE_HEADER = b">>planar_code<<"


# exhaustive generation stops above this many vertices (BudgetExceeded)
MAX_N = 14
# random generation: FLIP_BURN_IN * n * n flips before rejection sampling
FLIP_BURN_IN = 10


@dataclass(frozen=True)
class CorpusFilter:
    """Predicate describing which triangulations a run should keep."""

    min_connectivity: int = 3
    min_degree: int = 3

    def __post_init__(self):
        if self.min_connectivity not in (3, 4):
            raise ValueError("min_connectivity must be 3 or 4")

    def matches(self, g: PlaneGraph) -> bool:
        if g.min_degree() < self.min_degree:
            return False
        if self.min_connectivity == 4 and g.is_triangulation:
            return is_four_connected_triangulation(g)
        return is_k_connected(g, self.min_connectivity)


# ---------------------------------------------------------------------------
# named instances
# ---------------------------------------------------------------------------

def double_wheel(n: int) -> PlaneGraph:
    """Cycle of length n-2 plus two apexes joined to every rim vertex.

    Rim vertices are 0..n-3, the apexes are n-2 and n-1.
    """
    if n < 6:
        raise TooSmall(f"double wheel needs n >= 6, got {n}")
    m = n - 2
    a, b = m, m + 1
    faces = []
    for i in range(m):
        j = (i + 1) % m
        faces.append((a, i, j))
        faces.append((b, j, i))
    return plane_graph_from_faces(faces)


def octahedron() -> PlaneGraph:
    return double_wheel(6)


def k4() -> PlaneGraph:
    return plane_graph_from_faces([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])


def icosahedron() -> PlaneGraph:
    """The unique 4-connected triangulation on 12 vertices with min degree 5."""
    top, bottom = 0, 11
    up = [1, 2, 3, 4, 5]
    lo = [6, 7, 8, 9, 10]
    faces = []
    for i in range(5):
        j = (i + 1) % 5
        faces.append((top, up[i], up[j]))
        faces.append((bottom, lo[j], lo[i]))
        faces.append((up[i], lo[i], up[j]))
        faces.append((up[j], lo[i], lo[j]))
    return plane_graph_from_faces(faces)


def cycle_graph(k: int) -> PlaneGraph:
    if k < 3:
        raise TooSmall("cycle needs k >= 3")
    rotation = [((v - 1) % k, (v + 1) % k) for v in range(k)]
    return build(rotation)


def wheel(k: int) -> PlaneGraph:
    """Hub k joined to a rim cycle 0..k-1; the rim bounds the outer face."""
    if k < 3:
        raise TooSmall("wheel rim needs k >= 3")
    hub = k
    faces = [(hub, i, (i + 1) % k) for i in range(k)]
    faces.append(tuple(reversed(range(k))))
    return plane_graph_from_faces(faces, outer=tuple(range(k)))


# ---------------------------------------------------------------------------
# planar_code
# ---------------------------------------------------------------------------

def write_planar_code(graphs, stream) -> None:
    """Write graphs in planar_code (header, then 1-based, byte-per-value,
    0-terminated rotations)."""
    stream.write(PLANAR_CODE_HEADER)
    for g in graphs:
        if g.n > 255:
            raise ValueError("planar_code byte encoding needs n <= 255")
        rec = bytearray([g.n])
        for v in range(g.n):
            rec.extend(w + 1 for w in g.rotation[v])
            rec.append(0)
        stream.write(bytes(rec))


def graph_to_planar_code(g: PlaneGraph) -> bytes:
    buf = io.BytesIO()
    write_planar_code([g], buf)
    return buf.getvalue()


def read_planar_code(stream):
    """Stream plane graphs from planar_code; constant memory per graph.

    The ASCII header is optional.  Raises BadHeader, TruncatedRecord, or
    ValidationFailed(index) wrapping the underlying build error.
    """
    first = stream.read(1)
    if first == b"":
        return
    if first == b">":
        rest = stream.read(len(PLANAR_CODE_HEADER) - 1)
        if first + rest != PLANAR_CODE_HEADER:
            raise BadHeader(f"unrecognized header {first + rest!r}")
        first = None
    index = 0
    while True:
        if first is not None:
            head, first = first, None
        else:
            head = stream.read(1)
        if head == b"":
            return
        n = head[0]
        if n == 0:
            raise ValidationFailed(index, "record with 0 vertices")
        rotation = []
        for _v in range(n):
            nbrs = []
            while True:
                byte = stream.read(1)
                if byte == b"":
                    raise TruncatedRecord(f"record {index} ended mid-rotation")
                val = byte[0]
                if val == 0:
                    break
                nbrs.append(val - 1)
            rotation.append(tuple(nbrs))
        try:
            g = build(rotation)
        except HamforgeError as exc:
            raise ValidationFailed(index, exc) from exc
        yield g
        index += 1


# ---------------------------------------------------------------------------
# exhaustive generation by vertex splitting
# ---------------------------------------------------------------------------

def split_vertex(g: PlaneGraph, v: int, i: int, j: int) -> PlaneGraph:
    """Split v into an adjacent pair, pivoting at rotation positions i < j.

    The neighbors from position i to j (clockwise) go to the reused id v, the
    rest to a new vertex n; both keep the two pivots.  Faces stay triangles.

    The generator never builds a child this way (``_split_codes``); the
    test oracles build children with it, and ``perfbench/spans.py`` traces
    it as the generation layer.
    """
    rot = g.rotation[v]
    d = len(rot)
    if not (0 <= i < j < d):
        raise ValueError("need 0 <= i < j < deg(v)")
    w_i, w_j = rot[i], rot[j]
    new = g.n
    arc_a = [rot[k] for k in range(i, j + 1)]              # v keeps these
    arc_b = [rot[k % d] for k in range(j, i + d + 1)]      # new vertex gets these
    new_faces = [f for f in g.faces if v not in f]
    new_faces += [(v, a, b) for a, b in zip(arc_a, arc_a[1:])]
    new_faces += [(new, a, b) for a, b in zip(arc_b, arc_b[1:])]
    new_faces += [(v, new, w_i), (new, v, w_j)]
    return plane_graph_from_faces(new_faces)


class _RotationView:
    """The fields of a PlaneGraph that ``canonical_code`` reads, and no more."""

    __slots__ = ("n", "rotation", "degrees")

    def __init__(self, rotation):
        self.n = len(rotation)
        self.rotation = rotation
        self.degrees = tuple(map(len, rotation))


def _split_rotation(g: PlaneGraph, v: int, i: int, j: int) -> _RotationView:
    """The rotation system of ``split_vertex(g, v, i, j)``, up to where each
    rotation starts, edited from g's instead of traced from faces.

    Only v, the new vertex, the two pivots and the neighbors that move to the
    new vertex get new rotations; every other vertex shares g's entries.
    """
    rot = g.rotation[v]
    new = g.n
    rotation = list(g.rotation)
    rotation[v] = rot[i:j + 1] + (new,)
    rotation.append(rot[j:] + rot[:i + 1] + (v,))
    for w in rot[j + 1:] + rot[:i]:
        around = rotation[w]
        k = around.index(v)
        rotation[w] = around[:k] + (new,) + around[k + 1:]
    # clockwise around pivot rot[i] the new vertex follows v; around rot[j]
    # it precedes v
    for w, after in ((rot[i], 1), (rot[j], 0)):
        around = rotation[w]
        k = around.index(v) + after
        rotation[w] = around[:k] + (new,) + around[k:]
    return _RotationView(rotation)


def _vertex_splits(d: int, k: int = 3):
    """The pivot positions (i, j) of a vertex of degree d whose split leaves
    it (j - i + 2 neighbors) and the new vertex (d - j + i + 2) at least k
    neighbors each."""
    for i in range(d):
        for j in range(i + k - 2, min(d, i + d - k + 3)):
            yield i, j


def _rank_key(dx: int, dy: int, dab: int) -> int:
    """The rank of a contractible edge xy of a triangulation with n >= 5,
    whose ends have exactly the two common neighbors a and b, as one int:
    (deg x + deg y, -|deg x - deg y|, deg a + deg b) in lexicographic order.
    For a fixed degree sum, -|deg x - deg y| grows with min(deg x, deg y),
    so that is the middle field.  Each field is below 1024 for degrees
    below 512.  The rank is the same on isomorphic and mirrored graphs."""
    return (dx + dy) << 20 | (dx if dx < dy else dy) << 10 | dab


def _two_bits(mask: int) -> tuple[int, int]:
    """The two vertices of a mask with two bits set."""
    low = mask & -mask
    return low.bit_length() - 1, (mask ^ low).bit_length() - 1


def _contraction_separates(masks, x: int, y: int) -> bool:
    """Whether contracting the contractible edge xy of the triangulation
    with neighbor masks ``masks`` makes a new triangle, one joining a
    neighbor of x only to a neighbor of y only.  It bounds no face, so it
    separates.  Every other triangle of g/xy is one of g, so xy of a
    4-connected g is 4-contractible (g/xy is 4-connected) exactly when this
    is False."""
    only_x = masks[x] & ~masks[y] & ~(1 << y)
    only_y = masks[y] & ~masks[x] & ~(1 << x)
    while only_x:
        low = only_x & -only_x
        if masks[low.bit_length() - 1] & only_y:
            return True
        only_x ^= low
    return False


def _ranked_edges(g: PlaneGraph, k: int) -> list:
    """The contractible edges xy (x < y) of a triangulation g, highest
    ``_rank_key`` first, as (key, ends mask, common-neighbors mask, degree
    sum of the common neighbors, x, y, separates): ``separates`` is
    ``_contraction_separates`` for k = 4 and False for k = 3, where every
    contractible edge counts."""
    masks, degs = g.nbr_masks, g.degrees
    out = []
    for x, around in enumerate(g.rotation):
        for y in around:
            if y > x:
                common = masks[x] & masks[y]
                if common.bit_count() == 2:
                    a, b = _two_bits(common)
                    dab = degs[a] + degs[b]
                    out.append((_rank_key(degs[x], degs[y], dab),
                                1 << x | 1 << y, common, dab, x, y,
                                k == 4 and _contraction_separates(masks, x, y)))
    out.sort(reverse=True)
    return out


def _winning_splits(parent: PlaneGraph, ranked, v: int, k: int = 3):
    """The splits (i, j) of v, in ``_vertex_splits`` order, whose split edge
    (v, new) no k-contractible edge of ``split_vertex(parent, v, i, j)``
    (k = 3: contractible) outranks, decided without building the child;
    ``ranked`` is ``_ranked_edges(parent, k)``.

    The split edge has degree sum deg v + 4, ends of degree j - i + 2 and
    deg v - j + i + 2, and the pivots (one more neighbor each) as its two
    common neighbors.  The parent's edges that a split of v leaves alone
    are decided here, from ``ranked``, and the others by
    ``_child_split_wins`` (why that is exact: ``_split_codes``).  A child
    edge left alone gains at most one in its degree sum, so only those
    with a degree sum of deg v + 3 or more in the parent are read.
    """
    rot = parent.rotation[v]
    degs = parent.degrees
    d = len(rot)
    v_bit = 1 << v
    around_v = parent.nbr_masks[v]
    floor = (d + 3) << 20
    alone = []
    for entry in ranked:
        if entry[0] < floor:
            break
        ends = entry[1]
        if not (ends & v_bit or ends & around_v == ends):
            alone.append(entry)
    for i, j in _vertex_splits(d, k):
        w_i, w_j = rot[i], rot[j]
        pivots = 1 << w_i | 1 << w_j
        best = _rank_key(j - i + 2, d - j + i + 2, degs[w_i] + degs[w_j] + 2)
        recheck = []
        for key, ends, common, dab, x, y, separates in alone:
            bonus = (common & pivots).bit_count()
            if ends & pivots:
                in_child = _rank_key(degs[x] + (pivots >> x & 1),
                                     degs[y] + (pivots >> y & 1), dab + bonus)
            else:
                in_child = key + bonus
            if in_child > best:
                if not separates:
                    break
                recheck.append((x, y))
        else:
            if _child_split_wins(parent, v, i, j, k, best, recheck):
                yield i, j


def _child_split_wins(parent: PlaneGraph, v: int, i: int, j: int, k: int,
                      best: int, recheck) -> bool:
    """The rest of a decision of ``_winning_splits``, on the neighbor masks
    of the child edited from the parent's (only v, its neighbors and the
    new vertex change): whether none of the ``recheck`` edges is
    4-contractible in the child, and no k-contractible edge with both ends
    among v, the new vertex and the neighbors of v outranks the split edge,
    whose rank key is ``best``."""
    rot = parent.rotation[v]
    d = len(rot)
    w_i, w_j = rot[i], rot[j]
    new = parent.n
    v_bit, new_bit = 1 << v, 1 << new
    kept = 0
    for w in rot[i:j + 1]:
        kept |= 1 << w
    around_v = parent.nbr_masks[v]
    masks = list(parent.nbr_masks)
    masks[v] = kept | new_bit
    masks.append(around_v ^ kept | 1 << w_i | 1 << w_j | v_bit)
    for w in rot[j + 1:] + rot[:i]:
        masks[w] ^= v_bit | new_bit
    masks[w_i] |= new_bit
    masks[w_j] |= new_bit
    for x, y in recheck:
        if not _contraction_separates(masks, x, y):
            return False
    degs = list(parent.degrees)
    degs[v] = j - i + 2
    degs.append(d - j + i + 2)
    degs[w_i] += 1
    degs[w_j] += 1

    # every edge with both ends among v, new and v's neighbors, once
    scope = around_v | v_bit | new_bit
    done = 0
    for x in (v, new) + rot:
        dx, at_x = degs[x], masks[x]
        reach = d + 4 - dx       # a lower degree cannot reach the split edge
        others = at_x & scope & ~done
        done |= 1 << x
        while others:
            low = others & -others
            others ^= low
            y = low.bit_length() - 1
            if degs[y] >= reach:
                common = at_x & masks[y]
                if common.bit_count() == 2:
                    a, b = _two_bits(common)
                    if (_rank_key(dx, degs[y], degs[a] + degs[b]) > best and (
                            k == 3 or not _contraction_separates(masks, x, y))):
                        return False
    return True


def _split_codes(parents, k: int) -> set:
    """The one step both exhaustive levels grow by: the canonical codes of
    the children of the splits (v, i, j) of each parent, (i, j) from
    ``_vertex_splits``, whose split edge no k-contractible edge outranks
    (``_winning_splits``).  A child's rotation system (``_split_rotation``)
    is built, and its code taken, only when its split wins.

    Each split is decided from its parent.  Call an edge xy of the child
    *left alone* when neither end is v or the new vertex, and not both
    ends are neighbors of v in the parent.  Such an edge is one of the
    parent's, and the split keeps what its rank reads:

    * x and y keep their degrees, but for a pivot, which gains the new
      vertex: only v, the new vertex and the pivots change degree (a
      neighbor that moves to the new vertex trades v for it).  At most one
      end is a pivot, since both pivots are neighbors of v.
    * x and y keep their common neighbors: neither v nor the new vertex is
      one, since both ends would then be neighbors of v, and no other edge
      at x or y changes.  So xy is contractible in the child exactly when
      it is in the parent.  Its rank there is its parent rank with the
      degree of a pivot end raised by one, and one more in the last field
      for each pivot among its two common neighbors.  It is never lower,
      and its degree sum rises by one at most.
    * For k = 4, an edge 4-contractible in the parent stays so.  A triangle
      that contracting xy makes in the child is a path x-p-q-y, p a
      neighbor of x only and q of y only.  If neither p nor q is v or the
      new vertex, the parent has the same path.  If p is v or the new
      vertex, x is a neighbor of v in the parent, so y is not, and q, a
      neighbor of p and of y, is a neighbor of v in the parent other than
      x: the parent has the path x-v-q-y, with v not at y and q not at x.
      The same holds with q in place of p, and {p, q} is not {v, new},
      since then both x and y would be neighbors of v.  The converse
      fails: a path x-v-q-y of the parent is lost when q moves to the new
      vertex.  So an edge that separates in the parent and outranks the
      split edge is tested again on the child.

    So ``_ranked_edges`` ranks the parent's contractible edges once, and a
    split loses at once when an edge it leaves alone outranks its split
    edge.  Only the edges not left alone, those with both ends among v,
    the new vertex and the neighbors of v, are read off the child's
    neighbor masks (``_child_split_wins``).  Through n = 11 the parent
    rejects 22,735 of the 29,444 splits of the full levels, and 2,158 win.
    """
    codes = set()
    for parent in parents:
        ranked = _ranked_edges(parent, k)
        for v in range(parent.n):
            for i, j in _winning_splits(parent, ranked, v, k):
                codes.add(canonical_code(_split_rotation(parent, v, i, j)))
    return codes


@functools.lru_cache(maxsize=None)
def _triangulation_level(n: int) -> tuple[PlaneGraph, ...]:
    """All planar triangulations on n vertices up to isomorphism, sorted by
    canonical code, each numbered by the traversal that gives its code
    (``triangulation_from_code``), so a class's graph does not depend on
    which split child reached it.

    A split child of level n - 1 is kept only when its split edge has the
    highest rank (``_rank_key``) of its contractible edges.  That is
    decided from the parent, without the child: an edge the split leaves
    alone (no end at v or the new vertex, not both ends at neighbors of v)
    keeps its two common neighbors and so its contractibility, and its
    rank changes only by one more in the degree of an end that is a pivot
    and one more in the last field per pivot among those common neighbors
    (proof in ``_split_codes``).  Only the edges among v, the new vertex
    and the neighbors of v are read off the child's neighbor masks, and
    only kept children get a rotation system and a ``canonical_code``.
    The decision is the one a scan of the built child makes, so it keeps
    the same children.  No class is lost: contract a
    highest-ranked edge e of a triangulation T on n >= 5 vertices.  Its ends
    have exactly two common neighbors, so T/e is a triangulation on n - 1
    vertices, and level n - 1 holds a graph R isomorphic to it or to its
    mirror.  Splitting R's merged vertex at the two common neighbors (one
    of ``_vertex_splits``) gives T or its mirror back, with the split edge
    where e was.  The rank is invariant under isomorphism and reflection,
    so that child is kept.
    """
    if n < 4:
        raise TooSmall("triangulations start at n = 4")
    codes = ({canonical_code(k4())} if n == 4
             else _split_codes(_triangulation_level(n - 1), 3))
    return tuple(triangulation_from_code(c) for c in sorted(codes))


def _link_rooted_code(g: PlaneGraph, v: int) -> tuple[int, ...]:
    """The canonical code of g minus v rooted on its outer face, the link
    of v, from g's rotation with v cut out of its neighbors' instead of a
    built region.

    The id v stays, with no neighbors and never reached; the code names
    vertices by visiting order, so the ids of the others need no shift.
    """
    link = g.rotation[v]
    rotation = list(g.rotation)
    rotation[v] = ()
    for w in link:
        rotation[w] = tuple(x for x in rotation[w] if x != v)
    edges = [(a, link[(k + 1) % len(link)]) for k, a in enumerate(link)]
    return canonical_code(_RotationView(rotation),
                          roots=edges + [(b, a) for a, b in edges])


@functools.lru_cache(maxsize=None)
def _square_region_level(n: int, separating: bool = True
                         ) -> tuple[tuple[PlaneGraph, int], ...]:
    """The square regions on n - 1 vertices, as the pairs (g, v) they are
    cut from: g on n vertices, v of degree 4, g minus v bounded by the link
    of v the first of its class in corpus and vertex order.  Regions from
    different levels differ in size, so deduplicating per level is exact.
    Only the pairs are kept: held, the 3,674 regions with n <= 10 would
    take more memory than the n <= 11 corpus they are cut from.

    With ``separating=False`` regions with a separating triangle are left
    out before they are keyed.  Isomorphic regions agree on that, so the
    pairs kept are those of the full level without them, in the same order.
    One listing of g's triangles serves all its degree-4 vertices, and is
    dropped with the loop: the level graphs are kept for the life of the
    process and hold no table of it.
    """
    out = {}
    for g in enumerate_triangulations(n):
        triangles = None if separating else g.triangles()
        for v in range(g.n):
            if g.degrees[v] != 4:
                continue
            if triangles is None or not link_region_has_separating_triangle(
                    g, v, triangles):
                out.setdefault(_link_rooted_code(g, v), (g, v))
    return tuple(out.values())


@functools.lru_cache(maxsize=None)
def _four_connected_level(n: int) -> tuple[PlaneGraph, ...]:
    """All 4-connected planar triangulations on n vertices up to isomorphism:
    the full level filtered, graph for graph, grown the same way from the
    octahedron plus ``double_wheel(n)`` by the splits that leave both ends
    at least 4 neighbors, ranking only the 4-contractible edges.

    No class is lost: a 4-connected triangulation T on n >= 7 vertices other
    than a double wheel has a 4-contractible edge (Martinov, JGT 1982).
    Contract a highest-ranked one, e.  T/e is 4-connected on n - 1
    vertices, so level n - 1 holds a graph R isomorphic to it or to its
    mirror.  Splitting R's merged vertex at the two common neighbors of e's
    ends gives T or its mirror back, with the split edge where e was and
    both its ends of degree >= 4.  Rank and 4-contractibility are invariant
    under isomorphism and reflection, so that child is kept.  The
    ``is_four_connected_triangulation`` test on the built classes is a
    guard (it rejects none through n = 14).
    """
    if n < 6:
        raise TooSmall("4-connected triangulations start at n = 6")
    parents = _four_connected_level(n - 1) if n > 6 else ()
    codes = _split_codes(parents, 4) | {canonical_code(double_wheel(n))}
    graphs = map(triangulation_from_code, sorted(codes))
    return tuple(filter(is_four_connected_triangulation, graphs))


def enumerate_triangulations(n: int, flt: CorpusFilter | None = None):
    """All planar triangulations on n vertices up to isomorphism, filtered.

    Exhaustive by repeated vertex splitting from K4, keeping a split child
    only when its split edge is a top-ranked contractible edge, and building
    each class once from its canonical code (``_triangulation_level``).
    Deterministic order: sorted by canonical code.

    A filter asking for 4-connectivity reads the 4-connected level instead
    (``_four_connected_level``, grown from the octahedron by the same
    rule), empty below n = 6: the full level's 4-connected graphs in the
    same order.  Of the filter, only its degree bound is left to apply
    there.
    """
    if n > MAX_N:
        raise BudgetExceeded(f"n={n} exceeds max_n={MAX_N}")
    if flt is not None and flt.min_connectivity == 4:
        for g in _four_connected_level(n) if n >= 6 else ():
            if g.min_degree() >= flt.min_degree:
                yield g
        return
    for g in _triangulation_level(n):
        if flt is None or flt.matches(g):
            yield g


# ---------------------------------------------------------------------------
# random generation by diagonal flips
# ---------------------------------------------------------------------------

def flippable_edges(g: PlaneGraph) -> list[tuple[int, int]]:
    out = []
    for u, v in sorted(g.edge_set):
        if g.degrees[u] <= 3 or g.degrees[v] <= 3:
            continue
        x, y = _flip_partners(g, u, v)
        if x != y and not g.has_edge(x, y):
            out.append((u, v))
    return out


def _flip_partners(g: PlaneGraph, u: int, v: int):
    """The third vertices of the faces on (u, v) and on (v, u): the face
    traced through directed edge (u, v) turns at v to the neighbour after u."""
    ru, rv = g.rotation[u], g.rotation[v]
    return rv[(rv.index(u) + 1) % len(rv)], ru[(ru.index(v) + 1) % len(ru)]


def flip_edge(g: PlaneGraph, u: int, v: int) -> PlaneGraph:
    """Replace diagonal uv of its surrounding quadrilateral by the other one,
    drawn in g's rotation through the quadrilateral (entering x from v)."""
    x, y = _flip_partners(g, u, v)
    if x == y or g.has_edge(x, y):
        raise ValueError(f"edge {u}-{v} is not flippable")
    rotation = list(g.rotation)
    rotation[u] = tuple(w for w in rotation[u] if w != v)
    rotation[v] = tuple(w for w in rotation[v] if w != u)
    return build(_insert_edge(rotation, x, v, y, u))


def random_triangulation(n: int, seed: int, flt: CorpusFilter | None = None) -> PlaneGraph:
    """Seeded random triangulation: burn-in flips from the double wheel, then
    rejection until the filter passes."""
    rng = random.Random(seed)
    g = double_wheel(n) if n >= 6 else next(enumerate_triangulations(n))
    burn = FLIP_BURN_IN * n * n
    attempts = max(200, burn)

    def step(g):
        cand = flippable_edges(g)
        if not cand:
            return g
        u, v = rng.choice(cand)
        return flip_edge(g, u, v)

    for _ in range(burn):
        g = step(g)
    for _ in range(attempts):
        if flt is None or flt.matches(g):
            return g
        g = step(g)
    raise FilterUnsatisfiableTimeout(
        f"no triangulation matching {flt} after {attempts} proposals")


# ---------------------------------------------------------------------------
# engineered fixtures: pockets behind separating 4-cycles at minimum degree 5
# ---------------------------------------------------------------------------

def _banana_plug_faces(square, ids):
    """Triangulated disc on a square boundary whose 8 interior vertices all
    have degree 5: a hexagon ring around two adjacent center vertices."""
    a, b, c, d = square
    r1, r2, r3, r4, r5, r6, z1, z2 = ids
    return [
        (a, b, r1), (b, c, r2), (c, d, r4), (d, a, r5),
        (a, r5, r6), (a, r6, r1), (b, r1, r2), (c, r2, r3), (c, r3, r4),
        (d, r4, r5),
        (z1, r6, r1), (z1, r1, r2), (z1, r2, r3), (z1, r3, z2),
        (z2, r3, r4), (z2, r4, r5), (z2, r5, r6), (z2, r6, z1),
    ]


def _annulus_with_y_faces(outer, inner, y):
    """Square-to-square annulus carrying one extra vertex adjacent to three
    outer corners: the diamond seed of the tower."""
    a, b, c, d = outer
    a2, b2, c2, d2 = inner
    return [
        (y, d, a), (y, a, b),
        (y, b, a2), (b, b2, a2), (b, c, b2), (c, c2, b2),
        (c, d, c2), (d, d2, c2), (d, y, d2), (y, a2, d2),
    ]


def _antiprism_faces(outer, inner):
    a, b, c, d = outer
    a2, b2, c2, d2 = inner
    return [
        (a, b, a2), (b, b2, a2), (b, c, b2), (c, c2, b2),
        (c, d, c2), (d, d2, c2), (d, a, d2), (a, a2, d2),
    ]


def _id_taker():
    """take(k): the next k unused vertex ids, counting from 0."""
    ids = itertools.count()
    return lambda k: [next(ids) for _ in range(k)]


def telescope_tower(levels: int = 3):
    """A minimum-degree-5 4-connected triangulation with ``levels`` nested
    separating 4-cycles, each with a vertex adjacent to exactly three of its
    vertices.

    Returns (graph, star, squares): ``star[j]`` is the seed vertex of level
    j and ``squares[j]`` its 4-cycle, ordered outermost first.
    """
    if levels < 1:
        raise TooSmall("tower needs at least one level")
    take = _id_taker()
    squares = [tuple(take(4))]
    faces = _banana_plug_faces(squares[0], take(8))
    star = []
    for _ in range(levels):
        y = take(1)[0]
        inner = tuple(take(4))
        faces += _annulus_with_y_faces(squares[-1], inner, y)
        star.append(y)
        squares.append(inner)
    faces += _banana_plug_faces(squares[-1], take(8))
    g = plane_graph_from_faces(faces)
    return g, star, squares


def two_pocket_worm():
    """A minimum-degree-5 4-connected triangulation with two separating
    4-cycles whose diamond pockets have disjoint interiors.

    Returns (graph, star, squares) with one seed vertex per pocket.
    """
    take = _id_taker()
    q_a, q_b = tuple(take(4)), tuple(take(4))
    faces = list(_antiprism_faces(q_a, q_b))
    star = []
    squares = []
    for q in (q_a, q_b):
        y = take(1)[0]
        inner = tuple(take(4))
        faces += _annulus_with_y_faces(q, inner, y)
        faces += _banana_plug_faces(inner, take(8))
        star.append(y)
        squares.append(q)
    g = plane_graph_from_faces(faces)
    return g, star, squares
