"""Tutte paths, the two-Hamiltonian-paths lemmas, and the diamond-region
path tables.

Tutte paths are found by pruned exhaustive search with the bridge condition
checked on every candidate; published existence theorems make an exhausted
search a counterexample alarm carrying the instance, never a soft failure.
Constructions whose results must span search Hamiltonian paths directly (any
Hamiltonian path is vacuously a C-Tutte path: its bridges are chords with
two attachments).

The two-Hamiltonian-paths lemmas work on the region they are given.  Each
restriction they need (a block, a peel level, an apex deletion) is the
region plus a bitmask of excluded vertices: its faces come from
``restriction_faces`` and its Hamiltonian Tutte paths from the shared
search with ``exclude``, so neither lemma builds a graph.  The region's
triangles and square-region answer, and its faces, blocks and neighbour
masks per excluded set, are kept on the region graph (``RegionTables``)
and read by every labelling and level that needs them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BadOrder,
    HypothesisViolated,
    NotACycle,
    SearchExhausted,
    TutteViolation,
)
from .ham_enum import (
    _has_cycles,
    _Search,
    enumerate_ham_paths,
    masks_without,
    search_budget,
)
from .plane_graph import (
    Cycle,
    NearTriangulation,
    PlaneGraph,
    _blocks_and_cuts,
    _connected_after_removal,
    _face_walk,
    _first_traced,
    block_chain,
    bridges,
    canonical_cycle,
    cycle_edges,
    edge_key,
    mask_bits,
    path_edges,
    region_tables,
    restriction_faces,
    vertex_mask,
)
from .structures import DiamondCert, has_separating_triangle


@dataclass(frozen=True)
class TuttePathCert:
    """A path meeting the Tutte condition for its constraint edges."""

    path: tuple[int, ...]
    constraint_edges: frozenset[tuple[int, int]]
    is_hamiltonian: bool

    def edges(self):
        return path_edges(self.path)


@dataclass(frozen=True)
class PathPair:
    """Two Hamiltonian paths between the same endpoints, distinct as edge sets."""

    graph_n: int
    a: int
    b: int
    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self):
        if path_edges(self.first) == path_edges(self.second):
            raise ValueError("paths are not distinct")


@dataclass(frozen=True)
class PathWitness:
    """Witness that a graph is a bare a-b path."""

    vertices: tuple[int, ...]


@dataclass(frozen=True)
class OuterPlanarWitness:
    """Witness that a graph is outer planar: a face walk covering everything."""

    face_walk: tuple[int, ...]


def _check_tutte(g: PlaneGraph, path, constraint_edges):
    """The first bridge of ``path`` breaking the Tutte condition, as
    (bridge, attachments, limit), or None."""
    onpath = set(path)
    for br in bridges(g, path, path_edges(path)).bridges:
        att = len(br.attachments & onpath)
        if att > 3:
            return br, att, 3
        if br.edges & constraint_edges and att > 2:
            return br, att, 2
    return None


def verify_tutte(g: PlaneGraph, path, constraint) -> TuttePathCert:
    """Certify that ``path`` is a C-Tutte path for the given subgraph.

    ``constraint`` is a Cycle, a vertex sequence (subpath), or an edge set.
    Raises TutteViolation naming the offending bridge otherwise.  A path
    through all g.n vertices is certified without listing its bridges:
    each is a chord, with two attachments, so neither Tutte bound can fail.
    """
    path = tuple(path)
    if isinstance(constraint, Cycle):
        cedges = constraint.edges()
    elif constraint and isinstance(next(iter(constraint)), int):
        cedges = path_edges(tuple(constraint))
    else:
        cedges = frozenset(edge_key(*e) for e in constraint)
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"{a}-{b} is not an edge")
    if len(set(path)) != len(path):
        raise ValueError("path repeats a vertex")
    hamiltonian = len(path) == g.n
    violation = None if hamiltonian else _check_tutte(g, path, cedges)
    if violation is not None:
        raise TutteViolation(*violation)
    return TuttePathCert(path=path, constraint_edges=cedges,
                         is_hamiltonian=hamiltonian)


def _simple_paths_lex(g: PlaneGraph, x: int, y: int):
    """All simple x-y paths in lexicographic order of their vertex sequences."""
    path = [x]
    onpath = {x}

    def extend():
        v = path[-1]
        if v == y:
            yield tuple(path)
        for w in sorted(g.rotation[v]):
            if w in onpath or (v == y):
                continue
            path.append(w)
            onpath.add(w)
            yield from extend()
            path.pop()
            onpath.remove(w)

    try:
        yield from extend()
    finally:
        del extend  # the closure refers to itself: break the cycle


def _graph_and_cycle(g_or_nt, c: Cycle | None):
    """The graph and its validated outer cycle (a NearTriangulation's own
    cycle unless ``c`` is given)."""
    if isinstance(g_or_nt, NearTriangulation):
        g = g_or_nt.graph
        c = c or g_or_nt.outer_cycle
    else:
        g = g_or_nt
    if c is None:
        raise ValueError("outer cycle required")
    c.validate(g)
    return g, c


def _tutte_search(g: PlaneGraph, x: int, y: int, required, constraint_edges,
                  hamiltonian: bool, budget, exclude: int = 0) -> TuttePathCert:
    """The x-y path through every ``required`` edge, Tutte for the
    ``constraint_edges`` subgraph: Hamiltonian if one exists, else (unless
    ``hamiltonian``) the lexicographically first valid path.

    ``exclude`` is a bitmask of vertices the search leaves out: the path is
    then one of g minus them, found as on the rebuilt restriction (same
    kernel, same child order, so the same path).  Only a Hamiltonian search
    takes it; the lexicographic fallback searches g itself.
    """
    if exclude and not hamiltonian:
        raise ValueError("excluding vertices needs hamiltonian=True")
    budget = search_budget(budget)
    # a Hamiltonian path is vacuously C-Tutte (every bridge is a chord), so
    # prefer one and return it unchecked; the pure lexicographic fallback
    # covers graphs where the guarantee is only the Tutte condition
    for p in enumerate_ham_paths(g, x, y, required_edges=required,
                                 budget=budget, cap=1,
                                 exclude=mask_bits(exclude),
                                 masks=_masks_without(g, exclude)):
        return TuttePathCert(path=p, constraint_edges=constraint_edges,
                             is_hamiltonian=True)
    if hamiltonian:
        through = " and ".join(map(str, required))
        raise SearchExhausted(f"no Hamiltonian {x}-{y} path through {through} "
                              f"(n={g.n - exclude.bit_count()})")

    for p in _simple_paths_lex(g, x, y):
        if not path_edges(p) >= set(required):
            continue
        if _check_tutte(g, p, constraint_edges) is None:
            return TuttePathCert(path=p, constraint_edges=constraint_edges,
                                 is_hamiltonian=len(p) == g.n)
    kind = "C-Tutte" if len(required) == 1 else "uCv-Tutte"
    raise SearchExhausted(f"no {x}-{y} {kind} path through "
                          f"{', '.join(map(str, required))} (n={g.n})")


def tutte_path(g_or_nt, c: Cycle | None = None, x: int = 0, y: int = 1,
               e=None, hamiltonian: bool = False, budget=None) -> TuttePathCert:
    """A C-Tutte path between x and y through edge e (e on the outer cycle).

    A Hamiltonian path if there is one, returned unchecked since it is
    vacuously C-Tutte, else the lexicographically first valid path;
    ``hamiltonian=True`` (where a proof guarantees the Tutte path spans)
    allows only the first.  Callers certify what they keep (``verify_tutte``,
    ``is_ham_path_of``, ``is_ham_cycle``).  SearchExhausted flags a
    counterexample to the underlying theorem and must be treated as fatal.
    """
    g, c = _graph_and_cycle(g_or_nt, c)
    if x not in c.vertices:
        raise HypothesisViolated("x_on_outer_cycle")
    if e is None:
        raise ValueError("edge e required")
    e = edge_key(*e)
    if e not in c.edges():
        raise HypothesisViolated("e_on_outer_cycle")
    return _tutte_search(g, x, y, (e,), c.edges(), hamiltonian, budget)


def clockwise_order_ok(c: Cycle, u: int, e, f, v: int) -> bool:
    """Whether u, e, f, v occur in this clockwise order along c."""
    vs = c.vertices
    if u not in vs or v not in vs or u == v:
        return False
    k = len(vs)
    start = vs.index(u)
    ring = [vs[(start + i) % k] for i in range(k)]
    pos = {w: i for i, w in enumerate(ring)}
    e, f = edge_key(*e), edge_key(*f)

    def edge_span(edge):
        if edge[0] not in pos or edge[1] not in pos:
            return None
        i, j = pos[edge[0]], pos[edge[1]]
        if abs(i - j) == 1:
            return min(i, j)     # occupies (lo, lo+1) clockwise from u
        if {i, j} == {0, k - 1}:
            return k - 1         # the edge arriving back at u
        return None

    se, sf = edge_span(e), edge_span(f)
    if se is None or sf is None:
        return False
    return se < sf and pos[v] >= sf + 1


def tutte_path_two_edges(g_or_nt, c: Cycle | None, u: int, v: int, e, f,
                         hamiltonian: bool = False, budget=None) -> TuttePathCert:
    """A uCv-Tutte path between u and v through both e and f.

    Requires u, e, f, v in clockwise order on the outer cycle (BadOrder
    otherwise); the Tutte constraint subgraph is the clockwise u-to-v
    subpath of the outer cycle.
    """
    g, c = _graph_and_cycle(g_or_nt, c)
    e, f = edge_key(*e), edge_key(*f)
    if e not in c.edges() or f not in c.edges():
        raise HypothesisViolated("edges_on_outer_cycle")
    if not clockwise_order_ok(c, u, e, f, v):
        raise BadOrder(f"{u}, {e}, {f}, {v} not in clockwise order on {c.vertices}")
    return _tutte_search(g, u, v, (e, f), path_edges(c.subpath(u, v)),
                         hamiltonian, budget)


# ---------------------------------------------------------------------------
# region graphs with outer 4-cycles: the two-Hamiltonian-paths lemmas
# ---------------------------------------------------------------------------

def _require_square_region(r: NearTriangulation):
    """The outer cycle's vertices, once the square-region hypotheses hold.
    Past the 4-cycle test the answer is the region graph's, so its 8
    labellings share one (``RegionTables.square_fault``)."""
    if len(r.outer_cycle) != 4:
        raise HypothesisViolated("outer_4cycle")
    tables = region_tables(r.graph)
    if tables.square_fault is None:
        if not r.is_near_triangulation:
            tables.square_fault = "near_triangulation"
        elif has_separating_triangle(r.graph, tables.triangles):
            tables.square_fault = "no_separating_triangles"
        else:
            tables.square_fault = ""
    if tables.square_fault:
        raise HypothesisViolated(tables.square_fault)
    return r.outer_cycle.vertices


def _faces_without(g: PlaneGraph, exclude: int):
    """``restriction_faces(g, exclude)``, traced once per region graph."""
    faces = region_tables(g).faces
    if exclude not in faces:
        faces[exclude] = restriction_faces(g, exclude)
    return faces[exclude]


def _masks_without(g: PlaneGraph, exclude: int):
    """g's neighbour masks without the bitmask ``exclude``: g's own for
    none, else built once per region graph."""
    if not exclude:
        return g.nbr_masks
    masks = region_tables(g).masks
    if exclude not in masks:
        masks[exclude] = masks_without(g.nbr_masks, exclude)
    return masks[exclude]


def _blocks_without(g: PlaneGraph, exclude: int):
    """``_blocks_and_cuts(g, exclude)``, found once per region graph."""
    blocks = region_tables(g).blocks
    if exclude not in blocks:
        blocks[exclude] = _blocks_and_cuts(g, exclude)
    return blocks[exclude]


def _is_path_between(g: PlaneGraph, keep, a, b):
    """The vertex order if g restricted to ``keep`` is a bare a-b path."""
    sub = {v: [w for w in g.rotation[v] if w in keep] for v in keep}
    if any(len(ws) > 2 for ws in sub.values()):
        return None
    if len(sub.get(a, [])) != 1 or len(sub.get(b, [])) != 1:
        return None
    order = [a]
    prev = None
    while order[-1] != b:
        nxts = [w for w in sub[order[-1]] if w != prev]
        if len(nxts) != 1:
            return None
        prev = order[-1]
        order.append(nxts[0])
    return tuple(order) if len(order) == len(keep) else None


def two_ham_paths_uw(r: NearTriangulation, budget=None):
    """Dichotomy for an outer 4-cycle u v w x (G != C+vx, no separating
    triangles): two Hamiltonian u-w paths of G - {v, x}, or a witness that
    G - {v, x} is a bare path.

    Construction: block chain of G - {v, x}; in the first block with >= 3
    vertices take Tutte paths through each of the two outer-cycle edges at
    its entry cut vertex; elsewhere one Hamiltonian path per block.  A
    block's outer cycle is its one face through entry and exit that is not
    a face of the region (with no separating triangles, the face holding v,
    x and the other blocks).  Every block is searched in place: its faces
    are those of the region minus the other vertices
    (``restriction_faces``), and its paths those of the region with the
    other vertices excluded, so no block graph is built.
    """
    u, v, w, x = _require_square_region(r)
    g = r.graph
    if g.has_edge(v, x):
        raise HypothesisViolated("not_c_plus_vx" if g.n == 4 else
                                 "no_separating_triangles", "chord vx present")
    budget = search_budget(budget)

    keep = [z for z in range(g.n) if z not in (v, x)]
    witness = _is_path_between(g, set(keep), u, w)
    if witness is not None:
        return PathWitness(witness)

    chain = block_chain(g, u, w, exclude={v, x},
                        edge_blocks=_blocks_without(g, vertex_mask((v, x)))[0])
    s = next(i for i, bvs in enumerate(chain.blocks) if len(bvs) >= 3)
    full = (1 << g.n) - 1
    firsts, seconds = [], []     # each block's path, from its entry
    for i, bvs in enumerate(chain.blocks):
        entry, exit_ = chain.endpoints[i], chain.endpoints[i + 1]
        if len(bvs) == 2:
            firsts.append((entry, exit_))
            seconds.append((entry, exit_))
            continue
        others = full & ~vertex_mask(bvs)
        cands = [f for f, new in _faces_without(g, others)
                 if new and entry in f and exit_ in f]
        if len(cands) != 1:
            raise SearchExhausted(
                f"block outer face not unique: {len(cands)} candidates")
        c_i = Cycle(cands[0])
        c_i.validate(g)
        at_entry = sorted(e for e in c_i.edges() if entry in e)
        paths = [_tutte_search(g, entry, exit_, (e,), c_i.edges(), True,
                               budget, exclude=others).path
                 for e in at_entry[:2 if i == s else 1]]
        firsts.append(paths[0])
        seconds.append(paths[-1])

    pair = []
    for blocks in (firsts, seconds):
        p = (u,) + tuple(z for path in blocks for z in path[1:])
        if not is_ham_path_of(g, p, u, w, exclude={v, x}):
            raise SearchExhausted(f"assembled path is not Hamiltonian: {p}")
        pair.append(p)
    return PathPair(graph_n=g.n, a=u, b=w, first=pair[0], second=pair[1])


def is_ham_path_of(g: PlaneGraph, seq, a, b, exclude=frozenset()) -> bool:
    """Hamiltonian a-b path of g minus ``exclude``, checked on masks: every
    id in range and none twice, the ids those of g minus ``exclude`` (an
    excluded id out of range excludes nothing), a first and b last, and
    each step an edge of g."""
    n, nb = g.n, g.nbr_masks
    want = (1 << n) - 1
    for z in exclude:
        if 0 <= z < n:
            want &= ~(1 << z)
    seen = 0
    for p in seq:
        if not 0 <= p < n or seen >> p & 1:
            return False
        seen |= 1 << p
    return (seen == want and seq[0] == a and seq[-1] == b
            and all(nb[p] >> q & 1 for p, q in zip(seq, seq[1:])))


def two_ham_paths_uv(r: NearTriangulation, budget=None):
    """Dichotomy for an outer 4-cycle u v w x (no separating triangles):
    a witness that G - {w, x} is an outer planar near triangulation, or two
    Hamiltonian u-v paths of it.

    Recursive construction: peel an end of the u-v edge with a unique
    interior neighbor; otherwise the 2-connected branch combines a
    Thomassen path with a Thomas-Yu two-edge path.  Every level is the
    region minus a bitmask of vertices (the peeled ones): its hypotheses,
    faces and paths are read off the region with them excluded, so no
    level builds a graph.
    """
    u, v, w, x = _require_square_region(r)
    g = r.graph
    res = _uv_level(g, 0, u, v, w, x, search_budget(budget))
    if isinstance(res, OuterPlanarWitness) and g.n > 4:
        # a peel level passes up the covering face it checked, as walked;
        # the reported one is the first the full trace would list
        res = OuterPlanarWitness(
            _first_covering_face(g, vertex_mask((w, x)), res.face_walk))
    return res


def _check_square_level(g: PlaneGraph, exclude: int, outer) -> None:
    """The square-region hypotheses of a peel level, g minus the bitmask
    ``exclude`` with outer cycle ``outer``, as ``NearTriangulation`` and
    ``_require_square_region`` check them on the built restriction: the
    cycle bounds a face, every other face is a triangle, and no triangle
    separates.  The level is the level above (a square near
    triangulation, so 2-connected) minus one vertex, hence connected, and
    then ``has_separating_triangle``'s count decides: as many 3-cycles
    avoid ``exclude`` as the level has triangular faces."""
    c = Cycle(outer)
    c.validate(g)
    faces = [f for f, _new in _faces_without(g, exclude)]
    want = c.canonical()
    if not any(len(f) == 4 and canonical_cycle(f) == want for f in faces):
        raise NotACycle(f"{c.vertices} does not bound a face")
    if sum(1 for f in faces if len(f) != 3) != 1:
        raise HypothesisViolated("near_triangulation")
    triangles = sum(1 for a, b, z in region_tables(g).triangles
                    if not (exclude >> a | exclude >> b | exclude >> z) & 1)
    if triangles != len(faces) - 1:
        raise HypothesisViolated("no_separating_triangles")


def _first_covering_face(g: PlaneGraph, exclude: int, walk) -> tuple[int, ...]:
    """The face of g minus the bitmask ``exclude`` that visits every
    vertex and comes first in trace order, given ``walk``, one such face:
    turned to start where ``restriction_faces`` starts it.  Two faces visit
    every vertex only when the restriction is a bare cycle, and then the
    other is ``walk`` reversed."""
    rot = g.rotation
    walk = _first_traced(rot, walk)
    rest = ((1 << g.n) - 1) & ~exclude
    if len(walk) == rest.bit_count() and all(
            (g.nbr_masks[z] & rest).bit_count() == 2 for z in walk):
        walk = min(walk, _first_traced(rot, walk[::-1]),
                   key=lambda f: (f[-1], rot[f[-1]].index(f[0])))
    return walk


def _uv_level(g: PlaneGraph, exclude: int, u, v, w, x, budget):
    """``two_ham_paths_uv`` on g minus the bitmask ``exclude``, a square
    region with outer cycle u v w x whose hypotheses hold."""
    n = g.n - exclude.bit_count()
    if n == 4:
        return OuterPlanarWitness((u, v))

    if g.has_edge(u, w) or g.has_edge(v, x):
        raise HypothesisViolated("no_separating_triangles", "outer chord present")

    masks = g.nbr_masks
    square = vertex_mask((u, v, w, x)) | exclude
    iu, iv = mask_bits(masks[u] & ~square), mask_bits(masks[v] & ~square)
    if len(iu) == 1 or len(iv) == 1:
        if len(iu) == 1:
            peel, stay, anchor, outer = u, v, iu[0], (iu[0], v, w, x)
        else:
            peel, stay, anchor, outer = v, u, iv[0], (u, iv[0], w, x)
        below = exclude | 1 << peel
        _check_square_level(g, below, outer)
        res = _uv_level(g, below, *outer, budget)
        if isinstance(res, OuterPlanarWitness):
            # g minus exclude, w and x is outer planar iff the face at peel
            # that is not the triangle on peel's two neighbours here, stay
            # and anchor, visits every vertex.  The face of (stay, peel)
            # runs on to anchor and then to anchor's next kept neighbour
            # after peel: stay when it is that triangle.
            rest = exclude | vertex_mask((w, x))
            rot = g.rotation[anchor]
            k = rot.index(peel) + 1
            while rest >> rot[k % len(rot)] & 1:
                k += 1
            tail = anchor if rot[k % len(rot)] == stay else stay
            walk, _skipped = _face_walk(g.rotation, rest, tail, peel)
            if vertex_mask(walk) != ((1 << g.n) - 1) & ~rest:
                raise SearchExhausted("peel recursion claimed outer planarity "
                                      "but no covering face exists")
            return OuterPlanarWitness(tuple(walk))
        if peel == u:
            first, second = (u,) + res.first, (u,) + res.second
        else:
            first, second = res.first + (v,), res.second + (v,)
        off = mask_bits(exclude | vertex_mask((w, x)))
        for p in (first, second):
            if not is_ham_path_of(g, p, u, v, exclude=off):
                raise SearchExhausted(f"peel-extended path invalid: {p}")
        return PathPair(graph_n=n, a=u, b=v, first=first, second=second)

    # both u and v have >= 2 interior neighbors: one of the two apex
    # deletions is 2-connected
    for apex, other in ((u, v), (v, u)):
        drop = exclude | vertex_mask((w, x, apex))
        if (n - 3 < 3 or not _connected_after_removal(g, drop)
                or _blocks_without(g, drop)[1]):
            continue
        # the face merging the deleted vertices' faces is the outer cycle
        cands = [f for f, new in _faces_without(g, drop) if new]
        if len(cands) != 1 or len(set(cands[0])) != len(cands[0]):
            continue
        res = _uv_two_connected_case(g, exclude, Cycle(cands[0]), apex, other,
                                     u, v, w, x, budget)
        if res is not None:
            return res
    raise SearchExhausted("two_ham_paths_uv: no branch applied "
                          f"(outer {u},{v},{w},{x}, n={n})")


def _uv_two_connected_case(g, exclude, d, apex, other, u, v, w, x, budget):
    """The Thomassen + Thomas-Yu construction for the 2-connected branch,
    on the level (g minus the bitmask ``exclude``) minus w, x and the apex,
    whose outer cycle is ``d``.

    With apex = u: a1 is u's unique interior neighbor adjacent to x, a2 the
    one adjacent to v; P runs a1 -> v through an outer edge at the w,x
    common neighbor y; Q is a (v D a2)-Tutte path v -> a2 through that edge
    and one at a1.  Extending both through the apex gives the pair.  The
    apex = v case is the u<->v, x<->w mirror.
    """
    side_back, side_fwd = (x, v) if apex == u else (w, u)
    masks = g.nbr_masks
    inner_nbrs = mask_bits(masks[apex] & ~vertex_mask((u, v, w, x)) & ~exclude)
    n1 = [z for z in inner_nbrs if g.has_edge(z, side_back)]
    n2 = [z for z in inner_nbrs if g.has_edge(z, side_fwd)]
    ys = mask_bits(masks[w] & masks[x] & ~vertex_mask((u, v)) & ~exclude)
    if len(n1) != 1 or len(n2) != 1 or len(ys) != 1:
        return None
    a1, a2, y = n1[0], n2[0], ys[0]
    if a1 not in d.vertices or a2 not in d.vertices:
        return None

    e_opts = sorted(e for e in d.edges() if y in e)
    f_opts = sorted(e for e in d.edges() if a1 in e)
    drop = exclude | vertex_mask((w, x, apex))
    off = mask_bits(exclude | vertex_mask((w, x)))
    for e in e_opts:
        try:
            p1 = _tutte_search(g, a1, other, (e,), d.edges(), True, budget,
                               exclude=drop).path                # a1 .. other
        except SearchExhausted:
            continue
        for dd in (d, Cycle(tuple(reversed(d.vertices)))):
            for f in f_opts:
                if f == e or not clockwise_order_ok(dd, other, e, f, a2):
                    continue
                try:
                    q = _tutte_search(g, other, a2, (e, f),
                                      path_edges(dd.subpath(other, a2)), True,
                                      budget, exclude=drop).path  # other .. a2
                except SearchExhausted:
                    continue
                if apex == u:
                    first = (u,) + p1                            # u a1 .. v
                    second = (u,) + tuple(reversed(q))           # u a2 .. v
                else:
                    first = tuple(reversed(p1)) + (v,)           # u .. v1 v
                    second = q + (v,)                            # u .. v2 v
                if not is_ham_path_of(g, first, u, v, exclude=off):
                    continue
                if not is_ham_path_of(g, second, u, v, exclude=off):
                    continue
                if path_edges(first) == path_edges(second):
                    continue
                return PathPair(graph_n=g.n - exclude.bit_count(), a=u, b=v,
                                first=first, second=second)
    return None


# ---------------------------------------------------------------------------
# Hamiltonian cycles through prescribed triangle edges
# ---------------------------------------------------------------------------

class TriangleEdgeSearch:
    """``ham_cycle_through_triangle_edges`` asked of one graph g, once per
    call, for as many triples as the caller has.

    What does not depend on the triple is done once per graph: each
    triangle's checks, kept per vertex tuple once they pass (a triangle
    that fails is checked, and raises, again on every call), the
    separating-triangle test, the budget, and ``_has_cycles``.  Each
    (e1, e2) pair is tried in sorted order; a pair that repeats an edge
    or gives a vertex three required edges is dropped before any table is
    built.  Every other pair runs one ``_Search`` on ``g.nbr_masks`` with
    ``cap=1`` and its own node budget, and only the cycle it returns gets
    an edge set.
    """

    __slots__ = ("g", "budget", "separating", "has_cycles", "checked")

    def __init__(self, g: PlaneGraph, budget=None, separating=None):
        self.g = g
        self.budget = budget          # resolved when first needed
        self.separating = separating  # likewise tested
        self.has_cycles = _has_cycles(g.nbr_masks, g.n)
        self.checked = {}

    def _triangle(self, t: Cycle):
        """t's canonical vertex tuple and sorted edges, once t is checked."""
        got = self.checked.get(t.vertices)
        if got is None:
            t.validate(self.g)
            if len(t) != 3:
                raise HypothesisViolated("triangles_only")
            got = self.checked[t.vertices] = (t.canonical(), sorted(t.edges()))
        return got

    def __call__(self, t: Cycle, t1: Cycle, t2: Cycle):
        key, _ = self._triangle(t)
        key1, edges1 = self._triangle(t1)
        key2, edges2 = self._triangle(t2)
        if key == key1 or key == key2 or key1 == key2:
            raise HypothesisViolated("distinct_triangles")
        g = self.g
        if self.separating is None:
            self.separating = has_separating_triangle(g)
        if self.separating:
            raise HypothesisViolated("no_separating_triangles")
        self.budget = budget = search_budget(self.budget)
        u, v, w = t.vertices
        base = [edge_key(u, v), edge_key(u, w)]
        if self.has_cycles:
            for e1 in edges1:
                for e2 in edges2:
                    # uv and uw hold u's two required edges: an edge at u
                    # repeats one or adds a third, and v or w in both e1
                    # and e2 gets a third
                    ends = (*e1, *e2)
                    if (e1 == e2 or u in ends or ends.count(v) == 2
                            or ends.count(w) == 2):
                        continue
                    req_at = [()] * g.n
                    for a, b in (*base, e1, e2):
                        req_at[a] += (b,)
                        req_at[b] += (a,)
                    found = []
                    _Search(g.nbr_masks, req_at, g.n, budget, found.append,
                            cap=1)._run(0, None)
                    if found:
                        return cycle_edges(found[0]), e1, e2
        raise SearchExhausted(
            f"no Hamiltonian cycle through {base} plus edges of {t1.vertices}, {t2.vertices}")


def ham_cycle_through_triangle_edges(g: PlaneGraph, t: Cycle, t1: Cycle,
                                     t2: Cycle, budget=None, separating=None):
    """A Hamiltonian cycle through uv, uw (u the first vertex of t) and one
    edge from each of t1, t2, all four distinct: the first found over the
    (e1, e2) pairs in sorted order, each pair's search with its own
    ``budget`` of nodes.

    Returns (cycle edge set, e1, e2).  Existence is the Jackson-Yu theorem
    for triangulations without separating triangles, so exhausting the
    search raises SearchExhausted as a counterexample alarm.  A caller
    that knows ``has_separating_triangle(g)`` passes it as ``separating``;
    None asks here.  This is one call of ``TriangleEdgeSearch``, which a
    caller with many triples of one graph keeps instead.
    """
    return TriangleEdgeSearch(g, budget, separating)(t, t1, t2)


# ---------------------------------------------------------------------------
# diamond regions: the unique-path dichotomy table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiamondRegionTable:
    """Hamiltonian path counts per outer-cycle pair of a diamond region.

    ``branch`` is "all_pairs_two" when every pair admits two paths, else
    "unique_pair" with the pair owning the unique path, its path, and for
    every other pair two witnesses avoiding the unique path's edges at z.
    """

    counts: tuple[tuple[tuple[int, int], int], ...]
    branch: str
    unique_pair: tuple[int, int] | None
    unique_path: tuple[int, ...] | None
    marked_edges: frozenset | None
    alternates: tuple[tuple[tuple[int, int], tuple[tuple[int, ...], ...]], ...]


def _classify_diamond_config(r: NearTriangulation, dprime: DiamondCert) -> str:
    c_set = set(r.outer_cycle.vertices)
    shared = sorted(dprime.vertices & c_set)
    if not shared:
        return "disjoint"
    if len(shared) != 2:
        raise HypothesisViolated("diamond_boundary_overlap",
                                 f"|D' & C| = {len(shared)}")
    a, b = shared
    in_d = edge_key(a, b) in dprime.edges()
    in_c = edge_key(a, b) in r.outer_cycle.edges()
    crucial = set(dprime.crucial)
    if not in_d and not in_c and len({a, b} & crucial) == 1:
        return "shared_nonadjacent_one_crucial"
    if in_d and in_c and not ({a, b} & crucial):
        return "shared_edge_noncrucial"
    raise HypothesisViolated("diamond_boundary_overlap",
                             f"shared pair {a},{b} fits no listed case")


def diamond_region_paths(r: NearTriangulation, z: int, dprime: DiamondCert,
                         budget=None) -> DiamondRegionTable:
    """Verify the diamond-region dichotomy on an explicit region.

    Hypotheses: outer 4-cycle, no separating triangles, z an interior
    degree-4 vertex whose neighborhood 4-cycle sits in the diamond ``dprime``
    of the region minus z, all other interior vertices of degree >= 5, and
    the diamond meets the outer cycle in one of the three admitted ways.

    The table reports the exact Hamiltonian path count for each of the six
    outer pairs; when exactly one pair has a unique path, two alternates
    avoiding that path's edges at z are produced for every other pair.
    """
    g = r.graph
    u, v, w, x = _require_square_region(r)
    budget = search_budget(budget)
    if z in r.outer_cycle.vertices:
        raise HypothesisViolated("z_interior")
    if g.degrees[z] != 4:
        raise HypothesisViolated("z_degree_4", f"deg={g.degrees[z]}")
    nz = g.rotation[z]
    for i in range(4):
        if not g.has_edge(nz[i], nz[(i + 1) % 4]):
            raise HypothesisViolated("neighborhood_cycle",
                                     "N(z) is not a 4-cycle in rotation order")
    if dprime.kind != "diamond4":
        raise HypothesisViolated("diamond4_expected")
    if z in dprime.vertices:
        raise HypothesisViolated("diamond_in_g_minus_z")
    if not set(nz) <= dprime.vertices:
        raise HypothesisViolated("neighborhood_in_diamond")
    for e in dprime.edges():
        if e not in g.edge_set:
            raise HypothesisViolated("diamond_edges_present", str(e))
    exempt = set(r.outer_cycle.vertices) | {z} | set(nz)
    low = [q for q in range(g.n) if q not in exempt and g.degrees[q] < 5]
    if low:
        raise HypothesisViolated("interior_degree_5", f"vertices {low}")
    _classify_diamond_config(r, dprime)

    cvs = r.outer_cycle.vertices
    counts = {}
    paths_by_pair = {}
    for a, b in itertools.combinations(sorted(cvs), 2):
        paths = enumerate_ham_paths(g, a, b, budget=budget,
                                    exclude=set(cvs) - {a, b})
        counts[(a, b)] = len(paths)
        paths_by_pair[(a, b)] = paths

    zero = [p for p, c in counts.items() if c == 0]
    if zero:
        raise SearchExhausted(f"pairs with no Hamiltonian path: {zero}")
    unique = [p for p, c in counts.items() if c == 1]
    table = tuple(sorted(counts.items()))
    if not unique:
        return DiamondRegionTable(counts=table, branch="all_pairs_two",
                                  unique_pair=None, unique_path=None,
                                  marked_edges=None, alternates=())
    if len(unique) > 1:
        raise SearchExhausted(f"two unique-path pairs: {unique}")
    pair = unique[0]
    upath = paths_by_pair[pair][0]
    pe = path_edges(upath)
    marked = frozenset(e for e in pe if z in e)
    alternates = []
    for other_pair, paths in sorted(paths_by_pair.items()):
        if other_pair == pair:
            continue
        good = [p for p in paths if not marked <= path_edges(p)]
        if len(good) < 2:
            raise SearchExhausted(
                f"pair {other_pair}: fewer than two paths avoid the marked edges")
        alternates.append((other_pair, tuple(good[:2])))
    return DiamondRegionTable(counts=table, branch="unique_pair",
                              unique_pair=pair, unique_path=upath,
                              marked_edges=marked, alternates=tuple(alternates))
