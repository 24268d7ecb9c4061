"""Tutte paths, the two-Hamiltonian-paths lemmas, and the diamond-region
path tables.

Tutte paths are found by pruned exhaustive search with the bridge condition
checked on every candidate; published existence theorems make an exhausted
search a counterexample alarm carrying the instance, never a soft failure.
Constructions whose results must span search Hamiltonian paths directly (any
Hamiltonian path is vacuously a C-Tutte path: its bridges are chords with
two attachments).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BadOrder,
    HypothesisViolated,
    SearchExhausted,
    TutteViolation,
)
from .ham_enum import enumerate_ham_cycles_raw, enumerate_ham_paths, search_budget
from .plane_graph import (
    BridgeDecomposition,
    Cycle,
    NearTriangulation,
    PlaneGraph,
    block_chain,
    bridges,
    canonical_cycle,
    edge_key,
    path_edges,
)
from .structures import DiamondCert, has_separating_triangle


@dataclass(frozen=True)
class TuttePathCert:
    """A path plus the bridge decomposition proving the Tutte condition."""

    path: tuple[int, ...]
    constraint_edges: frozenset[tuple[int, int]]
    decomposition: BridgeDecomposition
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
    dec = bridges(g, path, path_edges(path))
    onpath = set(path)
    for br in dec.bridges:
        att = len(br.attachments & onpath)
        if att > 3:
            return None, (br, att, 3)
        if br.edges & constraint_edges and att > 2:
            return None, (br, att, 2)
    return dec, None


def verify_tutte(g: PlaneGraph, path, constraint) -> TuttePathCert:
    """Certify that ``path`` is a C-Tutte path for the given subgraph.

    ``constraint`` is a Cycle, a vertex sequence (subpath), or an edge set.
    Raises TutteViolation naming the offending bridge otherwise.
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
    dec, violation = _check_tutte(g, path, cedges)
    if violation is not None:
        br, att, limit = violation
        raise TutteViolation(br, att, limit)
    return TuttePathCert(path=path, constraint_edges=cedges, decomposition=dec,
                         is_hamiltonian=len(path) == g.n)


def _simple_paths_lex(g: PlaneGraph, x: int, y: int):
    """All simple x-y paths in lexicographic order of their vertex sequences."""
    path = [x]
    onpath = {x}

    def extend():
        v = path[-1]
        if v == y:
            yield tuple(path)
        for w in sorted(g.adj[v]):
            if w in onpath or (v == y):
                continue
            path.append(w)
            onpath.add(w)
            yield from extend()
            path.pop()
            onpath.remove(w)

    yield from extend()


def tutte_path(g_or_nt, c: Cycle | None = None, x: int = 0, y: int = 1,
               e=None, hamiltonian: bool = False, budget=None) -> TuttePathCert:
    """A C-Tutte path between x and y through edge e (e on the outer cycle).

    Lexicographically first valid path.  With ``hamiltonian=True`` the search
    is restricted to Hamiltonian paths (used where a proof guarantees the
    Tutte path spans); such paths are vacuously C-Tutte but the certificate
    is still checked.  SearchExhausted flags a counterexample to the
    underlying theorem and must be treated as fatal.
    """
    if isinstance(g_or_nt, NearTriangulation):
        g = g_or_nt.graph
        c = c or g_or_nt.outer_cycle
    else:
        g = g_or_nt
    if c is None:
        raise ValueError("outer cycle required")
    c.validate(g)
    if x not in c.vertices:
        raise HypothesisViolated("x_on_outer_cycle")
    if e is None:
        raise ValueError("edge e required")
    e = edge_key(*e)
    if e not in c.edges():
        raise HypothesisViolated("e_on_outer_cycle")
    budget = search_budget(budget)

    # a Hamiltonian path is vacuously C-Tutte (every bridge is a chord), so
    # prefer one; the pure lexicographic fallback covers graphs where the
    # guarantee is only the Tutte condition
    for _edges, p in enumerate_ham_paths(g, x, y, required_edges=[e],
                                         budget=budget, cap=1):
        return verify_tutte(g, p, c)
    if hamiltonian:
        raise SearchExhausted(
            f"no Hamiltonian {x}-{y} path through {e} (n={g.n})")

    for p in _simple_paths_lex(g, x, y):
        if e not in path_edges(p):
            continue
        dec, violation = _check_tutte(g, p, c.edges())
        if violation is None:
            return TuttePathCert(path=p, constraint_edges=c.edges(),
                                 decomposition=dec,
                                 is_hamiltonian=len(p) == g.n)
    raise SearchExhausted(f"no {x}-{y} C-Tutte path through {e} (n={g.n})")


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
    if isinstance(g_or_nt, NearTriangulation):
        g = g_or_nt.graph
        c = c or g_or_nt.outer_cycle
    else:
        g = g_or_nt
    c.validate(g)
    e, f = edge_key(*e), edge_key(*f)
    if e not in c.edges() or f not in c.edges():
        raise HypothesisViolated("edges_on_outer_cycle")
    if not clockwise_order_ok(c, u, e, f, v):
        raise BadOrder(f"{u}, {e}, {f}, {v} not in clockwise order on {c.vertices}")
    constraint = c.subpath(u, v)
    budget = search_budget(budget)

    for _edges, p in enumerate_ham_paths(g, u, v, required_edges=[e, f],
                                         budget=budget, cap=1):
        return verify_tutte(g, p, constraint)
    if hamiltonian:
        raise SearchExhausted(
            f"no Hamiltonian {u}-{v} path through {e} and {f} (n={g.n})")

    for p in _simple_paths_lex(g, u, v):
        pe = path_edges(p)
        if e not in pe or f not in pe:
            continue
        dec, violation = _check_tutte(g, p, path_edges(constraint))
        if violation is None:
            return TuttePathCert(path=p, constraint_edges=path_edges(constraint),
                                 decomposition=dec,
                                 is_hamiltonian=len(p) == g.n)
    raise SearchExhausted(f"no {u}-{v} uCv-Tutte path through {e}, {f} (n={g.n})")


# ---------------------------------------------------------------------------
# region graphs with outer 4-cycles: the two-Hamiltonian-paths lemmas
# ---------------------------------------------------------------------------

def _require_square_region(r: NearTriangulation):
    if len(r.outer_cycle) != 4:
        raise HypothesisViolated("outer_4cycle")
    if not r.is_near_triangulation:
        raise HypothesisViolated("near_triangulation")
    if has_separating_triangle(r.graph):
        raise HypothesisViolated("no_separating_triangles")
    return r.outer_cycle.vertices


def _is_path_between(g: PlaneGraph, keep, a, b):
    """The vertex order if g restricted to ``keep`` is a bare a-b path."""
    sub = {v: [w for w in g.adj[v] if w in keep] for v in keep}
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


def _block_outer_cycle(region_face_keys, block_graph: PlaneGraph,
                       to_region, a: int, b: int) -> Cycle:
    """Outer cycle of a chain block as embedded in the original region.

    Block faces that are faces of the region are interior; with no
    separating triangles exactly one face remains (the one holding the two
    deleted outer vertices and the other blocks), and it is the boundary.
    ``to_region`` maps block ids to region ids; a, b are block-local.
    """
    cands = []
    for fc in block_graph.faces:
        as_region = tuple(to_region[v] for v in fc)
        if canonical_cycle(as_region) in region_face_keys:
            continue
        if a in fc and b in fc:
            cands.append(fc)
    if len(cands) != 1:
        raise SearchExhausted(
            f"block outer face not unique: {len(cands)} candidates")
    return Cycle(cands[0])


def two_ham_paths_uw(r: NearTriangulation, budget=None):
    """Dichotomy for an outer 4-cycle u v w x (G != C+vx, no separating
    triangles): two Hamiltonian u-w paths of G - {v, x}, or a witness that
    G - {v, x} is a bare path.

    Construction: block chain of G - {v, x}; in the first block with >= 3
    vertices take Tutte paths through each of the two outer-cycle edges at
    its entry cut vertex; elsewhere one Hamiltonian path per block.
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

    h, origin = g.delete_vertices({v, x})
    back = {new: old for new, old in enumerate(origin)}
    fwd = {old: new for new, old in enumerate(origin)}
    chain = block_chain(h, fwd[u], fwd[w])
    region_face_keys = {canonical_cycle(f) for f in g.faces}

    s = next(i for i, bvs in enumerate(chain.blocks) if len(bvs) >= 3)
    pieces_before = []
    pieces_after = []
    big_first = None
    big_second = None
    for i, bvs in enumerate(chain.blocks):
        a_i, b_i = chain.endpoints[i], chain.endpoints[i + 1]
        if len(bvs) == 2:
            seg = [(a_i, b_i)]
            segs = (seg, seg)
        else:
            bg, borigin = h.induced(bvs)
            bfwd = {old: new for new, old in enumerate(borigin)}
            to_region = [back[z] for z in borigin]
            entry = bfwd[a_i]
            exit_ = bfwd[b_i]
            c_i = _block_outer_cycle(region_face_keys, bg, to_region, entry, exit_)
            at_entry = [e for e in c_i.edges() if entry in e]
            if i == s:
                certs = [tutte_path(bg, c_i, entry, exit_, e, hamiltonian=True,
                                    budget=budget) for e in sorted(at_entry)[:2]]
                segs = tuple(
                    [ (borigin[p], borigin[q]) for p, q in zip(cert.path, cert.path[1:]) ]
                    for cert in certs)
            else:
                cert = tutte_path(bg, c_i, entry, exit_, sorted(at_entry)[0],
                                  hamiltonian=True, budget=budget)
                seg = [(borigin[p], borigin[q]) for p, q in zip(cert.path, cert.path[1:])]
                segs = (seg, seg)
        if i < s:
            pieces_before.append(segs[0])
        elif i == s:
            big_first, big_second = segs
        else:
            pieces_after.append(segs[0])

    def assemble(mid):
        seq = [back[fwd[u]]]
        for seg in pieces_before + [mid] + pieces_after:
            for p, q in seg:
                seq.append(back[q])
        return tuple(seq)

    p1, p2 = assemble(big_first), assemble(big_second)
    for p in (p1, p2):
        if not is_ham_path_of(g, p, u, w, exclude={v, x}):
            raise SearchExhausted(f"assembled path is not Hamiltonian: {p}")
    return PathPair(graph_n=g.n, a=u, b=w, first=p1, second=p2)


def is_ham_path_of(g: PlaneGraph, seq, a, b, exclude=frozenset()) -> bool:
    """Hamiltonian a-b path of g minus ``exclude``."""
    want = set(range(g.n)) - set(exclude)
    return (set(seq) == want and len(seq) == len(want) and seq[0] == a
            and seq[-1] == b
            and all(g.has_edge(p, q) for p, q in zip(seq, seq[1:])))


def _outer_planar_witness(g: PlaneGraph, keep) -> OuterPlanarWitness | None:
    """A face of the restriction whose walk visits every kept vertex."""
    sub, origin = g.delete_vertices(set(range(g.n)) - set(keep))
    for f in sub.faces:
        if set(f) == set(range(sub.n)):
            return OuterPlanarWitness(tuple(origin[z] for z in f))
    return None


def two_ham_paths_uv(r: NearTriangulation, budget=None):
    """Dichotomy for an outer 4-cycle u v w x (no separating triangles):
    a witness that G - {w, x} is an outer planar near triangulation, or two
    Hamiltonian u-v paths of it.

    Recursive construction: peel an end of the u-v edge with a unique
    interior neighbor; otherwise the 2-connected branch combines a
    Thomassen path with a Thomas-Yu two-edge path.
    """
    u, v, w, x = _require_square_region(r)
    g = r.graph
    budget = search_budget(budget)

    if g.n == 4:
        return OuterPlanarWitness((u, v))

    if g.has_edge(u, w) or g.has_edge(v, x):
        raise HypothesisViolated("no_separating_triangles", "outer chord present")

    keep = set(range(g.n)) - {w, x}

    def interior_nbrs(z):
        return sorted(g.adj[z] - set((u, v, w, x)))

    iu, iv = interior_nbrs(u), interior_nbrs(v)
    if len(iu) == 1 or len(iv) == 1:
        if len(iu) == 1:
            peel, anchor, new_outer = u, iu[0], None
        else:
            peel, anchor, new_outer = v, iv[0], None
        sub, origin = g.delete_vertices({peel})
        fwd = {old: new for new, old in enumerate(origin)}
        if peel == u:
            oc = Cycle((fwd[anchor], fwd[v], fwd[w], fwd[x]))
        else:
            oc = Cycle((fwd[u], fwd[anchor], fwd[w], fwd[x]))
        sub_nt = NearTriangulation(sub, oc, origin=origin)
        res = two_ham_paths_uv(sub_nt, budget=budget)
        if isinstance(res, OuterPlanarWitness):
            wit = _outer_planar_witness(g, keep)
            if wit is None:
                raise SearchExhausted("peel recursion claimed outer planarity "
                                      "but no covering face exists")
            return wit
        lift = {new: old for new, old in enumerate(origin)}
        first = tuple(lift[z] for z in res.first)
        second = tuple(lift[z] for z in res.second)
        if peel == u:
            first, second = (u,) + first, (u,) + second
        else:
            first, second = first + (v,), second + (v,)
        for p in (first, second):
            if not is_ham_path_of(g, p, u, v, exclude={w, x}):
                raise SearchExhausted(f"peel-extended path invalid: {p}")
        return PathPair(graph_n=g.n, a=u, b=v, first=first, second=second)

    # both u and v have >= 2 interior neighbors: one of the two apex
    # deletions is 2-connected
    for apex, other in ((u, v), (v, u)):
        sub, origin = g.delete_vertices({w, x, apex})
        if not sub.connected or sub.n < 3:
            continue
        if _has_cut_vertex(sub):
            continue
        fwd = {old: new for new, old in enumerate(origin)}
        d = _merged_outer_face(g, sub, origin)
        if d is None:
            continue
        res = _uv_two_connected_case(g, sub, origin, fwd, d, apex, other,
                                     u, v, w, x, budget)
        if res is not None:
            return res
    raise SearchExhausted("two_ham_paths_uv: no branch applied "
                          f"(outer {u},{v},{w},{x}, n={g.n})")


def _has_cut_vertex(g: PlaneGraph) -> bool:
    from .plane_graph import _connected_after_removal
    return any(not _connected_after_removal(g, {v}) for v in range(g.n))


def _merged_outer_face(host: PlaneGraph, sub: PlaneGraph, origin) -> Cycle | None:
    """The face of ``sub`` that is not a face of the host: its outer cycle."""
    host_faces = {canonical_cycle(f) for f in host.faces}
    cands = [f for f in sub.faces
             if canonical_cycle(tuple(origin[z] for z in f)) not in host_faces]
    if len(cands) != 1 or len(set(cands[0])) != len(cands[0]):
        return None
    return Cycle(cands[0])


def _uv_two_connected_case(g, sub, origin, fwd, d, apex, other, u, v, w, x, budget):
    """The Thomassen + Thomas-Yu construction for the 2-connected branch.

    With apex = u: a1 is u's unique interior neighbor adjacent to x, a2 the
    one adjacent to v; P runs a1 -> v through an outer edge at the w,x
    common neighbor y; Q is a (v D a2)-Tutte path v -> a2 through that edge
    and one at a1.  Extending both through the apex gives the pair.  The
    apex = v case is the u<->v, x<->w mirror.
    """
    side_back, side_fwd = (x, v) if apex == u else (w, u)
    interior = set(range(g.n)) - {u, v, w, x}
    n1 = [z for z in sorted(g.adj[apex] & interior) if side_back in g.adj[z]]
    n2 = [z for z in sorted(g.adj[apex] & interior) if side_fwd in g.adj[z]]
    ys = sorted((g.adj[w] & g.adj[x]) - {u, v})
    if len(n1) != 1 or len(n2) != 1 or len(ys) != 1:
        return None
    a1, a2, y = n1[0], n2[0], ys[0]
    a1s, a2s, ys_, others = fwd[a1], fwd[a2], fwd[y], fwd[other]
    if a1s not in d.vertices or a2s not in d.vertices:
        return None

    e_opts = sorted(e for e in d.edges() if ys_ in e)
    f_opts = sorted(e for e in d.edges() if a1s in e)
    for e in e_opts:
        try:
            cert1 = tutte_path(sub, d, a1s, others, e, hamiltonian=True,
                               budget=budget)
        except SearchExhausted:
            continue
        for dd in (d, Cycle(tuple(reversed(d.vertices)))):
            for f in f_opts:
                if f == e or not clockwise_order_ok(dd, others, e, f, a2s):
                    continue
                try:
                    cert2 = tutte_path_two_edges(sub, dd, others, a2s, e, f,
                                                 hamiltonian=True, budget=budget)
                except (SearchExhausted, BadOrder):
                    continue
                p1 = tuple(origin[z] for z in cert1.path)        # a1 .. other
                q = tuple(origin[z] for z in cert2.path)         # other .. a2
                if apex == u:
                    first = (u,) + p1                            # u a1 .. v
                    second = (u,) + tuple(reversed(q))           # u a2 .. v
                else:
                    first = tuple(reversed(p1)) + (v,)           # u .. v1 v
                    second = q + (v,)                            # u .. v2 v
                if not is_ham_path_of(g, first, u, v, exclude={w, x}):
                    continue
                if not is_ham_path_of(g, second, u, v, exclude={w, x}):
                    continue
                if path_edges(first) == path_edges(second):
                    continue
                return PathPair(graph_n=g.n, a=u, b=v, first=first, second=second)
    return None



# ---------------------------------------------------------------------------
# Hamiltonian cycles through prescribed triangle edges
# ---------------------------------------------------------------------------

def ham_cycle_through_triangle_edges(g: PlaneGraph, t: Cycle, t1: Cycle,
                                     t2: Cycle, budget=None):
    """A Hamiltonian cycle through uv, uw (u the first vertex of t) and one
    edge from each of t1, t2, all four distinct.

    Returns (cycle edge set, e1, e2).  Existence is the Jackson-Yu theorem
    for triangulations without separating triangles, so exhausting the
    search raises SearchExhausted as a counterexample alarm.
    """
    for tri in (t, t1, t2):
        tri.validate(g)
        if len(tri) != 3:
            raise HypothesisViolated("triangles_only")
    keys = {canonical_cycle(tri.vertices) for tri in (t, t1, t2)}
    if len(keys) != 3:
        raise HypothesisViolated("distinct_triangles")
    if has_separating_triangle(g):
        raise HypothesisViolated("no_separating_triangles")
    u, v, w = t.vertices
    base = [edge_key(u, v), edge_key(u, w)]
    budget = search_budget(budget)
    for e1 in sorted(t1.edges()):
        for e2 in sorted(t2.edges()):
            need = base + [e1, e2]
            if len(set(need)) != 4:
                continue
            found = enumerate_ham_cycles_raw(g, required_edges=need,
                                             budget=budget, cap=1)
            if found:
                return found[0][0], e1, e2
    raise SearchExhausted(
        f"no Hamiltonian cycle through {base} plus edges of {t1.vertices}, {t2.vertices}")


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

    def count_for(self, a, b):
        key = (a, b) if a < b else (b, a)
        return dict(self.counts)[key]


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
        keep_drop = set(cvs) - {a, b}
        sub, origin = g.delete_vertices(keep_drop)
        fwd = {old: new for new, old in enumerate(origin)}
        if not sub.connected:
            counts[(a, b)] = 0
            paths_by_pair[(a, b)] = []
            continue
        found = enumerate_ham_paths(sub, fwd[a], fwd[b], budget=budget)
        paths = [tuple(origin[q] for q in p) for _e, p in found]
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
