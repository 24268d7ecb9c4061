"""Replays of the cycle-family constructions as executable pipelines.

Every branch emits cycles that are re-verified against the original graph
and deduplicated by canonical edge set; the families are lower-bound
machines, so |family| <= exact count always, with no equality expected.
The asymptotic thresholds of the original counting arguments are vacuous at
this scale; branches run whenever their structural prerequisites hold (a run
of seven two-vertex blocks for the contraction step, a connected interior
for the region-splice step), and the per-step promises are asserted instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    ChainBroken,
    DisconnectedInterior,
    EmptyInterior,
    EmptyStar,
    HypothesisViolated,
    InteriorsOverlap,
    MultiEdge,
    NotACycle,
    NotAChain,
    SearchExhausted,
    StructureViolation,
)
from .ham_enum import (
    HamFamily,
    enumerate_ham_cycles_raw,
    enumerate_ham_paths,
    first_ham_cycle,
    is_ham_cycle,
)
from .indset import (
    IndSetCert,
    ham_family_from_edge_families,
    special_set,
)
from .plane_graph import (
    Cycle,
    NearTriangulation,
    PlaneGraph,
    _connected_after_removal,
    add_edge_in_face,
    block_chain,
    canonical_cycle,
    closure_containing,
    closure_of_disc,
    contract_edge,
    contract_interior,
    contract_interior_containing,
    disc_faces,
    edge_key,
    mask_bits,
    vertex_mask,
)
from .structures import (
    DiamondCert,
    is_four_connected_triangulation,
    separating_cycles,
)
from .tutte import (
    PathPair,
    PathWitness,
    ham_cycle_through_triangle_edges,
    tutte_path,
    two_ham_paths_uv,
    two_ham_paths_uw,
)


# ---------------------------------------------------------------------------
# shared machinery for the common-neighborhood branch
# ---------------------------------------------------------------------------

def _enclosing_square(g: PlaneGraph, v: int, x: int):
    """A 4-cycle u-v-w-x whose closed disc holds every common neighbor of
    v, x.

    Returns (cycle, inside faces, disc mask) as ``disc_faces`` gives them,
    for ``closure_of_disc``, or None; deterministic over ordered
    common-neighbor pairs.  Builds no graph.
    """
    common = g.nbr_masks[v] & g.nbr_masks[x]
    for u, w in itertools.permutations(mask_bits(common), 2):
        c = Cycle((u, v, w, x))
        try:
            inside, disc = disc_faces(g, c)
        except NotACycle:
            continue
        if not common & ~disc:
            return c, inside, disc
    return None


def _junction_chain(g: PlaneGraph, cl: NearTriangulation, c: Cycle, v: int, x: int):
    """Block chain of the closure minus {v, x}, with endpoints u, w.

    Returns (blocks, endpoints) in original graph ids.
    """
    u, _v, w, _x = c.vertices
    fwd = {z: i for i, z in enumerate(cl.origin)}
    chain = block_chain(cl.graph, fwd[u], fwd[w], exclude={fwd[v], fwd[x]})
    blocks = tuple(frozenset(cl.to_origin(z) for z in b) for b in chain.blocks)
    endpoints = tuple(cl.to_origin(z) for z in chain.endpoints)
    return blocks, endpoints


def _two_block_run(blocks):
    """First index i with seven consecutive 2-vertex blocks, or None."""
    run = 0
    for i, b in enumerate(blocks):
        run = run + 1 if len(b) == 2 else 0
        if run == 7:
            return i - 6
    return None


def _cycle_neighbors(edges, v):
    nbrs = sorted(q for e in edges if v in e for q in e if q != v)
    return tuple(nbrs)


def _drop_vertex(edges, v):
    return frozenset(e for e in edges if v not in e)


def _path_edge_list(seq):
    return [edge_key(a, b) for a, b in zip(seq, seq[1:])]


# ---------------------------------------------------------------------------
# Case 2: contract the middle edge of a run of degree-4 junctions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Run:
    """Six consecutive degree-4 junctions u1..u6 between v and x."""

    v: int
    x: int
    u: tuple[int, int, int, int, int, int]

    @property
    def mid(self):
        return self.u[2], self.u[3]

    @property
    def inner(self):
        # the square p v q x around the contracted pair
        return self.u[1], self.u[4]


def _find_run(g: PlaneGraph, v: int, x: int, c: Cycle, cl) -> _Run | None:
    try:
        blocks, endpoints = _junction_chain(g, cl, c, v, x)
    except NotAChain:
        return None
    i = _two_block_run(blocks)
    if i is None:
        return None
    # seven 2-blocks B_i..B_i+6 have six interior junctions
    u = tuple(endpoints[i + 1:i + 7])
    if len(u) != 6 or any(g.degrees[q] != 4 for q in u):
        return None
    return _Run(v=v, x=x, u=u)


def _lift_contracted_cycles(g, sub_family, origin, star, run: _Run):
    """Re-expand cycles of G/u3u4 into G, always through edge u3u4."""
    u3, u4 = run.mid
    p, q = run.inner
    v, x = run.v, run.x
    inserts = {
        frozenset((p, v)): (p, u3, u4, v),
        frozenset((p, x)): (p, u3, u4, x),
        frozenset((q, v)): (q, u4, u3, v),
        frozenset((q, x)): (q, u4, u3, x),
        frozenset((v, x)): (v, u3, u4, x),
        frozenset((p, q)): (p, u3, u4, q),
    }
    out = []
    for cyc in sub_family:
        nbrs = _cycle_neighbors(cyc, star)
        if len(nbrs) != 2:
            raise StructureViolation("contracted vertex not on the cycle")
        a, b = (origin[z] for z in nbrs)
        ins = inserts.get(frozenset((a, b)))
        if ins is None:
            raise StructureViolation(
                f"cycle passes the contracted vertex via {a},{b}")
        edges = set()
        for e in _drop_vertex(cyc, star):
            edges.add(edge_key(origin[e[0]], origin[e[1]]))
        edges.update(_path_edge_list(ins))
        out.append(frozenset(edges))
    return out


_SURGERY_SYMMETRIES = (
    (False, False), (True, False), (False, True), (True, True),
)


def _exchange_cycle(g, cprime_edges, run: _Run, lift_back):
    """The extra cycle avoiding u3u4, from the Jackson-Yu cycle of
    (G/u3u4 - star) + pq via the three exchange templates."""
    u3g, u4g = run.mid
    pg, qg = run.inner
    vg, xg = run.v, run.x
    ce = {edge_key(lift_back[a], lift_back[b]) for a, b in cprime_edges}

    for swap_vx, swap_pq in _SURGERY_SYMMETRIES:
        v, x = (xg, vg) if swap_vx else (vg, xg)
        if swap_pq:
            p, q = qg, pg
            u3, u4 = u4g, u3g
            u1, u6 = run.u[5], run.u[0]
        else:
            p, q = pg, qg
            u3, u4 = u3g, u4g
            u1, u6 = run.u[0], run.u[5]
        e1 = edge_key(v, p)
        if e1 not in ce:
            continue
        if edge_key(p, q) in ce:
            # template 1: p rides v and q; u1 hangs off v or x
            if edge_key(v, u1) in ce:
                edges = set(ce) - {edge_key(v, p), edge_key(p, q), edge_key(v, u1)}
                edges.update(_path_edge_list((u1, p, u3, v, u4, q)))
                return frozenset(edges)
            if edge_key(x, u1) in ce:
                edges = set(ce) - {edge_key(x, u1), edge_key(v, p), edge_key(p, q)}
                edges.update(_path_edge_list((u1, p, u3, x)))
                edges.update(_path_edge_list((v, u4, q)))
                return frozenset(edges)
            continue
        if edge_key(x, p) in ce:
            # template 2: p rides v and x; symmetric in v, x
            for vv, xx in ((v, x), (x, v)):
                if edge_key(vv, u1) in ce:
                    edges = set(ce) - {edge_key(v, p), edge_key(x, p),
                                       edge_key(vv, u1)}
                    edges.update(_path_edge_list((u1, p, u3, vv, u4, xx)))
                    return frozenset(edges)
            continue
        if edge_key(x, q) in ce and edge_key(p, q) not in ce:
            # template 3: two disjoint detours
            edges = set(ce) - {edge_key(v, p), edge_key(x, q)}
            edges.update(_path_edge_list((p, u3, v)))
            edges.update(_path_edge_list((x, u4, q)))
            return frozenset(edges)
    return None


def _run_square_graph(g, gstar, star, origin, run: _Run):
    """(G/u3u4 - star) + pq, a triangulation again, plus its label map."""
    sub, sub_origin = gstar.delete_vertices({star})
    lift_back = [origin[z] for z in sub_origin]
    fwd = {lab: i for i, lab in enumerate(lift_back)}
    p, q = run.inner
    gprime = add_edge_in_face(sub, fwd[p], fwd[q])
    return gprime, lift_back, fwd


# ---------------------------------------------------------------------------
# cycle families through two prescribed triangle edges
# ---------------------------------------------------------------------------

def _triangle_of(g, e, f):
    e, f = edge_key(*e), edge_key(*f)
    shared = set(e) & set(f)
    if len(shared) != 1:
        raise HypothesisViolated("edges_share_triangle", "no common vertex")
    b = shared.pop()
    a = (set(e) - {b}).pop()
    c = (set(f) - {b}).pop()
    if not g.has_edge(a, c):
        raise HypothesisViolated("edges_share_triangle", f"{a}-{c} missing")
    return a, b, c


def lemma_2edge_family(g: PlaneGraph, e, f, budget=None, t=None,
                       _depth=0) -> HamFamily:
    """Family of Hamiltonian cycles through both e and f (edges of one
    triangle), replaying the counting argument.

    Branches on the special-set outcome: the edge-deletion-family branch, or
    the common-neighborhood branch with the region-splice step (contract the
    whole interior) and the degree-4-run step (contract the middle edge of
    the run, recurse, lift, and add the exchange cycle avoiding it).  A
    direct constrained search backstops tiny instances where no machinery
    applies, the same direct construction the induction bottoms out on.
    """
    e, f = edge_key(*e), edge_key(*f)
    if not is_four_connected_triangulation(g):
        raise HypothesisViolated("four_connected_triangulation")
    a, b, c = _triangle_of(g, e, f)
    cap = budget if budget is not None else 10 ** 6
    fam = HamFamily(g)
    g = g.rooted_at_face((a, b, c))

    branch = special_set(g, t=t)
    if isinstance(branch, IndSetCert):
        s1 = tuple(v for v in branch.vertices if v not in (a, b, c))
        cert1 = IndSetCert(vertices=s1,
                           max_degree=max((g.degrees[v] for v in s1), default=0),
                           provenance=branch.provenance + ("drop_triangle",))
        return ham_family_from_edge_families(g, cert1, cap=cap,
                                             required_edges=(e, f))

    pair = branch
    v, x = pair.v, pair.x
    square = _enclosing_square(g, v, x)
    if square is not None:
        cyc, cl = square[0], closure_of_disc(g, *square)
        _case1_splice(g, cyc, cl, fam, cap, e, f)
        run = _find_run(g, v, x, cyc, cl)
        if run is not None and _depth < 8:
            _case2_contract(g, run, fam, cap, e, f, t, _depth)
    if not fam:
        found = enumerate_ham_cycles_raw(g, required_edges=[e, f], cap=1)
        if not found:
            raise SearchExhausted(f"no Hamiltonian cycle through {e}, {f}")
        fam.add(found[0][0], "base_direct")
        fam.log.append({"branch": "base_direct", "distinct": len(fam)})
    return fam


def _case1_splice(g, cyc: Cycle, cl: NearTriangulation, fam: HamFamily, cap, e, f):
    """Contract the interior of the enclosing square (closure ``cl``),
    enumerate cycles through e, f of the contraction, and splice every region
    path for the pair the cycle uses."""
    try:
        gstar, star, origin = contract_interior(g, cyc)
    except (EmptyInterior, DisconnectedInterior) as exc:
        fam.log.append({"branch": "case1", "skipped": str(exc)})
        return
    fwd = {lab: i for i, lab in enumerate(origin) if lab is not None}
    req_local = [edge_key(fwd[p], fwd[q]) for p, q in (e, f)]
    cl_fwd = {z: i for i, z in enumerate(cl.origin)}
    spliced = 0
    for cyc_edges, _p in enumerate_ham_cycles_raw(gstar, required_edges=req_local,
                                                  cap=cap):
        p_loc, q_loc = _cycle_neighbors(cyc_edges, star)
        p, q = origin[p_loc], origin[q_loc]
        drop = [cl_fwd[z] for z in cyc.vertices if z not in (p, q)]
        trunk = {edge_key(origin[p2], origin[q2])
                 for p2, q2 in _drop_vertex(cyc_edges, star)}
        for pathseq in enumerate_ham_paths(cl.graph, cl_fwd[p], cl_fwd[q],
                                           cap=cap, exclude=drop):
            lifted = [cl.to_origin(z) for z in pathseq]
            edges = trunk | set(_path_edge_list(lifted))
            if is_ham_cycle(g, edges) and e in edges and f in edges:
                if fam.add(frozenset(edges), "case1"):
                    spliced += 1
            if len(fam) >= cap:
                break
        if len(fam) >= cap:
            break
    fam.log.append({"branch": "case1", "spliced": spliced, "distinct": len(fam)})


def _case2_contract(g, run: _Run, fam: HamFamily, cap, e, f, t, depth):
    u3, u4 = run.mid
    gstar, star, origin = contract_edge(g, u3, u4)
    fwd = {lab: i for i, lab in enumerate(origin) if lab is not None}
    sub_fam = lemma_2edge_family(gstar, edge_key(fwd[e[0]], fwd[e[1]]),
                                 edge_key(fwd[f[0]], fwd[f[1]]),
                                 budget=cap, t=t, _depth=depth + 1)
    lifted = _lift_contracted_cycles(g, sub_fam.cycles, origin, star, run)
    for cyc in lifted:
        if edge_key(u3, u4) not in cyc:
            raise StructureViolation("lifted cycle misses the contracted edge")
        fam.add(cyc, "case2_lift")
    extra = _case2_exchange(g, run, gstar, star, origin, e, f)
    if extra is not None:
        if edge_key(u3, u4) in extra:
            raise StructureViolation("exchange cycle uses the contracted edge")
        fam.add(extra, "case2_exchange")
    fam.log.append({"branch": "case2", "lifted": len(lifted),
                    "exchange": extra is not None, "distinct": len(fam)})


def _case2_exchange(g, run: _Run, gstar, star, origin, e, f):
    """One cycle through e, f avoiding u3u4, via the square graph."""
    try:
        gprime, lift_back, fwd = _run_square_graph(g, gstar, star, origin, run)
    except (MultiEdge, NotACycle):
        return None
    if not is_four_connected_triangulation(gprime):
        return None
    p, q = run.inner
    v, x = run.v, run.x
    a, b, c = _triangle_of(g, e, f)
    try:
        tri = Cycle((fwd[b], fwd[a], fwd[c]))
        t1 = Cycle((fwd[v], fwd[p], fwd[q]))
        t2 = Cycle((fwd[x], fwd[p], fwd[q]))
        cyc_edges, _e1, _e2 = ham_cycle_through_triangle_edges(
            gprime, tri, t1, t2)
    except (HypothesisViolated, SearchExhausted):
        return None
    out = _exchange_cycle(g, cyc_edges, run, lift_back)
    if out is not None and is_ham_cycle(g, out) and \
            edge_key(*e) in out and edge_key(*f) in out:
        return out
    return None


# ---------------------------------------------------------------------------
# the main induction: many cycles under few separating 4-cycles
# ---------------------------------------------------------------------------

def theorem1_family(g: PlaneGraph, budget=None, t=None, _depth=0) -> HamFamily:
    """Replay of the main induction: edge-family branch, region-splice
    branch, or contract-and-recurse with the two extra families through
    the exchange square.  Bottoms out at n <= 8 by direct enumeration."""
    if not is_four_connected_triangulation(g):
        raise HypothesisViolated("four_connected_triangulation")
    cap = budget if budget is not None else 10 ** 6
    fam = HamFamily(g)
    if g.n <= 8 or _depth >= 8:
        for cyc, _p in enumerate_ham_cycles_raw(g, cap=cap):
            fam.add(cyc, "base_enumeration")
        fam.log.append({"branch": "base_enumeration", "n": g.n,
                        "distinct": len(fam)})
        return fam

    branch = special_set(g, t=t)
    if isinstance(branch, IndSetCert):
        sub = ham_family_from_edge_families(g, branch, cap=cap)
        fam.merge(sub)
        fam.log.append({"branch": "edge_families", "set_size": len(branch),
                        "distinct": len(fam)})
        return fam

    v, x = branch.v, branch.x
    square = _enclosing_square(g, v, x)
    if square is None:
        for cyc_edges, _p in enumerate_ham_cycles_raw(g, cap=2):
            fam.add(cyc_edges, "fallback_no_enclosing_cycle")
        fam.log.append({"branch": "fallback_no_enclosing_cycle",
                        "distinct": len(fam)})
        return fam

    cyc, cl = square[0], closure_of_disc(g, *square)
    _theorem1_trunk_splice(g, cyc, cl, fam, cap)
    run = _find_run(g, v, x, cyc, cl)
    if run is not None:
        _theorem1_case2(g, run, fam, cap, t, _depth)
    if not fam:
        for cyc_edges, _p in enumerate_ham_cycles_raw(g, cap=2):
            fam.add(cyc_edges, "tutte_base")
        fam.log.append({"branch": "tutte_base", "distinct": len(fam)})
    return fam


def _theorem1_trunk_splice(g, cyc: Cycle, cl, fam: HamFamily, cap) -> int:
    """One Hamiltonian trunk path of G minus the interior, times every
    Hamiltonian u-w path of the region between the pair."""
    u, v, w, x = cyc.vertices
    interior = set(cl.origin) - set(cyc.vertices)
    if not interior:
        return 0
    sub, origin = g.delete_vertices(interior)
    fwd = {old: new for new, old in enumerate(origin)}
    try:
        nt = NearTriangulation(sub, Cycle(tuple(fwd[z] for z in cyc.vertices)),
                               origin=origin)
        cert = tutte_path(nt, None, fwd[u], fwd[w],
                          edge_key(fwd[u], fwd[v]), hamiltonian=True)
    except (NotACycle, HypothesisViolated, SearchExhausted) as exc:
        fam.log.append({"branch": "trunk_splice", "skipped": str(exc)})
        return 0
    trunk = [edge_key(origin[a], origin[b])
             for a, b in zip(cert.path, cert.path[1:])]
    cl_fwd = {z: i for i, z in enumerate(cl.origin)}
    drop = {cl_fwd[v], cl_fwd[x]}
    if not _connected_after_removal(cl.graph, vertex_mask(drop)):
        fam.log.append({"branch": "trunk_splice", "skipped": "region disconnected"})
        return 0
    added = 0
    for pathseq in enumerate_ham_paths(cl.graph, cl_fwd[u], cl_fwd[w],
                                       cap=cap, exclude=drop):
        lifted = [cl.to_origin(z) for z in pathseq]
        edges = set(trunk) | set(_path_edge_list(lifted))
        if is_ham_cycle(g, edges) and fam.add(frozenset(edges), "trunk_splice"):
            added += 1
        if len(fam) >= cap:
            break
    fam.log.append({"branch": "trunk_splice", "added": added,
                    "distinct": len(fam)})
    return added


def _theorem1_case2(g, run: _Run, fam: HamFamily, cap, t, depth):
    u3, u4 = run.mid
    p, q = run.inner
    v, x = run.v, run.x
    gstar, star, origin = contract_edge(g, u3, u4)
    sub_fam = theorem1_family(gstar, budget=cap, t=t, _depth=depth + 1)
    for cyc in _lift_contracted_cycles(g, sub_fam.cycles, origin, star, run):
        if edge_key(u3, u4) not in cyc:
            raise StructureViolation("lifted cycle misses the contracted edge")
        fam.add(cyc, "case2_lift")
    extras = 0
    try:
        gprime, lift_back, fwd = _run_square_graph(g, gstar, star, origin, run)
    except (MultiEdge, NotACycle):
        gprime = None
    if gprime is not None and is_four_connected_triangulation(gprime):
        for apex, detour in ((v, (p, u3, v, u4, q)), (x, (p, u3, x, u4, q))):
            try:
                sub = lemma_2edge_family(gprime,
                                         edge_key(fwd[apex], fwd[p]),
                                         edge_key(fwd[apex], fwd[q]),
                                         budget=cap, t=t, _depth=depth + 1)
            except (HypothesisViolated, SearchExhausted):
                continue
            for cyc in sub.cycles:
                lifted = {edge_key(lift_back[a], lift_back[b]) for a, b in cyc}
                apex_edges = {e for e in lifted if apex in e}
                edges = (lifted - apex_edges) | set(_path_edge_list(detour))
                if edge_key(u3, u4) in edges:
                    raise StructureViolation("splice reintroduced the contracted edge")
                if is_ham_cycle(g, edges) and fam.add(frozenset(edges),
                                                      f"case2_square_{apex}"):
                    extras += 1
    fam.log.append({"branch": "case2", "extras": extras, "distinct": len(fam)})


# ---------------------------------------------------------------------------
# diamonds with disjoint pockets
# ---------------------------------------------------------------------------

def _diamond_pocket(g: PlaneGraph, cert: DiamondCert):
    """(closure of the center 4-cycle on the pocket side, interior set)."""
    c = cert.separating_cycle()
    _faces, dbar = disc_faces(g, cert.outer_cycle, cert.role("center"))
    pocket = set(mask_bits(dbar)) - cert.vertices
    if not pocket:
        raise StructureViolation(
            "diamond with an empty pocket (needs minimum degree 5)")
    marker = min(pocket)
    cl = closure_containing(g, c, marker)
    return cl, frozenset(pocket)


def disjoint_diamond_family(g: PlaneGraph, diamonds, budget=None) -> HamFamily:
    """Contract every diamond pocket, take one Hamiltonian cycle of the
    result, and splice the >= 2 region paths per pocket: up to 2^k cycles."""
    cap = budget if budget is not None else 10 ** 6
    fam = HamFamily(g)
    diamonds = list(diamonds)
    if not diamonds:
        cyc = first_ham_cycle(g)
        if cyc is None:
            raise SearchExhausted("no Hamiltonian cycle in the base graph")
        fam.add(cyc, "no_diamonds")
        return fam

    pockets = []
    for cert in diamonds:
        cl, interior = _diamond_pocket(g, cert)
        pockets.append((cert, cl, interior))
    for (c1, _a, i1), (c2, _b, i2) in itertools.combinations(pockets, 2):
        if i1 & i2:
            raise InteriorsOverlap(
                f"pockets of {sorted(c1.vertices)} and {sorted(c2.vertices)} share {sorted(i1 & i2)}")

    # contract pocket by pocket, tracking labels (ints of g, or ('z', i))
    cur = g
    labels = list(range(g.n))
    for idx, (cert, _cl, _interior) in enumerate(pockets):
        fwd = {lab: i for i, lab in enumerate(labels)}
        c_local = Cycle(tuple(fwd[z] for z in cert.separating_cycle().vertices))
        marker = fwd[min(_interior)]
        cur, star, origin = contract_interior_containing(cur, c_local, marker)
        labels = [labels[z] if z is not None else ("z", idx) for z in origin]

    base = first_ham_cycle(cur)
    if base is None:
        raise SearchExhausted("contracted graph has no Hamiltonian cycle")
    lab = {i: labels[i] for i in range(cur.n)}
    base_labeled = frozenset((lab[a], lab[b]) for a, b in base)

    choices = []
    trunk = set(base_labeled)
    for idx, (cert, cl, _interior) in enumerate(pockets):
        z = ("z", idx)
        zedges = [e for e in base_labeled if z in e]
        ends = [q for e in zedges for q in e if q != z]
        if len(ends) != 2 or any(isinstance(q, tuple) for q in ends):
            raise InteriorsOverlap(f"pocket {idx} touches another pocket")
        a, b = sorted(ends)
        trunk -= set(zedges)
        paths = _pocket_paths(g, cert, cl, a, b)
        if not paths:
            raise SearchExhausted(f"pocket {idx} has no completion between {a},{b}")
        choices.append(paths)
        fam.log.append({"branch": "pocket", "index": idx, "pair": (a, b),
                        "paths": len(paths)})

    for combo in itertools.product(*choices):
        edges = {edge_key(*e2) for e2 in trunk}
        for pathseq in combo:
            edges.update(_path_edge_list(pathseq))
        fam.add(frozenset(edges), "disjoint_diamonds")
        if len(fam) >= cap or len(fam) >= 2 ** len(pockets):
            break
    fam.log.append({"branch": "disjoint_diamonds", "pockets": len(pockets),
                    "distinct": len(fam)})
    return fam


def _pocket_paths(g, cert, cl: NearTriangulation, a, b):
    """Up to two Hamiltonian a-b paths of the pocket region, preferring
    the two-path lemmas and falling back to direct search."""
    c = cl.outer_cycle
    fwd = {z: i for i, z in enumerate(cl.origin)}
    vs = c.vertices
    ia, ib = vs.index(fwd[a]), vs.index(fwd[b])
    out = []
    res = None
    try:
        if (ia - ib) % 4 == 2:
            order = tuple(vs[(ia + k) % 4] for k in range(4))
            res = two_ham_paths_uw(NearTriangulation(cl.graph, Cycle(order)))
        elif (ib - ia) % 4 == 1 or (ia - ib) % 4 == 1:
            if (ib - ia) % 4 != 1:
                ia, ib = ib, ia
                a, b = b, a
            order = tuple(vs[(ia + k) % 4] for k in range(4))
            res = two_ham_paths_uv(NearTriangulation(cl.graph, Cycle(order)))
    except HypothesisViolated:
        res = None
    if isinstance(res, PathPair):
        got = [res.first, res.second]
        if res.a != fwd[a]:
            got = [tuple(reversed(p)) for p in got]
        out = [tuple(cl.to_origin(z) for z in p) for p in got]
    elif isinstance(res, PathWitness):
        out = [tuple(cl.to_origin(z) for z in res.vertices)]
        if out[0][0] != a:
            out = [tuple(reversed(out[0]))]
    if not out:
        drop = [q for q in vs if cl.to_origin(q) not in (a, b)]
        paths = enumerate_ham_paths(cl.graph, fwd[a], fwd[b], cap=2, exclude=drop)
        out = [tuple(cl.to_origin(z) for z in p) for p in paths]
    return out[:2]


# ---------------------------------------------------------------------------
# nested chains of diamonds and the cycle tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ladder:
    """One contracted region graph with labels back to the host.

    ``labels[i]`` is either an original vertex id or ('z', level) for a
    contracted pocket."""

    graph: PlaneGraph
    labels: tuple

    def local(self, label):
        return self.labels.index(label)


@dataclass
class NestedChain:
    """The longest nesting chain of diamonds with its ladder graphs.

    ``cycles[j]`` is the center 4-cycle of diamond j; ``g_ladders[j]`` the
    closure of cycles[j] with the next pocket contracted to ('z', j+1);
    ``h_ladders[j]`` the whole graph with pocket j contracted to ('z', j).
    ``pair_cases`` records the pairwise intersection classification over all
    diamonds grown from the seed set.
    """

    graph: PlaneGraph
    diamonds: list[DiamondCert]
    cycles: list[Cycle]
    closures: list[frozenset[int]]
    g_ladders: list[Ladder]
    h_ladders: list[Ladder]
    all_diamonds: list[DiamondCert]
    disjoint_roots: list[int]
    pair_cases: list[tuple[int, int, str]]

    @property
    def t(self):
        return len(self.diamonds)


def _grow_diamond(g: PlaneGraph, v: int, seps) -> DiamondCert:
    """The diamond of a seed vertex: its separating 4-cycle with maximal
    closure on the seed's side, ties by lexicographic outer cycle."""
    best = None
    for c in seps:
        nbrs_on_c = g.nbr_masks[v] & vertex_mask(c.vertices)
        if v in c.vertices or nbrs_on_c.bit_count() != 3:
            continue
        size = disc_faces(g, c, v)[1].bit_count()
        vs = c.vertices
        k = next(i for i in range(4) if not g.has_edge(v, vs[i]))
        outer = (vs[(k + 2) % 4], vs[(k + 1) % 4], vs[k], vs[(k + 3) % 4])
        key = (-size, canonical_cycle(outer))
        if best is None or key < best[0]:
            cert = DiamondCert(
                kind="diamond4",
                roles=(("center", v), ("y", outer[0]), ("v", outer[1]),
                       ("w", outer[2]), ("x", outer[3])),
                crucial=(v, outer[0]),
                outer_cycle=Cycle(outer),
            )
            best = (key, cert)
    if best is None:
        raise EmptyStar(f"vertex {v} is adjacent to 3 vertices of no separating 4-cycle")
    return best[1]


def _classify_pair(g, c1: DiamondCert, c2: DiamondCert) -> str:
    shared = c1.vertices & c2.vertices
    if len(shared) > 2:
        return "violation_overlap"
    if len(shared) == 2:
        a, b = sorted(shared)
        in1, in2 = edge_key(a, b) in c1.edges(), edge_key(a, b) in c2.edges()
        cr1 = len(shared & set(c1.crucial))
        cr2 = len(shared & set(c2.crucial))
        if in1 and in2 and cr1 == 0 and cr2 == 0:
            return "shared_edge_noncrucial"
        if not in1 and not in2 and cr1 == 1 and cr2 == 1:
            return "shared_nonadjacent_one_crucial_each"
        return "violation_shared_pair"
    return "disjoint" if not shared else "single_vertex"


def nested_chain(g: PlaneGraph, s_star) -> NestedChain:
    """Grow one diamond per seed vertex, verify the pairwise intersection
    claim, split the laminar family into chains, and materialize the longest
    chain's ladder graphs."""
    s_star = sorted(set(s_star))
    if not s_star:
        raise EmptyStar("empty seed set")
    seps = separating_cycles(g, 4)
    if not seps:
        raise EmptyStar("no separating 4-cycles")
    all_certs = [_grow_diamond(g, v, seps) for v in s_star]
    if len({c.edges() for c in all_certs}) != len(all_certs):
        raise StructureViolation("two seeds grew the same diamond")

    pair_cases = []
    pockets = []
    for cert in all_certs:
        _faces, dbar = disc_faces(g, cert.outer_cycle, cert.role("center"))
        vs = frozenset(mask_bits(dbar))
        pockets.append((cert, vs, vs - cert.vertices))
    for (i, (c1, vs1, in1)), (j, (c2, vs2, in2)) in \
            itertools.combinations(enumerate(pockets), 2):
        case = _classify_pair(g, c1, c2)
        if case.startswith("violation"):
            raise StructureViolation(f"diamonds {i},{j}: {case}")
        pair_cases.append((i, j, case))
        if not (in1.isdisjoint(in2) or vs1 >= vs2 or vs2 >= vs1):
            raise StructureViolation(f"diamonds {i},{j} neither nested nor disjoint")

    # longest chain in the containment order, outermost first
    order = sorted(range(len(pockets)), key=lambda i: -len(pockets[i][1]))
    depth = {i: 1 for i in order}
    parent = {i: None for i in order}
    for i in order:
        for j in order:
            if i == j:
                continue
            if pockets[j][1] > pockets[i][1]:
                if depth[j] + 1 > depth[i]:
                    depth[i] = depth[j] + 1
                    parent[i] = j
    tip = max(order, key=lambda i: (depth[i], -len(pockets[i][1])))
    chain_idx = []
    cur = tip
    while cur is not None:
        chain_idx.append(cur)
        cur = parent[cur]
    chain_idx.reverse()
    roots = [i for i in order if parent[i] is None]

    diamonds = [all_certs[i] for i in chain_idx]
    cycles = [d.separating_cycle() for d in diamonds]
    closures = [pockets[i][1] for i in chain_idx]
    for a, b in zip(closures, closures[1:]):
        if not a > b:
            raise StructureViolation("chain closures fail strict containment")

    t = len(diamonds)
    g_ladders = []
    h_ladders = []
    for j in range(t):
        cert = diamonds[j]
        interior_j = pockets[chain_idx[j]][2]
        marker = min(interior_j)
        # H_{j+1}: contract this pocket in the whole graph
        hgraph, star, origin = contract_interior_containing(
            g, cycles[j], marker)
        h_labels = tuple(z if z is not None else ("z", j + 1) for z in origin)
        h_ladders.append(Ladder(hgraph, h_labels))
        # G_{j+1}: the closure of this cycle, next pocket contracted
        cl = closure_containing(g, cycles[j], marker)
        to_g = cl.origin
        if j + 1 < t:
            fwd = {lab: i for i, lab in enumerate(to_g)}
            nxt = Cycle(tuple(fwd[z] for z in cycles[j + 1].vertices))
            inner_marker = fwd[min(pockets[chain_idx[j + 1]][2])]
            ggraph, star2, origin2 = contract_interior_containing(
                cl.graph, nxt, inner_marker)
            labels = tuple(to_g[z] if z is not None else ("z", j + 2)
                           for z in origin2)
        else:
            ggraph, labels = cl.graph, to_g
        g_ladders.append(Ladder(ggraph, labels))

    return NestedChain(graph=g, diamonds=diamonds, cycles=cycles,
                       closures=closures, g_ladders=g_ladders,
                       h_ladders=h_ladders, all_diamonds=all_certs,
                       disjoint_roots=roots, pair_cases=pair_cases)


@dataclass
class CycleTree:
    """Tree of cycles: level-s nodes are Hamiltonian cycles of the s-th
    contraction, the leaves cycles of the full graph.

    A leaf is an int over ``edges``: bit i is set when the cycle holds
    ``edges[i]``.  ``cycles()`` decodes the leaves on demand."""

    levels: int
    branching: list[list[int]]
    leaves: list[int]
    edges: tuple
    partial: bool
    log: list[dict] = field(default_factory=list)

    def leaf_count(self):
        return len(self.leaves)

    def cycles(self):
        """Each leaf as a frozenset of ``edge_key`` tuples, in leaf order."""
        for leaf in self.leaves:
            yield frozenset(self.edges[i] for i in mask_bits(leaf))


def theorem2_tree(g: PlaneGraph, chain: NestedChain, budget=None) -> CycleTree:
    """Expand a root cycle of the outermost contraction level by level,
    replacing each contracted pocket vertex with every Hamiltonian path of
    its ladder region; the leaves are distinct cycles of the graph, for the
    caller to certify.

    Every cycle is an int over one index of labeled edges, grown as edges
    are met: bit i stands for ``edges[i]``, and ``zmask[s]`` holds the
    edges at pocket vertex ("z", s)."""
    cap = budget if budget is not None else 10 ** 6
    t = chain.t
    h1 = chain.h_ladders[0]
    base = first_ham_cycle(h1.graph)
    if base is None:
        raise ChainBroken(0, "outermost contraction has no Hamiltonian cycle")
    index = {}
    edges = []
    zmask = [0] * (t + 1)

    def path_mask(pairs):
        mask = 0
        for a, b in pairs:
            e = _labeled_edge(a, b)
            i = index.get(e)
            if i is None:
                i = index[e] = len(edges)
                edges.append(e)
                for q in e:
                    if isinstance(q, tuple):
                        zmask[q[1]] |= 1 << i
            mask |= 1 << i
        return mask

    lab = h1.labels
    frontier = [path_mask((lab[a], lab[b]) for a, b in base)]
    branching: list[list[int]] = []
    partial = False
    log = []
    for level in range(1, t + 1):
        ladder = chain.g_ladders[level - 1]
        cvs = set(chain.cycles[level - 1].vertices)
        z = ("z", level)
        nxt = []
        level_branching = []
        full = False
        for cyc in frontier:
            zbits = cyc & zmask[level]
            if zbits.bit_count() != 2:
                raise ChainBroken(level, "pocket vertex not on the cycle")
            a, b = sorted(q for i in mask_bits(zbits) for q in edges[i] if q != z)
            rest = cyc ^ zbits
            paths = _ladder_paths(ladder, cvs, a, b, cap)
            if not paths:
                raise ChainBroken(level, f"no completion between {a} and {b}")
            level_branching.append(len(paths))
            for pathseq in paths:
                nxt.append(rest | path_mask(zip(pathseq, pathseq[1:])))
                if len(nxt) >= cap:
                    # truncate breadth only; every level still completes so
                    # leaf depth stays uniform
                    partial = True
                    full = True
                    break
            if full:
                break
        log.append({"level": level, "nodes": len(frontier),
                    "branching": level_branching})
        branching.append(level_branching)
        frontier = nxt

    leaves = []
    seen = set()
    for cyc in frontier:
        if cyc not in seen:
            seen.add(cyc)
            leaves.append(cyc)
    tree = CycleTree(levels=t, branching=branching, leaves=leaves,
                     edges=tuple(edges), partial=partial, log=log)
    tree.log.append({"leaves": len(leaves), "partial": partial})
    return tree


def _label_sort_key(lab):
    return (1, lab, 0) if isinstance(lab, tuple) else (0, (), lab)


def _labeled_edge(a, b):
    return (a, b) if _label_sort_key(a) <= _label_sort_key(b) else (b, a)


def _ladder_paths(ladder: Ladder, cycle_vertices, a, b, cap):
    """Hamiltonian a-b paths of the ladder minus the other two outer
    vertices, as label sequences, at most ``cap`` of them."""
    drop = [i for i, lab in enumerate(ladder.labels)
            if lab in cycle_vertices and lab not in (a, b)]
    paths = enumerate_ham_paths(ladder.graph, ladder.local(a), ladder.local(b),
                                cap=cap, exclude=drop)
    return [tuple(ladder.labels[z] for z in p) for p in paths]
