"""Certified independent sets and the edge-deletion families built from them.

The pipeline: largest color class of an exact 4-coloring of the low-degree
vertices, then greedy saturation filters (4-cycles, 5-cycles,
diamond-6-cycles), then removal of vertices on or 3-adjacent to separating
4-cycles.  Every flag on a certificate is re-verifiable by a fresh scan;
nothing trusts incremental bookkeeping.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    ColoringTimeout,
    FourConnectivityLost,
    HypothesisViolated,
    MinDegreeViolated,
    SearchExhausted,
    SNotIndependent,
    StructureViolation,
)
from .ham_enum import HamFamily, first_ham_cycle
from .plane_graph import PlaneGraph, edge_key, is_k_connected, mask_bits, vertex_mask
from .structures import (
    Cycle,
    DiamondCert,
    PairCert,
    check_independent,
    enumerate_cycles,
    find_diamonds,
    is_four_connected_triangulation,
    max_common_neighborhood_pair,
    separating_cycles,
)

FLAG_NO_SAT_4CYCLE = "no_sat_4cycle"
FLAG_NO_SAT_5CYCLE = "no_sat_5cycle"
FLAG_NO_SAT_DIAMOND6 = "no_sat_diamond6"
FLAG_NO_VERTEX_ON_SEP4 = "no_vertex_on_sep4cycle"
FLAG_NO_VERTEX_3ADJ_SEP4 = "no_vertex_3adj_sep4cycle"
ALL_FLAGS = (FLAG_NO_SAT_4CYCLE, FLAG_NO_SAT_5CYCLE, FLAG_NO_SAT_DIAMOND6,
             FLAG_NO_VERTEX_ON_SEP4, FLAG_NO_VERTEX_3ADJ_SEP4)


# the constant of the quadratic lower bound, kept exact
C1 = Fraction(1, 108 * 16 * 541 * 301 * 2)


def log_threshold(n: int) -> int:
    """floor(16 * log2 n), the common-neighborhood cut in the few-
    separating-4-cycles regime."""
    return math.floor(16 * math.log2(n))


@dataclass(frozen=True)
class IndSetCert:
    """An independent set with its verified properties.

    ``flags`` holds only property names that have been established; every
    one can be re-checked against the graph by :func:`verify_cert`.
    """

    vertices: tuple[int, ...]
    max_degree: int
    flags: frozenset[str] = frozenset()
    provenance: tuple[str, ...] = ()
    stats: tuple[tuple[str, str], ...] = ()

    def __len__(self):
        return len(self.vertices)

    def with_stage(self, vertices, flag, stage, ratio=None):
        stats = self.stats
        if ratio is not None:
            stats = stats + ((stage + "_ratio", ratio),)
        return IndSetCert(
            vertices=tuple(sorted(vertices)),
            max_degree=self.max_degree,
            flags=self.flags | {flag},
            provenance=self.provenance + (stage,),
            stats=stats,
        )

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "max_degree": self.max_degree,
            "flags": sorted(self.flags),
            "provenance": list(self.provenance),
            "stats": dict(self.stats),
        }


# ---------------------------------------------------------------------------
# verification (fresh scans, no bookkeeping)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def sat_pairs(g: PlaneGraph, length: int) -> frozenset[tuple[int, int]]:
    """Non-adjacent pairs lying together on some cycle of ``length``: the
    pairs of an independent set that would saturate it.

    Kept for the last few graphs (equal rotation systems have equal pairs),
    so a certificate's filter, its verification and its families' hypotheses
    share one scan per length.
    """
    out = set()
    for c in enumerate_cycles(g, length):
        for u, v in itertools.combinations(sorted(c.vertices), 2):
            if not g.has_edge(u, v):
                out.add((u, v))
    return frozenset(out)


_SAT_CYCLE_LENGTH = {FLAG_NO_SAT_4CYCLE: 4, FLAG_NO_SAT_5CYCLE: 5}


def flag_holds(g: PlaneGraph, s, flag: str) -> bool:
    """Re-verify one certificate flag of the independent set ``s`` by
    scanning all relevant objects."""
    if flag in _SAT_CYCLE_LENGTH:
        pairs = sat_pairs(g, _SAT_CYCLE_LENGTH[flag])
        return not any(p in pairs for p in itertools.combinations(sorted(s), 2))
    s = set(s)
    if flag == FLAG_NO_SAT_DIAMOND6:
        return all(len(s & set(d.crucial)) < 3 for d in find_diamonds(g, "diamond6"))
    if flag == FLAG_NO_VERTEX_ON_SEP4:
        return all(not (s & set(c.vertices)) for c in separating_cycles(g, 4))
    if flag == FLAG_NO_VERTEX_3ADJ_SEP4:
        for c in separating_cycles(g, 4):
            on_c = vertex_mask(c.vertices)
            if any((g.nbr_masks[v] & on_c).bit_count() >= 3
                   for v in s - set(c.vertices)):
                return False
        return True
    raise ValueError(f"unknown flag {flag!r}")


def verify_cert(g: PlaneGraph, cert: IndSetCert) -> None:
    """Raise unless the set is independent and every claimed flag holds."""
    check_independent(g, cert.vertices)
    if cert.vertices and max(g.degrees[v] for v in cert.vertices) > cert.max_degree:
        raise SNotIndependent("recorded max_degree is wrong")
    for flag in cert.flags:
        if not flag_holds(g, cert.vertices, flag):
            raise HypothesisViolated(flag, "claimed flag fails a fresh scan")


# ---------------------------------------------------------------------------
# exact four-coloring (DSATUR-ordered backtracking)
# ---------------------------------------------------------------------------

COLORING_BUDGET = 2_000_000     # search nodes of one exact 4-coloring


def four_color(g: PlaneGraph, vertices) -> dict[int, int]:
    """Proper 4-coloring of the induced subgraph on ``vertices``.

    Feasible for any planar input; overrunning ``COLORING_BUDGET`` is
    therefore an operational failure (ColoringTimeout), never a certificate.
    """
    verts = sorted(vertices)
    vmask = vertex_mask(verts)
    nbrs = {v: mask_bits(g.nbr_masks[v] & vmask) for v in verts}
    color: dict[int, int] = {}
    nodes = 0

    def pick():
        best = None
        for v in verts:
            if v in color:
                continue
            sat = len({color[w] for w in nbrs[v] if w in color})
            key = (-sat, -len(nbrs[v]), v)
            if best is None or key < best[0]:
                best = (key, v)
        return best[1]

    def solve():
        nonlocal nodes
        nodes += 1
        if nodes > COLORING_BUDGET:
            raise ColoringTimeout(f"4-coloring exceeded {COLORING_BUDGET} nodes")
        if len(color) == len(verts):
            return True
        v = pick()
        used = {color[w] for w in nbrs[v] if w in color}
        for c in range(4):
            if c in used:
                continue
            color[v] = c
            if solve():
                return True
            del color[v]
        return False

    try:
        solved = solve()
    finally:
        del solve  # the closure refers to itself: break the cycle
    if not solved:
        raise StructureViolation("planar subgraph refused a 4-coloring")
    return color


def low_degree_independent_set(g: PlaneGraph) -> IndSetCert:
    """Largest color class of an exact 4-coloring of the degree<=6 vertices.

    For a 4-connected triangulation at least n/3 vertices have degree at
    most 6, so the class has size >= n/12.
    """
    if not is_four_connected_triangulation(g):
        raise HypothesisViolated("four_connected_triangulation")
    low = [v for v in range(g.n) if g.degrees[v] <= 6]
    coloring = four_color(g, low)
    classes: dict[int, list[int]] = {}
    for v, c in coloring.items():
        classes.setdefault(c, []).append(v)
    best = max(classes.values(), key=lambda vs: (len(vs), [-v for v in sorted(vs)]),
               default=[])
    best = tuple(sorted(best))
    if 12 * len(best) < g.n:
        raise StructureViolation("four-color class below the n/12 floor")
    return IndSetCert(vertices=best,
                      max_degree=max((g.degrees[v] for v in best), default=0),
                      provenance=("low_degree_four_coloring",))


# ---------------------------------------------------------------------------
# saturation filters
# ---------------------------------------------------------------------------

def filter_saturation(g: PlaneGraph, cert: IndSetCert, kind: str) -> IndSetCert:
    """Greedy maximal subset saturating no object of the kind.

    Vertices are processed in ascending id; a vertex is kept iff it creates
    no saturated object together with the kept ones.  Reports the achieved
    ratio; the published 1/541 and 1/301 extraction ratios are reported,
    never asserted.
    """
    check_independent(g, cert.vertices)
    if kind == "4cycle":
        pairs = sat_pairs(g, 4)
        flag = FLAG_NO_SAT_4CYCLE
    elif kind == "5cycle":
        pairs = sat_pairs(g, 5)
        flag = FLAG_NO_SAT_5CYCLE
    elif kind == "diamond6":
        return _filter_diamond6(g, cert)
    else:
        raise ValueError(f"unknown saturation kind {kind!r}")
    kept: list[int] = []
    for v in cert.vertices:
        if all(edge_key(u, v) not in pairs for u in kept):
            kept.append(v)
    ratio = f"{len(kept)}/{len(cert.vertices)}" if cert.vertices else "1/1"
    return cert.with_stage(kept, flag, f"greedy_no_sat_{kind}", ratio)


def _filter_diamond6(g: PlaneGraph, cert: IndSetCert) -> IndSetCert:
    diamonds = find_diamonds(g, "diamond6")
    kept: list[int] = []
    for v in cert.vertices:
        trial = set(kept) | {v}
        if all(len(trial & set(d.crucial)) < 3 for d in diamonds):
            kept.append(v)
    ratio = f"{len(kept)}/{len(cert.vertices)}" if cert.vertices else "1/1"
    return cert.with_stage(kept, FLAG_NO_SAT_DIAMOND6, "greedy_no_sat_diamond6", ratio)


# ---------------------------------------------------------------------------
# the special-set pipelines
# ---------------------------------------------------------------------------

def _strip_separating_4cycles(g: PlaneGraph, cert: IndSetCert) -> IndSetCert:
    """Drop vertices on, or 3-adjacent to, any separating 4-cycle."""
    seps = separating_cycles(g, 4)
    bad = set()
    for c in seps:
        cv, cmask = set(c.vertices), vertex_mask(c.vertices)
        bad |= set(cert.vertices) & cv
        bad |= {v for v in cert.vertices
                if v not in cv and (g.nbr_masks[v] & cmask).bit_count() >= 3}
    kept = [v for v in cert.vertices if v not in bad]
    out = cert.with_stage(kept, FLAG_NO_VERTEX_ON_SEP4, "strip_sep4",
                          f"{len(kept)}/{len(cert.vertices)}" if cert.vertices else "1/1")
    return replace(out, flags=out.flags | {FLAG_NO_VERTEX_3ADJ_SEP4})


def _special_set_pipeline(g: PlaneGraph, t: int, strip_sep4: bool):
    """The pair with more than t common neighbors, else the low-degree set
    through the three saturation filters (and, with ``strip_sep4``, the
    separating-4-cycle strip), verified by fresh scans."""
    pair = max_common_neighborhood_pair(g)
    if pair is not None and pair.size() > t:
        return pair
    cert = low_degree_independent_set(g)
    for kind in ("4cycle", "5cycle", "diamond6"):
        cert = filter_saturation(g, cert, kind)
    if strip_sep4:
        cert = _strip_separating_4cycles(g, cert)
    verify_cert(g, cert)
    return cert


def special_set(g: PlaneGraph, t: int | None = None):
    """Either a high-common-neighborhood pair or a fully filtered set.

    Branch (i) fires when some non-adjacent pair has more than t common
    neighbors (default t = floor(16 log2 n)); otherwise the full pipeline
    runs and all five flags are set (vacuously on an empty set).  Size
    guarantees are reported, never asserted: the constants are vacuous at
    this scale.
    """
    return _special_set_pipeline(g, log_threshold(g.n) if t is None else t,
                                 strip_sep4=True)


def special_set_mindeg5(g: PlaneGraph, t: int):
    """The minimum-degree-5 variant: saturation filters only, parameter t.

    Vertices on separating 4-cycles stay in: downstream machinery grows
    diamonds from exactly those.
    """
    if g.min_degree() < 5:
        raise MinDegreeViolated(f"min degree {g.min_degree()} < 5")
    if t < 2:
        raise ValueError("t must be >= 2")
    return _special_set_pipeline(g, t, strip_sep4=False)


# ---------------------------------------------------------------------------
# edge-deletion families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeFamily:
    """One choice of exactly one incident edge per certified vertex."""

    cert: IndSetCert
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if len(self.edges) != len(self.cert.vertices):
            raise ValueError("family must have exactly one edge per vertex")


def check_family_hypotheses(g: PlaneGraph, cert: IndSetCert) -> None:
    """The hypotheses under which G-F stays 4-connected, freshly verified."""
    check_independent(g, cert.vertices)
    if g.n < 6:
        raise HypothesisViolated("n_at_least_6")
    if any(g.degrees[v] > 6 for v in cert.vertices):
        raise HypothesisViolated("degree_at_most_6")
    for flag in (FLAG_NO_SAT_4CYCLE, FLAG_NO_SAT_5CYCLE, FLAG_NO_SAT_DIAMOND6):
        if not flag_holds(g, cert.vertices, flag):
            raise HypothesisViolated(flag)
    if g.min_degree() < 5 and not flag_holds(g, cert.vertices, FLAG_NO_VERTEX_ON_SEP4):
        raise HypothesisViolated(FLAG_NO_VERTEX_ON_SEP4)
    if not flag_holds(g, cert.vertices, FLAG_NO_VERTEX_3ADJ_SEP4):
        raise HypothesisViolated(FLAG_NO_VERTEX_3ADJ_SEP4)


def edge_families(g: PlaneGraph, cert: IndSetCert):
    """All prod(deg(v)) edge families in deterministic order."""
    check_family_hypotheses(g, cert)
    choice_lists = [sorted({edge_key(v, w) for w in g.rotation[v]})
                    for v in cert.vertices]
    for combo in itertools.product(*choice_lists):
        yield EdgeFamily(cert=cert, edges=frozenset(combo))


def family_count(g: PlaneGraph, cert: IndSetCert) -> int:
    out = 1
    for v in cert.vertices:
        out *= g.degrees[v]
    return out


def guaranteed_family_floor(k: int) -> int:
    """ceil((3/2)^k), the promised number of distinct Hamiltonian cycles."""
    return -((-3 ** k) // 2 ** k)


def ham_family_from_edge_families(g: PlaneGraph, cert: IndSetCert,
                                  cap: int | None = None,
                                  required_edges=()) -> HamFamily:
    """One Hamiltonian cycle per family F, the first of G-F through every
    ``required_edges`` edge, after checking G-F is 4-connected.

    A connectivity failure is a counterexample event: it aborts with the
    offending family serialized in the exception.  A run over every family
    (``cap`` did not cut it short) asserts the ceil((3/2)^|S|) floor on the
    deduplicated family size.
    """
    fam = HamFamily(g)
    processed = 0
    for family in edge_families(g, cert):
        if cap is not None and processed >= cap:
            break
        processed += 1
        reduced = g.delete_edges(family.edges)
        if not is_k_connected(reduced, 4):
            raise FourConnectivityLost(family.edges)
        cycle = first_ham_cycle(reduced, required_edges=required_edges)
        if cycle is None:
            through = f" through {list(required_edges)}" if required_edges else ""
            raise SearchExhausted("4-connected planar graph without a Hamiltonian "
                                  f"cycle{through}: F={sorted(family.edges)}")
        fam.add(cycle, f"edge_family:{sorted(family.edges)}")
    floor = guaranteed_family_floor(len(cert))
    if processed == family_count(g, cert) and len(fam) < floor:
        raise StructureViolation(
            f"family size {len(fam)} below the (3/2)^{len(cert)} floor")
    fam.log.append({"branch": "edge_families", "set_size": len(cert),
                    "families": processed, "distinct": len(fam), "floor": floor})
    return fam
