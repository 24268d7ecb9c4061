"""The named invariant suites: one implementation shared by the CLI and the
acceptance tests.

Every suite iterates a corpus, runs its checks, and yields RunReport rows.
A failed assertion carries a reproduction bundle (planar_code plus
parameters) so a genuine counterexample is never lost.
"""

from __future__ import annotations

import base64
import itertools
import random
import time
from dataclasses import dataclass, field

from . import __version__
from .corpus import (
    MAX_N,
    CorpusFilter,
    _square_region_level,
    cycle_graph,
    double_wheel,
    enumerate_triangulations,
    graph_to_planar_code,
    telescope_tower,
    two_pocket_worm,
    wheel,
)
from .errors import HamforgeError, OperationalError
from .ham_enum import (
    count_ham_cycles,
    count_ham_paths,
    is_ham_cycle,
    search_budget,
)
from .indset import (
    IndSetCert,
    check_family_hypotheses,
    family_count,
    guaranteed_family_floor,
    ham_family_from_edge_families,
    special_set,
    special_set_mindeg5,
)
from .plane_graph import (
    Cycle,
    NearTriangulation,
    PlaneGraph,
    canonical_code,
    edge_key,
    is_isomorphic,
    is_k_connected,
    plane_graph_from_faces,
    vertex_connectivity_flow,
)
from .replay import (disjoint_diamond_family, lemma_2edge_family, nested_chain,
                     theorem1_family, theorem2_tree)
from .structures import DiamondCert, has_separating_triangle
from .tutte import (
    PathPair,
    TriangleEdgeSearch,
    diamond_region_paths,
    tutte_path,
    two_ham_paths_uv,
    two_ham_paths_uw,
    verify_tutte,
)

SUITES = ("euler", "connectivity", "tutte", "lemma-edgesetF", "lemma-uwpath",
          "lemma-uvpath", "lemma-diamond4", "lemma-4edges", "lemma-2edge",
          "conjecture", "theorem1", "theorem2")


@dataclass
class RunReport:
    """One check on one graph: outcome plus a reproduction bundle on failure."""

    suite: str
    graph_id: str
    operation: str
    ok: bool
    payload: dict = field(default_factory=dict)
    seconds: float = 0.0
    bundle: dict | None = None
    version: str = __version__

    def to_json(self) -> dict:
        out = {
            "version": self.version,
            "suite": self.suite,
            "graph_id": self.graph_id,
            "operation": self.operation,
            "ok": self.ok,
            "payload": self.payload,
            "seconds": round(self.seconds, 4),
        }
        if self.bundle is not None:
            out["bundle"] = self.bundle
        return out


def graph_id(g: PlaneGraph) -> str:
    code = canonical_code(g)
    return f"n{g.n}-{abs(hash(code)) % 16 ** 10:010x}"


def bundle_for(g: PlaneGraph, **params) -> dict:
    return {
        "planar_code_base64": base64.b64encode(graph_to_planar_code(g)).decode(),
        "params": {k: repr(v) for k, v in params.items()},
    }


def _row(suite, g, gid, op, check, **params) -> RunReport:
    """The row of ``check() -> (ok, payload)``, operation ``op`` on ``g``,
    whose ``graph_id`` the caller passes as ``gid``.

    A HamforgeError from ``check`` is a counterexample: the row fails and its
    payload names the error.  An OperationalError propagates.  A failed row
    carries the bundle of ``g`` and ``params``.
    """
    t0 = time.perf_counter()
    try:
        ok, payload = check()
    except OperationalError:
        raise
    except HamforgeError as exc:
        ok, payload = False, {"error": type(exc).__name__, "detail": str(exc)}
    return RunReport(suite=suite, graph_id=gid, operation=op, ok=ok,
                     payload=payload, seconds=time.perf_counter() - t0,
                     bundle=None if ok else bundle_for(g, **params))


def corpus_triangulations(n_max: int, n_min: int = 4, flt: CorpusFilter | None = None):
    for n in range(n_min, n_max + 1):
        yield from enumerate_triangulations(n, flt)


def link_region(g: PlaneGraph, v: int) -> NearTriangulation:
    """The region g - v bounded by the link of v.

    The link of a degree-4 vertex of a triangulation with n >= 5 is a
    4-cycle bounding a face of the rest, so the region is valid.
    """
    sub, origin = g.delete_vertices({v})
    fwd = {old: new for new, old in enumerate(origin)}
    return NearTriangulation(sub, Cycle(tuple(fwd[w] for w in g.rotation[v])))


def square_boundary_regions(n_max: int):
    """Near triangulations with an outer 4-cycle up to ``n_max`` vertices,
    one per isomorphism class: vertex links of degree-4 vertices."""
    for n in range(5, n_max + 2):
        for g, v in _square_region_level(n):
            yield link_region(g, v)


def dichotomy_regions(n_max: int):
    """The ``square_boundary_regions(n_max)`` without a separating triangle,
    in the same order; the others are skipped before they are keyed."""
    for n in range(5, n_max + 2):
        for g, v in _square_region_level(n, separating=False):
            yield link_region(g, v)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_euler(n_max=9, **_kw):
    for g in corpus_triangulations(n_max):
        def face_census():
            m = sum(g.degrees) // 2
            ok = (g.n - m + len(g.faces) == 2) and m == 3 * g.n - 6 and g.is_triangulation
            return ok, {"n": g.n, "m": m, "faces": len(g.faces)}
        yield _row("euler", g, graph_id(g), "face_census", face_census)


def suite_connectivity(n_max=9, **_kw):
    for g in corpus_triangulations(n_max):
        def dual_route():
            flow = vertex_connectivity_flow(g)
            exhaustive = max(k for k in range(1, 6) if is_k_connected(g, k))
            return flow == exhaustive, {"n": g.n, "flow": flow, "exhaustive": exhaustive}
        yield _row("connectivity", g, graph_id(g), "dual_route", dual_route)


# The largest n_max the tutte suite runs: its path search is exponential, and
# at n_max = 10 the suite already takes the longest of all of them.
TUTTE_N_MAX = 10
# Sizes, not settings: the family cap of the lemma-2edge and theorem1 replays
# (their ``budget`` reaches only the exact counts), the leaf and pocket cap of
# theorem2 (which runs no node-budgeted search), and the face triples
# lemma-4edges samples per graph.
REPLAY_CAP = 10 ** 5
THEOREM2_CAP = 2000
TRIANGLE_SAMPLES = 100


def _tutte_corpus(n_max):
    for g in corpus_triangulations(n_max):
        yield g, Cycle(g.outer_face)
    for nt in square_boundary_regions(n_max - 1):
        yield nt.graph, nt.outer_cycle
    for k in range(5, n_max + 1):
        c = cycle_graph(k)
        yield c, Cycle(tuple(range(k)))
        w = wheel(k - 1)
        yield w, Cycle(w.outer_face)


def suite_tutte(n_max=10, **_kw):
    if n_max > TUTTE_N_MAX:
        raise ValueError(f"the tutte suite runs n_max <= {TUTTE_N_MAX}, got {n_max}")
    for g, c in _tutte_corpus(n_max):
        if g.n > n_max or not is_k_connected(g, 2):
            continue

        def totality():
            failures = []
            trials = 0
            for x in c.vertices:
                for y in range(g.n):
                    if y == x:
                        continue
                    for e in sorted(c.edges()):
                        trials += 1
                        try:
                            cert = tutte_path(g, c, x, y, e)
                            verify_tutte(g, cert.path, c)
                            if cert.path[0] != x or cert.path[-1] != y or \
                                    e not in cert.edges():
                                failures.append((x, y, e, "constraints"))
                        except OperationalError:
                            raise
                        except HamforgeError as exc:
                            failures.append((x, y, e, str(exc)))
            return not failures, {"n": g.n, "triples": trials, "failures": failures[:5]}
        yield _row("tutte", g, graph_id(g), "totality", totality)


def suite_lemma_edgesetF(n_max=12, min_degree=5, **_kw):
    flt = CorpusFilter(min_connectivity=4, min_degree=min_degree)
    found = 0
    for g in corpus_triangulations(n_max, n_min=6, flt=flt):
        found += 1
        gid = graph_id(g)

        def families():
            cert = (special_set_mindeg5(g, t=max(2, g.n))
                    if g.min_degree() >= 5 else None)
            if not isinstance(cert, IndSetCert):
                cert = special_set(g)
            if not isinstance(cert, IndSetCert):
                return True, {"n": g.n, "note": "pair branch"}
            fam = ham_family_from_edge_families(g, cert)
            floor = guaranteed_family_floor(len(cert))
            return len(fam) >= floor, {"n": g.n, "set_size": len(cert),
                                       "families": family_count(g, cert),
                                       "distinct": len(fam), "floor": floor}
        yield _row("lemma-edgesetF", g, gid, "families", families)
        yield _row("lemma-edgesetF", g, gid, "max_certificates",
                   lambda: _max_certificates_check(g))
    if not found:
        dw = double_wheel(6)
        yield _row("lemma-edgesetF", dw, graph_id(dw), "corpus", lambda: (
            True, {"note": f"no graphs with n<={n_max}, min degree {min_degree}"}))


def _max_certificates(g: PlaneGraph) -> list[IndSetCert]:
    """The ``special_set`` certificate plus every valid maximum-size
    certificate of size <= 4 among the vertices of degree <= 6."""
    certs = []
    pipeline = special_set(g)
    if isinstance(pipeline, IndSetCert) and len(pipeline):
        certs.append(pipeline)
    low = [v for v in range(g.n) if g.degrees[v] <= 6]
    for size in range(min(4, len(low)), 0, -1):
        valid = []
        for combo in itertools.combinations(low, size):
            cert = IndSetCert(vertices=combo,
                              max_degree=max(g.degrees[v] for v in combo))
            try:
                check_family_hypotheses(g, cert)
            except HamforgeError:
                continue
            valid.append(cert)
        if valid:
            return certs + valid
    return certs


def _max_certificates_check(g: PlaneGraph):
    """Every family of every certificate of ``_max_certificates``: G - F
    stays 4-connected and the distinct cycles reach ceil((3/2)^|S|)."""
    certs = _max_certificates(g)
    failures = []
    for cert in certs:
        try:
            ham_family_from_edge_families(g, cert)
        except OperationalError:
            raise
        except HamforgeError as exc:
            failures.append((cert.vertices, str(exc)))
    return not failures, {"n": g.n, "certificates": len(certs),
                          "families": sum(family_count(g, c) for c in certs),
                          "failures": failures[:5]}


def _dichotomy_reports(suite, kind, n_max, budget):
    """The rows of one two-path lemma on the 8 labellings of each
    ``dichotomy_regions(n_max)`` region, each checked against the exact
    number of Hamiltonian paths it speaks about.

    What depends only on the region is done once per region, not once per
    row: its ``graph_id``; its graph, which every labelling's
    ``NearTriangulation`` keeps since the labellings bound one outer face,
    with the ``RegionTables`` the lemmas keep on it; and the exact count
    per dropped pair, which fixes the (unordered) endpoint pair, so two
    u-w and four u-v counts serve the region's rows.
    """
    for nt in dichotomy_regions(n_max):
        g = nt.graph
        gid = graph_id(g)
        base = nt.outer_cycle.vertices
        counts = {}
        for rot in range(4):
            for refl in (False, True):
                vs = base[rot:] + base[:rot]
                if refl:
                    vs = (vs[0],) + tuple(reversed(vs[1:]))
                u, v, w, x = vs
                if kind == "uw" and g.has_edge(v, x):
                    continue

                def dichotomy():
                    nt2 = NearTriangulation(g, Cycle(vs))
                    if kind == "uw":
                        drop, a, b = {v, x}, u, w
                        res = two_ham_paths_uw(nt2, budget=budget)
                    else:
                        drop, a, b = {w, x}, u, v
                        res = two_ham_paths_uv(nt2, budget=budget)
                    key = frozenset(drop)
                    if key not in counts:
                        counts[key] = count_ham_paths(g, a, b, exclude=drop,
                                                      budget=budget)
                    cnt = counts[key]
                    if isinstance(res, PathPair):
                        ok = cnt >= 2
                    else:
                        ok = cnt == 1 if kind == "uw" else cnt <= 1
                    return ok, {"n": g.n, "outer": vs, "count": cnt,
                                "branch": type(res).__name__}
                yield _row(suite, g, gid, f"dichotomy_{kind}", dichotomy, outer=vs)


def suite_lemma_uwpath(n_max=10, budget=None, **_kw):
    yield from _dichotomy_reports("lemma-uwpath", "uw", n_max,
                                  search_budget(budget))


def suite_lemma_uvpath(n_max=10, budget=None, **_kw):
    yield from _dichotomy_reports("lemma-uvpath", "uv", n_max,
                                  search_budget(budget))


def suite_lemma_diamond4(budget=None, **_kw):
    """Diamond-region dichotomy on the engineered fixtures."""
    fixtures = []
    case3_faces = [(0, 1, 7), (1, 5, 7), (4, 5, 1), (4, 1, 2), (4, 2, 6),
                   (4, 6, 5), (5, 6, 7), (3, 6, 7), (2, 3, 6), (0, 7, 3),
                   (0, 1, 2, 3)]
    g3 = plane_graph_from_faces(case3_faces, outer=(0, 1, 2, 3))
    cert3 = DiamondCert(kind="diamond4",
                        roles=(("center", 7), ("y", 5), ("v", 1), ("w", 2),
                               ("x", 6)),
                        crucial=(7, 5), outer_cycle=Cycle((5, 1, 2, 6)))
    fixtures.append(("case3", g3, (0, 1, 2, 3), 4, cert3, "unique_pair"))

    # disjoint configuration: the same interior behind an antiprism ring
    case1_faces = [
        (0, 1, 4), (1, 5, 4), (1, 2, 5), (2, 6, 5), (2, 3, 6), (3, 7, 6),
        (3, 0, 7), (0, 4, 7),
        (4, 5, 11), (5, 9, 11), (8, 9, 5), (8, 5, 6), (8, 6, 10), (8, 10, 9),
        (9, 10, 11), (7, 10, 11), (6, 7, 10), (4, 11, 7),
        (0, 1, 2, 3),
    ]
    g1 = plane_graph_from_faces(case1_faces, outer=(0, 1, 2, 3))
    cert1 = DiamondCert(kind="diamond4",
                        roles=(("center", 11), ("y", 9), ("v", 5), ("w", 6),
                               ("x", 10)),
                        crucial=(11, 9), outer_cycle=Cycle((9, 5, 6, 10)))
    fixtures.append(("case1", g1, (0, 1, 2, 3), 8, cert1, "all_pairs_two"))

    for name, g, outer, z, cert, want in fixtures:
        def region_paths():
            nt = NearTriangulation(g, Cycle(outer))
            table = diamond_region_paths(nt, z, cert, budget=budget)
            return table.branch == want, {"branch": table.branch,
                                          "counts": list(table.counts)}
        yield _row("lemma-diamond4", g, graph_id(g), name, region_paths)


def triangle_edge_cycles(g: PlaneGraph, rng: random.Random, budget) -> RunReport:
    """The ``lemma-4edges`` row of one graph: on up to ``TRIANGLE_SAMPLES``
    distinct face triples (t, t1, t2) drawn from ``rng``, a Hamiltonian cycle
    through two edges of t and one each of t1 and t2, re-verified.  One
    ``TriangleEdgeSearch`` serves every triple: the graph is tested for
    separating triangles once, and each face becomes a ``Cycle`` and is
    checked once."""
    def sampled_triples():
        search = TriangleEdgeSearch(g, budget, has_separating_triangle(g))
        faces = [Cycle(f) for f in g.faces]
        triples = set()
        limit = min(TRIANGLE_SAMPLES,
                    len(faces) * (len(faces) - 1) * (len(faces) - 2))
        guard = 0
        while len(triples) < limit and guard < 20 * TRIANGLE_SAMPLES:
            guard += 1
            t, t1, t2 = rng.sample(range(len(faces)), 3)
            triples.add((t, t1, t2))
        failures = []
        for t, t1, t2 in sorted(triples):
            try:
                cyc, e1, e2 = search(faces[t], faces[t1], faces[t2])
                u, v, w = faces[t].vertices
                need = {edge_key(u, v), edge_key(u, w), e1, e2}
                if len(need) != 4 or not need <= cyc or not is_ham_cycle(g, cyc):
                    failures.append((t, t1, t2, "re-verify"))
            except OperationalError:
                raise
            except HamforgeError as exc:
                failures.append((t, t1, t2, str(exc)))
        return not failures, {"n": g.n, "samples": len(triples), "failures": failures[:5]}
    return _row("lemma-4edges", g, graph_id(g), "sampled_triples", sampled_triples)


def suite_lemma_4edges(n_max=10, seed=0, budget=None, **_kw):
    flt = CorpusFilter(min_connectivity=4)
    for g in corpus_triangulations(n_max, n_min=6, flt=flt):
        yield triangle_edge_cycles(g, random.Random(seed), budget)


def suite_lemma_2edge(n_max=10, budget=None, **_kw):
    for n in range(8, n_max + 1):
        g = double_wheel(n)
        a = n - 2
        e, f = edge_key(a, 0), edge_key(a, 1)
        for t in (None, 4):
            def replay():
                fam = lemma_2edge_family(g, e, f, budget=REPLAY_CAP, t=t)
                exact = count_ham_cycles(g, required_edges=[e, f], budget=budget)
                ok = (1 <= len(fam) <= exact
                      and all(e in c and f in c for c in fam.cycles)
                      and all(is_ham_cycle(g, c) for c in fam.cycles))
                return ok, {"n": n, "family": len(fam), "exact": exact,
                            "log": fam.log}
            yield _row("lemma-2edge", g, graph_id(g), f"double_wheel_t_{t}",
                       replay, e=e, f=f, t=t)


def suite_conjecture(n_max=11, budget=None, **_kw):
    """The double-wheel lower bound: count >= 2(n-2)(n-4) on every
    4-connected triangulation, equality exactly on double wheels."""
    budget = search_budget(budget)
    flt = CorpusFilter(min_connectivity=4)
    for g in corpus_triangulations(n_max, n_min=6, flt=flt):
        def lower_bound():
            count = count_ham_cycles(g, budget=budget)
            bound = 2 * (g.n - 2) * (g.n - 4)
            is_dw = is_isomorphic(g, double_wheel(g.n))
            ok = count >= bound and ((count == bound) == is_dw)
            return ok, {"n": g.n, "count": count, "bound": bound,
                        "double_wheel": is_dw}
        yield _row("conjecture", g, graph_id(g), "lower_bound", lower_bound)


def suite_theorem1(n_max=12, budget=None, **_kw):
    for n in range(8, n_max + 1):
        g = double_wheel(n)
        for t in (None, 4):
            def replay():
                fam = theorem1_family(g, budget=REPLAY_CAP, t=t)
                exact = count_ham_cycles(g, budget=budget)
                ok = (1 <= len(fam) <= exact
                      and all(is_ham_cycle(g, c) for c in fam.cycles))
                return ok, {"n": n, "family": len(fam), "exact": exact}
            yield _row("theorem1", g, graph_id(g), f"double_wheel_t_{t}", replay, t=t)


def suite_theorem2(**_kw):
    g, star, _squares = telescope_tower(3)

    def tower_tree():
        chain = nested_chain(g, star)
        tree = theorem2_tree(g, chain, budget=THEOREM2_CAP)
        min_branch = min(min(level) for level in tree.branching if level)
        ok = (chain.t == 3 and min_branch >= 2
              and tree.leaf_count() >= 2 ** chain.t
              and all(is_ham_cycle(g, leaf) for leaf in tree.cycles()))
        return ok, {"t": chain.t, "leaves": tree.leaf_count(),
                    "min_branching": min_branch, "partial": tree.partial}
    yield _row("theorem2", g, graph_id(g), "tower_tree", tower_tree, star=star)

    gw, starw, _sq = two_pocket_worm()

    def worm_pockets():
        chainw = nested_chain(gw, starw)
        fam = disjoint_diamond_family(gw, chainw.all_diamonds,
                                      budget=THEOREM2_CAP)
        ok = chainw.t == 1 and len(chainw.disjoint_roots) == 2 and len(fam) >= 4
        return ok, {"t": chainw.t, "roots": len(chainw.disjoint_roots),
                    "family": len(fam)}
    yield _row("theorem2", gw, graph_id(gw), "worm_pockets", worm_pockets, star=starw)


# The largest n_max each corpus suite runs: the corpus stops at MAX_N (and
# tutte at TUTTE_N_MAX), and the two-path suites cut their regions from
# level n_max + 1.  lemma-2edge and theorem1 run double wheels of any size.
N_MAX_LIMITS = {
    "euler": MAX_N,
    "connectivity": MAX_N,
    "tutte": TUTTE_N_MAX,
    "lemma-edgesetF": MAX_N,
    "lemma-uwpath": MAX_N - 1,
    "lemma-uvpath": MAX_N - 1,
    "lemma-4edges": MAX_N,
    "conjecture": MAX_N,
}

SUITE_RUNNERS = {
    "euler": suite_euler,
    "connectivity": suite_connectivity,
    "tutte": suite_tutte,
    "lemma-edgesetF": suite_lemma_edgesetF,
    "lemma-uwpath": suite_lemma_uwpath,
    "lemma-uvpath": suite_lemma_uvpath,
    "lemma-diamond4": suite_lemma_diamond4,
    "lemma-4edges": suite_lemma_4edges,
    "lemma-2edge": suite_lemma_2edge,
    "conjecture": suite_conjecture,
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
}
