import hashlib
import itertools

import pytest

from hamforge.corpus import (
    cycle_graph,
    double_wheel,
    icosahedron,
    k4,
    octahedron,
    wheel,
)
from hamforge.errors import (
    BadOrder,
    HamforgeError,
    HypothesisViolated,
    SearchExhausted,
    TutteViolation,
)
from hamforge.ham_enum import count_ham_paths, enumerate_ham_paths, is_ham_cycle
from hamforge.plane_graph import (
    Cycle,
    NearTriangulation,
    bridges,
    edge_key,
    mask_bits,
    path_edges,
    plane_graph_from_faces,
    restriction_faces,
    vertex_mask,
)
from hamforge.structures import DiamondCert, has_separating_triangle
from hamforge.tutte import (
    OuterPlanarWitness,
    PathPair,
    PathWitness,
    TriangleEdgeSearch,
    clockwise_order_ok,
    diamond_region_paths,
    ham_cycle_through_triangle_edges,
    is_ham_path_of,
    tutte_path,
    tutte_path_two_edges,
    two_ham_paths_uv,
    two_ham_paths_uw,
    verify_tutte,
)
from hamforge.verification import dichotomy_regions

from .golden import GOLDEN
from .oracles import (
    nx_outerplanar,
    reference_ham_cycle_through_triangle_edges,
    reference_is_ham_path_of,
    reference_prepare,
    reference_tutte_path,
    reference_tutte_path_two_edges,
    reference_two_ham_paths_uv,
    reference_two_ham_paths_uw,
    restriction_faces_rebuilt,
)


# -- verify_tutte ----------------------------------------------------------------

def test_hamiltonian_path_always_certifies():
    g = octahedron()
    from hamforge.ham_enum import enumerate_ham_paths
    p = enumerate_ham_paths(g, 0, 3, cap=1)[0]
    cert = verify_tutte(g, p, Cycle(g.outer_face))
    assert cert.is_hamiltonian
    assert all(len(b.attachments) <= 2
               for b in bridges(g, p, path_edges(p)).bridges)


def test_k4_interior_three_attachment_bridge():
    g = k4()
    f = g.outer_face
    verify_tutte(g, f, Cycle(f))              # the outer triangle as a path
    bridge = next(b for b in bridges(g, f, path_edges(f)).bridges
                  if b.vertices != b.attachments)
    assert len(bridge.attachments) == 3


def test_four_attachment_violation():
    g = double_wheel(8)                        # rim 0..5, apexes 6, 7
    # path along four rim vertices strands apex 6 with four attachments
    with pytest.raises(TutteViolation):
        verify_tutte(g, (0, 1, 2, 3), ())


def test_spanning_sequences_still_need_edges_and_distinct_vertices():
    g = octahedron()                           # rim 0..3, apexes 4, 5
    c = Cycle(g.outer_face)
    with pytest.raises(ValueError, match="not an edge"):
        verify_tutte(g, (4, 0, 2, 1, 5, 3), c)
    with pytest.raises(ValueError, match="repeats a vertex"):
        verify_tutte(g, (0, 1, 2, 3, 0, 4), c)


def test_hamiltonian_answers_certify_as_the_bridge_check_does(monkeypatch):
    """Every answer the ``n_max=8`` tutte suite certifies gets the verdict
    the full bridge check gives it, the Hamiltonian ones included, which
    ``verify_tutte`` no longer runs that check on."""
    from hamforge import verification
    from hamforge.tutte import _check_tutte

    answers = []

    def spy(g, path, constraint):
        answers.append((g, tuple(path), constraint))
        return verify_tutte(g, path, constraint)

    monkeypatch.setattr(verification, "verify_tutte", spy)
    rows = list(verification.suite_tutte(n_max=8))
    assert rows and all(r.ok for r in rows)
    hamiltonian = 0
    for g, path, c in answers:
        assert _check_tutte(g, path, c.edges()) is None
        cert = verify_tutte(g, path, c)
        assert cert.is_hamiltonian == (len(path) == g.n)
        hamiltonian += cert.is_hamiltonian
    assert (len(answers), hamiltonian) == (5_379, 3_833)


# -- tutte_path --------------------------------------------------------------------

def test_tutte_path_k4_hamiltonian():
    g = k4()
    c = Cycle(g.outer_face)
    x, y = c.vertices[0], c.vertices[1]
    e = edge_key(c.vertices[1], c.vertices[2])
    cert = tutte_path(g, c, x, y, e)
    assert cert.is_hamiltonian
    assert e in cert.edges()


def test_tutte_path_octahedron_hamiltonian():
    g = octahedron()
    f = g.outer_face
    c = Cycle(f)
    cert = tutte_path(g, c, f[0], f[1], edge_key(f[1], f[2]))
    assert cert.is_hamiltonian


def test_tutte_path_cycle_graph_arc():
    g = cycle_graph(5)
    c = Cycle(tuple(range(5)))
    cert = tutte_path(g, c, 0, 2, (3, 4))
    assert set(cert.path) == {0, 4, 3, 2}
    assert (3, 4) in cert.edges()


def test_tutte_path_rejects_bad_endpoint():
    g = octahedron()
    f = g.outer_face
    missing = next(v for v in range(6) if v not in f)
    with pytest.raises(HypothesisViolated):
        tutte_path(g, Cycle(f), missing, f[0], edge_key(f[0], f[1]))


def test_tutte_search_exclude_acts_or_is_rejected():
    """The shared search's ``exclude`` gives, in g's ids, the path the
    rebuilt restriction gives; only a Hamiltonian search takes it."""
    from hamforge.tutte import _tutte_search

    g = octahedron()                           # rim 0..3, apexes 4, 5
    sub, origin = g.delete_vertices({4})
    fwd = {old: new for new, old in enumerate(origin)}
    for x, y, e in [(0, 1, (0, 3)), (1, 3, (0, 1)), (5, 2, (3, 5))]:
        mine = _tutte_search(g, x, y, (e,), frozenset(), True, None,
                             exclude=1 << 4)
        rebuilt = _tutte_search(sub, fwd[x], fwd[y], (tuple(fwd[z] for z in e),),
                                frozenset(), True, None)
        assert mine.path == tuple(origin[z] for z in rebuilt.path)
        assert 4 not in mine.path and len(mine.path) == 5
    with pytest.raises(SearchExhausted, match=r"\(n=4\)"):
        _tutte_search(g, 0, 2, ((0, 1), (1, 2)), frozenset(), True, None,
                      exclude=1 << 4 | 1 << 3)
    with pytest.raises(ValueError, match="hamiltonian=True"):
        _tutte_search(g, 0, 1, ((0, 3),), frozenset(), False, None,
                      exclude=1 << 4)


def test_tutte_path_two_edges_wheel():
    g = wheel(6)                               # rim 0..5, hub 6
    c = Cycle(g.outer_face)
    vs = c.vertices
    u, v = vs[0], vs[4]
    e = edge_key(vs[1], vs[2])
    f = edge_key(vs[2], vs[3])
    cert = tutte_path_two_edges(g, c, u, v, e, f)
    assert e in cert.edges() and f in cert.edges()
    assert cert.path[0] == u and cert.path[-1] == v


def test_tutte_path_two_edges_bad_order():
    g = wheel(6)
    c = Cycle(g.outer_face)
    vs = c.vertices
    e = edge_key(vs[3], vs[4])
    f = edge_key(vs[1], vs[2])                 # f before e going clockwise
    with pytest.raises(BadOrder):
        tutte_path_two_edges(g, c, vs[0], vs[5], e, f)


def test_tutte_path_two_edges_bare_cycle():
    g = cycle_graph(6)
    c = Cycle(tuple(range(6)))
    cert = tutte_path_two_edges(g, c, 0, 4, (1, 2), (2, 3))
    assert tuple(cert.path) == (0, 1, 2, 3, 4)


def test_clockwise_order_ok():
    c = Cycle((0, 1, 2, 3, 4, 5))
    assert clockwise_order_ok(c, 0, (1, 2), (3, 4), 5)
    assert not clockwise_order_ok(c, 0, (3, 4), (1, 2), 5)
    assert not clockwise_order_ok(c, 0, (1, 2), (3, 4), 3)


# -- the two-path lemmas ----------------------------------------------------------

def square_pyramid_region():
    g = plane_graph_from_faces(
        [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4), (0, 1, 2, 3)],
        outer=(0, 1, 2, 3))
    return NearTriangulation(g, Cycle((0, 1, 2, 3)))


def test_uw_path_witness_branch():
    res = two_ham_paths_uw(square_pyramid_region())
    assert isinstance(res, PathWitness)
    assert res.vertices == (0, 4, 2)


def test_uw_rejects_c_plus_vx():
    g = plane_graph_from_faces([(0, 1, 3), (1, 2, 3), (0, 1, 2, 3)],
                               outer=(0, 1, 2, 3))
    nt = NearTriangulation(g, Cycle((0, 1, 2, 3)))
    with pytest.raises(HypothesisViolated):
        two_ham_paths_uw(nt)


def test_uw_double_wheel_region_two_paths():
    # apexes as u, w: deleting the rim pair leaves a block with >= 3 vertices
    from hamforge.plane_graph import closure_containing
    g = double_wheel(9)                        # rim 0..6, apexes 7, 8
    cl = closure_containing(g, Cycle((7, 0, 8, 2)), 4)
    fwd = {cl.to_origin(i): i for i in range(cl.graph.n)}
    nt = NearTriangulation(cl.graph, Cycle((fwd[7], fwd[0], fwd[8], fwd[2])))
    res = two_ham_paths_uw(nt)
    assert isinstance(res, PathPair)
    assert path_edges(res.first) != path_edges(res.second)


def test_uw_double_wheel_region_path_branch():
    # rim pair as u, w: deleting the apexes leaves the bare rim path
    from hamforge.plane_graph import closure_containing
    g = double_wheel(9)
    cl = closure_containing(g, Cycle((7, 0, 8, 2)), 4)
    fwd = {cl.to_origin(i): i for i in range(cl.graph.n)}
    nt = NearTriangulation(cl.graph, Cycle((fwd[0], fwd[7], fwd[2], fwd[8])))
    res = two_ham_paths_uw(nt)
    assert isinstance(res, PathWitness)


def test_uv_path_base_case():
    g = plane_graph_from_faces([(0, 1, 2), (0, 2, 3), (0, 1, 2, 3)],
                               (0, 1, 2, 3))
    # bare 4-cycle with a chord is already outer planar; use n=4 region
    g = plane_graph_from_faces([(0, 1, 3), (1, 2, 3), (0, 1, 2, 3)],
                               outer=(0, 1, 2, 3))
    nt = NearTriangulation(g, Cycle((0, 1, 2, 3)))
    res = two_ham_paths_uv(nt)
    assert isinstance(res, OuterPlanarWitness)


def test_uv_pyramid_outer_planar():
    res = two_ham_paths_uv(square_pyramid_region())
    assert isinstance(res, OuterPlanarWitness)
    # cross-check with the networkx apex oracle
    nt = square_pyramid_region()
    assert nx_outerplanar(nt.graph, {0, 1, 4})


def test_uv_two_interior_pair_branch(triangulations_by_n):
    """An 8-vertex region with interior vertices of degree >= 5 lands in the
    two-paths branch, verified exhaustively."""
    from hamforge.verification import square_boundary_regions
    from hamforge.structures import separating_cycles
    found = False
    for nt in square_boundary_regions(8):
        g = nt.graph
        if g.n != 8 or separating_cycles(g, 3):
            continue
        interior = [v for v in range(g.n) if v not in nt.outer_cycle]
        if sum(1 for v in interior if g.degrees[v] >= 5) < 2:
            continue
        res = two_ham_paths_uv(nt)
        if isinstance(res, PathPair):
            found = True
            u, v = res.a, res.b
            drop = set(nt.outer_cycle.vertices) - {u, v}
            sub, origin = g.delete_vertices(drop)
            fwd = {old: new for new, old in enumerate(origin)}
            assert count_ham_paths(sub, fwd[u], fwd[v]) >= 2
            break
    assert found


def test_has_cut_vertex_matches_vertex_deletion_search(triangulations_by_n):
    """The one-DFS articulation vertices of g minus ``exclude`` against a
    BFS per further deleted vertex, on every n <= 9 triangulation minus each
    vertex pair it stays connected without, and every square region with
    n <= 9."""
    from hamforge.plane_graph import _blocks_and_cuts, _connected_after_removal
    from hamforge.verification import square_boundary_regions
    cases = [(nt.graph, 0) for nt in square_boundary_regions(9)]
    for n in range(5, 10):
        for g in triangulations_by_n(n):
            for pair in itertools.combinations(range(g.n), 2):
                if _connected_after_removal(g, vertex_mask(pair)):
                    cases.append((g, vertex_mask(pair)))
    answers = set()
    for g, exclude in cases:
        got = _blocks_and_cuts(g, exclude)[1]
        assert got == {v for v in range(g.n) if not exclude >> v & 1
                       and not _connected_after_removal(g, exclude | 1 << v)}
        answers.add(bool(got))
    assert answers == {True, False}


def _labelings(nt):
    """The region ``nt`` with each of the 8 labelings u v w x of its outer
    cycle: the 4 rotations, each as listed and reflected."""
    base = nt.outer_cycle.vertices
    for rot in range(4):
        for refl in (False, True):
            vs = base[rot:] + base[:rot]
            if refl:
                vs = (vs[0],) + tuple(reversed(vs[1:]))
            yield NearTriangulation(nt.graph, Cycle(vs))


def _outcome_repr(lemma, nt):
    try:
        return repr(lemma(nt))
    except HamforgeError as exc:
        return repr(exc)


def test_two_path_results_match_golden():
    """The paths themselves, not only the branch and count the suites keep:
    the repr of every ``two_ham_paths_uw`` / ``_uv`` result, or of its
    error, over the 8 labelings of each ``dichotomy_regions(10)`` region
    (1,552 results), pinned to one digest."""
    digest = hashlib.sha256()
    results = 0
    for nt in dichotomy_regions(10):
        for lab in _labelings(nt):
            for lemma in (two_ham_paths_uw, two_ham_paths_uv):
                digest.update(_outcome_repr(lemma, lab).encode() + b"\n")
                results += 1
    assert results == 1552
    assert digest.hexdigest() == GOLDEN["two-path results n_max=10"]


@pytest.mark.parametrize("n_max, results", [
    (10, 1552), pytest.param(11, 6064, marks=pytest.mark.slow)])
def test_two_path_lemmas_match_rebuilt_oracle(n_max, results):
    """Searched in place, the lemmas give what they gave on rebuilt
    restrictions (``reference_two_ham_paths_uw`` / ``_uv``): the same repr
    of every result or error, over the 8 labelings of each region."""
    compared = 0
    for nt in dichotomy_regions(n_max):
        for lab in _labelings(nt):
            assert _outcome_repr(two_ham_paths_uw, lab) == \
                _outcome_repr(reference_two_ham_paths_uw, lab)
            assert _outcome_repr(two_ham_paths_uv, lab) == \
                _outcome_repr(reference_two_ham_paths_uv, lab)
            compared += 2
    assert compared == results


def _cyclic_equal(a, b):
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and any(a[i:] + a[:i] == b for i in range(len(a)))


def _bare_cycle_face(g, exclude, walk):
    rest = ((1 << g.n) - 1) & ~exclude
    return len(set(walk)) == len(walk) >= 3 and all(
        (g.nbr_masks[z] & rest).bit_count() == 2 for z in walk)


def test_restriction_faces_match_rebuilt_restrictions(triangulations_by_n,
                                                      monkeypatch):
    """``restriction_faces`` gives the faces of the rebuilt restriction, in
    order and from the same edge, and flags as new exactly those
    ``face_index`` finds in no face of g: on every exclusion the two lemmas
    make on the labelings of the ``dichotomy_regions(10)`` regions (each
    distinct one traced once per region graph and kept: 916), and on
    every 1- and 2-vertex exclusion of the n <= 9 corpus.  Every face a
    peel level walks on its own is one of them.

    The two rules part only on a component that is a bare cycle bounding a
    face of g: its other side skipped the excluded vertices, yet
    ``face_index`` finds that face on the same cycle.  K4 minus a vertex is
    one.  Under the lemmas' hypotheses no restriction they make is one.
    """
    from hamforge import tutte

    current = []
    made, walked = [], []
    real_faces, real_walk = tutte.restriction_faces, tutte._face_walk
    monkeypatch.setattr(tutte, "restriction_faces", lambda g, exclude: (
        made.append((g, exclude)) or real_faces(g, exclude)))

    def walk_spy(rotation, exclude, u, v):
        walk, skipped = real_walk(rotation, exclude, u, v)
        walked.append((current[-1], exclude, u, v, walk))
        return walk, skipped

    monkeypatch.setattr(tutte, "_face_walk", walk_spy)
    for nt in dichotomy_regions(10):
        current.append(nt.graph)
        for lab in _labelings(nt):
            for lemma in (two_ham_paths_uw, two_ham_paths_uv):
                _outcome_repr(lemma, lab)
    assert len({(id(g), exclude) for g, exclude in made}) == len(made) == 916
    assert len(walked) > 500
    for g, exclude in made:
        assert restriction_faces(g, exclude) == \
            restriction_faces_rebuilt(g, mask_bits(exclude))
    for g, exclude, u, v, walk in walked:
        faces = [f for f, _new in restriction_faces_rebuilt(g, mask_bits(exclude))
                 if (u, v) in zip(f[-1:] + f[:-1], f)]
        assert len(faces) == 1 and _cyclic_equal(walk, faces[0])

    parted = set()
    for n in range(4, 10):
        for g in triangulations_by_n(n):
            for k in (1, 2):
                for drop in itertools.combinations(range(g.n), k):
                    exclude = vertex_mask(drop)
                    mine = restriction_faces(g, exclude)
                    rebuilt = restriction_faces_rebuilt(g, drop)
                    assert [f for f, _ in mine] == [f for f, _ in rebuilt]
                    for (f, new), (_f, want) in zip(mine, rebuilt):
                        if new != want:
                            assert new and _bare_cycle_face(g, exclude, f)
                            parted.add((n, drop))
    assert (4, (0,)) in parted


def test_shared_region_tables_match_fresh_regions(monkeypatch):
    """The 8 labelings of a region and both lemmas read one region graph
    and the ``RegionTables`` kept on it.  On every ``dichotomy_regions(10)``
    region, each kept entry (the triangles, the square-region answer, and
    the faces, the blocks and cut vertices and the neighbour masks per
    excluded set) equals what a freshly built ``link_region`` gives, and
    so do the hypothesis answers of each labeling and of each peel level,
    each lemma's outcome, and the exact count of every row of the two
    suites, which share one count per region and dropped pair.  The
    lemmas' path searches read the kept masks: the search copies none."""
    from hamforge import corpus, ham_enum, tutte
    from hamforge.plane_graph import _blocks_and_cuts
    from hamforge.verification import SUITE_RUNNERS, graph_id, link_region

    counts = {}
    for suite in ("lemma-uwpath", "lemma-uvpath"):
        for row in SUITE_RUNNERS[suite]():
            counts.setdefault(row.graph_id, []).append((row.operation, row.payload))
    copies = []
    real_copy = ham_enum.masks_without
    monkeypatch.setattr(ham_enum, "masks_without", lambda *a: (
        copies.append(a) or real_copy(*a)))

    def answer(check, *args):
        try:
            return repr(check(*args))
        except HamforgeError as exc:
            return repr(exc)

    levels = []
    real_level = tutte._check_square_level

    def level_spy(g, exclude, outer):
        levels.append((exclude, outer, answer(real_level, g, exclude, outer)))
        real_level(g, exclude, outer)

    monkeypatch.setattr(tutte, "_check_square_level", level_spy)
    pairs = [p for n in range(5, 12)
             for p in corpus._square_region_level(n, separating=False)]
    assert len(pairs) == 97
    rows = masks = kept_masks = checked_levels = 0
    for g, v in pairs:
        shared = link_region(g, v)
        levels.clear()
        outcomes = []
        for lab in _labelings(shared):
            assert lab.graph is shared.graph
            for lemma in (two_ham_paths_uw, two_ham_paths_uv):
                outcomes.append(_outcome_repr(lemma, lab))
        tables = shared.graph._region
        fresh = link_region(g, v).graph
        assert fresh is not shared.graph and fresh._region is None
        assert tables.triangles == fresh.triangles()
        for exclude, faces in tables.faces.items():
            assert faces == restriction_faces(fresh, exclude)
        for exclude, blocks in tables.blocks.items():
            assert blocks == _blocks_and_cuts(fresh, exclude)
        for exclude, nb in tables.masks.items():
            assert nb == [0 if exclude >> z & 1 else m & ~exclude
                          for z, m in enumerate(fresh.nbr_masks)]
        masks += len(tables.faces) + len(tables.blocks)
        kept_masks += len(tables.masks)
        assert has_separating_triangle(shared.graph, tables.triangles) \
            == has_separating_triangle(fresh)
        assert tables.square_fault == ""
        for exclude, outer, got in levels:
            assert got == answer(real_level, link_region(g, v).graph, exclude, outer)
        checked_levels += len(levels)
        alone = []
        for lab in _labelings(shared):
            for lemma in (two_ham_paths_uw, two_ham_paths_uv):
                own = NearTriangulation(link_region(g, v).graph, lab.outer_cycle)
                assert answer(tutte._require_square_region, lab) == \
                    answer(tutte._require_square_region, own)
                alone.append(_outcome_repr(lemma, own))
        assert outcomes == alone and copies == []
        for operation, payload in counts.pop(graph_id(shared.graph)):
            p, q, r, t = payload["outer"]
            drop, a, b = ({q, t}, p, r) if operation == "dichotomy_uw" else ({r, t}, p, q)
            assert payload["count"] == count_ham_paths(
                link_region(g, v).graph, a, b, exclude=drop)
            rows += 1
        copies.clear()     # the counts here copy; the lemmas' searches must not
    assert counts == {} and rows == 772 + 776
    assert (masks, checked_levels) == (916 + 640, 914)
    assert kept_masks == 552


def test_square_region_answered_once_per_region_graph(monkeypatch):
    """``_require_square_region`` answers once per region graph: over the
    8 labelings of every ``square_boundary_regions(8)`` region, separating
    triangles included, and of a bare 4-cycle (not a near triangulation),
    each labeling gets what the two checks give on it, every labeling of
    one region the same, and ``has_separating_triangle`` runs once per
    region graph.  An outer cycle that is not a 4-cycle is refused on
    every call."""
    from hamforge import tutte
    from hamforge.verification import square_boundary_regions

    asked = []
    real = tutte.has_separating_triangle
    monkeypatch.setattr(tutte, "has_separating_triangle", lambda g, triangles: (
        asked.append(g) or real(g, triangles)))

    def answer(nt):
        try:
            tutte._require_square_region(nt)
        except HypothesisViolated as exc:
            return exc.which
        return ""

    regions = list(square_boundary_regions(8))
    regions.append(NearTriangulation(cycle_graph(4), Cycle((0, 1, 2, 3))))
    seen = {}
    for nt in regions:
        for lab in _labelings(nt):
            want = ("near_triangulation" if not lab.is_near_triangulation else
                    "no_separating_triangles" if real(lab.graph) else "")
            assert answer(lab) == want
            seen.setdefault(id(nt.graph), set()).add(want)
    assert all(len(answers) == 1 for answers in seen.values())
    assert sorted(set().union(*seen.values())) == [
        "", "near_triangulation", "no_separating_triangles"]
    assert len(asked) == len(regions) - 1 == len({id(g) for g in asked})

    g = octahedron()
    tri = NearTriangulation(g, Cycle(g.outer_face))
    for _ in range(2):
        assert answer(tri) == "outer_4cycle"


def test_one_covering_face_search_per_witness(monkeypatch):
    """A peel level checks the witness from below with one face walk on
    its own restriction, and only the reported witness is searched for:
    over the 776 ``two_ham_paths_uv`` calls on the labelings of the
    ``dichotomy_regions(10)`` regions, 548 level witnesses take 548 face
    walks, and the 128 returned witnesses take 120 covering-face searches
    (the other 8 are n = 4 regions, answered without one)."""
    from hamforge import tutte

    searches, walks, level_witnesses = [], [], []
    real_search, real_walk = tutte._first_covering_face, tutte._face_walk
    real_level = tutte._uv_level
    monkeypatch.setattr(tutte, "_first_covering_face", lambda *a: (
        searches.append(a) or real_search(*a)))
    monkeypatch.setattr(tutte, "_face_walk", lambda *a: (
        walks.append(a) or real_walk(*a)))

    def level(g, exclude, *rest):
        res = real_level(g, exclude, *rest)
        if isinstance(res, OuterPlanarWitness) and g.n - exclude.bit_count() > 4:
            level_witnesses.append(res)
        return res

    monkeypatch.setattr(tutte, "_uv_level", level)
    calls = returned = 0
    for nt in dichotomy_regions(10):
        for lab in _labelings(nt):
            calls += 1
            try:
                res = two_ham_paths_uv(lab)
            except HamforgeError:
                continue
            if isinstance(res, OuterPlanarWitness):
                returned += 1
                assert len(res.face_walk) > 2 or nt.graph.n == 4
    assert calls == 776 and returned == 128
    assert len(walks) == len(level_witnesses) == 548
    assert len(searches) == 120


# -- cycles through triangle edges ---------------------------------------------------

def _path_variants(g, p, drop):
    """Vertex sequences around the Hamiltonian path ``p`` of g minus
    ``drop`` that a check must get right: the path, reversed, with a
    vertex repeated, dropped, swapped with its neighbour (a non-edge step
    or the same set in another order), or replaced by an excluded vertex,
    a negative id or an id out of range."""
    n = g.n
    yield p
    yield p[::-1]
    yield p + p[-1:]
    yield p[:-1]
    for i in range(len(p)):
        yield p[:i] + p[i + 1:]
        yield p[:i] + (p[i],) + p[i:]
        for z in (*drop, p[i] - n, n):
            yield p[:i] + (z,) + p[i + 1:]
        if i + 1 < len(p):
            yield p[:i] + (p[i + 1], p[i]) + p[i + 2:]


def test_is_ham_path_of_matches_reference(triangulations_by_n):
    """The mask check gives the set reference's answer on every
    Hamiltonian path, between every pair, of every triangulation with
    n <= 7 minus each vertex pair (and minus nothing for n <= 6), each
    with the variants of ``_path_variants``, and with ``exclude`` also
    naming ids out of range; both fail alike on an empty sequence with
    every vertex excluded."""
    checked = {True: 0, False: 0}
    for n in range(4, 8):
        for g in triangulations_by_n(n):
            drops = list(itertools.combinations(range(n), 2))
            if n <= 6:
                drops.append(())
            for drop in drops:
                rest = [z for z in range(n) if z not in drop]
                for a, b in itertools.combinations(rest, 2):
                    for p in enumerate_ham_paths(g, a, b, exclude=drop):
                        for seq in _path_variants(g, p, drop):
                            for exclude in (set(drop), set(drop) | {n, -1}):
                                got = is_ham_path_of(g, seq, a, b, exclude)
                                assert got == reference_is_ham_path_of(
                                    g, seq, a, b, exclude), (seq, exclude)
                                checked[got] += 1
    assert checked == {True: 6766, False: 130148}
    g = k4()
    for check in (is_ham_path_of, reference_is_ham_path_of):
        with pytest.raises(IndexError):
            check(g, (), 0, 1, exclude=range(4))

def test_ham_cycle_through_triangles_octahedron():
    g = octahedron()
    faces = [f for f in g.faces]
    cyc, e1, e2 = ham_cycle_through_triangle_edges(
        g, Cycle(faces[0]), Cycle(faces[2]), Cycle(faces[4]))
    u, v, w = faces[0]
    need = {edge_key(u, v), edge_key(u, w), e1, e2}
    assert len(need) == 4 and need <= cyc
    assert is_ham_cycle(g, cyc)


def test_ham_cycle_through_triangles_icosahedron():
    g = icosahedron()
    faces = [f for f in g.faces]
    pick = [faces[0], faces[7], faces[13]]
    if any(set(a) & set(b) for a, b in [(pick[0], pick[1]), (pick[0], pick[2]),
                                        (pick[1], pick[2])]):
        pick = [f for f in faces if True][:3]
    cyc, e1, e2 = ham_cycle_through_triangle_edges(
        g, Cycle(pick[0]), Cycle(pick[1]), Cycle(pick[2]))
    assert is_ham_cycle(g, cyc)


def test_ham_cycle_through_triangles_rejects_duplicates():
    g = octahedron()
    f = Cycle(g.faces[0])
    with pytest.raises(HypothesisViolated):
        ham_cycle_through_triangle_edges(g, f, f, Cycle(g.faces[1]))


def test_ham_cycle_through_triangles_rejects_separating_triangles(triangulations_by_n):
    """Called on its own, the search tests the graph's hypothesis itself."""
    g = next(g for g in triangulations_by_n(7) if has_separating_triangle(g))
    t, t1, t2 = (Cycle(f) for f in g.faces[:3])
    with pytest.raises(HypothesisViolated, match="no_separating_triangles"):
        ham_cycle_through_triangle_edges(g, t, t1, t2)


def _triangle_outcome(search, *args, **kwargs):
    """A triangle-edge answer as (sorted cycle, e1, e2), or the error's
    class and message."""
    try:
        cyc, e1, e2 = search(*args, **kwargs)
    except HamforgeError as exc:
        return type(exc).__name__, str(exc)
    return sorted(cyc), e1, e2


def test_triangle_edge_search_matches_reference_on_every_triple(triangulations_by_n):
    """One ``TriangleEdgeSearch`` per graph, as the suite keeps it, and the
    one-shot ``ham_cycle_through_triangle_edges`` give the reference's
    answer or error on every ordered triple of distinct faces of each
    4-connected triangulation with n <= 8 (3,696 triples).  So do inputs
    that fail a check: a face repeated or given from another vertex, a
    4-cycle, a non-cycle, and searches on graphs with a separating
    triangle, asked with ``separating=False`` so that they run (some
    exhaust)."""
    compared = 0
    for n in range(6, 9):
        for g in triangulations_by_n(n):
            if has_separating_triangle(g):
                continue
            faces = [Cycle(f) for f in g.faces]
            search = TriangleEdgeSearch(g)
            for t, t1, t2 in itertools.permutations(faces, 3):
                want = _triangle_outcome(
                    reference_ham_cycle_through_triangle_edges, g, t, t1, t2)
                assert _triangle_outcome(search, t, t1, t2) == want
                assert _triangle_outcome(
                    ham_cycle_through_triangle_edges, g, t, t1, t2) == want
                compared += 1
    assert compared == 336 + 720 + 2 * 1320

    g = octahedron()
    f0, f1, f2 = (Cycle(f) for f in g.faces[:3])
    a, b, c = f0.vertices
    odd = [(f0, Cycle((b, c, a)), f1), (f0, Cycle((a, c, b)), f2),
           (f0, f1, f1), (Cycle(g.rotation[0]), f1, f2),
           (f0, Cycle((a, b)), f2), (f0, f1, Cycle((0, 2, 1))),
           (Cycle((0, 1, 2, 3)), f1, f2), (f0, f1, Cycle((0, 5, 1)))]
    search = TriangleEdgeSearch(g)
    outcomes = []
    for triple in odd:
        want = _triangle_outcome(reference_ham_cycle_through_triangle_edges,
                                 g, *triple)
        for _ in range(2):     # a failed check is not kept
            assert _triangle_outcome(search, *triple) == want
        outcomes.append("found" if isinstance(want[0], list) else want[0])
    assert outcomes == ["HypothesisViolated"] * 4 + ["NotACycle"] * 2 + [
        "HypothesisViolated", "found"]

    outcomes = set()
    for g in triangulations_by_n(7):
        if not has_separating_triangle(g):
            continue
        faces = [Cycle(f) for f in g.faces]
        search = TriangleEdgeSearch(g, separating=False)
        for t, t1, t2 in itertools.permutations(faces[:6], 3):
            want = _triangle_outcome(reference_ham_cycle_through_triangle_edges,
                                     g, t, t1, t2, separating=False)
            assert _triangle_outcome(search, t, t1, t2) == want
            assert _triangle_outcome(ham_cycle_through_triangle_edges,
                                     g, t, t1, t2) == _triangle_outcome(
                reference_ham_cycle_through_triangle_edges, g, t, t1, t2)
            outcomes.add("found" if isinstance(want[0], list) else want[0])
    assert outcomes == {"found", "SearchExhausted"}


def _suite_triangle_answers(monkeypatch):
    """Run ``lemma-4edges`` at its defaults, recording each graph, triple
    and answer its ``TriangleEdgeSearch`` gives, in suite order."""
    from hamforge.verification import SUITE_RUNNERS

    asked = []
    real = TriangleEdgeSearch.__call__

    def spy(self, t, t1, t2):
        answer = real(self, t, t1, t2)
        asked.append((self.g, (t, t1, t2), answer))
        return answer

    monkeypatch.setattr(TriangleEdgeSearch, "__call__", spy)
    rows = list(SUITE_RUNNERS["lemma-4edges"]())
    assert len(rows) == 18 and all(r.ok for r in rows)
    return asked


def test_suite_triangle_answers_match_golden_and_reference(monkeypatch):
    """The cycles ``lemma-4edges`` finds, which its payload omits: the
    sha256 over ``repr((sorted(cycle), e1, e2))`` and a newline for each of
    the 1,800 sampled triples of the suite at its defaults (n <= 10), in
    suite order, is pinned, and each answer is the reference's."""
    asked = _suite_triangle_answers(monkeypatch)
    digest = hashlib.sha256()
    for g, triple, (cyc, e1, e2) in asked:
        digest.update(repr((sorted(cyc), e1, e2)).encode() + b"\n")
        assert (cyc, e1, e2) == reference_ham_cycle_through_triangle_edges(
            g, *triple)
    assert len(asked) == 1800
    assert digest.hexdigest() == GOLDEN["triangle-edge answers n_max=10"]


def test_suite_triangle_search_work(monkeypatch):
    """``lemma-4edges`` at its defaults pays for search nodes, not for
    scaffolding: of the 3,769 (e1, e2) pairs its 1,800 triples reach that
    repeat no edge, the 1,650 that give a vertex three required edges are
    dropped before a table is built, and the other 2,119 run one search
    each, 38,716 nodes in all.  The pairs are recounted here on the
    reference's ``reference_prepare``."""
    from hamforge import tutte

    searches = []

    class SearchSpy(tutte._Search):
        __slots__ = ()

        def _run(self, start, end):
            searches.append(self)
            return super()._run(start, end)

    monkeypatch.setattr(tutte, "_Search", SearchSpy)
    asked = _suite_triangle_answers(monkeypatch)
    pairs = dropped = 0
    for g, (t, t1, t2), (_cyc, e1, e2) in asked:
        u, v, w = t.vertices
        base = [edge_key(u, v), edge_key(u, w)]
        for pair in itertools.product(sorted(t1.edges()), sorted(t2.edges())):
            need = base + list(pair)
            if len(set(need)) == 4:
                pairs += 1
                dropped += reference_prepare(g, need) is None
            if pair == (e1, e2):
                break
    assert (len(asked), pairs, dropped) == (1800, 3769, 1650)
    assert len(searches) == pairs - dropped == 2119
    masks = {id(g.nbr_masks) for g, _triple, _answer in asked}
    assert all(s.cap == 1 and id(s.nb) in masks for s in searches)
    assert sum(s.nodes for s in searches) == 38716


# -- diamond regions ------------------------------------------------------------------

def case3_region():
    faces = [(0, 1, 7), (1, 5, 7), (4, 5, 1), (4, 1, 2), (4, 2, 6), (4, 6, 5),
             (5, 6, 7), (3, 6, 7), (2, 3, 6), (0, 7, 3), (0, 1, 2, 3)]
    g = plane_graph_from_faces(faces, outer=(0, 1, 2, 3))
    cert = DiamondCert(kind="diamond4",
                       roles=(("center", 7), ("y", 5), ("v", 1), ("w", 2),
                              ("x", 6)),
                       crucial=(7, 5), outer_cycle=Cycle((5, 1, 2, 6)))
    return NearTriangulation(g, Cycle((0, 1, 2, 3))), cert


def case1_region():
    faces = [(0, 1, 4), (1, 5, 4), (1, 2, 5), (2, 6, 5), (2, 3, 6), (3, 7, 6),
             (3, 0, 7), (0, 4, 7),
             (4, 5, 11), (5, 9, 11), (8, 9, 5), (8, 5, 6), (8, 6, 10),
             (8, 10, 9), (9, 10, 11), (7, 10, 11), (6, 7, 10), (4, 11, 7),
             (0, 1, 2, 3)]
    g = plane_graph_from_faces(faces, outer=(0, 1, 2, 3))
    cert = DiamondCert(kind="diamond4",
                       roles=(("center", 11), ("y", 9), ("v", 5), ("w", 6),
                              ("x", 10)),
                       crucial=(11, 9), outer_cycle=Cycle((9, 5, 6, 10)))
    return NearTriangulation(g, Cycle((0, 1, 2, 3))), cert


def test_diamond_region_case1_all_pairs():
    nt, cert = case1_region()
    table = diamond_region_paths(nt, 8, cert)
    assert table.branch == "all_pairs_two"
    assert all(cnt >= 2 for _pair, cnt in table.counts)


def test_diamond_region_case3_unique_pair():
    nt, cert = case3_region()
    table = diamond_region_paths(nt, 4, cert)
    assert table.branch == "unique_pair"
    assert table.unique_pair == (0, 3)
    assert set(table.marked_edges) == {edge_key(4, 5), edge_key(4, 6)}
    # exhaustive cross-check of the counts table
    g = nt.graph
    for (a, b), cnt in table.counts:
        drop = set(nt.outer_cycle.vertices) - {a, b}
        sub, origin = g.delete_vertices(drop)
        fwd = {old: new for new, old in enumerate(origin)}
        want = count_ham_paths(sub, fwd[a], fwd[b]) if sub.connected else 0
        assert cnt == want
    for _pair, alts in table.alternates:
        for p in alts:
            assert not set(table.marked_edges) <= path_edges(p)


def test_diamond_region_rejects_degree_five_center():
    nt, cert = case3_region()
    with pytest.raises(HypothesisViolated):
        diamond_region_paths(nt, 5, cert)      # vertex 5 has degree 5


# -- the two front ends over one search, against their separate copies ---------

def _tutte_instances(triangulations_by_n):
    for k in range(4, 9):
        w = wheel(k)
        yield w, Cycle(w.outer_face)
    for k in range(3, 9):
        yield cycle_graph(k), Cycle(tuple(range(k)))
    for n in range(4, 9):
        for g in triangulations_by_n(n):
            yield g, Cycle(g.outer_face)


def _outcome(search, *args, **kwargs):
    try:
        cert = search(*args, **kwargs)
    except SearchExhausted as exc:
        return "exhausted", str(exc)
    return cert.path, cert.is_hamiltonian, cert.constraint_edges


def test_tutte_front_ends_match_separate_searches(triangulations_by_n):
    """Every valid argument tuple on wheels, cycles and the n <= 8 corpus,
    Hamiltonian-only and with the lexicographic fallback: same path, same
    Hamiltonicity, or the same SearchExhausted message."""
    seen = {"one": 0, "two": 0, "fallback": 0, "exhausted": 0}
    for g, c in _tutte_instances(triangulations_by_n):
        edges = sorted(c.edges())
        for hamiltonian in (True, False):
            for x in c.vertices:
                for y in range(g.n):
                    if y == x:
                        continue
                    for e in edges:
                        got = _outcome(tutte_path, g, c, x, y, e, hamiltonian=hamiltonian)
                        assert got == _outcome(reference_tutte_path, g, c, x, y, e,
                                               hamiltonian=hamiltonian), (g, c, x, y, e)
                        seen["one"] += 1
                        seen["fallback"] += got[1] is False
                        seen["exhausted"] += got[0] == "exhausted"
            for u in c.vertices:
                for v in c.vertices:
                    for e in edges:
                        for f in edges:
                            if not clockwise_order_ok(c, u, e, f, v):
                                continue
                            got = _outcome(tutte_path_two_edges, g, c, u, v, e, f,
                                           hamiltonian=hamiltonian)
                            assert got == _outcome(reference_tutte_path_two_edges,
                                                   g, c, u, v, e, f,
                                                   hamiltonian=hamiltonian), \
                                (g, c, u, v, e, f)
                            seen["two"] += 1
                            seen["fallback"] += got[1] is False
                            seen["exhausted"] += got[0] == "exhausted"
    assert all(seen.values()), seen


def test_tutte_path_two_edges_needs_outer_cycle():
    g = wheel(6)
    vs = g.outer_face
    with pytest.raises(ValueError, match="outer cycle required"):
        tutte_path_two_edges(g, None, vs[0], vs[4], (vs[1], vs[2]), (vs[2], vs[3]))
