import itertools
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hamforge import plane_graph, replay
from hamforge.corpus import (
    cycle_graph,
    double_wheel,
    flip_edge,
    icosahedron,
    k4,
    octahedron,
    random_triangulation,
    telescope_tower,
    two_pocket_worm,
    wheel,
)
from hamforge.errors import (
    DisconnectedGraph,
    DisconnectedInterior,
    EmptyInterior,
    HamforgeError,
    InconsistentRotation,
    MultiEdge,
    NonPlanarTrace,
    NotAChain,
    NotACycle,
)
from hamforge.plane_graph import (
    Cycle,
    NearTriangulation,
    PlaneGraph,
    _blocks_and_cuts,
    add_edge_in_face,
    block_chain,
    bridges,
    build,
    canonical_code,
    canonical_cycle,
    closure_containing,
    closure_of_disc,
    contract_edge,
    contract_interior,
    contract_interior_containing,
    disc_faces,
    is_isomorphic,
    is_k_connected,
    mask_bits,
    plane_graph_from_faces,
    vertex_connectivity_flow,
    vertex_mask,
)
from hamforge.structures import enumerate_cycles, separating_cycles
from hamforge.verification import SUITE_RUNNERS

from .oracles import (
    add_edge_in_face_rebuilt,
    contract_edge_rebuilt,
    contract_interior_rebuilt,
    eager_tables,
    flip_edge_rebuilt,
    full_traversal_canonical_code,
    mirror,
    neighbour_answers,
    nx_connectivity,
    nx_isomorphic,
    reference_closure,
    reference_closure_containing,
    reference_contract_interior,
    scan_face_index,
)

# the tables a PlaneGraph builds on first read
LAZY = ("edge_set", "_face_at")


def test_build_octahedron_census():
    g = octahedron()
    assert g.n == 6
    assert len(g.edge_set) == 12
    assert len(g.faces) == 8          # Euler: 2n - 4 faces
    assert g.is_triangulation


def test_build_k4():
    g = k4()
    assert g.n == 4 and len(g.edge_set) == 6 and g.is_triangulation


def test_build_rejects_one_sided_edge():
    # edge (0,1) listed only at vertex 0
    with pytest.raises(InconsistentRotation):
        build([(1, 2), (2,), (0, 1)])


def test_build_rejects_multi_edge_and_loop():
    with pytest.raises(MultiEdge):
        build([(1, 1), (0, 0)])
    with pytest.raises(MultiEdge):
        build([(0,)])


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        build([(1,), (0,), (3,), (2,)])


def test_build_rejects_nonplanar_trace():
    # K4 with one rotation reversed traces a torus embedding
    g = k4()
    rot = [list(r) for r in g.rotation]
    rot[0] = list(reversed(rot[0]))
    with pytest.raises(NonPlanarTrace):
        build(rot)


@given(st.integers(min_value=6, max_value=11), st.integers(min_value=0, max_value=99))
@settings(max_examples=25, deadline=None)
def test_euler_holds_on_random_triangulations(n, seed):
    g = random_triangulation(n, seed)
    assert g.n - len(g.edge_set) + len(g.faces) == 2
    assert len(g.edge_set) == 3 * g.n - 6
    assert g.is_triangulation


# -- connectivity -----------------------------------------------------------

def test_is_k_connected_examples():
    o = octahedron()
    assert is_k_connected(o, 4)
    assert not is_k_connected(o, 5)   # 4-regular
    assert is_k_connected(double_wheel(8), 4)
    assert is_k_connected(icosahedron(), 5)


def test_connectivity_matches_networkx_and_flow(triangulations_by_n):
    for n in range(4, 9):
        for g in triangulations_by_n(n):
            kappa = nx_connectivity(g)
            assert is_k_connected(g, kappa)
            assert not is_k_connected(g, kappa + 1)
            assert vertex_connectivity_flow(g) == kappa


# -- closure and contraction -------------------------------------------------

def test_closure_octahedron_equator():
    o = octahedron()
    eq = next(c for c in _cycles4(o) if _separates(o, c))
    cl = closure_of_disc(o, eq, *disc_faces(o, eq))
    assert cl.graph.n == 5            # one apex inside
    assert cl.is_near_triangulation
    assert len(_interior(o, eq)) == 1


def _interior(g, c):
    """Vertices strictly inside ``c``, in g's ids, read off its closure."""
    cl = closure_of_disc(g, c, *disc_faces(g, c))
    return [cl.to_origin(v) for v in range(cl.graph.n) if v not in cl.outer_cycle]


def _cycles4(g):
    from hamforge.structures import enumerate_cycles
    return enumerate_cycles(g, 4)


def _separates(g, c):
    from hamforge.structures import separating_cycles
    return c.canonical() in {s.canonical() for s in separating_cycles(g, 4)}


def test_closure_facial_triangle_is_itself():
    o = octahedron()
    face = next(f for i, f in enumerate(o.faces) if i != o.outer_face_index)
    c = Cycle(face)
    cl = closure_of_disc(o, c, *disc_faces(o, c))
    assert cl.graph.n == 3
    assert _interior(o, Cycle(face)) == []


def test_closure_double_wheel_arc():
    # apex, rim_i, apex', rim_j with two rim vertices between them
    g = double_wheel(8)                      # rim 0..5, apexes 6, 7
    c = Cycle((6, 0, 7, 3))
    cl = closure_of_disc(g, c, *disc_faces(g, c))
    assert cl.graph.n == 6
    assert cl.is_near_triangulation
    inside = set(_interior(g, c))
    assert inside in ({1, 2}, {4, 5})


def test_closure_orientation_mirror():
    g = mirror(double_wheel(8))
    c = Cycle((6, 0, 7, 3))
    cl = closure_of_disc(g, c, *disc_faces(g, c))
    assert cl.graph.n == 6


def test_closure_rejects_non_cycle():
    # rim vertices 0 and 2 are not adjacent in the octahedron
    o, c = octahedron(), Cycle((0, 2, 4))
    with pytest.raises(NotACycle):
        closure_of_disc(o, c, *disc_faces(o, c))


def test_contract_interior_double_wheel_shrinks():
    g = double_wheel(10)                     # rim 0..7, apexes 8, 9
    c = Cycle((8, 1, 9, 4))                  # rim 2,3 on one side
    inside = set(_interior(g, c))
    if inside != {2, 3}:
        c = Cycle((8, 4, 9, 1))
        inside = set(_interior(g, c))
    assert inside == {2, 3}
    g2, star, origin = contract_interior(g, c)
    assert g2.n == 9
    assert g2.degrees[star] == 4
    assert g2.is_triangulation
    assert is_isomorphic(g2, double_wheel(9))


def test_contract_interior_octahedron_equator():
    # each side of an equatorial square holds one apex: contracting it keeps
    # n = 6 and reproduces the octahedron
    o = octahedron()
    eq = next(c for c in _cycles4(o) if _separates(o, c))
    g2, star, _origin = contract_interior(o, eq)
    assert g2.n == 6 and g2.is_triangulation
    assert is_isomorphic(g2, o)


def test_contract_interior_octahedron_apex_square():
    # 4-cycle through both apexes with a two-vertex rim arc inside
    o = octahedron()                          # rim 0..3, apexes 4, 5
    c = Cycle((4, 0, 5, 1))
    inside = set(_interior(o, c))
    if inside != {2, 3}:
        o = o.rooted_at_face(next(f for f in o.faces if set(f) <= {0, 1, 4, 5}))
        inside = set(_interior(o, c))
    assert inside == {2, 3}
    g2, star, _origin = contract_interior(o, c)
    assert g2.n == 5 and g2.is_triangulation


def test_contract_facial_triangle_empty_interior():
    o = octahedron()
    face = next(f for i, f in enumerate(o.faces) if i != o.outer_face_index)
    with pytest.raises(EmptyInterior):
        contract_interior(o, Cycle(face))


def test_contract_disconnected_interior():
    # two pockets behind the chord 0-2: the interior of the square splits
    g = plane_graph_from_faces([
        (0, 1, 4), (1, 2, 4), (2, 0, 4),
        (2, 3, 5), (3, 0, 5), (0, 2, 5),
        (0, 1, 2, 3),
    ], outer=(0, 1, 2, 3))
    g = g.rooted_at_face((0, 1, 2, 3))
    with pytest.raises(DisconnectedInterior):
        contract_interior(g, Cycle((0, 1, 2, 3)))


def test_contract_edge_roundtrip_size():
    g = double_wheel(9)
    e = (0, 1)                               # rim edge, two common neighbors
    g2, merged, origin = contract_edge(g, *e)
    assert g2.n == 8 and g2.is_triangulation
    assert is_isomorphic(g2, double_wheel(8))


def _outcome(f, *args):
    """``f(*args)``, or the class and message of what it raised."""
    try:
        return f(*args)
    except (EmptyInterior, DisconnectedInterior) as exc:
        return type(exc), str(exc)


def _contraction(result):
    """A contraction up to where each face is traced from: its graph's
    size, neighbour masks and faces as cyclic sequences, star and origin."""
    if not isinstance(result[0], PlaneGraph):
        return result
    g2, star, origin = result
    faces = {min(f[i:] + f[:i] for i in range(len(f))) for f in g2.faces}
    return g2.n, g2.nbr_masks, faces, star, origin


def test_disc_faces_match_reference_closures(triangulations_by_n):
    """On both sides of every separating 3- and 4-cycle of the full levels
    n <= 9, the telescope tower and the two-pocket worm, ``disc_faces``'s
    mask is the vertex set of the closure built the old way, and
    ``closure_of_disc`` / ``closure_containing`` and both contractions give
    what the old closure-based code gave."""
    graphs = [g for n in range(4, 10) for g in triangulations_by_n(n)]
    graphs += [telescope_tower(3)[0], two_pocket_worm()[0]]
    sides = 0
    for g in graphs:
        for c in separating_cycles(g, 3) + separating_cycles(g, 4):
            inside, disc = disc_faces(g, c)
            want = reference_closure(g, c)
            assert disc == vertex_mask(want.origin), (g.rotation, c)
            got = closure_of_disc(g, c, *disc_faces(g, c))
            assert (got.graph.rotation, got.graph.outer_face_index, got.outer_cycle,
                    got.origin) == (want.graph.rotation, want.graph.outer_face_index,
                                    want.outer_cycle, want.origin)
            assert _contraction(_outcome(contract_interior, g, c)) == \
                _contraction(_outcome(reference_contract_interior, g, c))
            on_cycle = vertex_mask(c.vertices)
            near = mask_bits(disc & ~on_cycle)[:1]
            far = mask_bits(((1 << g.n) - 1) & ~disc)[:1]
            for v in near + far:
                side = disc_faces(g, c, v)
                want = reference_closure_containing(g, c, v)
                assert side[1] == vertex_mask(want.origin), (g.rotation, c, v)
                assert (side == (inside, disc)) == (v in near)
                assert side[1] & disc == (disc if v in near else on_cycle)
                got = closure_containing(g, c, v)
                assert (got.graph.rotation, got.outer_cycle, got.origin) == \
                    (want.graph.rotation, want.outer_cycle, want.origin)
                assert _contraction(_outcome(contract_interior_containing, g, c, v)) == \
                    _contraction(_outcome(reference_contract_interior, g, c, v))
                sides += 1
    assert sides > 1000, sides


# -- graph edits against the face rebuild ------------------------------------

EDITS = ("contract_edge", "contract_interior", "contract_interior_containing",
         "add_edge_in_face")
# the constructors that are given their graph as faces
FACE_INPUTS = {"double_wheel", "k4", "icosahedron", "wheel", "telescope_tower",
               "two_pocket_worm", "suite_lemma_diamond4"}


def _cyclic(seq):
    """A cyclic sequence of distinct entries, turned to start at its least."""
    i = seq.index(min(seq))
    return tuple(seq[i:]) + tuple(seq[:i])


def _raised_or(f, *args):
    """``f(*args)``, or the class of the error it raised."""
    try:
        return f(*args)
    except (HamforgeError, ValueError) as exc:
        return type(exc)


def _assert_same_edit(g, got, want):
    """``got`` is the face rebuild ``want`` up to where each rotation
    starts: same size, new vertex, origin, cyclic rotations and faces.  A
    vertex whose neighbours the edit left alone keeps g's rotation exactly,
    and g's face 0 stays face 0 wherever it survives."""
    if isinstance(want, PlaneGraph):
        got, want = ((h, None, list(range(h.n))) for h in (got, want))
    (h, star, origin), (h0, star0, origin0) = got, want
    assert (h.n, star, origin) == (h0.n, star0, origin0)
    assert [_cyclic(r) for r in h.rotation] == [_cyclic(r) for r in h0.rotation]
    assert {canonical_cycle(f) for f in h.faces} == {canonical_cycle(f) for f in h0.faces}
    for new, old in enumerate(origin):
        back = tuple(origin[w] for w in h.rotation[new])
        if old is not None and set(back) == set(g.rotation[old]):
            assert back == g.rotation[old], (g.rotation, old)
    fwd = {old: new for new, old in enumerate(origin) if old is not None}
    face0 = tuple(fwd.get(w, -1) for w in g.faces[0])
    if _cyclic(face0) in {_cyclic(f) for f in h.faces}:
        assert h.faces[0] == face0, g.rotation


def _check_edit(edit, rebuilt, g, *args) -> str:
    """The name of the edit, or of the error class that both it and its
    face rebuild raised; a graph it gives must be the rebuild's."""
    got, want = _raised_or(edit, g, *args), _raised_or(rebuilt, g, *args)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want, (edit.__name__, g.rotation, args, got, want)
        return got.__name__
    _assert_same_edit(g, got, want)
    return edit.__name__


def test_edits_match_face_rebuild(triangulations_by_n):
    """On the full levels n <= 9, contracting every vertex pair, flipping
    every edge, contracting every facial triangle and both sides of every
    separating 3- and 4-cycle, and (n <= 8) adding a chord between every
    non-adjacent pair of g and across the large face of g - z give the graph
    the face rebuild gave, up to where each rotation starts, or raise its
    error."""
    seen = Counter()
    for n in range(4, 10):
        for g in triangulations_by_n(n):
            for u, v in itertools.combinations(range(n), 2):
                seen[_check_edit(contract_edge, contract_edge_rebuilt, g, u, v)] += 1
                if g.has_edge(u, v):
                    seen[_check_edit(flip_edge, flip_edge_rebuilt, g, u, v)] += 1
                elif n <= 8:
                    seen[_check_edit(add_edge_in_face, add_edge_in_face_rebuilt,
                                     g, u, v)] += 1
            cycles = [Cycle(f) for f in g.faces]
            cycles += separating_cycles(g, 3) + separating_cycles(g, 4)
            for c in cycles:
                seen[_check_edit(contract_interior, contract_interior_rebuilt, g, c)] += 1
            for c in cycles[len(g.faces):]:
                disc = disc_faces(g, c)[1]
                near = mask_bits(disc & ~vertex_mask(c.vertices))[:1]
                far = mask_bits(((1 << n) - 1) & ~disc)[:1]
                for v in near + far:
                    seen[_check_edit(contract_interior_containing,
                                     contract_interior_rebuilt, g, c, v)] += 1
            if n <= 8:
                for z in range(n):
                    h = g.delete_vertices({z})[0]
                    for u, v in itertools.combinations(max(h.faces, key=len), 2):
                        seen[_check_edit(add_edge_in_face, add_edge_in_face_rebuilt,
                                         h, u, v)] += 1
    assert seen == {
        "contract_edge": 924, "flip_edge": 893, "contract_interior": 1201,
        "contract_interior_containing": 2197, "add_edge_in_face": 446,
        "NotACycle": 1104, "NotContractible": 492, "ValueError": 523,
        "EmptyInterior": 965, "DisconnectedInterior": 243, "MultiEdge": 882}


def _spy_on_edits(monkeypatch):
    """The (name, args) of every edit replay makes from now on."""
    calls = []
    for name in EDITS:
        def spy(*args, _edit=getattr(replay, name), _name=name):
            calls.append((_name, args))
            return _edit(*args)
        monkeypatch.setattr(replay, name, spy)
    return calls


def _run_replay_suites():
    for suite in ("lemma-2edge", "theorem1", "theorem2", "lemma-diamond4"):
        assert all(row.ok for row in SUITE_RUNNERS[suite]())


def test_suite_edits_match_face_rebuild(monkeypatch):
    """Every edit the replay suites make at their defaults gives the graph
    the face rebuild gave, up to where each rotation starts."""
    calls = _spy_on_edits(monkeypatch)
    _run_replay_suites()
    rebuilt = {"contract_edge": contract_edge_rebuilt,
               "contract_interior": contract_interior_rebuilt,
               "contract_interior_containing": contract_interior_rebuilt,
               "add_edge_in_face": add_edge_in_face_rebuilt}
    for name, args in calls:
        assert _check_edit(getattr(plane_graph, name), rebuilt[name], *args) == name
    assert Counter(name for name, _args in calls) == {
        "contract_interior": 18, "contract_edge": 9, "add_edge_in_face": 9,
        "contract_interior_containing": 6}


def test_replay_suites_build_from_faces_only_what_is_given_as_faces(monkeypatch):
    """At their defaults the replay suites call ``plane_graph_from_faces``
    only from the constructors of graphs given as faces, and never from
    inside a graph edit: an edit writes its rotation from the parent's."""
    original = plane_graph.plane_graph_from_faces
    callers = []

    def spy(*args, **kwargs):
        frame = sys._getframe(1)
        callers.append(frame.f_code.co_name)
        while frame is not None:
            assert frame.f_code.co_name not in EDITS + ("_merge", "_contract_disc",
                                                        "flip_edge")
            frame = frame.f_back
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("hamforge") and \
                getattr(module, "plane_graph_from_faces", None) is original:
            monkeypatch.setattr(module, "plane_graph_from_faces", spy)
    calls = _spy_on_edits(monkeypatch)
    _run_replay_suites()
    assert len(calls) == 42
    assert callers and set(callers) <= FACE_INPUTS, Counter(callers)


# -- blocks and bridges -------------------------------------------------------

def test_block_chain_path_graph():
    g = build([(1,), (0, 2), (1,)])
    chain = block_chain(g, 0, 2)
    assert len(chain) == 2
    assert chain.cut_vertices == (1,)


def test_block_chain_double_wheel_region():
    # region between the apexes of double_wheel(9), long rim arc inside
    from hamforge.plane_graph import closure_containing
    g = double_wheel(9)                      # rim 0..6, apexes 7, 8
    c = Cycle((7, 0, 8, 2))
    cl = closure_containing(g, c, 4)
    assert cl.graph.n == 8                   # cycle plus the four-vertex arc
    fwd = {cl.to_origin(i): i for i in range(cl.graph.n)}
    h, origin = cl.graph.delete_vertices({fwd[7], fwd[8]})
    hfwd = {origin[i]: i for i in range(h.n)}
    chain = block_chain(h, hfwd[fwd[0]], hfwd[fwd[2]])
    assert len(chain) == 5                   # the rim path, five single edges
    assert all(len(b) == 2 for b in chain.blocks)


def test_block_chain_rejects_pendant_block():
    # a and b share the K4 block; the pendant edge at 2 hangs off the path
    base = k4()
    rot = [list(r) for r in base.rotation]
    rot[2].append(4)
    rot.append([2])
    g = build(rot)
    with pytest.raises(NotAChain):
        block_chain(g, 0, 1)


def _chain_or_message(g, a, b, exclude=0):
    try:
        chain = block_chain(g, a, b, exclude=exclude)
    except NotAChain as exc:
        return str(exc)
    return chain.blocks, chain.cut_vertices, chain.endpoints


def test_block_code_with_exclude_matches_vertex_deletion(triangulations_by_n):
    """``_blocks_and_cuts`` and ``block_chain`` skipping ``exclude`` in
    place give the blocks, cut vertices, endpoints and NotAChain messages of
    the same calls on the graph with those vertices deleted, mapped back:
    every n <= 9 triangulation minus each vertex pair (every endpoint pair
    when a cut vertex is left, else one, as all give the single block), and
    every square region with n <= 9 minus each diagonal of its outer cycle
    (the other diagonal as endpoints)."""
    from hamforge.verification import square_boundary_regions
    cases = []
    for nt in square_boundary_regions(9):
        u, v, w, x = nt.outer_cycle.vertices
        cases += [(nt.graph, {v, x}, [(u, w)]), (nt.graph, {u, w}, [(v, x)])]
    for n in range(4, 10):
        for g in triangulations_by_n(n):
            cases += [(g, set(pair), None)
                      for pair in itertools.combinations(range(g.n), 2)]
    outcomes = set()
    for g, exclude, ends in cases:
        h, origin = g.delete_vertices(exclude)
        fwd = {old: new for new, old in enumerate(origin)}
        blocks, cuts = _blocks_and_cuts(h)
        assert _blocks_and_cuts(g, vertex_mask(exclude)) == (
            [frozenset((origin[p], origin[q]) for p, q in blk) for blk in blocks],
            {origin[z] for z in cuts})
        if ends is None:
            ends = list(itertools.combinations(origin, 2))[:None if cuts else 1]
        for a, b in ends:
            want = _chain_or_message(h, fwd[a], fwd[b])
            if not isinstance(want, str):
                blocks, cut_vertices, endpoints = want
                want = (tuple(frozenset(origin[z] for z in blk) for blk in blocks),
                        tuple(origin[z] for z in cut_vertices),
                        tuple(origin[z] for z in endpoints))
            got = _chain_or_message(g, a, b, vertex_mask(exclude))
            assert got == want, (g.rotation, exclude, a, b)
            outcomes.add(got if isinstance(got, str) else "chain")
    assert outcomes == {"chain", "graph is not connected",
                        "an endpoint is a cut vertex", "block structure branches",
                        "pendant blocks off the a-b path"}


def test_bridges_k4_ham_path():
    g = k4()
    path = (0, 1, 2, 3)
    from hamforge.plane_graph import path_edges
    dec = bridges(g, path, path_edges(path))
    assert all(b.vertices == b.attachments and len(b.attachments) == 2
               for b in dec.bridges)
    assert len(dec.bridges) == 3


def test_bridges_cover_and_attach(triangulations_by_n):
    from hamforge.plane_graph import path_edges
    for g in triangulations_by_n(7):
        path = tuple(range(4))
        if not all(g.has_edge(a, b) for a, b in zip(path, path[1:])):
            continue
        dec = bridges(g, path, path_edges(path))
        covered = set(dec.h_edges)
        for b in dec.bridges:
            assert b.attachments <= set(path)
            assert not (covered & b.edges)
            covered |= b.edges
        assert covered == g.edge_set


def test_bridges_of_whole_graph_empty():
    g = octahedron()
    dec = bridges(g, range(6), g.edge_set)
    assert dec.bridges == ()


def test_bridges_octahedron_cycle_oracle():
    g = octahedron()
    from hamforge.ham_enum import enumerate_ham_cycles_raw
    cyc, _path = enumerate_ham_cycles_raw(g, cap=1)[0]
    dec = bridges(g, range(6), cyc)
    # oracle: all non-cycle edges are chords of the spanning cycle
    assert len(dec.bridges) == len(g.edge_set) - 6
    assert all(b.vertices == b.attachments for b in dec.bridges)


# -- canonical forms -----------------------------------------------------------

def test_canonical_code_is_isomorphism_invariant(triangulations_by_n):
    import random
    rng = random.Random(7)
    for g in triangulations_by_n(7):
        perm = list(range(g.n))
        rng.shuffle(perm)
        rot = [None] * g.n
        for v in range(g.n):
            rot[perm[v]] = tuple(perm[w] for w in g.rotation[v])
        h = build(rot)
        assert canonical_code(g) == canonical_code(h)
        assert is_isomorphic(g, h)


def test_canonical_code_separates_classes(triangulations_by_n):
    for n in (6, 7, 8):
        gs = triangulations_by_n(n)
        codes = {canonical_code(g) for g in gs}
        assert len(codes) == len(gs)
        for g1, g2 in itertools.combinations(gs, 2):
            assert not nx_isomorphic(g1, g2)


def test_canonical_code_matches_full_traversals(triangulations_by_n):
    """Cutting traversals short and trying only roots of minimum degree
    leaves every code as it was, rooted or not, on triangulations and on
    disconnected graphs: a triangulation minus the neighbors of vertex 0,
    which leaves vertex 0 isolated."""
    for n in range(4, 10):
        for g in triangulations_by_n(n):
            assert canonical_code(g) == full_traversal_canonical_code(g)
            f = g.faces[0]
            roots = [(f[i], f[i - 1]) for i in range(3)]
            assert (canonical_code(g, roots=roots)
                    == full_traversal_canonical_code(g, roots=roots))
            if g.n - g.degrees[0] < 3:
                continue
            sub, _origin = g.delete_vertices(set(g.rotation[0]))
            if sub.edge_set:
                assert canonical_code(sub) == full_traversal_canonical_code(sub)


def test_from_faces_roundtrip():
    g = icosahedron()
    rebuilt = plane_graph_from_faces(g.faces)
    assert is_isomorphic(g, rebuilt)


# -- outer faces ---------------------------------------------------------------

def _small_plane_graphs(triangulations_by_n):
    """Every triangulation with n <= 9 and each with vertex 0 deleted, plus
    cycles, wheels, a path and two disjoint edges."""
    for n in range(4, 10):
        for g in triangulations_by_n(n):
            yield g
            yield g.delete_vertices({0})[0]
    for k in range(3, 8):
        yield cycle_graph(k)
        yield wheel(k)
    yield build([(1,), (0, 2), (1,)])
    yield PlaneGraph([(1,), (0,), (3,), (2,)], require_connected=False)


def test_with_outer_face_matches_full_build(triangulations_by_n):
    for g in _small_plane_graphs(triangulations_by_n):
        outer = g.outer_face_index
        for i in range(len(g.faces)):
            fast = g.with_outer_face(i)
            full = PlaneGraph(g.rotation, i, require_connected=False)
            for table in LAZY:      # build them all, so their slots compare too
                getattr(fast, table), getattr(full, table)
            for name in PlaneGraph.__slots__:
                assert getattr(fast, name) == getattr(full, name), name
        assert g.outer_face_index == outer
        for bad in (-1, len(g.faces)):
            with pytest.raises(ValueError):
                g.with_outer_face(bad)


def test_face_index_matches_face_scan(triangulations_by_n):
    for g in _small_plane_graphs(triangulations_by_n):
        queries = [f[r:] + f[:r] for f in g.faces for r in range(len(f))]
        queries += [tuple(reversed(q)) for q in queries]
        queries += [c.vertices for k in (3, 4) for c in enumerate_cycles(g, k)]
        queries += [(0,), (0, g.n)]
        for q in queries:
            assert g.face_index(q) == scan_face_index(g, q), q


def test_face_lookup_errors():
    o = octahedron()                          # rim 0..3, apexes 4, 5
    for bad in ((0, 1, 2, 3), (0, 2, 4), (0,)):
        with pytest.raises(ValueError):
            o.rooted_at_face(bad)
    with pytest.raises(NotACycle):
        NearTriangulation(o, Cycle((0, 1, 2, 3)))


# -- tables built on first read --------------------------------------------------

def _built(g):
    """The tables g holds, read without building any."""
    return {name for name in LAZY
            if getattr(g, "_built_" + name.lstrip("_")) is not None}


def _assert_tables(g, want):
    assert g.faces == want["faces"]
    assert g.nbr_masks == want["nbr_masks"]
    for name in LAZY:
        table = getattr(g, name)
        assert table == want[name], name
        if isinstance(table, dict):             # same insertion order too
            assert list(table.items()) == list(want[name].items()), name
        else:
            assert list(table) == list(want[name]), name


def _check_neighbour_queries(g):
    """Every neighbour query of g gives the answer read off its rotation."""
    want = neighbour_answers(g)
    n = g.n
    assert g.degrees == want["degrees"]
    assert [mask_bits(m) for m in g.nbr_masks] == want["neighbours"]
    assert [[g.has_edge(u, v) for v in range(n)] for u in range(n)] == want["has_edge"]
    common = [[g.common_neighbors(u, v) for v in range(n)] for u in range(n)]
    assert common == want["common"]
    assert all(type(c) is frozenset for row in common for c in row)
    assert g.triangles() == want["triangles"]


def _check_lazy_tables(g):
    """g is fresh: it holds no table until one is read; copies taken before
    and after each first read share what g had built then, and every table
    of g and its copies is the eager one.  Its neighbour queries match the
    rotation's answers."""
    _check_neighbour_queries(g)
    want = eager_tables(g)
    assert _built(g) == set()
    last = len(g.faces) - 1 if g.faces else 0
    copies = [g.with_outer_face(last)]
    for k, name in enumerate(LAZY):
        getattr(g, name)
        done = set(LAZY[:k + 1])
        assert _built(g) == done
        copy = g.with_outer_face(last)
        assert _built(copy) == done
        assert all(getattr(copy, t) is getattr(g, t) for t in done)
        copies.append(copy)
    assert _built(copies[0]) == set()
    for h in [g] + copies:
        _assert_tables(h, want)


def test_lazy_tables_match_eager_formulas(triangulations_by_n):
    """Every graph of the full levels n <= 9, rebuilt fresh, and its
    subgraphs without one vertex and without one vertex's neighbors (which
    leaves that vertex isolated, so the subgraph is disconnected, or alone)."""
    disconnected = alone = 0
    for n in range(4, 10):
        for g in triangulations_by_n(n):
            _check_lazy_tables(PlaneGraph(g.rotation))
            for v in range(g.n):
                for drop in ({v}, set(g.rotation[v])):
                    sub, _origin = g.delete_vertices(drop)
                    disconnected += not sub.connected
                    alone += sub.n == 1
                    _check_lazy_tables(sub)
    assert disconnected > 0 and alone > 0


def test_one_vertex_graph():
    """A lone vertex bounds one face, which no directed edge traces."""
    g = PlaneGraph(((),), 0)
    assert g.connected and not g.is_triangulation
    assert (g.faces, g.nbr_masks, g.triangles()) == ((), (0,), [])
    assert canonical_code(g) == (0,)
    sub, keep = k4().delete_vertices({1, 2, 3})
    assert (sub, keep) == (g, [0])
    assert build([()]) == g
    with pytest.raises(NonPlanarTrace):
        PlaneGraph(())


def test_lazy_tables_on_small_graphs():
    for g in (build([(1,), (0, 2), (1,)]),
              PlaneGraph([(1,), (0,), (3,), (2,)], require_connected=False),
              cycle_graph(5), wheel(6)):
        _check_lazy_tables(PlaneGraph(g.rotation, require_connected=False))


def test_graph_size_reads_no_table():
    g = PlaneGraph(icosahedron().rotation)
    h = PlaneGraph(tuple(reversed(r)) for r in g.rotation)
    assert repr(g) == "<triangulation n=12 m=30>"
    assert is_isomorphic(g, h)
    assert _built(g) == _built(h) == set()
