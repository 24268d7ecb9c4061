import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hamforge.corpus import (
    cycle_graph,
    double_wheel,
    icosahedron,
    k4,
    octahedron,
    random_triangulation,
    wheel,
)
from hamforge.errors import (
    DisconnectedGraph,
    DisconnectedInterior,
    EmptyInterior,
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
    block_chain,
    bridges,
    build,
    canonical_code,
    closure,
    contract_edge,
    contract_interior,
    interior_of,
    is_isomorphic,
    is_k_connected,
    plane_graph_from_faces,
    vertex_connectivity_flow,
)

from hamforge.structures import enumerate_cycles

from .oracles import nx_connectivity, nx_isomorphic, scan_face_index


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
    cl = closure(o, eq)
    assert cl.graph.n == 5            # one apex inside
    assert cl.is_near_triangulation
    assert len(interior_of(o, eq)) == 1


def _cycles4(g):
    from hamforge.structures import enumerate_cycles
    return enumerate_cycles(g, 4)


def _separates(g, c):
    from hamforge.structures import separating_cycles
    return c.canonical() in {s.canonical() for s in separating_cycles(g, 4)}


def test_closure_facial_triangle_is_itself():
    o = octahedron()
    face = next(f for i, f in enumerate(o.faces) if i != o.outer_face_index)
    cl = closure(o, Cycle(face))
    assert cl.graph.n == 3
    assert interior_of(o, Cycle(face)) == []


def test_closure_double_wheel_arc():
    # apex, rim_i, apex', rim_j with two rim vertices between them
    g = double_wheel(8)                      # rim 0..5, apexes 6, 7
    c = Cycle((6, 0, 7, 3))
    cl = closure(g, c)
    assert cl.graph.n == 6
    assert cl.is_near_triangulation
    inside = set(interior_of(g, c))
    assert inside in ({1, 2}, {4, 5})


def test_closure_orientation_mirror():
    g = double_wheel(8).mirror()
    c = Cycle((6, 0, 7, 3))
    cl = closure(g, c)
    assert cl.graph.n == 6


def test_closure_rejects_non_cycle():
    # rim vertices 0 and 2 are not adjacent in the octahedron
    with pytest.raises(NotACycle):
        closure(octahedron(), Cycle((0, 2, 4)))


def test_contract_interior_double_wheel_shrinks():
    g = double_wheel(10)                     # rim 0..7, apexes 8, 9
    c = Cycle((8, 1, 9, 4))                  # rim 2,3 on one side
    inside = set(interior_of(g, c))
    if inside != {2, 3}:
        c = Cycle((8, 4, 9, 1))
        inside = set(interior_of(g, c))
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
    inside = set(interior_of(o, c))
    if inside != {2, 3}:
        o = o.rooted_at_face(next(f for f in o.faces if set(f) <= {0, 1, 4, 5}))
        inside = set(interior_of(o, c))
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


def test_bridges_k4_ham_path():
    g = k4()
    path = (0, 1, 2, 3)
    from hamforge.plane_graph import path_edges
    dec = bridges(g, path, path_edges(path))
    assert all(b.is_chord and len(b.attachments) == 2 for b in dec.bridges)
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
    assert all(b.is_chord for b in dec.bridges)


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
