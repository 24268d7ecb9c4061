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
from hamforge.errors import SNotIndependent
from hamforge.plane_graph import Cycle, _connected_after_removal, is_k_connected
from hamforge.structures import (
    DIAMOND4_EDGES,
    DIAMOND6_EDGES,
    DiamondCert,
    enumerate_cycles,
    find_diamonds,
    has_separating_triangle,
    max_common_neighborhood_pair,
    saturates,
    separating_cycles,
)

from hamforge.verification import square_boundary_regions

from .oracles import match_pattern


def test_separating_cycles_octahedron():
    o = octahedron()
    seps = separating_cycles(o, 4)
    assert len(seps) == 3                      # the equatorial squares
    assert not separating_cycles(o, 3)


def test_separating_cycles_double_wheel8():
    assert len(separating_cycles(double_wheel(8), 4)) == 9   # C(6,2) - 6


def test_separating_deletion_reverified():
    for g in (octahedron(), double_wheel(8), double_wheel(10)):
        for c in separating_cycles(g, 4):
            assert not _connected_after_removal(g, set(c.vertices))


def test_has_separating_triangle_matches_separating_cycles(triangulations_by_n):
    graphs = [g for n in range(4, 12) for g in triangulations_by_n(n)]
    graphs += [nt.graph for nt in square_boundary_regions(10)]
    graphs += [f(k) for k in range(3, 9) for f in (cycle_graph, wheel)]
    answers = set()
    for g in graphs:
        got = has_separating_triangle(g)
        assert got == bool(separating_cycles(g, 3))
        answers.add(got)
    assert answers == {True, False}


def test_four_connected_have_no_separating_triangles(triangulations_by_n):
    for n in range(5, 9):
        for g in triangulations_by_n(n):
            if is_k_connected(g, 4):
                assert not separating_cycles(g, 3)


def test_edge_common_neighbors_in_four_connected(triangulations_by_n):
    # every edge of a 4-connected triangulation has exactly two common
    # neighbors: triangulation plus no separating triangle
    for n in range(6, 9):
        for g in triangulations_by_n(n):
            if not is_k_connected(g, 4):
                continue
            for u, v in g.edge_set:
                assert len(g.common_neighbors(u, v)) == 2


# -- diamonds -----------------------------------------------------------------

def _oracle_diamonds(g, kind):
    edges = DIAMOND4_EDGES if kind == "diamond4" else DIAMOND6_EDGES
    roles = {r for e in edges for r in e}
    return match_pattern(g, edges, roles)


@pytest.mark.parametrize("maker", [octahedron, lambda: double_wheel(8),
                                   icosahedron, k4])
def test_find_diamonds_matches_naive_matcher(maker):
    g = maker()
    for kind in ("diamond4", "diamond6"):
        mine = {d.edges() for d in find_diamonds(g, kind)}
        assert mine == _oracle_diamonds(g, kind)


def test_find_diamonds_corpus(triangulations_by_n):
    for g in triangulations_by_n(7):
        mine = {d.edges() for d in find_diamonds(g, "diamond4")}
        assert mine == _oracle_diamonds(g, "diamond4")


def test_icosahedron_diamond_counts():
    # frozen from the naive matcher
    assert len(find_diamonds(icosahedron(), "diamond4")) == 0
    assert len(find_diamonds(icosahedron(), "diamond6")) == 20


def test_k4_has_no_diamond6():
    assert find_diamonds(k4(), "diamond6") == []


def test_diamond4_roles_are_consistent():
    for d in find_diamonds(double_wheel(8), "diamond4"):
        center = d.role("center")
        g = double_wheel(8)
        for r in ("y", "v", "x"):
            assert g.has_edge(center, d.role(r))
        assert d.role("w") not in g.adj[center] or True  # extra host edges allowed
        assert set(d.crucial) == {center, d.role("y")}


# -- saturation ------------------------------------------------------------------

def test_saturates_four_cycle():
    o = octahedron()
    c = separating_cycles(o, 4)[0]
    vs = c.vertices
    assert saturates(o, [vs[0], vs[2]], c)
    assert not saturates(o, [vs[0]], c)


def test_saturates_requires_independent():
    o = octahedron()
    c = separating_cycles(o, 4)[0]
    vs = c.vertices
    with pytest.raises(SNotIndependent):
        saturates(o, [vs[0], vs[1]], c)


def test_saturates_diamond6_needs_three_crucial():
    ico = icosahedron()
    d = find_diamonds(ico, "diamond6")[0]
    crucial = sorted(d.crucial)
    # pick three pairwise non-adjacent crucial vertices if they exist
    for trio in itertools.combinations(crucial, 3):
        if all(not ico.has_edge(a, b) for a, b in itertools.combinations(trio, 2)):
            assert saturates(ico, trio, d)
            assert not saturates(ico, trio[:2], d)   # two crucial are not enough
            break
    else:
        pytest.skip("no independent crucial trio in this diamond")


def test_saturates_five_cycle():
    g = double_wheel(8)
    c5 = enumerate_cycles(g, 5)[0]
    vs = c5.vertices
    pairs = [(a, b) for a, b in itertools.combinations(vs, 2)
             if not g.has_edge(a, b)]
    if pairs:
        assert saturates(g, list(pairs[0]), c5)


# -- common neighborhoods -----------------------------------------------------------

def test_max_common_pair_octahedron():
    p = max_common_neighborhood_pair(octahedron())
    assert p.size() == 4                     # an antipodal pair


def test_max_common_pair_double_wheel10():
    p = max_common_neighborhood_pair(double_wheel(10))
    assert {p.v, p.x} == {8, 9} and p.size() == 8


def test_max_common_pair_k4_sentinel():
    assert max_common_neighborhood_pair(k4()) is None


def test_max_common_pair_brute_force(triangulations_by_n):
    for g in triangulations_by_n(7):
        p = max_common_neighborhood_pair(g)
        best = 0
        for a, b in itertools.combinations(range(g.n), 2):
            if not g.has_edge(a, b):
                best = max(best, len(g.adj[a] & g.adj[b]))
        assert (p.size() if p else 0) == best


def test_separating_5cycles_match_subset_oracle():
    import itertools as it
    for g in (double_wheel(8), double_wheel(9)):
        got = {c.canonical() for c in separating_cycles(g, 5)}
        want = set()
        for sub in it.combinations(range(g.n), 5):
            if _connected_after_removal(g, set(sub)):
                continue
            # every 5-cycle on this subset
            for perm in it.permutations(sub[1:]):
                seq = (sub[0],) + perm
                if all(g.has_edge(seq[i], seq[(i + 1) % 5]) for i in range(5)):
                    want.add(Cycle(seq).canonical())
        assert got == want


def test_separating_cycles_rejects_bad_length():
    with pytest.raises(ValueError):
        separating_cycles(octahedron(), 6)
