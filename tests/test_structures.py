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
from hamforge.plane_graph import (
    Cycle,
    _connected_after_removal,
    is_k_connected,
    plane_graph_from_faces,
    vertex_mask,
)
from hamforge.structures import (
    DIAMOND4_EDGES,
    DIAMOND6_EDGES,
    DiamondCert,
    enumerate_cycles,
    find_diamonds,
    has_separating_triangle,
    is_four_connected_triangulation,
    link_region_has_separating_triangle,
    max_common_neighborhood_pair,
    saturates,
    separating_cycles,
)

from hamforge.verification import link_region, square_boundary_regions

from .oracles import adjacency_sets, match_pattern


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
            assert not _connected_after_removal(g, vertex_mask(c.vertices))


def _link_pairs(triangulations_by_n, n_max):
    return [(g, v) for n in range(5, n_max + 1) for g in triangulations_by_n(n)
            for v in range(g.n) if g.degrees[v] == 4]


def _check_link_regions(pairs):
    """Both count rules of every link region against the exhaustive search;
    the answers seen."""
    answers = set()
    for g, v in pairs:
        region = link_region(g, v).graph
        want = bool(separating_cycles(region, 3))
        assert has_separating_triangle(region) == want, (g.rotation, v)
        assert link_region_has_separating_triangle(g, v, g.triangles()) == want, \
            (g.rotation, v)
        answers.add(want)
    return answers


def test_has_separating_triangle_matches_separating_cycles(triangulations_by_n):
    # K4 - e rooted at its 4-face: the square-region count, n = 4
    k4_minus_e = plane_graph_from_faces([(0, 1, 2), (0, 2, 3), (0, 3, 2, 1)],
                                        outer=(0, 1, 2, 3))
    # outer 5-cycle abcde around y with the chord ac: the facial triangle
    # (a, c, y) cuts b off although 3-cycles and inner faces are equal in
    # number, so the count is not used off 4-cycles
    pentagon = plane_graph_from_faces(
        [(0, 1, 2), (0, 2, 5), (2, 3, 5), (3, 4, 5), (4, 0, 5), (0, 4, 3, 2, 1)],
        outer=(0, 1, 2, 3, 4))
    assert len(pentagon.triangles()) == len(pentagon.faces) - 1
    assert not has_separating_triangle(k4_minus_e)
    assert has_separating_triangle(pentagon)

    graphs = [g for n in range(4, 12) for g in triangulations_by_n(n)]
    graphs += [nt.graph for nt in square_boundary_regions(10)]
    graphs += [f(k) for k in range(3, 9) for f in (cycle_graph, wheel)]
    graphs += [k4_minus_e, pentagon]
    answers = set()
    for g in graphs:
        got = has_separating_triangle(g)
        assert got == bool(separating_cycles(g, 3))
        answers.add(got)
    assert answers == {True, False}

    # every degree-4 link region with n <= 11, not only one per class
    pairs = _link_pairs(triangulations_by_n, 11)
    assert len(pairs) == 4139
    assert _check_link_regions(pairs) == {True, False}


@pytest.mark.slow
def test_link_region_count_rules_through_n12(triangulations_by_n):
    pairs = _link_pairs(triangulations_by_n, 12)
    assert len(pairs) == 25716
    assert _check_link_regions(pairs) == {True, False}


def test_four_connected_have_no_separating_triangles(triangulations_by_n):
    for n in range(5, 9):
        for g in triangulations_by_n(n):
            if is_k_connected(g, 4):
                assert not separating_cycles(g, 3)


def test_four_connected_rule_matches_cut_search(triangulations_by_n):
    """The separating-triangle rule agrees with the exhaustive vertex-cut
    search on every triangulation with n <= 10, K4 included."""
    for n in range(4, 11):
        for g in triangulations_by_n(n):
            assert is_four_connected_triangulation(g) == is_k_connected(g, 4)


def test_four_connected_rule_matches_cut_search_on_replay_graphs(monkeypatch):
    """... and on every graph the replay suites ask it about at their
    defaults: double wheels, their edge contractions and square graphs."""
    from hamforge import indset, replay
    from hamforge.verification import SUITE_RUNNERS

    asked = []

    def spy(g):
        asked.append(g)
        return is_four_connected_triangulation(g)

    for module in (indset, replay):
        monkeypatch.setattr(module, "is_four_connected_triangulation", spy)
    for suite in ("lemma-2edge", "theorem1"):
        assert all(r.ok for r in SUITE_RUNNERS[suite]())
    assert len({g.n for g in asked}) > 1
    for g in asked:
        assert is_four_connected_triangulation(g) == is_k_connected(g, 4)


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
        # w may be adjacent to the center too: extra host edges are allowed
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
        adj = adjacency_sets(g)
        for a, b in itertools.combinations(range(g.n), 2):
            if b not in adj[a]:
                best = max(best, len(adj[a] & adj[b]))
        assert (p.size() if p else 0) == best


def test_separating_5cycles_match_subset_oracle():
    import itertools as it
    for g in (double_wheel(8), double_wheel(9)):
        got = {c.canonical() for c in separating_cycles(g, 5)}
        want = set()
        for sub in it.combinations(range(g.n), 5):
            if _connected_after_removal(g, vertex_mask(sub)):
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
