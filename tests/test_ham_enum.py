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
)
from hamforge.errors import SearchTimeout
from hamforge.ham_enum import (
    HamFamily,
    count_ham_cycles,
    count_ham_paths,
    enumerate_ham_cycles,
    enumerate_ham_cycles_raw,
    first_ham_cycle,
    ham_paths_without,
    is_ham_cycle,
    search_budget,
)
from hamforge.plane_graph import build, edge_key

from .oracles import (
    naive_count_ham_cycles,
    naive_count_ham_paths,
    permutation_count_ham_cycles,
    region_paths_loop,
)


def test_k4_has_three_cycles():
    assert count_ham_cycles(k4()) == 3


@pytest.mark.parametrize("n", range(6, 11))
def test_double_wheel_formula(n):
    assert count_ham_cycles(double_wheel(n)) == 2 * (n - 2) * (n - 4)


def test_counts_match_permutation_oracle(triangulations_by_n):
    for n in range(4, 8):
        for g in triangulations_by_n(n):
            assert count_ham_cycles(g) == permutation_count_ham_cycles(g)


def test_icosahedron_count_pinned():
    # frozen from the unpruned-DFS oracle before the engine existed
    assert count_ham_cycles(icosahedron()) == 1280


@pytest.mark.slow
def test_icosahedron_count_oracle():
    assert naive_count_ham_cycles(icosahedron()) == 1280


def test_constrained_counts_partition():
    o = octahedron()
    e = sorted(o.edge_set)[0]
    through = count_ham_cycles(o, required_edges=[e])
    avoiding = count_ham_cycles(o, forbidden_edges=[e])
    assert through + avoiding == 16


def test_constrained_counts_match_oracle(triangulations_by_n):
    for g in triangulations_by_n(6):
        for e in sorted(g.edge_set)[:4]:
            assert (count_ham_cycles(g, required_edges=[e])
                    == naive_count_ham_cycles(g, required=[e]))
            assert (count_ham_cycles(g, forbidden_edges=[e])
                    == naive_count_ham_cycles(g, forbidden=[e]))


def test_edge_transitivity_sanity():
    for g in (octahedron(), double_wheel(8)):
        total = count_ham_cycles(g)
        assert sum(count_ham_cycles(g, required_edges=[e])
                   for e in g.edge_set) == total * g.n


def test_disjoint_constraint_sets_rejected():
    o = octahedron()
    e = sorted(o.edge_set)[0]
    with pytest.raises(ValueError):
        count_ham_cycles(o, required_edges=[e], forbidden_edges=[e])


# -- paths ------------------------------------------------------------------------

def test_path_graph_single_path():
    g = build([(1,), (0, 2), (1,)])
    assert count_ham_paths(g, 0, 2) == 1


def test_c4_adjacent_single_path():
    g = cycle_graph(4)
    assert count_ham_paths(g, 0, 1) == 1


def test_octahedron_paths_match_oracle():
    o = octahedron()
    for a, b in ((0, 2), (0, 1), (0, 4)):
        assert count_ham_paths(o, a, b) == naive_count_ham_paths(o, a, b)


@given(st.integers(min_value=6, max_value=9), st.integers(min_value=0, max_value=30))
@settings(max_examples=15, deadline=None)
def test_random_counts_match_naive(n, seed):
    g = random_triangulation(n, seed)
    assert count_ham_cycles(g) == naive_count_ham_cycles(g)


# -- enumeration and families --------------------------------------------------------

def test_enumerate_k4_cap():
    fam = enumerate_ham_cycles(k4(), cap=10)
    assert len(fam) == 3


def test_enumerate_cap_respected():
    fam = enumerate_ham_cycles(double_wheel(6), cap=5)
    assert len(fam) == 5
    full = count_ham_cycles(double_wheel(6))
    assert all(is_ham_cycle(double_wheel(6), c) for c in fam.cycles)
    assert full == 16


def test_enumerate_rejects_zero_cap():
    with pytest.raises(ValueError):
        enumerate_ham_cycles(k4(), cap=0)


def test_count_equals_enumeration(triangulations_by_n):
    for g in triangulations_by_n(7):
        raw = enumerate_ham_cycles_raw(g)
        assert len(raw) == count_ham_cycles(g)
        assert len({frozenset(e) for e, _p in raw}) == len(raw)


def test_first_cycle_deterministic():
    a = first_ham_cycle(double_wheel(9))
    b = first_ham_cycle(double_wheel(9))
    assert a == b and is_ham_cycle(double_wheel(9), a)


def test_budget_timeout():
    with pytest.raises(SearchTimeout):
        count_ham_cycles(icosahedron(), budget=50)


def test_family_rejects_non_cycles():
    fam = HamFamily(octahedron())
    with pytest.raises(ValueError):
        fam.add([(0, 1), (1, 2)], "broken")


def test_family_dedupes():
    g = k4()
    fam = HamFamily(g)
    cyc = first_ham_cycle(g)
    assert fam.add(cyc, "a")
    assert not fam.add(cyc, "b")
    assert len(fam) == 1


def test_ham_paths_without_matches_region_loop():
    """The shared region-path enumerator equals the inline delete-relabel-
    enumerate-lift loop, order included, for every ordered outer pair of
    every square region with n <= 9 (None exactly when disconnected)."""
    from hamforge.verification import square_boundary_regions

    disconnected = paths = 0
    for nt in square_boundary_regions(9):
        cvs = nt.outer_cycle.vertices
        for a, b in itertools.permutations(cvs, 2):
            drop = set(cvs) - {a, b}
            got = ham_paths_without(nt.graph, drop, a, b)
            assert got == region_paths_loop(nt.graph, drop, a, b), (nt, a, b)
            assert ham_paths_without(nt.graph, drop, a, b, cap=1) == \
                region_paths_loop(nt.graph, drop, a, b, cap=1)
            disconnected += got is None
            paths += len(got or ())
    assert disconnected and paths


def test_search_budget_takes_only_positive_integers(monkeypatch):
    monkeypatch.delenv("HAMFORGE_BUDGET", raising=False)
    assert search_budget() == 10 ** 9
    assert search_budget(7) == 7
    for bad in (0, -3):
        with pytest.raises(ValueError, match="positive integer"):
            search_budget(bad)
    monkeypatch.setenv("HAMFORGE_BUDGET", "500")
    assert search_budget() == 500
    for bad in ("abc", "0", "-3", "1e6"):
        monkeypatch.setenv("HAMFORGE_BUDGET", bad)
        with pytest.raises(ValueError, match="HAMFORGE_BUDGET"):
            search_budget()
