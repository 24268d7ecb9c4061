import gc
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from hamforge.corpus import (
    CorpusFilter,
    cycle_graph,
    double_wheel,
    enumerate_triangulations,
    icosahedron,
    k4,
    octahedron,
    random_triangulation,
)
from hamforge.errors import SearchTimeout
from hamforge.ham_enum import (
    HamFamily,
    _prepare,
    _Search,
    count_ham_cycles,
    count_ham_paths,
    enumerate_ham_cycles_raw,
    enumerate_ham_paths,
    first_ham_cycle,
    is_ham_cycle,
    search_budget,
)
from hamforge.plane_graph import (
    PlaneGraph,
    build,
    cycle_edges,
    edge_key,
    path_edges,
    vertex_mask,
)

from .oracles import (
    ReferenceSearch,
    eager_tables,
    naive_count_ham_cycles,
    naive_count_ham_paths,
    permutation_count_ham_cycles,
    reference_is_ham_cycle,
    reference_prepare,
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
    avoiding = count_ham_cycles(o.delete_edges([e]))
    assert through + avoiding == 16


def test_constrained_counts_match_oracle(triangulations_by_n):
    for g in triangulations_by_n(6):
        for e in sorted(g.edge_set)[:4]:
            assert (count_ham_cycles(g, required_edges=[e])
                    == naive_count_ham_cycles(g, required=[e]))
            assert (count_ham_cycles(g.delete_edges([e]))
                    == naive_count_ham_cycles(g, forbidden=[e]))


def test_edge_transitivity_sanity():
    for g in (octahedron(), double_wheel(8)):
        total = count_ham_cycles(g)
        assert sum(count_ham_cycles(g, required_edges=[e])
                   for e in g.edge_set) == total * g.n


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
    assert len(enumerate_ham_cycles_raw(k4(), cap=10)) == 3


def test_enumerate_cap_respected():
    found = enumerate_ham_cycles_raw(double_wheel(6), cap=5)
    assert len(found) == 5
    full = count_ham_cycles(double_wheel(6))
    assert all(is_ham_cycle(double_wheel(6), c) for c, _p in found)
    assert full == 16


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


def _cycle_variants(g, cyc):
    """Edge lists around the Hamiltonian cycle ``cyc`` of g that a check
    must get right: the cycle, reversed edges, an edge
    in both orientations, and each edge swapped for a loop, a negative or
    out-of-range id, a non-edge, a chord at one end, or nothing."""
    edges = sorted(cyc)
    n = g.n
    yield edges
    yield [(v, u) for u, v in edges]
    yield edges + [edges[0][::-1]]
    yield edges + [(0, 0)]
    for i, (u, v) in enumerate(edges):
        rest = edges[:i] + edges[i + 1:]
        yield rest                                   # an open Hamiltonian path
        yield rest + [(u, u)]
        yield rest + [(u, v - n)]                    # negative: v's mask by wrap-around
        yield rest + [(v - n, u)]
        yield rest + [(u, n)]
        yield rest + [(n, u)]
        for w in range(n):
            if w not in (u, v):
                # a chord at u (one vertex of degree 3) or a non-edge
                yield rest + [(u, w)]


def test_is_ham_cycle_matches_reference(triangulations_by_n):
    """The mask check gives the edge-set reference's answer on every
    Hamiltonian cycle of every triangulation with n <= 7, each with the
    variants of ``_cycle_variants``; on two disjoint triangles; and on the
    empty set."""
    checked = {True: 0, False: 0}
    for n in range(4, 8):
        for g in triangulations_by_n(n):
            for cyc, _p in enumerate_ham_cycles_raw(g):
                for edges in _cycle_variants(g, cyc):
                    got = is_ham_cycle(g, edges)
                    assert got == reference_is_ham_cycle(g, edges), edges
                    checked[got] += 1
    assert checked == {True: 396, False: 9527}    # 132 cycles
    g = octahedron()
    two = [e for f in ((4, 3, 0), (5, 2, 1)) for e in cycle_edges(f)]
    assert {f for f in g.faces} >= {(4, 3, 0), (5, 2, 1)}
    for edges in (two, [], [(0, 1)]):
        assert not is_ham_cycle(g, edges)
        assert not reference_is_ham_cycle(g, edges)


def _excluding_cases(triangulations_by_n):
    """(graph, drop, a, b): every ordered outer pair of every square region
    with n <= 9 minus the other two outer vertices, and every corpus graph
    with n <= 8 minus each vertex pair, between every pair of the rest."""
    from hamforge.verification import square_boundary_regions

    for nt in square_boundary_regions(9):
        cvs = nt.outer_cycle.vertices
        for a, b in itertools.permutations(cvs, 2):
            yield nt.graph, set(cvs) - {a, b}, a, b
    for n in range(4, 9):
        for g in triangulations_by_n(n):
            for drop in itertools.combinations(range(g.n), 2):
                rest = [v for v in range(g.n) if v not in drop]
                for a, b in itertools.combinations(rest, 2):
                    yield g, set(drop), a, b


def test_excluding_search_matches_region_loop(triangulations_by_n):
    """Searching g with ``exclude`` equals the delete-relabel-enumerate-lift
    loop, order included, with and without a cap; a disconnected remainder
    (None from the loop) has no paths."""
    disconnected = paths = 0
    for g, drop, a, b in _excluding_cases(triangulations_by_n):
        want = region_paths_loop(g, drop, a, b)
        got = enumerate_ham_paths(g, a, b, exclude=vertex_mask(drop))
        assert got == (want or []), (g, drop, a, b)
        assert count_ham_paths(g, a, b, exclude=vertex_mask(drop)) == len(got)
        assert enumerate_ham_paths(g, a, b, cap=1, exclude=vertex_mask(drop)) == \
            (region_paths_loop(g, drop, a, b, cap=1) or [])
        disconnected += want is None
        paths += len(got)
    assert disconnected and paths


def _least_budget(search):
    """The smallest node budget under which ``search(budget)`` completes."""
    lo, hi = 1, 1
    while True:
        try:
            search(hi)
            break
        except SearchTimeout:
            lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            search(mid)
            hi = mid
        except SearchTimeout:
            lo = mid + 1
    return hi


def test_excluding_search_takes_the_loops_node_count():
    """The in-place enumeration needs exactly the budget the relabeled
    search needs: the same nodes, not just the same paths.  The count
    expands each search state once, so that budget is enough for it, and
    at budget 1 it still times out, having completed no path."""
    from hamforge.verification import square_boundary_regions

    checked = 0
    for nt in list(square_boundary_regions(9))[::40]:
        cvs = nt.outer_cycle.vertices
        a, b = cvs[0], cvs[2]
        drop = set(cvs) - {a, b}
        need = _least_budget(
            lambda budget: region_paths_loop(nt.graph, drop, a, b,
                                             budget=budget))
        if need == 1:
            continue
        gone = vertex_mask(drop)
        enumerate_ham_paths(nt.graph, a, b, exclude=gone, budget=need)
        with pytest.raises(SearchTimeout):
            enumerate_ham_paths(nt.graph, a, b, exclude=gone, budget=need - 1)
        count_ham_paths(nt.graph, a, b, exclude=gone, budget=need)
        with pytest.raises(SearchTimeout) as timeout:
            count_ham_paths(nt.graph, a, b, exclude=gone, budget=1)
        assert timeout.value.partial == 0
        checked += 1
    assert checked >= 5


def test_count_timeout_partial_counts_the_completed_paths(triangulations_by_n):
    """A count that runs out of budget reports in ``partial`` the paths
    completed by the search states it finished: for cycles, half the
    directed cycles, rounded up.  So it is 0 at budget 1, grows with the
    budget and never exceeds the count.  On K4 the states 0, 0-1, 0-1-2
    and 0-1-2-3 come first: budget 3 has completed nothing and budget 4
    the directed cycle 0-1-2-3, which rounds up to one cycle."""
    partials = []
    for budget in (1, 3, 4):
        with pytest.raises(SearchTimeout) as timeout:
            count_ham_cycles(k4(), budget=budget)
        partials.append(timeout.value.partial)
    assert partials == [0, 0, 1]
    checked = 0
    for g in triangulations_by_n(7)[::3]:
        for search in (lambda budget: count_ham_cycles(g, budget=budget),
                       lambda budget: count_ham_paths(g, 0, 1, budget=budget),
                       lambda budget: count_ham_paths(g, 2, 5, exclude=1 << 0,
                                                      budget=budget)):
            count, need = search(None), _least_budget(search)
            partials = []
            for budget in range(1, need):
                with pytest.raises(SearchTimeout) as timeout:
                    search(budget)
                partials.append(timeout.value.partial)
            assert partials[0] == 0 and partials == sorted(partials)
            assert partials[-1] <= count
            checked += partials[-1] > 0
    assert checked


def test_excluded_endpoint_rejected():
    """An excluded endpoint is rejected, and so is a mask with a bit at or
    above n, or a negative one (it holds every id above n), naming the
    first vertex it holds that g lacks."""
    o = octahedron()
    with pytest.raises(ValueError, match="endpoint 2 is excluded"):
        enumerate_ham_paths(o, 0, 2, exclude=1 << 2 | 1 << 3)
    with pytest.raises(ValueError, match="endpoint 0 is excluded"):
        count_ham_paths(o, 0, 2, exclude=1 << 0)
    for gone, z in ((1 << 9, 9), (1 << 3 | 1 << 7 | 1 << 9, 7), (-1 << 2, 6)):
        for search in (enumerate_ham_paths, count_ham_paths):
            with pytest.raises(ValueError, match=f"vertex {z} not in graph"):
                search(o, 0, 1, exclude=gone)


def test_path_endpoints_out_of_range_rejected():
    """An endpoint outside 0..n-1 is a ValueError naming it, at either
    end, before the excluded mask is read."""
    g = double_wheel(8)
    for bad in (-1, g.n):
        for search in (enumerate_ham_paths, count_ham_paths):
            for a, b in ((bad, 3), (3, bad)):
                with pytest.raises(ValueError,
                                   match=f"path endpoint {bad} not in graph"):
                    search(g, a, b)
                with pytest.raises(ValueError,
                                   match=f"path endpoint {bad} not in graph"):
                    search(g, a, b, exclude=1 << 5)


def test_required_edge_with_excluded_end_rejected():
    o = octahedron()
    e = sorted(o.edge_set)[-1]
    a, b = [z for z in range(o.n) if z not in e][:2]
    message = re.escape(f"required edge {e} has an excluded end")
    for search in (enumerate_ham_paths, count_ham_paths):
        with pytest.raises(ValueError, match=message):
            search(o, a, b, required_edges=[e], exclude=1 << e[1])


def test_required_edges_checked_without_an_edge_table(monkeypatch):
    """Required edges are looked up in the neighbour masks with a range
    check, so a search builds no edge table and still rejects a non-edge,
    an out-of-range id and an excluded end."""
    from hamforge import plane_graph

    built = []
    real = plane_graph._edge_set
    monkeypatch.setattr(plane_graph, "_edge_set",
                        lambda g: built.append(g) or real(g))
    o = octahedron()                           # rim 0..3, apexes 4, 5
    assert not o.has_edge(0, 2)
    for bad in [(0, 2), (0, 6), (6, 0), (-1, 0), (0, -1), (1, 1)]:
        message = re.escape(f"required edge {edge_key(*bad)} not in graph")
        for search in (enumerate_ham_paths, count_ham_paths):
            with pytest.raises(ValueError, match=message):
                search(o, 0, 4, required_edges=[bad])
        with pytest.raises(ValueError, match=message):
            count_ham_cycles(o, required_edges=[bad])
    with pytest.raises(ValueError, match=re.escape(
            "required edge (1, 5) has an excluded end")):
        count_ham_paths(o, 0, 4, required_edges=[(1, 5)], exclude=1 << 5)
    assert built == []


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


# -- the enumerator and the counter against the backtracker they replaced ----

def _search_outcome(search, ends):
    """Return value, (budget, partial) of a timeout and nodes of
    ``search``."""
    try:
        value = search.run_cycles() if ends is None else search.run_paths(*ends)
        timeout = None
    except SearchTimeout as exc:
        value, timeout = None, (exc.budget, exc.partial)
    return value, timeout, search.nodes


def _random_constraints(rng, g, edges):
    """Seeded endpoints (None for a cycle), excluded vertices and required
    edges for one search of g."""
    ends, exclude = None, frozenset()
    if rng.random() < 0.5:
        ends = tuple(rng.sample(range(g.n), 2))
        rest = [v for v in range(g.n) if v not in ends]
        exclude = frozenset(rng.sample(rest, rng.choice((0, 0, 1, 2))))
    required = [e for e in rng.sample(edges, rng.choice((0, 0, 1, 2, 3)))
                if exclude.isdisjoint(e)]
    return ends, exclude, required


def _assert_same_searches(graphs, seed, per_graph=16):
    """Seeded random cycle and path searches (required edges, excluded
    vertices, caps) give the same value, emitted sequence, nodes and
    timeout under both engines: once with the default budget and once
    with a budget drawn below the nodes it took."""
    rng = random.Random(seed)
    searches = timeouts = partial = 0
    for g in graphs:
        edges = sorted(g.edge_set)
        for _ in range(per_graph):
            ends, exclude, required = _random_constraints(rng, g, edges)
            cap = rng.choice((None, None, 1, 2, rng.randint(0, 5)))
            want_prep = reference_prepare(g, required, exclude)
            prep = _prepare(g, required, vertex_mask(exclude))
            assert (prep is None) == (want_prep is None)
            if prep is None:
                continue
            budget = 10 ** 9
            for _round in range(2):
                want_found, found = [], []
                want = _search_outcome(
                    ReferenceSearch(g, *want_prep, budget,
                                    lambda e, p: want_found.append((e, p)),
                                    cap, len(exclude)),
                    ends)
                got = _search_outcome(
                    _Search(*prep, g.n - len(exclude), budget, found.append,
                            cap),
                    ends)
                # the enumerator emits vertex tuples, the reference edge sets too
                walk_edges = path_edges if ends else cycle_edges
                assert all(e == walk_edges(p) for e, p in want_found)
                assert (got, found) == (want, [p for _e, p in want_found]), \
                    (g, ends, required, exclude, cap, budget)
                searches += 1
                timeouts += want[1] is not None
                partial += bool(want[1] and want[1][1])
                if not want[2]:
                    break
                budget = rng.randint(1, want[2])
    assert searches and timeouts and partial


def test_neighbour_masks_built_once_per_graph(triangulations_by_n):
    """A graph's neighbour masks are built with it, and repeated searches,
    required edges and excluded vertices leave them as they were (the same
    object); the searches give the reference engine's results."""
    graphs = [PlaneGraph(g.rotation) for n in range(5, 9) for g in triangulations_by_n(n)]
    masks = [g.nbr_masks for g in graphs]
    _assert_same_searches(graphs, seed=15)
    for g in graphs:
        e = min(g.edge_set)
        rounds = [(count_ham_cycles(g), count_ham_cycles(g, required_edges=[e]),
                   count_ham_paths(g, 0, 1, exclude=1 << 2),
                   enumerate_ham_paths(g, 0, 2, required_edges=[e]))
                  for _ in range(2)]
        assert rounds[0] == rounds[1]
        assert rounds[0][:2] == (naive_count_ham_cycles(g),
                                 naive_count_ham_cycles(g, required=[e]))
    assert all(g.nbr_masks is m for g, m in zip(graphs, masks))
    assert all(g.nbr_masks == eager_tables(g)["nbr_masks"] for g in graphs)


def test_kernel_matches_reference_search(triangulations_by_n):
    """The full levels n <= 9 and the 4-connected levels n <= 11."""
    four = CorpusFilter(min_connectivity=4)
    graphs = [g for n in range(4, 10) for g in triangulations_by_n(n)]
    graphs += [g for n in range(10, 12)
               for g in enumerate_triangulations(n, four)]
    _assert_same_searches(graphs, seed=14)


def _reference_count(g, ends, exclude, required):
    prep = reference_prepare(g, required, exclude)
    if prep is None:
        return 0
    search = ReferenceSearch(g, *prep, 10 ** 9, None, None, len(exclude))
    return search.run_cycles() if ends is None else search.run_paths(*ends)


def _start_constraints(g):
    """Required edges at the vertex a cycle count starts from: each edge
    there, each two consecutive ones, and paths from it that must use an
    edge there and one at their far end."""
    s = max(range(g.n), key=lambda v: (g.degrees[v], -v))
    ring = g.rotation[s]
    for i, x in enumerate(ring):
        y, z = ring[(i + 1) % len(ring)], ring[(i + 2) % len(ring)]
        yield None, frozenset(), [(s, x)]
        yield None, frozenset(), [(s, x), (s, y)]
        if z != x:
            yield (s, y), frozenset(), [(s, x), (y, z)]


def test_counts_match_reference_search(triangulations_by_n):
    """The memoised counts equal the backtracker's on every triangulation
    with n <= 9, over seeded random cycle and path draws with required
    edges and excluded vertices, and over required edges at the vertex a
    cycle count starts from."""
    rng = random.Random(25)
    draws = found = 0
    for n in range(4, 10):
        for g in triangulations_by_n(n):
            edges = sorted(g.edge_set)
            cases = [_random_constraints(rng, g, edges) for _ in range(12)]
            for ends, exclude, required in cases + list(_start_constraints(g)):
                want = _reference_count(g, ends, exclude, required)
                if ends is None:
                    got = count_ham_cycles(g, required_edges=required)
                else:
                    got = count_ham_paths(g, *ends, required_edges=required,
                                          exclude=vertex_mask(exclude))
                assert got == want, (g, ends, required, exclude)
                draws += 1
                found += want > 0
    assert draws == 2304 and found > draws // 2


def _backtracked_cycles(g):
    return _Search(*_prepare(g, ()), g.n, 10 ** 9, lambda _p: None).run_cycles()


@pytest.mark.parametrize("levels, size", [
    (range(6, 12), 43), pytest.param(range(12, 13), 87, marks=pytest.mark.slow)])
def test_cycle_counts_match_backtracker_four_connected(levels, size):
    four = CorpusFilter(min_connectivity=4)
    graphs = [g for n in levels for g in enumerate_triangulations(n, four)]
    assert len(graphs) == size
    for g in graphs:
        assert count_ham_cycles(g) == _backtracked_cycles(g), g


def test_cycle_counts_expand_each_state_once_from_a_vertex_of_largest_degree(
        monkeypatch):
    """A cycle count starts at a vertex of largest degree, lowest id among
    ties, and is charged one node per state it expands: the 25
    4-connected graphs with n = 11 take 27,619 nodes in all (the
    backtracker from vertex 0 takes 116,154)."""
    from hamforge import ham_enum

    starts = []
    real = ham_enum._count
    monkeypatch.setattr(ham_enum, "_count",
                        lambda *args: starts.append(args[4]) or real(*args))
    nodes = 0
    for g in enumerate_triangulations(11, CorpusFilter(min_connectivity=4)):
        starts.clear()
        nodes += _least_budget(lambda budget: count_ham_cycles(g, budget=budget))
        assert set(starts) == {max(range(g.n), key=lambda v: (g.degrees[v], -v))}
    assert nodes == 27619


@pytest.mark.slow
def test_kernel_matches_reference_search_n10(triangulations_by_n):
    _assert_same_searches(triangulations_by_n(10), seed=10)


def test_searches_leave_no_reference_cycles():
    """The recursive searches break their closures' self-references, so
    a call leaves nothing for the cycle collector, on success and on a
    timeout alike."""
    from hamforge.indset import four_color
    from hamforge.structures import enumerate_cycles
    from hamforge.tutte import _simple_paths_lex

    g = icosahedron()

    def timed_out():
        with pytest.raises(SearchTimeout):
            count_ham_paths(g, 0, 5, budget=20)

    calls = [
        lambda: enumerate_cycles(g, 4),
        lambda: four_color(g, range(g.n)),
        lambda: next(_simple_paths_lex(g, 0, 5)),
        lambda: count_ham_cycles(g),
        lambda: enumerate_ham_cycles_raw(g, cap=3),
        lambda: first_ham_cycle(g),
        lambda: count_ham_paths(g, 0, 5, exclude=1 << 1),
        lambda: enumerate_ham_paths(g, 0, 5, cap=2),
        timed_out,
    ]
    for call in calls:
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0, call
        finally:
            gc.enable()
