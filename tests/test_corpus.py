import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hamforge import corpus
from hamforge.corpus import (
    CorpusFilter,
    _contraction_separates,
    _four_connected_level,
    _ranked_edges,
    _split_codes,
    _split_rotation,
    _triangulation_level,
    _vertex_splits,
    _winning_splits,
    double_wheel,
    enumerate_triangulations,
    flip_edge,
    flippable_edges,
    graph_to_planar_code,
    icosahedron,
    k4,
    octahedron,
    random_triangulation,
    read_planar_code,
    split_vertex,
    wheel,
    write_planar_code,
)
from hamforge.errors import (
    BadHeader,
    BudgetExceeded,
    FilterUnsatisfiableTimeout,
    TooSmall,
    TruncatedRecord,
    ValidationFailed,
)
from hamforge.plane_graph import (
    build,
    canonical_code,
    contract_edge,
    is_isomorphic,
    is_k_connected,
    triangulation_from_code,
    vertex_connectivity_flow,
)
from hamforge.structures import has_separating_triangle

from .oracles import (
    all_splits,
    contraction_rank,
    filtered_level_codes,
    flip_bfs_triangulations,
    mirror,
    nx_isomorphic,
    split_codes_built,
    split_dedupe_levels,
    split_edge_wins_built,
    traversal_relabel,
)

# published enumeration of planar triangulations up to isomorphism (OEIS
# A000109), cross-checked below against the independent flip-BFS generator
KNOWN_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249}
# 4-connected triangulations on n = 6..11 vertices
FOUR_CONNECTED_COUNTS = {6: 1, 7: 1, 8: 2, 9: 4, 10: 10, 11: 25}


def test_double_wheel_is_octahedron_at_6():
    assert is_isomorphic(double_wheel(6), octahedron())


def test_double_wheel_degrees():
    g = double_wheel(8)
    assert sorted(g.degrees) == [4] * 6 + [6, 6]
    assert is_k_connected(g, 4)


def test_double_wheel_too_small():
    with pytest.raises(TooSmall):
        double_wheel(5)


# -- planar_code ---------------------------------------------------------------

def test_planar_code_roundtrip_k4():
    buf = io.BytesIO()
    write_planar_code([k4()], buf)
    buf.seek(0)
    graphs = list(read_planar_code(buf))
    assert len(graphs) == 1
    assert graphs[0].n == 4 and graphs[0].is_triangulation


def test_planar_code_roundtrip_corpus_bit_exact(triangulations_by_n):
    graphs = triangulations_by_n(7)
    buf = io.BytesIO()
    write_planar_code(graphs, buf)
    payload = buf.getvalue()
    decoded = list(read_planar_code(io.BytesIO(payload)))
    assert [g.rotation for g in decoded] == [g.rotation for g in graphs]
    buf2 = io.BytesIO()
    write_planar_code(decoded, buf2)
    assert buf2.getvalue() == payload


def test_planar_code_header_only():
    assert list(read_planar_code(io.BytesIO(b">>planar_code<<"))) == []


def test_planar_code_bad_header():
    with pytest.raises(BadHeader):
        list(read_planar_code(io.BytesIO(b">>planer_code<<" + b"\x04")))


def test_planar_code_truncated():
    payload = graph_to_planar_code(octahedron())[:-3]
    with pytest.raises(TruncatedRecord):
        list(read_planar_code(io.BytesIO(payload)))


def test_planar_code_validation_failure_carries_index():
    good = graph_to_planar_code(k4())
    bad = bytes([4, 2, 3, 0, 1, 3, 0, 1, 2, 0, 1, 2, 0])  # asymmetric garbage
    with pytest.raises(ValidationFailed) as err:
        list(read_planar_code(io.BytesIO(good + bad)))
    assert err.value.index == 1


def test_planar_code_no_header_stream():
    payload = graph_to_planar_code(k4())[len(b">>planar_code<<"):]
    graphs = list(read_planar_code(io.BytesIO(payload)))
    assert len(graphs) == 1 and graphs[0].n == 4


# -- exhaustive generation -------------------------------------------------------

def test_enumerate_counts_match_published(triangulations_by_n):
    for n, want in KNOWN_COUNTS.items():
        assert len(triangulations_by_n(n)) == want


def test_enumerate_matches_flip_bfs_oracle(triangulations_by_n):
    """Dual route: vertex-splitting generator vs diagonal-flip search."""
    for n in range(4, 9):
        mine = triangulations_by_n(n)
        other = flip_bfs_triangulations(n)
        assert len(mine) == len(other)
        assert ({canonical_code(g) for g in mine}
                == {canonical_code(g) for g in other})


def test_enumerate_k4_only_at_4(triangulations_by_n):
    (g,) = triangulations_by_n(4)
    assert is_isomorphic(g, k4())


def test_enumerate_four_connected_n6_is_octahedron():
    flt = CorpusFilter(min_connectivity=4)
    got = list(enumerate_triangulations(6, flt))
    assert len(got) == 1 and is_isomorphic(got[0], octahedron())


def test_enumerate_four_connected_counts(triangulations_by_n):
    flt = CorpusFilter(min_connectivity=4)
    for n, want in FOUR_CONNECTED_COUNTS.items():
        assert sum(flt.matches(g) for g in triangulations_by_n(n)) == want


def _whole(graphs):
    return [(g.rotation, g.faces, g.outer_face_index) for g in graphs]


def test_four_connected_level_matches_filtered_corpus(triangulations_by_n):
    """The 4-connected level is the full level filtered, graph for graph."""
    flt = CorpusFilter(min_connectivity=4)
    for n, want in FOUR_CONNECTED_COUNTS.items():
        mine = _four_connected_level(n)
        assert _whole(mine) == _whole(g for g in triangulations_by_n(n)
                                      if flt.matches(g))
        assert len(mine) == want


def test_four_connected_level_passes_flow_connectivity():
    for n in FOUR_CONNECTED_COUNTS:
        for g in _four_connected_level(n):
            assert g.is_triangulation and vertex_connectivity_flow(g) >= 4


@pytest.mark.parametrize("flt", [
    CorpusFilter(min_connectivity=4, min_degree=5),
], ids=["4conn_mindeg5"])
def test_routed_filter_matches_filtering_full_level(flt, triangulations_by_n):
    for n in range(4, 12):
        routed = _whole(enumerate_triangulations(n, flt))
        assert routed == _whole(g for g in triangulations_by_n(n)
                                if flt.matches(g))


@pytest.mark.parametrize("k", [2, 5])
def test_filter_takes_only_connectivity_3_or_4(k):
    with pytest.raises(ValueError):
        CorpusFilter(min_connectivity=k)


@pytest.mark.slow
@pytest.mark.parametrize("n, want", [(12, 87), (13, 313)])
def test_four_connected_level_matches_filtered_corpus_large(n, want):
    mine = [canonical_code(g) for g in _four_connected_level(n)]
    assert len(mine) == want
    assert mine == filtered_level_codes(n, CorpusFilter(min_connectivity=4))


@pytest.mark.slow
def test_four_connected_level_12_is_the_filtered_full_level():
    flt = CorpusFilter(min_connectivity=4)
    full = _triangulation_level.__wrapped__(12)
    assert _whole(_four_connected_level(12)) == _whole(g for g in full
                                                       if flt.matches(g))


def test_enumerate_count_n12_matches_published():
    # uncached: held, the 7,595 graphs would add about 70 MB to the run
    assert len(_triangulation_level.__wrapped__(12)) == 7595


def test_levels_through_12_fit_in_memory():
    """A fresh process holding every full level n <= 12 (9,150 graphs)
    peaks at 70 MB at most: graphs keep no table they were not asked for.

    Linux carries a parent's peak RSS into a child's ``ru_maxrss`` across
    exec, so the measured process is started by a bare interpreter, not by
    the test process."""
    code = ("import resource\n"
            "from hamforge.corpus import _triangulation_level\n"
            "held = [_triangulation_level(n) for n in range(4, 13)]\n"
            "print(sum(map(len, held)), "
            "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    launch = ("import subprocess, sys\n"
              "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)\n")
    src = str(Path(corpus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", launch, code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert int(out[0]) == 9150
    assert int(out[1]) <= 70 * 1024           # ru_maxrss is in KiB on Linux


def _cyclic_start_at_min(seq):
    k = seq.index(min(seq))
    return seq[k:] + seq[:k]


def test_split_rotation_matches_split_vertex(triangulations_by_n):
    """The rotation edit gives split_vertex's embedding, up to where each
    cyclic order starts, and so the same canonical code."""
    for n in range(4, 10):
        for parent in triangulations_by_n(n):
            for v, i, j in all_splits(parent):
                edited = _split_rotation(parent, v, i, j)
                child = split_vertex(parent, v, i, j)
                g = build(edited.rotation)
                assert g.is_triangulation
                assert ([_cyclic_start_at_min(r) for r in g.rotation]
                        == [_cyclic_start_at_min(r) for r in child.rotation])
                assert canonical_code(edited) == canonical_code(child)


def _assert_same_as_split_dedupe(n_max):
    """The same classes in the same order as generate-then-dedupe, each
    numbered as the oracle's representative is by its minimum traversal."""
    levels = split_dedupe_levels(n_max)
    for n in range(4, n_max + 1):
        mine = _triangulation_level(n)
        want = levels[n]
        assert ([canonical_code(g) for g in mine]
                == [canonical_code(g) for g in want])
        relabeled = [traversal_relabel(g) for g in want]
        assert [g.rotation for g in mine] == [g.rotation for g in relabeled]
        assert [g.faces for g in mine] == [g.faces for g in relabeled]
        assert ([g.outer_face_index for g in mine]
                == [g.outer_face_index for g in relabeled])


def test_generator_matches_split_dedupe_oracle():
    _assert_same_as_split_dedupe(10)


@pytest.mark.slow
def test_four_connected_level_14_matches_published():
    """``corpus.MAX_N`` is 14, and the 4-connected level there has the
    1,357 graphs of OEIS A007021."""
    assert corpus.MAX_N == 14
    level = list(enumerate_triangulations(14, CorpusFilter(min_connectivity=4)))
    assert len(level) == 1357


@pytest.mark.slow
def test_generator_matches_split_dedupe_oracle_n11():
    _assert_same_as_split_dedupe(11)


def test_representatives_are_their_own_canonical_relabel(triangulations_by_n):
    """Relabeling a representative by its canonical traversal, from the code
    or from a full traversal, gives the same graph back."""
    for n in range(4, 10):
        for g in triangulations_by_n(n):
            assert triangulation_from_code(canonical_code(g)).rotation == g.rotation
            assert traversal_relabel(g).rotation == g.rotation


def _edge_keys(g, k=3):
    return {(x, y): key for key, _ends, _common, _dab, x, y, _sep in _ranked_edges(g, k)}


def test_contraction_rank_is_mirror_invariant(triangulations_by_n):
    """The rank keys of the parent table are the same on the mirror, and
    order the edges as the rank tuples do."""
    pairs = set()
    for n in range(5, 10):
        for g in triangulations_by_n(n):
            keys = _edge_keys(g)
            assert keys == _edge_keys(mirror(g))
            for x, y in g.edge_set:
                rank = contraction_rank(g, x, y)
                assert (rank is None) == ((x, y) not in keys)
                if rank is not None:
                    pairs.add((rank, keys[(x, y)]))
    by_rank = sorted(pairs)
    assert all(a[1] < b[1] for a, b in zip(by_rank, by_rank[1:]))


def _winners(parent, v, k):
    return set(_winning_splits(parent, _ranked_edges(parent, k), v, k))


def _built_ranks(child):
    """The rank of every edge of a built graph whose ends have two common
    neighbors, from its common neighbors and degrees."""
    ranks = {}
    for x, y in child.edge_set:
        common = child.common_neighbors(x, y)
        if len(common) == 2:
            dx, dy = child.degrees[x], child.degrees[y]
            ranks[(x, y)] = (dx + dy, -abs(dx - dy),
                             sum(child.degrees[w] for w in common))
    return ranks


def test_split_acceptance_is_the_top_ranked_contractible_edge(triangulations_by_n):
    """A child is kept exactly when its split edge (v, new) ranks highest
    among the edges whose ends have two common neighbors, found here on the
    built child."""
    kept = 0
    for n in range(4, 9):
        for parent in triangulations_by_n(n):
            for v, i, j in all_splits(parent):
                child = split_vertex(parent, v, i, j)
                ranks = _built_ranks(child)
                want = ranks[(v, child.n - 1)] == max(ranks.values())
                got = (i, j) in _winners(parent, v, 3)
                assert got == want
                kept += got
    assert kept == 12 + 6 + 16 + 34 + 104


def test_contraction_separates_matches_contracting():
    """An edge of a 4-connected triangulation is 4-contractible exactly when
    contracting it leaves no separating triangle."""
    edges = 0
    for n in range(6, 12):
        for g in _four_connected_level(n):
            for x, y in g.edge_set:
                contracted, _merged, _origin = contract_edge(g, x, y)
                want = has_separating_triangle(contracted)
                assert _contraction_separates(g.nbr_masks, x, y) == want
                assert _contraction_separates(g.nbr_masks, y, x) == want
                edges += 1
    assert edges == 12 + 1050


def test_four_connected_acceptance_is_the_top_ranked_4_contractible_edge():
    """A split of a 4-connected parent that leaves both ends of degree >= 4
    is kept exactly when its split edge ranks highest among the child's
    edges whose contraction leaves no separating triangle, found here by
    contracting every edge of the built child."""
    kept = {}
    for n in range(6, 11):
        for parent in _four_connected_level(n):
            assert list(all_splits(parent, 4)) == [
                (v, i, j) for v, i, j in all_splits(parent)
                if 2 <= j - i <= parent.degrees[v] - 2]
            for v, i, j in all_splits(parent, 4):
                child = split_vertex(parent, v, i, j)
                ranks = _built_ranks(child)
                split = (v, child.n - 1)
                want = not any(
                    rank > ranks[split] and not has_separating_triangle(
                        contract_edge(child, x, y)[0])
                    for (x, y), rank in ranks.items())
                assert not has_separating_triangle(contract_edge(child, *split)[0])
                got = (i, j) in _winners(parent, v, 4)
                assert got == want
                kept[n + 1] = kept.get(n + 1, 0) + got
    assert kept == {7: 12, 8: 15, 9: 32, 10: 54, 11: 106}


def _parent_levels(k, n_max):
    """The levels whose splits give the children on up to n_max vertices."""
    if k == 3:
        return [_triangulation_level(n) for n in range(4, n_max)]
    return [_four_connected_level(n) for n in range(6, n_max)]


@pytest.mark.parametrize("k", [3, 4])
def test_split_decisions_match_built_child_oracle(k):
    """Deciding a split from its parent gives the built child's answer on
    every split of every parent with n <= 10, so no split is wrongly
    rejected, even one whose class another split reaches."""
    splits = kept = 0
    for level in _parent_levels(k, 11):
        for parent in level:
            ranked = _ranked_edges(parent, k)
            for v in range(parent.n):
                got = list(_winning_splits(parent, ranked, v, k))
                want = [(i, j) for i, j in _vertex_splits(parent.degrees[v], k)
                        if split_edge_wins_built(parent, v, i, j, k)]
                assert got == want, v
                splits += sum(1 for _s in _vertex_splits(parent.degrees[v], k))
                kept += len(got)
    assert (splits, kept) == ((29_444, 2_158) if k == 3 else (719, 219))


def _assert_split_codes_match_built(k, n):
    parents = (_triangulation_level if k == 3 else _four_connected_level)(n - 1)
    assert _split_codes(parents, k) == split_codes_built(parents, k)


@pytest.mark.parametrize("k, n", [(3, n) for n in range(5, 12)]
                         + [(4, n) for n in range(7, 12)])
def test_split_codes_match_built_child_oracle(k, n):
    _assert_split_codes_match_built(k, n)


@pytest.mark.slow
@pytest.mark.parametrize("k", [3, 4])
def test_split_codes_match_built_child_oracle_n12(k):
    _assert_split_codes_match_built(k, 12)


@pytest.mark.parametrize("k, kept, tested", [(3, 2_158, 6_709), (4, 219, 305)])
def test_split_work_counts(monkeypatch, k, kept, tested):
    """A child rotation is built once per kept child, and the parent-side
    rule rejects every split but ``tested`` without reading the child:
    22,735 of the 27,286 losing splits of the full levels n <= 11, and 414
    of the 500 of the 4-connected levels."""
    levels = _parent_levels(k, 11)
    counts = {"rotation": 0, "child": 0}

    def counted(name, fn):
        def spy(*args):
            counts[name] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(corpus, "_split_rotation",
                        counted("rotation", corpus._split_rotation))
    monkeypatch.setattr(corpus, "_child_split_wins",
                        counted("child", corpus._child_split_wins))
    splits = 0
    for parents in levels:
        splits += sum(1 for p in parents for _s in all_splits(p, k))
        _split_codes(parents, k)
    assert (splits, counts["rotation"], counts["child"]) == (
        (29_444 if k == 3 else 719), kept, tested)


def test_four_connected_filter_matches_exhaustive_cut_search(triangulations_by_n):
    """The separating-triangle test agrees with the vertex-cut search."""
    flt = CorpusFilter(min_connectivity=4)
    for n in range(4, 12):
        for g in triangulations_by_n(n):
            assert flt.matches(g) == (g.min_degree() >= 3 and is_k_connected(g, 4))


def test_four_connected_filter_cut_search_off_triangulations(monkeypatch):
    calls = []

    def spy(g, k):
        calls.append(g)
        return is_k_connected(g, k)

    monkeypatch.setattr(corpus, "is_k_connected", spy)
    flt = CorpusFilter(min_connectivity=4)
    w = wheel(6)
    assert not w.is_triangulation
    assert not flt.matches(w)
    assert calls == [w]
    assert flt.matches(octahedron())
    assert calls == [w]


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_triangulations(15))


def test_flip_preserves_triangulation():
    g = double_wheel(8)
    for e in flippable_edges(g)[:5]:
        h = flip_edge(g, *e)
        assert h.is_triangulation and h.n == g.n


# -- random generation ------------------------------------------------------------

def test_random_triangulation_deterministic():
    a = random_triangulation(10, seed=1)
    b = random_triangulation(10, seed=1)
    assert a.rotation == b.rotation


def test_random_triangulation_filter_contract():
    flt = CorpusFilter(min_connectivity=4)
    g = random_triangulation(10, seed=1, flt=flt)
    assert is_k_connected(g, 4)


def test_random_triangulation_impossible_filter():
    # average degree below 6 forbids min degree 6 (Euler)
    flt = CorpusFilter(min_degree=6)
    with pytest.raises(FilterUnsatisfiableTimeout):
        random_triangulation(8, seed=0, flt=flt)


def test_planar_code_four_connected_ten_vertex_file(tmp_path, triangulations_by_n):
    """The n=10 4-connected corpus round-trips through a planar_code file
    and its size matches the independently cross-checked enumeration."""
    flt = CorpusFilter(min_connectivity=4)
    graphs = [g for g in triangulations_by_n(10) if is_k_connected(g, 4)]
    path = tmp_path / "fourconn10.pc"
    with open(path, "wb") as fh:
        write_planar_code(graphs, fh)
    with open(path, "rb") as fh:
        decoded = list(read_planar_code(fh))
    # 1, 1, 2, 4, 10 for n = 6..10: derived by three agreeing routes
    assert len(decoded) == len(graphs) == 10
    assert all(g.is_triangulation for g in decoded)
