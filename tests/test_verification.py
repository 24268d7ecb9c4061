"""Every named suite runs clean at small scale; failures carry bundles."""

import base64
import io
import json

import pytest

from hamforge import corpus, verification
from hamforge.corpus import CorpusFilter, read_planar_code
from hamforge.structures import link_region_has_separating_triangle, separating_cycles
from hamforge.verification import SUITE_RUNNERS, SUITES, square_boundary_regions

from .oracles import square_regions_loop

SMALL = {
    "euler": {"n_max": 7},
    "connectivity": {"n_max": 7},
    "tutte": {"n_max": 7},
    "lemma-edgesetF": {"n_max": 8},
    "lemma-uwpath": {"n_max": 7},
    "lemma-uvpath": {"n_max": 7},
    "lemma-diamond4": {},
    "lemma-4edges": {"n_max": 8},
    "lemma-2edge": {"n_max": 8},
    "conjecture": {"n_max": 8},
    "theorem1": {"n_max": 8},
    "theorem2": {},
}


@pytest.mark.parametrize("suite", SUITES)
def test_suite_runs_clean(suite):
    reports = list(SUITE_RUNNERS[suite](**SMALL[suite]))
    assert reports
    assert all(r.ok for r in reports), [r.to_json() for r in reports if not r.ok]
    for r in reports:
        row = r.to_json()
        assert row["suite"] == suite and "seconds" in row


def test_failure_bundles_decode():
    from hamforge.corpus import octahedron
    from hamforge.verification import bundle_for
    bundle = bundle_for(octahedron(), note="x")
    payload = base64.b64decode(bundle["planar_code_base64"])
    (g,) = read_planar_code(io.BytesIO(payload))
    assert g.n == 6


def test_cli_operational_error_exit_two(capsys):
    from hamforge.cli import main
    code = main(["verify", "conjecture", "--n-max", "8", "--budget-nodes", "10"])
    assert code == 2
    assert "operational error" in capsys.readouterr().err


def test_per_item_budget_give_up_exits_two(capsys):
    """A budget give-up inside a per-triple loop is operational, not a
    counterexample row."""
    from hamforge.cli import main
    code = main(["verify", "lemma-4edges", "--n-max", "6", "--budget-nodes", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.fixture
def icosahedron_corpus(monkeypatch):
    from hamforge import verification
    from hamforge.corpus import icosahedron
    monkeypatch.setattr(verification, "corpus_triangulations",
                        lambda *a, **kw: iter([icosahedron()]))


def test_counterexample_error_is_a_failed_row_with_bundle(
        icosahedron_corpus, monkeypatch, capsys):
    from hamforge import verification
    from hamforge.cli import main
    from hamforge.errors import FourConnectivityLost

    def lost(g, cert):
        raise FourConnectivityLost([(0, 1)])

    monkeypatch.setattr(verification, "ham_family_from_edge_families", lost)
    code = main(["verify", "lemma-edgesetF"])
    families = json.loads(capsys.readouterr().out.splitlines()[0])
    assert code == 1
    assert families["operation"] == "families" and not families["ok"]
    assert families["payload"]["error"] == "FourConnectivityLost"
    payload = base64.b64decode(families["bundle"]["planar_code_base64"])
    (g,) = read_planar_code(io.BytesIO(payload))
    assert g.n == 12


def test_coloring_timeout_exits_two(icosahedron_corpus, monkeypatch, capsys):
    from hamforge import indset
    from hamforge.cli import main
    from hamforge.errors import ColoringTimeout

    def timeout(g, verts):
        raise ColoringTimeout("4-coloring exceeded its node budget")

    monkeypatch.setattr(indset, "four_color", timeout)
    assert main(["verify", "lemma-edgesetF"]) == 2
    assert "operational error" in capsys.readouterr().err


def test_tutte_row_fails_on_reversed_path(monkeypatch):
    """A certified path from y to x is not a path from x to y."""
    from dataclasses import replace

    from hamforge import verification

    real = verification.tutte_path

    def reversed_path(g, c, x, y, e):
        cert = real(g, c, x, y, e)
        return replace(cert, path=cert.path[::-1])

    monkeypatch.setattr(verification, "tutte_path", reversed_path)
    rows = list(verification.suite_tutte(n_max=5))
    assert rows and not any(r.ok for r in rows)


def test_theorem2_row_fails_on_a_corrupted_leaf(monkeypatch):
    """The row certifies the tree's leaves: a last leaf missing one edge
    fails ``tower_tree``, and only it."""
    from dataclasses import replace

    real = verification.theorem2_tree

    def corrupted(g, chain, budget=None):
        tree = real(g, chain, budget=budget)
        last = tree.leaves[-1]
        return replace(tree, leaves=tree.leaves[:-1] + [last ^ (last & -last)])

    monkeypatch.setattr(verification, "theorem2_tree", corrupted)
    rows = list(verification.suite_theorem2())
    assert [(r.operation, r.ok) for r in rows] == \
        [("tower_tree", False), ("worm_pockets", True)]


def test_lemma_4edges_tests_each_graph_for_separating_triangles_once(monkeypatch):
    """A row asks ``has_separating_triangle`` (one ``triangles()`` listing)
    once for its graph, not once per sampled triple: 18 graphs, 18 listings
    in the rows, and none in the 4-connected corpus listing, whose level
    keeps only graphs without one; the reports keep their golden digest."""
    from hamforge.plane_graph import PlaneGraph

    from .golden import assert_golden

    def listing():
        return list(verification.corpus_triangulations(
            10, n_min=6, flt=CorpusFilter(min_connectivity=4)))

    listing()  # builds the levels, with their own guard
    calls = []
    real = PlaneGraph.triangles

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(PlaneGraph, "triangles", spy)
    graphs = listing()
    assert len(graphs) == 18 and calls == []
    rows = list(verification.suite_lemma_4edges())
    assert len(rows) == len(calls) == 18
    assert_golden("lemma-4edges", rows)


@pytest.mark.parametrize("suite, saved", [("lemma-4edges", 18), ("conjecture", 43)])
def test_four_connected_level_skips_the_separating_triangle_filter(
        suite, saved, monkeypatch):
    """Of a 4-connectivity filter the 4-connected level applies only the
    degree bound: against the route that applied the whole filter to each
    of its graphs, a suite lists triangles ``saved`` fewer times (once per
    graph) and prints the same rows."""
    from hamforge.plane_graph import PlaneGraph

    _rows_without_seconds(suite)  # builds the levels
    calls = []
    real = PlaneGraph.triangles
    monkeypatch.setattr(PlaneGraph, "triangles",
                        lambda self: calls.append(self) or real(self))
    rows = _rows_without_seconds(suite)
    listed = len(calls)

    def whole_filter(n, flt=None):
        assert flt.min_connectivity == 4
        return [g for g in (corpus._four_connected_level(n) if n >= 6 else ())
                if flt.matches(g)]

    monkeypatch.setattr(verification, "enumerate_triangulations", whole_filter)
    assert _rows_without_seconds(suite) == rows
    assert len(calls) - 2 * listed == saved


@pytest.mark.parametrize("suite, rows", [("lemma-uwpath", 772),
                                         ("lemma-uvpath", 776)])
def test_two_path_suites_build_only_their_regions(suite, rows, monkeypatch):
    """A two-path suite builds its 97 regions and no other graph: no block,
    peel level or apex deletion is rebuilt, and no edge table is made."""
    from hamforge import plane_graph

    list(verification.dichotomy_regions(10))  # builds the corpus levels
    builds, tables = [], []
    real_init, real_table = plane_graph.PlaneGraph.__init__, plane_graph._edge_set

    def init(self, *args, **kwargs):
        builds.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(plane_graph.PlaneGraph, "__init__", init)
    monkeypatch.setattr(plane_graph, "_edge_set",
                        lambda g: tables.append(g) or real_table(g))
    assert len(list(SUITE_RUNNERS[suite]())) == rows
    assert len(builds) == 97 and tables == []


def test_tutte_suite_refuses_n_max_above_its_maximum():
    with pytest.raises(ValueError, match="n_max <= 10"):
        next(verification.suite_tutte(n_max=11))


def _rows_without_seconds(suite, **kwargs):
    rows = []
    for r in SUITE_RUNNERS[suite](**kwargs):
        row = r.to_json()
        del row["seconds"]
        rows.append(row)
    return rows


@pytest.mark.parametrize("suite, kwargs", [
    ("conjecture", {"n_max": 10}),
    ("lemma-4edges", {"n_max": 9}),
    ("lemma-edgesetF", {"n_max": 11, "min_degree": 4}),
])
def test_four_connected_level_keeps_reports(suite, kwargs, monkeypatch):
    """The 4-connected suites print the same rows from the 4-connected
    level as from the full level filtered."""
    routed = _rows_without_seconds(suite, **kwargs)
    flt = CorpusFilter(min_connectivity=4)
    monkeypatch.setattr(corpus, "_four_connected_level", lambda n: tuple(
        g for g in corpus._triangulation_level(n) if flt.matches(g)))
    assert routed and all(row["ok"] for row in routed)
    assert _rows_without_seconds(suite, **kwargs) == routed


def _region_fields(regions):
    return [(nt.graph.rotation, nt.graph.outer_face_index,
             nt.outer_cycle.vertices) for nt in regions]


def test_square_boundary_regions_match_region_loop():
    for n_max in range(4, 11):
        mine = _region_fields(square_boundary_regions(n_max))
        assert mine and mine == _region_fields(square_regions_loop(n_max))


def test_dichotomy_regions_are_the_loop_without_separating_triangles(monkeypatch):
    for n_max in range(4, 11):
        mine = _region_fields(verification.dichotomy_regions(n_max))
        assert mine == _region_fields(
            nt for nt in square_regions_loop(n_max)
            if not separating_cycles(nt.graph, 3))
    assert len(mine) == 97

    # the lemma suite builds only those regions
    built = []
    original = verification.link_region
    monkeypatch.setattr(verification, "link_region",
                        lambda g, v: built.append(v) or original(g, v))
    assert len(list(verification.suite_lemma_uwpath(n_max=10))) == 772
    assert len(built) == 97


def test_dichotomy_level_keys_no_region_with_a_separating_triangle(monkeypatch):
    keyed = []
    original = corpus._link_rooted_code
    monkeypatch.setattr(corpus, "_link_rooted_code",
                        lambda g, v: keyed.append((g, v)) or original(g, v))
    levels = [corpus._square_region_level.__wrapped__(n, separating=False)
              for n in range(5, 12)]
    assert sum(map(len, levels)) == 97
    assert keyed and not any(link_region_has_separating_triangle(g, v, g.triangles())
                             for g, v in keyed)


def test_corpus_levels_hold_no_region_tables(monkeypatch):
    """The two-path suites keep their ``RegionTables`` on the region graphs
    they cut, never on the corpus graphs those are cut from: the levels
    stay cached for the life of the process, so after both suites at their
    defaults every level graph's table slot is still None, while each of
    the 97 region graphs of each suite holds one."""
    regions = []
    original = verification.link_region

    def cut(g, v):
        nt = original(g, v)
        regions.append(nt.graph)
        return nt

    monkeypatch.setattr(verification, "link_region", cut)
    for suite in ("lemma-uwpath", "lemma-uvpath"):
        assert all(row.ok for row in SUITE_RUNNERS[suite]())
    assert len(regions) == 2 * 97
    assert all(g._region is not None for g in regions)
    levels = [g for n in range(4, 12) for g in corpus._triangulation_level(n)]
    levels += [g for n in range(6, 12) for g in corpus._four_connected_level(n)]
    assert len(levels) == 1555 + 43
    assert all(g._region is None for g in levels)
