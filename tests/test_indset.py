import itertools
from fractions import Fraction

import pytest

from hamforge.corpus import (
    CorpusFilter,
    double_wheel,
    enumerate_triangulations,
    icosahedron,
    octahedron,
)
from hamforge.errors import (
    HypothesisViolated,
    MinDegreeViolated,
    SNotIndependent,
)
from hamforge.ham_enum import count_ham_cycles, first_ham_cycle, is_ham_cycle
from hamforge.indset import (
    ALL_FLAGS,
    IndSetCert,
    C1,
    edge_families,
    family_count,
    filter_saturation,
    flag_holds,
    four_color,
    guaranteed_family_floor,
    ham_family_from_edge_families,
    low_degree_independent_set,
    special_set,
    special_set_mindeg5,
    verify_cert,
)
from hamforge.plane_graph import edge_key, is_k_connected
from hamforge.structures import PairCert

from .oracles import reference_special_set, reference_special_set_mindeg5


def test_thresholds_exact():
    assert C1 == Fraction(1, 108 * 16 * 541 * 301 * 2)


def test_four_color_is_proper():
    g = icosahedron()
    colors = four_color(g, range(g.n))
    assert set(colors) == set(range(g.n))
    for u, v in g.edge_set:
        assert colors[u] != colors[v]
    assert max(colors.values()) <= 3


def test_low_degree_set_octahedron():
    cert = low_degree_independent_set(octahedron())
    assert len(cert) == 2                    # an antipodal pair
    assert 12 * len(cert) >= 6


def test_low_degree_set_double_wheel14():
    cert = low_degree_independent_set(double_wheel(14))
    assert len(cert) == 6                    # alternating rim vertices
    assert all(v < 12 for v in cert.vertices)
    assert 12 * len(cert) >= 14


def test_low_degree_set_icosahedron():
    cert = low_degree_independent_set(icosahedron())
    assert len(cert) == 3                    # a maximum independent set
    assert cert.max_degree == 5


def test_filter_saturation_double_wheel14():
    g = double_wheel(14)
    cert = low_degree_independent_set(g)
    out = filter_saturation(g, cert, "4cycle")
    # any two rim vertices share a 4-cycle through the two apexes
    assert len(out) == 1


def test_filter_saturation_idempotent_and_monotone(triangulations_by_n):
    for g in triangulations_by_n(8):
        if not (g.is_triangulation and is_k_connected(g, 4)):
            continue
        cert = low_degree_independent_set(g)
        for kind in ("4cycle", "5cycle", "diamond6"):
            once = filter_saturation(g, cert, kind)
            assert set(once.vertices) <= set(cert.vertices)
            twice = filter_saturation(g, once, kind)
            assert twice.vertices == once.vertices


def test_filter_saturation_keeps_clean_sets():
    ico = icosahedron()
    cert = IndSetCert(vertices=(0, 11), max_degree=5)
    out = filter_saturation(ico, cert, "4cycle")
    assert out.vertices == (0, 11)           # antipodal pair shares no 4-cycle


def test_special_set_octahedron_vacuous():
    got = special_set(octahedron())
    assert isinstance(got, IndSetCert)
    assert got.vertices == ()
    assert set(got.flags) == set(ALL_FLAGS)
    verify_cert(octahedron(), got)


def test_special_set_icosahedron_nonempty():
    got = special_set(icosahedron())
    assert isinstance(got, IndSetCert)
    assert len(got) >= 1                     # no separating 4-cycles at all
    verify_cert(icosahedron(), got)


def test_special_set_pair_branch_with_low_threshold():
    got = special_set(double_wheel(10), t=4)
    assert isinstance(got, PairCert)
    assert got.size() == 8


def test_special_set_mindeg5_icosahedron():
    got = special_set_mindeg5(icosahedron(), 2)
    # every nonadjacent pair has exactly two common neighbors: branch (ii)
    assert isinstance(got, IndSetCert)
    verify_cert(icosahedron(), got)


def test_special_set_mindeg5_rejects_double_wheel():
    with pytest.raises(MinDegreeViolated):
        special_set_mindeg5(double_wheel(8), 2)


def test_verify_cert_rejects_false_flags():
    g = double_wheel(8)
    bogus = IndSetCert(vertices=(0, 2), max_degree=4,
                       flags=frozenset({"no_sat_4cycle"}))
    with pytest.raises(HypothesisViolated):
        verify_cert(g, bogus)


# -- edge families -----------------------------------------------------------------

def icosa_antipodal_cert():
    return IndSetCert(vertices=(0, 11), max_degree=5)


def test_edge_families_product_size():
    ico = icosahedron()
    cert = icosa_antipodal_cert()
    fams = list(edge_families(ico, cert))
    assert len(fams) == 25 == family_count(ico, cert)   # 5 * 5
    assert all(len(f.edges) == 2 for f in fams)


def test_edge_families_single_vertex():
    ico = icosahedron()
    cert = IndSetCert(vertices=(0,), max_degree=5)
    assert len(list(edge_families(ico, cert))) == 5


def test_edge_families_empty_set():
    ico = icosahedron()
    cert = IndSetCert(vertices=(), max_degree=0)
    fams = list(edge_families(ico, cert))
    assert len(fams) == 1 and fams[0].edges == frozenset()


def test_edge_families_hypothesis_violation():
    g = double_wheel(8)
    # rim vertices 0 and 2 saturate the 4-cycle through the apexes
    cert = IndSetCert(vertices=(0, 2), max_degree=4)
    with pytest.raises(HypothesisViolated) as err:
        list(edge_families(g, cert))
    assert err.value.which == "no_sat_4cycle"


def test_family_floor_formula():
    assert [guaranteed_family_floor(k) for k in range(5)] == [1, 2, 3, 4, 6]


def test_ham_family_icosahedron_antipodal():
    """The literal conclusion: G - F stays 4-connected and the deduped
    family beats ceil((3/2)^2) = 3."""
    ico = icosahedron()
    cert = icosa_antipodal_cert()
    fam = ham_family_from_edge_families(ico, cert)
    assert len(fam) >= 3
    assert all(is_ham_cycle(ico, c) for c in fam.cycles)


def test_ham_family_empty_set_single_cycle():
    ico = icosahedron()
    fam = ham_family_from_edge_families(ico, IndSetCert(vertices=(), max_degree=0))
    assert len(fam) == 1


def test_four_connectivity_preserved_for_all_families():
    ico = icosahedron()
    for cert in (icosa_antipodal_cert(), IndSetCert(vertices=(3,), max_degree=5)):
        for fam in edge_families(ico, cert):
            assert is_k_connected(ico.delete_edges(fam.edges), 4)


def test_multiplicity_bound():
    """Each produced cycle is selected by at most 3^a1 * 4^a2 families."""
    ico = icosahedron()
    cert = icosa_antipodal_cert()
    picks = {}
    for fam in edge_families(ico, cert):
        cyc = first_ham_cycle(ico.delete_edges(fam.edges))
        picks.setdefault(frozenset(cyc), 0)
        picks[frozenset(cyc)] += 1
    a1 = sum(1 for v in cert.vertices if ico.degrees[v] == 5)
    a2 = sum(1 for v in cert.vertices if ico.degrees[v] == 6)
    bound = 3 ** a1 * 4 ** a2
    assert max(picks.values()) <= bound


def test_family_floor_asserted_whenever_every_family_ran(monkeypatch):
    """The floor is checked when the loop covered every family, capped or
    not, and only then: one fixed cycle per family stays below ceil(1.5^2)."""
    from hamforge import indset
    from hamforge.errors import StructureViolation

    ico = icosahedron()
    cert = icosa_antipodal_cert()
    same = first_ham_cycle(ico)
    monkeypatch.setattr(indset, "first_ham_cycle", lambda g, **kw: same)
    for cap in (None, 25, 30):
        with pytest.raises(StructureViolation):
            ham_family_from_edge_families(ico, cert, cap=cap)
    fam = ham_family_from_edge_families(ico, cert, cap=24)
    assert len(fam) == 1 and fam.log[-1]["families"] == 24


def test_ham_family_through_required_edges():
    ico = icosahedron()
    cert = icosa_antipodal_cert()
    a, b, c = next(f for f in ico.faces if not set(f) & {0, 11})
    e, f = edge_key(a, b), edge_key(b, c)
    fam = ham_family_from_edge_families(ico, cert, required_edges=(e, f))
    assert len(fam) >= guaranteed_family_floor(2)
    assert all(e in cyc and f in cyc and is_ham_cycle(ico, cyc) for cyc in fam.cycles)
    assert fam.log == [{"branch": "edge_families", "set_size": 2, "families": 25,
                        "distinct": len(fam), "floor": 3}]


# -- one special-set pipeline, against the separate pipelines -------------------

def test_special_set_pipelines_match_separate_copies():
    """``to_json`` of every certificate is unchanged on each 4-connected
    corpus graph with n <= 11 and on the icosahedron."""
    four = CorpusFilter(min_connectivity=4)
    graphs = [g for n in range(6, 12) for g in enumerate_triangulations(n, four)]
    graphs.append(icosahedron())
    assert len(graphs) == 44
    compared = 0
    for g in graphs:
        runs = [(special_set, reference_special_set, (t,)) for t in (None, 4)]
        if g.min_degree() >= 5:
            runs += [(special_set_mindeg5, reference_special_set_mindeg5, (t,))
                     for t in (2, g.n)]
        for ours, theirs, args in runs:
            got, want = ours(g, *args), theirs(g, *args)
            if isinstance(want, IndSetCert):
                assert isinstance(got, IndSetCert) and got.to_json() == want.to_json()
                compared += 1
            else:
                assert got == want
    assert compared >= 44


def test_flag_holds_matches_cycle_scans(triangulations_by_n):
    """The pair-based 4- and 5-cycle flags agree with a scan of every cycle
    on every independent set of up to three vertices (4-connected, n <= 8)."""
    from hamforge.indset import FLAG_NO_SAT_4CYCLE, FLAG_NO_SAT_5CYCLE
    from hamforge.structures import enumerate_cycles

    for n in range(6, 9):
        for g in triangulations_by_n(n):
            if not is_k_connected(g, 4):
                continue
            cycles = {4: enumerate_cycles(g, 4), 5: enumerate_cycles(g, 5)}
            for size in (1, 2, 3):
                for s in itertools.combinations(range(g.n), size):
                    if any(g.has_edge(u, v) for u, v in itertools.combinations(s, 2)):
                        continue
                    for flag, length in ((FLAG_NO_SAT_4CYCLE, 4), (FLAG_NO_SAT_5CYCLE, 5)):
                        want = all(len(set(s) & set(c.vertices)) != 2
                                   for c in cycles[length])
                        assert flag_holds(g, s, flag) == want, (g, s, flag)


def test_one_cycle_scan_per_length_for_a_certificate_and_its_families(monkeypatch):
    """``special_set`` and the edge families of its certificate scan the 4-
    and 5-cycles of the graph once each: the saturation filters, the fresh
    verification and the family hypotheses share the pair sets."""
    from hamforge import indset

    scans = []
    original = indset.enumerate_cycles
    monkeypatch.setattr(indset, "enumerate_cycles",
                        lambda g, length: scans.append(length) or original(g, length))
    indset.sat_pairs.cache_clear()
    ico = icosahedron()
    cert = special_set(ico)
    assert isinstance(cert, IndSetCert) and len(cert)
    ham_family_from_edge_families(ico, cert)
    assert sorted(scans) == [4, 5]
