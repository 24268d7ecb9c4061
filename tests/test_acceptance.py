"""The acceptance suite: one test per criterion, exact tolerances, one
pass/fail line printed per criterion.

Criteria 2-7 are assertions over the verification suites, the same code
``hamforge verify`` runs; each pins its row counts, so a suite that
silently yields fewer rows fails, and the digest of its rows, so a report
that changes in any field but ``seconds`` fails.  Every check is an exact
integer comparison or an exhaustive structural verification.
"""

import random
import time
from collections import Counter

import pytest

from hamforge.corpus import CorpusFilter, double_wheel
from hamforge.ham_enum import count_ham_cycles
from hamforge.verification import (
    SUITE_RUNNERS,
    corpus_triangulations,
    triangle_edge_cycles,
)

from .golden import assert_golden, suite_key

pytestmark = pytest.mark.acceptance


def _line(idx, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {idx}] {status} {name}: {detail}")


def _suite_rows(suite, n_max):
    rows = list(SUITE_RUNNERS[suite](n_max=n_max))
    assert_golden(suite_key(suite, n_max=n_max), rows)
    return rows


def _check(idx, name, rows, want_rows, t0):
    """Print the criterion's line, then assert the row counts per suite and
    that every row passed."""
    counts = dict(Counter(r.suite for r in rows))
    failures = [r.to_json() for r in rows if not r.ok]
    ok = counts == want_rows and not failures
    _line(idx, name, ok, f"rows {counts}, failures {failures[:3]} "
          f"in {time.time() - t0:.1f}s")
    assert counts == want_rows
    assert not failures


def test_criterion_1_double_wheel_equality():
    """count(double_wheel(n)) = 2(n-2)(n-4) exactly for n = 6..13."""
    t0 = time.time()
    results = {}
    for n in range(6, 14):
        results[n] = count_ham_cycles(double_wheel(n))
    ok = all(results[n] == 2 * (n - 2) * (n - 4) for n in results)
    _line(1, "double-wheel equality", ok,
          f"counts {results} in {time.time() - t0:.1f}s")
    assert ok


def test_criterion_2_conjecture_scan():
    """Every 4-connected triangulation with n <= 11 has at least
    2(n-2)(n-4) Hamiltonian cycles, with equality only on double wheels."""
    t0 = time.time()
    rows = _suite_rows("conjecture", 11)
    _check(2, "conjecture scan", rows, {"conjecture": 43}, t0)


def test_criterion_3_edge_families():
    """For every corpus graph with n <= 12, min degree 5, and every valid
    certificate (the pipeline's and every maximum-size one among the
    vertices of degree <= 6): G - F is 4-connected for every family, and
    the deduped family size reaches ceil((3/2)^|S|)."""
    t0 = time.time()
    rows = _suite_rows("lemma-edgesetF", 12)
    _check(3, "edge-deletion families", rows, {"lemma-edgesetF": 2}, t0)
    families, certs = rows
    assert (families.operation, certs.operation) == ("families",
                                                     "max_certificates")
    assert certs.graph_id == families.graph_id
    assert (certs.payload["certificates"], certs.payload["families"]) == (7, 155)


def test_criterion_4_tutte_totality():
    """tutte_path succeeds and certifies on every valid (x, y, e) triple
    over the 2-connected corpus with n <= 10: zero SearchExhausted, and
    every path runs from x to y through e."""
    t0 = time.time()
    rows = _suite_rows("tutte", 10)
    _check(4, "tutte-path totality", rows, {"tutte": 921}, t0)
    assert sum(r.payload["triples"] for r in rows) == 103_089


def test_criterion_5_dichotomy_lemmas():
    """The branch returned by the two-path lemmas matches the exhaustive
    Hamiltonian-path count on every labeled region with n <= 10."""
    t0 = time.time()
    rows = _suite_rows("lemma-uwpath", 10) + _suite_rows("lemma-uvpath", 10)
    _check(5, "two-path dichotomy", rows,
           {"lemma-uwpath": 772, "lemma-uvpath": 776}, t0)


def test_criterion_6_triangle_edge_cycles():
    """Constrained Hamiltonian cycles through two edges of one triangle plus
    one edge each of two more, on 100 sampled triples per 4-connected
    corpus graph with n <= 10 (seed 1234 + n)."""
    t0 = time.time()
    flt = CorpusFilter(min_connectivity=4)
    rows = [triangle_edge_cycles(g, random.Random(1234 + g.n), None)
            for g in corpus_triangulations(10, n_min=6, flt=flt)]
    _check(6, "triangle-edge cycles", rows, {"lemma-4edges": 18}, t0)
    assert_golden("criterion 6", rows)
    assert all(r.payload["samples"] == 100 for r in rows)


def test_criterion_7_replay_soundness():
    """Replayed families on double wheels 8..12 contain only verified
    distinct cycles and never exceed the exact constrained count."""
    t0 = time.time()
    rows = _suite_rows("lemma-2edge", 12) + _suite_rows("theorem1", 12)
    _check(7, "replay soundness", rows, {"lemma-2edge": 10, "theorem1": 10}, t0)


def test_criterion_8_asymptotics_out_of_scope():
    """The quadratic and exponential lower bounds themselves are not
    reproducible at desk scale: the constant c1 = 1/(108*16*541*301*2)
    makes c1^2 n < 1 for every feasible n, so the numeric conclusions are
    vacuous here.  The constructive steps those proofs compose are covered
    by criteria 3-7; this placeholder records that the gap is deliberate."""
    from hamforge.indset import C1 as c1
    n_feasible = 14
    vacuous = float(c1 ** 2 * n_feasible ** 2) < 1
    _line(8, "asymptotics out of scope", vacuous,
          f"c1^2 n^2 = {float(c1 ** 2 * n_feasible ** 2):.3e} at n = {n_feasible}")
    assert vacuous
