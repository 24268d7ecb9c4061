"""The suites the acceptance criteria do not run, pinned to their golden
digests at their defaults, and the digest tied to the benchmark's."""

import json

import pytest

from hamforge import corpus, verification
from hamforge.verification import SUITE_RUNNERS

from .golden import assert_golden, report_digest, suite_key
from .oracles import split_dedupe_levels
from .test_perfbench_names import _load


@pytest.mark.parametrize("suite", ["euler", "connectivity", "lemma-diamond4",
                                   "lemma-4edges", "theorem2"])
def test_default_reports_match_golden(suite):
    assert_golden(suite_key(suite), SUITE_RUNNERS[suite]())


@pytest.mark.slow
@pytest.mark.parametrize("n_max", [13, 14])
def test_conjecture_scan_through_14_matches_golden(n_max):
    """The conjecture scan over every 4-connected triangulation (OEIS
    A007021) through n = 13 (443 graphs) and n = 14 (1,800), pinned row for
    row."""
    rows = SUITE_RUNNERS["conjecture"](n_max=n_max)
    assert_golden(suite_key("conjecture", n_max=n_max), rows)


def test_digest_is_the_benchmarks():
    """``run_pass`` on the tiny census workload digests its rows as
    ``report_digest`` does."""
    worker, workloads = _load("worker"), _load("workloads")
    record, rows, errors = worker.run_pass(workloads.WORKLOADS["census"](1, True))
    assert rows and not errors
    assert record["digest"] == report_digest(SUITE_RUNNERS["conjecture"](n_max=8))


def _sorted_rows(suite, labeled, **kwargs):
    out = []
    for row in SUITE_RUNNERS[suite](**kwargs):
        record = row.to_json()
        del record["seconds"]
        for key in labeled:
            del record["payload"][key]
        out.append(json.dumps(record, sort_keys=True))
    return sorted(out)


@pytest.mark.parametrize("suite, labeled", [
    ("tutte", ()),
    ("lemma-uwpath", ("outer",)),
    ("lemma-uvpath", ("outer",)),
])
def test_canonical_labels_move_only_row_order_and_outer(suite, labeled, monkeypatch):
    """The suites whose digests changed when the exhaustive levels took
    canonical labels give the same rows on the first-met representatives of
    generate-then-dedupe, up to row order and the labels in ``outer``."""
    mine = _sorted_rows(suite, labeled, n_max=8)
    levels = split_dedupe_levels(9)
    monkeypatch.setattr(corpus, "_triangulation_level", lambda n: tuple(levels[n]))
    monkeypatch.setattr(verification, "_square_region_level",
                        corpus._square_region_level.__wrapped__)
    assert mine and _sorted_rows(suite, labeled, n_max=8) == mine
