"""The suites the acceptance criteria do not run, pinned to their golden
digests at their defaults, and the digest tied to the benchmark's."""

import pytest

from hamforge.verification import SUITE_RUNNERS

from .golden import assert_golden, report_digest, suite_key
from .test_perfbench_names import _load


@pytest.mark.parametrize("suite", ["euler", "connectivity", "lemma-diamond4",
                                   "lemma-4edges", "theorem2"])
def test_default_reports_match_golden(suite):
    assert_golden(suite_key(suite), SUITE_RUNNERS[suite]())


def test_digest_is_the_benchmarks():
    """``run_pass`` on the tiny census workload digests its rows as
    ``report_digest`` does."""
    worker, workloads = _load("worker"), _load("workloads")
    record, rows, errors = worker.run_pass(workloads.WORKLOADS["census"](1, True))
    assert rows and not errors
    assert record["digest"] == report_digest(SUITE_RUNNERS["conjecture"](n_max=8))
