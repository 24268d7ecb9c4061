"""Every named suite runs clean at small scale; failures carry bundles."""

import base64
import io

import pytest

from hamforge.corpus import read_planar_code
from hamforge.verification import SUITE_RUNNERS, SUITES

SMALL = {
    "euler": {"n_max": 7},
    "connectivity": {"n_max": 7},
    "tutte": {"n_max": 7},
    "lemma-edgesetF": {"n_max": 8},
    "lemma-uwpath": {"n_max": 7},
    "lemma-uvpath": {"n_max": 7},
    "lemma-diamond4": {},
    "lemma-4edges": {"n_max": 8, "samples": 25},
    "lemma-2edge": {"n_max": 8},
    "conjecture": {"n_max": 8},
    "theorem1": {"n_max": 8},
    "theorem2": {"budget": 16},
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
