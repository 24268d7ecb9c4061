import functools
import inspect
import json
import sys

import pytest

from hamforge.cli import VERIFY_KEYWORDS, main
from hamforge.corpus import (
    double_wheel,
    graph_to_planar_code,
    k4,
    octahedron,
    write_planar_code,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_double_wheel(capsys):
    code, out, _err = run(capsys, "count", "--double-wheel", "8")
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "48"


def test_count_file(capsys, tmp_path):
    path = tmp_path / "octa.pc"
    path.write_bytes(graph_to_planar_code(octahedron()))
    code, out, _err = run(capsys, "count", "--file", str(path))
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "16"


def test_count_with_required_edge(capsys):
    code, out, _err = run(capsys, "count", "--double-wheel", "8",
                          "--required-edge", "6,0")
    assert code == 0
    n, total = out.splitlines()[1].split(",")[1:3]
    assert (n, total) == ("8", "16")          # frozen from the naive oracle


def test_count_required_edge_not_in_graph_usage_error(capsys):
    code, out, err = run(capsys, "count", "--double-wheel", "8",
                         "--required-edge", "0,3")
    assert code == 64 and "not an edge" in err and out == ""


def test_count_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.pc"
    path.write_bytes(b">>planar_code<<" + bytes([3, 2, 0, 1, 0]))
    with pytest.raises(SystemExit) as err:
        run(capsys, "count", "--file", str(path))
    assert err.value.code == 65


def test_count_streams_rows_before_a_truncated_record(capsys, tmp_path):
    """Records are decoded as they are counted: the first graph's row is out
    when the truncated second record exits 65."""
    path = tmp_path / "two.pc"
    with open(path, "wb") as fh:
        write_planar_code([octahedron(), k4()], fh)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(SystemExit) as err:
        main(["count", "--file", str(path)])
    out = capsys.readouterr()
    assert err.value.code == 65 and "ended mid-rotation" in out.err
    rows = out.out.splitlines()
    assert len(rows) == 2 and rows[1].split(",")[1:3] == ["6", "16"]


def test_unknown_suite_usage_error(capsys):
    code, _out, err = run(capsys, "verify", "nosuch")
    assert code == 64 and "unknown suite" in err


def test_verify_refuses_flags_the_suite_does_not_take(capsys):
    code, out, err = run(capsys, "verify", "euler", "--seed", "3",
                         "--min-degree", "9", "--budget-nodes", "1")
    assert code == 64 and out == ""
    assert "--seed" in err and "--min-degree" in err
    assert "--budget-nodes" in err


def test_verify_theorem2_refuses_budget_nodes(capsys):
    """theorem2 runs no node-budgeted search: its caps are constants."""
    code, out, err = run(capsys, "verify", "theorem2", "--budget-nodes", "3")
    assert code == 64 and out == "" and "--budget-nodes" in err


def test_analyze_refuses_budget_nodes(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["analyze", "--double-wheel", "8", "--budget-nodes", "1"])
    out = capsys.readouterr()
    assert exit_.value.code == 64 and out.out == ""
    assert "--budget-nodes" in out.err


def test_theorem1_budget_nodes_reaches_only_the_exact_counts(capsys):
    """A node budget the exact counts stay within leaves the replay families,
    and so the rows, as they are at the default budget."""
    def rows(*extra):
        code, out, _err = run(capsys, "verify", "theorem1", "--n-max", "9", *extra)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        for r in records:
            r.pop("seconds")
        return records

    default = rows()
    assert default and rows("--budget-nodes", "100000") == default


def test_count_budget_nodes_bounds_the_search(capsys):
    code, out, err = run(capsys, "count", "--double-wheel", "8",
                         "--budget-nodes", "10")
    assert code == 2 and "operational error" in err
    assert out.splitlines() == ["graph_id,n,count,seconds"]


def test_every_suite_parameter_has_a_verify_flag():
    """No suite option is reachable only from Python."""
    from hamforge.verification import SUITE_RUNNERS

    flags = set(VERIFY_KEYWORDS.values())
    for suite, runner in SUITE_RUNNERS.items():
        for p in inspect.signature(runner).parameters.values():
            assert p.kind is p.VAR_KEYWORD or p.name in flags, (suite, p.name)


def test_verify_diamond4_refuses_n_max(capsys):
    code, out, err = run(capsys, "verify", "lemma-diamond4", "--n-max", "3")
    assert code == 64 and out == "" and "--n-max" in err


def test_verify_tutte_rejects_n_max_above_its_maximum(capsys):
    code, out, err = run(capsys, "verify", "tutte", "--n-max", "11")
    assert code == 64 and out == ""
    assert "--n-max" in err and "up to 10" in err


@pytest.mark.parametrize("suite, limit", [
    ("euler", 14), ("connectivity", 14), ("tutte", 10), ("lemma-edgesetF", 14),
    ("lemma-uwpath", 13), ("lemma-uvpath", 13), ("lemma-4edges", 14),
    ("conjecture", 14)])
def test_verify_refuses_n_max_above_the_corpus_limit(capsys, monkeypatch,
                                                     suite, limit):
    """``--n-max`` above what a corpus suite can build is a usage error
    before the suite starts; at the limit the suite is run."""
    from hamforge.verification import N_MAX_LIMITS, SUITE_RUNNERS

    assert N_MAX_LIMITS[suite] == limit
    started = []

    @functools.wraps(SUITE_RUNNERS[suite])
    def runner(**kwargs):
        started.append(kwargs["n_max"])
        return iter(())

    monkeypatch.setitem(SUITE_RUNNERS, suite, runner)
    code, out, err = run(capsys, "verify", suite, "--n-max", str(limit + 1))
    assert code == 64 and out == "" and started == []
    assert f"up to {limit}, got {limit + 1}" in err
    assert run(capsys, "verify", suite, "--n-max", str(limit))[0] == 0
    assert started == [limit]


def test_closed_stdout_exits_operational(capsys, monkeypatch):
    """A reader that goes away (``hamforge verify euler | head -1``) ends
    the run with exit 2 and one line on stderr, not a traceback and not
    the counterexample code 1."""
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    code = main(["verify", "euler", "--n-max", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "closed" in err


def test_verify_tutte_acts_on_small_n_max(capsys):
    code, out, _err = run(capsys, "verify", "tutte", "--n-max", "5")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and rows
    assert all(r["payload"]["n"] <= 5 for r in rows)


@pytest.mark.parametrize("argv", [
    ("verify", "euler", "--bogus"),
    ("verify", "euler", "--n-max", "x"),
    ("verify", "conjecture", "--min-connectivity", "4"),
])
def test_parser_errors_exit_usage_not_operational(capsys, argv):
    """Exit 2 is reserved for operational errors."""
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 64


def test_verify_euler_exit_zero(capsys):
    code, out, _err = run(capsys, "verify", "euler", "--n-max", "7")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(r["ok"] for r in rows)


def test_verify_reports_deterministic(capsys):
    def strip(text):
        rows = [json.loads(line) for line in text.splitlines()]
        for r in rows:
            r.pop("seconds")
        return rows

    _c1, out1, _ = run(capsys, "verify", "euler", "--n-max", "7")
    _c2, out2, _ = run(capsys, "verify", "euler", "--n-max", "7")
    assert strip(out1) == strip(out2)


def test_analyze_octahedron(capsys, tmp_path):
    path = tmp_path / "octa.pc"
    path.write_bytes(graph_to_planar_code(octahedron()))
    code, out, _err = run(capsys, "analyze", "--file", str(path))
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["separating_4cycles"] == 3
    assert row["separating_3cycles"] == 0
    assert row["max_common_neighborhood"] == 4
    assert row["connectivity"] == 4


def test_analyze_double_wheel(capsys):
    code, out, _err = run(capsys, "analyze", "--double-wheel", "8")
    row = json.loads(out.splitlines()[0])
    assert row["separating_4cycles"] == 9 and row["min_degree"] == 4


def test_analyze_operational_error_exits_two(capsys, tmp_path, monkeypatch):
    """A coloring give-up on one graph is reported and the next graph runs."""
    from hamforge import indset
    from hamforge.errors import ColoringTimeout

    def timeout(g, verts):
        raise ColoringTimeout("4-coloring exceeded its node budget")

    monkeypatch.setattr(indset, "four_color", timeout)
    path = tmp_path / "two.pc"
    with open(path, "wb") as fh:
        write_planar_code([double_wheel(8), k4()], fh)
    code, out, err = run(capsys, "analyze", "--file", str(path))
    assert code == 2 and "operational error" in err
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in rows] == [4]


def test_verify_edgesetF_below_min_degree_five(capsys):
    code, out, _err = run(capsys, "verify", "lemma-edgesetF",
                          "--min-degree", "4", "--n-max", "8")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and rows
    assert not any(r["payload"].get("error") == "MinDegreeViolated"
                   for r in rows)


def test_csv_format(capsys):
    code, out, _err = run(capsys, "verify", "euler", "--n-max", "6",
                          "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("suite,graph_id,operation,ok")


@pytest.mark.slow
def test_verify_conjecture_n13(capsys):
    """The conjecture scan through n = 13: every 4-connected triangulation,
    43 with n <= 11, 87 with n = 12 and 313 with n = 13."""
    code, out, _err = run(capsys, "verify", "conjecture", "--n-max", "13")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and all(r["ok"] for r in rows)
    sizes = [r["payload"]["n"] for r in rows]
    assert (len(rows), sizes.count(12), sizes.count(13)) == (443, 87, 313)


@pytest.mark.parametrize("argv", [("count", "--double-wheel", "8"), ("--help",),
                                  ("verify", "euler", "--n-max", "5")])
def test_malformed_budget_env_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("HAMFORGE_BUDGET", "abc")
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert "HAMFORGE_BUDGET" in err


@pytest.mark.parametrize("value", ["0", "-3", "many"])
def test_budget_nodes_below_one_rejected_at_parse_time(capsys, value):
    with pytest.raises(SystemExit) as exit_:
        main(["count", "--double-wheel", "8", "--budget-nodes", value])
    out = capsys.readouterr()
    assert exit_.value.code == 64 and out.out == ""
    assert "--budget-nodes" in out.err and "positive integer" in out.err
