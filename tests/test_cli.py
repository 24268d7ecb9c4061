import json

import pytest

from hamforge.cli import main
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


def test_unknown_suite_usage_error(capsys):
    code, _out, err = run(capsys, "verify", "nosuch")
    assert code == 64 and "unknown suite" in err


def test_verify_refuses_flags_the_suite_does_not_take(capsys):
    code, out, err = run(capsys, "verify", "euler", "--seed", "3",
                         "--min-degree", "9", "--budget-nodes", "1")
    assert code == 64 and out == ""
    assert "--seed" in err and "--min-degree" in err
    assert "--budget-nodes" in err


def test_verify_diamond4_refuses_n_max(capsys):
    code, out, err = run(capsys, "verify", "lemma-diamond4", "--n-max", "3")
    assert code == 64 and out == "" and "--n-max" in err


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

    def timeout(g, verts, budget=0):
        raise ColoringTimeout(f"4-coloring exceeded {budget} nodes")

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
