"""Command-line behavior: parsing, conversions, outputs, exit codes."""
from dataclasses import replace

import numpy as np
import pytest

from graphal import selftest
from graphal.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- marginals ----------------------------------------------------------------


def test_marginals_table_matches_library_values(capsys):
    code, out, _ = run(
        capsys, "marginals", "--chain", "18", "--labels", "1:+1,11:-1", "--methods", "tsa"
    )
    assert code == 0
    rows = {}
    for line in out.splitlines()[1:]:
        node, value = line.split()
        rows[int(node)] = float(value)
    assert set(rows) == set(range(2, 11)) | set(range(12, 19))  # unlabeled, 1-based
    expected_minus = {12: 0.88, 13: 0.73, 14: 0.66, 15: 0.62, 16: 0.60, 17: 0.58, 18: 0.57}
    for node, target in expected_minus.items():
        assert abs((1.0 - rows[node]) - target) <= 0.005


def test_marginals_csv_output(tmp_path, capsys):
    out_file = tmp_path / "m.csv"
    code, _, _ = run(
        capsys,
        "marginals", "--chain", "5", "--labels", "1:+1,5:-1",
        "--methods", "tsa,zlg,lp,exact", "-o", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "node,tsa,zlg,lp,exact"
    assert len(lines) == 4  # nodes 2, 3, 4
    node, tsa, zlg, lp, exact = lines[2].split(",")
    assert node == "3"
    assert abs(float(tsa) - 0.5) <= 1e-12  # midpoint of a symmetric chain
    assert abs(float(lp)) <= 1e-12


def test_marginals_table_does_not_depend_on_label_order(capsys):
    tables = [
        run(capsys, "marginals", "--chain", "4", "--labels", spec, "--methods", "tsa,zlg,lp,exact")
        for spec in ("4:+1,1:-1", "1:-1,4:+1")
    ]
    assert tables[0] == tables[1]
    rows = dict(line.split(None, 1) for line in tables[0][1].splitlines()[1:])
    assert rows["2"].split()[2] == "-0.333333"  # node 2 neighbours node 1, labeled -1


def test_marginals_rejects_oversized_enumeration(capsys):
    code, _, err = run(
        capsys, "marginals", "--chain", "30", "--labels", "1:+1", "--methods", "exact"
    )
    assert code == 2
    assert "cap is 20" in err


def test_marginals_enum_cap_override_warns(capsys):
    code, _, err = run(
        capsys,
        "marginals", "--chain", "24", "--labels", "1:+1,24:-1",
        "--methods", "exact", "--enum-cap", "22",
    )
    assert code == 0
    assert "minutes" in err


@pytest.mark.parametrize(
    "labels",
    ["", "1", "1:+2", "0:+1", "99:+1", "1:+1,1:-1"],
)
def test_marginals_label_spec_errors(capsys, labels):
    code, _, err = run(capsys, "marginals", "--chain", "5", "--labels", labels)
    assert code == 2
    assert err.startswith("error:")


def test_marginals_requires_one_graph_source(capsys):
    code, _, err = run(capsys, "marginals", "--labels", "1:+1")
    assert code == 2
    assert "graph source" in err
    code, _, err = run(
        capsys, "marginals", "--chain", "4", "--grid", "--labels", "1:+1"
    )
    assert code == 2


@pytest.mark.parametrize(
    "source,msg",
    [
        (["--chain", "0"], "--chain needs N >= 2, got 0"),
        (["--chain", "5", "--n", "3"], "--n applies only to --edges"),
        (["--grid", "--n", "7"], "--n applies only to --edges"),
    ],
)
def test_marginals_rejects_a_bad_graph_source_flag(capsys, source, msg):
    code, out, err = run(capsys, "marginals", *source, "--labels", "1:+1")
    assert code == 2
    assert err == f"error: {msg}\n"
    assert out == ""


def test_marginals_unknown_method(capsys):
    code, _, err = run(
        capsys, "marginals", "--chain", "4", "--labels", "1:+1", "--methods", "magic"
    )
    assert code == 2
    assert "unknown method" in err


@pytest.mark.parametrize(
    "extra,msg",
    [
        (["--beta", "inf"], "beta must be positive and finite, got inf"),
        (["--beta", "nan"], "beta must be positive and finite, got nan"),
        (["--ridge", "inf"], "ridge must be nonnegative and finite, got inf"),
        (["--beta", "1e308"], "Laplacian diagonal at node"),
    ],
)
@pytest.mark.parametrize(
    "command",
    [["marginals", "--chain", "5", "--labels", "1:+1"], ["experiment", "--toy", "chain15", "--budget", "1"]],
)
def test_non_finite_laplacian_is_an_input_error(tmp_path, capsys, command, extra, msg):
    code, _, err = run(capsys, *command, *extra, "-o", str(tmp_path / "x.csv"))
    assert code == 2
    assert err.startswith(f"error: {msg}")


def test_marginals_from_edge_file(tmp_path, capsys):
    p = tmp_path / "g.edges"
    p.write_text("1 2 1.0\n2 3 1.0\n")
    code, out, _ = run(
        capsys, "marginals", "--edges", str(p), "--labels", "1:+1,3:-1", "--methods", "zlg"
    )
    assert code == 0
    assert out.splitlines()[1].split()[0] == "2"


@pytest.mark.parametrize(
    "edges,extra,msg",
    [
        ("1 2\n3 4\n", [], "connected component {3, 4} has no labeled node"),
        # node 3 hangs on node 2 by a subnormal weight: its G entry is inf
        ("1 2 1\n2 3 5e-324\n", [], "inverse diagonal at node 3 overflows"),
        # node 1 has two unit edges: 2e308 overflows, 1e308 does not
        ("1 2\n1 3\n", ["--beta", "1e308"], "Laplacian diagonal at node 1 overflows"),
        ("", ["--n", "0"], "graph needs at least one node, got n=0\n"),
        ("1 2\n2 3\n", ["--n", "-3"], "graph needs at least one node, got n=-3\n"),
    ],
    ids=["unanchored", "subnormal-anchor", "beta-overflow", "empty-n-0", "n-below-one"],
)
def test_errors_name_one_based_nodes(tmp_path, capsys, edges, extra, msg):
    p = tmp_path / "g.edges"
    p.write_text(edges)
    code, _, err = run(capsys, "marginals", "--edges", str(p), "--labels", "1:+1", *extra)
    assert code == 2
    assert err.startswith(f"error: {msg}")


# --- experiment -----------------------------------------------------------------


def test_experiment_end_to_end_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "experiment", "--toy", "chain15", "--strategies", "tsa,random",
        "--trials", "3", "--budget", "5", "--seed", "7",
    ]
    code1, summary1, _ = run(capsys, *args, "-o", str(out1))
    code2, summary2, _ = run(capsys, *args, "-o", str(out2))
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "reference baseline" in summary1
    assert summary1.replace(str(out1), "X") == summary2.replace(str(out2), "X")
    header = out1.read_text().splitlines()[0]
    assert header == "strategy,t,mean_accuracy,stderr,trials"


def test_experiment_grid_toy(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, _, _ = run(
        capsys,
        "experiment", "--toy", "grid", "--strategies", "zlg",
        "--trials", "2", "--budget", "4", "-o", str(out),
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 5


def test_experiment_from_files_multiclass(tmp_path, capsys):
    e = tmp_path / "d.edges"
    e.write_text("1 2\n2 3\n3 4\n4 5\n5 6\n")
    l = tmp_path / "d.labels"
    l.write_text("1 0\n2 0\n3 1\n4 1\n5 2\n6 2\n")
    out = tmp_path / "d.csv"
    code, _, _ = run(
        capsys,
        "experiment", "--edges", str(e), "--labels", str(l),
        "--strategies", "tsa,vopt", "--trials", "2", "--budget", "3", "-o", str(out),
    )
    assert code == 0
    assert out.read_text().splitlines()[1].split(",")[0] == "tsa"


@pytest.mark.parametrize(
    "extra,msg",
    [
        (["--toy", "nosuch"], "unknown toy"),
        (["--strategies", "best", "--toy", "chain15"], "unknown strategy"),
        ([], "choose a dataset"),
        (["--budget", "-3", "--toy", "chain15"], "budget must be >= 0"),
    ],
)
def test_experiment_config_errors(tmp_path, capsys, extra, msg):
    code, _, err = run(
        capsys, "experiment", "--trials", "1", "--budget", "2",
        "-o", str(tmp_path / "x.csv"), *extra,
    )
    assert code == 2
    assert msg in err


# --- selftest -------------------------------------------------------------------


def test_selftest_passes_and_reports(capsys):
    code, out, _ = run(capsys, "selftest", "--graphs", "4", "--seed", "3")
    assert code == 0
    assert out.count("pass") == 6
    assert "downdate-equivalence" in out


@pytest.mark.parametrize("graphs", ["0", "-3"])
def test_selftest_without_graphs_is_a_usage_error(capsys, graphs):
    code, out, err = run(capsys, "selftest", "--graphs", graphs)
    assert code == 2
    assert out == ""
    assert err == f"error: need at least 1 graph per check, got {graphs}\n"


@pytest.mark.parametrize("bias", [1e-3, np.nan], ids=["bias", "nan"])
def test_selftest_perturbation_forces_failure(capsys, monkeypatch, bias):
    downdate = selftest.downdate_inverse

    def off_downdate(state, k, y):
        fast = downdate(state, k, y)
        return replace(fast, inverse=fast.inverse + bias)

    monkeypatch.setattr(selftest, "downdate_inverse", off_downdate)
    code, out, _ = run(capsys, "selftest", "--graphs", "3")
    assert code == 1
    assert "FAIL" in out
    if bias != bias:  # a NaN inverse stops the lookahead check at a guard, which names the node
        assert "FAIL  (inverse diagonal vanished at node " in out
