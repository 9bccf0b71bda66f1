import json

import pytest

from repstab.cli import main
from repstab.errors import ValidationError
from repstab.sweep import CSV_HEADER, SweepConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets_listing(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    for name in ("Z2_free_Z3", "infinite_dihedral", "hnn_Z4_over_Z2"):
        assert name in out


def test_irreps_s3(capsys):
    code, out, _ = run_cli(capsys, "irreps", "--preset", "S3")
    assert code == 0
    assert "dims: [1, 1, 2]" in out


def test_irreps_z2(capsys):
    code, out, _ = run_cli(capsys, "irreps", "--preset", "Z2")
    assert code == 0
    assert "dims: [1, 1]" in out


def test_irreps_inline_trivial_group(capsys, tmp_path):
    path = tmp_path / "triv.json"
    path.write_text(json.dumps({"order": 1, "mult": [[0]]}))
    code, out, _ = run_cli(capsys, "irreps", "--config", str(path))
    assert code == 0
    assert "dims: [1]" in out


def test_irreps_invalid_table_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 2, "mult": [[0, 0], [0, 0]]}))
    code, _, err = run_cli(capsys, "irreps", "--config", str(path))
    assert code == 2
    assert "identity" in err


def test_irreps_table_export(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    code, _, _ = run_cli(capsys, "irreps", "--preset", "Z3", "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert [p["dim"] for p in obj["irreps"]] == [1, 1, 1]
    entry = obj["irreps"][0]["matrices"][0][0][0]
    assert isinstance(entry, list) and len(entry) == 2  # [re, im] pairs


def test_realize_report(capsys):
    code, out, _ = run_cli(capsys, "realize", "--preset", "Z2_free_Z3", "--dim", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["defect"] <= 1e-10
    assert obj["multiplicities"]["blocks"] == [[3, 3], [2, 2, 2]]


def test_perturb_report(capsys):
    code, out, _ = run_cli(capsys, "perturb", "--preset", "hnn_Z4_over_Z2",
                           "--dim", "6", "--eps", "1e-2", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["defect"] > 1e-4
    assert obj["epsilon_in"] == 0.01


def test_stabilize_end_to_end(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "stabilize", "--preset", "infinite_dihedral",
                         "--dim", "6", "--eps", "1e-3", "--p", "2",
                         "--seed", "5", "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["delta"] > 0
    assert obj["output_defect"] <= 1e-9
    assert obj["epsilon"] < 1.0


def test_stabilize_zero_eps(capsys):
    code, out, _ = run_cli(capsys, "stabilize", "--preset", "Z2_free_Z3",
                           "--dim", "6", "--eps", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"] <= 1e-10
    assert obj["epsilon"] <= 1e-7


@pytest.mark.parametrize("eps", ["-0.1", "nan", "inf"])
def test_stabilize_rejects_a_bad_eps(capsys, eps):
    code, out, err = run_cli(capsys, "stabilize", "--preset", "Z2_free_Z3",
                             "--dim", "6", f"--eps={eps}")
    assert code == 2
    assert out == ""
    assert "perturbation size" in err


def test_stabilize_explicit_lambda(capsys):
    code, out, _ = run_cli(capsys, "stabilize", "--preset", "Z2_free_Z3",
                           "--lam", "[[4,2],[2,2,2]]", "--eps", "1e-3")
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda_in"]["blocks"] == [[4, 2], [2, 2, 2]]


def test_stabilize_guard_exit_1(capsys):
    code, _, err = run_cli(capsys, "stabilize", "--preset", "hnn_Z4_over_Z2",
                           "--dim", "6", "--eps", "0.9", "--guard", "0.05")
    assert code == 1
    assert "refused" in err


def test_malformed_config_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "stabilize", "--config", str(path), "--eps", "0")
    assert code == 2
    assert "parse" in err


def test_structurally_bad_config_exit_2(capsys, tmp_path):
    for obj in ({"vertices": 3, "edges": []},
                {"vertices": [{"group": "Z2"}], "edges": [{"origin": 0}]},
                {"vertices": [{"group": {"mult": "nope"}}], "edges": []}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "stabilize", "--config", str(path), "--eps", "0")
        assert code == 2, obj


@pytest.mark.parametrize("lam", ['{"x": 1}', "[1, 2]", "null", '[["a", 1], [1,1,1]]',
                                 "[[1.5, 2.5], [1, 1, 1]]"])
def test_malformed_lambda_exit_2(capsys, lam):
    code, out, err = run_cli(capsys, "realize", "--preset", "Z2_free_Z3", "--lam", lam)
    assert code == 2
    assert out == ""
    assert "--lam" in err


@pytest.mark.parametrize("argv", [
    ("realize", "--preset", "Z2_free_Z3", "--seed", "-1"),
    ("irreps", "--preset", "S3", "--seed", "-2"),
    ("sweep", "--preset", "Z2_free_Z3", "--seeds", "1", "--seed", "-3", "--out", "sweep.csv"),
])
def test_negative_seed_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "seed" in err


@pytest.mark.parametrize("argv", [
    ["stabilize", "--preset", "Z2_free_Z3", "--eps", "1e-3"],
    ["sweep", "--preset", "Z2_free_Z3", "--eps", "1e-2", "--p", "2", "--seeds", "1"],
])
def test_write_failure_exit_2(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "out"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "could not write" in err and "Traceback" not in err
    assert not out.exists()


def test_missing_graph_argument_exit_2(capsys):
    code, _, err = run_cli(capsys, "realize")
    assert code == 2
    assert "--preset" in err


def test_sweep_single_cell(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--preset", "infinite_dihedral",
                         "--eps", "1e-3", "--p", "2", "--seeds", "1",
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 2


def _strip_runtime(text):
    rows = []
    for line in text.splitlines():
        cols = line.split(",")
        cols[8] = ""
        rows.append(",".join(cols))
    return rows


def test_sweep_deterministic_modulo_runtime(capsys, tmp_path):
    args = ("sweep", "--preset", "hnn_Z4_over_Z2", "--eps", "1e-2", "--eps", "1e-3",
            "--p", "1", "--p", "2", "--seeds", "2", "--seed", "7")
    path1, path2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(path1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(path2))[0] == 0
    assert _strip_runtime(path1.read_text()) == _strip_runtime(path2.read_text())


def test_sweep_rejects_empty_grid(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--preset", "Z2_free_Z3",
                           "--seeds", "0", "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_sweep_default_grid_shape(capsys, tmp_path):
    # defaults: all 3 presets x 4 eps x 3 p; one seed keeps this quick
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "sweep", "--seeds", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1 + 3 * 4 * 3


def test_sweep_records_failures_and_exits_3(capsys, tmp_path):
    # an absurdly low guard makes every cell refuse; rows carry the error
    out_path = tmp_path / "fail.csv"
    code, out, _ = run_cli(capsys, "sweep", "--preset", "hnn_Z4_over_Z2",
                           "--eps", "1e-2", "--p", "2", "--seeds", "2",
                           "--guard", "1e-12", "--out", str(out_path))
    assert code == 3
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        assert "GuardExceededError" in line


def test_graph_config_file_end_to_end(capsys, tmp_path):
    config = {
        "name": "custom_amalgam",
        "vertices": [{"group": "Z2"}, {"group": "Z2"}],
        "edges": [{"origin": 0, "terminus": 1, "group": "Z2",
                   "into_terminus": [0, 1], "into_origin": [0, 1]}],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "stabilize", "--config", str(path),
                           "--lam", "[[3,3],[3,3]]", "--eps", "1e-3")
    assert code == 0
    obj = json.loads(out)
    assert obj["output_defect"] <= 1e-9
    assert obj["graph"] == "custom_amalgam"


def test_lambda_from_file(capsys, tmp_path):
    lam_path = tmp_path / "lam.json"
    lam_path.write_text(json.dumps({"side": "vertex", "blocks": [[2, 4], [2, 2, 2]]}))
    code, out, _ = run_cli(capsys, "realize", "--preset", "Z2_free_Z3",
                           "--lam", str(lam_path))
    assert code == 0
    obj = json.loads(out)
    assert obj["multiplicities"]["blocks"] == [[2, 4], [2, 2, 2]]


def test_sweep_has_no_config_flag(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", "graph.json", "--out", str(tmp_path / "sweep.csv")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_sweep_config_rejects_an_infinite_exponent():
    # an infinite p would pass to every cell and fail there, row by row
    with pytest.raises(ValidationError, match="p < inf"):
        SweepConfig(presets=("infinite_dihedral",), p_grid=(2.0, float("inf")))


@pytest.mark.parametrize("field,value,match", [
    ("eps_grid", (1e-2, float("nan")), "perturbation sizes"),
    ("eps_grid", (float("inf"),), "perturbation sizes"),
    ("guard", float("nan"), "guard"),
    ("mode", "bogus", "perturbation mode"),
])
def test_sweep_config_rejects_what_every_cell_would_fail_on(field, value, match):
    with pytest.raises(ValidationError, match=match):
        SweepConfig(presets=("infinite_dihedral",), **{field: value})


def test_dump_matrices_flag(capsys):
    code, out, _ = run_cli(capsys, "stabilize", "--preset", "hnn_Z4_over_Z2",
                           "--dim", "4", "--eps", "1e-3", "--dump-matrices")
    assert code == 0
    obj = json.loads(out)
    assert "vertex_matrices" in obj and "edge_matrices" in obj
    val = obj["edge_matrices"][0][0][0]
    assert isinstance(val, list) and len(val) == 2
