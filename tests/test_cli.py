import hashlib
import json

import numpy as np
import pytest

from hetconn.cli import main

CONNECT_CFG = {
    "schema_version": 1,
    "potential": {"name": "double_well"},
    "wells": [[-1.0], [1.0]],
    "solver": {"n_nodes": 101, "max_iters": 800, "grad_tol": 1e-8},
    "reparam": {"n_samples": 201, "t_max": 6.0, "resample": 4096, "resample_eps": 1e-9},
    "defect_tol": 1e-3,
}

SIN_CFG = {
    "schema_version": 1,
    "example": "sin",
    "m": 33,
    "opts": {
        "path_nodes": 9, "outer_iters": 1, "inner_iters": 100,
        "n_out": 17, "t_max": 3.0, "polish": False,
    },
    "defect_tol": 10.0,
    "residual_tol": 10.0,
}

COUNTER_CFG = {
    "schema_version": 1,
    "g": {"type": "power", "p": 2.0},
    "radii": [4.0, 8.0],
    "n_leg": 12,
    "max_iters": 30,
    "n_max": 4,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_connect_run_and_verify(tmp_path):
    cfg = write_cfg(tmp_path, CONNECT_CFG)
    out = str(tmp_path / "run")
    assert main(["connect", "--config", cfg, "--out", out]) == 0
    for name in ("curve.csv", "plot_components.tsv", "plot_defect.tsv", "manifest.json"):
        assert (tmp_path / "run" / name).exists()
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["kind"] == "connect"
    assert manifest["results"]["action"] == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert manifest["results"]["k_length_value"] == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert manifest["results"]["equipartition_defect"] < 1e-3
    assert main(["verify", out]) == 0
    assert main(["verify", "--out", out]) == 0


def test_verify_catches_tampering(tmp_path):
    cfg = write_cfg(tmp_path, CONNECT_CFG)
    out = str(tmp_path / "run")
    assert main(["connect", "--config", cfg, "--out", out]) == 0
    with open(tmp_path / "run" / "curve.csv", "a") as fh:
        fh.write("0,0,0\n")
    assert main(["verify", out]) == 4


def test_verify_rechecks_the_defect(tmp_path):
    cfg = write_cfg(tmp_path, CONNECT_CFG)
    out = str(tmp_path / "run")
    assert main(["connect", "--config", cfg, "--out", out]) == 0
    mpath = tmp_path / "run" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["tolerances"]["defect_tol"] = 1e-12
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    assert main(["verify", out]) == 5


def _poison_one_value(run_dir, artifact):
    """Replace one interior field value of an artifact by nan and re-sign it."""
    path = run_dir / artifact
    lines = path.read_text().splitlines()
    # data rows follow the comment lines and the column-name row
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    i = rows[len(rows) // 2]
    cells = lines[i].split(",")
    cells[-1] = "nan"
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    mpath = run_dir / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["artifacts"][artifact] = hashlib.sha256(path.read_bytes()).hexdigest()
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def test_verify_rejects_a_nan_in_the_connect_curve(tmp_path):
    cfg = write_cfg(tmp_path, CONNECT_CFG)
    out = str(tmp_path / "run")
    assert main(["connect", "--config", cfg, "--out", out]) == 0
    _poison_one_value(tmp_path / "run", "curve.csv")
    assert main(["verify", out]) == 5


def test_verify_rejects_a_nan_in_the_double_field(tmp_path):
    cfg = write_cfg(tmp_path, SIN_CFG)
    out = str(tmp_path / "dbl")
    assert main(["double", "--config", cfg, "--out", out]) == 0
    _poison_one_value(tmp_path / "dbl", "u.csv")
    assert main(["verify", out]) == 5


def test_connect_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, CONNECT_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["connect", "--config", cfg, "--out", out1]) == 0
    assert main(["connect", "--config", cfg, "--out", out2]) == 0
    m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]


def test_config_errors(tmp_path):
    bad = dict(CONNECT_CFG)
    del bad["wells"]
    assert main(["connect", "--config", write_cfg(tmp_path, bad, "a.json")]) == 3

    bad = dict(CONNECT_CFG)
    bad["potential"] = {"name": "septuple_well"}
    assert main(["connect", "--config", write_cfg(tmp_path, bad, "b.json")]) == 3

    bad = dict(CONNECT_CFG)
    bad["schema_version"] = 2
    assert main(["connect", "--config", write_cfg(tmp_path, bad, "c.json")]) == 3

    garbled = tmp_path / "d.json"
    garbled.write_text("{not json")
    assert main(["connect", "--config", str(garbled)]) == 3

    assert main(["connect", "--config", str(tmp_path / "missing.json")]) == 3


def test_counterexample_run_and_verify(tmp_path):
    cfg = write_cfg(tmp_path, COUNTER_CFG)
    out = str(tmp_path / "ce")
    assert main(["counterexample", "--config", cfg, "--out", out]) == 0
    for name in ("candidates.tsv", "boxed.tsv", "manifest.json"):
        assert (tmp_path / "ce" / name).exists()
    manifest = json.loads((tmp_path / "ce" / "manifest.json").read_text())
    assert manifest["results"]["g_infinity"] == pytest.approx(1.5)
    assert manifest["results"]["infimum"] == pytest.approx(3.0)
    assert manifest["results"]["candidates_strictly_decreasing"]
    assert manifest["results"]["boxed_above_bound"]
    assert main(["verify", out]) == 0


def test_counterexample_rejects_divergent_g(tmp_path):
    bad = dict(COUNTER_CFG)
    bad["g"] = {"type": "power", "p": 0.5}
    assert main(["counterexample", "--config", write_cfg(tmp_path, bad)]) == 3


def test_double_sin_run_and_verify(tmp_path):
    cfg = write_cfg(tmp_path, SIN_CFG)
    out = str(tmp_path / "dbl")
    assert main(["double", "--config", cfg, "--out", out]) == 0
    for name in ("u.csv", "boundary_convergence.tsv", "manifest.json"):
        assert (tmp_path / "dbl" / name).exists()
    manifest = json.loads((tmp_path / "dbl" / "manifest.json").read_text())
    assert manifest["kind"] == "double"
    assert manifest["results"]["c_minus"] == 0.0
    assert main(["verify", out]) == 0


def test_double_asym_needs_quotient(tmp_path):
    bad = dict(SIN_CFG)
    assert main(["double", "--config", write_cfg(tmp_path, bad), "--mode", "asym"]) == 3


def test_double_rejects_unknown_opts(tmp_path):
    bad = json.loads(json.dumps(SIN_CFG))
    bad["opts"]["warp_speed"] = True
    assert main(["double", "--config", write_cfg(tmp_path, bad)]) == 3


def test_verify_argument_handling(tmp_path):
    assert main(["verify"]) == 3
    assert main(["verify", str(tmp_path / "nowhere")]) == 4
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["verify", str(empty)]) == 4
    (empty / "manifest.json").write_text("{}")
    assert main(["verify", str(empty)]) == 4


def test_curve_artifact_layout(tmp_path):
    cfg = write_cfg(tmp_path, CONNECT_CFG)
    out = str(tmp_path / "run")
    assert main(["connect", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "run" / "curve.csv").read_text().splitlines()
    assert lines[0].startswith("# action=")
    assert lines[1].split(",")[0] == "t"
    data = np.loadtxt(lines[2:], delimiter=",")
    assert data.shape == (201, 2)
    # the window truncates the tails at t_max = 6, so the ends sit at
    # tanh(-6) rather than the well itself
    assert data[0, 1] == pytest.approx(-1.0, abs=1e-4)
    assert data[-1, 1] == pytest.approx(1.0, abs=1e-4)
