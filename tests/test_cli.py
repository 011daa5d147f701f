import dataclasses
import hashlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hetconn
import hetconn.cli
import hetconn.counterexample
import hetconn.double_connection
from hetconn.cli import _load_config, main
from hetconn.double_connection import mirror_grid, planar_shell

CONNECT_CFG = {
    "schema_version": 1,
    "potential": {"name": "double_well"},
    "wells": [[-1.0], [1.0]],
    "reparam": {"n_samples": 201, "t_max": 6.0},
    "defect_tol": 1e-3,
}

# a connect in dimension 2 and up relaxes the action of a seeded curve; with
# no via point the seed is the chord between the planar wells along u2 = 0,
# and the relaxation keeps to that axis (defect 3.0e-4)
PLANAR_CONNECT_CFG = {
    "schema_version": 1,
    "potential": {"name": "planar_two_well"},
    "wells": [[-1.0, 0.0], [1.0, 0.0]],
    "reparam": {"n_samples": 801, "t_max": 6.0},
    "defect_tol": 1e-3,
}

CONNECT_ARTIFACTS = {"curve_1.npy", "plot_defect_1.npy"}

SIN_CFG = {
    "schema_version": 1,
    "example": "sin",
    "m": 33,
    "opts": {"n_out": 17, "t_max": 3.0},
    "defect_tol": 10.0,
    "residual_tol": 10.0,
}

# the two-component field: residual 5.4e-8 and defect 7.4e-3 pass the
# default tolerances of the run and of verify
PLANAR_CFG = {
    "schema_version": 1,
    "example": "planar",
    "mode": "sym",
    "m": 101,
    "opts": {"n_out": 33, "t_max": 6.0},
    "defect_tol": 0.05,
}

COUNTER_CFG = {
    "schema_version": 1,
    "g": {"type": "power", "p": 2.0},
    "radii": [4.0, 8.0],
    "n_max": 8,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_connect_run_and_verify(tmp_path):
    cfg = write_cfg(tmp_path, CONNECT_CFG)
    out = str(tmp_path / "run")
    assert main(["connect", "--config", cfg, "--out", out]) == 0
    for name in (*CONNECT_ARTIFACTS, "manifest.json"):
        assert (tmp_path / "run" / name).exists()
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["schema_version"] == 7
    assert manifest["kind"] == "connect"
    assert manifest["results"]["action"] == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert manifest["results"]["dk_value"] == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert manifest["results"]["equipartition_defect"] < 1e-3
    assert main(["verify", out]) == 0
    assert main(["verify", "--out", out]) == 0


def test_verify_catches_tampering(tmp_path):
    cfg = write_cfg(tmp_path, CONNECT_CFG)
    out = str(tmp_path / "run")
    assert main(["connect", "--config", cfg, "--out", out]) == 0
    with open(tmp_path / "run" / "curve_1.npy", "ab") as fh:
        fh.write(np.zeros(2).tobytes())
    assert main(["verify", out]) == 4


def test_connect_run_over_its_defect_tol_fails_run_and_verify(tmp_path, capsys):
    cfg = dict(CONNECT_CFG, defect_tol=1e-12)
    out = tmp_path / "run"
    assert main(["connect", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 5
    assert "equipartition defect" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == CONNECT_ARTIFACTS
    assert manifest["results"]["equipartition_defect"] > manifest["tolerances"]["defect_tol"]
    assert main(["verify", str(out)]) == 5
    assert "equipartition defect" in capsys.readouterr().err


def test_connect_run_with_a_nan_defect_fails(tmp_path, monkeypatch, capsys):
    leg = hetconn.cli.line_connection

    def nan_defect(*args, **kwargs):
        conn = leg(*args, **kwargs)
        defects = conn.defects.copy()
        defects[len(defects) // 2] = float("nan")
        return dataclasses.replace(conn, defects=defects)

    monkeypatch.setattr(hetconn.cli, "line_connection", nan_defect)
    out = tmp_path / "run"
    assert main(["connect", "--config", write_cfg(tmp_path, CONNECT_CFG), "--out", str(out)]) == 5
    assert "equipartition defect nan" in capsys.readouterr().err
    assert (out / "manifest.json").exists()


def test_verify_rechecks_the_defect(tmp_path):
    cfg = write_cfg(tmp_path, CONNECT_CFG)
    out = str(tmp_path / "run")
    assert main(["connect", "--config", cfg, "--out", out]) == 0
    mpath = tmp_path / "run" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["tolerances"]["defect_tol"] = 1e-12
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    assert main(["verify", out]) == 5


@pytest.mark.parametrize("command, cfg, key, gate", [
    ("connect", dict(CONNECT_CFG, defect_tol=1e-12), "defect_tol", "leg 1 equipartition defect"),
    ("double", dict(SIN_CFG, residual_tol=1e-9), "residual_tol", "interior residual max"),
], ids=["connect-defect_tol", "double-residual_tol"])
def test_verify_gates_with_the_configs_tolerances(tmp_path, capsys, command, cfg, key, gate):
    # a failing run whose manifest tolerance is loosened still fails verify:
    # the tolerance is not the config's, and the gate reads the config's
    out = tmp_path / "run"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 5
    mpath = out / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["tolerances"][key] = 1.0
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    err = capsys.readouterr().err
    assert f"tolerances.{key}: recomputed {cfg[key]!r}, recorded 1.0" in err
    assert gate in err


def _poison_one_value(run_dir, artifact):
    """Replace one interior field value of an artifact by nan and re-sign it."""
    path = run_dir / artifact
    table = np.load(path)
    # the middle row of the table read as rows of its last axis (x2 outer in u.npy)
    rows = table.reshape(-1, table.shape[-1])
    rows[len(rows) // 2, -1] = np.nan
    np.save(path, table)
    _resign(run_dir, artifact)


def _edit_table(run_dir, artifact, index, edit):
    """Replace the entry at ``index`` of an artifact by ``edit`` of it and re-sign it."""
    path = run_dir / artifact
    table = np.load(path)
    table[index] = edit(table[index])
    np.save(path, table)
    _resign(run_dir, artifact)


def _nudge_field(run_dir, index, delta, component=-1):
    """Add ``delta`` to u.npy's ``component`` (by default the last) at
    ``index`` = (j, i), x2 node j and x1 node i, and re-sign u.npy."""
    path = run_dir / "u.npy"
    table = np.load(path)
    table[index + (component,)] += delta
    np.save(path, table)
    _resign(run_dir, "u.npy")


def _resign(run_dir, artifact):
    path = run_dir / artifact
    mpath = run_dir / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["artifacts"][artifact] = hashlib.sha256(path.read_bytes()).hexdigest()
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def test_verify_rejects_a_nan_in_the_connect_curve(tmp_path):
    cfg = write_cfg(tmp_path, CONNECT_CFG)
    out = str(tmp_path / "run")
    assert main(["connect", "--config", cfg, "--out", out]) == 0
    _poison_one_value(tmp_path / "run", "curve_1.npy")
    assert main(["verify", out]) == 5


def test_verify_rejects_a_nan_in_the_double_field(tmp_path):
    cfg = write_cfg(tmp_path, SIN_CFG)
    out = str(tmp_path / "dbl")
    assert main(["double", "--config", cfg, "--out", out]) == 0
    _poison_one_value(tmp_path / "dbl", "u.npy")
    assert main(["verify", out]) == 5


def test_verify_of_a_double_run_builds_no_fixture(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, SIN_CFG)
    out = str(tmp_path / "dbl")
    assert main(["double", "--config", cfg, "--out", out]) == 0

    def rebuild(*args, **kwargs):
        raise AssertionError("verify rebuilt the fixture")

    for module in (hetconn, hetconn.cli, hetconn.double_connection):
        for name in ("planar_effective_space", "sin_example_space"):
            monkeypatch.setattr(module, name, rebuild)
    assert main(["verify", out]) == 0


def test_verify_rejects_a_changed_well_column(tmp_path):
    cfg = write_cfg(tmp_path, SIN_CFG)
    out = tmp_path / "dbl"
    assert main(["double", "--config", cfg, "--out", str(out)]) == 0
    # one interior node of the last x2 column, the z+ well profile; the
    # defect tolerance of SIN_CFG is loose, so only the reference can fail
    _nudge_field(out, (-1, 8), 1e-3)
    assert main(["verify", str(out)]) == 5


# the column names of each table a run writes; the field's and a curve's
# end in one u_j per component
TABLE_COLUMNS = {
    "curve_1.npy": ["t", "u1"],
    "plot_defect_1.npy": ["t", "equipartition_defect"],
    "u.npy": ["u1"],
    "x1.npy": ["x1"],
    "boundary_convergence.npy": ["x2", "gap_minus_l2", "gap_plus_l2"],
    "candidates.npy": ["n", "x_n", "candidate_length"],
    "boxed.npy": ["radius", "candidate_at_radius", "crossing_bound"],
}
ARTIFACT_RUNS = {
    "connect": ("connect", CONNECT_CFG, ["curve_1.npy", "plot_defect_1.npy"]),
    "double": ("double", SIN_CFG, ["u.npy", "x1.npy", "boundary_convergence.npy"]),
    "double_planar": ("double", PLANAR_CFG, ["u.npy", "x1.npy", "boundary_convergence.npy"]),
    "counterexample": ("counterexample", COUNTER_CFG, ["candidates.npy", "boxed.npy"]),
}


@pytest.mark.parametrize("run", sorted(ARTIFACT_RUNS))
def test_every_table_is_its_float64_array_with_its_columns(tmp_path, monkeypatch, run):
    command, cfg, names = ARTIFACT_RUNS[run]
    save = hetconn.cli._save_tables
    saved = {}

    def recorded(out_dir, tables):
        saved.update(tables)
        return save(out_dir, tables)

    monkeypatch.setattr(hetconn.cli, "_save_tables", recorded)
    out = tmp_path / "run"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(saved) == sorted(manifest["columns"]) == sorted(manifest["artifacts"])
    assert sorted(saved) == sorted(names)
    for name, (columns, table) in saved.items():
        expected = TABLE_COLUMNS[name]
        if expected[-1] == "u1":
            expected = expected[:-1] + [f"u{j + 1}" for j in
                                        range(table.shape[-1] - len(expected) + 1)]
        assert manifest["columns"][name] == columns == expected
        with open(out / name, "rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            data = fh.read()
        assert (shape, fortran_order, dtype.str) == (table.shape, False, "<f8")
        assert table.shape[0] > 1 and shape[-1] == len(columns)
        assert data == np.ascontiguousarray(table, dtype=float).tobytes()
    if command == "connect":
        # the curve's times and nodes, with no comment line: results.legs holds its numbers
        (leg,) = manifest["results"]["legs"]
        assert leg["curve"] == "curve_1.npy"
        assert set(leg) == {"x_minus", "x_plus", "action", "dk_value", "action_gap",
                            "equipartition_defect", "window", "curve"}


@pytest.mark.parametrize("cfg", [SIN_CFG, PLANAR_CFG], ids=["sin", "planar"])
def test_field_table_is_the_solver_field_bit_for_bit(tmp_path, monkeypatch, cfg):
    solve = hetconn.cli.solve_symmetric
    results = []

    def recorded(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(hetconn.cli, "solve_symmetric", recorded)
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    (result,) = results
    # the table is the solver's stack of x2 columns (P, M, n) as it is
    p, m, n = result.u.shape
    assert result.u.flags.c_contiguous and result.u.dtype.str == "<f8"
    with open(out / "u.npy", "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        payload = fh.read()
    assert (shape, fortran_order, dtype.str) == ((p, m, n), False, "<f8")
    assert payload == result.u.tobytes()
    # the x1 grid is the config's mirror_grid, the x2 grid the gaps' x2 column
    lo, hi = (0.0, np.pi) if cfg["example"] == "sin" else (-8.0, 8.0)
    x1 = np.load(out / "x1.npy", allow_pickle=False)
    assert x1.shape == (m, 1) and x1[:, 0].tobytes() == mirror_grid(lo, hi, m).tobytes()
    x2 = np.load(out / "boundary_convergence.npy", allow_pickle=False)[:, 0]
    assert x2.tobytes() == result.x2.tobytes()


def test_double_runs_write_byte_identical_fields(tmp_path):
    cfg = write_cfg(tmp_path, SIN_CFG)
    for name in ("a", "b"):
        assert main(["double", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "u.npy").read_bytes() == (tmp_path / "b" / "u.npy").read_bytes()
    m1, m2 = (json.loads((tmp_path / name / "manifest.json").read_text()) for name in "ab")
    assert m1["artifacts"] == m2["artifacts"]


@pytest.mark.parametrize("cfg", [SIN_CFG, PLANAR_CFG, dict(PLANAR_CFG, mode="asym")],
                         ids=["sin", "planar_sym", "planar_asym"])
def test_a_double_field_keeps_the_x2_reflection(tmp_path, cfg):
    # sin's density is even in u and z- = -z+, so its field is odd in x2;
    # planar's W is even in u2 and z- is z+ with u2 negated, so its field is
    # (u1, -u2) at -x2
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    u = np.load(out / "u.npy", allow_pickle=False)
    x2 = np.load(out / "boundary_convergence.npy", allow_pickle=False)[:, 0]
    assert np.max(np.abs(x2 + x2[::-1])) <= 1e-12
    mirror = u[::-1] * ([-1.0] if u.shape[2] == 1 else [1.0, -1.0])
    assert np.max(np.abs(u - mirror)) <= 1e-12


# each makes the new u.npy, an array or raw bytes, from the run's table and
# names verify's exit code and what it reports: 4 for a table that is not
# the format's, 5 for a field of another shape than the config's
BAD_FIELDS = {
    "one_x2_node": (lambda table: table[:1], 5,
                    "u.npy holds a field (x2, x1, component) of shape (1, 33, 1), and "
                    "the config's is (17, 33, 1)"),
    "float32": (lambda table: table.astype(np.float32), 4, "float32 array"),
    "ndim_2": (lambda table: table.reshape(-1, table.shape[-1]), 4,
               "not a float64 (P, M, n) table"),
    "object_array": (lambda table: table.astype(object), 4, "allow_pickle=False"),
    "empty_file": (lambda table: b"", 4, "No data left in file"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_verify_rejects_a_malformed_field_table(tmp_path, capsys, case):
    transform, code, message = BAD_FIELDS[case]
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, SIN_CFG), "--out", str(out)]) == 0
    bad = transform(np.load(out / "u.npy"))
    if isinstance(bad, bytes):
        (out / "u.npy").write_bytes(bad)
    else:
        np.save(out / "u.npy", bad, allow_pickle=bad.dtype == object)
    _resign(out, "u.npy")
    capsys.readouterr()
    assert main(["verify", str(out)]) == code
    assert message in capsys.readouterr().err


def _npz_bytes(table) -> bytes:
    """The bytes of an .npz archive holding ``table``, which np.load opens as an NpzFile."""
    buffer = io.BytesIO()
    np.savez(buffer, table=table)
    return buffer.getvalue()


# each makes a table of the wrong kind from a run's table, and names what verify reports
BAD_TABLES = {
    "float32": (lambda table: table.astype(np.float32), "holds a float32 array"),
    "big_endian": (lambda table: table.astype(">f8"), "holds a >f8 array"),
    "fortran_order": (np.asfortranarray, "stored in Fortran order, not C order"),
    "ndim": (lambda table: table[None], "not a float64 (rows, columns) table"),
    "one_column_less": (lambda table: table[..., :-1], "and the manifest names"),
    "npz_archive": (lambda table: _npz_bytes(table), "is an .npz archive, not one .npy table"),
}
# a table of each run kind, and the run that writes it
TABLE_RUNS = {"curve_1.npy": ("connect", CONNECT_CFG),
              "boundary_convergence.npy": ("double", SIN_CFG),
              "boxed.npy": ("counterexample", COUNTER_CFG)}


@pytest.fixture(scope="module")
def table_runs(tmp_path_factory):
    """A run directory of each of ``TABLE_RUNS``, by table name."""
    runs = {}
    for name, (command, cfg) in TABLE_RUNS.items():
        base = tmp_path_factory.mktemp(command)
        out = base / "run"
        assert main([command, "--config", write_cfg(base, cfg), "--out", str(out)]) == 0
        runs[name] = out
    return runs


@pytest.mark.parametrize("name", sorted(TABLE_RUNS))
@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_verify_rejects_a_table_of_the_wrong_kind(tmp_path, capsys, table_runs, case, name):
    transform, message = BAD_TABLES[case]
    out = tmp_path / "run"
    shutil.copytree(table_runs[name], out)
    assert main(["verify", str(out)]) == 0
    bad = transform(np.load(out / name))
    if isinstance(bad, bytes):
        (out / name).write_bytes(bad)
    else:
        np.save(out / name, bad)
    _resign(out, name)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 4
    err = capsys.readouterr().err
    assert message in err and name in err


# each makes a manifest whose root or sections are not of the type verify
# reads from the run's manifest, and names what verify reports
OBJECTS = "config, results, tolerances, artifacts and columns must be JSON objects"
BAD_MANIFEST_MAPS = {
    "artifacts_list": (lambda m: {**m, "artifacts": sorted(m["artifacts"])}, OBJECTS),
    "columns_list": (lambda m: {**m, "columns": sorted(m["columns"])}, OBJECTS),
    "columns_entry_string": (lambda m: {**m, "columns": {**m["columns"], "boxed.npy": "radius"}},
                             "columns of boxed.npy must be a list of strings"),
    "columns_entry_numbers": (lambda m: {**m, "columns": {**m["columns"],
                                                          "boxed.npy": [0, 1, 2]}},
                              "columns of boxed.npy must be a list of strings"),
    "config_list": (lambda m: {**m, "config": []}, OBJECTS),
    "results_list": (lambda m: {**m, "results": []}, OBJECTS),
    "tolerances_list": (lambda m: {**m, "tolerances": []}, OBJECTS),
    "kind_list": (lambda m: {**m, "kind": []}, "manifest kind must be a string, got []"),
    # a list that names every key the manifest must have
    "root_list": (sorted, "manifest root must be a JSON object"),
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFEST_MAPS))
def test_verify_rejects_artifacts_or_columns_of_the_wrong_type(tmp_path, capsys, table_runs,
                                                               case):
    edit, message = BAD_MANIFEST_MAPS[case]
    out = tmp_path / "run"
    shutil.copytree(table_runs["boxed.npy"], out)
    mpath = out / "manifest.json"
    manifest = edit(json.loads(mpath.read_text()))
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 4
    assert message in capsys.readouterr().err


def _nudged(value):
    return float(np.nextafter(value, np.inf))


# small runs of each kind, by name
SMALL_RUNS = {
    "connect": ("connect", CONNECT_CFG),
    "two_leg": ("connect", dict(CONNECT_CFG, potential={"name": "triple_well"})),
    "sin": ("double", SIN_CFG),
    "planar_sym": ("double", PLANAR_CFG),
    "planar_asym": ("double", dict(PLANAR_CFG, mode="asym")),
    "counterexample": ("counterexample", COUNTER_CFG),
    "shipped_planar_sym": ("double", "planar_sym"),
}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """A run directory of each of ``SMALL_RUNS``, by name; each verifies."""
    base = tmp_path_factory.mktemp("small")
    runs = {}
    for name, (command, cfg) in SMALL_RUNS.items():
        path = (SHIPPED / f"{cfg}.json" if isinstance(cfg, str)
                else write_cfg(base, cfg, f"{name}.json"))
        runs[name] = base / name
        assert main([command, "--config", str(path), "--out", str(runs[name])]) == 0
        assert main(["verify", str(runs[name])]) == 0
    return runs


def _copied_run(tmp_path, small_runs, name):
    out = tmp_path / "run"
    shutil.copytree(small_runs[name], out)
    return out


def _edit_result(run_dir, path, edit):
    """Replace the result at ``path`` inside a run's ``results`` by ``edit`` of it."""
    mpath = run_dir / "manifest.json"
    manifest = json.loads(mpath.read_text())
    entry = manifest["results"]
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = edit(entry[path[-1]])
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))


# one ulp up the recorded Euler-Lagrange residual of a two-leg chain, or one
# entry of the second leg's defect table; verify recomputes each bit for bit
AUDIT_EDITS = {
    "el_residual": ("el_residual", "results.el_residual: recomputed"),
    "plot_defect_2.npy": ("plot_defect_2.npy", "plot_defect_2.npy: max |recomputed - recorded|"),
}


@pytest.fixture(scope="module")
def two_leg_run(small_runs):
    return small_runs["two_leg"]


@pytest.mark.parametrize("edit", sorted(AUDIT_EDITS))
def test_verify_recomputes_the_connect_audits(tmp_path, capsys, two_leg_run, edit):
    key, gate = AUDIT_EDITS[edit]
    out = tmp_path / "run"
    shutil.copytree(two_leg_run, out)
    assert main(["verify", str(out)]) == 0
    mpath = out / "manifest.json"
    manifest = json.loads(mpath.read_text())
    assert len(manifest["results"]["legs"]) == 2
    if key.endswith(".npy"):
        _edit_table(out, key, (100, 1), _nudged)
    else:
        manifest["results"][key] = _nudged(manifest["results"][key])
        mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert gate in capsys.readouterr().err


def test_verify_rejects_a_version_1_manifest(tmp_path, capsys):
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, SIN_CFG), "--out", str(out)]) == 0
    mpath = out / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["schema_version"] = 1
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 4
    assert "manifest schema_version 1 is not supported" in capsys.readouterr().err


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


@pytest.mark.parametrize("section, key, value", [
    ("solver", "n_nodes", "abc"),
    ("solver", "n_nodes", 1),
    ("reparam", "n_samples", 1),
    ("solver", "n_nodes", 101.0),
    ("solver", "max_iters", -1),
    ("solver", "grad_tol", 0.0),
    ("solver", "via_points", "abc"),
    ("solver", "warp_speed", True),
    ("reparam", "t_max", float("inf")),
    ("reparam", "resample", True),
    ("reparam", "resample_eps", -1e-9),
    ("reparam", "extra", 1),
])
def test_connect_rejects_bad_solver_and_reparam_values(tmp_path, section, key, value):
    # no connect reads a solver or a resample any more: in dimension 2 they
    # are unknown keys too
    descent = section == "solver" or key.startswith("resample")
    cfg = json.loads(json.dumps(PLANAR_CONNECT_CFG if descent else CONNECT_CFG))
    cfg.setdefault(section, {})[key] = value
    out = tmp_path / "run"
    assert main(["connect", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("connect", "defect_tol", "abc"),
    ("connect", "defect_tol", -1e-3),
    ("connect", "refine_well", False),
    ("connect", "potential", {"name": "planar_two_well", "beta": "abc"}),
    ("connect", "potential", {"name": "planar_two_well", "kappa": float("nan")}),
    ("double", "defect_tol", "abc"),
    ("double", "residual_tol", 0.0),
    ("double", "symmetry", "odd_first"),
    ("double", "quotient", "translations"),
    ("double", "mode", "asym"),
    ("double", "mode", "both"),
    ("double", "m", 5),
    ("double", "m", 10),
    ("double", "opts", [1]),
    ("double", "opts", "abc"),
    ("double", "opts", {"n_out": 17.0}),
    ("double", "opts", {"n_out": 5}),
    ("double", "opts", {"path_nodes": 65}),
    ("double", "opts", {"t_max": float("nan")}),
    ("double", "opts", {"t_max": 0.0}),
    ("double", "beta", 2.0),
    ("double", "kappa", 1.0),
    ("double", "s_max", -1.0),
    ("double", "example", "bogus"),
    ("double", "example", ["sin"]),
    ("connect", "wells", [[-1.0, 0.0], [1.0, 0.0]]),
    ("connect", "wells", [[-1.0], [1.0, 0.0]]),
    ("connect", "wells", [[-1.0], [float("inf")]]),
    ("connect", "wells", [[-1.0], [True]]),
    ("connect", "wells", [-1.0, 1.0]),
    ("connect", "refine_wells", "false"),
    ("connect", "refine_wells", 0),
    ("connect", "solver", {"via_points": [[0.0]]}),
    ("connect", "solver", {"via_points": [[float("nan"), 1.0]]}),
    ("connect", "solver", {"via_points": [0.0]}),
    ("connect", "wells", [[-1.0], [-0.9]]),
    # integers too large for a float
    pytest.param("connect", "defect_tol", 10 ** 400, id="connect-defect_tol-huge_int"),
    pytest.param("double", "defect_tol", 10 ** 400, id="double-defect_tol-huge_int"),
    pytest.param("counterexample", "radii", [4.0, 10 ** 400], id="counterexample-radii-huge_int"),
    pytest.param("connect", "wells", [[-1.0], [10 ** 400]], id="connect-wells-huge_int"),
    ("connect", "via_points", [[0.0]]),
    ("connect", "via_points", [[float("nan"), 1.0]]),
    ("connect", "via_points", [0.0]),
    ("connect", "via_points", "abc"),
])
def test_bad_tolerances_and_keys_exit_before_any_work(tmp_path, command, key, value):
    # via points are read in dimension 2 and up only; no connect reads a solver
    base = {"connect": PLANAR_CONNECT_CFG if key in ("solver", "via_points") else CONNECT_CFG,
            "double": SIN_CFG, "counterexample": COUNTER_CFG}[command]
    cfg = dict(base, **{key: value})
    out = tmp_path / "run"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("potential, wells", [
    ("double_well", [[1.0], [1.0]]),
    ("planar_two_well", [[1.0, 0.0], [1.0, 0.0]]),
])
def test_coincident_wells_exit_before_any_work(tmp_path, capsys, potential, wells):
    base = CONNECT_CFG if potential == "double_well" else PLANAR_CONNECT_CFG
    cfg = dict(base, potential={"name": potential}, wells=wells)
    out = tmp_path / "run"
    assert main(["connect", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    assert "the same well" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("solver", None, {"n_nodes": 101}),
    ("reparam", "resample", 4096),
    ("reparam", "resample_eps", 1e-9),
])
def test_a_line_connect_rejects_the_descent_keys(tmp_path, capsys, section, key, value):
    # and so does a connect in dimension 2, which no longer runs the descent
    for base in (CONNECT_CFG, PLANAR_CONNECT_CFG):
        cfg = json.loads(json.dumps(base))
        if key is None:
            cfg[section] = value
        else:
            cfg[section][key] = value
        out = tmp_path / "run"
        assert main(["connect", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
        assert repr(key or section) in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("section", ["solver", "reparam"])
def test_connect_sections_must_be_objects(tmp_path, section):
    cfg = dict(PLANAR_CONNECT_CFG if section == "solver" else CONNECT_CFG, **{section: [1, 2]})
    out = tmp_path / "run"
    assert main(["connect", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    assert not out.exists()


def test_counterexample_run_and_verify(tmp_path):
    cfg = write_cfg(tmp_path, COUNTER_CFG)
    out = str(tmp_path / "ce")
    assert main(["counterexample", "--config", cfg, "--out", out]) == 0
    for name in ("candidates.npy", "boxed.npy", "manifest.json"):
        assert (tmp_path / "ce" / name).exists()
    manifest = json.loads((tmp_path / "ce" / "manifest.json").read_text())
    assert manifest["results"]["g_infinity"] == pytest.approx(1.5)
    assert manifest["results"]["infimum"] == pytest.approx(3.0)
    assert manifest["results"]["candidates_strictly_decreasing"]
    assert manifest["results"]["boxed_above_bound"]
    assert manifest["results"]["bracket_widths_decreasing"]
    assert len(manifest["results"]["bracket_rel_width"]) == len(COUNTER_CFG["radii"])
    assert "statuses" not in manifest["results"]
    assert main(["verify", out]) == 0


def _counterexample_run(tmp_path):
    out = tmp_path / "ce"
    assert main(["counterexample", "--config", write_cfg(tmp_path, COUNTER_CFG),
                 "--out", str(out)]) == 0
    return out


def test_counterexample_verify_recomputes_the_candidates(tmp_path):
    out = _counterexample_run(tmp_path)
    _edit_table(out, "candidates.npy", (3, 2), lambda v: np.nextafter(v, np.inf))
    assert main(["verify", str(out)]) == 5


def test_counterexample_verify_enforces_the_tail_tolerance(tmp_path):
    out = _counterexample_run(tmp_path)
    mpath = out / "manifest.json"
    manifest = json.loads(mpath.read_text())
    assert manifest["tolerances"]["candidate_tail_tol"] == 1e-2
    manifest["tolerances"]["candidate_tail_tol"] = 1e-5
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    assert main(["verify", str(out)]) == 5


def test_counterexample_verify_recomputes_the_crossing_bounds(tmp_path):
    out = _counterexample_run(tmp_path)
    # a lower bound still passes the boxed-above-bound check
    _edit_table(out, "boxed.npy", (1, 2), lambda v: v - 0.25)
    assert main(["verify", str(out)]) == 5


def test_counterexample_verify_reads_the_bound_slack(tmp_path):
    out = _counterexample_run(tmp_path)
    boxed = np.load(out / "boxed.npy")
    gap = float(np.min(boxed[:, 1] - boxed[:, 2]))
    mpath = out / "manifest.json"
    manifest = json.loads(mpath.read_text())
    # a negative slack demands the boxed lengths clear the bound by more
    # than they do
    manifest["tolerances"]["bound_slack"] = -2.0 * gap
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    assert main(["verify", str(out)]) == 5


def _compare_runs():
    spec = importlib.util.spec_from_file_location(
        "compare_runs", Path(__file__).resolve().parent.parent / "scripts" / "compare_runs.py")
    compare_runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_runs)
    return compare_runs


def test_compare_runs_reports_the_numeric_artifact_difference(tmp_path, capsys):
    compare_runs = _compare_runs()
    run_a = _counterexample_run(tmp_path)
    run_b = tmp_path / "ce_b"
    shutil.copytree(run_a, run_b)
    assert compare_runs.main([str(run_a), str(run_b)]) == 0
    old = float(np.load(run_b / "boxed.npy")[1, 1])
    new = old + 3e-12
    _edit_table(run_b, "boxed.npy", (1, 1), lambda v: new)
    capsys.readouterr()
    assert compare_runs.main([str(run_a), str(run_b)]) == 1
    out = capsys.readouterr().out.splitlines()
    # relative to the largest magnitude of the column in either table
    scale = max(np.max(np.abs(np.load(run / "boxed.npy")[:, 1]))
                for run in (run_a, run_b))
    assert len(out) == 2 and out[0].startswith("artifacts.boxed.npy: ")
    assert out[0].endswith(f"(max abs difference {new - old:.3g}, "
                           f"max rel difference {(new - old) / scale:.3g})")
    assert out[1].startswith("1 difference(s)")


def test_compare_runs_reports_the_field_table_difference(tmp_path, capsys):
    compare_runs = _compare_runs()
    cfg = write_cfg(tmp_path, SIN_CFG)
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    for out in (run_a, run_b):
        assert main(["double", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert compare_runs.main([str(run_a), str(run_b)]) == 0
    assert capsys.readouterr().out.startswith("0 difference(s)")
    old = float(np.load(run_b / "u.npy")[8, 16, -1])
    _nudge_field(run_b, (8, 16), 3e-12)
    new = float(np.load(run_b / "u.npy")[8, 16, -1])
    # an entry at rounding level near zero flips its sign: 1e-14 in a, -1e-14 in b
    for run, tiny in ((run_a, 1e-14), (run_b, -1e-14)):
        _nudge_field(run, (8, 1), tiny - float(np.load(run / "u.npy")[8, 1, -1]))
    assert compare_runs.main([str(run_a), str(run_b)]) == 1
    out = capsys.readouterr().out.splitlines()
    # each change is relative to the largest |u| of the column in either table,
    # so the sign flip reads 2e-14 of it and not 2
    scale = max(np.max(np.abs(np.load(run / "u.npy")[..., -1])) for run in (run_a, run_b))
    assert len(out) == 2 and out[0].startswith("artifacts.u.npy: ")
    assert out[0].endswith(f"(max abs difference {abs(new - old):.3g}, "
                           f"max rel difference {abs(new - old) / scale:.3g})")
    assert out[1].startswith("1 difference(s)")


def test_compare_runs_reports_the_relative_difference_of_numbers(tmp_path):
    compare_runs = _compare_runs()
    results = [{"energy": 2.0, "steps": 4, "status": "converged", "ok": True, "zero": 0.0},
               {"energy": 2.0 + 6e-9, "steps": 5, "status": "max_iters", "ok": False,
                "zero": -0.0}]
    runs = []
    for i, res in enumerate(results):
        run = tmp_path / f"run{i}"
        run.mkdir()
        (run / "manifest.json").write_text(json.dumps({"results": res}))
        runs.append(run)
    lines = compare_runs.differences(*runs)
    assert lines == [
        f"results.energy: 2.0 != {2.0 + 6e-9!r} (rel difference {6e-9 / (2.0 + 6e-9):.3g})",
        "results.ok: true != false",
        "results.status: \"converged\" != \"max_iters\"",
        "results.steps: 4 != 5 (rel difference 0.2)",
        "results.zero: 0.0 != -0.0 (rel difference nan)",
    ]


def test_counterexample_rejects_divergent_g(tmp_path):
    bad = dict(COUNTER_CFG)
    bad["g"] = {"type": "power", "p": 0.5}
    assert main(["counterexample", "--config", write_cfg(tmp_path, bad)]) == 3


@pytest.mark.parametrize("key, value", [
    ("radii", [-4.0, 8.0]),
    ("radii", [float("nan"), 8.0]),
    ("radii", "abc"),
    ("radii", []),
    ("radii", [8.0, 4.0]),
    ("radii", [4.0, 4.0]),
    ("radii", [4.0, True]),
    ("g", {"type": "power", "p": float("nan")}),
    ("g", {"type": "power", "p": "2"}),
    ("n_max", 0),
    ("n_max", 2.5),
    ("n_max", True),
    ("n_leg", 48),
    ("max_iters", 300),
])
def test_counterexample_rejects_bad_config_values(tmp_path, key, value):
    cfg = dict(COUNTER_CFG)
    cfg[key] = value
    out = tmp_path / "ce"
    assert main(["counterexample", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("radii", [
    [3.0, 5.0, 7.5],      # no wall at a candidate abscissa 2^n
    [4.0, 8.0, 300.0],    # a wall past the last candidate, 2^8 = 256
], ids=["off_powers", "past_n_max"])
def test_counterexample_walls_off_the_candidates_run_and_verify(tmp_path, radii):
    out = tmp_path / "ce"
    assert main(["counterexample", "--config", write_cfg(tmp_path, dict(COUNTER_CFG, radii=radii)),
                 "--out", str(out)]) == 0
    assert np.load(out / "boxed.npy")[:, 0].tolist() == radii
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("n_max", [21, 1023, 1024, 10 ** 400])
def test_counterexample_rejects_an_n_max_past_the_float_range(tmp_path, capsys, n_max):
    # past the quadrature's reach, n_max 20; 2^1023 is the largest power of
    # two a float holds
    out = tmp_path / "ce"
    assert main(["counterexample", "--config", write_cfg(tmp_path, dict(COUNTER_CFG, n_max=n_max)),
                 "--out", str(out)]) == 3
    assert "'n_max'" in capsys.readouterr().err
    assert not out.exists()


def test_counterexample_verify_recomputes_the_box_candidates(tmp_path):
    out = _counterexample_run(tmp_path)
    # one ulp up keeps every inequality check satisfied
    _edit_table(out, "boxed.npy", (1, 1), lambda v: np.nextafter(v, np.inf))
    assert main(["verify", str(out)]) == 5


def test_counterexample_runs_no_path_descent(tmp_path, monkeypatch):
    from hetconn import geodesic

    def refuse(*args, **kwargs):
        raise AssertionError("the counterexample ran a geodesic descent")

    # a module-level import of the name would escape the patch
    assert not hasattr(hetconn.counterexample, "minimize_k_length")
    monkeypatch.setattr(geodesic, "minimize_k_length", refuse)
    config = Path(__file__).resolve().parent.parent / "configs" / "counterexample.json"
    out = str(tmp_path / "ce")
    assert main(["counterexample", "--config", str(config), "--out", out]) == 0
    assert main(["verify", out]) == 0


def test_planar_connect_runs_one_descent(tmp_path, monkeypatch):
    from hetconn import geodesic

    calls = []
    descend = geodesic.minimize_k_length

    def counted(*args, **kwargs):
        calls.append(1)
        return descend(*args, **kwargs)

    # the run's own descent, and any an audit might import
    monkeypatch.setattr(hetconn.cli, "minimize_k_length", counted)
    monkeypatch.setattr(geodesic, "minimize_k_length", counted)
    out = tmp_path / "pl"
    assert main(["connect", "--config", write_cfg(tmp_path, PLANAR_CONNECT_CFG),
                 "--out", str(out)]) == 0
    assert len(calls) == 1


SHIPPED = Path(__file__).resolve().parent.parent / "configs"


def _shipped_connect(tmp_path, name):
    """The manifest of a shipped connect config's run, which it and its verify pass."""
    out = tmp_path / name
    assert main(["connect", "--config", str(SHIPPED / f"{name}.json"), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    return out, json.loads((out / "manifest.json").read_text())


def test_double_well_connect_is_tanh_by_quadrature(tmp_path):
    out, manifest = _shipped_connect(tmp_path, "double_well")
    results = manifest["results"]
    (leg,) = results["legs"]
    data = np.load(out / leg["curve"])
    assert np.max(np.abs(data[:, 1] - np.tanh(data[:, 0]))) <= 1e-12
    assert abs(results["dk_value"] - 4.0 / 3.0) <= 1e-12
    assert results["el_residual"] <= 7.3e-4
    assert results["solver_status"] == "converged"
    assert "solver_iters" not in results and "k_length_value" not in results


def test_triple_well_connect_is_a_chain_of_two_legs(tmp_path):
    out, manifest = _shipped_connect(tmp_path, "triple_well")
    results = manifest["results"]
    legs = results["legs"]
    assert [(leg["x_minus"], leg["x_plus"]) for leg in legs] == [([-1.0], [0.0]),
                                                                 ([0.0], [1.0])]
    for leg in legs:
        assert abs(leg["dk_value"] - 0.25) <= 1e-12
        assert abs(leg["action"] - 0.25) <= 8.9e-6
    assert results["action"] == sum(leg["action"] for leg in legs)
    assert abs(results["action_gap"]) <= 1e-5
    assert "chain of 2 legs" in manifest["warnings"][0]
    assert set(manifest["artifacts"]) == {f"{stem}_{k}.npy" for k in (1, 2)
                                          for stem in ("curve", "plot_defect")}
    # a leg's defect is the largest of the segment defects its table holds
    for k, leg in enumerate(legs, 1):
        defects = np.load(out / f"plot_defect_{k}.npy")[:, 1]
        assert defects.size == np.load(out / leg["curve"]).shape[0] - 1
        assert np.max(defects) == leg["equipartition_defect"]
    # the leg toward the middle well is u = -(1 + c e^(2t))^(-1/2), c fixed by
    # the centre, where the K-length from -1 reaches 1/8
    data = np.load(out / legs[0]["curve"])
    c = 1.0 / (1.0 - 2.0 ** -0.5) - 1.0
    assert np.max(np.abs(data[:, 1] + (1.0 + c * np.exp(2.0 * data[:, 0])) ** -0.5)) <= 1e-12


def test_verify_recomputes_the_second_leg(tmp_path, capsys):
    out, manifest = _shipped_connect(tmp_path, "triple_well")
    # an interior row of the second leg's curve
    _edit_table(out, manifest["results"]["legs"][1]["curve"], (998, 1), lambda u: u + 1e-3)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    err = capsys.readouterr().err
    assert "leg 2 equipartition defect" in err and "leg 1" not in err


@pytest.mark.parametrize("path, value, gate", [
    (("legs", 1, "dk_value"), 0.3, "results.legs[1].dk_value: recomputed"),
    (("dk_value",), 0.55, "results.dk_value: recomputed"),
    (("action_gap",), -0.05, "results.action_gap: recomputed"),
])
def test_verify_recomputes_the_legs_d_k_and_gaps(tmp_path, capsys, path, value, gate):
    # the manifest carries no checksum of its own, so an edited number there
    # fails only if verify recomputes it
    out, manifest = _shipped_connect(tmp_path, "triple_well")
    entry = manifest["results"]
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert gate in capsys.readouterr().err


def _result_path(path):
    """The name verify gives the result at ``path`` inside ``results``."""
    return "results" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


HEADLINE_EDITS = [
    ("connect", ("action",), 1.5),
    ("connect", ("equipartition_defect",), 0.5),
    ("connect", ("legs", 0, "equipartition_defect"), 0.5),
    *[("double", (key,), 0.5) for key in ("energy", "energy_direct", "energy_path",
                                          "residual_max", "residual_l2", "equip_defect",
                                          "polish_gmax", "k_length", "reduction_gap")],
]


@pytest.mark.parametrize("command, path, factor", HEADLINE_EDITS,
                         ids=[f"{c}-{'.'.join(map(str, p))}" for c, p, _ in HEADLINE_EDITS])
def test_verify_gates_the_recorded_headline_results(tmp_path, capsys, command, path, factor):
    # verify recomputes each of these bit for bit, so a manifest edit fails it
    cfg = CONNECT_CFG if command == "connect" else SIN_CFG
    out = tmp_path / "run"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    entry = manifest["results"]
    for key in path[:-1]:
        entry = entry[key]
    assert entry[path[-1]] * factor != entry[path[-1]]
    entry[path[-1]] *= factor
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert f"{_result_path(path)}: recomputed" in capsys.readouterr().err


@pytest.fixture(scope="module")
def asym_run(small_runs):
    return small_runs["planar_asym"]


SHIFT_TRACK_KEYS = ("c_minus", "c_plus", "m_total_variation", "translation_speed_c_fit",
                    "translation_speed_max_ratio")


@pytest.mark.parametrize("key", SHIFT_TRACK_KEYS)
def test_verify_recomputes_the_shift_track_results(tmp_path, capsys, asym_run, key):
    # one ulp off a result of the asym run's shift track
    out = tmp_path / "run"
    shutil.copytree(asym_run, out)
    assert main(["verify", str(out)]) == 0
    mpath = out / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["results"][key] = _nudged(manifest["results"][key])
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert f"results.{key}: recomputed" in capsys.readouterr().err


@pytest.mark.parametrize("column, gates", [
    (0, ["m_track.npy: max |recomputed - recorded|"]),
    (1, [f"results.{key}: recomputed" for key in SHIFT_TRACK_KEYS if key != "c_plus"]),
], ids=["x2", "m"])
def test_verify_reads_the_shift_track_from_m_track(tmp_path, capsys, asym_run, column, gates):
    # the second column's x2 or shift, re-signed: the shift lies in the
    # c_minus average and moves the speed audit
    out = tmp_path / "run"
    shutil.copytree(asym_run, out)
    _edit_table(out, "m_track.npy", (1, column), lambda value: value + 1e-3)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    err = capsys.readouterr().err
    assert all(gate in err for gate in gates)


@pytest.mark.parametrize("value", [401, 5000, -3])
def test_verify_rejects_a_polish_rows_the_rule_does_not_give(tmp_path, capsys, small_runs,
                                                             value):
    # the shipped planar_sym polishes 201 of its 401 x1 rows, the count that
    # polished_part gives from its mode, reflections and grid
    out = _copied_run(tmp_path, small_runs, "shipped_planar_sym")
    _edit_result(out, ("polish_rows",), lambda rows: value)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert f"results.polish_rows: recomputed 201, recorded {value}" in capsys.readouterr().err


# each recorded counterexample result, edited
COUNTER_EDITS = {
    "final_candidate": lambda value: 2.0 * value,
    "infimum": lambda value: 2.0 * value,
    "g_infinity": lambda value: 2.0 * value,
    "bracket_rel_width": lambda widths: [widths[0], _nudged(widths[1])],
    "candidates_strictly_decreasing": lambda flag: not flag,
    "boxed_above_bound": lambda flag: not flag,
    "bracket_widths_decreasing": lambda flag: not flag,
    "conclusion": lambda text: text.replace("not proven", "proven"),
}


@pytest.mark.parametrize("key", sorted(COUNTER_EDITS))
def test_verify_recomputes_every_counterexample_result(tmp_path, capsys, small_runs, key):
    out = _copied_run(tmp_path, small_runs, "counterexample")
    _edit_result(out, (key,), COUNTER_EDITS[key])
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert f"results.{key}" in capsys.readouterr().err


# a recorded result or table entry of a small run, and its edit
RECORD_EDITS = {
    "sin-boundary_convergence.npy": ("sin", "boundary_convergence.npy", _nudged),
    "connect-legs.0.window": ("connect", ("legs", 0, "window"), lambda value: 2.0 * value),
    "two_leg-legs.1.window": ("two_leg", ("legs", 1, "window"), _nudged),
}


@pytest.mark.parametrize("edit", sorted(RECORD_EDITS))
def test_verify_recomputes_the_window_gaps_and_limits(tmp_path, capsys, small_runs, edit):
    name, target, change = RECORD_EDITS[edit]
    out = _copied_run(tmp_path, small_runs, name)
    if isinstance(target, str):
        _edit_table(out, target, (3, 1), change)
        message = f"{target}: max |recomputed - recorded|"
    else:
        _edit_result(out, target, change)
        message = f"{_result_path(target)}: recomputed"
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["extra", "missing", "sym_c_minus", "connect_max_speed"])
def test_verify_rejects_results_of_other_keys(tmp_path, capsys, small_runs, edit):
    # a recorded result that verify does not recompute is refused, as is a
    # missing one; a sym run has no shift track, so no limit shift either,
    # and a connect chain records no speed audit
    out = _copied_run(tmp_path, small_runs, "two_leg" if edit.startswith("connect") else "sin")
    mpath = out / "manifest.json"
    manifest = json.loads(mpath.read_text())
    if edit == "extra":
        manifest["results"]["energy_limit"] = 2.55
    elif edit == "sym_c_minus":
        manifest["results"]["c_minus"] = 0.0
    elif edit == "connect_max_speed":
        assert len(manifest["results"]["legs"]) == 2
        manifest["results"]["max_speed"] = 1.0
    else:
        del manifest["results"]["k_length"]
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 4
    assert "results holds the keys" in capsys.readouterr().err


def _numeric_paths(value, path=()):
    """The path of every number (not a bool) inside ``value``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numeric_paths(item, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


@pytest.mark.parametrize("name", ["two_leg", "planar_sym", "planar_asym", "counterexample"])
def test_verify_recomputes_every_recorded_number(tmp_path, small_runs, name):
    # a result that a run kind gains must be recomputed by verify or be
    # named solver-only: each number nudged alone fails verify
    out = _copied_run(tmp_path, small_runs, name)
    mpath = out / "manifest.json"
    original = mpath.read_text()
    paths = [path for path in _numeric_paths(json.loads(original)["results"])
             if path[0] not in hetconn.cli.SOLVER_ONLY]
    assert len(paths) >= 5
    for path in paths:
        mpath.write_text(original)
        _edit_result(out, path, lambda value: value + 1 if isinstance(value, int)
                     else _nudged(value))
        assert main(["verify", str(out)]) == 5, path


def test_planar_connect_relaxes_the_upper_channel(tmp_path):
    out, manifest = _shipped_connect(tmp_path, "planar_connect")
    results = manifest["results"]
    assert results["solver_status"] == "converged"
    assert results["equipartition_defect"] <= 1e-3
    # the midpoint action lies above the midpoint K-length, and both near the
    # channel's whole-line value 2.115106
    assert results["action_gap"] >= 0.0
    assert abs(results["dk_value"] - 2.115106) <= 2e-4
    data = np.load(out / results["legs"][0]["curve"])
    assert np.all(data[1:-1, 2] > 0.0)


def test_planar_connect_is_the_double_fixtures_well_profile(tmp_path, planar_space):
    # two routes, one engine: the connect curve on the fixture's window and
    # grid, through (0, 1), is the fixture's relaxed z+ (its defect on this
    # coarse grid is 1.7e-3)
    cfg = dict(PLANAR_CONNECT_CFG, via_points=[[0.0, 1.0]],
               reparam={"n_samples": 401, "t_max": 8.0}, defect_tol=5e-3)
    out = tmp_path / "pl"
    assert main(["connect", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    data = np.load(out / "curve_1.npy")
    assert np.max(np.abs(data[:, 1:] - planar_space.z_plus.values)) <= 1e-12
    energy = planar_shell(data[:, 0]).energy_1d(data[:, 1:])[0]
    assert abs(energy / planar_space.ref_value - 1.0) <= 1e-12


def test_verify_recomputes_the_planar_d_k(tmp_path, capsys):
    out = tmp_path / "pl"
    assert main(["connect", "--config", write_cfg(tmp_path, PLANAR_CONNECT_CFG),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    results = manifest["results"]
    (leg,) = results["legs"]
    # a d_K edited together with the gaps and the sums that follow from it:
    # only a recomputed d_K tells it from the run's
    data = np.load(out / leg["curve"])
    curve = hetconn.SampledCurve(times=data[:, 0], nodes=data[:, 1:])
    action = hetconn.heteroclinic.equipartition(
        curve, hetconn.EuclideanSpace(2),
        hetconn.planar_two_well().values_at(hetconn.metric.midpoints(curve)))[0]
    dk = leg["dk_value"] + 1e-6
    leg["dk_value"] = results["dk_value"] = dk
    leg["action_gap"] = results["action_gap"] = action - dk
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert "results.legs[0].dk_value: recomputed" in capsys.readouterr().err


def test_a_planar_connect_that_does_not_converge_exits_1(tmp_path, monkeypatch, capsys):
    from hetconn import function_space

    monkeypatch.setattr(function_space, "RELAX_STEPS", 1)
    cfg = dict(PLANAR_CONNECT_CFG, via_points=[[0.0, 1.0]])
    out = tmp_path / "pl"
    assert main(["connect", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert "profile relaxation max_iters" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("name", ["double_well", "triple_well"])
def test_a_line_connect_runs_no_descent_and_no_resample(tmp_path, monkeypatch, name):
    from hetconn import geodesic, heteroclinic

    def refuse(*args, **kwargs):
        raise AssertionError("a connect on the line ran a descent or a resample")

    for module in (hetconn.cli, geodesic):
        monkeypatch.setattr(module, "minimize_k_length", refuse)
    monkeypatch.setattr(heteroclinic, "reparam_equipartition", refuse)
    _shipped_connect(tmp_path, name)


def test_counterexample_run_gates_the_tail_tolerance(tmp_path, capsys):
    out = tmp_path / "ce"
    cfg = write_cfg(tmp_path, dict(COUNTER_CFG, n_max=1))
    assert main(["counterexample", "--config", cfg, "--out", str(out)]) == 5
    assert "candidate_tail_tol" in capsys.readouterr().err
    # the run still writes its artifacts and manifest
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"candidates.npy", "boxed.npy"}
    assert manifest["results"]["final_candidate"] - manifest["results"]["infimum"] > 1e-2
    assert main(["verify", str(out)]) == 5


def test_double_sin_run_and_verify(tmp_path):
    cfg = write_cfg(tmp_path, SIN_CFG)
    out = str(tmp_path / "dbl")
    assert main(["double", "--config", cfg, "--out", out]) == 0
    for name in ("u.npy", "x1.npy", "boundary_convergence.npy", "manifest.json"):
        assert (tmp_path / "dbl" / name).exists()
    manifest = json.loads((tmp_path / "dbl" / "manifest.json").read_text())
    assert manifest["kind"] == "double"
    # a sym solve tracks no shift, so it records no limit shifts
    assert not {"c_minus", "c_plus"} & set(manifest["results"])
    assert main(["verify", out]) == 0


def _shipped_config(name):
    return _load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")


# each double run, whether it is polished on half its x2 window and whether
# on half its x1 rows: a field with signed mirror wells z- = sigma z+ on an
# odd x2 grid is polished on x2 >= 0, the sine fixture's (sigma = -1) and the
# planar one's (sigma = (1, -1)) alike, and a sym field on an odd x1 grid on
# its rows from the centre on, with the fixture's x1 parity (+1 about pi/2
# for the sine strip, (-1, +1) about 0 for the planar family)
HALF_WINDOW_RUNS = {
    "sin": (SIN_CFG, True, True),
    "sin_even_n_out": (dict(SIN_CFG, opts={"n_out": 16, "t_max": 3.0}), False, True),
    "sin_even_m": (dict(SIN_CFG, m=32), True, False),
    "planar_sym": (PLANAR_CFG, True, True),
    "planar_sym_even_m": (dict(PLANAR_CFG, m=100), True, False),
    "planar_asym": (dict(PLANAR_CFG, mode="asym"), True, False),
    "shipped_sin": ("sin_example", True, True),
    "shipped_planar_sym": ("planar_sym", True, True),
    "shipped_planar_asym": ("planar_asym", True, False),
}


@pytest.mark.parametrize("name", sorted(HALF_WINDOW_RUNS))
def test_a_double_is_polished_on_half_of_each_axis_it_mirrors(tmp_path, monkeypatch, name):
    cfg, half_columns, half_rows = HALF_WINDOW_RUNS[name]
    if isinstance(cfg, str):
        cfg = _shipped_config(cfg)
    polish = hetconn.double_connection._polish_field
    shapes = []

    def counted(space, u0, *args):
        shapes.append(u0.shape[:2])
        return polish(space, u0, *args)

    monkeypatch.setattr(hetconn.double_connection, "_polish_field", counted)
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    p, m = cfg["opts"]["n_out"], cfg["m"]
    expected = (p // 2 + 1 if half_columns else p, (m + 1) // 2 if half_rows else m)
    assert shapes == [expected]
    results = json.loads((out / "manifest.json").read_text())["results"]
    assert (results["polish_columns"], results["polish_rows"]) == expected
    assert results["x1_reflection"] == ([1] if cfg["example"] == "sin" else [-1, 1])
    assert main(["verify", str(out)]) == 0


def _set_polish_columns(run_dir, value):
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["results"]["polish_columns"] = value
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def test_verify_checks_the_x2_reflection_that_a_half_window_run_claims(tmp_path, capsys):
    # planar's half-window field is (u1, -u2) at -x2, not odd in x2: the
    # gate reads u1 even and u2 odd about the centre column
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, PLANAR_CFG), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["results"]["x2_reflection"] == [1, -1]
    capsys.readouterr()
    assert main(["verify", "--verbose", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "max |(u1, -u2)(x1, -x2) - u(x1, x2)| of a half-window solve 0 " in printed
    # the x2 grid is the config's mirror_grid, which verify compares bit for
    # bit: its mirror needs no gate of its own
    x2 = np.load(out / "boundary_convergence.npy")[:, 0]
    opts = PLANAR_CFG["opts"]
    assert np.array_equal(x2, mirror_grid(-opts["t_max"], opts["t_max"], opts["n_out"]))
    assert np.array_equal(x2, -x2[::-1])
    assert "x2 + x2 reversed" not in printed
    # u1 moved the same way at a node and its mirror keeps the reflection
    # (the recomputed energies fail); u2 moved so breaks it
    _nudge_field(out, (3, 8), 1e-9, component=0)
    _nudge_field(out, (-4, 8), 1e-9, component=0)
    assert main(["verify", str(out)]) == 5
    assert "of a half-window solve" not in capsys.readouterr().err
    _nudge_field(out, (3, 8), 1e-9)
    _nudge_field(out, (-4, 8), 1e-9)
    assert main(["verify", str(out)]) == 5
    assert "(u1, -u2)(x1, -x2) - u(x1, x2)| of a half-window solve" in capsys.readouterr().err


def test_verify_rejects_a_planar_half_window_field_with_one_u1_node_moved(tmp_path, capsys):
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, PLANAR_CFG), "--out", str(out)]) == 0
    # u1 is free on the centre column; move it there, at one node only
    centre = PLANAR_CFG["opts"]["n_out"] // 2
    _nudge_field(out, (centre + 1, 8), 1e-9, component=0)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert "(u1, -u2)(x1, -x2) - u(x1, x2)| of a half-window solve" in capsys.readouterr().err


def test_verify_rejects_a_half_window_run_whose_x2_is_not_antisymmetric(tmp_path, capsys):
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, PLANAR_CFG), "--out", str(out)]) == 0
    path = out / "boundary_convergence.npy"
    table = np.load(path)
    # one x2 node moved by less than the step: the run's x2 grid is no
    # longer the config's
    table[3, 0] += 1e-9
    np.save(path, table)
    _resign(out, "boundary_convergence.npy")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    err = capsys.readouterr().err
    assert "boundary_convergence.npy: max |recomputed - recorded| 1e-09" in err


@pytest.mark.parametrize("value", [[1, 1], [-1, 1], None])
def test_verify_rejects_a_recorded_x2_reflection_the_field_does_not_have(tmp_path, capsys,
                                                                        value):
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, PLANAR_CFG), "--out", str(out)]) == 0
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["results"]["x2_reflection"] = value
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert "results.x2_reflection" in capsys.readouterr().err


def test_verify_rejects_a_half_window_field_that_is_not_odd(tmp_path, capsys):
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, SIN_CFG), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--verbose", str(out)]) == 0
    assert "max |u(x1, -x2) + u(x1, x2)| of a half-window solve 0 " in capsys.readouterr().out
    # one interior node and its mirror moved the same way
    _nudge_field(out, (3, 8), 1e-9)
    _nudge_field(out, (-4, 8), 1e-9)
    assert main(["verify", str(out)]) == 5
    assert "of a half-window solve" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["9", 9.0, True, None])
def test_verify_rejects_a_polish_columns_that_is_not_an_integer(tmp_path, capsys, value):
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, SIN_CFG), "--out", str(out)]) == 0
    _set_polish_columns(out, value)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 4
    assert "polish_columns must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["101", 51.0, False, None])
def test_verify_rejects_a_polish_rows_that_is_not_an_integer(tmp_path, capsys, value):
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, PLANAR_CFG), "--out", str(out)]) == 0
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["results"]["polish_rows"] = value
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 4
    assert "polish_rows must be an integer" in capsys.readouterr().err


X1_GATE = "(-u1, u2)(x1*, x2) - u(x1, x2)| of an x1-half solve"


def test_verify_checks_the_x1_reflection_that_an_x1_half_run_claims(tmp_path, capsys):
    # planar's quarter field is (-u1, u2) at the x1 mirror x1* = -x1
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, PLANAR_CFG), "--out", str(out)]) == 0
    results = json.loads((out / "manifest.json").read_text())["results"]
    assert (results["polish_rows"], results["x1_reflection"]) == (51, [-1, 1])
    capsys.readouterr()
    assert main(["verify", "--verbose", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"max |{X1_GATE} 0 " in printed
    # the x1 grid is the fixture's mirror_grid, compared bit for bit
    x1 = np.load(out / "x1.npy")[:, 0]
    # on the default window s_max = 8
    assert np.array_equal(x1, mirror_grid(-8.0, 8.0, PLANAR_CFG["m"]))
    assert np.array_equal(x1[0] + x1[-1] - x1, x1[::-1])
    assert "x1 reversed" not in printed
    # u1 moved the same way at a node and its x2 mirror keeps the x2
    # reflection; it breaks the x1 one
    _nudge_field(out, (3, 8), 1e-9, component=0)
    _nudge_field(out, (-4, 8), 1e-9, component=0)
    assert main(["verify", str(out)]) == 5
    err = capsys.readouterr().err
    assert X1_GATE in err and "of a half-window solve" not in err


def test_verify_checks_the_x1_reflection_of_the_sine_strip(tmp_path, capsys):
    # the sine strip's field is even about x1 = pi / 2
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, SIN_CFG), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--verbose", str(out)]) == 0
    assert ("max |u(x1*, x2) - u(x1, x2)| of an x1-half solve 0 "
            in capsys.readouterr().out)
    # a node and its x2 mirror moved so that the x2 reflection holds
    _nudge_field(out, (3, 5), 1e-9)
    _nudge_field(out, (-4, 5), -1e-9)
    assert main(["verify", str(out)]) == 5
    err = capsys.readouterr().err
    assert "u(x1*, x2) - u(x1, x2)| of an x1-half solve" in err
    assert "of a half-window solve" not in err


def test_verify_rejects_an_x1_half_run_whose_x1_is_not_a_mirror(tmp_path, capsys):
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, PLANAR_CFG), "--out", str(out)]) == 0
    path = out / "x1.npy"
    table = np.load(path)
    # one x1 node moved by far less than the step: the planar density does
    # not read x1, so only x1.npy, compared with the config's grid, sees it
    table[30, 0] += 1e-12
    np.save(path, table)
    _resign(out, "x1.npy")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    err = capsys.readouterr().err
    assert "x1.npy: max |recomputed - recorded| 1e-12" in err
    assert err.count("recomputed") == 1


@pytest.mark.parametrize("cfg", [dict(SIN_CFG, m=35),
                                 dict(PLANAR_CFG, m=33, s_max=5.5, opts={"n_out": 19,
                                                                         "t_max": 2.5})],
                         ids=["sin", "planar"])
def test_the_fixture_solves_on_the_grids_that_verify_takes(cfg):
    _, _, opts, x1, x2, fixture, shell = hetconn.cli._double_setup(cfg)
    space = fixture()
    assert space.grid.tobytes() == x1.tobytes() == shell(x1).grid.tobytes()
    result = hetconn.double_connection.solve_symmetric(space, opts)
    assert result.space.grid.tobytes() == x1.tobytes() and result.x2.tobytes() == x2.tobytes()


SHIPPED =Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    """A run directory of the shipped configs that ``NOT_THE_CONFIGS_RUN`` edits."""
    runs = {}
    for command, name in (("double", "sin_example"), ("double", "planar_sym"),
                          ("connect", "double_well"), ("connect", "planar_connect")):
        out = tmp_path_factory.mktemp(name) / "run"
        assert main([command, "--config", str(SHIPPED / f"{name}.json"), "--out",
                     str(out)]) == 0
        runs[name] = out
    return runs


def _set_sin_grids(cfg):
    cfg["m"] = 33
    cfg["opts"].update(n_out=17, t_max=3.0)


# each edits the config that a shipped run records, so that it gives other
# grids or another mode than the run's, and names what verify reports
NOT_THE_CONFIGS_RUN = {
    "sin_grids": ("sin_example", _set_sin_grids,
                  "u.npy holds a field (x2, x1, component) of shape (257, 257, 1), and "
                  "the config's is (17, 33, 1)"),
    "sin_m": ("sin_example", lambda cfg: cfg.update(m=255), "the config's is (257, 255, 1)"),
    "sin_n_out": ("sin_example", lambda cfg: cfg["opts"].update(n_out=255),
                  "the config's is (255, 257, 1)"),
    "sin_t_max": ("sin_example", lambda cfg: cfg["opts"].update(t_max=4.5),
                  "boundary_convergence.npy: max |recomputed - recorded|"),
    "planar_sym_mode": ("planar_sym", lambda cfg: cfg.update(mode="asym"),
                        "the manifest's mode 'sym' is not the config's 'asym'"),
    "double_well_reparam": ("double_well",
                            lambda cfg: cfg["reparam"].update(n_samples=11, t_max=2.0),
                            "curve_1.npy has 2001 rows, and the config's "
                            "reparam.n_samples is 11"),
    "double_well_t_max": ("double_well", lambda cfg: cfg["reparam"].update(t_max=2.0),
                          "leg 1 window - reparam.t_max 8 (tolerance 0)"),
    "planar_connect_t_max": ("planar_connect",
                             lambda cfg: cfg["reparam"].update(t_max=17.0),
                             "leg 1 |window - reparam.t_max| 1 (tolerance 0)"),
}


@pytest.mark.parametrize("case", sorted(NOT_THE_CONFIGS_RUN))
def test_verify_rejects_a_run_whose_grids_or_mode_are_not_its_config_s(
        tmp_path, capsys, shipped_runs, case):
    name, edit, message = NOT_THE_CONFIGS_RUN[case]
    out = tmp_path / "run"
    shutil.copytree(shipped_runs[name], out)
    assert main(["verify", str(out)]) == 0
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["config"])
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", [[1, 1], [1, -1], [-1], None])
def test_verify_rejects_a_recorded_x1_reflection_the_fixture_does_not_have(tmp_path, capsys,
                                                                          value):
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, PLANAR_CFG), "--out", str(out)]) == 0
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["results"]["x1_reflection"] = value
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert "results.x1_reflection" in capsys.readouterr().err


def test_main_builds_its_parser_once_per_process(tmp_path, capsys):
    hetconn.cli._parser.cache_clear()
    missing = str(tmp_path / "missing")
    assert main(["verify", missing]) == main(["verify", "--out", missing]) == 4
    info = hetconn.cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # a usage error still exits 2, from the same parser
    for argv in (["frobnicate"], ["double", "--bogus"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert hetconn.cli._parser.cache_info().misses == 1


def test_a_double_run_and_its_verify_leave_scipy_linalg_and_fft_out(tmp_path):
    # each of the two costs about 0.3 s of import on every CLI call
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from hetconn.cli import main; "
            "codes = [main(a) for a in json.loads(sys.argv[2])]; "
            "print(codes, 'scipy.linalg' in sys.modules, 'scipy.fft' in sys.modules)")
    calls = []
    for name, cfg in (("sin", SIN_CFG), ("planar", PLANAR_CFG)):
        out = str(tmp_path / name)
        calls += [["double", "--config", write_cfg(tmp_path, cfg, name + ".json"), "--out", out],
                  ["verify", out]]
    out = subprocess.run([sys.executable, "-c", code, str(src), json.dumps(calls)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[0,", "0,", "0,", "0]", "False", "False"]


def test_connect_and_verifies_leave_numpy_ma_out(tmp_path):
    # np.unique loads numpy.ma on its first call, several ms of every CLI process
    double_out = str(tmp_path / "dbl")
    assert main(["double", "--config", write_cfg(tmp_path, SIN_CFG, "sin.json"),
                 "--out", double_out]) == 0
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from hetconn.cli import main; "
            "codes = [main(a) for a in json.loads(sys.argv[2])]; "
            "print(codes, 'numpy.ma' in sys.modules)")
    connect_out = str(tmp_path / "run")
    calls = [["connect", "--config", write_cfg(tmp_path, CONNECT_CFG), "--out", connect_out],
             ["verify", connect_out], ["verify", double_out]]
    out = subprocess.run([sys.executable, "-c", code, str(src), json.dumps(calls)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[0,", "0,", "0]", "False"]


# runs every CLI command and the library's numerical audits with scipy unimportable
SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
import numpy as np
from hetconn import GridFunction, double_well, spectral_audit
from hetconn.cli import main
codes = [main(a) for a in json.loads(sys.argv[2])]
s = np.linspace(-8.0, 8.0, 101)
z = GridFunction(s=s, values=np.tanh(s), tail_left=[-1.0], tail_right=[1.0])
gap = spectral_audit(z, double_well()).c0_est
print(json.dumps({"codes": codes, "values": [gap],
                  "scipy": sorted(name for name, module in sys.modules.items()
                                  if name.startswith("scipy") and module is not None)}))
"""


def test_every_command_and_audit_runs_without_scipy(tmp_path):
    asym = dict(PLANAR_CFG, mode="asym")
    calls = []
    for command, name, cfg in (("connect", "conn", CONNECT_CFG), ("double", "sin", SIN_CFG),
                               ("double", "sym", PLANAR_CFG), ("double", "asym", asym),
                               ("counterexample", "ce", COUNTER_CFG)):
        out = str(tmp_path / name)
        calls += [[command, "--config", write_cfg(tmp_path, cfg, name + ".json"), "--out", out],
                  ["verify", out]]
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED, str(src), json.dumps(calls)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["codes"] == [0] * len(calls)
    (gap,) = report["values"]
    assert 2.9 < gap < 3.1
    assert report["scipy"] == []


def test_double_manifest_always_records_the_polish(tmp_path):
    out = str(tmp_path / "dbl")
    assert main(["double", "--config", write_cfg(tmp_path, SIN_CFG), "--out", out]) == 0
    manifest = json.loads((tmp_path / "dbl" / "manifest.json").read_text())
    results = manifest["results"]
    assert {"polish_steps", "polish_gmax", "solver_status", "polish_cg_products"} <= set(results)
    assert results["solver_status"] == "converged"
    assert results["polish_cg_products"] >= results["polish_steps"] > 0
    assert results["polish_gmax"] <= manifest["tolerances"]["polish_gtol"]
    # the geodesic certificate: the field's columns as a profile path
    assert results["reduction_gap"] == abs(results["energy"] - results["k_length"])
    assert main(["verify", out]) == 0


def test_polish_over_its_tolerance_fails_run_and_verify(tmp_path, monkeypatch):
    monkeypatch.setattr(hetconn.double_connection, "POLISH_STEPS", 1)
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, SIN_CFG), "--out", str(out)]) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["solver_status"] == "max_iters"
    assert manifest["results"]["polish_gmax"] > manifest["tolerances"]["polish_gtol"]
    assert set(manifest["artifacts"]) == {"u.npy", "x1.npy", "boundary_convergence.npy"}
    assert main(["verify", str(out)]) == 5


def test_double_run_over_its_residual_tol_fails_run_and_verify(tmp_path, capsys):
    cfg = dict(SIN_CFG, residual_tol=1e-12)
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 5
    assert "interior residual max" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["residual_max"] > manifest["tolerances"]["residual_tol"]
    assert main(["verify", str(out)]) == 5
    assert "interior residual max" in capsys.readouterr().err


def test_double_run_over_its_defect_tol_fails_run_and_verify(tmp_path, capsys):
    cfg = dict(SIN_CFG, defect_tol=1e-6)
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 5
    assert "x2 equipartition defect" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"u.npy", "x1.npy", "boundary_convergence.npy"}
    assert manifest["results"]["equip_defect"] > manifest["tolerances"]["defect_tol"]
    assert main(["verify", str(out)]) == 5
    assert "x2 equipartition defect" in capsys.readouterr().err


@pytest.mark.parametrize("example, key, value", [
    ("planar", "s_max", float("nan")),
    ("planar", "s_max", 0.0),
    ("planar", "s_max", -8.0),
    ("planar", "beta", float("inf")),
    ("planar", "beta", 0.0),
    ("planar", "kappa", -1.0),
    ("planar", "kappa", float("nan")),
    ("planar", "m", 2),
    ("planar", "m", 33.5),
    ("sin", "m", 2),
    ("sin", "m", "33"),
    ("sin", "m", True),
])
def test_double_rejects_bad_fixture_values(tmp_path, example, key, value):
    cfg = dict(SIN_CFG, example=example, m=33)
    cfg[key] = value
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    assert not out.exists()


def test_verify_recomputes_the_double_residual(tmp_path, capsys):
    # loose defect tolerance: only the recomputed residual can fail
    cfg = dict(SIN_CFG, residual_tol=0.05)
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    # the node at x1 index 16, x2 index 8: inside the residual margin
    _nudge_field(out, (8, 16), 1e-3)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert "interior residual max" in capsys.readouterr().err


def test_verify_recomputes_the_free_gradient(tmp_path, capsys):
    cfg = dict(SIN_CFG, residual_tol=0.05)
    out = tmp_path / "dbl"
    assert main(["double", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    # an interior node; a 1e-6 nudge moves the residual far less than residual_tol
    _nudge_field(out, (8, 16), 1e-6)
    capsys.readouterr()
    assert main(["verify", "--verbose", str(out)]) == 5
    captured = capsys.readouterr()
    assert "max free gradient" in captured.err
    assert "interior residual max" in captured.out


def test_shipped_double_configs_build_their_options():
    configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    doubles = [_load_config(c) for c in configs if "example" in _load_config(c)]
    assert len(doubles) == 3
    for cfg in doubles:
        # the keys cmd_double accepts
        assert set(cfg) <= hetconn.cli.DOUBLE_KEYS[cfg["example"]]
        assert set(cfg["opts"]) <= set(hetconn.DoubleOptions.__dataclass_fields__)
        hetconn.DoubleOptions(**cfg["opts"])


def test_double_asym_needs_the_planar_example(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, dict(SIN_CFG, mode="asym"))
    assert main(["double", "--config", cfg, "--out", str(out)]) == 3
    assert "needs example 'planar'" in capsys.readouterr().err
    assert not out.exists()
    # the config's mode is the one switch: there is no flag to override it
    with pytest.raises(SystemExit):
        main(["double", "--help"])
    assert "--mode" not in capsys.readouterr().out


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
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["columns"]["curve_1.npy"] == ["t", "u1"]
    data = np.load(tmp_path / "run" / "curve_1.npy")
    assert data.shape == (201, 2)
    # the window truncates the tails at t_max = 6, so the ends sit at
    # tanh(-6) rather than the well itself
    assert data[0, 1] == pytest.approx(-1.0, abs=1e-4)
    assert data[-1, 1] == pytest.approx(1.0, abs=1e-4)
