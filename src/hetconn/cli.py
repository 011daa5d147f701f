"""Command line front end: configs in, run directories out.

Every run writes a manifest.json carrying the embedded config, library
versions, every tolerance used, headline results, and sha256 checksums of
the emitted artifacts.  CSV/TSV artifacts are plain text with %.17g floats;
a double run's field is one binary ``u.npy`` table.  The pipeline draws no
random numbers, so reruns of the same config are bit-identical.  A connect
run is a chain of legs, one per pair of adjacent wells on the line and one
in higher dimensions, each with its own curve artifacts.  ``verify``
recomputes each leg's equipartition defect, action and action gap from its
curve with the same routines the run uses, and on the line its d_K from its
ends; each must equal the recorded one bit for bit, and so must their sums
over the legs.  For a double run it builds no fixture: the effective
space comes from the config on the field's x1 grid, and the reference is the
1D action of the field's last column, the z+ well profile, which must equal
the ``ref_value`` the run recorded bit for bit.  Exit codes: 0 success, 2
solver stall (connect), 3 config error (raised before any run directory is
made), 4 checksum or schema failure (verify), 5 failing check: a connect
run's equipartition defect over its tolerance or a leg's action, d_K or
action gap not matching the recorded one, a double run's reference
action not matching the recorded one, a double run whose x2 equipartition
defect, Newton-CG gradient, residual or energy two ways missed its
tolerance, or a broken counterexample invariant.  A run writes its
artifacts and manifest before it exits 5, and ``verify`` gates the same
checks, recomputed from the artifacts; a counterexample ``verify`` also
requires every recomputed candidate length and box bracket bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .counterexample import CounterexampleWeight, nonexistence_report
from .double_connection import (
    POLISH_GTOL,
    RESIDUAL_MARGIN,
    DoubleOptions,
    assemble_and_verify,
    audit_translation_speed,
    field_residuals,
    free_gradient_max,
    planar_effective_space,
    planar_shell,
    sin_example_space,
    sin_shell,
    solve_asymmetric,
    solve_symmetric,
    x2_defect,
)
from .geodesic import WEIGHT_FLOOR, SolverOptions, minimize_k_length, remove_sigma_loops
from .heteroclinic import (
    equipartition,
    line_connection,
    line_legs,
    reparam_equipartition,
    verify_connection,
)
from .metric import SampledCurve, midpoints, segment_k_lengths
from .potentials import (
    double_well,
    make_weight,
    planar_two_well,
    refine_wells,
    triple_well,
)
from .regularity import second_difference_bound, uniform_bounds_audit

EXIT_OK = 0
EXIT_STALL = 2
EXIT_CONFIG = 3
EXIT_CHECKSUM = 4
EXIT_EQUIPARTITION = 5

# configs and run manifests carry separate schema versions
CONFIG_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 3


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"config field 'schema_version' must be {CONFIG_SCHEMA_VERSION}, got {version!r}"
        )
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config field '{key}' is missing")
    return cfg[key]


def _known_keys(cfg: dict, keys: set, what: str) -> None:
    """ConfigError naming ``what`` if ``cfg`` has a key outside ``keys``."""
    unknown = set(cfg) - keys
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _section(cfg: dict, name: str, keys: set) -> dict:
    """The object ``cfg[name]`` ({} if absent); ConfigError if it is not one or has unknown keys."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config field '{name}' must be an object")
    _known_keys(section, keys, name)
    return section


def _integer(cfg: dict, key: str, default: int, minimum: int, where: str = "") -> int:
    """``cfg[key]`` (or ``default``), an integer >= ``minimum``; ``where`` prefixes error keys."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(
            f"config field '{where}{key}' must be an integer >= {minimum}, got {value!r}")
    return value


def _positive(cfg: dict, key: str, default: float, where: str = "") -> float:
    """``cfg[key]`` (or ``default``) as a finite float > 0."""
    try:
        value = float(cfg.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config field '{where}{key}' must be a number: {exc}") from exc
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(
            f"config field '{where}{key}' must be finite and > 0, got {value!r}")
    return value


def _is_finite(value) -> bool:
    """Whether ``value`` is a JSON number (not a bool) that is finite as a float;
    an integer too large for a float is not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _points(value, dim: int, field: str) -> list:
    """``value``, a list of points of ``dim`` finite numbers each, as float arrays;
    ConfigError naming ``field`` otherwise."""
    if not (isinstance(value, list)
            and all(isinstance(v, list) and len(v) == dim
                    and all(_is_finite(x) for x in v) for v in value)):
        raise ConfigError(f"config field '{field}' must list points of {dim} finite "
                          f"numbers each, got {value!r}")
    return [np.array(v, dtype=float) for v in value]


def _build_potential(spec) -> object:
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("config field 'potential' needs a 'name'")
    name = spec["name"]
    if name == "double_well":
        return double_well()
    if name == "triple_well":
        return triple_well()
    if name == "planar_two_well":
        return planar_two_well(beta=_positive(spec, "beta", 1.0, "potential."),
                               kappa=_positive(spec, "kappa", 1.0, "potential."))
    raise ConfigError(f"unknown potential '{name}'")


# rows formatted per write: bounds the Python floats and text held at once
ROWS_PER_WRITE = 4096


def _write_table(path, head, table, delimiter=",") -> None:
    """The ``head`` lines, then one line of %.17g floats per row of ``table``.

    Blocks of rows are formatted with one format string each.
    """
    table = np.asarray(table, dtype=float)
    row = delimiter.join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in head)
        for start in range(0, table.shape[0], ROWS_PER_WRITE):
            block = table[start:start + ROWS_PER_WRITE]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hetconn": __version__,
    }


def _finish_manifest(out_dir, manifest, artifacts, t_start) -> None:
    manifest["artifacts"] = {
        name: _sha256(os.path.join(out_dir, name)) for name in artifacts
    }
    manifest["runtime_seconds"] = time.time() - t_start
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_table(path, delimiter=","):
    """(comments, column names, data array) from one of our CSV/TSV files.

    Comment lines precede the column-name row; the rows after it are parsed
    by ``np.loadtxt`` into an array of shape (rows, columns).
    """
    comments = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif line:
                header = line.split(delimiter)
                break
        else:
            raise ValueError(f"{path} has no header row")
        data = np.loadtxt(fh, delimiter=delimiter, ndmin=2)
    return comments, header, data


def _read_field(path):
    """(x1, x2, u) of a double run's ``u.npy`` table.

    ValueError unless it is a little-endian float64 array (M, P, 2 + n),
    n >= 1, holding (x1_i, x2_j, u[i, j]) at [i, j] on a tensor grid whose
    x1 and x2 each have at least two strictly increasing nodes.
    """
    table = np.load(path, allow_pickle=False)
    if table.dtype != np.dtype("<f8") or table.ndim != 3 or table.shape[2] < 3:
        raise ValueError(f"{path} holds a {table.dtype} array of shape {table.shape}, "
                         "not a float64 (M, P, 2 + n) table")
    x1, x2 = table[:, 0, 0], table[0, :, 1]
    if not (x1.size > 1 and x2.size > 1
            and np.all(table[..., 0] == x1[:, None]) and np.all(table[..., 1] == x2)
            and np.all(x1[1:] > x1[:-1]) and np.all(x2[1:] > x2[:-1])):
        raise ValueError(f"{path} is not a tensor grid with strictly increasing x1 and x2")
    return x1, x2, table[..., 2:]


# ---------------------------------------------------------------------------
# connect

# the settable keys of a connect config and of its reparam object, per
# dimension: the line needs no descent, so only dimension 2 and up reads the
# solver and the resample
CONNECT_KEYS = {1: {"schema_version", "potential", "wells", "refine_wells", "reparam",
                    "defect_tol"}}
CONNECT_KEYS[2] = CONNECT_KEYS[1] | {"solver"}
REPARAM_KEYS = {1: {"n_samples", "t_max"}}
REPARAM_KEYS[2] = REPARAM_KEYS[1] | {"resample", "resample_eps"}
SOLVER_KEYS = {"n_nodes", "max_iters", "grad_tol", "via_points"}


def _within(gates, verbose: bool) -> bool:
    """Whether each (name, value, tolerance) of ``gates`` has value <= tolerance (NaN fails).

    A failing gate is printed to stderr, a passing one to stdout if ``verbose``.
    """
    ok = True
    for name, value, tol in gates:
        passed = value <= tol
        if verbose or not passed:
            print(f"{name} {value:.6g} (tolerance {tol:g})",
                  file=sys.stdout if passed else sys.stderr)
        ok = ok and passed
    return ok


def cmd_connect(cfg: dict, out_dir: str, verbose: bool) -> int:
    t_start = time.time()
    p = _build_potential(_require(cfg, "potential"))
    dims = 1 if p.dim == 1 else 2
    _known_keys(cfg, CONNECT_KEYS[dims], f"dimension-{p.dim} connect config")
    defect_tol = _positive(cfg, "defect_tol", 1e-3)
    wells = _points(_require(cfg, "wells"), p.dim, "wells")
    if len(wells) != 2:
        raise ConfigError("config field 'wells' must list exactly two points")
    refine = cfg.get("refine_wells", True)
    if not isinstance(refine, bool):
        raise ConfigError(f"config field 'refine_wells' must be true or false, got {refine!r}")
    rep_cfg = _section(cfg, "reparam", REPARAM_KEYS[dims])
    n_samples = _integer(rep_cfg, "n_samples", 2001, 3, "reparam.")
    t_max = _positive(rep_cfg, "t_max", 10.0, "reparam.")
    if dims == 2:
        solver_cfg = _section(cfg, "solver", SOLVER_KEYS)
        opts = SolverOptions(
            n_nodes=_integer(solver_cfg, "n_nodes", 401, 3, "solver."),
            max_iters=_integer(solver_cfg, "max_iters", 2000, 0, "solver."),
            grad_tol=_positive(solver_cfg, "grad_tol", 1e-8, "solver."),
            via_points=tuple(_points(solver_cfg.get("via_points", []), p.dim,
                                     "solver.via_points")),
        )
        resample = _integer(rep_cfg, "resample", 4 * opts.n_nodes, 2, "reparam.")
        resample_eps = _positive(rep_cfg, "resample_eps", 1e-9, "reparam.")
    if refine:
        # refinement merges guesses that converge to one well
        wells = list(refine_wells(p, wells))
    if len(wells) != 2 or np.array_equal(wells[0], wells[1]):
        raise ConfigError("config field 'wells' holds two guesses of the same well")
    wspace = make_weight(p)
    tolerances = {"defect_tol": defect_tol}
    warnings = []
    if dims == 1:
        pairs = line_legs(wells[0], wells[1], p.wells)
        conns = [line_connection(wspace, a, b, n_samples, t_max) for a, b in pairs]
        solver = {"solver_status": "converged"}
        if len(pairs) > 1:
            warnings.append(
                f"the wells {[b for _, b in pairs[:-1]]} lie between the ends: the "
                f"connection is a chain of {len(pairs)} legs")
    else:
        curve, value, trace = minimize_k_length(wspace, wells[0], wells[1], opts)
        if verbose:
            print(f"descent: {trace.status} after {trace.n_iters} iterations, "
                  f"k_length {value:.12g}")
        if trace.status == "stall":
            print("solver stalled before reaching the gradient tolerance",
                  file=sys.stderr)
            return EXIT_STALL
        curve = remove_sigma_loops(curve, wspace)
        conns = [reparam_equipartition(curve, wspace, n_samples=n_samples, t_max=t_max,
                                       resample=resample, resample_eps=resample_eps)]
        solver = {"k_length_value": value, "solver_status": trace.status,
                  "solver_iters": trace.n_iters, "solver_evals": trace.n_evals}
        tolerances.update(grad_tol=opts.grad_tol, weight_floor=WEIGHT_FLOOR)
    # one writer for both: leg k (from 1, in the order of travel) writes
    # curve_k.csv, plot_components_k.tsv and plot_defect_k.tsv
    os.makedirs(out_dir, exist_ok=True)
    comp_names = ",".join(f"u{j + 1}" for j in range(p.dim))
    legs, artifacts, audits = [], [], []
    for k, conn in enumerate(conns, 1):
        report = verify_connection(conn, potential=p, wspace=wspace)
        sd = second_difference_bound(conn.curve, p.hessian_lower_bound)
        bounds = uniform_bounds_audit(conn.curve, wspace)
        names = [f"curve_{k}.csv", f"plot_components_{k}.tsv", f"plot_defect_{k}.tsv"]
        head = "# action=%.17g dK=%.17g defect=%.17g window=%.17g" % (
            conn.action, conn.dk_value, conn.equipartition_defect, conn.window)
        curve_table = np.column_stack([conn.curve.times, conn.curve.nodes])
        _write_table(os.path.join(out_dir, names[0]), [head, "t," + comp_names], curve_table)
        _write_table(os.path.join(out_dir, names[1]), ["t\t" + comp_names.replace(",", "\t")],
                     curve_table, "\t")
        mids = 0.5 * (conn.curve.times[:-1] + conn.curve.times[1:])
        _write_table(os.path.join(out_dir, names[2]), ["t\tequipartition_defect"],
                     np.column_stack([mids, bounds.equip_profile]), "\t")
        artifacts += names
        legs.append({
            "x_minus": conn.x_minus.tolist(),
            "x_plus": conn.x_plus.tolist(),
            "action": conn.action,
            "dk_value": conn.dk_value,
            "action_gap": report.action_gap,
            "equipartition_defect": conn.equipartition_defect,
            "window": conn.window,
            "curve": names[0],
        })
        audits.append((report.el_residual, sd.lhs, sd.rhs, bounds.max_speed, bounds.max_w))
    # NaN-propagating sums and maxima over the legs
    el_residual, _, _, max_speed, max_w = np.max(audits, axis=0).tolist()
    _, sd_lhs, sd_rhs, _, _ = np.sum(audits, axis=0).tolist()
    defect = float(np.max([leg["equipartition_defect"] for leg in legs]))
    action = float(np.sum([leg["action"] for leg in legs]))
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "connect",
        "config": cfg,
        "versions": _versions(),
        "tolerances": {**tolerances, "second_difference_constant": sd.c_constant},
        "results": {
            "action": action,
            "dk_value": float(np.sum([leg["dk_value"] for leg in legs])),
            "action_gap": float(np.sum([leg["action_gap"] for leg in legs])),
            "equipartition_defect": defect,
            **solver,
            "el_residual": el_residual,
            "second_difference_lhs": sd_lhs,
            "second_difference_rhs": sd_rhs,
            # the fitted constant of the whole chain: lhs over the summed kinetic terms
            "second_difference_c_fitted": sd.c_constant * sd_lhs / sd_rhs if sd_rhs else 0.0,
            "max_speed": max_speed,
            "max_w": max_w,
            "legs": legs,
        },
        "warnings": warnings,
    }
    _finish_manifest(out_dir, manifest, artifacts, t_start)
    if verbose:
        print(f"wrote {out_dir}: {len(legs)} leg(s), action {action:.9g}, defect {defect:.3g}")
    if not _within([("equipartition defect", defect, defect_tol)], verbose):
        return EXIT_EQUIPARTITION
    return EXIT_OK


# ---------------------------------------------------------------------------
# double

# the settable keys of a double config, per example: the planar potential's are its own
DOUBLE_KEYS = {"sin": {"schema_version", "example", "mode", "m", "opts", "defect_tol",
                       "residual_tol"}}
DOUBLE_KEYS["planar"] = DOUBLE_KEYS["sin"] | {"beta", "kappa", "s_max"}
# the fewest nodes per field axis that leave one node inside the residual margin
MIN_FIELD_NODES = 2 * RESIDUAL_MARGIN + 1


def _build_double_space(cfg: dict):
    if cfg["example"] == "sin":
        return sin_example_space(m=_integer(cfg, "m", 257, MIN_FIELD_NODES))
    return planar_effective_space(
        beta=_positive(cfg, "beta", 1.0),
        kappa=_positive(cfg, "kappa", 1.0),
        s_max=_positive(cfg, "s_max", 8.0),
        m=_integer(cfg, "m", 401, MIN_FIELD_NODES),
    )


def _double_shell(cfg: dict, grid: np.ndarray):
    """The effective space of a double config on ``grid``, without its wells."""
    example = _require(cfg, "example")
    if example == "sin":
        return sin_shell(grid)
    if example == "planar":
        return planar_shell(
            grid, beta=_positive(cfg, "beta", 1.0), kappa=_positive(cfg, "kappa", 1.0))
    raise ConfigError(f"unknown double example '{example}'")


def cmd_double(cfg: dict, out_dir: str, verbose: bool) -> int:
    t_start = time.time()
    example = _require(cfg, "example")
    if not isinstance(example, str) or example not in DOUBLE_KEYS:
        raise ConfigError(f"unknown double example {example!r}")
    _known_keys(cfg, DOUBLE_KEYS[example], f"{example} double config")
    mode = cfg.get("mode", "sym")
    if mode not in ("sym", "asym"):
        raise ConfigError(f"config field 'mode' must be 'sym' or 'asym', got {mode!r}")
    # translations act on whole-line profiles only
    if mode == "asym" and example != "planar":
        raise ConfigError("config field 'mode' is 'asym', which needs example 'planar'")
    defect_tol = _positive(cfg, "defect_tol", 5e-2)
    residual_tol = _positive(cfg, "residual_tol", 5e-2)
    opts_cfg = _section(cfg, "opts", set(DoubleOptions.__dataclass_fields__))
    default = DoubleOptions()
    opts = DoubleOptions(
        n_out=_integer(opts_cfg, "n_out", default.n_out, MIN_FIELD_NODES, "opts."),
        t_max=_positive(opts_cfg, "t_max", default.t_max, "opts."),
    )
    space = _build_double_space(cfg)
    if verbose:
        print(f"solving {example} example, mode={mode}")
    result = (
        solve_asymmetric(space, opts) if mode == "asym"
        else solve_symmetric(space, opts)
    )
    report = assemble_and_verify(result)
    os.makedirs(out_dir, exist_ok=True)
    # [i, j] holds (x1_i, x2_j, u[i, j]); np.save writes the same bytes for the same field
    m, p, n = result.u.shape
    table = np.empty((m, p, 2 + n), dtype="<f8")
    table[..., 0] = result.x1[:, None]
    table[..., 1] = result.x2
    table[..., 2:] = result.u
    with open(os.path.join(out_dir, "u.npy"), "wb") as fh:
        np.save(fh, table, allow_pickle=False)
    artifacts = ["u.npy", "boundary_convergence.tsv"]
    cols = result.u.transpose(1, 0, 2)
    _write_table(
        os.path.join(out_dir, "boundary_convergence.tsv"),
        ["x2\tgap_minus_l2\tgap_plus_l2"],
        np.column_stack([result.x2,
                         space.l2_norms(cols - space.z_minus.values),
                         space.l2_norms(cols - space.z_plus.values)]),
        "\t",
    )
    results = {
        "energy": result.energy,
        "energy_direct": report.energy_direct,
        "energy_path": report.energy_path,
        "ref_value": space.ref_value,
        "residual_max": report.residual_max,
        "residual_l2": report.residual_l2,
        "equip_defect": report.equip_defect,
        "x2_gap_minus_l2": report.x2_gap_minus_l2,
        "x2_gap_plus_l2": report.x2_gap_plus_l2,
        "c_minus": result.c_minus,
        "c_plus": result.c_plus,
        "k_length": result.diagnostics["k_length"],
        "reduction_gap": abs(result.energy - result.diagnostics["k_length"]),
        "solver_status": result.diagnostics["polish_status"],
        "polish_steps": result.diagnostics["polish_steps"],
        "polish_gmax": result.diagnostics["polish_gmax"],
        "polish_status": result.diagnostics["polish_status"],
        "polish_cg_products": result.diagnostics["polish_cg_products"],
        "window": result.diagnostics["window"],
    }
    tolerances = {
        "defect_tol": defect_tol,
        "residual_tol": residual_tol,
        "residual_margin_cells": report.interior_margin,
        "energy_two_ways_rel": 1e-6,
        "polish_gtol": POLISH_GTOL,
    }
    if mode == "asym":
        speed = audit_translation_speed(result)
        results["m_total_variation"] = result.diagnostics["m_total_variation"]
        results["translation_speed_c_fit"] = speed.c_fit
        results["translation_speed_max_ratio"] = speed.max_ratio
        _write_table(os.path.join(out_dir, "m_track.csv"), ["x2,m"],
                     np.column_stack([result.x2, result.m_track]))
        artifacts.append("m_track.csv")
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "double",
        "config": cfg,
        "mode": mode,
        "versions": _versions(),
        "tolerances": tolerances,
        "results": results,
        "warnings": [],
    }
    _finish_manifest(out_dir, manifest, artifacts, t_start)
    if verbose:
        print(f"wrote {out_dir}: energy {result.energy:.9g}, "
              f"residual {report.residual_max:.3g}")
    if not _double_within_tolerance(report, report.equip_defect, results["polish_gmax"],
                                    results["polish_status"], tolerances, verbose):
        return EXIT_EQUIPARTITION
    return EXIT_OK


def _double_within_tolerance(res, defect: float, gmax: float, status: str, tolerances: dict,
                             verbose: bool) -> bool:
    """Whether a double run's x2 equipartition defect, free gradient max
    ``gmax``, interior residual and energy two ways meet their tolerances
    (NaN fails).

    ``res`` is the run's ``DoubleReport`` or verify's ``FieldResiduals``;
    ``status`` is the Newton-CG's, for the message.
    """
    two_ways = abs(res.energy_direct - res.energy_path) / max(abs(res.energy_path), 1e-300)
    return _within([
        ("x2 equipartition defect", defect, tolerances["defect_tol"]),
        (f"Newton-CG {status}: max free gradient",
         gmax, tolerances["polish_gtol"]),
        ("interior residual max", res.residual_max, tolerances["residual_tol"]),
        ("energy two ways, relative gap", two_ways, tolerances["energy_two_ways_rel"]),
    ], verbose)


# ---------------------------------------------------------------------------
# counterexample


# the settable keys of a counterexample config
COUNTER_KEYS = {"schema_version", "g", "radii", "n_max"}


def _counterexample_setup(cfg: dict):
    """(weight, radii, n_max) of a counterexample config; ConfigError if malformed.

    ``radii`` must be a non-empty, strictly increasing list of finite
    numbers > 0, ``n_max`` an integer >= 1 and ``g.p`` finite and > 1.
    """
    _known_keys(cfg, COUNTER_KEYS, "counterexample config")
    gcfg = cfg.get("g", {"type": "power", "p": 2.0})
    if not isinstance(gcfg, dict) or gcfg.get("type") != "power":
        raise ConfigError("config field 'g' supports {'type': 'power', 'p': >1}")
    p = gcfg.get("p", 2.0)
    if not (_is_finite(p) and p > 1.0):
        raise ConfigError(f"config field 'g.p' must be finite and > 1, got {p!r}")
    radii = cfg.get("radii", [4.0, 8.0, 16.0, 32.0, 64.0])
    if not (isinstance(radii, list) and radii
            and all(_is_finite(r) and r > 0.0 for r in radii)
            and all(a < b for a, b in zip(radii, radii[1:]))):
        raise ConfigError("config field 'radii' must be a non-empty, strictly increasing "
                          f"list of finite numbers > 0, got {radii!r}")
    n_max = _integer(cfg, "n_max", 12, 1)
    return CounterexampleWeight(power=float(p)), tuple(float(r) for r in radii), n_max


def _counterexample_tables(report) -> tuple:
    """The candidates.tsv and boxed.tsv tables of a ``NonexistenceReport``."""
    ns = np.asarray(report.candidate_ns, dtype=float)
    return (np.column_stack([ns, 2.0 ** ns, report.candidate_lengths]),
            np.column_stack([report.radii, report.box_candidates, report.bounds]))


def _counterexample_checks(lengths, uppers, bounds, infimum: float, tolerances: dict) -> dict:
    """Named verdicts of a counterexample run's invariants (NaN fails).

    ``lengths`` are the candidates through x = 2^n, and ``uppers`` and
    ``bounds`` the two ends of each box bracket.
    """
    widths = uppers - bounds
    return {
        "candidates strictly decreasing": bool(np.all(np.diff(lengths) < 0.0)),
        "final candidate within candidate_tail_tol of the infimum": bool(
            lengths[-1] - infimum <= tolerances["candidate_tail_tol"]),
        "box candidates above the crossing bound": bool(
            np.all(uppers >= bounds - tolerances["bound_slack"])),
        "bracket widths strictly decreasing": bool(np.all(np.diff(widths) < 0.0)),
    }


def _all_pass(checks: dict, verbose: bool) -> bool:
    for name, ok in checks.items():
        if verbose or not ok:
            print(f"{name}: {'ok' if ok else 'VIOLATED'}",
                  file=sys.stdout if ok else sys.stderr)
    return all(checks.values())


def cmd_counterexample(cfg: dict, out_dir: str, verbose: bool) -> int:
    t_start = time.time()
    w, radii, n_max = _counterexample_setup(cfg)
    report = nonexistence_report(w, radii=radii, n_candidates=n_max)
    os.makedirs(out_dir, exist_ok=True)
    cand, boxed = _counterexample_tables(report)
    # %.17g prints an integer-valued n as str(int(n)) does
    _write_table(os.path.join(out_dir, "candidates.tsv"), ["n\tx_n\tcandidate_length"],
                 cand, "\t")
    _write_table(os.path.join(out_dir, "boxed.tsv"),
                 ["radius\tcandidate_at_radius\tcrossing_bound"], boxed, "\t")
    tolerances = {"bound_slack": 1e-6, "candidate_tail_tol": 1e-2}
    checks = _counterexample_checks(report.candidate_lengths, report.box_candidates,
                                    report.bounds, report.infimum, tolerances)
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "counterexample",
        "config": cfg,
        "versions": _versions(),
        "tolerances": tolerances,
        "results": {
            "g_infinity": w.g_infinity,
            "infimum": report.infimum,
            "final_candidate": float(report.candidate_lengths[-1]),
            "candidates_strictly_decreasing": checks["candidates strictly decreasing"],
            "boxed_above_bound": checks["box candidates above the crossing bound"],
            "bracket_widths_decreasing": checks["bracket widths strictly decreasing"],
            "bracket_rel_width": report.bracket_rel_widths.tolist(),
            "conclusion": report.conclusion,
        },
        "warnings": [
            "the bump is C^1 only at |y| = 1 (second derivative jumps); the "
            "construction tolerates this and the report notes it"
        ],
    }
    _finish_manifest(out_dir, manifest, ["candidates.tsv", "boxed.tsv"], t_start)
    if verbose:
        print(f"wrote {out_dir}: final candidate "
              f"{report.candidate_lengths[-1]:.6g} vs infimum {report.infimum:g}")
    return EXIT_OK if _all_pass(checks, verbose) else EXIT_EQUIPARTITION


# ---------------------------------------------------------------------------
# verify


def _verify_connect(run_dir: str, manifest: dict, verbose: bool) -> int:
    """Recompute each leg's equipartition defect, action, d_K and action gap.

    The defect must meet ``defect_tol``.  The action, the gap (the action
    with W at the midpoints, minus d_K), on the line d_K itself (from the
    leg's recorded ends, as ``line_connection`` takes it), and their sums
    over the legs must equal the recorded ones bit for bit.
    """
    p = _build_potential(manifest["config"]["potential"])
    wspace = make_weight(p)
    results = manifest["results"]
    tol = manifest["tolerances"]["defect_tol"]
    gates, curves, dks, gaps = [], [], [], []
    for k, leg in enumerate(results["legs"], 1):
        if leg["curve"] not in manifest["artifacts"]:
            raise ValueError(f"leg {k} curve {leg['curve']} is not a checksummed artifact")
        _, _, data = _read_table(os.path.join(run_dir, leg["curve"]))
        curve = SampledCurve(times=data[:, 0], nodes=data[:, 1:])
        mids = midpoints(curve)
        kv = wspace.weight_at(mids)
        action, defects = equipartition(curve, wspace.space, 0.5 * kv * kv)
        # in higher dimensions d_K is the descent's, read as recorded
        dk = leg["dk_value"]
        if p.dim == 1:
            ends = np.array([leg["x_minus"], leg["x_plus"]], dtype=float)
            dk = float(segment_k_lengths(wspace.weight_at, ends[:1], ends[1:], [[]])[0])
        gap = equipartition(curve, wspace.space, p.values_at(mids))[0] - dk
        gates.append((f"leg {k} equipartition defect", float(np.max(defects)), tol))
        gates += [(f"leg {k} |recomputed - recorded {key}|", abs(value - leg[key]), 0.0)
                  for key, value in (("action", action), ("dk_value", dk), ("action_gap", gap))]
        curves.append(curve)
        dks.append(dk)
        gaps.append(gap)
    gates += [(f"|sum over the legs - recorded {key}|", abs(float(np.sum(v)) - results[key]), 0.0)
              for key, v in (("dk_value", dks), ("action_gap", gaps))]
    if not _within(gates, verbose):
        return EXIT_EQUIPARTITION
    for k, curve in enumerate(curves, 1) if verbose else ():
        sd = second_difference_bound(curve, p.hessian_lower_bound)
        print(f"leg {k} second-difference audit: lhs {sd.lhs:.6g} <= rhs {sd.rhs:.6g}: "
              f"{'ok' if sd.passed else 'FAIL'}")
    return EXIT_OK


def _verify_double(run_dir: str, manifest: dict, verbose: bool) -> int:
    x1, x2, u = _read_field(os.path.join(run_dir, "u.npy"))
    space = _double_shell(manifest["config"], x1)
    # the last column is the z+ well profile, and its action the reference
    space.ref_value = float(space.energy_1d(u[:, -1])[0])
    recorded = manifest["results"].get("ref_value")
    if verbose or space.ref_value != recorded:
        print(f"reference action {space.ref_value!r} (recorded {recorded!r})")
    if space.ref_value != recorded:
        return EXIT_EQUIPARTITION
    dt = float(x2[1] - x2[0])
    tolerances = manifest["tolerances"]
    res = field_residuals(space, u, dt, tolerances["residual_margin_cells"])
    gmax = free_gradient_max(space, u, dt, manifest["mode"])
    if not _double_within_tolerance(res, x2_defect(space, u, dt), gmax,
                                    manifest["results"]["polish_status"], tolerances, verbose):
        return EXIT_EQUIPARTITION
    return EXIT_OK


def _verify_counterexample(run_dir: str, manifest: dict, verbose: bool) -> int:
    _, _, cand = _read_table(os.path.join(run_dir, "candidates.tsv"), "\t")
    _, _, boxed = _read_table(os.path.join(run_dir, "boxed.tsv"), "\t")
    w, radii, n_max = _counterexample_setup(manifest["config"])
    ref_cand, ref_boxed = _counterexample_tables(
        nonexistence_report(w, radii=radii, n_candidates=n_max))
    checks = {
        "candidates.tsv recomputed bit for bit": np.array_equal(cand, ref_cand),
        "boxed.tsv recomputed bit for bit": np.array_equal(boxed, ref_boxed),
        **_counterexample_checks(cand[:, 2], boxed[:, 1], boxed[:, 2], w.infimum,
                                 manifest["tolerances"]),
    }
    return EXIT_OK if _all_pass(checks, verbose) else EXIT_EQUIPARTITION


def cmd_verify(run_dir: str, verbose: bool) -> int:
    manifest_path = os.path.join(run_dir, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot load manifest: {exc}", file=sys.stderr)
        return EXIT_CHECKSUM
    required = {"schema_version", "kind", "config", "artifacts", "results",
                "tolerances"}
    missing = required - set(manifest)
    if missing:
        print(f"manifest schema invalid (missing {sorted(missing)})",
              file=sys.stderr)
        return EXIT_CHECKSUM
    version = manifest["schema_version"]
    if version != MANIFEST_SCHEMA_VERSION:
        print(f"manifest schema_version {version!r} is not supported "
              f"(this hetconn reads version {MANIFEST_SCHEMA_VERSION})", file=sys.stderr)
        return EXIT_CHECKSUM
    for name, expected in manifest["artifacts"].items():
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            print(f"artifact {name} is missing", file=sys.stderr)
            return EXIT_CHECKSUM
        actual = _sha256(path)
        if actual != expected:
            print(f"artifact {name} checksum mismatch", file=sys.stderr)
            return EXIT_CHECKSUM
    if verbose:
        print(f"checksums ok for {len(manifest['artifacts'])} artifacts")
    kind = manifest["kind"]
    try:
        if kind == "connect":
            return _verify_connect(run_dir, manifest, verbose)
        if kind == "double":
            return _verify_double(run_dir, manifest, verbose)
        if kind == "counterexample":
            return _verify_counterexample(run_dir, manifest, verbose)
    except (OSError, EOFError, KeyError, ValueError) as exc:
        print(f"verification failed to re-run: {exc}", file=sys.stderr)
        return EXIT_CHECKSUM
    print(f"unknown run kind {kind!r}", file=sys.stderr)
    return EXIT_CHECKSUM


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hetconn",
        description="minimal-action connections in weighted metric spaces",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config")
    common.add_argument("--out", help="run directory for artifacts")
    common.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("connect", parents=[common],
                   help="1D minimal connection between two wells")
    sub.add_parser("double", parents=[common],
                   help="2D field from a minimal path of 1D profiles")
    sub.add_parser("counterexample", parents=[common],
                   help="nonexistence demonstration for a vanishing-tail weight")
    verify = sub.add_parser("verify", parents=[common],
                            help="re-check a run directory")
    verify.add_argument("run_dir", nargs="?", help="run directory to verify")
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            run_dir = args.run_dir or args.out
            if not run_dir:
                print("verify needs a run directory (positional or --out)",
                      file=sys.stderr)
                return EXIT_CONFIG
            return cmd_verify(run_dir, args.verbose)
        if not args.config:
            print("--config is required", file=sys.stderr)
            return EXIT_CONFIG
        cfg = _load_config(args.config)
        out_dir = args.out or f"run_{args.command}"
        if args.command == "connect":
            return cmd_connect(cfg, out_dir, args.verbose)
        if args.command == "double":
            return cmd_double(cfg, out_dir, args.verbose)
        if args.command == "counterexample":
            return cmd_counterexample(cfg, out_dir, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable command dispatch")


if __name__ == "__main__":
    sys.exit(main())
