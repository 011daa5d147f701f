"""Command line front end: configs in, run directories out.

Every run writes a manifest.json carrying the embedded config, library
versions, every tolerance used, headline results, the column names of each
artifact and sha256 checksums of the emitted artifacts.  Every artifact is
one table: a C-ordered little-endian float64 ``.npy`` array written by
``np.save`` whose last axis holds the columns the manifest names; a double
run's field ``u.npy`` has three dimensions, every other table two.  The
pipeline draws no random numbers, so reruns of the same config are
bit-identical.  A connect run is a chain of legs, one per pair of adjacent
wells on the line and one in higher dimensions, each with its own curve and
defect tables.  ``verify`` reads every table through one validating reader,
then recomputes each leg's equipartition defect, action and action gap from
its curve with the same routines the run uses, and its d_K: on the line from
its ends, in higher dimensions as the curve's midpoint K-length; each must
equal the recorded one bit for bit, and so must their sums over the legs,
each leg's defect table and the audits (Euler-Lagrange residual, second
differences, largest speed and W) over the legs.  For a double run it
builds no fixture: the effective space comes from the config on the field's
x1 grid, and the reference is the 1D action of the field's last column, the
z+ well profile, which must equal the ``ref_value`` the run recorded bit for
bit.  Exit codes: 0 success, 1 run failure (a connect relaxation that does
not converge, for one), 3 config error (raised before any run directory is
made), 4 checksum, table or schema failure (verify), 5 failing check: a
connect run's equipartition defect over its tolerance or a recomputed
connect number or table not matching the recorded one, a double run's
reference action not matching the recorded one, a double run whose x2
equipartition defect, Newton-CG gradient, residual or energy two ways missed
its tolerance, or a broken counterexample invariant.  A run writes its
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
from .geodesic import minimize_k_length
from .heteroclinic import (
    ConnectionResult,
    equipartition,
    line_connection,
    line_legs,
    verify_connection,
)
from .metric import SampledCurve, k_length, midpoints, segment_k_lengths
from .potentials import (
    double_well,
    make_weight,
    planar_two_well,
    refine_wells,
    triple_well,
)
from .regularity import second_difference_bound, uniform_bounds_audit

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_CHECKSUM = 4
EXIT_EQUIPARTITION = 5

# configs and run manifests carry separate schema versions
CONFIG_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 4


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


def _save_tables(out_dir, tables: dict) -> dict:
    """Write each ``name: (columns, table)`` of ``tables`` into ``out_dir``
    by ``np.save``, as one C-ordered little-endian float64 array; returns
    ``{name: columns}``, the manifest's ``columns``.

    The same table gives the same bytes, so its checksum is reproducible.
    """
    for name, (_, table) in tables.items():
        np.save(os.path.join(out_dir, name), np.ascontiguousarray(table, dtype="<f8"),
                allow_pickle=False)
    return {name: columns for name, (columns, _) in tables.items()}


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


def _finish_manifest(out_dir, manifest, columns, t_start) -> None:
    """Record the tables' ``columns`` and checksums and the runtime, then write the manifest."""
    manifest["columns"] = columns
    manifest["artifacts"] = {
        name: _sha256(os.path.join(out_dir, name)) for name in columns
    }
    manifest["runtime_seconds"] = time.time() - t_start
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# the one table of three dimensions: a double run's field on its (x1, x2) grid
FIELD = "u.npy"


def _read_table(path, columns, ndim: int = 2) -> np.ndarray:
    """The table at ``path``, read with ``allow_pickle=False``.

    ValueError unless it is a C-ordered little-endian float64 array of
    ``ndim`` dimensions whose last axis has one entry per name in
    ``columns``.
    """
    table = np.load(path, allow_pickle=False)
    if table.dtype != np.dtype("<f8") or table.ndim != ndim:
        layout = "(M, P, 2 + n)" if ndim == 3 else "(rows, columns)"
        raise ValueError(f"{path} holds a {table.dtype} array of shape {table.shape}, "
                         f"not a float64 {layout} table")
    if not table.flags.c_contiguous:
        raise ValueError(f"{path} is stored in Fortran order, not C order")
    if table.shape[-1] != len(columns):
        raise ValueError(f"{path} has {table.shape[-1]} columns, and the manifest names "
                         f"{len(columns)}: {columns}")
    return table


def _read_field(table):
    """(x1, x2, u) of a double run's field table (M, P, 2 + n), n >= 1.

    ValueError unless it holds (x1_i, x2_j, u[i, j]) at [i, j] on a tensor
    grid whose x1 and x2 each have at least two strictly increasing nodes.
    """
    if min(table.shape[:2]) < 2 or table.shape[2] < 3:
        raise ValueError(f"{FIELD} of shape {table.shape} is not a tensor grid of at least "
                         "two x1 and two x2 nodes with a field component")
    x1, x2 = table[:, 0, 0], table[0, :, 1]
    if not (np.all(table[..., 0] == x1[:, None]) and np.all(table[..., 1] == x2)
            and np.all(x1[1:] > x1[:-1]) and np.all(x2[1:] > x2[:-1])):
        raise ValueError(f"{FIELD} is not a tensor grid with strictly increasing x1 and x2")
    return x1, x2, table[..., 2:]


# ---------------------------------------------------------------------------
# connect

# the settable keys of a connect config, per dimension: on the line every
# path passes through the wells between the ends, so only dimension 2 and up
# reads via points; and of its reparam object
CONNECT_KEYS = {1: {"schema_version", "potential", "wells", "refine_wells", "reparam",
                    "defect_tol"}}
CONNECT_KEYS[2] = CONNECT_KEYS[1] | {"via_points"}
REPARAM_KEYS = {"n_samples", "t_max"}


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


def _leg_audits(conn: ConnectionResult, p, wspace):
    """(report, audit row, defect table) of one connect leg, as the run and
    ``verify`` take them.

    ``report`` is ``verify_connection``'s; the row holds the Euler-Lagrange
    residual (NaN if there is none), the two sides of the second-difference
    audit, the largest speed and W, and the audit's constant C(lambda); the
    table holds each segment's time midpoint and equipartition defect.
    """
    curve = conn.curve
    report = verify_connection(conn, potential=p, wspace=wspace)
    sd = second_difference_bound(curve, p.hessian_lower_bound)
    bounds = uniform_bounds_audit(curve, wspace)
    residual = math.nan if report.el_residual is None else report.el_residual
    mids = 0.5 * (curve.times[:-1] + curve.times[1:])
    return (report, (residual, sd.lhs, sd.rhs, bounds.max_speed, bounds.max_w, sd.c_constant),
            np.column_stack([mids, bounds.equip_profile]))


def _audit_results(audits) -> dict:
    """A chain's audit results from its legs' audit rows (``_leg_audits``):
    NaN-propagating maxima and sums over the legs."""
    residual, _, _, max_speed, max_w, c_constant = np.max(audits, axis=0).tolist()
    _, sd_lhs, sd_rhs, _, _, _ = np.sum(audits, axis=0).tolist()
    return {
        "el_residual": residual,
        "second_difference_lhs": sd_lhs,
        "second_difference_rhs": sd_rhs,
        # C(lambda) = max(1, 4 |lambda|) stands in for the constant of the
        # semiconvexity argument, so the audit's lhs <= rhs gates nothing
        "second_difference_constant": c_constant,
        # the fitted constant of the whole chain: lhs over the summed kinetic terms
        "second_difference_c_fitted": c_constant * sd_lhs / sd_rhs if sd_rhs else 0.0,
        "max_speed": max_speed,
        "max_w": max_w,
    }


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
    rep_cfg = _section(cfg, "reparam", REPARAM_KEYS)
    n_samples = _integer(rep_cfg, "n_samples", 2001, 3, "reparam.")
    t_max = _positive(rep_cfg, "t_max", 10.0, "reparam.")
    via_points = _points(cfg.get("via_points", []), p.dim, "via_points")
    if refine:
        # refinement merges guesses that converge to one well
        wells = list(refine_wells(p, wells))
    if len(wells) != 2 or np.array_equal(wells[0], wells[1]):
        raise ConfigError("config field 'wells' holds two guesses of the same well")
    wspace = make_weight(p)
    warnings = []
    if dims == 1:
        pairs = line_legs(wells[0], wells[1], p.wells)
        conns = [line_connection(wspace, a, b, n_samples, t_max) for a, b in pairs]
        if len(pairs) > 1:
            warnings.append(
                f"the wells {[b for _, b in pairs[:-1]]} lie between the ends: the "
                f"connection is a chain of {len(pairs)} legs")
    else:
        # raises RuntimeError, and the run exits 1, unless the relaxation converges
        conns = [minimize_k_length(p, wells[0], wells[1], n_samples, t_max, via_points)]
    os.makedirs(out_dir, exist_ok=True)
    # leg k (from 1, in the order of travel) writes curve_k.npy and plot_defect_k.npy
    curve_columns = ["t", *(f"u{j + 1}" for j in range(p.dim))]
    legs, tables, audits = [], {}, []
    for k, conn in enumerate(conns, 1):
        report, row, defects = _leg_audits(conn, p, wspace)
        curve = f"curve_{k}.npy"
        tables[curve] = (curve_columns, np.column_stack([conn.curve.times, conn.curve.nodes]))
        tables[f"plot_defect_{k}.npy"] = (["t", "equipartition_defect"], defects)
        legs.append({
            "x_minus": conn.x_minus.tolist(),
            "x_plus": conn.x_plus.tolist(),
            "action": conn.action,
            "dk_value": conn.dk_value,
            "action_gap": report.action_gap,
            "equipartition_defect": conn.equipartition_defect,
            "window": conn.window,
            "curve": curve,
        })
        audits.append(row)
    columns = _save_tables(out_dir, tables)
    defect = float(np.max([leg["equipartition_defect"] for leg in legs]))
    action = float(np.sum([leg["action"] for leg in legs]))
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "connect",
        "config": cfg,
        "versions": _versions(),
        "tolerances": {"defect_tol": defect_tol},
        "results": {
            "action": action,
            "dk_value": float(np.sum([leg["dk_value"] for leg in legs])),
            "action_gap": float(np.sum([leg["action_gap"] for leg in legs])),
            "equipartition_defect": defect,
            "solver_status": "converged",
            **_audit_results(audits),
            "legs": legs,
        },
        "warnings": warnings,
    }
    _finish_manifest(out_dir, manifest, columns, t_start)
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
    # [i, j] holds (x1_i, x2_j, u[i, j])
    m, p, n = result.u.shape
    table = np.empty((m, p, 2 + n), dtype="<f8")
    table[..., 0] = result.x1[:, None]
    table[..., 1] = result.x2
    table[..., 2:] = result.u
    cols = result.u.transpose(1, 0, 2)
    tables = {
        FIELD: (["x1", "x2", *(f"u{j + 1}" for j in range(n))], table),
        "boundary_convergence.npy": (
            ["x2", "gap_minus_l2", "gap_plus_l2"],
            np.column_stack([result.x2,
                             space.l2_norms(cols - space.z_minus.values),
                             space.l2_norms(cols - space.z_plus.values)])),
    }
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
        tables["m_track.npy"] = (["x2", "m"], np.column_stack([result.x2, result.m_track]))
    os.makedirs(out_dir, exist_ok=True)
    columns = _save_tables(out_dir, tables)
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
    _finish_manifest(out_dir, manifest, columns, t_start)
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
    """The candidates.npy and boxed.npy tables of a ``NonexistenceReport``."""
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
    columns = _save_tables(out_dir, {
        "candidates.npy": (["n", "x_n", "candidate_length"], cand),
        "boxed.npy": (["radius", "candidate_at_radius", "crossing_bound"], boxed),
    })
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
    _finish_manifest(out_dir, manifest, columns, t_start)
    if verbose:
        print(f"wrote {out_dir}: final candidate "
              f"{report.candidate_lengths[-1]:.6g} vs infimum {report.infimum:g}")
    return EXIT_OK if _all_pass(checks, verbose) else EXIT_EQUIPARTITION


# ---------------------------------------------------------------------------
# verify


def _verify_connect(tables: dict, manifest: dict, verbose: bool) -> int:
    """Recompute each leg's equipartition defect, action, d_K, action gap,
    audits and defect table from its curve.

    The defect must meet ``defect_tol``.  The defect, the action, the gap
    (the action with W at the midpoints, minus d_K), d_K itself (on the line
    from the leg's recorded ends, as ``line_connection`` takes it, in higher
    dimensions the curve's midpoint K-length, as ``minimize_k_length`` takes
    it), the leg's ``plot_defect_k.npy``, the largest defect, the sums of
    the others over the legs and the audit results (``_audit_results``)
    must equal the recorded ones bit for bit.
    """
    p = _build_potential(manifest["config"]["potential"])
    wspace = make_weight(p)
    results = manifest["results"]
    tol = manifest["tolerances"]["defect_tol"]
    keys = ("equipartition_defect", "action", "dk_value", "action_gap")
    gates, recomputed, audits = [], [], []
    for k, leg in enumerate(results["legs"], 1):
        if leg["curve"] not in tables:
            raise ValueError(f"leg {k} curve {leg['curve']} is not a checksummed artifact")
        data = tables[leg["curve"]]
        curve = SampledCurve(times=data[:, 0], nodes=data[:, 1:])
        kv = wspace.weight_at(midpoints(curve))
        action, defects = equipartition(curve, wspace.space, 0.5 * kv * kv)
        if p.dim == 1:
            ends = np.array([leg["x_minus"], leg["x_plus"]], dtype=float)
            dk = float(segment_k_lengths(wspace.weight_at, ends[:1], ends[1:], [[]])[0])
        else:
            dk = k_length(curve, wspace, rule="midpoint")
        conn = ConnectionResult(
            curve=curve, x_minus=np.asarray(leg["x_minus"], dtype=float),
            x_plus=np.asarray(leg["x_plus"], dtype=float), action=action, dk_value=dk,
            equipartition_defect=float(np.max(defects)), window=leg["window"], diagnostics={})
        report, row, defect_table = _leg_audits(conn, p, wspace)
        values = (conn.equipartition_defect, action, dk, report.action_gap)
        gates.append((f"leg {k} equipartition defect", values[0], tol))
        gates += [(f"leg {k} |recomputed - recorded {key}|", abs(value - leg[key]), 0.0)
                  for key, value in zip(keys, values)]
        name = f"plot_defect_{k}.npy"
        if tables[name].shape != defect_table.shape:
            raise ValueError(f"{name} has {tables[name].shape[0]} rows for the "
                             f"{defect_table.shape[0]} segments of leg {k}")
        gates.append((f"leg {k} max |recomputed - recorded {name}|",
                      float(np.max(np.abs(defect_table - tables[name]))), 0.0))
        recomputed.append(values)
        audits.append(row)
    columns = list(zip(*recomputed))
    gates.append(("|max over the legs - recorded equipartition_defect|",
                  abs(float(np.max(columns[0])) - results[keys[0]]), 0.0))
    gates += [(f"|sum over the legs - recorded {key}|", abs(float(np.sum(v)) - results[key]), 0.0)
              for key, v in zip(keys[1:], columns[1:])]
    gates += [(f"|over the legs - recorded {key}|", abs(value - results[key]), 0.0)
              for key, value in _audit_results(audits).items()]
    return EXIT_OK if _within(gates, verbose) else EXIT_EQUIPARTITION


def _verify_double(tables: dict, manifest: dict, verbose: bool) -> int:
    """Recompute a double run's residuals, energies, x2 defect and free gradient.

    Each must equal the recorded one bit for bit (``energy`` is the path
    energy), and they must meet the run's tolerances.
    """
    x1, x2, u = _read_field(tables[FIELD])
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
    defect = x2_defect(space, u, dt)
    results = manifest["results"]
    recomputed = {"energy": res.energy_path, "energy_direct": res.energy_direct,
                  "energy_path": res.energy_path, "residual_max": res.residual_max,
                  "residual_l2": res.residual_l2, "equip_defect": defect, "polish_gmax": gmax}
    exact = _within([(f"|recomputed - recorded {key}|", abs(value - results[key]), 0.0)
                     for key, value in recomputed.items()], verbose)
    if not (_double_within_tolerance(res, defect, gmax, results["polish_status"], tolerances,
                                     verbose) and exact):
        return EXIT_EQUIPARTITION
    return EXIT_OK


def _verify_counterexample(tables: dict, manifest: dict, verbose: bool) -> int:
    cand, boxed = tables["candidates.npy"], tables["boxed.npy"]
    w, radii, n_max = _counterexample_setup(manifest["config"])
    ref_cand, ref_boxed = _counterexample_tables(
        nonexistence_report(w, radii=radii, n_candidates=n_max))
    checks = {
        "candidates.npy recomputed bit for bit": np.array_equal(cand, ref_cand),
        "boxed.npy recomputed bit for bit": np.array_equal(boxed, ref_boxed),
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
    required = {"schema_version", "kind", "config", "artifacts", "columns", "results",
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
        tables = {name: _read_table(os.path.join(run_dir, name), manifest["columns"][name],
                                    3 if name == FIELD else 2)
                  for name in manifest["artifacts"]}
        if kind == "connect":
            return _verify_connect(tables, manifest, verbose)
        if kind == "double":
            return _verify_double(tables, manifest, verbose)
        if kind == "counterexample":
            return _verify_counterexample(tables, manifest, verbose)
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
                   help="minimal connection between two wells")
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
