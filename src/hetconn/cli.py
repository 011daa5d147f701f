"""Command line front end: configs in, run directories out.

Every run writes a manifest.json carrying the embedded config, library
versions, every tolerance used, the results, the column names of each
artifact and sha256 checksums of the emitted artifacts.  Every artifact is
one table: a C-ordered little-endian float64 ``.npy`` array written by
``np.save`` whose last axis holds the columns the manifest names; a double
run's field ``u.npy`` is the solve's (P, M, n) stack of x2 columns, its
x1 grid ``x1.npy``, and every table but the field has two dimensions.  The
pipeline draws no random numbers, so reruns of the same config are
bit-identical.  A connect run is a chain of legs, one per pair of adjacent
wells on the line and one in higher dimensions, each with its own curve and
defect tables.

Each run kind has one results function that maps what the run solved (the
connect legs' ``ConnectionResult``s, the ``DoubleConnectionResult``, the
``NonexistenceReport``) to its results, tables and gates, each gate a
(name, value, tolerance) that passes when value <= tolerance.  The run
records the results and tables and exits 5 on a failing gate.  ``verify``
reads every table through one validating reader, rebuilds the solved
object from the config and the artifacts (``_verify_*``), calls the same
function on it and requires every result but ``SOLVER_ONLY`` and every
table to equal the recorded one bit for bit, and every gate to pass.
Exit codes: 0 success, 1 run failure (a connect relaxation that does not
converge, for one), 3 config error (raised before any run directory is
made), 4 checksum, table or schema failure (verify), 5 a failing gate, a
recomputed result or table that is not the recorded one, or a run whose
grids or mode are not its config's.  A run writes its
artifacts and manifest before it exits 5.
Every manifest also carries the command's ``profile`` (CPU seconds, minor
page faults, the process's peak RSS), which ``verify`` does not read.  The
first ``main`` of a process sets glibc's malloc thresholds so that freed
arrays stay in the heap (``_keep_freed_heap``).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time

import numpy as np

from . import __version__
from .counterexample import CounterexampleWeight, nonexistence_report
from .double_connection import (
    POLISH_GTOL,
    RESIDUAL_MARGIN,
    DoubleConnectionResult,
    DoubleOptions,
    assemble_and_verify,
    audit_translation_speed,
    planar_effective_space,
    planar_grid,
    planar_shell,
    polished_part,
    shift_track_summary,
    sin_example_space,
    sin_grid,
    sin_shell,
    solve_asymmetric,
    solve_symmetric,
)
from .function_space import signed_flip
from .geodesic import minimize_k_length
from .heteroclinic import connection_on, line_connection, line_legs, verify_connection
from .metric import SampledCurve, k_length, segment_k_lengths
from .potentials import (
    double_well,
    make_weight,
    planar_two_well,
    refine_wells,
    triple_well,
)

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_CHECKSUM = 4
EXIT_EQUIPARTITION = 5

# configs and run manifests carry separate schema versions
CONFIG_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 7

# glibc's mallopt parameters (malloc.h) and the values ``main`` sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30


@functools.cache
def _keep_freed_heap() -> None:
    """Keep the heap pages that freed arrays leave, once per process.

    glibc's malloc then serves every block under 32 MiB from the heap and
    returns the heap's free top to the operating system only past 1 GiB,
    so a numpy kernel's temporaries reuse the pages the previous kernel
    freed instead of faulting in fresh zeroed ones.  The cost is a peak RSS that holds the
    first command's heap high-water mark.  Where the C library has no
    ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


class ConfigError(ValueError):
    pass


class Mismatch(Exception):
    """A run directory that is not the run of its own config: ``verify`` exits 5."""


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


def _usage() -> tuple:
    """(wall clock, CPU seconds, minor page faults) of this process so far."""
    return time.time(), time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _write_run(out_dir, start, tables: dict, **fields) -> None:
    """Write ``tables`` (``_save_tables``) and the manifest into ``out_dir``.

    The manifest holds ``fields`` (kind, config, tolerances, results,
    warnings, ...), the schema and library versions, the tables' ``columns``
    and checksums, the runtime and the ``profile`` of the command since
    ``start`` (a ``_usage()``).
    """
    os.makedirs(out_dir, exist_ok=True)
    columns = _save_tables(out_dir, tables)
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        **fields,
        "versions": _versions(),
        "columns": columns,
        "artifacts": {name: _sha256(os.path.join(out_dir, name)) for name in columns},
    }
    t_start, cpu_start, faults_start = start
    manifest["runtime_seconds"] = time.time() - t_start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest["profile"] = {
        "cpu_seconds": time.process_time() - cpu_start,
        "minor_faults": usage.ru_minflt - faults_start,
        "max_rss_kib": usage.ru_maxrss,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# the one table of three dimensions: a double run's field, the (P, M, n)
# stack of its x2 columns that the solve holds
FIELD = "u.npy"


def _read_table(path, columns, ndim: int = 2) -> np.ndarray:
    """The table at ``path``, read with ``allow_pickle=False``.

    ValueError unless it is a C-ordered little-endian float64 array of
    ``ndim`` dimensions whose last axis has one entry per name in
    ``columns``, and not an ``.npz`` archive of arrays.
    """
    table = np.load(path, allow_pickle=False)
    if not isinstance(table, np.ndarray):
        table.close()
        raise ValueError(f"{path} is an .npz archive, not one .npy table")
    if table.dtype != np.dtype("<f8") or table.ndim != ndim:
        layout = "(P, M, n)" if ndim == 3 else "(rows, columns)"
        raise ValueError(f"{path} holds a {table.dtype} array of shape {table.shape}, "
                         f"not a float64 {layout} table")
    if not table.flags.c_contiguous:
        raise ValueError(f"{path} is stored in Fortran order, not C order")
    if table.shape[-1] != len(columns):
        raise ValueError(f"{path} has {table.shape[-1]} columns, and the manifest names "
                         f"{len(columns)}: {columns}")
    return table


# ---------------------------------------------------------------------------
# connect

# the settable keys of a connect config, per dimension: on the line every
# path passes through the wells between the ends, so only dimension 2 and up
# reads via points; and of its reparam object
CONNECT_KEYS = {1: {"schema_version", "potential", "wells", "reparam", "defect_tol"}}
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


def _connect_setup(cfg: dict) -> tuple:
    """(potential, weighted space, leg ends, n_samples, t_max, via points,
    tolerances) of a connect config; ConfigError if malformed.

    The wells are refined (``refine_wells``), which merges guesses that
    converge to one well.  The leg ends are each leg's (x_minus, x_plus) in
    the order of travel: on the line one leg per pair of adjacent wells
    from the first end to the second (``line_legs``), in higher dimensions
    the two ends.
    """
    p = _build_potential(_require(cfg, "potential"))
    _known_keys(cfg, CONNECT_KEYS[min(p.dim, 2)], f"dimension-{p.dim} connect config")
    tolerances = {"defect_tol": _positive(cfg, "defect_tol", 1e-3)}
    wells = _points(_require(cfg, "wells"), p.dim, "wells")
    if len(wells) != 2:
        raise ConfigError("config field 'wells' must list exactly two points")
    rep_cfg = _section(cfg, "reparam", REPARAM_KEYS)
    n_samples = _integer(rep_cfg, "n_samples", 2001, 3, "reparam.")
    t_max = _positive(rep_cfg, "t_max", 10.0, "reparam.")
    via_points = _points(cfg.get("via_points", []), p.dim, "via_points")
    wells = refine_wells(p, wells)
    if len(wells) != 2:
        raise ConfigError("config field 'wells' holds two guesses of the same well")
    ends = line_legs(wells[0], wells[1], p.wells) if p.dim == 1 else [tuple(wells)]
    return p, make_weight(p), ends, n_samples, t_max, via_points, tolerances


def _connect_results(conns, p, wspace, tolerances: dict) -> tuple:
    """(results, tables, gates) of a chain of connect legs.

    Leg k (from 1) writes curve_k.npy and plot_defect_k.npy, each
    segment's time midpoint and equipartition defect, and ``results.legs``
    holds its ends, action, d_K, action gap, equipartition defect, window
    and curve.  The action gap and the Euler-Lagrange residual are
    ``verify_connection``'s.  The chain's defect and residual are the
    largest leg's (NaN if any is; a leg with no residual reads NaN), its
    action, d_K and gap the sums over the legs.  Each leg's defect is gated
    by ``defect_tol``.
    """
    curve_columns = ["t", *(f"u{j + 1}" for j in range(p.dim))]
    legs, tables, residuals, gates = [], {}, [], []
    for k, conn in enumerate(conns, 1):
        report = verify_connection(conn, potential=p, wspace=wspace)
        times = conn.curve.times
        curve = f"curve_{k}.npy"
        tables[curve] = (curve_columns, np.column_stack([times, conn.curve.nodes]))
        tables[f"plot_defect_{k}.npy"] = (["t", "equipartition_defect"], np.column_stack(
            [0.5 * (times[:-1] + times[1:]), conn.defects]))
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
        residuals.append(math.nan if report.el_residual is None else report.el_residual)
        gates.append((f"leg {k} equipartition defect", conn.equipartition_defect,
                      tolerances["defect_tol"]))
    results = {
        "action": float(np.sum([leg["action"] for leg in legs])),
        "dk_value": float(np.sum([leg["dk_value"] for leg in legs])),
        "action_gap": float(np.sum([leg["action_gap"] for leg in legs])),
        "equipartition_defect": float(np.max([leg["equipartition_defect"] for leg in legs])),
        "solver_status": "converged",
        "el_residual": float(np.max(residuals)),
        "legs": legs,
    }
    return results, tables, gates


def cmd_connect(cfg: dict, out_dir: str, verbose: bool) -> int:
    start = _usage()
    p, wspace, ends, n_samples, t_max, via_points, tolerances = _connect_setup(cfg)
    warnings = []
    if p.dim == 1:
        conns = [line_connection(wspace, a, b, n_samples, t_max) for a, b in ends]
        if len(ends) > 1:
            warnings.append(
                f"the wells {[b for _, b in ends[:-1]]} lie between the ends: the "
                f"connection is a chain of {len(ends)} legs")
    else:
        # raises RuntimeError, and the run exits 1, unless the relaxation converges
        conns = [minimize_k_length(p, a, b, n_samples, t_max, via_points) for a, b in ends]
    results, tables, gates = _connect_results(conns, p, wspace, tolerances)
    _write_run(out_dir, start, tables, kind="connect", config=cfg, tolerances=tolerances,
               results=results, warnings=warnings)
    if verbose:
        print(f"wrote {out_dir}: {len(conns)} leg(s), action {results['action']:.9g}, "
              f"defect {results['equipartition_defect']:.3g}")
    return EXIT_OK if _within(gates, verbose) else EXIT_EQUIPARTITION


# ---------------------------------------------------------------------------
# double

# the settable keys of a double config, per example: the planar potential's are its own
DOUBLE_KEYS = {"sin": {"schema_version", "example", "mode", "m", "opts", "defect_tol",
                       "residual_tol"}}
DOUBLE_KEYS["planar"] = DOUBLE_KEYS["sin"] | {"beta", "kappa", "s_max"}
# the fewest nodes per field axis that leave one node inside the residual margin
MIN_FIELD_NODES = 2 * RESIDUAL_MARGIN + 1


def _double_setup(cfg: dict) -> tuple:
    """(mode, tolerances, opts, x1, x2, fixture, shell) of a double config;
    ConfigError if malformed.  x1 is the example's grid (``sin_grid`` or
    ``planar_grid``), which its fixture builds too, and x2 the seed's
    (``DoubleOptions.x2_grid``); ``fixture()`` is the effective space with
    its wells, and ``shell(x1)`` the space without them, which ``verify``
    completes."""
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
    tolerances = {
        "defect_tol": _positive(cfg, "defect_tol", 5e-2),
        "residual_tol": _positive(cfg, "residual_tol", 5e-2),
        "residual_margin_cells": RESIDUAL_MARGIN,
        "energy_two_ways_rel": 1e-6,
        "polish_gtol": POLISH_GTOL,
    }
    opts_cfg = _section(cfg, "opts", set(DoubleOptions.__dataclass_fields__))
    default = DoubleOptions()
    opts = DoubleOptions(
        n_out=_integer(opts_cfg, "n_out", default.n_out, MIN_FIELD_NODES, "opts."),
        t_max=_positive(opts_cfg, "t_max", default.t_max, "opts."),
    )
    if example == "sin":
        m = _integer(cfg, "m", 257, MIN_FIELD_NODES)
        x1 = sin_grid(m)
        fixture, shell = functools.partial(sin_example_space, m=m), sin_shell
    else:
        beta, kappa = _positive(cfg, "beta", 1.0), _positive(cfg, "kappa", 1.0)
        s_max = _positive(cfg, "s_max", 8.0)
        m = _integer(cfg, "m", 401, MIN_FIELD_NODES)
        x1 = planar_grid(s_max, m)
        fixture = functools.partial(planar_effective_space, beta=beta, kappa=kappa,
                                    s_max=s_max, m=m)
        shell = functools.partial(planar_shell, beta=beta, kappa=kappa)
    x2 = opts.x2_grid()
    return mode, tolerances, opts, x1, x2, fixture, shell


def _reflection_name(signs: np.ndarray, at: str) -> str:
    """A mirror gate's name for ``signs``, u taken ``at`` the mirrored
    nodes, as "(u1, -u2)(x1, -x2) - u(x1, x2)"."""
    if np.all(signs < 0):
        return f"u{at} + u(x1, x2)"
    if np.all(signs > 0):
        return f"u{at} - u(x1, x2)"
    signed = ", ".join(f"{'-' if v < 0 else ''}u{j + 1}" for j, v in enumerate(signs))
    return f"({signed}){at} - u(x1, x2)"


def _mirror_gate(u: np.ndarray, signs, axis: int, solve: str) -> tuple:
    """The exact gate of a field solved on half its ``axis`` (0 for x2, 1
    for x1) and mirrored: signs * u at the mirrored nodes = u, 0 bit for
    bit.  Its grids are ``mirror_grid``s, exact mirrors by construction.
    The reflection is ``signed_flip``'s, one component plane at a time, and
    the rest is in place: one field-sized array."""
    at = "(x1, -x2)" if axis == 0 else "(x1*, x2)"
    reflected = signed_flip(u, signs, axis)
    reflected -= u
    return (f"max |{_reflection_name(signs, at)}| of {solve}",
            float(np.max(np.abs(reflected, out=reflected))), 0.0)


def _signs(signs) -> list | None:
    return None if signs is None else [int(v) for v in signs]


def _double_results(result: DoubleConnectionResult, tolerances: dict) -> tuple:
    """(results, tables, gates) of a double solve.

    One ``assemble_and_verify`` gives the field audit, and
    ``polished_part`` the polished columns and rows and the two
    reflections.  The field u writes u.npy as it is, the space's grid
    x1.npy and every column's gaps to the wells
    ``boundary_convergence.npy``, whose x2 column is the x2 grid; an asym
    solve adds its shift track m_track.npy, the track's limit shifts and
    total variation (``shift_track_summary``) and the translation-speed
    audit.  The gates hold the x2 defect, the free gradient max, the
    interior residual and the energy two ways against their tolerances,
    and, for each axis polished on its half, the field's mirror at 0
    (``_mirror_gate``).
    """
    space, u, x2 = result.space, result.u, result.x2
    report = assemble_and_verify(result, tolerances["residual_margin_cells"])
    p, m, n = u.shape
    part = polished_part(space, result.mode, p, m)
    gaps = np.column_stack([x2, space.l2_norms(u - space.z_minus.values),
                            space.l2_norms(u - space.z_plus.values)])
    tables = {
        FIELD: ([f"u{j + 1}" for j in range(n)], u),
        "x1.npy": (["x1"], space.grid[:, None]),
        "boundary_convergence.npy": (["x2", "gap_minus_l2", "gap_plus_l2"], gaps),
    }
    status = result.diagnostics["polish_status"]
    results = {
        "energy": report.energy_path,
        "energy_direct": report.energy_direct,
        "energy_path": report.energy_path,
        "ref_value": space.ref_value,
        "residual_max": report.residual_max,
        "residual_l2": report.residual_l2,
        "equip_defect": report.equip_defect,
        "k_length": report.k_length,
        "reduction_gap": report.reduction_gap,
        "solver_status": status,
        "polish_columns": part.columns,
        "polish_rows": part.rows,
        "x2_reflection": _signs(part.sigma),
        "x1_reflection": _signs(part.rho),
        "polish_steps": result.diagnostics["polish_steps"],
        # the whole field's, as verify recomputes it
        "polish_gmax": report.gmax,
        "polish_cg_products": result.diagnostics["polish_cg_products"],
    }
    if result.mode == "asym":
        speed = audit_translation_speed(result.m_track, report)
        results["c_minus"], results["c_plus"], results["m_total_variation"] = (
            shift_track_summary(result.m_track))
        results["translation_speed_c_fit"] = speed.c_fit
        results["translation_speed_max_ratio"] = speed.max_ratio
        tables["m_track.npy"] = (["x2", "m"], np.column_stack([x2, result.m_track]))
    two_ways = abs(report.energy_direct - report.energy_path) / max(abs(report.energy_path),
                                                                      1e-300)
    gates = [
        ("x2 equipartition defect", report.equip_defect, tolerances["defect_tol"]),
        (f"Newton-CG {status}: max free gradient", report.gmax, tolerances["polish_gtol"]),
        ("interior residual max", report.residual_max, tolerances["residual_tol"]),
        ("energy two ways, relative gap", two_ways, tolerances["energy_two_ways_rel"]),
    ]
    if part.columns < p:
        gates.append(_mirror_gate(u, part.sigma, 0, "a half-window solve"))
    if part.rows < m:
        gates.append(_mirror_gate(u, part.rho, 1, "an x1-half solve"))
    return results, tables, gates


def cmd_double(cfg: dict, out_dir: str, verbose: bool) -> int:
    start = _usage()
    mode, tolerances, opts, _, _, fixture, _ = _double_setup(cfg)
    space = fixture()
    if verbose:
        print(f"solving {cfg['example']} example, mode={mode}")
    result = (
        solve_asymmetric(space, opts) if mode == "asym"
        else solve_symmetric(space, opts)
    )
    results, tables, gates = _double_results(result, tolerances)
    _write_run(out_dir, start, tables, kind="double", config=cfg, mode=mode,
               tolerances=tolerances, results=results, warnings=[])
    if verbose:
        print(f"wrote {out_dir}: energy {results['energy']:.9g}, "
              f"residual {results['residual_max']:.3g}")
    return EXIT_OK if _within(gates, verbose) else EXIT_EQUIPARTITION


# ---------------------------------------------------------------------------
# counterexample


# the settable keys of a counterexample config
COUNTER_KEYS = {"schema_version", "g", "radii", "n_max"}
# the candidate through x = 2^n first fails to integrate at n = 21 (g.p 2
# and 3) or 22 (g.p 1.5 and 6); every n <= 20 resolves for g.p 1.01 to 1000
N_MAX = 20


def _counterexample_setup(cfg: dict):
    """(weight, radii, n_max, tolerances) of a counterexample config;
    ConfigError if malformed.

    ``radii`` must be a non-empty, strictly increasing list of finite
    numbers > 0, ``n_max`` an integer from 1 to ``N_MAX`` and ``g.p``
    finite and > 1.
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
    if n_max > N_MAX:
        raise ConfigError(f"config field 'n_max' must be at most {N_MAX}, got {n_max!r}")
    tolerances = {"bound_slack": 1e-6, "candidate_tail_tol": 1e-2}
    return CounterexampleWeight(power=float(p)), tuple(float(r) for r in radii), n_max, tolerances


def _counterexample_results(w: CounterexampleWeight, report, tolerances: dict) -> tuple:
    """(results, tables, gates) of a ``NonexistenceReport``.

    The candidates through x = 2^n write candidates.npy, and the two ends
    of each box bracket boxed.npy.  The gates hold the final candidate's
    excess over the infimum against ``candidate_tail_tol`` and, at 0, the
    count of entries failing each recorded invariant: candidates strictly
    decreasing, box candidates above the crossing bound less
    ``bound_slack``, bracket widths strictly decreasing (NaN fails each).
    """
    lengths, uppers, bounds = report.candidate_lengths, report.box_candidates, report.bounds
    ns = np.asarray(report.candidate_ns, dtype=float)
    tables = {
        "candidates.npy": (["n", "x_n", "candidate_length"],
                           np.column_stack([ns, 2.0 ** ns, lengths])),
        "boxed.npy": (["radius", "candidate_at_radius", "crossing_bound"],
                      np.column_stack([report.radii, uppers, bounds])),
    }
    invariants = {
        "candidates_strictly_decreasing": np.diff(lengths) < 0.0,
        "boxed_above_bound": uppers >= bounds - tolerances["bound_slack"],
        "bracket_widths_decreasing": np.diff(uppers - bounds) < 0.0,
    }
    results = {
        "g_infinity": w.g_infinity,
        "infimum": report.infimum,
        "final_candidate": float(lengths[-1]),
        **{key: bool(np.all(holds)) for key, holds in invariants.items()},
        "bracket_rel_width": report.bracket_rel_widths.tolist(),
        "conclusion": report.conclusion,
    }
    gates = [("final candidate - infimum (candidate_tail_tol)",
              lengths[-1] - report.infimum, tolerances["candidate_tail_tol"])]
    gates += [(f"entries failing {key}", int(np.sum(~holds)), 0)
              for key, holds in invariants.items()]
    return results, tables, gates


def cmd_counterexample(cfg: dict, out_dir: str, verbose: bool) -> int:
    start = _usage()
    w, radii, n_max, tolerances = _counterexample_setup(cfg)
    report = nonexistence_report(w, radii=radii, n_candidates=n_max)
    results, tables, gates = _counterexample_results(w, report, tolerances)
    _write_run(out_dir, start, tables, kind="counterexample", config=cfg,
               tolerances=tolerances, results=results, warnings=[
                   "the bump is C^1 only at |y| = 1 (second derivative jumps); the "
                   "construction tolerates this and the report notes it"])
    if verbose:
        print(f"wrote {out_dir}: final candidate "
              f"{results['final_candidate']:.6g} vs infimum {results['infimum']:g}")
    return EXIT_OK if _within(gates, verbose) else EXIT_EQUIPARTITION


# ---------------------------------------------------------------------------
# verify

# the results that only the solver determines, which verify takes as recorded
SOLVER_ONLY = ("solver_status", "polish_steps", "polish_cg_products")


def _verify_connect(manifest: dict, tables: dict) -> tuple:
    """The config's tolerances and ``_connect_results`` of the legs rebuilt
    from the config and curves.

    The leg ends come from the config as the run takes them
    (``_connect_setup``), each leg's nodes from its curve_k.npy, and its
    times are linspace(-T, T, reparam.n_samples), T the curve's last time
    (``Mismatch`` for another row count).  A gate holds T <= reparam.t_max
    on the line and T = reparam.t_max above.  Each leg's record is
    ``connection_on``'s, with d_K as the run takes it: on the line the
    integral of K between the leg's ends, above the curve's midpoint
    K-length.
    """
    p, wspace, ends, n_samples, t_max, _, tolerances = _connect_setup(manifest["config"])
    conns, windows = [], []
    for k, (a, b) in enumerate(ends, 1):
        name = f"curve_{k}.npy"
        data = tables[name]
        if data.shape[0] != n_samples:
            raise Mismatch(f"{name} has {data.shape[0]} rows, and the config's "
                           f"reparam.n_samples is {n_samples}")
        window = float(data[-1, 0])
        curve = SampledCurve(times=np.linspace(-window, window, n_samples), nodes=data[:, 1:])
        if p.dim == 1:
            dk = float(segment_k_lengths(wspace.weight_at, np.array([[a]]), np.array([[b]]),
                                         [[]])[0])
            windows.append((f"leg {k} window - reparam.t_max", window - t_max, 0.0))
        else:
            dk = k_length(curve, wspace, rule="midpoint")
            windows.append((f"leg {k} |window - reparam.t_max|", abs(window - t_max), 0.0))
        conns.append(connection_on(curve, wspace, a, b, dk, window))
    results, returned, gates = _connect_results(conns, p, wspace, tolerances)
    return tolerances, results, returned, gates + windows


def _verify_double(manifest: dict, tables: dict) -> tuple:
    """The config's tolerances and ``_double_results`` of the solve rebuilt
    from its field.

    The mode and the x1 and x2 grids come from the config as the run takes
    them (``_double_setup``; ``Mismatch`` for another mode or field shape),
    and the comparison of x1.npy and boundary_convergence.npy's x2 column
    with them rejects a field on other grids.  The
    effective space is the config's shell on x1, its wells the field's end
    columns and its reference the 1D action of the last.  An asym run's
    shift track is m_track.npy's.  The Newton-CG's status (``solver_status``)
    and counts are taken as recorded.
    """
    mode, tolerances, _, x1, x2, _, shell = _double_setup(manifest["config"])
    if manifest["mode"] != mode:
        raise Mismatch(f"the manifest's mode {manifest['mode']!r} is not the config's {mode!r}")
    u = tables[FIELD]
    space = shell(x1)
    if u.shape != (x2.size, x1.size, space.n_components):
        raise Mismatch(f"{FIELD} holds a field (x2, x1, component) of shape {u.shape}, "
                       f"and the config's is {(x2.size, x1.size, space.n_components)}")
    space.z_minus, space.z_plus = space.grid_function(u[0]), space.grid_function(u[-1])
    space.ref_value = float(space.energy_1d(u[-1])[0])
    m_track = tables["m_track.npy"][:, 1] if mode == "asym" else None
    recorded = manifest["results"]
    diagnostics = {"polish_status": recorded["solver_status"],
                   "polish_steps": recorded["polish_steps"],
                   "polish_cg_products": recorded["polish_cg_products"]}
    result = DoubleConnectionResult(space, mode, u, x2, m_track, diagnostics)
    return (tolerances, *_double_results(result, tolerances))


def _verify_counterexample(manifest: dict, tables: dict) -> tuple:
    """The config's tolerances and ``_counterexample_results`` of the report
    recomputed from the config."""
    w, radii, n_max, tolerances = _counterexample_setup(manifest["config"])
    report = nonexistence_report(w, radii=radii, n_candidates=n_max)
    return (tolerances, *_counterexample_results(w, report, tolerances))


def _differences(recomputed, recorded, path: str) -> list:
    """One line for each value below ``path`` where ``recorded`` is not
    ``recomputed``, compared by JSON text: numbers bit for bit, NaN equal
    to NaN.  ValueError where a dict's keys differ or where an integer was
    recomputed and ``recorded`` is not one."""
    if isinstance(recomputed, int) and not isinstance(recomputed, bool) and (
            isinstance(recorded, bool) or not isinstance(recorded, int)):
        raise ValueError(f"{path} must be an integer, got {recorded!r}")
    if isinstance(recomputed, dict) and isinstance(recorded, dict):
        if recomputed.keys() != recorded.keys():
            raise ValueError(f"{path} holds the keys {sorted(recorded)}, "
                             f"not {sorted(recomputed)}")
        return [line for key in recomputed
                for line in _differences(recomputed[key], recorded[key], f"{path}.{key}")]
    if (isinstance(recomputed, list) and isinstance(recorded, list)
            and len(recomputed) == len(recorded)):
        return [line for i, pair in enumerate(zip(recomputed, recorded))
                for line in _differences(*pair, f"{path}[{i}]")]
    ours, theirs = json.dumps(recomputed), json.dumps(recorded)
    return [] if ours == theirs else [f"{path}: recomputed {ours}, recorded {theirs}"]


def _table_differences(name: str, columns: list, table, recorded_columns: list,
                       recorded) -> list:
    """A line if the recorded table ``name`` or its columns are not the
    recomputed ones bit for bit."""
    if recorded_columns != columns:
        return [f"{name}: recomputed columns {columns}, recorded {recorded_columns}"]
    table = np.ascontiguousarray(table, dtype="<f8")
    if table.shape != recorded.shape:
        return [f"{name}: recomputed shape {table.shape}, recorded {recorded.shape}"]
    # bit for bit, NaN and the sign of zero included, without a copy of either
    if np.array_equal(table.view(np.uint64), recorded.view(np.uint64)):
        return []
    return [f"{name}: max |recomputed - recorded| {np.max(np.abs(table - recorded)):.3g}"]


def _check(manifest: dict, tables: dict, rebuilt: tuple, verbose: bool) -> int:
    """Compare a run's recorded tolerances, results and tables with
    ``rebuilt``, the config's tolerances and its results function's
    (results, tables, gates) of what verify rebuilt, and gate the gates.

    The tolerances, every result but ``SOLVER_ONLY`` and every table must
    be the recorded ones bit for bit (each difference is printed to
    stderr), and the artifacts must be the tables the function returns.
    The gates read the config's tolerances, never the manifest's.
    """
    tolerances, results, returned, gates = rebuilt
    if sorted(returned) != sorted(tables):
        raise ValueError(f"the artifacts {sorted(tables)} are not the tables "
                         f"{sorted(returned)} of the run")
    differences = _differences(tolerances, manifest["tolerances"], "tolerances")
    differences += _differences(
        {key: value for key, value in results.items() if key not in SOLVER_ONLY},
        {key: value for key, value in manifest["results"].items() if key not in SOLVER_ONLY},
        "results")
    for name, (columns, table) in returned.items():
        differences += _table_differences(name, columns, table, manifest["columns"][name],
                                          tables[name])
    for line in differences:
        print(line, file=sys.stderr)
    if verbose and not differences:
        print(f"results and tables {sorted(returned)} recomputed bit for bit")
    return EXIT_OK if _within(gates, verbose) and not differences else EXIT_EQUIPARTITION


def cmd_verify(run_dir: str, verbose: bool) -> int:
    manifest_path = os.path.join(run_dir, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot load manifest: {exc}", file=sys.stderr)
        return EXIT_CHECKSUM
    if not isinstance(manifest, dict):
        print("manifest root must be a JSON object", file=sys.stderr)
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
    if not all(isinstance(manifest[key], dict)
               for key in ("config", "results", "tolerances", "artifacts", "columns")):
        print("manifest config, results, tolerances, artifacts and columns must be JSON "
              "objects", file=sys.stderr)
        return EXIT_CHECKSUM
    if not isinstance(manifest["kind"], str):
        print(f"manifest kind must be a string, got {manifest['kind']!r}", file=sys.stderr)
        return EXIT_CHECKSUM
    for name, columns in manifest["columns"].items():
        if not (isinstance(columns, list) and all(isinstance(c, str) for c in columns)):
            print(f"manifest columns of {name} must be a list of strings", file=sys.stderr)
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
    rebuild = {"connect": _verify_connect, "double": _verify_double,
               "counterexample": _verify_counterexample}.get(kind)
    if rebuild is None:
        print(f"unknown run kind {kind!r}", file=sys.stderr)
        return EXIT_CHECKSUM
    try:
        tables = {name: _read_table(os.path.join(run_dir, name), manifest["columns"][name],
                                    3 if name == FIELD else 2)
                  for name in manifest["artifacts"]}
        return _check(manifest, tables, rebuild(manifest, tables), verbose)
    except Mismatch as exc:
        print(f"not the run of its config: {exc}", file=sys.stderr)
        return EXIT_EQUIPARTITION
    except (OSError, EOFError, KeyError, ValueError) as exc:
        print(f"verification failed to re-run: {exc}", file=sys.stderr)
        return EXIT_CHECKSUM


# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
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
    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _parser().parse_args(argv)
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
