"""Compare the manifests of two run directories value by value.

    python3 scripts/compare_runs.py DIR_A DIR_B

Compares the manifest sections ``results``, ``tolerances``, ``config`` and
``warnings`` and the artifact sha256 checksums; ``runtime_seconds``,
``profile`` and the library versions are not compared.  Every value is compared by its JSON
text, so floats must agree bit for bit and NaN equals NaN.  Prints one line
per difference and exits 1 if there is any, 0 otherwise, also when the
reader closes the output early (``| head``).  When two numbers differ, the
line also gives their relative difference.  Every artifact is an NPY
table; when the checksum of one differs, its line also gives the largest
absolute and relative difference between the two tables, read as rows of
their last axis (a double run's (P, M, n) ``u.npy`` as one row of
its n components per node, x2 outer), or says that their shapes differ;
an entry's relative difference is taken against the largest magnitude of
its column, so rounding noise in entries near zero reads as small as it is.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np

SECTIONS = ("results", "tolerances", "config", "warnings", "artifacts")
MISSING = "<missing>"


def _leaves(value, path):
    """(dotted path, JSON text) of every scalar inside ``value``."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        yield f"{path}.#len", str(len(value))
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}.{i}")
    else:
        yield path, json.dumps(value)


def _numeric_table(path):
    """The NPY table at ``path`` as a 2D array, its last axis the columns
    (a double run's (P, M, n) u.npy reads as rows of u, x2 outer)."""
    table = np.load(path, allow_pickle=False)
    return table.reshape(-1, table.shape[-1])


def number_difference(text_a, text_b) -> str | None:
    """Relative difference of two JSON numbers, or None if either is not one.

    It divides by the larger magnitude of the pair: a number is a column of
    one entry, and ``table_difference`` divides by the largest magnitude of
    a column in either table.
    """
    a, b = json.loads(text_a), json.loads(text_b)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        return None
    a, b = np.float64(a), np.float64(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = abs(a - b) / max(abs(a), abs(b))
    return f"rel difference {rel:.3g}"


def table_difference(path_a, path_b) -> str:
    """Largest absolute and relative difference of two NPY tables.

    Entries that compare equal, and NaN against NaN, count as no difference;
    the relative difference divides each entry's change by the largest
    magnitude of that entry's column in either table (NaN left out).
    """
    try:
        a, b = (_numeric_table(p) for p in (path_a, path_b))
    except (OSError, EOFError, ValueError) as exc:
        return f"tables not compared: {exc}"
    if a.shape != b.shape:
        return f"table shapes {a.shape} != {b.shape}"
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    scale = np.nanmax(np.abs(np.concatenate([a, b])), axis=0, initial=0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.where(same, 0.0, np.abs(a - b))
        rel = np.where(same, 0.0, gap / scale)
    return (f"max abs difference {np.max(gap, initial=0.0):.3g}, "
            f"max rel difference {np.max(rel, initial=0.0):.3g}")


def differences(run_a, run_b) -> list[str]:
    manifests = [json.loads((Path(d) / "manifest.json").read_text()) for d in (run_a, run_b)]
    leaves = [
        dict(leaf for name in SECTIONS for leaf in _leaves(m.get(name, {}), name))
        for m in manifests
    ]
    lines = []
    for path in sorted(set(leaves[0]) | set(leaves[1])):
        a, b = leaves[0].get(path, MISSING), leaves[1].get(path, MISSING)
        if a == b:
            continue
        line = f"{path}: {a} != {b}"
        name = path.removeprefix("artifacts.")
        if MISSING not in (a, b):
            if name != path and Path(name).suffix == ".npy":
                line += f" ({table_difference(Path(run_a) / name, Path(run_b) / name)})"
            elif (rel := number_difference(a, b)) is not None:
                line += f" ({rel})"
        lines.append(line)
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    diffs = differences(*argv)
    try:
        for line in diffs:
            print(line)
        print(f"{len(diffs)} difference(s) between {argv[0]} and {argv[1]}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has stopped (``| head``), so the output ends here; the
        # null device takes what is left, and the flush at exit succeeds
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
