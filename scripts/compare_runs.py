"""Compare the manifests of two run directories value by value.

    python3 scripts/compare_runs.py DIR_A DIR_B

Compares the manifest sections ``results``, ``tolerances``, ``config`` and
``warnings`` and the artifact sha256 checksums; ``runtime_seconds`` and the
library versions are not compared.  Every value is compared by its JSON
text, so floats must agree bit for bit and NaN equals NaN.  Prints one line
per difference and exits 1 if there is any, 0 otherwise.
"""

import json
import sys
from pathlib import Path

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


def differences(run_a, run_b) -> list[str]:
    manifests = [json.loads((Path(d) / "manifest.json").read_text()) for d in (run_a, run_b)]
    leaves = [
        dict(leaf for name in SECTIONS for leaf in _leaves(m.get(name, {}), name))
        for m in manifests
    ]
    return [
        f"{path}: {leaves[0].get(path, MISSING)} != {leaves[1].get(path, MISSING)}"
        for path in sorted(set(leaves[0]) | set(leaves[1]))
        if leaves[0].get(path, MISSING) != leaves[1].get(path, MISSING)
    ]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    diffs = differences(*argv)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s) between {argv[0]} and {argv[1]}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
