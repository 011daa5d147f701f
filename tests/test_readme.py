"""README's Quick start runs as written, its bit-identity loop runs every
shipped config, and its artifact list is what the runs record.

The Quick start's ``python`` blocks are executed in order, in one
namespace, so an example that names a removed function or option fails
here.
"""

import importlib.util
import json
import re
from pathlib import Path

from hetconn.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _quick_start_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)


def test_quick_start_runs(capsys):
    blocks = _quick_start_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the line's d_K and action, its defect, then the plane's d_K and action
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    dk, action = map(float, lines[0].split())
    assert abs(dk - 4.0 / 3.0) <= 1e-15 and abs(action - 4.0 / 3.0) <= 1e-5
    assert float(lines[1]) <= 1e-5
    dk, action = map(float, lines[2].split())
    assert abs(dk - 2.115242) <= 1e-6 and abs(action - 2.116103) <= 1e-6


def test_bit_identity_loop_names_every_shipped_config_once():
    text = README.read_text(encoding="utf-8")
    block = text.split("Checking that a change keeps the bits", 1)[1]
    loop = block.split("```bash\n", 1)[1].split("; do", 1)[0]
    pairs = re.findall(r'"(\w+) (\w+)"', loop)
    spec = importlib.util.spec_from_file_location("unreached", ROOT / "scripts" / "unreached.py")
    unreached = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(unreached)
    shipped = [(unreached.command_of(json.loads(path.read_text())), path.stem)
               for path in (ROOT / "configs").glob("*.json")]
    assert sorted(pairs) == sorted(shipped)


# small runs of each kind: a chain of two legs, an asym double (the one kind
# that writes m_track.npy) and the counterexample
ARTIFACT_RUNS = [
    ("connect", {"schema_version": 1, "potential": {"name": "triple_well"},
                 "wells": [[-1.0], [1.0]], "reparam": {"n_samples": 201, "t_max": 6.0}}),
    ("double", {"schema_version": 1, "example": "planar", "mode": "asym", "m": 41,
                "opts": {"n_out": 17, "t_max": 6.0}, "defect_tol": 10.0,
                "residual_tol": 10.0}),
    ("counterexample", {"schema_version": 1, "radii": [4.0, 8.0], "n_max": 8}),
]


def _components_elided(columns):
    """``columns`` with every component name after u1 left out: the README
    writes a curve's and the field's components as `u1` … `ud`."""
    return tuple(c for c in columns if c == "u1" or not re.fullmatch(r"u\w+", c))


def test_artifact_list_names_the_recorded_artifacts(tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Run artifacts\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)`[^|]* \| `([\w.]+)` \| (.+) \|$", section, flags=re.M)
    listed = {(command, name, _components_elided(re.findall(r"`(\w+)`", cols)))
              for command, name, cols in rows}
    recorded = set()
    for command, cfg in ARTIFACT_RUNS:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["columns"]) == set(manifest["artifacts"])
        recorded |= {(command, re.sub(r"_\d+\.npy$", "_k.npy", name), _components_elided(columns))
                     for name, columns in manifest["columns"].items()}
    assert len(rows) == len(listed) == 8
    assert listed == recorded
