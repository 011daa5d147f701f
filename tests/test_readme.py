"""README's Quick start runs as written, and its bit-identity loop runs
every shipped config.

The Quick start's ``python`` blocks are executed in order, in one
namespace, so an example that names a removed function or option fails
here.
"""

import importlib.util
import json
import re
from pathlib import Path

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
