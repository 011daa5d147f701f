"""List the functions of the package that no shipped config reaches.

    python3 scripts/unreached.py

Runs every ``configs/*.json`` through its command (``double`` for a config
with an ``example``, ``connect`` for one with a ``potential``, else
``counterexample``) and then ``verify``, each into a temporary directory,
under a ``sys.setprofile`` hook that records every function entered.  Prints
each outermost function of ``src/hetconn`` (a module-level function or a
method of a module-level class; a nested function counts as part of its
outermost one) that was never entered, with its line count from its first
decorator to its last line, then the total, each line counted once.  Exits 1
if a run or a verify did not exit 0, since its reach would then be partial.
"""

import ast
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hetconn"
# the package under inspection is the one imported
sys.path.insert(0, str(ROOT / "src"))


def outermost_functions(path: Path):
    """(name, first line, last line) of each outermost function in ``path``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((prefix + child.name, first, child.end_lineno))
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def command_of(cfg: dict) -> str:
    if "example" in cfg:
        return "double"
    return "connect" if "potential" in cfg else "counterexample"


def entered_code():
    """(file, first line) of every code object entered by the runs and
    verifies, and the list of (config, run code, verify code)."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    sys.setprofile(hook)
    try:
        from hetconn.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            for cfg_path in sorted((ROOT / "configs").glob("*.json")):
                out = str(Path(tmp) / cfg_path.stem)
                command = command_of(json.loads(cfg_path.read_text()))
                run = main([command, "--config", str(cfg_path), "--out", out])
                codes.append((cfg_path.name, run, main(["verify", out])))
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered}, codes


def main() -> int:
    entered, codes = entered_code()
    for name, run, verify in codes:
        print(f"{name}: run exit {run}, verify exit {verify}")
    unreached, lines = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        key = os.path.realpath(path)
        for name, first, last in outermost_functions(path):
            if (key, first) not in entered:
                unreached.append((path.name, first, name, last - first + 1))
                lines.update((path.name, i) for i in range(first, last + 1))
    for module, first, name, count in unreached:
        print(f"{count:6d}  {module}:{first}  {name}")
    print(f"{len(lines):6d}  lines in {len(unreached)} unreached functions")
    return 0 if all(run == verify == 0 for _, run, verify in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
