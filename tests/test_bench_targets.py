"""The benchmark's layer tracer wraps program callables by name.

A rename in the package would make its per-layer metrics read zero without
failing anything, so every (module, attribute path) it lists must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for name, module_name, attr_path in targets:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name} ({module_name}:{attr_path})")
    assert missing == []
