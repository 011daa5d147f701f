"""The CLI process: its heap policy and the ``profile`` block of every manifest.

``hetconn.cli.main`` sets glibc's malloc thresholds once per process, so the
freed temporaries of one kernel call stay in the heap for the next instead
of being returned to the kernel and faulted back in.  The policy is
process-wide and this test process has long since called ``main``, so the
page-fault check runs in a fresh interpreter.
"""

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from hetconn import cli
from hetconn.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# a 257 x 129 field: 265 KiB, above glibc's default 128 KiB mmap threshold
FAULT_CFG = {
    "schema_version": 1,
    "example": "sin",
    "m": 257,
    "opts": {"n_out": 129, "t_max": 4.738781121298126},
}

RUNS = {
    "connect": {
        "schema_version": 1,
        "potential": {"name": "double_well"},
        "wells": [[-1.0], [1.0]],
        "reparam": {"n_samples": 201, "t_max": 6.0},
    },
    "double": {
        "schema_version": 1,
        "example": "sin",
        "m": 33,
        "opts": {"n_out": 17, "t_max": 3.0},
        "defect_tol": 10.0,
        "residual_tol": 10.0,
    },
    "counterexample": {
        "schema_version": 1,
        "g": {"type": "power", "p": 2.0},
        "radii": [4.0, 8.0],
        "n_max": 8,
    },
}

# each double after the first in one process: thousands of minor page faults
# without the policy (976 at 257 x 129), single digits with it
REPEAT_FAULT_BOUND = 100

FAULTS = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from hetconn.cli import main
faults = []
for k in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = main(["double", "--config", sys.argv[2], "--out", sys.argv[3] + str(k)])
    faults.append([code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before])
print(json.dumps(faults))
"""


def _run(tmp_path, command, cfg, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    code = main([command, "--config", str(path), "--out", str(out)])
    return code, json.loads((out / "manifest.json").read_text())


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy sets glibc's malloc")
def test_a_repeated_double_reuses_the_freed_heap(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAULT_CFG))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", FAULTS, str(SRC), str(cfg),
                          str(tmp_path / "run")],
                         capture_output=True, text=True, env=env, check=True)
    (code_1, _), (code_2, faults_2) = json.loads(out.stdout)
    assert code_1 == code_2 == 0
    assert faults_2 < REPEAT_FAULT_BOUND


def _no_mallopt(name):
    return SimpleNamespace()


def _no_library(name):
    raise OSError("no C library")


@pytest.fixture
def policy_once_more():
    """Let the next ``main`` apply the heap policy again, and the one after
    this test as well."""
    cli._keep_freed_heap.cache_clear()
    yield
    cli._keep_freed_heap.cache_clear()


@pytest.mark.parametrize("library", [_no_mallopt, _no_library], ids=["no_mallopt", "oserror"])
def test_a_c_library_without_mallopt_changes_no_result(tmp_path, monkeypatch, policy_once_more,
                                                       library):
    code, reference = _run(tmp_path, "double", RUNS["double"], "reference")
    assert code == 0
    opened = []

    def cdll(name):
        opened.append(name)
        return library(name)

    cli._keep_freed_heap.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    code, manifest = _run(tmp_path, "double", RUNS["double"], "patched")
    assert opened == [None]
    assert code == 0
    assert json.dumps(manifest["results"]) == json.dumps(reference["results"])


def test_the_heap_policy_runs_at_the_first_main_only(monkeypatch, policy_once_more):
    calls = []
    lib = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["--help"])
    assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20), (cli.M_TRIM_THRESHOLD, 1 << 30)]


@pytest.mark.parametrize("command", sorted(RUNS))
def test_every_manifest_records_the_command_profile(tmp_path, command):
    code, manifest = _run(tmp_path, command, RUNS[command], command)
    assert code == 0
    profile = manifest["profile"]
    assert sorted(profile) == ["cpu_seconds", "max_rss_kib", "minor_faults"]
    assert isinstance(profile["cpu_seconds"], float) and profile["cpu_seconds"] > 0.0
    assert isinstance(profile["minor_faults"], int) and profile["minor_faults"] >= 0
    assert isinstance(profile["max_rss_kib"], int) and profile["max_rss_kib"] > 0
    # verify reads no profile
    assert main(["verify", str(tmp_path / command)]) == 0
