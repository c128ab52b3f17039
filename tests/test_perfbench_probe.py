"""The benchmark's layer probe still finds every function it wraps and traces
a real command, so a refactor that breaks ``perfbench/run.py --trace 1``
fails here.  Only reads ``perfbench/``: no bytecode is written there."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def probe():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("probe")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


def test_every_wrapped_name_resolves(probe):
    names = [(module, attr) for module, attr, *_ in probe.SPANS]
    names += [(module, attr) for module, attr, _ in probe.COUNTED]
    for module, attr in names:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"


def test_trace_verify_runs(tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe.py"), "trace", str(out),
         "verify", "--model", "value", "--k", "3", "--n", "2"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["exit"] == 0, proc.stdout
    assert report["counts"].get("spectra.direct_calls", 0) > 0
    assert report["counts"].get("dynamics.profile_starts", 0) > 0
