"""The CLI still prints the check names and writes the files that
``perfbench/reference.json`` records for the self-test configs and for the
``exact`` workload's own commands (verify value 5,3 and 4,4, build value
4,4), so drift that the benchmark would count as a failed operation fails
here first.  Only reads ``perfbench/``: no bytecode is written there."""

import importlib
import sys
from pathlib import Path

import pytest

from burnside.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize(
    "model, k, n", [("value", 3, 2), ("coord", 2, 3), ("value", 5, 3), ("value", 4, 4)]
)
def test_verify_check_names(workloads, capsys, model, k, n):
    cmd = workloads.Verify(model, k, n)
    code = main(cmd.argv(None, 0))
    stdout = capsys.readouterr().out
    assert cmd.check(code, stdout, None, workloads.load_reference()) == ""


def test_build_digests(workloads, tmp_path, capsys):
    for k, n in [(3, 2), (4, 4)]:
        cmd = workloads.Export("value", k, n)
        out_dir = tmp_path / f"value{k},{n}"
        code = main(cmd.argv(out_dir, 0))
        stdout = capsys.readouterr().out
        assert cmd.check(code, stdout, out_dir, workloads.load_reference()) == ""
