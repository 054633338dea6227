"""The benchmark (``perfbench/``) must run against the program.

``perfbench/run.py --trace 1`` wraps every function that
``workloads.program_functions`` lists; a renamed or deleted one would break
the traced run.  Each workload's calls and check must also pass on the
program as it is.  The benchmark's own tests are outside this suite, so the
contract is checked here, importing the benchmark read-only.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no file in the benchmark's tree
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    funcs = workloads.program_functions()
    assert "discretization.velocity_gradients" in funcs
    for span, (owner, name) in funcs.items():
        assert inspect.isfunction(getattr(owner, name, None)), span


@pytest.mark.parametrize("name", ["certified8", "mms20", "counterexample24"])
def test_workload_runs_and_passes_its_check(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads").WORKLOADS[name]
    rec = importlib.import_module("recorder").Recorder()
    assert wl.check(wl.run(wl.setup(0), rec)) == []
