"""The names the benchmark (``perfbench/``) traces must exist in the program.

``perfbench/run.py --trace 1`` wraps every function that
``workloads.program_functions`` lists; a renamed or deleted one would break
the traced run.  The benchmark's own tests are outside this suite, so the
contract is checked here, importing the benchmark read-only.
"""

import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no file in the benchmark's tree
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    funcs = workloads.program_functions()
    assert "discretization.velocity_gradients" in funcs
    for span, (owner, name) in funcs.items():
        assert inspect.isfunction(getattr(owner, name, None)), span
