import json

import numpy as np
import pytest

from pdeltaflow.cli import EXIT_INVALID_CONFIG, main
from pdeltaflow.expressions import MAX_DEPTH, ExpressionError, compile_expression


@pytest.mark.parametrize(
    "src",
    [
        "x.real",
        "x[0]",
        "lambda: 1",
        "x < 1",
        "x and y",
        "pow(x, exp=2)",
        "'a'",
        "z",
        '__import__("os")',
        "(x := 1)",
        "x @ y",
        "~x",
        "1j",
        "x if y else 1",
        'eval("1")',
        "np.sin(x)",
        "[x]",
        "1 +",
    ],
)
def test_outside_the_whitelist_is_rejected_at_compile(src):
    with pytest.raises(ExpressionError):
        compile_expression(src)


def test_every_operator_evaluates_as_numpy():
    x, y = np.linspace(0.1, 0.9, 7), np.linspace(1.7, 0.3, 7)
    fun = compile_expression("-x + (+y) * 2 - x / y ** 2 % 0.3 + atan2(y, x) * sqrt(x) - max(x, y) + pow(y, 1.5) * exp(-x) - pi * e")
    ref = (
        np.negative(x)
        + y * 2
        - np.mod(np.divide(x, np.power(y, 2)), 0.3)
        + np.arctan2(y, x) * np.sqrt(x)
        - np.maximum(x, y)
        + np.power(y, 1.5) * np.exp(np.negative(x))
        - np.pi * np.e
    )
    np.testing.assert_array_equal(fun(x, y), ref)


@pytest.mark.parametrize(
    "src", ["-" * 2000 + "x", "-" * 20000 + "x", "True + x"], ids=["depth2000", "depth20000", "bool"]
)
def test_deep_nesting_and_bool_constants_exit_4(tmp_path, capsys, src):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"data": {"g1": src}}))
    assert main(["lift", "--config", str(path), "--out", str(tmp_path / "t")]) == EXIT_INVALID_CONFIG
    assert "bad data expression" in capsys.readouterr().err


def test_nesting_just_inside_the_bound_evaluates():
    fun = compile_expression("-" * (MAX_DEPTH - 1) + "x")
    np.testing.assert_array_equal(fun(np.array([0.5, 2.0]), 0.0), [-0.5, -2.0])
    with pytest.raises(ExpressionError):
        compile_expression("-" * MAX_DEPTH + "x")


@pytest.mark.parametrize(
    "src", ["-" * 20000 + "x", "a" * 20000, '"' + "s" * 20000 + '"'], ids=["parse", "name", "constant"]
)
def test_errors_quote_a_bounded_prefix(tmp_path, capsys, src):
    with pytest.raises(ExpressionError) as info:
        compile_expression(src)
    assert len(str(info.value)) < 200
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"data": {"g1": src}}))
    assert main(["lift", "--config", str(path), "--out", str(tmp_path / "t")]) == EXIT_INVALID_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1 and len(err) < 250
