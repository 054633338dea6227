"""Small arithmetic expression evaluator for config-supplied data.

Expressions are strings over the variables x and y with the usual
operators and a whitelist of numpy-backed functions, compiled through the
ast module; anything outside the whitelist is rejected.  This keeps run
configurations self-describing without executing arbitrary code.
"""

from __future__ import annotations

import ast

import numpy as np

__all__ = ["ExpressionError", "compile_expression"]


class ExpressionError(ValueError):
    """Unparseable or non-whitelisted expression."""


_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "asin": np.arcsin,
    "acos": np.arccos,
    "atan": np.arctan,
    "atan2": np.arctan2,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "log": np.log,
    "log10": np.log10,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
    "floor": np.floor,
    "ceil": np.ceil,
    "sign": np.sign,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
    ast.Mod: np.mod,
}

_UNARY = {ast.UAdd: lambda v: v, ast.USub: np.negative}

# Deepest nesting of syntax elements an expression may have (the bound of
# Python's own parser on nested parentheses); the walk below and the closures
# it builds recurse once per level.
MAX_DEPTH = 200


def _quote(value, limit=60, show=repr):
    """show(value), cut after limit characters, so an error message stays short for any input."""
    text = show(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _compile(node, depth=1):
    """Check the node at nesting level ``depth`` against the whitelist; return a closure of (x, y) evaluating it."""
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels")
    depth += 1
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        left, right = _compile(node.left, depth), _compile(node.right, depth)
        return lambda x, y: op(left(x, y), right(x, y))
    if isinstance(node, ast.UnaryOp):
        op = _UNARY.get(type(node.op))
        if op is None:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        operand = _compile(node.operand, depth)
        return lambda x, y: op(operand(x, y))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only whitelisted function calls are allowed")
        if node.keywords:
            raise ExpressionError("keyword arguments are not allowed")
        fn, args = _FUNCTIONS[node.func.id], [_compile(a, depth) for a in node.args]
        return lambda x, y: fn(*[a(x, y) for a in args])
    if isinstance(node, ast.Name):
        if node.id == "x":
            return lambda x, y: x
        if node.id == "y":
            return lambda x, y: y
        if node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown name {_quote(node.id)}")
        value = _CONSTANTS[node.id]
        return lambda x, y: value
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ExpressionError(f"constant {_quote(node.value)} not allowed")
        value = node.value
        return lambda x, y: value
    raise ExpressionError(f"syntax element {type(node).__name__} not allowed")


def compile_expression(src):
    """Compile an expression string into a vectorized callable of (x, y)."""
    try:
        tree = ast.parse(src, mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:  # the last two: the parser's stack overflowed
        raise ExpressionError(f"cannot parse {_quote(src)}: {str(exc) or type(exc).__name__}") from exc
    body = _compile(tree.body)

    def fun(x, y):
        return np.asarray(body(x, y), dtype=float) + 0.0 * np.asarray(x, dtype=float)

    fun.source = src
    return fun
