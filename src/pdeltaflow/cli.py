"""Command-line front end: tensor checks, lifting, certification, solving,
counterexample runs and lemma sweeps, driven by one JSON config file.

Exit codes: 0 success / condition holds, 2 condition fails, 3 numerical
failure, 4 invalid config.  Reports are JSON and CSV without timestamps,
so identical config and seed reproduce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import inspect
import json
import math
import os
import sys

import numpy as np

from . import certifier, counterexample, solver
from .constitutive import PDeltaModel, estimate_characteristics, inequality_sweep, young_gap
from .discretization import (
    ASCENT_ITERS,
    RectDomain,
    build_space,
    estimate_dual_norm,
    estimate_embedding_constants,
    save_field,
)
from .expressions import ExpressionError, compile_expression
from .lifting import BoundaryData, LiftingError, check_compatibility, lift

__all__ = ["RunConfig", "ConfigError", "main", "DEFAULT_CONFIG"]

EXIT_OK = 0
EXIT_CONDITION_FAILED = 2
EXIT_NUMERICAL = 3
EXIT_INVALID_CONFIG = 4


class ConfigError(ValueError):
    """Malformed run configuration (unknown keys, bad types, bad values)."""


DEFAULT_CONFIG = {
    "seed": 0,
    "out": "runs/out",
    "model": {"p": 1.8, "delta": 0.01, "mu0": 0.0, "mu": 1.0},
    "domain": {"x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0, "nx": 16, "ny": 16, "quad_degree": 8},
    "data": {
        "g1": "0",
        "g2": [
            "0.01 * pi * sin(pi*x) * cos(pi*y)",
            "-0.01 * pi * cos(pi*x) * sin(pi*y)",
        ],
        "f": ["0", "0"],
    },
    "characteristics": {"samples": 100000, "dim": 2},
    "embedding": {"iters": ASCENT_ITERS},
    # q and n_schedule are derived from s and levels unless set
    "solver": {
        "q": None,
        "levels": inspect.signature(solver.default_config).parameters["levels"].default,
        "n_schedule": None,
        **{
            f.name: f.default
            for f in dataclasses.fields(solver.SolverConfig)
            if f.default is not dataclasses.MISSING
        },
    },
    "certify": {"sweep_lambdas": None},
    "counterexample": {
        "levels": 4,
        "base_n": 8,
        "width0": 0.32,
        "p": 1.5,
        "q": 3.0,
        "R": 1.0,
        "F1": 1.0,
        "G1": 1.0,
        "c2": 2.0,
        "n_values": [2, 4, 8, 12, 16, 24, 32, 64, 128, 256],
    },
}


# count-valued keys of the numeric sections; their other keys take any number
_INT_KEYS = {"nx", "ny", "quad_degree", "samples", "dim", "iters", "levels", "base_n"}


def _merge(defaults, user, path=""):
    if not isinstance(user, dict):
        raise ConfigError(f"section {path or '<root>'} must be an object")
    out = copy.deepcopy(defaults)
    for key, val in user.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], val, path + key + ".")
        else:
            # json.load accepts NaN and +-Infinity
            if any(isinstance(v, float) and not math.isfinite(v) for v in (val if isinstance(val, list) else [val])):
                raise ConfigError(f"{path + key} must be finite, got {val!r}")
            out[key] = copy.deepcopy(val)
    return out


class RunConfig:
    """Validated run configuration; round-trips losslessly through JSON."""

    def __init__(self, raw=None):
        self.data = _merge(DEFAULT_CONFIG, raw or {})
        self._validate()

    def _validate(self):
        if type(self.data["seed"]) is not int or self.data["seed"] < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.data['seed']!r}")
        if not isinstance(self.data["out"], str):
            raise ConfigError(f"out must be a path string, got {self.data['out']!r}")
        if not isinstance(self.data["counterexample"]["n_values"], list):
            raise ConfigError("counterexample.n_values must be a list of numbers")
        for section in ("model", "domain", "characteristics", "embedding", "counterexample"):
            for key, val in self.data[section].items():
                kind = int if key in _INT_KEYS else (int, float)
                for v in val if key == "n_values" else [val]:
                    if isinstance(v, bool) or not isinstance(v, kind):
                        what = "an integer" if kind is int else "a number"
                        raise ConfigError(f"{section}.{key} must be {what}, got {v!r}")
        m = self.data["model"]
        if not (1.0 < m["p"] <= 2.0):
            raise ConfigError(f"model.p must lie in (1, 2], got {m['p']}")
        if m["delta"] < 0 or m["mu0"] < 0 or m["mu"] <= 0:
            raise ConfigError("model parameters must satisfy delta, mu0 >= 0 and mu > 0")
        d = self.data["domain"]
        if d["x1"] <= d["x0"] or d["y1"] <= d["y0"]:
            raise ConfigError("domain must have positive side lengths")
        if d["nx"] < 2 or d["ny"] < 2:
            raise ConfigError("domain.nx and domain.ny must be at least 2")
        try:
            compile_expression(self.data["data"]["g1"])
            for key in ("g2", "f"):
                comp = self.data["data"][key]
                if not (isinstance(comp, list) and len(comp) == 2):
                    raise ConfigError(f"data.{key} must be a pair of expression strings")
                for c in comp:
                    compile_expression(c)
        except ExpressionError as exc:
            raise ConfigError(f"bad data expression: {exc}") from exc
        ch = self.data["characteristics"]
        if ch["samples"] < 10000:
            raise ConfigError("characteristics.samples must be at least 10000")
        if ch["dim"] not in (2, 3):
            raise ConfigError(f"characteristics.dim must be 2 or 3, got {ch['dim']}")
        if self.data["embedding"]["iters"] < 1:
            raise ConfigError("embedding.iters must be at least 1")
        ce = self.data["counterexample"]
        if ce["q"] <= ce["p"]:
            raise ConfigError("counterexample needs q > p")
        if ce["levels"] < 3 or ce["base_n"] < 2:
            raise ConfigError("counterexample needs levels >= 3 and base_n >= 2")
        # F1 = 0 would divide by zero in the scan's step-1 threshold
        if not (ce["width0"] > 0 and ce["R"] > 0 and ce["F1"] > 0 and ce["c2"] > 1):
            raise ConfigError("counterexample needs width0, R, F1 > 0 and c2 > 1")
        if not ce["n_values"] or min(ce["n_values"]) <= 0:
            raise ConfigError("counterexample.n_values must be a non-empty list of positive numbers")
        lam = self.data["certify"]["sweep_lambdas"]
        if lam is not None and not (isinstance(lam, list) and all(type(v) in (int, float) for v in lam)):
            raise ConfigError("certify.sweep_lambdas must be null or a list of numbers")
        try:
            _solver_config(self.data, certifier.compute_s(m["p"], 2))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad solver section: {exc}") from exc

    def serialize(self):
        return json.dumps(self.data, sort_keys=True, indent=2)

    @classmethod
    def parse(cls, text):
        return cls(json.loads(text))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.data == other.data

    def __getitem__(self, key):
        return self.data[key]


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _model(cfg):
    m = cfg["model"]
    return PDeltaModel(p=m["p"], delta=m["delta"], mu0=m["mu0"], mu=m["mu"])


def _space(cfg):
    d = cfg["domain"]
    dom = RectDomain(d["x0"], d["y0"], d["x1"], d["y1"])
    return build_space(dom, d["nx"], d["ny"], quad_degree=d["quad_degree"])


def _boundary_data(cfg):
    dd = cfg["data"]
    g1 = compile_expression(dd["g1"])
    g2 = (compile_expression(dd["g2"][0]), compile_expression(dd["g2"][1]))
    return BoundaryData(g1=g1, g2=g2)


def _load_f(cfg):
    fx, fy = cfg["data"]["f"]
    if fx.strip() == "0" and fy.strip() == "0":
        return None
    return (compile_expression(fx), compile_expression(fy))


def build_certificate(cfg):
    """Shared pipeline: characteristics, embedding constants, lift, smallness."""
    model = _model(cfg)
    space = _space(cfg)
    s = certifier.compute_s(model.p, 2)
    chars = estimate_characteristics(
        model, samples=cfg["characteristics"]["samples"], seed=cfg["seed"], dim=cfg["characteristics"]["dim"]
    )
    emb = estimate_embedding_constants(space, model.p, s, iters=cfg["embedding"]["iters"])
    data = _boundary_data(cfg)
    lf = lift(data, space, model.p, s)
    f = _load_f(cfg)
    if f is None:
        f_norm = 0.0
        f_vec = None
    else:
        inst_probe = solver.make_instance(model, space, f=f)
        f_vec = inst_probe.f_vec
        f_norm = estimate_dual_norm(space, f_vec, model.p).value
    g1c, g2c, g3c = certifier.compute_constants(chars, emb, lf, f_norm, model.p, s, model.delta)
    provenance = {
        "characteristics": chars.to_json(),
        "embedding": emb.to_json(),
        "lift_norms": lf.to_json(),
        "f_norm": f_norm,
    }
    report = certifier.check_smallness(g1c, g2c, g3c, model.p, s=s, provenance=provenance)
    return {
        "model": model,
        "space": space,
        "s": s,
        "chars": chars,
        "emb": emb,
        "lift": lf,
        "f": f,
        "f_norm": f_norm,
        "report": report,
    }


def _solver_config(cfg, s):
    """solver.default_config with the solver keys the user changed."""
    defaults = DEFAULT_CONFIG["solver"]
    # a type change counts: `"penalty": 1` must reach SolverConfig's bool check
    sc = {k: v for k, v in cfg["solver"].items() if type(v) is not type(defaults[k]) or v != defaults[k]}
    return solver.default_config(s, **sc)


# -- subcommands ---------------------------------------------------------------


def cmd_check_tensor(cfg, out):
    model = _model(cfg)
    report = inequality_sweep(
        model, samples=cfg["characteristics"]["samples"], seed=cfg["seed"], dim=cfg["characteristics"]["dim"]
    )
    chars = estimate_characteristics(
        model, samples=cfg["characteristics"]["samples"], seed=cfg["seed"], dim=cfg["characteristics"]["dim"]
    )
    payload = {"inequalities": report, "characteristics": chars.to_json()}
    violations = sum(report[k] for k in report if k.startswith("violations_"))
    payload["verdict"] = "pass" if violations == 0 else "fail"
    _write_json(os.path.join(out, "tensor_report.json"), payload)
    return EXIT_OK if violations == 0 else EXIT_CONDITION_FAILED


def cmd_lift(cfg, out):
    model = _model(cfg)
    space = _space(cfg)
    s = certifier.compute_s(model.p, 2)
    data = _boundary_data(cfg)
    defect = check_compatibility(data, space)
    try:
        lf = lift(data, space, model.p, s)
    except LiftingError as exc:
        _write_json(os.path.join(out, "lift_report.json"), {"error": str(exc), "compat_defect": defect})
        return EXIT_NUMERICAL
    save_field(os.path.join(out, "lift_g.txt"), lf.g)
    _write_json(os.path.join(out, "lift_report.json"), lf.to_json())
    return EXIT_OK


def cmd_certify(cfg, out):
    try:
        pipe = build_certificate(cfg)
    except LiftingError as exc:
        _write_json(os.path.join(out, "certificate.json"), {"error": str(exc)})
        return EXIT_NUMERICAL
    report = pipe["report"]
    _write_json(os.path.join(out, "certificate.json"), report.to_json())
    lambdas = cfg["certify"]["sweep_lambdas"]
    if lambdas:
        sweep = certifier.scaling_sweep(
            pipe["chars"], pipe["emb"], pipe["lift"], pipe["f_norm"], pipe["model"].p, pipe["s"], pipe["model"].delta, lambdas
        )
        _write_csv(
            os.path.join(out, "sweep.csv"),
            ["lambda", "G1", "G2", "G3", "lhs", "rhs", "satisfied", "R"],
            sweep["rows"],
        )
    return EXIT_OK if report.satisfied else EXIT_CONDITION_FAILED


def cmd_solve(cfg, out, override=False):
    try:
        pipe = build_certificate(cfg)
    except LiftingError as exc:
        _write_json(os.path.join(out, "solve_report.json"), {"error": str(exc)})
        return EXIT_NUMERICAL
    report = pipe["report"]
    if not report.satisfied and not override:
        _write_json(
            os.path.join(out, "solve_report.json"),
            {"refused": "certification failed; rerun with --override-certification", "certificate": report.to_json()},
        )
        return EXIT_CONDITION_FAILED
    inst = solver.make_instance(pipe["model"], pipe["space"], lift_field=pipe["lift"], f=pipe["f"], report=report)
    scfg = _solver_config(cfg, pipe["s"])
    try:
        result = solver.continuation_solve(inst, scfg, override=override)
    except solver.SolverError as exc:
        if exc.records:
            _write_csv(
                os.path.join(out, "solve_history.csv"),
                ["n", "iters", "residual", "penalty_norm", "norm_Du_p", "norm_Du_q"],
                [r.row() for r in exc.records],
            )
        _write_json(os.path.join(out, "solve_report.json"), {"error": str(exc), "certificate": report.to_json()})
        return EXIT_NUMERICAL
    _write_csv(
        os.path.join(out, "solve_history.csv"),
        ["n", "iters", "residual", "penalty_norm", "norm_Du_p", "norm_Du_q"],
        [r.row() for r in result.records],
    )
    save_field(os.path.join(out, "velocity_u.txt"), result.u)
    save_field(os.path.join(out, "velocity_v.txt"), result.v)
    save_field(os.path.join(out, "pressure.txt"), result.pi)
    diags = solver.convective_identity_diagnostics(inst, result.u)
    _write_json(
        os.path.join(out, "solve_report.json"),
        {
            "certificate": report.to_json(),
            "R": result.R,
            "bound_ok": result.bound_ok,
            "penalty_ok": result.penalty_ok,
            "converged": result.converged,
            "successive_diffs": result.diffs,
            "convective_identities": diags,
        },
    )
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def cmd_counterexample(cfg, out):
    ce = cfg["counterexample"]
    d = cfg["domain"]
    dom = RectDomain(d["x0"], d["y0"], d["x1"], d["y1"])
    try:
        fam = counterexample.build_family(
            ce["levels"], p=ce["p"], q=ce["q"], base_n=ce["base_n"], width0=ce["width0"], domain=dom
        )
    except counterexample.FamilyError as exc:
        _write_json(os.path.join(out, "counterexample.json"), {"error": str(exc)})
        return EXIT_NUMERICAL
    scan = counterexample.counterexample_scan(
        fam, ce["n_values"], R=ce["R"], F1=ce["F1"], G1=ce["G1"], c2=ce["c2"]
    )
    _write_csv(
        os.path.join(out, "counterexample.csv"),
        ["n", "branch", "y_n", "y_achieved", "P_n", "margin", "member_mix"],
        [r.row() for r in scan["records"]],
    )
    _write_json(
        os.path.join(out, "counterexample.json"),
        {
            "N0": scan["N0"],
            "ratios": fam.ratios,
            "meshes": fam.meshes,
            "c1": scan["c1"],
            "c2": scan["c2"],
            "negativity_exhibited": scan["N0"] is not None,
        },
    )
    return EXIT_OK if scan["N0"] is not None else EXIT_CONDITION_FAILED


def cmd_verify_lemmas(cfg, out):
    """Numeric sweeps of the standalone algebraic facts."""
    checks = {}

    ps = np.linspace(1.05, 2.0, 20)
    grid = np.concatenate([[0.0], np.logspace(-6, 6, 25)])
    worst = 0.0
    for p in ps:
        a, t = np.meshgrid(grid, grid, indexing="ij")
        gap = young_gap(a, t, float(p))
        worst = min(worst, float(np.min(gap + 1e-10 * (1.0 + t**p))))
    checks["young_gap_grid"] = {"pass": worst >= 0.0, "worst_slack": worst}

    rng = np.random.default_rng(cfg["seed"])
    ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 4))
        lo = 2.0 * d / (d + 2.0)
        p = float(rng.uniform(lo + 1e-6, 2.0 - 1e-9))
        s = certifier.compute_s(p, d)
        pstar = p * d / (d - p)
        ref = max(p, pstar / 2.0 / (pstar / 2.0 - 1.0))
        ok &= abs(s - ref) <= 1e-12 * max(1.0, ref)
    checks["s_branch_table"] = {"pass": bool(ok)}

    ok = True
    worst = 0.0
    for _ in range(1000):
        p = float(rng.uniform(1.05, 1.95))
        g1 = float(10 ** rng.uniform(-2, 2))
        g2 = float(10 ** rng.uniform(-2, 2))
        lhs = (2 - p) ** (2 - p) * (p - 1) ** (p - 1) * g1
        g3 = (lhs / g2 ** (p - 1)) ** (1.0 / (2.0 - p)) * float(rng.uniform(0.1, 1.0))
        rep = certifier.check_smallness(g1, g2, g3, p)
        if not rep.satisfied:
            ok = False
            continue
        resid = abs((2 - p) * g1 * rep.R ** (p - 1) - g3) / max(g3, 1e-300)
        worst = max(worst, resid)
        ok &= resid <= 1e-10
        ok &= certifier.polynomial_positivity_check(g1, g2, g3, p, rep.R) >= -1e-10 * g1 * rep.R**p
    checks["radius_formula"] = {"pass": bool(ok), "worst_residual": worst}

    scan = certifier.weight_optimality_scan(1.0, 0.5, cfg["model"]["p"])
    checks["weight_optimality"] = {
        "pass": abs(scan["best_theta"] - scan["optimal_theta"]) <= 1.5e-3,
        "best_theta": scan["best_theta"],
        "optimal_theta": scan["optimal_theta"],
    }

    payload = {"checks": checks, "all_pass": all(c["pass"] for c in checks.values())}
    _write_json(os.path.join(out, "lemma_report.json"), payload)
    return EXIT_OK if payload["all_pass"] else EXIT_CONDITION_FAILED


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pdeltaflow", description=__doc__)
    parser.add_argument("command", choices=["check-tensor", "lift", "certify", "solve", "counterexample", "verify-lemmas"])
    parser.add_argument("--config", default=None, help="JSON config file (defaults used when omitted)")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--override-certification", action="store_true", help="run solve even when uncertified")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.data["seed"] = args.seed
        if args.out is not None:
            cfg.data["out"] = args.out
        cfg._validate()
        # the smallness condition and the weight optimality scan have no p = 2 branch;
        # the other commands take p = 2
        if args.command in ("certify", "solve", "verify-lemmas") and cfg["model"]["p"] == 2.0:
            raise ConfigError(f"{args.command} needs model.p in (1, 2), got 2")
    except (ConfigError, ExpressionError, json.JSONDecodeError, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG

    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.json"), "w") as fh:
        fh.write(cfg.serialize() + "\n")

    try:
        # overflow or 0/0 anywhere in a run ends it on exit 3, not on inf or nan in a report
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "check-tensor":
                return cmd_check_tensor(cfg, out)
            if args.command == "lift":
                return cmd_lift(cfg, out)
            if args.command == "certify":
                return cmd_certify(cfg, out)
            if args.command == "solve":
                return cmd_solve(cfg, out, override=args.override_certification)
            if args.command == "counterexample":
                return cmd_counterexample(cfg, out)
            if args.command == "verify-lemmas":
                return cmd_verify_lemmas(cfg, out)
    except (ValueError, RuntimeError, ArithmeticError) as exc:  # ArithmeticError: float overflow, FloatingPointError
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
