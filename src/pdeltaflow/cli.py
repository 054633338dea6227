"""Command-line front end: tensor checks, lifting, certification, solving,
counterexample runs and lemma sweeps, driven by one JSON config file.

Exit codes: 0 success / condition holds, 2 condition fails, 3 numerical
failure or failed allocation, 4 invalid config (an ``out`` that cannot be
made a directory and written to included).  Reports are JSON and CSV
without timestamps, so identical config and seed reproduce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import copy
import csv
import inspect
import json
import math
import os
import sys

import numpy as np

from . import certifier, counterexample, solver
from .constitutive import PDeltaModel, _check_growth, _check_sampling, estimate_characteristics, inequality_sweep, young_gap
from .discretization import (
    RectDomain,
    _check_iters,
    _check_mesh,
    build_space,
    critical_exponent,
    estimate_dual_norm,
    estimate_embedding_constants,
    save_field,
)
from .expressions import ExpressionError, _quote, compile_expression
from .lifting import BoundaryData, LiftingError, lift

__all__ = ["RunConfig", "ConfigError", "main", "DEFAULT_CONFIG"]

EXIT_OK = 0
EXIT_CONDITION_FAILED = 2
EXIT_NUMERICAL = 3
EXIT_INVALID_CONFIG = 4


class ConfigError(ValueError):
    """Malformed run configuration (unknown keys, bad types, bad values)."""


def _defaults(*makes, leave=()):
    """The default of each defaulted parameter of the calls makes, by name, leaving out those named in leave."""
    return {
        k: v.default
        for make in makes
        for k, v in inspect.signature(make).parameters.items()
        if v.default is not inspect.Parameter.empty and k not in leave
    }


def _split(section, make):
    """The entries of section that make takes by name, and the rest."""
    names = inspect.signature(make).parameters
    return {k: v for k, v in section.items() if k in names}, {k: v for k, v in section.items() if k not in names}


DEFAULT_CONFIG = {
    "seed": 0,
    "out": "runs/out",
    "model": {**_defaults(PDeltaModel), "p": 1.8, "delta": 0.01},
    "domain": {**_defaults(RectDomain, build_space), "nx": 16, "ny": 16},
    "data": {
        "g1": "0",
        "g2": [
            "0.01 * pi * sin(pi*x) * cos(pi*y)",
            "-0.01 * pi * cos(pi*x) * sin(pi*y)",
        ],
        "f": ["0", "0"],
    },
    # the sample of the check-tensor sweep; the characteristics themselves take only dim
    "characteristics": _defaults(inequality_sweep, leave=("seed", "tol", "chars")),
    "embedding": _defaults(estimate_embedding_constants),
    # q and n_schedule are derived from s and levels unless set
    "solver": _defaults(solver.default_config, solver.SolverConfig),
    "certify": {"sweep_lambdas": None},
    "counterexample": {
        "levels": 4,
        **_defaults(counterexample.build_family, counterexample.counterexample_scan, leave=("domain",)),
        "n_values": [2, 4, 8, 12, 16, 24, 32, 64, 128, 256],
    },
}


# the type of each key whose default does not show it, as a prototype value: the
# null defaults, and n_values, whose integer defaults stand for any positive numbers
_PROTOTYPES = {
    "solver.q": 0.0,
    "solver.n_schedule": [0.0],
    "certify.sweep_lambdas": [0.0],
    "counterexample.n_values": [0.0],
}

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _has_type(val, proto):
    """Whether val has the JSON type of proto; a float prototype takes any finite number."""
    if isinstance(proto, list):
        return isinstance(val, list) and all(_has_type(v, proto[0]) for v in val)
    if type(proto) is float:
        # json.load accepts NaN and +-Infinity
        return type(val) is int or (type(val) is float and math.isfinite(val))
    return type(val) is type(proto)


def _kind(proto):
    if isinstance(proto, list):
        return f"a list, each entry {_kind(proto[0])}"
    return _KINDS[type(proto)]


def _merge(defaults, user, path=""):
    """defaults overlaid with user; each user value must have its default's JSON type."""
    if not isinstance(user, dict):
        raise ConfigError(f"section {path or '<root>'} must be an object")
    out = copy.deepcopy(defaults)
    for key, val in user.items():
        name = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {_quote(name)}")
        default = defaults[key]
        if isinstance(default, dict):
            out[key] = _merge(default, val, name)
            continue
        proto = _PROTOTYPES.get(name, default)
        if not ((val is None and default is None) or _has_type(val, proto)):
            raise ConfigError(f"{name} must be {'null or ' if default is None else ''}{_kind(proto)}, got {_quote(val)}")
        out[key] = copy.deepcopy(val)
    return out


def _build(section, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError or FamilyError reported, cut short, as a bad config section."""
    try:
        return make(*args, **kwargs)
    except (ValueError, counterexample.FamilyError) as exc:
        raise ConfigError(f"bad {section} section: {_quote(exc, 200, str)}") from exc


class RunConfig:
    """Validated run configuration and the run's objects, built once at load.

    ``data`` is the merged JSON form, which round-trips losslessly.  The
    objects are ``model`` (PDeltaModel), ``domain`` (RectDomain),
    ``boundary`` (BoundaryData of the compiled g1 and g2), ``body_force``
    (the compiled f pair; None for f = ("0", "0")), ``s`` and
    ``solver_config`` (SolverConfig).  ``overrides`` replace root keys
    (``seed``, ``out``) of ``raw`` before the load.
    """

    def __init__(self, raw=None, **overrides):
        self.data = cfg = _merge(_merge(DEFAULT_CONFIG, {} if raw is None else raw), overrides)
        if cfg["seed"] < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {_quote(cfg['seed'])}")
        self.model = _build("model", PDeltaModel, **cfg["model"])
        box, mesh = _split(cfg["domain"], RectDomain)
        self.domain = _build("domain", RectDomain, **box)
        _build("domain", _check_mesh, **mesh)
        dd = cfg["data"]
        for key in ("g2", "f"):
            if len(dd[key]) != 2:
                raise ConfigError(f"data.{key} must be a pair of expression strings")
        try:
            g1, *g2, fx, fy = map(compile_expression, [dd["g1"], *dd["g2"], *dd["f"]])
        except ExpressionError as exc:
            raise ConfigError(f"bad data expression: {exc}") from exc
        self.boundary = BoundaryData(g1=g1, g2=tuple(g2))
        self.body_force = None if [c.strip() for c in dd["f"]] == ["0", "0"] else (fx, fy)
        _build("characteristics", _check_sampling, **cfg["characteristics"])
        _build("embedding", _check_iters, **cfg["embedding"])
        fam_args, scan_args = _split(cfg["counterexample"], counterexample._check_family)
        _build("counterexample", counterexample._check_family, **fam_args)
        _build("counterexample", counterexample._check_scan, **scan_args)
        self.s = certifier.compute_s(self.model.p, 2)
        self.solver_config = _build("solver", solver.default_config, self.s, **cfg["solver"])

    def serialize(self):
        return json.dumps(self.data, sort_keys=True, indent=2)

    @classmethod
    def parse(cls, text, **overrides):
        doc = json.loads(text)
        if doc is None:  # RunConfig(None) is the default config; a document holding null is not
            raise ConfigError("section <root> must be an object")
        return cls(doc, **overrides)

    @classmethod
    def load(cls, path, **overrides):
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read(), **overrides)

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.data == other.data

    def __getitem__(self, key):
        return self.data[key]


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, fieldnames, rows):
    """CSV of the given columns of each row dict; other keys are left out."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _space(cfg):
    return build_space(cfg.domain, **_split(cfg["domain"], RectDomain)[1])


def build_certificate(cfg):
    """Shared pipeline: characteristics, embedding constants, lift, smallness.

    ``f`` in the result is the load vector of the body force, None for f = 0.
    """
    model, s = cfg.model, cfg.s
    space = _space(cfg)
    chars = estimate_characteristics(model, dim=cfg["characteristics"]["dim"])
    emb = estimate_embedding_constants(space, model.p, s, **cfg["embedding"])
    lf = lift(cfg.boundary, space, model.p, s)
    f = None if cfg.body_force is None else solver._load_vector(space, cfg.body_force)
    f_norm = 0.0 if f is None else estimate_dual_norm(space, f, model.p).value
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


# -- subcommands ---------------------------------------------------------------


def cmd_check_tensor(cfg, out):
    chars = estimate_characteristics(cfg.model, dim=cfg["characteristics"]["dim"])
    report = inequality_sweep(cfg.model, seed=cfg["seed"], chars=chars, **cfg["characteristics"])
    payload = {"inequalities": report, "characteristics": chars.to_json()}
    violations = sum(report[k] for k in report if k.startswith("violations_"))
    payload["verdict"] = "pass" if violations == 0 else "fail"
    _write_json(os.path.join(out, "tensor_report.json"), payload)
    return EXIT_OK if violations == 0 else EXIT_CONDITION_FAILED


def cmd_lift(cfg, out):
    try:
        lf = lift(cfg.boundary, _space(cfg), cfg.model.p, cfg.s)
    except LiftingError as exc:
        _write_json(os.path.join(out, "lift_report.json"), {"error": str(exc), "compat_defect": exc.compat_defect})
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
    inst = solver.make_instance(pipe["model"], pipe["space"], lift_field=pipe["lift"], f=pipe["f"], report=report)

    def write_history(records):
        columns = ["n", "iters", "residual", "penalty_norm", "norm_Du_p", "norm_Du_q"]
        _write_csv(os.path.join(out, "solve_history.csv"), columns, [vars(r) for r in records])

    try:
        result = solver.continuation_solve(inst, cfg.solver_config, override=override)
    except solver.CertificationRequired:
        _write_json(
            os.path.join(out, "solve_report.json"),
            {"refused": "certification failed; rerun with --override-certification", "certificate": report.to_json()},
        )
        return EXIT_CONDITION_FAILED
    except solver.SolverError as exc:
        if exc.records:
            write_history(exc.records)
        _write_json(os.path.join(out, "solve_report.json"), {"error": str(exc), "certificate": report.to_json()})
        return EXIT_NUMERICAL
    write_history(result.records)
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
    fam_args, scan_args = _split(cfg["counterexample"], counterexample._check_family)
    try:
        fam = counterexample.build_family(**fam_args, domain=cfg.domain)
    except counterexample.FamilyError as exc:
        _write_json(os.path.join(out, "counterexample.json"), {"error": str(exc)})
        return EXIT_NUMERICAL
    scan = counterexample.counterexample_scan(fam, **scan_args)
    _write_csv(
        os.path.join(out, "counterexample.csv"),
        ["n", "branch", "y_n", "y_achieved", "P_n", "margin", "member_mix", "sign"],
        [vars(r) for r in scan["records"]],
    )
    _write_json(
        os.path.join(out, "counterexample.json"),
        {
            "N0": scan["N0"],
            "signs": [r.sign for r in scan["records"]],
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
        # the paper's table: s = p above 3d/(d+2), (p*/2)' at and below it
        ref = p if p > 3.0 * d / (d + 2.0) else certifier.conjugate(critical_exponent(p, d) / 2.0)
        ok &= abs(certifier.compute_s(p, d) - ref) <= 1e-12 * max(1.0, ref)
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


COMMANDS = {
    "check-tensor": cmd_check_tensor,
    "lift": cmd_lift,
    "certify": cmd_certify,
    "solve": cmd_solve,
    "counterexample": cmd_counterexample,
    "verify-lemmas": cmd_verify_lemmas,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pdeltaflow", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config file (defaults used when omitted)")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--override-certification", action="store_true", help="run solve even when uncertified")
    args = parser.parse_args(argv)

    overrides = {key: val for key, val in (("seed", args.seed), ("out", args.out)) if val is not None}
    try:
        cfg = RunConfig.load(args.config, **overrides) if args.config else RunConfig(**overrides)
        # the smallness condition and the weight optimality scan have no p = 2 branch;
        # the other commands take p = 2
        if args.command in ("certify", "solve", "verify-lemmas") and cfg.model.p == 2.0:
            raise ConfigError(f"{args.command} needs model.p in (1, 2), got 2")
        # the commands that use C1-C3 need a model that has them
        if args.command in ("certify", "solve", "check-tensor"):
            _build("model", _check_growth, cfg.model)
        out = cfg["out"]
        try:
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "config.json"), "w") as fh:
                fh.write(cfg.serialize() + "\n")
        except OSError as exc:  # its text would repeat the path
            raise ConfigError(f"out {_quote(out)} is not a writable directory: {exc.strerror}") from exc
    except (ValueError, OSError) as exc:  # ValueError: ConfigError, bad JSON or UTF-8, an int past the digit limit, a NUL in a path
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG

    try:
        # overflow or 0/0 anywhere in a run ends it on exit 3, not on inf or nan in a report
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "solve":
                return cmd_solve(cfg, out, override=args.override_certification)
            return COMMANDS[args.command](cfg, out)
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:  # float overflow, FloatingPointError, a huge array
        print(f"run failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
