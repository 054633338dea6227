"""The benchmark's workloads: input generation, the timed calls, the checks.

Each workload turns a seed into inputs (``setup``), makes the calls of one
operation under two benchmark spans, ``stage.prepare`` and ``stage.solve``
(``run``), and lists what is wrong with the outcome (``check``; empty when
correct).  ``records`` and ``facts`` give the outcome's solver levels and
the workload's own per-layer figures.  Only the generated inputs reach
the program.
"""

from __future__ import annotations

import importlib
import inspect
import sys

import numpy as np
import sympy as sy

from pdeltaflow import cli, counterexample, discretization, solver
from pdeltaflow.constitutive import PDeltaModel
from pdeltaflow.discretization import DiscreteSpace, RectDomain, norm_Lp

from metrics import LAYERS

SPACE_METHODS = ("velocity_values", "velocity_gradients")


def program_functions():
    """Span name -> (owner, attribute) for every public function of the layers."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"pdeltaflow.{layer}")
        for name in mod.__all__:
            obj = vars(mod).get(name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = (mod, name)
    for name in SPACE_METHODS:
        out[f"discretization.{name}"] = (DiscreteSpace, name)
    return out


def program_namespaces():
    return [m for n, m in sorted(sys.modules.items()) if n == "pdeltaflow" or n.startswith("pdeltaflow.")]


def _offset_domain(seed):
    """Unit square translated by a seeded offset: an equivalent input per seed."""
    x0, y0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=2)
    return RectDomain(float(x0), float(y0), float(x0) + 1.0, float(y0) + 1.0)


# -- certified8 -----------------------------------------------------------------


class Certified:
    """`pdeltaflow solve` on the default config on an 8x8 mesh: certificate, then continuation."""

    name = "certified8"
    mesh = 8

    def setup(self, seed):
        return cli.RunConfig({"seed": seed, "domain": {"nx": self.mesh, "ny": self.mesh}})

    def run(self, cfg, rec):
        with rec.span("stage.prepare"):
            pipe = cli.build_certificate(cfg)
        report = pipe["report"]
        sc = cfg["solver"]
        scfg = solver.default_config(pipe["s"], levels=sc["levels"], picard_tol=sc["picard_tol"])
        inst = solver.make_instance(pipe["model"], pipe["space"], lift_field=pipe["lift"], f=pipe["f"], report=report)
        with rec.span("stage.solve"):
            result = solver.continuation_solve(inst, scfg)
        solver.convective_identity_diagnostics(inst, result.u)
        return {"pipe": pipe, "result": result, "levels": sc["levels"]}

    def check(self, out):
        report, res = out["pipe"]["report"], out["result"]
        if not report.satisfied:
            return ["smallness certificate not satisfied"]
        errs = []
        if len(res.records) != out["levels"] or not all(r.converged for r in res.records):
            errs.append(f"expected {out['levels']} converged levels, got {[r.converged for r in res.records]}")
        if not (res.bound_ok and res.penalty_ok):
            errs.append(f"bound_ok={res.bound_ok} penalty_ok={res.penalty_ok}")
        worst = max(r.norm_Du_p for r in res.records)
        if not worst <= 1.05 * report.R:
            errs.append(f"max |Du|_p {worst:.3e} > 1.05 R = {1.05 * report.R:.3e}")
        return errs

    def records(self, out):
        return out["result"].records

    def facts(self, out):
        return {"discretization.embedding_converged": sum(bool(v) for v in out["pipe"]["emb"].converged.values())}


# -- mms20 ----------------------------------------------------------------------


def manufactured_fields(domain, p, delta, amp):
    """Exact velocity, pressure and matching convective body force.

    The stream function amp sin^2(pi X) sin^2(pi Y) / pi and the pressure
    sin(pi X) cos(pi Y) are written in the coordinates X, Y relative to
    the domain's lower-left corner, so every translate is the same problem.
    """
    x, y = sy.symbols("x y")
    xr, yr = x - domain.x0, y - domain.y0
    psi = amp * sy.sin(sy.pi * xr) ** 2 * sy.sin(sy.pi * yr) ** 2 / sy.pi
    ue = [sy.diff(psi, y), -sy.diff(psi, x)]
    pe = sy.sin(sy.pi * xr) * sy.cos(sy.pi * yr)
    grad = [[sy.diff(ue[i], v) for v in (x, y)] for i in range(2)]
    du = [[(grad[i][j] + grad[j][i]) / 2 for j in range(2)] for i in range(2)]
    mag = sy.sqrt(du[0][0] ** 2 + 2 * du[0][1] ** 2 + du[1][1] ** 2)
    nu = (delta + mag) ** (p - 2)
    f = [
        -sum(sy.diff(nu * du[i][j], v) for j, v in enumerate((x, y)))
        + sy.diff(pe, (x, y)[i])
        + ue[0] * grad[i][0]
        + ue[1] * grad[i][1]
        for i in range(2)
    ]
    lam = lambda e: sy.lambdify((x, y), e, "numpy")
    return {"u": (lam(ue[0]), lam(ue[1])), "pi": lam(pe), "f": (lam(f[0]), lam(f[1]))}


class Manufactured:
    """Cold-started convective Picard solve at n = inf against an exact solution."""

    name = "mms20"
    mesh = 20
    p, delta, amp = 1.8, 0.1, 0.3
    # errors computed on the unit square; every translate agrees to roundoff
    ref_u_err, ref_p_err, err_rtol = 1.6061e-5, 2.2945e-3, 0.02

    def setup(self, seed):
        domain = _offset_domain(seed)
        return {"domain": domain, **manufactured_fields(domain, self.p, self.delta, self.amp)}

    def run(self, inp, rec):
        with rec.span("stage.prepare"):
            # through the module, so the traced run sees the call
            space = discretization.build_space(inp["domain"], self.mesh, self.mesh)
            inst = solver.make_instance(PDeltaModel(p=self.p, delta=self.delta), space, f=inp["f"])
        cfg = solver.SolverConfig(q=3.0, n_schedule=(1,), penalty=False, picard_tol=1e-10)
        with rec.span("stage.solve"):
            level = solver.solve_regularized(inst, cfg, np.inf)
            pi, _ = solver.recover_pressure(inst, level.u, cfg=cfg, n=np.inf)
        return {"space": space, "level": level, "pi": pi, "inp": inp}

    def errors(self, out):
        space = out["space"]
        uex = space.interpolate_velocity(out["inp"]["u"])
        pex = space.interpolate_scalar(out["inp"]["pi"])
        u_err = norm_Lp(space.velocity_field(out["level"].u.coeffs - uex.coeffs), 2.0)
        p_err = norm_Lp(space.pressure_field(out["pi"].coeffs - pex.coeffs), 2.0)
        return u_err, p_err

    def check(self, out):
        errs = []
        if not out["level"].converged:
            errs.append(f"Picard not converged (residual {out['level'].residual:.3e})")
        for label, got, ref in zip(("velocity", "pressure"), self.errors(out), (self.ref_u_err, self.ref_p_err)):
            if not abs(got - ref) <= self.err_rtol * ref:
                errs.append(f"{label} L2 error {got:.4e} not within {self.err_rtol:.0%} of {ref:.4e}")
        return errs

    def records(self, out):
        return [out["level"]]

    def facts(self, out):
        u_err, p_err = self.errors(out)
        return {"solver.mms_u_err_l2": u_err, "solver.mms_p_err_l2": p_err}


# -- counterexample -------------------------------------------------------------


class Counterexample:
    """The default `pdeltaflow counterexample` scan on a 3-level family on meshes 6, 12, 24."""

    name = "counterexample24"
    levels, base_n = 3, 6

    def setup(self, seed):
        ce = cli.RunConfig({"counterexample": {"levels": self.levels, "base_n": self.base_n}})["counterexample"]
        return {"domain": _offset_domain(seed), **ce}

    def run(self, inp, rec):
        with rec.span("stage.prepare"):
            fam = counterexample.build_family(
                inp["levels"], p=inp["p"], q=inp["q"], base_n=inp["base_n"], width0=inp["width0"], domain=inp["domain"]
            )
        with rec.span("stage.solve"):
            scan = counterexample.counterexample_scan(
                fam, inp["n_values"], R=inp["R"], F1=inp["F1"], G1=inp["G1"], c2=inp["c2"]
            )
        return {"scan": scan, "R": inp["R"]}

    def check(self, out):
        scan = out["scan"]
        if scan["N0"] is None:
            return ["no negativity threshold N0"]
        errs = []
        tail = [r for r in scan["records"] if r.n >= scan["N0"]]
        margins = [r.margin for r in tail]
        if not all(r.P_n < 0 for r in tail) or not all(a < b for a, b in zip(margins[:-1], margins[1:])):
            errs.append(f"tail from N0={scan['N0']} not negative with rising margins: {margins}")
        worst = max(abs(r.level_norm - out["R"]) for r in scan["records"])
        if worst > 1e-8:
            errs.append(f"level norm off the sphere R by {worst:.3e}")
        return errs

    def records(self, out):
        return []

    def facts(self, out):
        return {}


WORKLOADS = {w.name: w for w in (Certified(), Manufactured(), Counterexample())}
