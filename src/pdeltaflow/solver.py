"""Regularized Galerkin solver for the lifted shear-thinning system.

The unknown is the zero-boundary velocity u (the physical field is
v = u + g with g the data lift) together with a mean-zero pressure
multiplier.  Each penalty level n solves

    <S(Du+Dg), Dphi> + T(u)[phi] + (1/n) <|Du|^(q-2) Du, Dphi>
        - <pi, div phi> = <f, phi>,        <div u, q> = 0,

by Newton's method on the consistent tangent: each step solves the
linear saddle-point system of the momentum residual's derivative.  Every
symmetric gradient is held as its Mandel components (A_00, A_11, sqrt 2
A_01), in which the stress part of that derivative is the 3x3 modulus
nu I + nu'(|A|) a a^T / |A| at A = Du + Dg with components a, nu and nu'
from ``constitutive``.  A step that raises the residual is retaken as a
Picard (Kacanov) step on the isotropic modulus, with the scalar stress
weight, the penalty weight and the transport field frozen at the
iterate.  The saddle systems are solved with a sparse LU held on the
instance: a later solve runs GMRES on its own matrix, preconditioned by
the held factor, and the current matrix is factored only when GMRES
needs more than ``assembly.GMRES_CAP`` iterations.  A continuation run
walks an increasing schedule of n, warm-starting each level from the
last (and keeping its LU) and recording the uniform-bound and
penalty-decay monitors; the pressure recovery at the converged velocity
solves on the same LU.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import assembly
from .constitutive import _check_integer, _stress_factor, sym_stress
from .discretization import Field, _as_vec2, _over, combine_level_norm, mandel_norm, norm_sym_grad_p, sym_grad_norms

__all__ = [
    "ProblemInstance",
    "SolverConfig",
    "LevelRecord",
    "SolveResult",
    "SolverError",
    "CertificationRequired",
    "default_config",
    "make_instance",
    "solve_regularized",
    "continuation_solve",
    "recover_pressure",
    "convective_identity_diagnostics",
]


class SolverError(RuntimeError):
    """Linear solve breakdown or diverged nonlinear iteration.

    ``records`` carries the partial continuation history when a later
    level fails after earlier ones succeeded.
    """

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records or []


class CertificationRequired(RuntimeError):
    """Continuation refused without a satisfied certificate or an override."""


@dataclass
class SolverConfig:
    """Penalty exponent, continuation schedule and iteration tolerances."""

    q: float
    n_schedule: tuple
    picard_tol: float = 1e-9
    picard_max: int = 50
    include_convective: bool = True
    penalty: bool = True

    def __post_init__(self):
        self.n_schedule = tuple(self.n_schedule)
        if not 2 <= self.q < np.inf:  # the frozen penalty weight |Du|^(q-2) must stay finite
            raise ValueError("q must be finite and at least 2")
        if not self.picard_tol > 0:  # a NaN tolerance would never be met
            raise ValueError("picard_tol must be positive")
        _check_integer("picard_max", self.picard_max, 1)
        if not self.n_schedule or min(self.n_schedule) <= 0:
            raise ValueError("n_schedule must be non-empty with positive entries")
        if list(self.n_schedule) != sorted(set(self.n_schedule)):
            raise ValueError("n_schedule must be strictly increasing")
        # n enters float arithmetic; an int past the float range would raise there
        if not all(n <= sys.float_info.max for n in self.n_schedule):
            raise ValueError("n_schedule entries must be finite floats")


def default_config(s, levels=7, q=None, n_schedule=None, **kw):
    """SolverConfig with q = max{2, s} + 1 and the geometric schedule
    n = 10 * 4^k, k < levels, where q and n_schedule are None.

    Any other SolverConfig field may be given in ``kw``.
    """
    if q is None:
        q = max(2.0, s) + 1.0
    if n_schedule is None:
        # 10 * 4^511 is past the float range; checked before the schedule is built
        if levels > 511:
            raise ValueError(f"levels must be at most 511, got {levels}")
        n_schedule = tuple(10 * 4**k for k in range(levels))
    return SolverConfig(q=q, n_schedule=n_schedule, **kw)


@dataclass
class ProblemInstance:
    """Model, space, lift and load bundled with cached quadrature data.

    At the quadrature points, ``g_vals`` (C, Q, 2) holds the lift's values,
    ``g_sym`` (C, Q, 3) the Mandel components of Dg and ``g1_vals`` (C, Q)
    div g.  ``factor`` holds the saddle LU of the instance's last linear solve.
    Every later solve on the instance (the next Newton step, the next
    penalty level, the pressure recovery) starts GMRES on it.
    ``_data_scales`` keeps ``_data_scale`` per ``include_convective``.
    """

    model: object
    space: object
    lift: object  # LiftField or None for homogeneous data
    f_vec: np.ndarray
    report: object = None
    g_vals: np.ndarray = field(repr=False, default=None)
    g_sym: np.ndarray = field(repr=False, default=None)
    g1_vals: np.ndarray = field(repr=False, default=None)
    factor: assembly.FactorHolder = field(repr=False, compare=False, default_factory=assembly.FactorHolder)
    _data_scales: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def g_coeffs(self):
        return self.lift.g.coeffs if self.lift is not None else np.zeros(self.space.n_vel)


def make_instance(model, space, lift_field=None, f=None, report=None):
    """Build a ProblemInstance; f may be a pair of callables of (x, y), a load vector or None."""
    gc = np.zeros(space.n_vel) if lift_field is None else lift_field.g.coeffs
    g_vals, g_sym = space.velocity_values(gc), space.sym_gradients(gc)
    g1_vals = g_sym[..., 0] + g_sym[..., 1]

    if f is None:
        f_vec = np.zeros(space.n_vel)
    elif isinstance(f, np.ndarray):
        f_vec = f
    else:
        f_vec = _load_vector(space, f)
    return ProblemInstance(
        model=model, space=space, lift=lift_field, f_vec=f_vec, report=report,
        g_vals=g_vals, g_sym=g_sym, g1_vals=g1_vals,
    )


def _load_vector(space, f):
    """Load vector <f, phi_i> of a body force f given as a pair of callables of (x, y)."""
    x, y = space.qpts[..., 0], space.qpts[..., 1]
    fx, fy = _as_vec2(f, x.ravel(), y.ravel())
    return assembly.velocity_load(space, np.stack([fx.reshape(x.shape), fy.reshape(x.shape)], axis=-1))


def _stress_term(inst, du):
    """Load vector <S(Du + Dg), D phi_i> at the Mandel components du of Du."""
    a = du + inst.g_sym
    return assembly.stress_load(inst.space, sym_stress(inst.model, a, mandel_norm(a)))


def _penalty_term(inst, du, q, n):
    """Load vector (1/n) <|Du|^(q-2) Du, D phi_i> at the Mandel components du of Du."""
    return assembly.stress_load(inst.space, (mandel_norm(du) ** (q - 2.0) / n)[..., None] * du)


def _outer(v):
    """Mandel components (v0^2, v1^2, sqrt(2) v0 v1) of v x v, for vectors v (..., 2)."""
    return np.stack([v[..., 0] ** 2, v[..., 1] ** 2, np.sqrt(2.0) * v[..., 0] * v[..., 1]], axis=-1)


def _transport_term(inst, v):
    """Load vector -<v x v, D phi_i> - <(div g) v, phi_i> at the total velocity values v."""
    return -assembly.stress_load(inst.space, _outer(v)) - assembly.velocity_load(inst.space, inst.g1_vals[..., None] * v)


def _penalty_of(norm_q, q, n):
    """The penalty norm ||(1/n) |Du|^(q-2) Du||_{q'} = n^-1 ||Du||_q^(q-1) from ||Du||_q at a finite n."""
    return norm_q ** (q - 1.0) / n


@dataclass
class LevelRecord:
    n: float
    iters: int
    residual: float
    converged: bool
    penalty_norm: float
    norm_Du_p: float
    norm_Du_q: float
    level_norm: float
    residual_history: list
    u: Field = field(repr=False, default=None)
    pi: Field = field(repr=False, default=None)
    factorizations: int = 0  # fresh saddle LUs made in this level
    refinements: int = 0  # GMRES iterations run on a held or a fresh LU
    fallbacks: int = 0  # Newton steps retaken as Picard steps; the level made iters + fallbacks saddle solves


@dataclass
class SolveResult:
    u: Field
    v: Field
    pi: Field
    records: list
    diffs: list
    R: float | None
    bound_ok: bool
    penalty_ok: bool
    converged: bool


def _data_scale(inst, cfg):
    """Size of the data terms (f, stress and transport of g alone) on the free dofs, at least 1e-300.

    It depends on no level and no iterate, so each instance computes it once
    per ``cfg.include_convective``.
    """
    convective = bool(cfg.include_convective)
    if convective not in inst._data_scales:
        free = inst.space.free_vel_dofs
        scale = np.linalg.norm(inst.f_vec[free]) + np.linalg.norm(_stress_term(inst, 0.0)[free])
        if convective:
            scale += np.linalg.norm(_transport_term(inst, inst.g_vals)[free])
        inst._data_scales[convective] = max(scale, 1e-300)
    return inst._data_scales[convective]


def _momentum(inst, cfg, n, du, v):
    """Momentum residual R0 on all velocity dofs, without the multiplier, at Du = du and u + g = v."""
    res = _stress_term(inst, du) - inst.f_vec
    if cfg.penalty and np.isfinite(n):
        res += _penalty_term(inst, du, cfg.q, n)
    if cfg.include_convective:
        res += _transport_term(inst, v)
    return res


def _state(inst, cfg, n, u_coeffs):
    """(Du, u + g, R0) at u: Mandel components, total velocity values and ``_momentum``.

    u + g is None without the convective term.  A step's residual and the
    next step's linearization share one state.
    """
    du = inst.space.sym_gradients(u_coeffs)
    v = inst.space.velocity_values(u_coeffs) + inst.g_vals if cfg.include_convective else None
    return du, v, _momentum(inst, cfg, n, du, v)


def _residual(inst, r0, u_coeffs, lam):
    """Nonlinear momentum residual (free dofs) plus the divergence defect, from R0 at u."""
    space = inst.space
    res = r0 + assembly._div_coupling_t(space) @ lam
    div_res = assembly.div_coupling(space) @ u_coeffs
    return np.sqrt(np.linalg.norm(res[space.free_vel_dofs]) ** 2 + np.linalg.norm(div_res) ** 2)


def _modulus(inst, cfg, n, du, tangent):
    """Per-point Mandel modulus of the stress part of J at Du = du.

    With A = Du + Dg and a, d = du the Mandel components of A and Du, it is
    (nu(|A|) + |Du|^(q-2)/n) I + nu'(|A|)/|A| a a^T + (q-2)/n |Du|^(q-4) d d^T,
    the penalty terms only at a finite n, as (C, Q, 3, 3); without ``tangent``
    only the isotropic weight, as (C, Q).  The strain temporaries end with the call.
    """
    a = du + inst.g_sym
    mag = mandel_norm(a)
    nu, slope = _stress_factor(inst.model, mag, slope=True) if tangent else (_stress_factor(inst.model, mag), None)
    penalty = cfg.penalty and np.isfinite(n)
    if penalty:
        mag_u = mandel_norm(du)
        weight_u = mag_u ** (cfg.q - 2.0)
        nu += weight_u / n  # the penalty weights Du only
    if not tangent:
        return nu
    mod = (_over(slope, mag)[..., None] * a)[..., :, None] * a[..., None, :]
    if penalty:
        mod += ((cfg.q - 2.0) / n * _over(weight_u, mag_u**2)[..., None] * du)[..., :, None] * du[..., None, :]
    mod.reshape(nu.shape + (9,))[..., ::4] += nu[..., None]
    return mod


def _linearize(inst, cfg, n, u, tangent=True, state=None):
    """Newton system (J, J u - R0(u)) at the velocity coefficients u.

    J is the derivative of the momentum residual R0 at u, so the saddle
    solve J u_new + C^T lam = J u - R0(u) is one Newton step.  Its stress
    part is the ``_modulus`` M at u, int (M Dw) . Dphi on Mandel
    components, and with the convective term J adds the transport form
    against b = 2 (u + g) with weight div g; both go through one
    ``assembly.modulus_stiffness`` call.  Dphi is symmetric, so (w x b +
    b x w) : Dphi = 2 (w x b) : Dphi gives the factor 2.  With
    ``tangent=False`` the derivative terms are left out: the weights and
    the transport field are frozen at u, the modulus is the isotropic
    weight, and the step is the Picard (Kacanov) step.  ``state`` is the
    ``_state`` at u when the caller has it already.
    """
    # the state before the matrix, so their temporaries do not add up
    du, v, r0 = _state(inst, cfg, n, u) if state is None else state
    b = None if v is None else (2.0 * v if tangent else v)
    a_mat = assembly.modulus_stiffness(inst.space, _modulus(inst, cfg, n, du, tangent), b, inst.g1_vals)
    return a_mat, a_mat @ u - r0


def solve_regularized(inst, cfg, n, warm_start=None):
    """One penalty level: Newton steps on the consistent tangent, with a Picard fallback.

    Each step solves the Newton system of ``_linearize``.  A step that
    raises the residual above the last step's (the level's first step has
    none to compare with) is retaken from the same iterate with the
    frozen-weight (Picard) matrix, and that step is kept;
    ``LevelRecord.fallbacks`` counts them.  The saddle solves run GMRES on
    the LU held in ``inst.factor`` and factor afresh only when it is too stale.
    """
    space = inst.space
    model = inst.model
    held = inst.factor
    made, swept = held.factorizations, held.refinements
    u = np.zeros(space.n_vel) if warm_start is None else warm_start.coeffs.copy()
    state = _state(inst, cfg, n, u)
    lam = np.zeros(space.n_p1)
    scale = _data_scale(inst, cfg)
    history = []
    converged = False
    rel = np.inf
    it = fallbacks = 0

    for it in range(1, cfg.picard_max + 1):
        for tangent in (True, False):
            a_mat, rhs = _linearize(inst, cfg, n, u, tangent=tangent, state=state)
            try:
                u_new, lam = assembly.solve_saddle(space, a_mat, rhs, np.zeros(space.n_p1), factor=held)
            except RuntimeError as exc:
                raise SolverError(f"linear saddle solve broke down at level n={n}: {exc}") from exc
            if not np.all(np.isfinite(u_new)):
                raise SolverError(f"linear solve returned non-finite values at level n={n}")
            step_state = _state(inst, cfg, n, u_new)
            rel = _residual(inst, step_state[2], u_new, lam) / scale
            if not tangent or not history or rel <= history[-1]:
                break
            fallbacks += 1
        u, state = u_new, step_state
        history.append(rel)
        if rel < cfg.picard_tol:
            converged = True
            break

    uf = space.velocity_field(u)
    norm_p, norm_q = sym_grad_norms(uf, (model.p, cfg.q))
    return LevelRecord(
        n=float(n),
        iters=it,
        residual=float(rel),
        converged=converged,
        penalty_norm=_penalty_of(norm_q, cfg.q, n) if cfg.penalty and np.isfinite(n) else 0.0,
        norm_Du_p=norm_p,
        norm_Du_q=norm_q,
        level_norm=combine_level_norm(norm_p, norm_q, cfg.q, n),
        residual_history=history,
        u=uf,
        pi=space.pressure_field(-lam),
        factorizations=held.factorizations - made,
        refinements=held.refinements - swept,
        fallbacks=fallbacks,
    )


def continuation_solve(inst, cfg, override=False):
    """Walk the penalty schedule, warm-starting and monitoring the bounds.

    Refuses to run on an uncertified instance unless ``override`` is set.
    The recorded successive-difference norms are the empirical stand-in
    for the limit identification that the continuum argument provides.
    """
    report = inst.report
    if not override:
        if report is None or not report.satisfied:
            raise CertificationRequired(
                "instance not certified (no satisfied smallness report); pass override to proceed"
            )
    radius = report.R if (report is not None and report.satisfied) else None

    records = []
    diffs = []
    warm = None
    bound_ok = penalty_ok = True
    for n in cfg.n_schedule:
        try:
            rec = solve_regularized(inst, cfg, n, warm_start=warm)
        except SolverError as exc:
            exc.records = records
            raise
        records.append(rec)
        if not rec.converged and rec.residual > 1e-3:
            raise SolverError(
                f"nonlinear iteration diverged at level n={n} (residual {rec.residual:.3e}); aborting with partial history",
                records=records,
            )
        if warm is not None:
            diffs.append(norm_sym_grad_p(inst.space.velocity_field(rec.u.coeffs - warm.coeffs), inst.model.p))
        warm = rec.u
        if radius is not None:
            if rec.level_norm > radius * 1.05:
                bound_ok = False
            if np.isfinite(n) and rec.penalty_norm > n ** (-1.0 / (2.0 * cfg.q - 1.0)) * radius ** (cfg.q - 1.0) * 1.05:
                penalty_ok = False

    final = records[-1]
    v = inst.space.velocity_field(final.u.coeffs + inst.g_coeffs)
    return SolveResult(
        u=final.u,
        v=v,
        pi=final.pi,
        records=records,
        diffs=diffs,
        R=radius,
        bound_ok=bound_ok,
        penalty_ok=penalty_ok,
        converged=all(r.converged for r in records),
    )


def recover_pressure(inst, u, cfg, n=np.inf):
    """Pressure from the mixed system's multiplier at the converged state.

    One Newton saddle solve at u returns the multiplier; the pressure is
    its negative, normalized to mean zero.  The solve runs GMRES on the LU
    held in ``inst.factor``: after ``solve_regularized`` has converged to
    u, the matrix at u is the last step's up to the last correction, so
    the held LU serves it without a new factor.  The returned
    residual is the full momentum defect against unconstrained test
    functions, relative to the data scale.
    """
    space = inst.space
    state = _state(inst, cfg, n, u.coeffs)
    a_mat, rhs = _linearize(inst, cfg, n, u.coeffs, state=state)
    _, lam = assembly.solve_saddle(space, a_mat, rhs, np.zeros(space.n_p1), factor=inst.factor)
    rel = _residual(inst, state[2], u.coeffs, lam) / _data_scale(inst, cfg)
    return space.pressure_field(-lam), float(rel)


def convective_identity_diagnostics(inst, u):
    """Discrete defects of the integration-by-parts identities.

    All four vanish in the continuum for divergence-free zero-boundary u;
    their decay under refinement is the consistency check for the skew
    structure of the convective form.  ``u`` is a velocity Field, or a
    pair of quadrature-point arrays (values (C,Q,2), gradients (C,Q,4) as
    ``velocity_gradients`` gives them) when evaluating an analytic field
    directly.
    """
    space = inst.space
    if isinstance(u, Field):
        uv, gu = space.velocity_values(u.coeffs), space.velocity_gradients(u.coeffs)
    else:
        uv, gu = u
    gv, g1 = inst.g_vals, inst.g1_vals

    def form(a, m, b):  # <a, grad u b> on the gradient components m
        a0, a1, b0, b1 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
        off = ((a0 * b1 + a1 * b0) * m[..., 2] + (a0 * b1 - a1 * b0) * m[..., 3]) / np.sqrt(2.0)
        return space.integrate(a0 * b0 * m[..., 0] + a1 * b1 * m[..., 1] + off)

    def mass(a, b):  # <g1 a, b>
        return space.integrate(g1 * np.sum(a * b, axis=-1))

    uu_dg = space.integrate(np.sum(_outer(uv) * inst.g_sym, axis=-1))  # <u x u, Dg> on Mandel components
    # <u x g, grad u> = -1/2 <g1 u, u> and <u x g, grad u^T> = -<u x u, Dg>
    lhs2, lhs3 = form(uv, gu, gv), form(gv, gu, uv)
    v = uv + gv
    direct = -form(v, gu, v) - mass(v, uv)
    regroup = uu_dg - 0.5 * mass(uv, uv) - form(gv, gu, gv) - mass(gv, uv)
    mag = abs(direct) + abs(regroup) + 1e-300
    return {
        "skew": abs(form(uv, gu, uv)),
        "transport_grad": abs(lhs2 + 0.5 * mass(uv, uv)),
        "transport_grad_T": abs(lhs3 + uu_dg),
        "regroup": abs(direct - regroup),
        "regroup_rel": abs(direct - regroup) / mag,
    }
