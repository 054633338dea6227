"""Regularized Galerkin solver for the lifted shear-thinning system.

The unknown is the zero-boundary velocity u (the physical field is
v = u + g with g the data lift) together with a mean-zero pressure
multiplier.  Each penalty level n solves

    <S(Du+Dg), Dphi> + T(u)[phi] + (1/n) <|Du|^(q-2) Du, Dphi>
        - <pi, div phi> = <f, phi>,        <div u, q> = 0,

by Picard iteration: the scalar stress weight, the penalty weight and the
transport field are frozen at the previous iterate and the resulting
linear saddle-point system is solved with a sparse LU.  The LU of an
earlier step is reused, refined to the current matrix, until it turns too
stale to refine; only then is the current matrix factored.  A continuation
run walks an increasing schedule of n, warm-starting each level from the
last (and keeping its LU) and recording the uniform-bound and
penalty-decay monitors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import assembly
from .constitutive import eval_stress, frobenius, symmetrize
from .discretization import Field, level_norm, norm_sym_grad_p

__all__ = [
    "ProblemInstance",
    "SolverConfig",
    "LevelRecord",
    "SolveResult",
    "SolverError",
    "CertificationRequired",
    "default_config",
    "make_instance",
    "apply_S",
    "apply_T",
    "apply_P",
    "apply_penalty",
    "solve_regularized",
    "continuation_solve",
    "recover_pressure",
    "convective_identity_diagnostics",
    "penalty_norm",
]


class SolverError(RuntimeError):
    """Linear solve breakdown or diverged Picard iteration.

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
    damping: float = 1.0
    include_convective: bool = True
    penalty: bool = True

    def __post_init__(self):
        self.n_schedule = tuple(self.n_schedule)
        if not self.q >= 2:  # the frozen penalty weight |Du|^(q-2) must stay finite
            raise ValueError("q must be at least 2")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if isinstance(self.picard_max, bool) or not isinstance(self.picard_max, (int, np.integer)) or self.picard_max < 1:
            raise ValueError(f"picard_max must be an integer of at least 1, got {self.picard_max!r}")
        if not self.n_schedule or min(self.n_schedule) <= 0:
            raise ValueError("n_schedule must be non-empty with positive entries")
        if list(self.n_schedule) != sorted(set(self.n_schedule)):
            raise ValueError("n_schedule must be strictly increasing")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")
        for key in ("include_convective", "penalty"):
            if not isinstance(getattr(self, key), (bool, np.bool_)):
                raise ValueError(f"{key} must be true or false, got {getattr(self, key)!r}")


def default_config(s, levels=7, **kw):
    """q = max{2, s} + 1 and the geometric schedule n = 10 * 4^k, k < levels.

    Any other SolverConfig field, or q and n_schedule themselves, may be
    given in ``kw``.
    """
    kw.setdefault("q", max(2.0, s) + 1.0)
    kw.setdefault("n_schedule", tuple(10 * 4**k for k in range(levels)))
    return SolverConfig(**kw)


@dataclass
class ProblemInstance:
    """Model, space, lift and load bundled with cached quadrature data."""

    model: object
    space: object
    lift: object  # LiftField or None for homogeneous data
    f_vec: np.ndarray
    report: object = None
    g_vals: np.ndarray = field(repr=False, default=None)
    g_sym: np.ndarray = field(repr=False, default=None)
    g1_vals: np.ndarray = field(repr=False, default=None)

    @property
    def g_coeffs(self):
        return self.lift.g.coeffs if self.lift is not None else np.zeros(self.space.n_vel)


def make_instance(model, space, lift_field=None, f=None, report=None):
    """Build a ProblemInstance; f may be a callable, a load vector or None."""
    if lift_field is not None:
        gc = lift_field.g.coeffs
        g_vals = space.velocity_values(gc)
        g_sym = symmetrize(space.velocity_gradients(gc))
    else:
        g_vals = np.zeros((space.n_cells, space.nq, 2))
        g_sym = np.zeros((space.n_cells, space.nq, 2, 2))
    g1_vals = g_sym[..., 0, 0] + g_sym[..., 1, 1]

    if f is None:
        f_vec = np.zeros(space.n_vel)
    elif isinstance(f, np.ndarray):
        f_vec = f
    else:
        from .discretization import _as_vec2

        x, y = space.qpts[..., 0], space.qpts[..., 1]
        fx, fy = _as_vec2(f, x.ravel(), y.ravel())
        f_vals = np.stack([fx.reshape(x.shape), fy.reshape(x.shape)], axis=-1)
        f_vec = assembly.velocity_load(space, f_vals)
    return ProblemInstance(
        model=model, space=space, lift=lift_field, f_vec=f_vec, report=report,
        g_vals=g_vals, g_sym=g_sym, g1_vals=g1_vals,
    )


def _du(inst, coeffs):
    return symmetrize(inst.space.velocity_gradients(coeffs))


def _stress_term(inst, du):
    """Load vector <S(Du + Dg), D phi_i> at the symmetric gradient du."""
    return assembly.stress_load(inst.space, eval_stress(inst.model, du + inst.g_sym))


def _penalty_term(inst, du, q, n):
    """Load vector (1/n) <|Du|^(q-2) Du, D phi_i>."""
    return assembly.stress_load(inst.space, (frobenius(du) ** (q - 2.0) / n)[..., None, None] * du)


def _transport_term(inst, v):
    """Load vector -<v x v, D phi_i> - <(div g) v, phi_i> at the total velocity values v."""
    space = inst.space
    outer = symmetrize(v[..., :, None] * v[..., None, :])
    return -assembly.stress_load(space, outer) - assembly.velocity_load(space, inst.g1_vals[..., None] * v)


def apply_S(inst, u, phi):
    """<S(Du + Dg), D phi>."""
    return float(_stress_term(inst, _du(inst, u.coeffs)) @ phi.coeffs)


def apply_T(inst, u, phi):
    """-<(u+g) x (u+g), D phi> - <(div g)(u+g), phi>."""
    v = inst.space.velocity_values(u.coeffs) + inst.g_vals
    return float(_transport_term(inst, v) @ phi.coeffs)


def apply_penalty(inst, u, phi, q, n):
    """(1/n) <|Du|^(q-2) Du, D phi>."""
    return float(_penalty_term(inst, _du(inst, u.coeffs), q, n) @ phi.coeffs)


def apply_P(inst, u, phi, include_convective=True):
    """Full operator <S(u) + T(u) - f, phi>."""
    val = apply_S(inst, u, phi) - float(inst.f_vec @ phi.coeffs)
    if include_convective:
        val += apply_T(inst, u, phi)
    return val


def penalty_norm(u, q, n):
    """||(1/n) |Du|^(q-2) Du||_{q'} which reduces to n^-1 ||Du||_q^(q-1)."""
    if not np.isfinite(n):
        return 0.0
    return norm_sym_grad_p(u, q) ** (q - 1.0) / n


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
    refinements: int = 0  # refinement sweeps made with a held LU

    def row(self):
        return {
            "n": self.n,
            "iters": self.iters,
            "residual": self.residual,
            "penalty_norm": self.penalty_norm,
            "norm_Du_p": self.norm_Du_p,
            "norm_Du_q": self.norm_Du_q,
        }


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


def _stress_weight(model, base_mag):
    """Frozen scalar weight mu0 + mu (delta + |A|)^(p-2), floored away from 0."""
    base = model.delta + base_mag
    floor = 1e-12 * (1.0 + float(base.max()))
    return model.mu0 + model.mu * np.maximum(base, floor) ** (model.p - 2.0)


def _data_scale(inst, cfg):
    """Size of the data terms (f, stress and transport of g alone) on the free dofs."""
    free = inst.space.free_vel_dofs
    scale = np.linalg.norm(inst.f_vec[free]) + np.linalg.norm(_stress_term(inst, 0.0)[free])
    if cfg.include_convective:
        scale += np.linalg.norm(_transport_term(inst, inst.g_vals)[free])
    return scale


def _residual(inst, cfg, n, u_coeffs, lam):
    """Nonlinear momentum residual (free dofs) plus the divergence defect."""
    space = inst.space
    du = _du(inst, u_coeffs)
    res = _stress_term(inst, du) - inst.f_vec
    if cfg.penalty and np.isfinite(n):
        res += _penalty_term(inst, du, cfg.q, n)
    if cfg.include_convective:
        res += _transport_term(inst, space.velocity_values(u_coeffs) + inst.g_vals)
    res += assembly.div_coupling(space).T @ lam
    div_res = assembly.div_coupling(space) @ u_coeffs
    return np.sqrt(np.linalg.norm(res[space.free_vel_dofs]) ** 2 + np.linalg.norm(div_res) ** 2)


def _linearize(inst, cfg, n, u):
    """Frozen-coefficient system (a_mat, rhs) at the velocity coefficients u.

    The stress weight, the penalty weight and the transport field are
    frozen at u; the lift enters the right-hand side.
    """
    space = inst.space
    du = _du(inst, u)
    nu = _stress_weight(inst.model, frobenius(du + inst.g_sym))
    weight = nu
    if cfg.penalty and np.isfinite(n):
        weight = nu + frobenius(du) ** (cfg.q - 2.0) / n  # penalty weights Du only
    a_mat = assembly.sym_grad_stiffness(space, weight)
    rhs = inst.f_vec - assembly.stress_load(space, nu[..., None, None] * inst.g_sym)
    if cfg.include_convective:
        b_vals = space.velocity_values(u) + inst.g_vals
        # both share the cached velocity pattern; `+` would prune cancelled entries
        a_mat.data += assembly.transport_matrix(space, b_vals, inst.g1_vals).data
        gob = symmetrize(inst.g_vals[..., :, None] * b_vals[..., None, :])
        rhs += assembly.stress_load(space, gob) + assembly.velocity_load(
            space, inst.g1_vals[..., None] * inst.g_vals
        )
    return a_mat, rhs


def solve_regularized(inst, cfg, n, warm_start=None, factor=None):
    """One penalty level: Picard with frozen weights and transport field.

    ``factor`` is the ``assembly.FactorHolder`` whose saddle LU the Picard
    steps reuse; a continuation hands one holder to every level.  Without
    it the level makes its own.
    """
    space = inst.space
    model = inst.model
    held = assembly.FactorHolder() if factor is None else factor
    made, swept = held.factorizations, held.refinements
    u = np.zeros(space.n_vel) if warm_start is None else warm_start.coeffs.copy()
    lam = np.zeros(space.n_p1)
    scale = max(_data_scale(inst, cfg), 1e-300)
    history = []
    converged = False
    rel = np.inf
    it = 0

    for it in range(1, cfg.picard_max + 1):
        a_mat, rhs = _linearize(inst, cfg, n, u)
        try:
            u_new, lam = assembly.solve_saddle(space, a_mat, rhs, np.zeros(space.n_p1), factor=held)
        except RuntimeError as exc:
            raise SolverError(f"linear saddle solve broke down at level n={n}: {exc}") from exc
        if not np.all(np.isfinite(u_new)):
            raise SolverError(f"linear solve returned non-finite values at level n={n}")
        u = u + cfg.damping * (u_new - u)
        rel = _residual(inst, cfg, n, u, lam) / scale
        history.append(rel)
        if rel < cfg.picard_tol:
            converged = True
            break

    uf = space.velocity_field(u)
    return LevelRecord(
        n=float(n),
        iters=it,
        residual=float(rel),
        converged=converged,
        penalty_norm=penalty_norm(uf, cfg.q, n) if cfg.penalty else 0.0,
        norm_Du_p=norm_sym_grad_p(uf, model.p),
        norm_Du_q=norm_sym_grad_p(uf, cfg.q),
        level_norm=level_norm(uf, model.p, cfg.q, n),
        residual_history=history,
        u=uf,
        pi=space.pressure_field(-lam),
        factorizations=held.factorizations - made,
        refinements=held.refinements - swept,
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
    held = assembly.FactorHolder()  # each level warm-starts from the last, so its LU carries over
    bound_ok = penalty_ok = True
    for n in cfg.n_schedule:
        try:
            rec = solve_regularized(inst, cfg, n, warm_start=warm, factor=held)
        except SolverError as exc:
            exc.records = records
            raise
        records.append(rec)
        if not rec.converged and rec.residual > 1e-3:
            raise SolverError(
                f"Picard diverged at level n={n} (residual {rec.residual:.3e}); aborting with partial history",
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


def recover_pressure(inst, u, cfg=None, n=np.inf):
    """Pressure from the mixed system's multiplier at the converged state.

    One frozen-coefficient saddle solve at u returns the multiplier; the
    pressure is its negative, normalized to mean zero.  The returned
    residual is the full momentum defect against unconstrained test
    functions, relative to the data scale.
    """
    if cfg is None:
        cfg = default_config(inst.model.p, penalty=False)
    space = inst.space
    a_mat, rhs = _linearize(inst, cfg, n, u.coeffs)
    _, lam = assembly.solve_saddle(space, a_mat, rhs, np.zeros(space.n_p1))
    rel = _residual(inst, cfg, n, u.coeffs, lam) / max(_data_scale(inst, cfg), 1e-300)
    return space.pressure_field(-lam), float(rel)


def convective_identity_diagnostics(inst, u):
    """Discrete defects of the integration-by-parts identities.

    All four vanish in the continuum for divergence-free zero-boundary u;
    their decay under refinement is the consistency check for the skew
    structure of the convective form.  ``u`` is a velocity Field, or a
    pair of quadrature-point arrays (values (C,Q,2), gradients (C,Q,2,2))
    when evaluating an analytic field directly.
    """
    space = inst.space
    if isinstance(u, Field):
        uv = space.velocity_values(u.coeffs)
        gu = space.velocity_gradients(u.coeffs)
    else:
        uv, gu = u
    du = symmetrize(gu)
    gv = inst.g_vals
    dg = inst.g_sym
    g1 = inst.g1_vals

    uu = uv[..., :, None] * uv[..., None, :]
    ug = uv[..., :, None] * gv[..., None, :]

    d1 = space.integrate(np.sum(uu * du, axis=(-1, -2)))
    # <u x g, grad u> = -1/2 <g1 u, u> and <u x g, grad u^T> = -<u x u, Dg>
    lhs2 = space.integrate(np.sum(ug * gu, axis=(-1, -2)))
    rhs2 = -0.5 * space.integrate(g1 * np.sum(uv * uv, axis=-1))
    lhs3 = space.integrate(np.sum(ug * np.swapaxes(gu, -1, -2), axis=(-1, -2)))
    rhs3 = -space.integrate(np.sum(uu * dg, axis=(-1, -2)))

    v = uv + gv
    vout = symmetrize(v[..., :, None] * v[..., None, :])
    direct = -space.integrate(np.sum(vout * du, axis=(-1, -2))) - space.integrate(
        g1 * np.sum(v * uv, axis=-1)
    )
    regroup = (
        space.integrate(np.sum(uu * dg, axis=(-1, -2)))
        - 0.5 * space.integrate(g1 * np.sum(uv * uv, axis=-1))
        - space.integrate(np.sum(symmetrize(gv[..., :, None] * gv[..., None, :]) * du, axis=(-1, -2)))
        - space.integrate(g1 * np.sum(gv * uv, axis=-1))
    )
    mag = abs(direct) + abs(regroup) + 1e-300
    return {
        "skew": abs(d1),
        "transport_grad": abs(lhs2 - rhs2),
        "transport_grad_T": abs(lhs3 - rhs3),
        "regroup": abs(direct - regroup),
        "regroup_rel": abs(direct - regroup) / mag,
    }
