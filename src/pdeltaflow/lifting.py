"""Discrete lifting of divergence and boundary data.

Given scalar divergence data g1 and boundary velocity g2 satisfying the
compatibility condition int g1 = boundary flux of g2, the lift is the
velocity field matching the boundary interpolant of g2 whose gradient is
minimal among all discrete fields with the prescribed weak divergence.
That constrained minimal-gradient (Stokes-type) solve plays the role of
trace lifting plus a bounded right inverse of the divergence, and its
norms are what the coercivity certificate consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .discretization import (
    Field,
    _as_vec2,
    divergence_values,
    norm_W1p,
    sym_grad_norms,
)

__all__ = [
    "BoundaryData",
    "LiftField",
    "LiftingError",
    "lift",
]

COMPAT_TOL = 1e-8


class LiftingError(RuntimeError):
    """Data incompatibility or saddle-solver breakdown during lifting, with the data's compatibility defect."""

    def __init__(self, message, compat_defect):
        super().__init__(message)
        self.compat_defect = compat_defect


@dataclass
class BoundaryData:
    """Divergence data g1 (callable of (x, y), constant or None for zero) and
    boundary velocity g2 (pair of callables of (x, y), or None for zero)."""

    g1: object = None
    g2: object = None

    def g1_values(self, space):
        if self.g1 is None:
            return np.zeros_like(space.qw)
        if np.isscalar(self.g1):
            return float(self.g1) * np.ones_like(space.qw)
        x, y = space.qpts[..., 0], space.qpts[..., 1]
        return np.asarray(self.g1(x, y), dtype=float) + np.zeros_like(space.qw)

    def g2_dof_values(self, space):
        """Full velocity coefficient array carrying the boundary interpolant; g2 is evaluated at the boundary nodes."""
        out = np.zeros(space.n_vel)
        if self.g2 is None:
            return out
        bnd = space.boundary_p2
        out[bnd], out[bnd + space.n_p2] = _as_vec2(self.g2, *space.p2_coords[bnd].T)
        return out


@dataclass
class LiftField:
    """Lift g with the norms the certifier needs and its defect diagnostics."""

    g: Field
    p: float
    s: float
    norms: dict
    div_defect: float
    div_defect_pointwise: float
    boundary_defect: float
    compat_defect: float

    def to_json(self):
        return {k: v for k, v in vars(self).items() if k != "g"}


def _compat_defect(space, g1_vals, ghat):
    return float(space.integrate(g1_vals) - space.boundary_flux(ghat))


def _boundary_defect(space, ghat, fun):
    """L2 boundary distance between the trace of ghat, the g2 interpolant, and g2 = fun itself."""
    if fun is None:
        return 0.0
    pts, w, vals = space.boundary_trace(ghat)
    gx, gy = _as_vec2(fun, pts[..., 0].ravel(), pts[..., 1].ravel())
    err = vals - np.stack([gx, gy], axis=-1).reshape(vals.shape)
    return float(np.sqrt(np.sum(w[..., None] * err**2)))


def lift(data, space, p, s):
    """Solve the divergence/boundary-data problem on the discrete space.

    Returns the lift with the four norms used downstream (computed by
    quadrature) and the divergence defect in the discrete L2 sense.
    """
    g1_vals = data.g1_values(space)
    ghat = data.g2_dof_values(space)
    defect = _compat_defect(space, g1_vals, ghat)
    tol = COMPAT_TOL * (1.0 + space.integrate(np.abs(g1_vals)))
    if abs(defect) > tol:
        raise LiftingError(f"incompatible data: defect {defect:.3e} exceeds tolerance {tol:.3e}", defect)

    k = assembly.full_grad_stiffness(space)
    b = assembly.p1_load(space, g1_vals)
    try:
        g_coeffs, _ = assembly.solve_saddle(space, k, np.zeros(space.n_vel), b, fixed_vals=ghat)
    except RuntimeError as exc:  # singular coupling
        raise LiftingError(f"saddle-point solve failed: {exc}", defect) from exc

    g = space.velocity_field(g_coeffs)
    resid = assembly.div_coupling(space) @ g_coeffs - b
    proj = space.p1_mass_solve(resid)
    div_defect = float(np.sqrt(max(proj @ resid, 0.0)))
    div_defect_pointwise = float(
        np.sqrt(space.integrate((divergence_values(space, g_coeffs) - g1_vals) ** 2))
    )

    dg_s, dg_p = sym_grad_norms(g, (s, p))
    norms = {
        "W1p": norm_W1p(g, p),
        "W1s": norm_W1p(g, s),
        "Dg_s": dg_s,
        "Dg_p": dg_p,
        "div_s": _div_norm(space, g_coeffs, s),
        "div_p": _div_norm(space, g_coeffs, p),
    }
    return LiftField(
        g=g,
        p=p,
        s=s,
        norms=norms,
        div_defect=div_defect,
        div_defect_pointwise=div_defect_pointwise,
        boundary_defect=_boundary_defect(space, ghat, data.g2),
        compat_defect=defect,
    )


def _div_norm(space, coeffs, r):
    return space.lr_norm(r, np.abs(divergence_values(space, coeffs)))
