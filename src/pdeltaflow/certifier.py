"""Coercivity certification for the lifted problem.

Combines the stress characteristics C1-C3 (closed forms in the reduced
ratios, see ``constitutive``), the discrete Korn and Sobolev embedding
constants (ascent estimates: lower bounds of their sups) and the lift
norms into the three dependent constants

    G1 = C3/p,
    G2 = c_sob * c_korn**2 * (||Dg||_s + ||div g||_s / 2),
    G3 = (C2+C3) * || |Dg| + delta ||_p**(p-1) + c_sob ||g||_{1,s}**2
         + c_sob c_korn ||div g||_s ||g||_{1,s} + c_korn ||f||_*,

then tests the smallness condition

    (2-p)**(2-p) * (p-1)**(p-1) * G1  >=  G2**(p-1) * G3**(2-p)

and, when it holds, reports the coercivity radius
R = [G3 / ((2-p) G1)]**(1/(p-1)).  Every constant carries provenance and
the verdict is a numerical certificate, not a proof: the embedding
constants are estimated, and C1-C3 are extremal only as checked on grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .discretization import critical_exponent, mandel_norm

__all__ = [
    "CoercivityReport",
    "CertifierError",
    "compute_s",
    "conjugate",
    "compute_constants",
    "check_smallness",
    "polynomial_positivity_check",
    "weight_split_max_g3",
    "weight_optimality_scan",
    "scaling_sweep",
]


class CertifierError(ValueError):
    """Missing provenance or out-of-range exponents."""


def conjugate(x):
    if x <= 1.0:
        raise CertifierError(f"conjugate exponent needs x > 1, got {x}")
    return x / (x - 1.0)


def compute_s(p, d):
    """Integrability exponent s = max{p, (p*/2)'} for the convective term.

    One form; ``pdeltaflow verify-lemmas`` checks it against the paper's
    branch table.  p = 2 is admitted as the Newtonian limit with s = p.
    """
    if d not in (2, 3):
        raise CertifierError(f"dimension must be 2 or 3, got {d}")
    lo = 2.0 * d / (d + 2.0)
    if not (lo < p <= 2.0):
        raise CertifierError(f"exponent p={p} outside ({lo}, 2]")
    if p == 2.0:
        return 2.0
    return max(p, conjugate(critical_exponent(p, d) / 2.0))


@dataclass
class CoercivityReport:
    p: float
    d: int
    s: float
    G1: float
    G2: float
    G3: float
    lhs: float
    rhs: float
    satisfied: bool
    R: float | None
    provenance: dict = field(default_factory=dict)

    def to_json(self):
        return {**vars(self), "verdict": "numerical certificate" if self.satisfied else "smallness violated"}


def weighted_shear_norm(lift_field, p, delta):
    """|| |Dg| + delta ||_p evaluated by quadrature on the lift's space."""
    space = lift_field.g.space
    mag = mandel_norm(space.sym_gradients(lift_field.g.coeffs))
    return space.lr_norm(p, mag + delta)


def compute_constants(chars, emb, lift_field, f_norm, p, s, delta):
    """Dependent constants (G1, G2, G3) from estimated provenance.

    The u-side embedding uses the zero-boundary W^{1,p} -> L^{p*} constant,
    the g-side terms the W^{1,s} -> L^{2p'} constant; missing provenance is
    an error rather than a silent default.
    """
    for name, val in (("characteristics", chars), ("embedding constants", emb), ("lift", lift_field)):
        if val is None:
            raise CertifierError(f"missing provenance: {name} not estimated")
    if f_norm is None or f_norm < 0:
        raise CertifierError("missing provenance: dual norm of the load not estimated")

    g1p = chars.C3 / p
    dg_s = lift_field.norms["Dg_s"]
    div_s = lift_field.norms["div_s"]
    g_1s = lift_field.norms["W1s"]
    g2 = emb.sob_p_to_pstar * emb.korn_p**2 * (dg_s + 0.5 * div_s)
    g3 = (
        (chars.C2 + chars.C3) * weighted_shear_norm(lift_field, p, delta) ** (p - 1.0)
        + emb.sob_s_to_2pprime * g_1s**2
        + emb.sob_s_to_2pprime * emb.korn_p * div_s * g_1s
        + emb.korn_p * f_norm
    )
    return g1p, g2, g3


def check_smallness(G1, G2, G3, p, d=2, s=None, provenance=None):
    """Evaluate the smallness condition; ties count as satisfied."""
    if not (1.0 < p < 2.0):
        raise CertifierError(f"smallness condition needs p in (1, 2), got {p}")
    if G1 <= 0 or G2 < 0 or G3 < 0:
        raise CertifierError("constants must satisfy G1 > 0, G2, G3 >= 0")
    lhs = (2.0 - p) ** (2.0 - p) * (p - 1.0) ** (p - 1.0) * G1
    rhs = G2 ** (p - 1.0) * G3 ** (2.0 - p)
    satisfied = lhs >= rhs
    radius = (G3 / ((2.0 - p) * G1)) ** (1.0 / (p - 1.0)) if satisfied else None
    return CoercivityReport(
        p=p,
        d=d,
        s=s if s is not None else compute_s(p, d),
        G1=G1,
        G2=G2,
        G3=G3,
        lhs=lhs,
        rhs=rhs,
        satisfied=bool(satisfied),
        R=radius,
        provenance=provenance or {},
    )


def polynomial_positivity_check(G1, G2, G3, p, R):
    """Value of G1 R^p - G2 R^2 - G3 R (nonnegative on certified radii)."""
    return G1 * R**p - G2 * R**2 - G3 * R


def weight_split_max_g3(G1, G2, p, theta):
    """Largest G3 admitting a nonnegative polynomial under the split
    theta*G1*R^p >= G2*R^2 and (1-theta)*G1*R^p >= G3*R."""
    if not (0.0 < theta < 1.0):
        raise CertifierError("split weight must lie in (0, 1)")
    if G2 <= 0:
        return np.inf
    return (1.0 - theta) * G1 * (theta * G1 / G2) ** ((p - 1.0) / (2.0 - p))


def weight_optimality_scan(G1, G2, p, resolution=1e-3):
    """Scan split weights; the feasible-G3 maximum sits at theta = p-1."""
    thetas = np.arange(resolution, 1.0, resolution)
    vals = np.array([weight_split_max_g3(G1, G2, p, t) for t in thetas])
    best = int(np.argmax(vals))
    return {"thetas": thetas, "g3_max": vals, "best_theta": float(thetas[best]), "optimal_theta": p - 1.0}


def scaling_sweep(chars, emb, lift_field, f_norm, p, s, delta, lambdas):
    """Smallness verdicts for the data family lambda * (g1, g2).

    Lifting is linear and the lift norms are absolutely homogeneous, so the
    lift of lambda * (g1, g2) is lambda * g with its norms scaled by |lambda|.
    """
    space = lift_field.g.space
    rows = []
    for lam in lambdas:
        scaled = replace(
            lift_field,
            g=space.velocity_field(lam * lift_field.g.coeffs),
            norms={k: abs(lam) * v for k, v in lift_field.norms.items()},
        )
        rep = check_smallness(*compute_constants(chars, emb, scaled, f_norm, p, s, delta), p, s=s)
        rows.append({"lambda": float(lam), **vars(rep)})
    transitions = sum(
        1 for a, b in zip(rows[:-1], rows[1:]) if a["satisfied"] and not b["satisfied"]
    )
    return {"rows": rows, "transitions": transitions}
