"""Finite-dimensional construction showing coercivity cannot survive
low-regularity data.

A family of divergence-free oscillatory bumps on increasingly fine meshes
has an unbounded ratio between its q-gradient and p-gradient norms, the
discrete echo of a missing embedding.  On the sphere of the weighted
level norm max{n^(-2/(2q-1)) ||Du||_q, ||Du||_p} = R one can then place
fields whose q-norm is large enough that

    P_n(u) = G1 ||Du||_p^p + (1/n) ||Du||_q^q - F1 ||Du||_q

turns negative for every sufficiently large n: no radius yields a sign
condition, so Brouwer-type solvability fails without extra regularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import symmetrize
from .discretization import (
    RectDomain,
    _bump_velocity,
    build_space,
    combine_level_norm,
    level_norm,
    norm_sym_grad_p,
    prolong_velocity,
    sym_grad_norms,
)

__all__ = [
    "TwoNormFamily",
    "CounterexampleRecord",
    "FamilyError",
    "RangeError",
    "build_family",
    "find_y_n",
    "level_norm",
    "construct_u_n",
    "evaluate_P_n",
    "counterexample_scan",
]


class FamilyError(RuntimeError):
    """The bump family did not produce strictly increasing norm ratios."""


class RangeError(ValueError):
    """Requested q-norm target is not reachable on the constructed sphere."""


@dataclass
class TwoNormFamily:
    """Bump fields on one common fine space, normalized to ||Du||_p = 1.

    ``ratios`` holds ||Du||_q per member (strictly increasing); members
    are stored as coefficient arrays on ``space``.  ``_gram`` caches the
    pointwise strain products of the extreme members on their strained
    support (see ``_endpoint_gram``), built on the first bisection.
    """

    space: object
    members: list
    ratios: list
    p: float
    q: float
    widths: list
    meshes: list
    _gram: tuple = field(default=None, repr=False, compare=False)


@dataclass
class CounterexampleRecord:
    n: float
    branch: str
    theta: float
    y_n: float
    y_achieved: float
    level_norm: float
    norm_Du_p: float
    P_n: float
    margin: float
    member_mix: str

    def row(self):
        return {
            "n": self.n,
            "branch": self.branch,
            "y_n": self.y_n,
            "y_achieved": self.y_achieved,
            "P_n": self.P_n,
            "margin": self.margin,
            "member_mix": self.member_mix,
        }


def build_family(levels, p=1.5, q=3.0, base_n=8, width0=0.32, domain=None):
    """Bumps of width width0 * 2^-k on meshes base_n * 2^k, prolonged to the
    finest mesh and normalized to unit p-gradient norm."""
    if levels < 3:
        raise ValueError(f"need at least 3 levels, got {levels}")
    if q <= p:
        raise FamilyError(f"norm pair is degenerate: q={q} <= p={p} gives constant ratios")
    domain = domain or RectDomain()
    spaces = [build_space(domain, base_n * 2**k, base_n * 2**k) for k in range(levels)]
    fine = spaces[-1]
    members, ratios, widths, meshes = [], [], [], []
    for k, sk in enumerate(spaces):
        w = width0 * 2.0**-k
        u = _bump_velocity(sk, domain.centre, w)
        uf = u if sk is fine else prolong_velocity(sk, fine, u)
        np_norm, nq_norm = sym_grad_norms(uf, (p, q))
        if np_norm <= 0:
            raise FamilyError(f"level {k} bump degenerated to zero")
        members.append(uf.coeffs / np_norm)
        ratios.append(nq_norm / np_norm)  # ||Du||_q of the member, by homogeneity
        widths.append(w)
        meshes.append(sk.nx)
    for a, b in zip(ratios[:-1], ratios[1:]):
        if not b > a:
            raise FamilyError(f"norm ratios not strictly increasing: {ratios} (mesh too coarse)")
    return TwoNormFamily(space=fine, members=members, ratios=ratios, p=p, q=q, widths=widths, meshes=meshes)


def find_y_n(n, c2, F1, q):
    """Root of t_n(x) = (c2/n) x^(q-1) - F1, in closed form."""
    if c2 <= 0 or F1 < 0 or q <= 1 or n <= 0:
        raise ValueError("need positive c2, n, F1 >= 0 and q > 1")
    return (n * F1 / c2) ** (1.0 / (q - 1.0))


def _on_sphere(family, coeffs, n, R):
    """Scale coefficients onto the level-norm sphere; return (field, y-value)."""
    f = family.space.velocity_field(coeffs)
    ln = level_norm(f, family.p, family.q, n)
    scaled = family.space.velocity_field(coeffs * (R / ln))
    return scaled, norm_sym_grad_p(scaled, family.q)


def _endpoint_gram(family):
    """The extreme members' strained support and their strain products there.

    Returns ``(keep, w, g00, g01, g11)``: the flat indices of the quadrature
    points where Dlo or Dhi is nonzero, their weights, and Dlo:Dlo, Dlo:Dhi
    and Dhi:Dhi at those points.  D is linear, so |D((1-t) lo + t hi)|^2 is
    a quadratic in t with these coefficients, and it vanishes at every
    dropped point.  Built once per family and cached on it.
    """
    if family._gram is None:
        s = family.space
        lo, hi = (symmetrize(s.velocity_gradients(c)) for c in (family.members[0], family.members[-1]))
        g00, g01, g11 = (np.einsum("...ij,...ij->...", a, b).ravel() for a, b in ((lo, lo), (lo, hi), (hi, hi)))
        keep = np.flatnonzero((g00 != 0.0) | (g11 != 0.0))
        family._gram = (keep, s.qw.ravel()[keep], g00[keep], g01[keep], g11[keep])
    return family._gram


def _strain_sq(gram, theta):
    """|D((1-theta) lo + theta hi)|^2 at the kept points, clamped at 0 against rounding."""
    _, _, g00, g01, g11 = gram
    return np.maximum((1 - theta) ** 2 * g00 + 2.0 * theta * (1 - theta) * g01 + theta**2 * g11, 0.0)


def _sphere_y(family, theta, n, R):
    """q-norm of (1-theta) lo + theta hi scaled onto the sphere, from the cached Gram arrays.

    Every norm is 1-homogeneous, so the scaled field's q-norm is
    ||Du||_q R / level_norm(u); no field is built.  The integrals run over
    the strained support only: the strain is 0 everywhere else.
    """
    gram = _endpoint_gram(family)
    w, sq = gram[1], _strain_sq(gram, theta)
    norm_p, norm_q = (float(np.sum(w * sq ** (0.5 * r))) ** (1.0 / r) for r in (family.p, family.q))
    return norm_q * (R / combine_level_norm(norm_p, norm_q, family.q, n))


def construct_u_n(family, n, R, y_n, bisect_steps=80, rel_tol=1e-9):
    """Field on the level-norm sphere with prescribed q-gradient norm.

    Interpolates between the extreme family members along the sphere; the
    target is hit by bisection on the interpolation parameter (the q-norm
    varies continuously along the path, so a bracketed root exists).  The
    bisection reads the q-norm off the cached endpoint strain products;
    the returned field and its q-norm are evaluated directly at the final
    parameter.
    """
    lo_c, hi_c = family.members[0], family.members[-1]
    y_lo = _sphere_y(family, 0.0, n, R)
    y_hi = _sphere_y(family, 1.0, n, R)
    y_min, y_max = min(y_lo, y_hi), max(y_lo, y_hi)
    if y_n < y_min * (1 - rel_tol) or y_n > y_max * (1 + rel_tol):
        raise RangeError(
            f"target q-norm {y_n:.6g} outside achievable range [{y_min:.6g}, {y_max:.6g}]; deepen the family"
        )
    y_target = min(max(y_n, y_min), y_max)

    ta, tb = 0.0, 1.0
    fa = y_lo - y_target
    theta = 0.0
    for _ in range(bisect_steps):
        theta = 0.5 * (ta + tb)
        y = _sphere_y(family, theta, n, R)
        if abs(y - y_target) <= rel_tol * y_target:
            break
        if (y - y_target) * fa <= 0:
            tb = theta
        else:
            ta = theta
            fa = y - y_target
    field, y = _on_sphere(family, (1 - theta) * lo_c + theta * hi_c, n, R)
    return field, theta, y


def _P_n(norm_p, y, n, G1, F1, p, q):
    """P_n from ||Du||_p and y = ||Du||_q."""
    return G1 * norm_p**p + y**q / n - F1 * y


def evaluate_P_n(field, n, G1, F1, p, q):
    """G1 ||Du||_p^p + (1/n) ||Du||_q^q - F1 ||Du||_q."""
    return _P_n(*sym_grad_norms(field, (p, q)), n, G1, F1, p, q)


def _discrete_f(family, n):
    """Family infimum of the level-norm to q-norm ratio (over-estimates the
    continuum f(n), which only strengthens the exhibited negativity)."""
    w = n ** (-2.0 / (2.0 * family.q - 1.0))
    return min(max(w * r, 1.0) / r for r in family.ratios)


def counterexample_scan(family, n_values, R=1.0, F1=1.0, G1=1.0, c2=2.0):
    """Evaluate P_n on constructed sphere fields across the n grid.

    Dispatches per n between the large-f branch (scale the highest-ratio
    member onto the sphere) and the root-placement branch (bisect to the
    q-norm root y_n); reports the first n after which every value stays
    negative.
    """
    if c2 <= 1.0:
        raise ValueError("c2 must exceed 1")
    c1 = 2.0 * R ** (family.q - 1.0) / F1 * (1.0 + 1e-3)
    records = []
    for n in n_values:
        f_n = _discrete_f(family, n)
        step1 = f_n ** (family.q - 1.0) >= c1 / n
        if step1:
            field, y = _on_sphere(family, family.members[-1], n, R)
            theta = 1.0
            y_n = y
            branch = "step1"
        else:
            y_n = find_y_n(n, c2, F1, family.q)
            try:
                field, theta, y = construct_u_n(family, n, R, y_n)
                branch = "step2"
            except RangeError:
                field, y = _on_sphere(family, family.members[-1], n, R)
                theta = 1.0
                branch = "step1-fallback"
        norm_p, norm_q = sym_grad_norms(field, (family.p, family.q))
        val = _P_n(norm_p, norm_q, n, G1, F1, family.p, family.q)
        records.append(
            CounterexampleRecord(
                n=float(n),
                branch=branch,
                theta=float(theta),
                y_n=float(y_n),
                y_achieved=float(y),
                level_norm=float(combine_level_norm(norm_p, norm_q, family.q, n)),
                norm_Du_p=float(norm_p),
                P_n=float(val),
                margin=float(-val),
                member_mix=f"theta={theta:.6f}",
            )
        )
    n0 = None
    for i in range(len(records)):
        if all(r.P_n < 0 for r in records[i:]):
            n0 = records[i].n
            break
    return {"records": records, "N0": n0, "c1": c1, "c2": c2, "R": R, "F1": F1, "G1": G1}
