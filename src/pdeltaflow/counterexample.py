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

from .discretization import (
    RectDomain,
    _bump_velocity,
    build_space,
    combine_level_norm,
    mandel_norm,
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
    "construct_u_n",
    "counterexample_scan",
    "BISECT_RTOL",
]

# Relative tolerance of construct_u_n's bisection on the sphere's q-norm; a
# P_n that slips of this size in y and ||Du||_p could move through 0 is zero.
BISECT_RTOL = 1e-9


class FamilyError(RuntimeError):
    """The bump family did not produce strictly increasing norm ratios."""


class RangeError(ValueError):
    """Requested q-norm target is not reachable on the constructed sphere."""


@dataclass
class TwoNormFamily:
    """Bump fields on one common fine space, normalized to ||Du||_p = 1.

    ``ratios`` holds ||Du||_q per member (strictly increasing); members
    are stored as coefficient arrays on ``space``.  ``_gram`` caches what
    the scan needs of the family at every n (a ``_PathCache``, built on
    first use): the extreme members' strain products on their strained
    support, the unscaled norms of the highest-ratio member, and the
    unscaled norms of each path point the bisection has read.
    """

    space: object
    members: list
    ratios: list
    p: float
    q: float
    widths: list
    meshes: list
    _gram: _PathCache = field(default=None, repr=False, compare=False)


@dataclass
class _PathCache:
    """A family's results that do not depend on n, built once by ``_path_cache``.

    ``gram`` is ``(keep, w, g00, g01, g11)``: the flat indices of the
    quadrature points where Dlo or Dhi is nonzero, their weights, and
    Dlo:Dlo, Dlo:Dhi and Dhi:Dhi at those points.  D is linear, so
    |D((1-t) lo + t hi)|^2 is a quadratic in t with these coefficients, and
    it vanishes at every dropped point.  ``top`` holds (||Du||_p, ||Du||_q) of ``members[-1]``, evaluated
    directly; ``path`` maps theta to (||Du||_p, ||Du||_q) of (1-theta) lo +
    theta hi, summed from ``gram`` for the bisection's comparisons only.
    """

    gram: tuple
    top: tuple
    path: dict = field(default_factory=dict)


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
    sign: str  # of P_n: negative, zero (within the bisection tolerance) or positive


def _check_family(levels, p, q, base_n, width0):
    """The range rule of ``build_family``'s arguments, which it runs first."""
    if levels < 3:
        raise ValueError(f"need at least 3 levels, got {levels}")
    if base_n < 2:
        raise ValueError(f"need base_n >= 2, got {base_n}")
    if not width0 > 0:  # every bump width is width0 * 2^-k and divides
        raise ValueError(f"width0 must be positive, got {width0}")
    if not q > p:
        raise FamilyError(f"norm pair is degenerate: q={q} <= p={p} gives constant ratios")


def build_family(levels, p=1.5, q=3.0, base_n=8, width0=0.32, domain=None):
    """Bumps of width width0 * 2^-k on meshes base_n * 2^k, prolonged to the
    finest mesh and normalized to unit p-gradient norm."""
    _check_family(levels, p, q, base_n, width0)
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


def _on_sphere(family, coeffs, norms, n, R):
    """The field of the coefficients scaled onto the level-norm sphere, from their unscaled (||Du||_p, ||Du||_q)."""
    return family.space.velocity_field(coeffs * (R / combine_level_norm(*norms, family.q, n)))


def _path_cache(family):
    """The family's ``_PathCache``, built on first use from one strain evaluation per extreme member."""
    if family._gram is None:
        s = family.space
        lo, hi = (s.sym_gradients(c) for c in (family.members[0], family.members[-1]))
        g00, g01, g11 = (np.einsum("...a,...a->...", a, b).ravel() for a, b in ((lo, lo), (lo, hi), (hi, hi)))
        keep = np.flatnonzero((g00 != 0.0) | (g11 != 0.0))
        gram = (keep, s.qw.ravel()[keep], g00[keep], g01[keep], g11[keep])
        del lo, g00, g01, g11  # freed before the top member's norms add their temporaries
        mag = mandel_norm(hi)  # the top member's norms as sym_grad_norms takes them
        family._gram = _PathCache(gram=gram, top=tuple(s.lr_norm(r, mag) for r in (family.p, family.q)))
    return family._gram


def _strain_sq(gram, theta):
    """|D((1-theta) lo + theta hi)|^2 at the kept points, clamped at 0 against rounding."""
    _, _, g00, g01, g11 = gram
    return np.maximum((1 - theta) ** 2 * g00 + 2.0 * theta * (1 - theta) * g01 + theta**2 * g11, 0.0)


def _sphere_y(family, theta, n, R):
    """q-norm of (1-theta) lo + theta hi scaled onto the sphere, from the cached Gram arrays.

    Every norm is 1-homogeneous, so the scaled field's q-norm is
    ||Du||_q R / level_norm(u); no field is built.  n enters only through
    the level norm, so the unscaled pair (||Du||_p, ||Du||_q) is summed once
    per theta and family and kept in its ``_PathCache``.  The sums run over
    the strained support only (the strain is 0 everywhere else) and take
    both powers from one log of the strain square, |Du|^r = exp((r/2)
    log |Du|^2); a strain clamped to 0 logs to -inf, and exp(-inf) = 0.
    """
    cache = _path_cache(family)
    norms = cache.path.get(theta)
    if norms is None:
        w, sq = cache.gram[1], _strain_sq(cache.gram, theta)
        with np.errstate(divide="ignore"):
            log_sq = np.log(sq)
        norms = tuple(float(w @ np.exp((0.5 * r) * log_sq)) ** (1.0 / r) for r in (family.p, family.q))
        cache.path[theta] = norms
    norm_p, norm_q = norms
    return norm_q * (R / combine_level_norm(norm_p, norm_q, family.q, n))


def construct_u_n(family, n, R, y_n, rel_tol=BISECT_RTOL):
    """Field on the level-norm sphere with prescribed q-gradient norm.

    Interpolates between the extreme family members along the sphere; the
    target is hit by bisection on the interpolation parameter (the q-norm
    varies continuously along the path, so a bracketed root exists), and the
    low end theta = 0 is kept when it meets the target within ``rel_tol``.
    The bisection reads the q-norm through ``_sphere_y``, whose sums per
    path point are cached on the family and shared by every n; only the
    bisection's comparisons read them.  The returned q-norm is the one it
    read at the final parameter; the returned field is scaled onto the
    sphere by norms evaluated directly there.

    The q-norm along the path need not be monotone, and the target can be
    met at more than one parameter: the result is the crossing the
    bisection reaches first.  At n = 32 on the default family the q-part
    of the level norm binds for every theta in [0.5, 1], where the q-norm
    is R n^(2/(2q-1)) = 4 = y_32; the bisection stops at its first
    midpoint, theta = 0.5 (P_32 = -1.0163), although theta = 1 meets the
    target as well (P_32 = -1.5016).
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
    theta, y = 0.0, y_lo
    for _ in range(80):  # bisection steps
        if abs(y - y_target) <= rel_tol * y_target:
            break
        theta = 0.5 * (ta + tb)
        y = _sphere_y(family, theta, n, R)
        if (y - y_target) * fa <= 0:
            tb = theta
        else:
            ta = theta
            fa = y - y_target
    coeffs = (1 - theta) * lo_c + theta * hi_c
    norms = sym_grad_norms(family.space.velocity_field(coeffs), (family.p, family.q))
    return _on_sphere(family, coeffs, norms, n, R), theta, y


def _P_n(norm_p, y, n, G1, F1, p, q):
    """P_n from ||Du||_p and y = ||Du||_q."""
    return G1 * norm_p**p + y**q / n - F1 * y


def _discrete_f(family, n):
    """Family infimum of the level-norm to q-norm ratio (over-estimates the
    continuum f(n), which only strengthens the exhibited negativity)."""
    return min(combine_level_norm(1.0, r, family.q, n) / r for r in family.ratios)


def _check_scan(n_values, R, F1, G1, c2):
    """The range rule of ``counterexample_scan``'s arguments, which it runs first."""
    # F1 = 0 divides by zero in the step-1 threshold; without G1 > 0 a negative P_n exhibits nothing
    if not (R > 0 and F1 > 0 and G1 > 0 and c2 > 1.0) or len(n_values) == 0 or min(n_values) <= 0:
        raise ValueError(f"need R, F1, G1 > 0, c2 > 1 and positive n_values, got R={R}, F1={F1}, G1={G1}, c2={c2}")


def counterexample_scan(family, n_values, R=1.0, F1=1.0, G1=1.0, c2=2.0):
    """Evaluate P_n on constructed sphere fields across the n grid.

    Dispatches per n between the large-f branch (scale the highest-ratio
    member onto the sphere) and the root-placement branch (bisect to the
    q-norm root y_n).  A P_n is classed as zero when relative slips of
    BISECT_RTOL in y and ||Du||_p could move it through 0, that is when
    |P_n| <= BISECT_RTOL (p G1 ||Du||_p^p + q y^q / n + F1 y); N0 is the
    first n after which every P_n is negative beyond that.
    """
    _check_scan(n_values, R, F1, G1, c2)
    c1 = 2.0 * R ** (family.q - 1.0) / F1 * (1.0 + 1e-3)
    records = []
    for n in n_values:
        f_n = _discrete_f(family, n)
        step1 = f_n ** (family.q - 1.0) >= c1 / n
        branch = "step1"
        if not step1:
            y_n = find_y_n(n, c2, F1, family.q)
            try:
                field, theta, _ = construct_u_n(family, n, R, y_n)
                branch = "step2"
            except RangeError:
                branch = "step1-fallback"
        if branch != "step2":  # the highest-ratio member, scaled onto the sphere by its cached norms
            field, theta = _on_sphere(family, family.members[-1], _path_cache(family).top, n, R), 1.0
        norm_p, y = sym_grad_norms(field, (family.p, family.q))  # y: the achieved q-norm
        val = _P_n(norm_p, y, n, G1, F1, family.p, family.q)
        slack = BISECT_RTOL * (family.p * G1 * norm_p**family.p + family.q * y**family.q / n + F1 * y)
        records.append(
            CounterexampleRecord(
                n=float(n),
                branch=branch,
                theta=float(theta),
                y_n=float(y if step1 else y_n),
                y_achieved=float(y),
                level_norm=float(combine_level_norm(norm_p, y, family.q, n)),
                norm_Du_p=float(norm_p),
                P_n=float(val),
                margin=float(-val),
                member_mix=f"theta={theta:.6f}",
                sign="zero" if abs(val) <= slack else "negative" if val < 0 else "positive",
            )
        )
    n0 = None
    for i in range(len(records)):
        if all(r.sign == "negative" for r in records[i:]):
            n0 = records[i].n
            break
    return {"records": records, "N0": n0, "c1": c1, "c2": c2, "R": R, "F1": F1, "G1": G1}
