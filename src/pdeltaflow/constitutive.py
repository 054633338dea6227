"""Power-law extra stress tensors and their growth/monotonicity structure.

The constitutive map is ``S(A) = mu0*A + mu*(delta + |A|)**(p-2) * A`` on
symmetric d-by-d matrices, the standard shear-thinning power-law family
for ``1 < p <= 2`` (|.| is the Frobenius norm).  Besides evaluating the
tensor, this module estimates its three growth constants

* ``C1`` -- monotonicity: ``(S(A)-S(B)):(A-B) >= C1*w(A,B)*|A-B|**2``,
* ``C2`` -- growth: ``|S(A)-S(B)| <= C2*w(A,B)*|A-B|``,
* ``C3`` -- integral lower bound against ``int_0^|A-B| (delta+|B|+s)**(p-2) s ds``,

with the shared weight ``w(A,B) = (delta + |B| + |A-B|)**(p-2)``.  S is
isotropic, so each ratio depends on a pair only through b = |B|,
t = |A-B| and the angle between B and A-B; with mu0 = 0 it is also
unchanged under (A, B, delta) -> lambda (A, B, delta).  The constants are
found by a deterministic grid-and-zoom search over those three numbers
and do not depend on a seed or on the dimension.  ``inequality_sweep``
checks them against a stratified random sample of matrix pairs.  The
estimates are empirical (reported with extremizing witnesses, never
rigorous bounds).  With mu0 > 0 and p < 2 the growth ratio has no bound
(B = 0 gives mu0 (delta + |A|)**(2-p) + mu), so such a model has no C2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "PDeltaModel",
    "Characteristics",
    "DegenerateSampleError",
    "symmetrize",
    "frobenius",
    "random_sym",
    "eval_stress",
    "sym_stress",
    "young_int",
    "young_gap",
    "estimate_characteristics",
    "inequality_sweep",
]


class DegenerateSampleError(ValueError):
    """All drawn matrix pairs coincide; no ratio can be formed."""


@dataclass(frozen=True)
class PDeltaModel:
    """Material parameters of the power-law stress tensor.

    p      growth exponent, 1 < p <= 2
    delta  regularization offset, >= 0
    mu0    Newtonian viscosity part, >= 0
    mu     consistency coefficient, > 0
    """

    p: float
    delta: float = 0.0
    mu0: float = 0.0
    mu: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.p <= 2.0):
            raise ValueError(f"growth exponent must lie in (1, 2], got p={self.p}")
        if self.delta < 0.0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.mu0 < 0.0:
            raise ValueError(f"mu0 must be >= 0, got {self.mu0}")
        if self.mu <= 0.0:
            raise ValueError(f"mu must be > 0, got {self.mu}")


@dataclass(frozen=True)
class Characteristics:
    """Growth constants of a stress tensor, with extremizer witnesses.

    C1 and C3 are infima and C2 a supremum over the points of the reduced
    search, ``samples`` of them; each witness is its extremizing pair (A, B)
    as dim-by-dim matrices.  The values are flagged non-rigorous.
    """

    C1: float
    C2: float
    C3: float
    witness_C1: tuple
    witness_C2: tuple
    witness_C3: tuple
    samples: int
    dim: int = 2
    non_rigorous: bool = True

    def __post_init__(self):
        if not (self.C1 > 0 and self.C2 > 0 and self.C3 > 0):
            raise ValueError("characteristics must be positive")
        if self.C1 > self.C2 * (1 + 1e-12):
            raise ValueError(f"C1={self.C1} exceeds C2={self.C2}")

    def to_json(self):
        out = {k: v for k, v in vars(self).items() if not k.startswith("witness_")}
        out["witnesses"] = {c: [m.tolist() for m in getattr(self, f"witness_{c}")] for c in ("C1", "C2", "C3")}
        return out


def symmetrize(a):
    """Symmetric part (A + A^T)/2, acting on the two trailing axes."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def frobenius(a):
    """Frobenius norm over the two trailing axes."""
    return np.sqrt(np.einsum("...ij,...ij->...", a, a))


def random_sym(rng, n, dim=2):
    """n random symmetric dim-by-dim matrices with unit Frobenius norm.

    The Gaussian draws are symmetrized in place: (x + x)/2 = x exactly on
    the diagonal, so only the off-diagonal pairs are averaged.
    """
    m = np.empty((n, dim, dim))
    rng.standard_normal(out=m)
    for i in range(dim):
        for j in range(i + 1, dim):
            m[:, i, j] = m[:, j, i] = 0.5 * (m[:, i, j] + m[:, j, i])
    # a symmetrized Gaussian matrix is zero with probability zero
    m /= frobenius(m)[:, None, None]
    return m


def eval_stress(model, a):
    """Apply the power-law tensor; accepts a batch with trailing (d, d) axes.

    The input is symmetrized on entry, so the map factors through the
    symmetric part exactly, and S(0) = 0: the weight of ``_stress_factor``
    is finite at A = 0 (no 0**(p-2) is ever formed).
    """
    a = symmetrize(np.asarray(a, dtype=float))
    return sym_stress(model, a, frobenius(a))


def sym_stress(model, a, nrm):
    """S(a) of symmetric a, as (d, d) matrices or as Mandel components, with Frobenius norms nrm."""
    return _stress_factor(model, nrm).reshape(nrm.shape + (1,) * (a.ndim - nrm.ndim)) * a


def _stress_factor(model, nrm, slope=False):
    """The weight nu(|A|) = mu0 + mu (delta + |A|)**(p-2) of S(A) = nu A, at Frobenius norms nrm.

    delta + |A| is floored at 1e-12 (1 + its largest value), so nu is finite
    at A = 0 and S(0) = 0.  With ``slope`` the result is ``(nu, nu'(|A|))``,
    the slope 0 on the floor.
    """
    base = model.delta + nrm
    floor = 1e-12 * (1.0 + float(np.max(base, initial=0.0)))
    clipped = np.maximum(base, floor)
    nu = model.mu0 + model.mu * clipped ** (model.p - 2.0)
    if not slope:
        return nu
    return nu, np.where(base > floor, model.mu * (model.p - 2.0) * clipped ** (model.p - 3.0), 0.0)


def young_int(a, t, p):
    """Closed form of ``int_0^t (a+s)**(p-2) s ds`` for p in (1, 2].

    Uses the antiderivative for moderate t/a and a truncated series when
    t << a, where the antiderivative cancels catastrophically.  Each
    element goes through the one formula of its case; a case that holds
    for every element is evaluated without gathering.  At p = 2 the
    integral is t**2 / 2 for every a, which the antiderivative would
    reach only to ~1e-11.
    """
    a, t = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(t, dtype=float))
    if p == 2.0:
        out = 0.5 * t * t
        return out if out.ndim else float(out)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = t / a
    zero = a <= 0.0
    # below x ~ 3e-3 the antiderivative cancels; the 6-term series is then
    # accurate to ~1e-15 relative while the closed form is only ~1e-11
    small = (x < 3e-3) & ~zero
    out = np.empty(a.shape)
    for case, formula in ((zero, _young_zero), (small, _young_series), (~(zero | small), _young_closed)):
        if case.all():
            out[...] = formula(a, t, x, p)
        elif case.any():
            out[case] = formula(a[case], t[case], x[case], p)
    return out if out.ndim else float(out)


def _young_zero(a, t, x, p):
    return t**p / p


def _young_series(a, t, x, p):
    q2, q3, q4, q5 = p - 2.0, p - 3.0, p - 4.0, p - 5.0
    return a ** (p - 2.0) * t**2 * (
        0.5
        + q2 * x / 3.0
        + q2 * q3 * x**2 / 8.0
        + q2 * q3 * q4 * x**3 / 30.0
        + q2 * q3 * q4 * q5 * x**4 / 144.0
        + q2 * q3 * q4 * q5 * (p - 6.0) * x**5 / 840.0
    )


def _young_closed(a, t, x, p):
    s = a + t
    return (s**p - a**p) / p - a * (s ** (p - 1.0) - a ** (p - 1.0)) / (p - 1.0)


def young_gap(a, t, p):
    """Gap ``int_0^t (a+s)**(p-2) s ds - (t**p/p - t*a**(p-1))``; >= 0 up to roundoff."""
    if not (1.0 < p <= 2.0):
        raise ValueError(f"exponent must lie in (1, 2], got p={p}")
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    gap = young_int(a, t, p) - (t**p / p - t * a ** (p - 1.0))
    return gap if gap.ndim else float(gap)


def _sym_entries(dim):
    """(i, j) of each independent entry of a symmetric dim-by-dim matrix, in component order.

    The diagonal comes first, then the upper triangle row by row: for
    d = 2 the components are (x00, x11, x01).
    """
    return [(i, i) for i in range(dim)] + [(i, j) for i in range(dim) for j in range(i + 1, dim)]


@lru_cache(maxsize=None)
def _entry_rows(dim):
    """(dim, dim) table of the component row that holds each entry (i, j); read-only, built once per dim."""
    rows = np.empty((dim, dim), dtype=np.intp)
    for c, (i, j) in enumerate(_sym_entries(dim)):
        rows[i, j] = rows[j, i] = c
    rows.flags.writeable = False
    return rows


def _dim_of(c):
    """Matrix dimension of component rows c: d(d+1)/2 rows, so d**2 <= 2*rows < (d+1)**2."""
    return int(np.sqrt(2 * len(c)))


def _components(m, out):
    """Write the components of symmetric (..., d, d) matrices m into the rows of out; returns out."""
    for c, (i, j) in enumerate(_sym_entries(m.shape[-1])):
        out[c] = m[..., i, j]
    return out


def _component_norm(c, rows):
    """Frobenius norms of the matrices of component rows c.

    Each matrix row is summed left to right and then the row sums are
    added, for d = 2 ``(x00**2 + x01**2) + (x01**2 + x11**2)``: the
    order, and so every bit, of the einsum in ``frobenius``.
    """
    sq = c * c
    return np.sqrt(reduce(np.add, (reduce(np.add, (sq[k] for k in row)) for row in rows)))


def _component_dot(c, e, rows):
    """A:B of the matrices of component rows c and e.

    The entries are added left to right, row by row, for d = 2 the order
    (and every bit) of ``np.sum(A * B, axis=(-1, -2))``.
    """
    q = c * e
    return reduce(np.add, (q[k] for k in rows.flat))


def _check_integer(name, value, low=None):
    """The rule of an integer argument: an int or numpy integer, not a bool, and at least low if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _check_dim(dim):
    """The range rule of a matrix dimension, which ``estimate_characteristics`` runs first."""
    _check_integer("dim", dim)
    if dim not in (2, 3):
        raise ValueError(f"matrix dimension must be 2 or 3, got {dim}")


def _check_sampling(samples, dim):
    """The range rule of a sample size and matrix dimension, which ``_sample_pairs`` runs first."""
    _check_integer("samples", samples)
    _check_dim(dim)
    if samples < 10_000:
        raise ValueError(f"need at least 1e4 samples, got {samples}")


def _check_growth(model):
    """The range rule of a model with finite growth constants, which ``estimate_characteristics`` runs first.

    With mu0 > 0 and p < 2, the pairs with B = 0 give the C2 ratio
    mu0 (delta + |A|)**(2-p) + mu, which grows without bound in |A|.
    """
    if model.mu0 > 0.0 and model.p < 2.0:
        raise ValueError(f"mu0 > 0 with p < 2 has no finite growth constant C2, got mu0={model.mu0}, p={model.p}")


def _sample_pairs(rng, n_random, dim):
    """Random pairs over magnitude decades plus structured extreme pairs.

    The pairs come as component rows (see ``_sym_entries``): a and b have
    shape (d(d+1)/2, n), column j holding pair j.  The random pairs are
    ``random_sym`` draws, each converted to components as it is drawn.
    The structured block adds parallel, antiparallel and orthogonal pairs
    on a log-magnitude grid (and pairs with B = 0 or B ~ A), which pins
    the extremal ratios far more reliably than blind sampling.
    """
    _check_sampling(n_random, dim)
    decades = (-4.0, 4.0)  # the magnitude range, log10
    mags = np.logspace(*decades, 17)
    ta, tb = (t.ravel() for t in np.meshgrid(mags, mags, indexing="ij"))
    # filled in place, column by column; at most three legs of ta x tb and two lines per structured direction
    a = np.empty((dim * (dim + 1) // 2, n_random + 3 * (3 * ta.size + 2 * mags.size)))
    b = np.empty_like(a)
    for x in (a, b):
        _components(random_sym(rng, n_random, dim), x[:, :n_random])
    for x in (a, b):
        scale = rng.uniform(*decades, n_random)
        x[:, :n_random] *= np.power(10.0, scale, out=scale)
    cols = n_random

    def put(pa, pb):
        nonlocal cols
        a[:, cols:cols + pa.shape[1]] = pa
        b[:, cols:cols + pa.shape[1]] = pb
        cols += pa.shape[1]

    for ui in random_sym(rng, 3, dim):
        v = random_sym(rng, 1, dim)[0]
        v = v - np.sum(v * ui) * ui
        vn = frobenius(v)
        if vn < 1e-8:  # re-draw is not worth it; skip the orthogonal leg
            v = None
        else:
            v = v / vn
        dirs = np.array([ui, -ui] + ([v] if v is not None else []))
        c = _components(dirs, np.empty((len(a), len(dirs))))  # column 0 is ui
        for j in range(len(dirs)):
            put(c[:, :1] * ta, c[:, j:j + 1] * tb)
        # pairs against zero and near-coincident pairs
        line = c[:, :1] * mags
        put(line, 0.0)
        put(line, line * (1.0 + 1e-4))

    return a[:, :cols], b[:, :cols]


# pairs per evaluation chunk: bounds the temporaries of _growth_ratios
_CHUNK = 8192


def _chunk_ratios(model, a, b):
    """Pointwise ratios of the three growth inequalities for the pairs (a, b) of component rows.

    ``keep`` marks the pairs that do not coincide; the ratios of the
    others are not meaningful.  The sampled pairs are exactly symmetric,
    so their stresses are formed without symmetrizing again, and each
    Frobenius norm is taken once.
    """
    rows = _entry_rows(_dim_of(a))
    diff = a - b
    dd, na, nb = (_component_norm(x, rows) for x in (diff, a, b))
    keep = dd > 1e-12 * (na + nb + 1.0)

    ds = _stress_factor(model, na) * a - _stress_factor(model, nb) * b
    ds_norm = _component_norm(ds, rows)
    mono = _component_dot(ds, diff, rows)
    base = model.delta + nb
    with np.errstate(divide="ignore", invalid="ignore"):  # only at coincident pairs
        w = (base + dd) ** (model.p - 2.0)
        r1 = mono / (w * dd**2)
        r2 = ds_norm / (w * dd)
        r3 = mono / young_int(base, dd, model.p)
    return {"keep": keep, "mono": mono, "ds_norm": ds_norm, "dd": dd, "r1": r1, "r2": r2, "r3": r3}


def _growth_ratios(model, a, b):
    """Pointwise ratios of the three growth inequalities for the non-coincident pairs (a, b).

    The pairs (component rows) are evaluated in chunks of _CHUNK, so the
    per-pair temporaries stay small, and each chunk's non-coincident
    pairs are written on into arrays sized for the whole sample, in
    sample order.
    """
    n = a.shape[1]
    out, kept = {}, 0
    for start in range(0, n, _CHUNK):
        part = _chunk_ratios(model, a[:, start:start + _CHUNK], b[:, start:start + _CHUNK])
        keep = part.pop("keep")
        size = int(np.count_nonzero(keep))
        if size < keep.size:
            part = {key: val[keep] for key, val in part.items()}
        for key, val in part.items():
            out.setdefault(key, np.empty(n, val.dtype))[kept:kept + size] = val
        kept += size
    if kept == 0:
        raise DegenerateSampleError("all sampled pairs coincide")
    return {key: val[:kept] for key, val in out.items()}


# the regions of the reduced search, each with its map from coordinates to (delta, b, t, theta) and,
# per coordinate, its (low, high, grid points): t/b and b/delta, t/delta in log10, theta in radians.
# With mu0 = 0 the ratios are scale-free, so the limit takes b = 1 and the others delta = 1.
_REGIONS = {
    # delta / b -> 0, which is also the whole delta = 0 model
    "limit": (lambda x: (0.0, 1.0, 10.0 ** x[0], x[1]), ((-8.0, 6.0, 57), (0.0, np.pi, 25))),
    "interior": (lambda x: (1.0, 10.0 ** x[0], 10.0 ** x[1], x[2]), ((-6.0, 6.0, 13), (-8.0, 8.0, 17), (0.0, np.pi, 13))),
    "zero_b": (lambda x: (1.0, 0.0, 10.0 ** x[0], 0.0), ((-8.0, 8.0, 33),)),
}
# zoom rounds around each constant's best point, and points per coordinate in each round's box
_ZOOM_ROUNDS, _ZOOM_POINTS = 8, 7
# C1 and C3 are infima, C2 a supremum: each is the minimum of its ratio times this sign
_SENSE = np.array([1.0, -1.0, 1.0])


def _reduced_ratios(p, delta, b, t, theta):
    """r1, r2, r3 at mu = 1 of the pairs |B| = b, |A-B| = t at the angle theta between B and A-B.

    S(A) - S(B) = (fa - fb) B + fa (A - B) with f(a) = (delta + a)**(p-2),
    so the monotonicity term is fa t**2 + (fa - fb) b t c.  fa / fb is
    taken through log1p of (a - b) / (delta + b), a - b as
    (2bc + t) t / (a + b), and fa - fb through expm1: no difference of
    near-equal numbers is formed.  The ratios are stacked as (3, ...).
    Where delta + a < 1e-6 (delta + b) (A near 0 with delta << b) the two
    terms of fa + (fa - fb) b c / t cancel by up to fa / fb; the ratios
    are nan there.  They are continuous at A = 0, and their grid
    neighbours are scored.
    """
    c, s = np.cos(theta), np.sin(theta)
    a = np.hypot(b + t * c, t * s)
    rel = (2.0 * b * c + t) * t / ((a + b) * (delta + b))  # (a - b) / (delta + b)
    q = (p - 2.0) * np.log1p(rel)
    fb = (delta + b) ** (p - 2.0)
    fa, dfa = fb * np.exp(q), fb * np.expm1(q)
    d = dfa * b / t
    mono = fa + d * c  # (S(A) - S(B)):(A - B) / t**2
    w = (delta + b + t) ** (p - 2.0)
    r = np.stack([mono / w, np.hypot(d + fa * c, fa * s) / w, mono * t * t / young_int(delta + b, t, p)])
    return np.where(rel < 1e-6 - 1.0, np.nan, r)


def _grid(bounds, centre=None, shrink=1.0):
    """The coordinates (dims, n) of the grid over bounds, or of a zoom box around centre.

    The box spans one grid spacing / shrink on each side of centre in
    _ZOOM_POINTS points per coordinate, clipped to bounds.
    """
    if centre is None:
        axes = [np.linspace(lo, hi, n) for lo, hi, n in bounds]
    else:
        half = [(hi - lo) / (n - 1) / shrink for lo, hi, n in bounds]
        axes = [np.clip(x + h * np.linspace(-1.0, 1.0, _ZOOM_POINTS), lo, hi) for x, h, (lo, hi, _) in zip(centre, half, bounds)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _scan(model, boxes):
    """The ratios at mu = 1 times their sense, (3, n), at the n points x of each (region, x) in boxes.

    The points of all boxes go through one ``_reduced_ratios`` call.
    """
    points = [np.broadcast_arrays(*_REGIONS[region][0](x)) for region, x in boxes]
    obj = _reduced_ratios(model.p, *(np.concatenate(c) for c in zip(*points))) * _SENSE[:, None]
    return np.split(obj, np.cumsum([x.shape[1] for _, x in boxes])[:-1], axis=1)


def _witness(model, region, x, dim):
    """The pair (A, B) of one point x of a region, as dim-by-dim matrices in the model's own scale.

    B = b E and A = B + t (cos(theta) E + sin(theta) F), with E and F the
    first two diagonal unit matrices.  The limit region takes b = 1e12 delta,
    within about 1e-12 of delta / b -> 0, capped at 1e300 so that the
    matrices stay finite (b = 1 at delta = 0); the others scale b and t by
    delta.
    """
    _, b, t, theta = _REGIONS[region][0](x)
    scale = (min(model.delta * 1e12, 1e300) if region == "limit" else model.delta) or 1.0
    e, f = np.zeros((2, dim, dim))
    e[0, 0] = f[1, 1] = 1.0
    bm = scale * b * e
    return bm + scale * t * (np.cos(theta) * e + np.sin(theta) * f), bm


def estimate_characteristics(model, dim=2):
    """(C1, C2, C3) by a deterministic search over the three numbers that fix each ratio.

    The ratios are scored once on a grid over each region of
    ``_REGIONS``: the delta / b -> 0 limit over (log10 t/b, theta), and
    for delta > 0 the interior over (log10 b/delta, log10 t/delta, theta)
    and the line B = 0 over log10 t/delta.  A box of _ZOOM_POINTS per
    coordinate then shrinks _ZOOM_ROUNDS times around each constant's best
    point.  C1 and C3 are the least values found, C2 the greatest, each
    times mu0 + mu: the stress factor is mu (delta + |A|)**(p-2) for p < 2
    (``_check_growth`` rules out mu0 > 0 there) and mu0 + mu at p = 2.
    C1 and C3 are infima approached as t/b -> 0, which the limit region
    stops at 1e-8, so they sit about 1e-9 above them.  The result is the
    same for every delta > 0 and for d = 2 and 3; ``dim`` only shapes the
    witnesses.
    """
    _check_growth(model)
    _check_dim(dim)
    best = [None] * 3  # per constant: (objective, region, point)
    count = 0
    # first one grid per region, which every constant reads; then, each round, one box per
    # constant around its best point, a third as wide as the round before
    boxes = [(region, _grid(bounds)) for region, (_, bounds) in _REGIONS.items() if model.delta > 0.0 or region == "limit"]
    with np.errstate(divide="ignore", invalid="ignore"):
        for zoom in range(_ZOOM_ROUNDS + 1):
            for j, ((region, x), obj) in enumerate(zip(boxes, _scan(model, boxes))):
                count += x.shape[1]
                for k in range(3) if zoom == 0 else (j,):
                    i = int(np.nanargmin(obj[k]))
                    if best[k] is None or obj[k, i] < best[k][0]:
                        best[k] = (obj[k, i], region, x[:, i])
            boxes = [(region, _grid(_REGIONS[region][1], centre, 3.0**zoom)) for _, region, centre in best]
    scale = model.mu0 + model.mu
    return Characteristics(
        *(float(scale * sense * val) for sense, (val, _, _) in zip(_SENSE, best)),
        *(_witness(model, region, centre, dim) for _, region, centre in best),
        samples=count,
        dim=dim,
    )


def inequality_sweep(model, samples=100_000, seed=0, dim=2, tol=1e-10, chars=None):
    """Sample pairs and count violations of the three growth inequalities.

    Monotonicity is checked in absolute form ((S(A)-S(B)):(A-B) >= -tol*scale);
    the C1/C2/C3 forms are checked against ``chars``.  With ``chars=None``
    the constants are taken from this very sample, so ``violations_C1``
    to ``violations_C3`` are 0 by construction; the out-of-sample check
    passes ``chars`` from ``estimate_characteristics``.  Returns a
    JSON-ready report.
    """
    a, b = _sample_pairs(np.random.default_rng(seed), samples, dim)
    r = _growth_ratios(model, a, b)
    if chars is None:
        c1, c2, c3 = float(np.min(r["r1"])), float(np.max(r["r2"])), float(np.min(r["r3"]))
    else:
        c1, c2, c3 = chars.C1, chars.C2, chars.C3
    scale = r["ds_norm"] * r["dd"] + 1e-300
    v_mono = int(np.sum(r["mono"] < -tol * scale))
    v_c1 = int(np.sum(r["r1"] < c1 - tol * max(abs(c1), 1.0)))
    v_c2 = int(np.sum(r["r2"] > c2 + tol * max(abs(c2), 1.0)))
    v_c3 = int(np.sum(r["r3"] < c3 - tol * max(abs(c3), 1.0)))
    return {
        **vars(model),
        "dim": dim,
        "pairs_checked": int(r["r1"].size),
        "C1": c1,
        "C2": c2,
        "C3": c3,
        "violations_monotonicity": v_mono,
        "violations_C1": v_c1,
        "violations_C2": v_c2,
        "violations_C3": v_c3,
        "min_monotonicity_ratio": float(np.min(r["mono"] / scale)),
        "seed": seed,
        "tolerance": tol,
    }
