"""Power-law extra stress tensors and their growth/monotonicity structure.

The constitutive map is ``S(A) = mu0*A + mu*(delta + |A|)**(p-2) * A`` on
symmetric d-by-d matrices, the standard shear-thinning power-law family
for ``1 < p <= 2`` (|.| is the Frobenius norm).  Besides evaluating the
tensor, this module gives its three growth constants

* ``C1`` -- monotonicity: ``(S(A)-S(B)):(A-B) >= C1*w(A,B)*|A-B|**2``,
* ``C2`` -- growth: ``|S(A)-S(B)| <= C2*w(A,B)*|A-B|``,
* ``C3`` -- integral lower bound against ``int_0^|A-B| (delta+|B|+s)**(p-2) s ds``,

with the shared weight ``w(A,B) = (delta + |B| + |A-B|)**(p-2)`` (for the
shifted structure behind them see Diening and Ettwein, Forum Math. 20,
2008).  S is isotropic, so each ratio depends on a pair only through
b = |B|, t = |A-B| and the angle between B and A-B, and with mu0 = 0 only
through t/b, delta/b and the angle.  With mu0 > 0 and p < 2 the growth
ratio has no bound (B = 0 gives mu0 (delta + |A|)**(2-p) + mu), so such a
model has no C2; at p = 2, S(A) = (mu0 + mu) A.  Every ratio is thus
mu0 + mu times its value at mu0 = 0, mu = 1, which is taken below, in the
limit delta/b -> 0 (also the whole delta = 0 model) with b = 1 and x = t:

* A - B = x B: S(A) - S(B) = ((1+x)**(p-1) - 1) B and w = (1+x)**(p-2), so
  the C1 ratio ((1+x)**(p-1) - 1) (1+x)**(2-p) / x = (p-1) (1 + (2-p) x/2 + O(x**2))
  tends to p - 1 as x -> 0, and the C3 ratio, whose denominator is
  ``int_0^x (1+s)**(p-2) s ds = x**2/2 + O(x**3)``, to 2 (p - 1).
* A - B = -x B with x > 1: A = (1-x) B, |A| = x - 1 and
  S(A) - S(B) = -(1 + (x-1)**(p-1)) B, so the C2 ratio is
  ``h_p(x) = (1 + (x-1)**(p-1)) (1+x)**(2-p) / x``, with h_p(1+) = 2**(2-p)
  and h_p(inf) = 1.  ``_growth_peak`` finds its interior maximum x*
  (h_p = 1 at p = 2).

``estimate_characteristics`` returns C1 = p - 1, C2 = h_p(x*) and
C3 = 2 (p - 1), each times mu0 + mu.  That no other angle, no delta/b > 0
and no pair with B = 0 goes beyond them is not proved here: the tests
check it by scanning the reduced ratios on grids at several p, and
``inequality_sweep`` checks it on a stratified random sample of matrix
pairs.  The constants are flagged non-rigorous.
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

    C1 and C3 are the infima and C2 the supremum of the reduced ratios, in
    closed form; each witness is a pair (A, B), as dim-by-dim matrices, that
    attains or nearly attains its constant.  The values are flagged
    non-rigorous.
    """

    C1: float
    C2: float
    C3: float
    witness_C1: tuple
    witness_C2: tuple
    witness_C3: tuple
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
    # below x ~ 3e-2 the antiderivative cancels (just above, it is off by 2e-13 relative at p = 1.8
    # and 5e-12 at p = 1.05); the series holds ~1e-16 there
    small = (x < 3e-2) & ~zero
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
    """a**(p-2) t**2 times the sum over k < 11 of binom(p-2, k) x**k / (k + 2), added left to right.

    |binom(p-2, k)| <= 1, so at x < 3e-2 the first omitted term is below 3e-2**11 / 13 < 1e-17.
    """
    total, term = 0.5, 1.0
    for k in range(1, 11):
        term = term * (p - 1.0 - k) / k * x  # binom(p-2, k) x**k
        total = total + term / (k + 2)
    return a ** (p - 2.0) * t**2 * total


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
        # below 1e-8 a re-draw is not worth it; the orthogonal leg is skipped
        dirs = np.array([ui, -ui] + ([v / vn] if vn >= 1e-8 else []))
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


def _growth_peak(p):
    """(u*, h) at the maximum over u > 0 of h(u) = (1 + u**(p-1)) (2 + u)**(2-p) / (1 + u), which is h_p(1 + u).

    Bisection of the sign of the log-derivative
    g(u) = (p-1) u**(p-2) / (1 + u**(p-1)) + (2-p) / (2+u) - 1 / (1+u) on (0, 1], where
    g(0+) = +inf and g(1) = (p-2) / 6, until the midpoint is an end.  At p = 2, h = 1 and
    g = 0 exactly for every u, so the bisection ends at u* = 1 (A = -B).
    """
    lo, hi = 0.0, 1.0
    while (u := 0.5 * (lo + hi)) not in (lo, hi):
        if (p - 1.0) * u ** (p - 2.0) / (1.0 + u ** (p - 1.0)) + (2.0 - p) / (2.0 + u) - 1.0 / (1.0 + u) >= 0.0:
            lo = u
        else:
            hi = u
    return hi, (1.0 + hi ** (p - 1.0)) * (2.0 + hi) ** (2.0 - p) / (1.0 + hi)


def _witness(model, k, dim):
    """The pair (A, B) = (k B, B) with B = b E, E the first diagonal unit matrix, as dim-by-dim matrices.

    b = 1e12 delta, within about 1e-12 of delta / b -> 0, capped at 1e300 so that the matrices
    stay finite (b = 1 at delta = 0).
    """
    a, bm = np.zeros((2, dim, dim))
    bm[0, 0] = min(model.delta * 1e12, 1e300) or 1.0
    a[0, 0] = k * bm[0, 0]
    return a, bm


def estimate_characteristics(model, dim=2):
    """(C1, C2, C3) = (mu0 + mu) (p - 1, max h_p, 2 (p - 1)), the closed forms of the module docstring.

    The stress factor is mu (delta + |A|)**(p-2) for p < 2 (``_check_growth`` rules out mu0 > 0
    there) and mu0 + mu at p = 2, where h_p = 1.  The result is the same for every delta >= 0 and
    for d = 2 and 3; ``dim`` only shapes the witnesses: A = (1 + 1e-8) B for C1 and C3, whose
    ratios lie about 1e-8 above the infima, and A = -u* B = (1 - x*) B for C2, which attains it
    as delta / b -> 0.
    """
    _check_growth(model)
    _check_dim(dim)
    scale = model.mu0 + model.mu
    u, peak = _growth_peak(model.p)
    c1 = scale * (model.p - 1.0)
    near = 1.0 + 1e-8  # A / B of the C1 and C3 witnesses, whose ratios lie within about 1e-8 of the infima
    witnesses = (_witness(model, k, dim) for k in (near, -u, near))
    return Characteristics(c1, scale * peak, 2.0 * c1, *witnesses, dim=dim)


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
