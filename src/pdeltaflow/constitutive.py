"""Power-law extra stress tensors and their growth/monotonicity structure.

The constitutive map is ``S(A) = mu0*A + mu*(delta + |A|)**(p-2) * A`` on
symmetric d-by-d matrices, the standard shear-thinning power-law family
for ``1 < p <= 2`` (|.| is the Frobenius norm).  Besides evaluating the
tensor, this module estimates its three growth constants

* ``C1`` -- monotonicity: ``(S(A)-S(B)):(A-B) >= C1*w(A,B)*|A-B|**2``,
* ``C2`` -- growth: ``|S(A)-S(B)| <= C2*w(A,B)*|A-B|``,
* ``C3`` -- integral lower bound against ``int_0^|A-B| (delta+|B|+s)**(p-2) s ds``,

with the shared weight ``w(A,B) = (delta + |B| + |A-B|)**(p-2)``, by
stratified sampling over several magnitude decades.  The estimates are
empirical (reported with extremizing witnesses, never rigorous bounds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PDeltaModel",
    "Characteristics",
    "DegenerateSampleError",
    "symmetrize",
    "frobenius",
    "random_sym",
    "eval_stress",
    "shifted_stress",
    "young_int",
    "young_gap",
    "rho_lower_bound",
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
    """Sampled growth constants of a stress tensor, with extremizer witnesses.

    The values are empirical bounds over the drawn sample (C1, C3 sampled
    infima; C2 a sampled supremum) and are flagged non-rigorous.
    """

    C1: float
    C2: float
    C3: float
    witness_C1: tuple
    witness_C2: tuple
    witness_C3: tuple
    samples: int
    seed: int
    dim: int = 2
    non_rigorous: bool = True

    def __post_init__(self):
        if not (self.C1 > 0 and self.C2 > 0 and self.C3 > 0):
            raise ValueError("characteristics must be positive")
        if self.C1 > self.C2 * (1 + 1e-12):
            raise ValueError(f"C1={self.C1} exceeds C2={self.C2}")

    def to_json(self):
        return {
            "C1": self.C1,
            "C2": self.C2,
            "C3": self.C3,
            "witnesses": {
                "C1": [self.witness_C1[0].tolist(), self.witness_C1[1].tolist()],
                "C2": [self.witness_C2[0].tolist(), self.witness_C2[1].tolist()],
                "C3": [self.witness_C3[0].tolist(), self.witness_C3[1].tolist()],
            },
            "samples": self.samples,
            "seed": self.seed,
            "dim": self.dim,
            "non_rigorous": self.non_rigorous,
        }


def symmetrize(a):
    """Symmetric part (A + A^T)/2, acting on the two trailing axes."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def frobenius(a):
    """Frobenius norm over the two trailing axes."""
    return np.sqrt(np.einsum("...ij,...ij->...", a, a))


def random_sym(rng, n, dim=2):
    """n random symmetric dim-by-dim matrices with unit Frobenius norm."""
    m = symmetrize(rng.standard_normal((n, dim, dim)))
    nrm = frobenius(m)
    # a symmetrized Gaussian matrix is zero with probability zero
    return m / nrm[:, None, None]


def eval_stress(model, a):
    """Apply the power-law tensor; accepts a batch with trailing (d, d) axes.

    The input is symmetrized on entry, so the map factors through the
    symmetric part exactly, and S(0) = 0 by convention (no 0**(p-2) is
    ever formed).
    """
    a = symmetrize(np.asarray(a, dtype=float))
    nrm = frobenius(a)
    with np.errstate(divide="ignore"):
        w = np.where(nrm > 0.0, model.mu * (model.delta + nrm) ** (model.p - 2.0), 0.0)
    return (model.mu0 + w)[..., None, None] * a


def shifted_stress(model, g, a):
    """Stress of the shifted argument, S(A + G)."""
    return eval_stress(model, np.asarray(a, dtype=float) + np.asarray(g, dtype=float))


def young_int(a, t, p):
    """Closed form of ``int_0^t (a+s)**(p-2) s ds`` for p in (1, 2].

    Uses the antiderivative for moderate t/a and a truncated series when
    t << a, where the antiderivative cancels catastrophically.
    """
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    a, t = np.broadcast_arrays(a, t)
    out = np.empty_like(a)

    zero_a = a <= 0.0
    out[zero_a] = t[zero_a] ** p / p

    pos = ~zero_a
    ap = a[pos]
    tp = t[pos]
    with np.errstate(over="ignore"):
        x = tp / ap
    # below x ~ 3e-3 the antiderivative cancels; the 6-term series is then
    # accurate to ~1e-15 relative while the closed form is only ~1e-11
    small = x < 3e-3
    vals = np.empty_like(ap)

    ac, tc = ap[~small], tp[~small]
    vals[~small] = ((ac + tc) ** p - ac**p) / p - ac * ((ac + tc) ** (p - 1.0) - ac ** (p - 1.0)) / (p - 1.0)

    asml, tsml, xs = ap[small], tp[small], x[small]
    q2, q3, q4, q5 = p - 2.0, p - 3.0, p - 4.0, p - 5.0
    vals[small] = asml ** (p - 2.0) * tsml**2 * (
        0.5
        + q2 * xs / 3.0
        + q2 * q3 * xs**2 / 8.0
        + q2 * q3 * q4 * xs**3 / 30.0
        + q2 * q3 * q4 * q5 * xs**4 / 144.0
        + q2 * q3 * q4 * q5 * (p - 6.0) * xs**5 / 840.0
    )
    out[pos] = vals
    return out if out.ndim else float(out)


def young_gap(a, t, p):
    """Gap ``int_0^t (a+s)**(p-2) s ds - (t**p/p - t*a**(p-1))``; >= 0 up to roundoff."""
    if not (1.0 < p <= 2.0):
        raise ValueError(f"exponent must lie in (1, 2], got p={p}")
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    gap = young_int(a, t, p) - (t**p / p - t * a ** (p - 1.0))
    return gap if gap.ndim else float(gap)


def rho_lower_bound(model, g, b, t, c1=1.0):
    """Monotonicity modulus ``rho_B(t) = C1*(delta + |B+G| + t)**(p-2) * t**2``.

    ``c1`` is the monotonicity constant (take it from
    :func:`estimate_characteristics`); the default 1.0 gives the
    normalized shape function.
    """
    t = np.asarray(t, dtype=float)
    base = model.delta + frobenius(symmetrize(b) + symmetrize(g)) + t
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(base > 0.0, c1 * base ** (model.p - 2.0) * t**2, 0.0)
    return val if val.ndim else float(val)


def _sample_pairs(rng, n_random, dim, decades=(-4.0, 4.0)):
    """Random pairs over magnitude decades plus structured extreme pairs.

    The structured block adds parallel, antiparallel and orthogonal pairs
    on a log-magnitude grid (and pairs with B = 0 or B ~ A), which pins
    the extremal ratios far more reliably than blind sampling.
    """
    if n_random < 10_000:
        raise ValueError(f"need at least 1e4 samples, got {n_random}")
    if dim not in (2, 3):
        raise ValueError(f"matrix dimension must be 2 or 3, got {dim}")
    da = random_sym(rng, n_random, dim)
    db = random_sym(rng, n_random, dim)
    ma = 10.0 ** rng.uniform(*decades, n_random)
    mb = 10.0 ** rng.uniform(*decades, n_random)
    a_parts = [da * ma[:, None, None]]
    b_parts = [db * mb[:, None, None]]

    mags = np.logspace(decades[0], decades[1], 17)
    u = random_sym(rng, 3, dim)
    for ui in u:
        v = random_sym(rng, 1, dim)[0]
        v = v - np.sum(v * ui) * ui
        vn = frobenius(v)
        if vn < 1e-8:  # re-draw is not worth it; skip the orthogonal leg
            v = None
        else:
            v = v / vn
        ta, tb = np.meshgrid(mags, mags, indexing="ij")
        ta = ta.ravel()[:, None, None]
        tb = tb.ravel()[:, None, None]
        dirs = [ui, -ui] + ([v] if v is not None else [])
        for w in dirs:
            a_parts.append(ta * ui)
            b_parts.append(tb * w)
        # pairs against zero and near-coincident pairs
        a_parts.append(mags[:, None, None] * ui)
        b_parts.append(np.zeros((mags.size, dim, dim)))
        a_parts.append(mags[:, None, None] * ui)
        b_parts.append(mags[:, None, None] * ui * (1.0 + 1e-4))

    return np.concatenate(a_parts), np.concatenate(b_parts)


# pairs per evaluation chunk: bounds the temporaries of _growth_ratios
_CHUNK = 8192


def _chunk_ratios(model, a, b):
    """Pointwise ratios of the three growth inequalities for the non-coincident pairs (a, b).

    ``idx`` holds the positions of those pairs in (a, b).
    """
    diff = a - b
    dd = frobenius(diff)
    keep = np.flatnonzero(dd > 1e-12 * (frobenius(a) + frobenius(b) + 1.0))
    a, b, diff, dd = a[keep], b[keep], diff[keep], dd[keep]

    sa = eval_stress(model, a)
    sb = eval_stress(model, b)
    ds = sa - sb
    mono = np.sum(ds * diff, axis=(-1, -2))
    w = (model.delta + frobenius(b) + dd) ** (model.p - 2.0)
    r1 = mono / (w * dd**2)
    r2 = frobenius(ds) / (w * dd)
    r3 = mono / young_int(model.delta + frobenius(b), dd, model.p)
    return {"idx": keep, "mono": mono, "ds_norm": frobenius(ds), "dd": dd, "r1": r1, "r2": r2, "r3": r3}


def _growth_ratios(model, a, b):
    """Pointwise ratios of the three growth inequalities for pairs (a, b).

    The pairs are evaluated in chunks of _CHUNK, so the per-pair matrix
    temporaries stay small; the ratios are those of one evaluation of all
    pairs, in sample order, and ``idx`` gives each ratio's pair in (a, b).
    """
    parts = []
    for start in range(0, len(a), _CHUNK):
        part = _chunk_ratios(model, a[start:start + _CHUNK], b[start:start + _CHUNK])
        part["idx"] += start
        parts.append(part)
    r = {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}
    if r["dd"].size == 0:
        raise DegenerateSampleError("all sampled pairs coincide")
    return r


def estimate_characteristics(model, samples=100_000, seed=0, dim=2):
    """Estimate (C1, C2, C3) by stratified Monte-Carlo over magnitude decades.

    C1 and C3 are sampled infima, C2 a sampled supremum; the extremizing
    pair is recorded for each.  The result is an empirical bound for the
    drawn sample, not a proof.
    """
    rng = np.random.default_rng(seed)
    a, b = _sample_pairs(rng, samples, dim)
    r = _growth_ratios(model, a, b)

    i1 = int(np.argmin(r["r1"]))
    i2 = int(np.argmax(r["r2"]))
    i3 = int(np.argmin(r["r3"]))
    pair = lambda i: (a[r["idx"][i]], b[r["idx"][i]])
    return Characteristics(
        C1=float(r["r1"][i1]),
        C2=float(r["r2"][i2]),
        C3=float(r["r3"][i3]),
        witness_C1=pair(i1),
        witness_C2=pair(i2),
        witness_C3=pair(i3),
        samples=int(r["r1"].size),
        seed=seed,
        dim=dim,
    )


def inequality_sweep(model, samples=100_000, seed=0, dim=2, tol=1e-10, chars=None):
    """Sample pairs and count violations of the three growth inequalities.

    Monotonicity is checked in absolute form ((S(A)-S(B)):(A-B) >= -tol*scale);
    the C1/C2/C3 forms are checked against ``chars`` (estimated from this
    very sample when not supplied).  Returns a JSON-ready report.
    """
    rng = np.random.default_rng(seed)
    a, b = _sample_pairs(rng, samples, dim)
    r = _growth_ratios(model, a, b)

    if chars is None:
        c1 = float(np.min(r["r1"]))
        c2 = float(np.max(r["r2"]))
        c3 = float(np.min(r["r3"]))
    else:
        c1, c2, c3 = chars.C1, chars.C2, chars.C3

    scale = r["ds_norm"] * r["dd"] + 1e-300
    v_mono = int(np.sum(r["mono"] < -tol * scale))
    v_c1 = int(np.sum(r["r1"] < c1 - tol * max(abs(c1), 1.0)))
    v_c2 = int(np.sum(r["r2"] > c2 + tol * max(abs(c2), 1.0)))
    v_c3 = int(np.sum(r["r3"] < c3 - tol * max(abs(c3), 1.0)))
    return {
        "p": model.p,
        "delta": model.delta,
        "mu0": model.mu0,
        "mu": model.mu,
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
