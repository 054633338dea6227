"""Mixed Taylor-Hood discretization of a rectangle.

A structured triangulation (each grid square split along its up-diagonal)
carries continuous piecewise-quadratic vector fields for the velocity and
continuous piecewise-linear scalars for the pressure.  The quadrature is
a collapsed (Duffy) Gauss product rule whose polynomial exactness degree
is chosen at build time (default 8), so all norm and form evaluations
reduce to weighted sums over cell quadrature points.

Besides the space itself, this module provides the exponent-p norms, the
discrete divergence, and iterative estimation of the Korn and Sobolev
embedding constants on the discrete space: each is at most one
limited-memory BFGS ascent of a 0-homogeneous log-ratio (numpy two-loop
recursion, backtracking Armijo search, ``ASCENT_ITERS`` iterations), with
the maximizer recorded as witness.  The results are lower bounds, not
rigorous constants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import json
import numpy as np
import scipy.sparse.linalg as spla

from . import assembly
from .constitutive import frobenius, symmetrize

__all__ = [
    "RectDomain",
    "DiscreteSpace",
    "Field",
    "EmbeddingConstants",
    "ConstantEstimate",
    "SpaceBuildError",
    "ExponentRangeError",
    "build_space",
    "norm_Lp",
    "norm_grad_p",
    "norm_sym_grad_p",
    "sym_grad_norms",
    "level_norm",
    "combine_level_norm",
    "norm_W1p",
    "divergence_values",
    "prolong_velocity",
    "estimate_korn",
    "estimate_sobolev",
    "estimate_dual_norm",
    "estimate_embedding_constants",
    "ASCENT_ITERS",
    "discrete_divergence",
    "critical_exponent",
    "save_field",
    "load_field",
]


class SpaceBuildError(RuntimeError):
    """The velocity/pressure pairing failed its build-time stability check."""


class ExponentRangeError(ValueError):
    """Requested embedding target exceeds the critical Sobolev exponent."""


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]; d = 2 (3D reserved)."""

    x0: float = 0.0
    y0: float = 0.0
    x1: float = 1.0
    y1: float = 1.0

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("rectangle must have positive side lengths")

    @property
    def d(self):
        return 2

    @property
    def measure(self):
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def centre(self):
        return 0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1)


def _gauss01(m):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


def _triangle_rule(degree):
    """Collapsed Gauss product rule on the unit triangle, exact to `degree`.

    With m one-dimensional points the collapsed rule integrates total
    degree 2m-2 exactly (the Duffy factor raises the u-degree by one).
    """
    m = int(np.ceil((degree + 2) / 2))
    u, wu = _gauss01(m)
    v, wv = _gauss01(m)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ww = np.outer(wu, wv) * (1.0 - uu)
    xi = uu.ravel()
    eta = (vv * (1.0 - uu)).ravel()
    return np.column_stack([xi, eta]), ww.ravel()


def _p2_basis(pts):
    xi, eta = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1.0 - xi - eta, xi, eta
    vals = np.column_stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
    ])
    dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = np.empty((pts.shape[0], 6, 2))
    for k, lk in enumerate((l0, l1, l2)):
        grads[:, k, :] = (4 * lk - 1)[:, None] * dl[k]
    pairs = [(0, 1), (1, 2), (2, 0)]
    lam = (l0, l1, l2)
    for k, (a, b) in enumerate(pairs):
        grads[:, 3 + k, :] = 4 * (lam[a][:, None] * dl[b] + lam[b][:, None] * dl[a])
    return vals, grads


def _p1_basis(pts):
    xi, eta = pts[:, 0], pts[:, 1]
    return np.column_stack([1.0 - xi - eta, xi, eta])


@dataclass
class Field:
    """Coefficient vector tagged with its space and role.

    Roles: ``velocity`` (vector P2, block layout [all x-dofs, all y-dofs]),
    ``pressure`` (P1, mean normalized to zero on construction) and
    ``scalar`` (P1 data, unconstrained).
    """

    space: "DiscreteSpace"
    role: str
    coeffs: np.ndarray

    def __post_init__(self):
        expected = {"velocity": 2 * self.space.n_p2, "pressure": self.space.n_p1, "scalar": self.space.n_p1}
        if self.role not in expected:
            raise ValueError(f"unknown field role {self.role!r}")
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (expected[self.role],):
            raise ValueError(f"{self.role} field needs {expected[self.role]} coefficients, got {self.coeffs.shape}")
        if self.role == "pressure":
            m = self.space.pressure_mean_vector()
            mean = float(m @ self.coeffs) / self.space.domain.measure
            object.__setattr__(self, "coeffs", self.coeffs - mean)

    def copy(self):
        return Field(self.space, self.role, self.coeffs.copy())


class DiscreteSpace:
    """Triangulated rectangle with P2 velocity / P1 pressure approximation."""

    def __init__(self, domain, nx, ny, quad_degree=8, infsup_tol=1e-6):
        if nx < 2 or ny < 2:
            raise ValueError(f"need nx, ny >= 2, got {nx}, {ny}")
        self.domain = domain
        self.nx, self.ny = int(nx), int(ny)
        self.quad_degree = int(quad_degree)
        self._build_mesh()
        self._build_quadrature()
        self._cache = {}
        self.inf_sup = assembly.infsup_proxy(self)
        if self.inf_sup <= infsup_tol:
            raise SpaceBuildError(
                f"velocity/pressure pairing unstable: scaled divergence coupling "
                f"smallest singular value {self.inf_sup:.3e} <= {infsup_tol:.0e}"
            )

    # -- mesh ----------------------------------------------------------------

    def _build_mesh(self):
        dom, nx, ny = self.domain, self.nx, self.ny
        self.hx = (dom.x1 - dom.x0) / nx
        self.hy = (dom.y1 - dom.y0) / ny
        xs = dom.x0 + self.hx * np.arange(nx + 1)
        ys = dom.y0 + self.hy * np.arange(ny + 1)
        xv, yv = np.meshgrid(xs, ys, indexing="xy")
        self.verts = np.column_stack([xv.ravel(), yv.ravel()])
        self.n_verts = (nx + 1) * (ny + 1)

        def vid(i, j):
            return j * (nx + 1) + i

        cells = []
        for j in range(ny):
            for i in range(nx):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
                cells.append((v00, v10, v11))
                cells.append((v00, v11, v01))
        self.cells = np.asarray(cells, dtype=np.int64)
        self.n_cells = self.cells.shape[0]

        edges = {}
        cell_edges = np.empty((self.n_cells, 3), dtype=np.int64)
        for c, (a, b, d) in enumerate(self.cells):
            for k, (u, v) in enumerate(((a, b), (b, d), (d, a))):
                key = (min(u, v), max(u, v))
                cell_edges[c, k] = edges.setdefault(key, len(edges))
        self.n_edges = len(edges)
        self.edge_verts = np.empty((self.n_edges, 2), dtype=np.int64)
        for (u, v), e in edges.items():
            self.edge_verts[e] = (u, v)
        self._edge_index = edges

        self.n_p2 = self.n_verts + self.n_edges
        self.n_p1 = self.n_verts
        self.n_vel = 2 * self.n_p2
        self.cell_p2 = np.hstack([self.cells, self.n_verts + cell_edges])
        self.cell_vel = np.hstack([self.cell_p2, self.cell_p2 + self.n_p2])  # local velocity dofs
        self.cell_p1 = self.cells
        mids = 0.5 * (self.verts[self.edge_verts[:, 0]] + self.verts[self.edge_verts[:, 1]])
        self.p2_coords = np.vstack([self.verts, mids])

        ii = np.arange(self.n_verts) % (nx + 1)
        jj = np.arange(self.n_verts) // (nx + 1)
        bverts = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)
        bedges = np.zeros(self.n_edges, dtype=bool)
        bsegs = []  # (end dof, mid dof, end dof, normal, length)
        sides = [
            ([(vid(i, 0), vid(i + 1, 0)) for i in range(nx)], (0.0, -1.0), self.hx),
            ([(vid(i, ny), vid(i + 1, ny)) for i in range(nx)], (0.0, 1.0), self.hx),
            ([(vid(0, j), vid(0, j + 1)) for j in range(ny)], (-1.0, 0.0), self.hy),
            ([(vid(nx, j), vid(nx, j + 1)) for j in range(ny)], (1.0, 0.0), self.hy),
        ]
        for seg_list, nrm, length in sides:
            for (u, v) in seg_list:
                e = edges[(min(u, v), max(u, v))]
                bedges[e] = True
                bsegs.append((u, self.n_verts + e, v, nrm, length))
        self.boundary_segments = bsegs
        bmask = np.concatenate([bverts, bedges])
        self.boundary_p2 = np.flatnonzero(bmask)
        self.interior_p2 = np.flatnonzero(~bmask)
        self.boundary_vel_dofs = np.concatenate([self.boundary_p2, self.boundary_p2 + self.n_p2])
        self.free_vel_dofs = np.concatenate([self.interior_p2, self.interior_p2 + self.n_p2])

    def _build_quadrature(self):
        ref_pts, ref_w = _triangle_rule(self.quad_degree)
        nq = self.nq = ref_pts.shape[0]
        self.p2_vals, p2_ref_grads = _p2_basis(ref_pts)
        self.p1_vals = _p1_basis(ref_pts)

        # The mesh has two triangle shapes: even cells (v00, v10, v11) and odd
        # cells (v00, v11, v01).  Jacobian columns are the edge vectors from v00.
        jacs = np.array([[[self.hx, self.hx], [0.0, self.hy]], [[self.hx, 0.0], [self.hy, self.hy]]])
        v00 = self.verts[self.cells[::2, 0]]
        self.qpts = (v00[:, None, None, :] + np.einsum("qr,kxr->kqx", ref_pts, jacs)).reshape(self.n_cells, nq, 2)
        # det J = hx * hy for both shapes, so every cell has the same weights
        det = self.hx * self.hy
        self.cell_qw = det * ref_w
        self.qw = np.tile(self.cell_qw, (self.n_cells, 1))
        # physical gradients dN/dx = J^{-T} dN/dxi, per shape: (2, Q, 6, 2)
        inv = np.stack([jacs[:, 1, 1], -jacs[:, 0, 1], -jacs[:, 1, 0], jacs[:, 0, 0]], axis=-1) / det
        p2_grads = np.einsum("qma,kab->kqmb", p2_ref_grads, inv.reshape(2, 2, 2))
        # Vector-basis tables over the 12 local velocity dofs [x-dofs, y-dofs]:
        # value_table[r] is phi_r at every point, as (Q, 2); grad_table[k, r]
        # is grad phi_r on shape k, as (Q, 2, 2) with [..., i, j] = d phi_i / dx_j.
        eye = np.eye(2)
        self.value_table = np.einsum("qm,ci->cmqi", self.p2_vals, eye).reshape(12, 2 * nq)
        self.grad_table = np.einsum("kqmj,ci->kcmqij", p2_grads, eye).reshape(2, 12, 4 * nq)

        g1d, w1d = _gauss01(4)
        self._bq_pts, self._bq_w = g1d, w1d

    @property
    def h(self):
        return max(self.hx, self.hy)

    # -- field construction ----------------------------------------------------

    def velocity_field(self, coeffs):
        return Field(self, "velocity", coeffs)

    def pressure_field(self, coeffs):
        return Field(self, "pressure", coeffs)

    def scalar_field(self, coeffs):
        return Field(self, "scalar", coeffs)

    def zero_velocity(self):
        return Field(self, "velocity", np.zeros(self.n_vel))

    def interpolate_velocity(self, fun):
        x, y = self.p2_coords[:, 0], self.p2_coords[:, 1]
        vx, vy = _as_vec2(fun, x, y)
        return Field(self, "velocity", np.concatenate([vx, vy]))

    def interpolate_scalar(self, fun):
        x, y = self.verts[:, 0], self.verts[:, 1]
        return Field(self, "scalar", np.asarray(fun(x, y), dtype=float) + np.zeros(self.n_p1))

    # -- evaluation at quadrature points ---------------------------------------

    def velocity_values(self, coeffs):
        return (coeffs[self.cell_vel] @ self.value_table).reshape(self.n_cells, self.nq, 2)

    def velocity_gradients(self, coeffs):
        """(C, Q, 2, 2) array of du_i/dx_j at quadrature points."""
        return self.shape_gemm(coeffs[self.cell_vel], self.grad_table).reshape(self.n_cells, self.nq, 2, 2)

    def shape_gemm(self, rows, tables):
        """(C, W) products of per-cell rows (C, K) with their shape's table in tables (2, K, W).

        Even cells have shape 0 and odd cells shape 1: one GEMM per shape.
        """
        out = np.empty((self.n_cells // 2, 2, tables.shape[-1]))
        for k in range(2):
            np.matmul(rows[k::2], tables[k], out=out[:, k])
        return out.reshape(self.n_cells, -1)

    def p1_values(self, coeffs):
        return coeffs[self.cell_p1] @ self.p1_vals.T

    def integrate(self, vals):
        return float(np.sum(self.qw * vals))

    def lr_norm(self, r, *moduli):
        """(integral of the sum of modulus**r over the moduli)**(1/r), each a (C, Q) array >= 0.

        The norm is 1-homogeneous.  When the powers could leave the float
        range (largest modulus m with r |log10 m| > 100, as in the Sobolev
        objective), the moduli are scaled by m first, so a large r neither
        underflows to 0 nor overflows; otherwise they are taken as they are.
        """
        m = max(float(a.max()) for a in moduli)
        if m > 0.0 and r * abs(np.log10(m)) > 100.0:
            moduli = [a / m for a in moduli]
        else:
            m = 1.0
        total = moduli[0] ** r
        for a in moduli[1:]:
            total = total + a**r
        return m * self.integrate(total) ** (1.0 / r)

    def pressure_mean_vector(self):
        if "mean_vec" not in self._cache:
            self._cache["mean_vec"] = assembly.p1_load(self, np.ones_like(self.qw))
        return self._cache["mean_vec"]

    def p1_mass_solve(self, rhs):
        if "p1_mass_lu" not in self._cache:
            self._cache["p1_mass_lu"] = spla.splu(assembly.p1_mass(self).tocsc())
        return self._cache["p1_mass_lu"].solve(rhs)

    # -- boundary -----------------------------------------------------------------

    def boundary_quadrature(self):
        """Per boundary segment: quadrature points, weights, normal, trace dofs."""
        out = []
        t1d, w1d = self._bq_pts, self._bq_w
        basis = np.column_stack([(1 - t1d) * (1 - 2 * t1d), 4 * t1d * (1 - t1d), t1d * (2 * t1d - 1)])
        for (d0, dm, d1, nrm, length) in self.boundary_segments:
            a = self.p2_coords[d0]
            b = self.p2_coords[d1]
            pts = a[None, :] + np.outer(t1d, b - a)
            out.append({
                "dofs": (d0, dm, d1),
                "pts": pts,
                "w": w1d * length,
                "normal": np.asarray(nrm),
                "basis": basis,
            })
        return out

    def boundary_flux(self, boundary_values):
        """Outward flux of a velocity boundary trace given by P2 boundary dofs."""
        flux = 0.0
        for seg in self.boundary_quadrature():
            d = list(seg["dofs"])
            vx = seg["basis"] @ boundary_values[d]
            vy = seg["basis"] @ boundary_values[[k + self.n_p2 for k in d]]
            flux += np.sum(seg["w"] * (vx * seg["normal"][0] + vy * seg["normal"][1]))
        return float(flux)

    # -- point evaluation --------------------------------------------------------

    def _locate(self, pts):
        rel_x = (pts[:, 0] - self.domain.x0) / self.hx
        rel_y = (pts[:, 1] - self.domain.y0) / self.hy
        i = np.clip(np.floor(rel_x).astype(int), 0, self.nx - 1)
        j = np.clip(np.floor(rel_y).astype(int), 0, self.ny - 1)
        sx = rel_x - i
        sy = rel_y - j
        lower = sy <= sx
        cell = 2 * (j * self.nx + i) + np.where(lower, 0, 1)
        xi = np.where(lower, sx - sy, sx)
        eta = np.where(lower, sy, sy - sx)
        return cell, np.column_stack([xi, eta])

    def eval_p2_scalar(self, coeffs, pts):
        cell, ref = self._locate(np.asarray(pts, dtype=float))
        vals, _ = _p2_basis(ref)
        return np.einsum("nm,nm->n", vals, coeffs[self.cell_p2[cell]])

    def eval_velocity(self, coeffs, pts):
        vx = self.eval_p2_scalar(coeffs[: self.n_p2], pts)
        vy = self.eval_p2_scalar(coeffs[self.n_p2:], pts)
        return np.column_stack([vx, vy])

    def header(self):
        return {
            "domain": [self.domain.x0, self.domain.y0, self.domain.x1, self.domain.y1],
            "nx": self.nx,
            "ny": self.ny,
            "quad_degree": self.quad_degree,
            "n_p2": self.n_p2,
            "n_p1": self.n_p1,
            "inf_sup": self.inf_sup,
        }


def _as_vec2(fun, x, y):
    if isinstance(fun, (tuple, list)):
        return np.asarray(fun[0](x, y), dtype=float) + 0 * x, np.asarray(fun[1](x, y), dtype=float) + 0 * x
    out = np.asarray(fun(x, y), dtype=float)
    if out.ndim == 2 and out.shape[1] == 2:
        return out[:, 0], out[:, 1]
    raise ValueError("velocity callable must return an (N, 2) array or be a pair of scalar callables")


def build_space(domain, nx, ny, quad_degree=8):
    """Build a Taylor-Hood space; aborts if the inf-sup proxy degenerates."""
    return DiscreteSpace(domain, nx, ny, quad_degree=quad_degree)


def prolong_velocity(coarse, fine, field):
    """Exact transfer of a velocity field onto a nested refinement."""
    return fine.velocity_field(np.concatenate([
        coarse.eval_p2_scalar(field.coeffs[: coarse.n_p2], fine.p2_coords),
        coarse.eval_p2_scalar(field.coeffs[coarse.n_p2:], fine.p2_coords),
    ]))


# -- norms -------------------------------------------------------------------


def norm_Lp(field, p):
    """Quadrature Lebesgue norm; Euclidean modulus for vector fields."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    s = field.space
    if field.role == "velocity":
        vals = np.linalg.norm(s.velocity_values(field.coeffs), axis=-1)
    else:
        vals = np.abs(s.p1_values(field.coeffs))
    return s.lr_norm(p, vals)


def norm_grad_p(field, p):
    s = field.space
    return s.lr_norm(p, frobenius(s.velocity_gradients(field.coeffs)))


def sym_grad_norms(field, exponents):
    """Symmetric-gradient norms ||Dv||_r (Frobenius modulus pointwise), one per r in exponents.

    The gradient is evaluated once for all exponents.
    """
    s = field.space
    mag = frobenius(symmetrize(s.velocity_gradients(field.coeffs)))
    return [s.lr_norm(r, mag) for r in exponents]


def norm_sym_grad_p(field, p):
    """Symmetric-gradient norm ||Dv||_p (Frobenius modulus pointwise)."""
    return sym_grad_norms(field, (p,))[0]


def combine_level_norm(norm_p, norm_q, q, n):
    """Level norm max{n^(-2/(2q-1)) norm_q, norm_p} from the two norms; norm_p at n = inf."""
    if not np.isfinite(n):
        return norm_p
    return max(n ** (-2.0 / (2.0 * q - 1.0)) * norm_q, norm_p)


def level_norm(field, p, q, n):
    """Level norm max{n^(-2/(2q-1)) ||Dv||_q, ||Dv||_p}; ||Dv||_p at n = inf."""
    if not np.isfinite(n):
        return norm_sym_grad_p(field, p)
    return combine_level_norm(*sym_grad_norms(field, (p, q)), q, n)


def norm_W1p(field, p):
    s = field.space
    vals = np.linalg.norm(s.velocity_values(field.coeffs), axis=-1)
    return s.lr_norm(p, vals, frobenius(s.velocity_gradients(field.coeffs)))


def divergence_values(space, coeffs):
    g = space.velocity_gradients(coeffs)
    return g[..., 0, 0] + g[..., 1, 1]


def discrete_divergence(field):
    """L2 projection of div v onto the pressure-degree scalar space."""
    s = field.space
    b = assembly.p1_load(s, divergence_values(s, field.coeffs))
    return s.scalar_field(s.p1_mass_solve(b))


def critical_exponent(p, d=2):
    if p >= d:
        return np.inf
    return p * d / (d - p)


# -- constant estimation -------------------------------------------------------


@dataclass
class ConstantEstimate:
    value: float
    witness: Field
    converged: bool
    iters: int
    start: str | None = None  # what an estimator's ascent started from
    evaluations: int = 0  # objective calls, scoring the starts included
    stop: str | None = None  # why the ascent stopped; None when none ran


ASCENT_ITERS = 40  # iteration budget of every embedding ascent, and the config's embedding.iters


def _ratio_ascent(x0, objective, iters):
    """Maximize a 0-homogeneous log-ratio by limited-memory BFGS.

    ``objective(x)`` returns the log-ratio at x and a closure for its gradient
    there.  The backtracking Armijo search needs values only on the trials it
    rejects, so the gradient is built once per accepted point.  The two-loop
    recursion keeps 8 curvature pairs; a pair with s.y <= 0 is not stored.
    Returns the unit maximizer, its value, the stopping reason (``cap``,
    ``line_search`` or ``flat``: a zero gradient), the iterations and the
    objective evaluations.
    """
    x = x0 / np.linalg.norm(x0)
    val, grad = objective(x)
    g, evals = grad(), 1
    pairs = deque(maxlen=8)  # the last (s, y, 1 / s.y) of the minimization of -f
    for it in range(iters):
        if not g.any():
            return x / np.linalg.norm(x), val, "flat", it, evals
        d = g.copy()  # two-loop recursion: d = H g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        if pairs:  # H0 = (s.y / y.y) I from the newest pair
            s, y, _ = pairs[-1]
            d *= (s @ y) / (y @ y)
        else:  # a first step of length 0.25 from the unit start
            d *= 0.25 / np.linalg.norm(g)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d += (a - rho * (y @ d)) * s
        slope, t = g @ d, 1.0
        for _ in range(25):
            xt = x + t * d
            trial, grad_t = objective(xt)
            evals += 1
            if trial > val + 1e-4 * t * max(slope, 0.0):  # never accept a lower value
                break
            t *= 0.5
        else:
            return x / np.linalg.norm(x), val, "line_search", it, evals
        g_new = grad_t()
        s, y = xt - x, g - g_new
        if s @ y > 0.0:
            pairs.append((s, y, 1.0 / (s @ y)))
        x, val, g = xt, trial, g_new
    return x / np.linalg.norm(x), val, "cap", iters, evals


def _power_weight(mag, expo):
    """mag**expo where mag > 0 and 0 where mag vanishes (expo may be negative)."""
    with np.errstate(divide="ignore"):
        return np.where(mag > 1e-300, mag**expo, 0.0)


def _masked(vec, idx, n):
    out = np.zeros(n)
    out[idx] = vec
    return out


def _bump_velocity(space, center, width, freq=1.0):
    """Divergence-free bump: curl of a C2 compactly supported stream function."""
    cx, cy = center

    def r2(x, y):
        return ((x - cx) ** 2 + (y - cy) ** 2) / width**2

    def psi_y(x, y):
        z = np.maximum(1.0 - r2(x, y), 0.0)
        return -6.0 * z**2 * (y - cy) / width**2 * np.cos(freq * r2(x, y))

    def psi_x(x, y):
        z = np.maximum(1.0 - r2(x, y), 0.0)
        return -6.0 * z**2 * (x - cx) / width**2 * np.cos(freq * r2(x, y))

    return space.interpolate_velocity((lambda x, y: psi_y(x, y), lambda x, y: -psi_x(x, y)))


def _korn_objective(space, p):
    """log(||grad u||_p / ||Du||_p) of the zero-boundary field with free dofs xf, with its gradient closure.

    |Du| is the length of the Mandel components (g00, g11, (g01 + g10) / sqrt(2)): Du is never formed.
    """
    free = space.free_vel_dofs

    def objective(xf):
        g = space.velocity_gradients(_masked(xf, free, space.n_vel))
        mf = frobenius(g)
        ms = np.sqrt(g[..., 0, 0] ** 2 + g[..., 1, 1] ** 2 + 0.5 * (g[..., 0, 1] + g[..., 1, 0]) ** 2)
        nf, ns = space.integrate(mf**p), space.integrate(ms**p)

        def grad():
            # wf grad u - ws Du = (wf - ws/2) grad u - (ws/2) grad u^T
            wf = (_power_weight(mf, p - 2.0) / nf)[..., None, None]
            ws = (0.5 * _power_weight(ms, p - 2.0) / ns)[..., None, None]
            return assembly.stress_load(space, (wf - ws) * g - ws * np.swapaxes(g, -1, -2))[free]

        return (np.log(nf) - np.log(ns)) / p, grad

    return objective


def estimate_korn(space, p, iters=ASCENT_ITERS):
    """Korn constant sup ||grad u||_p / ||Du||_p over zero-boundary fields.

    At p = 2 it is sqrt(2) exactly: |grad u|^2 = 2 |Du|^2 - (div u)^2
    integrates to an identity for zero-boundary fields, and divergence-free
    fields attain the bound.  For p != 2 the result is a lower bound from
    one L-BFGS ascent started at the divergence-free swirl at the domain's
    centre (width 0.32 of the shorter side), which is also the p = 2 witness;
    it is converged only when the ascent stops before its iteration cap.
    """
    if not (1.0 < p <= 2.0):
        raise ValueError(f"need p in (1, 2], got {p}")
    dom = space.domain
    swirl = _bump_velocity(space, dom.centre, 0.32 * min(dom.x1 - dom.x0, dom.y1 - dom.y0))
    if p == 2.0:
        return ConstantEstimate(np.sqrt(2.0), swirl, True, 0, "exact")
    free = space.free_vel_dofs
    xf, val, stop, used, evals = _ratio_ascent(swirl.coeffs[free], _korn_objective(space, p), iters)
    witness = space.velocity_field(_masked(xf, free, space.n_vel))
    return ConstantEstimate(float(np.exp(val)), witness, stop != "cap", used, "divfree", evals, stop)


def _sobolev_objective(space, s, r):
    """log ||u||_r - log ||u||_{1,s} from one value and one gradient evaluation, with its gradient closure."""

    def objective(x):
        v = space.velocity_values(x)
        g = space.velocity_gradients(x)
        vals, gn = np.linalg.norm(v, axis=-1), frobenius(g)
        # Both norms are 1-homogeneous.  When the powers could leave the float
        # range, each norm is taken of the field scaled by its own largest modulus.
        mv, md = vals.max(), max(vals.max(), gn.max())
        if max(r, s) * max(abs(np.log10(mv)), abs(np.log10(md))) <= 100.0:
            mv = md = 1.0
        nr = space.integrate((vals / mv) ** r)
        nd = space.integrate((vals / md) ** s + (gn / md) ** s)

        def grad():
            wv = _power_weight(vals / mv, r - 2.0) / (nr * mv**2) - _power_weight(vals / md, s - 2.0) / (nd * md**2)
            wg = _power_weight(gn / md, s - 2.0) / (nd * md**2)
            return assembly.velocity_load(space, wv[..., None] * v) - assembly.stress_load(space, wg[..., None, None] * g)

        return np.log(mv) - np.log(md) + np.log(nr) / r - np.log(nd) / s, grad

    return objective


def estimate_sobolev(space, from_p, to_r, iters=ASCENT_ITERS, starts=None):
    """Lower bound for sup ||u||_r / ||u||_{1,p} over the discrete space.

    The constant field, a Gaussian bump at the domain's centre and the
    fields in ``starts`` are scored by their ratio; one L-BFGS ascent runs
    from the best.  When the constant wins, its ratio |Omega|^(1/r - 1/p)
    is returned as it is, with no ascent: at a constant u = c both terms of
    the log-ratio's gradient are c . int phi_i / (|c|^2 |Omega|) and cancel,
    so an ascent from it has no direction to take.
    Fails fast when the target exponent exceeds the critical one.
    """
    pstar = critical_exponent(from_p, 2)
    if to_r > pstar * (1 + 1e-12):
        raise ExponentRangeError(f"target exponent {to_r} exceeds the critical exponent {pstar}")
    if to_r < 1 or from_p < 1:
        raise ValueError("exponents must be >= 1")
    objective = _sobolev_objective(space, from_p, to_r)
    const = np.concatenate([np.ones(space.n_p2), np.zeros(space.n_p2)])
    cx, cy = space.domain.centre
    w = 0.15 * min(space.domain.x1 - space.domain.x0, space.domain.y1 - space.domain.y0)
    bump = space.interpolate_velocity(
        (lambda x, y: np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / w**2), lambda x, y: 0.0 * x)
    ).coeffs
    cands = [("constant", const), ("bump", bump)] + [("given", f.coeffs) for f in starts or ()]
    scores = [objective(x / np.linalg.norm(x))[0] for _, x in cands]
    best = int(np.argmax(scores))
    start, x0 = cands[best]
    if start == "constant":
        witness = space.velocity_field(x0 / np.linalg.norm(x0))
        return ConstantEstimate(float(np.exp(scores[best])), witness, True, 0, start, len(cands))
    xf, val, stop, used, evals = _ratio_ascent(x0, objective, iters)
    return ConstantEstimate(float(np.exp(val)), space.velocity_field(xf), stop != "cap", used, start, len(cands) + evals, stop)


def estimate_dual_norm(space, load, p, iters=15):
    """Discrete dual norm sup <F, phi>/||D phi||_p over zero-boundary fields.

    Fixed-point iteration on the weighted symmetric stiffness; each iterate
    is itself a valid lower bound and the best one is returned.  Converged
    means p = 2 (one solve is exact), a vanishing load, or last two iterates
    whose values agree to 1e-10 relative.
    """
    free = space.free_vel_dofs
    lf = load[free]
    if np.linalg.norm(lf) == 0.0:
        return ConstantEstimate(0.0, space.zero_velocity(), True, 0)
    best = 0.0
    xbest = None
    vals = []
    weight = np.ones_like(space.qw)
    for it in range(iters):
        c, _ = assembly.dirichlet_solve(space, assembly.sym_grad_stiffness(space, weight), load)
        dn_pt = frobenius(symmetrize(space.velocity_gradients(c)))
        dn = space.lr_norm(p, dn_pt)
        if dn == 0.0:
            break
        vals.append(float(lf @ c[free]) / dn)
        if vals[-1] > best:
            best, xbest = vals[-1], c
        if p == 2.0:
            break
        floor = 1e-10 * max(dn_pt.max(), 1e-300)
        weight = np.maximum(dn_pt, floor) ** (p - 2.0)
    converged = p == 2.0 or (len(vals) >= 2 and abs(vals[-1] - vals[-2]) <= 1e-10 * abs(vals[-1]))
    wit = space.velocity_field(xbest if xbest is not None else np.zeros(space.n_vel))
    return ConstantEstimate(best, wit, converged, it + 1)


@dataclass
class EmbeddingConstants:
    """Estimated discrete Korn and Sobolev constants with witnesses.

    ``ascent`` records per estimate the start its ascent ran from
    (``exact`` for Korn at p = 2), its iteration count, its objective
    evaluations (the scoring of the Sobolev starts included), why it stopped
    (``cap``, ``line_search`` or ``flat``; None when no ascent ran), and
    whether it is degenerate: a Sobolev estimate won by the constant field,
    where the ratio's gradient vanishes.
    """

    p: float
    s: float
    korn_p: float
    sob_p_to_pstar: float
    sob_s_to_2pprime: float
    targets: dict
    witnesses: dict
    converged: dict
    ascent: dict

    def to_json(self):
        return {
            "p": self.p,
            "s": self.s,
            "korn_p": self.korn_p,
            "sob_p_to_pstar": self.sob_p_to_pstar,
            "sob_s_to_2pprime": self.sob_s_to_2pprime,
            "targets": self.targets,
            "converged": self.converged,
            "ascent": self.ascent,
            "non_rigorous": True,
        }


def estimate_embedding_constants(space, p, s, iters=ASCENT_ITERS):
    """Estimate the trio (korn_p, W^{1,p} -> L^{p*}, W^{1,s} -> L^{2p'})."""
    pstar = critical_exponent(p, 2)
    target1 = min(pstar, 64.0)  # cap the numerically explored exponent
    two_pprime = 2.0 * p / (p - 1.0)
    est = {
        "korn_p": estimate_korn(space, p, iters=iters),
        "sob_p_to_pstar": estimate_sobolev(space, p, target1, iters=iters),
        "sob_s_to_2pprime": estimate_sobolev(space, s, min(two_pprime, critical_exponent(s, 2)), iters=iters),
    }
    return EmbeddingConstants(
        p=p,
        s=s,
        korn_p=est["korn_p"].value,
        sob_p_to_pstar=est["sob_p_to_pstar"].value,
        sob_s_to_2pprime=est["sob_s_to_2pprime"].value,
        targets={"pstar": pstar, "pstar_used": target1, "two_pprime": two_pprime},
        witnesses={k: e.witness for k, e in est.items()},
        converged={k: e.converged for k, e in est.items()},
        ascent={
            k: {"start": e.start, "iters": e.iters, "evaluations": e.evaluations, "stop": e.stop, "degenerate": e.start == "constant"}
            for k, e in est.items()
        },
    )


# -- field io ----------------------------------------------------------------


def save_field(path, field):
    """Structured-grid text format: one JSON header line, then coefficients."""
    head = {"role": field.role, **field.space.header()}
    with open(path, "w") as fh:
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for c in field.coeffs:
            fh.write(repr(float(c)) + "\n")


def load_field(path, space, role=None):
    """Read a saved field; ValueError if its mesh, domain, quad_degree or role (if given) differ."""
    with open(path) as fh:
        head = json.loads(fh.readline())
        coeffs = np.array([float(line) for line in fh])
    own = space.header()
    for key in ("nx", "ny", "domain", "quad_degree"):
        if head.get(key) != own[key]:
            raise ValueError(f"field header {key} {head.get(key)!r} does not match the space's {own[key]!r}")
    if role is not None and head.get("role") != role:
        raise ValueError(f"field header role {head.get('role')!r} is not {role!r}")
    return Field(space, head.get("role"), coeffs)
