"""Mixed Taylor-Hood discretization of a rectangle.

A structured triangulation (each grid square split along its up-diagonal)
carries continuous piecewise-quadratic vector fields for the velocity and
continuous piecewise-linear scalars for the pressure.  The quadrature's
polynomial exactness degree is chosen at build time (default 8): degrees
7 and 8 use a fully symmetric 16-point rule (Dunavant 1985), every other
degree a collapsed (Duffy) Gauss product rule.  All norm and form
evaluations reduce to weighted sums over cell quadrature points, where a
velocity gradient has one format: its orthonormal components, those of Du
(Mandel, ``sym_gradients``) and then the skew one (``velocity_gradients``).

Besides the space itself, this module provides the exponent-p norms, the
pointwise divergence, and iterative estimation of the Korn and Sobolev
embedding constants on the discrete space: each is at most one
limited-memory BFGS ascent of a 0-homogeneous log-ratio (numpy two-loop
recursion, backtracking Armijo search, ``ASCENT_ITERS`` iterations), with
the maximizer recorded as witness.  The results are lower bounds, not
rigorous constants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import itertools
import json
import numpy as np
import scipy.sparse.linalg as spla

from . import assembly
from .constitutive import _check_integer

__all__ = [
    "RectDomain",
    "DiscreteSpace",
    "Field",
    "EmbeddingConstants",
    "ConstantEstimate",
    "ExponentRangeError",
    "build_space",
    "norm_Lp",
    "norm_grad_p",
    "norm_sym_grad_p",
    "sym_grad_norms",
    "mandel_norm",
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
    "critical_exponent",
    "save_field",
    "load_field",
]


class ExponentRangeError(ValueError):
    """Requested embedding target exceeds the critical Sobolev exponent."""


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float = 0.0
    y0: float = 0.0
    x1: float = 1.0
    y1: float = 1.0

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("rectangle must have positive side lengths")

    @property
    def measure(self):
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def centre(self):
        return 0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1)


def _gauss01(m):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


# Fully symmetric 16-point rule exact to degree 8 (Dunavant, IJNME 21, 1985):
# barycentric orbits (l0, l1, l2), each taken under all their distinct
# permutations, with one weight per point.  The weights sum to 1.
_SYMMETRIC_8 = (
    ((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), 0.144315607677787),
    ((1.0 - 2 * 0.459292588292723, 0.459292588292723, 0.459292588292723), 0.095091634267285),
    ((1.0 - 2 * 0.170569307751760, 0.170569307751760, 0.170569307751760), 0.103217370534718),
    ((1.0 - 2 * 0.050547228317031, 0.050547228317031, 0.050547228317031), 0.032458497623198),
    ((0.008394777409958, 0.263112829634638, 0.728492392955404), 0.027230314174435),
)


def _gauss_points(degree):
    """The one-dimensional points m of the collapsed Gauss rule exact to degree: 2m - 2 >= degree."""
    return int(-(-(degree + 2) // 2))


def _triangle_rule(degree):
    """Quadrature points (Q, 2) and weights (Q,) on the unit triangle, exact to `degree`.

    Degrees 7 and 8 get the 16-point symmetric rule ``_SYMMETRIC_8``, whose
    points all lie inside the triangle and whose weights are all positive.
    Every other degree gets the collapsed Gauss product rule: with m
    one-dimensional points it integrates total degree 2m-2 exactly (the
    Duffy factor raises the u-degree by one), m^2 points in all.
    """
    if degree in (7, 8):
        orbits = [(list(dict.fromkeys(itertools.permutations(lam))), w) for lam, w in _SYMMETRIC_8]
        bary = np.array([pt for pts, _ in orbits for pt in pts])
        weights = np.concatenate([np.full(len(pts), 0.5 * w) for pts, w in orbits])  # area 1/2
        return bary[:, 1:], weights
    m = _gauss_points(degree)
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
            self.coeffs = self.coeffs - mean


# upper bounds of a mesh: grid squares, and quadrature points over its 2 nx ny triangles
_MAX_SQUARES, _MAX_QUAD_POINTS = 2**26, 2**31


def _check_mesh(nx, ny, quad_degree):
    """The range rule of a space's mesh and quadrature, which ``DiscreteSpace`` runs first.

    The upper bounds make a mesh or rule that no memory holds a config
    error rather than a failed run.  The space alone holds about 1 kB per
    grid square and 30 bytes per quadrature point (``build_space`` on
    32x32 to 64x64), so 2**26 squares or 2**31 points take 60 GB before
    any solve.  With nx, ny >= 2 they also bound nx and ny below 2**25.  A
    triangle rule has at most m**2 points (see ``_triangle_rule``).
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"need nx, ny >= 2, got {nx}, {ny}")
    if quad_degree < 2:
        raise ValueError(f"need quad_degree >= 2, got {quad_degree}")
    if nx * ny > _MAX_SQUARES:
        raise ValueError(f"need nx * ny <= 2**26 grid squares, got {nx} x {ny}")
    if 2 * nx * ny * _gauss_points(quad_degree) ** 2 > _MAX_QUAD_POINTS:
        raise ValueError(f"need at most 2**31 quadrature points, got quad_degree {quad_degree} on {nx} x {ny}")


class DiscreteSpace:
    """Triangulated rectangle with P2 velocity / P1 pressure approximation.

    Vertex (x_i, y_j) is number j (nx + 1) + i.  Grid square (i, j) holds
    the even cell 2 (j nx + i) = (v00, v10, v11) and the odd cell after it,
    (v00, v11, v01).  The edges are numbered in order of first appearance
    over the cells' local edges (a, b), (b, d), (d, a); ``edge_verts`` holds
    each edge's sorted vertex pair, and P2 dof n_verts + e sits at the
    midpoint of edge e.  The boundary is S = 2 (nx + ny) segments, side by
    side bottom, top, left, right and each side in increasing x or y:
    ``boundary_seg_dofs`` (S, 3) holds their end, mid and end P2 dofs,
    ``boundary_normals`` (S, 2) their outward unit normals and
    ``boundary_lengths`` (S,) their lengths.  ``quad_degree >= 2``, the
    degree of the P2 stiffness integrand.  The space checks no stability:
    Taylor-Hood is inf-sup stable (Boffi-Brezzi-Fortin 2013, ch. 8), and the
    tests compute its discrete LBB constant.
    """

    def __init__(self, domain, nx, ny, quad_degree=8):
        _check_mesh(nx, ny, quad_degree)
        self.domain = domain
        self.nx, self.ny = int(nx), int(ny)
        self.quad_degree = int(quad_degree)
        self._build_mesh()
        self._build_quadrature()
        self._cache = {}

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

        grid = np.arange(self.n_verts).reshape(ny + 1, nx + 1)  # grid[j, i] is vertex (x_i, y_j)
        v00, v10 = grid[:-1, :-1].ravel(), grid[:-1, 1:].ravel()
        v11, v01 = grid[1:, 1:].ravel(), grid[1:, :-1].ravel()
        # squares row by row; square k holds the even cell 2k and the odd cell 2k + 1
        self.cells = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
        self.n_cells = self.cells.shape[0]

        # Local edges (a, b), (b, d), (d, a) of each cell (a, b, d) as sorted
        # vertex pairs; the edges are numbered in order of first appearance.
        pairs = np.sort(self.cells[:, [[0, 1], [1, 2], [2, 0]]], axis=-1).reshape(-1, 2)
        keys, first, inverse = np.unique(pairs[:, 0] * self.n_verts + pairs[:, 1], return_index=True, return_inverse=True)
        number = np.empty(keys.size, dtype=np.int64)  # edge number of each sorted key
        number[np.argsort(first)] = np.arange(keys.size)
        cell_edges = number[inverse].reshape(self.n_cells, 3)
        self.n_edges = keys.size
        self.edge_verts = pairs[np.sort(first)]

        self.n_p2 = self.n_verts + self.n_edges
        self.n_p1 = self.n_verts
        self.n_vel = 2 * self.n_p2
        self.cell_p2 = np.hstack([self.cells, self.n_verts + cell_edges])
        self.cell_vel = np.hstack([self.cell_p2, self.cell_p2 + self.n_p2])  # local velocity dofs
        self.cell_p1 = self.cells
        mids = 0.5 * (self.verts[self.edge_verts[:, 0]] + self.verts[self.edge_verts[:, 1]])
        self.p2_coords = np.vstack([self.verts, mids])

        # Boundary segments side by side: bottom (row 0), top (row ny), left
        # (column 0), right (column nx), each in increasing x or y.
        start = np.concatenate([grid[[0, -1], :-1].ravel(), grid[:-1, [0, -1]].T.ravel()])
        end = np.concatenate([grid[[0, -1], 1:].ravel(), grid[1:, [0, -1]].T.ravel()])
        mid = self.n_verts + number[np.searchsorted(keys, start * self.n_verts + end)]
        self.boundary_seg_dofs = np.column_stack([start, mid, end])
        counts = [nx, nx, ny, ny]
        self.boundary_normals = np.repeat([[0.0, -1.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]], counts, axis=0)
        self.boundary_lengths = np.repeat([self.hx, self.hx, self.hy, self.hy], counts)
        bmask = np.zeros(self.n_p2, dtype=bool)
        bmask[self.boundary_seg_dofs] = True
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
        # value_table[r] is phi_r at every point, as (Q, 2); mandel_skew_table[k, r]
        # is grad phi_r on shape k, as (Q, 4): the Mandel components (D_00, D_11,
        # sqrt(2) D_01) of D phi_r, then the skew one (d phi_0/dx_1 - d phi_1/dx_0) / sqrt(2),
        # an orthonormal change of the four entries, so |grad u|^2 = |Du|^2 + skew^2.
        # sym_table[k, r] is a contiguous copy of the first three components.
        eye = np.eye(2)
        self.value_table = np.einsum("qm,ci->cmqi", self.p2_vals, eye).reshape(12, 2 * nq)
        g = np.einsum("kqmj,ci->kcmqij", p2_grads, eye)  # [..., i, j] = d phi_i / dx_j
        comps = [g[..., 0, 0], g[..., 1, 1], (g[..., 0, 1] + g[..., 1, 0]) / np.sqrt(2.0)]
        comps.append((g[..., 0, 1] - g[..., 1, 0]) / np.sqrt(2.0))
        self.mandel_skew_table = np.stack(comps, axis=-1).reshape(2, 12, 4 * nq)
        self.sym_table = np.stack(comps[:3], axis=-1).reshape(2, 12, 3 * nq)

    # -- field construction ----------------------------------------------------

    def velocity_field(self, coeffs):
        return Field(self, "velocity", coeffs)

    def pressure_field(self, coeffs):
        return Field(self, "pressure", coeffs)

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
        """(C, Q, 4) grad u at quadrature points: the Mandel components of Du, then the skew component."""
        return self.shape_gemm(coeffs[self.cell_vel], self.mandel_skew_table).reshape(self.n_cells, self.nq, 4)

    def sym_gradients(self, coeffs):
        """(C, Q, 3) Mandel components (D_00, D_11, sqrt(2) D_01) of Du at quadrature points."""
        return self.shape_gemm(coeffs[self.cell_vel], self.sym_table).reshape(self.n_cells, self.nq, 3)

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
        """(integral of the sum of modulus**r over the moduli)**(1/r), each a (C, Q) array >= 0."""
        m, total = self._power_sum(r, *moduli)
        return m * total ** (1.0 / r)

    def _power_sum(self, r, *moduli):
        """(m, integral of the sum of (modulus / m)**r), the scaled power sum behind ``lr_norm``.

        m is the largest modulus when the powers could leave the float range
        (r |log10 m| > 100), so a large r neither underflows nor overflows; else 1.
        The powers go through ``_pos_pow``: a zero modulus (no strain, say)
        adds an exact 0 and is never raised to the power, and the totals are
        the same (C, Q) arrays summed in the same order, so the sum is the
        plain one bit for bit.
        """
        m = max(float(a.max()) for a in moduli)
        if m > 0.0 and r * abs(np.log10(m)) > 100.0:
            moduli = [a / m for a in moduli]
        else:
            m = 1.0
        total = _pos_pow(moduli[0], r)
        for a in moduli[1:]:
            total = total + _pos_pow(a, r)
        return m, self.integrate(total)

    def pressure_mean_vector(self):
        if "mean_vec" not in self._cache:
            self._cache["mean_vec"] = assembly.p1_load(self, np.ones_like(self.qw))
        return self._cache["mean_vec"]

    def p1_mass_solve(self, rhs):
        if "p1_mass_lu" not in self._cache:
            self._cache["p1_mass_lu"] = spla.splu(assembly.p1_mass(self).tocsc())
        return self._cache["p1_mass_lu"].solve(rhs)

    # -- boundary -----------------------------------------------------------------

    def boundary_trace(self, coeffs):
        """Trace quadrature of a velocity coefficient vector on the S boundary segments.

        Returns the points (S, T, 2), the weights (S, T) and the trace values
        (S, T, 2) of ``coeffs``: a T = 4 point Gauss rule on each segment,
        exact for products of two quadratic traces.  Only the boundary dofs
        of ``coeffs`` are read.
        """
        t, w = _gauss01(4)
        basis = np.column_stack([(1 - t) * (1 - 2 * t), 4 * t * (1 - t), t * (2 * t - 1)])
        dofs = self.boundary_seg_dofs
        a, b = self.p2_coords[dofs[:, 0]], self.p2_coords[dofs[:, 2]]
        pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
        vals = np.stack([coeffs[dofs] @ basis.T, coeffs[dofs + self.n_p2] @ basis.T], axis=-1)
        return pts, np.outer(self.boundary_lengths, w), vals

    def boundary_flux(self, boundary_values):
        """Outward flux of a velocity boundary trace given by P2 boundary dofs."""
        _, w, vals = self.boundary_trace(boundary_values)
        return float(np.einsum("st,stc,sc->", w, vals, self.boundary_normals))

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
        }


def _as_vec2(fun, x, y):
    """The two components at (x, y) of a vector field given as a pair of scalar callables of (x, y)."""
    if not (isinstance(fun, (tuple, list)) and len(fun) == 2 and all(map(callable, fun))):
        raise ValueError(f"a vector field must be a pair of scalar callables of (x, y), got {type(fun).__name__}")
    return np.asarray(fun[0](x, y), dtype=float) + 0 * x, np.asarray(fun[1](x, y), dtype=float) + 0 * x


def build_space(domain, nx, ny, quad_degree=8):
    """Build a Taylor-Hood space: its mesh and its quadrature, with no eigensolve."""
    return DiscreteSpace(domain, nx, ny, quad_degree=quad_degree)


def prolong_velocity(coarse, fine, field):
    """Exact transfer of a velocity field onto a nested refinement."""
    return fine.velocity_field(coarse.eval_velocity(field.coeffs, fine.p2_coords).T.ravel())


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
    return s.lr_norm(p, mandel_norm(s.velocity_gradients(field.coeffs)))


def mandel_norm(d):
    """Pointwise Frobenius norm of Mandel components d (..., 3), |D|, or of gradient components (..., 4), |grad u|."""
    sq = d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2
    return np.sqrt(sq if d.shape[-1] == 3 else sq + d[..., 3] ** 2)


def sym_grad_norms(field, exponents):
    """Symmetric-gradient norms ||Dv||_r (Frobenius modulus pointwise), one per r in exponents.

    The symmetric gradient is evaluated once for all exponents.
    """
    s = field.space
    mag = mandel_norm(s.sym_gradients(field.coeffs))
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
    return combine_level_norm(*sym_grad_norms(field, (p, q)), q, n)


def norm_W1p(field, p):
    s = field.space
    vals = np.linalg.norm(s.velocity_values(field.coeffs), axis=-1)
    return s.lr_norm(p, vals, mandel_norm(s.velocity_gradients(field.coeffs)))


def divergence_values(space, coeffs):
    d = space.sym_gradients(coeffs)
    return d[..., 0] + d[..., 1]


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
    degenerate: bool = False  # won by a start that is a critical point of the ratio


ASCENT_ITERS = 40  # iteration budget of every embedding ascent, and the config's embedding.iters


def _check_iters(iters):
    """The range rule of an iteration budget, which every estimator runs first."""
    _check_integer("iters", iters, 1)


def _ratio_ascent(x, first, objective, iters):
    """Maximize a 0-homogeneous log-ratio by limited-memory BFGS from the unit vector x.

    ``objective(x)`` returns the log-ratio at x and a closure for its gradient
    there; ``first`` is that pair at the start, which the caller has already
    evaluated.  The backtracking Armijo search needs values only on the
    trials it rejects, so the gradient is built once per accepted point.  The
    two-loop recursion keeps 8 curvature pairs; a pair with s.y <= 0 is not
    stored.  Returns the unit maximizer, its value, the stopping reason
    (``cap``, ``line_search`` or ``flat``: a zero gradient), the iterations
    and the objective evaluations made here (``first`` not included).
    """
    val, grad = first
    g, evals = grad(), 0
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


def _ascend(objective, starts, witness, iters):
    """ConstantEstimate of the best of the (name, vector, critical) starts, raised by one ascent.

    Each start's unit vector is scored by one objective call.  A winner
    declared critical is a critical point of the ratio: its value stands
    with no ascent, and the estimate is degenerate and not converged (a
    critical point need not be a maximum).  Any other winner runs one
    ``_ratio_ascent``, converged when it stops before its cap; ``witness``
    maps the final unit vector to its field.
    """
    units = [x / np.linalg.norm(x) for _, x, _ in starts]
    scored = [objective(x) for x in units]  # the winner's pair is the ascent's first evaluation
    best = int(np.argmax([val for val, _ in scored]))
    name, _, critical = starts[best]
    x, val, stop, used, evals = units[best], scored[best][0], None, 0, 0
    if not critical:
        x, val, stop, used, evals = _ratio_ascent(x, scored[best], objective, iters)
    converged = not critical and stop != "cap"  # a critical start is no maximum
    return ConstantEstimate(float(np.exp(val)), witness(x), converged, used, name, len(starts) + evals, stop, critical)


def _pos_pow(a, r, floor=0.0):
    """a**r where a > floor and +0.0 where a <= floor, raising only the kept lanes to the power.

    numpy's ``**`` takes a slow special-value path on a zero lane (on
    18 432 lanes at r = 1.8, 213 us for zeros against 56-78 us for
    positive values), and the moduli here vanish cell by cell (58 % of the
    quadrature points of the 3-level counterexample family from mesh 6
    carry no strain), so the power runs with ``where=`` on the kept lanes
    of a zeroed output; with no lane at or below the floor it is a ** r
    after one min.  A kept lane gets the same bits as in a ** r, and at
    floor 0 with r > 0 so does a zero lane.  A NaN lane is kept, so it
    stays NaN as in a ** r.  A positive floor with a negative r gives a
    weight that vanishes with its modulus, with no division by zero taken.
    """
    if a.min(initial=np.inf) > floor:
        return a**r
    return np.power(a, r, out=np.zeros_like(a), where=~(a <= floor))


def _over(num, den):
    """num / den where den > 0, and 0 where den = 0; a plain division when no den is 0 (``_pos_pow``'s check)."""
    if den.min(initial=np.inf) > 0.0:
        return num / den
    return np.divide(num, den, out=np.zeros_like(den), where=den > 0.0)


def _masked(vec, idx, n):
    out = np.zeros(n)
    out[idx] = vec
    return out


def _bump_velocity(space, center, width):
    """Divergence-free bump: curl of a C2 compactly supported stream function."""
    cx, cy = center

    def r2(x, y):
        return ((x - cx) ** 2 + (y - cy) ** 2) / width**2

    def psi_y(x, y):
        z = np.maximum(1.0 - r2(x, y), 0.0)
        return -6.0 * z**2 * (y - cy) / width**2 * np.cos(r2(x, y))

    def psi_x(x, y):
        z = np.maximum(1.0 - r2(x, y), 0.0)
        return -6.0 * z**2 * (x - cx) / width**2 * np.cos(r2(x, y))

    return space.interpolate_velocity((psi_y, lambda x, y: -psi_x(x, y)))


def _korn_objective(space, p):
    """log(||grad u||_p / ||Du||_p) of the zero-boundary field with free dofs xf, with its gradient closure.

    One gradient evaluation gives the Mandel components of Du and the skew
    component w of grad u, so |grad u|^2 = |Du|^2 + w^2.  The gradient is
    <|grad u|^(p-2) grad u, grad phi> / nf - <|Du|^(p-2) Du, D phi> / ns,
    one gradient load of ((wf - ws) Du, wf w), with
    wf = |grad u|^(p-2) / nf and ws = |Du|^(p-2) / ns taken as the
    evaluation's |.|^p over |.|^2.
    """
    free = space.free_vel_dofs

    def objective(xf):
        c = _masked(xf, free, space.n_vel)
        m = space.velocity_gradients(c)
        s2 = m[..., 0] ** 2 + m[..., 1] ** 2 + m[..., 2] ** 2
        f2 = s2 + m[..., 3] ** 2
        pf, ps = _pos_pow(f2, 0.5 * p), _pos_pow(s2, 0.5 * p)
        nf, ns = space.integrate(pf), space.integrate(ps)

        def grad():
            wf = _over(pf, f2) / nf
            wd = wf - _over(ps, s2) / ns
            return assembly.stress_load(space, m * np.stack([wd, wd, wd, wf], axis=-1))[free]

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
    _check_iters(iters)
    if not (1.0 < p <= 2.0):
        raise ValueError(f"need p in (1, 2], got {p}")
    dom = space.domain
    swirl = _bump_velocity(space, dom.centre, 0.32 * min(dom.x1 - dom.x0, dom.y1 - dom.y0))
    if p == 2.0:
        return ConstantEstimate(np.sqrt(2.0), swirl, True, 0, "exact")
    free = space.free_vel_dofs
    starts = [("divfree", swirl.coeffs[free], False)]
    return _ascend(_korn_objective(space, p), starts, lambda xf: space.velocity_field(_masked(xf, free, space.n_vel)), iters)


def _sobolev_objective(space, s, r):
    """log ||u||_r - log ||u||_{1,s} from one value and one gradient evaluation, with its gradient closure."""

    def objective(x):
        v, g = space.velocity_values(x), space.velocity_gradients(x)
        vals, gn = np.linalg.norm(v, axis=-1), mandel_norm(g)
        (mv, nr), (md, nd) = space._power_sum(r, vals), space._power_sum(s, vals, gn)

        def grad():
            wv = _pos_pow(vals / mv, r - 2.0, 1e-300) / (nr * mv**2) - _pos_pow(vals / md, s - 2.0, 1e-300) / (nd * md**2)
            wg = _pos_pow(gn / md, s - 2.0, 1e-300) / (nd * md**2)
            return assembly.velocity_load(space, wv[..., None] * v) - assembly.stress_load(space, wg[..., None] * g)

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
    _check_iters(iters)
    pstar = critical_exponent(from_p, 2)
    if to_r > pstar * (1 + 1e-12):
        raise ExponentRangeError(f"target exponent {to_r} exceeds the critical exponent {pstar}")
    if to_r < 1 or from_p < 1:
        raise ValueError("exponents must be >= 1")
    const = np.concatenate([np.ones(space.n_p2), np.zeros(space.n_p2)])
    cx, cy = space.domain.centre
    w = 0.15 * min(space.domain.x1 - space.domain.x0, space.domain.y1 - space.domain.y0)
    bump = space.interpolate_velocity(
        (lambda x, y: np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / w**2), lambda x, y: 0.0 * x)
    ).coeffs
    cands = [("constant", const, True), ("bump", bump, False)] + [("given", f.coeffs, False) for f in starts or ()]
    return _ascend(_sobolev_objective(space, from_p, to_r), cands, space.velocity_field, iters)


def estimate_dual_norm(space, load, p, iters=15):
    """Discrete dual norm sup <F, phi>/||D phi||_p over zero-boundary fields.

    Fixed-point iteration on the weighted symmetric stiffness; each iterate
    is itself a valid lower bound and the best one is returned.  Converged
    means p = 2 (one solve is exact), a vanishing load, or last two iterates
    whose values agree to 1e-10 relative; the iteration stops there, and
    the estimate's ``iters`` counts the iterations run.
    """
    _check_iters(iters)
    free = space.free_vel_dofs
    lf = load[free]
    if np.linalg.norm(lf) == 0.0:
        return ConstantEstimate(0.0, space.zero_velocity(), True, 0)
    best = 0.0
    xbest = None
    vals = []
    weight = np.ones_like(space.qw)
    converged = p == 2.0  # one solve is exact
    for it in range(iters):
        c, _ = assembly.solve_saddle(space, assembly.sym_grad_stiffness(space, weight), load)
        dn_pt = mandel_norm(space.sym_gradients(c))
        dn = space.lr_norm(p, dn_pt)
        if dn == 0.0:
            break
        vals.append(float(lf @ c[free]) / dn)
        if vals[-1] > best:
            best, xbest = vals[-1], c
        converged = converged or (len(vals) >= 2 and abs(vals[-1] - vals[-2]) <= 1e-10 * abs(vals[-1]))
        if converged:
            break
        floor = 1e-10 * max(dn_pt.max(), 1e-300)
        weight = np.maximum(dn_pt, floor) ** (p - 2.0)
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
        return {**{k: v for k, v in vars(self).items() if k != "witnesses"}, "non_rigorous": True}


def estimate_embedding_constants(space, p, s, iters=ASCENT_ITERS):
    """Estimate the trio (korn_p, W^{1,p} -> L^{p*}, W^{1,s} -> L^{2p'})."""
    _check_iters(iters)
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
        **{k: e.value for k, e in est.items()},
        targets={"pstar": pstar, "pstar_used": target1, "two_pprime": two_pprime},
        witnesses={k: e.witness for k, e in est.items()},
        converged={k: e.converged for k, e in est.items()},
        ascent={
            k: {"start": e.start, "iters": e.iters, "evaluations": e.evaluations, "stop": e.stop, "degenerate": e.degenerate}
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
