"""Sparse assembly for the mixed Taylor-Hood pairing.

Every routine takes a built space and optional quadrature-point data and
returns scipy sparse matrices / dense load vectors.  Velocity dofs use the
block layout [all x-dofs, all y-dofs].  The mesh has two triangle shapes,
so local matrices are GEMMs of per-cell quadrature weights against the
shape's integrand table, and loads are GEMMs of the point values against
the shape's basis table.  The CSR pattern of each matrix and the map from
local entries to its data are cached on the space, so re-assembly with new
coefficient weights (the Picard loop) only recomputes values.  The
Dirichlet and saddle-point solves gather their free-dof block the same
way and can reuse the sparse LU of an earlier, similar system.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import symmetrize

__all__ = [
    "sym_grad_stiffness",
    "full_grad_stiffness",
    "div_coupling",
    "transport_matrix",
    "p1_mass",
    "velocity_load",
    "stress_load",
    "p1_load",
    "FactorHolder",
    "dirichlet_solve",
    "solve_saddle",
    "infsup_proxy",
]


def _assemble(space, loc, rows, cols):
    """CSR matrix of local entries loc (C, R*S), in cell order, on cell_<rows> x cell_<cols>.

    The pattern and the map from local entries to CSR data are built once per space.
    """
    key = ("pattern", rows, cols)
    if key not in space._cache:
        r_dofs, c_dofs = getattr(space, "cell_" + rows), getattr(space, "cell_" + cols)
        shape = (getattr(space, "n_" + rows), getattr(space, "n_" + cols))
        r_idx = np.repeat(r_dofs, c_dofs.shape[1], axis=1).ravel()
        c_idx = np.tile(c_dofs, (1, r_dofs.shape[1])).ravel()
        pat = sp.csr_matrix((np.ones(r_idx.size), (r_idx, c_idx)), shape=shape)
        pat.sum_duplicates()  # sorted column indices, so the keys below increase
        keys = np.repeat(np.arange(shape[0]) * shape[1], np.diff(pat.indptr)) + pat.indices
        space._cache[key] = (pat.indptr, pat.indices, np.searchsorted(keys, r_idx * shape[1] + c_idx), shape)
    indptr, indices, perm, shape = space._cache[key]
    data = np.bincount(perm, weights=loc.ravel(), minlength=indices.size)
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=shape)


def _table(space, name):
    """Per-shape integrand table (2, K, R*S) of one form, built once per space.

    Rows are the points for sym/full/div and (point, b_0 | b_1 | g1) for transport.
    """
    key = ("table", name)
    if key not in space._cache:
        nq = space.nq
        g = space.grad_table.reshape(2, 12, nq, 2, 2)
        d = symmetrize(g)
        v = space.value_table.reshape(12, nq, 2)
        if name == "transport":
            # -(phi_s x b) : D phi_r = -sum_j b_j phi_s . (D phi_r)_{:, j};  -g1 phi_s . phi_r
            conv = -np.einsum("sqi,krqij->kqjrs", v, d)
            mass = np.broadcast_to(-np.einsum("sqi,rqi->qrs", v, v)[:, None], (2, nq, 1, 12, 12))
            table = np.concatenate([conv, mass], axis=2).reshape(2, 3 * nq, 144)
        elif name == "div":
            table = np.einsum("qa,ksqii->kqas", space.p1_vals, g).reshape(2, nq, 36)
        else:
            a = {"sym": d, "full": g}[name]
            table = np.einsum("krqij,ksqij->kqrs", a, a).reshape(2, nq, 144)
        space._cache[key] = table
    return space._cache[key]


def _weighted(space, weight):
    return space.qw if weight is None else space.qw * weight


def sym_grad_stiffness(space, weight=None):
    """int w Du : Dphi over velocity dofs."""
    return _assemble(space, space.shape_gemm(_weighted(space, weight), _table(space, "sym")), "vel", "vel")


def full_grad_stiffness(space, weight=None):
    """int w grad u : grad phi (component-wise Laplacian)."""
    return _assemble(space, space.shape_gemm(_weighted(space, weight), _table(space, "full")), "vel", "vel")


def div_coupling(space):
    """D[q, u] = int q div(u) coupling pressure tests with velocity trials."""
    cache = space._cache
    if "div_mat" not in cache:
        cache["div_mat"] = _assemble(space, space.shape_gemm(space.qw, _table(space, "div")), "p1", "vel")
    return cache["div_mat"]


def transport_matrix(space, b_vals, g1_vals):
    """Linearized convective operator against a frozen transport field b.

    Entry[(i,e),(m,c)] = -int (phi_mc x b) : D phi_ie  -  int g1 phi_mc . phi_ie,
    which is the frozen-coefficient form of
    -<(u+g) x b, D phi> - <g1 (u+g), phi> restricted to the unknown u.
    """
    w = np.empty((space.n_cells, space.nq, 3))
    w[..., :2] = space.qw[..., None] * b_vals
    w[..., 2] = space.qw * g1_vals
    loc = space.shape_gemm(w.reshape(space.n_cells, -1), _table(space, "transport"))
    return _assemble(space, loc, "vel", "vel")


def p1_mass(space):
    table = (space.p1_vals[:, :, None] * space.p1_vals[:, None, :]).reshape(space.nq, 9)
    return _assemble(space, space.qw @ table, "p1", "p1")


def velocity_load(space, f_vals):
    """<f, phi> for pointwise values f_vals of shape (C, Q, 2)."""
    table = space.value_table * np.repeat(space.cell_qw, 2)
    loc = f_vals.reshape(space.n_cells, -1) @ table.T
    return np.bincount(space.cell_vel.ravel(), weights=loc.ravel(), minlength=space.n_vel)


def stress_load(space, s_vals):
    """<S, grad phi> for a matrix field S of shape (C, Q, 2, 2); <S, D phi> if S is symmetric."""
    table = space.grad_table * np.repeat(space.cell_qw, 4)
    loc = space.shape_gemm(s_vals.reshape(space.n_cells, -1), table.transpose(0, 2, 1))
    return np.bincount(space.cell_vel.ravel(), weights=loc.ravel(), minlength=space.n_vel)


def p1_load(space, vals):
    loc = vals @ (space.p1_vals * space.cell_qw[:, None])
    return np.bincount(space.cell_p1.ravel(), weights=loc.ravel(), minlength=space.n_p1)


# A held factor is refined until |rhs - K x| <= REFINE_RTOL |rhs|; a sweep
# that leaves more than REFINE_GAIN of the residual marks it too stale.
REFINE_RTOL = 1e-12
REFINE_GAIN = 0.5


class FactorHolder:
    """The last LU factor of a free-dof system and its last solution, kept for later solves.

    ``factorizations`` counts the fresh factors made through the holder and
    ``refinements`` the refinement sweeps made with a held factor.
    """

    def __init__(self):
        self.lu = None
        self.x = None
        self.factorizations = 0
        self.refinements = 0


def _free_block(space, a_mat, c_mat=None):
    """Free-dof block of A, bordered by the free columns of C when given, in CSC.

    The block's pattern and the gather from the data of A (and C) are built
    once per space and kept while the inputs' patterns stay the same.
    """
    mats = [a_mat.tocsr()] if c_mat is None else [a_mat.tocsr(), c_mat.tocsr()]
    key = ("free_block", len(mats))
    hit = space._cache.get(key)
    if hit is None or not all(
        np.array_equal(m.indptr, ptr) and np.array_equal(m.indices, idx) for m, (ptr, idx) in zip(mats, hit[0])
    ):
        # tag every entry with its 1-based position in the concatenated data
        offsets = np.cumsum([0] + [m.nnz for m in mats])
        tagged = [
            sp.csr_matrix((np.arange(o + 1, o + m.nnz + 1, dtype=float), m.indices, m.indptr), shape=m.shape)
            for m, o in zip(mats, offsets)
        ]
        free = space.free_vel_dofs
        blk = tagged[0][free][:, free]
        if c_mat is not None:
            c_f = tagged[1][:, free]
            blk = sp.bmat([[blk, c_f.T], [c_f, None]])
        blk = blk.tocsc()
        patterns = [(m.indptr.copy(), m.indices.copy()) for m in mats]
        hit = space._cache[key] = (patterns, blk.indptr, blk.indices, blk.data.astype(np.intp) - 1)
    _, indptr, indices, gather = hit
    data = np.concatenate([m.data for m in mats])[gather]
    return sp.csc_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)


def _factor_solve(k, rhs, held):
    """Solve K x = rhs with the held factor refined, or with a fresh factor of K.

    A held factor is refined from the held solution, ``x += lu.solve(rhs - K x)``,
    until the residual reaches REFINE_RTOL |rhs|.  When a sweep fails to
    shrink it by REFINE_GAIN, K is factored afresh and the new factor
    replaces the held one; the fresh solve is ``splu(K).solve(rhs)``.  A
    singular K raises RuntimeError.
    """
    if held.lu is not None:
        x = held.x.copy()
        r = rhs - k @ x
        res = np.linalg.norm(r)
        target = REFINE_RTOL * np.linalg.norm(rhs)
        while res > target:
            x += held.lu.solve(r)
            held.refinements += 1
            r = rhs - k @ x
            res, prev = np.linalg.norm(r), res
            if res > REFINE_GAIN * prev:
                break
        if res <= target:
            held.x = x
            return x
        held.lu = None  # drop the stale factor before the new one is built
    held.lu = spla.splu(k)
    held.factorizations += 1
    held.x = held.lu.solve(rhs)
    return held.x


def dirichlet_solve(space, a_mat, rhs_vel, fixed_vals=None, c_mat=None, c_rhs=None, factor=None):
    """Solve A u = rhs_vel on the free velocity dofs with u = fixed_vals on the boundary.

    With a constraint block C (rows against all velocity dofs) the system is
    bordered: A u + C^T lam = rhs_vel, C u = c_rhs.  The boundary values are
    eliminated from both right-hand sides.  ``factor`` is a FactorHolder
    whose LU, from an earlier and similar system, is refined to
    ``REFINE_RTOL`` and replaced by a fresh one when too stale; without it
    the system is factored and solved directly.  A singular system raises
    RuntimeError.  Returns ``(u, lam)``: the full-length velocity and the
    multiplier (empty without C).
    """
    free = space.free_vel_dofs
    u = np.zeros(space.n_vel)
    if fixed_vals is not None:
        fixed = space.boundary_vel_dofs
        u[fixed] = fixed_vals[fixed]
    rhs = (rhs_vel - a_mat @ u)[free]
    if c_mat is not None:
        rhs = np.concatenate([rhs, c_rhs - c_mat @ u])
    held = FactorHolder() if factor is None else factor
    sol = _factor_solve(_free_block(space, a_mat, c_mat), rhs, held)
    u[free] = sol[: free.size]
    return u, sol[free.size:]


def solve_saddle(space, a_mat, rhs_vel, div_rhs, fixed_vals=None, factor=None):
    """Solve the constrained system A u + C^T lam = rhs, C u = div_rhs.

    Dirichlet velocity values are supplied on the boundary dofs through
    ``fixed_vals`` (full-length array; only boundary entries are read).
    The multiplier is fixed up to the constant pressure mode, which is
    pinned by dropping pressure dof 0: its constraint row and multiplier
    column leave the system and ``lam[0] = 0``.  Since C^T of a constant
    vanishes on the free velocity dofs, the velocity is unaffected and
    ``space.pressure_field(lam)`` gives the mean-zero multiplier.  The
    dropped row absorbs the compatibility defect of ``div_rhs``.
    ``factor`` is passed to ``dirichlet_solve``: a FactorHolder reused
    across the steps of an iteration, or None for a direct solve.  A
    singular system raises RuntimeError.  Returns ``(u, lam)``.
    """
    c_mat = div_coupling(space)[1:]
    u, lam_pinned = dirichlet_solve(space, a_mat, rhs_vel, fixed_vals, c_mat, div_rhs[1:], factor=factor)
    lam = np.zeros(space.n_p1)
    lam[1:] = lam_pinned
    return u, lam


def infsup_proxy(space):
    """Second-smallest singular value of the scaled divergence coupling.

    The coupling is scaled by the lumped pressure mass and the diagonal of
    the zero-boundary vector Laplacian; the smallest singular value is the
    constant-pressure null mode, so the next one is the stability proxy.
    """
    free = space.free_vel_dofs
    b = div_coupling(space)[:, free]
    kdiag = full_grad_stiffness(space).diagonal()[free]
    mlump = np.asarray(p1_mass(space).sum(axis=1)).ravel()
    bs = sp.diags(1.0 / np.sqrt(mlump)) @ b @ sp.diags(1.0 / np.sqrt(kdiag))
    s = (bs @ bs.T).tocsc()
    npress = s.shape[0]
    if npress <= 1500:
        vals = np.linalg.eigvalsh(s.toarray())
        second = vals[1]
    else:
        vals = spla.eigsh(
            s, k=2, sigma=-1e-10, which="LM", v0=np.ones(npress), return_eigenvectors=False
        )
        second = np.sort(vals)[1]
    return float(np.sqrt(max(second, 0.0)))
