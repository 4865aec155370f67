"""Dense conic optimizer for problems with nonnegative and lower-bounded
scalars plus any number of PSD matrix blocks.

Problem form
------------
Variables are ordered ``[nonneg | boxed | X_1 | X_2 | ...]``, scalars x_s
first, and the data is

    minimize / maximize   c @ x  (+ offset)
    subject to            A[r] @ x_s + sum_k <P_rk, X_k> = b[r]   for every row r
                          x_nonneg >= 0,   x_box >= lo  (lo = ``box_lo``),
                          X_k positive semidefinite for every block k

The cone is the orthant times the PSD blocks; an upper bound is the caller's
to pose, as a nonnegative slack and an equality row. ``A`` holds the scalar
columns, one row per equality even without scalars. ``psd_rows[k] =
(rows, g, V)`` gives block k's constraint matrices as rank-one terms: term t
adds g[t] V[:, t] V[:, t]' to P_{rows[t], k}; a node row of a sampled SOS
program (``ldpcopt.sos``) is one term per block, a general row several (its
eigenpairs, say). In ``c`` and in a solution a block of dimension d is its
scaled upper triangle (``svec``, off-diagonals times sqrt(2)), so that the
matrix inner product is the dot product. A block costs O(d^3) per
iteration: splitting one in halves (by a symmetry, left to the caller)
costs a quarter.

No row is ever formed densely: every use of the rows is one of three
products on the terms under a congruence R, with U = R' V: the values
g_t u_t' W u_t, the matrix U diag(g y[rows]) U' and the Gram matrix
(g g') o (U'U) o (U'U), each summed per row or pair of rows (PSD as a Schur
product; DSDP forms its Schur matrix so, Benson, Ye & Zhang 2000). R = I
gives A x and A' y, R the Nesterov-Todd factor the normal matrix, R a factor
of X the first polish. The blocks are stacked, padded to the largest, so
these products and the cone kernels are a few batched numpy calls whatever
the number of blocks: one Cholesky call factors the X and Z of every block
and one SVD call gives their Nesterov-Todd scalings, and one eigenvalue call
serves each step search.

Algorithm
---------
A primal-dual path-following method on the homogeneous self-dual embedding:
Nesterov-Todd scaling, Mehrotra predictor-corrector steps, dense
factorizations throughout. Every variable lies in a cone, so each search
direction comes from the normal equations (A W'W A') dy = r, solved with one
step of iterative refinement. Their matrix is the one Gram matrix factorized
per iteration (as in SDPT3, Toh, Todd & Tutuncu 1999, and DSDP); its
Cholesky factor is inverted once, when it is formed, so every solve with it
is a matrix product. Boxed variables are shifted by their lower bounds into
the nonnegative cone; infeasibility and unboundedness are certified from the
embedding (tau -> 0) rather than via a phase-1, and so is the outcome of a
problem with no strictly feasible point (a face pinned by its equalities).
Identical inputs produce identical iterate sequences.

The method keeps the iterate with the smallest merit max(primal residual,
dual residual, relative gap). Once that merit meets the tolerance, an
iteration that does not at least halve it, or that brings it to the rounding
unit, ends the solve, and the best iterate is returned (its message starts
with ``best iterate returned:``). Its primal part is then polished by
least-squares corrections that clear the equality residual, so the answer
satisfies A x = b to rounding even when the iterates stalled just below the
tolerance. The first weighs each block X by X itself (a correction X S X),
so that nearly singular blocks stay PSD; the second, with unit block
weights, clears what rounding leaves of the residual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

DEFAULT_TOL = 1e-8
# Iteration cap of every solve, read when `solve` runs.
MAX_ITERS = 200

_STEP_FRACTION = 0.99
_MIN_STEP = 1e-13
# Past the tolerance an iteration counts as progress only if it multiplies
# the best merit by at most this factor; slower gains are the rounding floor.
_MIN_PROGRESS = 0.5
# A merit this small has reached the rounding unit: past the tolerance,
# further iterations can only shrink it until it underflows.
_MERIT_FLOOR = float(np.finfo(np.float64).eps)


class SolverError(ValueError):
    """Raised for malformed problem data."""


# ---------------------------------------------------------------------------
# svec / smat helpers
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def svec_dim(d: int) -> int:
    return d * (d + 1) // 2


class _Gathers(NamedTuple):
    """Flat index maps between a d x d matrix and its svec."""

    iu0: np.ndarray     # row i of each svec entry (i, j), i <= j
    iu1: np.ndarray     # its column j
    tri: np.ndarray     # flat position of each svec entry (i, j), i <= j
    sc: np.ndarray      # svec scale: 1 on the diagonal, sqrt(2) off it
    full: np.ndarray    # svec index of every flat position
    dsc: np.ndarray     # the svec scale at every flat position


@functools.lru_cache(maxsize=None)
def _gathers(d: int) -> _Gathers:
    """The index maps of dimension d, cached and read-only, so that svec and
    smat are one gather each."""
    iu0, iu1 = np.triu_indices(d)
    tri = iu0 * d + iu1
    tri_t = iu1 * d + iu0
    sc = np.where(iu0 == iu1, 1.0, _SQRT2)
    full = np.empty(d * d, dtype=np.intp)
    full[tri] = full[tri_t] = np.arange(tri.size)
    maps = _Gathers(iu0, iu1, tri, sc, full, sc[full])
    for a in maps:
        a.flags.writeable = False
    return maps


def svec(m: np.ndarray) -> np.ndarray:
    """Scaled upper triangle of a symmetric matrix (row-major over rows), or
    of each matrix in a stack."""
    m = np.asarray(m, dtype=np.float64)
    d = m.shape[-1]
    g = _gathers(d)
    return m.reshape(m.shape[:-2] + (d * d,))[..., g.tri] * g.sc


def smat(v: np.ndarray, d: Optional[int] = None) -> np.ndarray:
    """Inverse of ``svec``, also over a stack of vectors."""
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[-1]
    if d is None:
        d = int(round((math.sqrt(8 * n + 1) - 1) / 2))
    if svec_dim(d) != n:
        raise SolverError(f"svec length {n} does not match dimension {d}")
    return _smat(v, d)


def svec_max_abs(V: np.ndarray) -> np.ndarray:
    """The largest |svec(v v')| entry of each column v of V, rounded as svec
    rounds it: max(v1^2, sqrt(2) v1 v2) over its two largest magnitudes."""
    top = -np.sort(-np.abs(np.vstack([V, np.zeros_like(V[:1])])), axis=0)
    return np.maximum(top[0] * top[0], top[0] * top[1] * _SQRT2)


def _smat(v: np.ndarray, d: int) -> np.ndarray:
    """``smat`` of float64 svec data of dimension d, unchecked: the solver's
    own calls, whose slices match their blocks by construction."""
    g = _gathers(d)
    # Divided by sqrt(2), not multiplied by its reciprocal: the two round
    # differently, and the iterate sequence depends on the last bit.
    return (v[..., g.full] / g.dsc).reshape(v.shape[:-1] + (d, d))


def _t(m: np.ndarray) -> np.ndarray:
    """The transposes of a stack of matrices."""
    return m.transpose(0, 2, 1)


def _block_slices(start: int, dims) -> list:
    """(d, slice of its svec coordinates) for each PSD block, laid out from
    column ``start`` on."""
    out = []
    for d in dims:
        out.append((d, slice(start, start + svec_dim(d))))
        start += svec_dim(d)
    return out


# ---------------------------------------------------------------------------
# Problem / solution containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConicProblem:
    """Immutable standard-form problem; see the module docstring for layout."""

    sense: str
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    n_nonneg: int = 0
    box_lo: np.ndarray = field(default_factory=lambda: np.zeros(0))
    psd_dims: tuple = ()
    psd_rows: tuple = ()
    offset: float = 0.0
    var_names: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "psd_dims", tuple(int(d) for d in self.psd_dims))
        object.__setattr__(self, "psd_rows", tuple((np.asarray(rows, np.intp), np.asarray(
            g, np.float64), np.asarray(V, np.float64)) for rows, g, V in self.psd_rows))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=np.float64)))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        object.__setattr__(self, "box_lo", np.asarray(self.box_lo, dtype=np.float64))
        self.validate()

    @property
    def n_box(self) -> int:
        return self.box_lo.size

    @property
    def box_hi(self) -> np.ndarray:
        # Boxed scalars have no upper bound; read by perfbench/tracing.py.
        return np.full(self.n_box, math.inf)

    @property
    def n_scalars(self) -> int:
        return self.n_nonneg + self.n_box

    @property
    def psd_dim(self) -> int:
        # Largest block, read as the Gram dimension by perfbench/tracing.py.
        return max(self.psd_dims, default=0)

    @property
    def n_cols(self) -> int:
        return self.n_scalars + sum(svec_dim(d) for d in self.psd_dims)

    def validate(self):
        if self.sense not in ("min", "max"):
            raise SolverError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if self.n_nonneg < 0 or any(d < 1 for d in self.psd_dims):
            raise SolverError("n_nonneg must be nonnegative and PSD blocks nonempty")
        n = self.n_cols
        if n == 0:
            raise SolverError("problem has no variables")
        if self.c.shape != (n,):
            raise SolverError(f"objective has shape {self.c.shape}, expected ({n},)")
        p = self.b.size
        if self.b.ndim != 1 or self.A.shape != (p, self.n_scalars):
            raise SolverError(f"A has shape {self.A.shape} and b {self.b.shape}; "
                              f"expected ({p}, {self.n_scalars}) and ({p},)")
        if len(self.psd_rows) != len(self.psd_dims):
            raise SolverError("psd_rows needs one (rows, g, V) per PSD block")
        for d, (rows, g, V) in zip(self.psd_dims, self.psd_rows):
            if V.shape[:1] != (d,) or not rows.shape == g.shape == V.shape[1:]:
                raise SolverError(f"terms of a {d} x {d} block: rows {rows.shape}, "
                                  f"g {g.shape} and V {V.shape} do not match")
            if rows.size and (rows.min() < 0 or rows.max() >= p):
                raise SolverError(f"a PSD term's row lies outside 0..{p - 1}")
        terms = [a for t in self.psd_rows for a in t[1:]]
        for arr in [self.c, self.A, self.b, self.box_lo] + terms:
            if arr.size and not np.all(np.isfinite(arr)):
                raise SolverError("problem data must be finite")


@dataclass(frozen=True)
class IterateStats:
    iteration: int
    primal_objective: float
    dual_objective: float
    complementarity: float
    primal_residual: float
    dual_residual: float
    step: float


@dataclass(frozen=True)
class ConicSolution:
    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]
    duality_gap: float
    eq_residual: float
    iterations: int
    psd_min_eig: Optional[float] = None
    y: Optional[np.ndarray] = None
    message: str = ""
    history: tuple = ()

    def scalar_values(self, problem: ConicProblem) -> dict:
        """Named scalar variable values (requires var_names on the problem)."""
        if self.x is None:
            return {}
        names = problem.var_names or tuple(f"x{k}" for k in range(problem.n_scalars))
        return {name: float(v) for name, v in zip(names, self.x[: problem.n_scalars])}

    def psd_matrices(self, problem: ConicProblem) -> Optional[list]:
        """One matrix per PSD block, in ``problem.psd_dims`` order."""
        if self.x is None:
            return None
        return [_smat(self.x[sl], d)
                for d, sl in _block_slices(problem.n_scalars, problem.psd_dims)]


# ---------------------------------------------------------------------------
# Nesterov-Todd scaling for the orthant x PSD blocks
# ---------------------------------------------------------------------------

class _Scaling:
    """NT scaling of the whole cone; vectors are [orthant | svec blocks].

    On block k, W = R R' maps Z to X (W Z W = X), and R' Z R = R^{-1} X
    R^{-T} = diag(lam). All blocks are scaled at once on the stack: X and Z
    padded with the identity go through one Cholesky call, whose factor of
    diag(X, I) is diag(L, I) exactly, and Lz' Lx padded with zeros through
    one SVD call. Its singular values are positive on the block and zero on
    the pad, so the pad's sort last and tie none of the block's (an identity
    pad would tie a unit singular value, and the SVD could mix the two
    coordinates); the factors' pads are then set to the identity.
    """

    def __init__(self, core, xc: np.ndarray, zc: np.ndarray):
        self.n_orth = n = core.n_orth
        xo, zo = xc[:n], zc[:n]
        self.w2 = xo / zo
        self.w = np.sqrt(self.w2)
        self.lam_orth = np.sqrt(xo * zo)
        self.core = core
        # The factors, the eigenvalues lam (1 on the pad), their roots'
        # outer products and the Jordan divisors 0.5 (lam_i + lam_j), stacked.
        self.R = self.Rit = self.T = self.lam = self.root_outer = self.lam_mid = None
        if core.blocks:
            eye = core.pad_eye
            Lx, Lz = np.linalg.cholesky(core.stack(np.stack((xc, zc))) + eye)
            u_mat, sv, vt = np.linalg.svd(_t(Lz) @ Lx - eye)
            self.lam = sv + core.pad_diag
            root = np.sqrt(self.lam)[:, None, :]
            self.R = np.where(core.in_block, (Lx @ _t(vt)) / root, eye)
            self.Rit = np.where(core.in_block, (Lz @ u_mat) / root, eye)   # R^{-T}
            self.T = self.R @ _t(self.R)
            self.root_outer = _t(root) * root
            self.lam_mid = 0.5 * (self.lam[:, :, None] + self.lam[:, None, :])

    def _apply(self, v: np.ndarray, orth, block) -> np.ndarray:
        """``orth`` on the orthant part of v, ``block`` on its block stack."""
        out = np.empty_like(v)
        out[: self.n_orth] = orth(v[: self.n_orth])
        if self.R is not None:
            out[self.n_orth:] = self.core.unstack(block(self.core.stack(v)))
        return out

    def lam_sq(self) -> np.ndarray:
        if self.R is None:
            return self.lam_orth ** 2
        diag = self.lam[:, :, None] ** 2 * np.eye(self.lam.shape[1])
        return np.concatenate([self.lam_orth ** 2, self.core.unstack(diag)])

    def wsq_apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, lambda vo: self.w2 * vo, lambda m: self.T @ m @ self.T)

    def winv_apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, lambda vo: vo / self.w,
                           lambda m: self.Rit @ m @ _t(self.Rit))

    def scale_x(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, lambda vo: vo / self.w,
                           lambda m: _t(self.Rit) @ m @ self.Rit)

    def scale_z(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, lambda vo: self.w * vo, lambda m: _t(self.R) @ m @ self.R)

    def jordan_div(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, lambda vo: vo / self.lam_orth, lambda m: m / self.lam_mid)

    def jordan_mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        def block(um):
            vm = self.core.stack(v)
            return 0.5 * (um @ vm + vm @ um)
        return self._apply(u, lambda uo: uo * v[: self.n_orth], block)

    def max_step(self, dx_scaled: np.ndarray, dz_scaled: np.ndarray) -> float:
        """Largest step along both scaled directions that stays in the cone.

        The orthant takes a ratio test per direction, each block the
        smallest eigenvalue of lam^{-1/2} V lam^{-1/2}, from one call on the
        blocks of both directions stacked. Their zero pads add eigenvalues
        0, which never limit the step. A min is exact, so taking it per
        direction and block and then over all gives the same alpha;
        1 / -min(lo) is the min over 1 / -lo to the bit, since a correctly
        rounded quotient is monotone in its divisor.
        """
        n = self.n_orth
        alpha = math.inf
        for v in (dx_scaled, dz_scaled):
            vo = v[:n]
            neg = vo < 0.0
            if neg.any():
                alpha = min(alpha, float((self.lam_orth[neg] / -vo[neg]).min()))
        if self.R is not None:
            g = self.core.stack(np.stack((dx_scaled, dz_scaled))) / self.root_outer
            lo = float(np.linalg.eigvalsh(g)[..., 0].min())
            if lo < 0.0:
                alpha = min(alpha, 1.0 / -lo)
        return alpha


# ---------------------------------------------------------------------------
# Homogeneous self-dual interior point
# ---------------------------------------------------------------------------

class _NumericalFailure(Exception):
    pass


def _tril_inverse(chol: np.ndarray) -> np.ndarray:
    """Explicit inverse of a lower-triangular Cholesky factor.

    numpy has no triangular solver, and ``np.linalg.solve`` on a factor
    redoes a general LU on every call; the inverse is formed once per factor
    and then applied with matrix products. The upper triangle is zeroed
    through a cached mask, as ``np.tril`` does with a fresh one.
    """
    return np.where(_lower_mask(chol.shape[0]), np.linalg.inv(chol), 0.0)


@functools.lru_cache(maxsize=None)
def _lower_mask(p: int) -> np.ndarray:
    mask = np.tri(p, dtype=bool)
    mask.flags.writeable = False
    return mask


def _inverse_gram_factor(gram: np.ndarray) -> Optional[np.ndarray]:
    """Inverse Cholesky factor of a Gram matrix plus a small relative jitter,
    or None if it cannot be factorized."""
    p = gram.shape[0]
    jitter = 1e-12 * max(1.0, float(np.trace(gram)) / max(p, 1))
    for _ in range(6):
        try:
            return _tril_inverse(np.linalg.cholesky(gram + jitter * np.eye(p)))
        except np.linalg.LinAlgError:
            jitter *= 100.0
    return None


class _Rows:
    """The rows under a congruence as a matrix G, one column per row, never
    formed: column r is ``orth[:, r]`` on the orthant and R_k' P_rk R_k on
    block k (R = ``factors``, I when omitted). ``dot`` is G' v, ``combine``
    G y and ``gram`` G' G: the module docstring's three products."""

    def __init__(self, core, orth: np.ndarray, factors: Optional[np.ndarray] = None):
        self.core, self.orth = core, orth
        self.U = core.V if factors is None else _t(factors) @ core.V
        self.Ug = self.U * core.g[:, None, :]

    def dot(self, v: np.ndarray) -> np.ndarray:
        core = self.core
        out = self.orth.T @ v[: core.n_orth]
        if core.blocks:
            vals = np.einsum("kit,kit->kt", self.Ug, core.stack(v) @ self.U)
            out += np.bincount(core.term_rows.ravel(), vals.ravel(), out.size)
        return out

    def combine(self, y: np.ndarray) -> np.ndarray:
        core = self.core
        out = np.empty(core.m_c)
        out[: core.n_orth] = self.orth @ y
        if core.blocks:
            out[core.n_orth:] = core.unstack(
                (self.Ug * y[core.term_rows][:, None, :]) @ _t(self.U))
        return out

    def gram(self) -> np.ndarray:
        out = self.orth.T @ self.orth
        if self.core.blocks:
            m = _t(self.Ug) @ self.U
            out += np.bincount(self.core.pairs, (m * _t(m)).ravel(),
                               out.size).reshape(out.shape)
        return out


class _KKT:
    """Per-iteration factorization of the reduced system. The normal matrix
    phi = Ghat' Ghat, the Gram matrix of the rows under the NT scaling, is
    PSD by construction, and quadratic forms in phi^{-1} are explicit
    squared norms (they set the sign of the tau-step denominator and must
    never go negative through cancellation)."""

    def __init__(self, core, scaling: _Scaling):
        p = core.b.size
        self.rows = _Rows(core, core.A.T * scaling.w[:, None], scaling.R)
        self.chat = scaling.scale_z(core.c)
        self.g_chat = self.rows.dot(self.chat)
        phi = self.rows.gram()
        self.phi = phi = 0.5 * (phi + phi.T)
        scale = max(1.0, float(np.trace(phi)) / max(p, 1))
        shift = 0.0
        for _ in range(8):
            try:
                chol = np.linalg.cholesky(phi + shift * np.eye(p))
                break
            except np.linalg.LinAlgError:
                shift = shift * 100.0 if shift else scale * 1e-14
        else:
            raise _NumericalFailure("KKT matrix could not be factorized")
        self.chol_inv = _tril_inverse(chol)

    def tau_denominator_part(self, b: np.ndarray) -> float:
        """b' phi^{-1} b + || (I - P) W c ||^2 with P the projector onto
        range(Ghat); both terms are squared norms, hence nonnegative."""
        t1 = self.chol_inv @ b
        resid = self.chat - self.rows.combine(self._chol_solve(self.g_chat))
        return float(t1 @ t1 + resid @ resid)

    def _chol_solve(self, rhs):
        return self.chol_inv.T @ (self.chol_inv @ rhs)

    def solve_normal(self, u: np.ndarray) -> np.ndarray:
        """Solve phi dy = u with one step of iterative refinement."""
        dy = self._chol_solve(u)
        dy += self._chol_solve(u - self.phi @ dy)
        return dy


class _Core:
    """The problem as the interior point takes it: minimize c @ x over the
    orthant times the PSD blocks, each boxed scalar shifted to x - lo >= 0."""

    def __init__(self, prob: ConicProblem):
        self.sign = 1.0 if prob.sense == "min" else -1.0
        self.c = self.sign * prob.c
        # Fortran order: BLAS sums a matrix product in an order that depends
        # on the layout, and the iterates are pinned to this one.
        self.A = np.asfortranarray(prob.A)
        box = slice(prob.n_nonneg, prob.n_scalars)
        self.b = prob.b - prob.A[:, box] @ prob.box_lo
        self.n_orth = prob.n_scalars
        self.blocks = _block_slices(self.n_orth, prob.psd_dims)
        self.m_c = prob.n_cols
        self.nu = self.n_orth + sum(prob.psd_dims) + 1
        self.unit = np.ones(self.m_c)
        # The K blocks' terms zero-padded to D coordinates and T terms (g = 0
        # pads them, so no sum changes), and gathers between svec and (K, D, D).
        p, K, D = self.b.size, len(self.blocks), prob.psd_dim
        T = max((g.size for _, g, _ in prob.psd_rows), default=0)
        self.V, self.g = np.zeros((K, D, T)), np.zeros((K, T))
        self.term_rows = np.zeros((K, T), np.intp)
        self.to_stack = np.zeros((K, D, D), np.intp)
        self.stack_div = np.full((K, D, D), math.inf)
        self.from_stack = np.empty((2, self.m_c - self.n_orth), np.intp)
        self.svec_scale = np.empty(self.m_c - self.n_orth)
        for k, ((d, sl), (rows, g, V)) in enumerate(zip(self.blocks, prob.psd_rows)):
            gt, psd = _gathers(d), slice(sl.start - self.n_orth, sl.stop - self.n_orth)
            self.unit[sl] = svec(np.eye(d))
            self.V[k, :d, : g.size], self.g[k, : g.size] = V, g
            self.term_rows[k, : g.size] = rows
            self.to_stack[k, :d, :d] = sl.start + gt.full.reshape(d, d)
            self.stack_div[k, :d, :d] = gt.dsc.reshape(d, d)
            self.from_stack[:, psd] = ((k * D + gt.iu0) * D + gt.iu1,
                                       (k * D + gt.iu1) * D + gt.iu0)
            self.svec_scale[psd] = 0.5 * gt.sc
        self.pairs = (self.term_rows[:, :, None] * p + self.term_rows[:, None, :]).ravel()
        # Where the stack holds a block, and the identity on its pad.
        self.in_block = self.stack_div != math.inf
        self.pad_eye = np.where(self.in_block, 0.0, np.eye(D))
        self.pad_diag = self.pad_eye.diagonal(axis1=1, axis2=2)

    def stack(self, v: np.ndarray) -> np.ndarray:
        """The (K, D, D) stack of the block matrices of svec data v, or one
        per vector along v's leading axes, zero-padded (divided by inf).
        Divided by sqrt(2) as ``_smat`` divides: an ulp in the scaling's
        input can move a degenerate program's iterates across the
        tolerance."""
        return v[..., self.to_stack] / self.stack_div

    def unstack(self, m: np.ndarray) -> np.ndarray:
        """The svec data of the symmetric parts of a stack of block matrices."""
        f = m.ravel()
        return (f[self.from_stack[0]] + f[self.from_stack[1]]) * self.svec_scale

    def pad(self, mats) -> np.ndarray:
        """Per-block d x d matrices stacked as the blocks are, zero-padded."""
        out = np.zeros(self.stack_div.shape)
        for k, m in enumerate(mats):
            out[k, : m.shape[0], : m.shape[1]] = m
        return out

    def polish(self, x: np.ndarray) -> np.ndarray:
        """Return the interior point x with its equality residual cleared.

        Two least-squares corrections absorb b - A x in turn, each moving a
        coordinate near its bound in proportion to its value. The first
        weighs the blocks and the orthant by x itself (``_polish_in_range``),
        the second orthant coordinate i by min(x_i, 1) and the blocks by one,
        clearing what rounding leaves for the certificate's node residuals.
        """
        if self.b.size == 0:
            return x
        root = np.sqrt(np.minimum(x[: self.n_orth], 1.0))
        if self.blocks:
            x = self._polish_in_range(x)
        step = self._least_squares_step(_Rows(self, (self.A * root).T), x)
        if step is None:
            return x
        step[: self.n_orth] *= root
        return x + step

    def _polish_in_range(self, x: np.ndarray) -> np.ndarray:
        """The correction of ``polish`` that moves each block X by X S X,
        with S a combination of the rows' constraint matrices. It is formed
        as R (R' S R) R' from a factor R R' = X, so a nearly singular block
        moves only along its range and stays PSD. Orthant coordinate i is
        the 1 x 1 block w_i = min(x_i, 1) and moves by w_i s_i w_i."""
        w = np.minimum(x[: self.n_orth], 1.0)
        factors = []
        for d, sl in self.blocks:
            lam, vecs = np.linalg.eigh(_smat(x[sl], d))
            factors.append(vecs * np.sqrt(np.maximum(lam, 0.0)))
        R = self.pad(factors)
        step = self._least_squares_step(_Rows(self, self.A.T * w[:, None], R), x)
        if step is None:
            return x
        x = x.copy()
        x[: self.n_orth] += w * step[: self.n_orth]
        x[self.n_orth:] += self.unstack(R @ self.stack(step) @ _t(R))
        return x

    def _least_squares_step(self, rows: _Rows, x: np.ndarray) -> Optional[np.ndarray]:
        """G y with G' G y = b - A x for the scaled ``rows`` G, or None."""
        inv = _inverse_gram_factor(rows.gram())
        if inv is None:
            return None
        return rows.combine(inv.T @ (inv @ (self.b - _Rows(self, self.A.T).dot(x))))


@dataclass
class _HsdResult:
    status: str
    x_hat: Optional[np.ndarray]
    y_hat: Optional[np.ndarray]
    gap: float
    pres: float
    iterations: int
    history: tuple
    message: str = ""


def _from_best(best, best_merit, tol, history, message) -> _HsdResult:
    if best is not None and best_merit <= tol:
        x_hat, y_hat, gap, pres, it = best
        return _HsdResult("optimal", x_hat, y_hat, gap, pres, it,
                          tuple(history), f"best iterate returned: {message}")
    gap, pres = best[2:4] if best is not None else (math.inf, math.inf)
    return _HsdResult("numerical-failure", None, None, gap, pres,
                      len(history) - 1, tuple(history), message)


def _solve_hsd(core: _Core, tol: float, trace) -> _HsdResult:
    nu = core.nu
    # A x is a_rows.dot(x), A' y a_rows.combine(y); held here, since in the
    # core a reference cycle would keep each solve alive until a full gc pass.
    a_rows = _Rows(core, core.A.T)

    x = core.unit.copy()
    z = core.unit.copy()
    y = np.zeros(core.b.size)
    tau, kappa = 1.0, 1.0

    history = []
    step_taken = 0.0
    best = None
    best_merit = math.inf

    def record(it, pobj, dobj, compl, pres, dres):
        entry = IterateStats(it, pobj, dobj, compl, pres, dres, step_taken)
        history.append(entry)
        if trace is not None:
            trace.write(
                f"iter {it:3d} gap {abs(pobj - dobj):10.3e} pres {pres:10.3e} "
                f"dres {dres:10.3e} step {step_taken:8.3e}\n"
            )

    for it in range(MAX_ITERS + 1):
        ax, aty = a_rows.dot(x), a_rows.combine(y)
        r_p = ax - core.b * tau
        r_d = -aty + core.c * tau
        r_d -= z
        r_g = core.b @ y - core.c @ x - kappa

        pobj = float(core.c @ x / tau)
        dobj = float(core.b @ y / tau)
        compl = float(x @ z + tau * kappa)
        pres = float(np.abs(r_p).max(initial=0.0) / tau)
        dres = float(np.abs(r_d).max(initial=0.0) / tau)
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        record(it, pobj, dobj, compl, pres, dres)

        # Keep the best iterate: degenerate problems can destabilize right at
        # the end, and a late bad step must not discard a converged point.
        # Once the best iterate meets `tol`, iterate only while the merit
        # still falls by the factor _MIN_PROGRESS: past that point the
        # residuals have reached their rounding floor and further steps
        # shrink without gaining accuracy (the final polish in `solve` clears
        # the primal residual instead). A merit that keeps falling fast ends
        # the solve once it reaches _MERIT_FLOOR.
        merit = max(pres, dres, relgap)
        stalled = best_merit <= tol and merit > _MIN_PROGRESS * best_merit
        if merit < best_merit:
            best_merit = merit
            best = (x / tau, y / tau, abs(pobj - dobj), pres, it)
        if stalled:
            return _from_best(best, best_merit, tol, history,
                              "no further progress after convergence")
        if best_merit <= tol and merit <= _MERIT_FLOOR:
            return _from_best(best, best_merit, tol, history,
                              "merit reached the rounding unit")
        if merit > 1e3 * best_merit:
            return _from_best(best, best_merit, tol, history,
                              "iterates diverged after best point")

        by = float(core.b @ y)
        if by > 0.0:
            cert = -aty
            cert -= z
            if np.max(np.abs(cert), initial=0.0) <= tol * by:
                return _HsdResult("infeasible", None, None, math.inf, pres, it,
                                  tuple(history), "primal infeasibility certificate found")
        cx = float(core.c @ x)
        if cx < 0.0:
            if np.max(np.abs(ax), initial=0.0) <= tol * (-cx):
                return _HsdResult("unbounded", None, None, math.inf, pres, it,
                                  tuple(history), "unboundedness certificate found")

        if it == MAX_ITERS:
            break

        try:
            scal = _Scaling(core, x, z)
            kkt = _KKT(core, scal)
        except (np.linalg.LinAlgError, _NumericalFailure) as exc:
            return _from_best(best, best_merit, tol, history,
                              f"scaling/factorization failed: {exc}")

        mu = compl / nu

        dy1 = kkt.solve_normal(kkt.g_chat + core.b)
        dx1 = scal.wsq_apply(a_rows.combine(dy1) - core.c)
        denom = kkt.tau_denominator_part(core.b) + kappa / tau
        if not np.isfinite(denom) or denom <= 0.0:
            return _from_best(best, best_merit, tol, history,
                              "degenerate step equation")

        def direction(eta, d_c, d_tk):
            g = scal.jordan_div(d_c)
            w1 = scal.winv_apply(g) - eta * r_d
            dy0 = kkt.solve_normal(-eta * r_p - kkt.rows.dot(scal.scale_z(w1)))
            dx0 = scal.wsq_apply(a_rows.combine(dy0) + w1)
            val0 = float(core.b @ dy0 - core.c @ dx0)
            dtau = (-eta * r_g + d_tk / tau - val0) / denom
            dy = dy0 + dtau * dy1
            dx = dx0 + dtau * dx1
            dz = -a_rows.combine(dy) + core.c * dtau + eta * r_d
            dkappa = (d_tk - kappa * dtau) / tau
            return dx, dy, dz, dtau, dkappa

        def max_step(dx_scaled, dz_scaled, dtau, dkappa):
            alpha = scal.max_step(dx_scaled, dz_scaled)
            if dtau < 0.0:
                alpha = min(alpha, tau / -dtau)
            if dkappa < 0.0:
                alpha = min(alpha, kappa / -dkappa)
            return alpha

        lam_sq = scal.lam_sq()
        # Predictor (affine) step.
        dx_a, _, dz_a, dtau_a, dkappa_a = direction(1.0, -lam_sq, -tau * kappa)
        dxs_a, dzs_a = scal.scale_x(dx_a), scal.scale_z(dz_a)
        alpha_aff = min(1.0, max_step(dxs_a, dzs_a, dtau_a, dkappa_a))
        mu_aff = (
            (x + alpha_aff * dx_a) @ (z + alpha_aff * dz_a)
            + (tau + alpha_aff * dtau_a) * (kappa + alpha_aff * dkappa_a)
        ) / nu
        sigma = min(max((mu_aff / mu) ** 3, 1e-8), 1.0 - 1e-8)

        # Combined centering-corrector step.
        corr = scal.jordan_mul(dxs_a, dzs_a)
        d_c = sigma * mu * core.unit - lam_sq - corr
        d_tk = sigma * mu - tau * kappa - dtau_a * dkappa_a
        dx, dy, dz, dtau, dkappa = direction(1.0 - sigma, d_c, d_tk)

        alpha = min(1.0, _STEP_FRACTION * max_step(
            scal.scale_x(dx), scal.scale_z(dz), dtau, dkappa))
        if alpha < _MIN_STEP:
            return _from_best(best, best_merit, tol, history,
                              "step length collapsed")

        x += alpha * dx
        y += alpha * dy
        z += alpha * dz
        tau += alpha * dtau
        kappa += alpha * dkappa
        step_taken = alpha

    return _from_best(best, best_merit, tol, history, "iteration limit reached")


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def solve(problem: ConicProblem, tol: float = DEFAULT_TOL,
          trace=None) -> ConicSolution:
    """Solve a conic problem; see the module docstring for the form.

    Returns a ``ConicSolution`` whose status is one of ``optimal``,
    ``infeasible``, ``unbounded`` or ``numerical-failure``. An ``optimal``
    result is the best iterate, polished to clear its equality residual, and
    has passed an independent post-hoc residual check; a numerical failure
    reports the final residuals instead of a doubtful answer.
    """
    problem.validate()
    core = _Core(problem)
    res = _solve_hsd(core, tol, trace)

    if res.status == "optimal":
        x = core.polish(res.x_hat)
        x[problem.n_nonneg: problem.n_scalars] += problem.box_lo
        return _finalize_optimal(problem, core, res, x, core.sign * res.y_hat, tol)
    gap = res.gap if np.isfinite(res.gap) else math.inf
    return ConicSolution(res.status, None, None, gap, res.pres, res.iterations,
                         message=res.message, history=res.history)


def _finalize_optimal(problem, core, res, x, y, tol):
    ax = _Rows(core, problem.A.T).dot(x)
    eq_residual = float(np.max(np.abs(ax - problem.b), initial=0.0))
    objective = float(problem.c @ x + problem.offset)
    min_eig = None
    checks_ok = eq_residual <= tol * (1.0 + np.max(np.abs(problem.b), initial=0.0)) * 1.01
    ns = problem.n_scalars
    nn, nb = problem.n_nonneg, problem.n_box
    if nn:
        checks_ok &= float(np.min(x[:nn])) >= -1e-9
    if nb:
        seg = x[nn: ns]
        checks_ok &= bool(np.all(seg >= problem.box_lo - 1e-9))
    # One eigenvalue floor for the block-diagonal matrix of all blocks.
    eigs = [np.linalg.eigvalsh(_smat(x[sl], d))
            for d, sl in _block_slices(ns, problem.psd_dims)]
    if eigs:
        min_eig = float(min(e[0] for e in eigs))
        checks_ok &= min_eig >= -1e-9 * (1.0 + float(max(e[-1] for e in eigs)))
    if not checks_ok:
        return ConicSolution(
            "numerical-failure", None, None, res.gap, eq_residual, res.iterations,
            message="post-hoc constraint check failed", history=res.history)
    return ConicSolution(
        "optimal", x, objective, res.gap, eq_residual, res.iterations,
        psd_min_eig=min_eig, y=y,
        message=res.message, history=res.history)

