"""Dense conic optimizer for problems with nonnegative scalars plus any
number of PSD matrix blocks.

Problem form
------------
Variables are ordered ``[x_s | X_1 | X_2 | ...]``, the ``n_nonneg`` scalars
first, and the data is

    minimize / maximize   c @ x  (+ offset)
    subject to            A[r] @ x_s + sum_k <P_rk, X_k> = b[r]   for every row r
                          x_s >= 0,   X_k positive semidefinite for every block k

The cone is the orthant times the PSD blocks; any other bound is the
caller's to pose, as a nonnegative slack and an equality row. ``A`` holds
the scalar columns, one row per equality even without scalars. ``psd_rows[k] =
(rows, g, V)`` gives block k's constraint matrices as rank-one terms: term t
adds g[t] V[:, t] V[:, t]' to P_{rows[t], k}; a node row of a sampled SOS
program (``ldpcopt.sos``) is one term per block, a general row several (its
eigenpairs, say). In ``c`` and in a solution a block of dimension d is its
scaled upper triangle (``svec``, off-diagonals times sqrt(2)), so that the
matrix inner product is the dot product. A block costs O(d^3) per
iteration: splitting one in halves (by a symmetry, left to the caller)
costs a quarter.

Inside the solver every cone vector (iterates, residuals, directions) is
flat, ``[orthant | K x D x D stack]`` with the K blocks zero-padded to the
largest dimension D, so that a block view is a reshape; svec appears only
where ``c`` comes in and the solution goes out, each block converted by the
one gather of ``smat`` and ``svec``. The flat dot product is the
svec one, and the dual residual is measured in the svec max-norm.

No row is ever formed densely: every use of the rows is one of three
products on the terms under a congruence R, with U = R' V: the values
g_t u_t' W u_t, the matrix U diag(g y[rows]) U' and the Gram matrix
(g g') o (U'U) o (U'U), each summed per row or pair of rows (PSD as a Schur
product; DSDP forms its Schur matrix so, Benson, Ye & Zhang 2000). R = I
gives A x and A' y, R the Nesterov-Todd factor the normal matrix, R a factor
of X the first polish. These products and the cone kernels are a few
batched numpy calls on the stack whatever the number of blocks: one
Cholesky call factors the X and Z of every block and one symmetric
eigendecomposition call gives their Nesterov-Todd scalings, and one
eigenvalue call serves each step search. Every block product is
symmetrized, 0.5 (M + M').

Algorithm
---------
A primal-dual path-following method on the homogeneous self-dual embedding:
Nesterov-Todd scaling, Mehrotra predictor-corrector steps, dense
factorizations throughout. Directions are solved for in the scaled space
(Todd, Toh & Tutuncu 1998; Vandenberghe 2010): with W = R R' the NT
scaling, R' Z R = R^-1 X R^-T = diag(lam), dx = R^-1 dX R^-T and dz = R' dZ
R, the complementarity row lam o (dx + dz) = d_c is diagonal. dy solves the
normal equations (Ghat' Ghat) dy = r, Ghat the rows under R, with one step
of iterative refinement; then dx = Ghat dy + g - eta R' r_d R + dtau dx_1
and dz = g - dx, with g = lam^-1 o d_c (-lam for the predictor). The step
search and the corrector read dx and dz; only the accepted step is mapped
back, dX = R dx R' and dZ from A' dy. The normal matrix is the one Gram
matrix factorized per iteration (as in SDPT3, Toh, Todd & Tutuncu 1999, and
DSDP); its Cholesky factor is inverted once, so every solve with it is a
matrix product. Infeasibility and unboundedness are certified from the
embedding (tau -> 0) rather than via a phase-1, and so is the outcome of a
problem with no strictly feasible point (a face pinned by its equalities).
Identical inputs produce identical iterate sequences.

The method keeps the iterate with the smallest merit max(primal residual,
dual residual, relative gap). Once that merit meets the tolerance, an
iterate whose merit is at most its floor, max(tol / 10, the rounding unit),
ends the solve and is returned; one that does not at least halve the best
merit ends it too, and the best iterate is returned (in both cases its
message starts with ``best iterate returned:``). Its primal part is then
polished by least-squares corrections that clear the equality residual, so
the answer satisfies A x = b to rounding even when the iterates stalled just
below the tolerance. The first weighs each block X by X itself (a
correction X S X); the second, with unit block weights, clears what
rounding leaves of the residual. A correction that would leave the cone is
halved until it does not.

Nine stop rules end the loop, each with its own message: the merit at its
floor after convergence, no further progress after convergence, divergence
after the best point, a primal infeasibility certificate, an unboundedness
certificate, the iteration cap ``MAX_ITERS``, a failed scaling or
factorization, a degenerate step equation and a collapsed step. Every one of
them ends in the same tail after the loop. The two certificates answer
``infeasible`` and ``unbounded``; every other rule answers with the best
iterate, ``optimal`` when its merit met the tolerance and
``numerical-failure`` with its residuals otherwise. An optimal answer is
polished, checked post hoc (equality residual, orthant, least block
eigenvalue) and returned as svec data; a failed check is a numerical failure
too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
# The rounding unit, the least floor of the merit. Past the tolerance, an
# iterate whose merit is at most max(tol / 10, _MERIT_FLOOR) is returned at
# once: a further step costs an iteration to gain accuracy no caller asked
# for, and in most design solves it makes the primal residual worse; below
# the rounding unit steps can only shrink the merit until it underflows.
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
    maps = _Gathers(tri, sc, full, sc[full])
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
    return (v[..., g.full] / g.dsc).reshape(v.shape[:-1] + (d, d))


def _t(m: np.ndarray) -> np.ndarray:
    """The transposes of a stack of matrices."""
    return m.transpose(0, 2, 1)


def _sym(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the symmetric parts 0.5 (m + m') of a stack of matrices into
    ``out`` (a block view, say) and return it."""
    np.add(m, _t(m), out=out)
    out *= 0.5
    return out


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
    psd_dims: tuple = ()
    psd_rows: tuple = ()
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "psd_dims", tuple(int(d) for d in self.psd_dims))
        object.__setattr__(self, "psd_rows", tuple((np.asarray(rows, np.intp), np.asarray(
            g, np.float64), np.asarray(V, np.float64)) for rows, g, V in self.psd_rows))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=np.float64)))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        self.validate()

    @property
    def n_box(self) -> int:
        # The form has no boxed scalars; read by perfbench/tracing.py.
        return 0

    @property
    def box_hi(self) -> np.ndarray:
        # Read by perfbench/tracing.py.
        return np.zeros(0)

    @property
    def psd_dim(self) -> int:
        # Largest block, read as the Gram dimension by perfbench/tracing.py.
        return max(self.psd_dims, default=0)

    @property
    def n_cols(self) -> int:
        return self.n_nonneg + sum(svec_dim(d) for d in self.psd_dims)

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
        if self.b.ndim != 1 or self.A.shape != (p, self.n_nonneg):
            raise SolverError(f"A has shape {self.A.shape} and b {self.b.shape}; "
                              f"expected ({p}, {self.n_nonneg}) and ({p},)")
        if len(self.psd_rows) != len(self.psd_dims):
            raise SolverError("psd_rows needs one (rows, g, V) per PSD block")
        for d, (rows, g, V) in zip(self.psd_dims, self.psd_rows):
            if V.shape[:1] != (d,) or not rows.shape == g.shape == V.shape[1:]:
                raise SolverError(f"terms of a {d} x {d} block: rows {rows.shape}, "
                                  f"g {g.shape} and V {V.shape} do not match")
            if rows.size and (rows.min() < 0 or rows.max() >= p):
                raise SolverError(f"a PSD term's row lies outside 0..{p - 1}")
        terms = [a for t in self.psd_rows for a in t[1:]]
        for arr in [self.c, self.A, self.b] + terms:
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

    def psd_matrices(self, problem: ConicProblem) -> Optional[list]:
        """One matrix per PSD block, in ``problem.psd_dims`` order."""
        if self.x is None:
            return None
        return [_smat(self.x[sl], d)
                for d, sl in _block_slices(problem.n_nonneg, problem.psd_dims)]


# ---------------------------------------------------------------------------
# Nesterov-Todd scaling for the orthant x PSD blocks
# ---------------------------------------------------------------------------

class _Scaling:
    """NT scaling of the whole cone on the flat layout.

    On block k, W = R R' maps Z to X (W Z W = X), and R' Z R = R^{-1} X
    R^{-T} = diag(lam); on the orthant w = sqrt(x / z) and lam = sqrt(x z).
    ``lam`` is the scaled iterate (x and z alike), flat. All blocks are
    scaled at once on the stack: X and Z padded with the identity go
    through one Cholesky call, whose factor of diag(X, I) is diag(L, I)
    exactly. With B = Lz' Lx padded with zeros, one symmetric
    eigendecomposition call gives B'B = V diag(lam^2) V' (Todd, Toh &
    Tutuncu 1998): V holds B's right singular vectors and lam its singular
    values, and R = Lx V diag(lam)^-1/2. The eigenvalues are positive on
    the block and zero on the pad, whose rows and columns of B'B are
    exactly zero, so the pad's sort last once the order is reversed to
    descending and tie none of the block's (an identity pad would tie a
    unit eigenvalue, and the call could mix the two coordinates); the
    factor's pad is then set to the identity. Forming B'B squares B's
    condition, but the symmetric call costs less than an SVD of B.
    """

    def __init__(self, core, x: np.ndarray, z: np.ndarray):
        self.core = core
        n = core.n_orth
        self.w = np.sqrt(x[:n] / z[:n])
        # The Jordan divisors, flat: lam on the orthant, 0.5 (lam_i + lam_j)
        # on the blocks (lam is 1 on the pads). The factors and their
        # eigenvalues' roots' outer products are stacked.
        self.lam, self.lam_mid = np.empty((2, core.m_c))
        self.lam_mid[:n] = np.sqrt(x[:n] * z[:n], out=self.lam[:n])
        self.R = self.root_outer = None
        if core.n_blocks:
            eye, pair = core.pad_eye, core.pair
            np.add(core.blocks_of(x), eye, out=pair[0])
            np.add(core.blocks_of(z), eye, out=pair[1])
            Lx, Lz = np.linalg.cholesky(pair)
            b = _t(Lz) @ Lx - eye
            lam, v = np.linalg.eigh(_t(b) @ b)
            lam, v = lam[:, ::-1], v[:, :, ::-1]
            # Clipped, so that a pad's zero rounded below it gives no nan.
            np.sqrt(np.maximum(lam, 0.0, out=lam), out=lam)
            lam += core.pad_diag
            root = np.sqrt(lam)[:, None, :]
            self.R = np.where(core.in_block, (Lx @ v) / root, eye)
            self.Rt = _t(self.R)
            self.root_outer = _t(root) * root
            _sym(lam[:, :, None], core.blocks_of(self.lam_mid))
            np.multiply(core.unit_blocks, lam[:, :, None], out=core.blocks_of(self.lam))

    def _congruence(self, v: np.ndarray, left: bool) -> np.ndarray:
        """w v on the orthant, R' M R (or R M R' if ``left``) on each block."""
        n = self.core.n_orth
        out = np.empty_like(v)
        np.multiply(self.w, v[:n], out=out[:n])
        if self.R is not None:
            R, Rt, m = self.R, self.Rt, self.core.blocks_of(v)
            _sym(R @ m @ Rt if left else Rt @ m @ R, self.core.blocks_of(out))
        return out

    def scale(self, v: np.ndarray) -> np.ndarray:
        """Dual-space data (c, r_d) in the scaled space: R' v R."""
        return self._congruence(v, False)

    def unscale(self, dx: np.ndarray) -> np.ndarray:
        """A scaled primal direction in the primal space: R dx R'."""
        return self._congruence(dx, True)

    def jordan_div(self, v: np.ndarray) -> np.ndarray:
        """lam^{-1} o v: the solution u of the Jordan product lam o u = v."""
        return v / self.lam_mid

    def jordan_mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = u * v
        if self.R is not None:
            blocks = self.core.blocks_of
            _sym(blocks(u) @ blocks(v), blocks(out))
        return out

    def max_step(self, dx: np.ndarray, dz: np.ndarray) -> float:
        """Largest step along both scaled directions that stays in the cone.

        The orthant takes a ratio test per direction, each block the
        smallest eigenvalue of lam^{-1/2} V lam^{-1/2}, from one call on the
        blocks of both directions stacked. Their zero pads add eigenvalues
        0, which never limit the step. A min is exact, so taking it per
        direction and block and then over all gives the same alpha;
        1 / -min(lo) is the min over 1 / -lo to the bit, since a correctly
        rounded quotient is monotone in its divisor.
        """
        n = self.core.n_orth
        alpha = math.inf
        for v in (dx, dz):
            vo = v[:n]
            neg = vo < 0.0
            if neg.any():
                alpha = min(alpha, float((self.lam[:n][neg] / -vo[neg]).min()))
        if self.R is not None:
            g, blocks = self.core.pair, self.core.blocks_of
            np.divide(blocks(dx), self.root_outer, out=g[0])
            np.divide(blocks(dz), self.root_outer, out=g[1])
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
    """Inverse Cholesky factor of a Gram matrix, or None if it cannot be
    factorized. A matrix that fails as it is is retried (7 times) with a
    diagonal shift, from 1e-14 of its mean diagonal, at least 1e-14, up by
    factors of 100: a shift tried first would bias every solve, and leave
    the part of a least-squares right-hand side along the Gram's small
    eigenvalues unsolved."""
    p = gram.shape[0]
    shift, shifted = 0.0, gram
    for _ in range(8):
        try:
            return _tril_inverse(np.linalg.cholesky(shifted))
        except np.linalg.LinAlgError:
            shift = shift * 100.0 if shift else max(1.0, float(np.trace(gram)) / p) * 1e-14
            shifted = gram + shift * np.eye(p)
    return None


class _Rows:
    """The rows under a congruence as a matrix G, one column per row, never
    formed: column r is ``orth[:, r]`` on the orthant and R_k' P_rk R_k on
    block k (R = ``factors``, I when omitted). ``dot`` is G' v, ``combine``
    G y and ``gram`` G' G: the module docstring's three products."""

    def __init__(self, core, orth: np.ndarray, factors: Optional[np.ndarray] = None):
        self.core, self.orth = core, orth
        self.U = core.V if factors is None else _t(factors) @ core.V
        self.Ug, self.Ut = self.U * core.g, _t(self.U)

    def dot(self, v: np.ndarray) -> np.ndarray:
        core = self.core
        out = self.orth.T.dot(v[: core.n_orth])
        if core.n_blocks:
            # Summed over each term's coordinates in their order: the
            # iterates are pinned to this rounding.
            vals = core.blocks_of(v) @ self.U
            vals *= self.Ug
            out += np.bincount(core.term_flat, np.add.reduce(vals, 1).ravel(), out.size)
        return out

    def combine(self, y: np.ndarray) -> np.ndarray:
        core = self.core
        out = np.empty(core.m_c)
        self.orth.dot(y, out=out[: core.n_orth])
        if core.n_blocks:
            _sym((self.Ug * y[core.term_rows]) @ self.Ut, core.blocks_of(out))
        return out

    def gram(self) -> np.ndarray:
        out = self.orth.T @ self.orth
        if self.core.n_blocks:
            m = _t(self.Ug) @ self.U
            out += np.bincount(self.core.pairs, (m * _t(m)).ravel(),
                               out.size).reshape(out.shape)
        return out


class _KKT:
    """The linearized embedding at one iterate (x, y, z, tau, kappa) with
    residuals r_p, r_d and r_g, solved in the scaled space of ``scaling``
    (module docstring). Its one factorization is of the normal matrix
    phi = Ghat' Ghat, the Gram matrix of the rows under the NT scaling. It
    is PSD by construction, and quadratic forms in phi^{-1} are explicit
    squared norms (they set the sign of the tau-step denominator ``denom``
    and must never go negative through cancellation)."""

    def __init__(self, core, scaling: _Scaling, tau, kappa, r_p, r_d, r_g):
        self.rows = _Rows(core, core.A.T * scaling.w[:, None], scaling.R)
        if core.c_in_blocks:
            self.chat = scaling.scale(core.c)
            g_chat = self.rows.dot(self.chat)
        else:
            # R' 0 R is 0: only the orthant part of c is scaled and dotted,
            # to the same bits.
            n = core.n_orth
            self.chat = np.zeros(core.m_c)
            np.multiply(scaling.w, core.c[:n], out=self.chat[:n])
            g_chat = self.rows.orth.T.dot(self.chat[:n])
        phi = self.rows.gram()
        self.phi = 0.5 * (phi + phi.T)
        self.chol_inv = _inverse_gram_factor(self.phi)
        if self.chol_inv is None:
            raise _NumericalFailure("KKT matrix could not be factorized")
        self.b, self.tau, self.kappa, self.r_p, self.r_g = core.b, tau, kappa, r_p, r_g
        self.rd_scaled = scaling.scale(r_d)
        # The direction per unit dtau, and the denominator of dtau:
        # b' phi^{-1} b + || (I - P) chat ||^2 + kappa / tau, with P the
        # projector onto range(Ghat).
        self.dy1 = self.solve_normal(g_chat + core.b)
        self.dx1 = self.rows.combine(self.dy1) - self.chat
        t1 = self.chol_inv.dot(core.b)
        resid = self.chat - self.rows.combine(self._chol_solve(g_chat))
        self.denom = float(t1.dot(t1) + resid.dot(resid)) + kappa / tau

    def _chol_solve(self, rhs):
        return self.chol_inv.T.dot(self.chol_inv.dot(rhs))

    def solve_normal(self, u: np.ndarray) -> np.ndarray:
        """Solve phi dy = u with one step of iterative refinement."""
        dy = self._chol_solve(u)
        dy += self._chol_solve(u - self.phi.dot(dy))
        return dy

    def direction(self, eta: float, g: np.ndarray, d_tk: float):
        """The scaled (dx, dz) with dx + dz = g, and dy, dtau and dkappa,
        for the right-hand sides eta r and (g, d_tk) of the complementarity
        rows (g = lam^{-1} o d_c)."""
        w1 = g - eta * self.rd_scaled
        dy0 = self.solve_normal(-eta * self.r_p - self.rows.dot(w1))
        dx0 = self.rows.combine(dy0) + w1
        val0 = float(self.b @ dy0 - self.chat @ dx0)
        dtau = (-eta * self.r_g + d_tk / self.tau - val0) / self.denom
        dx = dx0 + dtau * self.dx1
        return (dx, g - dx, dy0 + dtau * self.dy1, dtau,
                (d_tk - self.kappa * dtau) / self.tau)


class _Core:
    """The problem as the interior point takes it: minimize c @ x over the
    orthant times the PSD blocks, with every cone vector on the flat layout
    ``[orthant | K x D x D]``."""

    def __init__(self, prob: ConicProblem):
        self.sign = 1.0 if prob.sense == "min" else -1.0
        # Fortran order: BLAS sums a matrix product in an order that depends
        # on the layout, and the iterates are pinned to this one.
        self.A = np.asfortranarray(prob.A)
        self.b = prob.b
        self.n_orth = n = prob.n_nonneg
        self.dims = prob.psd_dims
        p, K, D = self.b.size, len(self.dims), prob.psd_dim
        self.n_blocks, self.shape = K, (K, D, D)
        self.m_c = n + K * D * D
        self.nu = n + sum(self.dims) + 1
        # The K blocks' terms zero-padded to D coordinates and T terms (g = 0
        # pads them, so no sum changes); g and the rows are K x 1 x T, to
        # broadcast over a block's coordinates.
        T = max((g.size for _, g, _ in prob.psd_rows), default=0)
        self.V, self.g = np.zeros((K, D, T)), np.zeros((K, 1, T))
        self.term_rows = np.zeros((K, 1, T), np.intp)
        self.in_block = np.zeros(self.shape, bool)
        for k, (d, (rows, g, V)) in enumerate(zip(self.dims, prob.psd_rows)):
            self.V[k, :d, : g.size], self.g[k, 0, : g.size] = V, g
            self.term_rows[k, 0, : g.size] = rows
            self.in_block[k, :d, :d] = True
        self.pairs = (_t(self.term_rows) * p + self.term_rows).ravel()
        self.term_flat = self.term_rows.ravel()
        eye = np.eye(D)
        # The identity on the pads, the unit of the cone and the weight of
        # each flat entry in the svec max-norm.
        self.pad_eye = np.where(self.in_block, 0.0, eye)
        self.pad_diag = self.pad_eye.diagonal(axis1=1, axis2=2)
        self.unit = np.concatenate([np.ones(n), (eye - self.pad_eye).ravel()])
        self.unit_blocks = self.blocks_of(self.unit)
        # Work space of ``_Scaling`` and its step search, reused by every
        # iteration of a solve.
        self.pair = np.empty((2,) + self.shape)
        self.svec_weight = np.concatenate([np.ones(n), np.where(
            self.in_block, np.where(eye == 1.0, 1.0, _SQRT2), 0.0).ravel()])
        self.c = self.sign * self.flat(prob.c)
        # Whether c has a block part. Every program ``sos`` builds has its
        # objective on the taps or on t, and ``_KKT`` then skips the blocks.
        self.c_in_blocks = bool(self.blocks_of(self.c).any())

    def blocks_of(self, v: np.ndarray) -> np.ndarray:
        """The (K, D, D) block view of flat data v: a reshape, writable when
        v is."""
        return v[self.n_orth:].reshape(self.shape)

    def flat(self, v: np.ndarray) -> np.ndarray:
        """svec data on the flat layout, each block through ``_smat`` and
        zero-padded."""
        out = np.zeros(self.m_c)
        out[: self.n_orth] = v[: self.n_orth]
        for m, (d, sl) in zip(self.blocks_of(out), _block_slices(self.n_orth, self.dims)):
            m[:d, :d] = _smat(v[sl], d)
        return out

    def svec(self, v: np.ndarray) -> np.ndarray:
        """Flat data as svec, each block through ``svec``."""
        return np.concatenate([v[: self.n_orth]] + [
            svec(m[:d, :d]) for m, d in zip(self.blocks_of(v), self.dims)])

    def svec_max(self, v: np.ndarray) -> float:
        """The max-norm of svec(v), without forming it."""
        return float((np.abs(v) * self.svec_weight).max(initial=0.0))

    def polish(self, x: np.ndarray) -> np.ndarray:
        """Return the interior point x with its equality residual cleared.

        Two least-squares corrections absorb b - A x in turn, each moving a
        coordinate near its bound in proportion to its value. The first
        weighs the blocks and the orthant by x itself (``_polish_in_range``),
        the second orthant coordinate i by min(x_i, 1) and the blocks by one,
        clearing what rounding leaves for the certificate's node residuals.
        Neither may leave the cone: each is halved until it stays inside.
        """
        if self.b.size == 0:
            return x
        root = np.sqrt(np.minimum(x[: self.n_orth], 1.0))
        if self.n_blocks:
            x = self._inside(x, self._polish_in_range(x))
        step = self._least_squares_step(_Rows(self, (self.A * root).T), x)
        if step is not None:
            step[: self.n_orth] *= root
        return self._inside(x, step)

    def _polish_in_range(self, x: np.ndarray) -> Optional[np.ndarray]:
        """The correction of ``polish`` that moves each block X by X S X,
        with S a combination of the rows' constraint matrices. It is formed
        as R (R' S R) R' from a factor R R' = X, so a nearly singular block
        moves only along its range. Orthant coordinate i is the 1 x 1 block
        w_i = min(x_i, 1) and moves by w_i s_i w_i."""
        w = np.minimum(x[: self.n_orth], 1.0)
        R = np.zeros(self.shape)
        for k, (d, m) in enumerate(zip(self.dims, self.blocks_of(x))):
            lam, vecs = np.linalg.eigh(m[:d, :d])
            R[k, :d, :d] = vecs * np.sqrt(np.maximum(lam, 0.0))
        step = self._least_squares_step(_Rows(self, self.A.T * w[:, None], R), x)
        if step is not None:
            step[: self.n_orth] *= w
            _sym(R @ self.blocks_of(step) @ _t(R), self.blocks_of(step))
        return step

    def _inside(self, x: np.ndarray, step: Optional[np.ndarray]) -> np.ndarray:
        """x + t step for the largest t in 1, 1/2, ..., 2^-30 that stays in
        the cone, or x (also when there is no step). The blocks' least
        eigenvalues come from one call on the stack with identity pads."""
        for _ in range(0 if step is None else 31):
            trial = x + step
            lo = trial[: self.n_orth].min(initial=0.0)
            if self.n_blocks:
                lo = min(lo, np.linalg.eigvalsh(self.blocks_of(trial) + self.pad_eye).min())
            if lo >= 0.0:
                return trial
            step = 0.5 * step
        return x

    def _least_squares_step(self, rows: _Rows, x: np.ndarray) -> Optional[np.ndarray]:
        """G y with G' G y = b - A x for the scaled ``rows`` G, or None."""
        inv = _inverse_gram_factor(rows.gram())
        if inv is None:
            return None
        return rows.combine(inv.T @ (inv @ (self.b - _Rows(self, self.A.T).dot(x))))


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
    core = _Core(problem)
    nu = core.nu
    # A x is a_rows.dot(x), A' y a_rows.combine(y); held here, since in the
    # core a reference cycle would keep each solve alive until a full gc pass.
    a_rows = _Rows(core, core.A.T)

    # x and y are replaced at each step, not updated in place, so that the
    # best iterate is kept by reference.
    x = core.unit.copy()
    z = core.unit.copy()
    y = np.zeros(core.b.size)
    tau, kappa = 1.0, 1.0

    history = []
    floor = max(tol / 10, _MERIT_FLOOR)
    step_taken = 0.0
    best = None
    best_merit = math.inf
    # Each stop rule sets its message and breaks out of the loop; only the
    # two certificates also set a status.
    status = None

    for it in range(MAX_ITERS + 1):
        ax, aty = a_rows.dot(x), a_rows.combine(y)
        by, cx = float(core.b @ y), float(core.c @ x)
        r_p = ax - core.b * tau
        r_d = core.c * tau - aty
        r_d -= z
        r_g = by - cx - kappa

        pobj, dobj = cx / tau, by / tau
        compl = float(x.dot(z) + tau * kappa)
        pres = float(np.abs(r_p).max(initial=0.0) / tau)
        dres = core.svec_max(r_d) / tau
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        history.append(IterateStats(it, pobj, dobj, compl, pres, dres, step_taken))
        if trace is not None:
            trace.write(f"iter {it:3d} gap {abs(pobj - dobj):10.3e} pres {pres:10.3e} "
                        f"dres {dres:10.3e} step {step_taken:8.3e}\n")

        # Keep the best iterate: degenerate problems can destabilize right at
        # the end, and a late bad step must not discard a converged point.
        # Once the best iterate meets `tol`, an iterate at the merit's floor
        # (a tenth of `tol`, or _MERIT_FLOOR when that is larger) ends the
        # solve and is returned, with no step taken past it. Short of the
        # floor, iterate only while the merit still falls by the factor
        # _MIN_PROGRESS: past that point the residuals have reached their
        # rounding floor and further steps shrink without gaining accuracy
        # (the final polish clears the primal residual instead).
        merit = max(pres, dres, relgap)
        stalled = best_merit <= tol and merit > _MIN_PROGRESS * best_merit
        if merit < best_merit:
            best_merit = merit
            best = (x, y, tau, abs(pobj - dobj), pres, it)
        if best_merit <= tol and merit <= floor:
            message = "merit reached its floor"
            break
        if stalled:
            message = "no further progress after convergence"
            break
        if merit > 1e3 * best_merit:
            message = "iterates diverged after best point"
            break

        # The certificate's residual is -A'y - z, as exactly -(A'y + z).
        if by > 0.0 and core.svec_max(aty + z) <= tol * by:
            status, message = "infeasible", "primal infeasibility certificate found"
            break
        if cx < 0.0 and np.abs(ax).max(initial=0.0) <= tol * (-cx):
            status, message = "unbounded", "unboundedness certificate found"
            break

        if it == MAX_ITERS:
            message = "iteration limit reached"
            break

        try:
            scal = _Scaling(core, x, z)
            kkt = _KKT(core, scal, tau, kappa, r_p, r_d, r_g)
        except (np.linalg.LinAlgError, _NumericalFailure) as exc:
            message = f"scaling/factorization failed: {exc}"
            break
        if not math.isfinite(kkt.denom) or kkt.denom <= 0.0:
            message = "degenerate step equation"
            break
        mu = compl / nu

        def max_step(dx, dz, dtau, dkappa):
            alpha = scal.max_step(dx, dz)
            if dtau < 0.0:
                alpha = min(alpha, tau / -dtau)
            if dkappa < 0.0:
                alpha = min(alpha, kappa / -dkappa)
            return alpha

        # Directions are solved for in the scaled space, where x and z are
        # both lam. Predictor (affine) step: d_c = -lam o lam, so g = -lam.
        lam = scal.lam
        dx_a, dz_a, _, dtau_a, dkappa_a = kkt.direction(1.0, -lam, -tau * kappa)
        alpha_aff = min(1.0, max_step(dx_a, dz_a, dtau_a, dkappa_a))
        mu_aff = (
            (lam + alpha_aff * dx_a).dot(lam + alpha_aff * dz_a)
            + (tau + alpha_aff * dtau_a) * (kappa + alpha_aff * dkappa_a)
        ) / nu
        sigma = min(max((mu_aff / mu) ** 3, 1e-8), 1.0 - 1e-8)

        # Combined centering-corrector step.
        d_c = sigma * mu * core.unit - lam * lam - scal.jordan_mul(dx_a, dz_a)
        d_tk = sigma * mu - tau * kappa - dtau_a * dkappa_a
        eta = 1.0 - sigma
        dx, dz, dy, dtau, dkappa = kkt.direction(eta, scal.jordan_div(d_c), d_tk)

        alpha = min(1.0, _STEP_FRACTION * max_step(dx, dz, dtau, dkappa))
        if alpha < _MIN_STEP:
            message = "step length collapsed"
            break

        # Only the accepted step leaves the scaled space; dZ comes from the
        # dual equality, so that r_d shrinks by the factor 1 - alpha eta.
        x = x + alpha * scal.unscale(dx)
        z += alpha * (core.c * dtau + eta * r_d - a_rows.combine(dy))
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa
        step_taken = alpha

    # The one exit. A certificate reports the last iterate's residual; every
    # other rule reports the best iterate, and answers with it once it met
    # `tol`.
    history = tuple(history)
    if status is not None:
        gap = math.inf
    else:
        gap, pres = best[3:5] if best is not None else (math.inf, math.inf)
        status = "optimal" if best_merit <= tol else "numerical-failure"
    if status == "optimal":
        x, y, tau, _, _, it = best
        message = f"best iterate returned: {message}"
        # The polished answer must pass a check of its own: the equality
        # residual, the orthant and one eigenvalue floor for the
        # block-diagonal matrix of all blocks.
        x = core.polish(x / tau)
        pres = float(np.abs(_Rows(core, problem.A.T).dot(x) - problem.b).max(initial=0.0))
        min_eig = None
        checks_ok = pres <= tol * (1.0 + np.abs(problem.b).max(initial=0.0)) * 1.01
        checks_ok &= bool(np.all(x[: problem.n_nonneg] >= -1e-9))
        eigs = [np.linalg.eigvalsh(m[:d, :d]) for d, m in zip(core.dims, core.blocks_of(x))]
        if eigs:
            min_eig = float(min(e[0] for e in eigs))
            checks_ok &= min_eig >= -1e-9 * (1.0 + float(max(e[-1] for e in eigs)))
        if checks_ok:
            x = core.svec(x)
            return ConicSolution(
                "optimal", x, float(problem.c @ x + problem.offset), gap, pres, it,
                psd_min_eig=min_eig, y=core.sign * (y / tau), message=message,
                history=history)
        status, message = "numerical-failure", "post-hoc constraint check failed"
    return ConicSolution(status, None, None, gap if np.isfinite(gap) else math.inf, pres,
                         it, message=message, history=history)
