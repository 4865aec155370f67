"""Dense conic optimizer for problems with free, nonnegative and boxed scalars
plus at most one PSD matrix block.

Problem form
------------
Variables are ordered ``[free | nonneg | boxed | svec(PSD)]`` and the data is

    minimize / maximize   c @ x  (+ offset)
    subject to            A @ x = b
                          x_nonneg >= 0,   lo <= x_box <= hi,
                          smat(x_psd) positive semidefinite

The PSD block of dimension d is carried as its scaled upper triangle
(``svec``, length d*(d+1)/2, off-diagonals multiplied by sqrt(2)) so that the
matrix inner product equals the Euclidean dot product.

Algorithm
---------
A primal-dual path-following method on the homogeneous self-dual embedding:
Nesterov-Todd scaling for the PSD block, Mehrotra predictor-corrector steps,
dense factorizations throughout. Each Cholesky factor is inverted once, when
it is formed, so every solve with it is a matrix product. Boxed variables are
folded into the nonnegative cone through a shift and one slack each;
infeasibility and unboundedness are certified from the embedding (tau -> 0)
rather than via a phase-1. Identical inputs produce identical iterate
sequences.

The method keeps the iterate with the smallest merit max(primal residual,
dual residual, relative gap). Once that merit meets the tolerance, the first
iteration that fails to improve it ends the solve, and the best iterate is
returned (its message starts with ``best iterate returned:``). Its primal
part is then polished by the least-squares correction that clears the
equality residual, so the answer satisfies A x = b to rounding even when the
iterates stalled just below the tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 200

_STEP_FRACTION = 0.99
_MIN_STEP = 1e-13


class SolverError(ValueError):
    """Raised for malformed problem data."""


# ---------------------------------------------------------------------------
# svec / smat helpers
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def svec_dim(d: int) -> int:
    return d * (d + 1) // 2


@functools.lru_cache(maxsize=None)
def _triu(d: int):
    """Upper-triangle indices of a d x d matrix, cached and read-only."""
    iu0, iu1 = np.triu_indices(d)
    iu0.flags.writeable = False
    iu1.flags.writeable = False
    return iu0, iu1


def svec(m: np.ndarray) -> np.ndarray:
    """Scaled upper triangle of a symmetric matrix (row-major over rows)."""
    m = np.asarray(m, dtype=np.float64)
    d = m.shape[0]
    iu0, iu1 = _triu(d)
    v = m[iu0, iu1].copy()
    v[iu0 != iu1] *= _SQRT2
    return v


def smat(v: np.ndarray, d: Optional[int] = None) -> np.ndarray:
    """Inverse of ``svec``."""
    v = np.asarray(v, dtype=np.float64)
    if d is None:
        d = int(round((math.sqrt(8 * v.size + 1) - 1) / 2))
    if svec_dim(d) != v.size:
        raise SolverError(f"svec length {v.size} does not match dimension {d}")
    iu0, iu1 = _triu(d)
    out = np.zeros((d, d))
    vals = v.copy()
    vals[iu0 != iu1] /= _SQRT2
    out[iu0, iu1] = vals
    out[iu1, iu0] = vals
    return out


def _svec_batch(ms: np.ndarray) -> np.ndarray:
    d = ms.shape[-1]
    iu0, iu1 = _triu(d)
    # One gather over the flattened matrices is faster than a 2-D fancy index.
    out = ms.reshape(ms.shape[:-2] + (d * d,))[..., iu0 * d + iu1]
    out[..., iu0 != iu1] *= _SQRT2
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
    n_free: int = 0
    n_nonneg: int = 0
    box_lo: np.ndarray = field(default_factory=lambda: np.zeros(0))
    box_hi: np.ndarray = field(default_factory=lambda: np.zeros(0))
    psd_dim: int = 0
    offset: float = 0.0
    var_names: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=np.float64)))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        object.__setattr__(self, "box_lo", np.asarray(self.box_lo, dtype=np.float64))
        object.__setattr__(self, "box_hi", np.asarray(self.box_hi, dtype=np.float64))
        self.validate()

    @property
    def n_box(self) -> int:
        return self.box_lo.size

    @property
    def n_scalars(self) -> int:
        return self.n_free + self.n_nonneg + self.n_box

    @property
    def n_cols(self) -> int:
        return self.n_scalars + svec_dim(self.psd_dim)

    def validate(self):
        if self.sense not in ("min", "max"):
            raise SolverError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if self.psd_dim < 0 or self.n_free < 0 or self.n_nonneg < 0:
            raise SolverError("block sizes must be nonnegative")
        if self.box_lo.shape != self.box_hi.shape:
            raise SolverError("box bounds must have equal shapes")
        n = self.n_cols
        if self.c.shape != (n,):
            raise SolverError(f"objective has shape {self.c.shape}, expected ({n},)")
        if self.A.size == 0:
            object.__setattr__(self, "A", np.zeros((0, n)))
        if self.A.shape[1] != n:
            raise SolverError(f"A has {self.A.shape[1]} columns, expected {n}")
        if self.b.shape != (self.A.shape[0],):
            raise SolverError("b length does not match the number of equalities")
        for arr in (self.c, self.A, self.b, self.box_lo):
            if arr.size and not np.all(np.isfinite(arr)):
                raise SolverError("problem data must be finite")
        if self.box_hi.size and np.any(np.isnan(self.box_hi)):
            raise SolverError("box upper bounds must not be NaN")
        if np.any(self.box_hi < self.box_lo):
            raise SolverError("box upper bounds must not be below lower bounds")


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

    def psd_matrix(self, problem: ConicProblem) -> Optional[np.ndarray]:
        if self.x is None or problem.psd_dim == 0:
            return None
        return smat(self.x[problem.n_scalars:], problem.psd_dim)


# ---------------------------------------------------------------------------
# Canonical form: minimize, cone = orthant x PSD, boxes removed
# ---------------------------------------------------------------------------

class _Canonical:
    def __init__(self, prob: ConicProblem):
        self.prob = prob
        f, n0, nb = prob.n_free, prob.n_nonneg, prob.n_box
        d = prob.psd_dim
        s = svec_dim(d)
        hi = prob.box_hi
        paired = np.where(np.isfinite(hi))[0]
        npair = paired.size

        sign = 1.0 if prob.sense == "min" else -1.0
        n = prob.n_cols + npair
        c = np.zeros(n)
        c[: prob.n_cols] = sign * prob.c

        p0 = prob.A.shape[0]
        A = np.zeros((p0 + npair, n))
        A[:p0, : prob.n_cols] = prob.A
        b = np.zeros(p0 + npair)
        # Boxed variable k becomes lo_k + u_k with u_k >= 0; a finite upper
        # bound adds a slack v and a row u_k + v = hi_k - lo_k.
        box_cols = f + n0 + np.arange(nb)
        b[:p0] = prob.b - prob.A[:, box_cols] @ prob.box_lo if nb else prob.b.copy()
        for j, k in enumerate(paired):
            A[p0 + j, box_cols[k]] = 1.0
            A[p0 + j, prob.n_cols + j] = 1.0
            b[p0 + j] = hi[k] - prob.box_lo[k]

        # Reorder columns to [free | orthant | svec]: the box shifts and the
        # pairing slacks are ordinary nonnegative variables, svec stays last.
        perm = np.concatenate([
            np.arange(f),
            np.arange(f, f + n0 + nb),
            prob.n_cols + np.arange(npair),
            f + n0 + nb + np.arange(s),
        ]).astype(int)
        self.c = c[perm]
        self.A = A[:, perm]
        self.b = b
        self.n_free = f
        self.n_orth = n0 + nb + npair
        self.psd_dim = d
        self.sign = sign
        self.p_orig = p0
        self.npair = npair

    def recover_x(self, x_hat: np.ndarray) -> np.ndarray:
        prob = self.prob
        f, n0, nb = prob.n_free, prob.n_nonneg, prob.n_box
        s = svec_dim(prob.psd_dim)
        out = np.empty(prob.n_cols)
        out[: f + n0] = x_hat[: f + n0]
        out[f + n0: f + n0 + nb] = prob.box_lo + x_hat[f + n0: f + n0 + nb]
        if s:
            out[f + n0 + nb:] = x_hat[f + n0 + nb + self.npair:]
        return out


class _FacialReduction:
    """Eliminate the PSD face pinned by zero-diagonal equality rows.

    An equality row whose only live coefficient sits on a diagonal svec
    coordinate (i, i) with zero right-hand side forces X_ii = 0, hence the
    whole i-th row and column of the PSD block. Interior-point methods can
    only approach such a face (it destroys strict feasibility and lets
    off-diagonal leakage of order sqrt(residual) through), so the face is
    removed exactly up front and the solution re-embedded afterwards.
    """

    def __init__(self, canon: _Canonical):
        self.n_free = canon.n_free
        self.n_orth = canon.n_orth
        d = canon.psd_dim
        A, b, c = canon.A, canon.b, canon.c
        s0 = canon.n_free + canon.n_orth
        p = A.shape[0]

        zero_idx: set = set()
        drop_rows: set = set()
        self.infeasible_row = None
        if d:
            iu0, iu1 = _triu(d)
            col_of = {(int(i), int(j)): s0 + k
                      for k, (i, j) in enumerate(zip(iu0, iu1))}
            scalar_support = np.abs(A[:, :s0]).sum(axis=1) > 0.0
            changed = True
            while changed:
                changed = False
                dead_cols = np.zeros(A.shape[1], dtype=bool)
                for (i, j), col in col_of.items():
                    if i in zero_idx or j in zero_idx:
                        dead_cols[col] = True
                for r in range(p):
                    if r in drop_rows:
                        continue
                    live = np.where((np.abs(A[r]) > 0.0) & ~dead_cols)[0]
                    if live.size == 0:
                        if b[r] != 0.0:
                            self.infeasible_row = r
                            return
                        drop_rows.add(r)
                        changed = True
                        continue
                    if scalar_support[r] or live.size != 1 or b[r] != 0.0:
                        continue
                    col = int(live[0])
                    k = col - s0
                    if k >= 0 and iu0[k] == iu1[k]:
                        zero_idx.add(int(iu0[k]))
                        drop_rows.add(r)
                        changed = True

        self.zero_idx = sorted(zero_idx)
        if not zero_idx:
            self.keep_cols = None
            self.keep_rows = None
            self.c, self.A, self.b = c, A, b
            self.psd_dim = d
            self.full_sdim = svec_dim(d)
            return
        keep_matrix = [i for i in range(d) if i not in zero_idx]
        iu0, iu1 = _triu(d)
        keep_set = set(keep_matrix)
        keep_svec = np.array([k for k, (i, j) in enumerate(zip(iu0, iu1))
                              if i in keep_set and j in keep_set], dtype=int)
        self.keep_cols = np.concatenate([np.arange(s0), s0 + keep_svec])
        self.keep_rows = np.array([r for r in range(p) if r not in drop_rows],
                                  dtype=int)
        self.full_sdim = svec_dim(d)
        self.s0 = s0
        self.psd_dim = d - len(zero_idx)
        self.c = c[self.keep_cols]
        self.A = A[np.ix_(self.keep_rows, self.keep_cols)]
        self.b = b[self.keep_rows]

    def expand_x(self, x_hat: np.ndarray) -> np.ndarray:
        if self.keep_cols is None:
            return x_hat
        out = np.zeros(self.s0 + self.full_sdim)
        out[self.keep_cols] = x_hat
        return out

    def expand_y(self, y_hat: np.ndarray, p_full: int) -> np.ndarray:
        if self.keep_rows is None:
            return y_hat
        out = np.zeros(p_full)
        out[self.keep_rows] = y_hat
        return out


# ---------------------------------------------------------------------------
# Nesterov-Todd scaling for the orthant x PSD cone
# ---------------------------------------------------------------------------

class _Scaling:
    def __init__(self, n_orth: int, d: int, xc: np.ndarray, zc: np.ndarray):
        self.n_orth = n_orth
        self.d = d
        xo, zo = xc[:n_orth], zc[:n_orth]
        self.w2 = xo / zo
        self.w = np.sqrt(self.w2)
        self.lam_orth = np.sqrt(xo * zo)
        if d:
            X = smat(xc[n_orth:], d)
            Z = smat(zc[n_orth:], d)
            Lx = np.linalg.cholesky(X)
            Lz = np.linalg.cholesky(Z)
            u_mat, sv, vt = np.linalg.svd(Lz.T @ Lx)
            root = np.sqrt(sv)
            self.R = (Lx @ vt.T) / root[None, :]
            self.Rit = (Lz @ u_mat) / root[None, :]   # equals R^{-T}
            self.T = self.R @ self.R.T
            self.lam_psd = sv
        else:
            self.R = self.Rit = self.T = None
            self.lam_psd = np.zeros(0)

    # cone vectors are [orthant | svec(psd)] throughout

    def _split(self, v):
        return v[: self.n_orth], v[self.n_orth:]

    def _join(self, vo, mp):
        if self.d:
            return np.concatenate([vo, svec(0.5 * (mp + mp.T))])
        return vo

    def lam_sq(self) -> np.ndarray:
        if self.d:
            return np.concatenate([self.lam_orth ** 2, svec(np.diag(self.lam_psd ** 2))])
        return self.lam_orth ** 2

    def unit(self) -> np.ndarray:
        if self.d:
            return np.concatenate([np.ones(self.n_orth), svec(np.eye(self.d))])
        return np.ones(self.n_orth)

    def wsq_apply(self, v: np.ndarray) -> np.ndarray:
        vo, vp = self._split(v)
        out_o = self.w2 * vo
        if not self.d:
            return out_o
        return self._join(out_o, self.T @ smat(vp, self.d) @ self.T)

    def winv_apply(self, v: np.ndarray) -> np.ndarray:
        vo, vp = self._split(v)
        out_o = vo / self.w
        if not self.d:
            return out_o
        return self._join(out_o, self.Rit @ smat(vp, self.d) @ self.Rit.T)

    def scale_x(self, v: np.ndarray) -> np.ndarray:
        vo, vp = self._split(v)
        out_o = vo / self.w
        if not self.d:
            return out_o
        return self._join(out_o, self.Rit.T @ smat(vp, self.d) @ self.Rit)

    def scale_z(self, v: np.ndarray) -> np.ndarray:
        vo, vp = self._split(v)
        out_o = self.w * vo
        if not self.d:
            return out_o
        return self._join(out_o, self.R.T @ smat(vp, self.d) @ self.R)

    def jordan_div(self, v: np.ndarray) -> np.ndarray:
        vo, vp = self._split(v)
        out_o = vo / self.lam_orth
        if not self.d:
            return out_o
        avg = 0.5 * (self.lam_psd[:, None] + self.lam_psd[None, :])
        return self._join(out_o, smat(vp, self.d) / avg)

    def jordan_mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        uo, up = self._split(u)
        vo, vp = self._split(v)
        out_o = uo * vo
        if not self.d:
            return out_o
        um, vm = smat(up, self.d), smat(vp, self.d)
        return self._join(out_o, 0.5 * (um @ vm + vm @ um))

    def max_step(self, direction_scaled: np.ndarray) -> float:
        vo, vp = self._split(direction_scaled)
        alpha = math.inf
        neg = vo < 0.0
        if np.any(neg):
            alpha = float(np.min(self.lam_orth[neg] / -vo[neg]))
        if self.d:
            root = np.sqrt(self.lam_psd)
            g = smat(vp, self.d) / np.outer(root, root)
            lo = float(np.linalg.eigvalsh(0.5 * (g + g.T))[0])
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
    and then applied with matrix products.
    """
    return np.tril(np.linalg.inv(chol))


def _inverse_gram_factor(m: np.ndarray) -> Optional[np.ndarray]:
    """Inverse Cholesky factor of m m' plus a small relative jitter, or None
    if the Gram matrix cannot be factorized."""
    gram = m @ m.T
    p = gram.shape[0]
    jitter = 1e-12 * max(1.0, float(np.trace(gram)) / max(p, 1))
    for _ in range(6):
        try:
            return _tril_inverse(np.linalg.cholesky(gram + jitter * np.eye(p)))
        except np.linalg.LinAlgError:
            jitter *= 100.0
    return None


class _KKT:
    """Per-iteration factorization of the reduced system.

    Builds the scaled constraint matrix Ghat (columns W a_r) so that
    phi = Ghat' Ghat is PSD by construction, and quadratic forms in phi^{-1}
    can be evaluated as explicit squared norms (they control the sign of the
    tau-step denominator and must never go negative through cancellation).
    """

    def __init__(self, core, scaling: _Scaling):
        self.core = core
        self.scaling = scaling
        Ac, psd_rows = core.Ac, core.psd_rows
        p = Ac.shape[0]
        n_orth, d = scaling.n_orth, scaling.d
        ghat = np.zeros((core.m_c, p))
        ghat[:n_orth, :] = Ac[:, :n_orth].T * scaling.w[:, None]
        if d and psd_rows.size:
            R = scaling.R
            congr = np.empty((psd_rows.size, d, d))
            for k, (I, J, v) in enumerate(core.psd_nonzeros):
                congr[k] = (R[I] * v[:, None]).T @ R[J]
            ghat[n_orth:, psd_rows] = _svec_batch(congr).T
        self.ghat = ghat
        phi = ghat.T @ ghat
        phi = 0.5 * (phi + phi.T)
        self.phi = phi
        scale = max(1.0, float(np.trace(phi)) / max(p, 1))
        shift = 0.0
        for attempt in range(8):
            try:
                chol = np.linalg.cholesky(phi + shift * np.eye(p))
                break
            except np.linalg.LinAlgError:
                shift = scale * 1e-14 * (100.0 ** attempt) if shift == 0.0 \
                    else shift * 100.0
        else:
            raise _NumericalFailure("KKT matrix could not be factorized")
        self.chol_inv = _tril_inverse(chol)
        Af = core.Af
        if Af.shape[1]:
            phi_inv_af = self._chol_solve(Af)
            self.schur_free = Af.T @ phi_inv_af
            self.phi_inv_af = phi_inv_af

    def awsq(self, v: np.ndarray) -> np.ndarray:
        """A_c (W'W) v, formed through the scaled matrix."""
        return self.ghat.T @ self.scaling.scale_z(v)

    def tau_denominator_part(self, b: np.ndarray) -> float:
        """b' phi^{-1} b + || (I - P) W c_c ||^2 with P the projector onto
        range(Ghat); both terms are squared norms, hence nonnegative."""
        t1 = self.chol_inv @ b
        chat = self.scaling.scale_z(self.core.cc)
        resid = chat - self.ghat @ self._chol_solve(self.ghat.T @ chat)
        return float(t1 @ t1 + resid @ resid)

    def _chol_solve(self, rhs):
        return self.chol_inv.T @ (self.chol_inv @ rhs)

    def saddle(self, u1: np.ndarray, u2: np.ndarray):
        """Solve [phi Af; Af' 0] [dy; dxf] = [u1; u2] with one refinement."""
        Af = self.core.Af
        dy, dxf = self._saddle_once(u1, u2)
        r1 = u1 - (self.phi @ dy + Af @ dxf)
        r2 = u2 - Af.T @ dy
        cy, cxf = self._saddle_once(r1, r2)
        return dy + cy, dxf + cxf

    def _saddle_once(self, u1, u2):
        Af = self.core.Af
        if Af.shape[1] == 0:
            return self._chol_solve(u1), np.zeros(0)
        t = self._chol_solve(u1)
        dxf = np.linalg.solve(self.schur_free, Af.T @ t - u2)
        dy = t - self.phi_inv_af @ dxf
        return dy, dxf


class _Core:
    def __init__(self, canon: _Canonical):
        self.c = canon.c
        self.A = canon.A
        self.b = canon.b
        self.f = canon.n_free
        self.n_orth = canon.n_orth
        self.d = canon.psd_dim
        self.m_c = self.n_orth + svec_dim(self.d)
        self.Af = self.A[:, : self.f]
        self.Ac = self.A[:, self.f:]
        self.cf = self.c[: self.f]
        self.cc = self.c[self.f:]
        # Each constraint matrix P_r of the PSD block as the coordinates
        # (I, J, v) of its nonzeros, both triangles, so that the congruence
        # R' P_r R = (R[I] * v)' R[J] costs 2 nnz(P_r) d^2 flops instead of
        # 4 d^3 (a Hankel row of an SOS program has at most d nonzeros).
        self.psd_nonzeros = []
        if self.d:
            psd_part = self.Ac[:, self.n_orth:]
            self.psd_rows = np.where(np.abs(psd_part).sum(axis=1) > 0.0)[0]
            iu0, iu1 = _triu(self.d)
            for r in self.psd_rows:
                k = np.flatnonzero(psd_part[r])
                i, j = iu0[k], iu1[k]
                off = i != j
                v = np.where(off, psd_part[r, k] / _SQRT2, psd_part[r, k])
                self.psd_nonzeros.append((np.concatenate([i, j[off]]),
                                          np.concatenate([j, i[off]]),
                                          np.concatenate([v, v[off]])))
        else:
            self.psd_rows = np.zeros(0, dtype=int)
        # Constant Gram factor of the cone columns, used to project the primal
        # defect out of recovered directions (the scaling-amplified noise in
        # dxc otherwise puts a floor on the primal residual).
        self.eq_gram_inv = _inverse_gram_factor(self.Ac)

    def project_primal_defect(self, dxc: np.ndarray, defect: np.ndarray) -> np.ndarray:
        """Least-squares correction of dxc so that Ac dxc absorbs `defect`."""
        if self.eq_gram_inv is None or defect.size == 0:
            return dxc
        t = self.eq_gram_inv.T @ (self.eq_gram_inv @ defect)
        return dxc + self.Ac.T @ t

    def polish(self, x: np.ndarray) -> np.ndarray:
        """Return the interior point x with its equality residual cleared.

        The cone part moves by the least-squares correction that absorbs
        b - A x, with orthant coordinate i weighted by min(x_i, 1): a
        coordinate near its bound moves in proportion to its value and keeps
        its sign. PSD coordinates have weight one; the correction is of the
        order of the residual, far inside the eigenvalue margin. The answer
        then meets A x = b to rounding, which certificates checked in badly
        scaled coordinates (monomial Gram matrices) depend on.
        """
        f, n = self.f, self.n_orth
        if self.b.size == 0:
            return x
        root = np.ones(self.m_c)
        root[:n] = np.sqrt(np.minimum(x[f:f + n], 1.0))
        scaled = self.Ac * root
        inv = _inverse_gram_factor(scaled)
        if inv is None:
            return x
        defect = self.b - self.Af @ x[:f] - self.Ac @ x[f:]
        out = x.copy()
        out[f:] += root * (scaled.T @ (inv.T @ (inv @ defect)))
        return out


def _solve_linear_only(data, tol: float):
    """No cone variables at all: plain equality-constrained linear objective."""
    c, A, b = data.c, data.A, data.b
    if A.shape[0] == 0:
        if np.all(c == 0.0):
            return "optimal", np.zeros(c.size), 0.0
        return "unbounded", None, 0.0
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.max(np.abs(A @ x - b), initial=0.0) > tol * (1.0 + np.max(np.abs(b), initial=0.0)):
        return "infeasible", None, 0.0
    y, *_ = np.linalg.lstsq(A.T, c, rcond=None)
    if np.max(np.abs(A.T @ y - c), initial=0.0) > tol * (1.0 + np.max(np.abs(c), initial=0.0)):
        return "unbounded", None, 0.0
    return "optimal", x, float(np.max(np.abs(A @ x - b), initial=0.0))


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
    if best is not None:
        _, _, gap, pres, it = best
        return _HsdResult("numerical-failure", None, None, gap, pres,
                          len(history) - 1, tuple(history), message)
    return _HsdResult("numerical-failure", None, None, math.inf, math.inf,
                      len(history) - 1, tuple(history), message)


def _solve_hsd(core: _Core, tol: float, max_iters: int, trace) -> _HsdResult:
    f, m_c, p = core.f, core.m_c, core.A.shape[0]
    nu = core.n_orth + core.d + 1

    x = np.zeros(f + m_c)
    x[f:] = _unit_cone(core)
    z = _unit_cone(core)
    y = np.zeros(p)
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

    for it in range(max_iters + 1):
        xc = x[f:]
        r_p = core.A @ x - core.b * tau
        r_d = -core.A.T @ y + core.c * tau
        r_d[f:] -= z
        r_g = core.b @ y - core.c @ x - kappa

        pobj = float(core.c @ x / tau)
        dobj = float(core.b @ y / tau)
        compl = float(xc @ z + tau * kappa)
        pres = float(np.max(np.abs(r_p), initial=0.0) / tau)
        dres = float(np.max(np.abs(r_d), initial=0.0) / tau)
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        record(it, pobj, dobj, compl, pres, dres)

        # Keep the best iterate: degenerate problems can destabilize right at
        # the end, and a late bad step must not discard a converged point.
        # Once the best iterate meets `tol`, iterate only while the merit
        # still improves: past that point the residuals have reached their
        # rounding floor and further steps shrink without gaining accuracy
        # (the final polish in `solve` clears the primal residual instead).
        merit = max(pres, dres, relgap)
        if merit < best_merit:
            best_merit = merit
            best = (x / tau, y / tau, abs(pobj - dobj), pres, it)
        elif best_merit <= tol:
            return _from_best(best, best_merit, tol, history,
                              "no further progress after convergence")
        if merit > 1e3 * best_merit:
            return _from_best(best, best_merit, tol, history,
                              "iterates diverged after best point")

        by = float(core.b @ y)
        if by > 0.0:
            cert = -core.A.T @ y
            cert[f:] -= z
            if np.max(np.abs(cert), initial=0.0) <= tol * by:
                return _HsdResult("infeasible", None, None, math.inf, pres, it,
                                  tuple(history), "primal infeasibility certificate found")
        cx = float(core.c @ x)
        if cx < 0.0:
            if np.max(np.abs(core.A @ x), initial=0.0) <= tol * (-cx):
                return _HsdResult("unbounded", None, None, math.inf, pres, it,
                                  tuple(history), "unboundedness certificate found")

        if it == max_iters:
            break

        try:
            scal = _Scaling(core.n_orth, core.d, xc, z)
            kkt = _KKT(core, scal)
        except (np.linalg.LinAlgError, _NumericalFailure) as exc:
            return _from_best(best, best_merit, tol, history,
                              f"scaling/factorization failed: {exc}")

        mu = compl / nu

        u1_tau = kkt.awsq(core.cc) + core.b
        u2_tau = core.cf
        dy1, dxf1 = kkt.saddle(u1_tau, u2_tau)
        dxc1 = scal.wsq_apply(core.Ac.T @ dy1 - core.cc)
        dxc1 = core.project_primal_defect(
            dxc1, core.b - core.Af @ dxf1 - core.Ac @ dxc1)
        if f == 0:
            val1 = kkt.tau_denominator_part(core.b)
        else:
            val1 = float(core.b @ dy1 - core.cf @ dxf1 - core.cc @ dxc1)
        denom = val1 + kappa / tau
        if not np.isfinite(denom) or denom <= 0.0:
            return _from_best(best, best_merit, tol, history,
                              "degenerate step equation")

        def direction(eta, d_c, d_tk):
            g = scal.jordan_div(d_c)
            w1 = scal.winv_apply(g) - eta * r_d[f:]
            u1 = -eta * r_p - kkt.awsq(w1)
            u2 = eta * r_d[:f]
            dy0, dxf0 = kkt.saddle(u1, u2)
            dxc0 = scal.wsq_apply(core.Ac.T @ dy0 + w1)
            dxc0 = core.project_primal_defect(
                dxc0, -eta * r_p - core.Af @ dxf0 - core.Ac @ dxc0)
            val0 = float(core.b @ dy0 - core.cf @ dxf0 - core.cc @ dxc0)
            dtau = (-eta * r_g + d_tk / tau - val0) / denom
            dy = dy0 + dtau * dy1
            dxf = dxf0 + dtau * dxf1
            dxc = dxc0 + dtau * dxc1
            dz = -core.Ac.T @ dy + core.cc * dtau + eta * r_d[f:]
            dkappa = (d_tk - kappa * dtau) / tau
            return dxf, dxc, dy, dz, dtau, dkappa

        def max_step(dxc, dz, dtau, dkappa):
            alpha = scal.max_step(scal.scale_x(dxc))
            alpha = min(alpha, scal.max_step(scal.scale_z(dz)))
            if dtau < 0.0:
                alpha = min(alpha, tau / -dtau)
            if dkappa < 0.0:
                alpha = min(alpha, kappa / -dkappa)
            return alpha

        # Predictor (affine) step.
        d_aff = direction(1.0, -scal.lam_sq(), -tau * kappa)
        alpha_aff = min(1.0, max_step(d_aff[1], d_aff[3], d_aff[4], d_aff[5]))
        mu_aff = (
            (xc + alpha_aff * d_aff[1]) @ (z + alpha_aff * d_aff[3])
            + (tau + alpha_aff * d_aff[4]) * (kappa + alpha_aff * d_aff[5])
        ) / nu
        sigma = min(max((mu_aff / mu) ** 3, 1e-8), 1.0 - 1e-8)

        # Combined centering-corrector step.
        corr = scal.jordan_mul(scal.scale_x(d_aff[1]), scal.scale_z(d_aff[3]))
        d_c = sigma * mu * scal.unit() - scal.lam_sq() - corr
        d_tk = sigma * mu - tau * kappa - d_aff[4] * d_aff[5]
        dxf, dxc, dy, dz, dtau, dkappa = direction(1.0 - sigma, d_c, d_tk)

        alpha = min(1.0, _STEP_FRACTION * max_step(dxc, dz, dtau, dkappa))
        if alpha < _MIN_STEP:
            return _from_best(best, best_merit, tol, history,
                              "step length collapsed")

        x[:f] += alpha * dxf
        x[f:] += alpha * dxc
        y += alpha * dy
        z += alpha * dz
        tau += alpha * dtau
        kappa += alpha * dkappa
        step_taken = alpha

    return _from_best(best, best_merit, tol, history, "iteration limit reached")


def _unit_cone(core: _Core) -> np.ndarray:
    e = np.ones(core.m_c)
    if core.d:
        e[core.n_orth:] = svec(np.eye(core.d))
    return e


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def solve(problem: ConicProblem, tol: float = DEFAULT_TOL,
          max_iters: int = DEFAULT_MAX_ITERS, trace=None) -> ConicSolution:
    """Solve a conic problem; see the module docstring for the form.

    Returns a ``ConicSolution`` whose status is one of ``optimal``,
    ``infeasible``, ``unbounded`` or ``numerical-failure``. An ``optimal``
    result is the best iterate, polished to clear its equality residual, and
    has passed an independent post-hoc residual check; a numerical failure
    reports the final residuals instead of a doubtful answer.
    """
    problem.validate()
    canon = _Canonical(problem)
    red = _FacialReduction(canon)
    if red.infeasible_row is not None:
        return ConicSolution("infeasible", None, None, math.inf, math.inf, 0,
                             message="a pinned PSD face contradicts an equality")
    core = _Core(red)

    if core.m_c == 0:
        status, x_hat, pres = _solve_linear_only(red, tol)
        if status != "optimal":
            return ConicSolution(status, None, None, math.inf, math.inf, 0)
        x = canon.recover_x(red.expand_x(x_hat))
        return ConicSolution("optimal", x, float(problem.c @ x + problem.offset),
                             0.0, pres, 0)

    res = _solve_hsd(core, tol, max_iters, trace)

    if res.status == "optimal":
        x_hat = core.polish(res.x_hat)
        x = canon.recover_x(red.expand_x(x_hat))
        y_full = red.expand_y(res.y_hat, canon.A.shape[0])
        return _finalize_optimal(problem, canon, res, x, y_full, tol)
    gap = res.gap if np.isfinite(res.gap) else math.inf
    return ConicSolution(res.status, None, None, gap, res.pres, res.iterations,
                         message=res.message, history=res.history)


def _finalize_optimal(problem, canon, res, x, y_full, tol):
    eq_residual = float(np.max(np.abs(problem.A @ x - problem.b), initial=0.0))
    objective = float(problem.c @ x + problem.offset)
    d = problem.psd_dim
    min_eig = None
    checks_ok = eq_residual <= tol * (1.0 + np.max(np.abs(problem.b), initial=0.0)) * 1.01
    ns = problem.n_scalars
    nn, nb = problem.n_nonneg, problem.n_box
    if nn:
        lo = float(np.min(x[problem.n_free: problem.n_free + nn]))
        checks_ok &= lo >= -1e-9
    if nb:
        seg = x[problem.n_free + nn: ns]
        checks_ok &= bool(np.all(seg >= problem.box_lo - 1e-9))
        checks_ok &= bool(np.all(seg <= problem.box_hi + 1e-9))
    if d:
        eigs = np.linalg.eigvalsh(smat(x[ns:], d))
        min_eig = float(eigs[0])
        checks_ok &= min_eig >= -1e-9 * (1.0 + float(eigs[-1]))
    if not checks_ok:
        return ConicSolution(
            "numerical-failure", None, None, res.gap, eq_residual, res.iterations,
            message="post-hoc constraint check failed", history=res.history)
    return ConicSolution(
        "optimal", x, objective, res.gap, eq_residual, res.iterations,
        psd_min_eig=min_eig, y=canon.sign * y_full[: canon.p_orig],
        message=res.message, history=res.history)

