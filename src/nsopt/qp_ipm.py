"""Mehrotra-style predictor-corrector interior-point solver for

    min over theta:  1/2 theta' Q theta + c' theta
    s.t.  A theta = b,  theta >= 0,

where A is a single row.  The subproblem driver first attempts the
omega-only instance (trust region ignored) and falls back to the full
instance with theta = (omega, sigma, rho) when the trust region is active.
The full instance is solved from its own starting point, whatever the
omega-only attempt found, so an attempt that is going to fail can be cut
short without changing the solution.  The attempt looks at the box once, at
its first iterate with a residual at most 1, with one W-vector product
(``SubproblemData.model_step``, which forms no W G): if W G omega (omega the
iterate scaled onto the simplex) leaves the box by more than 1% of delta,
the attempt is abandoned there.  On 330
generator instances (n = 20 to 200, m = n + 1 to 2n) the box test at the
end never disagreed with that look, and the look saved 76% of the
attempt's iterations where the box binds.

The predictor and corrector share one factorization of the reduced KKT
matrix K = [-(Q + D), A; A', 0], D = diag(v / theta), per iteration.  Q is
positive semidefinite and D positive, so Q + D is factored by Cholesky and the
simplex row is solved through the 1x1 Schur complement A'(Q + D)^-1 A, as in
structure-exploiting interior-point codes (Gertz & Wright 2003).

On the full path Q sees sigma and rho only through gamma = sigma - rho, the
free variable split in two.  Adding the sigma rows to the rho rows of
(Q + D) x = r eliminates both exactly, as OOQP does for a split free
variable: what is left to factor is Q's leading (m + n) block, over
(omega, gamma), plus diag(d_omega, d_sigma d_rho / (d_sigma + d_rho)), and

    x_sigma = (r_sigma + r_rho + d_rho gamma) / (d_sigma + d_rho),
    x_rho   = (r_sigma + r_rho - d_sigma gamma) / (d_sigma + d_rho).

Neither is recovered from the other through gamma: when one side sits at its
bound, x_sigma - gamma cancels and the core stalls above its tolerance.  The
full instance holds only that block, once and C-ordered: no (m + 2n) Q is
formed.  The residuals, the step sizes and the refinement multiply by Q
through the block, since Q's sigma and rho rows and columns are its gamma
rows and columns and their negatives, and each factorization starts from a
copy of it.  The omega-only instance is the one with no split: its block
is all of Q, and the same formulas, over no (sigma, rho), do the
arithmetic of an unsplit solve, at the cost of two O(m) copies per product
or solve.  When rounding leaves the factored matrix numerically
indefinite, the factorization is retried once with d shifted by 1e-12 max(1,
max diag Q), read off the block, which shifts the factored diagonal by
between half that and that; if it fails again, ``IpmError`` is raised.  The
factorization (``dpotrf``), the triangular solves (``dtrsv``) and every
product with Q (``dgemv``) use scipy's BLAS and LAPACK: numpy loads an
OpenBLAS of its own, and an iteration that switched between the two would
keep both libraries' thread pools spinning.  Step sizes follow a
two-segment merit-function search bounded by the fraction-to-the-boundary
rule: a common primal/dual step is optimized first, then the remaining
slack in whichever bound is looser.

The solve records no per-iteration history.  Its solution is the
subproblem's ``QpSolution`` (``SubproblemData.solution``): the iterate, the
step d = -W (G omega + gamma), the G omega that step was formed from, the
metric update's hint and the KKT residual, with which path solved it and a
count of factorizations.  ``merit`` and ``_plugback_residual`` evaluate the
merit function at an iterate and the residual of a Newton step, for checks
made from outside the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv as _gemv, dtrsv as _trsv
from scipy.linalg.lapack import dpotrf as _potrf

from .subproblem import QpSolution, SubproblemData

_BETA_FTB = 0.995
_MU0 = 0.5
_ZETA_MU_FLOOR = 1e-12
# Core iterations before the soft tolerance is tried and IpmError raised.
_MAX_ITERATIONS = 200
# The omega-only attempt looks at the box once, at its first iterate with a
# residual at most _PEEK_RESIDUAL, and is abandoned if the iterate's
# W G omega already leaves the box by more than _PEEK_MARGIN relative.
_PEEK_RESIDUAL = 1.0
_PEEK_MARGIN = 1e-2


class IpmError(RuntimeError):
    """Iteration cap hit before the residual tolerance was met, or the
    reduced KKT system could not be factored even after the diagonal shift."""


@dataclass
class QpData:
    Q: np.ndarray  # with a split, only its C-ordered (omega, gamma) block
    c: np.ndarray
    A: np.ndarray  # single constraint row, stored as a vector
    b: float = 1.0
    # n when theta ends with (sigma, rho), n each, that Q sees only through
    # sigma - rho: the factor then eliminates them (see the module docstring)
    split: int = 0

    @property
    def size(self) -> int:
        return self.c.size

    def times(self, x: np.ndarray) -> np.ndarray:
        """Q x.  Q's sigma and rho columns are its gamma columns and their
        negatives, and so are its rows, so Q x is the block times
        (x_omega, x_sigma - x_rho), its gamma rows repeated with the
        opposite sign; with no split, the block times x."""
        k = self.size - self.split
        m = k - self.split
        y = x[:k].copy()
        y[m:] -= x[k:]
        top = _q_times(self.Q, y)
        return np.concatenate((top, -top[m:]))


@dataclass
class IpmDiagnostics:
    factorizations: int = 0


@dataclass
class IpmCoreResult:
    theta: np.ndarray
    u: float
    v: np.ndarray
    residual: float
    iterations: int
    diagnostics: IpmDiagnostics


@dataclass(kw_only=True)
class IpmSolution(QpSolution):
    """A solve's ``QpSolution``, which path solved it and its count of
    factorizations."""
    omega_only: bool
    diagnostics: IpmDiagnostics


class CholeskySchurFactor:
    """Solves with K = [-P, A; A', 0] for positive definite P = Q + diag(d),
    Q and A those of ``qp``.

    With z = P^-1 A and the Schur complement A'z, the solution of
    K (x, y) = (r1, r2) is y = (r2 + A'P^-1 r1) / A'z, x = z y - P^-1 r1.
    P^-1 is applied by eliminating the trailing split (sigma, rho) pairs
    and factoring only the block ``qp`` holds (see the module docstring);
    with no split that block is all of Q.  Raises ``LinAlgError`` when the
    factored matrix is not numerically positive definite.
    """

    def __init__(self, qp: QpData, d: np.ndarray):
        split, A = qp.split, qp.A
        P = qp.Q.copy()
        k = P.shape[0]  # order of the factored block
        m = k - split
        diag = P.ravel()[::k + 1]
        self._ds, self._dr = d[m:k], d[k:]
        self._dsum = self._ds + self._dr
        diag[:m] += d[:m]
        diag[m:] += self._ds * self._dr / self._dsum
        # P' is P up to rounding and already in LAPACK's column-major layout
        self.chol, info = _potrf(P.T, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError("Q + D is not positive definite")
        self.qp, self.d, self.A, self.split = qp, d, A, split
        self.z = self._cho_solve(A)
        self.schur = float(A @ self.z)
        if not (np.isfinite(self.schur) and self.schur > 0.0):
            raise np.linalg.LinAlgError("nonpositive Schur complement")

    def _cho_solve(self, b: np.ndarray) -> np.ndarray:
        k = b.size - self.split
        m = k - self.split
        b_sigma, b_rho = b[m:k], b[k:]
        reduced = np.empty(k)
        reduced[:m] = b[:m]
        reduced[m:] = (self._dr * b_sigma - self._ds * b_rho) / self._dsum
        y = self._tri_solve(reduced)
        gamma, total = y[m:], b_sigma + b_rho
        out = np.empty(b.size)
        out[:m] = y[:m]
        out[m:k] = (total + self._dr * gamma) / self._dsum
        out[k:] = (total - self._ds * gamma) / self._dsum
        return out

    def _tri_solve(self, b: np.ndarray) -> np.ndarray:
        # two triangular solves; cheaper than potrs for a single vector
        return _trsv(self.chol, _trsv(self.chol, b, lower=1), lower=1, trans=1)

    def solve_refined(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with one step of iterative refinement (same factorization)."""
        x = self.solve(rhs)
        return x + self.solve(rhs - self._matvec(x))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = np.empty(rhs.size)
        w = self._cho_solve(rhs[:-1])
        y = (rhs[-1] + float(self.A @ w)) / self.schur
        np.subtract(self.z * y, w, out=out[:-1])
        out[-1] = y
        return out

    def _matvec(self, sol: np.ndarray) -> np.ndarray:
        x = sol[:-1]
        out = np.empty(sol.size)
        out[:-1] = self.A * sol[-1] - self.qp.times(x) - self.d * x
        out[-1] = self.A @ x
        return out


def merit(qp: QpData, theta: np.ndarray, u: float, v: np.ndarray) -> float:
    r_d, r_p, _ = residuals(qp, theta, u, v)
    return _merit_of(theta, v, r_d, r_p)


def _merit_of(theta: np.ndarray, v: np.ndarray, r_d: np.ndarray,
              r_p: float) -> float:
    """Squared primal and dual residuals plus complementarity."""
    return r_p * r_p + float(r_d @ r_d) + float(theta @ v)


def _q_times(Q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q x by scipy's ``dgemv``.  A C-ordered Q is its transpose in BLAS's
    column-major layout, so nothing is copied, and the transposed product
    sums in the same order as numpy's ``Q @ x``."""
    return _gemv(1.0, Q.T, x, trans=1)


def residuals(qp: QpData, theta: np.ndarray, u: float, v: np.ndarray):
    r_d = qp.times(theta) + qp.c - qp.A * u - v
    r_p = qp.b - float(qp.A @ theta)
    r_c = -theta * v
    return r_d, r_p, r_c


def _fraction_to_boundary(x: np.ndarray, dx: np.ndarray) -> float:
    ratio = (-dx / (_BETA_FTB * x)).max(initial=1.0)
    return 1.0 / ratio


def _box_free_qp(P: np.ndarray, q: np.ndarray, lo: float, hi: float):
    """Minimize 1/2 x'Px + q'x with x1 in [lo, hi] and x2 free.

    Candidate-based: the reduced-in-x1 stationary point (when defined) plus
    the endpoints and zero, so indefinite P degrades gracefully.
    """
    (p11, p12), (_, p22) = P
    q1, q2 = q
    candidates = [lo, hi]
    if lo < 0.0 < hi:
        candidates.append(0.0)
    if p22 > 0.0:
        a = p11 - p12 * p12 / p22
        lin = q1 - p12 * q2 / p22
    else:
        a, lin = p11, q1
    if a > 0.0:
        candidates.append(min(max(-lin / a, lo), hi))
    best = None  # (objective, x1, x2), first minimizer wins ties
    for x1 in candidates:
        x2 = -(q2 + p12 * x1) / p22 if p22 > 0.0 else 0.0
        val = (0.5 * (p11 * x1 * x1 + 2.0 * p12 * x1 * x2 + p22 * x2 * x2)
               + q1 * x1 + q2 * x2)
        if best is None or val < best[0]:
            best = (val, x1, x2)
    return best[1], best[2]


def step_sizes(qp: QpData, theta, u, v, r_p, r_d, dtheta, du, dv):
    """Two-segment merit search bounded by fraction-to-the-boundary."""
    q_dtheta = qp.times(dtheta)
    a_theta = _fraction_to_boundary(theta, dtheta)
    a_v = _fraction_to_boundary(v, dv)
    a_bar = min(a_theta, a_v)

    # Rows r, s, o, p of the residual r + at s + au o + av p, extended by
    # the primal row in front; X X' gives every inner product at once.
    X = np.empty((4, theta.size + 1))
    X[:, 0] = (r_p, -float(qp.A @ dtheta), 0.0, 0.0)
    X[0, 1:] = r_d
    X[1, 1:] = q_dtheta
    np.multiply(qp.A, -du, out=X[2, 1:])
    np.negative(dv, out=X[3, 1:])
    gram = X @ X.T
    (_, rs, ro, rp), (_, ss, so, sp), (_, _, oo, op), (_, _, _, pp) = gram.tolist()
    dtv = float(dtheta @ dv)
    th_dv = float(theta @ dv)
    dth_v = float(dtheta @ v)
    th_v = float(theta @ v)

    def phi(at: float, au: float, av: float) -> float:
        c = np.array([1.0, at, au, av])
        return (float(c @ gram @ c) + th_v + av * th_dv + at * dth_v
                + at * av * dtv)

    # segment 1: equal primal/dual step in [0, a_bar], multiplier step free
    # (s + p is the combined direction of the common step)
    P1 = ((ss + 2.0 * sp + pp + dtv, so + op), (so + op, oo))
    q1 = (rs + rp + 0.5 * (dth_v + th_dv), ro)
    at1, au1 = _box_free_qp(P1, q1, 0.0, a_bar)
    cand1 = (at1, au1, at1)

    # segment 2: push the looser of the two bounds past a_bar
    if a_theta <= a_v:
        P2 = ((pp, op), (op, oo))
        q2 = (rp + 0.5 * th_dv + a_theta * (sp + 0.5 * dtv), ro + a_theta * so)
        av2, au2 = _box_free_qp(P2, q2, a_bar, a_v)
        cand2 = (a_theta, au2, av2)
    else:
        P2 = ((ss, so), (so, oo))
        q2 = (rs + 0.5 * dth_v + a_v * (sp + 0.5 * dtv), ro + a_v * op)
        at2, au2 = _box_free_qp(P2, q2, a_bar, a_theta)
        cand2 = (at2, au2, a_v)

    return min(cand1, cand2, key=lambda c: phi(*c))


def _factorize(qp: QpData, theta: np.ndarray, v: np.ndarray,
               diagnostics: IpmDiagnostics) -> CholeskySchurFactor:
    d = v / theta
    diagnostics.factorizations += 1
    try:
        return CholeskySchurFactor(qp, d)
    except np.linalg.LinAlgError:
        pass
    # one-shot diagonal shift; refinement then works against the shifted matrix
    tau = 1e-12 * max(1.0, float(np.diag(qp.Q).max()))
    try:
        return CholeskySchurFactor(qp, d + tau)
    except np.linalg.LinAlgError as exc:
        raise IpmError(f"reduced KKT system not factorizable: {exc}") from None


def _newton_step(factor: CholeskySchurFactor, theta, v, r_d, r_p, r_c):
    rhs = np.concatenate([r_d - r_c / theta, [r_p]])
    sol = factor.solve_refined(rhs)
    dtheta = sol[:-1]
    du = float(sol[-1])
    dv = (r_c - v * dtheta) / theta
    return dtheta, du, dv


def _whole_q(qp: QpData) -> np.ndarray:
    """All of Q, expanded from the block: Q's sigma and rho rows and columns
    are its gamma ones and their negatives."""
    B = qp.Q
    m = B.shape[0] - qp.split
    return np.block([[B, -B[:, m:]], [-B[m:], B[m:, m:]]])


def _plugback_residual(qp, theta, v, dtheta, du, dv, r_d, r_p, r_c) -> float:
    """Relative residual of the full unreduced Newton system, multiplied
    out with all of Q rather than through ``QpData.times``."""
    row1 = -(_whole_q(qp) @ dtheta) + qp.A * du + dv - r_d
    row2 = float(qp.A @ dtheta) - r_p
    row3 = v * dtheta + theta * dv - r_c
    num = max(np.abs(row1).max(initial=0.0), abs(row2),
              np.abs(row3).max(initial=0.0))
    den = max(1.0, np.abs(r_d).max(initial=0.0), abs(r_p),
              np.abs(r_c).max(initial=0.0))
    return num / den


def solve_ipm_core(qp: QpData, theta: np.ndarray, u: float, v: np.ndarray,
                   tol: float = 1e-8, soft_tol: float | None = None,
                   look=None, delta: float = 0.0) -> IpmCoreResult | None:
    """The core iteration from (theta, u, v).  Given ``look``, which maps
    the omega of an omega-only instance to W G omega, the core looks at the
    box once, at its first iterate with a residual at most _PEEK_RESIDUAL,
    and returns None there when W G omega, omega the iterate scaled onto the
    simplex, leaves the box |.| <= ``delta`` by more than _PEEK_MARGIN
    relative."""
    theta = np.asarray(theta, dtype=float).copy()
    v = np.asarray(v, dtype=float).copy()
    if np.any(theta <= 0.0) or np.any(v <= 0.0):
        raise ValueError("initial point must be strictly interior")
    ell = qp.size
    diag = IpmDiagnostics()
    best = None  # (residual, theta, u, v, iteration)

    for it in range(_MAX_ITERATIONS + 1):
        r_d, r_p, r_c = residuals(qp, theta, u, v)
        res = max(np.abs(r_d).max(), abs(r_p), np.abs(r_c).max())
        if best is None or res < best[0]:
            best = (res, theta, u, v, it)  # iterates are never modified in place
        if res <= tol:
            return IpmCoreResult(theta, u, v, float(res), it, diag)
        if it == _MAX_ITERATIONS:
            break
        if look is not None and res <= _PEEK_RESIDUAL:
            step = look(theta / theta.sum())
            if float(np.max(np.abs(step))) > (1.0 + _PEEK_MARGIN) * delta:
                return None
            look = None  # one look only

        factor = _factorize(qp, theta, v, diag)
        dtheta_p, du_p, dv_p = _newton_step(factor, theta, v, r_d, r_p, r_c)
        at_p, _, av_p = step_sizes(qp, theta, u, v, r_p, r_d,
                                   dtheta_p, du_p, dv_p)
        mu = float(theta @ v) / ell
        zeta = (float((theta + at_p * dtheta_p) @ (v + av_p * dv_p))
                / (ell * mu)) ** 3
        zeta = max(zeta, _ZETA_MU_FLOOR / mu)
        r_c_corr = r_c + zeta * mu
        dtheta, du, dv = _newton_step(factor, theta, v, r_d, r_p, r_c_corr)
        at, au, av = step_sizes(qp, theta, u, v, r_p, r_d, dtheta, du, dv)
        theta = theta + at * dtheta
        u = u + au * du
        v = v + av * dv

    if soft_tol is not None and best[0] <= soft_tol:
        res, theta, u, v, it = best
        return IpmCoreResult(theta, u, v, float(res), it, diag)
    raise IpmError(f"no convergence in {_MAX_ITERATIONS} iterations "
                   f"(best residual {best[0]:.3e})")


def _initial_sigma_rho(w: np.ndarray, delta: float):
    sigma = np.full(w.size, 0.1)
    rho = np.full(w.size, 0.1)
    low = w < -delta
    high = w > delta
    sigma[low] = np.maximum(0.1, delta - w[low])
    rho[high] = np.maximum(0.1, -delta - w[high])
    return sigma, rho


def solve_ipm(data: SubproblemData, tol: float = 1e-8) -> IpmSolution:
    """Trust-region-aware driver around the core iteration.

    The core runs at a tolerance one decade tighter than requested so that
    the reconstructed KKT residual of the original subproblem still clears
    ``tol``; the requested value acts as a soft fallback at the cap.
    """
    m, n = data.m, data.n
    core_tol = 0.1 * tol

    omega0 = np.full(m, 1.0 / m)
    v0 = np.full(m, _MU0 * m)
    qp_small = QpData(Q=data.gtwg, c=-data.b, A=np.ones(m))
    core = solve_ipm_core(qp_small, omega0, 0.0, v0, tol=core_tol, soft_tol=tol,
                          look=lambda omega: data.model_step(omega)[0],
                          delta=data.delta)
    if core is not None:
        omega = core.theta
        step = data.model_step(omega)
        if np.max(np.abs(step[0])) <= data.delta:
            zeros = np.zeros(n)
            return data.solution("ipm", omega, zeros, zeros.copy(), zeros.copy(),
                                 core.u, core.iterations, step, IpmSolution,
                                 omega_only=True, diagnostics=core.diagnostics)

    wg = data.wg
    Q = np.block([[data.gtwg, wg.T], [wg, data.dense_w]])
    c = np.concatenate([-data.b, np.full(n, data.delta), np.full(n, data.delta)])
    A = np.concatenate([np.ones(m), np.zeros(2 * n)])
    qp_full = QpData(Q=Q, c=c, A=A, split=n)

    w = wg @ omega0
    sigma0, rho0 = _initial_sigma_rho(w, data.delta)
    theta0 = np.concatenate([omega0, sigma0, rho0])
    v_full0 = np.concatenate([v0, _MU0 / sigma0, _MU0 / rho0])
    core = solve_ipm_core(qp_full, theta0, 0.0, v_full0, tol=core_tol,
                          soft_tol=tol)
    sigma, rho = core.theta[m:m + n], core.theta[m + n:]
    return data.solution("ipm", core.theta[:m], sigma - rho, sigma, rho,
                         core.u, core.iterations, cls=IpmSolution,
                         omega_only=False, diagnostics=core.diagnostics)
