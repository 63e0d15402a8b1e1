"""Primal active-set solver for the simplex-constrained subproblem QP

    min over (omega, gamma):
        1/2 (G w + gamma)' W (G w + gamma) - b'w + delta ||gamma||_1
        s.t. 1'w = 1, w >= 0.

The working set is the support S of omega plus a sign state in {-1, 0, +1}
per gamma coordinate.  Each pivot solves the bordered equality-constrained
KKT system on the working set, takes a blocking-limited segment toward the
target, and either drops the blocking index or checks optimality and adds
the single most violated index.  Every solve starts cold from the column
with the smallest diagonal of G'WG; no state carries over between solves.

Each pivot factors its bordered matrix once, by LAPACK ``dgetrf`` from
scipy, and makes the first solve and three refinement solves with ``dgetrs``
on that factor.  A singular factor or a non-finite solution raises
``DasError``; there is no least-squares fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf as _getrf, dgetrs as _getrs

from .subproblem import SubproblemData, compute_kkt_residual


class DasError(RuntimeError):
    """Pivot cap exceeded without reaching the requested KKT tolerance, or a
    working-set KKT matrix that cannot be solved."""


@dataclass
class DasState:
    """Working set and iterate of one solve.  G, WG, K and b are borrowed
    from the subproblem and never written."""
    G: np.ndarray
    WG: np.ndarray
    K: np.ndarray  # G'WG
    b: np.ndarray
    delta: float
    qn: object
    S: list[int]
    gamma_sign: np.ndarray  # (n,) in {-1, 0, +1}
    omega: np.ndarray
    gamma: np.ndarray
    _wd: np.ndarray | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.G.shape[1]

    @property
    def n(self) -> int:
        return self.G.shape[0]

    def dense_W(self) -> np.ndarray:
        if self._wd is None:
            self._wd = self.qn.dense_W()
        return self._wd


@dataclass
class DasSolution:
    omega: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    u: float
    d: np.ndarray  # -W (G omega + gamma)
    kkt_residual: float
    iterations: int


def _init_state(data: SubproblemData) -> DasState:
    K = data.gtwg
    j0 = int(np.argmin(np.diag(K)))
    omega = np.zeros(data.m)
    omega[j0] = 1.0
    return DasState(G=data.G, WG=data.wg, K=K, b=data.b,
                    delta=data.delta, qn=data.qn,
                    S=[j0], gamma_sign=np.zeros(data.n, dtype=int),
                    omega=omega, gamma=np.zeros(data.n))


def _solve_eqp(st: DasState, S: list[int], F: np.ndarray, pivot: int):
    """Bordered KKT solve on the working set: unknowns (omega_S, gamma_F, mult)."""
    s, f = len(S), F.size
    dim = s + f + 1
    M = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    M[:s, :s] = st.K[np.ix_(S, S)]
    rhs[:s] = st.b[S]
    if f:
        B = st.WG[np.ix_(F, S)]
        M[s:s + f, :s] = B
        M[:s, s:s + f] = B.T
        M[s:s + f, s:s + f] = st.dense_W()[np.ix_(F, F)]
        rhs[s:s + f] = -st.delta * st.gamma_sign[F]
    M[:s, -1] = 1.0
    M[-1, :s] = 1.0
    rhs[-1] = 1.0
    # The Hessian block is a Gram matrix and can be singular when s + f > n.
    # A tiny proximal term makes the minimizer unique, which keeps a
    # just-freed variable's target on its feasible side (anti-cycling);
    # iterative refinement against the unregularized system then removes
    # the proximal bias from the returned solution.  One LU factor of the
    # regularized matrix serves the first solve and all three refinements.
    reg = 1e-11 * max(1.0, float(np.trace(M[:s + f, :s + f])) / max(1, s + f))
    M_reg = M.copy()
    M_reg[np.arange(s + f), np.arange(s + f)] += reg
    # M is exactly symmetric (G'WG and W are), so its transpose is the same
    # matrix, already in LAPACK's column-major layout: getrf copies nothing.
    lu, piv, info = _getrf(M_reg.T, overwrite_a=1)
    if info == 0:
        sol = _getrs(lu, piv, rhs)[0]
        for _ in range(3):
            sol = sol + _getrs(lu, piv, rhs - M @ sol)[0]
        if np.all(np.isfinite(sol)):
            return sol[:s], sol[s:s + f], float(sol[-1])
    raise DasError(f"pivot {pivot}: the KKT matrix of a working set of {s} "
                   f"omega and {f} gamma indices is singular or gives a "
                   "non-finite solution")


def _w_times_model(st: DasState) -> np.ndarray:
    """W (G omega + gamma) at the current working point."""
    wm = st.WG @ st.omega
    F = np.flatnonzero(st.gamma_sign)
    if F.size:
        wm = wm + st.dense_W()[:, F] @ st.gamma[F]
    return wm


def solve_das(data: SubproblemData, tol: float = 1e-8,
              max_iterations: int | None = None) -> DasSolution:
    st = _init_state(data)
    m, n = st.m, st.n
    cap = max_iterations if max_iterations is not None else 100 * (m + 2 * n)
    iterations = 0
    # Anti-cycling at numerical noise level: an index dropped by a
    # zero-length blocking step is barred from re-entry until the objective
    # makes measurable progress.
    banned: set[tuple[str, int]] = set()
    q_ref = np.inf

    for _ in range(cap):
        iterations += 1
        S = st.S
        F = np.flatnonzero(st.gamma_sign)
        t_omega, t_gamma, u_eqp = _solve_eqp(st, S, F, iterations)

        # blocking ratio toward the target along the segment
        alpha = 1.0
        block = None  # ("omega", j) or ("gamma", i)
        cur_w = st.omega[S]
        for idx, j in enumerate(S):
            if t_omega[idx] < -1e-14:
                a = cur_w[idx] / (cur_w[idx] - t_omega[idx])
                if a < alpha:
                    alpha, block = a, ("omega", j)
        cur_g = st.gamma[F]
        for idx, i in enumerate(F):
            if t_gamma[idx] * st.gamma_sign[i] < -1e-14:
                a = cur_g[idx] / (cur_g[idx] - t_gamma[idx])
                if a < alpha:
                    alpha, block = a, ("gamma", int(i))

        if block is not None:
            st.omega[S] = cur_w + alpha * (t_omega - cur_w)
            st.gamma[F] = cur_g + alpha * (t_gamma - cur_g)
            kind, idx = block
            if kind == "omega":
                st.S = [j for j in S if j != idx]
                st.omega[idx] = 0.0
            else:
                st.gamma_sign[idx] = 0
                st.gamma[idx] = 0.0
            if alpha <= 1e-12:
                banned.add(block)
            q = -dual_objective_from_state(st, _w_times_model(st))
            if q < q_ref - 1e-13 * max(1.0, abs(q_ref)):
                banned.clear()
                q_ref = q
            continue

        st.omega[S] = t_omega
        if F.size:
            st.gamma[F] = t_gamma
        wm = _w_times_model(st)
        q = -dual_objective_from_state(st, wm)
        if q < q_ref - 1e-13 * max(1.0, abs(q_ref)):
            banned.clear()
            q_ref = q

        # optimality check at the working-set solution
        grad = st.G.T @ wm - st.b
        u = -u_eqp
        v_omega = grad - u
        v_omega_masked = v_omega.copy()
        v_omega_masked[S] = np.inf
        for kind, idx in banned:
            if kind == "omega":
                v_omega_masked[idx] = np.inf
        worst_omega = float(np.min(v_omega_masked)) if m > len(S) else np.inf
        free_mask = st.gamma_sign == 0
        box = st.delta - np.abs(wm)
        box_masked = np.where(free_mask, box, np.inf)
        for kind, idx in banned:
            if kind == "gamma":
                box_masked[idx] = np.inf
        worst_gamma = float(np.min(box_masked)) if free_mask.any() else np.inf
        worst = min(worst_omega, worst_gamma)
        if worst >= -0.5 * tol:
            sigma = np.maximum(st.gamma, 0.0)
            rho = np.maximum(-st.gamma, 0.0)
            d = -st.qn.apply_W(st.G @ st.omega + st.gamma)
            res = compute_kkt_residual(data, st.omega, sigma, rho, u, d)
            return DasSolution(st.omega.copy(), st.gamma.copy(), sigma, rho, u,
                               d, res, iterations)
        if worst_omega <= worst_gamma:
            j_new = int(np.argmin(v_omega_masked))
            st.S = S + [j_new]
        else:
            i_new = int(np.argmin(box_masked))
            st.gamma_sign[i_new] = -int(np.sign(wm[i_new]))

    raise DasError(f"active-set pivot cap {cap} exceeded")


def dual_objective_from_state(st: DasState, r_w: np.ndarray) -> float:
    """Dual objective at the state's working point, given
    r_w = ``_w_times_model(st)``."""
    r = st.G @ st.omega + st.gamma
    return float(-0.5 * r @ r_w + st.b @ st.omega
                 - st.delta * np.sum(np.abs(st.gamma)))
