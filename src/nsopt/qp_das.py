"""Active-set method on the dual subproblem in (omega, gamma), the
simplex-constrained QP

    min over (omega, gamma):
        1/2 (G w + gamma)' W (G w + gamma) - b'w + delta ||gamma||_1
        s.t. 1'w = 1, w >= 0.

omega_j is index j and gamma_i is index m + i of one index space, and the
iterate is one vector z = (omega, gamma).  A sign vector marks the working
set: 1 on the support S of omega, -1 or +1 on a free gamma, 0 at a bound.
Each pivot solves the bordered equality-constrained KKT system on the
working set and steps toward its solution.  The first index to block the
step (S in entry order, then the free gammas ascending) is dropped.  An
unblocked step prices every other index in one violation vector and adds
the most violated, omega first on a tie.  Every solve starts cold from the
column with the smallest diagonal of G'WG.

Pricing takes omega_j's condition, (G'WG omega + G'W gamma)_j - b_j - u,
from G'WG, the matrix of the bordered solve, so that the two agree to
rounding.  Formed as G'(W (G omega)) instead, it carried rounding of order
eps |G|'|W G| omega: 2e-8 on a bundle under a metric with eigenvalues from
5e-9 to 9e6, above the tolerance, and the solver added an index whose
working-set target was negative, dropped it at once and cycled to its pivot
cap.  The gammas' condition delta - |W (G omega + gamma)| reads the
subproblem's W G when it already holds one (full storage forms it for G'WG)
or once a gamma enters the working set, whose bordered solve needs its rows.
Until then, under limited storage, W G is not formed: each unblocked pivot
makes one W-vector product W (G omega), as the interior-point solver's
omega-only path does.  The step d = -W (G omega + gamma) is the last of
these products, not another product with W, and the solution keeps the
G omega that product was made from; a solve that read W G instead forms
G omega once, at the end.

Anti-cycling: each working-set solve carries a tiny proximal term centred on
the current iterate, so when the working-set minimizer is not unique the
target is the one nearest the iterate, and a newly added index does not get
a target on the wrong side of its bound.  Every index outside the working
set is priced at every unblocked pivot, and the solver stops only when none
of them violates its optimality condition by more than ``_PRICING * tol``.
Near a stationary point |d| is about 1e-6, and an index left violating its
condition by a few 1e-9 can move d by its own length; pricing is therefore
finer than the tenth of ``tol`` to which the interior-point core runs.

Each pivot factors its bordered matrix once, by LAPACK ``dgetrf`` from
scipy, and makes the first solve and three refinement solves with ``dgetrs``
on that factor.  A singular factor or a non-finite solution raises
``DasError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf as _getrf, dgetrs as _getrs

from .subproblem import SubproblemData, compute_kkt_residual


# The solver stops when no index violates its optimality condition by more
# than this fraction of the requested tolerance.
_PRICING = 0.05


class DasError(RuntimeError):
    """Pivot cap exceeded without reaching the requested KKT tolerance, or a
    working-set KKT matrix that cannot be solved."""


@dataclass
class DasState:
    """Working set and iterate of one solve.  The subproblem's arrays are
    borrowed and never written; its W G is formed on first use of ``WG``."""
    data: SubproblemData
    S: list[int]  # omega support, in order of entry
    z: np.ndarray  # (m + n,) iterate (omega, gamma)
    sign: np.ndarray  # (m + n,) 1 on S, -1 or +1 on a free gamma, 0 at a bound
    _wd: np.ndarray | None = field(default=None, repr=False)

    G = property(lambda self: self.data.G)
    WG = property(lambda self: self.data.wg)
    K = property(lambda self: self.data.gtwg)  # G'WG
    b = property(lambda self: self.data.b)
    delta = property(lambda self: self.data.delta)
    qn = property(lambda self: self.data.qn)

    @property
    def omega(self) -> np.ndarray:
        return self.z[:self.data.m]

    @property
    def gamma(self) -> np.ndarray:
        return self.z[self.data.m:]

    @property
    def gamma_sign(self) -> np.ndarray:
        return self.sign[self.data.m:]

    def dense_W(self) -> np.ndarray:
        if self._wd is None:
            self._wd = self.qn.dense_W()
        return self._wd


@dataclass
class DasSolution:
    """A solve's iterate, multiplier u, step d and KKT residual.  ``g_omega``
    is the G omega that d was formed from, or, when the solve read W G
    instead, G omega formed once at the end; the search direction reads it
    instead of forming another n x m product."""
    omega: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    u: float
    d: np.ndarray  # -W (G omega + gamma)
    g_omega: np.ndarray  # G omega
    kkt_residual: float
    iterations: int


def _init_state(data: SubproblemData) -> DasState:
    j0 = int(np.argmin(np.diag(data.gtwg)))
    z, sign = np.zeros(data.m + data.n), np.zeros(data.m + data.n, dtype=int)
    z[j0], sign[j0] = 1.0, 1
    return DasState(data=data, S=[j0], z=z, sign=sign)


def _w_model(st: DasState, F: np.ndarray):
    """W (G omega + gamma), F the free gammas, and G omega if it was formed.
    Reads W G when the subproblem holds it, else makes one W-vector
    product."""
    if st.data.has_wg:
        wm = st.WG @ st.omega
        if F.size:
            wm += st.dense_W()[:, F] @ st.gamma[F]
        return wm, None
    # gamma = 0 here: the bordered solve reads W G once a gamma is free
    g_omega = st.G @ st.omega
    return st.qn.apply_W(g_omega), g_omega


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
    # A tiny proximal term centred on the iterate x0 makes the minimizer
    # unique: the solve is for the step from x0, so the target is the
    # working-set minimizer nearest the iterate, which keeps a just-added
    # variable's target on its feasible side (anti-cycling).  Iterative
    # refinement against the unregularized system then removes the proximal
    # bias from the returned solution.  One LU factor of the regularized
    # matrix serves the first solve and all three refinements.
    x0 = np.concatenate((st.z[S], st.gamma[F], [0.0]))
    rhs -= M @ x0
    reg = 1e-11 * max(1.0, float(np.trace(M[:s + f, :s + f])) / max(1, s + f))
    M_reg = M.copy()
    M_reg[np.arange(s + f), np.arange(s + f)] += reg
    # M is exactly symmetric (G'WG and W are), so its transpose is the same
    # matrix, already in LAPACK's column-major layout: getrf copies nothing.
    lu, piv, info = _getrf(M_reg.T, overwrite_a=1)
    if info == 0:
        step = _getrs(lu, piv, rhs)[0]
        for _ in range(3):
            step = step + _getrs(lu, piv, rhs - M @ step)[0]
        sol = x0 + step
        if np.all(np.isfinite(sol)):
            return sol[:s], sol[s:s + f], float(sol[-1])
    raise DasError(f"pivot {pivot}: the KKT matrix of a working set of {s} "
                   f"omega and {f} gamma indices is singular or gives a "
                   "non-finite solution")


def solve_das(data: SubproblemData, tol: float = 1e-8,
              max_iterations: int | None = None) -> DasSolution:
    st = _init_state(data)
    m, n = data.m, data.n
    cap = max_iterations if max_iterations is not None else 100 * (m + 2 * n)

    for iterations in range(1, cap + 1):
        F = st.gamma_sign.nonzero()[0]
        t_omega, t_gamma, u_eqp = _solve_eqp(st, st.S, F, iterations)

        # blocking ratio toward the target along the segment: the first
        # minimum below 1, over S in entry order and then F ascending
        work = np.concatenate((st.S, m + F))
        cur, target = st.z[work], np.concatenate((t_omega, t_gamma))
        ratio = np.full(work.size, np.inf)
        np.divide(cur, cur - target, out=ratio,
                  where=target * st.sign[work] < -1e-14)
        k = int(ratio.argmin())
        alpha = float(ratio[k])
        if alpha < 1.0:
            st.z[work] = cur + alpha * (target - cur)
            drop = int(work[k])
            st.z[drop], st.sign[drop] = 0.0, 0
            st.S = [j for j in st.S if j != drop]
            continue
        st.z[work] = target

        # optimality test at the working-set solution over every index
        # outside the working set
        wm, g_omega = _w_model(st, F)
        u = -u_eqp
        v_omega = st.K @ st.omega - st.b - u
        if F.size:
            v_omega += st.WG[F].T @ st.gamma[F]
        violation = np.concatenate((v_omega, st.delta - np.abs(wm)))
        violation[st.sign != 0] = np.inf
        k = int(violation.argmin())
        if violation[k] >= -_PRICING * tol:
            sigma, rho = np.maximum(st.gamma, 0.0), np.maximum(-st.gamma, 0.0)
            d = -wm
            if g_omega is None:
                g_omega = st.G @ st.omega
            res = compute_kkt_residual(data, st.omega, sigma, rho, u, d)
            return DasSolution(st.omega.copy(), st.gamma.copy(), sigma, rho, u,
                               d, g_omega, res, iterations)
        if k < m:
            st.S.append(k)
            st.sign[k] = 1
        else:
            st.sign[k] = -int(np.sign(wm[k - m]))

    raise DasError(f"active-set pivot cap {cap} exceeded")
