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
subproblem's W G once it holds one, which it does once a gamma enters the
working set, whose bordered solve needs its rows.  Until then the omega
indices are priced first when no gamma can violate: |(W m)_i| <=
|F_i| sqrt(m'Wm) for the rows F_i of a factor W = F F' (Cauchy-Schwarz),
m'Wm = omega'G'WG omega, so a bound on the row norms (the metric's
``row_norm_bound``, under either storage) under which this is at most delta
shows that pricing everything would add the same omega index.  A pivot at
which an omega index violates then makes no W-vector product, and one at
which none does makes one, W (G omega).  When the bound does not hold, W G
is formed and priced from, as when a gamma is free.  Inside the outer
solver delta is at least 1e10 |g|, so the bound holds there.  The step
d = -W (G omega + gamma) is the last of these products, not another product
with W, and the solution (``SubproblemData.solution``) keeps the G omega
that product was made from and the hint that the metric update takes; a
solve that read W G instead forms all three with one W-vector product at
the end.

Anti-cycling: each working-set solve carries a tiny proximal term centred on
the current iterate, so when the working-set minimizer is not unique the
target is the one nearest the iterate, and a newly added index does not get
a target on the wrong side of its bound.  Every index outside the working
set is priced at every unblocked pivot, and the solver stops only when none
of them violates its optimality condition by more than ``_PRICING * tol``.
Near a stationary point |d| is about 1e-6, and an index left violating its
condition by a few 1e-9 can move d by its own length; pricing is therefore
finer than the tenth of ``tol`` to which the interior-point core runs.

The solver holds a factor of its working set across pivots instead of
factoring each pivot's bordered matrix from scratch, as Goldfarb & Idnani
(1983) update theirs on each add or drop.  The working set is kept in entry
order, omega and gamma indices alike, with H, the unregularized Hessian
block over it (entries of G'WG, W G and W), and a lower Cholesky factor L of
H + reg I.  An add appends one row and column to H and one row to L: with
l = L^-1 h, the new pivot is h_kk + reg - l'l.  A drop at position p
deletes a row and column of H and refactors only the trailing block of L,
chol(L33 L33' + l32 l32'), with LAPACK ``dpotrf``.  OpenBLAS threads that
product and factorization from about 60 rows and then rounds differently at
one and at two threads, so the pivot path can depend on the thread count.
The simplex row is taken by its 1 x 1 Schur complement e'(H + reg I)^-1 e,
where e marks the omega indices: appended to L as the row (L^-1 e)', it
makes an LDL' factor of the regularized bordered matrix, so each solve is
two triangular solves (LAPACK ``dtrtrs`` from scipy, on the factor's buffer
without a copy).  Five solves per pivot use that factor: the first, one refinement against the regularized matrix and
three against the unregularized one.  A Cholesky factor of H + reg I
rounds by about eps / reg along H's null space, which the refinements
against the singular unregularized matrix cannot see; the one against the
regularized matrix removes it.

reg is 1e-11 max(1, trace(H) / k) for a working set of k indices, evaluated
at the last full factorization: 1e-11 max(1, (G'WG)_jj) for the starting
column j.  Rounding can leave a Gram block indefinite by more than that, and
then an append or a trailing refactorization breaks down.  The whole block
is then refactored with reg from the current working set, and if that fails
too, reg grows by a factor of 100, at most four times, before ``DasError``
is raised.  A non-finite solution raises ``DasError`` as well.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf as _potrf, dtrtrs as _trtrs

from .subproblem import QpSolution, SubproblemData


# The solver stops when no index violates its optimality condition by more
# than this fraction of the requested tolerance.
_PRICING = 0.05

# pivots per index of (omega, sigma, rho) before DasError: 100 (m + 2n)
_PIVOTS_PER_INDEX = 100


# Proximal weight relative to the mean diagonal of the Hessian block, and how
# a factorization that breaks down is retried: reg grows by _REG_GROWTH at
# most _REG_RETRIES times.
_REG = 1e-11
_REG_GROWTH, _REG_RETRIES = 100.0, 4
_MIN_CAPACITY = 16


class DasError(RuntimeError):
    """Pivot cap exceeded without reaching the requested KKT tolerance, or a
    working-set KKT matrix that cannot be factored or solved."""


class DasState:
    """Working set, iterate and held factor of one solve.  The subproblem's
    arrays are read from ``data`` and never written; its W G and dense W are
    formed on their first use.

    ``order[:k]`` is the working set in entry order, ``pos`` each index's
    position in it (-1 outside), ``H[:k, :k]`` the Hessian block over it and
    ``L[:k, :k]`` the lower Cholesky factor of H + reg I.  Both buffers grow
    by doubling and keep one spare row and column for the simplex border.
    """

    def __init__(self, data: SubproblemData, j0: int):
        m, n = data.m, data.n
        self.data = data
        self.z = np.zeros(m + n)  # iterate (omega, gamma)
        # 1 on the omega support, -1 or +1 on a free gamma, 0 at a bound
        self.sign = np.zeros(m + n, dtype=int)
        self.z[j0], self.sign[j0] = 1.0, 1
        cap = min(m + n + 1, _MIN_CAPACITY)
        self.order = np.empty(cap, dtype=np.intp)
        self.pos = np.full(m + n, -1, dtype=np.intp)
        self.H = np.zeros((cap, cap))
        self.L = np.zeros((cap, cap), order="F")
        h = float(data.gtwg[j0, j0])
        self.reg = _REG * max(1.0, h)
        self.order[0], self.pos[j0] = j0, 0
        self.H[0, 0], self.L[0, 0] = h, np.sqrt(h + self.reg)
        self.k = 1
        self.free = 0  # gamma indices in the working set
        self.full_factorizations = 0

    @property
    def omega(self) -> np.ndarray:
        return self.z[:self.data.m]

    @property
    def gamma(self) -> np.ndarray:
        return self.z[self.data.m:]

    @property
    def gamma_sign(self) -> np.ndarray:
        return self.sign[self.data.m:]

    def _row(self, idx: int):
        """The Hessian entries of index idx against the working set, and its
        diagonal entry."""
        data = self.data
        m = data.m
        if idx >= m:
            row = np.concatenate((data.wg[idx - m], data.dense_w[idx - m]))
        elif self.free:
            row = np.concatenate((data.gtwg[idx], data.wg[:, idx]))
        else:
            row = data.gtwg[idx]
        return row[self.order[:self.k]], float(row[idx])

    def _grow(self) -> None:
        k, cap = self.k, min(2 * self.order.size, self.z.size + 1)
        order = np.empty(cap, dtype=np.intp)
        H, L = np.zeros((cap, cap)), np.zeros((cap, cap), order="F")
        order[:k], H[:k, :k], L[:k, :k] = (self.order[:k], self.H[:k, :k],
                                           self.L[:k, :k])
        self.order, self.H, self.L = order, H, L

    def add(self, idx: int) -> None:
        """Append index idx to the working set: one row and column of H,
        one row of L."""
        k = self.k
        if k + 2 > self.order.size:
            self._grow()
        h, h_kk = self._row(idx)
        H, L = self.H, self.L
        H[k, :k] = h
        H[:k, k] = h
        H[k, k] = h_kk
        self.order[k], self.pos[idx] = idx, k
        self.k = k + 1
        self.free += idx >= self.data.m
        l, info = _trtrs(L[:, :k], h, lower=1)
        pivot = h_kk + self.reg - float(l @ l)
        if info == 0 and pivot > 0.0:
            L[k, :k] = l
            L[k, k] = np.sqrt(pivot)
        else:
            self._factor_all()

    def drop(self, idx: int) -> None:
        """Remove index idx from the working set and refactor the trailing
        block of L behind its position."""
        p, k = int(self.pos[idx]), self.k
        H, L, order = self.H, self.L, self.order
        H[p:k - 1, :k] = H[p + 1:k, :k]
        H[:k - 1, p:k - 1] = H[:k - 1, p + 1:k]
        order[p:k - 1] = order[p + 1:k]
        self.pos[order[p:k - 1]] = np.arange(p, k - 1)
        self.pos[idx] = -1
        self.k = k - 1
        self.free -= idx >= self.data.m
        if p == k - 1:
            return
        # The trailing block's factor becomes chol(L33 L33' + l32 l32').
        X = L[p + 1:k, p:k]  # [l32 L33]
        T = X @ X.T
        L[p:k - 1, :p] = L[p + 1:k, :p]
        # T is symmetric, so its transpose is T in LAPACK's layout
        c, info = _potrf(T.T, lower=1, overwrite_a=1)
        if info == 0:
            L[p:k - 1, p:k - 1] = c
        else:
            self._factor_all()

    def _factor_all(self) -> None:
        """Factor the whole block after a breakdown, with reg from the
        working set, growing it when the factorization still fails."""
        k = self.k
        block = self.H[:k, :k]
        reg = _REG * max(1.0, float(np.trace(block)) / k)
        for _ in range(_REG_RETRIES + 1):
            P = block.copy()
            P.ravel()[::k + 1] += reg
            c, info = _potrf(P.T, lower=1, overwrite_a=1)
            if info == 0:
                self.L[:k, :k] = c
                self.reg = reg
                self.full_factorizations += 1
                return
            reg *= _REG_GROWTH
        raise np.linalg.LinAlgError(
            f"the Hessian block of a working set of {k - self.free} omega and "
            f"{self.free} gamma indices is not positive definite with reg "
            f"{reg / _REG_GROWTH:.1e}")


def _init_state(data: SubproblemData) -> DasState:
    return DasState(data, int(np.argmin(np.diag(data.gtwg))))


def _no_gamma_violates(data: SubproblemData, mwm: float) -> bool:
    """Whether |W m| <= delta is certain for the model m = G omega with
    m'Wm = ``mwm``: first from the metric's held bound on its row norms,
    then from their exact values."""
    qn, limit, mwm = data.qn, data.delta ** 2, max(mwm, 0.0)
    return (qn.row_norm_bound() ** 2 * mwm <= limit
            or qn.row_norm_bound(exact=True) ** 2 * mwm <= limit)


def _solve_eqp(st: DasState):
    """Bordered KKT solve on the working set for the step from the iterate:
    the target of each working-set index, in entry order, and the
    multiplier of the simplex row."""
    k, data = st.k, st.data
    order = st.order[:k]
    rhs = np.empty(k + 1)
    if st.free:
        is_omega = order < data.m
        e = is_omega.astype(float)
        rhs[:k] = -data.delta * st.sign[order]
        rhs[:k][is_omega] = data.b[order[is_omega]]
    else:
        e = np.ones(k)
        data.b.take(order, out=rhs[:k])
    rhs[k] = 1.0
    # The Hessian block is a Gram matrix and can be singular when k > n.
    # The factor's proximal term reg I makes the minimizer unique: the solve
    # is for the step from the iterate x0, so the target is the working-set
    # minimizer nearest the iterate, which keeps a just-added variable's
    # target on its feasible side (anti-cycling).  One refinement against
    # the regularized system removes the factor's rounding along H's null
    # space; three against the unregularized system then remove the
    # proximal bias from the returned solution.  Row k of L and of H is the
    # simplex border: L_b = [L 0; c' 1] with c = L^-1 e gives the
    # regularized bordered matrix as L_b diag(I, -c'c) L_b'.
    L, M = st.L[:, :k + 1], st.H[:k + 1, :k + 1]
    c = _trtrs(L[:, :k], e, lower=1)[0]
    schur = float(c @ c)
    if not 0.0 < schur < np.inf:
        raise np.linalg.LinAlgError(
            f"the simplex row's Schur complement is {schur:.1e} on a working "
            f"set of {k - st.free} omega and {st.free} gamma indices"
            + (": it holds no omega index" if k == st.free else ""))
    L[k, :k], L[k, k] = c, 1.0
    M[k, :k], M[:k, k], M[k, k] = e, e, 0.0
    x0 = np.zeros(k + 1)
    st.z.take(order, out=x0[:k])
    rhs -= M @ x0

    def solve(r):
        y = _trtrs(L, r, lower=1)[0]
        y[k] /= -schur
        return _trtrs(L, y, lower=1, trans=1)[0]

    step = solve(rhs)
    residual = rhs - M @ step
    residual[:k] -= st.reg * step[:k]
    step += solve(residual)
    for _ in range(3):
        step += solve(rhs - M @ step)
    sol = x0 + step
    if not np.isfinite(sol).all():
        raise np.linalg.LinAlgError(
            f"the KKT matrix of a working set of {k - st.free} omega and "
            f"{st.free} gamma indices is singular or gives a non-finite "
            "solution")
    return sol[:k], float(sol[k])


def solve_das(data: SubproblemData, tol: float = 1e-8) -> QpSolution:
    st = _init_state(data)
    m, n = data.m, data.n
    cap = _PIVOTS_PER_INDEX * (m + 2 * n)
    no_gamma = np.zeros(0, dtype=np.intp)

    try:
        for iterations in range(1, cap + 1):
            target, u_eqp = _solve_eqp(st)

            # blocking ratio toward the target along the segment: the first
            # minimum below 1, over S in entry order and then F ascending
            work = st.order[:st.k]
            F = no_gamma
            if st.free:
                F = st.gamma_sign.nonzero()[0]
                work = np.concatenate((work[work < m], m + F))
                target = target[st.pos[work]]
            cur = st.z[work]
            ratio = np.full(work.size, np.inf)
            np.divide(cur, cur - target, out=ratio,
                      where=target * st.sign[work] < -1e-14)
            k = int(ratio.argmin())
            alpha = float(ratio[k])
            if alpha < 1.0:
                st.z[work] = cur + alpha * (target - cur)
                drop = int(work[k])
                st.z[drop], st.sign[drop] = 0.0, 0
                st.drop(drop)
                continue
            st.z[work] = target

            # optimality test at the working-set solution over every index
            # outside the working set, the omega indices first while W G is
            # not formed
            u = -u_eqp
            k_omega = data.gtwg @ st.omega
            v_omega = k_omega - data.b - u
            if F.size:
                v_omega += data.wg[F].T @ st.gamma[F]
            v_omega[st.sign[:m] != 0] = np.inf
            via_wg = data.has_wg or not _no_gamma_violates(
                data, float(st.omega @ k_omega))
            if not via_wg:
                k = int(v_omega.argmin())
                if v_omega[k] < -_PRICING * tol:
                    st.sign[k] = 1
                    st.add(k)
                    continue
            # W (G omega + gamma), with what ``model_step`` returns with it
            # when a W-vector product formed it
            if via_wg:
                wm, step = data.wg @ st.omega, None
                if F.size:
                    wm += data.dense_w[:, F] @ st.gamma[F]
            else:  # gamma = 0: the bordered solve reads W G once one is free
                step = data.model_step(st.omega)
                wm = step[0]
            violation = np.concatenate((v_omega, data.delta - np.abs(wm)))
            violation[m:][st.gamma_sign != 0] = np.inf
            k = int(violation.argmin())
            if violation[k] >= -_PRICING * tol:
                gamma = st.gamma.copy()
                return data.solution("das", st.omega.copy(), gamma,
                                     np.maximum(gamma, 0.0),
                                     np.maximum(-gamma, 0.0), u, iterations,
                                     step)
            st.sign[k] = 1 if k < m else -int(np.sign(wm[k - m]))
            st.add(k)
    except np.linalg.LinAlgError as exc:
        raise DasError(f"pivot {iterations}: {exc}") from None
    raise DasError(f"active-set pivot cap {cap} exceeded")

