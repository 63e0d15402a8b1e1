"""Shared data for the simplex-constrained QP subproblem

    max over (omega, gamma):
        -1/2 (G w + gamma)' W (G w + gamma) + b'w - delta ||gamma||_1
        s.t. 1'w = 1, w >= 0,

and the KKT residual of its nonnegative reformulation with theta = (w, sigma,
rho), gamma = sigma - rho.  Every solve's result is a ``QpSolution`` built
by ``SubproblemData.solution``: the step d = -W (G w + gamma), the G w it
was formed from, and the KKT residual read off d.  The residual and the
search direction read d instead of applying W again.

For the metric W = c I + B M B' (``QuasiNewtonState``) both products are
formed from G'G and P = B'G, which the bundle carries across metric updates,
and M P, formed once per subproblem: G'WG = c G'G + P'(M P) and W G =
c G + B (M P).  Under full storage, W = J J', c is 0, M P is P itself and
G'WG = P'P is a Gram matrix, which cannot be indefinite beyond its rounding.
A step is W m = c m + B (M B'm) for m = G omega + gamma, from the same M P:
M B'm = (M P) omega + M B'gamma (``model_step``), so a step with gamma = 0
makes no product with B' and, under limited storage, no solve with M.  W G
and a dense W are formed only on request, once each: by a gamma entering
the active set, the interior-point full path, or a test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quasi_newton import QuasiNewtonState


@dataclass(kw_only=True)
class QpSolution:
    """A solve's iterate (omega, gamma = sigma - rho), multiplier u, step d
    and KKT residual.  ``g_omega`` is the G omega that d was formed from,
    so the search direction forms no further n x m product, and ``hint``
    what the metric returned with d, for its update after a step along d
    (``QuasiNewtonState.model``)."""
    omega: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    u: float
    d: np.ndarray  # -W (G omega + gamma)
    g_omega: np.ndarray  # G omega
    kkt_residual: float
    iterations: int
    hint: np.ndarray | None
    solver: str  # "gradient", "das" or "ipm"
    fallback: bool = False  # the active-set solver failed and the IPM solved

    @cached_property
    def model_norm_sq(self) -> float:
        """d'Hd = (G omega + gamma)' W (G omega + gamma)."""
        return float(-(self.d @ (self.g_omega + self.gamma)))

    @cached_property
    def inf_norms(self) -> tuple[float, float, float]:
        """||d||, ||G omega|| and ||G omega + gamma||, in the max-norm."""
        return (float(np.max(np.abs(self.d), initial=0.0)),
                float(np.max(np.abs(self.g_omega), initial=0.0)),
                float(np.max(np.abs(self.g_omega + self.gamma), initial=0.0)))


@dataclass
class SubproblemData:
    G: np.ndarray  # n x m, columns are bundle gradients
    b: np.ndarray
    delta: float
    qn: QuasiNewtonState
    # G'G and P = B'G for the metric's B when the caller has them; P must
    # match the metric at construction and is formed when not given
    gtg: np.ndarray | None = field(default=None, repr=False)
    bt_g: np.ndarray | None = field(default=None, repr=False)
    _mp: np.ndarray | None = field(default=None, repr=False)
    _wg: np.ndarray | None = field(default=None, repr=False)
    _gtwg: np.ndarray | None = field(default=None, repr=False)
    _w: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.G.shape[1] != self.b.size or self.G.shape[1] < 1:
            raise ValueError("G columns and b entries must align, with m >= 1")
        if self.bt_g is None:
            self.bt_g = self.qn.apply_Bt(self.G)

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def m(self) -> int:
        return self.G.shape[1]

    @property
    def has_wg(self) -> bool:
        """Whether W G is already formed, which it is only once ``wg`` is
        read."""
        return self._wg is not None

    @property
    def mp(self) -> np.ndarray:
        """M P, which G'WG, W G and every step read; P itself under full
        storage."""
        if self._mp is None:
            self._mp = self.qn.apply_M(self.bt_g)
        return self._mp

    @property
    def wg(self) -> np.ndarray:
        """W G = c G + B M P."""
        if self._wg is None:
            qn, c = self.qn, self.qn.scale
            self._wg = qn.apply_B(self.mp)
            if c:
                self._wg += c * self.G
        return self._wg

    @property
    def dense_w(self) -> np.ndarray:
        """W as a dense, exactly symmetric array (``QuasiNewtonState.dense_W``)."""
        if self._w is None:
            self._w = self.qn.dense_W()
        return self._w

    @property
    def gtwg(self) -> np.ndarray:
        """G'WG = c G'G + P'MP, G'G formed on first use when c is not 0.

        Rounding leaves the limited-storage product slightly asymmetric, by
        up to about 1e-10 relative when G'WG is nearly singular; the QP
        solvers factor one triangle but evaluate residuals with the whole
        matrix, so the product is symmetrized to keep the two consistent.
        """
        if self._gtwg is None:
            c = self.qn.scale
            K = self.bt_g.T @ self.mp
            if c:
                if self.gtg is None:
                    self.gtg = self.G.T @ self.G
                K += c * self.gtg
            self._gtwg = 0.5 * (K + K.T)
        return self._gtwg

    def model_step(self, omega: np.ndarray, gamma: np.ndarray | None = None):
        """W m for the model vector m = G omega + gamma, with G omega and the
        hint that the metric update takes (see ``QuasiNewtonState.model``).
        M B'm is formed as (M P) omega + M B'gamma, with no product with W
        G."""
        qn = self.qn
        g_omega = self.G @ omega
        model, mbt_m = g_omega, self.mp @ omega
        if gamma is not None:
            model = g_omega + gamma
            if gamma.any():
                mbt_m += qn.apply_M(qn.apply_Bt(gamma))
        wm, hint = qn.model(model, mbt_m)
        return wm, g_omega, hint

    def solution(self, solver: str, omega: np.ndarray, gamma: np.ndarray,
                 sigma: np.ndarray, rho: np.ndarray, u: float,
                 iterations: int, step=None, cls=QpSolution,
                 **extra) -> QpSolution:
        """The result of a solve that ended at (omega, gamma = sigma - rho)
        with multiplier u, as ``cls`` with the fields ``extra``.  ``step``
        is what ``model_step`` returned for this iterate when the caller
        already has it; otherwise it is formed here, with one W-vector
        product.  The KKT residual then reads its d."""
        wm, g_omega, hint = self.model_step(omega, gamma) if step is None else step
        d = -wm
        return cls(omega=omega, gamma=gamma, sigma=sigma, rho=rho, u=u, d=d,
                   g_omega=g_omega,
                   kkt_residual=compute_kkt_residual(self, omega, sigma, rho, u, d),
                   iterations=iterations, hint=hint, solver=solver, **extra)


def dual_objective(data: SubproblemData, omega: np.ndarray, gamma: np.ndarray) -> float:
    r = data.G @ omega + gamma
    return float(-0.5 * r @ data.qn.apply_W(r) + data.b @ omega
                 - data.delta * np.sum(np.abs(gamma)))


def compute_kkt_residual(data: SubproblemData, omega: np.ndarray, sigma: np.ndarray,
                         rho: np.ndarray, u: float,
                         d: np.ndarray | None = None) -> float:
    """Max-norm KKT violation of the nonnegative reformulation.

    The bound multiplier v is reconstructed from (theta, u) so the dual
    stationarity block is exact; what remains is primal feasibility, sign
    feasibility, and complementarity.  ``d`` is -W (G omega + sigma - rho)
    when the caller already has it.

    omega's conditions, G'WG omega + (W G)'gamma - b - u, are taken from the
    subproblem's G'WG, the matrix that both solvers solve with, and not as
    G'(W (G omega + gamma)): under an ill-conditioned metric the latter
    carries rounding of order eps |G|'|W G| omega, and read about 1e-6 at a d
    within 1e-11 of the minimizer.  The gammas' conditions read d.
    """
    omega = np.asarray(omega, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    gamma = sigma - rho
    if d is None:
        d = -data.qn.apply_W(data.G @ omega + gamma)
    wm = -d
    v_omega = data.gtwg @ omega - data.b - u
    # the extremes over theta = (omega, sigma, rho) and v taken piece by
    # piece, which for finite values are those over their concatenations;
    # a NaN in any piece, as from a non-finite d, makes the residual NaN
    low, high = np.minimum.reduce, np.maximum.reduce
    if sigma.any() or rho.any():
        if gamma.any():
            v_omega += data.wg.T @ gamma
        v_sigma = wm + data.delta
        v_rho = -wm + data.delta
        theta_min = low([low(omega, initial=0.0), low(sigma, initial=0.0),
                         low(rho, initial=0.0)])
        v_min = low([low(v_omega, initial=0.0), low(v_sigma, initial=0.0),
                     low(v_rho, initial=0.0)])
        complementarity = high([high(np.abs(omega * v_omega), initial=0.0),
                                high(np.abs(sigma * v_sigma), initial=0.0),
                                high(np.abs(rho * v_rho), initial=0.0)])
    else:
        # sigma = rho = 0 add nothing to theta's minimum or to the
        # complementarity, and their v = delta +- W m is least at
        # delta - max |W m|, to the bit, since subtraction rounds
        # monotonically
        theta_min = low(omega, initial=0.0)
        v_min = np.minimum(low(v_omega, initial=0.0),
                           data.delta - high(np.abs(wm), initial=0.0))
        complementarity = high(np.abs(omega * v_omega), initial=0.0)
    return float(high([abs(float(np.sum(omega)) - 1.0), -theta_min, -v_min,
                       complementarity], initial=0.0))
