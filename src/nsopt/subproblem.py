"""Shared data for the simplex-constrained QP subproblem

    max over (omega, gamma):
        -1/2 (G w + gamma)' W (G w + gamma) + b'w - delta ||gamma||_1
        s.t. 1'w = 1, w >= 0,

and the KKT residual of its nonnegative reformulation with theta = (w, sigma,
rho), gamma = sigma - rho.  Both QP solvers return the step
d = -W (G w + gamma) with their solution; the residual and the search
direction read it instead of applying W again.

For the metric W = c I + B M B' (``QuasiNewtonState``) both products are
formed from G'G and P = B'G, which the bundle carries across metric updates:
G'WG = c G'G + P'MP and W G = c G + B M P.  Under full storage, W = J J', c
is 0 and G'WG = P'P is a Gram matrix, which cannot be indefinite beyond its
rounding.  A step is W m for m = G omega + gamma, from B'm = P omega + B'gamma
(``model_step``).  W G itself is formed only on request: by a gamma entering
the active set, the interior-point full path, or a test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quasi_newton import QuasiNewtonState


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
    _wg: np.ndarray | None = field(default=None, repr=False)
    _gtwg: np.ndarray | None = field(default=None, repr=False)

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
    def wg(self) -> np.ndarray:
        """W G = c G + B M P."""
        if self._wg is None:
            qn, c = self.qn, self.qn.scale
            self._wg = qn.apply_B(qn.apply_M(self.bt_g))
            if c:
                self._wg += c * self.G
        return self._wg

    @property
    def gtwg(self) -> np.ndarray:
        """G'WG = c G'G + P'MP, G'G formed on first use when c is not 0.

        Rounding leaves the limited-storage product slightly asymmetric, by
        up to about 1e-10 relative when G'WG is nearly singular; the QP
        solvers factor one triangle but evaluate residuals with the whole
        matrix, so the product is symmetrized to keep the two consistent.
        """
        if self._gtwg is None:
            qn, c, P = self.qn, self.qn.scale, self.bt_g
            K = P.T @ qn.apply_M(P)
            if c:
                if self.gtg is None:
                    self.gtg = self.G.T @ self.G
                K += c * self.gtg
            self._gtwg = 0.5 * (K + K.T)
        return self._gtwg

    def model_step(self, omega: np.ndarray, gamma: np.ndarray | None = None):
        """W m for the model vector m = G omega + gamma, with G omega and the
        hint that the metric update takes (see ``QuasiNewtonState.model``).
        B'm is formed as P omega + B'gamma, with no product with W G."""
        g_omega = self.G @ omega
        model, bt_m = g_omega, self.bt_g @ omega
        if gamma is not None:
            model = g_omega + gamma
            if gamma.any():
                bt_m += self.qn.apply_Bt(gamma)
        wm, hint = self.qn.model(model, bt_m)
        return wm, g_omega, hint


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
    if gamma.any():
        v_omega += data.wg.T @ gamma
    v_sigma = wm + data.delta
    v_rho = -wm + data.delta
    # the extremes over theta = (omega, sigma, rho) and v taken piece by
    # piece, which for finite values are those over their concatenations
    low, high = np.minimum.reduce, np.maximum.reduce
    theta_min = min(low(omega, initial=0.0), low(sigma, initial=0.0),
                    low(rho, initial=0.0))
    v_min = min(low(v_omega, initial=0.0), low(v_sigma, initial=0.0),
                low(v_rho, initial=0.0))
    complementarity = max(high(np.abs(omega * v_omega), initial=0.0),
                          high(np.abs(sigma * v_sigma), initial=0.0),
                          high(np.abs(rho * v_rho), initial=0.0))
    return max(
        abs(float(np.sum(omega)) - 1.0),
        float(max(0.0, -theta_min)),
        float(max(0.0, -v_min)),
        float(complementarity),
    )
