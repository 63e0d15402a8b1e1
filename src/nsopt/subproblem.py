"""Shared data for the simplex-constrained QP subproblem

    max over (omega, gamma):
        -1/2 (G w + gamma)' W (G w + gamma) + b'w - delta ||gamma||_1
        s.t. 1'w = 1, w >= 0,

and the KKT residual of its nonnegative reformulation with theta = (w, sigma,
rho), gamma = sigma - rho.  Both QP solvers return the step
d = -W (G w + gamma) with their solution; the residual and the search
direction read it instead of applying W again.  Under limited storage W G
and G'WG are formed from Psi'G, and G'WG also from G'G, which the bundle
keeps by column position and by the metric's pair window.
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
    # G'G and Psi'G (Psi of the compact metric) when the caller has them;
    # Psi'G must match the metric's pair window at construction
    gtg: np.ndarray | None = field(default=None, repr=False)
    psi_g: np.ndarray | None = field(default=None, repr=False)
    _wg: np.ndarray | None = field(default=None, repr=False)
    _gtwg: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.G.shape[1] != self.b.size or self.G.shape[1] < 1:
            raise ValueError("G columns and b entries must align, with m >= 1")

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def m(self) -> int:
        return self.G.shape[1]

    @property
    def has_wg(self) -> bool:
        """Whether W G is already formed: under full storage by ``gtwg``,
        under limited storage only once ``wg`` is read."""
        return self._wg is not None

    @property
    def wg(self) -> np.ndarray:
        if self._wg is None:
            self._wg = self.qn.apply_W_matrix(self.G, self.psi_g)
        return self._wg

    @property
    def gtwg(self) -> np.ndarray:
        """G'WG, formed without W G under limited storage.

        Rounding leaves the product slightly asymmetric, by up to about
        1e-10 relative when G'WG is nearly singular; the QP solvers factor
        one triangle but evaluate residuals with the whole matrix, so the
        product is symmetrized to keep the two consistent.
        """
        if self._gtwg is None:
            if self._wg is None and self.qn.storage == "limited":
                K = self.qn.gram_W(self.G, self.gtg, self.psi_g)
            else:
                K = self.G.T @ self.wg
            self._gtwg = 0.5 * (K + K.T)
        return self._gtwg


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
    """
    omega = np.asarray(omega, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if d is None:
        d = -data.qn.apply_W(data.G @ omega + (sigma - rho))
    wm = -d
    v_omega = data.G.T @ wm - data.b - u
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
