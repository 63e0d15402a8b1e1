"""Shared data for the simplex-constrained QP subproblem

    max over (omega, gamma):
        -1/2 (G w + gamma)' W (G w + gamma) + b'w - delta ||gamma||_1
        s.t. 1'w = 1, w >= 0,

and the KKT residual of its nonnegative reformulation with theta = (w, sigma,
rho), gamma = sigma - rho.  Both QP solvers return the step
d = -W (G w + gamma) with their solution; the residual and the search
direction read it instead of applying W again.

G'WG is formed without W G.  Under full storage, W = J J', it is K'K for
K = J'G, which the bundle carries across metric updates; it is a Gram
matrix, so it cannot be indefinite beyond the rounding of K'K.  A step is
J (K omega + J'gamma), one product with J.  Under limited storage G'WG is
formed from G'G and Psi'G, which the bundle keeps by column position and by
the metric's pair window.  W G itself is formed only on request: by a gamma
entering the active set, the interior-point full path, or a test.
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
    # G'G and Psi'G (Psi of the compact metric) or, under full storage, J'G
    # when the caller has them; Psi'G and J'G must match the metric at
    # construction
    gtg: np.ndarray | None = field(default=None, repr=False)
    psi_g: np.ndarray | None = field(default=None, repr=False)
    jtg: np.ndarray | None = field(default=None, repr=False)
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
    def full(self) -> bool:
        return self.qn.storage == "full"

    def _factor_g(self) -> np.ndarray:
        """J'G under full storage, formed on first use when not supplied."""
        if self.jtg is None:
            self.jtg = self.qn.apply_Jt(self.G)
        return self.jtg

    @property
    def has_wg(self) -> bool:
        """Whether W G is already formed, which it is only once ``wg`` is
        read."""
        return self._wg is not None

    @property
    def wg(self) -> np.ndarray:
        if self._wg is None:
            self._wg = (self.qn.apply_J(self._factor_g()) if self.full
                        else self.qn.apply_W_matrix(self.G, self.psi_g))
        return self._wg

    @property
    def gtwg(self) -> np.ndarray:
        """G'WG: K'K under full storage, from G'G and Psi'G under limited
        storage unless W G is already formed.

        Rounding leaves the limited-storage product slightly asymmetric, by
        up to about 1e-10 relative when G'WG is nearly singular; the QP
        solvers factor one triangle but evaluate residuals with the whole
        matrix, so the product is symmetrized to keep the two consistent.
        """
        if self._gtwg is None:
            if self.full:
                K = self._factor_g()
                K = K.T @ K
            elif self._wg is None:
                K = self.qn.gram_W(self.G, self.gtg, self.psi_g)
            else:
                K = self.G.T @ self._wg
            self._gtwg = 0.5 * (K + K.T)
        return self._gtwg

    def model_step(self, omega: np.ndarray, gamma: np.ndarray | None = None):
        """W m for the model vector m = G omega + gamma, with G omega and,
        under full storage, J'm (None under limited storage).

        Full storage forms J'm = (J'G) omega + J'gamma and W m = J (J'm): one
        product with J, or two with a nonzero gamma, and none with W G.
        Limited storage applies W to m as one vector.
        """
        g_omega = self.G @ omega
        if not self.full:
            return (self.qn.apply_W(g_omega if gamma is None else g_omega + gamma),
                    g_omega, None)
        jtm = self.jt_model(omega, gamma)
        return self.qn.apply_J(jtm), g_omega, jtm

    def jt_model(self, omega: np.ndarray, gamma: np.ndarray | None = None):
        """J'(G omega + gamma) under full storage, from J'G."""
        jtm = self._factor_g() @ omega
        if gamma is not None and gamma.any():
            jtm += self.qn.apply_Jt(gamma)
        return jtm


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
