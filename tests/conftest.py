import numpy as np
import pytest

from nsopt import qp_ipm
from nsopt.quasi_newton import QuasiNewtonState


class IpmProbe:
    """Watches every core solve of the interior-point method from outside.

    Wraps ``solve_ipm_core``, ``residuals`` and ``_newton_step`` where
    ``qp_ipm`` looks them up.  For each core solve it records the merit and
    the smallest entry of (theta, v) at every iterate, and the plug-back
    residual of every Newton step, recomputed from the call's arguments.
    """

    def __init__(self, monkeypatch):
        self.cores: list[dict] = []
        self._qp = None  # the QP of the core solve in progress
        core, residuals = qp_ipm.solve_ipm_core, qp_ipm.residuals
        newton = qp_ipm._newton_step

        def watched_core(qp, *args, **kwargs):
            self.cores.append({"merit": [], "interiority": [], "plugback": []})
            self._qp = qp
            try:
                return core(qp, *args, **kwargs)
            finally:
                self._qp = None

        def watched_residuals(qp, theta, u, v):
            out = residuals(qp, theta, u, v)
            if qp is self._qp:
                r_d, r_p, _ = out
                self.cores[-1]["merit"].append(
                    qp_ipm._merit_of(theta, v, r_d, r_p))
                self.cores[-1]["interiority"].append(
                    min(float(theta.min()), float(v.min())))
            return out

        def watched_newton(factor, theta, v, r_d, r_p, r_c):
            step = newton(factor, theta, v, r_d, r_p, r_c)
            if self._qp is not None:
                self.cores[-1]["plugback"].append(qp_ipm._plugback_residual(
                    self._qp, theta, v, *step, r_d, r_p, r_c))
            return step

        monkeypatch.setattr(qp_ipm, "solve_ipm_core", watched_core)
        monkeypatch.setattr(qp_ipm, "residuals", watched_residuals)
        monkeypatch.setattr(qp_ipm, "_newton_step", watched_newton)

    def problems(self) -> list[str]:
        """Criterion 7 on every recorded core solve: merit non-increasing
        within 1e-9 relative plus 1e-12, (theta, v) > 0 and plug-back
        residuals at most 1e-10.  Having nothing to check is a problem."""
        out = []
        if not self.cores:
            out.append("no core solve recorded")
        if not any(c["plugback"] for c in self.cores):
            out.append("no Newton step recorded")
        for k, c in enumerate(self.cores):
            hist = c["merit"]
            if not all(b <= a * (1 + 1e-9) + 1e-12
                       for a, b in zip(hist, hist[1:])):
                out.append(f"core {k}: merit increased")
            if not min(c["interiority"]) > 0.0:
                out.append(f"core {k}: iterate not interior")
            if not max(c["plugback"], default=0.0) <= 1e-10:
                out.append(f"core {k}: plug-back residual "
                           f"{max(c['plugback']):.3e}")
        return out


@pytest.fixture
def ipm_probe(monkeypatch):
    """Installs an ``IpmProbe`` over whatever ``qp_ipm`` holds when called."""
    return lambda: IpmProbe(monkeypatch)


@pytest.fixture
def full_from_base():
    """A full-storage reference for a limited-memory state: it starts from
    the limited base W0 = tau I of the newest pair (s'v / v'v for BFGS,
    s's / s'v for DFP) and takes the window's pairs in order."""
    def build(n, mode, pairs):
        s, v = pairs[-1]
        tau = float(s @ v) / float(v @ v) if mode == "BFGS" else \
            float(s @ s) / float(s @ v)
        full = QuasiNewtonState(n, mode=mode, storage="full")
        full.W = tau * np.eye(n)
        for s, v in pairs:
            full.update(s, v)
        return full
    return build
