"""Solver options, defaults, and the flat key = value options-file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


STRATEGIES = ("gradient", "gradient_combination", "cutting_plane")


@dataclass
class SolverOptions:
    eta: float = 1e-8
    psi: float = 1e8
    p: int | None = None  # samples per iteration; None resolves per strategy
    delta_f: float = 1e-5
    n_f: int = 10
    strategy: str = "cutting_plane"
    qn_mode: str = "BFGS"
    qn_storage: str = "full"
    history_limit: int = 20
    envelope_factor: float = 1e2
    size_factor: float = 5e-2
    line_search: str = "weak_wolfe"
    ls_initial: float = 1.0
    ls_decrease: float = 1e-10
    ls_curvature: float = 0.9
    eps_min: float = 1e-5
    iteration_limit: int = 100_000
    qp_tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        # every bound is written so that NaN fails it
        if not 0.0 < self.ls_decrease < self.ls_curvature < 1.0:
            raise ValueError("need 0 < ls_decrease < ls_curvature < 1")
        if not 0.0 < self.eta <= self.psi:
            raise ValueError("need 0 < eta <= psi")
        if not self.history_limit >= 1:
            raise ValueError("history_limit must be at least 1")
        if not (self.envelope_factor > 0 and self.size_factor > 0):
            raise ValueError("envelope_factor and size_factor must be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.qn_mode not in ("BFGS", "DFP"):
            raise ValueError(f"unknown quasi-Newton mode {self.qn_mode!r}")
        if self.qn_storage not in ("full", "limited"):
            raise ValueError(f"unknown storage mode {self.qn_storage!r}")
        if self.line_search not in ("weak_wolfe", "backtracking"):
            raise ValueError(f"unknown line search {self.line_search!r}")
        if self.p is not None and not self.p >= 0:
            raise ValueError("p must be nonnegative")
        if not self.delta_f >= 0:
            raise ValueError("delta_f must be nonnegative")
        if not self.eps_min > 0:
            raise ValueError("eps_min must be positive")
        if not self.qp_tolerance > 0:
            raise ValueError("qp_tolerance must be positive")
        if not self.iteration_limit >= 1:
            raise ValueError("iteration_limit must be at least 1")
        if not self.ls_initial > 0:
            raise ValueError("ls_initial must be positive")
        if not self.n_f >= 1:
            raise ValueError("n_f must be at least 1")

    def samples_per_iteration(self, n: int) -> int:
        if self.p is not None:
            return self.p
        if self.strategy == "gradient_combination":
            return math.ceil(n / 10)
        return 0

    def bundle_limit(self, n: int) -> int:
        return max(10, math.ceil(self.size_factor * n))


# Option-file keys follow the solver's user-facing catalog.  BFGS_* and DFP_*
# thresholds intentionally map to the same fields; the active quasi-Newton
# mode decides which catalog name applies.
_OPTION_KEYS = {
    "BFGS_correction_threshold_1": ("eta", float),
    "BFGS_correction_threshold_2": ("psi", float),
    "DFP_correction_threshold_1": ("eta", float),
    "DFP_correction_threshold_2": ("psi", float),
    "LSWW_stepsize_initial": ("ls_initial", float),
    "LSWW_stepsize_sufficient_decrease_threshold": ("ls_decrease", float),
    "LSWW_stepsize_curvature_threshold": ("ls_curvature", float),
    "LSB_stepsize_initial": ("ls_initial", float),
    "LSB_stepsize_sufficient_decrease_threshold": ("ls_decrease", float),
    "PSP_envelope_factor": ("envelope_factor", float),
    "PSP_size_factor": ("size_factor", float),
    "SMLM_history": ("history_limit", int),
    "TB_objective_similarity_tolerance": ("delta_f", float),
    "TS_objective_similarity_tolerance": ("delta_f", float),
}


def load_options_file(path: str, base: SolverOptions | None = None) -> SolverOptions:
    """Read a flat ``key = value`` options file and overlay it on ``base``."""
    opts = base or SolverOptions()
    overrides = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _OPTION_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            field_name, kind = _OPTION_KEYS[key]
            overrides[field_name] = kind(raw)
    return replace(opts, **overrides)
