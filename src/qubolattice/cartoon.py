"""Two-level caricature of adiabatic optimization with a unique ground state.

Projecting the drive onto the span of the marked state and the uniform rest
leaves a 2x2 Hamiltonian whose minimum gap is sqrt(eps) with eps = 2^-N,
reached halfway through the schedule.  The Landau-Zener estimate then gives
1/eps runtime for a linear schedule and 1/sqrt(eps) for an optimally slowed
one: exponential either way, set purely by the state-space size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class CartoonError(ValueError):
    """Invalid model parameter."""


@dataclass(frozen=True)
class CartoonModel:
    N: int
    s: float = 0.0

    def __post_init__(self):
        if self.N < 1:
            raise CartoonError("need at least one bit")
        if not 0.0 <= self.s <= 1.0:
            raise CartoonError("schedule parameter must lie in [0, 1]")

    @property
    def eps(self) -> float:
        return 2.0 ** (-self.N)


def two_level_hamiltonian(m: CartoonModel) -> np.ndarray:
    """Effective Hamiltonian in the (marked, rest) basis at schedule point s."""
    s, eps = m.s, m.eps
    off = -(1.0 - s) * math.sqrt(eps * (1.0 - eps))
    return np.array(
        [
            [-(1.0 - s) * eps, off],
            [off, s - (1.0 - s) * (1.0 - eps)],
        ]
    )


def spectral_gap(N: int, s: float) -> float:
    h = two_level_hamiltonian(CartoonModel(N, s))
    evals = np.linalg.eigvalsh(h)
    return float(evals[1] - evals[0])


def min_gap(N: int) -> tuple[float, float]:
    """Minimum gap over the schedule and where it occurs.

    Numeric minimization, polished against the midpoint candidate; the result
    equals sqrt(2^-N) at s = 1/2 to within 1e-9.  scipy is imported here, on
    the first call, so importing the package does not load it.
    """
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda s: spectral_gap(N, s), bounds=(0.0, 1.0), method="bounded",
        options={"xatol": 1e-12},
    )
    candidates = [(spectral_gap(N, 0.5), 0.5), (float(res.fun), float(res.x))]
    gap, s_star = min(candidates)
    return gap, s_star


def lz_time(N: int, schedule: str = "linear") -> float:
    """Landau-Zener annealing-time estimate (a scaling, not dynamics).

    Linear schedules cost 1/eps; an optimal schedule that slows down near the
    crossing gets the quadratic speedup 1/sqrt(eps).
    """
    if N < 0:
        raise CartoonError("N must be nonnegative")
    inverse_eps = 2.0**N
    if schedule == "linear":
        return inverse_eps
    if schedule == "optimal":
        return math.sqrt(inverse_eps)
    raise CartoonError(f"unknown schedule {schedule!r}")


def report_rows(n_values) -> list[dict]:
    """(N, eps, gap, s*, tau_linear, tau_optimal) rows for the CLI report."""
    rows = []
    for n in n_values:
        gap, s_star = min_gap(n)
        rows.append(
            {
                "N": n,
                "eps": 2.0 ** (-n),
                "gap": gap,
                "s_star": s_star,
                "tau_linear": lz_time(n, "linear"),
                "tau_optimal": lz_time(n, "optimal"),
            }
        )
    return rows
