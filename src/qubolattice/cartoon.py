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
    """Invalid model parameter, or a result outside the float range."""


# The largest N for which the model's eps (so every gap) and each `lz_time`
# schedule give a float: eps = 2^-N underflows past N = 1074, 2^N overflows
# past 1023 and 2^(N/2) past 2047.
MAX_N = {"gap": 1074, "linear": 1023, "optimal": 2047}
_LEAVES_RANGE = {
    "gap": "eps = 2^-N underflows",
    "linear": "2^N overflows",
    "optimal": "2^(N/2) overflows",
}


def _check_range(N: int, result: str) -> None:
    if N > MAX_N[result]:
        raise CartoonError(f"{_LEAVES_RANGE[result]} past N = {MAX_N[result]}, got N = {N}")


@dataclass(frozen=True)
class CartoonModel:
    N: int
    s: float = 0.0

    def __post_init__(self):
        if self.N < 1:
            raise CartoonError("need at least one bit")
        _check_range(self.N, "gap")
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

    The squared gap is 4t^2(1 - eps) - 4t(1 - eps) + 1 with t = 1 - s, a
    parabola whose minimum eps lies at s = 1/2.
    """
    return spectral_gap(N, 0.5), 0.5


def lz_time(N: int, schedule: str = "linear") -> float:
    """Landau-Zener annealing-time estimate (a scaling, not dynamics).

    Linear schedules cost 1/eps; an optimal schedule that slows down near the
    crossing gets the quadratic speedup 1/sqrt(eps).
    """
    if N < 0:
        raise CartoonError("N must be nonnegative")
    if schedule not in ("linear", "optimal"):
        raise CartoonError(f"unknown schedule {schedule!r}")
    _check_range(N, schedule)
    if schedule == "linear":
        return 2.0**N
    # sqrt(2^N) split at a power of two, which scales exactly
    return math.sqrt(2.0 ** (N % 2)) * 2.0 ** (N // 2)


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
