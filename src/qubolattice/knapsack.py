"""Knapsack as twin summation trees over shared item selectors.

One tree accumulates values, the other weights; both are numpart's
summation tree.  Capacity is enforced for free by pinning the weight root
register bits from m upward to zero (a padded dummy item turns a general
capacity into the 2^m - 1 form), and the value objective is
replaced by a window test: pinning the top relevant bit of the value register
asks "is there a feasible subset worth at least 2^l?".  Sweeping the pinned
bit downward and then bisecting the lower bits recovers the exact optimum
with log-many solves instead of a wide-coupling objective.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .numpart import build_summation_tree
from .qubo import BINARY, COEFF_TOL, Qubo, QuboBuilder, brute_force, clamp


class KnapsackError(ValueError):
    """Invalid knapsack instance or parameter."""


@dataclass(frozen=True)
class KnapsackInstance:
    values: tuple[int, ...]
    weights: tuple[int, ...]
    capacity: int

    def __post_init__(self):
        if len(self.values) != len(self.weights):
            raise KnapsackError("values and weights must pair up")
        if len(self.values) < 1:
            raise KnapsackError("knapsack needs at least one item")
        if any(v < 1 for v in self.values) or any(w < 1 for w in self.weights):
            raise KnapsackError("values and weights must be positive integers")
        if self.capacity < 0:
            raise KnapsackError("capacity must be nonnegative")

    @property
    def N(self) -> int:
        return len(self.values)

    @property
    def value_width(self) -> int:
        return max(v.bit_length() for v in self.values)

    @property
    def weight_width(self) -> int:
        return max(w.bit_length() for w in self.weights)

    @property
    def m(self) -> int:
        return max(1, self.capacity.bit_length())


@dataclass
class KnapsackTreeQubo:
    """Twin-tree objective with clamped value window."""

    qubo: Qubo
    instance: KnapsackInstance
    selectors: list[str]


def build_knapsack_qubo(inst: KnapsackInstance, l_star: int) -> KnapsackTreeQubo:
    """Compile a knapsack instance against the value window [2^l*, 2^(l*+1)).

    Ground energy is zero exactly when some subset fits the capacity and has
    total value inside the window.  A dummy item of weight 2^m - 1 - capacity
    (selector pinned on) pads general capacities to the all-ones form.
    """
    N = inst.N
    m = inst.m
    dummy_weight = (1 << m) - 1 - inst.capacity
    values = list(inst.values)
    weights = list(inst.weights)
    selectors: list[str | None] = [f"x{i}" for i in range(1, N + 1)]
    builder = QuboBuilder(BINARY)
    for s in selectors:
        builder.var(s)
    if dummy_weight > 0:
        values.append(0)
        weights.append(dummy_weight)
        selectors.append("xdummy")
    value_root = build_summation_tree(builder, values, selectors, "V", inst.value_width + 1)
    weight_root = build_summation_tree(builder, weights, selectors, "W", inst.weight_width + 1)
    if not 0 <= l_star < value_root.width:
        raise KnapsackError(
            f"l_star {l_star} outside the value register width {value_root.width}"
        )
    q = builder.build()
    pins: dict[str, int] = {f"{value_root.prefix}:{l_star}": 1}
    for p in range(l_star + 1, value_root.width):
        pins[f"{value_root.prefix}:{p}"] = 0
    # capacity: the weight register may not reach bit m, so pin the overflow
    # bits to zero (the dummy item has already padded W_max to 2^m - 1)
    for p in range(m, weight_root.width):
        pins[f"{weight_root.prefix}:{p}"] = 0
    if dummy_weight > 0:
        pins["xdummy"] = 1
    return KnapsackTreeQubo(clamp(q, pins), inst, selectors[:N])


def predicted_knapsack_length(N: int, l_prime: int, m_prime: int, J: int) -> float:
    """Closed-form side bound for the twin-tree fractal embedding."""
    return math.sqrt(N) / J * (50.0 + 8.0 * l_prime + 8.0 * m_prime)


def _window_feasible(inst: KnapsackInstance, subset: tuple[int, ...], lo: int, hi: int) -> bool:
    w = sum(inst.weights[i] for i in subset)
    v = sum(inst.values[i] for i in subset)
    return w <= inst.capacity and lo <= v < hi


def _exact_window_solver(inst: KnapsackInstance, lo: int, hi: int):
    """Exhaustive selector sweep; the adder completions are forced, so window
    membership of the exact sums decides zero energy."""
    for r in range(inst.N + 1):
        for subset in itertools.combinations(range(inst.N), r):
            if _window_feasible(inst, subset, lo, hi):
                return subset
    return None


def knapsack_sweep(inst: KnapsackInstance, solver: str = "exact") -> tuple[set[int], int]:
    """Find the optimal subset by sweeping then bisecting the value window.

    The pinned top bit l* descends until a window is feasible; the lower bits
    are then fixed one by one (try 1, keep on success).  With an exact window
    solver the result is exactly optimal.  solver="brute" additionally solves
    each window QUBO by exhaustive enumeration as a cross-check and requires
    a small instance.
    """
    if solver not in ("exact", "brute"):
        raise KnapsackError(f"unknown solver {solver!r}")
    if sum(inst.weights) <= inst.capacity:
        return set(range(inst.N)), sum(inst.values)
    width = max(1, sum(inst.values).bit_length())
    best_subset: set[int] = set()
    for l_star in range(width - 1, -1, -1):
        lo, hi = 1 << l_star, 1 << (l_star + 1)
        witness = _solve_window(inst, l_star, lo, hi, solver)
        if witness is not None:
            prefix_lo = lo
            subset = witness
            for p in range(l_star - 1, -1, -1):
                trial_lo = prefix_lo | (1 << p)
                w2 = _exact_window_solver(inst, trial_lo, prefix_lo + (1 << (p + 1)))
                if w2 is not None:
                    prefix_lo = trial_lo
                    subset = w2
            return set(subset), sum(inst.values[i] for i in subset)
    return best_subset, 0


def _solve_window(inst: KnapsackInstance, l_star: int, lo: int, hi: int, solver: str):
    if solver == "brute":
        tree = build_knapsack_qubo(inst, l_star)
        spec = brute_force(tree.qubo, cap=24)
        if spec.ground_energy > COEFF_TOL:
            return None
        state = spec.ground_states[0]
        return tuple(
            i for i, name in enumerate(tree.selectors) if state[tree.qubo.index_of(name)] == 1
        )
    return _exact_window_solver(inst, lo, hi)


def decode_knapsack(tree: KnapsackTreeQubo, assignment) -> dict:
    """Subset selected by an assignment (item indices in increasing order),
    with weight feasibility asserted."""
    subset = [
        i for i, name in enumerate(tree.selectors) if assignment[tree.qubo.index_of(name)] == 1
    ]
    weight = sum(tree.instance.weights[i] for i in subset)
    value = sum(tree.instance.values[i] for i in subset)
    return {
        "subset": subset,
        "value": value,
        "weight": weight,
        "feasible": weight <= tree.instance.capacity,
    }
