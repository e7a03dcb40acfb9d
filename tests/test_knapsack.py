"""Knapsack twin-tree compiler and window sweep against a DP oracle."""

import itertools

import numpy as np
import pytest

from oracles import knapsack_best_subset, knapsack_dp
from qubolattice.documents import dumps
from qubolattice.knapsack import (
    KnapsackError,
    KnapsackInstance,
    build_knapsack_qubo,
    decode_knapsack,
    knapsack_sweep,
    predicted_knapsack_length,
)
from qubolattice.qubo import brute_force


class TestBuildKnapsack:
    def test_two_unit_items(self):
        inst = KnapsackInstance((1, 1), (1, 1), 1)
        tree = build_knapsack_qubo(inst, l_star=0)
        spec = brute_force(tree.qubo)
        assert spec.ground_energy == 0.0
        for state in spec.ground_states:
            picked = [
                i for i, n in enumerate(tree.selectors) if state[tree.qubo.index_of(n)] == 1
            ]
            assert len(picked) == 1

    def test_window_selects_pair(self):
        # V=(2,3,1), W=(1,1,1), capacity 2, window [4, 8): only {2, 3} works
        inst = KnapsackInstance((2, 3, 1), (1, 1, 1), 2)
        tree = build_knapsack_qubo(inst, l_star=2)
        spec = brute_force(tree.qubo, cap=26)
        assert spec.ground_energy == 0.0
        subsets = set()
        for state in spec.ground_states:
            decoded = decode_knapsack(tree, state)
            assert decoded["feasible"]
            assert 4 <= decoded["value"] < 8
            subsets.add(frozenset(decoded["subset"]))
        assert frozenset({0, 1}) in subsets

    def test_decoded_subset_serializes_in_index_order(self):
        tree = build_knapsack_qubo(KnapsackInstance((3, 1), (2, 1), 2), 1)
        decoded = decode_knapsack(tree, [1] * tree.qubo.num_vars)
        assert '"subset":[0,1]' in dumps(decoded)

    def test_unreachable_window_positive_energy(self):
        inst = KnapsackInstance((1, 1), (1, 1), 1)
        tree = build_knapsack_qubo(inst, l_star=1)  # value >= 2 needs both items
        spec = brute_force(tree.qubo)
        assert spec.ground_energy > 0.0

    def test_capacity_truncation_blocks_heavy_subsets(self):
        inst = KnapsackInstance((1, 1), (2, 3), 3)
        tree = build_knapsack_qubo(inst, l_star=1)  # value window [2, 4): both items
        spec = brute_force(tree.qubo, cap=26)
        # both items weigh 5 > 3, so the window is infeasible
        assert spec.ground_energy > 0.0

    def test_l_star_out_of_range(self):
        inst = KnapsackInstance((1, 1), (1, 1), 1)
        with pytest.raises(KnapsackError):
            build_knapsack_qubo(inst, l_star=9)

    def test_validation(self):
        with pytest.raises(KnapsackError):
            KnapsackInstance((1,), (1, 2), 1)
        with pytest.raises(KnapsackError):
            KnapsackInstance((0,), (1,), 1)


class TestSweep:
    def test_matches_dp_on_random_suite(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            values = tuple(int(v) for v in rng.integers(1, 8, n))
            weights = tuple(int(w) for w in rng.integers(1, 8, n))
            capacity = int(rng.integers(0, 15))
            inst = KnapsackInstance(values, weights, capacity)
            subset, value = knapsack_sweep(inst)
            assert value == knapsack_dp(list(values), list(weights), capacity)
            assert sum(weights[i] for i in subset) <= capacity
            assert sum(values[i] for i in subset) == value

    def test_brute_solver_agrees_with_exact(self):
        inst = KnapsackInstance((2, 1), (2, 1), 1)
        s_exact, v_exact = knapsack_sweep(inst, solver="exact")
        s_brute, v_brute = knapsack_sweep(inst, solver="brute")
        assert v_exact == v_brute == knapsack_dp([2, 1], [2, 1], 1)
        assert s_exact == s_brute == {1}

    def test_everything_fits(self):
        inst = KnapsackInstance((4, 2, 1), (1, 1, 1), 10)
        subset, value = knapsack_sweep(inst)
        assert subset == {0, 1, 2} and value == 7

    def test_zero_capacity(self):
        inst = KnapsackInstance((3, 5), (1, 1), 0)
        subset, value = knapsack_sweep(inst)
        assert subset == set() and value == 0

    def test_exhaustive_tiny_grid(self):
        for values in itertools.product((1, 3, 7), repeat=2):
            for weights in itertools.product((1, 2), repeat=2):
                for capacity in (0, 1, 2, 3):
                    inst = KnapsackInstance(values, weights, capacity)
                    _, value = knapsack_sweep(inst)
                    assert value == knapsack_dp(list(values), list(weights), capacity)


class TestPredictedLength:
    def test_arithmetic(self):
        assert predicted_knapsack_length(16, 3, 3, 4) == pytest.approx(98.0)
        assert predicted_knapsack_length(4, 1, 1, 4) == pytest.approx(33.0)
        assert predicted_knapsack_length(9, 0, 0, 3) == pytest.approx(50.0)
