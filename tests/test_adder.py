"""Binary adder QUBOs: exhaustive correctness and bounded couplings."""

import pytest

from qubolattice.adder import (
    AdderError,
    build_adder,
    build_naive_adder,
    read_register,
)
from qubolattice.numpart import build_summation_tree
from qubolattice.qubo import BINARY, QuboBuilder, brute_force, clamp


def clamp_inputs(adder, x1: int, x2: int):
    fixed = {}
    for j in range(adder.n):
        fixed[f"x1:{j}"] = (x1 >> j) & 1
        fixed[f"x2:{j}"] = (x2 >> j) & 1
    return clamp(adder.qubo, fixed)


class TestBuildAdder:
    def test_n1_ground_states(self):
        adder = build_adder(1)
        spec = brute_force(adder.qubo)
        assert spec.ground_energy == 0.0
        assert spec.state_count_at_ground == 4
        r = adder.qubo.index_of
        for state in spec.ground_states:
            x1, x2 = state[r("x1:0")], state[r("x2:0")]
            y = state[r("y:0")] + 2 * state[r("y:1")]
            assert y == x1 + x2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_sums(self, n):
        adder = build_adder(n)
        for x1 in range(2**n):
            for x2 in range(2**n):
                sub = clamp_inputs(adder, x1, x2)
                spec = brute_force(sub)
                assert spec.ground_energy == 0.0
                assert spec.state_count_at_ground == 1, (x1, x2)
                assert read_register(spec.ground_states[0], sub, "y", n + 1) == x1 + x2
                # wrong completions cost at least one unit
                assert spec.gap >= 1.0

    def test_three_plus_five(self):
        adder = build_adder(3)
        sub = clamp_inputs(adder, 3, 5)
        spec = brute_force(sub)
        assert spec.state_count_at_ground == 1
        assert read_register(spec.ground_states[0], sub, "y", 4) == 8

    def test_all_zero_assignment(self):
        adder = build_adder(2)
        assert adder.qubo.energy((0,) * adder.qubo.num_vars) == 0.0

    def test_coefficients_constant_in_n(self):
        # interior carries sit in two columns: 4 (as doubled carry-out) + 1
        maxima = []
        for n in range(1, 9):
            q = build_adder(n).qubo
            maxima.append((q.max_abs_quadratic(), q.max_abs_linear()))
            assert q.max_abs_quadratic() <= 4.0
            assert q.max_abs_linear() <= 5.0
        assert len(set(maxima[1:])) == 1

    def test_bit_count(self):
        for n in (1, 2, 4):
            assert build_adder(n).qubo.num_vars == 4 * n

    def test_rejects_zero_width(self):
        with pytest.raises(AdderError):
            build_adder(0)


class TestNaiveAdder:
    def test_same_ground_sums_as_column_adder(self):
        naive = build_naive_adder(2)
        spec = brute_force(naive.qubo)
        assert spec.ground_energy == 0.0
        r = naive.qubo.index_of
        sums = set()
        for state in spec.ground_states:
            x1 = state[r("x1:0")] + 2 * state[r("x1:1")]
            x2 = state[r("x2:0")] + 2 * state[r("x2:1")]
            y = read_register(state, naive.qubo, "y", 3)
            assert y == x1 + x2
            sums.add((x1, x2))
        assert sums == {(a, b) for a in range(4) for b in range(4)}

    def test_couplings_blow_up(self):
        naive = build_naive_adder(6)
        assert naive.qubo.max_abs_quadratic() > 4.0


def selectable_adder(constants: tuple[int, int]):
    """The paper's selectable adder X = a xa + b xb: a one-leaf summation tree.

    Returns the objective over xa, xb and the register, and the register node.
    """
    M = max(1, max(constants).bit_length())
    builder = QuboBuilder(BINARY)
    for name in ("xa", "xb"):
        builder.var(name)
    root = build_summation_tree(builder, list(constants), ["xa", "xb"], "X", M + 1)
    return builder.build(), root


class TestSelectableAdder:
    @pytest.mark.parametrize(
        "constants,selectors,expected",
        [
            ((3, 5), (1, 1), 8), ((3, 5), (0, 0), 0), ((1, 1), (1, 0), 1), ((3, 5), (1, 0), 3),
            # the tree leaves a zero constant out of the register's columns
            ((0, 7), (1, 1), 7), ((0, 7), (1, 0), 0), ((6, 0), (1, 1), 6), ((6, 0), (0, 1), 0),
        ],
    )
    def test_output_tracks_selection(self, constants, selectors, expected):
        q, root = selectable_adder(constants)
        sub = clamp(q, {"xa": selectors[0], "xb": selectors[1]})
        spec = brute_force(sub)
        assert spec.ground_energy == 0.0
        assert read_register(spec.ground_states[0], sub, root.prefix, root.width) == expected
        assert spec.state_count_at_ground == 1

    def test_zero_selection_forces_zero_carries(self):
        q, _ = selectable_adder((3, 5))
        sub = clamp(q, {"xa": 0, "xb": 0})
        spec = brute_force(sub)
        assert all(v == 0 for v in spec.ground_states[0])
