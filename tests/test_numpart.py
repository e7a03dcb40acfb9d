"""Number-partitioning compiler, size bounds, layout, and decoding."""

import itertools
import math

import pytest

from oracles import balanced_subset_exists
from qubolattice.adder import read_register
from qubolattice.embedding import unembed, validate
from qubolattice.numpart import (
    PartitionError,
    PartitionInstance,
    arithmetic_completion,
    build_numpart_qubo,
    decode_partition,
    embed_numpart,
    ground_energy_by_completion,
    predicted_numpart_length,
)
from qubolattice.qubo import brute_force, clamp


class TestBuildNumpart:
    def test_two_two_three_three(self):
        tree = build_numpart_qubo(PartitionInstance((2, 2, 3, 3)))
        spec = brute_force(tree.qubo, cap=24)
        assert spec.ground_energy == 0.0
        subsets = set()
        for state in spec.ground_states:
            picked = tuple(
                i for i, name in enumerate(tree.selectors) if state[tree.qubo.index_of(name)] == 1
            )
            subsets.add(picked)
            assert sum(tree.instance.numbers[i] for i in picked) == 5
            assert read_register(state, tree.qubo, tree.root.prefix, tree.root.width) == 5
        # one 2 and one 3, four ways
        assert subsets == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_pair_of_ones(self):
        tree = build_numpart_qubo(PartitionInstance((1, 1)))
        spec = brute_force(tree.qubo)
        assert spec.ground_energy == 0.0
        for state in spec.ground_states:
            hot = [name for name in tree.selectors if state[tree.qubo.index_of(name)] == 1]
            assert len(hot) == 1

    def test_odd_total_flagged(self):
        tree = build_numpart_qubo(PartitionInstance((1, 2, 4)))
        assert not tree.feasible_parity
        assert tree.qubo.offset == 1.0
        spec = brute_force(tree.qubo)
        assert spec.ground_energy > 0.0

    def test_coefficients_bounded_independent_of_n(self):
        # register and carry couplings stay O(1); the one selector-pair term
        # accumulates 2 per shared set bit of the paired constants, which is
        # independent of N (and at most 2 * bit_length of the numbers)
        maxima = set()
        for count in (2, 4, 6, 8):
            numbers = ((7, 7) * 4)[:count]
            tree = build_numpart_qubo(PartitionInstance(numbers))
            maxima.add((tree.qubo.max_abs_quadratic(), tree.qubo.max_abs_linear()))
            assert tree.qubo.max_abs_quadratic() <= 2 * 3
            assert tree.qubo.max_abs_linear() <= 6.0
        assert len(maxima) == 1

    def test_rejects_single_number(self):
        with pytest.raises(PartitionError):
            PartitionInstance((5,))


class TestOracleEquivalence:
    def test_brute_force_matches_completion_sweep(self):
        # exhaustive over all multisets small enough to enumerate every state:
        # the full spectrum agrees with the selector-completion shortcut
        for numbers in itertools.combinations_with_replacement(range(1, 4), 3):
            tree = build_numpart_qubo(PartitionInstance(numbers))
            if not tree.feasible_parity:
                continue
            spec = brute_force(tree.qubo, cap=20)
            energy, _ = ground_energy_by_completion(tree)
            assert (spec.ground_energy == 0.0) == (energy == 0.0), numbers
            assert spec.ground_energy >= -1e-12  # sum of squares

    def test_exhaustive_n3(self):
        for numbers in itertools.combinations_with_replacement(range(1, 8), 3):
            tree = build_numpart_qubo(PartitionInstance(numbers))
            if not tree.feasible_parity:
                assert not balanced_subset_exists(numbers)
                continue
            energy, witness = ground_energy_by_completion(tree)
            expected = balanced_subset_exists(numbers)
            assert (energy == 0.0) == expected, numbers
            if expected:
                picked = [
                    numbers[k]
                    for k, name in enumerate(tree.selectors)
                    if witness[tree.qubo.index_of(name)]
                ]
                assert sum(picked) * 2 == sum(numbers)

    def test_completion_kills_all_columns(self):
        tree = build_numpart_qubo(PartitionInstance((5, 3, 6, 2)))
        state = arithmetic_completion(tree, {"x1": 1, "x2": 0, "x3": 1, "x4": 0})
        # 5 + 6 = 11 != 8 = W, so only root pins contribute
        assert tree.qubo.energy(state) == bin(11 ^ 8).count("1")


class TestPredictedLength:
    def test_paper_arithmetic(self):
        assert predicted_numpart_length(16, 2, 4, "tree") == pytest.approx(64.0)
        assert predicted_numpart_length(16, 2, 4, "linear") == pytest.approx(56.0)
        assert predicted_numpart_length(4, 1, 4, "tree") == pytest.approx(26.0)

    def test_crossover_scale(self):
        # near N=16, M=2, J=4 both strategies cost about L ~ 60
        tree = predicted_numpart_length(16, 2, 4, "tree")
        linear = predicted_numpart_length(16, 2, 4, "linear")
        assert 50 <= tree <= 70 and 50 <= linear <= 70

    def test_unknown_strategy(self):
        with pytest.raises(PartitionError):
            predicted_numpart_length(4, 1, 4, "spiral")


class TestEmbedNumpart:
    def test_n2_single_adder(self):
        inst = PartitionInstance((1, 1))
        e = embed_numpart(inst, J=4)
        assert e.embedding.lattice.L == 1
        report = validate(e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars))
        assert report.ok, report.summary()

    def test_n4_within_bound_and_valid(self):
        inst = PartitionInstance((2, 2, 3, 3))
        e = embed_numpart(inst, J=4)
        bound = predicted_numpart_length(4, 2, 4, "tree")
        assert e.embedding.lattice.L <= bound
        report = validate(e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars))
        assert report.ok, report.summary()

    def test_embedded_ground_matches_logical(self):
        inst = PartitionInstance((1, 1))
        e = embed_numpart(inst, J=4)
        phys = brute_force(e.physical)
        logical = brute_force(e.logical)
        assert phys.ground_energy == pytest.approx(logical.ground_energy, abs=1e-9)
        for s in phys.ground_states:
            decoded, broken = unembed(e, s)
            assert broken == 0

    def test_chain_intact_restriction_is_logical(self):
        inst = PartitionInstance((2, 2, 3, 3))
        e = embed_numpart(inst, J=4)
        eff = e.chain_intact_qubo()
        q = e.logical
        assert eff.num_vars == q.num_vars
        assert eff.offset == pytest.approx(q.offset, abs=1e-9)
        for i in range(q.num_vars):
            assert eff.linear.get(i, 0.0) == pytest.approx(q.linear.get(i, 0.0), abs=1e-9)
        for key in set(eff.quadratic) | set(q.quadratic):
            assert eff.quadratic.get(key, 0.0) == pytest.approx(
                q.quadratic.get(key, 0.0), abs=1e-9
            )

    @pytest.mark.parametrize("J", [2, 4])
    @pytest.mark.parametrize("N", [5, 6, 7, 8, 12, 16])
    def test_deep_trees_valid_within_bound(self, N, J):
        # N > 4 puts internal nodes on odd levels, where children are stacked
        numbers = [1 + (5 * i) % 7 for i in range(N)]
        numbers[-1] += sum(numbers) % 2
        inst = PartitionInstance(tuple(numbers))
        e = embed_numpart(inst, J=J)
        report = validate(e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars))
        assert report.ok, report.summary()
        assert e.embedding.lattice.L <= predicted_numpart_length(N, inst.M, J, "tree")
        eff, q = e.chain_intact_qubo(), e.logical
        assert eff.num_vars == q.num_vars
        assert eff.offset == pytest.approx(q.offset, abs=1e-9)
        for i in range(q.num_vars):
            assert eff.linear.get(i, 0.0) == pytest.approx(q.linear.get(i, 0.0), abs=1e-9)
        for key in set(eff.quadratic) | set(q.quadratic):
            assert eff.quadratic.get(key, 0.0) == pytest.approx(
                q.quadratic.get(key, 0.0), abs=1e-9
            )

    def test_odd_total_refuses_embedding(self):
        with pytest.raises(PartitionError):
            embed_numpart(PartitionInstance((1, 2, 4)), J=4)


class TestDecode:
    def test_balanced_decode(self):
        tree = build_numpart_qubo(PartitionInstance((2, 2, 3, 3)))
        spec = brute_force(tree.qubo, cap=24)
        result = decode_partition(tree, spec.ground_states[0])
        assert result["residual"] == 0 and result["balanced"]
        assert sorted(result["set_a"] + result["set_b"]) == [2, 2, 3, 3]

    def test_all_zero_selectors_reports_mismatch(self):
        tree = build_numpart_qubo(PartitionInstance((2, 2, 3, 3)))
        state = tuple(0 for _ in range(tree.qubo.num_vars))
        result = decode_partition(tree, state)
        assert result["residual"] == 10
        assert not result["balanced"]
