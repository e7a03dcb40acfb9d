"""Core objective representation, transforms, and solvers."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import all_graphs, exhaustive_spectrum, reference_anneal
from qubolattice import qubo as qubo_module
from qubolattice.adder import build_adder
from qubolattice.coloring import ColoringInstance, _build_tileset_any, compile_coloring
from qubolattice.hamcycle import (
    HamcycleInstance,
    build_ic_qubo,
    build_permutation_qubo,
    build_tileable_hamcycle,
)
from qubolattice.knapsack import KnapsackInstance, build_knapsack_qubo
from qubolattice.numpart import PartitionInstance, build_numpart_qubo, embed_numpart
from qubolattice.qubo import (
    BINARY,
    COEFF_TOL,
    SPIN,
    NoiseModel,
    Qubo,
    QuboBuilder,
    QuboError,
    Spectrum,
    anneal_solve,
    apply_noise,
    brute_force,
    clamp,
    normalize_couplings,
    qubo_from_doc,
    qubo_to_doc,
    restricted_gap,
    spectrum_of_states,
    substitute,
    to_binary,
    to_spin,
)
from qubolattice.unary import build_unary_qubo, fractal_embed_unary


def one_hot_pair() -> Qubo:
    # (1 - x1 - x2)^2 expanded over bits
    q = Qubo(BINARY, 2)
    q.add_squared_affine(1.0, [(0, -1.0), (1, -1.0)])
    return q


def random_qubo(rng, n, domain=BINARY) -> Qubo:
    q = Qubo(domain, n)
    for i in range(n):
        q.add_linear(i, float(rng.integers(-3, 4)))
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                q.add_quadratic(i, j, float(rng.integers(-3, 4)))
    q.add_offset(float(rng.integers(-2, 3)))
    return q


class TestEvaluate:
    def test_satisfied_unary_constraint(self):
        q = one_hot_pair()
        assert q.energy((1, 0)) == 0.0
        assert q.energy((0, 1)) == 0.0

    def test_double_assignment_costs_one(self):
        assert one_hot_pair().energy((1, 1)) == 1.0

    def test_constant_term(self):
        assert one_hot_pair().energy((0, 0)) == 1.0

    def test_rejects_wrong_length_and_domain(self):
        q = one_hot_pair()
        with pytest.raises(QuboError):
            q.energy((1,))
        with pytest.raises(QuboError):
            q.energy((1, -1))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        q = random_qubo(rng, 6)
        states = ((np.arange(64)[:, None] >> np.arange(6)) & 1).astype(np.int8)
        vec = q.energies(states)
        for row, e in zip(states, vec):
            assert math.isclose(q.energy(tuple(int(v) for v in row)), e, abs_tol=1e-12)

    @pytest.mark.parametrize("domain", [BINARY, SPIN])
    def test_energies_do_not_depend_on_call_shape(self, domain):
        rng = np.random.default_rng(20)
        q = Qubo(domain, 20, float(rng.normal()))
        for i in range(20):
            q.add_linear(i, float(rng.normal()))
            for j in range(i + 1, 20):
                q.add_quadratic(i, j, float(rng.normal()) / 3)
        lo, hi = q._domain_values()
        states = np.where(rng.random((4096, 20)) < 0.5, lo, hi).astype(np.int8)
        whole = q.energies(states)
        for rows in (1, 3, 64, 1000):
            chunks = [q.energies(states[s : s + rows]) for s in range(0, len(states), rows)]
            assert np.concatenate(chunks).tobytes() == whole.tobytes()


class TestDomainConversion:
    def test_single_bit(self):
        q = Qubo(BINARY, 1)
        q.add_linear(0, 1.0)
        s = to_spin(q)
        assert math.isclose(s.energy((1,)), 1.0)
        assert math.isclose(s.energy((-1,)), 0.0)

    def test_product_coefficient(self):
        q = Qubo(BINARY, 2)
        q.add_quadratic(0, 1, 1.0)
        s = to_spin(q)
        assert math.isclose(s.quadratic[(0, 1)], 0.25)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        q = random_qubo(rng, 5)
        back = to_binary(to_spin(q))
        assert math.isclose(back.offset, q.offset, abs_tol=1e-12)
        for i in range(5):
            assert math.isclose(back.linear.get(i, 0.0), q.linear.get(i, 0.0), abs_tol=1e-12)
        for key in set(back.quadratic) | set(q.quadratic):
            assert math.isclose(
                back.quadratic.get(key, 0.0), q.quadratic.get(key, 0.0), abs_tol=1e-12
            )

    def test_energy_preserved_on_all_assignments(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            q = random_qubo(rng, 5)
            s = to_spin(q)
            for code in range(32):
                bits = tuple((code >> k) & 1 for k in range(5))
                spins = tuple(2 * b - 1 for b in bits)
                assert math.isclose(q.energy(bits), s.energy(spins), abs_tol=1e-9)

    def test_domain_precondition(self):
        with pytest.raises(QuboError):
            to_spin(Qubo(SPIN, 1))
        with pytest.raises(QuboError):
            to_binary(Qubo(BINARY, 1))


class TestNormalize:
    def test_off_diagonal_binds(self):
        q = Qubo(SPIN, 2)
        q.add_quadratic(0, 1, 4.0)
        q.add_linear(0, 2.0)
        out, scale = normalize_couplings(q)
        assert scale == 0.25
        assert out.quadratic[(0, 1)] == 1.0
        assert out.linear[0] == 0.5

    def test_already_feasible(self):
        q = Qubo(SPIN, 2)
        q.add_quadratic(0, 1, -1.0)
        q.add_linear(1, 2.0)
        out, scale = normalize_couplings(q)
        assert scale == 1.0
        assert out.quadratic == q.quadratic

    def test_single_site_binds(self):
        q = Qubo(SPIN, 2)
        q.add_linear(0, 10.0)
        q.add_quadratic(0, 1, 1.0)
        out, scale = normalize_couplings(q)
        assert scale == pytest.approx(0.2)
        assert out.linear[0] == pytest.approx(2.0)

    def test_zero_objective_unchanged(self):
        q = Qubo(SPIN, 3)
        out, scale = normalize_couplings(q)
        assert scale == 1.0

    def test_argmin_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = random_qubo(rng, 6, SPIN)
            q.quadratic = {k: 5.0 * v for k, v in q.quadratic.items()}
            out, _ = normalize_couplings(q)
            assert set(brute_force(q).ground_states) == set(brute_force(out).ground_states)


class TestNoise:
    def base(self) -> Qubo:
        q = Qubo(SPIN, 4)
        q.add_linear(0, 1.0)
        q.add_quadratic(0, 1, -1.0)
        q.add_quadratic(2, 3, 0.5)
        return q

    def test_zero_scale_is_identity(self):
        q = self.base()
        out = apply_noise(q, NoiseModel(sigma_scale=0.0, seed=1))
        assert out.linear == q.linear and out.quadratic == q.quadratic

    def test_seed_determinism(self):
        q = self.base()
        a = apply_noise(q, NoiseModel(seed=42))
        b = apply_noise(q, NoiseModel(seed=42))
        assert a.linear == b.linear and a.quadratic == b.quadratic
        c = apply_noise(q, NoiseModel(seed=43))
        assert c.quadratic != a.quadratic

    def test_absent_couplers_stay_zero(self):
        q = self.base()
        out = apply_noise(q, NoiseModel(seed=9))
        assert (1, 2) not in out.quadratic

    def test_empirical_sigma(self):
        n = 10_000
        q = Qubo(SPIN, n)
        for i in range(n):
            q.add_linear(i, 1.0)
        out = apply_noise(q, NoiseModel(sigma_scale=0.03, seed=0))
        deltas = np.array([out.linear[i] - 1.0 for i in range(n)])
        assert abs(deltas.std() - 0.03) < 0.002

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.5])
    def test_sigma_must_be_finite_and_not_negative(self, sigma):
        with pytest.raises(QuboError, match=f"at least 0, got {sigma}"):
            NoiseModel(sigma_scale=sigma)


class TestBruteForce:
    def test_one_hot_pair(self):
        spec = brute_force(one_hot_pair())
        assert spec.ground_energy == 0.0
        assert set(spec.ground_states) == {(1, 0), (0, 1)}
        assert spec.gap == 1.0

    def test_ferromagnetic_pair(self):
        q = Qubo(SPIN, 2)
        q.add_quadratic(0, 1, 1.0)
        spec = brute_force(q)
        assert spec.ground_energy == -1.0
        assert spec.state_count_at_ground == 2
        assert spec.gap == 2.0

    def test_cap_refusal(self):
        with pytest.raises(QuboError):
            brute_force(Qubo(BINARY, 40))

    def test_degenerate_flag(self):
        spec = brute_force(Qubo(BINARY, 3))
        assert spec.degenerate and spec.gap == 0.0
        assert spec.state_count_at_ground == 8

    def test_relabel_invariance(self):
        rng = np.random.default_rng(17)
        q = random_qubo(rng, 6)
        perm = list(rng.permutation(6))
        shuffled = Qubo(BINARY, 6, q.offset)
        for i, c in q.linear.items():
            shuffled.add_linear(perm[i], c)
        for (i, j), c in q.quadratic.items():
            shuffled.add_quadratic(perm[i], perm[j], c)
        a, b = brute_force(q), brute_force(shuffled)
        assert math.isclose(a.ground_energy, b.ground_energy)
        assert math.isclose(a.gap, b.gap)
        remapped = {tuple(s[perm[k]] for k in range(6)) for s in b.ground_states}
        assert set(a.ground_states) == remapped


def python_spectrum(q: Qubo, tol: float = COEFF_TOL) -> Spectrum:
    """Spectrum by one `Qubo.energy` call per assignment, in code order."""
    return Spectrum(*exhaustive_spectrum(q._domain_values(), q.num_vars, q.energy, tol))


@st.composite
def small_qubos(draw, denominators):
    n = draw(st.integers(0, 14))
    denominator = draw(st.sampled_from(denominators))
    coeff = st.integers(-8, 8).map(lambda k: k / denominator)
    q = Qubo(draw(st.sampled_from([BINARY, SPIN])), n, draw(coeff))
    for i in range(n):
        q.add_linear(i, draw(coeff))
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        for i, j in draw(st.lists(pair, max_size=2 * n)):
            q.add_quadratic(i, j, draw(coeff))
    return q


class TestSplitEnumerator:
    @settings(max_examples=40, deadline=None)
    @given(q=small_qubos([1, 2, 4]))
    def test_dyadic_spectrum_equals_python_enumeration(self, q):
        assert brute_force(q) == python_spectrum(q)

    @settings(max_examples=40, deadline=None)
    @given(q=small_qubos([3, 10]))
    def test_non_dyadic_spectrum_within_tolerance(self, q):
        spec, ref = brute_force(q), python_spectrum(q)
        assert spec.ground_states == ref.ground_states
        assert spec.state_count_at_ground == ref.state_count_at_ground
        assert spec.degenerate == ref.degenerate
        assert abs(spec.ground_energy - ref.ground_energy) <= COEFF_TOL
        assert abs(spec.gap - ref.gap) <= COEFF_TOL

    @pytest.mark.parametrize("domain", [BINARY, SPIN])
    @pytest.mark.parametrize("n", [1, 2, 7, 12, 13])
    def test_tiny_blocks_give_the_same_spectrum(self, n, domain, monkeypatch):
        rng = np.random.default_rng(n)
        dense = random_qubo(rng, n, domain)
        ties = Qubo(domain, n)  # one field: half of all states are ground states
        ties.add_linear(n // 2, 1.0)
        expected = [python_spectrum(dense), python_spectrum(ties)]
        for entries in (1, 48, qubo_module._SPLIT_BLOCK):
            monkeypatch.setattr(qubo_module, "_SPLIT_BLOCK", entries)
            assert [brute_force(dense), brute_force(ties)] == expected

    @pytest.mark.parametrize("reference_block", [1 << 11, 1 << 20])
    @pytest.mark.parametrize("seed", range(8))
    def test_non_dyadic_spectrum_does_not_depend_on_block_size(
        self, seed, reference_block, monkeypatch
    ):
        # exact energies do not depend on the rows evaluated with them, so
        # even their rounding is the same whatever the block size
        rng = np.random.default_rng(seed)
        q = Qubo(SPIN, 15, float(rng.normal()))
        for i in range(15):
            q.add_linear(i, float(rng.normal()))
            for j in range(i + 1, 15):
                q.add_quadratic(i, j, float(rng.normal()) / 3)
        monkeypatch.setattr(qubo_module, "_SPLIT_BLOCK", reference_block)
        reference = brute_force(q)
        for entries in (1, 7, 1 << 8, 1 << 10):
            monkeypatch.setattr(qubo_module, "_SPLIT_BLOCK", entries)
            assert brute_force(q) == reference


@st.composite
def plateau_qubos(draw):
    """Dyadic objectives of at most 12 variables.  Unless `spread` is drawn,
    every term lies on the variables from `top` up, so the low codes form a
    plateau of 2**top states, often above the ground level.  A nudge of
    2**-31 on the last variable, below `COEFF_TOL` yet exact in float64, may
    split a level into two within tolerance of each other, in different
    blocks."""
    n = draw(st.integers(0, 12))
    top = draw(st.integers(0, n))
    spread = draw(st.booleans())
    coeff = st.integers(-4, 4).map(lambda k: k / 2)
    q = Qubo(draw(st.sampled_from([BINARY, SPIN])), n, draw(coeff))
    first = 0 if spread else top
    for i in range(first, n):
        q.add_linear(i, draw(coeff))
        for j in range(i + 1, n):
            if draw(st.booleans()):
                q.add_quadratic(i, j, draw(coeff))
    if n and draw(st.booleans()):
        q.add_linear(n - 1, draw(st.sampled_from([-1, 1])) * 2.0**-31)
    return q


def nudged_zero(domain: str, n: int) -> Qubo:
    """Zero objective whose upper half of codes lies 2**-31 lower: within
    tolerance, every state is a ground state, and the running minimum falls
    halfway."""
    q = Qubo(domain, n)
    q.add_linear(n - 1, -(2.0**-31))
    return q


class TestBoundedEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(
        q=plateau_qubos(),
        entries=st.sampled_from([1, 3, 16, 64, qubo_module._SPLIT_BLOCK]),
    )
    @example(q=nudged_zero(BINARY, 6), entries=1)
    @example(q=nudged_zero(SPIN, 6), entries=1)
    def test_spectrum_equals_itertools_enumeration(self, q, entries):
        # small blocks make the running minimum fall block after block: kept
        # rows are pruned, and the gap comes from what was dropped
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qubo_module, "_SPLIT_BLOCK", entries)
            spec = brute_force(q)
        assert spec == python_spectrum(q)

    @settings(max_examples=60, deadline=None)
    @given(q=plateau_qubos(), rows=st.sampled_from([1, 3, 16]))
    def test_explicit_states_equal_itertools_enumeration(self, q, rows):
        # one state per batch, or a few: the next level may lie in any batch.
        # A third of the objective is not exact in float64, and its plateaus
        # tie states whose bulk energies round apart
        third = Qubo(q.domain, q.num_vars, q.offset / 3)
        third.linear = {i: c / 3 for i, c in q.linear.items()}
        third.quadratic = {k: c / 3 for k, c in q.quadratic.items()}
        specs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qubo_module, "_BLOCK", rows)
            for p in (q, third):
                codes = itertools.product(p._domain_values(), repeat=p.num_vars)
                specs.append(spectrum_of_states(p, (code[::-1] for code in codes)))
        assert specs == [python_spectrum(q), brute_force(third)]

    def test_code_rows_build_no_wide_table(self):
        tracemalloc.start()
        try:
            rows = qubo_module._code_rows(0, 2**16, 16, SPIN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.dtype == np.int8 and rows.shape == (2**16, 16)
        assert peak <= 3 * 2**20

    @pytest.mark.parametrize("domain", [BINARY, SPIN])
    def test_cached_half_rows_equal_fresh_rows_and_refuse_writes(self, domain):
        for k in (0, 1, 5, 14):
            rows = qubo_module._half_rows(k, domain)
            assert rows is qubo_module._half_rows(k, domain)
            fresh = qubo_module._code_rows(0, 1 << k, k, domain)
            assert rows.dtype == fresh.dtype and np.array_equal(rows, fresh)
            with pytest.raises(ValueError, match="read-only"):
                rows[...] = 0
        info = qubo_module._half_rows.cache_info()
        assert info.maxsize == qubo_module._CODE_ROW_CACHE
        # the halves of an objective past BRUTE_FORCE_CAP are not kept
        energies, _ = next(iter(qubo_module._split_energy_blocks(Qubo(domain, 29, 1.5))))
        assert (energies == 1.5).all() and qubo_module._half_rows.cache_info() == info

    def test_random_objective_stays_in_block_budget(self):
        q = random_qubo(np.random.default_rng(24), 24, SPIN)
        tracemalloc.start()
        try:
            spec = brute_force(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.state_count_at_ground >= 1 and spec.gap > 0
        assert peak <= 8 * 2**20

    def test_zero_objective_returns_every_state_in_code_order(self):
        spec = brute_force(Qubo(SPIN, 18))
        assert (spec.ground_energy, spec.gap, spec.degenerate) == (0.0, 0.0, True)
        assert spec.state_count_at_ground == len(spec.ground_states) == 2**18
        codes = itertools.product((-1, 1), repeat=18)
        assert all(s == c[::-1] for s, c in zip(spec.ground_states, codes))


class TestRestricted:
    def test_full_predicate_matches_brute_force(self):
        q = one_hot_pair()
        full = restricted_gap(q, predicate=lambda s: True)
        ref = brute_force(q)
        assert full.ground_energy == ref.ground_energy
        assert set(full.ground_states) == set(ref.ground_states)
        assert full.gap == ref.gap

    def test_states_generator(self):
        q = one_hot_pair()
        spec = spectrum_of_states(q, [(0, 0), (1, 1)])
        assert spec.ground_energy == 1.0
        assert spec.degenerate

    def test_empty_subspace_errors(self):
        with pytest.raises(QuboError):
            restricted_gap(one_hot_pair(), predicate=lambda s: False)

    def test_states_are_streamed(self):
        # 2**19 states over 20 variables, x0 = 0 in all of them; a list of
        # them alone would take over 100 MB
        q = random_qubo(np.random.default_rng(5), 20)
        states = itertools.islice(itertools.product((0, 1), repeat=20), 1 << 19)
        tracemalloc.start()
        try:
            spec = spectrum_of_states(q, states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref = brute_force(clamp(q, {0: 0}))
        assert spec.ground_energy == pytest.approx(ref.ground_energy, abs=COEFF_TOL)
        assert spec.state_count_at_ground == ref.state_count_at_ground
        assert peak < 40 * 2**20


def tied_non_dyadic_qubo(seed: int) -> Qubo:
    """12 to 16 variables with coefficients k/3, k/10 or k/17, |k| <= 8:
    not exact in float64, and many states share an energy."""
    rng = np.random.default_rng(seed)
    n, denominator = 12 + seed % 5, (3, 10, 17)[seed % 3]
    coeff = lambda: float(rng.integers(-8, 9)) / denominator
    q = Qubo((BINARY, SPIN)[seed % 2], n, coeff())
    for i in range(n):
        q.add_linear(i, coeff())
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                q.add_quadratic(i, j, coeff())
    return q


class TestExactPathsAgree:
    @pytest.mark.parametrize("seed", range(40))
    def test_every_exact_path_gives_one_spectrum(self, seed):
        # bulk energies of split blocks and of explicit batches round
        # differently; the ground set, the ground energy and the gap come
        # from exact energies only, bit for bit
        q = tied_non_dyadic_qubo(seed)
        codes = itertools.product(q._domain_values(), repeat=q.num_vars)
        explicit = spectrum_of_states(q, (code[::-1] for code in codes))
        assert brute_force(q) == explicit
        assert restricted_gap(q, predicate=lambda s: True) == explicit

    def test_next_level_rounded_above_the_floor_is_picked(self):
        # 0.1 + 0.2 and 0.3 tie but round apart; the second batch's bulk
        # energy lies above the first's exact 0.1 + 0.2 by less than slack
        # (6e-13 here), and its exact energy below it
        q = Qubo(BINARY, 3)
        for i, c in enumerate((0.1, 0.2, 0.3)):
            q.add_linear(i, c)
        rows = np.array([[0, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=np.int8)
        exact = q.energies(rows)
        assert exact[1] > exact[2] == 0.3
        batches = [
            (exact[:2].copy(), rows[:2].__getitem__),
            (exact[1:2] + 1e-13, rows[2:].__getitem__),
        ]
        spec = qubo_module._spectrum_from_batches(q, batches)
        assert (spec.ground_states, spec.gap) == ([(0, 0, 0)], 0.3)

    def test_kept_row_above_the_tolerance_is_the_next_level(self):
        # (1, 1) lies within COEFF_TOL + slack of the ground (0, 1), so it is
        # kept while the band is open, but its exact energy is more than
        # COEFF_TOL above the ground: it sets the gap and is no ground state
        q = Qubo(BINARY, 2)
        q.add_linear(0, 1e-9 + 5e-13)
        q.add_linear(1, -1.0)
        spec = brute_force(q)
        assert spec == spectrum_of_states(q, itertools.product((0, 1), repeat=2))
        assert (spec.ground_energy, spec.ground_states, spec.state_count_at_ground) == (
            -1.0, [(0, 1)], 1
        )
        assert spec.gap == 1.0005000161683597e-09

    @pytest.mark.parametrize(
        "coefficients, re_evaluated",
        [((3.0, -2.0, 1.0), False), ((0.5, 2.0**50), False), ((0.5, 2.0**52), True), ((1 / 3, 1.0), True)],
    )
    def test_rows_are_re_evaluated_only_if_bulk_sums_can_round(
        self, monkeypatch, coefficients, re_evaluated
    ):
        # sums of multiples of 2**-k stay exact while they fit in 53 bits
        calls = []
        row_energies = qubo_module._row_energies
        monkeypatch.setattr(
            qubo_module, "_row_energies", lambda *a: calls.append(1) or row_energies(*a)
        )
        q = Qubo(SPIN, 18)
        for i, c in enumerate(coefficients):
            q.add_linear(i, c)
            q.add_quadratic(i, i + 1, c)
        spec = brute_force(q)
        assert spec == spectrum_of_states(q, qubo_module._code_rows(0, 1 << 18, 18, SPIN))
        assert bool(calls) == re_evaluated


class TestStateChecks:
    def spin_pair(self):
        q = Qubo(SPIN, 2)
        q.add_quadratic(0, 1, 1.0)
        return q

    def test_value_outside_domain_is_named(self):
        with pytest.raises(QuboError, match=r"state 1 \(2, 1\) has a value outside domain spin"):
            spectrum_of_states(self.spin_pair(), [(-1, 1), (2, 1)])
        with pytest.raises(QuboError, match="state 0 .* outside domain spin"):
            spectrum_of_states(self.spin_pair(), [(0, 0), (2, 1)])
        with pytest.raises(QuboError, match="state 2 .* outside domain binary"):
            restricted_gap(one_hot_pair(), states=[(0, 1), (1, 0), (0, -1)])

    def test_wrong_length_is_named(self):
        with pytest.raises(QuboError, match="state 1 has 3 values, num_vars is 2"):
            spectrum_of_states(self.spin_pair(), [(1, 1), (1, 1, 1), (1, -1)])
        with pytest.raises(QuboError, match="state 0 has 1 values, num_vars is 2"):
            spectrum_of_states(self.spin_pair(), [(1,), (-1,)])

    def test_positions_count_across_blocks(self, monkeypatch):
        monkeypatch.setattr(qubo_module, "_BLOCK", 2)
        states = [(1, 1), (-1, 1), (1, -1), (-1, -1), (1, 0)]
        with pytest.raises(QuboError, match=r"state 4 \(1, 0\)"):
            spectrum_of_states(self.spin_pair(), states)
        spec = spectrum_of_states(self.spin_pair(), states[:4])
        assert spec.ground_energy == -1.0
        assert spec.ground_states == [(-1, 1), (1, -1)]


@st.composite
def substitutions(draw):
    """A QUBO, an empty output and an image of constants and affine maps.

    Each non-constant image maps the output domain onto the QUBO's domain,
    increasing or decreasing; with at most three output variables, several
    inputs often land on one (a merge).
    """
    q = Qubo(draw(st.sampled_from([BINARY, SPIN])), draw(st.integers(1, 6)))
    out = Qubo(draw(st.sampled_from([BINARY, SPIN])), draw(st.integers(1, 3)))
    coeff = st.integers(-6, 6).map(lambda k: k / 3)
    q.add_offset(draw(coeff))
    for i in range(q.num_vars):
        q.add_linear(i, draw(coeff))
        for j in range(i + 1, q.num_vars):
            q.add_quadratic(i, j, draw(coeff))
    lo, hi = q._domain_values()
    ylo, yhi = out._domain_values()
    image = []
    for _ in range(q.num_vars):
        kind = draw(st.sampled_from(["constant", "up", "down"]))
        if kind == "constant":
            image.append((draw(st.sampled_from([lo, hi])), 0.0, 0))
            continue
        x0, x1 = (lo, hi) if kind == "up" else (hi, lo)
        b = (x1 - x0) / (yhi - ylo)
        image.append((x0 - b * ylo, b, draw(st.integers(0, out.num_vars - 1))))
    return q, out, image


def terms_digest(*qubos: Qubo, names: bool = False) -> str:
    """sha256 of each QUBO's terms in insertion order, coefficients as float.hex,
    and with `names` its variable names."""
    h = hashlib.sha256()
    for q in qubos:
        linear = [(i, c.hex()) for i, c in q.linear.items()]
        quadratic = [(i, j, c.hex()) for (i, j), c in q.quadratic.items()]
        h.update(repr((q.domain, q.num_vars, q.offset.hex(), linear, quadratic)).encode())
        if names:
            h.update(repr(q.var_names).encode())
    return h.hexdigest()


class TestSubstitute:
    @settings(max_examples=200, deadline=None)
    @given(substitutions())
    def test_energy_is_the_energy_at_the_image(self, case):
        q, out, image = case
        substitute(q, out, image)
        for y in itertools.product(out._domain_values(), repeat=out.num_vars):
            x = [a + b * y[k] for a, b, k in image]
            assert out.energy(y) == pytest.approx(q.energy(x), abs=1e-9)

    def test_golden_rewrites(self):
        # term order and coefficient bits of the rewrites, recorded before
        # they shared one substitution rule
        q = Qubo(BINARY, 8, 1 / 3, var_names=[f"x{i}" for i in range(8)])
        for i in range(8):
            q.add_linear(i, (i - 3.5) / 3)
            for j in range(i + 1, 8):
                if (i + 2 * j) % 3:
                    q.add_quadratic(i, j, ((i * j) % 7 - 3) / 10)
        s = to_spin(q)
        e = compile_coloring(ColoringInstance(((0, 1), (1, 2)), 3))
        rewrites = (
            to_binary(s),
            clamp(q, {"x1": 1, 4: 0}),
            clamp(s, {2: -1, "x6": 1}),
            e.physical,
            e.chain_intact_qubo(),
        )
        assert terms_digest(q, s, *rewrites) == (
            "0e47fc0c331044a5d2cfb8148fec92133932b240a4afcc35c1ecfd43ceb01998"
        )


def sweep_graphs():
    """Every labelled graph on 3 to 5 vertices with minimum degree 2."""
    for n in (3, 4, 5):
        for edges in all_graphs(n):
            if all(sum(v in e for e in edges) >= 2 for v in range(n)):
                yield HamcycleInstance(edges, num_vertices=n)


def tileset_templates(q: int) -> list[Qubo]:
    t = _build_tileset_any(q).tiles
    return [t.vertex_tile, t.edge_horizontal, t.edge_vertical, t.chain_horizontal, t.chain_vertical]


def knapsack_windows(inst: KnapsackInstance) -> list[Qubo]:
    width = max(1, sum(inst.values).bit_length())
    return [build_knapsack_qubo(inst, l_star).qubo for l_star in range(width)]


#: family -> (objectives made through QuboBuilder, digest recorded before
#: QuboBuilder became a naming layer over one Qubo)
COMPILER_DIGESTS = {
    "unary": (
        lambda: [build_unary_qubo(N, z).qubo for N in range(2, 40) for z in (False, True)],
        "051f19237142eaa7b0d7fe37a910827d19e8caead37b6ce8dc8f18deb4fca3ad",
    ),
    "fractal": (
        lambda: [fractal_embed_unary(N, J)[0].logical for N in (3, 8, 16, 64) for J in (2, 4)],
        "0654ce4584dc2b21e6a24e3abf9befa2a0df5576fd72baa5f91e114fe56cd298",
    ),
    "adder": (
        lambda: [build_adder(n).qubo for n in range(1, 6)],
        "61e740a9694f256d8213e20bb121fafe70c6f675df3964b27a36dda90859414c",
    ),
    "partition": (
        lambda: [
            build_numpart_qubo(PartitionInstance(nums)).qubo
            for nums in ((1, 1), (2, 2, 3, 3), (5, 3, 6, 2, 1, 1))
        ],
        "0d5cd209e52ffac5d10522d107587ce01b99b27c2f401288fee7f12aeb73bf4d",
    ),
    "knapsack": (
        lambda: knapsack_windows(KnapsackInstance((2, 3, 1), (1, 1, 1), 2))
        + knapsack_windows(KnapsackInstance((5, 4, 3, 2), (4, 3, 2, 1), 5)),
        "e5923b049cf1241eb06a51d4c6acbfe0500da011885b88849d00748336483669",
    ),
    "ic": (
        lambda: [build_ic_qubo(inst).qubo for inst in sweep_graphs()],
        "e4d5b753f228e0d7de712833071b520eed5d7af82e47e5fc772468150321e427",
    ),
    "tileable": (
        lambda: [build_tileable_hamcycle(inst).qubo for inst in sweep_graphs()],
        "c32d54503a403d2269d30deb153b70bc27b944d1cb12a5234fc36d9947ee7d43",
    ),
    "permutation": (
        lambda: [build_permutation_qubo(n) for n in (2, 4)],
        "dba6b13e8e059e87e1b8b275e5b12f0b5651b0c7248198aebde8c10ad75b5c61",
    ),
    "tileset": (
        lambda: [t for q in range(1, 10) for t in tileset_templates(q)],
        "cdf154218ad081ed0fc30a91f0eb2e4514744fbfb493509a808199289475719e",
    ),
}


class TestCompilerDigest:
    @pytest.mark.parametrize("family", sorted(COMPILER_DIGESTS))
    def test_term_order_and_bits(self, family):
        # term order, coefficient bits and variable names of every compiler
        # objective, so a change to how terms accumulate shows here
        build, digest = COMPILER_DIGESTS[family]
        assert terms_digest(*build(), names=True) == digest


class TestClamp:
    def test_identity(self):
        q = one_hot_pair()
        assert clamp(q, {}).num_vars == 2

    def test_fold_into_linear(self):
        q = Qubo(BINARY, 2, var_names=["x", "y"])
        q.add_quadratic(0, 1, 1.0)
        out = clamp(q, {"x": 1})
        assert out.num_vars == 1
        assert out.linear[0] == 1.0

    def test_clamp_all_gives_offset(self):
        q = one_hot_pair()
        out = clamp(q, {0: 1, 1: 1})
        assert out.num_vars == 0
        assert out.offset == q.energy((1, 1))

    def test_unknown_variable(self):
        with pytest.raises(QuboError):
            clamp(one_hot_pair(), {5: 1})

    @pytest.mark.parametrize("key", [1.7, 1.0, True, np.True_, None, (1,)])
    def test_non_index_key_is_unknown(self, key):
        with pytest.raises(QuboError, match="unknown variable"):
            clamp(random_qubo(np.random.default_rng(3), 3), {key: 1})

    def test_integer_like_keys_index(self):
        q = random_qubo(np.random.default_rng(3), 3)
        assert clamp(q, {np.int64(1): 1}) == clamp(q, {1: 1})

    def test_energy_function_preserved(self):
        rng = np.random.default_rng(23)
        q = random_qubo(rng, 6)
        out = clamp(q, {2: 1, 4: 0})
        for code in range(16):
            free = [(code >> k) & 1 for k in range(4)]
            full = free[:2] + [1] + [free[2]] + [0] + [free[3]]
            assert math.isclose(out.energy(tuple(free)), q.energy(tuple(full)), abs_tol=1e-12)


class TestAnneal:
    def test_matches_brute_force_on_suite(self):
        rng = np.random.default_rng(31)
        hits = 0
        trials = 40
        for t in range(trials):
            q = random_qubo(rng, 10, SPIN)
            best, energy = anneal_solve(q, sweeps=300, restarts=6, seed=t)
            assert math.isclose(energy, q.energy(best), abs_tol=1e-9)
            if math.isclose(energy, brute_force(q).ground_energy, abs_tol=1e-9):
                hits += 1
        assert hits / trials >= 0.95

    def test_zero_coefficients(self):
        q = Qubo(BINARY, 3, offset=2.5)
        _, energy = anneal_solve(q, sweeps=10, restarts=1, seed=0)
        assert energy == 2.5

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(37)
        q = random_qubo(rng, 8, BINARY)
        a = anneal_solve(q, sweeps=50, restarts=3, seed=5)
        b = anneal_solve(q, sweeps=50, restarts=3, seed=5)
        assert a == b

    # (case, anneal_solve keywords, energy, returned state with 1 for value 1
    # and 0 for the other value), recorded from the dense-matrix kernel.  A
    # kernel that changes one accept decision, the draw order or the schedule
    # changes these states.  They depend on numpy's PCG64 stream.
    GOLDEN = [
        ("spin", dict(sweeps=6, restarts=3, seed=7), -35.95238095238094,
         "101100001000101001011010"),
        ("binary", dict(sweeps=6, restarts=3, seed=8, t_hot=2.5), -10.709523809523807,
         "100111011101101101001110"),
        ("triangle", dict(sweeps=30, restarts=2, seed=9), 0.0,
         "010001100100100000100000110100000"),
        ("partition", dict(sweeps=3, restarts=2, seed=10), 3475.0344975687294,
         "000000000110000000000000101100000000011001100110000010111011101100000100"
         "010000000111000000000000110111001000100010100011000000010000000111011101"
         "110001010011010100001000110000000000000010000000000000001000110010001110"
         "111010001111001000000000000000000000011000000111000001000000100000000000"
         "010100110001000100010000000100010001000000000000001000010100000001010101"
         "010100000001010000110110101101101011010000110100111010000101010101010101"
         "010110100101100110111101101000101010101010101100111000111101101101000101"
         "000101010001100100000010001101110001001010100001100000000000"),
    ]

    @staticmethod
    def golden_qubo(case):
        if case == "triangle":
            return build_tileable_hamcycle(HamcycleInstance(((0, 1), (1, 2), (0, 2)))).qubo
        if case == "partition":
            return embed_numpart(PartitionInstance((3, 5, 7, 2, 4, 1)), J=4).physical
        # non-dyadic coefficients, so sums round as they would on real data
        domain = SPIN if case == "spin" else BINARY
        rng = np.random.default_rng(101 if case == "spin" else 102)
        q = Qubo(domain, 24)
        for i in range(24):
            q.add_linear(i, int(rng.integers(-9, 10)) / 7)
            for j in range(i + 1, 24):
                if rng.random() < 0.4:
                    q.add_quadratic(i, j, int(rng.integers(-9, 10)) / 10)
        q.add_offset(1 / 3)
        return q

    @pytest.mark.parametrize("case, kwargs, energy, bits", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_golden_trajectories(self, case, kwargs, energy, bits):
        state, got = anneal_solve(self.golden_qubo(case), **kwargs)
        assert "".join("1" if v == 1 else "0" for v in state) == bits
        assert got == energy

    @settings(max_examples=60, deadline=None)
    @given(
        q=small_qubos([3, 7, 10]),
        sweeps=st.integers(1, 12),
        restarts=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        t_hot=st.sampled_from([None, 0.3, 2.5]),
    )
    def test_same_trajectories_as_reference_kernel(self, q, sweeps, restarts, seed, t_hot):
        kwargs = dict(sweeps=sweeps, restarts=restarts, seed=seed, t_hot=t_hot)
        state, energy = anneal_solve(q, **kwargs)
        want_state, want_energy = reference_anneal(q, **kwargs)
        assert state == want_state
        assert energy.hex() == want_energy.hex()

    @pytest.mark.parametrize("domain", [BINARY, SPIN])
    @pytest.mark.parametrize(
        "n, sweeps", [(3, 3000), (4100, 2)], ids=["blocks", "one-sweep-blocks"]
    )
    def test_draw_blocks_keep_the_reference_trajectories(self, n, sweeps, domain, monkeypatch):
        # n = 3: a restart spans three blocks, the last one partial, before
        # the next restart draws its start state; n > 4096: one sweep a block
        rows = max(1, qubo_module._DRAW_BLOCK // n)
        assert sweeps > rows and (sweeps % rows or rows == 1)
        rng = np.random.default_rng(n)
        q = Qubo(domain, n, 1 / 3)
        for i in range(n):
            q.add_linear(i, int(rng.integers(-9, 10)) / 7)
            if i:
                q.add_quadratic(i - 1, i, int(rng.integers(-9, 10)) / 10)
        kwargs = dict(sweeps=sweeps, restarts=3, seed=n + 1)
        default_rng, generators = np.random.default_rng, []

        def recording(seed):
            generators.append(default_rng(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        state, energy = anneal_solve(q, **kwargs)
        monkeypatch.undo()
        want_state, want_energy = reference_anneal(q, **kwargs)
        assert state == want_state
        assert energy.hex() == want_energy.hex()
        # the blocks drew exactly the doubles of the sweeps, no more
        drawn = default_rng(kwargs["seed"])
        drawn.random(kwargs["restarts"] * n * (sweeps + 1))
        assert generators[0].bit_generator.state == drawn.bit_generator.state

    @pytest.mark.parametrize(
        "name, value", [("sweeps", 0), ("sweeps", -5), ("restarts", 0), ("restarts", -3)]
    )
    def test_budget_below_one_is_refused(self, name, value):
        for q in (Qubo(SPIN, 3, 1.0), Qubo(BINARY, 0)):
            with pytest.raises(QuboError, match=f"anneal {name} must be at least 1, got {value}$"):
                anneal_solve(q, **{name: value})

    def test_sparse_chain_has_no_dense_couplings(self):
        # a dense n x n float64 coupling matrix alone would be 32 MB here
        n = 2000
        q = Qubo(SPIN, n)
        for i in range(n - 1):
            q.add_quadratic(i, i + 1, -1.0)
        q.add_linear(0, 0.5)
        tracemalloc.start()
        try:
            _, energy = anneal_solve(q, sweeps=2, restarts=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert energy >= -(n - 1) - 0.5
        assert peak < 8 * 2**20


class TestBuilderAndDocs:
    def test_builder_names(self):
        b = QuboBuilder(BINARY)
        b.add_squared_affine(1.0, [("u", -1.0), ("v", -1.0)])
        q = b.build()
        assert q.var_names == ["u", "v"]
        assert q.energy((1, 0)) == 0.0

    def test_failed_square_changes_nothing(self):
        q = Qubo(BINARY, 3)
        q.add_linear(2, 1.0)
        before = q.copy()
        with pytest.raises(QuboError, match="repeated variable inside squared expression"):
            q.add_squared_affine(1.0, [(0, -1.0), (1, 2.0), (0, -1.0)])
        with pytest.raises(QuboError, match="out of range"):
            q.add_squared_affine(1.0, [(0, -1.0), (3, 2.0)])
        assert q == before

        b = QuboBuilder(BINARY)
        b.add_linear("w", 1.0)
        with pytest.raises(QuboError, match="repeated variable inside squared expression"):
            b.add_squared_affine(1.0, [("u", -1.0), ("v", 2.0), ("u", -1.0)])
        assert b.build() == Qubo(BINARY, 1, linear={0: 1.0}, var_names=["w"])

    def test_build_is_a_snapshot(self):
        b = QuboBuilder(SPIN)
        b.add_quadratic("u", "v", 1.0)
        first = b.build()
        b.add_linear("w", 2.0)
        b.add_quadratic("u", "v", -1.0)
        assert first == Qubo(SPIN, 2, quadratic={(0, 1): 1.0}, var_names=["u", "v"])
        assert b.build() == Qubo(SPIN, 3, linear={2: 2.0}, var_names=["u", "v", "w"])

    def test_doc_round_trip(self):
        rng = np.random.default_rng(41)
        q = random_qubo(rng, 5, SPIN)
        q.var_names = [f"s{i}" for i in range(5)]
        back = qubo_from_doc(qubo_to_doc(q))
        assert back.domain == q.domain
        assert back.var_names == q.var_names
        assert back.linear == q.linear
        assert back.quadratic == q.quadratic

    @pytest.mark.parametrize(
        "field, value",
        [
            ("offset", math.nan),
            ("linear", [[0, math.inf]]),
            ("quadratic", [[0, 1, -math.inf]]),
            # two finite terms that sum past the float range
            ("linear", [[0, 1e308], [0, 1e308]]),
        ],
        ids=["offset", "linear", "quadratic", "sum"],
    )
    def test_doc_with_a_non_finite_coefficient_is_refused(self, field, value):
        doc = {"domain": SPIN, "num_vars": 2, field: value}
        with pytest.raises(QuboError, match="coefficients must be finite numbers, got"):
            qubo_from_doc(doc)


class TestIndexOf:
    def test_lookup_and_unknown_name(self):
        q = Qubo(BINARY, 3, var_names=["a", "b", "c"])
        assert [q.index_of(n) for n in ("c", "a", "b")] == [2, 0, 1]
        with pytest.raises(QuboError):
            q.index_of("z")
        with pytest.raises(QuboError):
            Qubo(BINARY, 1).index_of("a")

    def test_duplicate_names_give_first_position(self):
        q = Qubo(BINARY, 3, var_names=["a", "b", "a"])
        assert q.index_of("a") == 0

    def test_follows_renamed_variables(self):
        q = Qubo(BINARY, 2, var_names=["a", "b"])
        assert q.index_of("b") == 1
        q.var_names[1] = "c"
        assert q.index_of("c") == 1
        with pytest.raises(QuboError):
            q.index_of("b")
        q.var_names = ["c", "a"]
        assert (q.index_of("a"), q.index_of("c")) == (1, 0)

    def test_cached_map_stays_out_of_equality(self):
        q = Qubo(BINARY, 2, var_names=["a", "b"])
        other = q.copy()
        q.index_of("b")
        assert q == other
        assert "_name_index" not in repr(q)
