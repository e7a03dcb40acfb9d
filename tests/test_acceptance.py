"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; any failure surfaces
as a normal pytest failure.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math

import numpy as np
import pytest

from oracles import (
    all_graphs,
    balanced_subset_exists,
    hamiltonian_cycles,
    knapsack_dp,
    proper_coloring_count,
)
from qubolattice.adder import build_adder, read_register
from qubolattice.cartoon import lz_time, min_gap
from qubolattice.coloring import (
    _build_tileset_any,
    ColoringInstance,
    build_tileset,
    compile_coloring,
    count_states_at_coloring_level,
    grid_search_coefficients,
    h_diag,
    verify_gap,
)
from qubolattice.embedding import (
    MinorEmbedding,
    embed_complete_chimera,
    embed_qubo,
    unembed,
    validate,
)
from qubolattice.hamcycle import (
    HamcycleInstance,
    and_gadget_terms,
    build_ic_qubo,
    build_tileable_hamcycle,
    cycle_assignment,
    decode_cycle,
    embed_permutation_tree,
    predicted_hamcycle_length,
)
from qubolattice.knapsack import KnapsackInstance, knapsack_sweep
from qubolattice.lattice import build_lattice, chimera_spec
from qubolattice.numpart import (
    PartitionInstance,
    build_numpart_qubo,
    decode_partition,
    ground_energy_by_completion,
)
from qubolattice.qubo import (
    BINARY,
    QuboBuilder,
    brute_force,
    clamp,
    normalize_couplings,
    to_spin,
)
from qubolattice.unary import (
    build_unary_qubo,
    fractal_embed_unary,
    k22_gadget,
    one_hot_ground_states,
)

TOL = 1e-9


def passed(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_lattice_counts():
    for L in (1, 2, 4, 16):
        g = build_lattice(chimera_spec(4, L))
        assert g.num_vertices == 8 * L * L
        assert g.num_edges == 16 * L * L + 8 * L * (L - 1)
    passed(1, "chimera(4, L) has 8L^2 vertices and 16L^2 + 8L(L-1) edges")


def test_criterion_02_complete_embeddings():
    for n in range(1, 17):
        emb = embed_complete_chimera(n, 4)
        assert emb.lattice.L == max(1, math.ceil(n / 4))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert validate(emb, edges).ok
    assert embed_complete_chimera(8, 4).lattice.L == 2
    passed(2, "K_N embeds on L = ceil(N/4) for N <= 16; K_8 fits L = 2")


def test_criterion_03_unary_oracle_and_fractal_lengths():
    for n in range(2, 9):
        ut = build_unary_qubo(n)
        spec = brute_force(ut.qubo)
        assert spec.ground_energy == 0.0
        assert spec.gap >= 1.0
        assert set(spec.ground_states) == one_hot_ground_states(ut)
        for state in spec.ground_states:
            leaves = [state[ut.qubo.index_of(f"x{k}")] for k in range(1, n + 1)]
            assert sum(leaves) == 1
    for n, expected in ((4, 1), (16, 3), (64, 7)):
        _, layout = fractal_embed_unary(n, 4)
        assert layout.L == expected
    _, layout = fractal_embed_unary(256, 4)
    assert layout.L == 15
    passed(3, "unary tree grounds are one-hot; fractal sides {1,3,7} and 15 at N=256")


def test_criterion_04_k22_gadget():
    gadget = k22_gadget("z", "x", "y", "w")
    spec = brute_force(gadget)
    iz, ix, iy = (gadget.index_of(s) for s in ("z", "x", "y"))
    projections = {(s[iz], s[ix], s[iy]) for s in spec.ground_states}
    oracle = {}
    for z, x, y in itertools.product((-1, 1), repeat=3):
        oracle[(z, x, y)] = (z - x - y - 1) ** 2
    lo = min(oracle.values())
    assert projections == {k for k, v in oracle.items() if v == lo}
    passed(4, "gadget ground projection matches (s_z - s_x - s_y - 1)^2 exactly")


def test_criterion_05_adder():
    for n in (1, 2, 3):
        adder = build_adder(n)
        for x1 in range(2**n):
            for x2 in range(2**n):
                pins = {}
                for j in range(n):
                    pins[f"x1:{j}"] = (x1 >> j) & 1
                    pins[f"x2:{j}"] = (x2 >> j) & 1
                sub = clamp(adder.qubo, pins)
                spec = brute_force(sub)
                assert spec.ground_energy == 0.0
                assert spec.state_count_at_ground == 1
                assert read_register(spec.ground_states[0], sub, "y", n + 1) == x1 + x2
    maxima = set()
    for n in range(1, 9):
        q = build_adder(n).qubo
        maxima.add((q.max_abs_quadratic(), q.max_abs_linear()))
    assert all(quad <= 4.0 and lin <= 5.0 for quad, lin in maxima)
    assert len({m for m in maxima if m != (4.0, 4.0)}) <= 1
    passed(5, "adders exact for n <= 3 with unique completions; coefficients O(1)")


def test_criterion_06_number_partitioning():
    yes = no = 0
    for numbers in itertools.combinations_with_replacement(range(1, 8), 4):
        inst = PartitionInstance(numbers)
        tree = build_numpart_qubo(inst)
        expected = balanced_subset_exists(numbers)
        energy, witness = ground_energy_by_completion(tree)
        assert (energy == 0.0) == expected, numbers
        if expected:
            yes += 1
            decoded = decode_partition(tree, witness)
            assert decoded["residual"] == 0
        else:
            no += 1
    assert yes and no
    passed(6, f"partition ground==0 iff balanced subset on all 210 multisets ({yes} yes)")


def test_criterion_07_knapsack_vs_dp():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        values = tuple(int(v) for v in rng.integers(1, 8, n))
        weights = tuple(int(w) for w in rng.integers(1, 8, n))
        capacity = int(rng.integers(0, 16))
        inst = KnapsackInstance(values, weights, capacity)
        subset, value = knapsack_sweep(inst)
        assert value == knapsack_dp(list(values), list(weights), capacity)
        assert sum(weights[i] for i in subset) <= capacity
        assert sum(values[i] for i in subset) == value
    passed(7, "window sweep matches the dynamic-programming optimum on 200 instances")


def test_criterion_08_coloring_gaps():
    frag = h_diag([f"s{i}" for i in range(4)], [f"r{i}" for i in range(4)])
    spec = brute_force(frag)
    assert spec.gap == pytest.approx(4.0, abs=TOL)
    assert spec.state_count_at_ground == 4
    tiles4 = build_tileset(4)
    assert verify_gap(tiles4, "2-tile-hor").gap == pytest.approx(2.0, abs=TOL)
    tiles8 = build_tileset(8)
    assert verify_gap(tiles8, "2-tile-hor").gap == pytest.approx(4.0 / 3.0, abs=TOL)
    table, gap = grid_search_coefficients("le4", resolution=5)
    assert gap == pytest.approx(2.0, abs=TOL)
    for key, val in (("A", 1.0), ("B", -2.0), ("C", 2.0), ("lambda", 0.5), ("D", 0.5)):
        assert table[key] == pytest.approx(val)
    passed(8, "H_diag gap 4; assembled gaps 2 (q=4) and 4/3 (q=8); search finds the table")


def test_criterion_09_coloring_oracle():
    checked = 0
    for q in (1, 2, 3, 4):
        tileset = _build_tileset_any(q)
        for edges in all_graphs(4):
            inst = ColoringInstance(edges, q, num_vertices=4)
            e = compile_coloring(inst, tileset)
            count = count_states_at_coloring_level(inst, e, tileset)
            assert count == proper_coloring_count(4, edges, q), (edges, q)
            checked += 1
    passed(9, f"compile_coloring ground counts match the coloring oracle ({checked} cases)")


def test_criterion_10_hamiltonian_cycles():
    for edges in all_graphs(4):
        inst = HamcycleInstance(edges, num_vertices=4)
        spec = brute_force(build_ic_qubo(inst).qubo, cap=16)
        assert (spec.ground_energy == 0.0) == bool(hamiltonian_cycles(4, edges)), edges
    b = QuboBuilder(BINARY)
    and_gadget_terms(b, "z", "x", "y")
    gadget = b.build()
    table = {
        (1, 1, 1): 0.0, (0, 1, 1): 1.0, (1, 1, 0): 0.5, (1, 0, 1): 0.5,
        (1, 0, 0): 2.0, (0, 0, 0): 0.0, (0, 0, 1): 0.0, (0, 1, 0): 0.0,
    }
    for (z, x, y), expected in table.items():
        vals = {"z": z, "x": x, "y": y}
        state = tuple(vals[gadget.name_of(i)] for i in range(3))
        assert gadget.energy(state) == pytest.approx(expected, abs=TOL)
    tri = HamcycleInstance(((0, 1), (1, 2), (0, 2)))
    tq = build_tileable_hamcycle(tri)
    state = cycle_assignment(tq, [0, 1, 2])
    assert tq.qubo.energy(state) == 0.0
    for k in range(len(state)):
        flipped = list(state)
        flipped[k] = 1 - flipped[k]
        assert tq.qubo.energy(tuple(flipped)) > 0.0
    assert predicted_hamcycle_length(45, 7, "tileable") == pytest.approx(490.0)
    complete = predicted_hamcycle_length(45, 7, "complete")
    assert abs(complete - 504.0) / 504.0 < 0.01
    passed(10, "IC iff-cycle on all N=4 graphs; gadget table exact; K_3 flips positive; sizes match")


def _soundness_cases():
    # every embedded instance at 24 physical variables or fewer
    cases = []
    e, _ = fractal_embed_unary(4, 4)
    cases.append(("unary N=4 J=4", e))
    e, _ = fractal_embed_unary(2, 2)
    cases.append(("unary N=2 J=2", e))
    e, _ = fractal_embed_unary(3, 4)
    cases.append(("unary N=3 J=4", e))

    from qubolattice.numpart import embed_numpart

    cases.append(("partition {1,1}", embed_numpart(PartitionInstance((1, 1)), 4)))
    cases.append(("permutation N=2", embed_permutation_tree(2)))

    from qubolattice.qubo import Qubo, SPIN

    ferro = Qubo(SPIN, 4)
    for i in range(4):
        for j in range(i + 1, 4):
            ferro.add_quadratic(i, j, -1.0)
    cases.append(("ferromagnetic K_4 on chimera(2)", embed_qubo(ferro, embed_complete_chimera(4, 2))))

    one_hot = Qubo(BINARY, 3)
    one_hot.add_squared_affine(1.0, [(0, -1.0), (1, -1.0), (2, -1.0)])
    cases.append(("one-hot triple via K_3 chains", embed_qubo(one_hot, embed_complete_chimera(3, 4))))

    inst = ColoringInstance(((0, 1),), 2)
    cases.append(("coloring edge q=2", compile_coloring(inst)))
    return cases


def test_criterion_11_embedding_soundness():
    for name, e in _soundness_cases():
        assert e.physical.num_vars <= 24, name
        phys = brute_force(e.physical)
        logical = brute_force(e.logical)
        offset = phys.ground_energy - logical.ground_energy
        assert abs(offset) <= 1e-9, name
        for state in phys.ground_states:
            decoded, broken = unembed(e, state)
            assert broken == 0, name
            assert e.logical.energy(decoded) == pytest.approx(
                logical.ground_energy, abs=TOL
            ), name
        spin_form = e.physical if e.physical.domain == "spin" else to_spin(e.physical)
        normalized, _ = normalize_couplings(spin_form)
        assert normalized.max_abs_quadratic() <= 1.0 + TOL, name
        assert normalized.max_abs_linear() <= 2.0 + TOL, name
    passed(11, "embedded instances preserve grounds, unembed cleanly, and fit the window")


def test_criterion_12_cartoon():
    for n in range(1, 21):
        gap, s_star = min_gap(n)
        assert gap == pytest.approx(2.0 ** (-n / 2.0), abs=TOL)
        assert abs(s_star - 0.5) < 1e-6
        assert lz_time(n, "linear") == 2.0**n
        assert lz_time(n, "optimal") == 2.0 ** (n / 2.0)
    passed(12, "min gap 2^(-N/2) at s*=1/2 within 1e-9; LZ times exact")
