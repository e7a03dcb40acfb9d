"""Hamiltonian-cycle compilers: intersecting cliques, permutation trees,
and the tileable per-vertex encoding."""

import itertools

import pytest

from oracles import all_graphs, hamiltonian_cycles, tileable_digest
from qubolattice import hamcycle
from qubolattice.embedding import EmbeddingError, unembed, validate
from qubolattice.hamcycle import (
    HamcycleError,
    HamcycleInstance,
    and_gadget_terms,
    build_ic_qubo,
    build_permutation_qubo,
    build_tileable_hamcycle,
    cycle_assignment,
    decode_cycle,
    embed_permutation_tree,
    embed_tileable_hamcycle,
    lift_permutation,
    predicted_hamcycle_length,
    predicted_permutation_length,
)
from qubolattice.qubo import BINARY, QuboBuilder, anneal_solve, brute_force
from qubolattice.tiling import TilePlan, TilingError, route_graph_to_tiles


class TestICQubo:
    def test_c4_ground_states(self):
        inst = HamcycleInstance(((0, 1), (1, 2), (2, 3), (3, 0)))
        ic = build_ic_qubo(inst)
        spec = brute_force(ic.qubo, cap=16)
        assert spec.ground_energy == 0.0
        assert spec.state_count_at_ground == 8  # 4 rotations x 2 directions
        for state in spec.ground_states:
            assert decode_cycle(state, inst)["ok"]

    def test_k4_cycle_count(self):
        inst = HamcycleInstance(tuple(itertools.combinations(range(4), 2)))
        ic = build_ic_qubo(inst)
        spec = brute_force(ic.qubo, cap=16)
        assert spec.ground_energy == 0.0
        assert spec.state_count_at_ground == 24  # 3 cycles x 8 symmetries

    def test_star_has_no_cycle(self):
        inst = HamcycleInstance(((0, 1), (0, 2), (0, 3)))
        spec = brute_force(build_ic_qubo(inst).qubo, cap=16)
        assert spec.ground_energy > 0.0

    def test_rejects_tiny(self):
        with pytest.raises(HamcycleError):
            build_ic_qubo(HamcycleInstance(((0, 1),)))

    def test_matches_cycle_oracle_all_n4_graphs(self):
        for edges in all_graphs(4):
            inst = HamcycleInstance(edges, num_vertices=4)
            spec = brute_force(build_ic_qubo(inst).qubo, cap=16)
            exists = bool(hamiltonian_cycles(4, edges))
            assert (spec.ground_energy == 0.0) == exists, edges
            if exists:
                for state in spec.ground_states:
                    assert decode_cycle(state, inst)["ok"]


class TestDecodeCycle:
    def test_duplicate_position_reported(self):
        inst = HamcycleInstance(((0, 1), (1, 2), (0, 2)))
        state = [0] * 9
        state[0] = state[3] = state[6] = 1  # everyone at position 0
        result = decode_cycle(state, inst)
        assert not result["ok"] and "bijection" in result["reason"]

    def test_missing_edge_reported(self):
        inst = HamcycleInstance(((0, 1), (1, 2)))
        state = [0] * 9
        state[0] = state[4] = state[8] = 1  # identity order needs edge (2, 0)
        result = decode_cycle(state, inst)
        assert not result["ok"] and "missing edge" in result["reason"]


class TestPermutationTree:
    def test_formula_values(self):
        assert predicted_permutation_length(16, "tree") == pytest.approx(56.0)
        assert predicted_permutation_length(16, "complete") == pytest.approx(64.0)
        assert predicted_permutation_length(4, "tree") == pytest.approx(6.0)

    def test_n4_layout_matches_formula(self):
        e = embed_permutation_tree(4)
        assert e.embedding.lattice.L == 6
        report = validate(
            e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars)
        )
        assert report.ok, report.summary()

    def test_n4_permutations_reach_zero(self):
        e = embed_permutation_tree(4)
        for perm in itertools.permutations(range(4)):
            state = lift_permutation(e, perm)
            assert e.physical.energy(state) == pytest.approx(0.0, abs=1e-9)

    def test_n4_nonpermutation_positive(self):
        e = embed_permutation_tree(4)
        # two vertices share position 1 and nobody takes position 2
        state = lift_permutation(e, (0, 1, 1, 3))
        assert e.physical.energy(state) > 0.5

    def test_n2_permutations_reach_zero(self):
        e = embed_permutation_tree(2)
        for perm in ((0, 1), (1, 0)):
            assert e.physical.energy(lift_permutation(e, perm)) == pytest.approx(0.0, abs=1e-9)
        assert e.physical.energy(lift_permutation(e, (0, 0))) > 0.5

    def test_n2_brute_force(self):
        e = embed_permutation_tree(2)
        spec = brute_force(e.physical)
        assert spec.ground_energy == pytest.approx(0.0, abs=1e-9)
        decoded = set()
        for s in spec.ground_states:
            logical, broken = unembed(e, s)
            assert broken == 0
            decoded.add(tuple((x + 1) // 2 for x in logical))
        assert decoded == {(1, 0, 0, 1), (0, 1, 1, 0)}

    def test_unsupported_size_names_requirement(self):
        with pytest.raises(HamcycleError) as err:
            build_permutation_qubo(16)
        assert "56" in str(err.value)


class TestAndGadget:
    def gadget_energy(self, z, x, y):
        b = QuboBuilder(BINARY)
        and_gadget_terms(b, "z", "x", "y")
        q = b.build()
        vals = {"z": z, "x": x, "y": y}
        return q.energy(tuple(vals[q.name_of(i)] for i in range(3)))

    def test_eight_case_table(self):
        expected = {
            (1, 1, 1): 0.0,
            (0, 1, 1): 1.0,
            (1, 1, 0): 0.5,
            (1, 0, 1): 0.5,
            (1, 0, 0): 2.0,
            (0, 0, 0): 0.0,
            (0, 0, 1): 0.0,
            (0, 1, 0): 0.0,
        }
        for (z, x, y), energy in expected.items():
            assert self.gadget_energy(z, x, y) == pytest.approx(energy), (z, x, y)

    def test_min_over_z_is_product(self):
        for x in (0, 1):
            for y in (0, 1):
                energies = {z: self.gadget_energy(z, x, y) for z in (0, 1)}
                best = min(energies, key=energies.get)
                assert best == x * y
                assert energies[best] == 0.0
                assert energies[1 - best] >= 0.5


class TestTileableHamcycle:
    def triangle(self):
        return HamcycleInstance(((0, 1), (1, 2), (0, 2)))

    def test_bit_count_k3(self):
        tq = build_tileable_hamcycle(self.triangle())
        assert tq.qubo.num_vars == 33  # 9 positions + 6 selectors + 18 z_{v,u,j}

    def test_cycle_state_has_zero_energy(self):
        tq = build_tileable_hamcycle(self.triangle())
        for order in ([0, 1, 2], [0, 2, 1], [1, 0, 2]):
            state = cycle_assignment(tq, order)
            assert tq.qubo.energy(state) == pytest.approx(0.0)
        # degree-3 vertices sum their selectors through an accumulator bit
        tq = build_tileable_hamcycle(HamcycleInstance(tuple(itertools.combinations(range(4), 2))))
        assert sum(name.startswith("acc:") for name in tq.qubo.var_names) == 4
        assert tq.qubo.energy(cycle_assignment(tq, [0, 1, 2, 3])) == pytest.approx(0.0)

    def test_single_flips_cost_energy(self):
        tq = build_tileable_hamcycle(self.triangle())
        state = list(cycle_assignment(tq, [0, 1, 2]))
        for k in range(len(state)):
            flipped = list(state)
            flipped[k] = 1 - flipped[k]
            assert tq.qubo.energy(tuple(flipped)) > 0.0, tq.qubo.name_of(k)

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_selector_one_hot_subsystem(self, degree):
        # the caterpillar over a vertex's edge selectors: zero energy states
        # have exactly one selector on, with consistent accumulators
        b = QuboBuilder(BINARY)
        selectors = [f"z{k}" for k in range(degree)]
        if degree <= 2:
            b.add_squared_affine(1.0, [(s, -1.0) for s in selectors])
        else:
            prev = selectors[0]
            for i, sel in enumerate(selectors[1:-1], start=1):
                acc = f"a{i}"
                b.add_squared_affine(0.0, [(acc, 1.0), (prev, -1.0), (sel, -1.0)])
                prev = acc
            b.add_squared_affine(1.0, [(prev, -1.0), (selectors[-1], -1.0)])
        q = b.build()
        spec = brute_force(q)
        assert spec.ground_energy == 0.0
        hot = set()
        for state in spec.ground_states:
            on = [s for s in selectors if state[q.index_of(s)] == 1]
            assert len(on) == 1
            hot.add(on[0])
        assert hot == set(selectors)
        assert spec.state_count_at_ground == degree

    def test_anneal_finds_cycles(self):
        tq = build_tileable_hamcycle(self.triangle())
        found = set()
        for seed in range(6):
            state, energy = anneal_solve(tq.qubo, sweeps=2500, restarts=12, seed=seed)
            if energy <= 1e-9:
                result = decode_cycle(state, tq.instance)
                assert result["ok"]
                found.add(tuple(result["cycle"]))
        assert found, "annealer never reached a zero-energy state"

    def test_no_cycle_graph_positive(self):
        inst = HamcycleInstance(((0, 1), (1, 2)))
        tq = build_tileable_hamcycle(inst)
        spec = brute_force(tq.qubo, cap=26)
        assert spec.ground_energy > 0.0


class TestTileableEmbedding:
    def test_k3_embeds_and_validates(self):
        inst = HamcycleInstance(((0, 1), (1, 2), (0, 2)))
        e = embed_tileable_hamcycle(inst)
        report = validate(
            e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars)
        )
        assert report.ok, report.summary()
        plan = route_graph_to_tiles(inst.edges, num_vertices=3)
        assert e.embedding.lattice.L <= predicted_hamcycle_length(3, plan.grid_side)

    def test_k3_lifted_cycle_state_is_zero(self):
        inst = HamcycleInstance(((0, 1), (1, 2), (0, 2)))
        tq = build_tileable_hamcycle(inst)
        e = embed_tileable_hamcycle(inst)
        state = cycle_assignment(tq, [0, 1, 2])
        lifted = e.lift(state)
        assert e.physical.energy(lifted) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "edges",
        [
            ((0, 1), (1, 2), (2, 3), (3, 0)),
            ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
            # bowtie: its plan has crossing tiles, so the crossing-run arms
            # and exit bridges are exercised
            ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)),
        ],
    )
    def test_other_small_graphs_validate(self, edges):
        inst = HamcycleInstance(edges)
        e = embed_tileable_hamcycle(inst)
        report = validate(
            e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars)
        )
        assert report.ok, report.summary()

    @pytest.mark.parametrize(
        "edges",
        [
            ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
            ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)),
        ],
    )
    def test_embedding_reads_the_grid_once(self, edges, monkeypatch):
        # the router scans the grid to realize edges and to validate the plan;
        # the embedding scans its doubled plan once more, and no more
        scans = []
        scan = TilePlan.tiles_by_vertex

        def counting(plan):
            scans.append(plan)
            return scan(plan)

        monkeypatch.setattr(TilePlan, "tiles_by_vertex", counting)
        e = embed_tileable_hamcycle(HamcycleInstance(edges))
        assert validate(e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars)).ok
        assert len(scans) == 3

    def test_pendant_vertex_wires_no_selector_chain(self, monkeypatch):
        # vertex 3 has one neighbour, so there is no link between edge tiles
        wired = []
        wire = hamcycle._TileableBuilder.wire_selectors

        def recording(builder, v):
            wired.append((v, len(builder.inst.neighbors(v))))
            return wire(builder, v)

        monkeypatch.setattr(hamcycle._TileableBuilder, "wire_selectors", recording)
        e = embed_tileable_hamcycle(HamcycleInstance(((0, 1), (1, 2), (0, 2), (2, 3))))
        assert (3, 1) in wired
        assert e.physical.num_vars == 2601
        assert validate(e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars)).ok

    def test_size_formula_paper_point(self):
        assert predicted_hamcycle_length(45, 7, "tileable") == pytest.approx(490.0)
        assert predicted_hamcycle_length(45, 7, "complete") == pytest.approx(506.25)


class TestTileableDigest:
    def test_small_graphs_and_known_failures(self):
        # the 11 labelled graphs on 3 and 4 vertices with minimum degree 2,
        # then K5 (no free tile pair) and a 5-vertex graph whose selector
        # routing fails, so a change to where the router puts a chain, a
        # term or an error shows here
        def instances():
            for n in (3, 4):
                for edges in all_graphs(n):
                    if all(sum(v in e for e in edges) >= 2 for v in range(n)):
                        yield HamcycleInstance(edges, num_vertices=n)
            yield HamcycleInstance(tuple(itertools.combinations(range(5), 2)))
            yield HamcycleInstance(((0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4)))

        def outcomes():
            for inst in instances():
                try:
                    yield inst.edges, embed_tileable_hamcycle(inst)
                except (EmbeddingError, TilingError) as err:
                    yield inst.edges, err

        digest = "36490fa9520214c5d740a4d783bf72e7660828ae0f2ce584cee63a08f59010f9"
        assert tileable_digest(outcomes()) == digest
