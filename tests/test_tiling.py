"""Tile plans, crossing templates, stitching, and supertile composition."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_graphs
from qubolattice.coloring import ColoringError, ColoringInstance, build_tileset
from qubolattice.embedding import MinorEmbedding, choose_alpha, embed_qubo, unembed, validate
from qubolattice.hamcycle import HamcycleError, HamcycleInstance
from qubolattice.lattice import build_lattice
from qubolattice.qubo import SPIN, Qubo, brute_force
from qubolattice.tiling import (
    TilePlan,
    TilingError,
    _walk,
    crossing_tile_chimera,
    route_graph_to_tiles,
    stitch,
    supertile_compose,
    validate_plan,
)
from qubolattice.unary import fractal_embed_unary


def k(n):
    return list(itertools.combinations(range(n), 2))


def plan_of(rows, passes=(), realized=()):
    """Hand-built plan: digits are vertex tiles, "x" crossings, "-" empty."""
    grid = [[ch if ch in "x-" else f"v{ch}" for ch in row] for row in rows]
    n = 1 + max(int(ch) for row in rows for ch in row if ch.isdigit())
    plan = TilePlan(grid, n)
    plan.crossing_passes.update(passes)
    plan.adjacency_realization.update(realized)
    return plan


class TestRouter:
    def test_k5_four_by_four_with_one_crossing(self):
        plan = route_graph_to_tiles(k(5))
        assert (plan.rows, plan.cols) == (4, 4)
        assert len(plan.crossings()) == 1

    def test_path_plan(self):
        plan = route_graph_to_tiles([(0, 1), (1, 2)])
        assert (plan.rows, plan.cols) == (1, 3)
        assert not plan.crossings()

    def test_k4_plan_validates(self):
        plan = route_graph_to_tiles(k(4))
        assert validate_plan(plan, k(4)) == []
        assert len(plan.adjacency_realization) == 6

    def test_every_small_graph_routes(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = tuple(p for i, p in enumerate(pairs) if (mask >> i) & 1)
                plan = route_graph_to_tiles(edges, num_vertices=n)
                assert validate_plan(plan, edges) == []
                assert plan.grid_side <= max(2, 2 * n - 3)

    def test_router_digest(self):
        # grid, crossing passes and edge realizations of the plan of every
        # labelled graph on 1..5 vertices (1,099 graphs)
        h = hashlib.sha256()
        for n in range(1, 6):
            for edges in all_graphs(n):
                plan = route_graph_to_tiles(edges, num_vertices=n)
                h.update(repr((
                    n,
                    edges,
                    plan.grid,
                    sorted(plan.crossing_passes.items()),
                    sorted(plan.adjacency_realization.items()),
                )).encode())
        digest = "ada170245b4f8caad75aa360693df6f4521107d8c3e01209001ba11788752469"
        assert h.hexdigest() == digest

    def test_two_triangles_take_the_ladder(self):
        # every vertex has degree 2 and there are n edges, but no single cycle
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        assert _walk(6, set(edges)) is None
        plan = route_graph_to_tiles(edges)
        assert (plan.rows, plan.cols) == (9, 6)
        assert len(plan.crossings()) == 1
        assert validate_plan(plan, edges) == []

    def test_self_loop_rejected(self):
        with pytest.raises(TilingError):
            route_graph_to_tiles([(1, 1)])

    @pytest.mark.parametrize(
        "edges, num_vertices, message",
        [
            ([(0, 5)], 3, "edge (0, 5) names a vertex outside 0..2"),
            ([(-1, 0)], None, "edge (-1, 0) names a vertex outside 0..0"),
        ],
    )
    def test_edge_to_a_missing_vertex_is_a_tiling_error(self, edges, num_vertices, message):
        with pytest.raises(TilingError) as err:
            route_graph_to_tiles(edges, num_vertices=num_vertices)
        assert str(err.value) == message

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        edges=st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=6),
        num_vertices=st.none() | st.integers(0, 6),
    )
    def test_graph_entry_points_share_one_rule(self, edges, num_vertices):
        # the vertex count and every refusal but the minimum agree, each
        # entry point raising only its own error type
        def outcome(make, error):
            try:
                return make()
            except error as err:
                return str(err)

        ham = outcome(lambda: HamcycleInstance(tuple(edges), num_vertices).n, HamcycleError)
        col = outcome(lambda: ColoringInstance(tuple(edges), 2, num_vertices).n, ColoringError)
        plan = outcome(lambda: route_graph_to_tiles(edges, num_vertices).num_vertices, TilingError)
        assert col == plan
        n = num_vertices if num_vertices is not None else 1 + max((max(e) for e in edges), default=0)
        if n >= 3:
            assert ham == col
        else:
            assert ham == f"vertex count {n} is below the minimum 3"


class TestValidatePlan:
    CROSS = ["-1-", "0x0", "-1-"]

    def test_crossing_passing_its_neighbours_is_valid(self):
        assert validate_plan(plan_of(self.CROSS, {(1, 1): (0, 1)}), []) == []

    def test_region_joined_only_through_another_vertex_crossing(self):
        # v0's tiles sit left and right of a crossing that passes v1 horizontally
        problems = validate_plan(plan_of(self.CROSS, {(1, 1): (1, 0)}), [])
        assert "vertex 0 region disconnected" in problems
        assert "vertex 1 region disconnected" in problems

    def test_horizontal_pass_dead_ends(self):
        plan = plan_of(["-1-", "0x-", "-1-"], {(1, 1): (0, 1)})
        assert validate_plan(plan, []) == ["crossing (1, 1) horizontal pass of v0 dead-ends"]

    def test_pass_recorded_at_vertex_tile(self):
        plan = plan_of(["-1-", "000", "-1-"], {(1, 1): (0, 1)})
        assert validate_plan(plan, []) == ["pass recorded at non-crossing tile (1, 1)"]

    def test_edge_realized_at_non_adjacent_tiles(self):
        plan = plan_of(["011"], realized={(0, 1): ((0, 0), (0, 2))})
        assert validate_plan(plan, [(0, 1)]) == [
            "edge (0, 1) realized at non-adjacent tiles"
        ]


class TestCrossingTemplate:
    def test_ground_states_and_gap(self):
        template = crossing_tile_chimera()
        spec = brute_force(template)
        assert spec.state_count_at_ground == 4  # 2 sign choices per chain
        assert spec.gap == pytest.approx(2.0)

    def test_clamping_entries_forces_exits(self):
        template = crossing_tile_chimera()
        from qubolattice.qubo import clamp

        pinned = clamp(template, {"a:s0:0:0": 1, "a:r2:0:0": -1})
        spec = brute_force(pinned)
        assert spec.state_count_at_ground == 1
        state = spec.ground_states[0]
        assert state[pinned.index_of("a:r1:0:0")] == 1
        assert state[pinned.index_of("a:s3:0:0")] == -1

    def test_interior_flip_costs_two_bonds(self):
        template = crossing_tile_chimera()
        aligned = tuple(1 for _ in range(8))
        base = template.energy(aligned)
        idx = template.index_of("a:r0:0:0")  # interior of the first chain
        flipped = tuple(-v if i == idx else v for i, v in enumerate(aligned))
        assert template.energy(flipped) - base == pytest.approx(4.0)


class TestStitch:
    def test_single_tile_equals_template(self):
        tiles = build_tileset(4).tiles
        plan = TilePlan([["v0"]], 1)
        e = stitch(plan, tiles)
        assert e.physical.num_vars == 8
        spec = brute_force(e.physical)
        assert spec.state_count_at_ground == 4

    def test_two_tile_edge_has_one_coupling_block(self):
        tiles = build_tileset(4).tiles
        plan = TilePlan([["v0", "v1"]], 2)
        plan.adjacency_realization[(0, 1)] = ((0, 0), (0, 1))
        e = stitch(plan, tiles)
        g = build_lattice(e.embedding.lattice)
        cross = [
            (i, j)
            for (i, j) in e.physical.quadratic
            if g.cell_of(e.vertex_order[i])[:2] != g.cell_of(e.vertex_order[j])[:2]
        ]
        assert len(cross) == 4  # one edge template: 4 per-color couplers

    def test_stitched_embedding_validates(self):
        tiles = build_tileset(4).tiles
        plan = route_graph_to_tiles(k(5))
        e = stitch(plan, tiles)
        report = validate(
            e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars)
        )
        assert report.ok, report.summary()


class TestSupertile:
    def unary_pair(self):
        e, _ = fractal_embed_unary(2, 4)  # one cell, two chains
        return e

    def test_disjoint_union_energy_adds(self):
        e1, e2 = self.unary_pair(), self.unary_pair()
        composed = supertile_compose(e1, e2, [])
        assert composed.embedding.lattice.L == 2
        spec = brute_force(composed.physical)
        s1 = brute_force(e1.physical)
        s2 = brute_force(e2.physical)
        assert spec.ground_energy == pytest.approx(
            s1.ground_energy + s2.ground_energy, abs=1e-9
        )

    def test_large_coupling_excludes_double_hot(self):
        e1, e2 = self.unary_pair(), self.unary_pair()
        composed = supertile_compose(e1, e2, [(0, 10.0)])
        spec = brute_force(composed.physical)
        for state in spec.ground_states:
            logical, broken = unembed(composed, state)
            assert broken == 0
            # spins of x1 in the two halves never both up
            assert not (logical[0] == 1 and logical[composed.logical.num_vars // 2] == 1)

    def test_ground_count_of_composite(self):
        e1, e2 = self.unary_pair(), self.unary_pair()
        composed = supertile_compose(e1, e2, [])
        spec = brute_force(composed.physical)
        decoded = set()
        for state in spec.ground_states:
            logical, broken = unembed(composed, state)
            assert broken == 0
            decoded.add(logical)
        assert len(decoded) == 4  # 2 one-hot choices per half

    def test_multi_cell_halves_energy_adds(self):
        # 3x3-cell inputs: every chain hop between cells stretches across a
        # supertile and is bridged through an off-diagonal cell
        e1, _ = fractal_embed_unary(16, 4)
        e2, _ = fractal_embed_unary(16, 4)
        composed = supertile_compose(e1, e2, [])
        logical = composed.logical
        report = validate(
            composed.embedding, logical.interaction_edges(), range(logical.num_vars)
        )
        assert report.ok, report.summary()
        assert composed.embedding.lattice.L == 6
        assert composed.physical.num_vars > e1.physical.num_vars + e2.physical.num_vars
        rng = random.Random(11)
        for _ in range(25):
            a1 = [rng.choice((-1, 1)) for _ in range(e1.logical.num_vars)]
            a2 = [rng.choice((-1, 1)) for _ in range(e2.logical.num_vars)]
            energy = composed.physical.energy(composed.lift(a1 + a2))
            halves = e1.physical.energy(e1.lift(a1)) + e2.physical.energy(e2.lift(a2))
            assert energy == pytest.approx(halves, abs=1e-9)
