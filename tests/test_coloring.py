"""Coloring tiles, assembled gaps, compilers, and the coefficient search."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    all_graphs,
    proper_coloring_count,
    reference_le4_energy_model,
    reference_table_gap,
)
from qubolattice.coloring import (
    _OFF,
    ColoringError,
    ColoringInstance,
    _build_tileset_any,
    _cell_terms,
    build_coloring_qubo,
    build_tileset,
    coloring_feasible_energy,
    compile_coloring,
    count_states_at_coloring_level,
    grid_search_coefficients,
    h_diag,
    verify_gap,
)
from qubolattice.embedding import validate
from qubolattice.qubo import SPIN, QuboBuilder, brute_force


def h_off():
    """The all-down objective of an off-diagonal cell, at the unit weight
    the q > 4 tiles scale by lambda."""
    b = QuboBuilder(SPIN)
    _cell_terms(b, [f"s{i}" for i in range(4)], [f"r{i}" for i in range(4)], 1.0, *_OFF)
    return b.build()


class TestHdiagHoff:
    def test_h_diag_spectrum(self):
        frag = h_diag([f"s{i}" for i in range(4)], [f"r{i}" for i in range(4)])
        spec = brute_force(frag)
        assert spec.state_count_at_ground == 4
        assert spec.gap == pytest.approx(4.0)
        for state in spec.ground_states:
            s, r = state[:4], state[4:]
            assert s == r
            assert sum(s) == -2  # exactly one matched pair up

    def test_h_off_minimum_all_down(self):
        frag = h_off()
        spec = brute_force(frag)
        assert (-1,) * 8 in spec.ground_states
        down = frag.energy((-1,) * 8)
        assert down == pytest.approx(-8.0 + 8.0 * 0 - 0)  # (0)(0)/2 - 8 + 8
        # one up spin in each half costs 2 relative to all-down
        one_each = frag.energy((1, -1, -1, -1, 1, -1, -1, -1))
        assert one_each - down == pytest.approx(2.0)

    def test_h_off_matches_sum_form(self):
        frag = h_off()
        for code in range(256):
            spins = tuple(2 * ((code >> k) & 1) - 1 for k in range(8))
            s_sum, r_sum = sum(spins[:4]), sum(spins[4:])
            expected = (s_sum + 4) * (r_sum + 4) / 2.0 - 8.0
            assert frag.energy(spins) == pytest.approx(expected)


class TestVerifyGap:
    def test_q4_single_tile_gap_two(self):
        tileset = build_tileset(4)
        spec = verify_gap(tileset, "1-tile")
        assert spec.gap == pytest.approx(2.0, abs=1e-9)
        assert spec.state_count_at_ground == 4

    def test_q4_two_tile_gap_two(self):
        tileset = build_tileset(4)
        for assembly in ("2-tile-hor", "2-tile-vert"):
            spec = verify_gap(tileset, assembly)
            assert spec.gap == pytest.approx(2.0, abs=1e-9)
            assert spec.state_count_at_ground == 12  # ordered proper pairs

    def test_q4_chain_gap_two(self):
        tileset = build_tileset(4)
        spec = verify_gap(tileset, "chain")
        assert spec.gap == pytest.approx(2.0, abs=1e-9)
        assert spec.state_count_at_ground == 4

    def test_q3_clamped_slot_keeps_gap(self):
        tileset = build_tileset(3)
        spec = verify_gap(tileset, "2-tile-hor")
        assert spec.gap == pytest.approx(2.0, abs=1e-9)
        assert spec.state_count_at_ground == 6

    def test_q8_chain_intact_gap(self):
        tileset = build_tileset(8)
        spec = verify_gap(tileset, "2-tile-hor")
        assert spec.gap == pytest.approx(4.0 / 3.0, abs=1e-9)
        spec1 = verify_gap(tileset, "1-tile")
        assert spec1.gap == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert spec1.state_count_at_ground == 8

    def test_q8_spectra_read_the_stitched_contraction(self):
        # the stitched logical objective is the chain-intact contraction
        from qubolattice.coloring import _assembly_plan
        from qubolattice.tiling import stitch

        tileset = build_tileset(8)
        for assembly in ("1-tile", "2-tile-hor", "2-tile-vert", "chain"):
            contracted = stitch(_assembly_plan(assembly), tileset.tiles).chain_intact_qubo()
            assert verify_gap(tileset, assembly) == brute_force(contracted, cap=24)

    def test_q8_tile_gap_before_rescale(self):
        # the bare multi-cell vertex tile saturates a chain-intact gap of 2
        unscaled = _build_tileset_any(8, table={"lambda": 1.0, "G": 0.0})
        spec = verify_gap(unscaled, "1-tile")
        assert spec.gap == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("q", range(2, 10))
    def test_every_tile_size_two_tile_gap(self, q):
        # ell = 1, 2 and 3 all come from the one template construction
        spec = verify_gap(build_tileset(q), "2-tile-hor")
        assert spec.gap == pytest.approx(2.0 if q <= 4 else 4.0 / 3.0, abs=1e-9)
        assert spec.state_count_at_ground == q * (q - 1)

    def test_rejects_unknown_assembly(self):
        with pytest.raises(ColoringError):
            verify_gap(build_tileset(4), "3-tile")


class TestTileset:
    def test_rejects_trivial_q(self):
        with pytest.raises(ColoringError):
            build_tileset(1)

    def test_coupling_window(self):
        for q in (3, 4, 8):
            tiles = build_tileset(q).tiles
            for template in (
                tiles.vertex_tile,
                tiles.edge_horizontal,
                tiles.edge_vertical,
                tiles.chain_horizontal,
                tiles.chain_vertical,
            ):
                assert template.max_abs_quadratic() <= 1.0 + 1e-12

    def test_assembled_single_site_within_budget(self):
        # worst case: a tile flanked by two neighbor couplings
        from qubolattice.tiling import TilePlan, stitch

        tileset = build_tileset(4)
        plan = TilePlan([["v0", "v1", "v2"]], 3)
        plan.adjacency_realization[(0, 1)] = ((0, 0), (0, 1))
        plan.adjacency_realization[(1, 2)] = ((0, 1), (0, 2))
        e = stitch(plan, tileset.tiles)
        assert e.physical.max_abs_linear() <= 2.0 + 1e-12
        assert e.physical.max_abs_quadratic() <= 1.0 + 1e-12


class TestCompile:
    def test_triangle_three_colors(self):
        inst = ColoringInstance(((0, 1), (1, 2), (0, 2)), 3)
        e = compile_coloring(inst)
        count = count_states_at_coloring_level(inst, e, build_tileset(3))
        assert count == 6
        report = validate(
            e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars)
        )
        assert report.ok, report.summary()

    def test_a_repeated_edge_counts_once(self):
        # (0, 1) listed twice, once reversed, builds the triangle's objective:
        # 12 ground states at q = 2, not 10
        once = build_coloring_qubo(ColoringInstance(((0, 1), (1, 2), (0, 2)), 2))
        twice = build_coloring_qubo(ColoringInstance(((0, 1), (1, 0), (1, 2), (0, 2)), 2))
        assert twice == once
        assert brute_force(twice).state_count_at_ground == 12

    def test_single_vertex_q4(self):
        inst = ColoringInstance((), 4, num_vertices=1)
        e = compile_coloring(inst)
        count = count_states_at_coloring_level(inst, e, build_tileset(4))
        assert count == 4

    def test_edge_graph_one_color_infeasible(self):
        inst = ColoringInstance(((0, 1),), 1)
        contracted = compile_coloring(inst).chain_intact_qubo()
        feasible = coloring_feasible_energy(contracted, 1)
        energy = brute_force(contracted).ground_energy
        assert energy > feasible + 1e-9

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_count_matches_oracle_small(self, q):
        tileset = _build_tileset_any(q)
        for edges in [((0, 1),), ((0, 1), (1, 2)), ((0, 1), (1, 2), (0, 2))]:
            n = 1 + max(max(e) for e in edges)
            inst = ColoringInstance(edges, q, num_vertices=n)
            e = compile_coloring(inst, tileset)
            count = count_states_at_coloring_level(inst, e, tileset)
            assert count == proper_coloring_count(n, edges, q), (edges, q)


    def test_level_count_streams_state_blocks(self):
        # the path P10 at q=2 has 20 chain-intact variables; all 2^20 state
        # rows at once peak near 365 MB, one enumeration block at a time far less
        tileset = _build_tileset_any(2)
        inst = ColoringInstance(tuple((i, i + 1) for i in range(9)), 2, num_vertices=10)
        e = compile_coloring(inst, tileset)
        assert e.chain_intact_qubo().num_vars == 20
        tracemalloc.start()
        try:
            count = count_states_at_coloring_level(inst, e, tileset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 2
        assert peak < 64 * 2**20

    def test_feasible_level_builds_no_tileset(self, monkeypatch):
        from qubolattice import coloring

        builds = []
        original = coloring._build_tileset_any

        def counting(*args, **kwargs):
            builds.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(coloring, "_build_tileset_any", counting)
        for tileset in (original(3), original(3, table={"lambda": 0.25})):
            for edges in [((0, 1),), ((0, 1), (1, 2)), ((0, 1), (1, 2), (0, 2))]:
                e = compile_coloring(ColoringInstance(edges, 3), tileset)
                coloring_feasible_energy(e.chain_intact_qubo(), 3)
        assert builds == []

    @pytest.mark.parametrize(
        "table, level",
        [({"A": 0.5, "B": -1.0, "C": 1.0}, -9.0), ({"C": 1.5}, -15.0), (None, -18.0)],
    )
    def test_feasible_level_follows_the_coefficient_table(self, table, level):
        # the level is read off the tileset's own templates, so a custom
        # table moves it and every proper colouring of the path sits on it
        tileset = _build_tileset_any(4, table=table)
        inst = ColoringInstance(((0, 1), (1, 2)), 4)
        e = compile_coloring(inst, tileset)
        assert coloring_feasible_energy(e.chain_intact_qubo(), 4) == level
        assert count_states_at_coloring_level(inst, e, tileset) == 36


class TestColoringLevel:
    def test_count_runs_one_enumeration(self, monkeypatch):
        from qubolattice import coloring, qubo

        starts = []
        for module in (qubo, coloring):
            original = module._split_energy_blocks

            def counting(q, original=original):
                starts.append(q.num_vars)
                return original(q)

            monkeypatch.setattr(module, "_split_energy_blocks", counting)
        inst = ColoringInstance(((0, 1), (1, 2), (0, 2)), 3)
        tileset = build_tileset(3)
        e = compile_coloring(inst, tileset)
        assert count_states_at_coloring_level(inst, e, tileset) == 6
        assert starts == [9]

    def test_state_below_the_level_is_named(self):
        # a negative edge weight rewards equal colors across the edge
        tileset = _build_tileset_any(3, table={"D": -0.5})
        inst = ColoringInstance(((0, 1),), 3)
        e = compile_coloring(inst, tileset)
        with pytest.raises(ColoringError, match=r"state \([-1, ]+\) has energy .* below"):
            count_states_at_coloring_level(inst, e, tileset)

    def test_count_routes_and_stitches_nothing(self, monkeypatch):
        from qubolattice import coloring

        inst = ColoringInstance(((0, 1), (1, 2), (0, 2)), 4)
        tileset = build_tileset(4)
        e = compile_coloring(inst, tileset)

        def refuse(*args, **kwargs):
            raise AssertionError("the count routed or stitched")

        monkeypatch.setattr(coloring, "stitch", refuse)
        monkeypatch.setattr(coloring, "route_graph_to_tiles", refuse)
        assert count_states_at_coloring_level(inst, e, tileset) == 24

    def test_tileset_for_another_q_is_refused(self):
        inst = ColoringInstance(((0, 1),), 3)
        e = compile_coloring(inst, build_tileset(3))
        with pytest.raises(ColoringError, match="tileset has 4 colors, the instance 3"):
            count_states_at_coloring_level(inst, e, build_tileset(4))

    def test_level_is_the_ground_of_the_edge_free_stitch(self):
        from dataclasses import replace

        from qubolattice.tiling import route_graph_to_tiles, stitch

        cases = 0
        for q in range(1, 10):
            tileset = _build_tileset_any(q)
            for n in range(1, 5):
                if n * q > 16:
                    continue
                for edges in all_graphs(n):
                    inst = ColoringInstance(edges, q, num_vertices=n)
                    plan = route_graph_to_tiles(edges, num_vertices=n)
                    e = stitch(replace(plan, adjacency_realization={}), tileset.tiles)
                    ground = brute_force(e.chain_intact_qubo()).ground_energy
                    contracted = compile_coloring(inst, tileset).chain_intact_qubo()
                    level = coloring_feasible_energy(contracted, q)
                    if q <= 4:
                        assert level == ground, (q, edges)
                    else:
                        assert abs(level - ground) <= 1e-12, (q, edges)
                    cases += 1
        assert cases == 321


class TestGridSearch:
    def test_le4_recovers_paper_table(self):
        table, gap = grid_search_coefficients("le4", resolution=5)
        assert gap == pytest.approx(2.0, abs=1e-9)
        assert table["A"] == pytest.approx(1.0)
        assert table["B"] == pytest.approx(-2.0)
        assert table["C"] == pytest.approx(2.0)
        assert table["lambda"] == pytest.approx(0.5)
        assert table["D"] == pytest.approx(0.5)

    def test_le4_table_is_exact(self):
        assert grid_search_coefficients("le4", 5) == (
            {"A": 1.0, "B": -2.0, "C": 2.0, "lambda": 0.5, "D": 0.5}, 2.0
        )

    def test_valid_codes_match_the_row_mask(self):
        # the valid codes read off the bits equal the mask over every row, and
        # the distinct columns hold every state once
        from qubolattice.coloring import _energy_model
        from qubolattice.qubo import SPIN, _code_rows

        def row_mask(vertices):
            rows = _code_rows(0, 1 << (8 * vertices), 8 * vertices, SPIN)
            mask = np.ones(len(rows), dtype=bool)
            for t in range(vertices):
                s = rows[:, 8 * t : 8 * t + 4]
                r = rows[:, 8 * t + 4 : 8 * t + 8]
                mask &= (s == r).all(1)
                mask &= (s.sum(1) == -2)
            if vertices == 2:
                mask &= (rows[:, 0:4] != rows[:, 8:12]).any(1)
            return np.nonzero(mask)[0]

        (one, counts_one, _, valid_one), (two, counts_two, _, valid_two) = _energy_model("le4")
        assert valid_one.tolist() == row_mask(1).tolist() and len(valid_one) == 4
        assert valid_two.tolist() == row_mask(2).tolist() and len(valid_two) == 12
        assert counts_one.sum() == 1 << 8 and counts_two.sum() == 1 << 16
        for columns, counts in ((one, counts_one), (two, counts_two)):
            assert all(len(columns[t]) == len(counts) for t in "ABCD")

    def test_distinct_columns_match_the_full_state_arrays(self):
        # the columns and their counts are the full arrays' distinct rows
        from qubolattice.coloring import _energy_model

        model = _energy_model("le4")
        assert model is _energy_model("le4")
        for (columns, counts, valid_columns, valid), (energies, ref_valid) in zip(
            model, reference_le4_energy_model()
        ):
            full = np.stack([energies[t] for t in "ABCD"], axis=1)
            distinct = np.stack([columns[t] for t in "ABCD"], axis=1)
            assert np.array_equal(valid, ref_valid)
            assert np.array_equal(distinct[valid_columns], full[valid])
            found = {}
            for row in full.tolist():
                found[tuple(row)] = found.get(tuple(row), 0) + 1
            assert found == dict(zip(map(tuple, distinct.tolist()), counts.tolist()))
            for array in (*columns.values(), counts, valid_columns, valid):
                assert not array.flags.writeable

    def test_every_scored_table_has_the_reference_gap(self, monkeypatch):
        # resolution 5: every table the search scores gets the gap the
        # full-array model gives it
        from qubolattice import coloring

        reference = reference_le4_energy_model()
        table_gap = coloring._table_gap
        scored = []

        def checked(model, table):
            gap = table_gap(model, table)
            assert gap == reference_table_gap(reference, table), table
            scored.append(gap)
            return gap

        monkeypatch.setattr(coloring, "_table_gap", checked)
        grid_search_coefficients("le4", 5)
        assert len(scored) == 195 and sum(g is not None for g in scored) > 1

    @pytest.mark.parametrize("resolution", range(2, 10))
    def test_search_equals_the_full_array_search(self, resolution, monkeypatch):
        # the paper's table with gap 2 at every resolution; each class's
        # energy model is built once per process, and this search looks it
        # up once
        from qubolattice import coloring

        before = coloring._energy_model.cache_info()
        got = grid_search_coefficients("le4", resolution)
        after = coloring._energy_model.cache_info()
        assert got == ({"A": 1.0, "B": -2.0, "C": 2.0, "lambda": 0.5, "D": 0.5}, 2.0)
        assert after.misses == after.currsize <= 2
        assert after.hits + after.misses == before.hits + before.misses + 1
        reference = reference_le4_energy_model()
        monkeypatch.setattr(coloring, "_energy_model", lambda q_class: reference)
        monkeypatch.setattr(coloring, "_table_gap", reference_table_gap)
        assert got == grid_search_coefficients("le4", resolution)

    def test_le4_requires_resolution(self):
        with pytest.raises(ColoringError):
            grid_search_coefficients("le4", resolution=1)

    def test_gt4_budget_surface_peak(self):
        table, gap = grid_search_coefficients("gt4", resolution=5)
        assert (table, gap) == (
            {"lambda": 0.6666666666666666, "G": 0.33333333333333337}, 1.3333333333333357
        )
        assert gap <= 4.0 / 3.0 + 1e-9
        assert gap == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert table["lambda"] == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize(
        "A, B, C, lam",
        [(1.0, -2.0, 2.0, 0.5), (1.0, -2.0, 2.0, 0.7), (0.5, -1.0, 1.0, 0.5), (0.5, -1.0, 1.0, 0.9)],
    )
    def test_le4_energy_model_matches_stitched_templates(self, A, B, C, lam):
        # the search's energies and the stitched q = 4 templates give one gap
        from qubolattice.coloring import _energy_model, _table_gap

        D = (2.0 - lam * C) / 2.0
        table = {"A": A, "B": B, "C": C, "lambda": lam, "D": D}
        gap = _table_gap(_energy_model("le4"), table)
        assert gap is not None
        tileset = _build_tileset_any(4, table=table)
        stitched = min(verify_gap(tileset, a).gap for a in ("1-tile", "2-tile-hor"))
        assert gap == pytest.approx(stitched, abs=1e-9)

    @pytest.mark.parametrize("resolution", range(2, 10))
    def test_gt4_search_peaks_at_two_thirds(self, resolution):
        # the q > 4 budget point at every resolution, with the exact gap of
        # resolution 5; the model is built once per process and looked up once
        from qubolattice import coloring

        before = coloring._energy_model.cache_info()
        got = grid_search_coefficients("gt4", resolution)
        after = coloring._energy_model.cache_info()
        assert got == ({"lambda": 2.0 / 3.0, "G": 1.0 - 2.0 / 3.0}, 1.3333333333333357)
        assert after.misses == after.currsize <= 2
        assert after.hits + after.misses == before.hits + before.misses + 1

    def test_gt4_model_keeps_the_distinct_columns(self):
        # 8 of the 2^8 one-tile states and 87 of the 2^16 two-tile ones; the
        # valid states are the 8 one-hot colors and the 56 proper pairs
        from qubolattice.coloring import _energy_model

        model = _energy_model("gt4")
        assert model is _energy_model("gt4")
        assert [len(counts) for _, counts, _, _ in model] == [8, 87]
        assert [int(counts.sum()) for _, counts, _, _ in model] == [1 << 8, 1 << 16]
        (_, _, _, one), (_, _, _, two) = model
        assert one.tolist() == [1 << c for c in range(8)]
        pairs = [1 << a | 1 << (8 + b) for a in range(8) for b in range(8) if a != b]
        assert two.tolist() == sorted(pairs)

    @pytest.mark.parametrize("lam", [0.35, 0.55, 2.0 / 3.0, 0.75])
    def test_gt4_energy_model_matches_stitched_templates(self, lam):
        # the search's energies and the chain-intact q = 8 spectra give one gap
        from qubolattice.coloring import _energy_model, _table_gap

        table = {"lambda": lam, "G": 1.0 - lam}
        gap = _table_gap(_energy_model("gt4"), table)
        assert gap is not None
        tileset = _build_tileset_any(8, table=table)
        stitched = min(verify_gap(tileset, a).gap for a in ("1-tile", "2-tile-hor"))
        assert gap == pytest.approx(stitched, abs=1e-9)

    @pytest.mark.parametrize(
        "table", [{"lambda": 2.0 / 3.0, "G": -1.0 / 3.0}, {"lambda": 0.5, "G": 0.0}]
    )
    def test_gt4_table_without_proper_ground_states_scores_none(self, table):
        # a negative edge weight makes equal colors cheaper, and a zero one
        # leaves them as low as proper ones: no gap is scored
        from qubolattice.coloring import _energy_model, _table_gap

        assert _table_gap(_energy_model("gt4"), table) is None
        ground = verify_gap(_build_tileset_any(8, table=table), "2-tile-hor").ground_states
        assert any(s[:8] == s[8:] and s[:8].count(1) == 1 for s in ground)
