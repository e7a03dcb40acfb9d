"""Unary tree QUBOs, the K_{2,2} gadget, and fractal embeddings."""

import hashlib
import itertools
import math

import pytest

from qubolattice.embedding import unembed, validate
from qubolattice.qubo import SPIN, brute_force
from qubolattice.unary import (
    UnaryError,
    build_unary_qubo,
    fill_tree_optimize,
    fractal_embed_unary,
    k22_gadget,
    lift_one_hot,
    one_hot_ground_states,
    predicted_unary_length,
)


class TestBuildUnaryQubo:
    @pytest.mark.parametrize("N", range(2, 9))
    def test_ground_states_are_one_hot(self, N):
        ut = build_unary_qubo(N)
        spec = brute_force(ut.qubo)
        assert spec.ground_energy == 0.0
        assert spec.gap >= 1.0
        assert set(spec.ground_states) == one_hot_ground_states(ut)
        hot_leaves = set()
        for state in spec.ground_states:
            hot = [k for k in range(1, N + 1) if state[ut.qubo.index_of(f"x{k}")] == 1]
            assert len(hot) == 1
            hot_leaves.add(hot[0])
        assert hot_leaves == set(range(1, N + 1))

    def test_padding_forced_to_zero(self):
        ut = build_unary_qubo(3)
        pad = ut.qubo.index_of("x4")
        for state in brute_force(ut.qubo).ground_states:
            assert state[pad] == 0

    def test_n2_matches_pair_constraint(self):
        ut = build_unary_qubo(2)
        spec = brute_force(ut.qubo)
        assert set(spec.ground_states) == {(1, 0), (0, 1)}

    @pytest.mark.parametrize("N", range(2, 9))
    def test_size_bounds(self, N):
        ut = build_unary_qubo(N)
        assert ut.edge_count() <= 3 * N
        assert ut.vertex_count() <= 4 * N

    def test_allow_zero_adds_empty_state(self):
        ut = build_unary_qubo(4, allow_zero=True)
        spec = brute_force(ut.qubo)
        assert spec.ground_energy == 0.0
        projections = set()
        for state in spec.ground_states:
            projections.add(tuple(state[ut.qubo.index_of(f"x{k}")] for k in range(1, 5)))
        assert projections == {
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        }

    @pytest.mark.parametrize("N", range(2, 9))
    def test_allow_zero_ground_set_matches_oracle(self, N):
        # the oracle's all-zero pattern sets the slack bit from the root total
        ut = build_unary_qubo(N, allow_zero=True)
        spec = brute_force(ut.qubo)
        assert spec.ground_energy == 0.0
        assert set(spec.ground_states) == one_hot_ground_states(ut)
        assert (0,) * ut.qubo.num_vars in spec.ground_states

    def test_rejects_tiny_n(self):
        with pytest.raises(UnaryError):
            build_unary_qubo(1)


class TestK22Gadget:
    def oracle_projections(self):
        best = {}
        for z, x, y in itertools.product((-1, 1), repeat=3):
            e = (z - x - y - 1) ** 2
            best[(z, x, y)] = e
        lo = min(best.values())
        return {k for k, v in best.items() if v == lo}

    def gadget_projections(self):
        g = k22_gadget("z", "x", "y", "w")
        spec = brute_force(g)
        iz, ix, iy = g.index_of("z"), g.index_of("x"), g.index_of("y")
        return {(s[iz], s[ix], s[iy]) for s in spec.ground_states}

    def test_ground_projection_matches_oracle(self):
        assert self.gadget_projections() == self.oracle_projections()

    def test_specific_minimizer(self):
        assert (1, 1, -1) in self.gadget_projections()

    def test_couplings_on_k22_edges_only(self):
        g = k22_gadget("z", "x", "y", "w")
        names = {frozenset((g.name_of(i), g.name_of(j))) for i, j in g.quadratic}
        assert names == {
            frozenset(("z", "x")),
            frozenset(("z", "y")),
            frozenset(("w", "x")),
            frozenset(("w", "y")),
        }

    def test_distinct_spins_required(self):
        with pytest.raises(UnaryError):
            k22_gadget("a", "a", "y", "w")


class TestPredictedLength:
    def test_paper_points(self):
        assert predicted_unary_length(16, 4) == pytest.approx(3.0)
        assert predicted_unary_length(64, 4) == pytest.approx(7.0)
        assert predicted_unary_length(256, 4) == pytest.approx(15.0)

    def test_optimized_ratio_large(self):
        J, N = 64, 4_000_000
        ratio = predicted_unary_length(N, J, optimized=True) / predicted_unary_length(N, J)
        assert ratio == pytest.approx(0.78, abs=0.03)

    def test_optimized_recursion_small(self):
        # one recursion step: (L, N) = (1, 4) -> (3, 18)
        assert predicted_unary_length(18, 4, optimized=True) == pytest.approx(3.0)


class TestFractalEmbedding:
    @pytest.mark.parametrize("N,J,L", [(4, 4, 1), (16, 4, 3), (64, 4, 7), (256, 4, 15)])
    def test_realized_side_lengths(self, N, J, L):
        embedded, layout = fractal_embed_unary(N, J)
        assert layout.L == L
        assert embedded.embedding.lattice.L == L

    @pytest.mark.parametrize(
        "N,J",
        [(2, 2), (8, 2), (2, 4), (3, 4), (5, 4), (8, 4), (16, 4), (32, 2), (9, 3), (32, 3)],
    )
    def test_validates(self, N, J):
        embedded, _ = fractal_embed_unary(N, J)
        report = validate(
            embedded.embedding,
            embedded.logical.interaction_edges(),
            range(embedded.logical.num_vars),
        )
        assert report.ok, report.summary()

    def test_realized_matches_prediction_j2(self):
        _, layout = fractal_embed_unary(8, 2)
        assert layout.L == predicted_unary_length(8, 2)

    def test_small_case_brute_force(self):
        # N=4 on one K_{4,4} cell: 8 physical spins, fully enumerable
        embedded, layout = fractal_embed_unary(4, 4)
        assert embedded.physical.num_vars == 8
        spec = brute_force(embedded.physical)
        assert spec.ground_energy == pytest.approx(0.0, abs=1e-9)
        decoded = set()
        for s in spec.ground_states:
            logical, broken = unembed(embedded, s)
            assert broken == 0
            hot = [
                k
                for k in range(1, 5)
                if logical[embedded.logical.index_of(f"x{k}")] == 1
            ]
            assert len(hot) == 1
            decoded.add(hot[0])
        assert decoded == {1, 2, 3, 4}

    def test_n2_j2_brute_force(self):
        embedded, _ = fractal_embed_unary(2, 2)
        spec = brute_force(embedded.physical)
        assert spec.ground_energy == pytest.approx(0.0, abs=1e-9)

    def test_terms_are_individually_nonnegative_lower_bound(self):
        # every constituent term of the physical objective is nonnegative,
        # so exhibiting a zero-energy state pins the ground energy exactly
        embedded, layout = fractal_embed_unary(8, 4)
        for k in range(1, 9):
            state = lift_one_hot(embedded, layout.tree, f"x{k}")
            assert embedded.physical.energy(state) == pytest.approx(0.0, abs=1e-9)

    def test_n8_one_hot_ground_set(self):
        # gadget minima are -3 (shifted to 0), chain penalties and padding are
        # nonnegative, so 0 is a certified lower bound; anneal corroborates
        from qubolattice.qubo import anneal_solve

        embedded, layout = fractal_embed_unary(8, 4)
        best, energy = anneal_solve(embedded.physical, sweeps=1500, restarts=20, seed=3)
        assert energy >= -1e-9
        assert energy == pytest.approx(0.0, abs=1e-9)
        logical, broken = unembed(embedded, best)
        assert broken == 0
        hot = [k for k in range(1, 9) if logical[embedded.logical.index_of(f"x{k}")] == 1]
        assert len(hot) == 1

    def test_rejects_j1(self):
        from qubolattice.embedding import EmbeddingError

        with pytest.raises(EmbeddingError):
            fractal_embed_unary(4, 1)

    @pytest.mark.parametrize("J", [2, 4])
    @pytest.mark.parametrize("N", [3, 8, 16, 64])
    def test_gadget_spins_lie_on_their_chains(self, N, J):
        # each gadget (z, x, y, w) sits in one cell's K_{2,2} block: all four
        # chains meet there, z and w on one side, x and y on the other
        _, plain = fractal_embed_unary(N, J)
        for layout in (plain, fill_tree_optimize(plain)):
            emb, logical = layout.embedded.embedding, layout.embedded.logical

            def sides(name):
                out: dict[tuple[int, int], set[bool]] = {}
                for p in emb.chains[logical.index_of(name)]:
                    i, j, a = emb.graph.cell_of(p)
                    out.setdefault((i, j), set()).add(a < J)
                return out

            for z, x, y, w in layout.tree.gadgets:
                held = [sides(name) for name in (z, w, x, y)]
                assert any(
                    all(side in h.get(cell, ()) for h, side in zip(held, (s, s, not s, not s)))
                    for cell in held[0]
                    for s in (True, False)
                ), (z, x, y, w)


class TestFillOptimize:
    def test_adds_three_bits_per_sixteen(self):
        _, layout = fractal_embed_unary(16, 4)
        filled = fill_tree_optimize(layout)
        assert filled.added_bits == 3
        assert filled.L == layout.L
        assert filled.N == 19

    def test_first_branch_adds_j_minus_2(self):
        _, layout = fractal_embed_unary(16, 4)
        filled = fill_tree_optimize(layout)
        # the full free cell hosts a three-leaf branch: net +2 = J - 2
        assert any("+3" in note or "branches" in note for note in filled.notes)
        first_cell_gain = 2
        assert filled.added_bits >= first_cell_gain

    def test_filled_layout_validates(self):
        _, layout = fractal_embed_unary(16, 4)
        filled = fill_tree_optimize(layout)
        emb = filled.embedded
        report = validate(
            emb.embedding, emb.logical.interaction_edges(), range(emb.logical.num_vars)
        )
        assert report.ok, report.summary()

    def test_fills_layout_with_node_numbers_past_1000(self):
        # the L = 31 layout already names nodes beyond m1000, so fill nodes
        # must not reuse those names
        _, layout = fractal_embed_unary(257, 4)
        filled = fill_tree_optimize(layout)
        emb = filled.embedded
        report = validate(
            emb.embedding, emb.logical.interaction_edges(), range(emb.logical.num_vars)
        )
        assert report.ok, report.summary()
        assert filled.added_bits > 0
        state = lift_one_hot(emb, filled.tree, filled.tree.real_leaves[-1])
        assert emb.physical.energy(state) == pytest.approx(0.0, abs=1e-9)

    def test_j2_adds_nothing(self):
        _, layout = fractal_embed_unary(8, 2)
        filled = fill_tree_optimize(layout)
        assert filled.added_bits == 0
        assert filled.notes[-1].startswith("no fill possible")

    def test_second_fill_names_new_leaves_past_the_first(self):
        # the first fill drops the leaves it replaces from the leaf list, so
        # new leaves are numbered past the largest x number, not the list size
        twice = fill_tree_optimize(fill_tree_optimize(fractal_embed_unary(6, 8)[1]))
        emb = twice.embedded
        report = validate(
            emb.embedding, emb.logical.interaction_edges(), range(emb.logical.num_vars)
        )
        assert report.ok, report.summary()
        real = twice.tree.real_leaves
        assert len(set(real)) == len(real) == twice.N

    def test_filled_ground_states_still_one_hot(self):
        _, layout = fractal_embed_unary(16, 4)
        filled = fill_tree_optimize(layout)
        emb = filled.embedded
        hot_names = filled.tree.real_leaves
        assert len(hot_names) == 19
        for name in hot_names[:3] + hot_names[-3:]:
            state = lift_one_hot(emb, filled.tree, name)
            assert emb.physical.energy(state) == pytest.approx(0.0, abs=1e-9)


def layout_digest(layouts) -> str:
    """sha256 of each layout's chains (in iteration order, members sorted),
    vertex order, physical and logical terms as float.hex, logical names and
    sizes."""
    h = hashlib.sha256()
    for layout in layouts:
        e = layout.embedded
        terms = [
            (
                q.offset.hex(),
                [(i, c.hex()) for i, c in q.linear.items()],
                [(i, j, c.hex()) for (i, j), c in q.quadratic.items()],
            )
            for q in (e.physical, e.logical)
        ]
        chains = [(k, sorted(v)) for k, v in e.embedding.chains.items()]
        sizes = (layout.N, layout.L, layout.N_star, layout.added_bits, layout.notes)
        h.update(repr((chains, list(e.vertex_order), terms, e.logical.var_names, sizes)).encode())
    return h.hexdigest()


class TestFractalDigest:
    def test_layouts_and_single_fills(self):
        # every layout for J in {2, 3, 4, 8} and N in 2..40, 64, 128, 256, each
        # followed by its fill, so a change to where the builder or the fill
        # puts a chain, a term or a leaf shows here
        def layouts():
            for J in (2, 3, 4, 8):
                for N in [*range(2, 41), 64, 128, 256]:
                    layout = fractal_embed_unary(N, J)[1]
                    yield layout
                    yield fill_tree_optimize(layout)

        digest = "e7e45742f98b484af38dac9ddfb343060e70f0fdc62fef3c36de727c0aacedae"
        assert layout_digest(layouts()) == digest

    def test_large_layouts_and_fills(self):
        # J in {4, 8} and N in {1024, 4096}, each layout followed by its fill:
        # fills that branch hundreds of leaves across many levels of the tree
        kept = []

        def layouts():
            for J in (4, 8):
                for N in (1024, 4096):
                    layout = fractal_embed_unary(N, J)[1]
                    yield layout
                    filled = fill_tree_optimize(layout)
                    if (J, N) == (4, 4096):
                        kept.append(filled)
                    yield filled

        digest = "9253ca9633a57bbe2db2cb177296964fe6ef8cd901814b16f3266c2c132bb0a5"
        assert layout_digest(layouts()) == digest
        # the 4,096-leaf fill on K_{4,4} cells (side 63) validates, gains
        # 1,472 bits, and the one-hot states of its first, middle and last
        # real leaf lift to physical energy 0
        (filled,) = kept
        e = filled.embedded
        assert validate(e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars)).ok
        assert filled.added_bits == 1472
        real = filled.tree.real_leaves
        for x in (real[0], real[len(real) // 2], real[-1]):
            assert abs(e.physical.energy(lift_one_hot(e, filled.tree, x))) <= 1e-9
