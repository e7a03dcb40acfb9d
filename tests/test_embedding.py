"""Minor embedding validation, constructive embeddings, chain penalties."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import counted_walks, reference_walk
from qubolattice import embedding as embedding_module
from qubolattice.adder import AdderInstance
from qubolattice.coloring import ColoringInstance
from qubolattice.embedding import (
    EmbeddingError,
    MinorEmbedding,
    SlotPlanner,
    choose_alpha,
    embed_complete_chimera,
    embed_qubo,
    embedding_from_doc,
    embedding_to_doc,
    unembed,
    validate,
)
from qubolattice.documents import KINDS
from qubolattice.hamcycle import HamcycleInstance, embed_permutation_tree, embed_tileable_hamcycle
from qubolattice.knapsack import KnapsackInstance
from qubolattice.lattice import CellAdjacency, LatticeSpec, build_lattice, chimera_cell, chimera_spec
from qubolattice.numpart import PartitionInstance, embed_numpart
from qubolattice.qubo import BINARY, SPIN, Qubo, brute_force
from qubolattice.tiling import supertile_compose
from qubolattice.unary import UnaryInstance, fill_tree_optimize, fractal_embed_unary


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def pair_scan_touching(g, cu, cv):
    return any(g.has_edge(p, q) for p in cu for q in cv)


def alpha_by_variable(q):
    """choose_alpha's definition, evaluated one variable at a time."""
    worst = 0.0
    for v in range(q.num_vars):
        total = abs(q.linear.get(v, 0.0))
        for (i, j), c in q.quadratic.items():
            if i == v or j == v:
                total += abs(c)
        worst = max(worst, total)
    return 1.0 + worst


class TestSlotPlanner:
    def test_undo_to_restores_the_claims_at_the_mark(self):
        planner = SlotPlanner(4)
        planner.claim((0, 0), "s", 0, "a")
        planner.claim((0, 1), "r", 2, "b")
        planner.claim((1, 0), "s", 1, "a")
        claims = list(planner.claims.items())
        chains = [(var, list(slots)) for var, slots in planner.chains.items()]
        mark = len(planner.claims)
        planner.claim((2, 0), "s", 3, "b")
        planner.claim((2, 1), "r", 0, "c")
        planner.claim((2, 2), "s", 0, "a")
        planner.claim((0, 0), "s", 0, "a")  # re-claiming its own slot adds nothing
        planner.undo_to(mark)
        assert list(planner.claims.items()) == claims
        assert [(var, list(slots)) for var, slots in planner.chains.items()] == chains
        assert "c" not in planner.chains  # created after the mark
        # an undone slot is free again, for any variable
        assert planner.free_tracks((2, 0), "s") == [0, 1, 2, 3]
        planner.claim((2, 0), "s", 3, "c")
        assert planner.claims[(2, 0, "s", 3)] == "c"
        assert list(planner.chains) == ["a", "b", "c"]

    def test_free_tracks(self):
        planner = SlotPlanner(4)
        planner.claim((1, 2), "s", 1, "a")
        planner.claim((1, 2), "r", 3, "b")
        assert planner.free_tracks((1, 2), "s") == [0, 2, 3]
        assert planner.free_tracks((1, 2), "r") == [0, 1, 2]
        assert planner.free_tracks((2, 1), "s") == [0, 1, 2, 3]

    @pytest.mark.parametrize("cell, vertex", [((0, 3), 24), ((3, 0), 96)])
    def test_one_far_slot_sets_the_lattice_side(self, cell, vertex):
        planner = SlotPlanner(4)
        planner.claim(cell, "s", 0, "a")
        assert planner.extent() == (cell[0] + 1, cell[1] + 1)
        emb = planner.to_embedding(lambda name: 0)
        assert emb.lattice.L == 4 and dict(emb.chains) == {0: frozenset({vertex})}


class TestValidate:
    def test_fig2_style_k8(self):
        emb = embed_complete_chimera(8, 4)
        assert emb.lattice.L == 2
        assert validate(emb, complete_edges(8)).ok

    def test_single_vertex_chains_on_edge(self):
        spec = chimera_spec(4, 1)
        g = build_lattice(spec)
        emb = MinorEmbedding(spec, {0: frozenset({g.vertex(0, 0, 0)}), 1: frozenset({g.vertex(0, 0, 4)})})
        assert validate(emb, [(0, 1)]).ok

    def test_shared_vertex_reported(self):
        spec = chimera_spec(4, 1)
        emb = MinorEmbedding(spec, {0: frozenset({0, 4}), 1: frozenset({4, 1})})
        report = validate(emb, [(0, 1)])
        assert not report.ok
        assert any(kind == "overlapping-chains" for kind, _ in report.violations)

    def test_disconnected_chain_reported(self):
        spec = chimera_spec(4, 1)
        emb = MinorEmbedding(spec, {0: frozenset({0, 1})})  # same side, no intra edge
        report = validate(emb, [])
        assert any(kind == "disconnected-chain" for kind, _ in report.violations)

    def test_missing_edge_reported(self):
        spec = chimera_spec(4, 2)
        g = build_lattice(spec)
        chains = {0: frozenset({g.vertex(0, 0, 0)}), 1: frozenset({g.vertex(1, 1, 0)})}
        report = validate(MinorEmbedding(spec, chains), [(0, 1)])
        assert any(kind == "unrealizable-edge" for kind, _ in report.violations)


    def test_out_of_lattice_member_is_reported_not_raised(self):
        emb = MinorEmbedding(chimera_spec(1, 2), {0: frozenset({99}), 1: frozenset({0, 1})})
        report = validate(emb, [(0, 1)])
        assert report.violations == [
            ("out-of-lattice", "vertex 0 chain uses [99]"),
            ("unrealizable-edge", "(0, 1): no lattice edge between chains"),
        ]

    @pytest.mark.parametrize("overlap", [False, True])
    def test_verdicts_match_pair_scan(self, overlap):
        rng = random.Random(17 + overlap)
        spec = chimera_spec(2, 3)
        g = build_lattice(spec)
        edges = complete_edges(5) + [(3, 1), (2, 2)]
        for _ in range(150):
            pool = rng.sample(range(-2, g.num_vertices + 2), 14)
            chains = {v: frozenset(pool[3 * v : 3 * v + rng.randint(1, 3)]) for v in range(5)}
            if overlap:
                chains[4] = chains[4] | {rng.choice(sorted(chains[0]))}
            report = validate(MinorEmbedding(spec, chains), edges)
            unrealizable = [d for k, d in report.violations if k == "unrealizable-edge"]
            assert unrealizable == [
                f"({u}, {v}): no lattice edge between chains"
                for u, v in edges
                if not pair_scan_touching(g, chains[u], chains[v])
            ]
            assert any(k == "overlapping-chains" for k, _ in report.violations) == overlap


def k8_embedded() -> tuple:
    """A K8 objective on its clique embedding, with the validate arguments."""
    q = Qubo(SPIN, 8)
    for i, j in complete_edges(8):
        q.add_quadratic(i, j, 1.0 if (i + j) % 3 else -1.0)
    emb = embed_complete_chimera(8, 4)
    return embed_qubo(q, emb), (q.interaction_edges(), range(q.num_vars))


@st.composite
def chain_edits(draw):
    """A list of attempted edits to a five-chain embedding on chimera(2, L),
    L <= 3.

    A replaced chain draws members from just below 0 to just past the
    36 vertices of chimera(2, 3), so it may leave the lattice.
    """
    member = st.integers(-2, 37)
    chain = st.frozensets(member, max_size=4)
    edit = st.one_of(
        st.tuples(st.just("replace"), st.integers(0, 4), chain),
        st.tuples(st.just("remove"), st.integers(0, 4), st.none()),
        st.tuples(st.just("reinsert"), st.integers(0, 4), st.none()),
        st.tuples(st.just("lattice"), st.integers(1, 3), st.none()),
    )
    return draw(st.lists(edit, max_size=8))


class TestWalkMemo:
    def test_validate_after_embed_qubo_walks_once(self, monkeypatch):
        walks = counted_walks(monkeypatch)
        e, args = k8_embedded()
        assert validate(e.embedding, *args).ok
        assert validate(e.embedding, *args).ok
        assert len(walks) == 1

    def test_equal_lattice_is_refused(self, monkeypatch):
        e, args = k8_embedded()
        report, order = validate(e.embedding, *args), list(e.vertex_order)
        walks = counted_walks(monkeypatch)
        with pytest.raises(AttributeError, match="lattice is fixed once built"):
            e.embedding.lattice = chimera_spec(4, 2)
        assert validate(e.embedding, *args) == report and report.ok
        assert e.vertex_order == order and walks == []

    @pytest.mark.parametrize(
        "name, edited, kind",
        [
            ("chains", lambda emb: {**emb.chains, 0: frozenset({0, 1})}, "disconnected-chain"),
            ("chains", lambda emb: {**emb.chains, 0: emb.chains[0] | {min(emb.chains[1])}},
             "overlapping-chains"),
            ("lattice", lambda emb: chimera_spec(4, 1), "out-of-lattice"),
        ],
        ids=["disconnected", "overlapping", "lattice"],
    )
    def test_edit_after_embed_qubo_is_refused(self, name, edited, kind, monkeypatch):
        e, args = k8_embedded()
        emb = e.embedding
        report, order = validate(emb, *args), list(e.vertex_order)
        walks = counted_walks(monkeypatch)
        value = edited(emb)
        with pytest.raises(AttributeError, match=f"{name} is fixed once built"):
            setattr(emb, name, value)
        if name == "chains":
            with pytest.raises(TypeError):
                emb.chains[0] = value[0]
        assert validate(emb, *args) == report and report.ok
        assert e.vertex_order == order and walks == []
        # the edit makes a new embedding, which reports it
        fresh = MinorEmbedding(**{"lattice": emb.lattice, "chains": emb.chains, name: value})
        assert kind in [k for k, _ in validate(fresh, *args).violations]

    def test_reinserting_a_chain_is_refused(self, monkeypatch):
        # equal chains in another key order: the first owner of a shared
        # vertex, and so the witness, follows the order
        spec = chimera_spec(4, 1)
        chains = {0: frozenset({0, 4}), 1: frozenset({4, 1})}
        emb = MinorEmbedding(spec, chains)
        witness = [("overlapping-chains", "physical vertex 4 shared by 0 and 1")]
        assert validate(emb, []).violations == witness
        walks = counted_walks(monkeypatch)
        with pytest.raises(AttributeError):
            emb.chains.pop(0)
        with pytest.raises(AttributeError, match="chains is fixed once built"):
            del emb.chains
        assert validate(emb, []).violations == witness
        assert emb.vertex_order == [0, 1, 4] and walks == []
        reordered = MinorEmbedding(spec, {1: chains[1], 0: chains[0]})
        assert validate(reordered, []).violations == [
            ("overlapping-chains", "physical vertex 4 shared by 1 and 0")
        ]

    @settings(max_examples=80, deadline=None)
    @given(edits=chain_edits())
    def test_every_edit_is_refused(self, edits):
        spec = chimera_spec(2, 2)
        g = build_lattice(spec)
        chains = {v: frozenset({g.vertex(v % 2, v // 2, 0), g.vertex(v % 2, v // 2, 2)})
                  for v in range(4)}
        chains[4] = frozenset({g.vertex(1, 1, 1)})
        emb = MinorEmbedding(spec, chains)
        edges, vertices = complete_edges(5) + [(2, 2)], range(6)
        report, order = validate(emb, edges, vertices), list(emb.vertex_order)
        with pytest.MonkeyPatch.context() as monkeypatch:
            walks = counted_walks(monkeypatch)
            for op, v, chain in edits:
                with pytest.raises((AttributeError, TypeError)):
                    if op == "replace":
                        emb.chains[v] = chain
                    elif op == "remove":
                        del emb.chains[v]
                    elif op == "reinsert":
                        emb.chains[v] = emb.chains[v]
                    else:
                        emb.lattice = chimera_spec(2, v)
                assert validate(emb, edges, vertices) == report
                assert emb.vertex_order == order and walks == []
        assert emb == MinorEmbedding(spec, chains)

    def test_the_given_map_is_copied(self):
        spec = chimera_spec(4, 1)
        chains = {0: frozenset({0, 4}), 1: frozenset({1, 5})}
        emb = MinorEmbedding(spec, chains)
        chains[0] = frozenset({0, 1})
        del chains[1]
        assert dict(emb.chains) == {0: frozenset({0, 4}), 1: frozenset({1, 5})}
        assert validate(emb, [(0, 1)]).ok and emb.vertex_order == [0, 1, 4, 5]

    def test_embedded_k3_cannot_lose_a_qubit(self):
        # replacing a chain by one of its qubits left validate reporting the
        # edited chains valid while vertex_order still held the old six
        q = Qubo(BINARY, 3)
        q.add_squared_affine(1.0, [(0, -1.0), (1, -1.0), (2, -1.0)])
        e = embed_qubo(q, embed_complete_chimera(3, 4))
        with pytest.raises(TypeError):
            e.embedding.chains[0] = frozenset({min(e.embedding.chains[0])})
        assert validate(e.embedding, q.interaction_edges(), range(3)).ok
        union = sorted(set().union(*e.embedding.chains.values()))
        assert e.vertex_order == union and len(union) == e.physical.num_vars == 6

    def test_validate_then_embed_qubo_walks_once(self, monkeypatch):
        q = k8_embedded()[0].logical
        walks = counted_walks(monkeypatch)
        emb = embed_complete_chimera(8, 4)
        assert validate(emb, q.interaction_edges(), range(q.num_vars)).ok
        embed_qubo(q, emb)
        assert len(walks) == 1

    def test_second_embed_qubo_reuses_the_walk(self, monkeypatch):
        e, args = k8_embedded()
        walks = counted_walks(monkeypatch)
        again = embed_qubo(e.logical, e.embedding)
        assert walks == []
        assert again.physical == e.physical
        for terms in ("linear", "quadratic"):
            assert list(getattr(again.physical, terms)) == list(getattr(e.physical, terms))
        assert again.placement == e.placement
        assert validate(e.embedding, *args).ok and walks == []

    def test_embed_qubo_keeps_every_tree(self, monkeypatch):
        walk_chains = embedding_module._walk_chains
        walks = counted_walks(monkeypatch)
        emb = embed_numpart(PartitionInstance(tuple(range(1, 33))), 4).embedding
        shared, trees, couplers, outside = walk_chains(emb.graph, emb.chains)
        assert len(trees) == len(emb.chains) and None not in trees.values()
        assert emb._walk == (shared, outside, frozenset(), couplers, trees)
        assert len(walks) == 1


@st.composite
def walk_cases(draw):
    """A lattice graph and chains to walk on it.

    The cell is chimera or a random 0/1 cell, the extents run from 1 to 4,
    and each chain is a random set (often disconnected, sometimes empty or
    reaching past the lattice) or grown along lattice edges; chains may
    overlap.
    """
    if draw(st.booleans()):
        cell = chimera_cell(draw(st.integers(1, 3)))
    else:
        n = draw(st.integers(1, 4))

        def matrix():
            bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
            return [bits[a * n : a * n + n] for a in range(n)]

        upper = matrix()
        A = [[upper[min(a, b)][max(a, b)] if a != b else 0 for b in range(n)] for a in range(n)]
        cell = CellAdjacency.from_matrices(A, matrix(), matrix())
    g = build_lattice(LatticeSpec(cell, draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    nv = g.num_vertices
    chains = {}
    for v in draw(st.lists(st.integers(0, 7), max_size=6, unique=True)):
        if draw(st.booleans()):
            chains[v] = draw(st.frozensets(st.integers(-2, nv + 1), max_size=6))
            continue
        members = [draw(st.integers(0, nv - 1))]
        for _ in range(draw(st.integers(0, 8))):
            nbrs = g.sorted_neighbors(draw(st.sampled_from(members)))
            if nbrs:
                members.append(draw(st.sampled_from(nbrs)))
        chains[v] = frozenset(members)
    return g, chains


class TestWalkReference:
    @settings(max_examples=300, deadline=None)
    @given(case=walk_cases())
    def test_same_walk_as_reference(self, case):
        g, chains = case
        assert embedding_module._walk_chains(g, chains) == reference_walk(g, chains)


class TestCompleteEmbeddings:
    def test_chimera_sizes(self):
        for n, expected_l in [(8, 2), (4, 1), (9, 3)]:
            emb = embed_complete_chimera(n, 4)
            assert emb.lattice.L == expected_l
            assert validate(emb, complete_edges(n)).ok

    def test_chain_lengths(self):
        emb = embed_complete_chimera(8, 4)
        assert all(len(c) == 4 for c in emb.chains.values())
        emb = embed_complete_chimera(4, 4)
        assert all(len(c) == 2 for c in emb.chains.values())

    def test_all_small_cases(self):
        for J in (1, 2, 4):
            for n in range(1, 17):
                emb = embed_complete_chimera(n, J)
                assert emb.lattice.L == max(1, math.ceil(n / J))
                assert validate(emb, complete_edges(n)).ok


class TestChooseAlpha:
    def test_zero_objective(self):
        assert choose_alpha(Qubo(BINARY, 2)) == 1.0

    def test_one_hot_pair(self):
        q = Qubo(BINARY, 2)
        q.add_squared_affine(1.0, [(0, -1.0), (1, -1.0)])
        assert choose_alpha(q) == 4.0

    def test_ferromagnetic_pair(self):
        q = Qubo(SPIN, 2)
        q.add_quadratic(0, 1, -1.0)
        assert choose_alpha(q) == 2.0


    def test_matches_per_variable_definition(self):
        rng = random.Random(5)
        for trial in range(300):
            n = trial % 10
            q = Qubo(rng.choice([BINARY, SPIN]), n)
            for v in range(n):
                if rng.random() < 0.7:
                    q.add_linear(v, rng.uniform(-5.0, 5.0))
            for i, j in rng.sample(complete_edges(n), len(complete_edges(n))):
                if rng.random() < 0.6:
                    q.add_quadratic(i, j, rng.uniform(-5.0, 5.0))
            assert choose_alpha(q) == alpha_by_variable(q)


def unary_pair_coupled():
    e1, e2 = fractal_embed_unary(2, 4)[0], fractal_embed_unary(2, 4)[0]
    return supertile_compose(e1, e2, [(0, 10.0)])


class TestOneChainWeight:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: embed_numpart(PartitionInstance((2, 2, 3, 3)), 4),
            lambda: fractal_embed_unary(16, 4)[0],
            lambda: fill_tree_optimize(fractal_embed_unary(16, 4)[1]).embedded,
            lambda: embed_permutation_tree(2),
            lambda: embed_permutation_tree(4),
            lambda: embed_tileable_hamcycle(HamcycleInstance(((0, 1), (1, 2), (2, 3), (3, 0))), 4),
            lambda: KINDS["knapsack"].embed(KnapsackInstance((3, 1), (2, 1), 2), "complete", 4),
            # a coupling of 10 raises the weight to 11.5 on both halves
            unary_pair_coupled,
        ],
        ids=["numpart", "unary", "unary-fill", "permutation-2", "permutation-4",
             "tileable-hamcycle", "complete-fallback", "supertile-coupled"],
    )
    def test_every_chain_coupler_carries_the_weight_of_the_logical_objective(self, build):
        e = build()
        alpha = choose_alpha(e.logical)
        want = -4.0 * alpha if e.physical.domain == BINARY else -alpha
        chain_of = {p: v for v, chain in e.embedding.chains.items() for p in chain}
        inside = [
            c for (k1, k2), c in e.physical.quadratic.items()
            if chain_of[e.vertex_order[k1]] == chain_of[e.vertex_order[k2]]
        ]
        assert inside and all(c == want for c in inside)


# one instance per tag, for the registry's native layouts and complete fallback
REGISTRY_INSTANCES = {
    "partition": PartitionInstance((2, 2, 3, 3)),
    "knapsack": KnapsackInstance((3, 1), (2, 1), 2),
    "coloring": ColoringInstance(((0, 1), (1, 2)), 2),
    "hamcycle": HamcycleInstance(((0, 1), (1, 2), (2, 3), (3, 0))),
    "unary": UnaryInstance(4),
    "adder": AdderInstance(2),
}


class TestDerivedVertexOrder:
    @pytest.mark.parametrize(
        "build",
        [
            *(
                pytest.param(
                    lambda tag=tag, strategy=strategy: KINDS[tag].embed(
                        REGISTRY_INSTANCES[tag], strategy, 4
                    ),
                    id=f"{tag}-{strategy}",
                )
                for tag in sorted(KINDS)
                for strategy in sorted({*KINDS[tag].embedders, "complete"})
            ),
            pytest.param(
                lambda: supertile_compose(
                    fractal_embed_unary(2, 4)[0], fractal_embed_unary(2, 4)[0], []
                ),
                id="supertile",
            ),
        ],
    )
    def test_vertex_order_is_the_sorted_union_of_the_chains(self, build):
        # embed_qubo, stitch (coloring tiles) and supertile_compose alike
        e = build()
        union = sorted(set().union(*e.embedding.chains.values()))
        assert e.vertex_order == union == [int(n) for n in e.physical.var_names]
        assert len(e.position_of) == len(union)
        assert all(e.vertex_order[k] == p for p, k in e.position_of.items())


@st.composite
def small_logical_qubos(draw):
    n = draw(st.sampled_from([2, 3]))
    q = Qubo(draw(st.sampled_from([BINARY, SPIN])), n)
    coeff = st.integers(-3, 3).map(float)
    for v in range(n):
        q.add_linear(v, draw(coeff))
    for i, j in complete_edges(n):
        q.add_quadratic(i, j, draw(coeff))
    return q


class TestGroundStateProperty:
    @settings(max_examples=30, deadline=None)
    @given(q=small_logical_qubos(), J=st.sampled_from([1, 2]))
    def test_physical_ground_states_decode_to_logical_ground_states(self, q, J):
        emb = embed_complete_chimera(q.num_vars, J)
        e = embed_qubo(q, emb)
        assert e.physical.num_vars <= 20
        physical = brute_force(e.physical)
        logical = brute_force(q)
        assert math.isclose(physical.ground_energy, logical.ground_energy, abs_tol=1e-9)
        for state in physical.ground_states:
            decoded, broken = unembed(e, state)
            assert broken == 0
            assert decoded in logical.ground_states


class TestEmbedQubo:
    def test_identity_embedding(self):
        spec = chimera_spec(4, 1)
        g = build_lattice(spec)
        q = Qubo(BINARY, 2)
        q.add_squared_affine(1.0, [(0, -1.0), (1, -1.0)])
        chains = {0: frozenset({g.vertex(0, 0, 0)}), 1: frozenset({g.vertex(0, 0, 4)})}
        emb = MinorEmbedding(spec, chains)
        e = embed_qubo(q, emb)
        assert e.physical.num_vars == 2
        assert e.physical.offset == q.offset
        assert sorted(e.physical.quadratic.values()) == sorted(q.quadratic.values())

    def test_two_vertex_chain_gap(self):
        spec = chimera_spec(4, 1)
        g = build_lattice(spec)
        q = Qubo(BINARY, 1)
        emb = MinorEmbedding(spec, {0: frozenset({g.vertex(0, 0, 0), g.vertex(0, 0, 4)})})
        e = embed_qubo(q, emb)
        spec_out = brute_force(e.physical)
        assert spec_out.ground_energy == 0.0
        assert set(spec_out.ground_states) == {(0, 0), (1, 1)}
        assert spec_out.gap == pytest.approx(2 * choose_alpha(q))

    def test_one_hot_through_k8_embedding(self):
        q = Qubo(BINARY, 2)
        q.add_squared_affine(1.0, [(0, -1.0), (1, -1.0)])
        emb8 = embed_complete_chimera(8, 4)
        emb = MinorEmbedding(emb8.lattice, {0: emb8.chains[0], 1: emb8.chains[1]})
        e = embed_qubo(q, emb)
        spec_out = brute_force(e.physical)
        assert spec_out.ground_energy == 0.0
        decoded = {unembed(e, s)[0] for s in spec_out.ground_states}
        assert decoded == {(1, 0), (0, 1)}
        assert all(unembed(e, s)[1] == 0 for s in spec_out.ground_states)

    def test_quadratic_placed_on_lattice_edges_only(self):
        q = Qubo(SPIN, 3)
        for i, j in complete_edges(3):
            q.add_quadratic(i, j, -1.0)
        emb = embed_complete_chimera(3, 2)
        e = embed_qubo(q, emb)
        g = e.embedding.graph
        for (k1, k2) in e.physical.quadratic:
            assert g.has_edge(e.vertex_order[k1], e.vertex_order[k2])

    def test_couplers_take_smallest_lattice_edge(self):
        rng = random.Random(23)
        for n, J in [(5, 2), (6, 1), (9, 4)]:
            q = Qubo(SPIN, n)
            for i, j in complete_edges(n):
                q.add_quadratic(i, j, rng.choice([-1.0, 1.0]))
            emb = embed_complete_chimera(n, J)
            e = embed_qubo(q, emb)
            g = emb.graph
            for (u, v), placed in e.placement.items():
                assert placed == min(
                    (min(p, r), max(p, r))
                    for p in emb.chains[u]
                    for r in emb.chains[v]
                    if g.has_edge(p, r)
                )

    def test_missing_physical_edge_raises(self):
        spec = chimera_spec(4, 2)
        g = build_lattice(spec)
        q = Qubo(BINARY, 2)
        q.add_quadratic(0, 1, 1.0)
        chains = {0: frozenset({g.vertex(0, 0, 0)}), 1: frozenset({g.vertex(1, 1, 0)})}
        with pytest.raises(EmbeddingError):
            embed_qubo(q, MinorEmbedding(spec, chains))

    def test_ground_energy_preserved(self):
        q = Qubo(SPIN, 4)
        for i, j in complete_edges(4):
            q.add_quadratic(i, j, 1.0 if (i + j) % 2 else -1.0)
        q.add_linear(0, 0.5)
        emb = embed_complete_chimera(4, 2)
        e = embed_qubo(q, emb)
        phys = brute_force(e.physical)
        logical = brute_force(q)
        assert math.isclose(phys.ground_energy, logical.ground_energy, abs_tol=1e-9)
        for s in phys.ground_states:
            decoded, broken = unembed(e, s)
            assert broken == 0
            assert math.isclose(q.energy(decoded), logical.ground_energy, abs_tol=1e-9)

    def test_chain_intact_restriction_matches_lift(self):
        q = Qubo(BINARY, 3)
        q.add_squared_affine(1.0, [(0, -1.0), (1, -1.0), (2, -1.0)])
        emb = embed_complete_chimera(3, 4)
        e = embed_qubo(q, emb)
        eff = e.chain_intact_qubo()
        for code in range(8):
            bits = tuple((code >> k) & 1 for k in range(3))
            assert math.isclose(eff.energy(bits), e.physical.energy(e.lift(bits)), abs_tol=1e-9)


class TestUnembed:
    def _embedded(self):
        q = Qubo(BINARY, 1)
        spec = chimera_spec(4, 1)
        g = build_lattice(spec)
        chain = frozenset({g.vertex(0, 0, 0), g.vertex(0, 0, 4), g.vertex(0, 0, 1)})
        emb = MinorEmbedding(spec, {0: chain})
        return embed_qubo(q, emb)

    def test_unanimous(self):
        e = self._embedded()
        assert unembed(e, (1, 1, 1)) == ((1,), 0)
        assert unembed(e, (0, 0, 0)) == ((0,), 0)

    def test_majority(self):
        e = self._embedded()
        logical, broken = unembed(e, (1, 1, 0))
        assert logical == (1,) and broken == 1

    def test_tie_breaks_to_zero(self):
        q = Qubo(BINARY, 1)
        spec = chimera_spec(4, 1)
        g = build_lattice(spec)
        emb = MinorEmbedding(spec, {0: frozenset({g.vertex(0, 0, 0), g.vertex(0, 0, 4)})})
        e = embed_qubo(q, emb)
        logical, broken = unembed(e, (1, 0))
        assert logical == (0,) and broken == 1


class TestEmbeddingDocs:
    def test_round_trip(self):
        emb = embed_complete_chimera(5, 4)
        names = [f"x{v}" for v in range(5)]
        doc = embedding_to_doc(emb, names)
        assert sorted(doc) == ["chains", "lattice"]
        assert sorted(doc["chains"]) == names
        back = embedding_from_doc(doc, names)
        assert back.lattice == emb.lattice
        assert back.chains == emb.chains
