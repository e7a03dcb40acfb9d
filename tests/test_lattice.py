"""Cell-matrix lattice construction and counting identities."""

import numpy as np
import pytest

from qubolattice.lattice import (
    CellAdjacency,
    LatticeError,
    LatticeSpec,
    boundary_edge_count,
    build_lattice,
    chimera_cell,
    chimera_spec,
    detect_chimera,
    lattice_from_doc,
    lattice_to_doc,
    sublattice,
)


class TestChimeraCell:
    def test_standard_cell_counts(self):
        cell = chimera_cell(4)
        assert (cell.n, cell.e, cell.e_h, cell.e_v) == (8, 16, 4, 4)

    def test_degenerate_k11(self):
        cell = chimera_cell(1)
        assert (cell.n, cell.e, cell.e_h, cell.e_v) == (2, 1, 1, 1)

    def test_k22_counts(self):
        cell = chimera_cell(2)
        assert (cell.n, cell.e, cell.e_h, cell.e_v) == (4, 4, 2, 2)

    def test_rejects_zero(self):
        with pytest.raises(LatticeError):
            chimera_cell(0)

    def test_one_record_per_side(self):
        assert chimera_cell(4) is chimera_cell(4)
        assert chimera_cell(4) is not chimera_cell(3)

    def test_cell_matrix_validation(self):
        with pytest.raises(LatticeError):
            CellAdjacency.from_matrices([[1]], [[0]], [[0]])  # diagonal entry
        with pytest.raises(LatticeError):
            CellAdjacency.from_matrices([[0, 1], [0, 0]], np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(LatticeError, match="only 0/1 entries"):
            # checked before the int8 cast, which would read 1.7 as 1
            CellAdjacency.from_matrices([[0, 1.7], [1.7, 0]], np.zeros((2, 2)), np.zeros((2, 2)))


class TestBuildLattice:
    def test_chimera_2x2(self):
        g = build_lattice(chimera_spec(4, 2))
        assert g.num_vertices == 32
        assert g.num_edges == 80

    def test_vertex_count_16(self):
        g = build_lattice(chimera_spec(4, 16))
        assert g.num_vertices == 2048

    def test_single_cell(self):
        cell = chimera_cell(3)
        g = build_lattice(LatticeSpec(cell, 1, 1))
        assert g.num_vertices == cell.n
        assert g.num_edges == cell.e

    def test_edge_count_identity(self):
        for J in (1, 2, 4):
            cell = chimera_cell(J)
            for L in (1, 2, 3, 5):
                g = build_lattice(LatticeSpec(cell, L, L))
                expected = cell.e * L * L + (cell.e_h + cell.e_v) * L * (L - 1)
                assert g.num_edges == expected

    def test_average_degree_bound(self):
        for J in (1, 2, 4):
            cell = chimera_cell(J)
            g = build_lattice(LatticeSpec(cell, 3, 3))
            assert g.average_degree() <= 2.0 / cell.n * (cell.e + cell.e_h + cell.e_v) * cell.n / 2 * 2
            assert g.average_degree() <= 2.0 * (cell.e + cell.e_h + cell.e_v) / cell.n

    def test_simple_graph(self):
        g = build_lattice(chimera_spec(2, 3))
        for u, v in g.edges:
            assert u != v
            assert u < v

    def test_index_round_trip(self):
        g = build_lattice(chimera_spec(4, 3))
        for i in range(3):
            for j in range(3):
                for a in range(8):
                    assert g.cell_of(g.vertex(i, j, a)) == (i, j, a)


def brute_force_edges(spec):
    """Edge set read straight off the cell matrices, cell by cell."""
    n, W, H = spec.cell.n, spec.width, spec.height
    A, A_h, A_v = spec.cell.A, spec.cell.A_h, spec.cell.A_v

    def idx(i, j, a):
        return (i * H + j) * n + a

    edges = set()
    for i in range(W):
        for j in range(H):
            for a in range(n):
                for b in range(n):
                    if a < b and A[a][b]:
                        edges.add((idx(i, j, a), idx(i, j, b)))
                    if i + 1 < W and A_h[a][b]:
                        edges.add(tuple(sorted((idx(i, j, a), idx(i + 1, j, b)))))
                    if j + 1 < H and A_v[a][b]:
                        edges.add(tuple(sorted((idx(i, j, a), idx(i, j + 1, b)))))
    return edges


ASYMMETRIC_CELL = CellAdjacency.from_matrices(
    [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
    [[0, 1, 0], [0, 0, 0], [1, 0, 1]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
)

EQUIVALENCE_SPECS = [
    chimera_spec(1, 3),
    chimera_spec(2, 3),
    chimera_spec(4, 2),
    chimera_spec(4, 1),
    LatticeSpec(chimera_cell(2), 4, 2),
    LatticeSpec(chimera_cell(2), 1, 3),
    LatticeSpec(ASYMMETRIC_CELL, 3, 4),
    LatticeSpec(ASYMMETRIC_CELL, 4, 1),
    LatticeSpec(ASYMMETRIC_CELL, 1, 3),
    # these share the offset table of a spec above: same cell and height
    LatticeSpec(chimera_cell(2), 2, 3),
    LatticeSpec(ASYMMETRIC_CELL, 2, 4),
]


class TestArithmeticAdjacency:
    @pytest.mark.parametrize("spec", EQUIVALENCE_SPECS)
    def test_matches_cell_matrix_edge_set(self, spec):
        g = build_lattice(spec)
        expected = brute_force_edges(spec)
        assert g.num_edges == len(expected)
        assert g.edges == expected
        nv = g.num_vertices
        for v in range(nv):  # every role of every cell, borders included
            nbrs = sorted({b for a, b in expected if a == v} | {a for a, b in expected if b == v})
            assert g.sorted_neighbors(v) == nbrs
            assert g.neighbors(v) == set(nbrs)
        for u in range(nv):
            for v in range(nv):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in expected)

    @pytest.mark.parametrize("spec", EQUIVALENCE_SPECS)
    def test_out_of_range_vertices(self, spec):
        g = build_lattice(spec)
        nv = g.num_vertices
        for bad in (-1, nv, nv + 7):
            assert not g.has_edge(bad, 0)
            assert not g.has_edge(0, bad)
            with pytest.raises(LatticeError):
                g.neighbors(bad)
            with pytest.raises(LatticeError):
                g.sorted_neighbors(bad)
        assert not g.has_edge(-1, nv)

    def test_equal_shapes_share_one_table(self):
        # the offsets depend on the cell and the height, never the width
        tables = build_lattice(LatticeSpec(ASYMMETRIC_CELL, 3, 4))._offsets
        assert build_lattice(LatticeSpec(ASYMMETRIC_CELL, 1, 4))._offsets is tables
        assert build_lattice(chimera_spec(4, 3))._offsets is build_lattice(chimera_spec(4, 3))._offsets
        assert build_lattice(LatticeSpec(ASYMMETRIC_CELL, 3, 3))._offsets is not tables
        assert build_lattice(LatticeSpec(chimera_cell(3), 3, 4))._offsets is not tables

    def test_large_lattice_needs_no_edge_set(self):
        g = build_lattice(chimera_spec(4, 132))
        assert g.num_edges == 417120
        assert g.sorted_neighbors(g.vertex(131, 131, 7)) == [
            g.vertex(131, 130, 7), *(g.vertex(131, 131, a) for a in range(4))
        ]
        assert "edges" not in vars(g)


class TestNeighbors:
    def test_single_cell_bipartite(self):
        g = build_lattice(chimera_spec(4, 1))
        assert g.neighbors(0) == {4, 5, 6, 7}

    def test_left_vertex_has_horizontal_coupler(self):
        g = build_lattice(chimera_spec(4, 2))
        v = g.vertex(0, 0, 0)
        nbrs = g.neighbors(v)
        intra = {g.vertex(0, 0, a) for a in range(4, 8)}
        assert intra <= nbrs
        assert g.vertex(1, 0, 0) in nbrs
        assert len(nbrs) == 5

    def test_small_cell_degree(self):
        g = build_lattice(chimera_spec(1, 2))
        for v in range(g.num_vertices):
            assert len(g.neighbors(v)) <= 2

    def test_symmetry(self):
        g = build_lattice(chimera_spec(2, 2))
        for v in range(g.num_vertices):
            for u in g.neighbors(v):
                assert v in g.neighbors(u)

    def test_out_of_range(self):
        g = build_lattice(chimera_spec(1, 1))
        with pytest.raises(LatticeError):
            g.neighbors(99)


class TestSublattice:
    def test_full_rectangle_identity(self):
        g = build_lattice(chimera_spec(4, 2))
        view = sublattice(g, 0, 0, 2, 2)
        assert view.graph.num_vertices == g.num_vertices
        assert view.to_parent == list(range(g.num_vertices))

    def test_single_cell_view(self):
        g = build_lattice(chimera_spec(4, 3))
        view = sublattice(g, 1, 1, 1, 1)
        assert view.graph.num_vertices == 8
        assert view.graph.num_edges == 16

    def test_2x1_rectangle(self):
        g = build_lattice(chimera_spec(4, 2))
        view = sublattice(g, 0, 0, 2, 1)
        assert view.graph.num_vertices == 16
        assert view.graph.num_edges == 36

    def test_out_of_bounds(self):
        g = build_lattice(chimera_spec(4, 2))
        with pytest.raises(LatticeError):
            sublattice(g, 1, 1, 2, 2)

    def test_boundary_edge_bound(self):
        g = build_lattice(chimera_spec(4, 4))
        cell = g.spec.cell
        for (i0, j0, r1, r2) in [(0, 0, 2, 2), (1, 1, 2, 3), (2, 0, 1, 1), (0, 1, 4, 2)]:
            cut = boundary_edge_count(g, i0, j0, r1, r2)
            assert cut <= (cell.e_h + cell.e_v) * (2 * r1 + 2 * r2)


class TestDocs:
    def test_chimera_doc_round_trip(self):
        spec = chimera_spec(4, 2)
        doc = lattice_to_doc(spec, ("chimera", 4))
        assert doc == {"family": "chimera", "J": 4, "L": 2}
        assert lattice_from_doc(doc) == spec

    def test_matrix_doc_round_trip(self):
        spec = chimera_spec(2, 3)
        doc = lattice_to_doc(spec)
        back = lattice_from_doc(doc)
        assert back == spec

    def test_detect_chimera(self):
        assert detect_chimera(chimera_spec(4, 2)) == 4
        cell = CellAdjacency.from_matrices([[0, 1], [1, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0]])
        assert detect_chimera(LatticeSpec(cell, 2, 2)) is None
        odd = CellAdjacency.from_matrices(
            [[0, 1, 1], [1, 0, 0], [1, 0, 0]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        )
        assert detect_chimera(LatticeSpec(odd, 2, 2)) is None

    def test_rectangular_matrix_doc_keeps_its_height(self):
        spec = LatticeSpec(chimera_cell(2), 3, 2)
        doc = lattice_to_doc(spec)
        assert (doc["L"], doc["height"]) == (3, 2)
        assert lattice_from_doc(doc) == spec
