"""Two-dimensional cell-matrix lattice graphs, including the Chimera family.

A lattice is a grid of identical n-vertex cells.  Three 0/1 matrices describe
it: ``A`` gives the intra-cell edges, ``A_h`` connects a cell to its right
neighbor and ``A_v`` to the neighbor below.  No periodic wrap.  The canonical
vertex index of intra-cell vertex ``a`` in cell ``(i, j)`` is
``(i * height + j) * n + a`` so cell coordinates are recoverable by arithmetic,
and so is adjacency: :class:`LatticeGraph` derives every neighbour from the
cell matrices and the coordinates instead of storing an edge set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .qubo import doc_int


class LatticeError(ValueError):
    """Invalid lattice parameter."""


def _as_bitmatrix(m, n: int, name: str) -> np.ndarray:
    arr = np.asarray(m)
    if arr.shape != (n, n):
        raise LatticeError(f"{name} must be {n}x{n}")
    # check before casting, which would truncate an entry such as 1.7 to 1
    if not ((arr == 0) | (arr == 1)).all():
        raise LatticeError(f"{name} must contain only 0/1 entries")
    return arr.astype(np.int8)


@dataclass(frozen=True)
class CellAdjacency:
    """The repeating n-vertex cell: intra, horizontal, and vertical edges."""

    n: int
    A: tuple[tuple[int, ...], ...]
    A_h: tuple[tuple[int, ...], ...]
    A_v: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_matrices(A, A_h, A_v) -> "CellAdjacency":
        A = np.asarray(A)
        n = A.shape[0]
        A = _as_bitmatrix(A, n, "A")
        A_h = _as_bitmatrix(A_h, n, "A_h")
        A_v = _as_bitmatrix(A_v, n, "A_v")
        if (A != A.T).any():
            raise LatticeError("A must be symmetric")
        if np.diag(A).any():
            raise LatticeError("A must have zero diagonal")
        to_tuple = lambda m: tuple(tuple(int(v) for v in row) for row in m)
        return CellAdjacency(n, to_tuple(A), to_tuple(A_h), to_tuple(A_v))

    @cached_property
    def e(self) -> int:
        """Intra-cell edge count, pairs a < b with A[a][b] = 1."""
        return sum(self.A[a][b] for a in range(self.n) for b in range(a + 1, self.n))

    @cached_property
    def e_h(self) -> int:
        return sum(sum(row) for row in self.A_h)

    @cached_property
    def e_v(self) -> int:
        return sum(sum(row) for row in self.A_v)


@lru_cache(maxsize=64)
def chimera_cell(J: int) -> CellAdjacency:
    """Complete-bipartite K_{J,J} cell.

    Left vertices 0..J-1 carry the horizontal couplers (track-aligned), right
    vertices J..2J-1 the vertical ones.  J=4 reproduces the standard Chimera
    cell with n=8, e=16, e_h=e_v=4.  The record is frozen, so one instance
    per J is built and shared.
    """
    if J < 1:
        raise LatticeError("chimera cell requires J >= 1")
    n = 2 * J
    A = np.zeros((n, n), dtype=np.int8)
    A[:J, J:] = 1
    A[J:, :J] = 1
    A_h = np.zeros((n, n), dtype=np.int8)
    for a in range(J):
        A_h[a, a] = 1
    A_v = np.zeros((n, n), dtype=np.int8)
    for a in range(J, n):
        A_v[a, a] = 1
    return CellAdjacency.from_matrices(A, A_h, A_v)


@dataclass(frozen=True)
class LatticeSpec:
    """A cell family plus the grid extents (square ``L`` is the usual case)."""

    cell: CellAdjacency
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise LatticeError("lattice extents must be positive")

    @property
    def L(self) -> int:
        if self.width != self.height:
            raise LatticeError("rectangular lattice has no single side length")
        return self.width

    @property
    def num_vertices(self) -> int:
        return self.cell.n * self.width * self.height


def chimera_spec(J: int, L: int) -> LatticeSpec:
    return LatticeSpec(chimera_cell(J), L, L)


@lru_cache(maxsize=64)
def _neighbor_offsets(
    cell: CellAdjacency, height: int
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per intra-cell role ``a`` and border mask, the index offsets of its
    neighbours in a lattice of `cell`s with `height` cells per column.

    Intra-cell neighbours come through ``A``, right and left through ``A_h``
    and its transpose, down and up through ``A_v`` and its transpose.  Mask
    bit 1 means a left cell exists, 2 up, 4 down and 8 right (see
    :meth:`LatticeGraph._offsets_at`); the groups lie in disjoint, increasing
    index ranges, so each row is sorted.  The width never enters, so lattices
    of one cell and height share one table.
    """
    n = cell.n
    step = height * n  # index distance to the cell one step right
    tables = []
    for a in range(n):
        left = [b - a - step for b in range(n) if cell.A_h[b][a]]
        up = [b - a - n for b in range(n) if cell.A_v[b][a]]
        intra = [b - a for b in range(n) if cell.A[a][b]]
        down = [b - a + n for b in range(n) if cell.A_v[a][b]]
        right = [b - a + step for b in range(n) if cell.A_h[a][b]]
        tables.append(
            tuple(
                tuple(
                    (left if m & 1 else [])
                    + (up if m & 2 else [])
                    + intra
                    + (down if m & 4 else [])
                    + (right if m & 8 else [])
                )
                for m in range(16)
            )
        )
    return tuple(tables)


class LatticeGraph:
    """Vertex indexing and adjacency of a LatticeSpec, computed by arithmetic.

    A graph holds its spec and the neighbour-offset table of its cell shape
    (:func:`_neighbor_offsets`), which every graph of equal cell and height
    shares, so :meth:`sorted_neighbors` is one table lookup after
    :meth:`cell_of`.  Nothing proportional to the lattice size is built;
    :attr:`edges` is materialized on first use only.
    """

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        self._n = spec.cell.n
        self._num_vertices = spec.num_vertices
        self._height = spec.height
        self._last_i = spec.width - 1
        self._last_j = spec.height - 1
        self._offsets = _neighbor_offsets(spec.cell, spec.height)

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        spec, cell = self.spec, self.spec.cell
        W, H = spec.width, spec.height
        return W * H * cell.e + (W - 1) * H * cell.e_h + W * (H - 1) * cell.e_v

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge as ``(u, v)`` with ``u < v``; built on first access."""
        return frozenset(
            (u, w)
            for u in range(self.num_vertices)
            for w in self.sorted_neighbors(u)
            if u < w
        )

    def vertex(self, i: int, j: int, a: int) -> int:
        """Canonical index of intra-cell vertex a in cell (i, j)."""
        spec = self.spec
        if not (0 <= i < spec.width and 0 <= j < spec.height and 0 <= a < self._n):
            raise LatticeError(f"cell coordinate ({i}, {j}, {a}) out of range")
        return (i * spec.height + j) * self._n + a

    def cell_of(self, v: int) -> tuple[int, int, int]:
        """Inverse of :meth:`vertex`."""
        if not 0 <= v < self._num_vertices:
            raise LatticeError(f"vertex {v} out of range")
        cell, a = divmod(v, self._n)
        i, j = divmod(cell, self._height)
        return i, j, a

    def _offsets_at(self, v: int) -> tuple[int, ...]:
        """Sorted offsets from in-lattice vertex ``v`` to its neighbours.

        Unchecked: ``v`` must lie in the lattice.  This is the one place that
        reads a vertex's cell border, for :meth:`sorted_neighbors` and the
        chain walk of :mod:`qubolattice.embedding`.
        """
        cell, a = divmod(v, self._n)
        i, j = divmod(cell, self._height)
        border = (i > 0) + 2 * (j > 0) + 4 * (j < self._last_j) + 8 * (i < self._last_i)
        return self._offsets[a][border]

    def sorted_neighbors(self, v: int) -> list[int]:
        """Neighbours of ``v`` in increasing index order."""
        if not 0 <= v < self._num_vertices:
            raise LatticeError(f"vertex {v} out of range")
        return [v + d for d in self._offsets_at(v)]

    def neighbors(self, v: int) -> set[int]:
        return set(self.sorted_neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self._num_vertices and 0 <= v < self._num_vertices):
            return False
        return v in self.sorted_neighbors(u)

    def average_degree(self) -> float:
        return 2.0 * self.num_edges / self.num_vertices


def build_lattice(spec: LatticeSpec) -> LatticeGraph:
    return LatticeGraph(spec)


@dataclass
class SublatticeView:
    """Induced subgraph on a rectangle of cells; `to_parent` maps each of its
    vertices to the parent lattice's index."""

    graph: LatticeGraph
    to_parent: list[int]


def sublattice(g: LatticeGraph, i0: int, j0: int, r1: int, r2: int) -> SublatticeView:
    """Induced view of the r1 x r2 cell rectangle with corner (i0, j0).

    The rectangle of a cell-matrix lattice is itself a lattice of the same
    family, so the view carries a real LatticeGraph plus the index map.
    """
    spec = g.spec
    if r1 < 1 or r2 < 1 or i0 < 0 or j0 < 0 or i0 + r1 > spec.width or j0 + r2 > spec.height:
        raise LatticeError("rectangle does not fit inside the lattice")
    sub = LatticeGraph(LatticeSpec(spec.cell, r1, r2))
    to_parent = []
    for i in range(r1):
        for j in range(r2):
            for a in range(spec.cell.n):
                to_parent.append(g.vertex(i0 + i, j0 + j, a))
    return SublatticeView(sub, to_parent)


def boundary_edge_count(g: LatticeGraph, i0: int, j0: int, r1: int, r2: int) -> int:
    """Edges of the parent lattice crossing the rectangle boundary."""
    view = sublattice(g, i0, j0, r1, r2)
    inside = set(view.to_parent)
    count = 0
    for u, v in g.edges:
        if (u in inside) != (v in inside):
            count += 1
    return count


def lattice_to_doc(spec: LatticeSpec, family_hint: tuple[str, int] | None = None) -> dict:
    """Serialize; chimera lattices get the compact family form."""
    if family_hint is not None and family_hint[0] == "chimera":
        return {"family": "chimera", "J": family_hint[1], "L": spec.L}
    doc = {
        "n": spec.cell.n,
        "A": [list(r) for r in spec.cell.A],
        "A_h": [list(r) for r in spec.cell.A_h],
        "A_v": [list(r) for r in spec.cell.A_v],
        "L": spec.width,
    }
    if spec.height != spec.width:
        doc["height"] = spec.height
    return doc


def lattice_from_doc(doc: Mapping) -> LatticeSpec:
    if doc.get("family") == "chimera":
        return chimera_spec(doc_int(doc["J"]), doc_int(doc["L"]))
    A, A_h, A_v = ([[doc_int(v) for v in row] for row in doc[key]] for key in ("A", "A_h", "A_v"))
    cell = CellAdjacency.from_matrices(A, A_h, A_v)
    width = doc_int(doc["L"])
    height = doc_int(doc.get("height", width))
    return LatticeSpec(cell, width, height)


def detect_chimera(spec: LatticeSpec) -> int | None:
    """Return J if the cell is exactly the K_{J,J} chimera cell, else None."""
    n = spec.cell.n
    if n % 2 != 0:
        return None
    J = n // 2
    return J if spec.cell == chimera_cell(J) else None
