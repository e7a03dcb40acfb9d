"""Shared low-level machinery for constructive chain layouts.

A planner claims half-cell slots (cell, side, track) for named chains; claims
by two different chains on one slot are construction errors, while a chain
re-claiming its own slot is a no-op.  Every constructive layout (fractal
unary trees, summation-tree blocks, permutation trees, tileable Hamiltonian
cycles) builds its chains through one planner and converts them with
`to_embedding`.
"""

from __future__ import annotations

from .embedding import EmbeddingError, MinorEmbedding
from .lattice import chimera_spec
from .qubo import Qubo


class SlotPlanner:
    """Tracks ownership of s/r tracks per cell while a layout is built.

    Each chain keeps its slots in claim order (a dict used as an ordered set),
    so walking a chain is deterministic.
    """

    def __init__(self, J: int):
        self.J = J
        self.claims: dict[tuple[int, int, str, int], str] = {}
        self.chains: dict[str, dict[tuple[int, int, str, int], None]] = {}

    def claim(self, cell: tuple[int, int], side: str, track: int, var: str) -> None:
        if not 0 <= track < self.J:
            raise EmbeddingError(f"track {track} outside K_{{{self.J},{self.J}}} cell")
        key = (cell[0], cell[1], side, track)
        owner = self.claims.get(key)
        if owner is None:
            self.claims[key] = var
            self.chains.setdefault(var, {})[key] = None
        elif owner != var:
            raise EmbeddingError(
                f"layout conflict at cell {cell} {side}{track}: {owner} vs {var}"
            )

    def run_horizontal(self, var: str, track: int, row: int, i_from: int, i_to: int) -> None:
        step = 1 if i_to >= i_from else -1
        for i in range(i_from, i_to + step, step):
            self.claim((i, row), "s", track, var)

    def run_vertical(self, var: str, track: int, col: int, j_from: int, j_to: int) -> None:
        step = 1 if j_to >= j_from else -1
        for j in range(j_from, j_to + step, step):
            self.claim((col, j), "r", track, var)

    def arm(
        self, var: str, origin: tuple[int, int], slot: int, axis: str, lo: int, hi: int
    ) -> None:
        """Claim the arm of clique slot `slot` in the block at `origin`.

        The slot sits on track slot % J of cell line slot // J; axis "h" runs
        its s track along that row, axis "v" its r track down that column,
        over the block's cell offsets lo..hi.
        """
        oi, oj = origin
        line, track = divmod(slot, self.J)
        if axis == "h":
            self.run_horizontal(var, track, oj + line, oi + lo, oi + hi)
        else:
            self.run_vertical(var, track, oi + line, oj + lo, oj + hi)

    def snapshot(self) -> tuple:
        return (dict(self.claims), {k: dict(v) for k, v in self.chains.items()})

    def restore(self, snap: tuple) -> None:
        self.claims = dict(snap[0])
        self.chains = {k: dict(v) for k, v in snap[1].items()}

    def extent(self) -> tuple[int, int]:
        w = 1 + max((i for (i, _, _, _) in self.claims), default=0)
        h = 1 + max((j for (_, j, _, _) in self.claims), default=0)
        return w, h

    def to_embedding(self, logical: Qubo, alpha: float, L: int | None = None) -> MinorEmbedding:
        """Convert claims into a MinorEmbedding on a square chimera lattice."""
        w, h = self.extent()
        side = max(w, h) if L is None else L
        emb = MinorEmbedding(chimera_spec(self.J, side), {}, alpha)
        graph = emb.graph
        for name, spots in self.chains.items():
            members = set()
            for i, j, s, t in spots:
                members.add(graph.vertex(i, j, t if s == "s" else self.J + t))
            emb.chains[logical.index_of(name)] = frozenset(members)
        return emb


def place_clique_block(
    planner: SlotPlanner, origin: tuple[int, int], names: list[str]
) -> int:
    """Triangular clique embedding of the names inside a square block.

    Variable p gets a horizontal arm (s track p % J across row p // J) and a
    vertical arm (r track p % J down column p // J); the arms join in the
    diagonal cell, and any pair of variables meets on an intra-cell edge.
    Returns the block side in cells.
    """
    b = max(1, -(-len(names) // planner.J))
    for p, name in enumerate(names):
        planner.arm(name, origin, p, "h", 0, b - 1)
        planner.arm(name, origin, p, "v", 0, b - 1)
    return b
