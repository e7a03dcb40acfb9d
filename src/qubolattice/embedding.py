"""Minor embeddings: the slot planner behind every constructive chimera
layout, validation, complete-graph embeddings, chain-penalty translation of
logical QUBOs onto lattices, and unembedding.

A minor embedding maps each logical vertex to a chain, a connected set of
lattice vertices; chains are pairwise disjoint, and every logical edge must be
realizable by at least one lattice edge between the two chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .lattice import (
    LatticeGraph,
    LatticeSpec,
    build_lattice,
    chimera_spec,
    detect_chimera,
    lattice_from_doc,
    lattice_to_doc,
)
from .qubo import BINARY, Qubo, doc_int, substitute


class EmbeddingError(ValueError):
    """Embedding construction failed or preconditions were violated."""


@dataclass
class MinorEmbedding:
    """Logical vertex -> physical chain map on a lattice.  It carries no chain
    weight: :func:`embed_qubo` picks one from the objective it embeds.

    An embedding is fixed once built: `chains` is a read-only copy of the map
    it was given, and neither field can be assigned again.  So what is
    derived from them is a plain value: the lattice graph, the sorted chain
    union and the chain walk, trees included, are each computed at most once.
    """

    lattice: LatticeSpec
    chains: Mapping[int, frozenset[int]]

    def __post_init__(self):
        object.__setattr__(self, "chains", MappingProxyType(dict(self.chains)))

    def __setattr__(self, name, value):
        if name in ("lattice", "chains") and name in self.__dict__:
            raise AttributeError(f"an embedding's {name} is fixed once built")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if name in ("lattice", "chains"):
            raise AttributeError(f"an embedding's {name} is fixed once built")
        object.__delattr__(self, name)

    @cached_property
    def graph(self) -> LatticeGraph:
        """The lattice graph, built on first use."""
        return build_lattice(self.lattice)

    @cached_property
    def vertex_order(self) -> list[int]:
        """The sorted union of the chains: one physical variable each."""
        return sorted(set().union(*self.chains.values()))

    @cached_property
    def position_of(self) -> dict[int, int]:
        return {p: k for k, p in enumerate(self.vertex_order)}

    @cached_property
    def _walk(self) -> tuple:
        """``(shared, outside, broken, couplers, trees)`` of the chain walk
        (:func:`_walk_chains`), ``broken`` being the frozenset of chains
        without a tree; read by :func:`validate` and :func:`embed_qubo`."""
        shared, trees, couplers, outside = _walk_chains(self.graph, self.chains)
        broken = frozenset(v for v, tree in trees.items() if tree is None)
        return shared, outside, broken, couplers, trees


class SlotPlanner:
    """Ownership of half-cell slots (cell, side, track) while a chimera layout
    is built; the one place that turns a slot into a lattice vertex or back.

    Claims by two different chains on one slot are construction errors, while
    a chain re-claiming its own slot is a no-op.  Each chain keeps its slots
    in claim order (a dict used as an ordered set), so walking a chain is
    deterministic.
    """

    def __init__(self, J: int):
        self.J = J
        self.claims: dict[tuple[int, int, str, int], Hashable] = {}
        self.chains: dict[Hashable, dict[tuple[int, int, str, int], None]] = {}

    def role(self, side: str, track: int) -> int:
        """Intra-cell vertex index of a slot: track on side s, J + track on r."""
        return track if side == "s" else self.J + track

    def claim(self, cell: tuple[int, int], side: str, track: int, var: Hashable) -> None:
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

    def claim_vertex(
        self, graph: LatticeGraph, p: int, var: Hashable,
        shift: tuple[int, int] = (0, 0), scale: int = 1,
    ) -> None:
        """Claim lattice vertex p's slot in cell scale * cell(p) + shift."""
        i, j, a = graph.cell_of(p)
        side, track = ("s", a) if a < self.J else ("r", a - self.J)
        self.claim((scale * i + shift[0], scale * j + shift[1]), side, track, var)

    def run_horizontal(self, var: Hashable, track: int, row: int, i_from: int, i_to: int) -> None:
        step = 1 if i_to >= i_from else -1
        for i in range(i_from, i_to + step, step):
            self.claim((i, row), "s", track, var)

    def run_vertical(self, var: Hashable, track: int, col: int, j_from: int, j_to: int) -> None:
        step = 1 if j_to >= j_from else -1
        for j in range(j_from, j_to + step, step):
            self.claim((col, j), "r", track, var)

    def arm(
        self, var: Hashable, origin: tuple[int, int], slot: int, axis: str, lo: int, hi: int
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

    def undo_to(self, mark: int) -> None:
        """Drop the claims made since `mark = len(self.claims)`, newest first.

        Claims only grow between a mark and its undo, so this leaves the
        claims, every chain's slot order and the chain order as they were at
        the mark; a chain left empty is dropped.
        """
        while len(self.claims) > mark:
            key, var = self.claims.popitem()
            chain = self.chains[var]
            del chain[key]
            if not chain:
                del self.chains[var]

    def free_tracks(self, cell: tuple[int, int], side: str) -> list[int]:
        """Unclaimed tracks of one side of a cell, in increasing order."""
        return [t for t in range(self.J) if (cell[0], cell[1], side, t) not in self.claims]

    def extent(self) -> tuple[int, int]:
        w = 1 + max((i for (i, _, _, _) in self.claims), default=0)
        h = 1 + max((j for (_, j, _, _) in self.claims), default=0)
        return w, h

    def vertices(self, graph: LatticeGraph, var: Hashable) -> frozenset[int]:
        """Lattice vertices of var's chain."""
        # fill a set in claim order, then freeze it: a frozenset built from a
        # generator can iterate in another order, and documents follow it
        members = set()
        for i, j, side, track in self.chains[var]:
            members.add(graph.vertex(i, j, self.role(side, track)))
        return frozenset(members)

    def to_embedding(self, index_of: Callable[[Hashable], int], L: int | None = None) -> MinorEmbedding:
        """Convert claims into a MinorEmbedding on a square chimera lattice of
        side `L`, by default the claims' extent.

        `index_of` maps a chain's name to its logical variable index.
        """
        w, h = self.extent()
        graph = build_lattice(chimera_spec(self.J, max(w, h) if L is None else L))
        emb = MinorEmbedding(
            graph.spec, {index_of(name): self.vertices(graph, name) for name in self.chains}
        )
        emb.graph = graph  # the chains were read off it: one build per embedding
        return emb


def place_clique_block(
    planner: SlotPlanner, origin: tuple[int, int], names: list[Hashable]
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


@dataclass
class ValidationReport:
    violations: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str) -> None:
        self.violations.append((kind, detail))

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{k}: {d}" for k, d in self.violations)


def _walk_chains(
    graph: LatticeGraph, chains: Mapping[int, frozenset[int]]
) -> tuple[
    list[tuple[int, int, int]],
    dict[int, list[tuple[int, int]] | None],
    dict[tuple[int, int], tuple[int, int]],
    dict[int, list[int]],
]:
    """Walk the lattice neighbours of every in-lattice chain member once.

    Each member's neighbours are read straight off the lattice's shared offset
    table (``LatticeGraph._offsets_at``), unchecked: the walk visits only
    members it has checked lie in the lattice, and their neighbours.

    Returns ``(shared, trees, couplers, outside)``.  ``shared`` lists ``(p,
    first, later)`` for each physical vertex that a later chain reuses.
    ``trees`` maps each chain to the edges of its spanning tree, grown by
    depth-first search from the smallest member with neighbours in increasing
    order, or to None when the chain is empty, leaves the lattice or is
    disconnected.  ``couplers`` maps each pair ``u < v`` of chains joined by a
    lattice edge to the lexicographically smallest such edge ``(p, q)``, ``p <
    q``; it is complete only when ``shared`` is empty, since each vertex has
    one owner.  ``outside`` maps each chain that leaves the lattice to its
    out-of-lattice members in member order; they are skipped, never looked up.
    """
    owner: dict[int, int] = {}
    shared: list[tuple[int, int, int]] = []
    for v, chain in chains.items():
        for p in chain:
            first = owner.setdefault(p, v)
            if first != v:
                shared.append((p, first, v))
    offsets_at = graph._offsets_at
    nv = graph.num_vertices
    trees: dict[int, list[tuple[int, int]] | None] = {}
    couplers: dict[tuple[int, int], tuple[int, int]] = {}
    outside: dict[int, list[int]] = {}

    def visit(v, chain, u, seen, stack, tree):
        for d in offsets_at(u):
            w = u + d
            if w in chain:
                if w not in seen:
                    seen.add(w)
                    tree.append((u, w))
                    stack.append(w)
                continue
            # each cross-chain edge is met from both sides; keep one
            o = owner.get(w)
            if o is not None and o > v:
                pq = (u, w) if u < w else (w, u)
                best = couplers.get((v, o))
                if best is None or pq < best:
                    couplers[(v, o)] = pq

    for v, chain in chains.items():
        tree: list[tuple[int, int]] | None = None
        if chain and min(chain) >= 0 and max(chain) < nv:
            start = min(chain)
            seen = {start}
            stack = [start]
            tree = []
            while stack:
                visit(v, chain, stack.pop(), seen, stack, tree)
            rest: Iterable[int] = chain - seen
            if rest:
                tree = None
        else:
            rest = [p for p in chain if 0 <= p < nv]
            if len(rest) < len(chain):
                outside[v] = [p for p in chain if not 0 <= p < nv]
        for u in rest:
            visit(v, chain, u, {u}, [], [])
        trees[v] = tree
    return shared, trees, couplers, outside


def _touching(graph: LatticeGraph, cu: frozenset[int], cv: frozenset[int]) -> bool:
    """Whether a lattice edge joins two chains, walking the smaller one."""
    small, big = (cu, cv) if len(cu) <= len(cv) else (cv, cu)
    nv = graph.num_vertices
    return any(
        w in big for p in small if 0 <= p < nv for w in graph.sorted_neighbors(p)
    )


def validate(
    emb: MinorEmbedding,
    logical_edges: Iterable[tuple[int, int]],
    logical_vertices: Iterable[int] | None = None,
) -> ValidationReport:
    """Check the three minor-embedding properties; violations become report
    entries with witnesses, never exceptions.  The chains are walked once
    per embedding, shared with :func:`embed_qubo`.
    """
    report = ValidationReport()
    shared, outside, broken, couplers, _ = emb._walk
    vertices = set(logical_vertices) if logical_vertices is not None else set(emb.chains)
    for v in vertices:
        chain = emb.chains.get(v)
        if not chain:
            report.add("missing-chain", f"logical vertex {v} has no chain")
            continue
        bad = outside.get(v)
        if bad:
            report.add("out-of-lattice", f"vertex {v} chain uses {bad}")
            continue
        if v in broken:
            report.add("disconnected-chain", f"vertex {v} chain {sorted(chain)}")
    for p, first, later in shared:
        report.add(
            "overlapping-chains", f"physical vertex {p} shared by {first} and {later}"
        )
    for u, v in logical_edges:
        cu, cv = emb.chains.get(u), emb.chains.get(v)
        if not cu or not cv:
            report.add("unrealizable-edge", f"({u}, {v}): missing chain")
            continue
        if shared or u == v:
            touching = _touching(emb.graph, cu, cv)
        else:
            touching = ((u, v) if u < v else (v, u)) in couplers
        if not touching:
            report.add("unrealizable-edge", f"({u}, {v}): no lattice edge between chains")
    return report


def embed_complete_chimera(N: int, J: int) -> MinorEmbedding:
    """Triangular half-grid embedding of K_N on chimera(J) with L = ceil(N/J).

    Logical i (block b = i // J, track a = i % J) runs horizontally through
    row block b on left-side track a and vertically through column block b on
    the right side, turning at the diagonal cell.  Chains have 2L vertices.
    """
    if N < 1:
        raise EmbeddingError("N must be positive")
    if J < 1:
        raise EmbeddingError("J must be positive")
    planner = SlotPlanner(J)
    place_clique_block(planner, (0, 0), list(range(N)))
    return planner.to_embedding(int)


def choose_alpha(logical: Qubo) -> float:
    """Chain penalty that no single chain member can out-bid.

    Flipping one member of chain v changes the objective by at most the total
    coupling incident to v plus its field; one unit of margin is added.
    """
    total = [0.0] * logical.num_vars
    for v, c in logical.linear.items():
        total[v] = abs(c)
    for (i, j), c in logical.quadratic.items():
        total[i] += abs(c)
        total[j] += abs(c)
    return 1.0 + max(total, default=0.0)


@dataclass
class EmbeddedQubo:
    """A logical objective realized on a lattice through an embedding.

    `physical` ranges over the active lattice vertices only, one variable per
    vertex of the embedding's `vertex_order`, the sorted union of the chains.
    """

    physical: Qubo
    embedding: MinorEmbedding
    logical: Qubo
    placement: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)

    @property
    def vertex_order(self) -> list[int]:
        return self.embedding.vertex_order

    @property
    def position_of(self) -> dict[int, int]:
        return self.embedding.position_of

    def lift(self, logical_assignment: Sequence[int]) -> tuple[int, ...]:
        """Chain-aligned physical assignment for a logical one."""
        self.logical.check_assignment(logical_assignment)
        fill = 0 if self.physical.domain == BINARY else -1
        pos = self.position_of
        out = [fill] * len(pos)
        for v, chain in self.embedding.chains.items():
            for p in chain:
                out[pos[p]] = int(logical_assignment[v])
        return tuple(out)

    def chain_intact_qubo(self) -> Qubo:
        """Exact restriction of the physical objective to aligned chains.

        Substituting every chain member by its logical variable gives a
        logical-space objective whose energies agree with the physical one on
        all chain-intact states.
        """
        pos = self.position_of
        image = {
            pos[p]: (0.0, 1.0, v)
            for v, chain in self.embedding.chains.items()
            for p in chain
        }
        out = Qubo(
            self.physical.domain,
            self.logical.num_vars,
            -0.0,
            var_names=list(self.logical.var_names) if self.logical.var_names else None,
        )
        substitute(self.physical, out, image)
        return out


def embed_qubo(logical: Qubo, emb: MinorEmbedding) -> EmbeddedQubo:
    """Translate a logical objective into a physical lattice objective.

    Linear terms split equally across chain members; each quadratic term is
    placed on the lexicographically smallest available lattice edge between
    the two chains; chain alignment is enforced along a spanning tree of each
    chain with the paper-form penalty of weight ``alpha =
    choose_alpha(logical)``, the same for every chain (counted over ordered
    pairs, so a broken tree edge costs 2 * alpha).  The physical variables
    are the sorted union of the chains, ``vertex_order``.
    """
    *_, couplers, trees = emb._walk
    report = validate(emb, logical.interaction_edges(), range(logical.num_vars))
    if not report.ok:
        raise EmbeddingError(f"embedding invalid: {report.summary()}")

    order, pos = emb.vertex_order, emb.position_of
    physical = Qubo(
        logical.domain,
        len(order),
        logical.offset,
        var_names=[str(p) for p in order],
    )
    for v, c in logical.linear.items():
        chain = emb.chains[v]
        share = c / len(chain)
        for p in chain:
            physical.add_linear(pos[p], share)

    placement: dict[tuple[int, int], tuple[int, int]] = {}
    for (u, v), c in sorted(logical.quadratic.items()):
        if (u, v) not in couplers:
            raise EmbeddingError(f"no physical edge available for logical edge ({u}, {v})")
        p, q = couplers[(u, v)]
        physical.add_quadratic(pos[p], pos[q], c)
        placement[(u, v)] = (p, q)

    alpha = choose_alpha(logical)
    for v, chain in emb.chains.items():
        tree = trees[v]
        if tree is None:
            raise EmbeddingError(f"chain {sorted(chain)} is not connected")
        for p, q in tree:
            kp, kq = pos[p], pos[q]
            if logical.domain == BINARY:
                # ordered-pair sum of x_i(1-x_j) + x_j(1-x_i)
                physical.add_linear(kp, 2.0 * alpha)
                physical.add_linear(kq, 2.0 * alpha)
                physical.add_quadratic(kp, kq, -4.0 * alpha)
            else:
                physical.add_offset(alpha)
                physical.add_quadratic(kp, kq, -alpha)
    return EmbeddedQubo(physical, emb, logical, placement)


def unembed(
    e: EmbeddedQubo, physical_assignment: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """Majority-vote chain decoding.

    Exact ties break toward 0 (spin -1); the second result counts chains whose
    members disagreed.
    """
    e.physical.check_assignment(physical_assignment)
    low = 0 if e.physical.domain == BINARY else -1
    high = 1
    logical = [low] * e.logical.num_vars
    broken = 0
    pos = e.position_of
    for v, chain in e.embedding.chains.items():
        values = [physical_assignment[pos[p]] for p in chain]
        ups = sum(1 for x in values if x == high)
        downs = len(values) - ups
        logical[v] = high if ups > downs else low
        if 0 < ups < len(values):
            broken += 1
    return tuple(logical), broken


def embedding_to_doc(emb: MinorEmbedding, logical_names: Sequence[str]) -> dict:
    """Document form: the lattice and each chain keyed by its logical
    variable's name.  No chain weight is written; the physical objective
    beside it holds the chain terms."""
    J = detect_chimera(emb.lattice)
    hint = ("chimera", J) if J is not None and emb.lattice.width == emb.lattice.height else None
    return {
        "lattice": lattice_to_doc(emb.lattice, hint),
        "chains": {logical_names[v]: sorted(chain) for v, chain in emb.chains.items()},
    }


def embedding_from_doc(doc: Mapping, logical_names: Sequence[str]) -> MinorEmbedding:
    """Inverse of :func:`embedding_to_doc`; other keys, such as the ``alpha``
    that older documents carry, are ignored."""
    spec = lattice_from_doc(doc["lattice"])
    name_to_index = {n: i for i, n in enumerate(logical_names)}
    chains = {
        name_to_index[name]: frozenset(doc_int(p) for p in members)
        for name, members in doc["chains"].items()
    }
    return MinorEmbedding(spec, chains)
