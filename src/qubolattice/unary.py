"""One-hot (unary) constraints as binary merge trees, and their fractal
lattice embeddings.

The naive quadratic form of "exactly one of N bits" couples all pairs.  A
binary tree of pairwise-sum ancillas makes the interaction graph a tree with
O(N) edges; each internal merge can then be realized inside a K_{2,2} block of
a cell by a four-spin gadget, and the whole tree packs into a lattice whose
side grows like sqrt(N) through an H-tree style recursion (side doubles, plus
one corridor row, every time the leaf count quadruples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .embedding import EmbeddedQubo, EmbeddingError, SlotPlanner, embed_qubo
from .qubo import BINARY, SPIN, Qubo, QuboBuilder


class UnaryError(ValueError):
    """Invalid unary-constraint parameter."""


@dataclass(frozen=True)
class UnaryInstance:
    """An "exactly one of n bits" constraint; `allow_zero` also admits none."""

    n: int
    allow_zero: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise UnaryError("unary constraint needs at least 2 bits")


# ---------------------------------------------------------------------------
# merge trees


@dataclass
class MergeTree:
    """Binary tree of pairwise sums underneath a one-hot root constraint."""

    children: dict[str, tuple[str, str]]
    root_children: tuple[str, str]
    leaves: list[str]
    real_leaves: list[str]
    slack: str | None = None
    gadgets: list[tuple[str, str, str, str]] = field(default_factory=list)

    @property
    def pad_leaves(self) -> list[str]:
        real = set(self.real_leaves)
        return [x for x in self.leaves if x not in real]

    def subtree_totals(self, hot_leaf: str | None) -> dict[str, int]:
        """Bit values of every node for a one-hot (or all-zero) pattern."""
        values: dict[str, int] = {leaf: 0 for leaf in self.leaves}
        if hot_leaf is not None:
            values[hot_leaf] = 1

        def total(name: str) -> int:
            if name not in values:
                a, b = self.children[name]
                values[name] = total(a) + total(b)
            return values[name]

        t = total(self.root_children[0]) + total(self.root_children[1])
        if self.slack is not None:
            values[self.slack] = t
        return values


def _complete_merge_tree(N: int, allow_zero: bool = False) -> MergeTree:
    """Pairwise merge tree over leaves x1..x{2^ceil(log2 N)}.

    Subtrees made entirely of padding are dropped (single-child merges
    collapse onto the surviving child); a padding leaf survives only when its
    sibling leaf is real, which keeps the edge count at most 3N.
    """
    n = max(1, math.ceil(math.log2(N)))
    children: dict[str, tuple[str, str]] = {}
    leaves: list[str] = []
    counter = [0]

    def rec(lo: int, hi: int) -> str | None:
        if lo > N:
            return None
        if hi - lo == 1:
            a, b = f"x{lo}", f"x{hi}"
            leaves.extend([a, b])
            counter[0] += 1
            node = f"y{counter[0]}"
            children[node] = (a, b)
            return node
        mid = (lo + hi) // 2
        left = rec(lo, mid)
        right = rec(mid + 1, hi)
        if right is None:
            return left
        counter[0] += 1
        node = f"y{counter[0]}"
        children[node] = (left, right)
        return node

    top = rec(1, 1 << n)
    assert top is not None and top in children
    root_children = children.pop(top)
    real = [f"x{k}" for k in range(1, N + 1)]
    return MergeTree(children, root_children, leaves, real, "y0" if allow_zero else None)


@dataclass
class UnaryTreeQubo:
    """Binary QUBO whose zero-energy states are exactly the one-hot patterns."""

    N: int
    qubo: Qubo
    tree: MergeTree

    def edge_count(self) -> int:
        return len(self.qubo.interaction_edges())

    def vertex_count(self) -> int:
        return self.qubo.num_vars


def build_unary_qubo(N: int, allow_zero: bool = False) -> UnaryTreeQubo:
    """Tree QUBO for "exactly one of x1..xN is 1".

    Every internal merge contributes (y - a - b)^2; the root contributes
    (1 - c1 - c2)^2, or (y0 - c1 - c2)^2 with a slack bit when a zero total is
    allowed; padding leaves carry a unit linear penalty.
    """
    UnaryInstance(N, allow_zero)  # refuses N below 2
    tree = _complete_merge_tree(N, allow_zero)
    builder = QuboBuilder(BINARY)
    for name in tree.leaves:
        builder.var(name)
    for node, (a, b) in tree.children.items():
        builder.add_squared_affine(0.0, [(node, 1.0), (a, -1.0), (b, -1.0)])
    c1, c2 = tree.root_children
    if tree.slack is not None:
        builder.add_squared_affine(0.0, [(tree.slack, 1.0), (c1, -1.0), (c2, -1.0)])
    else:
        builder.add_squared_affine(1.0, [(c1, -1.0), (c2, -1.0)])
    for pad in tree.pad_leaves:
        builder.add_linear(pad, 1.0)
    return UnaryTreeQubo(N, builder.build(), tree)


def one_hot_ground_states(ut: UnaryTreeQubo) -> set[tuple[int, ...]]:
    """Independent oracle: enumerate the expected zero-energy assignments."""
    out: set[tuple[int, ...]] = set()
    hot_options: list[str | None] = [f"x{k}" for k in range(1, ut.N + 1)]
    if ut.tree.slack is not None:
        hot_options.append(None)
    for hot in hot_options:
        values = ut.tree.subtree_totals(hot)
        out.add(tuple(values[ut.qubo.name_of(i)] for i in range(ut.qubo.num_vars)))
    return out


# ---------------------------------------------------------------------------
# the K_{2,2} spin gadget


def k22_gadget(z: str, x: str, y: str, w: str) -> Qubo:
    """Spin objective on one K_{2,2} block reproducing the merge z = x + y.

    With z, w on one side and x, y on the other, the couplings z-x, z-y, w-x,
    w-y all fit on K_{2,2} edges.  The minimum-energy projections onto
    (z, x, y) coincide with the minimizers of (s_z - s_x - s_y - 1)^2; the
    offset between the two objectives is a constant -3.
    """
    if len({z, x, y, w}) != 4:
        raise UnaryError("gadget needs four distinct spins")
    b = QuboBuilder(SPIN)
    for name in (z, x, y, w):
        b.var(name)
    _add_gadget(b, z, x, y, w)
    b.add_offset(-3.0)
    return b.build()


def _add_gadget(builder: QuboBuilder, z: str, x: str, y: str, w: str) -> None:
    # the k22_gadget terms, shifted so a satisfied merge contributes 0
    builder.add_offset(3.0)
    builder.add_linear(x, 1.0)
    builder.add_linear(y, 1.0)
    builder.add_linear(z, -1.0)
    builder.add_quadratic(z, x, -1.0)
    builder.add_quadratic(z, y, -1.0)
    builder.add_quadratic(w, x, 1.0)
    builder.add_quadratic(w, y, -1.0)


def _add_bit_constraint(
    builder: QuboBuilder, const_bits: float, spins: list[tuple[str, float]]
) -> None:
    """(const_bits + sum coeff * bit)^2 over spin variables, bit = (1+s)/2."""
    const = const_bits + sum(c / 2.0 for _, c in spins)
    builder.add_squared_affine(const, [(name, c / 2.0) for name, c in spins])


def _add_pad_penalty(builder: QuboBuilder, name: str) -> None:
    builder.add_offset(0.5)
    builder.add_linear(name, 0.5)


# ---------------------------------------------------------------------------
# size predictions


def predicted_unary_length(N: int, J: int, optimized: bool = False) -> float:
    """Closed-form side-length prediction for the fractal unary embedding.

    Unoptimized: L = 2 sqrt(N / J) - 1.  Optimized: the joint recursion
    L <- 2L + 1, N <- 4N + (J - 2) L from (L, N) = (1, J), inverted by
    square-root interpolation between levels; for large N it approaches
    sqrt(12 N / (5 J - 4)).
    """
    if N < 1 or J < 1:
        raise UnaryError("N and J must be positive")
    if not optimized:
        return 2.0 * math.sqrt(N / J) - 1.0
    L, Nm = 1.0, float(J)
    while Nm < N:
        L, Nm = 2 * L + 1, 4 * Nm + (J - 2) * L
    if Nm == N:
        return L
    return L * math.sqrt(N / Nm)


# ---------------------------------------------------------------------------
# fractal layout engine


@dataclass(frozen=True)
class _Frame:
    """Affine placement of a block's local cell coordinates on the lattice."""

    base_i: int
    step_i: int
    base_j: int
    step_j: int

    def cell(self, i: int, j: int) -> tuple[int, int]:
        return self.base_i + self.step_i * i, self.base_j + self.step_j * j

    def sub(self, oi: int, oj: int, size: int, fx: bool, fy: bool) -> "_Frame":
        bi = self.base_i + self.step_i * (oi + size - 1 if fx else oi)
        bj = self.base_j + self.step_j * (oj + size - 1 if fy else oj)
        return _Frame(
            bi, self.step_i * (-1 if fx else 1), bj, self.step_j * (-1 if fy else 1)
        )


_ROOT_FRAME = _Frame(0, 1, 0, 1)


@dataclass
class FractalLayout:
    """A fractal unary embedding with its sizes and merge tree; the chains of
    `embedded` are the only record of where each leaf and gadget sits."""

    N_star: int
    L: int
    J: int
    N: int
    embedded: EmbeddedQubo
    tree: MergeTree
    added_bits: int = 0
    notes: list[str] = field(default_factory=list)


class _FractalBuilder(SlotPlanner):
    """Claims lattice half-cell slots for chains and merge gadgets."""

    def __init__(self, J: int):
        if J < 2:
            raise EmbeddingError("fractal embedding needs K_{2,2} blocks, J >= 2")
        super().__init__(J)
        self.per_cell = 4 if J >= 4 else 2
        self.leaves: list[str] = []
        self.gadgets: list[tuple[str, str, str, str]] = []
        self._node_counter = 0
        self._leaf_counter = 0

    # gadget bookkeeping -----------------------------------------------------

    def new_node(self, prefix: str = "m") -> str:
        self._node_counter += 1
        return f"{prefix}{self._node_counter}"

    def new_leaf(self) -> str:
        self._leaf_counter += 1
        name = f"x{self._leaf_counter}"
        self.leaves.append(name)
        return name

    def gadget(
        self, cell: tuple[int, int], side: str, z_track: int, w_track: int,
        x: str, y: str, z: str | None = None,
    ) -> str:
        """Place the merge z = x + y as a K_{2,2} gadget and return z.

        z and its ancilla w take `z_track` and `w_track` on `side` of `cell`,
        across from x and y; a new merge node is named unless `z` is given.
        """
        if z is None:
            z = self.new_node()
        w = self.new_node("w")
        self.claim(cell, side, z_track, z)
        self.claim(cell, side, w_track, w)
        self.gadgets.append((z, x, y, w))
        return z

    # cell recipes -------------------------------------------------------------

    def leaf_cell(
        self, cell: tuple[int, int], export_tracks: tuple[int, ...]
    ) -> list[tuple[str, int]]:
        """Fill one cell with leaves plus their in-cell pair merges.

        Returns (name, r-track) for each exported pair sum; the partner track
        inside each {0,1} / {2,3} pair hosts the gadget ancilla.
        """
        exports: list[tuple[str, int]] = []
        for idx in range(self.per_cell // 2):
            a, b = self.new_leaf(), self.new_leaf()
            self.claim(cell, "s", 2 * idx, a)
            self.claim(cell, "s", 2 * idx + 1, b)
            t = export_tracks[idx]
            exports.append((self.gadget(cell, "r", t, t ^ 1, a, b), t))
        return exports

    def single_cell(self, N: int) -> tuple[str, str]:
        """Top-level layout for N <= leaves-per-cell; returns root children."""
        cell = (0, 0)
        if N == 2:
            a, b = self.new_leaf(), self.new_leaf()
            self.claim(cell, "s", 0, a)
            self.claim(cell, "r", 0, b)
            return a, b
        a, b = self.new_leaf(), self.new_leaf()
        self.claim(cell, "r", 0, a)
        self.claim(cell, "r", 1, b)
        y1 = self.gadget(cell, "s", 0, 1, a, b)
        if N == 3:
            c = self.new_leaf()
            self.claim(cell, "r", 2, c)
            return y1, c
        c, d = self.new_leaf(), self.new_leaf()
        self.claim(cell, "s", 2, c)
        self.claim(cell, "s", 3, d)
        return y1, self.gadget(cell, "r", 2, 3, c, d)

    # recursive blocks ---------------------------------------------------------

    def block(self, m: int, frame: _Frame, export_track: int | None):
        """H-tree block of 4^(m-1) leaf cells on side 2^m - 1.

        With `export_track` set, returns the root node name; its chain ends on
        that r track of the bottom-middle cell ready to continue downward.
        Top-level calls (export_track None) return the two root children.
        A one-cell block is a two-leaf cell exporting its pair sum (J in
        {2, 3}); K_{4,4} recursions stop at the packed side-3 block.
        """
        if m == 1:
            return self.leaf_cell(frame.cell(0, 0), (export_track,))[0][0]
        if m == 2 and self.per_cell == 4:
            return self._block2(frame, export_track)
        L_sub = (1 << (m - 1)) - 1
        mid_sub = (L_sub - 1) // 2
        t_down, t_up = (1, 3) if self.per_cell == 4 else (0, 1)
        quads = [
            (0, 0, False, False, t_down),
            (0, L_sub + 1, False, True, t_up),
            (L_sub + 1, 0, True, False, t_down),
            (L_sub + 1, L_sub + 1, True, True, t_up),
        ]
        roots: list[tuple[str, int]] = []
        for oi, oj, fx, fy, track in quads:
            sub = frame.sub(oi, oj, L_sub, fx, fy)
            roots.append((self.block(m - 1, sub, track), track))
        corridor_j = L_sub
        left_cell = frame.cell(mid_sub, corridor_j)
        right_cell = frame.cell(L_sub + 1 + mid_sub, corridor_j)
        center = frame.cell(L_sub, corridor_j)
        for (name, track), cell in zip(
            roots, (left_cell, left_cell, right_cell, right_cell)
        ):
            self.claim(cell, "r", track, name)
        s_zl, s_wl = 0, 1
        s_zr, s_wr = (2, 3) if self.per_cell == 4 else (1, 0)
        zl = self.gadget(left_cell, "s", s_zl, s_wl, roots[0][0], roots[1][0])
        zr = self.gadget(right_cell, "s", s_zr, s_wr, roots[2][0], roots[3][0])
        for i in range(mid_sub + 1, L_sub + 1):
            self.claim(frame.cell(i, corridor_j), "s", s_zl, zl)
        for i in range(L_sub + mid_sub, L_sub - 1, -1):
            self.claim(frame.cell(i, corridor_j), "s", s_zr, zr)
        if export_track is None:
            self.claim(center, "r", 0, zl)
            return zl, zr
        w_track = export_track ^ (2 if self.per_cell == 4 else 1)
        root = self.gadget(center, "r", export_track, w_track, zl, zr)
        L_here = (1 << m) - 1
        for j in range(corridor_j + 1, L_here):
            self.claim(frame.cell(L_sub, j), "r", export_track, root)
        return root

    def _block2(self, frame: _Frame, export_track: int | None):
        """Side-3 block of four full K_{4,4} leaf cells."""
        exports = [
            self.leaf_cell(frame.cell(0, 0), (0, 2)),
            self.leaf_cell(frame.cell(0, 2), (1, 3)),
            self.leaf_cell(frame.cell(2, 0), (0, 2)),
            self.leaf_cell(frame.cell(2, 2), (1, 3)),
        ]
        left_cell, right_cell = frame.cell(0, 1), frame.cell(2, 1)
        center, root_cell = frame.cell(1, 1), frame.cell(1, 2)
        for pair, cell in zip(exports, (left_cell, left_cell, right_cell, right_cell)):
            for name, track in pair:
                self.claim(cell, "r", track, name)
        cell_sums = [
            (self.gadget(cell, "s", s_z, s_w, pair[0][0], pair[1][0]), s_z)
            for pair, cell, s_z, s_w in (
                (exports[0], left_cell, 0, 1),
                (exports[1], left_cell, 2, 3),
                (exports[2], right_cell, 1, 0),
                (exports[3], right_cell, 3, 2),
            )
        ]
        for z, track in cell_sums:
            self.claim(center, "s", track, z)
        zl = self.gadget(center, "r", 0, 1, cell_sums[0][0], cell_sums[1][0])
        zr = self.gadget(center, "r", 2, 3, cell_sums[2][0], cell_sums[3][0])
        self.claim(root_cell, "r", 0, zl)
        self.claim(root_cell, "r", 2, zr)
        if export_track is None:
            self.claim(root_cell, "s", 0, zl)
            return zl, zr
        root = self.gadget(root_cell, "s", 0, 1, zl, zr)
        self.claim(root_cell, "r", export_track, root)
        return root


def _build_gadget_qubo(
    gadgets: list[tuple[str, str, str, str]],
    root_children: tuple[str, str],
    leaves: list[str],
    real_count: int,
) -> tuple[Qubo, MergeTree]:
    b = QuboBuilder(SPIN)
    for leaf in leaves:
        b.var(leaf)
    children: dict[str, tuple[str, str]] = {}
    for z, x, y, w in gadgets:
        _add_gadget(b, z, x, y, w)
        children[z] = (x, y)
    _add_bit_constraint(b, 1.0, [(root_children[0], -1.0), (root_children[1], -1.0)])
    for pad in leaves[real_count:]:
        _add_pad_penalty(b, pad)
    tree = MergeTree(
        children, root_children, list(leaves), list(leaves[:real_count]), gadgets=list(gadgets)
    )
    return b.build(), tree


def _finish(
    builder: _FractalBuilder,
    root_children: tuple[str, str],
    dropped: set[str],
    pads: list[str],
    L: int,
    N_star: int,
    notes: list[str],
    added_bits: int = 0,
) -> FractalLayout:
    """The layout of the builder's merges, embedded on its claimed chains.

    The real leaves are the builder's leaves outside `dropped`, in builder
    order; `pads` follow them.
    """
    real = [x for x in builder.leaves if x not in dropped]
    logical, tree = _build_gadget_qubo(builder.gadgets, root_children, real + pads, len(real))
    emb = builder.to_embedding(logical.index_of, L=L)
    return FractalLayout(
        N_star=N_star, L=L, J=builder.J, N=len(real), embedded=embed_qubo(logical, emb),
        tree=tree, added_bits=added_bits, notes=notes,
    )


def fractal_embed_unary(N: int, J: int = 4) -> tuple[EmbeddedQubo, FractalLayout]:
    """Lay the gadgetized unary tree into a chimera(J) lattice.

    Leaves pack four per cell for J >= 4 (two for J in {2, 3}); merges occupy
    K_{2,2} blocks; the recursion quadruples the leaf-cell count while the
    side goes L -> 2L + 1.  For K_{4,4} and N an even power of two this gives
    L = sqrt(N) - 1.
    """
    UnaryInstance(N)  # refuses N below 2
    builder = _FractalBuilder(J)
    if N <= builder.per_cell:
        root_children, L, n_star = builder.single_cell(N), 1, 1
    else:
        m = 2
        while builder.per_cell * 4 ** (m - 1) < N:
            m += 1
        root_children, L, n_star = builder.block(m, _ROOT_FRAME, None), (1 << m) - 1, 4 ** (m - 1)
    pads = builder.leaves[N:]
    notes = [f"capacity {len(builder.leaves)} leaf slots, {len(pads)} padding"]
    layout = _finish(builder, root_children, set(pads), pads, L, n_star, notes)
    return layout.embedded, layout


def _lift_gadgets(
    embedded: EmbeddedQubo, gadgets: list[tuple[str, str, str, str]], bits: dict[str, int]
) -> tuple[int, ...]:
    """Chain-aligned physical spin state for logical bit values.

    The ancilla w of each merge (z, x, y, w) takes its energy-minimizing sign:
    +1 when bit(x) < bit(y), -1 otherwise (the free direction when they agree).
    """
    w_value = {w: 1 if bits[x] < bits[y] else -1 for _, x, y, w in gadgets}
    names = map(embedded.logical.name_of, range(embedded.logical.num_vars))
    return embedded.lift([w_value[n] if n in w_value else 2 * bits[n] - 1 for n in names])


def lift_one_hot(
    embedded: EmbeddedQubo, tree: MergeTree, hot_leaf: str | None
) -> tuple[int, ...]:
    """Chain-aligned physical spin state for a one-hot (or all-zero) pattern.

    Gadget ancillas take their energy-minimizing sign (`_lift_gadgets`).
    """
    return _lift_gadgets(embedded, tree.gadgets, tree.subtree_totals(hot_leaf))


# ---------------------------------------------------------------------------
# fill-in optimization


def fill_tree_optimize(layout: FractalLayout) -> FractalLayout:
    """Grow extra leaf branches into unused cells next to leaf cells.

    A full free cell horizontally adjacent to a leaf cell turns one existing
    leaf into the sum of J - 1 new leaves (net J - 2 extra constrained bits);
    cells with partial capacity host a two-leaf branch (net +1).  K_{2,2}
    cells gain nothing (J - 2 = 0), matching the size recursion
    N -> 4N + (J - 2) L.  Returns a rebuilt layout; if no adjacent capacity
    exists the original layout is returned with a note.
    """
    if layout.J < 4:
        note = "no fill possible: J - 2 branch gain is zero"
        return replace(layout, added_bits=0, notes=[*layout.notes, note])

    # rebuild the raw claim table from the embedding
    builder = _rebuilder_from(layout)

    # every real leaf holds one slot (i, j, side, track); s-side leaves can
    # branch, so group those by cell as sorted (track, leaf)
    by_cell: dict[tuple[int, int], list[tuple[int, str]]] = {}
    for x in layout.tree.real_leaves:
        i, j, side, track = next(iter(builder.chains[x]))
        if side == "s":
            by_cell.setdefault((i, j), []).append((track, x))
    replaced: list[str] = []
    added = 0
    for cell in sorted(by_cell):
        candidates = sorted(by_cell[cell])
        for di in (-1, 1):
            fcell = (cell[0] + di, cell[1])
            if not 0 <= fcell[0] < layout.L:
                continue
            free_s, free_r = builder.free_tracks(fcell, "s"), builder.free_tracks(fcell, "r")
            for track, leaf in list(candidates):
                if len(free_s) < 2 or len(free_r) < 2:
                    break
                if track not in free_s:
                    continue
                added += len(_branch(builder, leaf, fcell, track, free_s, free_r)) - 1
                replaced.append(leaf)
                candidates.remove((track, leaf))
                free_s, free_r = builder.free_tracks(fcell, "s"), builder.free_tracks(fcell, "r")
    if not replaced:
        note = "no free adjacent cells: layout unchanged"
        return replace(layout, added_bits=0, notes=[*layout.notes, note])
    pads = layout.tree.pad_leaves
    notes = [*layout.notes, f"{len(replaced)} branches, +{added} bits"]
    return _finish(
        builder, layout.tree.root_children, {*replaced, *pads}, pads, layout.L, layout.N_star,
        notes, added,
    )


def _rebuilder_from(layout: FractalLayout) -> _FractalBuilder:
    builder = _FractalBuilder(layout.J)
    emb = layout.embedded.embedding
    logical = layout.embedded.logical
    for idx, chain in emb.chains.items():
        name = logical.name_of(idx)
        for p in chain:
            builder.claim_vertex(emb.graph, p, name)
    builder.leaves = list(layout.tree.leaves)
    builder.gadgets = list(layout.tree.gadgets)

    def numbers(prefixes: str) -> list[int]:
        return [int(n[1:]) for n in builder.chains if n[0] in prefixes and n[1:].isdigit()]

    # fill nodes continue past every existing m/w node number (at least 1000),
    # and new leaves past every x leaf, including leaves an earlier fill replaced
    builder._node_counter = max([1000] + numbers("mw"))
    builder._leaf_counter = max(numbers("x"))
    return builder


def _branch(
    builder: _FractalBuilder,
    leaf: str,
    fcell: tuple[int, int],
    track: int,
    free_s: list[int],
    free_r: list[int],
) -> list[str]:
    """Replace `leaf` by a sum of new leaves hosted in fcell.

    With four free s and three free r tracks, leaf = (u + v) + p; otherwise
    leaf = u + v.  Returns the new leaves.
    """
    s_left = [t for t in free_s if t != track]
    if len(free_s) >= 4 and len(free_r) >= 3:
        new = [builder.new_leaf(), builder.new_leaf(), builder.new_leaf()]
        builder.claim(fcell, "s", s_left[1], new[0])
        builder.claim(fcell, "s", s_left[2], new[1])
        builder.claim(fcell, "r", free_r[2], new[2])
        x = builder.gadget(fcell, "r", free_r[0], free_r[1], new[0], new[1])
    else:
        new = [builder.new_leaf(), builder.new_leaf()]
        builder.claim(fcell, "r", free_r[0], new[0])
        builder.claim(fcell, "r", free_r[1], new[1])
        x = new[0]
    builder.gadget(fcell, "s", track, s_left[0], x, new[-1], z=leaf)
    return new
