"""Hamiltonian cycles three ways: the intersecting-cliques objective, its
treelike permutation-constraint embedding, and a tileable per-vertex encoding.

The tileable form gives every vertex a block of bits: a position one-hot
x_{v,j}, one successor-selector bit per incident edge, per-position selector
bits, and a three-bit product gadget tying a selector to "v sits at j and u
at j+1".  Only neighboring blocks interact, so the whole thing stitches onto
a tile plan of the input graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .embedding import EmbeddedQubo, EmbeddingError, SlotPlanner, embed_complete_chimera, embed_qubo
from .qubo import BINARY, SPIN, Qubo, QuboBuilder
from .tiling import (
    TilePlan, TilingError, _edge_tile_pairs, _plan, _vertex_count, route_graph_to_tiles,
)
from .unary import _add_bit_constraint, _add_gadget, _lift_gadgets


class HamcycleError(ValueError):
    """Invalid instance or unsupported size."""


@dataclass(frozen=True)
class HamcycleInstance:
    """A graph with n >= 3 vertices; a graph `tiling._vertex_count` refuses
    raises `HamcycleError`."""

    edges: tuple[tuple[int, int], ...]
    num_vertices: int | None = None
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _vertex_count(self.edges, self.num_vertices, 3, HamcycleError))

    def neighbors(self, v: int) -> list[int]:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return sorted(out)


# ---------------------------------------------------------------------------
# intersecting cliques


@dataclass
class ICQubo:
    """Position-matrix objective; position indices wrap modulo N."""

    qubo: Qubo


def build_ic_qubo(inst: HamcycleInstance) -> ICQubo:
    """Permutation one-hots plus penalties on non-edges between consecutive
    positions; ordered non-adjacent pairs each contribute once."""
    n = inst.n
    builder = QuboBuilder(BINARY)
    for v in range(n):
        for j in range(n):
            builder.var(f"x:{v}:{j}")
    for v in range(n):
        builder.add_squared_affine(1.0, [(f"x:{v}:{j}", -1.0) for j in range(n)])
    for j in range(n):
        builder.add_squared_affine(1.0, [(f"x:{v}:{j}", -1.0) for v in range(n)])
    edge_set = {frozenset(e) for e in inst.edges}
    for u in range(n):
        for v in range(n):
            if u == v or frozenset((u, v)) in edge_set:
                continue
            for j in range(n):
                builder.add_quadratic(f"x:{u}:{j}", f"x:{v}:{(j + 1) % n}", 1.0)
    return ICQubo(builder.build())


def decode_cycle(solution, inst: HamcycleInstance, roles: dict[str, int] | None = None) -> dict:
    """Read the position matrix; verify bijectivity and edge existence.

    Failures are results with a named first violation, not exceptions.  With
    no role map, positions are assumed at indices v * n + j (the compilers'
    natural variable order).
    """
    n = inst.n
    if roles is None:
        roles = {f"x:{v}:{j}": v * n + j for v in range(n) for j in range(n)}
    position_of: dict[int, int] = {}
    for v in range(n):
        hot = [j for j in range(n) if solution[roles[f"x:{v}:{j}"]] == 1]
        if len(hot) != 1:
            return {"ok": False, "reason": f"vertex {v} has {len(hot)} positions"}
        position_of[v] = hot[0]
    if len(set(position_of.values())) != n:
        return {"ok": False, "reason": "positions are not a bijection"}
    order: list[int] = [0] * n
    for v, j in position_of.items():
        order[j] = v
    edge_set = {frozenset(e) for e in inst.edges}
    for j in range(n):
        u, v = order[j], order[(j + 1) % n]
        if frozenset((u, v)) not in edge_set:
            return {"ok": False, "reason": f"missing edge ({u}, {v})"}
    return {"ok": True, "cycle": order}


# ---------------------------------------------------------------------------
# treelike permutation embedding


def predicted_permutation_length(N: int, strategy: str = "tree") -> float:
    """Side-length estimates for the permutation constraint on N objects."""
    if strategy == "tree":
        return N / 2.0 * (2.0 * math.sqrt(N) - 1.0)
    if strategy == "complete":
        return N * N / 4.0
    raise HamcycleError(f"unknown strategy {strategy!r}")


def build_permutation_qubo(n: int) -> Qubo:
    """Spin objective whose zero-energy states are the n x n permutations.

    Row one-hots stay pairwise (they live inside one clique cell); column
    one-hots split through merge gadgets so all couplings fit cell edges.
    """
    if n not in (2, 4):
        raise HamcycleError(
            "constructed permutation trees cover N in {2, 4}; predicted tree "
            f"side for N={n} is {predicted_permutation_length(n):.0f}"
        )
    b = QuboBuilder(SPIN)
    for v in range(n):
        for j in range(n):
            b.var(f"x:{v}:{j}")
    for v in range(n):
        _add_bit_constraint(b, 1.0, [(f"x:{v}:{j}", -1.0) for j in range(n)])
    if n == 2:
        for j in range(n):
            _add_bit_constraint(b, 1.0, [(f"x:{v}:{j}", -1.0) for v in range(n)])
        return b.build()
    for j in range(n):
        _add_gadget(b, f"zl:{j}", f"x:0:{j}", f"x:1:{j}", f"wl:{j}")
        _add_gadget(b, f"zr:{j}", f"x:2:{j}", f"x:3:{j}", f"wr:{j}")
        _add_bit_constraint(b, 1.0, [(f"zl:{j}", -1.0), (f"zr:{j}", -1.0)])
    return b.build()


def embed_permutation_tree(N: int) -> EmbeddedQubo:
    """Thread N per-position merge trees through a lattice of K_{4,4} cells.

    Constructed for N = 4 (and the trivial N = 2): the four vertex blocks
    occupy the lattice corners, position values descend into mid-edge merge
    cells, and the per-position root links join in the center, realizing the
    (N/2)(2 sqrt(N) - 1) = 6 side length.
    """
    logical = build_permutation_qubo(N)
    if N == 2:
        return embed_qubo(logical, embed_complete_chimera(4, 4))
    planner = SlotPlanner(4)
    _permutation_layout_4(planner)
    return embed_qubo(logical, planner.to_embedding(logical.index_of, L=6))


def _permutation_layout_4(p: SlotPlanner) -> None:
    # corner cliques: x:{v}:{j} occupies s_j plus r_{sigma(j)} of its cell
    corners = {0: (0, 0), 1: (0, 5), 2: (5, 0), 3: (5, 5)}
    sigma = {0: (0, 1, 2, 3), 1: (2, 3, 0, 1), 2: (0, 1, 2, 3), 3: (2, 3, 0, 1)}
    inner_col = {0: 1, 5: 4}
    merge_row = {0: 2, 1: 3, 2: 2, 3: 3}
    for v, (ci, cj) in corners.items():
        for j in range(4):
            p.claim((ci, cj), "s", j, f"x:{v}:{j}")
            p.claim((ci, cj), "r", sigma[v][j], f"x:{v}:{j}")
        step = -1 if cj == 5 else 1
        for j in range(4):
            track = sigma[v][j]
            col = ci if j < 2 else inner_col[ci]
            if j >= 2:
                # hop through the inner column of the corner tile
                p.claim((col, cj), "s", j, f"x:{v}:{j}")
                p.claim((col, cj), "r", track, f"x:{v}:{j}")
            p.run_vertical(f"x:{v}:{j}", track, col, cj + step, merge_row[j])
    # merge cells: (z, w) side assignments keep the rightward runs disjoint
    left_merges = {0: ((0, 2), 0, 1), 1: ((0, 3), 0, 1), 2: ((1, 2), 1, 2), 3: ((1, 3), 1, 2)}
    right_merges = {0: ((5, 2), 2, 3), 1: ((5, 3), 2, 3), 2: ((4, 2), 3, 0), 3: ((4, 3), 3, 0)}
    for j, (cell, s_z, s_w) in left_merges.items():
        p.claim(cell, "s", s_z, f"zl:{j}")
        p.claim(cell, "s", s_w, f"wl:{j}")
        p.run_horizontal(f"zl:{j}", s_z, cell[1], cell[0] + 1, 2 if j in (0, 1) else 3)
    for j, (cell, s_z, s_w) in right_merges.items():
        p.claim(cell, "s", s_z, f"zr:{j}")
        p.claim(cell, "s", s_w, f"wr:{j}")
        p.run_horizontal(f"zr:{j}", s_z, cell[1], cell[0] - 1, 2 if j in (0, 1) else 3)
    # root-link hops: one intra-cell edge realizes each (1 - zl - zr)^2 pair
    p.claim((2, 2), "r", 0, "zl:0")
    p.claim((2, 3), "r", 0, "zl:1")
    p.claim((3, 2), "r", 1, "zl:2")
    p.claim((3, 3), "r", 1, "zl:3")


def lift_permutation(e: EmbeddedQubo, perm: tuple[int, ...]) -> tuple[int, ...]:
    """Chain-aligned physical state for x[v][j] = 1 iff perm[v] == j."""
    n = len(perm)
    bits = {f"x:{v}:{j}": int(perm[v] == j) for v in range(n) for j in range(n)}
    gadgets = [
        (f"z{side}:{j}", f"x:{v}:{j}", f"x:{v + 1}:{j}", f"w{side}:{j}")
        for j in range(n)
        for side, v in (("l", 0), ("r", 2))
    ] if n == 4 else []
    for z, x, y, _ in gadgets:
        bits[z] = bits[x] + bits[y]
    return _lift_gadgets(e, gadgets, bits)


# ---------------------------------------------------------------------------
# tileable hamcycle objective


@dataclass
class TileHamcycleQubo:
    """Per-vertex block objective whose zero-energy states are cycles."""

    qubo: Qubo
    instance: HamcycleInstance


def and_gadget_terms(builder: QuboBuilder, z: str, x: str, y: str) -> None:
    """Quadratic penalty vanishing exactly at z = x * y.

    (1/2)[4z + 2xy - 3z(x + y)]: mismatches cost 1 at (z, x, y) = (0, 1, 1),
    1/2 at (1, 1, 0) and (1, 0, 1), and 2 at (1, 0, 0).
    """
    builder.add_linear(z, 2.0)
    builder.add_quadratic(x, y, 1.0)
    builder.add_quadratic(z, x, -1.5)
    builder.add_quadratic(z, y, -1.5)


def build_tileable_hamcycle(inst: HamcycleInstance) -> TileHamcycleQubo:
    """Vertex-local encoding with successor selectors.

    Per vertex v: a position one-hot over x_{v,j}; one selector z_{v,u} per
    incident edge, their one-hot enforced directly (degree <= 2) or through a
    caterpillar of pairwise-sum ancillas; per-position selectors z_{v,u,j}
    consistent with z_{v,u}; and the product gadget z_{v,u,j} = x_{v,j} *
    x_{u,j+1}.  Zero-energy states exist exactly for Hamiltonian cycles.
    """
    n = inst.n
    builder = QuboBuilder(BINARY)
    for v in range(n):
        for j in range(n):
            builder.var(f"x:{v}:{j}")
    for v in range(n):
        builder.add_squared_affine(1.0, [(f"x:{v}:{j}", -1.0) for j in range(n)])
        nbrs = inst.neighbors(v)
        if not nbrs:
            raise HamcycleError(f"vertex {v} is isolated; no cycle exists")
        selectors = [f"z:{v}:{u}" for u in nbrs]
        if len(selectors) <= 2:
            builder.add_squared_affine(1.0, [(s, -1.0) for s in selectors])
        else:
            prev = selectors[0]
            for i, sel in enumerate(selectors[1:-1], start=1):
                acc = f"acc:{v}:{i}"
                builder.add_squared_affine(0.0, [(acc, 1.0), (prev, -1.0), (sel, -1.0)])
                prev = acc
            builder.add_squared_affine(1.0, [(prev, -1.0), (selectors[-1], -1.0)])
        for u in nbrs:
            builder.add_squared_affine(
                0.0,
                [(f"z:{v}:{u}", 1.0)] + [(f"z:{v}:{u}:{j}", -1.0) for j in range(n)],
            )
            for j in range(n):
                and_gadget_terms(
                    builder, f"z:{v}:{u}:{j}", f"x:{v}:{j}", f"x:{u}:{(j + 1) % n}"
                )
    return TileHamcycleQubo(builder.build(), inst)


def cycle_assignment(tq: TileHamcycleQubo, order: list[int]) -> tuple[int, ...]:
    """The intended zero-energy state for a vertex order around the cycle."""
    inst = tq.instance
    n = inst.n
    position = {v: j for j, v in enumerate(order)}
    values: dict[str, int] = {}
    for v in range(n):
        for j in range(n):
            values[f"x:{v}:{j}"] = 1 if position[v] == j else 0
    for v in range(n):
        succ = order[(position[v] + 1) % n]
        nbrs = inst.neighbors(v)
        for u in nbrs:
            values[f"z:{v}:{u}"] = 1 if u == succ else 0
            for j in range(n):
                values[f"z:{v}:{u}:{j}"] = (
                    values[f"x:{v}:{j}"] * values[f"x:{u}:{(j + 1) % n}"]
                )
        selectors = [f"z:{v}:{u}" for u in nbrs]
        running = values[selectors[0]]
        for i in range(1, len(selectors) - 1):
            running += values[selectors[i]]
            values[f"acc:{v}:{i}"] = running
    return tuple(values[tq.qubo.name_of(i)] for i in range(tq.qubo.num_vars))


# ---------------------------------------------------------------------------
# tileable embedding


def predicted_hamcycle_length(N: int, L_G: int, strategy: str = "tileable") -> float:
    """Side bounds: tileable per-vertex blocks vs one complete embedding."""
    if strategy == "tileable":
        return L_G / 2.0 * (3.0 * N + 5.0)
    if strategy == "complete":
        return N * N / 4.0
    raise HamcycleError(f"unknown strategy {strategy!r}")


def _double_plan(plan: TilePlan) -> TilePlan:
    """`plan` with every tile and crossing pass spread over 2 x 2 tiles."""

    def doubled(tiles):
        quad = ((0, 0), (0, 1), (1, 0), (1, 1))
        return {(2 * r + dr, 2 * c + dc): x for (r, c), x in tiles.items() for dr, dc in quad}

    cells = {(r, c): tag for r, row in enumerate(plan.grid) for c, tag in enumerate(row)}
    return _plan(plan.num_vertices, doubled(cells), doubled(plan.crossing_passes))


def embed_tileable_hamcycle(inst: HamcycleInstance, J: int = 4) -> EmbeddedQubo:
    """Stitch the per-vertex blocks onto a doubled tile plan.

    Tiles use 3N + 3 clique slots (positions, neighbor copies, per-position
    selectors, selector plus two accumulator slots) and alternate slot phases
    checkerboard-style, so chains and neighbor copies cross tile boundaries
    on aligned tracks.  Realized side length stays within (L_G/2)(3N + 5)
    with L_G taken from the router.
    """
    if J != 4:
        raise HamcycleError("the tileable layout is constructed for K_{4,4} cells")
    tq = build_tileable_hamcycle(inst)
    b = _TileableBuilder(inst)
    b.layout()
    return embed_qubo(tq.qubo, b.to_embedding(tq.qubo.index_of, L=b.ell * b.plan.grid_side))


class _TileableBuilder(SlotPlanner):
    """Claims the slots of the per-vertex blocks on a doubled tile plan.

    Tile (r, c) has phase (r + c) % 2.  Vertex v's positions x:v:j take slot
    phase * n + j of each of v's tiles; what leaves a tile toward a neighbour
    (a phase bridge, a neighbour copy) takes the other phase's slot, the
    neighbour's own.  Selectors take 2n + j and 3n, accumulators 3n + 1 and
    3n + 2.
    """

    def __init__(self, inst: HamcycleInstance):
        super().__init__(4)
        self.inst = inst
        self.n = n = inst.n
        self.ell = -(-(3 * n + 3) // 4)
        self.plan = _double_plan(route_graph_to_tiles(inst.edges, num_vertices=n))
        tiles_of = self.plan.tiles_by_vertex()
        self.regions = [sorted(tiles) for tiles in tiles_of]
        # one adjacent tile pair per edge, every tile hosting at most one
        # edge; each host tile maps to (partner tile, its vertex, the other)
        self.partner_of: dict[tuple[int, int], tuple[tuple[int, int], int, int]] = {}
        for u, v in sorted({tuple(sorted(e)) for e in inst.edges}):
            pairs = _edge_tile_pairs(tiles_of[u], tiles_of[v])
            pair = next((p for p in pairs if self.partner_of.keys().isdisjoint(p)), None)
            if pair is None:
                raise TilingError(f"no free tile pair for edge ({u}, {v})")
            for mine, theirs in (pair, pair[::-1]):
                owner = u if self.plan.role(*mine) == f"v{u}" else v
                self.partner_of[mine] = (theirs, owner, v if owner == u else u)

    def phase(self, tile):
        return (tile[0] + tile[1]) % 2

    def slot_x(self, tile, j):
        return self.phase(tile) * self.n + j

    def other_slot(self, tile, j):
        return (1 - self.phase(tile)) * self.n + j

    def full_arms(self, tile, slot, name):
        for axis in ("h", "v"):
            self.arm(name, self.plan.origin(tile, self.ell), slot, axis, 0, self.ell - 1)

    def segment(self, tile, toward, slot, name, lo, hi):
        # the arm of `slot` inside `tile` out to the boundary shared with the
        # adjacent tile `toward`: offsets lo..ell-1 toward a higher neighbour,
        # 0..hi toward a lower one
        axis, k = ("h", 1) if toward[1] != tile[1] else ("v", 0)
        if toward[k] > tile[k]:
            hi = self.ell - 1
        else:
            lo = 0
        self.arm(name, self.plan.origin(tile, self.ell), slot, axis, lo, hi)

    def bridge(self, tile, toward, v):
        """The phase bridge: inside `tile`, each chain x:v:j leaves its own
        arm line on the other phase's slot, out to the boundary with `toward`."""
        for j in range(self.n):
            own = self.slot_x(tile, j) // 4
            self.segment(tile, toward, self.other_slot(tile, j), f"x:{v}:{j}", own, own)

    def copies_along(self, tile, horizontal):
        # whether tile hosts an edge whose neighbour copies run along the
        # horizontal (or vertical) axis
        partner = self.partner_of.get(tile)
        return partner is not None and (partner[0][0] == tile[0]) == horizontal

    def layout(self):
        n, ell, plan = self.n, self.ell, self.plan
        for v in range(n):
            for tile in self.regions[v]:
                for j in range(n):
                    self.full_arms(tile, self.slot_x(tile, j), f"x:{v}:{j}")
        # crossings conduct one vertex horizontally (s arms) and one vertically
        # (r arms); a whole run of consecutive crossings carries the entry-side
        # phase, and the exit tile bridges if its own phase differs.  A run is
        # handled at its entry-side tile, its first in sorted order.
        for tile in sorted(plan.crossing_passes):
            for axis, (dr, dc) in (("h", (0, 1)), ("v", (1, 0))):
                enter = (tile[0] - dr, tile[1] - dc)
                if plan.role(*enter) == "x":
                    continue
                run = [tile]
                while plan.role(run[-1][0] + dr, run[-1][1] + dc) == "x":
                    run.append((run[-1][0] + dr, run[-1][1] + dc))
                exit_tile = (run[-1][0] + dr, run[-1][1] + dc)
                passer = plan.crossing_passes[tile][0 if axis == "h" else 1]
                for cross in run:
                    for j in range(n):
                        name, slot = f"x:{passer}:{j}", self.slot_x(enter, j)
                        self.arm(name, plan.origin(cross, ell), slot, axis, 0, ell - 1)
                if self.phase(exit_tile) != self.phase(enter):
                    self.bridge(exit_tile, run[-1], passer)

        tree_hops = [self.region_tree(v) for v in range(n)]
        for v in range(n):
            for (t1, t2) in tree_hops[v]:
                # the bridge segment lives on IO arms parallel to the hop; host
                # it in an endpoint whose partner (copy traffic) runs the other
                # axis
                hop_horizontal = t1[0] == t2[0]
                if not self.copies_along(t1, hop_horizontal):
                    self.bridge(t1, t2, v)
                elif not self.copies_along(t2, hop_horizontal):
                    self.bridge(t2, t1, v)
                else:
                    raise EmbeddingError(
                        f"no safe side for a chain bridge between {t1} and {t2}"
                    )

        for mine, (theirs, owner, other) in self.partner_of.items():
            for j in range(n):
                self.full_arms(mine, 2 * n + j, f"z:{owner}:{other}:{j}")
            self.full_arms(mine, 3 * n, f"z:{owner}:{other}")
            for j in range(n):
                # the incoming neighbour copy must reach far enough to cross
                # its coupling partners' perpendicular arms
                links = [(2 * n + (j - 1) % n) // 4, self.slot_x(mine, (j - 1) % n) // 4]
                name, slot = f"x:{other}:{j}", self.other_slot(mine, j)
                self.segment(mine, theirs, slot, name, min(links), max(links))

        for v in range(n):
            self.wire_selectors(v)

    def region_tree(self, v):
        """The hops of a spanning tree of v's region that need phase bridges.

        Crossing runs connect tiles without bridges: their pass-through
        claims are already track-aligned.  The tree takes hops in increasing
        badness, the number of endpoints whose neighbour copies run along
        the hop axis, so bridges stay off copy-laden axes.
        """
        tiles = set(self.regions[v])
        candidates = []
        for cur in sorted(tiles):
            for dr, dc in ((1, 0), (0, 1)):
                axis = "h" if dr == 0 else "v"
                nxt, hops = (cur[0] + dr, cur[1] + dc), 0
                while nxt in self.plan.crossing_passes and self.plan.conducts(nxt, v, axis):
                    nxt, hops = (nxt[0] + dr, nxt[1] + dc), hops + 1
                if nxt in tiles:
                    bad = sum(self.copies_along(t, dr == 0) for t in (cur, nxt))
                    candidates.append((bad, cur, nxt, hops))
        parent = {t: t for t in tiles}

        def find(t):
            while parent[t] != t:
                parent[t] = parent[parent[t]]
                t = parent[t]
            return t

        out = []
        for bad, cur, nxt, hops in sorted(candidates):
            ra, rb = find(cur), find(nxt)
            if ra != rb:
                parent[ra] = rb
                if hops == 0:
                    out.append((cur, nxt))
        if len({find(t) for t in tiles}) != 1:
            raise EmbeddingError(f"vertex {v} region not connected in the plan")
        return out

    def wire_selectors(self, v):
        """Route v's selector (and accumulator) chains between its edge tiles.

        Chains travel on free aux-slot arms along tile paths through v's
        tiles and the crossings it passes, and finish with an entry segment
        inside the destination tile, where the caterpillar couplings land on
        perpendicular arms.  Each link tries every route with each routing
        slot in turn (the slots the ceiling leaves spare, then the selector
        and accumulator slots), undoing a failed try's claims.
        """
        nbrs = self.inst.neighbors(v)
        if len(nbrs) <= 1:
            return
        n = self.n
        slots = [*range(3 * n + 3, 4 * self.ell), 3 * n + 1, 3 * n + 2, 3 * n]
        tiles = self.plan.region_with_crossings(v, self.regions[v])
        host = {other: mine for mine, (_, owner, other) in self.partner_of.items() if owner == v}
        hosts = [host[u] for u in nbrs]
        # the entry segment's couplings land where it crosses the destination's
        # selector and accumulator perpendicular arms, so it spans all their lines
        lo_need, hi_need = (3 * n) // 4, (3 * n + 2) // 4
        prev_name, prev_host, prev_slot = f"z:{v}:{nbrs[0]}", hosts[0], 3 * n
        for i in range(1, len(nbrs)):
            target_host = hosts[i]
            acc = acc_slot = None
            if i < len(nbrs) - 1:
                acc = f"acc:{v}:{i}"
                acc_slot = 3 * n + 1 + (i % 2)
                self.full_arms(target_host, acc_slot, acc)
            routes = _routes(tiles, prev_host, target_host, set(hosts) - {prev_host, target_host})
            if not routes:
                raise EmbeddingError(
                    f"no selector route between {prev_host} and {target_host} for vertex {v}"
                )
            # the chain hops off its own arms in route[0], takes full arms
            # through the interior tiles and enters the destination route[-1]
            mark = len(self.claims)
            own_line = prev_slot // 4
            tries = ((route, slot) for route in routes for slot in slots if slot != prev_slot)
            for route, slot in tries:
                try:
                    self.segment(route[0], route[1], slot, prev_name, own_line, own_line)
                    for tile in route[1:-1]:
                        self.full_arms(tile, slot, prev_name)
                    self.segment(route[-1], route[-2], slot, prev_name, lo_need, hi_need)
                    break
                except EmbeddingError as err:
                    last = err
                    self.undo_to(mark)
            else:
                raise EmbeddingError(
                    f"selector routing failed for vertex {v}: "
                    f"no free aux slot for a selector chain route: {last}"
                )
            if acc is not None:
                prev_name, prev_host, prev_slot = acc, target_host, acc_slot


# a route is shortest when it leaves or enters a host on its east or south
# side (the aux band sits in the last cell line), so routes are searched in
# several orientations
_ROUTE_ORDERS = (
    ((0, 1), (1, 0), (0, -1), (-1, 0)),
    ((1, 0), (0, 1), (-1, 0), (0, -1)),
    ((0, -1), (-1, 0), (0, 1), (1, 0)),
    ((-1, 0), (0, -1), (1, 0), (0, 1)),
)


def _routes(tiles, a, b, avoid):
    """Distinct tile paths from a to b within `tiles` that pass no tile of
    `avoid`: breadth-first, then depth-first, in each orientation, from
    either end."""
    seen = []
    for depth_first in (False, True):
        for order in _ROUTE_ORDERS:
            back = _route(tiles, b, a, avoid, order, depth_first)
            for path in (_route(tiles, a, b, avoid, order, depth_first), back and back[::-1]):
                if path and path not in seen:
                    seen.append(path)
    return seen


def _route(tiles, a, b, avoid, order, depth_first):
    # depth-first takes the newest frontier tile and pushes neighbours in
    # reverse, so both styles try `order` front to back
    prev = {a: None}
    frontier = [a]
    while frontier:
        cur = frontier.pop(-1 if depth_first else 0)
        if cur == b:
            path = [b]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return path[::-1]
        for dr, dc in order[::-1] if depth_first else order:
            nxt = (cur[0] + dr, cur[1] + dc)
            if nxt in tiles and nxt not in prev and (nxt == b or nxt not in avoid):
                prev[nxt] = cur
                frontier.append(nxt)
    return None
