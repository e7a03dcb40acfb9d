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
from dataclasses import dataclass

from .embedding import (
    EmbeddedQubo,
    EmbeddingError,
    SlotPlanner,
    choose_alpha,
    embed_complete_chimera,
    embed_qubo,
)
from .qubo import BINARY, SPIN, Qubo, QuboBuilder
from .tiling import TilePlan, TilingError, _edge_tile_pairs, route_graph_to_tiles
from .unary import _add_bit_constraint, _add_gadget, _lift_gadgets


class HamcycleError(ValueError):
    """Invalid instance or unsupported size."""


@dataclass(frozen=True)
class HamcycleInstance:
    edges: tuple[tuple[int, int], ...]
    num_vertices: int | None = None

    def __post_init__(self):
        n = self.n
        for u, v in self.edges:
            if u == v:
                raise HamcycleError("self loops not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise HamcycleError(f"edge ({u}, {v}) names a vertex outside 0..{n - 1}")

    @property
    def n(self) -> int:
        if self.num_vertices is not None:
            return self.num_vertices
        return 1 + max((max(e) for e in self.edges), default=0)

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
    if n < 3:
        raise HamcycleError("a cycle needs at least three vertices")
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
        emb = embed_complete_chimera(4, 4)
        emb.alpha = choose_alpha(logical)
        return embed_qubo(logical, emb)
    planner = SlotPlanner(4)
    _permutation_layout_4(planner)
    emb = planner.to_embedding(logical.index_of, choose_alpha(logical), L=6)
    return embed_qubo(logical, emb)


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
    if n < 3:
        raise HamcycleError("a cycle needs at least three vertices")
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
    grid = []
    for row in plan.grid:
        doubled = [tag for tag in row for _ in (0, 1)]
        grid.append(doubled)
        grid.append(list(doubled))
    out = TilePlan(grid, plan.num_vertices)
    for (r, c), passes in plan.crossing_passes.items():
        for dr in (0, 1):
            for dc in (0, 1):
                out.crossing_passes[(2 * r + dr, 2 * c + dc)] = passes
    return out


def _assign_edge_tiles(tiles_of: list[set[tuple[int, int]]], edges):
    """One adjacent tile pair per edge from each vertex's tiles `tiles_of`,
    every tile hosting at most one edge."""
    busy: set[tuple[int, int]] = set()
    chosen: dict[tuple[int, int], tuple[tuple[int, int], tuple[int, int]]] = {}
    for u, v in sorted({tuple(sorted(e)) for e in edges}):
        for pair in _edge_tile_pairs(tiles_of[u], tiles_of[v]):
            if pair[0] not in busy and pair[1] not in busy:
                chosen[(u, v)] = pair
                busy.update(pair)
                break
        else:
            raise TilingError(f"no free tile pair for edge ({u}, {v})")
    return chosen


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
    n = inst.n
    tq = build_tileable_hamcycle(inst)
    plan = _double_plan(route_graph_to_tiles(inst.edges, num_vertices=n))
    tiles_of = plan.tiles_by_vertex()
    edge_tiles = _assign_edge_tiles(tiles_of, inst.edges)
    q_slots = 3 * n + 3
    ell = -(-q_slots // 4)
    planner = SlotPlanner(4)

    def phase(tile):
        return (tile[0] + tile[1]) % 2

    def origin(tile):
        r, c = tile
        return c * ell, r * ell

    def slot_x(tile, j):
        return phase(tile) * n + j

    def full_arms(tile, slot, name):
        for axis in ("h", "v"):
            planner.arm(name, origin(tile), slot, axis, 0, ell - 1)

    def segment(tile, toward, slot, name, lo, hi):
        # the arm of `slot` inside `tile` out to the boundary shared with the
        # adjacent tile `toward`: offsets lo..ell-1 toward a higher neighbour,
        # 0..hi toward a lower one
        axis, k = ("h", 1) if toward[1] != tile[1] else ("v", 0)
        if toward[k] > tile[k]:
            planner.arm(name, origin(tile), slot, axis, lo, ell - 1)
        else:
            planner.arm(name, origin(tile), slot, axis, 0, hi)

    regions = {v: sorted(tiles) for v, tiles in enumerate(tiles_of)}
    partner_of: dict[tuple[int, int], tuple[tuple[int, int], int, int]] = {}
    for (u, v), (t1, t2) in edge_tiles.items():
        for mine, theirs in ((t1, t2), (t2, t1)):
            owner = u if plan.role(*mine) == f"v{u}" else v
            other = v if owner == u else u
            partner_of[mine] = (theirs, owner, other)

    def copies_along(tile, horizontal):
        # whether tile hosts an edge whose neighbour copies run along the
        # horizontal (or vertical) axis
        partner = partner_of.get(tile)
        return partner is not None and (partner[0][0] == tile[0]) == horizontal

    for v in range(n):
        for tile in regions[v]:
            for j in range(n):
                full_arms(tile, slot_x(tile, j), f"x:{v}:{j}")
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
            ph = phase(enter)
            for cross in run:
                for j in range(n):
                    planner.arm(f"x:{passer}:{j}", origin(cross), ph * n + j, axis, 0, ell - 1)
            if phase(exit_tile) != ph:
                for j in range(n):
                    own = slot_x(exit_tile, j) // 4
                    segment(exit_tile, run[-1], ph * n + j, f"x:{passer}:{j}", own, own)

    tree_edges = _region_trees(plan, regions, copies_along)

    for v in range(n):
        for (t1, t2) in tree_edges[v]:
            # the bridge segment lives on IO arms parallel to the hop; host it
            # in an endpoint whose partner (copy traffic) runs the other axis
            hop_horizontal = t1[0] == t2[0]
            t_from, t_to = t1, t2
            if copies_along(t1, hop_horizontal):
                t_from, t_to = t2, t1
                if copies_along(t2, hop_horizontal):
                    raise EmbeddingError(
                        f"no safe side for a chain bridge between {t1} and {t2}"
                    )
            # inside t_from the chain takes the t_to-phase arm from its own
            # perpendicular arm out to the shared boundary
            for j in range(n):
                own = slot_x(t_from, j) // 4
                segment(t_from, t_to, slot_x(t_to, j), f"x:{v}:{j}", own, own)

    for (u, v), pair in sorted(edge_tiles.items()):
        for mine in pair:
            theirs, owner, other = partner_of[mine]
            for j in range(n):
                full_arms(mine, 2 * n + j, f"z:{owner}:{other}:{j}")
            full_arms(mine, 3 * n, f"z:{owner}:{other}")
            for j in range(n):
                # the incoming neighbour copy must reach far enough to cross
                # its coupling partners' perpendicular arms
                links = [
                    (2 * n + (j - 1) % n) // 4,
                    slot_x(mine, (j - 1) % n) // 4,
                ]
                segment(
                    mine, theirs, (1 - phase(mine)) * n + j, f"x:{other}:{j}",
                    min(links), max(links),
                )

    # selector chains route on the slots the ceiling leaves spare, then on
    # the selector and accumulator slots
    route_slots = [*range(q_slots, 4 * ell), 3 * n + 1, 3 * n + 2, 3 * n]
    for v in range(n):
        _wire_selector_chain(
            planner, full_arms, segment, route_slots, inst, v, edge_tiles, plan, regions[v]
        )

    emb = planner.to_embedding(tq.qubo.index_of, choose_alpha(tq.qubo), L=ell * plan.grid_side)
    return embed_qubo(tq.qubo, emb)


def _region_trees(plan, regions, copies_along):
    """Spanning tree per region; crossing runs connect tiles without bridges.

    Returns the direct-adjacency hops that need phase bridges.  Hops through
    crossing tiles are already track-aligned by the pass-through claims.  A
    hop is worse for each endpoint where `copies_along(tile, horizontal)`
    says neighbour copies run along the hop axis.
    """
    out = {}
    for v, tiles_list in regions.items():
        tiles = set(tiles_list)

        def through(cur, dr, dc):
            axis = "h" if dr == 0 else "v"
            nxt, hops = (cur[0] + dr, cur[1] + dc), 0
            while nxt in plan.crossing_passes and plan.conducts(nxt, v, axis):
                nxt, hops = (nxt[0] + dr, nxt[1] + dc), hops + 1
            return (nxt, hops) if nxt in tiles else None

        candidates = []
        for cur in sorted(tiles):
            for dr, dc in ((1, 0), (0, 1)):
                res = through(cur, dr, dc)
                if res is None:
                    continue
                nxt, hops = res
                bad = sum(copies_along(t, dr == 0) for t in (cur, nxt))
                candidates.append((bad, cur, nxt, hops))
        # minimum-badness spanning tree keeps bridges off copy-laden axes
        parent = {t: t for t in tiles}

        def find(t):
            while parent[t] != t:
                parent[t] = parent[parent[t]]
                t = parent[t]
            return t

        edges_v = []
        for bad, cur, nxt, hops in sorted(candidates):
            ra, rb = find(cur), find(nxt)
            if ra == rb:
                continue
            parent[ra] = rb
            if hops == 0:
                edges_v.append((cur, nxt))
        if len({find(t) for t in tiles}) != 1:
            raise EmbeddingError(f"vertex {v} region not connected in the plan")
        out[v] = edges_v
    return out


def _wire_selector_chain(planner, full_arms, segment, slots, inst, v, edge_tiles, plan, own):
    """Route selector (and accumulator) chains between a vertex's edge tiles.

    Chains travel on free aux-slot arms along breadth- or depth-first tile
    paths through the vertex's tiles and the crossings it passes, and finish
    with an entry segment inside the destination tile, where the caterpillar
    couplings land on perpendicular arms.  Each link tries every route with
    each of `slots` in turn, undoing a failed try's claims.  `own` holds v's
    tiles.
    """
    nbrs = inst.neighbors(v)
    if len(nbrs) <= 1:
        return
    n = inst.n
    tiles = plan.region_with_crossings(v, own)

    def search(a, b, avoid, order, depth_first):
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

    def route_variants(a, b, avoid):
        # hop and entry segments are shortest when a route leaves or enters a
        # host on its east/south side (the aux band sits in the last cell
        # line), so try several orientations and both search styles
        orders = [
            ((0, 1), (1, 0), (0, -1), (-1, 0)),
            ((1, 0), (0, 1), (-1, 0), (0, -1)),
            ((0, -1), (-1, 0), (0, 1), (1, 0)),
            ((-1, 0), (0, -1), (1, 0), (0, 1)),
        ]
        seen = []
        for depth_first in (False, True):
            for order in orders:
                path = search(a, b, avoid, order, depth_first)
                if path is not None and path not in seen:
                    seen.append(path)
                back = search(b, a, avoid, order, depth_first)
                if back is not None and back[::-1] not in seen:
                    seen.append(back[::-1])
        if not seen:
            raise EmbeddingError(
                f"no selector route between {a} and {b} for vertex {v}"
            )
        return seen

    def host_of(u):
        pair = edge_tiles[tuple(sorted((v, u)))]
        return pair[0] if plan.role(*pair[0]) == f"v{v}" else pair[1]

    # the entry segment's couplings land where it crosses the destination's
    # selector and accumulator perpendicular arms, so it spans all their lines
    lo_need, hi_need = (3 * n) // 4, (3 * n + 2) // 4
    hosts = [host_of(u) for u in nbrs]
    prev_name, prev_host, prev_slot = f"z:{v}:{nbrs[0]}", hosts[0], 3 * n
    for i in range(1, len(nbrs)):
        target_host = hosts[i]
        acc = acc_slot = None
        if i < len(nbrs) - 1:
            acc = f"acc:{v}:{i}"
            acc_slot = 3 * n + 1 + (i % 2)
            full_arms(target_host, acc_slot, acc)
        routes = route_variants(
            prev_host, target_host, set(hosts) - {prev_host, target_host}
        )
        # the chain hops off its own arms in route[0], takes full arms through
        # the interior tiles and enters the destination route[-1]
        mark = len(planner.claims)
        own_line = prev_slot // 4
        tries = ((route, slot) for route in routes for slot in slots if slot != prev_slot)
        for route, slot in tries:
            try:
                segment(route[0], route[1], slot, prev_name, own_line, own_line)
                for tile in route[1:-1]:
                    full_arms(tile, slot, prev_name)
                segment(route[-1], route[-2], slot, prev_name, lo_need, hi_need)
                break
            except EmbeddingError as err:
                last = err
                planner.undo_to(mark)
        else:
            raise EmbeddingError(
                f"selector routing failed for vertex {v}: "
                f"no free aux slot for a selector chain route: {last}"
            )
        if acc is not None:
            prev_name, prev_host, prev_slot = acc, target_host, acc_slot
