"""Tileable embeddings: plan a grid of tiles for a logical graph, then stitch
per-tile Hamiltonians into one lattice objective.

A plan assigns each grid tile a role: a vertex tile (hosting that vertex's
building-block Hamiltonian), a crossing tile (letting one vertex's chain pass
horizontally while another passes vertically, which encodes nonplanarity), or
empty.  Every logical edge is realized by exactly one adjacent tile pair.  A
plan counts tiles, not lattice cells: a tile's side in cells is set by what is
placed on it (`TileHamiltonians.ell` when stitching, the slot count of the
tileable Hamiltonian-cycle blocks).  Supertiles interleave two embedded
problems and claim their bridges, like every other layout, through
`SlotPlanner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .embedding import EmbeddedQubo, SlotPlanner, embed_qubo
from .lattice import detect_chimera
from .qubo import SPIN, Qubo, QuboBuilder, substitute

CROSSING, EMPTY = "x", "-"


class TilingError(ValueError):
    """Plan construction or stitching failed."""


def _vertex_count(edges: Sequence, num_vertices: int | None, minimum: int, error: type) -> int:
    """n = `num_vertices`, else one past the largest endpoint: the graph rule
    of the coloring and Hamiltonian-cycle instances and the tile router.
    Fewer than `minimum` vertices, a self loop or an endpoint outside 0..n-1
    raises the caller's `error` type."""
    n = num_vertices if num_vertices is not None else 1 + max((max(e) for e in edges), default=0)
    if n < minimum:
        raise error(f"vertex count {n} is below the minimum {minimum}")
    for u, v in edges:
        if u == v:
            raise error(f"edge ({u}, {v}) is a self loop")
        if not (0 <= u < n and 0 <= v < n):
            raise error(f"edge ({u}, {v}) names a vertex outside 0..{n - 1}")
    return n


@dataclass
class TilePlan:
    """Grid of tile roles plus the bookkeeping to stitch them."""

    grid: list[list[str]]  # row-major; entries "v<k>", "x", "-"
    num_vertices: int
    crossing_passes: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    adjacency_realization: dict[
        tuple[int, int], tuple[tuple[int, int], tuple[int, int]]
    ] = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return len(self.grid)

    @property
    def cols(self) -> int:
        return len(self.grid[0]) if self.grid else 0

    @property
    def grid_side(self) -> int:
        return max(self.rows, self.cols)

    def role(self, r: int, c: int) -> str:
        if 0 <= r < self.rows and 0 <= c < self.cols:
            return self.grid[r][c]
        return EMPTY

    @staticmethod
    def origin(tile: tuple[int, int], ell: int) -> tuple[int, int]:
        """Lattice cell (i, j) at the top-left of tile (r, c), for tiles of
        ell x ell cells."""
        r, c = tile
        return c * ell, r * ell

    def tiles_by_vertex(self) -> list[set[tuple[int, int]]]:
        """The tiles tagged with each vertex, from one scan of the grid."""
        out: list[set[tuple[int, int]]] = [set() for _ in range(self.num_vertices)]
        index = {f"v{v}": tiles for v, tiles in enumerate(out)}
        for r in range(self.rows):
            for c in range(self.cols):
                tiles = index.get(self.grid[r][c])
                if tiles is not None:
                    tiles.add((r, c))
        return out

    def region_with_crossings(
        self, v: int, tiles: Iterable[tuple[int, int]]
    ) -> set[tuple[int, int]]:
        """v's own `tiles` plus the crossing tiles its chain passes through.

        `tiles` is copied, not changed.
        """
        out = set(tiles)
        for tile, (hv, vv) in self.crossing_passes.items():
            if hv == v or vv == v:
                out.add(tile)
        return out

    def crossings(self) -> set[tuple[int, int]]:
        return set(self.crossing_passes)

    def conducts(self, tile: tuple[int, int], v: int, axis: str) -> bool:
        """Whether `tile` carries vertex v's chain along axis "h" or "v".

        A crossing conducts only the vertex it passes on that axis; any other
        tile conducts only when it is one of v's tiles.
        """
        passes = self.crossing_passes.get(tile)
        if passes is not None:
            return passes[0 if axis == "h" else 1] == v
        return self.role(*tile) == f"v{v}"


def _region_connected(plan: TilePlan, v: int, own: set[tuple[int, int]]) -> bool:
    tiles = plan.region_with_crossings(v, own)
    if not tiles:
        return False
    start = min(tiles)
    seen = {start}
    frontier = [start]
    while frontier:
        r, c = frontier.pop()
        for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nxt = (r + dr, c + dc)
            axis = "h" if dr == 0 else "v"
            conducted = plan.conducts((r, c), v, axis) and plan.conducts(nxt, v, axis)
            if conducted and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen == tiles


def validate_plan(plan: TilePlan, edges: Iterable[tuple[int, int]]) -> list[str]:
    """Structural checks; returns a list of violation strings."""
    problems: list[str] = []
    for v, tiles in enumerate(plan.tiles_by_vertex()):
        if not tiles:
            problems.append(f"vertex {v} has no tile")
        elif not _region_connected(plan, v, tiles):
            problems.append(f"vertex {v} region disconnected")
    for tile, (hv, vv) in plan.crossing_passes.items():
        r, c = tile
        if plan.role(r, c) != CROSSING:
            problems.append(f"pass recorded at non-crossing tile {tile}")
        ived = {plan.role(r, c - 1), plan.role(r, c + 1)}
        if not ived <= {f"v{hv}", CROSSING}:
            problems.append(f"crossing {tile} horizontal pass of v{hv} dead-ends")
        tved = {plan.role(r - 1, c), plan.role(r + 1, c)}
        if not tved <= {f"v{vv}", CROSSING}:
            problems.append(f"crossing {tile} vertical pass of v{vv} dead-ends")
    edge_list = sorted({tuple(sorted(e)) for e in edges})
    for u, v in edge_list:
        if (u, v) not in plan.adjacency_realization:
            problems.append(f"edge ({u}, {v}) not realized")
            continue
        t1, t2 = plan.adjacency_realization[(u, v)]
        if abs(t1[0] - t2[0]) + abs(t1[1] - t2[1]) != 1:
            problems.append(f"edge ({u}, {v}) realized at non-adjacent tiles")
        roles = {plan.role(*t1), plan.role(*t2)}
        if roles != {f"v{u}", f"v{v}"}:
            problems.append(f"edge ({u}, {v}) realized at wrong tiles {roles}")
    extra = set(plan.adjacency_realization) - set(edge_list)
    if extra:
        problems.append(f"spurious edge realizations {sorted(extra)}")
    return problems


def _edge_tile_pairs(
    tu: set[tuple[int, int]], tv: set[tuple[int, int]]
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Sorted adjacent tile pairs, one of u's tiles `tu` and one of v's `tv`."""
    return sorted(
        {
            tuple(sorted(((r, c), nxt)))
            for (r, c) in tu
            for nxt in ((r, c + 1), (r + 1, c), (r, c - 1), (r - 1, c))
            if nxt in tv
        }
    )


def _assign_realizations(plan: TilePlan, edges: Iterable[tuple[int, int]]) -> None:
    tiles_of = plan.tiles_by_vertex()
    for u, v in sorted({tuple(sorted(e)) for e in edges}):
        candidates = _edge_tile_pairs(tiles_of[u], tiles_of[v])
        if not candidates:
            raise TilingError(f"no adjacent tile pair realizes edge ({u}, {v})")
        plan.adjacency_realization[(u, v)] = candidates[0]


def _plan(
    n: int,
    cells: Mapping[tuple[int, int], str],
    passes: Mapping[tuple[int, int], tuple[int, int]] | None = None,
) -> TilePlan:
    """The plan of n vertices whose grid holds `cells`, a `{(r, c): tag}` map,
    sized to their extent with every other tile EMPTY."""
    rows = 1 + max(r for r, _ in cells)
    cols = 1 + max(c for _, c in cells)
    grid = [[cells.get((r, c), EMPTY) for c in range(cols)] for r in range(rows)]
    return TilePlan(grid, n, dict(passes or {}))


#: The K4 and K5 plans, one character per tile (a vertex digit, "x" or "-"),
#: and their crossing passes: in K5, v1 passes horizontally, v3 vertically.
_COMPLETE_LAYOUTS = {
    4: (("000", "132", "112"), None),
    5: (("0004", "1324", "1x14", "-344"), {(2, 1): (1, 3)}),
}


def _canned_complete_plan(n: int) -> TilePlan:
    rows, passes = _COMPLETE_LAYOUTS[n]
    cells = {
        (r, c): ch if ch in (CROSSING, EMPTY) else f"v{ch}"
        for r, row in enumerate(rows)
        for c, ch in enumerate(row)
    }
    return _plan(n, cells, passes)


def _walk(n: int, edges: set[tuple[int, int]]) -> tuple[list[int], bool] | None:
    """(vertex order, closed) if the graph is one path or one cycle, else
    None.  A path starts at its smaller end; a cycle starts at vertex 0 and
    goes toward its smaller neighbour."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if len(edges) not in (n - 1, n) or any(len(a) > 2 for a in adj):
        return None
    closed = len(edges) == n
    order = [0 if closed else min(v for v in range(n) if len(adj[v]) < 2)]
    seen = set(order)
    while nxts := sorted(adj[order[-1]] - seen):
        order.append(nxts[0])
        seen.add(nxts[0])
    return (order, closed) if len(order) == n else None


def _ladder_plan(n: int, edges: set[tuple[int, int]]) -> TilePlan:
    """Deterministic row/column construction with pass-down crossings.

    Vertices in degree-descending order get one horizontal segment each (the
    two first share the top row); a vertex with edges further down descends
    through a dedicated column, crossing later rows, and realizes each edge
    from a stub next to its descent.  For K_N this stays within a
    (2N - 3) x (2N - 3) grid.
    """
    order = sorted(range(n), key=lambda v: (-sum(1 for e in edges if v in e), v))
    rank = {v: k for k, v in enumerate(order)}
    later: dict[int, list[int]] = {k: [] for k in range(n)}
    for u, v in edges:
        lo, hi = sorted((rank[u], rank[v]))
        later[lo].append(hi)
    for k in later:
        later[k].sort()

    def row_of(k: int) -> int:
        # ranks 0 and 1 split the top row; every later rank gets a row with a
        # drop row above it for stubs and descent tiles
        return 0 if k <= 1 else 2 * k - 2

    cells: dict[tuple[int, int], str] = {}
    passes: dict[tuple[int, int], tuple[int, int]] = {}

    def put(r: int, c: int, tag: str):
        existing = cells.get((r, c))
        if existing is not None and existing != tag:
            raise TilingError(f"ladder conflict at {(r, c)}: {existing} vs {tag}")
        cells[(r, c)] = tag

    reach = {k: 0 for k in range(n)}
    next_col = 0
    for k in range(n):
        targets = [kk for kk in later[k] if row_of(kk) > row_of(k)]
        vk = order[k]
        if not targets:
            continue
        last = targets[-1]
        has_stub = any(kk != last for kk in targets)
        if has_stub:
            scol, dcol = next_col, next_col + 1
            next_col += 2
        else:
            # keep descent columns off the grid edge so crossings stay interior
            next_col = max(next_col, 1)
            scol, dcol = None, next_col
            next_col += 1
        reach[k] = max(reach[k], dcol)
        for kk in range(k + 1, last + 1):
            rr = row_of(kk)
            if rr <= row_of(k):
                continue
            put(rr - 1, dcol, f"v{vk}")
            if kk in targets and kk != last:
                put(rr - 1, scol, f"v{vk}")
                reach[kk] = max(reach[kk], scol)
            if kk == last:
                reach[kk] = max(reach[kk], dcol)
            else:
                cells[(rr, dcol)] = CROSSING
                passes[(rr, dcol)] = (order[kk], vk)
                reach[kk] = max(reach[kk], dcol + 1)
    for k in range(n):
        r = row_of(k)
        start = (reach[0] + 1) if (k == 1 and n > 1) else 0
        for c in range(start, max(reach[k], start) + 1):
            if cells.get((r, c)) == CROSSING:
                continue
            put(r, c, f"v{order[k]}")
    return _plan(n, cells, passes)


def route_graph_to_tiles(
    edges: Iterable[tuple[int, int]], num_vertices: int | None = None
) -> TilePlan:
    """Deterministic constructive tile plan for an arbitrary simple graph.

    Paths and cycles lay out directly, K1 to K3 among them; K4 and K5 use
    minimal verified patterns (K5 in a 4x4 grid with one crossing tile);
    everything else falls back to a row/column ladder with crossings that
    stays within 2N - 3 tiles per side.  The graph needs one vertex; a
    refusal (`_vertex_count`) is a `TilingError` naming the count or edge.
    """
    edges = list(edges)
    n = _vertex_count(edges, num_vertices, 1, TilingError)
    edge_set = {tuple(sorted(e)) for e in edges}
    walk = _walk(n, edge_set)
    if walk is not None:
        # a path lies in one row; a cycle folds into two, its bottom row
        # running back and, for odd n, ending in a second tile of order[half]
        order, closed = walk
        half = (n + 1) // 2 if closed else n
        cells = {(0, c): f"v{order[c]}" for c in range(half)}
        if closed:
            cells.update({(1, c): f"v{order[max(n - 1 - c, half)]}" for c in range(half)})
        plan = _plan(n, cells)
    elif n in _COMPLETE_LAYOUTS and len(edge_set) == n * (n - 1) // 2:
        plan = _canned_complete_plan(n)
    else:
        plan = _ladder_plan(n, edge_set)
    _assign_realizations(plan, edge_set)
    problems = validate_plan(plan, edge_set)
    if problems:
        raise TilingError("; ".join(problems))
    return plan


# ---------------------------------------------------------------------------
# tile Hamiltonians and stitching


@dataclass
class TileHamiltonians:
    """Spin templates over named tile slots.

    Slot names follow "<tile>:<side><track>:<m>:<n>" with tile "a" or "b",
    side "s" or "r", and (m, n) the cell inside the ell x ell tile (m
    horizontal).  Edge and chain templates span two tiles; "a" is the left
    (or top) one.  `colors` maps each logical color to its chain slots inside
    one tile.
    """

    J: int
    ell: int
    q: int
    vertex_tile: Qubo
    edge_horizontal: Qubo
    edge_vertical: Qubo
    chain_horizontal: Qubo
    chain_vertical: Qubo
    colors: dict[int, list[str]]


def crossing_tile_chimera() -> Qubo:
    """Turn-style crossing template for one K_{4,4} cell.

    Two disjoint four-spin ferromagnetic paths thread the cell: one enters on
    a horizontal coupler and leaves on a vertical one, the other the reverse.
    Ground states are the four per-chain-aligned sign choices; the gap is 2
    (an end flip breaks one unit bond).
    """
    b = QuboBuilder(SPIN)
    for sides, tracks in (("srsr", (0, 0, 1, 1)), ("rsrs", (2, 2, 3, 3))):
        chain = [_slot_name("a", side, track, 0, 0) for side, track in zip(sides, tracks)]
        for u, v in zip(chain, chain[1:]):
            b.add_quadratic(u, v, -1.0)
    return b.build()


def _slot_name(tile: str, side: str, track: int, m: int, n: int) -> str:
    """The tile slot name that `_parse_slots` reads back."""
    return f"{tile}:{side}{track}:{m}:{n}"


def _parse_slots(names: Iterable[str]) -> list[tuple[str, int, int, str, int]]:
    """``(tile, m, n, side, track)`` of each named tile slot, in order."""
    out = []
    for name in names:
        tile, slot, m, n = name.split(":")
        out.append((tile, int(m), int(n), slot[0], int(slot[1:])))
    return out


def stitch(plan: TilePlan, tiles: TileHamiltonians) -> EmbeddedQubo:
    """Assemble per-tile templates into one physical objective.

    Vertex tiles get the vertex template; each logical edge gets one edge
    template at its realized tile pair; chains propagate between same-vertex
    tiles and straight through crossings.  The logical view of the result is
    the chain-contracted objective over (vertex, color) variables, variable
    v * q + color, on a lattice of side ell * grid_side.  Slot names are
    parsed once per call, not once per tile.
    """
    ell = tiles.ell
    planner = SlotPlanner(tiles.J)

    color_slots = [
        (color, slot)
        for color, names in tiles.colors.items()
        for slot in _parse_slots(names)
    ]

    def claim_colors(v: int, tile: tuple[int, int], sides: str):
        origins = {"a": plan.origin(tile, ell)}
        for color, (t, m, n, side, track) in color_slots:
            if side in sides:
                oi, oj = origins[t]
                planner.claim((oi + m, oj + n), side, track, v * tiles.q + color)

    tiles_of = plan.tiles_by_vertex()
    for v in range(plan.num_vertices):
        for tile in tiles_of[v]:
            claim_colors(v, tile, "sr")
    for tile, (hv, vv) in plan.crossing_passes.items():
        claim_colors(hv, tile, "s")
        claim_colors(vv, tile, "r")
    emb = planner.to_embedding(int, L=ell * plan.grid_side)
    graph = emb.graph

    order, pos = emb.vertex_order, emb.position_of
    physical = Qubo(SPIN, len(order), var_names=[str(p) for p in order])

    def parsed(template: Qubo) -> tuple[Qubo, list[tuple[str, int, int, int]]]:
        """The template with the tile, cell offset and cell role of each slot."""
        slots = _parse_slots(template.var_names)
        return template, [(t, m, n, planner.role(side, track)) for t, m, n, side, track in slots]

    def instantiate(template, origins: Mapping[str, tuple[int, int]]) -> None:
        qubo, slots = template
        image = []
        for t, m, n, role in slots:
            oi, oj = origins[t]
            image.append((0.0, 1.0, pos[graph.vertex(oi + m, oj + n, role)]))
        substitute(qubo, physical, image)

    vertex_tile = parsed(tiles.vertex_tile)
    for v in range(plan.num_vertices):
        for tile in sorted(tiles_of[v]):
            instantiate(vertex_tile, {"a": plan.origin(tile, ell)})

    # chains between adjacent tiles that both conduct the vertex on that axis
    chain_templates = (
        ("h", 0, 1, parsed(tiles.chain_horizontal)), ("v", 1, 0, parsed(tiles.chain_vertical))
    )
    for v in range(plan.num_vertices):
        for (r, c) in sorted(plan.region_with_crossings(v, tiles_of[v])):
            for axis, dr, dc, template in chain_templates:
                nxt = (r + dr, c + dc)
                if plan.conducts((r, c), v, axis) and plan.conducts(nxt, v, axis):
                    origins = {"a": plan.origin((r, c), ell), "b": plan.origin(nxt, ell)}
                    instantiate(template, origins)

    edge_horizontal, edge_vertical = parsed(tiles.edge_horizontal), parsed(tiles.edge_vertical)
    for (u, v), (t1, t2) in sorted(plan.adjacency_realization.items()):
        template = edge_horizontal if t1[0] == t2[0] else edge_vertical
        instantiate(template, {"a": plan.origin(t1, ell), "b": plan.origin(t2, ell)})

    names = [f"v{v}:c{color}" for v in range(plan.num_vertices) for color in range(tiles.q)]
    placeholder = Qubo(SPIN, plan.num_vertices * tiles.q, var_names=names)
    embedded = EmbeddedQubo(physical, emb, placeholder)
    embedded.logical = embedded.chain_intact_qubo()
    return embedded


# ---------------------------------------------------------------------------
# supertiles


def supertile_compose(
    e1: EmbeddedQubo,
    e2: EmbeddedQubo,
    couplings: Sequence[tuple[int, float]],
) -> EmbeddedQubo:
    """Interleave two embedded problems on a doubled lattice.

    The first problem's cells map to the upper-left quadrant of each 2x2
    supertile, the second to the lower-right; existing couplers re-route
    through the off-diagonal quadrants on their own tracks.  Each requested
    coupling (i, A_i) lands on an intra-cell edge of the upper-right square of
    a supertile where variable i of both problems is present.  Composed
    variables are named x<i> (first problem) and y<i> (second).  Every chain
    takes :func:`embed_qubo`'s weight for the composed objective, couplings
    included.
    """
    spec1, spec2 = e1.embedding.lattice, e2.embedding.lattice
    if spec1.cell != spec2.cell or spec1.width != spec2.width or spec1.height != spec2.height:
        raise TilingError("supertile composition needs matching lattices")
    J = detect_chimera(spec1)
    if J is None:
        raise TilingError("supertile composition implemented for chimera cells")
    planner = SlotPlanner(J)
    for tag, e, (si, sj) in (("x", e1, (0, 0)), ("y", e2, (1, 1))):
        g = e.embedding.graph
        for v, chain in e.embedding.chains.items():
            name = f"{tag}{v}"
            spots = sorted(chain)
            for p in spots:
                planner.claim_vertex(g, p, name, (si, sj), 2)
            # bridge the now-stretched couplers through off-diagonal cells
            for p in spots:
                i, j, _ = g.cell_of(p)
                for qv in g.neighbors(p):
                    if qv not in chain or qv < p:
                        continue
                    qi, qj, _ = g.cell_of(qv)
                    if qi == i + 1:  # horizontal hop: pass through (2i+1+si, 2j+sj)
                        planner.claim_vertex(g, p, name, (si + 1, sj), 2)
                    elif qj == j + 1:
                        planner.claim_vertex(g, p, name, (si, sj + 1), 2)

    q1, q2 = e1.logical, e2.logical
    if q1.domain != q2.domain:
        raise TilingError("logical domains differ")
    combined = Qubo(q1.domain, q1.num_vars + q2.num_vars, -0.0)
    combined.var_names = [f"x{i}" for i in range(q1.num_vars)] + [
        f"y{i}" for i in range(q2.num_vars)
    ]
    off = q1.num_vars
    for k, q in ((0, q1), (off, q2)):
        substitute(q, combined, [(0.0, 1.0, k + i) for i in range(q.num_vars)])

    # bridge the requested couplings through upper-right off-diagonal squares
    chains1, chains2 = e1.embedding.chains, e2.embedding.chains
    for i, a_i in couplings:
        if i not in chains1 or i not in chains2:
            raise TilingError(f"no shared variable index {i} to couple")
        cells1 = {e1.embedding.graph.cell_of(p)[:2] for p in chains1[i]}
        cells2 = {e2.embedding.graph.cell_of(p)[:2] for p in chains2[i]}
        common = sorted(cells1 & cells2)
        if not common:
            raise TilingError(f"variable {i} shares no supertile position")
        ci, cj = common[0]
        bridge = (2 * ci + 1, 2 * cj)
        # chain 1 exits rightward on an s track, chain 2 upward on an r track
        x, y = f"x{i}", f"y{i}"
        s_track = _track_into_bridge(planner, x, (2 * ci, 2 * cj), "s")
        r_track = _track_into_bridge(planner, y, (2 * ci + 1, 2 * cj + 1), "r")
        for side, track, var in (("s", s_track, x), ("r", r_track, y)):
            if planner.claims.get((*bridge, side, track), var) != var:
                raise TilingError(f"bridge congestion at cell {bridge}")
            planner.claim(bridge, side, track, var)
        combined.add_quadratic(i, off + i, a_i)

    return embed_qubo(combined, planner.to_embedding(combined.index_of, 2 * spec1.width))


def _track_into_bridge(planner: SlotPlanner, var: str, cell: tuple[int, int], side: str) -> int:
    """Track on which a chain can step from its quadrant cell into the bridge.

    Couplers are track-aligned, so the chain must own (or gain, via an
    intra-cell hop) a slot of the right side in its copy of the shared cell.
    """
    tracks = [t for (i, j, s, t) in planner.chains[var] if (i, j) == cell and s == side]
    if tracks:
        return min(tracks)
    # hop onto a free slot of the needed side inside the quadrant cell
    free = planner.free_tracks(cell, side)
    if not free:
        raise TilingError(f"no free {side} track in cell {cell}")
    planner.claim(cell, side, free[0], var)
    return free[0]
