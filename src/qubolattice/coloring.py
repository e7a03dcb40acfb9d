"""Graph coloring on chimera tiles with gap-optimal coefficients.

Each vertex tile carries one spin pair (s, r) per color; a diagonal-cell
objective picks exactly one matched pair, inter-tile couplers penalize equal
colors across an edge, and ferromagnetic chains propagate a vertex through
its tiles.  For q <= 4 a single cell per tile suffices and the assembled
classical gap is 2; for q > 4 the tile grows to ceil(q/4) cells per side and
the best achievable gap drops to 4/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .embedding import EmbeddedQubo
from .qubo import (
    BINARY,
    SPIN,
    Qubo,
    QuboBuilder,
    Spectrum,
    _iter_state_blocks,
    _split_energy_blocks,
    brute_force,
    clamp,
)
from .tiling import TileHamiltonians, TilePlan, route_graph_to_tiles, stitch


class ColoringError(ValueError):
    """Invalid coloring parameter."""


@dataclass(frozen=True)
class ColoringInstance:
    edges: tuple[tuple[int, int], ...]
    q: int
    num_vertices: int | None = None

    def __post_init__(self):
        if self.q < 1:
            raise ColoringError("need at least one color")
        for u, v in self.edges:
            if u == v:
                raise ColoringError("self loops are not colorable")

    @property
    def n(self) -> int:
        if self.num_vertices is not None:
            return self.num_vertices
        return 1 + max((max(e) for e in self.edges), default=0)


@dataclass
class ColoringTileSet:
    """Tile templates plus the coefficient table they were built from."""

    q: int
    ell: int
    lam: float
    coefficients: dict[str, float]
    tiles: TileHamiltonians
    ground_tile_energy: float


def h_diag(s_names: Sequence[str], r_names: Sequence[str]) -> Qubo:
    """One-matched-pair objective on a single cell.

    (sum s)(sum r) - 2 sum s_i r_i + 2 sum (s_i + r_i): its four ground states
    have exactly one pair (s_i, r_i) up and the rest down; the gap is 4.
    """
    b = QuboBuilder(SPIN)
    for name in list(s_names) + list(r_names):
        b.var(name)
    for i, s in enumerate(s_names):
        for j, r in enumerate(r_names):
            b.add_quadratic(s, r, 1.0 if i != j else -1.0)
    for name in list(s_names) + list(r_names):
        b.add_linear(name, 2.0)
    return b.build()


def h_off(s_names: Sequence[str], r_names: Sequence[str]) -> Qubo:
    """All-down objective for off-diagonal cells, in coupler form.

    Equals (S + 4)(R + 4)/2 - 8 with S, R the side sums: half-weight couplers
    on every intra-cell pair plus uniform fields of 2.
    """
    b = QuboBuilder(SPIN)
    for name in list(s_names) + list(r_names):
        b.var(name)
    for s in s_names:
        for r in r_names:
            b.add_quadratic(s, r, 0.5)
    for name in list(s_names) + list(r_names):
        b.add_linear(name, 2.0)
    return b.build()


def _slot(tile: str, side: str, track: int, m: int, n: int) -> str:
    return f"{tile}:{side}{track}:{m}:{n}"


def _clamp_unused(template: Qubo, q: int, ell: int, tiles: Iterable[str]) -> Qubo:
    """Pin the spins of color slots at or above q to -1."""
    pins: dict[str, int] = {}
    if template.var_names is None:
        return template
    names = set(template.var_names)
    for tile in tiles:
        for color in range(4 * ell):
            if color < q:
                continue
            d, i = divmod(color, 4)
            for m in range(ell):
                for name in (_slot(tile, "s", i, m, d), _slot(tile, "r", i, d, m)):
                    if name in names:
                        pins[name] = -1
    return clamp(template, pins) if pins else template


def _color_slots(q: int, ell: int) -> dict[int, list[str]]:
    colors: dict[int, list[str]] = {}
    for color in range(q):
        d, i = divmod(color, 4)
        slots = [_slot("a", "s", i, m, d) for m in range(ell)]
        slots += [_slot("a", "r", i, d, n) for n in range(ell)]
        colors[color] = sorted(set(slots))
    return colors


def build_tileset(
    q: int,
    lam: float | None = None,
    edge_weight: float | None = None,
    table: dict[str, float] | None = None,
) -> ColoringTileSet:
    """Templates with the gap-optimal coefficients for q colors.

    q <= 4: vertex tile is half of the matched-pair objective (lambda = 1/2),
    edge couplers (s_u + 1)(s_v + 1)/2, unit chains; assembled gap 2.
    q > 4: the tile spans ceil(q/4) cells, scaled by 2/3, with edge couplers
    at 1/3; assembled gap 4/3.  Unused color slots are pinned down.
    """
    if q < 2:
        raise ColoringError("coloring with q < 2 is trivial; nothing to build")
    return _build_tileset_any(q, lam, edge_weight, table)


def _build_tileset_any(
    q: int,
    lam: float | None = None,
    edge_weight: float | None = None,
    table: dict[str, float] | None = None,
) -> ColoringTileSet:
    ell = max(1, math.ceil(q / 4))
    if q <= 4:
        lam = 0.5 if lam is None else lam
        edge_weight = (1.0 - lam) if edge_weight is None else edge_weight
        tbl = {"A": 1.0, "B": -2.0, "C": 2.0, "lambda": lam, "D": edge_weight}
        if table:
            tbl.update(table)
        vertex = QuboBuilder(SPIN)
        s_names = [_slot("a", "s", i, 0, 0) for i in range(4)]
        r_names = [_slot("a", "r", i, 0, 0) for i in range(4)]
        for name in s_names + r_names:
            vertex.var(name)
        for i, s in enumerate(s_names):
            for j, r in enumerate(r_names):
                coeff = tbl["A"] + (tbl["B"] if i == j else 0.0)
                vertex.add_quadratic(s, r, tbl["lambda"] * coeff)
        for name in s_names + r_names:
            vertex.add_linear(name, tbl["lambda"] * tbl["C"])
        edge_h = QuboBuilder(SPIN)
        for i in range(4):
            a, bb = _slot("a", "s", i, 0, 0), _slot("b", "s", i, 0, 0)
            edge_h.add_offset(tbl["D"])
            edge_h.add_linear(a, tbl["D"])
            edge_h.add_linear(bb, tbl["D"])
            edge_h.add_quadratic(a, bb, tbl["D"])
        edge_v = QuboBuilder(SPIN)
        for i in range(4):
            a, bb = _slot("a", "r", i, 0, 0), _slot("b", "r", i, 0, 0)
            edge_v.add_offset(tbl["D"])
            edge_v.add_linear(a, tbl["D"])
            edge_v.add_linear(bb, tbl["D"])
            edge_v.add_quadratic(a, bb, tbl["D"])
        chain_h = QuboBuilder(SPIN)
        chain_v = QuboBuilder(SPIN)
        for i in range(4):
            chain_h.add_quadratic(_slot("a", "s", i, 0, 0), _slot("b", "s", i, 0, 0), -1.0)
            chain_v.add_quadratic(_slot("a", "r", i, 0, 0), _slot("b", "r", i, 0, 0), -1.0)
        templates = [vertex.build(), edge_h.build(), edge_v.build(), chain_h.build(), chain_v.build()]
        templates = [
            _clamp_unused(t, q, ell, ("a", "b")) for t in templates
        ]
        tiles = TileHamiltonians(
            J=4,
            ell=1,
            q=q,
            vertex_tile=templates[0],
            edge_horizontal=templates[1],
            edge_vertical=templates[2],
            chain_horizontal=templates[3],
            chain_vertical=templates[4],
            colors={c: s for c, s in _color_slots(q, 1).items()},
        )
        ground = _single_tile_ground(tiles)
        return ColoringTileSet(q, 1, tbl["lambda"], tbl, tiles, ground)

    scale = 2.0 / 3.0 if lam is None else lam
    # per-spin field budget leaves 1 - lambda for each of two possible edges
    g = (1.0 - scale) if edge_weight is None else edge_weight
    tbl = {"lambda": scale, "G": g}
    vertex = QuboBuilder(SPIN)
    for m in range(ell):
        for n in range(ell):
            s_names = [_slot("a", "s", i, m, n) for i in range(4)]
            r_names = [_slot("a", "r", i, m, n) for i in range(4)]
            frag = h_diag(s_names, r_names) if m == n else h_off(s_names, r_names)
            weight = scale * (0.5 if m == n else 1.0)
            for i, c in frag.linear.items():
                vertex.add_linear(frag.name_of(i), weight * c)
            for (i, j), c in frag.quadratic.items():
                vertex.add_quadratic(frag.name_of(i), frag.name_of(j), weight * c)
    for i in range(4):
        for n in range(ell):
            for m in range(ell - 1):
                vertex.add_quadratic(
                    _slot("a", "s", i, m, n), _slot("a", "s", i, m + 1, n), -scale
                )
        for m in range(ell):
            for n in range(ell - 1):
                vertex.add_quadratic(
                    _slot("a", "r", i, m, n), _slot("a", "r", i, m, n + 1), -scale
                )
    edge_h = QuboBuilder(SPIN)
    edge_v = QuboBuilder(SPIN)
    for i in range(4):
        for n in range(ell):
            a, bb = _slot("a", "s", i, ell - 1, n), _slot("b", "s", i, 0, n)
            edge_h.add_offset(g)
            edge_h.add_linear(a, g)
            edge_h.add_linear(bb, g)
            edge_h.add_quadratic(a, bb, g)
            a, bb = _slot("a", "r", i, n, ell - 1), _slot("b", "r", i, n, 0)
            edge_v.add_offset(g)
            edge_v.add_linear(a, g)
            edge_v.add_linear(bb, g)
            edge_v.add_quadratic(a, bb, g)
    chain_h = QuboBuilder(SPIN)
    chain_v = QuboBuilder(SPIN)
    for i in range(4):
        for n in range(ell):
            chain_h.add_quadratic(
                _slot("a", "s", i, ell - 1, n), _slot("b", "s", i, 0, n), -scale
            )
            chain_v.add_quadratic(
                _slot("a", "r", i, n, ell - 1), _slot("b", "r", i, n, 0), -scale
            )
    templates = [vertex.build(), edge_h.build(), edge_v.build(), chain_h.build(), chain_v.build()]
    templates = [_clamp_unused(t, q, ell, ("a", "b")) for t in templates]
    tiles = TileHamiltonians(
        J=4,
        ell=ell,
        q=q,
        vertex_tile=templates[0],
        edge_horizontal=templates[1],
        edge_vertical=templates[2],
        chain_horizontal=templates[3],
        chain_vertical=templates[4],
        colors=_color_slots(q, ell),
    )
    ground = _single_tile_ground(tiles)
    return ColoringTileSet(q, ell, scale, tbl, tiles, ground)


def _single_tile_ground(tiles: TileHamiltonians) -> float:
    plan = TilePlan(tiles.ell, [["v0"]], 1)
    e = stitch(plan, tiles)
    return _restricted_spectrum(e).ground_energy


def _restricted_spectrum(e: EmbeddedQubo) -> Spectrum:
    """Spectrum over chain-intact states via the contracted objective."""
    return brute_force(e.chain_intact_qubo(), cap=24)


def build_coloring_qubo(inst: ColoringInstance) -> Qubo:
    """Logical objective over x:v:c: one color per vertex, none shared on an edge."""
    q = Qubo(BINARY, inst.n * inst.q)
    q.var_names = [f"x:{v}:{c}" for v in range(inst.n) for c in range(inst.q)]
    for v in range(inst.n):
        q.add_squared_affine(1.0, [(v * inst.q + c, -1.0) for c in range(inst.q)])
    for u, v in inst.edges:
        for c in range(inst.q):
            q.add_quadratic(u * inst.q + c, v * inst.q + c, 1.0)
    return q


def compile_coloring(inst: ColoringInstance, tileset: ColoringTileSet | None = None) -> EmbeddedQubo:
    """Route the graph to tiles and stitch the coloring templates.

    Chain-intact ground states correspond one-to-one with proper q-colorings;
    uncolorable instances sit at least one assembled gap above the
    coloring-feasible level.  q = 1 compiles through the same machinery with
    the other color slots pinned.
    """
    tileset = _build_tileset_any(inst.q) if tileset is None else tileset
    plan = route_graph_to_tiles(inst.edges, tile_side=tileset.ell, num_vertices=inst.n)
    return stitch(plan, tileset.tiles)


def coloring_feasible_energy(inst: ColoringInstance, tileset: ColoringTileSet) -> float:
    """Energy every proper-coloring state would have.

    Computed by re-stitching the same plan with the edge templates zeroed:
    what remains is the per-tile grounds plus aligned chains, which is exactly
    what a conflict-free state pays.  Valid whether or not the instance is
    actually colorable.
    """
    plan = route_graph_to_tiles(inst.edges, tile_side=tileset.ell, num_vertices=inst.n)
    e = stitch(plan, _zero_edge_tiles(tileset.q, tileset.lam))
    return _restricted_spectrum(e).ground_energy


@lru_cache(maxsize=8)
def _zero_edge_tiles(q: int, lam: float) -> TileHamiltonians:
    return _build_tileset_any(q, lam=lam, edge_weight=0.0).tiles


def count_ground_colorings(inst: ColoringInstance, e: EmbeddedQubo) -> tuple[int, float]:
    """Number of chain-intact ground states and the ground energy."""
    spec = _restricted_spectrum(e)
    return spec.state_count_at_ground, spec.ground_energy


def count_states_at_coloring_level(
    inst: ColoringInstance, e: EmbeddedQubo, tileset: ColoringTileSet
) -> int:
    """Chain-intact states at the coloring-feasible energy level.

    Equals the proper q-coloring count: zero for uncolorable instances, where
    the whole spectrum sits above the feasible level.
    """
    level = coloring_feasible_energy(inst, tileset)
    eff = e.chain_intact_qubo()
    if eff.num_vars > 24:
        raise ColoringError("instance too large for exact level counting")
    return sum(
        int(np.count_nonzero(np.abs(energies - level) <= 1e-9))
        for energies, _ in _split_energy_blocks(eff)
    )


def decode_coloring(inst: ColoringInstance, assignment, broken_chains: int = 0) -> dict:
    """Colour per vertex from the bits x:v:c at index v * q + c.

    A vertex with no colour bit or several set gets None; the colouring is
    proper when every vertex has one colour and no edge joins equal colours.
    """
    colors = []
    for v in range(inst.n):
        hot = [c for c in range(inst.q) if assignment[v * inst.q + c] == 1]
        colors.append(hot[0] if len(hot) == 1 else None)
    proper = None not in colors and all(colors[u] != colors[v] for u, v in inst.edges)
    return {"colors": colors, "proper": proper, "broken_chains": broken_chains}


def verify_gap(tileset: ColoringTileSet, assembly: str) -> Spectrum:
    """Exact spectrum of a named small assembly.

    Assemblies: "1-tile", "2-tile-hor", "2-tile-vert" (an edge between two
    vertices), and "chain" (one vertex spanning two tiles).  For q > 4 the
    spectrum is taken over the chain-intact subspace.
    """
    tiles = tileset.tiles
    if assembly == "1-tile":
        plan = TilePlan(tiles.ell, [["v0"]], 1)
    elif assembly == "2-tile-hor":
        plan = TilePlan(tiles.ell, [["v0", "v1"]], 2)
        plan.adjacency_realization[(0, 1)] = ((0, 0), (0, 1))
    elif assembly == "2-tile-vert":
        plan = TilePlan(tiles.ell, [["v0"], ["v1"]], 2)
        plan.adjacency_realization[(0, 1)] = ((0, 0), (1, 0))
    elif assembly == "chain":
        plan = TilePlan(tiles.ell, [["v0", "v0"]], 1)
    else:
        raise ColoringError(f"unknown assembly {assembly!r}")
    e = stitch(plan, tiles)
    if tileset.q <= 4 and e.physical.num_vars <= 16:
        return brute_force(e.physical)
    return _restricted_spectrum(e)


def grid_search_coefficients(
    q_class: str, resolution: int = 5
) -> tuple[dict[str, float], float]:
    """Coarse grid search of the symmetric coefficient ansatz.

    Maximizes the worst gap over the single-tile and two-tile assemblies,
    keeping only tables whose single-tile ground states are the proper
    one-hot color states and whose assembled coefficients respect the
    hardware window.  The best table for q <= 4 reproduces
    (A, B, C, lambda, D) = (1, -2, 2, 1/2, 1/2) with gap 2; on the q > 4
    budget surface the gap never exceeds 4/3.
    """
    if resolution < 2:
        raise ColoringError("resolution must be at least 2 points per axis")
    if q_class == "le4":
        return _grid_search_le4(resolution)
    if q_class == "gt4":
        return _grid_search_gt4(resolution)
    raise ColoringError(f"unknown class {q_class!r}")


def _grid_search_le4(resolution: int) -> tuple[dict[str, float], float]:
    tiles0 = build_tileset(4)
    single = _assembly_states(tiles0, "1-tile")
    double = _assembly_states(tiles0, "2-tile-hor")
    valid_single = _valid_one_hot_indices(single, 4, 1)
    valid_double = _valid_coloring_indices(double, 4, 2)

    a_grid = sorted(set(np.linspace(-1, 1, resolution)) | {1.0})
    b_grid = sorted(set(np.linspace(-2, 2, resolution)) | {-2.0})
    c_grid = sorted(set(np.linspace(-2, 2, resolution)) | {2.0})
    l_grid = sorted(set(np.linspace(0.1, 0.9, resolution)) | {0.5})
    best_gap, best_table = -math.inf, None
    for A in a_grid:
        for B in b_grid:
            if abs(A + B) > 1 + 1e-12:
                continue
            for C in c_grid:
                for lam in l_grid:
                    D = (2.0 - lam * C) / 2.0
                    if abs(D) > 1 + 1e-12 or D <= 0:
                        continue
                    gap = _table_gap(
                        single, double, valid_single, valid_double, A, B, C, lam, D
                    )
                    if gap is None:
                        continue
                    table = {
                        "A": float(A),
                        "B": float(B),
                        "C": float(C),
                        "lambda": float(lam),
                        "D": float(D),
                    }
                    if gap > best_gap + 1e-12:
                        best_gap, best_table = gap, table
    assert best_table is not None
    return best_table, best_gap


def _assembly_states(tileset: ColoringTileSet, assembly: str) -> dict[str, np.ndarray]:
    vertices = 1 if assembly == "1-tile" else 2
    n_spins = 8 * vertices
    spins = np.concatenate(list(_iter_state_blocks(n_spins, SPIN)))
    # spin order per tile: s0..s3, r0..r3
    out: dict[str, np.ndarray] = {}
    s = {}
    r = {}
    for t in range(vertices):
        s[t] = spins[:, 8 * t : 8 * t + 4]
        r[t] = spins[:, 8 * t + 4 : 8 * t + 8]
    f_aa = sum(s[t].sum(1) * r[t].sum(1) for t in range(vertices))
    f_b = sum((s[t] * r[t]).sum(1) for t in range(vertices))
    f_c = sum(s[t].sum(1) + r[t].sum(1) for t in range(vertices))
    out["A"] = f_aa.astype(np.float64)
    out["B"] = f_b.astype(np.float64)
    out["C"] = f_c.astype(np.float64)
    if vertices == 2:
        out["D"] = ((s[0] + 1) * (s[1] + 1)).sum(1).astype(np.float64)
    out["spins"] = spins
    return out


def _valid_one_hot_indices(states: dict[str, np.ndarray], q: int, vertices: int) -> np.ndarray:
    spins = states["spins"]
    mask = np.ones(len(spins), dtype=bool)
    for t in range(vertices):
        s = spins[:, 8 * t : 8 * t + 4]
        r = spins[:, 8 * t + 4 : 8 * t + 8]
        mask &= (s == r).all(1)
        mask &= (s.sum(1) == -2)
    return np.nonzero(mask)[0]


def _valid_coloring_indices(states: dict[str, np.ndarray], q: int, vertices: int) -> np.ndarray:
    spins = states["spins"]
    idx = _valid_one_hot_indices(states, q, vertices)
    s0 = spins[idx, 0:4]
    s1 = spins[idx, 8:12]
    differ = (s0 != s1).any(1)
    return idx[differ]


def _table_gap(single, double, valid_single, valid_double, A, B, C, lam, D):
    e1 = lam * (A * single["A"] + B * single["B"] + C * single["C"])
    ground = e1[valid_single].min()
    if not math.isclose(e1.min(), ground, abs_tol=1e-9):
        return None
    at_ground = np.isclose(e1, e1.min(), atol=1e-9)
    if at_ground.sum() != len(valid_single) or not at_ground[valid_single].all():
        return None
    rest = e1[~at_ground]
    gap1 = float(rest.min() - e1.min()) if rest.size else math.inf
    e2 = lam * (A * double["A"] + B * double["B"] + C * double["C"]) + D * double["D"]
    ground2 = e2[valid_double].min()
    if not math.isclose(e2.min(), ground2, abs_tol=1e-9):
        return None
    at2 = np.isclose(e2, e2.min(), atol=1e-9)
    if not at2[valid_double].all() or at2.sum() != len(valid_double):
        return None
    rest2 = e2[~at2]
    gap2 = float(rest2.min() - e2.min()) if rest2.size else math.inf
    return min(gap1, gap2)


def _grid_search_gt4(resolution: int) -> tuple[dict[str, float], float]:
    best_gap, best_table = -math.inf, None
    grid = sorted(set(np.linspace(0.15, 0.95, resolution)) | {2.0 / 3.0})
    for lam in grid:
        g = 1.0 - lam
        if g <= 0:
            continue
        tileset = build_tileset(8, lam=lam, edge_weight=g)
        spec1 = verify_gap(tileset, "1-tile")
        spec2 = verify_gap(tileset, "2-tile-hor")
        gap = min(spec1.gap, spec2.gap)
        if gap > best_gap + 1e-12:
            best_gap, best_table = gap, {"lambda": lam, "G": g}
    assert best_table is not None
    return best_table, best_gap
