"""Graph coloring on chimera tiles with gap-optimal coefficients.

One construction serves every q.  A vertex tile is an ell x ell block of
K_{4,4} cells, ell = ceil(q/4), carrying one spin pair (s, r) per color: a
matched-pair objective on the diagonal cells picks exactly one color, all-down
objectives hold the off-diagonal cells, ferromagnetic chains run inside and
between a vertex's tiles, and edge couplers penalize equal colors across an
edge.  Only the per-class weights differ: for q <= 4 (one cell) the assembled
classical gap is 2; for q > 4 the best achievable gap drops to 4/3.  The
coefficient grid search reads its energies off the same stitched templates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .embedding import EmbeddedQubo
from .qubo import (
    BINARY,
    COEFF_TOL,
    SPIN,
    Qubo,
    QuboBuilder,
    Spectrum,
    _split_energy_blocks,
    brute_force,
    clamp,
)
from .tiling import (
    TileHamiltonians, TilePlan, _assign_realizations, _plan, _slot_name, _vertex_count,
    route_graph_to_tiles, stitch,
)


class ColoringError(ValueError):
    """Invalid coloring parameter."""


@dataclass(frozen=True)
class ColoringInstance:
    """q-colouring of a graph with n >= 1 vertices; q below 1 or a graph
    `tiling._vertex_count` refuses raises `ColoringError`."""

    edges: tuple[tuple[int, int], ...]
    q: int
    num_vertices: int | None = None
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.q < 1:
            raise ColoringError("need at least one color")
        object.__setattr__(self, "n", _vertex_count(self.edges, self.num_vertices, 1, ColoringError))


@dataclass
class ColoringTileSet:
    """Tile templates for q colors on ell x ell-cell tiles."""

    q: int
    tiles: TileHamiltonians


#: (A, B, C) of the one-matched-pair and all-down cell objectives.  The
#: all-down one equals (S + 4)(R + 4)/2 - 8 with S, R the side sums.
_DIAG = (1.0, -2.0, 2.0)
_OFF = (0.5, 0.0, 2.0)


def _cell_terms(
    b: QuboBuilder, s_names: Sequence[str], r_names: Sequence[str],
    weight: float, A: float, B: float, C: float,
) -> None:
    """Add weight * [sum_ij (A + B [i = j]) s_i r_j + C sum_i (s_i + r_i)]."""
    for name in list(s_names) + list(r_names):  # variable order s0..s3, r0..r3
        b.add_linear(name, weight * C)
    for i, s in enumerate(s_names):
        for j, r in enumerate(r_names):
            b.add_quadratic(s, r, weight * (A + (B if i == j else 0.0)))


def h_diag(s_names: Sequence[str], r_names: Sequence[str]) -> Qubo:
    """One-matched-pair objective on a single cell.

    (sum s)(sum r) - 2 sum s_i r_i + 2 sum (s_i + r_i): its four ground states
    have exactly one pair (s_i, r_i) up and the rest down; the gap is 4.
    """
    b = QuboBuilder(SPIN)
    _cell_terms(b, s_names, r_names, 1.0, *_DIAG)
    return b.build()


def _track_cell(side: str, j: int, k: int) -> tuple[int, int]:
    """Cell (m, n) at step j along a side's tracks and k across them.

    s tracks run along m (horizontally), r tracks along n (vertically).
    """
    return (j, k) if side == "s" else (k, j)


def _color_slots(color: int, ell: int, tile: str = "a") -> list[str]:
    """Chain slots of one color inside a tile: track color % 4 on both sides."""
    d, i = divmod(color, 4)
    slots = [_slot_name(tile, "s", i, m, d) for m in range(ell)]
    slots += [_slot_name(tile, "r", i, d, n) for n in range(ell)]
    return sorted(set(slots))


def _clamp_unused(template: Qubo, q: int, ell: int) -> Qubo:
    """Pin the spins of color slots at or above q to -1."""
    names = set(template.var_names)
    pins = {
        name: -1
        for tile in "ab"
        for color in range(q, 4 * ell)
        for name in _color_slots(color, ell, tile)
        if name in names
    }
    return clamp(template, pins) if pins else template


def build_tileset(q: int) -> ColoringTileSet:
    """Templates with the gap-optimal coefficients for q colors.

    One construction for every q: the vertex tile is ell x ell K_{4,4} cells,
    ell = ceil(q/4), each carrying a weighted cell objective (A, B, C), with
    chains along the tracks inside and between a vertex's tiles and edge
    couplers w (s_u + 1)(s_v + 1) between the facing slots of adjacent tiles.
    Only the weights differ per class:
    q <= 4: diagonal lambda (A, B, C) = (1, -2, 2) with lambda = 1/2, unit
    chains, edge weight D = 1 - lambda = 1/2; assembled gap 2.
    q > 4: diagonal lambda/2 (1, -2, 2), off-diagonal lambda (1/2, 0, 2),
    chains lambda = 2/3, edge weight G = 1 - lambda = 1/3; assembled gap 4/3.
    Unused color slots are pinned down.
    """
    if q < 2:
        raise ColoringError("coloring with q < 2 is trivial; nothing to build")
    return _build_tileset_any(q)


def _build_tileset_any(q: int, table: dict[str, float] | None = None) -> ColoringTileSet:
    """`build_tileset` for any q, with `table` overriding the class's
    coefficients: A, B, C, lambda and the edge weight D for q <= 4, lambda and
    the edge weight G for q > 4 (the tables `grid_search_coefficients`
    returns).  The edge weight defaults to 1 - lambda."""
    ell = max(1, math.ceil(q / 4))
    defaults = {"A": 1.0, "B": -2.0, "C": 2.0, "lambda": 0.5} if q <= 4 else {"lambda": 2.0 / 3.0}
    coefficients = {**defaults, **(table or {})}
    lam = coefficients["lambda"]
    # per-spin field budget leaves 1 - lambda for each of two possible edges
    edge = coefficients.get("D" if q <= 4 else "G", 1.0 - lam)
    if q <= 4:
        diag, chain = (lam, *(coefficients[k] for k in "ABC")), 1.0
    else:
        diag, chain = (lam / 2, *_DIAG), lam
    off = (lam, *_OFF)  # off-diagonal cells exist only for ell > 1

    vertex = QuboBuilder(SPIN)
    for m in range(ell):
        for n in range(ell):
            s_names = [_slot_name("a", "s", i, m, n) for i in range(4)]
            r_names = [_slot_name("a", "r", i, m, n) for i in range(4)]
            _cell_terms(vertex, s_names, r_names, *(diag if m == n else off))
    for i in range(4):
        for side in "sr":
            for k in range(ell):
                for j in range(ell - 1):
                    a = _slot_name("a", side, i, *_track_cell(side, j, k))
                    b = _slot_name("a", side, i, *_track_cell(side, j + 1, k))
                    vertex.add_quadratic(a, b, -chain)

    # edge and chain templates couple facing slots across the a|b boundary:
    # s tracks on the horizontal axis, r tracks on the vertical one
    edges, chains = [], []
    for side in "sr":
        edge_b, chain_b = QuboBuilder(SPIN), QuboBuilder(SPIN)
        for i in range(4):
            for k in range(ell):
                a = _slot_name("a", side, i, *_track_cell(side, ell - 1, k))
                b = _slot_name("b", side, i, *_track_cell(side, 0, k))
                edge_b.add_offset(edge)
                edge_b.add_linear(a, edge)
                edge_b.add_linear(b, edge)
                edge_b.add_quadratic(a, b, edge)
                chain_b.add_quadratic(a, b, -chain)
        edges.append(edge_b.build())
        chains.append(chain_b.build())
    templates = [_clamp_unused(t, q, ell) for t in (vertex.build(), *edges, *chains)]
    colors = {color: _color_slots(color, ell) for color in range(q)}
    tiles = TileHamiltonians(4, ell, q, *templates, colors=colors)
    return ColoringTileSet(q, tiles)


#: The named small assemblies of `verify_gap`: vertex count, `{(r, c): tag}`
#: tiles and the edges the plan realizes.
_ASSEMBLIES = {
    "1-tile": (1, {(0, 0): "v0"}, []),
    "2-tile-hor": (2, {(0, 0): "v0", (0, 1): "v1"}, [(0, 1)]),
    "2-tile-vert": (2, {(0, 0): "v0", (1, 0): "v1"}, [(0, 1)]),
    "chain": (1, {(0, 0): "v0", (0, 1): "v0"}, []),
}


def _assembly_plan(assembly: str) -> TilePlan:
    """Tile plan of a named small assembly (see `verify_gap`)."""
    if assembly not in _ASSEMBLIES:
        raise ColoringError(f"unknown assembly {assembly!r}")
    n, cells, edges = _ASSEMBLIES[assembly]
    plan = _plan(n, cells)
    _assign_realizations(plan, edges)
    return plan


#: Variable cap of the chain-intact spectra; a one-tile assembly has q of them.
_RESTRICTED_CAP = 24


def build_coloring_qubo(inst: ColoringInstance) -> Qubo:
    """Logical objective over x:v:c: one color per vertex, none shared on an
    edge.  Edges are a set, as the router reads them: a repeat adds nothing."""
    q = Qubo(BINARY, inst.n * inst.q)
    q.var_names = [f"x:{v}:{c}" for v in range(inst.n) for c in range(inst.q)]
    for v in range(inst.n):
        q.add_squared_affine(1.0, [(v * inst.q + c, -1.0) for c in range(inst.q)])
    for u, v in dict.fromkeys(tuple(sorted(e)) for e in inst.edges):
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
    plan = route_graph_to_tiles(inst.edges, num_vertices=inst.n)
    return stitch(plan, tileset.tiles)


def coloring_feasible_energy(contracted: Qubo, q: int) -> float:
    """Energy every proper-coloring state has, from one state of `contracted`.

    `contracted` is a coloring's chain-intact objective over the spins
    v * q + c.  Only edge templates couple two vertices' spins, each coupler
    w as w (1 + s_a)(1 + s_b), which vanishes unless both ends carry the same
    color.  So the state with every vertex on color 0, less those couplers'
    terms, pays what every proper coloring pays, colorable instance or not;
    nothing is enumerated, routed or stitched.
    """
    state = [1 if i % q == 0 else -1 for i in range(contracted.num_vars)]
    edge_terms = sum(
        w * (1 + state[i]) * (1 + state[j])
        for (i, j), w in contracted.quadratic.items()
        if i // q != j // q
    )
    return contracted.energy(state) - edge_terms


def count_states_at_coloring_level(
    inst: ColoringInstance, e: EmbeddedQubo, tileset: ColoringTileSet
) -> int:
    """Chain-intact states at the coloring-feasible level, from one spectrum.

    The ground count when the ground energy is within `COEFF_TOL` of the
    level, which equals the proper q-coloring count, or zero when it lies
    above (uncolorable).  A state below the level, as a negative edge weight
    gives, raises `ColoringError` naming it and its energy, and so does a
    tileset for another number of colors.
    """
    if tileset.q != inst.q:
        raise ColoringError(f"tileset has {tileset.q} colors, the instance {inst.q}")
    contracted = e.chain_intact_qubo()
    level = coloring_feasible_energy(contracted, inst.q)
    spec = brute_force(contracted, cap=_RESTRICTED_CAP)
    if spec.ground_energy < level - COEFF_TOL:
        raise ColoringError(
            f"chain-intact state {spec.ground_states[0]} has energy {spec.ground_energy!r}, "
            f"below the coloring-feasible level {level!r}"
        )
    return spec.state_count_at_ground if spec.ground_energy <= level + COEFF_TOL else 0


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


def _gap_objective(e: EmbeddedQubo, q: int) -> tuple[Qubo, Callable[[Sequence[int]], tuple]]:
    """The objective `verify_gap` reads, and the map of a logical state into it."""
    return (e.physical, e.lift) if q <= 4 else (e.logical, tuple)


def verify_gap(tileset: ColoringTileSet, assembly: str) -> Spectrum:
    """Exact spectrum of a named small assembly.

    Assemblies: "1-tile", "2-tile-hor", "2-tile-vert" (an edge between two
    vertices), and "chain" (one vertex spanning two tiles).  For q > 4 the
    spectrum is taken over the chain-intact subspace, whose objective `stitch`
    leaves in `e.logical`.
    """
    e = stitch(_assembly_plan(assembly), tileset.tiles)
    return brute_force(_gap_objective(e, tileset.q)[0], cap=_RESTRICTED_CAP)


def grid_search_coefficients(
    q_class: str, resolution: int = 5
) -> tuple[dict[str, float], float]:
    """Coarse grid search of the symmetric coefficient ansatz.

    One loop for both classes: each candidate table of the class is scored on
    its energy model by one rule (`_table_gap`), the worst gap over the
    single-tile and two-tile assemblies, and gets no score unless their
    ground states are exactly the proper colorings.  A later table replaces
    the best only with a gap larger by more than 1e-12.  "le4" reproduces
    (A, B, C, lambda, D) = (1, -2, 2, 1/2, 1/2) with gap 2; on the "gt4"
    budget line G = 1 - lambda the gap never exceeds 4/3, its peak at 2/3.
    """
    if resolution < 2:
        raise ColoringError("resolution must be at least 2 points per axis")
    if q_class not in _CLASSES:
        raise ColoringError(f"unknown class {q_class!r}")
    model = _energy_model(q_class)
    best_gap, best_table = -math.inf, None
    for table in _CLASSES[q_class][2](resolution):
        gap = _table_gap(model, table)
        if gap is not None and gap > best_gap + 1e-12:
            best_gap, best_table = gap, table
    assert best_table is not None
    return best_table, best_gap


def _le4_tables(resolution: int) -> Iterator[dict[str, float]]:
    """q <= 4 candidates: A, B, C and lambda on the grid, |A + B| <= 1, and
    the edge weight D = (2 - lambda C) / 2 in (0, 1]."""
    grids = [
        sorted(map(float, set(np.linspace(lo, hi, resolution)) | {paper}))
        for lo, hi, paper in ((-1, 1, 1.0), (-2, 2, -2.0), (-2, 2, 2.0), (0.1, 0.9, 0.5))
    ]
    for A, B, C, lam in itertools.product(*grids):
        D = (2.0 - lam * C) / 2.0
        if abs(A + B) <= 1 + 1e-12 and 0 < D <= 1 + 1e-12:
            yield {"A": A, "B": B, "C": C, "lambda": lam, "D": D}


def _gt4_tables(resolution: int) -> Iterator[dict[str, float]]:
    """q > 4 candidates: lambda on the grid, the edge weight G = 1 - lambda > 0."""
    for lam in sorted(map(float, set(np.linspace(0.15, 0.95, resolution)) | {2.0 / 3.0})):
        if 1.0 - lam > 0:
            yield {"lambda": lam, "G": 1.0 - lam}


#: Per class: the q whose stitched templates give its energies, the terms of
#: its energy model, and its candidate tables in search order.
_CLASSES = {
    "le4": (4, ("A", "B", "C", "D"), _le4_tables),
    "gt4": (8, ("lambda", "G"), _gt4_tables),
}


@functools.lru_cache(maxsize=None)
def _energy_model(q_class: str) -> tuple[
    tuple[dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray], ...
]:
    """Distinct per-term energies of a class's assemblies, with their valid states.

    Assembled energies are linear in the class's terms (lambda*A, lambda*B,
    lambda*C and D for "le4"; lambda and G for "gt4"), so each term's
    energies over all states come from the templates stitched at its unit
    table, over the objective `verify_gap` reads.  States with equal term
    energies have equal energies under every table, so only the distinct
    term columns are kept (22 of 2^8 one-tile states and 440 of 2^16
    two-tile ones for "le4", 8 and 87 for "gt4"), with their state counts.
    The valid states are the lifts of the assembly's proper colorings, as
    codes in increasing order (bit i of a code is variable i, up when set).
    One (columns by term, state count per column, column of each valid
    state, valid codes) tuple per assembly, "1-tile" and "2-tile-hor"; built
    once per class and process, on first use, with read-only arrays.
    """
    q, terms, _ = _CLASSES[q_class]
    # lambda scales the le4 cell terms, so it stays 1 unless it is a term
    unit = {"lambda": 1.0, **dict.fromkeys(terms, 0.0)}
    tiles = {term: _build_tileset_any(q, {**unit, term: 1.0}).tiles for term in terms}
    model = []
    for assembly in ("1-tile", "2-tile-hor"):
        plan = _assembly_plan(assembly)
        energies = {}
        for term, t in tiles.items():
            objective, lift = _gap_objective(stitch(plan, t), q)
            energies[term] = np.concatenate([e for e, _ in _split_energy_blocks(objective)])
        n, _, edges = _ASSEMBLIES[assembly]
        codes = []
        for colors in itertools.product(range(q), repeat=n):
            if all(colors[u] != colors[v] for u, v in edges):
                state = lift([1 if c == colors[v] else -1 for v in range(n) for c in range(q)])
                codes.append(sum(1 << i for i, s in enumerate(state) if s == 1))
        valid = np.array(sorted(codes))
        # group equal term rows: sort once, then gather one term at a time to
        # mark where a sorted row differs from the one before it
        order = np.lexsort([energies[term] for term in reversed(terms)])
        starts = np.zeros(len(order), dtype=bool)
        starts[0] = True
        for term in terms:
            ordered = energies[term][order]
            starts[1:] |= ordered[1:] != ordered[:-1]
            del ordered  # before the next term's copy is made
        first = np.flatnonzero(starts)
        columns = {term: energies[term][order[first]] for term in terms}
        counts = np.diff(first, append=len(order))
        # a valid state's column is the one holding its term energies
        held = [[columns[t] == energies[t][v] for t in terms] for v in valid]
        valid_columns = np.array([np.logical_and.reduce(h).argmax() for h in held])
        for array in (*columns.values(), counts, valid_columns, valid):
            array.flags.writeable = False
        model.append((columns, counts, valid_columns, valid))
    return tuple(model)


def _table_gap(model, table: dict[str, float]) -> float | None:
    """Worst gap of a coefficient table over the model's assemblies.

    None unless each assembly's ground states are exactly its valid states.
    Each class keeps its energy formula: lambda (A E_A + B E_B + C E_C) +
    D E_D for a q <= 4 table (the one with D), lambda E_lambda + G E_G for a
    q > 4 one.  Each term is evaluated on the distinct columns, which gives
    every state the energy it has over the full state space.
    """
    t, worst = table, math.inf
    for terms, counts, valid, _ in model:
        if "D" in t:
            cells = t["A"] * terms["A"] + t["B"] * terms["B"] + t["C"] * terms["C"]
            e = t["lambda"] * cells + t["D"] * terms["D"]
        else:
            e = t["lambda"] * terms["lambda"] + t["G"] * terms["G"]
        low = e.min()
        if not math.isclose(low, e[valid].min(), abs_tol=COEFF_TOL):
            return None
        at_ground = np.isclose(e, low, atol=COEFF_TOL)
        if counts[at_ground].sum() != len(valid) or not at_ground[valid].all():
            return None
        rest = e[~at_ground]
        worst = min(worst, float(rest.min() - low) if rest.size else math.inf)
    return worst
