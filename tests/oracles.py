"""Independent brute-force oracles used to pin expected values, and the
digests and counters that tier-1 and the long checks share."""

import hashlib
import itertools
import math
from typing import Iterable, Mapping

import numpy as np

from qubolattice import embedding
from qubolattice.coloring import _assembly_plan, _build_tileset_any
from qubolattice.lattice import LatticeGraph
from qubolattice.qubo import BINARY, COEFF_TOL, _split_energy_blocks
from qubolattice.tiling import stitch


def balanced_subset_exists(numbers) -> bool:
    total = sum(numbers)
    if total % 2:
        return False
    target = total // 2
    for r in range(len(numbers) + 1):
        for combo in itertools.combinations(range(len(numbers)), r):
            if sum(numbers[i] for i in combo) == target:
                return True
    return False


def knapsack_dp(values, weights, capacity) -> int:
    """Classic pseudo-polynomial table; returns the optimal value."""
    best = [0] * (capacity + 1)
    for v, w in zip(values, weights):
        for c in range(capacity, w - 1, -1):
            best[c] = max(best[c], best[c - w] + v)
    return best[capacity]


def knapsack_best_subset(values, weights, capacity):
    n = len(values)
    best_value, best_subset = 0, ()
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            w = sum(weights[i] for i in combo)
            v = sum(values[i] for i in combo)
            if w <= capacity and (v > best_value or (v == best_value and combo < best_subset)):
                best_value, best_subset = v, combo
    return best_value, set(best_subset)


def exhaustive_spectrum(values, num_vars: int, energy, tol: float):
    """(ground energy, ground states, gap, ground count, degenerate) by one
    `energy` call per assignment.  Assignments run in code order: bit i of
    the code picks values[1] for variable i."""
    rows = [code[::-1] for code in itertools.product(values, repeat=num_vars)]
    energies = [energy(row) for row in rows]
    ground = min(energies)
    states = [row for row, e in zip(rows, energies) if e <= ground + tol]
    excited = [e for e in energies if e > ground + tol]
    gap = min(excited) - ground if excited else 0.0
    return ground, states, gap, len(states), not excited


def proper_coloring_count(n: int, edges, q: int) -> int:
    count = 0
    for coloring in itertools.product(range(q), repeat=n):
        if all(coloring[u] != coloring[v] for u, v in edges):
            count += 1
    return count


def hamiltonian_cycles(n: int, edges):
    """All directed Hamiltonian cycles as vertex orders starting anywhere."""
    edge_set = {frozenset(e) for e in edges}
    cycles = []
    for perm in itertools.permutations(range(n)):
        if all(
            frozenset((perm[i], perm[(i + 1) % n])) in edge_set for i in range(n)
        ):
            cycles.append(perm)
    return cycles


def all_graphs(n: int):
    """Every labeled simple graph on n vertices, as edge tuples."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield tuple(p for k, p in enumerate(pairs) if (mask >> k) & 1)


def reference_anneal(q, sweeps=400, restarts=8, seed=0, t_hot=None):
    """`anneal_solve`'s neighbour-list kernel as it was before it kept flip
    steps: the step is recomputed from the state on every visit and every
    neighbour increment is multiplied out per flip."""
    n = q.num_vars
    if n == 0:
        return (), q.offset
    rng = np.random.default_rng(seed)
    lin = [0.0] * n
    for i, c in q.linear.items():
        lin[i] = float(c)
    neighbours = [[] for _ in range(n)]
    for (i, j), c in q.quadratic.items():
        neighbours[i].append((j, float(c)))
        neighbours[j].append((i, float(c)))
    if t_hot is None:
        t_hot = max(
            1.0, max(abs(lin[i]) + sum(abs(c) for _, c in neighbours[i]) for i in range(n))
        )
    lo, hi = (0.0, 1.0) if q.domain == BINARY else (-1.0, 1.0)
    span = lo + hi
    temps = (t_hot * (0.05 / t_hot) ** (np.arange(sweeps) / max(1, sweeps - 1))).tolist()

    best_state = None
    best_energy = math.inf
    for _ in range(max(1, restarts)):
        state = [lo if draw < 0.5 else hi for draw in rng.random(n).tolist()]
        field = [
            lin[i] + sum(c * state[j] for j, c in nbrs) for i, nbrs in enumerate(neighbours)
        ]
        energy = q.energy(state)
        for t in temps:
            for i, draw in enumerate(rng.random(n).tolist()):
                step = span - 2.0 * state[i]
                delta = step * field[i]
                if delta <= 0.0 or draw < math.exp(-delta / t):
                    state[i] += step
                    energy += delta
                    for j, c in neighbours[i]:
                        field[j] += step * c
        if energy < best_energy - COEFF_TOL:
            best_energy = energy
            best_state = state
    result = tuple(int(v) for v in best_state)
    return result, q.energy(result)


def reference_walk(
    graph: LatticeGraph, chains: Mapping[int, frozenset[int]]
) -> tuple[
    list[tuple[int, int, int]],
    dict[int, list[tuple[int, int]] | None],
    dict[tuple[int, int], tuple[int, int]],
    dict[int, list[int]],
]:
    """`embedding._walk_chains` as it was before it read the lattice's offset
    tables: each member's neighbours come from one checked
    `LatticeGraph.sorted_neighbors` list.  Returns ``(shared, trees,
    couplers, outside)``."""
    owner: dict[int, int] = {}
    shared: list[tuple[int, int, int]] = []
    for v, chain in chains.items():
        for p in chain:
            first = owner.setdefault(p, v)
            if first != v:
                shared.append((p, first, v))
    nbrs = graph.sorted_neighbors
    nv = graph.num_vertices
    trees: dict[int, list[tuple[int, int]] | None] = {}
    couplers: dict[tuple[int, int], tuple[int, int]] = {}
    outside: dict[int, list[int]] = {}

    def visit(v, chain, u, seen, stack, tree):
        for w in nbrs(u):
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


def counted_walks(monkeypatch) -> list:
    """Record the chains of every chain walk from now on, each checked
    against `reference_walk`; returns the list of walked chains."""
    walks = []
    walk = embedding._walk_chains

    def counting(graph, chains):
        walks.append(dict(chains))
        got = walk(graph, chains)
        assert got == reference_walk(graph, chains), (
            f"walk {len(walks)} differs from the reference walk"
        )
        return got

    monkeypatch.setattr(embedding, "_walk_chains", counting)
    return walks


def tileable_digest(outcomes) -> str:
    """sha256 over `(edges, outcome)` pairs of the tileable Hamiltonian-cycle
    encoding: an embedding's chains (in iteration order, members too), vertex
    order and physical terms as float.hex, or a failure's error text."""
    h = hashlib.sha256()
    for edges, e in outcomes:
        if isinstance(e, Exception):
            h.update(repr((edges, str(e))).encode())
            continue
        q = e.physical
        chains = [(k, list(v)) for k, v in e.embedding.chains.items()]
        terms = (
            q.offset.hex(),
            [(i, c.hex()) for i, c in q.linear.items()],
            [(i, j, c.hex()) for (i, j), c in q.quadratic.items()],
        )
        h.update(repr((edges, chains, list(e.vertex_order), terms)).encode())
    return h.hexdigest()


def reference_le4_energy_model():
    """`coloring._le4_energy_model` as it was before it kept only the
    distinct term columns: one (energies by term over all states, valid
    codes) pair per assembly, "1-tile" and "2-tile-hor"."""
    tiles = {
        term: _build_tileset_any(
            4, table={"A": 0.0, "B": 0.0, "C": 0.0, "lambda": 1.0, "D": 0.0, term: 1.0}
        ).tiles
        for term in "ABCD"
    }
    one_pair = [0x11 << color for color in range(4)]
    two_pairs = sorted(a | b << 8 for a in one_pair for b in one_pair if a != b)
    model = []
    for assembly, valid in (("1-tile", one_pair), ("2-tile-hor", two_pairs)):
        plan = _assembly_plan(assembly)
        energies = {
            term: np.concatenate([e for e, _ in _split_energy_blocks(stitch(plan, t).physical)])
            for term, t in tiles.items()
        }
        model.append((energies, np.array(valid)))
    return model


def reference_table_gap(model, A, B, C, lam, D):
    """`coloring._table_gap` over `reference_le4_energy_model`: every state's
    energy is evaluated."""
    worst = math.inf
    for terms, valid in model:
        e = lam * (A * terms["A"] + B * terms["B"] + C * terms["C"]) + D * terms["D"]
        low = e.min()
        if not math.isclose(low, e[valid].min(), abs_tol=COEFF_TOL):
            return None
        at_ground = np.isclose(e, low, atol=COEFF_TOL)
        if at_ground.sum() != len(valid) or not at_ground[valid].all():
            return None
        rest = e[~at_ground]
        worst = min(worst, float(rest.min() - low) if rest.size else math.inf)
    return worst
