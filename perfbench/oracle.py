"""Independent oracles for the benchmark's answers.

Nothing here imports qubolattice: every verdict the program returns is
checked against plain-Python combinatorics over the instance itself, or
against objective data read straight from the program's documents.
"""

from __future__ import annotations

import itertools


def balanced_subset(numbers) -> tuple[int, ...] | None:
    """Indices of one subset summing to half the total, or None.

    Subset-sum table over reachable sums, with one parent pointer per sum.
    """
    total = sum(numbers)
    if total % 2:
        return None
    target = total // 2
    parent: dict[int, tuple[int, int] | None] = {0: None}
    for i, x in enumerate(numbers):
        for s in list(parent):
            t = s + x
            if t <= target and t not in parent:
                parent[t] = (s, i)
    if target not in parent:
        return None
    picked = []
    s = target
    while parent[s] is not None:
        s, i = parent[s]
        picked.append(i)
    return tuple(sorted(picked))


def knapsack_dp(values, weights, capacity) -> int:
    """Optimal knapsack value by the pseudo-polynomial table."""
    best = [0] * (capacity + 1)
    for v, w in zip(values, weights):
        for c in range(capacity, w - 1, -1):
            best[c] = max(best[c], best[c - w] + v)
    return best[capacity]


def proper_coloring_count(n: int, edges, q: int) -> int:
    return sum(
        all(col[u] != col[v] for u, v in edges)
        for col in itertools.product(range(q), repeat=n)
    )


def hamiltonian_cycles(n: int, edges) -> list[tuple[int, ...]]:
    """Every directed Hamiltonian cycle as a vertex order starting at 0."""
    edge_set = {frozenset(e) for e in edges}
    out = []
    for rest in itertools.permutations(range(1, n)):
        order = (0,) + rest
        if all(frozenset((order[i], order[(i + 1) % n])) in edge_set for i in range(n)):
            out.append(order)
    return out


def is_hamiltonian_cycle(order, n: int, edges) -> bool:
    edge_set = {frozenset(e) for e in edges}
    return sorted(order) == list(range(n)) and all(
        frozenset((order[i], order[(i + 1) % n])) in edge_set for i in range(n)
    )


def all_graphs(n: int):
    """Every labelled simple graph on n vertices, as edge tuples."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield tuple(p for k, p in enumerate(pairs) if (mask >> k) & 1)


def chimera_edges(J: int, width: int, height: int) -> list[tuple[int, int]]:
    """Edges of chimera(J) with vertex (i, j, a) at index (i*height + j)*2J + a.

    Left side a < J couples horizontally, right side a >= J vertically.
    """
    n = 2 * J
    idx = lambda i, j, a: (i * height + j) * n + a
    out = []
    for i in range(width):
        for j in range(height):
            for a in range(J):
                for b in range(J, n):
                    out.append((idx(i, j, a), idx(i, j, b)))
                if i + 1 < width:
                    out.append((idx(i, j, a), idx(i + 1, j, a)))
            for b in range(J, n):
                if j + 1 < height:
                    out.append((idx(i, j, b), idx(i, j + 1, b)))
    return out


def chimera_adjacent(u: int, v: int, J: int, height: int) -> bool:
    """Edge test on chimera(J) from cell coordinates alone."""
    n = 2 * J
    (cu, a), (cv, b) = divmod(u, n), divmod(v, n)
    (iu, ju), (iv, jv) = divmod(cu, height), divmod(cv, height)
    if cu == cv:
        return (a < J) != (b < J)
    if a != b:
        return False
    if a < J:
        return ju == jv and abs(iu - iv) == 1
    return iu == iv and abs(ju - jv) == 1


def chimera_neighbors(u: int, J: int, width: int, height: int) -> list[int]:
    n = 2 * J
    cell, a = divmod(u, n)
    i, j = divmod(cell, height)
    base = cell * n
    if a < J:
        out = [base + b for b in range(J, n)]
        out += [base + di * height * n + a for di in (-1, 1) if 0 <= i + di < width]
    else:
        out = [base + b for b in range(J)]
        out += [base + dj * n + a for dj in (-1, 1) if 0 <= j + dj < height]
    return out


def spin_glass_ground(quadratic: dict, gauge) -> float:
    """Ground energy of a gauge-transformed ferromagnet J_uv = -g_u g_v.

    Every coupler is satisfied by s = g, so the ground energy is -|E| and the
    ground states are exactly g and -g on a connected coupling graph.
    """
    for (u, v), c in quadratic.items():
        if c != -gauge[u] * gauge[v]:
            raise ValueError("couplings are not a gauge-transformed ferromagnet")
    return -float(len(quadratic))


def evaluate(offset: float, linear: dict, quadratic: dict, state) -> float:
    e = offset
    for i, c in linear.items():
        e += c * state[i]
    for (i, j), c in quadratic.items():
        e += c * state[i] * state[j]
    return e


def doc_terms(doc) -> tuple[float, dict, dict]:
    """(offset, linear, quadratic) of a serialized objective."""
    linear = {int(i): float(c) for i, c in doc.get("linear", [])}
    quadratic = {(int(i), int(j)): float(c) for i, j, c in doc.get("quadratic", [])}
    return float(doc.get("offset", 0.0)), linear, quadratic


def ground_by_enumeration(domain: str, n: int, offset, linear, quadratic) -> float:
    values = (0, 1) if domain == "binary" else (-1, 1)
    return min(
        evaluate(offset, linear, quadratic, s) for s in itertools.product(values, repeat=n)
    )


def chains_ok(chains: dict, quadratic_sites, J: int, width: int, height: int) -> str | None:
    """Independent minor-embedding check on a chimera lattice.

    Chains must be non-empty, inside the lattice, disjoint and connected; each
    physical coupler in `quadratic_sites` must be a lattice edge.  Returns the
    first violation, or None.
    """
    size = 2 * J * width * height
    owner: dict[int, int] = {}
    for v, chain in chains.items():
        if not chain:
            return f"chain {v} is empty"
        for p in chain:
            if not 0 <= p < size:
                return f"chain {v} leaves the lattice at {p}"
            if p in owner:
                return f"vertex {p} shared by chains {owner[p]} and {v}"
            owner[p] = v
        start = next(iter(chain))
        seen, frontier = {start}, [start]
        while frontier:
            u = frontier.pop()
            for w in chimera_neighbors(u, J, width, height):
                if w in chain and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != len(chain):
            return f"chain {v} is disconnected"
    for p, q in quadratic_sites:
        if not chimera_adjacent(p, q, J, height):
            return f"coupler ({p}, {q}) is not a lattice edge"
    return None


def selftest() -> None:
    """The oracles against hand-checked values."""
    assert balanced_subset((3, 1, 1, 2, 2, 1)) is not None
    assert balanced_subset((2, 2, 3, 5)) is None
    assert knapsack_dp([60, 100, 120], [10, 20, 30], 50) == 220
    assert proper_coloring_count(3, [(0, 1), (1, 2), (0, 2)], 3) == 6
    assert proper_coloring_count(4, [], 2) == 16
    assert len(hamiltonian_cycles(4, list(itertools.combinations(range(4), 2)))) == 6
    assert hamiltonian_cycles(4, [(0, 1), (1, 2), (2, 3)]) == []
    assert is_hamiltonian_cycle((0, 2, 1), 3, [(0, 1), (1, 2), (0, 2)])
    assert len(chimera_edges(4, 2, 2)) == 16 * 4 + 8 * 2
    for u, v in chimera_edges(2, 3, 2):
        assert chimera_adjacent(u, v, 2, 2) and chimera_adjacent(v, u, 2, 2)
    assert sum(
        chimera_adjacent(u, v, 2, 2) for u in range(24) for v in range(u + 1, 24)
    ) == len(chimera_edges(2, 3, 2))
    for u in range(24):
        assert sorted(chimera_neighbors(u, 2, 3, 2)) == [
            v for v in range(24) if chimera_adjacent(u, v, 2, 2)
        ]
    assert spin_glass_ground({(0, 1): 1.0, (1, 2): -1.0}, (1, -1, -1)) == -2.0
    assert ground_by_enumeration("spin", 2, 0.0, {}, {(0, 1): 1.0}) == -1.0
    assert chains_ok({0: {0, 4}, 1: {1}}, [(1, 4)], 4, 1, 1) is None
    assert chains_ok({0: {0, 1}}, [], 4, 1, 1) == "chain 0 is disconnected"
