"""The benchmark's seeded workloads.

Each workload generates its instances from the seed when it is constructed
(set-up) and then runs one pass over them per call to ``run``.  Program calls
go through module attributes (``self.Q.numpart.embed_numpart``) at call time,
so a traced run sees the rebound entry points.  Every answer is checked
against ``oracle``; disagreements are logged as wrong results.

- embed_verify: the public API in two parts.  EmbedLarge drives the lattice,
  layout and embed layers on the largest instances, with no solving beyond
  round trips of known solutions through unembed and decode; it exercises
  ROADMAP items 1 (indexed embedding core) and 4 (one layout engine).
  VerifyExact drives the exact-enumeration layer on small objectives with tiny
  embeddings; it exercises item 2 (one enumeration engine).  Item 3 is
  bypassed: its anneals are tiny.
- cli_anneal: the file pipeline through ``cli.main`` and the annealer.
  Exercises items 3 (sparse annealer) and 5 (honest CLI pipeline).
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import random
import sys
import time
import traceback
from collections import Counter

import oracle

TOL = 1e-6


class PassLog:
    """What one pass did: bucketed call times, sizes, and every verdict."""

    BUCKETS = ("embed", "verify", "solve")

    def __init__(self, span=None):
        self.traced = span is not None
        self.span = span or (lambda name, key: contextlib.nullcontext())
        self.time = dict.fromkeys(self.BUCKETS, 0.0)
        self.op_time: dict[str, float] = {}  # operation -> time in its program calls
        self.attempted = 0
        self.failures: list[str] = []
        self.known_failures: list[str] = []
        self.wrong: list[str] = []
        self.qubits = 0
        self.couplers = 0
        self.side_ratios: list[float] = []
        self.anneals = 0
        self.anneal_accepted = 0
        self.cli = Counter()

    def call(self, bucket: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.time[bucket] += time.perf_counter() - t0

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)

    def op(self, name: str, fn, known: type | tuple = ()) -> None:
        """One operation.  `known` names the exception of a known defect.

        The collector runs first, so its pauses fall at the same points of an
        operation on every pass instead of wherever earlier work left it.
        """
        self.attempted += 1
        gc.collect()
        before = sum(self.time.values())
        with self.span(name, "bench"):
            try:
                fn()
            except known as err:
                self.known_failures.append(f"{name}: {type(err).__name__}: {err}")
            except Exception as err:  # the pass goes on; the failure is reported
                traceback.print_exc(file=sys.stderr)
                self.failures.append(f"{name}: {type(err).__name__}: {err}")
        self.op_time[name] = sum(self.time.values()) - before

    def sized(self, qubits: int, couplers: int, side: float, predicted: float | None) -> None:
        self.qubits += qubits
        self.couplers += couplers
        if predicted:
            self.side_ratios.append(side / predicted)


def _planted_partition(rng: random.Random, n: int, lo: int, hi: int):
    """Numbers with an even total and a balanced split, plus that split."""
    while True:
        numbers = tuple(rng.randint(lo, hi) for _ in range(n))
        subset = oracle.balanced_subset(numbers)
        if subset is not None:
            return numbers, subset


def _relabel(rng: random.Random, n: int, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def _cycle_edges(n: int):
    return tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n))


def _complete_edges(n: int):
    return tuple(itertools.combinations(range(n), 2))


# Named tile assemblies of coloring.verify_gap -> (vertices, edges) of the
# graph they colour; their ground-state count is its proper-colouring count.
ASSEMBLIES = {"1-tile": (1, []), "2-tile-hor": (2, [(0, 1)]), "2-tile-vert": (2, [(0, 1)]), "chain": (1, [])}

PETERSEN = tuple(
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)


def tileable_cycle_state(names, n: int, edges, order) -> list[int]:
    """Zero-energy assignment of the tileable Hamiltonian-cycle objective.

    Built from the variable names alone: x:v:j marks positions, z:v:u the
    successor, z:v:u:j = x:v:j * x:u:j+1, and acc:v:i the running selector
    sum over v's neighbours in increasing order.
    """
    pos = {v: j for j, v in enumerate(order)}
    succ = {v: order[(pos[v] + 1) % n] for v in range(n)}
    nbrs = {v: sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v}) for v in range(n)}
    value = {}
    for name in names:
        parts = name.split(":")
        v = int(parts[1])
        if parts[0] == "x":
            value[name] = int(pos[v] == int(parts[2]))
        elif parts[0] == "z" and len(parts) == 3:
            value[name] = int(succ[v] == int(parts[2]))
        elif parts[0] == "z":
            u, j = int(parts[2]), int(parts[3])
            value[name] = int(pos[v] == j and pos[u] == (j + 1) % n)
        else:  # acc:v:i
            value[name] = sum(succ[v] == u for u in nbrs[v][: int(parts[2]) + 1])
    return [value[name] for name in names]


def _doc_chains_ok(doc) -> str | None:
    """Own minor-embedding check of an `embed` output document."""
    lat = doc["embedding"]["lattice"]
    order = doc["vertex_order"]
    chains = {name: set(members) for name, members in doc["embedding"]["chains"].items()}
    sites = [(order[i], order[j]) for i, j, _ in doc["physical_qubo"]["quadratic"]]
    return oracle.chains_ok(chains, sites, int(lat["J"]), int(lat["L"]), int(lat["L"]))


class Workload:
    def __init__(self, Q, seed: int, size: str, workdir: str):
        self.Q = Q
        self.rng = random.Random(seed)
        self.size = size
        self.workdir = workdir
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, log: PassLog) -> None:
        raise NotImplementedError

    # -- shared checks ---------------------------------------------------

    def check_embedding(self, log: PassLog, name: str, e, predicted: float | None, bounded: bool = True) -> None:
        """Program validate plus the oracle's own chain and coupler check.

        With `bounded`, the realized side must stay within `predicted`, as the
        family's embedder documents.
        """
        Q = self.Q
        report = log.call(
            "embed", Q.embedding.validate,
            e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars),
        )
        log.expect(report.ok, f"{name}: validate: {report.summary()}")
        spec = e.embedding.lattice
        order = e.vertex_order
        sites = [(order[i], order[j]) for i, j in e.physical.quadratic]
        problem = oracle.chains_ok(e.embedding.chains, sites, spec.cell.n // 2, spec.width, spec.height)
        log.expect(problem is None, f"{name}: {problem}")
        for (u, v), (p, q) in e.placement.items():
            cu, cv = e.embedding.chains[u], e.embedding.chains[v]
            log.expect(
                (p in cu and q in cv) or (p in cv and q in cu),
                f"{name}: coupler for ({u}, {v}) lies outside its chains",
            )
        log.sized(e.physical.num_vars, len(e.physical.quadratic), spec.width, predicted)
        if bounded and predicted is not None:
            log.expect(spec.width <= predicted + TOL, f"{name}: side {spec.width} exceeds bound {predicted}")

    def round_trip(self, log: PassLog, name: str, e, logical_state) -> tuple:
        """Lift a known logical state onto its chains; unembed must undo it.

        Chain-intact physical energy must equal the logical energy.
        """
        pos = e.position_of
        phys = [0 if e.physical.domain == "binary" else -1] * len(e.vertex_order)
        for v, chain in e.embedding.chains.items():
            for p in chain:
                phys[pos[p]] = logical_state[v]
        e_log = oracle.evaluate(e.logical.offset, e.logical.linear, e.logical.quadratic, logical_state)
        e_phys = oracle.evaluate(e.physical.offset, e.physical.linear, e.physical.quadratic, phys)
        log.expect(abs(e_phys - e_log) <= TOL, f"{name}: lifted energy {e_phys} != logical {e_log}")
        decoded, broken = log.call("solve", self.Q.embedding.unembed, e, phys)
        log.expect(broken == 0 and list(decoded) == list(logical_state), f"{name}: unembed broke the lift")
        return decoded, e_log


# ---------------------------------------------------------------------------


class EmbedLarge(Workload):
    """Full-size embeddings; no solving besides round trips of known answers."""

    def setup(self) -> None:
        full = self.size == "full"
        rng = self.rng
        self.numbers, self.subset = _planted_partition(rng, *((6, 512, 1023) if full else (4, 2, 3)))
        self.unary_n = 256 if full else 16
        self.ham_n = 4
        self.ham_edges = _relabel(rng, self.ham_n, _cycle_edges(self.ham_n))
        self.ham_order = oracle.hamiltonian_cycles(self.ham_n, self.ham_edges)[0]
        # One colour count per tile class (q <= 4 and q > 4), each with its (graph, vertices).
        triangle = (((0, 1), (1, 2), (0, 2)), 3)
        self.colorings = {4: (PETERSEN, 10), 8: (_complete_edges(4), 4)} if full else {4: triangle, 8: triangle}
        self.k5 = _complete_edges(5)
        self.k5_order = oracle.hamiltonian_cycles(5, self.k5)[0]
        Q = self.Q
        M = max(x.bit_length() for x in self.numbers)
        self.pred_numpart = Q.numpart.predicted_numpart_length(len(self.numbers), M, 4)
        self.pred_unary = Q.unary.predicted_unary_length(self.unary_n, 4)
        self.pred_ham = Q.hamcycle.predicted_hamcycle_length(
            self.ham_n, Q.tiling.route_graph_to_tiles(self.ham_edges, num_vertices=self.ham_n).grid_side
        )
        self.pred_k5 = Q.hamcycle.predicted_hamcycle_length(
            5, Q.tiling.route_graph_to_tiles(self.k5, num_vertices=5).grid_side
        )

    def run(self, log: PassLog) -> None:
        Q = self.Q
        log.op("numpart", lambda: self.numpart(log))
        log.op("unary", lambda: self.unary(log))
        log.op("hamcycle", lambda: self.hamcycle(log, "hamcycle", self.ham_n, self.ham_edges, self.ham_order, self.pred_ham))
        for q in self.colorings:
            log.op(f"coloring_q{q}", lambda: self.coloring(log, q))
        # Known defect (ROADMAP item 4): the tileable encoding cannot place K5.
        log.op(
            "hamcycle_k5",
            lambda: self.hamcycle(log, "hamcycle_k5", 5, self.k5, self.k5_order, self.pred_k5),
            known=Q.tiling.TilingError,
        )

    def numpart(self, log: PassLog) -> None:
        Q = self.Q
        inst = Q.numpart.PartitionInstance(self.numbers)
        e = log.call("embed", Q.numpart.embed_numpart, inst)
        self.check_embedding(log, "numpart", e, self.pred_numpart)
        tree = log.call("embed", Q.numpart.build_numpart_qubo, inst)
        # Round-trip both sides of the planted split: each is a balanced subset.
        for side in (set(self.subset), set(range(len(self.numbers))) - set(self.subset)):
            selectors = {f"x{i + 1}": int(i in side) for i in range(len(self.numbers))}
            witness = Q.numpart.arithmetic_completion(tree, selectors)
            by_name = dict(zip(tree.qubo.var_names, witness))
            state = [by_name[name] for name in e.logical.var_names]
            decoded, energy = self.round_trip(log, "numpart", e, state)
            log.expect(energy == 0.0, f"numpart: balanced witness has energy {energy}")
            result = log.call("solve", Q.numpart.decode_partition, tree, decoded)
            log.expect(
                result["balanced"] and sum(result["set_a"]) == sum(result["set_b"]),
                f"numpart: decode_partition {result}",
            )

    def unary(self, log: PassLog) -> None:
        e, _ = log.call("embed", self.Q.unary.fractal_embed_unary, self.unary_n, 4)
        self.check_embedding(log, "unary", e, self.pred_unary, bounded=False)

    def hamcycle(self, log: PassLog, name: str, n: int, edges, order, predicted) -> None:
        Q = self.Q
        inst = Q.hamcycle.HamcycleInstance(edges, n)
        e = log.call("embed", Q.hamcycle.embed_tileable_hamcycle, inst)
        self.check_embedding(log, name, e, predicted)
        names = e.logical.var_names
        roles = {v: i for i, v in enumerate(names)}
        # Every rotation and direction of the cycle is a zero-energy state.
        for o in (list(order), list(order)[::-1]):
            for r in range(n):
                state = tileable_cycle_state(names, n, edges, o[r:] + o[:r])
                decoded, energy = self.round_trip(log, name, e, state)
                log.expect(energy == 0.0, f"{name}: Hamiltonian cycle has energy {energy}")
                result = log.call("solve", Q.hamcycle.decode_cycle, decoded, inst, roles)
                log.expect(
                    result["ok"] and oracle.is_hamiltonian_cycle(result["cycle"], n, edges),
                    f"{name}: decode_cycle {result}",
                )

    def coloring(self, log: PassLog, q: int) -> None:
        Q = self.Q
        name = f"coloring_q{q}"
        tileset = log.call("embed", Q.coloring.build_tileset, q)
        edges, n = self.colorings[q]
        inst = Q.coloring.ColoringInstance(edges, q, num_vertices=n)
        e = log.call("embed", Q.coloring.compile_coloring, inst, tileset)
        self.check_embedding(log, name, e, None)


# ---------------------------------------------------------------------------


class VerifyExact(Workload):
    """Exact verdicts on small objectives, every one against an oracle."""

    def setup(self) -> None:
        full = self.size == "full"
        rng = self.rng
        Q = self.Q
        # Planted spin glass on a connected patch of chimera(4) with 2x2 cells
        # (cell (i, j) holds vertices 8*(2i + j) .. +7): cell (0, 0), the
        # right side of (0, 1), cell (1, 0), then two left vertices of (0, 1).
        spins = 18 if full else 12
        patch = list(range(0, 8)) + list(range(12, 16)) + list(range(16, 24)) + [8, 9]
        index = {v: k for k, v in enumerate(sorted(patch[:spins]))}
        self.gauge = [rng.choice((-1, 1)) for _ in range(spins)]
        self.glass = {}
        for u, v in oracle.chimera_edges(4, 2, 2):
            if u in index and v in index:
                a, b = sorted((index[u], index[v]))
                self.glass[(a, b)] = float(-self.gauge[a] * self.gauge[b])
        self.glass_ground = oracle.spin_glass_ground(self.glass, self.gauge)
        self.spins = spins
        self.anneal_effort = (200, 2) if full else (20, 1)
        self.anneal_seed = rng.randrange(1 << 30)
        # chain-intact spectrum: a seeded logical K_k on a complete chimera embedding
        self.ci_vars, self.ci_J = (3, 2) if full else (2, 1)
        self.ci_linear = {i: rng.choice((-0.5, 0.5)) for i in range(self.ci_vars)}
        self.ci_quadratic = {p: rng.choice((-1.0, 1.0)) for p in itertools.combinations(range(self.ci_vars), 2)}
        self.ci_ground = oracle.ground_by_enumeration("spin", self.ci_vars, 0.0, self.ci_linear, self.ci_quadratic)
        self.graphs = list(oracle.all_graphs(4))[::8]
        self.color_qs = (2, 3, 4) if full else (2,)
        self.color_counts = {
            (q, g): oracle.proper_coloring_count(4, g, q) for q in self.color_qs for g in self.graphs
        }
        self.hamiltonian = {g: bool(oracle.hamiltonian_cycles(4, g)) for g in self.graphs}
        self.gap_qs = (4, 8) if full else (4,)
        # Seeded item orders of fixed multisets, so that every seed costs the
        # same: the sweep's QUBO sizes follow the totals and the capacity.
        self.knapsacks = []
        for _ in range(3 if full else 1):
            values, weights, capacity = tuple(rng.sample((1, 3), 2)), tuple(rng.sample((2, 3), 2)), 3
            inst = Q.knapsack.KnapsackInstance(values, weights, capacity)
            self.knapsacks.append((inst, oracle.knapsack_dp(values, weights, capacity)))
        U, N, P = Q.unary.predicted_unary_length, Q.numpart.predicted_numpart_length, Q.hamcycle.predicted_permutation_length
        self.soundness_bounds = {
            "unary N=4 J=4": U(4, 4), "unary N=2 J=2": U(2, 2), "unary N=3 J=4": U(3, 4),
            "partition {1,1}": N(2, 1, 4), "permutation N=2": P(2),
        }

    def run(self, log: PassLog) -> None:
        log.op("planted_glass", lambda: self.planted_glass(log))
        log.op("soundness", lambda: self.soundness(log))
        log.op("chain_intact", lambda: self.chain_intact(log))
        log.op("coloring_counts", lambda: self.coloring_counts(log))
        log.op("ic_qubo", lambda: self.ic_qubo(log))
        log.op("tile_gaps", lambda: self.tile_gaps(log))
        log.op("grid_search", lambda: self.grid_search(log))
        log.op("knapsack", lambda: self.knapsack(log))

    def planted_glass(self, log: PassLog) -> None:
        Q = self.Q
        q = Q.qubo.Qubo(Q.qubo.SPIN, self.spins)
        for (a, b), c in self.glass.items():
            q.add_quadratic(a, b, c)
        spec = log.call("verify", Q.qubo.brute_force, q)
        g = tuple(self.gauge)
        log.expect(
            abs(spec.ground_energy - self.glass_ground) <= TOL
            and set(spec.ground_states) == {g, tuple(-s for s in g)},
            f"planted_glass: ground {spec.ground_energy} vs {self.glass_ground}",
        )
        self.anneal_check(log, "planted_glass", q, self.glass_ground)

    def anneal_check(self, log: PassLog, name: str, q, ground: float):
        """Anneal an objective whose exact ground is known.  The answer may
        not undercut that ground; reaching it counts toward anneal_success."""
        sweeps, restarts = self.anneal_effort
        state, energy = log.call(
            "solve", self.Q.qubo.anneal_solve, q, sweeps=sweeps, restarts=restarts, seed=self.anneal_seed
        )
        own = oracle.evaluate(q.offset, q.linear, q.quadratic, state)
        log.expect(
            abs(own - energy) <= TOL and energy >= ground - TOL,
            f"{name}: anneal energy {energy} (oracle {own}) against exact ground {ground}",
        )
        reached = abs(energy - ground) <= TOL
        log.anneals += 1
        log.anneal_accepted += reached
        return state, reached

    def _soundness_cases(self, log: PassLog):
        Q = self.Q
        embed = lambda fn, *a: log.call("embed", fn, *a)
        cases = [
            ("unary N=4 J=4", embed(Q.unary.fractal_embed_unary, 4, 4)[0]),
            ("unary N=2 J=2", embed(Q.unary.fractal_embed_unary, 2, 2)[0]),
            ("unary N=3 J=4", embed(Q.unary.fractal_embed_unary, 3, 4)[0]),
            ("partition {1,1}", embed(Q.numpart.embed_numpart, Q.numpart.PartitionInstance((1, 1)), 4)),
            ("permutation N=2", embed(Q.hamcycle.embed_permutation_tree, 2)),
        ]
        ferro = Q.qubo.Qubo(Q.qubo.SPIN, 4)
        for i, j in itertools.combinations(range(4), 2):
            ferro.add_quadratic(i, j, -1.0)
        one_hot = Q.qubo.Qubo(Q.qubo.BINARY, 3)
        one_hot.add_squared_affine(1.0, [(0, -1.0), (1, -1.0), (2, -1.0)])
        for name, logical, n, J in (("ferromagnetic K_4 on chimera(2)", ferro, 4, 2), ("one-hot triple via K_3 chains", one_hot, 3, 4)):
            emb = embed(Q.embedding.embed_complete_chimera, n, J)
            emb.alpha = embed(Q.embedding.choose_alpha, logical)
            cases.append((name, embed(Q.embedding.embed_qubo, logical, emb)))
        inst = Q.coloring.ColoringInstance(((0, 1),), 2)
        cases.append(("coloring edge q=2", embed(Q.coloring.compile_coloring, inst)))
        return cases

    def soundness(self, log: PassLog) -> None:
        """Embedded grounds equal logical grounds and unembed cleanly."""
        Q = self.Q
        for name, e in self._soundness_cases(log):
            self.check_embedding(log, name, e, self.soundness_bounds.get(name), bounded=False)
            phys = log.call("verify", Q.qubo.brute_force, e.physical)
            logical = log.call("verify", Q.qubo.brute_force, e.logical)
            lq = e.logical
            if lq.num_vars <= 16:
                own = oracle.ground_by_enumeration(lq.domain, lq.num_vars, lq.offset, lq.linear, lq.quadratic)
                log.expect(abs(own - logical.ground_energy) <= TOL, f"{name}: logical ground {logical.ground_energy} vs {own}")
            log.expect(abs(phys.ground_energy - logical.ground_energy) <= TOL, f"{name}: physical ground shifted")
            annealed, reached = self.anneal_check(log, name, e.physical, phys.ground_energy)
            for state in phys.ground_states + ([annealed] if reached else []):
                decoded, broken = log.call("solve", Q.embedding.unembed, e, state)
                energy = oracle.evaluate(lq.offset, lq.linear, lq.quadratic, decoded)
                log.expect(broken == 0 and abs(energy - logical.ground_energy) <= TOL, f"{name}: ground state unembeds badly")
            spin = e.physical if e.physical.domain == "spin" else Q.qubo.to_spin(e.physical)
            normalized, _ = Q.qubo.normalize_couplings(spin)
            log.expect(
                normalized.max_abs_quadratic() <= 1.0 + TOL and normalized.max_abs_linear() <= 2.0 + TOL,
                f"{name}: normalized couplings leave the hardware window",
            )

    def chain_intact(self, log: PassLog) -> None:
        """Chain-intact spectrum by predicate, cross-checked two ways."""
        Q = self.Q
        logical = Q.qubo.Qubo(Q.qubo.SPIN, self.ci_vars)
        for i, c in self.ci_linear.items():
            logical.add_linear(i, c)
        for (i, j), c in self.ci_quadratic.items():
            logical.add_quadratic(i, j, c)
        emb = log.call("embed", Q.embedding.embed_complete_chimera, self.ci_vars, self.ci_J)
        emb.alpha = log.call("embed", Q.embedding.choose_alpha, logical)
        e = log.call("embed", Q.embedding.embed_qubo, logical, emb)
        self.check_embedding(log, "chain_intact", e, None)
        chains = [[e.position_of[p] for p in chain] for chain in e.embedding.chains.values()]

        def intact(state) -> bool:
            return all(len({state[k] for k in chain}) == 1 for chain in chains)

        restricted = log.call("verify", Q.qubo.restricted_gap, e.physical, predicate=intact)
        contracted = log.call("verify", Q.qubo.brute_force, e.chain_intact_qubo())
        log.expect(
            abs(restricted.ground_energy - self.ci_ground) <= TOL
            and abs(contracted.ground_energy - self.ci_ground) <= TOL
            and abs(restricted.gap - contracted.gap) <= TOL
            and restricted.state_count_at_ground == contracted.state_count_at_ground,
            f"chain_intact: restricted {restricted.ground_energy}/{restricted.gap}, "
            f"contracted {contracted.ground_energy}/{contracted.gap}, oracle {self.ci_ground}",
        )

    def coloring_counts(self, log: PassLog) -> None:
        Q = self.Q
        for q in self.color_qs:
            tileset = log.call("embed", Q.coloring.build_tileset, q)
            for g in self.graphs:
                inst = Q.coloring.ColoringInstance(g, q, num_vertices=4)
                e = log.call("embed", Q.coloring.compile_coloring, inst, tileset)
                log.sized(e.physical.num_vars, len(e.physical.quadratic), 0, None)
                count = log.call("verify", Q.coloring.count_states_at_coloring_level, inst, e, tileset)
                log.expect(count == self.color_counts[(q, g)], f"coloring_counts: q={q} {g} gives {count}")

    def ic_qubo(self, log: PassLog) -> None:
        Q = self.Q
        for g in self.graphs:
            ic = log.call("embed", Q.hamcycle.build_ic_qubo, Q.hamcycle.HamcycleInstance(g, 4))
            spec = log.call("verify", Q.qubo.brute_force, ic.qubo, 16)
            log.expect((spec.ground_energy == 0.0) == self.hamiltonian[g], f"ic_qubo: {g} ground {spec.ground_energy}")

    def tile_gaps(self, log: PassLog) -> None:
        Q = self.Q
        for q in self.gap_qs:
            tileset = log.call("embed", Q.coloring.build_tileset, q)
            floor = 2.0 if q <= 4 else 4.0 / 3.0
            for assembly, (n, edges) in ASSEMBLIES.items():
                spec = log.call("verify", Q.coloring.verify_gap, tileset, assembly)
                log.expect(
                    spec.gap >= floor - TOL
                    and spec.state_count_at_ground == oracle.proper_coloring_count(n, edges, q),
                    f"tile_gaps: q={q} {assembly} gap {spec.gap}, {spec.state_count_at_ground} grounds",
                )
            hor = log.call("verify", Q.coloring.verify_gap, tileset, "2-tile-hor")
            log.expect(abs(hor.gap - floor) <= TOL, f"tile_gaps: q={q} edge gap {hor.gap} != {floor}")

    def grid_search(self, log: PassLog) -> None:
        table, gap = log.call("verify", self.Q.coloring.grid_search_coefficients, "le4", 5)
        expected = {"A": 1.0, "B": -2.0, "C": 2.0, "lambda": 0.5, "D": 0.5}
        log.expect(
            abs(gap - 2.0) <= TOL and all(abs(table[k] - v) <= TOL for k, v in expected.items()),
            f"grid_search: {table} gap {gap}",
        )

    def knapsack(self, log: PassLog) -> None:
        for inst, best in self.knapsacks:
            subset, value = log.call("verify", self.Q.knapsack.knapsack_sweep, inst, "brute")
            log.expect(
                value == best
                and sum(inst.weights[i] for i in subset) <= inst.capacity
                and sum(inst.values[i] for i in subset) == value,
                f"knapsack: {inst} gives {subset}/{value}, oracle {best}",
            )


# ---------------------------------------------------------------------------


class CliAnneal(Workload):
    """build -> solve, and embed -> validate -> solve, through cli.main."""

    def setup(self) -> None:
        full = self.size == "full"
        rng = self.rng
        Q = self.Q
        self.instances = []  # (name, instance doc, kind, oracle facts, embedded?, side bound)
        shapes = [(4, 2, 3, True), (6, 8, 15, True), (10, 8, 15, False)] if full else [(4, 2, 3, True)]
        for n, lo, hi, embedded in shapes:
            numbers, _ = _planted_partition(rng, n, lo, hi)
            bound = Q.numpart.predicted_numpart_length(n, max(x.bit_length() for x in numbers), 4)
            self.instances.append((f"partition_n{n}", {"partition": {"numbers": list(numbers)}}, "partition", numbers, embedded, bound))
        for name, edges in (("hamcycle_c4", _relabel(rng, 4, _cycle_edges(4))),):
            plan = Q.tiling.route_graph_to_tiles(edges, num_vertices=4)
            bound = Q.hamcycle.predicted_hamcycle_length(4, plan.grid_side)
            doc = {"hamcycle": {"edges": [list(e) for e in edges], "num_vertices": 4}}
            self.instances.append((name, doc, "hamcycle", edges, True, bound))
        self.logical_anneal = ("200", "4") if full else ("20", "1")
        self.embedded_anneal = ("50", "1") if full else ("20", "1")
        self.anneal_seeds = {name: str(rng.randrange(1 << 30)) for name, *_ in self.instances}
        os.makedirs(self.workdir, exist_ok=True)
        self.paths = {}
        for name, doc, *_ in self.instances:
            path = os.path.join(self.workdir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.paths[name] = path

    def run(self, log: PassLog) -> None:
        for name, doc, kind, facts, embedded, bound in self.instances:
            log.op(name, lambda: self.pipeline(log, name, kind, facts, embedded, bound))
        log.op("gap_assemblies", lambda: self.gap_assemblies(log))

    def gap_assemblies(self, log: PassLog) -> None:
        """`gap --assembly` at q = 4: every assembled gap is 2."""
        for assembly, (vertices, edges) in ASSEMBLIES.items():
            out = self.cli(log, "verify", "gap", "--assembly", assembly, "--q", "4")
            log.expect(
                abs(out["gap"] - 2.0) <= TOL and out["ground_states"] == oracle.proper_coloring_count(vertices, edges, 4),
                f"gap_assemblies: {assembly} {out}",
            )

    def cli(self, log: PassLog, bucket: str, *argv) -> dict:
        out = os.path.join(self.workdir, "out.json")
        code = log.call(bucket, self.Q.cli.main, list(argv) + ["--out", out])
        if code == 2:
            raise RuntimeError(f"qubolattice {argv[0]} exited with usage error")
        with open(out) as fh:
            return json.load(fh) | {"_exit": code}

    def pipeline(self, log: PassLog, name: str, kind: str, facts, embedded: bool, bound: float) -> None:
        path = self.paths[name]
        strategy = "tree" if kind == "partition" else "tiles"
        built = self.cli(log, "embed", "build", path, "--strategy", strategy)
        logical_path = os.path.join(self.workdir, f"{name}.built.json")
        os.replace(os.path.join(self.workdir, "out.json"), logical_path)
        seed = self.anneal_seeds[name]
        if name == "partition_n4":
            gap = self.cli(log, "verify", "gap", logical_path)
            log.expect(gap["ground_energy"] == 0.0, f"{name}: exact ground {gap['ground_energy']} of a balanced instance")
        sweeps, restarts = self.logical_anneal
        result = self.cli(log, "solve", "solve", logical_path, "--solver", "anneal",
                          "--sweeps", sweeps, "--restarts", restarts, "--seed", seed)
        self.check_solve(log, f"{name}/logical", kind, facts, built["qubo"], result, embedded=False)
        if not embedded:
            return
        doc = self.cli(log, "embed", "embed", path, "--strategy", strategy)
        embedded_path = os.path.join(self.workdir, f"{name}.embedded.json")
        os.replace(os.path.join(self.workdir, "out.json"), embedded_path)
        problem = _doc_chains_ok(doc)
        log.expect(problem is None, f"{name}: {problem}")
        side = int(doc["embedding"]["lattice"]["L"])
        log.sized(doc["physical_qubo"]["num_vars"], len(doc["physical_qubo"]["quadratic"]), side, bound)
        log.expect(side <= bound + TOL, f"{name}: side {side} exceeds bound {bound}")
        valid = self.cli(log, "embed", "validate", embedded_path)
        log.expect(valid["valid"] and valid["_exit"] == 0, f"{name}: validate {valid}")
        sweeps, restarts = self.embedded_anneal
        result = self.cli(log, "solve", "solve", embedded_path, "--solver", "anneal",
                          "--sweeps", sweeps, "--restarts", restarts, "--seed", seed)
        self.check_solve(log, f"{name}/embedded", kind, facts, doc["logical_qubo"], result, embedded=True)

    def check_solve(self, log: PassLog, name: str, kind: str, facts, qubo_doc, result, embedded: bool) -> None:
        """Decode the returned logical state with the oracle; the CLI's
        `feasible` flag is recorded next to the verdict, not trusted."""
        state = result["logical"]
        names = qubo_doc["var_names"]
        log.expect(len(state) == len(names) and set(state) <= {0, 1}, f"{name}: malformed logical state")
        offset, linear, quadratic = oracle.doc_terms(qubo_doc)
        energy = oracle.evaluate(offset, linear, quadratic, state)
        intact = not embedded or result["broken_chains"] == 0
        if intact:
            log.expect(abs(result["energy"] - energy) <= TOL, f"{name}: reported energy {result['energy']} != {energy}")
        value = dict(zip(names, state))
        if kind == "partition":
            picked = [x for i, x in enumerate(facts) if value[f"x{i + 1}"] == 1]
            valid = 2 * sum(picked) == sum(facts)
            if "decoded" in result:
                log.expect(result["decoded"]["balanced"] == valid, f"{name}: decoded {result['decoded']}")
        else:
            n = 4
            positions = {v: [j for j in range(n) if value[f"x:{v}:{j}"] == 1] for v in range(n)}
            order = [None] * n
            for v, hot in positions.items():
                if len(hot) == 1:
                    order[hot[0]] = v
            valid = None not in order and oracle.is_hamiltonian_cycle(order, n, facts)
            log.expect(result["decoded"]["ok"] == valid, f"{name}: decoded {result['decoded']}")
        accepted = valid and intact and abs(energy) <= TOL  # known ground level: 0
        flag = bool(result["feasible"])
        log.expect(not flag or valid, f"{name}: CLI claims feasible but the answer is invalid")
        log.anneals += 1
        log.anneal_accepted += accepted
        log.cli["flag_feasible"] += flag
        log.cli["oracle_accepted"] += accepted
        log.cli["flag_disagrees"] += flag != accepted


class EmbedVerify(Workload):
    """EmbedLarge then VerifyExact, in one pass: the public API end to end."""

    def setup(self) -> None:
        self.parts = [part(self.Q, self.rng.randrange(1 << 30), self.size, self.workdir) for part in (EmbedLarge, VerifyExact)]

    def run(self, log: PassLog) -> None:
        for part in self.parts:
            part.run(log)


WORKLOADS = {"embed_verify": EmbedVerify, "cli_anneal": CliAnneal}
