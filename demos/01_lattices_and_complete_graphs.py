"""Lattice graphs and the triangular complete-graph embedding.

Builds chimera lattices of a few sizes, checks the counting identities, and
embeds complete graphs with two vertices of K_N per cell column.
"""

from qubolattice import (
    build_lattice,
    chimera_spec,
    embed_complete_chimera,
    embed_qubo,
    brute_force,
    unembed,
    validate,
    Qubo,
    SPIN,
)

print("== cell-matrix lattices ==")
for L in (1, 2, 4):
    g = build_lattice(chimera_spec(4, L))
    print(f"chimera(4, {L}): {g.num_vertices} vertices, {g.num_edges} edges, "
          f"mean degree {g.average_degree():.2f}")

print("\n== complete-graph embeddings ==")
for n in (4, 8, 12):
    emb = embed_complete_chimera(n, 4)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    report = validate(emb, edges)
    chain = len(next(iter(emb.chains.values())))
    print(f"K_{n}: side L={emb.lattice.L}, chains of {chain}, valid={report.ok}")

print("\n== an embedded problem keeps its ground states ==")
ferro = Qubo(SPIN, 4)
for i in range(4):
    for j in range(i + 1, 4):
        ferro.add_quadratic(i, j, -1.0)
emb = embed_complete_chimera(4, 4)
embedded = embed_qubo(ferro, emb)
spec = brute_force(embedded.physical)
print(f"ferromagnetic K_4: physical ground {spec.ground_energy}, "
      f"{spec.state_count_at_ground} states")
for state in spec.ground_states:
    logical, broken = unembed(embedded, state)
    print(f"  physical ground decodes to {logical} with {broken} broken chains")
