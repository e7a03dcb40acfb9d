"""Compile hard combinatorial problems into QUBOs minor-embedded on
two-dimensional Chimera-style lattice graphs, and verify them exactly.

The package follows the pipeline: model a problem (number partitioning,
knapsack, graph coloring, Hamiltonian cycles, plus unary and adder building
blocks), compile it to a sparse objective with O(1) coefficients, lay it onto
a lattice through a constructive minor embedding, and check the result with
brute-force spectra, classical-gap enumeration, and size-formula arithmetic.
"""

from .lattice import (
    CellAdjacency,
    LatticeGraph,
    LatticeSpec,
    build_lattice,
    chimera_cell,
    chimera_spec,
    sublattice,
)
from .qubo import (
    BINARY,
    SPIN,
    NoiseModel,
    Qubo,
    QuboBuilder,
    Spectrum,
    anneal_solve,
    apply_noise,
    brute_force,
    clamp,
    normalize_couplings,
    restricted_gap,
    to_binary,
    to_spin,
)
from .embedding import (
    EmbeddedQubo,
    MinorEmbedding,
    choose_alpha,
    embed_complete_chimera,
    embed_qubo,
    unembed,
    validate,
)
from .unary import (
    UnaryInstance,
    build_unary_qubo,
    fill_tree_optimize,
    fractal_embed_unary,
    k22_gadget,
    predicted_unary_length,
)
from .adder import AdderInstance, build_adder, build_naive_adder
from .numpart import (
    PartitionInstance,
    build_numpart_qubo,
    decode_partition,
    embed_numpart,
    predicted_numpart_length,
)
from .knapsack import (
    KnapsackInstance,
    build_knapsack_qubo,
    decode_knapsack,
    knapsack_sweep,
    predicted_knapsack_length,
)
from .tiling import (
    TileHamiltonians,
    TilePlan,
    crossing_tile_chimera,
    route_graph_to_tiles,
    stitch,
    supertile_compose,
)
from .coloring import (
    ColoringInstance,
    build_tileset,
    compile_coloring,
    decode_coloring,
    grid_search_coefficients,
    h_diag,
    verify_gap,
)
from .hamcycle import (
    HamcycleInstance,
    build_ic_qubo,
    build_tileable_hamcycle,
    decode_cycle,
    embed_permutation_tree,
    embed_tileable_hamcycle,
    predicted_hamcycle_length,
    predicted_permutation_length,
)
from .cartoon import CartoonModel, lz_time, min_gap, two_level_hamiltonian

__version__ = "0.1.0"
