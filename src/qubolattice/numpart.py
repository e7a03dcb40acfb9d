"""Number partitioning compiled as a tree of constant-coupling adders.

The direct spin form (sum n_i s_i)^2 needs couplings as large as 2^(2M) and an
all-to-all graph.  Summing the numbers pairwise instead, with each addition
encoded by the column adder, keeps every coefficient O(1): leaf adders gate
fixed integers behind selector bits, internal nodes add the two child
registers, and the root register is pinned to the half-sum target W.
`build_summation_tree` is the one tree recursion; knapsack builds its value
and weight trees with it.  The whole tree then lays out on a lattice like the
fractal unary constraint, with corridors widened to carry multi-bit registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .adder import add_columns
from .embedding import EmbeddedQubo, SlotPlanner, embed_qubo, place_clique_block
from .qubo import BINARY, Qubo, QuboBuilder


class PartitionError(ValueError):
    """Invalid partition instance."""


@dataclass(frozen=True)
class PartitionInstance:
    """A multiset of positive integers to split into two equal-sum halves."""

    numbers: tuple[int, ...]

    def __post_init__(self):
        if len(self.numbers) < 2:
            raise PartitionError("partition needs at least two numbers")
        if any(n < 1 for n in self.numbers):
            raise PartitionError("numbers must be positive integers")

    @property
    def N(self) -> int:
        return len(self.numbers)

    @property
    def M(self) -> int:
        return max(n.bit_length() for n in self.numbers)

    @property
    def total(self) -> int:
        return sum(self.numbers)

    @property
    def feasible_parity(self) -> bool:
        return self.total % 2 == 0


@dataclass
class _TreeNode:
    prefix: str
    width: int
    children: tuple["_TreeNode", "_TreeNode"] | None
    selectors: tuple[str, ...] = ()
    constants: tuple[int, ...] = ()


@dataclass
class SummationTreeQubo:
    """Pairwise-summation tree objective; `root` is None for an odd total."""

    qubo: Qubo
    instance: PartitionInstance
    selectors: list[str]
    root: _TreeNode | None
    feasible_parity: bool


def build_summation_tree(
    builder: QuboBuilder,
    constants: list[int],
    selectors: list[str | None],
    tag: str,
    leaf_width: int,
) -> _TreeNode:
    """Add the columns of a pairwise summation tree to the builder.

    Leaf k is a selectable adder of constants 2k-1 and 2k gated by their
    selectors into a leaf_width register; a constant with no selector or value
    zero is left out, a leaf with nothing left is absent, and a node with one
    child is that child.  Internal nodes add their two child registers into a
    register one bit wider.  Node (level, k) owns register f"{tag}{level}.{k}"
    and carries f"Z{tag}{level}.{k}".
    """
    n_leafs = len(constants)
    m = max(1, math.ceil(math.log2(max(2, n_leafs))))

    def build(level: int, k: int) -> _TreeNode | None:
        prefix = f"{tag}{level}.{k}"
        if level == m - 1:
            gated = [
                (selectors[i], constants[i])
                for i in (2 * k - 2, 2 * k - 1)
                if i < n_leafs and selectors[i] is not None and constants[i] != 0
            ]
            if not gated:
                return None
            columns = [[s for s, c in gated if (c >> j) & 1] for j in range(leaf_width - 1)]
            add_columns(builder, prefix, f"Z{prefix}", columns)
            sels, consts = zip(*gated)
            return _TreeNode(prefix, leaf_width, None, sels, consts)
        left = build(level + 1, 2 * k - 1)
        right = build(level + 1, 2 * k)
        if right is None:
            return left
        width = max(left.width, right.width) + 1
        columns = [
            [f"{c.prefix}:{j}" for c in (left, right) if j < c.width] for j in range(width - 1)
        ]
        add_columns(builder, prefix, f"Z{prefix}", columns)
        return _TreeNode(prefix, width, (left, right))

    root = build(0, 1)
    assert root is not None
    return root


def build_numpart_qubo(inst: PartitionInstance) -> SummationTreeQubo:
    """Compile a partition instance to a tree-of-adders QUBO.

    Zero ground energy iff some subset of the numbers sums to W = total / 2;
    selector bits x_i mark the subset.  An odd total cannot balance; the
    compiler then returns a flagged marker objective with constant energy 1.
    """
    builder = QuboBuilder(BINARY)
    selectors = [f"x{i}" for i in range(1, inst.N + 1)]
    for s in selectors:
        builder.var(s)
    if not inst.feasible_parity:
        builder.add_offset(1.0)
        return SummationTreeQubo(builder.build(), inst, selectors, None, False)

    root = build_summation_tree(builder, list(inst.numbers), selectors, "X", inst.M + 1)
    W = inst.total // 2
    for p in range(root.width):
        bit = (W >> p) & 1
        # (bit - X_p)^2 folds to a linear pin on the register bit
        builder.add_squared_affine(float(bit), [(f"{root.prefix}:{p}", -1.0)])
    return SummationTreeQubo(builder.build(), inst, selectors, root, True)


def predicted_numpart_length(N: int, M: int, J: int, strategy: str = "tree") -> float:
    """Closed-form side-length bounds: treelike vs flat pairwise summation."""
    if strategy == "tree":
        return (12.0 * M + 40.0) / J * math.sqrt(N)
    if strategy == "linear":
        return 7.0 * N * M / J
    raise PartitionError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# layout


def _node_vars(node: _TreeNode) -> list[str]:
    """Clique content of one node block: outputs, carries, inputs, selectors."""
    names: list[str] = []
    names.extend(f"{node.prefix}:{p}" for p in range(node.width))
    names.extend(f"Z{node.prefix}:{p}" for p in range(1, node.width - 1))
    if node.children:
        for child in node.children:
            names.extend(f"{child.prefix}:{p}" for p in range(child.width))
    else:
        names.extend(node.selectors)
    return names


def _layout_node(
    planner: SlotPlanner, node: _TreeNode, origin: tuple[int, int], level: int
) -> tuple[int, int, dict[str, tuple[int, int, int]]]:
    """Place the subtree rooted at node; return (width, height, register pads).

    Even levels set the children side by side with the parent block below and
    to the right, so the child exit lanes and the parent arm extensions never
    share a column.  Odd levels are the same layout mirrored across the
    diagonal: cell coordinates swap, and so do horizontal and vertical runs,
    which stacks the children instead.  Pads map each output-register bit to
    its (col, row, track) arm end on the subtree bounding box edge: the right
    edge in this level's frame, which is the bottom edge in the parent's.
    """
    J = planner.J
    flip = level % 2 == 1

    def frame(a: int, b: int) -> tuple[int, int]:
        # lattice <-> this level's frame (the swap is its own inverse)
        return (b, a) if flip else (a, b)

    down, across = planner.run_vertical, planner.run_horizontal
    if flip:
        down, across = across, down
    names = _node_vars(node)
    # from here on (u, v) coordinates and all sizes are in this level's frame
    ou, ov = frame(*origin)
    if node.children is None:
        b = place_clique_block(planner, origin, names)
        block_v, width, height = ov, b, b
    else:
        left, right = node.children
        w1, h1, pads1 = _layout_node(planner, left, origin, level + 1)
        w1, h1 = frame(w1, h1)
        w2, h2, pads2 = _layout_node(planner, right, frame(ou + w1, ov), level + 1)
        w2, h2 = frame(w2, h2)
        block_u, block_v = ou + w1 + w2, ov + max(h1, h2)
        b = place_clique_block(planner, frame(block_u, block_v), names)
        for child, pads in ((left, pads1), (right, pads2)):
            for p in range(child.width):
                name = f"{child.prefix}:{p}"
                i, j, track = pads[name]
                col, row = frame(i, j)
                drow, dtrack = divmod(names.index(name), J)
                arm_row = block_v + drow
                down(name, track, col, row + 1, arm_row)
                across(name, dtrack, arm_row, col, block_u - 1)
        width, height = w1 + w2 + b, block_v + b - ov
    out_pads = {}
    for p in range(node.width):
        name = f"{node.prefix}:{p}"
        row, track = divmod(names.index(name), J)
        out_pads[name] = (*frame(ou + width - 1, block_v + row), track)
    return (*frame(width, height), out_pads)


def embed_numpart(inst: PartitionInstance, J: int = 4) -> EmbeddedQubo:
    """Fractal-style embedding of the summation tree with register corridors.

    Each tree node becomes a clique block; child output registers travel to
    their parent block through corridor jogs sized ceil(width / J).  Split
    directions alternate per level so the realized side stays within the
    (12M + 40) sqrt(N) / J budget.
    """
    if J < 2:
        raise PartitionError("register corridors need J >= 2")
    tree = build_numpart_qubo(inst)
    if not tree.feasible_parity:
        raise PartitionError("odd total has no balanced partition; nothing to embed")
    planner = SlotPlanner(J)
    assert tree.root is not None
    _layout_node(planner, tree.root, (0, 0), 0)
    return embed_qubo(tree.qubo, planner.to_embedding(tree.qubo.index_of))


# ---------------------------------------------------------------------------
# decoding


def decode_partition(
    tree: SummationTreeQubo, assignment, broken_chains: int = 0
) -> dict:
    """Split the numbers per the selector bits and report the imbalance."""
    inst = tree.instance
    set_a, set_b = [], []
    for i, name in enumerate(tree.selectors, start=1):
        value = assignment[tree.qubo.index_of(name)]
        (set_a if value == 1 else set_b).append(inst.numbers[i - 1])
    residual = abs(sum(set_a) - sum(set_b))
    return {
        "set_a": set_a,
        "set_b": set_b,
        "residual": residual,
        "balanced": residual == 0,
        "broken_chains": broken_chains,
    }


def arithmetic_completion(
    tree: SummationTreeQubo, selector_values: dict[str, int]
) -> tuple[int, ...]:
    """The unique zero-column-penalty completion of a selector assignment.

    Registers carry the exact partial sums and carries follow the grade-school
    algorithm, so every column constraint evaluates to zero; only the root
    pins can then contribute energy.  The objective is a sum of squares, so
    its ground energy is zero exactly when some completion evaluates to zero.
    """
    assert tree.root is not None
    values: dict[str, int] = {}
    for name in tree.selectors:
        values[name] = int(selector_values[name])

    def fill(node: _TreeNode) -> int:
        if node.children is None:
            total = sum(
                const * values[sel] for sel, const in zip(node.selectors, node.constants)
            )
            in_bits = lambda j: sum(
                ((const >> j) & 1) * values[sel]
                for sel, const in zip(node.selectors, node.constants)
            )
        else:
            a = fill(node.children[0])
            b = fill(node.children[1])
            total = a + b
            in_bits = lambda j: ((a >> j) & 1) + ((b >> j) & 1)
        carry = 0
        for j in range(node.width - 1):
            out_bit = (total >> j) & 1
            values[f"{node.prefix}:{j}"] = out_bit
            carry = (in_bits(j) + carry - out_bit) // 2
            if j + 1 < node.width - 1:
                values[f"Z{node.prefix}:{j + 1}"] = carry
        values[f"{node.prefix}:{node.width - 1}"] = carry
        return total

    fill(tree.root)
    return tuple(values[tree.qubo.name_of(i)] for i in range(tree.qubo.num_vars))


def ground_energy_by_completion(tree: SummationTreeQubo) -> tuple[float, tuple[int, ...] | None]:
    """Zero-or-positive ground check by sweeping selector completions.

    Returns (0.0, state) with a witness when a balanced subset exists; else
    (minimum completion energy, None), which is positive.
    """
    if not tree.feasible_parity:
        return tree.qubo.offset, None
    best = math.inf
    witness = None
    n = len(tree.selectors)
    for code in range(1 << n):
        fixed = {name: (code >> k) & 1 for k, name in enumerate(tree.selectors)}
        state = arithmetic_completion(tree, fixed)
        e = tree.qubo.energy(state)
        if e < best:
            best, witness = e, state
        if best == 0.0:
            break
    return best, (witness if best == 0.0 else None)
