"""Integer addition as a QUBO with coupling constants independent of width.

The grade-school algorithm is encoded column by column: each column constraint
(y_j + 2 z_{j+1} - x1_j - x2_j - z_j)^2 vanishes exactly when the output and
carry bits are consistent, so the total is zero iff Y = X1 + X2.  The incoming
carry z_0 is omitted (it is identically zero) and the top output bit doubles
as the final carry, giving 4n bits for n-bit inputs.  `add_columns` is the
one column encoding: the summation trees of number partitioning and knapsack
add their columns through it, and each tree leaf is the paper's
selectable-constant adder (see `numpart.build_summation_tree`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .qubo import BINARY, Qubo, QuboBuilder


class AdderError(ValueError):
    """Invalid adder parameter."""


@dataclass(frozen=True)
class AdderInstance:
    """The sum of two n-bit inputs."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise AdderError("adder width must be at least 1")


@dataclass
class AdderQubo:
    """Adder objective over two n-bit inputs."""

    n: int
    qubo: Qubo


def add_columns(builder: QuboBuilder, out: str, carry: str, addends: list[list[str]]) -> None:
    """Column constraints of one addition into register `out`.

    Column j is (out:j + 2 carry:j+1 - carry:j - sum addends[j])^2 with unit
    addend weights.  carry:0 is omitted and the top output bit out:n doubles
    as the last carry, so n = len(addends) columns span out:0..n and
    carry:1..n-1.  Terms are added in the order out bit, carry-out, carry-in,
    addends.
    """
    n = len(addends)
    for j, column in enumerate(addends):
        carry_out = f"{out}:{n}" if j == n - 1 else f"{carry}:{j + 1}"
        terms = [(f"{out}:{j}", 1.0), (carry_out, 2.0)]
        if j > 0:
            terms.append((f"{carry}:{j}", -1.0))
        terms.extend((name, -1.0) for name in column)
        builder.add_squared_affine(0.0, terms)


def build_adder(n: int) -> AdderQubo:
    """Column-wise adder for two n-bit inputs.

    Variables: x1:j, x2:j (inputs), y:j (outputs, j <= n), z:j (carries,
    1 <= j < n).  y:n is the aliased top carry.  Zero energy iff the outputs
    and carries encode X1 + X2 exactly.
    """
    AdderInstance(n)  # refuses n below 1
    builder = QuboBuilder(BINARY)
    for which in (1, 2):
        for j in range(n):
            builder.var(f"x{which}:{j}")
    for j in range(n + 1):
        builder.var(f"y:{j}")
    for j in range(1, n):
        builder.var(f"z:{j}")
    add_columns(builder, "y", "z", [[f"x1:{j}", f"x2:{j}"] for j in range(n)])
    return AdderQubo(n, builder.build())


def build_naive_adder(n: int) -> AdderQubo:
    """Single squared constraint with power-of-two weights.

    Reference oracle only: its couplings grow like 4^n, which is useless for
    hardware but convenient to compare ground sets against build_adder.
    """
    AdderInstance(n)  # refuses n below 1
    builder = QuboBuilder(BINARY)
    terms: list[tuple[str, float]] = []
    for j in range(n):
        terms.append((f"x1:{j}", -float(2**j)))
        terms.append((f"x2:{j}", -float(2**j)))
    for j in range(n + 1):
        terms.append((f"y:{j}", float(2**j)))
    builder.add_squared_affine(0.0, terms)
    return AdderQubo(n, builder.build())


def read_register(assignment, qubo: Qubo, prefix: str, width: int) -> int:
    """Integer value of register `prefix` from the bits of an assignment to qubo."""
    total = 0
    for j in range(width):
        total += (1 << j) * int(assignment[qubo.index_of(f"{prefix}:{j}")])
    return total
