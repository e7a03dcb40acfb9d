"""Sparse quadratic binary/spin objectives and the solvers used to verify them.

A :class:`Qubo` stores an objective

    E(x) = offset + sum_i linear[i] * x_i + sum_{i<j} quadratic[i, j] * x_i * x_j

over binary variables (``x_i in {0, 1}``) or spins (``s_i in {-1, +1}``).
Everything downstream of the compilers (brute-force spectra, simulated
annealing, coupling normalization, hardware-noise modeling) lives here.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

BINARY = "binary"
SPIN = "spin"

#: Tolerance used when comparing energies of rationally-constructed objectives.
COEFF_TOL = 1e-9

#: Default variable cap for exhaustive enumeration (~2.7e8 evaluations).
BRUTE_FORCE_CAP = 28

_BLOCK = 1 << 16

#: Energies per block of the split enumeration (1 MiB of float64).
_SPLIT_BLOCK = 1 << 17

#: Half-enumeration code-row tables kept, one per (variables, domain): room
#: for all 30 halves of objectives within `BRUTE_FORCE_CAP`, 0.8 MiB of int8.
_CODE_ROW_CACHE = 32

#: Annealer draws per block of sweeps (32 KiB of float64).
_DRAW_BLOCK = 4096


class QuboError(ValueError):
    """Invalid parameter or assignment handed to a QUBO operation."""


class FieldTypeError(TypeError):
    """A document field holding a value of the wrong type, such as 2.5 where
    an integer belongs; documents report its text as it stands."""


def doc_int(value) -> int:
    """An integer field of a document or an index key.

    Only a true integer passes (``operator.index``); a float, a string or a
    bool raises FieldTypeError rather than being truncated or read as 0 or 1.
    """
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise FieldTypeError(f"expected an integer, got {value!r}")


def doc_number(value) -> float:
    """A real-number field of a document: a JSON integer or float.

    A bool or a string raises FieldTypeError rather than being read as 0, 1
    or the number it spells, and so does an integer too large for a float.
    """
    if type(value) is float or type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise FieldTypeError(f"number out of float range, got {value!r}") from None
    raise FieldTypeError(f"expected a number, got {value!r}")


def _doc_names(value) -> list[str]:
    if type(value) is not list:
        raise FieldTypeError(f"var_names must be a list of strings, got {value!r}")
    for name in value:
        if type(name) is not str:
            raise FieldTypeError(f"var_names must hold strings, got {name!r}")
    return list(value)


def _check_distinct(keys: list) -> None:
    if len(set(keys)) != len(keys):
        raise QuboError("repeated variable inside squared expression")


@dataclass
class Qubo:
    """Sparse quadratic form over named binary or spin variables."""

    domain: str
    num_vars: int
    offset: float = 0.0
    linear: dict[int, float] = field(default_factory=dict)
    quadratic: dict[tuple[int, int], float] = field(default_factory=dict)
    var_names: list[str] | None = None
    _name_index: dict[str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.domain not in (BINARY, SPIN):
            raise QuboError(f"unknown domain {self.domain!r}")
        if self.var_names is not None and len(self.var_names) != self.num_vars:
            raise QuboError("var_names length does not match num_vars")

    # -- construction helpers -------------------------------------------------

    def add_offset(self, c: float) -> None:
        self.offset += c

    def add_linear(self, i: int, c: float) -> None:
        if not 0 <= i < self.num_vars:
            raise QuboError(f"variable {i} out of range")
        if c == 0.0:
            return
        new = self.linear.get(i, 0.0) + c
        if new == 0.0:
            self.linear.pop(i, None)
        else:
            self.linear[i] = new

    def add_quadratic(self, i: int, j: int, c: float) -> None:
        key = (i, j) if i < j else (j, i)
        if not 0 <= key[0] < key[1] < self.num_vars:
            if i == j:
                raise QuboError(f"quadratic term requires two distinct variables, got ({i}, {j})")
            raise QuboError(f"variable pair {key} out of range")
        if c == 0.0:
            return
        new = self.quadratic.get(key, 0.0) + c
        if new == 0.0:
            self.quadratic.pop(key, None)
        else:
            self.quadratic[key] = new

    def add_squared_affine(self, const: float, terms: Sequence[tuple[int, float]]) -> None:
        """Add (const + sum coeff_k * v_k)**2, expanded for this domain.

        Squares of variables reduce per the domain: x**2 = x for binary,
        s**2 = 1 for spin.  A repeated or out-of-range variable raises
        before any term is added.
        """
        _check_distinct([i for i, _ in terms])
        for i, _ in terms:
            if not 0 <= i < self.num_vars:
                raise QuboError(f"variable {i} out of range")
        self.add_offset(const * const)
        for i, a in terms:
            if self.domain == BINARY:
                self.add_linear(i, a * a + 2.0 * const * a)
            else:
                self.add_offset(a * a)
                self.add_linear(i, 2.0 * const * a)
        for k, (i, a) in enumerate(terms):
            for j, b in terms[k + 1 :]:
                self.add_quadratic(i, j, 2.0 * a * b)

    def copy(self) -> "Qubo":
        return Qubo(
            self.domain,
            self.num_vars,
            self.offset,
            dict(self.linear),
            dict(self.quadratic),
            list(self.var_names) if self.var_names is not None else None,
        )

    # -- lookups ---------------------------------------------------------------

    def name_of(self, i: int) -> str:
        if self.var_names is not None:
            return self.var_names[i]
        return str(i)

    def index_of(self, name: str) -> int:
        """Position of variable `name`, from a cached name map.

        The map is rebuilt when a lookup misses or finds a position that no
        longer holds `name`, so `var_names` may be reassigned or edited in
        place.  Duplicate names resolve to the first position, as of the last
        rebuild.
        """
        names = self.var_names
        if names is None:
            raise QuboError("qubo has no variable names")
        i = (self._name_index or {}).get(name)
        if i is None or i >= len(names) or names[i] != name:
            self._name_index = {}
            for k, n in enumerate(names):
                self._name_index.setdefault(n, k)
            i = self._name_index.get(name)
            if i is None:
                raise QuboError(f"unknown variable {name!r}")
        return i

    def interaction_edges(self) -> set[tuple[int, int]]:
        """Pairs with a nonzero quadratic coefficient."""
        return {k for k, v in self.quadratic.items() if v != 0.0}

    def max_abs_quadratic(self) -> float:
        return max((abs(v) for v in self.quadratic.values()), default=0.0)

    def max_abs_linear(self) -> float:
        return max((abs(v) for v in self.linear.values()), default=0.0)

    # -- evaluation --------------------------------------------------------

    def _domain_values(self) -> tuple[int, int]:
        return (0, 1) if self.domain == BINARY else (-1, 1)

    def check_assignment(self, assignment: Sequence[float]) -> None:
        if len(assignment) != self.num_vars:
            raise QuboError(
                f"assignment length {len(assignment)} != num_vars {self.num_vars}"
            )
        lo, hi = self._domain_values()
        for v in assignment:
            if v != lo and v != hi:
                raise QuboError(f"value {v!r} outside domain {self.domain}")

    def energy(self, assignment: Sequence[float]) -> float:
        self.check_assignment(assignment)
        e = self.offset
        for i, c in self.linear.items():
            e += c * assignment[i]
        for (i, j), c in self.quadratic.items():
            e += c * assignment[i] * assignment[j]
        return e

    def _dense_terms(self) -> tuple[np.ndarray, np.ndarray]:
        l = np.zeros(self.num_vars)
        for i, c in self.linear.items():
            l[i] = c
        u = np.zeros((self.num_vars, self.num_vars))
        for (i, j), c in self.quadratic.items():
            u[i, j] = c
        return l, u

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Vectorized energies for a (num_states, num_vars) array of assignments.

        Each row is summed in one fixed order, so its energy does not depend on
        how many rows share the call.
        """
        return _row_energies(states, *self._dense_terms(), self.offset)


def _row_energies(states: np.ndarray, l: np.ndarray, u: np.ndarray, offset: float) -> np.ndarray:
    # einsum without `optimize` never calls BLAS, whose sums round a row
    # differently with the number of rows in the product
    states = np.asarray(states, dtype=np.float64)
    field = np.einsum("si,ij->sj", states, u, optimize=False)
    return offset + np.einsum("si,si->s", states, field + l, optimize=False)


def _quadratic_form(states: np.ndarray, l: np.ndarray, u: np.ndarray, offset: float) -> np.ndarray:
    """Bulk energies by BLAS: within rounding of `_row_energies`, and only used
    to select the rows it re-evaluates."""
    return offset + states @ l + np.einsum("si,si->s", states @ u, states)


@dataclass
class Spectrum:
    """Exact low-energy summary of an objective."""

    ground_energy: float
    ground_states: list[tuple[int, ...]]
    gap: float
    state_count_at_ground: int
    degenerate: bool = False


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian control noise on every realized coupler, seed-deterministic."""

    sigma_scale: float = 0.03
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sigma_scale) and self.sigma_scale >= 0):
            raise QuboError(f"sigma must be a finite number of at least 0, got {self.sigma_scale}")


def substitute(
    q: Qubo,
    out: Qubo,
    image: Sequence[tuple[float, float, int]] | Mapping[int, tuple[float, float, int]],
) -> None:
    """Add `q` to `out` with each x_i replaced by a + b * y_k, (a, b, k) = image[i].

    b = 0 makes x_i the constant a; a relabel or affine image with a = 0 has
    no constant part.  A product y_k * y_k reduces by `out`'s domain (y_k for
    binary, 1 for spin).  Each term adds its constant part, then its y parts,
    then its product, skipping parts that are zero, so multipliers of 1/2,
    +-1 and 2 reproduce every coefficient bit for bit.  An `out` started at
    offset -0.0, the exact additive identity, receives `q.offset` unchanged.
    """
    out.add_offset(q.offset)
    for i, c in q.linear.items():
        a, b, k = image[i]
        if a or not b:
            out.add_offset(c * a)
        if b:
            out.add_linear(k, c * b)
    for (i, j), c in q.quadratic.items():
        ai, bi, ki = image[i]
        aj, bj, kj = image[j]
        if (ai or not bi) and (aj or not bj):
            out.add_offset(c * ai * aj)
        if bi and aj:
            out.add_linear(ki, c * bi * aj)
        if ai and bj:
            out.add_linear(kj, c * ai * bj)
        if bi and bj:
            if ki != kj:
                out.add_quadratic(ki, kj, c * bi * bj)
            elif out.domain == BINARY:
                out.add_linear(ki, c * bi * bj)
            else:
                out.add_offset(c * bi * bj)


def to_spin(q: Qubo) -> Qubo:
    """Rewrite a binary objective over spins via x = (1 + s) / 2."""
    if q.domain != BINARY:
        raise QuboError("to_spin expects a binary-domain qubo")
    out = Qubo(SPIN, q.num_vars, -0.0, var_names=list(q.var_names) if q.var_names else None)
    substitute(q, out, [(0.5, 0.5, i) for i in range(q.num_vars)])
    return out


def to_binary(q: Qubo) -> Qubo:
    """Rewrite a spin objective over bits via s = 2x - 1."""
    if q.domain != SPIN:
        raise QuboError("to_binary expects a spin-domain qubo")
    out = Qubo(BINARY, q.num_vars, -0.0, var_names=list(q.var_names) if q.var_names else None)
    substitute(q, out, [(-1.0, 2.0, i) for i in range(q.num_vars)])
    return out


def binary_assignment(spin_assignment: Sequence[int]) -> tuple[int, ...]:
    return tuple((s + 1) // 2 for s in spin_assignment)


def normalize_couplings(q: Qubo) -> tuple[Qubo, float]:
    """Rescale a spin objective into the hardware coupling window.

    One positive scalar multiplies every coefficient so that off-diagonal
    magnitudes are at most 1 and single-site magnitudes at most 2.  The argmin
    set is unchanged.  Returns the scaled qubo and the scale applied.
    """
    if q.domain != SPIN:
        raise QuboError("normalize_couplings expects a spin-domain qubo")
    worst = max(1.0, q.max_abs_quadratic(), q.max_abs_linear() / 2.0)
    if worst == 1.0:
        return q.copy(), 1.0
    scale = 1.0 / worst
    out = q.copy()
    out.offset *= scale
    out.linear = {i: c * scale for i, c in out.linear.items()}
    out.quadratic = {k: c * scale for k, c in out.quadratic.items()}
    return out, scale


def apply_noise(q: Qubo, model: NoiseModel) -> Qubo:
    """Perturb every structurally-present coefficient by sigma_scale * N(0, 1).

    Absent couplers stay exactly zero, mirroring hardware where there is no
    physical coupler to mis-set.  Deterministic for a fixed seed.
    """
    if q.domain != SPIN:
        raise QuboError("apply_noise expects a spin-domain qubo")
    rng = np.random.default_rng(model.seed)
    out = q.copy()
    for i in sorted(out.linear):
        out.linear[i] += model.sigma_scale * rng.standard_normal()
    for key in sorted(out.quadratic):
        out.quadratic[key] += model.sigma_scale * rng.standard_normal()
    return out


def _code_rows(start: int, stop: int, num_vars: int, domain: str) -> np.ndarray:
    """Assignments of the codes start..stop-1; bit i of a code is variable i.

    The int8 table is allocated once and filled one bit column at a time, so
    no wider table of its shape is ever built; spins are mapped in place.
    """
    codes = np.arange(start, stop, dtype=np.uint64)
    bits = np.empty((len(codes), num_vars), dtype=np.int8)
    for i in range(num_vars):
        bits[:, i] = codes & 1
        codes >>= 1
    if domain == SPIN:
        bits *= 2
        bits -= 1
    return bits


@functools.lru_cache(maxsize=_CODE_ROW_CACHE)
def _half_rows(k: int, domain: str) -> np.ndarray:
    """Read-only `_code_rows` of all 2**k codes, built once per (k, domain)."""
    rows = _code_rows(0, 1 << k, k, domain)
    rows.flags.writeable = False
    return rows


#: One batch of states: their bulk energies, within rounding of the exact
#: ones and used to select rows (`_spectrum_from_batches` overwrites them),
#: and `pick(idx)` giving the rows at positions `idx` of the batch.
Batch = tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]


def _split_energy_blocks(q: Qubo) -> Iterable[Batch]:
    """Energies of all 2**n assignments, in code order, one block at a time.

    The low k = n // 2 variables and the high n - k each get their rows S and
    their own energies once (the offset goes to the high half).  With
    C = U[:k, k:] the cross couplings, the block over high rows h and every
    low row l is e_hi[h] + e_lo[l] + S_hi[h] . (S_lo C)[l]: one matrix product
    of at most `_SPLIT_BLOCK` entries.  Entries are hi-major, which is code
    order.  Each half's int8 rows come from the `_half_rows` cache, unless n
    exceeds `BRUTE_FORCE_CAP` and they are too large to keep; each block's
    `pick` builds the picked rows.
    """
    n, k = q.num_vars, q.num_vars // 2
    l, u = q._dense_terms()
    rows = _half_rows if n <= BRUTE_FORCE_CAP else _half_rows.__wrapped__
    lo, hi = rows(k, q.domain), rows(n - k, q.domain)
    lo_f, hi_f = lo.astype(np.float64), hi.astype(np.float64)
    e_lo = _quadratic_form(lo_f, l[:k], u[:k, :k], 0.0)
    e_hi = _quadratic_form(hi_f, l[k:], u[k:, k:], q.offset)
    cross = (lo_f @ u[:k, k:]).T
    step = max(1, _SPLIT_BLOCK >> k)

    for h0 in range(0, len(hi), step):

        def pick(idx: np.ndarray, h0: int = h0) -> np.ndarray:
            h, low = np.divmod(idx, len(lo))
            return np.hstack((lo[low], hi[h0 + h]))

        block = hi_f[h0 : h0 + step] @ cross
        block += e_hi[h0 : h0 + step, None]
        block += e_lo
        yield block.ravel(), pick


def _drop_above(
    kept: list[tuple[np.ndarray, np.ndarray]], band: float
) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
    """Merge (rows, energies) chunks, in order, and drop the rows whose energy
    exceeds `band`; also return the lowest dropped energy (inf if none)."""
    if not kept:
        return [], math.inf
    rows = np.concatenate([r for r, _ in kept])
    energies = np.concatenate([e for _, e in kept])
    keep = energies <= band
    lowest = float(np.min(energies, where=~keep, initial=np.inf))
    return ([(rows[keep], energies[keep])] if keep.any() else []), lowest


def _spectrum_from_batches(q: Qubo, batches: Iterable[Batch]) -> Spectrum:
    # Each batch's bulk energies select the positions within COEFF_TOL +
    # slack (a bound on the rounding gap between bulk and exact energies) of
    # the running minimum; `pick` gives their rows, whose exact energies alone
    # decide the ground set and the gap.  When the running minimum falls, kept
    # rows that left the band can no longer be ground states (the row at the
    # minimum stays, within slack of it): they are dropped, and `floor`, the
    # lowest exact energy of the excited rows seen, stands in for them in the
    # gap.  Whenever a batch's lowest bulk energy outside the band comes within
    # slack of `floor`, its rows within slack of it are picked too, so the
    # next level is the lowest exact energy of every row that could hold it,
    # whichever of them the bulk sums round lowest; a batch whose outside rows
    # all lie further above `floor` holds none of them.
    coefficients = [q.offset, *q.linear.values(), *q.quadratic.values()]
    scale = sum(map(abs, coefficients))
    # Each coefficient is a multiple of 1/denominator (a power of two), so is
    # every partial sum of an energy, and none exceeds `scale`.  If all such
    # multiples fit in 53 bits, as for integer objectives, no sum rounds in
    # any order: bulk energies are exact, slack is 0, no row is re-evaluated,
    # and a batch's lowest bulk energy outside the band is exact too.
    exact_sums = math.isfinite(scale) and scale * max(
        float(c).as_integer_ratio()[1] for c in coefficients
    ) <= 2**53
    # otherwise either sum of at most ~400 terms rounds by far less than
    # 1e-12 of their magnitudes
    slack = 0.0 if exact_sums else 1e-12 * scale
    if not exact_sums:
        l, u = q._dense_terms()
    running = floor = math.inf
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    for energies, pick in batches:
        low = float(energies.min())
        band = min(running, low) + COEFF_TOL + slack
        if low < running:
            kept, lowest = _drop_above(kept, band)
            floor = min(floor, lowest)
            running = low
        near = np.flatnonzero(energies <= band)
        values = energies[near]
        energies[near] = math.inf  # leaves the energies outside the band
        above = float(energies.min())
        idx = near
        if exact_sums:
            floor = min(floor, above)
        elif above < math.inf and above <= floor + slack:
            idx = np.append(near, np.flatnonzero(energies <= above + slack))
        if len(idx):
            rows = pick(idx)
            if not exact_sums:
                values = _row_energies(rows, l, u, q.offset)
            if len(near):
                kept.append((rows[: len(near)], values[: len(near)]))
            floor = min(floor, float(values[len(near) :].min(initial=math.inf)))
    if not kept:
        raise QuboError("empty subspace: no states to take a spectrum over")
    # the first lowest in kept order, as `min` over all values finds it: the
    # sign of a zero ground energy depends on which row gives it
    ground = min(float(e[e.argmin()]) for _, e in kept)
    states: list[tuple[int, ...]] = []
    for rows, exact in kept:
        excited = exact > ground + COEFF_TOL
        if excited.any():
            floor = min(floor, float(exact[excited].min()))
        rows = rows[~excited]
        for s in range(0, len(rows), _BLOCK):
            states.extend(map(tuple, rows[s : s + _BLOCK].tolist()))
    if floor == math.inf:
        return Spectrum(ground, states, 0.0, len(states), degenerate=True)
    return Spectrum(ground, states, floor - ground, len(states))


def brute_force(q: Qubo, cap: int = BRUTE_FORCE_CAP) -> Spectrum:
    """Exhaustive spectrum over all 2**num_vars assignments.

    Refuses above `cap` variables; ties at the ground level are collected
    exhaustively, in code order (bit i of the code is variable i).  The
    variables split into a low and a high half whose energies are built once
    per call; each half's int8 code rows are the same rows a fresh build
    gives, read from a read-only cache keyed by (variables, domain) within
    `BRUTE_FORCE_CAP`.  Each block of energies is one matrix product over the
    cross couplings, capped at `_SPLIT_BLOCK` entries (1 MiB), so memory does
    not grow with 2**num_vars.  Only rows within `COEFF_TOL` of the running
    minimum and the rows that may hold the next level are materialized, as
    int8 rows, and their energies are re-evaluated with the dense terms unless
    no sum of the objective can round (integer coefficients, say), in which
    case those terms are not built a second time.  Kept rows that the
    running minimum leaves behind are dropped as it falls, so apart from the
    ground set returned the working set stays under about 8 MiB.
    """
    if q.num_vars > cap:
        raise QuboError(
            f"brute_force refused: {q.num_vars} variables exceed cap {cap}"
        )
    if q.num_vars == 0:
        return Spectrum(q.offset, [()], 0.0, 1, degenerate=True)
    return _spectrum_from_batches(q, _split_energy_blocks(q))


def spectrum_of_states(q: Qubo, states: Iterable[Sequence[int]]) -> Spectrum:
    """Exact spectrum restricted to an explicit collection of assignments.

    The states are read `_BLOCK` rows at a time, so a generator of any length
    is never held in memory.  Each block is checked at once: a state without
    `num_vars` values, or with a value outside the domain, raises `QuboError`
    naming the position of the first such state.
    """
    lo, hi = q._domain_values()
    l, u = q._dense_terms()

    def batches():
        it = iter(states)
        for start in itertools.count(0, _BLOCK):
            block = list(itertools.islice(it, _BLOCK))
            if not block:
                return
            try:
                rows = np.asarray(block)
            except ValueError:  # states of unequal lengths
                rows = None
            if rows is None or rows.shape != (len(block), q.num_vars):
                i = next((i for i, s in enumerate(block) if len(s) != q.num_vars), 0)
                raise QuboError(
                    f"state {start + i} has {len(block[i])} values, num_vars is {q.num_vars}"
                )
            bad = ((rows != lo) & (rows != hi)).any(axis=1)
            if bad.any():
                i = int(bad.argmax())
                raise QuboError(
                    f"state {start + i} {tuple(block[i])!r} has a value outside domain {q.domain}"
                )
            # hold only the int8 rows while they are evaluated: the tuples
            # and the wide array take ten times their memory
            del block
            rows = rows.astype(np.int8)
            yield _quadratic_form(rows.astype(np.float64), l, u, q.offset), rows.__getitem__

    return _spectrum_from_batches(q, batches())


def restricted_gap(
    q: Qubo,
    predicate: Callable[[tuple[int, ...]], bool] | None = None,
    states: Iterable[Sequence[int]] | None = None,
) -> Spectrum:
    """Spectrum restricted to a subspace.

    The subspace is either an explicit iterable of assignments (`states`) or
    the subset of the full state space satisfying `predicate`, visited in code
    order (bit i of the code is variable i).
    """
    if states is None:
        if predicate is None:
            raise QuboError("restricted_gap needs a predicate or a state generator")
        if q.num_vars > BRUTE_FORCE_CAP:
            raise QuboError(
                f"restricted_gap refused: {q.num_vars} variables exceed cap {BRUTE_FORCE_CAP} "
                "and no state generator was given"
            )
        codes = itertools.product(q._domain_values(), repeat=q.num_vars)
        states = filter(predicate, (code[::-1] for code in codes))
    return spectrum_of_states(q, states)


def clamp(q: Qubo, assignments: Mapping[int | str, int]) -> Qubo:
    """Substitute constants for some variables and drop them.

    Keys may be integer indices (not bools) or variable names.  The energy
    function over the remaining free variables is unchanged.
    """
    image: dict[int, tuple[float, float, int]] = {}
    lo, hi = (0, 1) if q.domain == BINARY else (-1, 1)
    for key, value in assignments.items():
        if isinstance(key, str):
            idx = q.index_of(key)
        else:
            try:  # only true integers index; a float or a bool is no variable
                idx = doc_int(key)
            except TypeError:
                idx = -1
        if not 0 <= idx < q.num_vars:
            raise QuboError(f"unknown variable {key!r}")
        if value != lo and value != hi:
            raise QuboError(f"clamp value {value!r} outside domain {q.domain}")
        image[idx] = (int(value), 0.0, 0)
    keep = [i for i in range(q.num_vars) if i not in image]
    image.update((old, (0.0, 1.0, new)) for new, old in enumerate(keep))
    names = [q.name_of(i) for i in keep] if q.var_names is not None else None
    out = Qubo(q.domain, len(keep), -0.0, var_names=names)
    substitute(q, out, image)
    return out


def anneal_solve(
    q: Qubo,
    sweeps: int = 400,
    restarts: int = 8,
    seed: int = 0,
    t_hot: float | None = None,
) -> tuple[tuple[int, ...], float]:
    """Single-spin-flip Metropolis annealing with a geometric schedule from
    `t_hot` down to 0.05.

    Each restart draws its start state from one ``rng.random(n)``; each sweep
    takes the next n draws and visits the variables in index order, flipping
    variable i when ``delta <= 0`` or its draw is below ``exp(-delta / t)``.
    The sweeps' draws come one ``rng.random((rows, n))`` per block of
    ``rows = max(1, 4096 // n)`` sweeps, the last block of a restart cut to
    the sweeps left; PCG64 fills a block with the doubles of its sweeps' own
    ``rng.random(n)`` calls, in the same order, so blocking changes no draw.
    The couplings are per-variable neighbour lists, so an accepted flip
    updates only the flipped variable's neighbours: memory and the cost of a
    sweep grow with the number of terms, not with n**2.  For a given seed the
    trajectories are those of the earlier dense-matrix kernel.  `sweeps` and
    `restarts` below 1 raise `QuboError`.  Returns the best assignment over
    all restarts with its energy.
    """
    for name, budget in (("sweeps", sweeps), ("restarts", restarts)):
        if budget < 1:
            raise QuboError(f"anneal {name} must be at least 1, got {budget}")
    n = q.num_vars
    if n == 0:
        return (), q.offset
    rng = np.random.default_rng(seed)
    lin = [0.0] * n
    for i, c in q.linear.items():
        lin[i] = float(c)
    lo, hi = (0.0, 1.0) if q.domain == BINARY else (-1.0, 1.0)
    span = lo + hi  # a flip from v to span - v changes it by span - 2v, exactly
    unit = hi - lo  # so every flip step is +unit or -unit
    # moves[i] holds (j, unit * c) for each coupling c of i and j: what a flip
    # of i up adds to field[j] and a flip down subtracts.  unit is 1 or 2, so
    # the scaling is exact, and a sum over moves divided by unit is exactly
    # the sum over the couplings themselves.
    moves: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), c in q.quadratic.items():
        inc = unit * float(c)
        moves[i].append((j, inc))
        moves[j].append((i, inc))
    if t_hot is None:
        t_hot = max(
            1.0, max(abs(lin[i]) + sum(abs(inc) for _, inc in moves[i]) / unit for i in range(n))
        )
    temps = (t_hot * (0.05 / t_hot) ** (np.arange(sweeps) / max(1, sweeps - 1))).tolist()
    exp = math.exp
    rows = max(1, _DRAW_BLOCK // n)

    best_steps: list[float] | None = None
    best_energy = math.inf
    for _ in range(restarts):
        state = [lo if draw < 0.5 else hi for draw in rng.random(n).tolist()]
        field = [
            lin[i] + sum(inc * state[j] for j, inc in nbrs) / unit for i, nbrs in enumerate(moves)
        ]
        energy = q.energy(state)
        # each variable's next flip step, negated on a flip
        steps = [span - 2.0 * v for v in state]
        for start in range(0, sweeps, rows):
            block = temps[start : start + rows]
            for t, draws in zip(block, rng.random((len(block), n)).tolist()):
                for i, draw in enumerate(draws):
                    step = steps[i]
                    delta = step * field[i]
                    if delta <= 0.0 or draw < exp(-delta / t):
                        steps[i] = -step
                        energy += delta
                        if step > 0.0:
                            for j, inc in moves[i]:
                                field[j] += inc
                        else:
                            for j, inc in moves[i]:
                                field[j] -= inc
        if energy < best_energy - COEFF_TOL:
            best_energy = energy
            best_steps = steps
    assert best_steps is not None
    result = tuple(int((span - step) / 2.0) for step in best_steps)
    return result, q.energy(result)


class QuboBuilder:
    """Names the variables of one growing Qubo; every term goes through its methods."""

    def __init__(self, domain: str = BINARY):
        self.domain = domain
        self._index: dict[str, int] = {}
        self._qubo = Qubo(domain, 0, var_names=[])

    def var(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = self._qubo.num_vars
            self._qubo.var_names.append(name)
            self._qubo.num_vars += 1
        return self._index[name]

    def add_offset(self, c: float) -> None:
        self._qubo.add_offset(c)

    def add_linear(self, name: str, c: float) -> None:
        self._qubo.add_linear(self.var(name), c)

    def add_quadratic(self, n1: str, n2: str, c: float) -> None:
        self._qubo.add_quadratic(self.var(n1), self.var(n2), c)

    def add_squared_affine(self, const: float, terms: Sequence[tuple[str, float]]) -> None:
        _check_distinct([n for n, _ in terms])
        self._qubo.add_squared_affine(const, [(self.var(n), a) for n, a in terms])

    def build(self) -> Qubo:
        return self._qubo.copy()


def qubo_to_doc(q: Qubo) -> dict:
    """Serializable document form; pairs stored with i < j."""
    doc = {
        "domain": q.domain,
        "num_vars": q.num_vars,
        "offset": q.offset,
        "linear": [[i, c] for i, c in sorted(q.linear.items())],
        "quadratic": [[i, j, c] for (i, j), c in sorted(q.quadratic.items())],
    }
    if q.var_names is not None:
        doc["var_names"] = list(q.var_names)
    return doc


def qubo_from_doc(doc: Mapping) -> Qubo:
    q = Qubo(
        doc["domain"],
        doc_int(doc["num_vars"]),
        doc_number(doc.get("offset", 0.0)),
        var_names=_doc_names(doc["var_names"]) if "var_names" in doc else None,
    )
    for i, c in doc.get("linear", []):
        q.add_linear(doc_int(i), doc_number(c))
    for i, j, c in doc.get("quadratic", []):
        q.add_quadratic(doc_int(i), doc_int(j), doc_number(c))
    for c in (q.offset, *q.linear.values(), *q.quadratic.values()):
        if not math.isfinite(c):
            raise QuboError(f"coefficients must be finite numbers, got {c}")
    return q
