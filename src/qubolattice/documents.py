"""JSON document formats and the problem registry tying the compilers together.

`KINDS` holds one `ProblemKind` per instance tag: the instance type, the body
codec, the logical compiler, the native embedders and the decoder.  Every
per-kind decision in the file pipelines is a lookup in it.  `read` is the one
reader of the documents the commands take as input.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .adder import AdderInstance, build_adder
from .coloring import ColoringInstance, build_coloring_qubo, compile_coloring, decode_coloring
from .embedding import EmbeddedQubo, embed_complete_chimera, embed_qubo, embedding_from_doc
from .hamcycle import (
    HamcycleInstance,
    build_ic_qubo,
    build_tileable_hamcycle,
    decode_cycle,
    embed_tileable_hamcycle,
)
from .knapsack import KnapsackInstance, build_knapsack_qubo
from .numpart import PartitionInstance, build_numpart_qubo, decode_partition, embed_numpart
from .qubo import SPIN, FieldTypeError, Qubo, doc_int, qubo_from_doc
from .unary import UnaryInstance, build_unary_qubo, fractal_embed_unary


class DocumentError(ValueError):
    """Malformed document."""


@contextmanager
def reading(what: str) -> Iterator[None]:
    """The one translation of decoding failures: a missing key, a wrong type
    or shape, or any `ValueError` of a decoder or an instance type met while
    decoding `what` becomes a `DocumentError` prefixed by `what`."""
    try:
        yield
    except KeyError as err:
        raise DocumentError(f"{what}: {err} not found") from None
    except (FieldTypeError, ValueError) as err:
        raise DocumentError(f"{what}: {err}") from None
    except (TypeError, AttributeError) as err:
        raise DocumentError(f"{what}: wrong shape ({err})") from None


@dataclass(frozen=True)
class ProblemKind:
    """Everything the pipelines need to know about one instance tag.

    `logical(inst, strategy, l_star)` returns the logical objective and the
    build metadata; `embedders` maps a strategy to `(inst, J) -> EmbeddedQubo`,
    or None when the native layout does not encode that instance;
    `decode(inst, logical_state, broken_chains, logical_names)` returns
    `(decoded, feasible)`, or None when there is nothing to decode.
    """

    tag: str
    instance_type: type
    parse: Callable[[Mapping], object]
    body: Callable[[object], dict]
    logical: Callable[[object, str, int | None], tuple[Qubo, dict]]
    embedders: Mapping[str, Callable[[object, int], EmbeddedQubo]] = field(default_factory=dict)
    decode: Callable[[object, tuple, int, list], tuple[dict, bool] | None] = lambda *_: None

    def embed(self, inst, strategy: str, J: int) -> EmbeddedQubo:
        """Native embedding for `strategy`, else the complete-graph embedding
        of the logical interactions."""
        native = self.embedders.get(strategy)
        embedded = native(inst, J) if native is not None else None
        if embedded is not None:
            return embedded
        logical, _ = self.logical(inst, strategy, None)
        return embed_qubo(logical, embed_complete_chimera(logical.num_vars, J))


def _ints(values) -> tuple[int, ...]:
    return tuple(doc_int(x) for x in values)


def _edges(body: Mapping) -> tuple[tuple[int, int], ...]:
    return tuple((doc_int(u), doc_int(v)) for u, v in body.get("edges", []))


def _num_vertices(body: Mapping) -> int | None:
    return doc_int(body["num_vertices"]) if "num_vertices" in body else None


def _flag(body: Mapping, key: str) -> bool:
    """A boolean field, false when absent; only JSON true or false passes."""
    value = body.get(key, False)
    if not isinstance(value, bool):
        raise FieldTypeError(f"{key} must be true or false, got {value!r}")
    return value


def _partition_logical(inst: PartitionInstance, strategy, l_star):
    tree = build_numpart_qubo(inst)
    return tree.qubo, {"feasible_parity": tree.feasible_parity}


def _knapsack_logical(inst: KnapsackInstance, strategy, l_star):
    if l_star is None:
        l_star = max(0, sum(inst.values).bit_length() - 1)
    return build_knapsack_qubo(inst, l_star).qubo, {"l_star": l_star}


def _hamcycle_logical(inst: HamcycleInstance, strategy, l_star):
    build = build_tileable_hamcycle if strategy == "tiles" else build_ic_qubo
    return build(inst).qubo, {}


def _mismatch(inst, reads: int, has: int) -> DocumentError:
    """The error for a document whose instance and logical QUBO disagree."""
    return DocumentError(
        f"the {kind_of(inst).tag} instance reads {reads} logical variables, "
        f"but the logical QUBO has {has}"
    )


def _decode_partition(inst: PartitionInstance, state, broken: int, names):
    # every partition embedding keeps build_numpart_qubo's variable order
    tree = build_numpart_qubo(inst)
    if len(state) != tree.qubo.num_vars:
        raise _mismatch(inst, tree.qubo.num_vars, len(state))
    if not tree.feasible_parity:
        return None
    decoded = decode_partition(tree, state, broken)
    return decoded, decoded["balanced"]


def _decode_coloring(inst: ColoringInstance, state, broken: int, names):
    if len(state) != inst.n * inst.q:
        raise _mismatch(inst, inst.n * inst.q, len(state))
    decoded = decode_coloring(inst, state, broken)
    return decoded, decoded["proper"]


def _decode_hamcycle(inst: HamcycleInstance, state, broken: int, names):
    # the position bits x:v:j must be the instance's n^2; the tileable
    # encoding adds ancillas under other names
    roles = {name: i for i, name in enumerate(names) if name.startswith("x:")}
    n = inst.n
    if roles.keys() != {f"x:{v}:{j}" for v in range(n) for j in range(n)}:
        raise _mismatch(inst, n * n, len(roles))
    decoded = decode_cycle(state, inst, roles)
    return decoded, decoded["ok"]


KINDS: dict[str, ProblemKind] = {
    kind.tag: kind
    for kind in (
        ProblemKind(
            "partition",
            PartitionInstance,
            parse=lambda body: PartitionInstance(_ints(body["numbers"])),
            body=lambda inst: {"numbers": list(inst.numbers)},
            logical=_partition_logical,
            embedders={"tree": embed_numpart},
            decode=_decode_partition,
        ),
        ProblemKind(
            "knapsack",
            KnapsackInstance,
            parse=lambda body: KnapsackInstance(
                _ints(body["values"]), _ints(body["weights"]), doc_int(body["capacity"])
            ),
            body=lambda inst: {
                "values": list(inst.values), "weights": list(inst.weights), "capacity": inst.capacity
            },
            logical=_knapsack_logical,
        ),
        ProblemKind(
            "coloring",
            ColoringInstance,
            parse=lambda body: ColoringInstance(_edges(body), doc_int(body["q"]), _num_vertices(body)),
            body=lambda inst: {
                "edges": [list(e) for e in inst.edges], "q": inst.q, "num_vertices": inst.n
            },
            logical=lambda inst, strategy, l_star: (build_coloring_qubo(inst), {}),
            embedders={"tiles": lambda inst, J: compile_coloring(inst)},
            decode=_decode_coloring,
        ),
        ProblemKind(
            "hamcycle",
            HamcycleInstance,
            parse=lambda body: HamcycleInstance(_edges(body), _num_vertices(body)),
            body=lambda inst: {"edges": [list(e) for e in inst.edges], "num_vertices": inst.n},
            logical=_hamcycle_logical,
            embedders={"tiles": embed_tileable_hamcycle},
            decode=_decode_hamcycle,
        ),
        ProblemKind(
            "unary",
            UnaryInstance,
            parse=lambda body: UnaryInstance(doc_int(body["n"]), _flag(body, "allow_zero")),
            body=lambda inst: {"n": inst.n, "allow_zero": inst.allow_zero},
            logical=lambda inst, strategy, l_star: (build_unary_qubo(inst.n, inst.allow_zero).qubo, {}),
            # the fractal tree encodes exactly-one; at-most-one takes the fallback
            embedders={"tree": lambda inst, J: None if inst.allow_zero else fractal_embed_unary(inst.n, J)[0]},
        ),
        ProblemKind(
            "adder",
            AdderInstance,
            parse=lambda body: AdderInstance(doc_int(body["n"])),
            body=lambda inst: {"n": inst.n},
            logical=lambda inst, strategy, l_star: (build_adder(inst.n).qubo, {}),
        ),
    )
}
_BY_TYPE = {kind.instance_type: kind for kind in KINDS.values()}


def kind_of(inst) -> ProblemKind:
    try:
        return _BY_TYPE[type(inst)]
    except KeyError:
        raise DocumentError(f"no problem kind for {type(inst).__name__}") from None


def parse_instance(doc: Mapping):
    """Tagged-union instance documents -> typed instances."""
    if not isinstance(doc, Mapping) or len(doc) != 1:
        raise DocumentError("instance document must have exactly one top-level tag")
    tag, body = next(iter(doc.items()))
    if tag not in KINDS:
        raise DocumentError(f"unknown instance tag {tag!r}")
    with reading(f"malformed {tag!r} instance"):
        return KINDS[tag].parse(body)


@dataclass(frozen=True)
class Document:
    """A command's input as `read` decodes it."""

    instance: object | None
    qubo: Qubo  # physical_qubo, qubo, or the document itself
    embedded: EmbeddedQubo | None
    solver: Qubo | None  # solver_qubo


def read(doc, path: str) -> Document:
    """Decode a parsed input document whole: the instance, the objective (an
    embed document's `physical_qubo`, a build document's `qubo` or a bare
    QUBO), an embed document's `EmbeddedQubo`, and `solver_qubo`.  Every
    error is a `DocumentError` that names `path`."""
    body = doc.get("physical_qubo", doc.get("qubo", doc)) if isinstance(doc, dict) else None
    if not isinstance(body, dict) or "domain" not in body:
        raise DocumentError(f"{path} holds no QUBO")
    with reading(path):
        inst = parse_instance(doc["instance"]) if "instance" in doc else None
        embedded = _embedded(doc) if "physical_qubo" in doc else None
        qubo = embedded.physical if embedded is not None else qubo_from_doc(body)
        solver = qubo_from_doc(doc["solver_qubo"]) if "solver_qubo" in doc else None
        if solver is not None and (solver.domain != SPIN or solver.num_vars != qubo.num_vars):
            raise DocumentError("solver_qubo does not match physical_qubo")
    return Document(inst, qubo, embedded, solver)


def _embedded(doc: Mapping) -> EmbeddedQubo:
    logical, physical = qubo_from_doc(doc["logical_qubo"]), qubo_from_doc(doc["physical_qubo"])
    names = [logical.name_of(i) for i in range(logical.num_vars)]
    embedded = EmbeddedQubo(physical, embedding_from_doc(doc["embedding"], names), logical)
    # embed writes the sorted union of the chains, so any other order is an edit
    stored, union = [doc_int(v) for v in doc["vertex_order"]], embedded.vertex_order
    if stored != union:
        pairs = enumerate(zip(stored, union))
        k = next((k for k, (p, q) in pairs if p != q), min(len(stored), len(union)))
        at = [f"vertex {seq[k]}" if k < len(seq) else "no vertex" for seq in (stored, union)]
        raise DocumentError(
            "vertex_order is not the sorted union of the chains: "
            f"at position {k} it lists {at[0]} where the union has {at[1]}"
        )
    if physical.num_vars != len(union):
        raise DocumentError(
            f"physical_qubo has {physical.num_vars} variables, but vertex_order lists {len(union)}"
        )
    return embedded


def instance_to_doc(inst) -> dict:
    kind = kind_of(inst)
    return {kind.tag: kind.body(inst)}


def dumps(doc) -> str:
    """Canonical serialization: sorted keys, fixed separators, newline end."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _refuse_constant(name: str):
    raise DocumentError(f"{name} is not a JSON number")


def loads(text: str):
    """Parse a document; the NaN and Infinity constants are refused."""
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as err:
        raise DocumentError(f"invalid JSON at line {err.lineno}, column {err.colno}") from None
    except ValueError as err:  # an integer literal past the interpreter's digit limit
        raise DocumentError(str(err)) from None
