"""Command-line pipelines over the serialized document formats.

Subcommands compose through files: `build` turns an instance document into a
logical objective, `embed` lays it onto a lattice, `solve` runs a solver and
decodes, `validate` and `gap` verify, and `predict` prints the closed-form
size estimates.  Identical inputs and seeds produce byte-identical outputs.
Exit codes: 0 success, 1 infeasible or invalid, 2 usage or document error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager

from . import documents
from .cartoon import lz_time, min_gap
from .coloring import build_tileset, verify_gap
from .embedding import EmbeddedQubo, embedding_from_doc, embedding_to_doc, unembed, validate
from .hamcycle import predicted_hamcycle_length, predicted_permutation_length
from .knapsack import predicted_knapsack_length
from .lattice import (
    LatticeError,
    build_lattice,
    chimera_spec,
    detect_chimera,
    lattice_from_doc,
    lattice_to_doc,
)
from .numpart import predicted_numpart_length
from .qubo import (
    BINARY,
    COEFF_TOL,
    SPIN,
    NoiseModel,
    Qubo,
    anneal_solve,
    apply_noise,
    binary_assignment,
    brute_force,
    normalize_couplings,
    qubo_from_doc,
    qubo_to_doc,
    to_spin,
)
from .unary import predicted_unary_length


class UsageError(Exception):
    pass


def _read_doc(path: str):
    try:
        with open(path) as fh:
            return documents.loads(fh.read())
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from None


def _emit(doc, out: str | None) -> None:
    text = documents.dumps(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_lattice(spec_text: str):
    if spec_text.startswith("chimera:"):
        try:
            j, l = (int(x) for x in spec_text.split(":", 1)[1].split(","))
        except ValueError:
            raise UsageError("expected --lattice chimera:J,L") from None
        try:
            return chimera_spec(j, l), ("chimera", j)
        except LatticeError as err:
            raise UsageError(str(err)) from None
    doc = _read_doc(spec_text)
    with _decoding(spec_text):
        return lattice_from_doc(doc), None


def cmd_lattice(args) -> int:
    spec, hint = _parse_lattice(args.lattice)
    graph = build_lattice(spec)
    _emit(
        {
            "lattice": lattice_to_doc(spec, hint),
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        },
        args.out,
    )
    return 0


def cmd_build(args) -> int:
    inst = documents.parse_instance(_read_doc(args.instance))
    logical, meta = documents.kind_of(inst).logical(inst, args.strategy, args.l_star)
    doc = {
        "instance": documents.instance_to_doc(inst),
        "qubo": qubo_to_doc(logical),
        "meta": meta,
        "seed": args.seed,
    }
    _emit(doc, args.out)
    return 0 if meta.get("feasible_parity", True) else 1


def cmd_embed(args) -> int:
    inst = documents.parse_instance(_read_doc(args.instance))
    J = 4
    if args.lattice:
        J = detect_chimera(_parse_lattice(args.lattice)[0]) or 4
    embedded = documents.kind_of(inst).embed(inst, args.strategy, J)
    physical = embedded.physical
    scale = 1.0
    if physical.domain == BINARY:
        physical = to_spin(physical)
    if args.normalize:
        physical, scale = normalize_couplings(physical)
    if args.noise is not None:
        physical = apply_noise(physical, NoiseModel(args.noise, args.seed))
    doc = {
        "instance": documents.instance_to_doc(inst),
        "strategy": args.strategy,
        "embedding": embedding_to_doc(
            embedded.embedding,
            [embedded.logical.name_of(i) for i in range(embedded.logical.num_vars)],
        ),
        "logical_qubo": qubo_to_doc(embedded.logical),
        "physical_qubo": qubo_to_doc(embedded.physical),
        "solver_qubo": qubo_to_doc(physical),
        "scale": scale,
        "vertex_order": list(embedded.vertex_order),
        "seed": args.seed,
    }
    _emit(doc, args.out)
    return 0


def _objective_doc(doc, path: str) -> dict:
    """The QUBO a command reads: an embed document's physical QUBO, a build
    document's QUBO, or the document itself when it is a bare QUBO."""
    body = doc.get("physical_qubo", doc.get("qubo", doc)) if isinstance(doc, dict) else None
    if not isinstance(body, dict) or "domain" not in body:
        raise documents.DocumentError(f"{path} holds no QUBO")
    return body


@contextmanager
def _decoding(path: str):
    """`documents.reading`, plus a malformed value met while decoding a QUBO
    or embedding body (a `ValueError`) reported as a `DocumentError`."""
    try:
        with documents.reading(path):
            yield
    except documents.DocumentError:
        raise
    except ValueError as err:
        raise documents.DocumentError(f"{path}: {err}") from None


def _read_qubo(body, path: str) -> Qubo:
    with _decoding(path):
        return qubo_from_doc(body)


def _rebuild_embedded(doc, path: str) -> EmbeddedQubo:
    if not isinstance(doc, dict) or "physical_qubo" not in doc:
        raise documents.DocumentError(f"{path} is not an embed document")
    with _decoding(path):
        logical = qubo_from_doc(doc["logical_qubo"])
        physical = qubo_from_doc(doc["physical_qubo"])
        emb = embedding_from_doc(
            doc["embedding"], [logical.name_of(i) for i in range(logical.num_vars)]
        )
        return EmbeddedQubo(physical, emb, logical, [int(v) for v in doc["vertex_order"]])


def _solver_objective(doc, physical: Qubo, path: str) -> Qubo | None:
    """An embed document's `solver_qubo` when it is not the spin form of its
    physical QUBO, that is when `embed --normalize` or `--noise` made it.

    The spin form is recomputed here from the serialized physical QUBO, whose
    term order differs from the one `embed` converted, so coefficients are
    compared within `COEFF_TOL` (relative) rather than bit for bit.
    """
    if "solver_qubo" not in doc:
        return None
    solver = _read_qubo(doc["solver_qubo"], path)
    if solver.domain != SPIN or solver.num_vars != physical.num_vars:
        raise documents.DocumentError("solver_qubo does not match physical_qubo")
    spin = to_spin(physical) if physical.domain == BINARY else physical
    pairs = [(solver.offset, spin.offset)]
    for a, b in ((solver.linear, spin.linear), (solver.quadratic, spin.quadratic)):
        pairs += [(a.get(k, 0.0), b.get(k, 0.0)) for k in a.keys() | b.keys()]
    if all(abs(x - y) <= COEFF_TOL * max(1.0, abs(x), abs(y)) for x, y in pairs):
        return None
    return solver


def cmd_solve(args) -> int:
    doc = _read_doc(args.input)
    body = _objective_doc(doc, args.input)
    inst = documents.parse_instance(doc["instance"]) if "instance" in doc else None
    embedded = _rebuild_embedded(doc, args.input) if "physical_qubo" in doc else None
    target = embedded.physical if embedded is not None else _read_qubo(body, args.input)
    solver = _solver_objective(doc, target, args.input) if embedded is not None else None
    objective = target if solver is None else solver
    if args.solver == "brute":
        spec = brute_force(objective, cap=args.cap)
        best, minimized = spec.ground_states[0], spec.ground_energy
    else:
        best, minimized = anneal_solve(
            objective, sweeps=args.sweeps, restarts=args.restarts, seed=args.seed
        )
    energy = minimized
    if solver is not None:
        # the spins of the minimized objective, scored on the noiseless physical one
        if target.domain == BINARY:
            best = binary_assignment(best)
        energy = target.energy(best)
    result = {"energy": energy, "seed": args.seed, "solver": args.solver}
    if solver is not None:
        result["solver_energy"] = minimized
    logical_state, broken = best, 0
    if embedded is not None:
        logical_state, broken = unembed(embedded, best)
        result["broken_chains"] = broken
        if embedded.logical.domain == SPIN:
            logical_state = binary_assignment(logical_state)
    result["logical"] = list(logical_state)
    feasible = abs(energy) <= 1e-6
    if inst is not None:
        verdict = documents.kind_of(inst).decode(inst, logical_state, broken)
        if verdict is not None:
            result["decoded"], feasible = verdict
    result["feasible"] = feasible
    _emit(result, args.out)
    return 0 if feasible else 1


def cmd_validate(args) -> int:
    doc = _read_doc(args.input)
    embedded = _rebuild_embedded(doc, args.input)
    report = validate(
        embedded.embedding,
        embedded.logical.interaction_edges(),
        range(embedded.logical.num_vars),
    )
    _emit({"valid": report.ok, "violations": report.violations}, args.out)
    return 0 if report.ok else 1


def cmd_gap(args) -> int:
    if args.assembly:
        spec = verify_gap(build_tileset(args.q), args.assembly)
    elif args.input is None:
        raise UsageError("gap needs an input document or --assembly")
    else:
        body = _objective_doc(_read_doc(args.input), args.input)
        spec = brute_force(_read_qubo(body, args.input), cap=args.cap)
    _emit(
        {
            "ground_energy": spec.ground_energy,
            "gap": spec.gap,
            "ground_states": spec.state_count_at_ground,
            "degenerate": spec.degenerate,
        },
        args.out,
    )
    return 0


# family -> (number of integer arguments, predictor); cartoon emits its own document
PREDICTORS = {
    "unary": (2, lambda args, n, j: predicted_unary_length(n, j, args.optimized)),
    "numpart": (3, lambda args, n, m, j: predicted_numpart_length(n, m, j, args.strategy or "tree")),
    "knapsack": (4, lambda args, *vals: predicted_knapsack_length(*vals)),
    "hamcycle": (2, lambda args, n, l: predicted_hamcycle_length(n, l, args.strategy or "tileable")),
    "permutation": (1, lambda args, n: predicted_permutation_length(n, args.strategy or "tree")),
    "cartoon": (1, None),
}


def cmd_predict(args) -> int:
    family = args.family
    arity, predict = PREDICTORS[family]
    vals = args.values[:arity]
    if len(vals) < arity:
        raise UsageError(f"missing arguments for predict {family}")
    if predict is None:
        n = vals[0]
        gap, s_star = min_gap(n)
        doc = {
            "N": n,
            "gap": gap,
            "s_star": s_star,
            "tau_linear": lz_time(n, "linear"),
            "tau_optimal": lz_time(n, "optimal"),
        }
    else:
        doc = {"family": family, "predicted_side": predict(args, *vals)}
    _emit(doc, args.out)
    return 0


@functools.lru_cache(maxsize=None)
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves the parser unchanged: each `parse_args` call fills a fresh
    namespace from the defaults, so `main` can share one parser across calls.
    """
    parser = argparse.ArgumentParser(
        prog="qubolattice",
        description="compile, embed, solve, and verify lattice QUBOs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="emit a lattice document with its counts")
    p.add_argument("--lattice", required=True, help="chimera:J,L or a lattice document path")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("build", help="compile an instance document to a QUBO")
    p.add_argument("instance")
    p.add_argument("--strategy", choices=["tree", "complete", "tiles"], default="tree")
    p.add_argument("--l-star", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("embed", help="embed an instance on a lattice")
    p.add_argument("instance")
    p.add_argument("--strategy", choices=["tree", "complete", "tiles"], default="tree")
    p.add_argument("--lattice", default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("solve", help="solve a built or embedded document")
    p.add_argument("input")
    p.add_argument("--solver", choices=["brute", "anneal"], default="brute")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweeps", type=int, default=1500)
    p.add_argument("--restarts", type=int, default=12)
    p.add_argument("--cap", type=int, default=28)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("validate", help="check an embedding document")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("gap", help="exact spectrum of a QUBO or tile assembly")
    p.add_argument("input", nargs="?")
    p.add_argument("--assembly", choices=["1-tile", "2-tile-hor", "2-tile-vert", "chain"])
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--cap", type=int, default=28)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gap)

    p = sub.add_parser("predict", help="closed-form embedding-size estimates")
    p.add_argument("family", choices=list(PREDICTORS))
    p.add_argument("values", nargs="*", type=int)
    p.add_argument("--strategy")
    p.add_argument("--optimized", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except documents.DocumentError as err:
        print(f"document error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
