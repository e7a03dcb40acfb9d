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

from . import documents
from .cartoon import MAX_N, report_rows
from .coloring import _RESTRICTED_CAP, build_tileset, verify_gap
from .embedding import embedding_to_doc, unembed, validate
from .hamcycle import HamcycleError, predicted_hamcycle_length, predicted_permutation_length
from .knapsack import KnapsackError, predicted_knapsack_length
from .lattice import (
    LatticeError,
    build_lattice,
    chimera_spec,
    detect_chimera,
    lattice_from_doc,
    lattice_to_doc,
)
from .numpart import PartitionError, predicted_numpart_length
from .qubo import (
    BINARY,
    BRUTE_FORCE_CAP,
    SPIN,
    NoiseModel,
    QuboError,
    anneal_solve,
    apply_noise,
    binary_assignment,
    brute_force,
    normalize_couplings,
    qubo_to_doc,
    to_spin,
)
from .unary import predicted_unary_length


class UsageError(Exception):
    pass


def _read_doc(path: str, decode=lambda doc: doc):
    """The JSON document at `path`, through `decode`; a document error names `path`."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from None
    with documents.reading(path):
        return decode(documents.loads(text))


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
    return _read_doc(spec_text, lattice_from_doc), None


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
    inst = _read_doc(args.instance, documents.parse_instance)
    try:
        logical, meta = documents.kind_of(inst).logical(inst, args.strategy, args.l_star)
    except KnapsackError as err:  # an --l-star outside the value register
        raise UsageError(str(err)) from None
    doc = {
        "instance": documents.instance_to_doc(inst),
        "qubo": qubo_to_doc(logical),
        "meta": meta,
        "seed": args.seed,
    }
    _emit(doc, args.out)
    return 0 if meta.get("feasible_parity", True) else 1


def cmd_embed(args) -> int:
    try:
        noise = None if args.noise is None else NoiseModel(args.noise, args.seed)
    except QuboError as err:
        raise UsageError(f"embed --noise: {err}") from None
    inst = _read_doc(args.instance, documents.parse_instance)
    given = _parse_lattice(args.lattice)[0] if args.lattice else None
    J = (detect_chimera(given) or 4) if given else 4
    embedded = documents.kind_of(inst).embed(inst, args.strategy, J)
    need = embedded.embedding.lattice
    if given and (need.cell != given.cell or need.width > given.width or need.height > given.height):
        raise UsageError(
            f"the embedding does not fit --lattice {args.lattice}; "
            f"it needs chimera:{detect_chimera(need)},{max(need.width, need.height)}"
        )
    doc = {
        "instance": documents.instance_to_doc(inst),
        "strategy": args.strategy,
        "embedding": embedding_to_doc(
            embedded.embedding,
            [embedded.logical.name_of(i) for i in range(embedded.logical.num_vars)],
        ),
        "logical_qubo": qubo_to_doc(embedded.logical),
        "physical_qubo": qubo_to_doc(embedded.physical),
        "scale": 1.0,
        "vertex_order": list(embedded.vertex_order),
        "seed": args.seed,
    }
    if args.normalize or noise is not None:
        solver = embedded.physical
        if solver.domain == BINARY:
            solver = to_spin(solver)
        if args.normalize:
            solver, doc["scale"] = normalize_couplings(solver)
        if noise is not None:
            solver = apply_noise(solver, noise)
        doc["solver_qubo"] = qubo_to_doc(solver)
    _emit(doc, args.out)
    return 0


def cmd_solve(args) -> int:
    if args.solver == "anneal":
        for flag, budget in (("--sweeps", args.sweeps), ("--restarts", args.restarts)):
            if budget < 1:
                raise UsageError(f"solve {flag} must be at least 1, got {budget}")
    doc = documents.read(_read_doc(args.input), args.input)
    target, embedded, solver = doc.qubo, doc.embedded, doc.solver
    objective = target if solver is None else solver
    if args.solver == "brute":
        spec = brute_force(objective, cap=args.cap)
        best, minimized = spec.ground_states[0], spec.ground_energy
    else:
        best, minimized = anneal_solve(
            objective, sweeps=args.sweeps, restarts=args.restarts, seed=args.seed
        )
    result = {"energy": minimized, "seed": args.seed, "solver": args.solver}
    if solver is not None:
        # the spins of the minimized objective, scored on the noiseless physical one
        if target.domain == BINARY:
            best = binary_assignment(best)
        result.update(energy=target.energy(best), solver_energy=minimized)
    logical_state, broken = best, 0
    if embedded is not None:
        logical_state, broken = unembed(embedded, best)
        result["broken_chains"] = broken
        if embedded.logical.domain == SPIN:
            logical_state = binary_assignment(logical_state)
    result["logical"] = list(logical_state)
    feasible = abs(result["energy"]) <= 1e-6
    inst = doc.instance
    if inst is not None:
        logical = embedded.logical if embedded is not None else target
        names = [logical.name_of(i) for i in range(logical.num_vars)]
        with documents.reading(args.input):
            verdict = documents.kind_of(inst).decode(inst, logical_state, broken, names)
        if verdict is not None:
            result["decoded"], feasible = verdict
    result["feasible"] = feasible
    _emit(result, args.out)
    return 0 if feasible else 1


def cmd_validate(args) -> int:
    doc = _read_doc(args.input)
    if not isinstance(doc, dict) or "physical_qubo" not in doc:
        raise documents.DocumentError(f"{args.input} is not an embed document")
    embedded = documents.read(doc, args.input).embedded
    report = validate(
        embedded.embedding,
        embedded.logical.interaction_edges(),
        range(embedded.logical.num_vars),
    )
    _emit({"valid": report.ok, "violations": report.violations}, args.out)
    return 0 if report.ok else 1


def cmd_gap(args) -> int:
    if args.assembly:
        if not 2 <= args.q <= _RESTRICTED_CAP:
            raise UsageError(f"gap --q must be in 2..{_RESTRICTED_CAP}, got {args.q}")
        spec = verify_gap(build_tileset(args.q), args.assembly)
    elif args.input is None:
        raise UsageError("gap needs an input document or --assembly")
    else:
        spec = brute_force(documents.read(_read_doc(args.input), args.input).qubo, cap=args.cap)
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
    if min(vals) < 1:
        raise UsageError(f"predict {family} needs arguments of at least 1, got {min(vals)}")
    if predict is None:
        largest = min(MAX_N.values())
        if vals[0] > largest:
            raise UsageError(f"predict cartoon needs N of at most {largest}, got {vals[0]}")
        doc = report_rows(vals)[0]
        del doc["eps"]
    else:
        try:
            doc = {"family": family, "predicted_side": predict(args, *vals)}
        except (PartitionError, HamcycleError) as err:  # an unknown --strategy
            raise UsageError(str(err)) from None
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
    p.add_argument("--cap", type=int, default=BRUTE_FORCE_CAP)
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
    p.add_argument("--cap", type=int, default=BRUTE_FORCE_CAP)
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
