"""Checks too long or too large for tier-1, each run by its own CI step.

The file name does not match `test_*.py`, so a bare `python -m pytest` never
collects it.  Run every check with

    PYTHONPATH=src:tests python -m pytest -q -s tests/long/*.py

or one of them by naming it, `tests/long/long_checks.py::test_<check>`.  The
peak-RSS bounds read the whole process, so CI runs one check per process.
"""

import ast
import os
import pathlib
import re
import resource
import shlex
import subprocess
import sys
import time
from dataclasses import replace

from oracles import all_graphs, counted_walks, proper_coloring_count, tileable_digest
from qubolattice.coloring import (
    ColoringInstance,
    build_tileset,
    coloring_feasible_energy,
    compile_coloring,
    count_states_at_coloring_level,
)
from qubolattice.embedding import EmbeddingError, validate
from qubolattice.hamcycle import HamcycleInstance, embed_tileable_hamcycle
from qubolattice.numpart import PartitionInstance, embed_numpart
from qubolattice.qubo import SPIN, Qubo, anneal_solve, brute_force
from qubolattice.tiling import TilingError, route_graph_to_tiles, stitch
from test_cli import check_document_mutations

ROOT = pathlib.Path(__file__).resolve().parents[2]
WORKFLOW = pathlib.Path(".github/workflows/tests.yml")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_lint(monkeypatch):
    # No unused imports, private helpers, unread module-level names,
    # write-only fields, test-only public names, or long checks that no
    # workflow step runs.
    monkeypatch.chdir(ROOT)
    # Every top-level import of a library module must be used in it;
    # __init__.py is exempt, since its imports are the public names.
    bad = []
    trees = {}
    for path in sorted(pathlib.Path("src/qubolattice").glob("*.py")):
        trees[path] = ast.parse(path.read_text(), str(path))
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bad += [
            f"{path}:{line}: {name} imported but unused"
            for name, line in imported.items()
            if name not in used
        ]

    # A private name (module-level `_name`, or a private method) must be read
    # somewhere in the package: as a name, an attribute or an imported name.
    def reads(tree):
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        return names

    # Every file under src/, tests/, demos/ and perfbench/, parsed once.
    everywhere = {
        path: ast.parse(path.read_text(), str(path))
        for top in ("src", "tests", "demos", "perfbench")
        for path in sorted(pathlib.Path(top).rglob("*.py"))
    }
    read_anywhere = set().union(*map(reads, everywhere.values()))
    refs = set().union(*map(reads, trees.values()))
    for path, tree in trees.items():
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node.lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
                defined += [(t.id, node.lineno) for t in names if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{item.name}", item.lineno)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
        for qualified, line in defined:
            name = qualified.rsplit(".", 1)[-1]
            private = name.startswith("_") and not name.endswith("__")
            if private and name not in refs:
                bad.append(f"{path}:{line}: {qualified} is private and never referenced")
            # A module-level name of a library module (not a dunder) must be
            # read, by the same rule, by some module under src/, tests/, demos/
            # or perfbench/.
            module_level = "." not in qualified and path.name != "__init__.py"
            dunder = name.startswith("__") and name.endswith("__")
            if module_level and not dunder and name not in read_anywhere:
                bad.append(f"{path}:{line}: {qualified} is read by no module")

    # A field declared in a class body must be read as an attribute by some
    # module under src/, tests/, demos/ or perfbench/.
    read = {
        node.attr
        for tree in everywhere.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                bad += [
                    f"{path}:{item.lineno}: {cls.name}.{item.target.id} is never read"
                    for item in cls.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.target.id not in read
                ]

    # A public name (one imported in __init__.py) must be read, by the rule
    # for private names, by a module under src/ other than __init__.py, or
    # under demos/ or perfbench/; a name only tests read is deleted, unless
    # it is kept here for the consumer the ROADMAP gives it.
    kept = {
        "build_naive_adder": "the power-of-two baseline of the scaling table",
        "decode_knapsack": "the knapsack decoder the registry sweep wires into solve",
        "supertile_compose": "the multi-cell composition of the tileable router",
        "crossing_tile_chimera": "the crossing template of the tileable router",
        "h_diag": "the paper's one-cell spectrum, checked by test_acceptance.py",
        "to_binary": "the inverse of to_spin, pinned by the rewrite digest",
    }
    init = pathlib.Path("src/qubolattice/__init__.py")
    public = {
        alias.asname or alias.name: node.lineno
        for node in trees[init].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    consumed = set().union(*(reads(tree) for path, tree in trees.items() if path != init))
    for top in ("demos", "perfbench"):
        for path in sorted(pathlib.Path(top).rglob("*.py")):
            consumed |= reads(ast.parse(path.read_text(), str(path)))
    bad += [
        f"{init}:{line}: {name} is public but only tests read it"
        for name, line in public.items()
        if name not in consumed and name not in kept
    ]
    bad += [
        f"{init}: kept name {name} is not public or no longer test-only"
        for name in kept
        if name not in public or name in consumed
    ]

    # Every check under tests/long/ must be named by a `run:` line of the
    # workflow, so that a moved check cannot silently stop running.
    run = re.compile(r"^\s*run:.*?(tests/long/\w+\.py::test_\w+)", re.M)
    steps = set(run.findall(WORKFLOW.read_text()))
    for path in sorted(pathlib.Path("tests/long").glob("*.py")):
        bad += [
            f"{path}:{node.lineno}: {node.name} is run by no step of {WORKFLOW}"
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test_")
            and f"{path}::{node.name}" not in steps
        ]
    print("\n".join(bad))
    assert not bad


def test_large_sparse_anneal():
    # A 13,172-qubit partition embedding annealed for two sweeps.  The
    # annealer keeps neighbour lists; one dense n x n float64 coupling
    # matrix alone would take 1.39 GB, so the peak RSS bound is 500 MB.
    start = time.perf_counter()
    q = embed_numpart(PartitionInstance(tuple(range(1, 33))), 4).physical
    embedded = time.perf_counter()
    state, energy = anneal_solve(q, sweeps=2, restarts=1, seed=0)
    annealed = time.perf_counter()
    assert len(state) == q.num_vars and energy == q.energy(state)
    peak_mb = peak_rss_mb()
    print(f"{q.num_vars} qubits, {len(q.quadratic)} couplers; embed {embedded - start:.2f} s, "
          f"anneal {annealed - embedded:.2f} s; peak RSS {peak_mb:.0f} MB")
    assert peak_mb <= 500


def test_degenerate_spectrum():
    # Every one of the 2^20 states of the zero objective is a ground
    # state.  The enumerator keeps them as int8 rows and builds their
    # tuples only for the returned ground set; the tuples alone take
    # about 230 MB, so the peak RSS bound is 400 MB.
    start = time.perf_counter()
    spec = brute_force(Qubo(SPIN, 20))
    elapsed = time.perf_counter() - start
    assert spec.state_count_at_ground == len(spec.ground_states) == 1 << 20
    peak_mb = peak_rss_mb()
    print(f"{spec.state_count_at_ground} ground states in {elapsed:.2f} s; "
          f"peak RSS {peak_mb:.0f} MB")
    assert peak_mb <= 400


def test_tileable_hamcycle_sweep(monkeypatch):
    # Every labelled graph on 3 to 5 vertices with minimum degree 2: each
    # embedding must validate, the embedded counts must not drop, and the
    # only failures allowed are the known ones.  `tileable_digest` over every
    # embedding and every failure text must match the recorded digest, so a
    # change to where the router puts a chain, a term or an error fails
    # here; the check prints its elapsed time.  The chains of each embedded
    # graph must be walked once: `validate` after `embed_qubo` reuses the
    # walk embed_qubo made.  Every walk must equal the reference walk.
    floor = {3: 1, 4: 10, 5: 202}
    digest = "ddc807b5af2128a61b05d4b1e083b8ffc7d82d578b5837deca8a8cf495f9e506"
    walks = counted_walks(monkeypatch)
    bad = []

    def outcomes():
        for n, least in floor.items():
            embedded = failed = 0
            for edges in all_graphs(n):
                if any(sum(v in e for e in edges) < 2 for v in range(n)):
                    continue
                walks_before = len(walks)
                try:
                    e = embed_tileable_hamcycle(HamcycleInstance(edges, num_vertices=n))
                except EmbeddingError as err:
                    if "selector routing failed" not in str(err):
                        bad.append(f"{edges}: {err!r}")
                    failed += 1
                    yield edges, err
                    continue
                except TilingError as err:
                    if n != 5 or len(edges) != n * (n - 1) // 2:
                        bad.append(f"{edges}: {err!r}")
                    failed += 1
                    yield edges, err
                    continue
                report = validate(
                    e.embedding, e.logical.interaction_edges(), range(e.logical.num_vars)
                )
                if not report.ok:
                    bad.append(f"{edges}: {report.summary()}")
                walked = len(walks) - walks_before
                if walked != 1:
                    bad.append(f"{edges}: chains walked {walked} times, not once")
                embedded += 1
                yield edges, e
            print(f"n={n}: {embedded} embed, {failed} known failures")
            if embedded < least:
                bad.append(f"n={n}: {embedded} embed, fewer than {least}")

    start = time.perf_counter()
    got = tileable_digest(outcomes())
    print(f"sha256 {got} in {time.perf_counter() - start:.1f} s")
    if got != digest:
        bad.append(f"digest differs from {digest}")
    for line in bad:
        print(line)
    assert not bad


def test_coloring_count_sweep():
    # Every labelled graph on 5 vertices at q = 2 and 3, on 3 vertices at
    # q = 5 and 6 and on 2 vertices at q = 9: the chain-intact states at
    # the coloring-feasible level must number the proper q-colorings, and
    # the level must be the chain-intact ground of the routed plan
    # stitched without edges (bit for bit for q <= 4, whose templates are
    # dyadic; within 1e-12 above).
    bad = []
    for n, qs in ((5, (2, 3)), (3, (5, 6)), (2, (9,))):
        for q in qs:
            tileset = build_tileset(q)
            graphs = 0
            for edges in all_graphs(n):
                graphs += 1
                want = proper_coloring_count(n, edges, q)
                inst = ColoringInstance(edges, q, num_vertices=n)
                e = compile_coloring(inst, tileset)
                got = count_states_at_coloring_level(inst, e, tileset)
                if got != want:
                    bad.append(f"q={q} {edges}: {got} states, {want} colorings")
                plan = route_graph_to_tiles(edges, num_vertices=n)
                free = stitch(replace(plan, adjacency_realization={}), tileset.tiles)
                ref = brute_force(free.chain_intact_qubo()).ground_energy
                level = coloring_feasible_energy(e.chain_intact_qubo(), q)
                if abs(level - ref) > (0.0 if q <= 4 else 1e-12):
                    bad.append(f"q={q} {edges}: level {level!r}, edge-free ground {ref!r}")
            print(f"n={n} q={q}: {graphs} graphs checked")
    for line in bad:
        print(line)
    assert not bad


def test_document_fuzz():
    # The tier-1 document-mutation property of tests/test_cli.py with a
    # larger seeded budget: every mutated instance, build, embed and lattice
    # document ends in exit 0, 1 or 2 under every subcommand that reads it.
    start = time.perf_counter()
    check_document_mutations(max_examples=3000, seed=1)
    print(f"3000 mutated documents in {time.perf_counter() - start:.1f} s")


def test_readme_commands(tmp_path):
    # Each command of the README "Command line" block runs in turn in one
    # fresh directory, through `python -m qubolattice.cli`.  A trailing
    # "# exit N" documents the expected code, 0 when absent.  A traceback on
    # stderr fails the check whatever the exit code (an uncaught exception
    # also exits 1), and so does a `document error:` line that does not
    # start with the name of a file the command reads.
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cli = f"{shlex.quote(sys.executable)} -m qubolattice.cli "
    bad = []
    for line in block.splitlines():
        want = re.search(r"# exit (\d)", line)
        want = int(want.group(1)) if want else 0
        cmd = cli + line.removeprefix("qubolattice ") if line.startswith("qubolattice ") else line
        proc = subprocess.run(
            ["bash", "-c", cmd], cwd=tmp_path, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        print(f"$ {line}\n{proc.stderr}", end="")
        if proc.returncode != want:
            bad.append(f"{line}: exit {proc.returncode}, README documents {want}")
        if "Traceback" in proc.stderr:
            bad.append(f"{line}: uncaught exception")
        files = [a for a in shlex.split(line, comments=True) if (tmp_path / a).is_file()]
        bad += [
            f"{line}: names no file it reads: {err}"
            for err in proc.stderr.splitlines()
            if err.startswith("document error:")
            and not any(err.startswith(f"document error: {f}") for f in files)
        ]
    for line in bad:
        print(line)
    assert not bad
