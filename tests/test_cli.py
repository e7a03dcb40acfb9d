"""CLI pipelines: round trips, exit codes, determinism."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import qubolattice
from qubolattice.cli import main, make_parser
from qubolattice.documents import KINDS, dumps, instance_to_doc, loads, parse_instance
from qubolattice.qubo import SPIN, binary_assignment, brute_force, qubo_from_doc

# one small instance per registered tag, in canonical (round-trip) form
INSTANCES = {
    "partition": {"partition": {"numbers": [2, 2, 3, 3]}},
    "knapsack": {"knapsack": {"values": [3, 1], "weights": [2, 1], "capacity": 2}},
    "coloring": {"coloring": {"edges": [[0, 1], [1, 2]], "q": 2, "num_vertices": 3}},
    "hamcycle": {"hamcycle": {"edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "num_vertices": 4}},
    "unary": {"unary": {"n": 4, "allow_zero": False}},
    "adder": {"adder": {"n": 2}},
}

# instances whose records take a different path for some strategy
EXTRA_INSTANCES = {"unary-allow-zero": {"unary": {"n": 3, "allow_zero": True}}}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, loads(out) if out.strip() else None


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc))
    return str(path)


class TestLattice:
    def test_counts(self, capsys):
        code, doc = run(capsys, "lattice", "--lattice", "chimera:4,2")
        assert code == 0
        assert doc["vertices"] == 32 and doc["edges"] == 80

    def test_bad_spec_is_usage_error(self, capsys):
        # a malformed spec and extents out of range alike
        for spec in ("chimera:banana", "chimera:0,4", "chimera:4,0"):
            assert main(["lattice", "--lattice", spec]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: expected --lattice chimera:J,L",
            "error: chimera cell requires J >= 1",
            "error: lattice extents must be positive",
        ]


class TestBuildSolve:
    def test_partition_end_to_end(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"partition": {"numbers": [2, 2, 3, 3]}})
        code, built = run(capsys, "build", inst)
        assert code == 0
        built_path = write(tmp_path, "built.json", built)
        code, result = run(capsys, "solve", built_path, "--solver", "brute", "--cap", "24")
        assert code == 0
        assert result["energy"] == 0.0
        assert result["decoded"]["residual"] == 0

    def test_odd_partition_flagged(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"partition": {"numbers": [1, 2, 4]}})
        code, built = run(capsys, "build", inst)
        assert code == 1
        assert built["meta"]["feasible_parity"] is False

    def test_hamcycle_ic_build(self, tmp_path, capsys):
        inst = write(
            tmp_path, "inst.json", {"hamcycle": {"edges": [[0, 1], [1, 2], [0, 2]]}}
        )
        code, built = run(capsys, "build", inst)
        assert code == 0
        built_path = write(tmp_path, "built.json", built)
        code, result = run(capsys, "solve", built_path, "--solver", "brute")
        assert code == 0
        assert result["decoded"]["ok"]

    def test_unary_build(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"unary": {"n": 4}})
        code, built = run(capsys, "build", inst)
        assert code == 0
        assert built["qubo"]["num_vars"] == 6


    def test_solve_reads_the_qubo_gap_reads(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"unary": {"n": 4}})
        _, built = run(capsys, "build", inst)
        for name, doc in (("built.json", built), ("bare.json", built["qubo"])):
            path = write(tmp_path, name, doc)
            _, gap = run(capsys, "gap", path)
            code, solved = run(capsys, "solve", path, "--solver", "brute")
            assert code == 0 and solved["energy"] == gap["ground_energy"] == 0.0

    def test_solve_without_qubo_is_document_error(self, tmp_path, capsys):
        inst = write(tmp_path, "col.json", {"coloring": {"edges": [[0, 1]], "q": 2}})
        assert main(["solve", inst, "--solver", "brute"]) == 2
        assert capsys.readouterr().err.startswith("document error:")


class TestEmbedValidate:
    def test_unary_embed_validate_solve(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"unary": {"n": 4}})
        code, embedded = run(capsys, "embed", inst, "--strategy", "tree")
        assert code == 0
        emb_path = write(tmp_path, "emb.json", embedded)
        code, report = run(capsys, "validate", emb_path)
        assert code == 0 and report["valid"]
        code, result = run(capsys, "solve", emb_path, "--solver", "brute")
        assert code == 0
        assert result["broken_chains"] == 0
        assert sum(result["logical"][:4]) == 1

    def test_embed_deterministic_bytes(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"partition": {"numbers": [1, 1]}})
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert main(["embed", inst, "--seed", "7", "--out", out1]) == 0
        assert main(["embed", inst, "--seed", "7", "--out", out2]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_noise_and_normalize_flags(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"unary": {"n": 4}})
        code, doc = run(capsys, "embed", inst, "--normalize", "--noise", "0.03")
        assert code == 0
        assert doc["scale"] <= 1.0

    def test_solve_minimizes_the_noisy_solver_qubo(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", INSTANCES["coloring"])
        code, embedded = run(capsys, "embed", inst, "--strategy", "tiles", "--noise", "3.0",
                             "--seed", "1")
        assert code == 0
        code, result = run(capsys, "solve", write(tmp_path, "emb.json", embedded),
                           "--solver", "brute")
        noisy = brute_force(qubo_from_doc(embedded["solver_qubo"]))
        physical = qubo_from_doc(embedded["physical_qubo"])
        state = noisy.ground_states[0]
        if physical.domain != SPIN:
            state = binary_assignment(state)
        assert result["solver_energy"] == noisy.ground_energy
        assert result["energy"] == physical.energy(state)
        assert result["energy"] != result["solver_energy"]


    def test_validate_without_embedding_is_document_error(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"unary": {"n": 4}})
        _, built = run(capsys, "build", inst)
        assert main(["validate", write(tmp_path, "built.json", built)]) == 2
        assert capsys.readouterr().err.startswith("document error:")

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize(
        "path", [("logical_qubo",), ("embedding",), ("vertex_order",), ("embedding", "chains")]
    )
    def test_embed_document_without_a_key_is_document_error(self, command, path, tmp_path, capsys):
        _, embedded = run(capsys, "embed", write(tmp_path, "inst.json", {"unary": {"n": 3}}))
        parent = embedded
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        assert main([command, write(tmp_path, "emb.json", embedded)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("document error:") and repr(path[-1]) in err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_chain_of_an_unknown_variable_is_document_error(self, command, tmp_path, capsys):
        _, embedded = run(capsys, "embed", write(tmp_path, "inst.json", {"unary": {"n": 3}}))
        chains = embedded["embedding"]["chains"]
        chains["bogus"] = chains.pop(next(iter(chains)))
        assert main([command, write(tmp_path, "emb.json", embedded)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("document error:") and "'bogus'" in err

    @pytest.mark.parametrize("command", ["lattice", "embed"])
    def test_lattice_document_without_side_is_document_error(self, command, tmp_path, capsys):
        lattice = write(tmp_path, "f.json", {"family": "chimera", "J": 4})
        argv = ["--lattice", lattice]
        if command == "embed":
            argv.insert(0, write(tmp_path, "inst.json", {"unary": {"n": 3}}))
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("document error:") and "'L'" in err

    @pytest.mark.parametrize("command", ["lattice", "embed"])
    @pytest.mark.parametrize(
        "field, value, message",
        [("L", "x", "invalid literal"), ("J", 0, "requires J >= 1")],
        ids=["side", "cell"],
    )
    def test_malformed_lattice_value_is_document_error(
        self, command, field, value, message, tmp_path, capsys
    ):
        doc = {"family": "chimera", "J": 4, "L": 2, field: value}
        lattice = write(tmp_path, "f.json", doc)
        argv = ["--lattice", lattice]
        if command == "embed":
            argv.insert(0, write(tmp_path, "inst.json", {"unary": {"n": 3}}))
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"document error: {lattice}: ") and message in err

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("validate", lambda d: d["vertex_order"].__setitem__(0, "x"), "invalid literal"),
            ("solve", lambda d: d["physical_qubo"]["linear"].append([99999, 1.0]), "out of range"),
        ],
        ids=["vertex_order", "linear"],
    )
    def test_malformed_value_is_document_error(self, command, edit, message, tmp_path, capsys):
        _, embedded = run(capsys, "embed", write(tmp_path, "inst.json", {"unary": {"n": 3}}))
        edit(embedded)
        path = write(tmp_path, "emb.json", embedded)
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"document error: {path}:") and message in err


class TestGapPredict:
    def test_gap_on_built_qubo(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"unary": {"n": 4}})
        code, built = run(capsys, "build", inst)
        built_path = write(tmp_path, "built.json", built)
        code, doc = run(capsys, "gap", built_path)
        assert code == 0
        assert doc["ground_energy"] == 0.0 and doc["gap"] >= 1.0

    def test_gap_on_embed_document_reads_physical_qubo(self, tmp_path, capsys):
        inst = write(tmp_path, "col.json", {"coloring": {"edges": [[0, 1], [1, 2]], "q": 2}})
        emb = str(tmp_path / "col-emb.json")
        assert main(["embed", inst, "--strategy", "tiles", "--out", emb]) == 0
        code, gap = run(capsys, "gap", emb)
        assert code == 0
        _, solved = run(capsys, "solve", emb, "--solver", "brute")
        assert gap["ground_energy"] == solved["energy"] == -18.0

    def test_gap_without_qubo_is_document_error(self, tmp_path, capsys):
        inst = write(tmp_path, "col.json", {"coloring": {"edges": [[0, 1]], "q": 2}})
        assert main(["gap", inst]) == 2
        assert capsys.readouterr().err.startswith("document error:")
        assert main(["gap"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_gap_assembly(self, capsys):
        code, doc = run(capsys, "gap", "--assembly", "2-tile-hor", "--q", "4")
        assert code == 0
        assert doc["gap"] == pytest.approx(2.0)

    def test_predict_values(self, capsys):
        code, doc = run(capsys, "predict", "numpart", "16", "2", "4")
        assert code == 0 and doc["predicted_side"] == pytest.approx(64.0)
        code, doc = run(capsys, "predict", "numpart", "16", "2", "4", "--strategy", "linear")
        assert doc["predicted_side"] == pytest.approx(56.0)
        code, doc = run(capsys, "predict", "cartoon", "4")
        assert doc["tau_linear"] == 16.0

    def test_non_integer_predict_argument_is_usage_error(self, capsys):
        assert main(["predict", "unary", "x", "4"]) == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_round_trip_documents(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"partition": {"numbers": [2, 2, 3, 3]}})
        code, built = run(capsys, "build", inst)
        text1 = dumps(built)
        reparsed = loads(text1)
        assert dumps(reparsed) == text1


def problem_name(name):
    # tile embeddings name the chain of (vertex v, colour c) "v<v>:c<c>"; that
    # is the variable x:v:c of the coloring build
    return re.sub(r"^v(\d+):c(\d+)$", r"x:\1:\2", name)


def problem_ground_states(doc, names):
    """Binary ground states of a logical QUBO document, read at `names`."""
    q = qubo_from_doc(doc)
    own = [problem_name(q.name_of(i)) for i in range(q.num_vars)]
    states = brute_force(q).ground_states
    if q.domain == SPIN:
        states = [binary_assignment(s) for s in states]
    return {tuple(s[own.index(name)] for name in names) for s in states}


class TestRegistry:
    def test_every_tag_has_an_instance(self):
        assert set(KINDS) == set(INSTANCES)

    @pytest.mark.parametrize("tag", sorted(INSTANCES))
    def test_instance_round_trip(self, tag):
        assert instance_to_doc(parse_instance(INSTANCES[tag])) == INSTANCES[tag]

    @pytest.mark.parametrize("tag", sorted(INSTANCES))
    def test_build_then_brute_solve(self, tag, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", INSTANCES[tag])
        code, built = run(capsys, "build", inst)
        assert code == 0
        assert built["instance"] == INSTANCES[tag]
        assert built["qubo"]["num_vars"] <= 28
        built_path = write(tmp_path, "built.json", built)
        code, result = run(capsys, "solve", built_path, "--solver", "brute")
        assert code == (0 if result["feasible"] else 1)
        assert len(result["logical"]) == built["qubo"]["num_vars"]

    @pytest.mark.parametrize("strategy", ["tree", "complete", "tiles"])
    @pytest.mark.parametrize("tag", sorted(INSTANCES))
    def test_embed_then_validate(self, tag, strategy, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", INSTANCES[tag])
        code, embedded = run(capsys, "embed", inst, "--strategy", strategy)
        assert code == 0
        assert embedded["instance"] == INSTANCES[tag]
        code, report = run(capsys, "validate", write(tmp_path, "emb.json", embedded))
        assert code == 0 and report["valid"]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"triangle": {"n": 3}}, "unknown instance tag 'triangle'"),
            ({"knapsack": {"values": [1], "weights": [1]}}, "malformed 'knapsack' instance"),
        ],
    )
    def test_bad_instance_is_document_error(self, doc, message, tmp_path, capsys):
        assert main(["build", write(tmp_path, "inst.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("document error:") and message in err

    @pytest.mark.parametrize("strategy", ["tree", "complete", "tiles"])
    @pytest.mark.parametrize("name", sorted(INSTANCES) + sorted(EXTRA_INSTANCES))
    def test_build_and_embed_emit_the_same_logical_qubo(self, name, strategy, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {**INSTANCES, **EXTRA_INSTANCES}[name])
        code, built = run(capsys, "build", inst, "--strategy", strategy)
        assert code == 0
        code, embedded = run(capsys, "embed", inst, "--strategy", strategy)
        assert code == 0
        logical = embedded["logical_qubo"]
        if logical == built["qubo"]:
            return
        # a native layout with its own encoding must keep the problem's ground states
        assert strategy in KINDS[next(iter(embedded["instance"]))].embedders
        own = {problem_name(n) for n in logical["var_names"]}
        shared = [n for n in built["qubo"]["var_names"] if n in own]
        assert shared
        assert problem_ground_states(logical, shared) == problem_ground_states(built["qubo"], shared)

    @pytest.mark.parametrize("edges, proper", [([[0, 1], [1, 2]], True), ([[0, 1], [1, 2], [0, 2]], False)])
    def test_tiles_coloring_is_decoded(self, edges, proper, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"coloring": {"edges": edges, "q": 2}})
        code, embedded = run(capsys, "embed", inst, "--strategy", "tiles")
        assert code == 0
        code, result = run(capsys, "solve", write(tmp_path, "emb.json", embedded), "--solver", "brute")
        decoded = result["decoded"]
        assert result["feasible"] is proper and decoded["proper"] is proper
        assert code == (0 if proper else 1)
        if proper:
            assert result["energy"] == -18.0
            assert decoded["colors"] == [0, 1, 0]
            assert decoded["broken_chains"] == 0

    def test_embedded_partition_is_decoded(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", INSTANCES["partition"])
        code, embedded = run(capsys, "embed", inst, "--strategy", "tree")
        assert code == 0
        emb_path = write(tmp_path, "emb.json", embedded)
        code, result = run(capsys, "solve", emb_path, "--solver", "anneal", "--seed", "3",
                           "--sweeps", "300", "--restarts", "2")
        decoded = result["decoded"]
        assert result["feasible"] == decoded["balanced"]
        assert code == (0 if decoded["balanced"] else 1)
        assert decoded["broken_chains"] == result["broken_chains"]
        assert sorted(decoded["set_a"] + decoded["set_b"]) == [2, 2, 3, 3]


def fresh_python(code, tmp_path):
    """Run `code` in a fresh interpreter that imports this checkout's package."""
    src = str(pathlib.Path(qubolattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )


class TestColdStart:
    def test_import_loads_no_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "import qubolattice\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'package'\n"
            "import qubolattice.cli\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'cli'\n"
        )
        proc = fresh_python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_pipeline_runs_without_scipy(self, tmp_path):
        # importing scipy raises ImportError in this interpreter
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from qubolattice.cli import main\n"
            "codes = [\n"
            "    main(['build', 'inst.json', '--out', 'built.json']),\n"
            "    main(['embed', 'inst.json', '--out', 'emb.json']),\n"
            "    main(['validate', 'emb.json', '--out', 'valid.json']),\n"
            "    main(['solve', 'emb.json', '--solver', 'anneal', '--sweeps', '200',\n"
            "          '--restarts', '2', '--out', 'solved.json']),\n"
            "]\n"
            "print(codes)\n"
        )
        write(tmp_path, "inst.json", INSTANCES["partition"])
        proc = fresh_python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[0] in ("[0, 0, 0, 0]", "[0, 0, 0, 1]")
        assert loads((tmp_path / "valid.json").read_text())["valid"] is True
        solved = loads((tmp_path / "solved.json").read_text())
        assert solved["solver"] == "anneal" and "decoded" in solved

    def test_predict_cartoon_bytes(self, capsys):
        # the closed-form minimum, sqrt(2^-N) at s = 1/2
        expected = {
            1: '{"N":1,"gap":0.7071067811865476,"s_star":0.5,'
               '"tau_linear":2.0,"tau_optimal":1.4142135623730951}\n',
            2: '{"N":2,"gap":0.5,"s_star":0.5,"tau_linear":4.0,"tau_optimal":2.0}\n',
            3: '{"N":3,"gap":0.3535533905932738,"s_star":0.5,"tau_linear":8.0,'
               '"tau_optimal":2.8284271247461903}\n',
            4: '{"N":4,"gap":0.24999999999999997,"s_star":0.5,"tau_linear":16.0,'
               '"tau_optimal":4.0}\n',
        }
        for n, text in expected.items():
            assert main(["predict", "cartoon", str(n)]) == 0
            assert capsys.readouterr().out == text

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        assert make_parser() is make_parser()
        inst = write(tmp_path, "inst.json", INSTANCES["partition"])
        code, built = run(capsys, "build", inst)
        built_path = write(tmp_path, "built.json", built)
        code, result = run(capsys, "solve", built_path, "--seed", "5", "--cap", "24")
        assert result["seed"] == 5
        code, result = run(capsys, "solve", built_path, "--cap", "24")
        assert result["seed"] == 0 and result["solver"] == "brute"
