"""CLI pipelines: round trips, exit codes, determinism."""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import hypothesis
import pytest
from hypothesis import strategies as st

import qubolattice
from qubolattice.cli import main, make_parser
from qubolattice.documents import KINDS, dumps, instance_to_doc, loads, parse_instance
from qubolattice.lattice import CellAdjacency, LatticeSpec, chimera_spec, lattice_to_doc
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

    @pytest.mark.parametrize(
        "flag, value", [("--sweeps", 0), ("--sweeps", -5), ("--restarts", 0), ("--restarts", -3)]
    )
    def test_anneal_budget_below_one_is_usage_error(self, flag, value, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"partition": {"numbers": [2, 3, 2, 3]}})
        _, built = run(capsys, "build", inst)
        built_path = write(tmp_path, "built.json", built)
        assert main(["solve", built_path, "--solver", "anneal", flag, str(value)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: solve {flag} must be at least 1, got {value}\n"
        # the brute-force solver reads no anneal budget
        code, _ = run(capsys, "solve", built_path, "--solver", "brute", flag, str(value))
        assert code == 0

    @pytest.mark.parametrize("l_star", [99, 3, -1])
    def test_l_star_outside_the_value_register_is_usage_error(self, l_star, tmp_path, capsys):
        # the register of values 3 and 1 has width 3, so bits 0..2 may be pinned
        inst = write(tmp_path, "k.json", INSTANCES["knapsack"])
        assert main(["build", inst, "--l-star", str(l_star)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: l_star {l_star} outside the value register width 3\n"
        code, built = run(capsys, "build", inst, "--l-star", "2")
        assert code == 0 and built["meta"] == {"l_star": 2}


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

    def test_embed_without_flags_writes_no_solver_qubo(self, tmp_path, capsys):
        code, doc = run(capsys, "embed", write(tmp_path, "inst.json", INSTANCES["coloring"]),
                        "--strategy", "tiles")
        assert code == 0
        assert "solver_qubo" not in doc and doc["scale"] == 1.0
        code, result = run(capsys, "solve", write(tmp_path, "emb.json", doc), "--solver", "brute")
        assert code == 0 and "solver_energy" not in result

    def test_normalize_alone_writes_the_solver_qubo(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"partition": {"numbers": [1, 1]}})
        code, doc = run(capsys, "embed", inst, "--normalize")
        assert code == 0
        solver = qubo_from_doc(doc["solver_qubo"])
        assert solver.domain == SPIN and doc["scale"] == 1 / 18
        code, result = run(capsys, "solve", write(tmp_path, "emb.json", doc), "--solver", "brute")
        assert code == 0 and result["decoded"]["balanced"]
        assert result["solver_energy"] == brute_force(solver).ground_energy
        assert result["energy"] == brute_force(qubo_from_doc(doc["physical_qubo"])).ground_energy

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-0.5"])
    def test_noise_must_be_finite_and_not_negative(self, sigma, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", INSTANCES["coloring"])
        assert main(["embed", inst, "--strategy", "tiles", "--noise", sigma]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: embed --noise: sigma must be a finite number of at least 0, got {float(sigma)}\n"
        )

    @pytest.mark.parametrize("solver", ["brute", "anneal"])
    @pytest.mark.parametrize(
        "text, message",
        [("NaN", "NaN is not a JSON number"), ("-Infinity", "-Infinity is not a JSON number"),
         ("1e400", "coefficients must be finite numbers, got inf")],
        ids=["nan", "infinity", "overflow"],
    )
    @pytest.mark.parametrize("body", ["physical_qubo", "solver_qubo"])
    def test_non_finite_coefficient_is_document_error(
        self, body, text, message, solver, tmp_path, capsys
    ):
        _, embedded = run(capsys, "embed", write(tmp_path, "inst.json", INSTANCES["coloring"]),
                          "--strategy", "tiles", "--normalize")
        embedded[body]["linear"][0][1] = "COEFFICIENT"
        path = tmp_path / "emb.json"
        path.write_text(dumps(embedded).replace('"COEFFICIENT"', text))
        assert main(["solve", str(path), "--solver", solver, "--sweeps", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("document error:") and message in err

    def test_documents_hold_no_non_finite_number(self):
        with pytest.raises(ValueError):
            dumps({"offset": float("nan")})
        with pytest.raises(ValueError, match="Infinity is not a JSON number"):
            loads('{"offset": Infinity}')

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
        [("L", "x", "expected an integer, got 'x'"), ("J", 0, "requires J >= 1")],
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
            ("validate", lambda d: d["vertex_order"].__setitem__(0, "x"), "expected an integer, got 'x'"),
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

    @pytest.mark.parametrize(
        "instance, edit, reads, has",
        [
            # the instance says q = 3, the QUBO was built for q = 2
            ({"coloring": {"edges": [[0, 1]], "q": 2}}, ("q", 3), "coloring instance reads 6", 4),
            (
                {"hamcycle": {"edges": [[0, 1], [1, 2], [2, 0]]}},
                ("num_vertices", 4),
                "hamcycle instance reads 16",
                9,
            ),
            (
                {"partition": {"numbers": [2, 2, 3, 3]}},
                ("numbers", [2, 2, 3, 3, 4, 4]),
                "partition instance reads 42",
                18,
            ),
        ],
        ids=["coloring", "hamcycle", "partition"],
    )
    def test_instance_that_disagrees_with_its_qubo_is_document_error(
        self, instance, edit, reads, has, tmp_path, capsys
    ):
        _, built = run(capsys, "build", write(tmp_path, "inst.json", instance))
        next(iter(built["instance"].values()))[edit[0]] = edit[1]
        path = write(tmp_path, "built.json", built)
        assert main(["solve", "--solver", "brute", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"document error: {path}: the {reads} logical variables, "
            f"but the logical QUBO has {has}\n"
        )

    @pytest.mark.parametrize("strategy", ["tree", "tiles"])
    def test_hamcycle_instance_with_fewer_vertices_is_document_error(
        self, strategy, tmp_path, capsys
    ):
        # the 4-cycle's 16 position bits, read under a triangle instance
        inst = write(tmp_path, "inst.json", INSTANCES["hamcycle"])
        _, built = run(capsys, "build", inst, "--strategy", strategy)
        built["instance"] = {"hamcycle": {"edges": [[0, 1], [1, 2], [2, 0]], "num_vertices": 3}}
        path = write(tmp_path, "built.json", built)
        assert main(["solve", path, "--solver", "anneal", "--sweeps", "5", "--restarts", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"document error: {path}: the hamcycle instance reads 9 logical variables, "
            "but the logical QUBO has 16\n"
        )

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_chain_member_outside_vertex_order_is_document_error(self, command, tmp_path, capsys):
        _, embedded = run(capsys, "embed", write(tmp_path, "inst.json", {"unary": {"n": 4}}))
        embedded["embedding"]["chains"]["m1"].append(8)
        path = write(tmp_path, "emb.json", embedded)
        argv = ["--solver", "anneal", "--sweeps", "5"] if command == "solve" else []
        assert main([command, path, *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"document error: {path}: vertex_order is not the sorted union of the chains: "
            "at position 8 it lists no vertex where the union has vertex 8\n"
        )

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_vertex_order_of_another_length_is_document_error(self, command, tmp_path, capsys):
        _, embedded = run(capsys, "embed", write(tmp_path, "inst.json", {"unary": {"n": 4}}))
        embedded["vertex_order"].append(8)
        path = write(tmp_path, "emb.json", embedded)
        assert main([command, path]) == 2
        assert capsys.readouterr().err == (
            f"document error: {path}: vertex_order is not the sorted union of the chains: "
            "at position 8 it lists vertex 8 where the union has no vertex\n"
        )

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_permuted_vertex_order_is_document_error(self, command, tmp_path, capsys):
        # the physical variables would decode through the wrong lattice vertices
        _, embedded = run(capsys, "embed", write(tmp_path, "inst.json", {"unary": {"n": 4}}))
        order = embedded["vertex_order"]
        order[2], order[5] = order[5], order[2]
        path = write(tmp_path, "emb.json", embedded)
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", (
            f"document error: {path}: vertex_order is not the sorted union of the chains: "
            f"at position 2 it lists vertex {order[2]} where the union has vertex {order[5]}\n"
        ))

    def test_physical_qubo_of_another_size_is_document_error(self, tmp_path, capsys):
        _, embedded = run(capsys, "embed", write(tmp_path, "inst.json", {"unary": {"n": 4}}))
        embedded["physical_qubo"]["num_vars"] += 1
        embedded["physical_qubo"]["var_names"].append("extra")
        path = write(tmp_path, "emb.json", embedded)
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == (
            f"document error: {path}: physical_qubo has 9 variables, but vertex_order lists 8\n"
        )

    @pytest.mark.parametrize(
        "instance, argv, need",
        [
            ({"partition": {"numbers": [2, 3, 2, 3]}}, ["--lattice", "chimera:4,2"], "chimera:4,7"),
            ({"partition": {"numbers": [2, 3, 2, 3]}}, ["--lattice", "path-cell"], "chimera:4,7"),
            (
                {"coloring": {"edges": [[0, 1], [1, 2]], "q": 3}},
                ["--strategy", "tiles", "--lattice", "chimera:2,40"],
                "chimera:4,3",
            ),
        ],
        ids=["too-small", "not-chimera", "other-cell"],
    )
    def test_lattice_the_embedding_does_not_fit_is_usage_error(
        self, instance, argv, need, tmp_path, capsys
    ):
        if argv[-1] == "path-cell":
            # a 4-vertex path cell: no chimera cell, so the embedder falls back to J = 4
            path = [[int(abs(a - b) == 1) for b in range(4)] for a in range(4)]
            unit = [[int(a == b == 0) for b in range(4)] for a in range(4)]
            cell = CellAdjacency.from_matrices(path, unit, unit)
            argv = ["--lattice", write(tmp_path, "cell.json", lattice_to_doc(LatticeSpec(cell, 3, 3)))]
        assert main(["embed", write(tmp_path, "inst.json", instance), *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: the embedding does not fit --lattice {argv[-1]}; it needs {need}\n"

    def test_lattice_that_fits_keeps_the_document(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", {"partition": {"numbers": [2, 3, 2, 3]}})
        assert main(["embed", inst]) == 0
        plain = capsys.readouterr().out
        for lattice in ("chimera:4,7", "chimera:4,9"):
            assert main(["embed", inst, "--lattice", lattice]) == 0
            assert capsys.readouterr().out == plain
        assert loads(plain)["embedding"]["lattice"] == {"family": "chimera", "J": 4, "L": 7}

    @pytest.mark.parametrize("command", ["lattice", "embed"])
    @pytest.mark.parametrize(
        "edit, value",
        [
            (lambda d: d.update(family="chimera", J=2, L=2.9), "2.9"),
            (lambda d: d.update(family="chimera", J=2.0, L=2), "2.0"),
            (lambda d: d.update(height=True), "True"),
            (lambda d: d["A"][0].__setitem__(2, 1.7), "1.7"),
        ],
        ids=["side", "cell-size", "height", "cell-matrix"],
    )
    def test_non_integer_lattice_field_is_document_error(
        self, command, edit, value, tmp_path, capsys
    ):
        doc = lattice_to_doc(chimera_spec(2, 2))
        edit(doc)
        lattice = write(tmp_path, "f.json", doc)
        argv = ["--lattice", lattice]
        if command == "embed":
            argv.insert(0, write(tmp_path, "inst.json", {"unary": {"n": 3}}))
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"document error: {lattice}: ")
        assert f"expected an integer, got {value}" in err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize(
        "edit, value",
        [
            (lambda d: [c.__setitem__(k, p + 0.5) for c in d["embedding"]["chains"].values()
                        for k, p in enumerate(c)], "0.5"),
            (lambda d: d["vertex_order"].__setitem__(0, 0.0), "0.0"),
            (lambda d: d["physical_qubo"].update(num_vars=float(d["physical_qubo"]["num_vars"])), ".0"),
            (lambda d: d["logical_qubo"]["linear"][0].__setitem__(0, False), "False"),
            (lambda d: d["physical_qubo"]["quadratic"][0].__setitem__(1, 1.0), "1.0"),
        ],
        ids=["chain-member", "vertex_order", "num_vars", "linear-index", "quadratic-index"],
    )
    def test_non_integer_embed_field_is_document_error(
        self, command, edit, value, tmp_path, capsys
    ):
        _, embedded = run(capsys, "embed", write(tmp_path, "inst.json", {"unary": {"n": 3}}))
        edit(embedded)
        path = write(tmp_path, "emb.json", embedded)
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"document error: {path}:")
        assert "expected an integer, got " in err and value in err

    @pytest.mark.parametrize("command", [["solve", "--solver", "anneal"], ["validate"]],
                             ids=["solve", "validate"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["physical_qubo"]["linear"][0].__setitem__(1, "-100.5"),
             "expected a number, got '-100.5'"),
            (lambda d: d["physical_qubo"]["quadratic"][0].__setitem__(2, True),
             "expected a number, got True"),
            (lambda d: d["logical_qubo"].update(offset=False), "expected a number, got False"),
            (lambda d: d["physical_qubo"].update(offset=10**400),
             f"number out of float range, got {10**400}"),
        ],
        ids=["linear", "quadratic", "offset", "huge-offset"],
    )
    def test_non_number_embed_field_is_document_error(
        self, command, edit, message, tmp_path, capsys
    ):
        # a string or a bool is not read as the number it spells or as 0 / 1
        inst = write(tmp_path, "inst.json", INSTANCES["partition"])
        _, embedded = run(capsys, "embed", inst, "--strategy", "tree")
        edit(embedded)
        path = write(tmp_path, "emb.json", embedded)
        assert main([command[0], path, *command[1:]]) == 2
        assert capsys.readouterr() == ("", f"document error: {path}: {message}\n")

    @pytest.mark.parametrize(
        "command", [["validate"], ["solve", "--solver", "anneal", "--seed", "1"]],
        ids=["validate", "solve"],
    )
    def test_embed_documents_that_carry_alpha_still_read(self, command, tmp_path, capsys):
        # older embed documents hold the chain weight as embedding.alpha;
        # physical_qubo already holds the chain terms, so the key is ignored
        inst = write(tmp_path, "inst.json", INSTANCES["partition"])
        _, embedded = run(capsys, "embed", inst, "--strategy", "tree")
        assert "alpha" not in embedded["embedding"]
        outputs = []
        for alpha in (32.0, "ALPHA", -5, None):
            if alpha is not None:
                embedded["embedding"]["alpha"] = alpha
            else:
                del embedded["embedding"]["alpha"]
            path = write(tmp_path, "emb.json", embedded)
            code = main([command[0], path, *command[1:]])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0][0] in (0, 1)
        assert outputs == [outputs[0]] * 4

    @pytest.mark.parametrize(
        "names, message",
        [("abcdefghijklmnopqr", "var_names must be a list of strings, got 'abcdefghijklmnopqr'"),
         ([0] * 18, "var_names must hold strings, got 0")],
        ids=["string", "integers"],
    )
    def test_var_names_that_are_not_strings_are_document_error(
        self, names, message, tmp_path, capsys
    ):
        _, built = run(capsys, "build", write(tmp_path, "inst.json", INSTANCES["partition"]))
        assert len(built["qubo"]["var_names"]) == len(names)
        built["qubo"]["var_names"] = names
        path = write(tmp_path, "built.json", built)
        assert main(["solve", path]) == 2
        assert capsys.readouterr() == ("", f"document error: {path}: {message}\n")

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("solve", '{"offset": NaN}', "NaN is not a JSON number"),
            ("gap", '{"offset": 1', "invalid JSON at line 1, column 13"),
            ("gap", '{"offset": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits)"),
        ],
        ids=["nan", "truncated", "digits"],
    )
    def test_unreadable_json_names_the_file(self, command, text, message, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"document error: {path}: {message}")


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

    @pytest.mark.parametrize("q", [1, 25])
    def test_gap_assembly_q_outside_the_range_is_usage_error(self, q, capsys):
        # refused before any tile set is built; 24 is the chain-intact spectrum cap
        assert main(["gap", "--assembly", "1-tile", "--q", str(q)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: gap --q must be in 2..24, got {q}\n"

    def test_predict_values(self, capsys):
        code, doc = run(capsys, "predict", "numpart", "16", "2", "4")
        assert code == 0 and doc["predicted_side"] == pytest.approx(64.0)
        code, doc = run(capsys, "predict", "numpart", "16", "2", "4", "--strategy", "linear")
        assert doc["predicted_side"] == pytest.approx(56.0)
        code, doc = run(capsys, "predict", "cartoon", "4")
        assert doc["tau_linear"] == 16.0

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["numpart", "16", "2", "0"], 0),
            (["knapsack", "4", "2", "2", "0"], 0),
            (["permutation", "-4"], -4),
            (["numpart", "-16", "2", "4"], -16),
            (["hamcycle", "-3", "2"], -3),
        ],
    )
    def test_non_positive_predict_argument_is_usage_error(self, argv, value, capsys):
        assert main(["predict", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: predict {argv[0]} needs arguments of at least 1, got {value}\n"

    def test_predict_cartoon_past_the_float_range_is_usage_error(self, capsys):
        # tau_linear = 2^N overflows first, past N = 1023
        for n in (1024, 1075, 4096):
            assert main(["predict", "cartoon", str(n)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: predict cartoon needs N of at most 1023, got {n}\n"
        code, doc = run(capsys, "predict", "cartoon", "1023")
        assert code == 0 and doc["tau_linear"] == 2.0**1023 and doc["gap"] > 0.0

    def test_non_integer_predict_argument_is_usage_error(self, capsys):
        assert main(["predict", "unary", "x", "4"]) == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["numpart", "4", "2", "4", "--strategy", "foo"], ["hamcycle", "4", "2", "--strategy", "tree"],
         ["permutation", "4", "--strategy", "tileable"]],
    )
    def test_unknown_predict_strategy_is_usage_error(self, argv, capsys):
        assert main(["predict", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unknown strategy {argv[-1]!r}\n"

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
        emb_path = write(tmp_path, "emb.json", embedded)
        code, report = run(capsys, "validate", emb_path)
        assert code == 0 and report["valid"]
        code, result = run(capsys, "solve", emb_path, "--solver", "anneal", "--sweeps", "5",
                           "--restarts", "1")
        assert code == (0 if result["feasible"] else 1)
        assert len(result["logical"]) == embedded["logical_qubo"]["num_vars"]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"triangle": {"n": 3}}, "unknown instance tag 'triangle'"),
            ({"knapsack": {"values": [1], "weights": [1]}}, "malformed 'knapsack' instance"),
            # values the instance type rejects
            ({"coloring": {"edges": [[0, 1]], "q": 0}},
             "malformed 'coloring' instance: need at least one color"),
            ({"partition": {"numbers": [2, 0, 2]}},
             "malformed 'partition' instance: numbers must be positive integers"),
            ({"knapsack": {"values": [3, 1], "weights": [2], "capacity": 2}},
             "malformed 'knapsack' instance: values and weights must pair up"),
            ({"unary": {"n": 1}}, "malformed 'unary' instance: unary constraint needs at least 2 bits"),
            ({"adder": {"n": 0}}, "malformed 'adder' instance: adder width must be at least 1"),
        ],
    )
    def test_bad_instance_is_document_error(self, doc, message, tmp_path, capsys):
        assert main(["build", write(tmp_path, "inst.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("document error:") and message in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"partition": {"numbers": [2.5, 3, 2, 3]}}, "expected an integer, got 2.5"),
            ({"knapsack": {"values": [1], "weights": [1], "capacity": 1.0}},
             "expected an integer, got 1.0"),
            ({"coloring": {"edges": [[0, True]], "q": 2}}, "expected an integer, got True"),
            ({"coloring": {"edges": [[0, 1]], "q": 2.5}}, "expected an integer, got 2.5"),
            ({"hamcycle": {"edges": [[0, 1], [1, 2], [2, 0]], "num_vertices": 3.5}},
             "expected an integer, got 3.5"),
            ({"unary": {"n": "3"}}, "expected an integer, got '3'"),
            ({"unary": {"n": 3, "allow_zero": "false"}},
             "allow_zero must be true or false, got 'false'"),
            ({"adder": {"n": 2.0}}, "expected an integer, got 2.0"),
        ],
        ids=["numbers", "capacity", "edge", "q", "num_vertices", "n", "allow_zero", "adder-n"],
    )
    def test_non_integer_instance_field_is_document_error(self, doc, message, tmp_path, capsys):
        path = write(tmp_path, "inst.json", doc)
        assert main(["build", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"document error: {path}: malformed '{next(iter(doc))}' instance")
        assert message in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"partition": {"numbers": [2.5, 3, 2, 3]}},
             "malformed 'partition' instance: expected an integer, got 2.5"),
            ({"unary": {"n": 3, "allow_zero": "false"}},
             "malformed 'unary' instance: allow_zero must be true or false, got 'false'"),
            ({"partition": {"numbers": 5}},
             "malformed 'partition' instance: wrong shape ('int' object is not iterable)"),
        ],
        ids=["float", "allow_zero", "shape"],
    )
    def test_field_error_says_what_is_wrong(self, doc, message, tmp_path, capsys):
        # a value of the wrong type is not called a wrong shape; a shape error is
        path = write(tmp_path, "inst.json", doc)
        assert main(["build", path]) == 2
        assert capsys.readouterr().err == f"document error: {path}: {message}\n"

    @pytest.mark.parametrize("command", [["build"], ["embed", "--strategy", "tiles"]], ids=["build", "embed"])
    @pytest.mark.parametrize(
        "doc, edge",
        [
            ({"coloring": {"edges": [[0, 5]], "q": 2, "num_vertices": 3}}, "(0, 5)"),
            ({"hamcycle": {"edges": [[0, 1], [1, 2], [2, 0], [0, 7]], "num_vertices": 3}}, "(0, 7)"),
            ({"hamcycle": {"edges": [[0, 1], [1, 2], [2, 0], [0, -1]], "num_vertices": 3}}, "(0, -1)"),
        ],
        ids=["coloring", "hamcycle", "hamcycle-negative"],
    )
    def test_edge_to_a_missing_vertex_is_an_error(self, command, doc, edge, tmp_path, capsys):
        path = write(tmp_path, "inst.json", doc)
        assert main([command[0], path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"document error: {path}: malformed '{next(iter(doc))}' instance: "
            f"edge {edge} names a vertex outside 0..2\n"
        )

    @pytest.mark.parametrize("strategy", ["tree", "complete", "tiles"])
    @pytest.mark.parametrize("command", ["build", "embed"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"hamcycle": {"edges": []}}, "vertex count 1 is below the minimum 3"),
            ({"hamcycle": {"edges": [[0, 1]], "num_vertices": 2}}, "vertex count 2 is below the minimum 3"),
            ({"coloring": {"edges": [], "num_vertices": 0, "q": 2}}, "vertex count 0 is below the minimum 1"),
        ],
        ids=["hamcycle-empty", "hamcycle-two", "coloring-none"],
    )
    def test_too_few_vertices_is_a_document_error(self, doc, message, command, strategy, tmp_path, capsys):
        path = write(tmp_path, "inst.json", doc)
        assert main([command, path, "--strategy", strategy]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"document error: {path}: malformed '{next(iter(doc))}' instance: {message}\n"

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


# one-field junk, as JSON text: each is a wrong type, a wrong sign or a
# non-finite number somewhere, and none names a large size
JUNK = ("null", "true", '"x"', "-1", "0", "2", "2.5", "1e999", "[]", "{}", "[0]")
JUNK_MARK = "@@junk@@"


def _valid_documents(tmp: pathlib.Path) -> dict:
    """An instance, build, embed and lattice document for each instance tag,
    the lattice being the one the tag's embedding records."""
    docs = {}
    for tag, inst in INSTANCES.items():
        docs[tag, "instance"] = inst
        path = write(tmp, f"{tag}.json", inst)
        for kind in ("build", "embed"):
            out = str(tmp / f"{tag}-{kind}.json")
            assert main([kind, path, "--out", out]) == 0
            docs[tag, kind] = loads(pathlib.Path(out).read_text())
        docs[tag, "lattice"] = docs[tag, "embed"]["embedding"]["lattice"]
    return docs


def _draw_path(data, doc) -> list:
    # a key or index at each level down, stopping after any of them
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and (not path or data.draw(st.booleans())):
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    return path


def _at(doc, path):
    for key in path:
        if not isinstance(doc, (dict, list)) or isinstance(doc, list) != isinstance(key, int):
            return None
        if key not in (doc if isinstance(doc, dict) else range(len(doc))):
            return None
        doc = doc[key]
    return doc


def _mutate(data, docs: dict, key) -> tuple[str, str]:
    """The JSON text of docs[key] with one part deleted, replaced by junk or
    swapped for the same part of another document, and what was done."""
    doc = json.loads(json.dumps(docs[key]))
    path = _draw_path(data, doc)
    parent, last = _at(doc, path[:-1]), path[-1]
    donors = sorted(k for k, other in docs.items() if k != key and _at(other, path) is not None)
    how = data.draw(st.sampled_from(["delete", "junk", "swap"] if donors else ["delete", "junk"]))
    if how == "delete":
        del parent[last]
        return dumps(doc), f"delete {path}"
    if how == "swap":
        donor = data.draw(st.sampled_from(donors))
        parent[last] = _at(docs[donor], path)
        return dumps(doc), f"{path} from {donor}"
    junk = data.draw(st.sampled_from(JUNK))
    parent[last] = JUNK_MARK
    return dumps(doc).replace(json.dumps(JUNK_MARK), junk), f"{path} = {junk}"


def check_document_mutations(max_examples: int, seed: int) -> None:
    """Each mutated document, run through every subcommand that reads a
    document, ends in exit 0, 1 or 2 and raises nothing but SystemExit, and
    every `document error:` line names the mutated file or the instance file.

    A mutation deletes one key or list entry, replaces one value by junk, or
    swaps one part for the same part of another document.  Brute-force
    solves and spectra are capped at 12 variables to keep runs short.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        docs = _valid_documents(tmp)

        @hypothesis.seed(seed)
        @hypothesis.settings(max_examples=max_examples, deadline=None, database=None)
        @hypothesis.given(st.data())
        def mutated_documents_end_in_an_exit_code(data):
            key = data.draw(st.sampled_from(sorted(docs)))
            text, how = _mutate(data, docs, key)
            path = tmp / "mutated.json"
            path.write_text(text)
            doc, inst = str(path), str(tmp / f"{key[0]}.json")
            for argv in (
                ["build", doc], ["embed", doc], ["validate", doc], ["gap", doc, "--cap", "12"],
                ["solve", doc, "--cap", "12"],
                ["solve", doc, "--solver", "anneal", "--sweeps", "1", "--restarts", "1"],
                ["lattice", "--lattice", doc], ["embed", inst, "--lattice", doc],
            ):
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                except SystemExit as exit_:
                    code = exit_.code
                assert code in (0, 1, 2), f"{key} {how}: {argv[0]} exits {code}"
                for line in err.getvalue().splitlines():
                    if line.startswith("document error:"):
                        assert line.startswith((f"document error: {doc}", f"document error: {inst}")), (
                            f"{key} {how}: {argv[0]} names no file: {line}"
                        )

        mutated_documents_end_in_an_exit_code()


def test_mutated_documents_end_in_an_exit_code():
    check_document_mutations(max_examples=500, seed=0)
