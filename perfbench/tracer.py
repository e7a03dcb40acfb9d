"""Span tracing around the public entry points of each qubolattice layer.

A traced run rebinds every module-level name that refers to a layer entry
point to a wrapper, in every loaded ``qubolattice`` module.  Rebinding per
module is needed because ``from .lattice import build_lattice`` gives each
importing module its own reference.  Per-element methods such as
``LatticeGraph.has_edge`` or ``Qubo.add_*`` are deliberately left alone: they
run millions of times per pass and would swamp the trace.

Spans (name, layer, start, end, parent) are kept in memory; the caller writes
them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute) -> span key.  The key's first component is the layer.
ENTRY_POINTS = {
    ("lattice", "build_lattice"): "lattice",
    ("numpart", "build_numpart_qubo"): "compile",
    ("unary", "build_unary_qubo"): "compile",
    ("unary", "_build_gadget_qubo"): "compile",
    ("hamcycle", "build_tileable_hamcycle"): "compile",
    ("hamcycle", "build_ic_qubo"): "compile",
    ("hamcycle", "build_permutation_qubo"): "compile",
    ("knapsack", "build_knapsack_qubo"): "compile",
    ("adder", "build_adder"): "compile",
    ("coloring", "build_tileset"): "compile",
    ("coloring", "_build_tileset_any"): "compile",
    ("numpart", "embed_numpart"): "layout",
    ("unary", "fractal_embed_unary"): "layout",
    ("hamcycle", "embed_tileable_hamcycle"): "layout",
    ("hamcycle", "embed_permutation_tree"): "layout",
    ("coloring", "compile_coloring"): "layout",
    ("tiling", "route_graph_to_tiles"): "layout",
    ("tiling", "stitch"): "layout",
    ("embedding", "embed_complete_chimera"): "layout",
    ("embedding", "embed_qubo"): "embed.embed_qubo",
    ("embedding", "choose_alpha"): "embed.choose_alpha",
    ("embedding", "validate"): "embed.validate",
    ("qubo", "brute_force"): "solve.brute",
    ("qubo", "restricted_gap"): "solve.restricted",
    ("qubo", "anneal_solve"): "solve.anneal",
    ("coloring", "count_states_at_coloring_level"): "solve.count",
    ("coloring", "verify_gap"): "solve.verdict",
    ("coloring", "grid_search_coefficients"): "solve.verdict",
    ("knapsack", "knapsack_sweep"): "solve.verdict",
    ("embedding", "unembed"): "decode",
    ("numpart", "decode_partition"): "decode",
    ("hamcycle", "decode_cycle"): "decode",
    ("documents", "dumps"): "documents.dumps",
    ("documents", "loads"): "documents.loads",
    ("cli", "main"): "cli",
}


def _qubo_of(result):
    """The objective a compiler returned, whatever wrapper it came in."""
    if isinstance(result, tuple):
        result = result[0]
    if hasattr(result, "tiles"):  # coloring tile set: count its templates
        t = result.tiles
        return [t.vertex_tile, t.edge_horizontal, t.edge_vertical, t.chain_horizontal, t.chain_vertical]
    return [getattr(result, "qubo", result)]


class Tracer:
    """Collects spans and per-layer counts while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.chain_lengths: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for (mod, attr), key in ENTRY_POINTS.items():
            original = getattr(sys.modules[f"{self.package}.{mod}"], attr)
            wrapper = self._wrap(original, key)
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, bound, value))
                        setattr(m, bound, wrapper)

    def uninstall(self) -> None:
        for m, bound, value in reversed(self._saved):
            setattr(m, bound, value)
        self._saved.clear()

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, key: str):
        """A span around the enclosed block, child of the innermost open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, key, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            t0 = self.spans[index][2]
            self.spans[index] = (name, key, t0, time.perf_counter(), parent)

    def _wrap(self, fn, key):
        tracer = self
        qualname = f"{fn.__module__}.{fn.__qualname__}"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            # cli.main spans are named by subcommand: cli.build, cli.solve, ...
            name = f"cli.{call.arguments['argv'][0]}" if key == "cli" else qualname
            parent_key = tracer.spans[tracer._stack[-1]][1] if tracer._stack else ""
            with tracer.span(name, key):
                result = fn(*args, **kwargs)
            tracer._count(name, key, parent_key, call.arguments, result)
            return result

        return traced

    def _count(self, name, key, parent_key, call, result) -> None:
        c = self.counts
        if key == "lattice":
            c["lattice.builds"] += 1
        elif key == "compile" and parent_key != "compile":
            for q in _qubo_of(result):
                c["compile.vars"] += q.num_vars
                c["compile.terms"] += len(q.linear) + len(q.quadratic)
        elif key == "embed.embed_qubo":
            self.chain_lengths.extend(len(ch) for ch in result.embedding.chains.values())
        elif key == "solve.brute":
            c["solve.brute.states"] += 2.0 ** call["q"].num_vars
        elif key == "solve.restricted" and call["states"] is None:
            c["solve.restricted.predicate_rows"] += 2.0 ** call["q"].num_vars
        elif key == "solve.anneal":
            n = call["q"].num_vars
            c["solve.anneal.spin_updates"] += call["sweeps"] * max(1, call["restarts"]) * n
            c["solve.anneal.dense_bytes"] = max(c["solve.anneal.dense_bytes"], 8.0 * n * n)
        elif name.endswith(".unembed"):
            c["decode.broken_chains"] += result[1]
        elif key == "documents.dumps":
            c["documents.bytes"] += len(result)

    # -- summary ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span key: each span's duration minus its children's."""
        child = defaultdict(float)
        for name, key, t0, t1, parent in self.spans:
            child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, key, t0, t1, parent) in enumerate(self.spans):
            out[key] += (t1 - t0) - child[i]
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Total duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, key, t0, t1, parent in self.spans:
            out[name] += t1 - t0
        return out
