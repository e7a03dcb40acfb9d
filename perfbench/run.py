"""Benchmark of the qubolattice pipeline: compile -> embed -> verify -> anneal.

Run from the repository root:

    python3 perfbench/run.py --workload embed_verify --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload, one process each
    python3 perfbench/run.py --self-check               # tiny sizes: metric names and oracles

The program is imported from ``src/`` of the checkout the command runs in.
Set-up (import, seeded instance generation, one untimed warm-up pass) is
followed by passes over the workload's instances for ``--seconds``: another
pass starts while it is expected to end in time, and there are at least two.
``setup_s`` is the median of three set-ups: this process's own and those of
two fresh interpreters started one after another (``--setup-only``).
``pass_s`` and the stage times are medians over the run's passes of the time
spent in program calls; the benchmark's own oracle checks and collector runs
between calls are not counted.  Passes are short, so a run makes about twenty
and their median rides out contention from other processes on a shared host.
``--trace 1`` runs untraced and traced passes in turn and reports the
per-layer split as medians over the traced passes; the spans are written to
``.perfbench/`` when the run ends.

Lines before the last print every metric by name and unit, with the witness
of each known failure and each wrong result.  The last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
PACKAGE = "qubolattice"
SETUP_SAMPLES = 3  # set-ups timed per run: this process's own and fresh interpreters

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "qubits": "count",
    "couplers": "count",
    "side_ratio": "ratio",
}

SELF_TIMED = {  # per-layer self-time metric -> span key
    "lattice.self_s": "lattice",
    "compile.self_s": "compile",
    "layout.self_s": "layout",
    "embed.embed_qubo.self_s": "embed.embed_qubo",
    "embed.choose_alpha.self_s": "embed.choose_alpha",
    "embed.validate.self_s": "embed.validate",
    "solve.brute.self_s": "solve.brute",
    "solve.restricted.self_s": "solve.restricted",
    "solve.count.self_s": "solve.count",
    "solve.verdict.self_s": "solve.verdict",
    "solve.anneal.self_s": "solve.anneal",
    "decode.self_s": "decode",
    "documents.dumps_s": "documents.dumps",
    "documents.loads_s": "documents.loads",
    "cli.self_s": "cli",
    "bench.self_s": "bench",
}
EMBED_LAYERS = ("lattice", "compile", "layout", "embed.embed_qubo", "embed.choose_alpha", "embed.validate")

# Time within a pass in the compile/layout/embed/validate calls, in the exact
# verdicts, and in anneal solves with unembed and decode.  Printed by every
# run but gated only per layer: on the workloads that bypass a stage they are
# a few tens of milliseconds, and host contention spreads those past any bound.
STAGES = {"embed_s": "s", "verify_s": "s", "solve_s": "s"}

PER_LAYER = {
    **STAGES,
    **{name: "s" for name in SELF_TIMED},
    "lattice.builds": "count",
    "compile.vars": "count",
    "compile.terms": "count",
    "embed.chain_len_max": "qubits",
    "embed.chain_len_mean": "qubits",
    "solve.brute.states": "states-computed",
    "solve.brute.states_per_s": "1/s",
    "solve.restricted.predicate_rows": "rows-computed",
    "solve.anneal.spin_updates": "updates-computed",
    "solve.anneal.us_per_update": "us",
    "solve.anneal.dense_bytes": "B-computed",
    "decode.broken_chains": "count",
    "documents.bytes": "B",
    "cli.build_s": "s",
    "cli.embed_s": "s",
    "cli.validate_s": "s",
    "cli.solve_s": "s",
    "cli.gap_s": "s",
    "cli.flag_feasible": "count",
    "cli.oracle_accepted": "count",
    "cli.flag_disagrees": "count",
    "anneal_success": "share",
    "wrong_results": "count",
    "failed_ops": "share",
    "known_failures": "count",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.embed_layers_s": "s",
    "trace.spans": "count",
}


def cap_blas_threads() -> None:
    """One BLAS thread: on a few shared cores, more threads time the scheduler."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import qubolattice.cli  # noqa: F401  (imports every layer)

    package = sys.modules[PACKAGE]
    if not os.path.realpath(package.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: {PACKAGE} was imported from {package.__file__}, not {SRC}")
    return package


def set_up(name: str, seed: int, size: str, workdir: str):
    """Import, generate the instances and run the untimed warm-up pass.

    Returns the workload, the warm-up PassLog and the seconds all that took.
    """
    t0 = time.perf_counter()
    Q = load_program()
    from workloads import WORKLOADS, PassLog

    workload = WORKLOADS[name](Q, seed, size, workdir)
    warm = PassLog()
    workload.run(warm)
    return workload, warm, time.perf_counter() - t0


def setup_seconds(args) -> list[float]:
    """Set-up times of fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--setup-only"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def program_s(log) -> float:
    """Time a pass spent in program calls."""
    return sum(log.time.values())


def end_to_end(logs, setup_s: float) -> dict[str, float]:
    """End-to-end metrics and stage times of the untraced passes."""
    ratios = logs[-1].side_ratios
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(map(program_s, logs)),
        "embed_s": statistics.median(log.time["embed"] for log in logs),
        "verify_s": statistics.median(log.time["verify"] for log in logs),
        "solve_s": statistics.median(log.time["solve"] for log in logs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "qubits": logs[-1].qubits,
        "couplers": logs[-1].couplers,
        "side_ratio": math.exp(sum(map(math.log, ratios)) / len(ratios)),
    }


def outcome_metrics(log) -> dict[str, float]:
    return {
        "anneal_success": log.anneal_accepted / log.anneals if log.anneals else 0.0,
        "wrong_results": len(log.wrong),
        "failed_ops": (len(log.failures) + len(log.known_failures)) / log.attempted,
        "known_failures": len(log.known_failures),
    }


def per_layer(tracer, log, traced_s: float, untraced_s: float) -> dict[str, float]:
    st = tracer.self_times()
    inclusive = tracer.inclusive_times()
    c = tracer.counts
    chains = tracer.chain_lengths
    out = {f"{stage}_s": log.time[stage] for stage in log.BUCKETS}
    out.update({name: st.get(key, 0.0) for name, key in SELF_TIMED.items()})
    brute_s, anneal_s = st.get("solve.brute", 0.0), st.get("solve.anneal", 0.0)
    out.update({
        "lattice.builds": c["lattice.builds"],
        "compile.vars": c["compile.vars"],
        "compile.terms": c["compile.terms"],
        "embed.chain_len_max": max(chains, default=0),
        "embed.chain_len_mean": sum(chains) / len(chains) if chains else 0.0,
        "solve.brute.states": c["solve.brute.states"],
        "solve.brute.states_per_s": c["solve.brute.states"] / brute_s if brute_s else 0.0,
        "solve.restricted.predicate_rows": c["solve.restricted.predicate_rows"],
        "solve.anneal.spin_updates": c["solve.anneal.spin_updates"],
        "solve.anneal.us_per_update": 1e6 * anneal_s / c["solve.anneal.spin_updates"] if anneal_s else 0.0,
        "solve.anneal.dense_bytes": c["solve.anneal.dense_bytes"],
        "decode.broken_chains": c["decode.broken_chains"],
        "documents.bytes": c["documents.bytes"],
        **{f"cli.{cmd}_s": inclusive.get(f"cli.{cmd}", 0.0) for cmd in ("build", "embed", "validate", "solve", "gap")},
        **{f"cli.{k}": log.cli[k] for k in ("flag_feasible", "oracle_accepted", "flag_disagrees")},
        **outcome_metrics(log),
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.embed_layers_s": sum(st.get(k, 0.0) for k in EMBED_LAYERS),
        "trace.spans": len(tracer.spans),
    })
    return out


def measure(args):
    """Set up, warm up, then pass until `args.seconds` elapse.

    ``setup_s`` is the median over this process's set-up and those of fresh
    interpreters.  Returns the metrics and the PassLog of every pass, warm-up
    first.
    """
    name, seed, seconds, trace = args.workload, args.seed, args.seconds, bool(args.trace)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        workload, warm, own_setup_s = set_up(name, seed, args.size, workdir)
        setup_s = None if trace else statistics.median([own_setup_s] + setup_seconds(args))
        from tracer import Tracer
        from workloads import PassLog

        logs = [warm]
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            log = PassLog()
            workload.run(log)
            untraced.append(log)
            logs.append(log)
            if trace:
                tracer = Tracer(PACKAGE)
                log = PassLog(span=tracer.span)
                tracer.install()
                try:
                    workload.run(log)
                finally:
                    tracer.uninstall()
                traced.append((log, tracer))
                logs.append(log)
            # At least two untraced passes, so that the median has a choice.
            now = time.perf_counter()
            if now + (now - round_start) > start + seconds and (trace or len(untraced) >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = end_to_end(untraced, setup_s)
    if trace:
        untraced_s = metrics["pass_s"]
        traced_s = statistics.median(program_s(log) for log, _ in traced)
        layers = [per_layer(tr, log, traced_s, untraced_s) for log, tr in traced]
        metrics = {k: statistics.median(m[k] for m in layers) for k in PER_LAYER}
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{name}-seed{seed}.json"), "w") as fh:
            json.dump({"workload": name, "seed": seed, "passes": layers,
                       "spans": [tr.spans for _, tr in traced]}, fh)
    else:
        metrics.update(outcome_metrics(untraced[-1]))
    return metrics, logs


def report(name: str, metrics: dict, logs, trace: bool) -> dict:
    units = PER_LAYER if trace else {**END_TO_END, **PER_LAYER}
    for key, value in metrics.items():
        print(f"{name} {key} {value!r} {units[key]}")
    untraced = [log for log in logs[1:] if not log.traced]
    programs = [program_s(log) for log in untraced]
    print(f"{name} pass program time over {len(programs)} passes: "
          f"fastest {min(programs)!r} s, slowest {max(programs)!r} s")
    for op in untraced[0].op_time:
        print(f"{name} op {op} median {statistics.median(log.op_time[op] for log in untraced)!r} s")
    last = logs[-1]
    for witness in last.known_failures:
        print(f"{name} known failure: {witness}")
    wrong = [w for log in logs for w in log.wrong]
    failures = [f for log in logs for f in log.failures]
    for line in wrong + failures:
        print(f"{name} {'WRONG' if line in wrong else 'FAILED'}: {line}")
    measured = logs[1:]
    wanted = PER_LAYER if trace else END_TO_END
    return {
        "correct": not wrong,
        "attempted": sum(log.attempted for log in measured),
        "failed": sum(len(log.failures) for log in measured),
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]} for k in wanted},
    }


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    from workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        status = status or out.returncode
        if out.returncode == 0:
            results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return status


def self_check() -> int:
    """Tiny instances of every workload, traced and untraced: every metric
    of BENCHMARK.json is emitted with its unit, and every oracle passes."""
    import oracle

    oracle.selftest()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert declared[0] == END_TO_END and declared[1] == PER_LAYER, "BENCHMARK.json metrics drifted"
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", "7",
                   "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{w['name']} trace={trace}"
            before = len(problems)
            if out.returncode != 0:
                problems.append(f"{label}: exit {out.returncode}: {out.stderr[-2000:]}")
                continue
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {lines}")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{label}: metrics {sorted(emitted)} differ from BENCHMARK.json")
            printed = {line.split()[1] for line in lines[:-1] if len(line.split()) == 4}
            for key in declared[trace].keys() | STAGES.keys() | {"wrong_results", "failed_ops", "anneal_success"}:
                if key not in printed:
                    problems.append(f"{label}: {key} not printed with a unit")
            found = len(problems) - before
            print(f"self-check {label}: " + (f"{found} problem(s)" if found else "ok"))
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and print its seconds")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, HERE)
    if args.self_check:
        return self_check()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workdir = os.path.join(OUT, f"work-{os.getpid()}")
        try:
            print(set_up(args.workload, args.seed, args.size, workdir)[2])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    metrics, logs = measure(args)
    result = report(args.workload, metrics, logs, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
