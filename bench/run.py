"""knotstat benchmark: run one workload, check every output, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see each module's docstring): ``cli-cold`` (fresh CLI
processes), ``exact-algebra`` (warm exact Q[Q/Z] and knot-group algebra)
and ``series-eval`` (warm float series).  Each is a closed loop: one
client, one process, no threads.

A run builds a seeded list of operations (a round) and repeats it until
``--seconds`` have passed and at least the workload's minimum number of
rounds has run.  With ``--trace 0`` it prints the end-to-end metrics:

* ``ops_per_s``       operations that succeeded per second of operation
                      time, median over rounds;
* ``latency_p50_ms``  median operation time over all rounds;
* ``latency_tail_ms`` a fixed high percentile of operation time, chosen per
                      workload so that it has at least ten samples beyond
                      it at the minimum number of rounds and falls inside a
                      cluster of fixed-size operations;
* ``success_frac``    1 - fail_frac (a failure is a wrong output, a
                      violated oracle, an exception or traceback, an
                      unexpected exit code, or a run past the budget);
* ``setup_s``         median of five set-ups: warm-up CLI calls for
                      ``cli-cold``, or import plus catalog and presentation
                      loading in fresh interpreters for the others;
* ``peak_rss_mb``     peak resident set size of this process, or of the
                      largest CLI child for ``cli-cold``.

Steadiness.  On a shared 2-vCPU x86_64 virtual machine the speed of the
same work drifts by tens of percent within seconds and between minutes.  Rounds repeat the same inputs
and throughput is the median round's.  Inputs are drawn by stratified
sampling, so seeds differ little in cost.  In-process operations are
each bracketed by a speed probe that runs no knotstat code (a fixed
pure-Python loop, ``common.loop_probe``); their times are scaled by the
probe's reference time over the median of the four probes around the
operation, so they read as times at the host speed where the baseline
was recorded.  Process start-up does not follow that loop, so CLI calls
are bracketed the same way by a process control instead
(``cli_cold.control_probe``: ``python -c pass`` and ``python -c "import
numpy"``, no knotstat code), and each workload's five set-ups are scaled
by the median of a control run after each.  Every process runs with one
BLAS thread (``cli_cold.SINGLE_THREAD``).  The times as measured are
printed too and kept in the result file.

With ``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics: span times and self times of the library layers
(``tracer.py``), work counters, start-up probes and the tracing overhead.

Human-readable lines (with ``fail_frac``, sample counts and the run's
context) come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
and the spans of a traced run, are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
BUDGET_S = 10.0  # per-operation wall budget for in-process operations
TRACED_MIN_ROUNDS = 3  # traced rounds, each paired with an untraced one

WORKLOADS = ("cli-cold", "exact-algebra", "series-eval")

COUNTS = (
    "cli.stdout_bytes", "crossed.mul.term_pairs", "crossed.alpha_n.preimages",
    "crossed.bc_normalize.tokens", "crossed.hatpi_member.candidates",
    "knotgroups.fox_entries", "semigroup.group_elements", "semigroup.f_weight.bits",
    "partition.qstar_partition.terms", "partition.z_tau.factors",
    "specfun.polylog_roots_of_unity.denominator_sum", "kms.psi.entries",
)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def context(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": _commit(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(), "machine": platform.machine()}


def inprocess_setup(env: dict) -> float:
    """Import plus fixture loading, timed inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "fixtures.py")], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def latency_metrics(rounds, tail_p: float, reference=None) -> dict:
    """Throughput and latency percentiles; scaled to the reference host
    speed when the probe's ``reference`` time is given."""
    from common import median, percentile

    per_round = [r.scaled(reference) if reference else r.latencies for r in rounds]
    latencies = [x for lat in per_round for x in lat]
    n = len(latencies)
    rates = [(len(lat) - len(r.failures)) / sum(lat) for r, lat in zip(rounds, per_round)]
    return {
        "ops_per_s": (median(rates), "1/s",
                      f"median of {len(rounds)} rounds of {len(rounds[0].latencies)} ops"),
        "latency_p50_ms": (percentile(latencies, 50.0) * 1000.0, "ms", f"{n} samples"),
        "latency_tail_ms": (percentile(latencies, tail_p) * 1000.0, "ms",
                            f"p{tail_p:g} of {n} samples, "
                            f"{n - math.ceil(n * tail_p / 100)} beyond"),
    }


def end_to_end(args, mod, work):
    from common import LOOP_REF_S, loop_probe, median, run_round

    import cli_cold
    import fixtures

    cold = args.workload == "cli-cold"
    control, env = cli_cold.control_probe(work), cli_cold.child_env()
    setup, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        setup.append(cli_cold.warm_up(work) if cold else inprocess_setup(env))
        setup_probes.append(control())
    if cold:
        ops, budget = cli_cold.build(args.seed, work), None
        probe, reference = control, cli_cold.CONTROL_REF_S
    else:
        ops, budget = mod.build(args.seed, fixtures.load()), BUDGET_S
        probe, reference = loop_probe, LOOP_REF_S
    rounds = []
    start = time.perf_counter()
    while len(rounds) < mod.MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(ops, budget, probe=probe))

    attempted = sum(len(r.latencies) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    metrics = latency_metrics(rounds, mod.TAIL_PERCENTILE, reference)
    metrics.update({
        "success_frac": (1.0 - len(failures) / attempted, "ratio",
                         f"fail_frac = {len(failures)}/{attempted} = {len(failures) / attempted!r}"),
        "setup_s": (median(setup) * cli_cold.CONTROL_REF_S / median(setup_probes), "s",
                    f"median of {len(setup)}, scaled by the process control"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB",
                        "max over CLI children" if who == resource.RUSAGE_CHILDREN
                        else "this process"),
    })
    info = {"rounds": len(rounds), "round_wall_s": [r.wall for r in rounds],
            "latencies_s": [r.latencies for r in rounds], "probes_s": [r.probes for r in rounds],
            "overran": [r.overran for r in rounds], "setup_samples_s": setup,
            "setup_probes_s": setup_probes}
    as_measured = latency_metrics(rounds, mod.TAIL_PERCENTILE)
    info["as_measured"] = {k: v[0] for k, v in as_measured.items()}
    info["as_measured"]["setup_s"] = median(setup)
    info["probe_median_s"] = median([p for r in rounds for p in r.probes])
    info["probe_reference_s"] = reference
    return metrics, info, failures, attempted, None


def traced(args, mod, work):
    from common import median, run_round
    from tracer import LAYERS, SPANS, Tracer

    import cli_cold
    import fixtures

    probes = cli_cold.layer_probes(work)
    tracer = Tracer()
    clock = time.perf_counter
    with tracer:
        t0 = clock()
        fx = fixtures.load()
        setup_wall = clock() - t0
    if args.workload == "cli-cold":
        ops = cli_cold.build_warm(args.seed, work)
    else:
        ops = mod.build(args.seed, fx)
    plain, spanned = [], []
    start = clock()
    while len(spanned) < TRACED_MIN_ROUNDS or clock() - start < args.seconds:
        plain.append(run_round(ops, BUDGET_S))
        with tracer:
            spanned.append(run_round(ops, BUDGET_S, tracer))

    wall = setup_wall + sum(r.wall for r in spanned)
    layers = tracer.layer_totals()
    metrics = {name: (value, "ms", "median of fresh processes") for name, value in probes.items()}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (layers[layer]["calls"], "count", "spans")
        metrics[f"{layer}.self_ms"] = (layers[layer]["self_s"] * 1000.0, "ms",
                                       f"{layers[layer]['self_s'] / wall:.1%} of traced wall")
    for name in SPANS:
        metrics[f"{name}.ms"] = (tracer.span_ms(name), "ms",
                                 f"{tracer.stats.get(name, [0])[0]} calls")
    for name in COUNTS:
        unit = "bytes" if name.endswith("_bytes") else "bits" if name.endswith(".bits") else "count"
        metrics[name] = (tracer.counts.get(name, 0), unit, "summed")
    pairs = tracer.counts.get("crossed.mul.term_pairs", 0)
    merged = tracer.counts.get("crossed.mul.result_terms", 0)
    metrics["crossed.mul.merge_frac"] = (1.0 - merged / pairs if pairs else 0.0, "ratio",
                                         "1 - result terms / term pairs")
    distinct = tracer.counts.get("semigroup.distinct_weights", 0)
    elements = tracer.counts.get("semigroup.group_elements", 0)
    metrics["semigroup.elements_per_weight"] = (elements / distinct if distinct else 0.0,
                                                "ratio", "group elements / distinct weights")
    layer_self = sum(v["self_s"] for v in layers.values())
    metrics["bench.self_ms"] = ((wall - layer_self) * 1000.0, "ms",
                                "traced wall outside every layer span")
    metrics["trace.wall_ms"] = (wall * 1000.0, "ms", f"set-up + {len(spanned)} traced rounds")
    busy = [sum(r.latencies) for r in spanned], [sum(r.latencies) for r in plain]
    metrics["trace.overhead_frac"] = (median(busy[0]) / median(busy[1]) - 1.0, "ratio",
                                      "median traced / untraced round operation time - 1, "
                                      f"{len(spanned)} pairs")
    rounds = plain + spanned
    info = {"rounds": len(rounds), "round_wall_s": [r.wall for r in rounds]}
    return (metrics, info, [f for r in rounds for f in r.failures],
            sum(len(r.latencies) for r in rounds), tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "knotstat" / "__init__.py").is_file():
        print(f"bench: no knotstat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(1, str(ROOT / "src"))
    import cli_cold

    os.environ.update(cli_cold.SINGLE_THREAD)  # before numpy is imported
    mod = importlib.import_module(args.workload.replace("-", "_"))
    OUT.mkdir(exist_ok=True)
    work = cli_cold.make_workdir(OUT)
    try:
        run = traced if args.trace else end_to_end
        metrics, info, failures, attempted, tracer = run(args, mod, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ctx = context(args)
    correct = not any(pinned for _, _, pinned in failures)
    print("# knotstat benchmark  " + "  ".join(f"{k}={v}" for k, v in ctx.items()))
    for name, (value, unit, note) in metrics.items():
        print(f"# {name:<48} {value:>16.6g} {unit:<6} {note}")
    for name, value in info.get("as_measured", {}).items():
        print(f"# as measured: {name:<34} {value:>16.6g} {metrics[name][1]}")
    kinds: dict[tuple[str, str], int] = {}
    for kind, why, _ in failures:
        kinds[(kind, why)] = kinds.get((kind, why), 0) + 1
    for (kind, why), n in sorted(kinds.items()):
        print(f"# FAILED x{n}: {kind}: {why}")
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    record = {"context": ctx, "info": info, **result,
              "notes": {name: note for name, (_, _, note) in metrics.items()},
              "failures": [{"kind": k, "why": w, "count": n} for (k, w), n in kinds.items()]}
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(f"{stem}.spans.json", {"context": ctx})
    (stem.parent / f"{stem.name}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
