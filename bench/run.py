"""secrecysim benchmark.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

With ``--trace 0`` the chosen workload runs as a closed loop with one
client: each program invocation is a subprocess that starts after the
previous one has exited, and invocations continue until their wall times
add up to ``--seconds``. Every invocation's outputs are checked outside
the timed region. The end-to-end metrics are printed by name with their
units; the last line of standard output is one JSON object.

With ``--trace 1`` the same programs run in-process, alternately plain and
with spans recorded around every call into the package's layers, and
in-process probes time single layers; the last line then carries the
per-layer metrics.

``--smoke`` runs every workload once in both modes at a tiny size and
checks that each metric of BENCHMARK.json is emitted with its unit.

The package is always imported from the checkout's ``src`` directory,
never from an installed copy; without it the benchmark exits with code 2.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import workloads
from workloads import FULL, SMOKE, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 120
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "cells_per_s": "1/s", "setup_s": "s"}
# --version runs spread over one end-to-end run
SETUP_SAMPLES = 8


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Usage:
    """Resources of one finished subprocess and its descendants."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict, log: Path) -> Usage:
    """Run ``argv`` to completion through ``launch.py``, which measures it."""
    launcher = [sys.executable, str(Path(__file__).with_name("launch.py")), str(CHILD_TIMEOUT_S), str(log), "--"]
    proc = subprocess.run(launcher + argv, env=env, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"launcher failed: {proc.stderr.strip()}")
    return Usage(**json.loads(proc.stdout))


def log_tail(log: Path, lines: int = 5) -> str:
    return " | ".join(log.read_text(errors="replace").strip().splitlines()[-lines:])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    below = len(values) - 10
    if below < 1:
        return None
    pct = 100 * below // len(values)
    rank = -(-pct * len(values) // 100)
    return pct, sorted(values)[rank - 1]


def machine_facts() -> dict:
    import secrecysim

    facts = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "llc": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "secrecysim": secrecysim.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = [
            (int((d / "level").read_text()), (d / "size").read_text().strip())
            for d in caches.glob("index*")
        ]
        if levels:
            facts["llc"] = "L{} {}".format(*max(levels))
    except (OSError, ValueError):
        pass
    return facts


# ---------------------------------------------------------------- checks


def references(workload: Workload, sizes, inputs, rng) -> list:
    import checks

    if workload.name == "library_scalar":
        return [checks.library_reference(s, p) for s, p in zip(inputs.scenarios, inputs.points)]
    mc = (sizes.mc_n, inputs.mc_seed) if workload.name == "mc_pool" else None
    return [checks.sweep_reference(path, rng, mc) for path in inputs.scenarios]


def check_outputs(workload: Workload, ref, out: Path, rng) -> list[str]:
    import checks
    from secrecysim.sweep import ALL_POLICIES
    from secrecysim.policy import PolicyKind

    if workload.name == "library_scalar":
        return checks.check_library_output(out / "selections.npy", ref, rng)
    policies = ALL_POLICIES if workload.name == "sweep_all" else (PolicyKind.SMART_AP_FJ,)
    return ref.problems + checks.check_cli_outputs(out, ref, policies)


def report_problems(label: str, problems: list[str]) -> None:
    for problem in problems[:10]:
        print(f"check failed: {label}: {problem}", file=sys.stderr)


# ---------------------------------------------------------- end to end


def setup_run(env: dict, work: Path) -> Usage:
    """One ``--version`` invocation: interpreter start plus package import."""
    import secrecysim

    log = work / "version.log"
    usage = run_child([sys.executable, "-m", "secrecysim.cli", "--version"], env, log)
    if usage.returncode != 0 or log.read_text().strip() != f"secrecysim {secrecysim.__version__}":
        raise BenchError(f"--version failed: {log_tail(log)}")
    return usage


def end_to_end(workload: Workload, sizes, seed: int, seconds: float, work: Path):
    inputs = workloads.write_inputs(seed, sizes, work, workload.scenarios)
    env = child_env()
    setup_run(env, work)  # warm-up: byte-compiles the package once
    setup: list[Usage] = []
    rng = np.random.default_rng([seed, 7])
    refs = references(workload, sizes, inputs, rng)
    cells = workloads.cells_per_invocation(workload, sizes)
    runs: list[Usage] = []
    failed = 0
    timed = 0.0
    log = work / "child.log"
    while timed < seconds or not runs:
        index = len(runs)
        out = work / f"out{index}"
        out.mkdir()
        usage = run_child(workloads.command(workload, sizes, inputs, index, out), env, log)
        if usage.returncode != 0:
            problems = [f"exit code {usage.returncode}: {log_tail(log)}"]
        else:
            problems = check_outputs(workload, refs[index % len(refs)], out, rng)
        if problems:
            failed += 1
            report_problems(f"invocation {index}", problems)
        shutil.rmtree(out)
        runs.append(usage)
        timed += usage.wall_s
        # Set-up samples spread evenly over the run see the same machine
        # speed as the workload's invocations.
        if len(setup) * seconds <= timed * SETUP_SAMPLES:
            setup.append(setup_run(env, work))

    walls = [u.wall_s for u in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(u.cpu_s for u in runs),
        "peak_rss_mb": statistics.median(u.peak_rss_mb for u in runs),
        "cells_per_s": statistics.median(cells / w for w in walls),
        "setup_s": statistics.median(u.wall_s for u in setup),
    }
    print(f"# workload {workload.name}: closed loop, 1 client, seed {seed}, {len(runs)} invocations")
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has 10 samples beyond it"
    print(f"wall_s {metrics['wall_s']:.6f} s (median of {len(runs)}; {tail_text}; max {max(walls):.4f} s)")
    print(f"cpu_s {metrics['cpu_s']:.6f} s (median user+system of the process tree)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.3f} MB (median of per-invocation largest RSS in the tree)")
    print(f"cells_per_s {metrics['cells_per_s']:.1f} 1/s (policy x cell evaluations; {cells} per invocation)")
    if workload.name == "mc_pool":
        mc_rate = statistics.median(sizes.mc_n / w for w in walls)
        print(f"mc_samples_per_s {mc_rate:.3f} 1/s (n={sizes.mc_n}, threads={workloads.MC_THREADS})")
    print(f"fail_ratio {failed / len(runs):.6g} ({failed} of {len(runs)} invocations failed)")
    print(
        f"setup_s {metrics['setup_s']:.6f} s (median of {len(setup)} --version runs; "
        f"cpu {statistics.median(u.cpu_s for u in setup):.4f} s)"
    )
    units = END_TO_END_UNITS
    return {name: (value, units[name]) for name, value in metrics.items()}, len(runs), failed


# -------------------------------------------------------------- traced


def _timed(call) -> tuple[float, object]:
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def _tree_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def span_metrics(tracer, runs_of: dict, bytes_written: dict) -> dict:
    """Per-layer numbers from the spans of the traced sweep and library runs."""
    per_run = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))  # run -> name -> count, time, self time
    for (name, start, end, _, run), own in zip(tracer.spans, tracer.self_times()):
        entry = per_run[run][name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own

    def median_over(workload: str, value) -> float:
        return statistics.median(value(per_run[run]) for run in runs_of[workload])

    def total(name: str, field: int):
        return lambda spans: spans[name][field]

    def channel(field: int):
        return lambda spans: sum(v[field] for k, v in spans.items() if k.startswith("channel."))

    fj = "fjopt.optimize_fj_power"
    return {
        "cli.self_s": (median_over("sweep_all", total("cli.main", 2)), "s"),
        "scenario_io.load_scenario_ms": (1e3 * median_over("sweep_all", total("scenario_io.load_scenario", 1)), "ms"),
        "scenario_io.write_heatmap_s": (median_over("sweep_all", total("scenario_io.write_heatmap", 1)), "s"),
        "scenario_io.write_heatmap_calls": (median_over("sweep_all", total("scenario_io.write_heatmap", 0)), "count"),
        "scenario_io.write_summary_s": (median_over("sweep_all", total("scenario_io.write_summary", 1)), "s"),
        "scenario_io.bytes_written": (statistics.median(bytes_written[r] for r in runs_of["sweep_all"]), "bytes"),
        "fjopt.optimize_fj_power_us": (1e6 * median_over("library_scalar", lambda s: s[fj][1] / s[fj][0]), "us"),
        "fjopt.optimize_fj_power_calls": (median_over("library_scalar", total(fj, 0)), "count"),
        "channel.self_s": (median_over("library_scalar", channel(2)), "s"),
        "channel.calls": (median_over("library_scalar", channel(0)), "count"),
    }


def probe_metrics(sizes, inputs, sweep_refs) -> tuple[dict, list[str]]:
    """Untraced in-process timings of single layers, and the solver counts."""
    from secrecysim import Point2D, load_scenario, monte_carlo
    from secrecysim.policy import select
    from secrecysim.sweep import ALL_POLICIES, sweep_eavesdropper

    metrics = {}
    loaded = [load_scenario(path) for path in inputs.scenarios]
    cells = sizes.grid_k ** 2
    for policy in ALL_POLICIES:
        bare, full = [], []
        for _ in range(2):
            for scenario in loaded:
                cfg = replace(scenario.sweep, policy=policy)
                bare.append(_timed(lambda: sweep_eavesdropper(scenario.scenario, cfg, retain_cells=False))[0])
                full.append(_timed(lambda: sweep_eavesdropper(scenario.scenario, cfg, retain_cells=True))[0])
        eval_s = statistics.median(bare)
        metrics[f"sweep.eval_s.{policy.value}"] = (eval_s, "s")
        metrics[f"sweep.eval_cells_per_s.{policy.value}"] = (cells / eval_s, "1/s")
        metrics[f"sweep.cells_s.{policy.value}"] = (statistics.median(full) - eval_s, "s")

    first = loaded[0]
    runs = {1: [], 2: []}  # workers -> (wall, process-tree CPU, means)
    for order in ((1, 2), (2, 1)):
        for workers in order:
            cpu = _tree_cpu()
            wall, summary = _timed(
                lambda: monte_carlo(first.scenario, first.sweep, sizes.trace_mc_n, inputs.mc_seed, workers=workers)
            )
            runs[workers].append((wall, _tree_cpu() - cpu, summary.means))
    problems = []
    if any(means != runs[1][0][2] for _, _, means in runs[1] + runs[2]):
        problems.append("Monte Carlo means differ between workers=1 and workers=2")
    serial_wall = statistics.median(r[0] for r in runs[1])
    metrics["sweep.mc_sample_s"] = (serial_wall / sizes.trace_mc_n, "s")
    metrics["sweep.mc_pool_speedup"] = (serial_wall / statistics.median(r[0] for r in runs[2]), "ratio")
    metrics["sweep.mc_pool_cpu_overhead_s"] = (
        statistics.median(r[1] for r in runs[2]) - statistics.median(r[1] for r in runs[1]),
        "s",
    )

    jamming = sum(r.fj_jamming_cells for r in sweep_refs)
    metrics["sweep.fj_jamming_cells"] = (jamming, "count")
    metrics["sweep.fj_at_cap_cells"] = (sum(r.fj_at_cap_cells for r in sweep_refs), "count")
    metrics["sweep.fj_jamming_ratio"] = (jamming / (cells * len(sweep_refs)), "ratio")

    for policy in ALL_POLICIES:
        per_call = []
        for scenario, points_path in zip(loaded, inputs.points):
            points = [Point2D(float(x), float(y)) for x, y in np.load(points_path)]
            wall, _ = _timed(lambda: [select(scenario.scenario, p, policy) for p in points])
            per_call.append(wall / len(points))
        metrics[f"policy.select_us.{policy.value}"] = (1e6 * statistics.median(per_call), "us")
    return metrics, problems


def traced(workload: Workload, sizes, seed: int, seconds: float, work: Path):
    import library_driver
    import secrecysim.cli as cli
    import secrecysim.policy as policy_mod
    from tracing import Tracer, layer_targets

    sizes = replace(sizes, library_points=sizes.trace_library_points)
    inputs = workloads.write_inputs(seed, sizes, work, workloads.TRACE_SCENARIOS)
    rng = np.random.default_rng([seed, 7])
    sweep_wl, library_wl = WORKLOADS["sweep_all"], WORKLOADS["library_scalar"]
    refs = {w.name: references(w, sizes, inputs, rng) for w in dict.fromkeys((workload, sweep_wl, library_wl))}
    tracer = Tracer()
    targets = layer_targets(cli, policy_mod, library_driver)
    runs_of = defaultdict(list)  # workload name -> traced run ids
    bytes_written = {}
    attempted = failed = 0

    def run_program(w: Workload, index: int, trace: bool) -> float:
        nonlocal attempted, failed
        out = work / "out"
        out.mkdir()
        argv = workloads.command(w, sizes, inputs, index, out)
        if w is library_wl:
            entry, args, root = library_driver.main, argv[2:], "driver.main"
        else:
            entry, args, root = cli.main, argv[3:], "cli.main"
        if trace:
            runs_of[w.name].append(tracer.new_run())
            with tracer.installed(targets):
                wall, code = _timed(lambda: tracer.wrap(root, entry)(args))
            bytes_written[tracer.run_id] = sum(p.stat().st_size for p in out.iterdir())
        else:
            wall, code = _timed(lambda: entry(args))
        attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = check_outputs(w, refs[w.name][index % len(refs[w.name])], out, rng)
        if problems:
            failed += 1
            report_problems(f"{w.name} in-process run {index}", problems)
        shutil.rmtree(out)
        return wall

    # The workload's own program, alternately plain and traced, gives the overhead.
    plain, with_spans = [], []
    start = time.perf_counter()
    pairs = 0
    while pairs < 3 * workloads.TRACE_SCENARIOS and (pairs < 2 or time.perf_counter() - start < seconds):
        for trace in (False, True) if pairs % 2 == 0 else (True, False):
            (with_spans if trace else plain).append(run_program(workload, pairs, trace))
        pairs += 1
    # Layers the workload's program does not reach are traced through the others.
    for w in (sweep_wl, library_wl):
        if w is not workload:
            for index in range(workloads.TRACE_SCENARIOS):
                run_program(w, index, True)

    metrics = span_metrics(tracer, runs_of, bytes_written)
    probes, problems = probe_metrics(sizes, inputs, refs["sweep_all"])
    metrics.update(probes)
    attempted += 1
    if problems:
        failed += 1
        report_problems("layer probes", problems)
    metrics["trace.overhead_s"] = (statistics.median(with_spans) - statistics.median(plain), "s")

    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workload.name}-seed{seed}.csv.gz"
    tracer.write(spans_path)
    print(f"# traced run of {workload.name}, seed {seed}: {len(plain)} plain and {len(with_spans)} traced runs of its program")
    print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return metrics, attempted, failed


# ---------------------------------------------------------------- main


def run_once(workload: Workload, sizes, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print(f"# machine {json.dumps(machine_facts(), sort_keys=True)}")
        measure = traced if trace else end_to_end
        metrics, attempted, failed = measure(workload, sizes, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def smoke() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in WORKLOADS.values():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_once(workload, SMOKE, seed=1, seconds=0.0, trace=trace)
            expected = {m["name"]: m["unit"] for m in declared[section]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload.name} trace={int(trace)}"
            if emitted != expected:
                ok = False
                missing = sorted(expected.keys() - emitted.keys())
                extra = sorted(emitted.keys() - expected.keys())
                wrong = sorted(k for k in expected.keys() & emitted.keys() if expected[k] != emitted[k])
                print(f"smoke {label}: missing {missing}, undeclared {extra}, wrong unit {wrong}", file=sys.stderr)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"smoke {label}: {result['failed']} of {result['attempted']} runs failed", file=sys.stderr)
    names = sorted(w["name"] for w in declared["workloads"])
    if names != sorted(WORKLOADS):
        ok = False
        print(f"smoke: BENCHMARK.json workloads {names} differ from {sorted(WORKLOADS)}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="secrecysim benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once at a tiny size")
    args = parser.parse_args(argv)
    if not (SRC / "secrecysim" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be nonnegative")
        result = run_once(WORKLOADS[args.workload], FULL, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
