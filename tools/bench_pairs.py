"""Run the benchmark as alternating parent/change pairs and record them in ``BENCH_<pr>.json``.

Usage::

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload sweep_all --pairs 10 --seeds 101 102 103 --pr N

PARENT_DIR and CHANGE_DIR are two source checkouts (for example made with
``git archive``). For each workload, pair ``i`` runs
``python3 bench/run.py --workload W --seed S`` once from each checkout, at
the benchmark's own run length, one after the other; even pairs run the
parent first and odd pairs the change first, so a drift in machine speed
does not favour one side. Seeds are used in turn, one per pair.
``--workload`` may be given more than once; every workload gets
``--pairs`` pairs. ``BENCH_<pr>.json`` is written to the current
directory.

The output holds every pair's end-to-end metrics, each side's median and
quartiles, and per metric the number of pairs the change won. A gain
counts when there are at least ten pairs, the change wins at least nine
pairs in ten, and its median beats the parent's by more than the
parent's interquartile range; fewer pairs can only show that nothing got
worse. A metric stays within its bound when the change's median is worse
than the parent's by at most ``bound`` times the parent's median; that
bound is what the benchmark's no-regression check applies. The direction
of each metric ("lower" or "higher" is better) and its bound come from the
change checkout's ``BENCHMARK.json``. Nothing under
``bench/`` is written to, apart from what ``bench/run.py`` itself leaves
in its work directory.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
MIN_PAIRS = 10


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` invocation; its final JSON line plus the machine facts."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    machine = next((json.loads(line[len("# machine "):]) for line in lines if line.startswith("# machine ")), None)
    return {"result": result, "machine": machine}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], declared: dict[str, dict]) -> dict:
    """Per metric of ``declared`` (each name's ``BENCHMARK.json`` entry, with ``better`` and ``bound``):
    each side's median and quartiles, wins of the change, the gain verdict and the bound verdict."""
    summary = {}
    for name, metric in declared.items():
        direction = metric["better"]
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        side_p, side_c = quartiles(parent), quartiles(change)
        gain = sign * (side_p["median"] - side_c["median"])  # negative when the change is worse
        iqr = side_p["q3"] - side_p["q1"]
        summary[name] = {
            "better": direction,
            "parent": side_p,
            "change": side_c,
            "relative_change": side_c["median"] / side_p["median"] - 1.0 if side_p["median"] else None,
            "wins": wins,
            "pairs": len(pairs),
            "median_gain_exceeds_parent_iqr": gain > iqr,
            "gain_holds": len(pairs) >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * len(pairs)) and gain > iqr,
            "bound": metric["bound"],
            "within_bound": -gain <= metric["bound"] * abs(side_p["median"]),
        }
    return summary


def measure(args, workload: str, declared: dict[str, dict]) -> dict:
    pairs = []
    for index in range(args.pairs):
        seed = args.seeds[index % len(args.seeds)]
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            run = run_bench(getattr(args, side), workload, seed)
            result = run["result"]
            pair[side] = {
                "correct": result["correct"],
                "failed": result["failed"],
                "attempted": result["attempted"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            }
            pair.setdefault("machine", run["machine"])
        pairs.append(pair)
        walls = {side: f"{pair[side]['metrics']['wall_s']:.4f}" for side in ("parent", "change")}
        print(f"{workload} pair {index + 1}/{args.pairs} seed {seed}: wall_s {walls}", flush=True)
    return {"pairs": pairs, "summary": summarize(pairs, declared)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent revision")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the changed revision")
    parser.add_argument("--workload", action="append", required=True, help="benchmark workload; repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one per pair, used in turn")
    parser.add_argument("--pr", required=True, help="the output is BENCH_<pr>.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2, so that each side has quartiles")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    document = {
        "parent": args.parent.resolve().name,
        "change": args.change.resolve().name,
        "win_rule": (
            f"pairs >= {MIN_PAIRS} and wins >= ceil({WIN_SHARE} * pairs)"
            " and median gain > parent interquartile range"
        ),
        "bound_rule": "change median worse than parent median by at most bound * |parent median|",
        "workloads": {workload: measure(args, workload, declared) for workload in args.workload},
    }
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    for workload, data in document["workloads"].items():
        for name, s in data["summary"].items():
            print(
                f"{workload} {name}: parent {s['parent']['median']:.6g} change {s['change']['median']:.6g} "
                f"wins {s['wins']}/{s['pairs']} gain_holds {s['gain_holds']} within_bound {s['within_bound']}"
            )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
