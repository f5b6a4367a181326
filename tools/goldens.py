"""Capture the outputs that a behaviour-preserving change must reproduce byte for byte.

Usage::

    PYTHONPATH=src python tools/goldens.py OUT_DIR
    PYTHONPATH=src python tools/goldens.py --against REV OUT_DIR

OUT_DIR must not exist yet. For every scenario of the golden matrix the
script writes:

- ``sweep --policy all``, plain and with ``--monte-carlo-n 6`` at
  ``--threads`` 1 and 2;
- the ``compare`` document, plain and with ``--monte-carlo-n 4``;
- ``float.hex`` dumps of ``sweep_eavesdropper(..., retain_cells=False).arrays``
  for each policy, and of ``monte_carlo(...).means`` at one and two workers;
- ``float.hex`` dumps of the scalar ``select`` for each policy on a 10 m
  lattice over 0..120 m, plus both AP positions and the station position,
  where the reference-distance clamp applies.

``--against REV`` checks that this checkout computes the same bytes as the
git revision ``REV``: it extracts ``REV``'s ``src`` with ``git archive``,
runs this script once on each ``src`` into ``OUT_DIR/parent`` and
``OUT_DIR/change``, prints every file that differs or exists on one side
only, and exits 1 if there is any. The script uses only the command line,
``load_scenario``, ``sweep_eavesdropper``, ``monte_carlo``, ``select`` and
the grid arrays, which older revisions have too.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import fields, replace
from pathlib import Path

from secrecysim import Point2D, bundled_scenario_path, load_scenario, monte_carlo, select, sweep_eavesdropper
from secrecysim.cli import main
from secrecysim.policy import SelectionResult
from secrecysim.sweep import ALL_POLICIES

# name -> (bundled scenario, {section: keys to override})
GOLDEN_ROWS = {
    "scenario1": ("scenario1", {}),
    "scenario2": ("scenario2", {}),
    "scenario3": ("scenario3", {}),
    "scenario1_noise_e_0.1x": ("scenario1", {"channel": {"noise_e_watt": 1e-11}}),
    "scenario1_noise_e_10x": ("scenario1", {"channel": {"noise_e_watt": 1e-9}}),
    "scenario1_alpha_3.1_d0_1.7": ("scenario1", {"channel": {"alpha": 3.1, "ref_distance_m": 1.7}}),
    "scenario1_alpha_2.418_noise_e_10x": ("scenario1", {"channel": {"alpha": 2.418, "noise_e_watt": 1e-9}}),
    "scenario1_k60_step2": ("scenario1", {"grid": {"k": 60, "step_m": 2.0}}),
}
ROOT = Path(__file__).resolve().parents[1]
MC_CLI_N = 6
MC_COMPARE_N = 4
MC_LIBRARY_N = 40
SEED = 7


def _cli(*argv: str) -> None:
    if main(list(argv)) != 0:
        raise RuntimeError(f"secrecysim {' '.join(argv)} failed")


def _hex(value) -> str:
    return float(value).hex()


def _write_scenario(path: Path, bundled: str, overrides: dict) -> None:
    doc = json.loads(bundled_scenario_path(bundled).read_text())
    for section, keys in overrides.items():
        doc[section].update(keys)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _dump_arrays(path: Path, arrays) -> None:
    names = [f.name for f in fields(arrays)]
    columns = [getattr(arrays, name).tolist() for name in names]
    lines = [" ".join(names)] + [" ".join(map(_hex, row)) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


def _dump_means(path: Path, means) -> None:
    lines = [
        f"{policy.value} {f.name} {_hex(getattr(means[policy], f.name))}"
        for policy in ALL_POLICIES
        for f in fields(means[policy])
    ]
    path.write_text("\n".join(lines) + "\n")


def _dump_selections(path: Path, scenario, policy) -> None:
    lattice = [(10.0 * i, 10.0 * j) for j in range(13) for i in range(13)]
    anchors = [(p.x, p.y) for p in (scenario.ap1.position, scenario.ap2.position, scenario.sta_m)]
    names = [f.name for f in fields(SelectionResult)]
    lines = ["x y " + " ".join(names)]
    for x, y in lattice + anchors:
        result = select(scenario, Point2D(x, y), policy)
        lines.append(" ".join(map(_hex, [x, y] + [getattr(result, name) for name in names])))
    path.write_text("\n".join(lines) + "\n")


def write_goldens(out_dir: Path, rows=GOLDEN_ROWS) -> None:
    """Write the golden files of ``rows`` (a subset of :data:`GOLDEN_ROWS`)
    under ``out_dir``, one directory per row."""
    out_dir.mkdir(parents=True)
    for name, (bundled, overrides) in rows.items():
        row = out_dir / name
        row.mkdir()
        scenario = row / f"{name}.json"
        _write_scenario(scenario, bundled, overrides)

        sweep = ["sweep", "--scenario", str(scenario), "--policy", "all"]
        _cli(*sweep, "--out-dir", str(row / "sweep"))
        for threads in ("1", "2"):
            mc = ["--monte-carlo-n", str(MC_CLI_N), "--seed", str(SEED), "--threads", threads]
            _cli(*sweep, *mc, "--out-dir", str(row / f"sweep_mc_threads{threads}"))

        compare = ["compare", "--scenario", str(scenario), "--threads", "1"]
        _cli(*compare, "--out", str(row / "compare.json"))
        mc = ["--monte-carlo-n", str(MC_COMPARE_N), "--seed", str(SEED)]
        _cli(*compare, *mc, "--out", str(row / "compare_mc.json"))

        loaded = load_scenario(scenario)
        for policy in ALL_POLICIES:
            cfg = replace(loaded.sweep, policy=policy)
            arrays = sweep_eavesdropper(loaded.scenario, cfg, retain_cells=False).arrays
            _dump_arrays(row / f"arrays_{policy.value}.hex", arrays)
            _dump_selections(row / f"select_{policy.value}.hex", loaded.scenario, policy)
        for workers in (1, 2):
            summary = monte_carlo(loaded.scenario, loaded.sweep, n=MC_LIBRARY_N, seed=SEED, workers=workers)
            _dump_means(row / f"mc_means_workers{workers}.hex", summary.means)


def compare_trees(parent: Path, change: Path) -> list[str]:
    """One line per file that differs between the two trees or exists in
    only one of them, sorted by relative path; empty when they are equal."""
    def files(root):
        return {path.relative_to(root).as_posix(): path for path in root.rglob("*") if path.is_file()}

    left, right = files(parent), files(change)
    lines = []
    for name in sorted(left.keys() | right.keys()):
        if name not in right:
            lines.append(f"only in parent: {name}")
        elif name not in left:
            lines.append(f"only in change: {name}")
        elif left[name].read_bytes() != right[name].read_bytes():
            lines.append(f"differs: {name}")
    return lines


def against(rev: str, out_dir: Path) -> int:
    """Write ``rev``'s goldens to ``out_dir/parent`` and this checkout's to
    ``out_dir/change``, print what differs, and return 1 if anything does."""
    out_dir.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        for side, src in (("parent", Path(tmp) / "src"), ("change", ROOT / "src")):
            env = {**os.environ, "PYTHONPATH": str(src)}
            subprocess.run([sys.executable, __file__, str(out_dir / side)], env=env, check=True)
    lines = compare_trees(out_dir / "parent", out_dir / "change")
    count = sum(1 for path in (out_dir / "change").rglob("*") if path.is_file())
    print("\n".join(lines) if lines else f"all {count} files identical")
    return 1 if lines else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Capture the golden outputs, or compare them with a git revision's.")
    parser.add_argument("out_dir", type=Path, metavar="OUT_DIR", help="directory to create for the outputs")
    parser.add_argument("--against", metavar="REV", help="also build REV's goldens and compare the two trees")
    args = parser.parse_args()
    if args.against is None:
        write_goldens(args.out_dir)
    else:
        sys.exit(against(args.against, args.out_dir))
