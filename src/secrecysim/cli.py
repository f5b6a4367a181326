"""Command-line entry points: grid sweeps to CSV/JSON and policy comparisons."""

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

# secrecysim makes no BLAS call, but numpy's OpenBLAS starts one busy-waiting
# thread per extra core unless this is 1 when it loads. It reads the variable only
# then, so the CLI, which owns its process, sets it for that moment: a caller's own
# value, a numpy loaded earlier and the environment children inherit stay as they are.
_own_blas_setting = "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" not in sys.modules
if _own_blas_setting:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _own_blas_setting:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import __version__
from .channel import transmit_power_from_corrected
from .policy import PolicyKind
from .scenario_io import (
    BUNDLED_SCENARIOS,
    LoadedScenario,
    McSettings,
    ScenarioValidationError,
    bundled_scenario_path,
    load_scenario,
    temp_path,
    watt_to_dbm,
    write_heatmap,
    write_summary,
)
from .sweep import ALL_POLICIES, PolicyMeans, _sweeps, monte_carlo
from .sweep import sweep_eavesdropper  # noqa: F401, the benchmark's tracer swaps this name


def _resolve_scenario(name_or_path: str) -> tuple[Path, str]:
    """Accept a filesystem path or the name of a bundled scenario."""
    path = Path(name_or_path)
    if path.exists():
        return path, path.stem
    if name_or_path in BUNDLED_SCENARIOS:
        return bundled_scenario_path(name_or_path), name_or_path
    raise ScenarioValidationError(
        f"scenario {name_or_path!r} is neither an existing file nor one of {BUNDLED_SCENARIOS}"
    )


def _integer(source: str, text: str | None, minimum: int) -> int | None:
    """``text`` as an int ``>= minimum``, None when absent; errors name ``source``."""
    if text is None:
        return None
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {text!r}") from None
    if value < minimum:
        raise ValueError(f"{source} must be >= {minimum}, got {text!r}")
    return value


def _thread_count(flag: str | None) -> int:
    """Worker count from ``--threads``, else ``SECRECY_SIM_THREADS``, else 1."""
    source, text = "--threads", flag
    if text is None:
        source, text = "SECRECY_SIM_THREADS", os.environ.get("SECRECY_SIM_THREADS") or "1"
    return _integer(source, text, 1)


def _dbm_column(p_watt: np.ndarray) -> np.ndarray:
    """:func:`watt_to_dbm` of every lane; the lanes it maps to ``-inf``
    (``p <= 0``) skip the call, and ``nan`` still goes through it."""
    dbm = np.full(p_watt.shape, -np.inf)
    live = ~(p_watt <= 0.0)
    dbm[live] = [watt_to_dbm(p) for p in p_watt[live].tolist()]
    return dbm


def _monte_carlo(loaded: LoadedScenario, args, settings: McSettings | None):
    """The Monte Carlo summary ``--monte-carlo-n`` asks for, else the one an
    enabled ``settings`` block asks for, else None. The seed is
    ``--seed``'s, else the block's, else 0."""
    n, seed = args.monte_carlo_n, args.seed
    if settings is not None:
        n = settings.n if n is None and settings.enabled else n
        seed = settings.seed if seed is None else seed
    if n is None:
        return None
    return monte_carlo(loaded.scenario, loaded.sweep, n=n, seed=seed or 0, workers=args.threads)


def _metrics_dict(m: PolicyMeans) -> dict:
    return {f.name: getattr(m, f.name) for f in fields(PolicyMeans)}


class _OutputSet:
    """Writes and tracks the files and directories one command creates, so failures leave
    nothing behind; a directory that existed before stays, and so does a file not replaced.

    Used as a context manager, it removes them on any exception, an
    interrupt included, and lets the exception propagate.
    """

    def __init__(self):
        self.paths: list[Path] = []
        self.dirs: list[Path] = []

    def write(self, writer, path: Path, *args) -> None:
        # the temp file first, should the write be cut short; the target once it is replaced
        self.paths.append(temp_path(path))
        writer(path, *args)
        self.paths.append(path)

    def mkdir(self, path: Path) -> Path:
        # recorded before creating, so a mkdir that fails half-way is undone too
        self.dirs.extend(d for d in (path, *path.parents) if not d.exists())
        path.mkdir(parents=True, exist_ok=True)
        return path

    def discard_all(self) -> None:
        # rmdir removes only empty directories
        for remove in [path.unlink for path in self.paths] + [path.rmdir for path in self.dirs]:
            try:
                remove()
            except OSError:
                pass

    def __enter__(self) -> "_OutputSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.discard_all()


def _run_sweep(args) -> int:
    with _OutputSet() as outputs:
        scenario_path, _ = _resolve_scenario(args.scenario)
        loaded = load_scenario(scenario_path)
        choice = args.policy or loaded.sweep.policy.value
        selected = list(ALL_POLICIES) if choice == "all" else [PolicyKind(choice)]
        out_dir = outputs.mkdir(Path(args.out_dir))
        mc = _monte_carlo(loaded, args, loaded.monte_carlo)

        for policy, summary in _sweeps(loaded.scenario, loaded.sweep, selected).items():
            cells = summary.arrays
            name = policy.value
            fj_watt = transmit_power_from_corrected(cells.fj_power, loaded.scenario.params)
            columns = {
                # the floor of Python's max(s, 0.0): keeps -0.0 and nan as they are
                "secrecy": np.where(cells.secrecy < 0.0, 0.0, cells.secrecy),
                "eve_capacity": cells.cap_eve,
                "association": cells.chosen,
                "fj_power_dbm": _dbm_column(fj_watt),
            }
            for kind, values in columns.items():
                outputs.write(write_heatmap, out_dir / f"{name}_{kind}.csv", cells.x, cells.y, values)
            document = {
                "tool_version": __version__,
                "policy": name,
                **_metrics_dict(summary),
                "scenario": loaded.echo,
            }
            if mc is not None:
                means = _metrics_dict(mc.means[policy])
                document["monte_carlo"] = {"n": mc.n_samples, "seed": mc.seed, "means": means}
            outputs.write(write_summary, out_dir / f"{name}_summary.json", document)
        return 0


def _run_compare(args) -> int:
    with _OutputSet() as outputs:
        rows = []
        for entry in args.scenario:
            scenario_path, label = _resolve_scenario(entry)
            loaded = load_scenario(scenario_path)
            # compare ignores the scenario file's monte_carlo block
            mc = _monte_carlo(loaded, args, None)
            means = mc.means if mc else _sweeps(loaded.scenario, loaded.sweep, ALL_POLICIES)
            metrics = {p.value: _metrics_dict(means[p]) for p in ALL_POLICIES}
            rows.append({"scenario": label, "metrics": metrics})
        document = {
            "tool_version": __version__,
            "mode": "monte_carlo" if mc else "sweep",
            "policies": [p.value for p in ALL_POLICIES],
            "rows": rows,
        }
        if mc:
            document["monte_carlo"] = {"n": mc.n_samples, "seed": mc.seed}
        if args.out is not None:
            outputs.write(write_summary, Path(args.out), document)
        else:
            print(json.dumps(document, indent=2))
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrecysim",
        description="Secrecy-capacity simulator: smart AP selection with optimal friendly jamming.",
    )
    parser.add_argument("--version", action="version", version=f"secrecysim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    mc_options = argparse.ArgumentParser(add_help=False)
    mc_options.add_argument(
        "--monte-carlo-n", help="average the metrics over this many random station placements"
    )
    mc_options.add_argument(
        "--seed", help="Monte Carlo seed (default: the scenario file's for sweep, else 0)"
    )
    mc_options.add_argument(
        "--threads",
        help="Monte Carlo worker processes, at most the CPU count (default: SECRECY_SIM_THREADS or 1)",
    )

    sweep_p = sub.add_parser(
        "sweep",
        parents=[mc_options],
        help="sweep the eavesdropper over the grid and write heatmaps + summaries",
    )
    sweep_p.add_argument(
        "--scenario", required=True, help="scenario file path, or a bundled name (scenario1..3)"
    )
    sweep_p.add_argument(
        "--policy",
        choices=[p.value for p in ALL_POLICIES] + ["all"],
        help="association policy; 'all' takes the three from one grid pass (default: the scenario file's)",
    )
    sweep_p.add_argument("--out-dir", required=True, help="directory for the output files")
    sweep_p.set_defaults(func=_run_sweep)

    compare_p = sub.add_parser(
        "compare",
        parents=[mc_options],
        help="tabulate the three policies across one or more scenarios",
    )
    compare_p.add_argument(
        "--scenario",
        action="append",
        required=True,
        help="scenario file path or bundled name; repeat for more rows",
    )
    compare_p.add_argument("--out", help="write the table here instead of stdout")
    compare_p.set_defaults(func=_run_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.threads = _thread_count(args.threads)
        args.monte_carlo_n = _integer("--monte-carlo-n", args.monte_carlo_n, 1)
        args.seed = _integer("--seed", args.seed, 0)
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
