"""Output checks of the benchmark, run outside the timed region.

References are computed in-process once per scenario. The first outputs
of each scenario are read back in full and compared with them; every
later invocation on the same inputs must repeat those bytes exactly,
which is cheap enough to check on every invocation:

* CLI heatmaps and summaries are read with ``read_heatmap`` and
  ``read_summary``. Cell coordinates and values must equal the in-process
  sweep rounded to the CSV's 9 significant digits, and summary means must
  equal ``sweep_eavesdropper`` exactly.
* Per-cell dominance smart_fj >= smart >= normal must hold.
* Sampled cells of the vectorised sweep must match the scalar
  ``policy.select`` within the tolerances of ``tests/test_sweep.py``.
* Monte Carlo means of the pooled CLI run must equal an in-process
  ``monte_carlo(workers=1)`` bit for bit.
* Library-driver selections must satisfy dominance and match the
  vectorised engine evaluated on a one-cell grid at sampled points.

Output files are found by policy and kind whichever of ``.`` or ``_``
separates the two, so a change of the file-name separator keeps passing.
"""

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import secrecysim
from secrecysim import Point2D, SweepConfig, load_scenario, monte_carlo, read_heatmap, read_summary
from secrecysim.channel import distance_corrected_power, transmit_power_from_corrected
from secrecysim.policy import PolicyKind, select
from secrecysim.scenario_io import watt_to_dbm
from secrecysim.sweep import ALL_POLICIES, grid_coordinates, sweep_eavesdropper

HEATMAP_KINDS = ("secrecy", "eve_capacity", "association", "fj_power_dbm")
SAMPLED_CELLS = 64

# tolerances of tests/test_sweep.py::test_sweep_matches_naive_double_loop
SECRECY_TOL = (1e-12, 1e-12)
FJ_POWER_TOL = (1e-9, 1e-18)


def _close(actual: float, expected: float, tol: tuple[float, float]) -> bool:
    rel, abs_tol = tol
    return actual == expected or abs(actual - expected) <= max(rel * abs(expected), abs_tol)


def _csv_rounded(values) -> np.ndarray:
    return np.array([float(f"{float(v):.9g}") for v in values])


def _differs(chosen, secrecy: float, fj_power: float, expected) -> bool:
    """True when a selection disagrees with ``expected`` beyond the tolerances."""
    return (
        chosen != expected.chosen_ap
        or not _close(secrecy, expected.secrecy, SECRECY_TOL)
        or not _close(fj_power, expected.fj_power, FJ_POWER_TOL)
    )


def _secrecy_dominance(secrecy: dict) -> int:
    """Cells where smart_fj < smart or smart < normal."""
    normal, smart, smart_fj = (secrecy[p] for p in ALL_POLICIES)
    return int(np.count_nonzero((smart_fj < smart) | (smart < normal)))


def _scalar_mismatches(scenario, points, policy, vector) -> list[str]:
    """Compare (chosen, secrecy, fj_power) rows of the vector path with ``select``."""
    problems = []
    for (x, y), (chosen, secrecy, fj_power) in zip(points, vector):
        ref = select(scenario, Point2D(float(x), float(y)), policy)
        if _differs(chosen, secrecy, fj_power, ref):
            problems.append(
                f"{policy.value} at ({x}, {y}): vector ({chosen}, {secrecy!r}, {fj_power!r}) "
                f"vs scalar ({ref.chosen_ap}, {ref.secrecy!r}, {ref.fj_power!r})"
            )
    return problems


@dataclass
class PolicyReference:
    """In-process sweep of one policy and the CSV values it implies."""

    averages: dict
    secrecy: np.ndarray
    chosen: np.ndarray
    fj_power: np.ndarray
    csv: dict = field(default_factory=dict)


@dataclass
class SweepReference:
    """Everything the CLI outputs for one scenario are compared with."""

    echo: dict
    x: np.ndarray
    y: np.ndarray
    policies: dict
    mc_means: dict | None
    mc_n: int | None
    mc_seed: int | None
    problems: list
    fj_jamming_cells: int
    fj_at_cap_cells: int
    verified: dict | None = None  # file name -> digest of the first correct outputs


def _policy_reference(loaded, policy: PolicyKind) -> PolicyReference:
    summary = sweep_eavesdropper(loaded.scenario, replace(loaded.sweep, policy=policy), retain_cells=True)
    selections = [cell.selection for cell in summary.grid]
    ref = PolicyReference(
        averages={
            "avg_secrecy": summary.avg_secrecy,
            "avg_secrecy_truncated": summary.avg_secrecy_truncated,
            "avg_eve_capacity": summary.avg_eve_capacity,
            "coverage_ratio": summary.coverage_ratio,
        },
        secrecy=np.array([s.secrecy for s in selections]),
        chosen=np.array([s.chosen_ap for s in selections]),
        fj_power=np.array([s.fj_power for s in selections]),
    )
    params = loaded.scenario.params
    ref.csv = {
        "secrecy": _csv_rounded(np.maximum(ref.secrecy, 0.0)),
        "eve_capacity": _csv_rounded([s.cap_eve for s in selections]),
        "association": ref.chosen.astype(float),
        "fj_power_dbm": _csv_rounded(
            [watt_to_dbm(transmit_power_from_corrected(p, params)) for p in ref.fj_power]
        ),
    }
    return ref


def solver_counts(scenario, smart_fj: PolicyReference) -> tuple[int, int]:
    """(cells where smart_fj jams, cells where it jams at the idle AP's cap)."""
    caps = {
        1: distance_corrected_power(scenario.ap2.tx_power_max, scenario.params),
        2: distance_corrected_power(scenario.ap1.tx_power_max, scenario.params),
    }
    p_max = np.where(smart_fj.chosen == 1, caps[1], caps[2])
    jamming = smart_fj.fj_power > 0.0
    return int(np.count_nonzero(jamming)), int(np.count_nonzero(jamming & (smart_fj.fj_power == p_max)))


def sweep_reference(path: Path, rng: np.random.Generator, mc: tuple[int, int] | None = None) -> SweepReference:
    """References for one scenario; ``mc`` is (n, seed) of the Monte Carlo to expect."""
    loaded = load_scenario(path)
    x, y = grid_coordinates(loaded.sweep)
    policies = {p: _policy_reference(loaded, p) for p in ALL_POLICIES}
    problems = []
    violations = _secrecy_dominance({p: r.secrecy for p, r in policies.items()})
    if violations:
        problems.append(f"{path.name}: in-process dominance fails at {violations} cells")
    sample = rng.choice(x.size, size=min(SAMPLED_CELLS, x.size), replace=False)
    for policy, ref in policies.items():
        vector = zip(ref.chosen[sample], ref.secrecy[sample], ref.fj_power[sample])
        problems += _scalar_mismatches(loaded.scenario, zip(x[sample], y[sample]), policy, vector)
    jamming, at_cap = solver_counts(loaded.scenario, policies[PolicyKind.SMART_AP_FJ])
    mc_means = None
    if mc is not None:
        summary = monte_carlo(loaded.scenario, loaded.sweep, n=mc[0], seed=mc[1], workers=1)
        mc_means = {
            p.value: {
                "avg_secrecy": m.avg_secrecy,
                "avg_secrecy_truncated": m.avg_secrecy_truncated,
                "avg_eve_capacity": m.avg_eve_capacity,
                "coverage_ratio": m.coverage_ratio,
            }
            for p, m in summary.means.items()
        }
    return SweepReference(
        echo=loaded.echo,
        x=x,
        y=y,
        policies=policies,
        mc_means=mc_means,
        mc_n=mc[0] if mc else None,
        mc_seed=mc[1] if mc else None,
        problems=problems,
        fj_jamming_cells=jamming,
        fj_at_cap_cells=at_cap,
    )


def find_output(out_dir: Path, policy: str, kind: str, suffix: str) -> Path | None:
    """The ``<policy>{.|_}<kind><suffix>`` file of a run, or None if absent or ambiguous."""
    found = [out_dir / f"{policy}{sep}{kind}{suffix}" for sep in (".", "_")]
    found = [p for p in found if p.is_file()]
    return found[0] if len(found) == 1 else None


def _digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


def check_cli_outputs(out_dir: Path, ref: SweepReference, policies) -> list[str]:
    """Problems with the files one ``sweep`` invocation wrote; empty when correct."""
    digests = _digests(out_dir)
    if ref.verified is not None and digests == ref.verified:
        return []
    problems = _read_back(out_dir, ref, policies)
    if ref.verified is not None:
        problems.append("outputs differ from an earlier invocation on the same inputs")
    elif not problems:
        ref.verified = digests
    return problems


def _read_back(out_dir: Path, ref: SweepReference, policies) -> list[str]:
    problems = []
    expected_files = set()
    read_secrecy = {}
    for policy in policies:
        pref = ref.policies[policy]
        for kind in HEATMAP_KINDS:
            path = find_output(out_dir, policy.value, kind, ".csv")
            if path is None:
                problems.append(f"{policy.value} {kind} csv missing or ambiguous")
                continue
            expected_files.add(path.name)
            x, y, values = read_heatmap(path)
            if not (np.array_equal(x, ref.x) and np.array_equal(y, ref.y)):
                problems.append(f"{path.name}: cell coordinates differ from the grid")
            elif not np.array_equal(values, pref.csv[kind]):
                bad = int(np.count_nonzero(values != pref.csv[kind]))
                problems.append(f"{path.name}: {bad} values differ from the in-process sweep")
            if kind == "secrecy":
                read_secrecy[policy] = values
        path = find_output(out_dir, policy.value, "summary", ".json")
        if path is None:
            problems.append(f"{policy.value} summary missing or ambiguous")
            continue
        expected_files.add(path.name)
        doc = read_summary(path)
        expected = {"tool_version": secrecysim.__version__, "policy": policy.value, **pref.averages}
        expected["scenario"] = ref.echo
        if ref.mc_means is not None:
            expected["monte_carlo"] = {"n": ref.mc_n, "seed": ref.mc_seed, "means": ref.mc_means[policy.value]}
        if doc != expected:
            differing = sorted(k for k in expected.keys() | doc.keys() if doc.get(k) != expected.get(k))
            problems.append(f"{path.name}: differs from the in-process result in {differing}")
    stray = sorted(p.name for p in out_dir.iterdir() if p.name not in expected_files)
    if stray:
        problems.append(f"unexpected output files {stray}")
    if len(read_secrecy) == len(ALL_POLICIES):
        violations = _secrecy_dominance(read_secrecy)
        if violations:
            problems.append(f"secrecy csv dominance fails at {violations} cells")
    return problems


@dataclass
class LibraryReference:
    """Inputs of one library-driver scenario and the digest of its first checked output."""

    scenario: object
    points: np.ndarray
    digest: str | None = None


def library_reference(scenario_path: Path, points_path: Path) -> LibraryReference:
    return LibraryReference(load_scenario(scenario_path).scenario, np.load(points_path))


def _one_cell(scenario, x: float, y: float, policy: PolicyKind):
    cfg = SweepConfig(grid_k=1, cell_origin=Point2D(x, y), policy=policy)
    return sweep_eavesdropper(scenario, cfg, retain_cells=True).grid[0].selection


def check_library_output(path: Path, ref: LibraryReference, rng: np.random.Generator) -> list[str]:
    """Problems with one library-driver output; empty when correct."""
    if not path.is_file():
        return [f"{path.name} missing"]
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if ref.digest is not None:
        return [] if digest == ref.digest else [f"{path.name} differs from an earlier run on the same inputs"]
    out = np.load(path)
    n = len(ref.points)
    if out.shape != (len(ALL_POLICIES), n, 5):
        return [f"{path.name}: shape {out.shape}, expected {(len(ALL_POLICIES), n, 5)}"]
    problems = []
    if not np.all(np.isfinite(out)):
        problems.append("non-finite selections")
    if not np.all(np.isin(out[:, :, 0], (1.0, 2.0))):
        problems.append("chosen AP outside {1, 2}")
    if np.any(out[:2, :, 4] != 0.0) or np.any(out[2, :, 4] < 0.0):
        problems.append("jamming power set by a non-jamming policy, or negative")
    violations = _secrecy_dominance({p: out[i, :, 3] for i, p in enumerate(ALL_POLICIES)})
    if violations:
        problems.append(f"dominance fails at {violations} points")
    for index in rng.choice(n, size=min(SAMPLED_CELLS, n), replace=False):
        x, y = (float(v) for v in ref.points[index])
        for i, policy in enumerate(ALL_POLICIES):
            chosen, _, _, secrecy, fj_power = out[i, index]
            if _differs(chosen, secrecy, fj_power, _one_cell(ref.scenario, x, y, policy)):
                problems.append(f"{policy.value} at ({x}, {y}) differs from the vectorised engine")
    if not problems:
        ref.digest = digest
    return problems
