"""Grid sweeps over eavesdropper positions and Monte Carlo over station placements.

The sweep evaluates one policy at every cell of a square grid with a
vectorized engine that mirrors :mod:`secrecysim.policy` cell for cell
(the scalar selectors remain the reference semantics and the test oracle).
The jamming power comes from :func:`secrecysim.fjopt.optimize_fj_power_array`,
which shares the closed form with the scalar optimizer the selectors use.
Aggregates use exact summation, so results are independent of evaluation
order and of the number of Monte Carlo workers.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import Point2D, distance, distance_corrected_power, effective_distance
from .fjopt import optimize_fj_power_array
from .policy import PolicyKind, Scenario, SelectionResult

ALL_POLICIES = (PolicyKind.NORMAL_WIFI, PolicyKind.SMART_AP, PolicyKind.SMART_AP_FJ)


@dataclass(frozen=True)
class SweepConfig:
    """Grid layout and policy for one eavesdropper sweep.

    Cells sit at ``cell_origin + cell_step * {0 .. grid_k-1}`` on each
    axis; the defaults put them on integer coordinates 1..K with a 1 m
    step.
    """

    grid_k: int = 120
    cell_origin: Point2D = Point2D(1.0, 1.0)
    cell_step: float = 1.0
    policy: PolicyKind = PolicyKind.SMART_AP_FJ

    def __post_init__(self):
        if self.grid_k < 1:
            raise ValueError("grid_k must be >= 1")
        if self.cell_step <= 0:
            raise ValueError("cell_step must be positive")


@dataclass(frozen=True)
class CellResult:
    """Per-cell outcome: the eavesdropper position and the policy's selection."""

    eve_pos: Point2D
    selection: SelectionResult


@dataclass(frozen=True)
class GridArrays:
    """Per-cell results of one policy over one grid, one array per field,
    in the row order of :func:`grid_coordinates`."""

    x: np.ndarray
    y: np.ndarray
    chosen: np.ndarray
    cap_legit: np.ndarray
    cap_eve: np.ndarray
    secrecy: np.ndarray
    fj_power: np.ndarray


@dataclass(frozen=True)
class SweepSummary:
    """Aggregates of one sweep plus its per-cell ``arrays``; ``grid`` holds
    the same cells as objects and is empty when cells were not retained.

    ``avg_secrecy`` is the mean of the raw (possibly negative) per-cell
    differences; ``avg_secrecy_truncated`` floors each cell at zero first,
    matching how secrecy maps are usually displayed.
    """

    avg_secrecy: float
    avg_secrecy_truncated: float
    avg_eve_capacity: float
    coverage_ratio: float
    arrays: GridArrays = field(compare=False, repr=False)
    grid: tuple[CellResult, ...] = ()


@dataclass(frozen=True)
class PolicyMeans:
    """The sweep metrics averaged over Monte Carlo samples for one policy."""

    avg_secrecy: float
    avg_secrecy_truncated: float
    avg_eve_capacity: float
    coverage_ratio: float


@dataclass(frozen=True)
class SampleRecord:
    """One Monte Carlo draw: the station position and its per-policy metrics."""

    sta_m: Point2D
    metrics: dict[PolicyKind, PolicyMeans]


@dataclass(frozen=True)
class MonteCarloSummary:
    """Per-policy means over random legitimate-station placements.

    Reproducible by construction: the same ``seed`` and ``n_samples``
    give bit-identical results for any worker count, because each
    sample's randomness is derived from ``(seed, sample_index)`` and the
    reduction runs in sample order with exact summation.
    """

    n_samples: int
    seed: int
    means: dict[PolicyKind, PolicyMeans]
    samples: tuple[SampleRecord, ...] = ()


def grid_coordinates(cfg: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    """Flattened cell coordinates in output order: y outer, x inner, ascending."""
    axis_x = cfg.cell_origin.x + cfg.cell_step * np.arange(cfg.grid_k, dtype=float)
    axis_y = cfg.cell_origin.y + cfg.cell_step * np.arange(cfg.grid_k, dtype=float)
    grid_x, grid_y = np.meshgrid(axis_x, axis_y)
    return grid_x.ravel(), grid_y.ravel()


def _evaluate_policy_grid(scenario: Scenario, cfg: SweepConfig, policy: PolicyKind) -> GridArrays:
    """Evaluate one policy at every grid cell; the array twin of policy.select."""
    par = scenario.params
    alpha = par.pathloss_alpha
    w = par.bandwidth_w
    ap1, ap2 = scenario.ap1, scenario.ap2
    x, y = grid_coordinates(cfg)

    d1m = effective_distance(distance(ap1.position, scenario.sta_m), par)
    d2m = effective_distance(distance(ap2.position, scenario.sta_m), par)
    d0 = par.ref_distance_d0
    d1e = np.maximum(np.sqrt((x - ap1.position.x) ** 2 + (y - ap1.position.y) ** 2), d0)
    d2e = np.maximum(np.sqrt((x - ap2.position.x) ** 2 + (y - ap2.position.y) ** 2), d0)
    p1 = distance_corrected_power(ap1.tx_power, par)
    p2 = distance_corrected_power(ap2.tx_power, par)

    c1m = math.log2(1.0 + p1 * d1m ** -alpha / par.noise_m)
    c2m = math.log2(1.0 + p2 * d2m ** -alpha / par.noise_m)
    c1e = np.log2(1.0 + p1 * d1e ** -alpha / par.noise_e)
    c2e = np.log2(1.0 + p2 * d2e ** -alpha / par.noise_e)

    if policy is PolicyKind.NORMAL_WIFI:
        choice = 1 if p1 * d1m ** -alpha >= p2 * d2m ** -alpha else 2
        chosen = np.full(x.shape, choice, dtype=np.int64)
    else:
        chosen = np.where(c1m - c1e >= c2m - c2e, 1, 2).astype(np.int64)
    pick1 = chosen == 1
    cap_m = np.where(pick1, c1m, c2m)
    cap_e = np.where(pick1, c1e, c2e)
    fj_power = np.zeros_like(cap_e)

    if policy is PolicyKind.SMART_AP_FJ:
        d_im = np.where(pick1, d1m, d2m)
        d_ie = np.where(pick1, d1e, d2e)
        d_jm = np.where(pick1, d2m, d1m)
        d_je = np.where(pick1, d2e, d1e)
        p_i = np.where(pick1, p1, p2)
        p_max = np.where(
            pick1,
            distance_corrected_power(ap2.tx_power_max, par),
            distance_corrected_power(ap1.tx_power_max, par),
        )
        p_opt = optimize_fj_power_array(
            d_im, d_ie, d_jm, d_je, alpha, par.noise_m, par.noise_e, p_i, p_max
        )

        cap_m_fj = np.log2(1.0 + p_i * d_im ** -alpha / (p_opt * d_jm ** -alpha + par.noise_m))
        cap_e_fj = np.log2(1.0 + p_i * d_ie ** -alpha / (p_opt * d_je ** -alpha + par.noise_e))
        # same guard as the scalar path: never fall below the no-jamming result
        worse = (cap_m_fj - cap_e_fj) < (cap_m - cap_e)
        fj_power = np.where(worse, 0.0, p_opt)
        cap_m = np.where(worse, cap_m, cap_m_fj)
        cap_e = np.where(worse, cap_e, cap_e_fj)

    return GridArrays(
        x=x,
        y=y,
        chosen=chosen,
        cap_legit=w * cap_m,
        cap_eve=w * cap_e,
        secrecy=w * (cap_m - cap_e),
        fj_power=fj_power,
    )


def _metrics(ev: GridArrays) -> PolicyMeans:
    size = ev.secrecy.size
    return PolicyMeans(
        avg_secrecy=math.fsum(ev.secrecy.tolist()) / size,
        avg_secrecy_truncated=math.fsum(np.maximum(ev.secrecy, 0.0).tolist()) / size,
        avg_eve_capacity=math.fsum(ev.cap_eve.tolist()) / size,
        coverage_ratio=int(np.count_nonzero(ev.secrecy > 0.0)) / size,
    )


def _cells(ev: GridArrays) -> tuple[CellResult, ...]:
    return tuple(
        CellResult(
            eve_pos=Point2D(float(ev.x[i]), float(ev.y[i])),
            selection=SelectionResult(
                chosen_ap=int(ev.chosen[i]),
                idle_ap=3 - int(ev.chosen[i]),
                cap_legit=float(ev.cap_legit[i]),
                cap_eve=float(ev.cap_eve[i]),
                secrecy=float(ev.secrecy[i]),
                fj_power=float(ev.fj_power[i]),
            ),
        )
        for i in range(ev.secrecy.size)
    )


def sweep_eavesdropper(scenario: Scenario, cfg: SweepConfig, retain_cells: bool = True) -> SweepSummary:
    """Evaluate ``cfg.policy`` at every grid cell and aggregate the metrics."""
    ev = _evaluate_policy_grid(scenario, cfg, cfg.policy)
    m = _metrics(ev)
    return SweepSummary(
        avg_secrecy=m.avg_secrecy,
        avg_secrecy_truncated=m.avg_secrecy_truncated,
        avg_eve_capacity=m.avg_eve_capacity,
        coverage_ratio=m.coverage_ratio,
        arrays=ev,
        grid=_cells(ev) if retain_cells else (),
    )


def coverage_ratio(grid) -> float:
    """Fraction of cells whose secrecy is strictly positive."""
    cells = list(grid)
    if not cells:
        raise ValueError("coverage_ratio needs a non-empty grid")
    return sum(1 for cell in cells if cell.selection.secrecy > 0.0) / len(cells)


def _run_sample(args) -> tuple[int, float, float, dict[PolicyKind, PolicyMeans]]:
    scenario, cfg, seed, index = args
    # per-sample generator keyed by (seed, index): order- and worker-independent
    x, y = np.random.default_rng([seed, index]).uniform(0.0, scenario.map_extent, size=2)
    pos = Point2D(float(x), float(y))
    placed = replace(scenario, sta_m=pos)
    metrics = {
        policy: _metrics(_evaluate_policy_grid(placed, cfg, policy)) for policy in ALL_POLICIES
    }
    return index, pos.x, pos.y, metrics


def monte_carlo(
    scenario_template: Scenario,
    cfg: SweepConfig,
    n: int,
    seed: int,
    workers: int = 1,
    retain_samples: bool = False,
) -> MonteCarloSummary:
    """Average the sweep metrics of all three policies over ``n`` random
    legitimate-station placements.

    Positions are drawn uniformly over the map square; ``cfg.policy`` is
    ignored because every sample evaluates all policies.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    tasks = [(scenario_template, cfg, seed, index) for index in range(n)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_run_sample, tasks, chunksize=max(1, n // (4 * workers))))
    else:
        raw = [_run_sample(task) for task in tasks]
    raw.sort(key=lambda item: item[0])

    means: dict[PolicyKind, PolicyMeans] = {}
    for policy in ALL_POLICIES:
        per_policy = [item[3][policy] for item in raw]
        means[policy] = PolicyMeans(
            avg_secrecy=math.fsum(m.avg_secrecy for m in per_policy) / n,
            avg_secrecy_truncated=math.fsum(m.avg_secrecy_truncated for m in per_policy) / n,
            avg_eve_capacity=math.fsum(m.avg_eve_capacity for m in per_policy) / n,
            coverage_ratio=math.fsum(m.coverage_ratio for m in per_policy) / n,
        )
    samples = ()
    if retain_samples:
        samples = tuple(
            SampleRecord(sta_m=Point2D(x, y), metrics=metrics) for _, x, y, metrics in raw
        )
    return MonteCarloSummary(n_samples=n, seed=seed, means=means, samples=samples)
