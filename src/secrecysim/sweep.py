"""Grid sweeps over eavesdropper positions and Monte Carlo over station placements.

The sweep evaluates policies at every cell of a square grid with a
vectorized engine that states :func:`secrecysim.policy.select`'s rules in
its order (``select`` stays the reference and the test oracle): ``normal``,
then ``smart``, then ``smart_fj``, which lets the idle AP jam. Terms that
do not depend on the station are computed once per sweep or Monte Carlo chunk;
the station's come from the helper that ``select``'s ``Scenario`` uses.
The jamming power comes from :func:`secrecysim.fjopt.optimize_fj_power_array`,
which shares the closed form with the scalar optimizer ``select`` uses.
Aggregates use exact, correctly rounded summation, so results are
independent of evaluation order and of the number of Monte Carlo workers.
"""

import math
import os
from dataclasses import astuple, dataclass, field

import numpy as np

from .channel import Point2D
from .fjopt import optimize_fj_power_array
from .policy import PolicyKind, Scenario, SelectionResult, _check_reach, _station_terms

ALL_POLICIES = (PolicyKind.NORMAL_WIFI, PolicyKind.SMART_AP, PolicyKind.SMART_AP_FJ)


@dataclass(frozen=True)
class SweepConfig:
    """Grid layout and policy for one eavesdropper sweep.

    Cells sit at ``cell_origin + cell_step * {0 .. grid_k-1}`` on each
    axis; the defaults put them on integer coordinates 1..K with a 1 m
    step, and ``load_scenario`` at ``step_m * {1..k}``, on the map.
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
class PolicyMeans:
    """The four metrics of one policy over one grid, each a mean over its
    cells; Monte Carlo averages them again over the samples.

    ``avg_secrecy`` is the mean of the raw (possibly negative) per-cell
    differences; ``avg_secrecy_truncated`` floors each cell at zero first,
    matching how secrecy maps are usually displayed. ``coverage_ratio`` is
    the fraction of cells with strictly positive secrecy.
    """

    avg_secrecy: float
    avg_secrecy_truncated: float
    avg_eve_capacity: float
    coverage_ratio: float


@dataclass(frozen=True)
class SweepSummary(PolicyMeans):
    """The metrics of one sweep plus its per-cell ``arrays``; ``grid`` holds
    the same cells as objects and is empty when cells were not retained."""

    arrays: GridArrays = field(compare=False, repr=False)
    grid: tuple[CellResult, ...] = ()


@dataclass(frozen=True)
class SampleRecord:
    """One Monte Carlo draw: the station position and its per-policy metrics."""

    sta_m: Point2D
    metrics: dict[PolicyKind, PolicyMeans]


@dataclass(frozen=True)
class MonteCarloSummary:
    """Per-policy means over random legitimate-station placements.

    ``samples`` holds one record per draw, in sample order. Reproducible
    by construction: the same ``seed`` and ``n_samples`` give
    bit-identical results for any worker count, because each sample's
    randomness is derived from ``(seed, sample_index)`` and the reduction
    runs in sample order with exact summation.
    """

    n_samples: int
    seed: int
    means: dict[PolicyKind, PolicyMeans]
    samples: tuple[SampleRecord, ...]


def grid_coordinates(cfg: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    """Flattened cell coordinates in output order: y outer, x inner, ascending."""
    axis_x = cfg.cell_origin.x + cfg.cell_step * np.arange(cfg.grid_k, dtype=float)
    axis_y = cfg.cell_origin.y + cfg.cell_step * np.arange(cfg.grid_k, dtype=float)
    grid_x, grid_y = np.meshgrid(axis_x, axis_y)
    return grid_x.ravel(), grid_y.ravel()


def _check_cells(scenario: Scenario, cfg: SweepConfig) -> None:
    """Refuse cells, on the map or off it, where the jamming closed form leaves the float range."""
    lo, span = cfg.cell_origin, cfg.cell_step * (cfg.grid_k - 1)
    _check_reach(scenario, [(x, y) for x in (lo.x, lo.x + span) for y in (lo.y, lo.y + span)])


def _eve_terms(scenario: Scenario, cfg: SweepConfig) -> tuple[np.ndarray, ...]:
    """The per-cell terms that do not depend on the station: the cell
    coordinates, the clamped AP distances and the eavesdropper capacities."""
    par = scenario.params
    ap1, ap2 = scenario.ap1, scenario.ap2
    x, y = grid_coordinates(cfg)
    d0 = par.ref_distance_d0
    d1e = np.maximum(np.sqrt((x - ap1.position.x) ** 2 + (y - ap1.position.y) ** 2), d0)
    d2e = np.maximum(np.sqrt((x - ap2.position.x) ** 2 + (y - ap2.position.y) ** 2), d0)
    (_, p1, _, _, _), (_, p2, _, _, _) = scenario._station[0]
    c1e = np.log2(1.0 + p1 * d1e ** -par.pathloss_alpha / par.noise_e)
    c2e = np.log2(1.0 + p2 * d2e ** -par.pathloss_alpha / par.noise_e)
    return x, y, d1e, d2e, c1e, c2e


def _evaluate_grid(scenario: Scenario, sta_m: Point2D, eve):
    """The array twin of policy.select: yield ``(policy, GridArrays)`` for
    ``normal``, ``smart`` and ``smart_fj`` in turn, with the station at ``sta_m``,
    over the grid whose :func:`_eve_terms` are ``eve``. A step runs only when its
    item is asked for; ``smart_fj`` starts from ``smart``'s association."""
    par = scenario.params
    alpha, w = par.pathloss_alpha, par.bandwidth_w
    x, y, d1e, d2e, c1e, c2e = eve
    ((d1m, p1, cap1, _, c1m), (d2m, p2, cap2, _, c2m)), choice = _station_terms(scenario, sta_m)

    def capacities(pick1):
        return np.where(pick1, c1m, c2m), np.where(pick1, c1e, c2e)

    def arrays(chosen, cap_m, cap_e, fj_power=None):
        fj_power = np.zeros_like(cap_e) if fj_power is None else fj_power
        return GridArrays(x, y, chosen, w * cap_m, w * cap_e, w * (cap_m - cap_e), fj_power)

    chosen = np.full(x.shape, choice, dtype=np.int64)
    yield PolicyKind.NORMAL_WIFI, arrays(chosen, *capacities(chosen == 1))

    chosen = np.where(c1m - c1e >= c2m - c2e, 1, 2).astype(np.int64)
    pick1 = chosen == 1
    cap_m, cap_e = capacities(pick1)
    yield PolicyKind.SMART_AP, arrays(chosen, cap_m, cap_e)

    d_im = np.where(pick1, d1m, d2m)
    d_ie = np.where(pick1, d1e, d2e)
    d_jm = np.where(pick1, d2m, d1m)
    d_je = np.where(pick1, d2e, d1e)
    p_i = np.where(pick1, p1, p2)
    p_max = np.where(pick1, cap2, cap1)
    p_opt = optimize_fj_power_array(d_im, d_ie, d_jm, d_je, alpha, par.noise_m, par.noise_e, p_i, p_max)
    cap_m_fj = np.log2(1.0 + p_i * d_im ** -alpha / (p_opt * d_jm ** -alpha + par.noise_m))
    cap_e_fj = np.log2(1.0 + p_i * d_ie ** -alpha / (p_opt * d_je ** -alpha + par.noise_e))
    # same guard as the scalar path: never fall below the no-jamming result
    worse = (cap_m_fj - cap_e_fj) < (cap_m - cap_e)
    yield PolicyKind.SMART_AP_FJ, arrays(
        chosen, np.where(worse, cap_m, cap_m_fj), np.where(worse, cap_e, cap_e_fj), np.where(worse, 0.0, p_opt)
    )


def _exact_sum(a: np.ndarray) -> float:
    """``math.fsum(a.tolist())`` of a float64 array: the same float, at numpy speed.

    ``np.bincount`` sums the 26-bit halves of the mantissas per sign and
    exponent, exactly below ``2**26`` values; the bins make one integer
    count of ``2**-1075``, and its quotient is correctly rounded, as ``fsum``
    is. Inf, nan and zero sums (the sign of zero) go to ``fsum``.
    """
    bits = a.view(np.int64)
    key = (bits >> 52) & 0xFFF
    count = np.bincount(key, minlength=0x1000)
    if a.size >= 1 << 26 or count[0x7FF] or count[0xFFF]:
        return math.fsum(a.tolist())
    hi = np.bincount(key, weights=(bits >> 26) & 0x3FFFFFF, minlength=0x1000)
    lo = np.bincount(key, weights=bits & 0x3FFFFFF, minlength=0x1000)
    used = np.flatnonzero(count)
    total = 0
    for k, n, h, l in zip(used.tolist(), count[used].tolist(), hi[used].tolist(), lo[used].tolist()):
        e = k & 0x7FF
        part = (((n << 52) if e else 0) + (int(h) << 26) + int(l)) << max(e, 1)
        total += -part if k & 0x800 else part
    return total / (1 << 1075) if total else math.fsum(a.tolist())


def _metrics(ev: GridArrays) -> PolicyMeans:
    size = ev.secrecy.size
    return PolicyMeans(
        avg_secrecy=_exact_sum(ev.secrecy) / size,
        avg_secrecy_truncated=_exact_sum(np.maximum(ev.secrecy, 0.0)) / size,
        avg_eve_capacity=_exact_sum(ev.cap_eve) / size,
        coverage_ratio=int(np.count_nonzero(ev.secrecy > 0.0)) / size,
    )


def _cells(ev: GridArrays) -> tuple[CellResult, ...]:
    # x, y, then SelectionResult's fields; .tolist() gives ints for ``chosen``, floats for the rest
    columns = (column.tolist() for column in vars(ev).values())
    return tuple(
        CellResult(Point2D(x, y), SelectionResult(chosen, cap_m, cap_e, secrecy, fj_power))
        for x, y, chosen, cap_m, cap_e, secrecy, fj_power in zip(*columns)
    )


def sweep_eavesdropper(scenario: Scenario, cfg: SweepConfig, retain_cells: bool = True) -> SweepSummary:
    """Evaluate ``cfg.policy`` at every grid cell and aggregate the metrics."""
    _check_cells(scenario, cfg)
    grids = _evaluate_grid(scenario, scenario.sta_m, _eve_terms(scenario, cfg))
    # the generator stops at cfg.policy, so only smart_fj runs the jamming optimizer
    ev = next(ev for policy, ev in grids if policy is cfg.policy)
    return SweepSummary(**vars(_metrics(ev)), arrays=ev, grid=_cells(ev) if retain_cells else ())


def _run_chunk(args) -> list[SampleRecord]:
    scenario, cfg, seed, indices = args
    eve = _eve_terms(scenario, cfg)
    records = []
    for index in indices:
        # per-sample generator keyed by (seed, index): order- and worker-independent
        x, y = np.random.default_rng([seed, index]).uniform(0.0, scenario.map_extent, size=2)
        sta_m = Point2D(float(x), float(y))
        # all three grids before any reduction: interleaving them doubled the page faults per sample
        grids = dict(_evaluate_grid(scenario, sta_m, eve))
        records.append(SampleRecord(sta_m, {policy: _metrics(ev) for policy, ev in grids.items()}))
    return records


def monte_carlo(
    scenario_template: Scenario,
    cfg: SweepConfig,
    n: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloSummary:
    """Average the sweep metrics of all three policies over ``n`` random
    legitimate-station placements.

    Positions are drawn uniformly over the map square; ``cfg.policy`` is
    ignored because every sample evaluates all policies. The samples run
    on ``min(workers, n, os.cpu_count())`` processes, one contiguous chunk
    each, in this process when that is one; the result never depends on
    their number.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    _check_cells(scenario_template, cfg)
    workers = min(workers, n, os.cpu_count() or 1)
    # one contiguous chunk per worker, in sample order, each computing the eavesdropper terms once
    chunks = [range(i * n // workers, (i + 1) * n // workers) for i in range(workers)]
    tasks = [(scenario_template, cfg, seed, chunk) for chunk in chunks]
    if workers > 1:
        # imported here: the pool's modules cost every other run ~13 ms of start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = [record for part in pool.map(_run_chunk, tasks) for record in part]
    else:
        records = _run_chunk(tasks[0])

    means = {}
    for policy in ALL_POLICIES:
        # one column per metric, in sample order
        columns = zip(*(astuple(record.metrics[policy]) for record in records))
        means[policy] = PolicyMeans(*(math.fsum(column) / n for column in columns))
    return MonteCarloSummary(n_samples=n, seed=seed, means=means, samples=tuple(records))
