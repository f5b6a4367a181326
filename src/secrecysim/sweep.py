"""Grid sweeps over eavesdropper positions and Monte Carlo over station placements.

The sweep evaluates policies at every cell of a square grid with a
vectorized engine that states :func:`secrecysim.policy.select`'s rules in
its order (``select`` stays the reference and the test oracle): ``normal``,
then ``smart``, then ``smart_fj``, which lets the idle AP jam. Terms that
do not depend on the station are computed once per sweep or Monte Carlo run;
the station's come from the helper that ``select``'s ``Scenario`` uses.
The jamming power comes from :func:`secrecysim.fjopt._best_power` on powers of the distances
computed once; ``sweep --policy all`` and ``compare`` take the three policies from one pass per scenario.
Aggregates use exact, correctly rounded summation, so results are
independent of evaluation order and of the number of Monte Carlo workers.
Monte Carlo stations are numpy's ``default_rng([seed, index])`` draws, computed in Python integers.
"""

import math
import operator
import os
import pickle
import signal
from dataclasses import astuple, dataclass, field

import numpy as np

from .channel import Point2D
from .fjopt import _best_power, _coefficients
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
        # an integer is what operator.index accepts: int, bool, numpy's integers
        if not hasattr(type(self.grid_k), "__index__") or self.grid_k < 1:
            raise ValueError("grid_k must be an integer >= 1")
        if not 0 < self.cell_step < math.inf:
            raise ValueError(f"cell_step must be {'positive' if self.cell_step <= 0 else 'finite'}")


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


def _eve_terms(scenario: Scenario, cfg: SweepConfig) -> tuple:
    """The per-cell terms that do not depend on the station: the cell coordinates and, per AP, the
    clamped distance to the powers alpha and -alpha, the signal and the eavesdropper capacity. Cells,
    on the map or off it, where the jamming closed form leaves the float range are refused first."""
    lo, span = cfg.cell_origin, cfg.cell_step * (cfg.grid_k - 1)
    _check_reach(scenario, [(x, y) for x in (lo.x, lo.x + span) for y in (lo.y, lo.y + span)])
    par = scenario.params
    x, y = grid_coordinates(cfg)
    aps = []
    for ap, (_, p, _, _, _) in zip((scenario.ap1, scenario.ap2), scenario._station[0]):
        d_e = np.maximum(np.sqrt((x - ap.position.x) ** 2 + (y - ap.position.y) ** 2), par.ref_distance_d0)
        d_a, d_n = d_e ** par.pathloss_alpha, d_e ** -par.pathloss_alpha
        s_e = p * d_n
        aps.append((d_a, d_n, s_e, np.log2(1.0 + s_e / par.noise_e)))
    return x, y, aps


def _evaluate_grid(scenario: Scenario, sta_m: Point2D, eve):
    """The array twin of policy.select: yield ``(policy, GridArrays)`` for
    ``normal``, ``smart`` and ``smart_fj`` in turn, with the station at ``sta_m``,
    over the grid whose :func:`_eve_terms` are ``eve``. A step runs only when its
    item is asked for; ``smart_fj`` starts from ``smart``'s association."""
    par = scenario.params
    alpha, w = par.pathloss_alpha, par.bandwidth_w
    x, y, ((d1e_a, d1e_n, s1e, c1e), (d2e_a, d2e_n, s2e, c2e)) = eve
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

    # the station's distances to the powers alpha and -alpha from numpy's kernel, as the cells'
    (d1m_a, d2m_a), (d1m_n, d2m_n) = np.array((d1m, d2m)) ** alpha, np.array((d1m, d2m)) ** -alpha
    quad, ratio = _coefficients(  # operands built in the call, constants dropped: less peak memory
        np.where(pick1, d1m_a, d2m_a), np.where(pick1, d1e_a, d2e_a), np.where(pick1, d2m_a, d1m_a),
        np.where(pick1, d2e_a, d1e_a), par.noise_m, par.noise_e, np.where(pick1, p1, p2),
    )[1:]
    p_opt = _best_power(quad, ratio, np.where(pick1, cap2, cap1))
    s_im, djm_n = np.where(pick1, p1 * d1m_n, p2 * d2m_n), np.where(pick1, d2m_n, d1m_n)
    cap_m_fj = np.log2(1.0 + s_im / (p_opt * djm_n + par.noise_m))
    cap_e_fj = np.log2(1.0 + np.where(pick1, s1e, s2e) / (p_opt * np.where(pick1, d2e_n, d1e_n) + par.noise_e))
    # same guard as the scalar path: never fall below the no-jamming result
    worse = (cap_m_fj - cap_e_fj) < (cap_m - cap_e)
    yield PolicyKind.SMART_AP_FJ, arrays(
        chosen, np.where(worse, cap_m, cap_m_fj), np.where(worse, cap_e, cap_e_fj), np.where(worse, 0.0, p_opt)
    )


def _exact_sums(a: np.ndarray) -> tuple[float, float]:
    """``math.fsum`` of a float64 array and of ``np.maximum(a, 0.0)``, as lists, at numpy speed.

    ``np.bincount`` sums the 26-bit halves of the mantissas per sign and exponent,
    exactly below ``2**26`` values; all bins, and the positive-sign bins, make two integer
    counts of ``2**-1075`` whose quotients are correctly rounded, as ``fsum`` is. Inf,
    nan and zero sums (the sign of zero) go to ``fsum``.
    """
    bits = a.view(np.int64)
    key = (bits >> 52) & 0xFFF
    count = np.bincount(key, minlength=0x1000)
    if a.size >= 1 << 26 or count[0x7FF] or count[0xFFF]:
        return math.fsum(a.tolist()), math.fsum(np.maximum(a, 0.0).tolist())
    hi = np.bincount(key, weights=(bits >> 26) & 0x3FFFFFF, minlength=0x1000)
    lo = np.bincount(key, weights=bits & 0x3FFFFFF, minlength=0x1000)
    used = np.flatnonzero(count)
    sums = [0, 0]  # the positive-sign bins, the negative-sign bins
    for k, n, h, l in zip(used.tolist(), count[used].tolist(), hi[used].tolist(), lo[used].tolist()):
        e = k & 0x7FF
        sums[k >> 11] += (((n << 52) if e else 0) + (int(h) << 26) + int(l)) << max(e, 1)
    return (
        (sums[0] - sums[1]) / (1 << 1075) if sums[0] != sums[1] else math.fsum(a.tolist()),
        sums[0] / (1 << 1075) if sums[0] else math.fsum(np.maximum(a, 0.0).tolist()),
    )


def _metrics(ev: GridArrays, eve_sum: float | None = None) -> PolicyMeans:
    """The means of ``ev``; ``eve_sum``, when given, is the exact sum of ``ev.cap_eve``."""
    size = ev.secrecy.size
    secrecy, truncated = _exact_sums(ev.secrecy)
    eve_sum = _exact_sums(ev.cap_eve)[0] if eve_sum is None else eve_sum
    return PolicyMeans(secrecy / size, truncated / size, eve_sum / size, int(np.count_nonzero(ev.secrecy > 0.0)) / size)


def _cells(ev: GridArrays) -> tuple[CellResult, ...]:
    # x, y, then SelectionResult's fields; .tolist() gives ints for ``chosen``, floats for the rest
    columns = (column.tolist() for column in vars(ev).values())
    return tuple(
        CellResult(Point2D(x, y), SelectionResult(chosen, cap_m, cap_e, secrecy, fj_power))
        for x, y, chosen, cap_m, cap_e, secrecy, fj_power in zip(*columns)
    )


def _sweeps(scenario: Scenario, cfg: SweepConfig, policies, retain_cells: bool = False) -> dict[PolicyKind, SweepSummary]:
    """The :class:`SweepSummary` of each of ``policies`` (not ``cfg.policy``) in the grid engine's order, from
    one pass that stops after the last of them: only a pass that includes smart_fj runs the jamming optimizer."""
    summaries = {}
    for policy, ev in _evaluate_grid(scenario, scenario.sta_m, _eve_terms(scenario, cfg)):
        if policy in policies:
            summaries[policy] = SweepSummary(**vars(_metrics(ev)), arrays=ev, grid=_cells(ev) if retain_cells else ())
        if summaries.keys() >= set(policies):
            return summaries


def sweep_eavesdropper(scenario: Scenario, cfg: SweepConfig, retain_cells: bool = True) -> SweepSummary:
    """Evaluate ``cfg.policy`` at every grid cell and aggregate the metrics."""
    return _sweeps(scenario, cfg, (cfg.policy,), retain_cells)[cfg.policy]


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hasher(h: int, mult: int):
    """numpy ``SeedSequence``'s word hash: xor with ``h``, advance ``h`` by ``mult``, multiply, xor-shift 16."""
    def hash_word(value: int) -> int:
        nonlocal h
        value = (value ^ h) * (h := h * mult & _M32) & _M32
        return value ^ value >> 16

    return hash_word


def _station_draw(seed: int, index: int, extent: float) -> tuple[float, float]:
    """numpy's ``default_rng([seed, index]).uniform(0.0, extent, size=2)`` bit for bit, in Python integers and
    without importing numpy's random module (5.6 MB resident, numpy 2.4 on x86-64): the ``SeedSequence`` entropy
    pool and state words, then PCG64 (XSL-RR 128/64; O'Neill, 2014) seeded from them, whatever numpy's version."""
    entropy = [v >> s & _M32 for v in (seed, index) for s in range(0, max(v.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0, 0])[:4]] + entropy[4:]  # words past the 4th mix in last
    for src, dst in [(s, d) for s in range(len(pool)) for d in range(4) if s != d]:
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & _M32
        pool[dst] = mixed ^ mixed >> 16
    words = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool[:4] * 2))
    w = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state, draws = ((inc + (w[0] << 64 | w[1])) * mult + inc) & _M128, []  # from 0: step, add, step
    for _ in range(2):
        state = (state * mult + inc) & _M128
        rot, out = state >> 122, (state >> 64 ^ state) & _M64
        draws.append(extent * ((((out >> rot | out << (64 - rot)) & _M64) >> 11) * 2.0**-53))
    return draws[0], draws[1]


def _run_chunk(scenario: Scenario, eve, normal_eve, seed: int, indices: range) -> list[SampleRecord]:
    """The records of the samples ``indices``; ``normal_eve`` holds each AP's exact eavesdropper-capacity sum."""
    records = []
    for index in indices:
        # per-sample draw keyed by (seed, index): order- and worker-independent
        sta_m = Point2D(*_station_draw(seed, index, scenario.map_extent))
        # all three grids before any reduction: interleaving them doubled the page faults per sample
        grids = dict(_evaluate_grid(scenario, sta_m, eve))
        eve_sums = {PolicyKind.NORMAL_WIFI: normal_eve[grids[PolicyKind.NORMAL_WIFI].chosen[0] - 1]}
        records.append(SampleRecord(sta_m, {p: _metrics(ev, eve_sums.get(p)) for p, ev in grids.items()}))
    return records


def _run_chunks(run, chunks) -> list[SampleRecord]:
    """The records of ``run(chunk)`` for each of ``chunks``, in order: the first runs here, each other in a
    forked worker that sends its records or exception through a pipe and leaves by ``os._exit``, never running
    its parent's cleanup; all are reaped before this returns or raises. Without ``os.fork`` all run here."""
    forked = chunks[1:] if hasattr(os, "fork") else []
    children = []
    try:
        for chunk in forked:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                for fd in read_fd, write_fd:
                    os.close(fd)
                raise
            if pid == 0:
                try:
                    try:
                        result = run(chunk)
                    except Exception as exc:
                        result = exc
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(result))
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        records = [record for chunk in chunks[: len(chunks) - len(forked)] for record in run(chunk)]
        for _, pipe in children:
            value = pickle.loads(data) if (data := pipe.read()) else ChildProcessError("a Monte Carlo worker died")
            if isinstance(value, Exception):
                raise value
            records += value
        return records
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def monte_carlo(
    scenario_template: Scenario, cfg: SweepConfig, n: int, seed: int, workers: int = 1
) -> MonteCarloSummary:
    """Average the sweep metrics of all three policies over ``n`` random
    legitimate-station placements.

    Positions are drawn uniformly over the map square; ``cfg.policy`` is
    ignored because every sample evaluates all policies. The samples run
    on ``min(workers, n, cpus)`` processes, one contiguous chunk each: this
    one and forked workers (see :func:`_run_chunks`). ``cpus`` counts the
    CPUs this process may run on (:func:`os.sched_getaffinity`, else
    :func:`os.cpu_count`). The result never depends on the process count.
    Sample ``i``'s station is the PCG64 draw of ``SeedSequence([seed, i])``,
    equal to numpy's ``default_rng`` (:func:`_station_draw`).
    """
    for name, value in ("n", n), ("seed", seed), ("workers", workers):
        if not hasattr(type(value), "__index__"):
            raise ValueError(f"{name} must be an integer")
    n, seed, workers = map(operator.index, (n, seed, workers))
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, n, cpus)
    eve = _eve_terms(scenario_template, cfg)
    # normal's eavesdropper capacity is one AP's over the whole grid, whatever the station
    normal_eve = [_exact_sums(scenario_template.params.bandwidth_w * c_e)[0] for *_, c_e in eve[2]]
    # one contiguous chunk per worker, in sample order; forked workers inherit the terms and sums
    chunks = [range(i * n // workers, (i + 1) * n // workers) for i in range(workers)]
    records = _run_chunks(lambda chunk: _run_chunk(scenario_template, eve, normal_eve, seed, chunk), chunks)

    means = {}
    for policy in ALL_POLICIES:
        # one column per metric, in sample order
        columns = zip(*(astuple(record.metrics[policy]) for record in records))
        means[policy] = PolicyMeans(*(math.fsum(column) / n for column in columns))
    return MonteCarloSummary(n_samples=n, seed=seed, means=means, samples=tuple(records))
