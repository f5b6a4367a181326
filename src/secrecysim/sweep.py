"""Grid sweeps over eavesdropper positions and Monte Carlo over station placements.

The sweep evaluates policies at every cell of a square grid with a
vectorized engine that states :func:`secrecysim.policy.select`'s rules in
its order (``select`` stays the reference and the test oracle): ``normal``,
then ``smart``, then ``smart_fj``, which lets the idle AP jam. Terms that
do not depend on the station are computed once per sweep block or Monte Carlo run;
the station's come from the helper that ``select``'s ``Scenario`` uses.
The jamming power comes from :func:`secrecysim.fjopt._best_power` on powers of the distances
computed once; ``sweep --policy all`` and ``compare`` take the three policies from one pass per block.
A sweep runs the engine on blocks of cells, holding its results and one block's scratch; Monte Carlo runs whole-grid
passes into a workspace made once per chunk, so a sample after a chunk's first allocates no grid array.
Aggregates use exact, correctly rounded summation, so results are
independent of evaluation order and of the number of Monte Carlo workers.
Monte Carlo stations are numpy's ``default_rng([seed, index])`` draws, computed in Python integers.
"""

import math
import operator
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .channel import Point2D, _positive
from .fjopt import _best_power
from .policy import PolicyKind, Scenario, SelectionResult, _check_reach, _result, _station_terms

ALL_POLICIES = tuple(PolicyKind)
# the most cells of one grid-engine pass of a sweep
_BLOCK_CELLS = 4096


def _integer(name: str, value, least: int) -> int:
    """``operator.index(value)``, refused with one ``ValueError`` unless ``value`` is an integer (int, bool,
    numpy's) of at least ``least``: everything ``operator.index`` refuses, numpy's other arrays included."""
    try:
        if operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer >= {least}")


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
        _integer("grid_k", self.grid_k, 1)
        if not isinstance(self.policy, PolicyKind):
            raise ValueError(f"policy must be a PolicyKind, got {self.policy!r}")
        _positive("cell_step", self.cell_step)


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


def _grid_cells(scenario: Scenario, cfg: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    """:func:`grid_coordinates`, once cells where the jamming closed form leaves the float range are refused."""
    lo, span = cfg.cell_origin, cfg.cell_step * (cfg.grid_k - 1)
    _check_reach(scenario, [(x, y) for x in (lo.x, lo.x + span) for y in (lo.y, lo.y + span)])
    return grid_coordinates(cfg)


def _eve_terms(scenario: Scenario, cells) -> tuple:
    """The terms of the cells ``(x, y)`` that do not depend on the station: the coordinates and, per AP,
    the clamped distance to the powers alpha and -alpha and the eavesdropper capacity."""
    par = scenario.params
    x, y = cells
    aps = []
    for ap, (_, _, p, _, _, _) in zip((scenario.ap1, scenario.ap2), scenario._station[0]):
        d_e = np.maximum(np.sqrt((x - ap.position.x) ** 2 + (y - ap.position.y) ** 2), par.ref_distance_d0)
        d_a, d_n = d_e ** par.pathloss_alpha, d_e ** -par.pathloss_alpha
        aps.append((d_a, d_n, np.log2(1.0 + p * d_n / par.noise_e)))
    return x, y, aps


class _Buffers(list):
    """Free buffers of one dtype shaped like the cell array ``like``, for the grid engine and its reductions:
    ``pop`` makes one with ``np.empty_like`` when none is free, and ``made`` keeps every buffer made."""

    def __init__(self, like: np.ndarray, dtype):
        super().__init__()
        self.like, self.dtype, self.made = like, dtype, []

    def pop(self) -> np.ndarray:
        if self:
            return super().pop()
        self.made.append(np.empty_like(self.like, dtype=self.dtype))
        return self.made[-1]


def _workspace(like: np.ndarray) -> tuple[_Buffers, _Buffers, _Buffers]:
    """The float64, int8 (an AP's number) and bool buffers of grid-engine passes over cells like ``like``, made as the
    first pass needs them, in the process that runs it: as many as a pass holds at once, 2.0 MB at 120 x 120 cells."""
    return _Buffers(like, np.float64), _Buffers(like, np.int8), _Buffers(like, np.bool_)


def _pick(out: np.ndarray, mask: np.ndarray, a, b) -> np.ndarray:
    """``np.where(mask, a, b)`` written into ``out``, which is returned."""
    np.copyto(out, b)
    np.copyto(out, a, where=mask)
    return out


def _evaluate_grid(scenario: Scenario, sta_m: Point2D, eve, work):
    """The array twin of policy.select: yield ``(policy, GridArrays)`` for
    ``normal``, ``smart`` and ``smart_fj`` in turn, with the station at ``sta_m``,
    over the cells whose :func:`_eve_terms` are ``eve``. A step runs only when its
    item is asked for; ``smart_fj`` starts from ``smart``'s association.

    Every array comes from ``work``, a :func:`_workspace` whose buffers the pass frees first, cut to these cells; each
    step takes its results from them and puts its scratch back before it yields. Smart's step writes over normal's
    results, and smart_fj's shares smart's ``chosen`` and reuses its zero ``fj_power``: normal's and smart's arrays
    are valid until the next item is asked for, smart_fj's until the next pass. ``x``, ``y`` are ``eve``'s, or None."""
    par = scenario.params
    alpha, w = par.pathloss_alpha, par.bandwidth_w
    floats, ints, flags = work
    x, y, ((d1e_a, d1e_n, c1e), (d2e_a, d2e_n, c2e)) = eve
    for buffers in work:
        buffers[:] = [buffer[: c1e.size] for buffer in buffers.made]
    ((d1m, _, p1, cap1, _, c1m), (d2m, _, p2, cap2, _, c2m)), choice = _station_terms(scenario, sta_m)

    chosen, cap_m, cap_e, secrecy, fj_power = ints.pop(), floats.pop(), floats.pop(), floats.pop(), floats.pop()
    c_m, c_e = (c1m, c1e) if choice == 1 else (c2m, c2e)
    np.copyto(chosen, choice)
    np.copyto(cap_m, w * c_m)
    np.multiply(w, c_e, out=cap_e)
    np.multiply(w, np.subtract(c_m, c_e, out=secrecy), out=secrecy)
    np.copyto(fj_power, 0.0)
    yield PolicyKind.NORMAL_WIFI, GridArrays(x, y, chosen, cap_m, cap_e, secrecy, fj_power)

    # per Hz: AP 1's secrecy difference in secrecy, AP 2's in diff, then the chosen AP's in diff
    pick1, diff = flags.pop(), floats.pop()
    np.greater_equal(np.subtract(c1m, c1e, out=secrecy), np.subtract(c2m, c2e, out=diff), out=pick1)
    np.copyto(diff, secrecy, where=pick1)
    _pick(chosen, pick1, 1, 2)
    _pick(cap_m, pick1, w * c1m, w * c2m)
    np.multiply(w, _pick(cap_e, pick1, c1e, c2e), out=cap_e)
    np.multiply(w, diff, out=secrecy)
    np.copyto(fj_power, 0.0)
    yield PolicyKind.SMART_AP, GridArrays(x, y, chosen, cap_m, cap_e, secrecy, fj_power)

    floats.append(fj_power)  # smart's zeros, which no later step reads
    # the station's distances to the powers alpha and -alpha from numpy's kernel, as the cells'
    (d1m_a, d2m_a), (d1m_n, d2m_n) = np.array((d1m, d2m)) ** alpha, np.array((d1m, d2m)) ** -alpha
    dim_a, die_a, djm_a, dje_a, p_i, p_max = (floats.pop() for _ in range(6))
    p_opt = _best_power(
        _pick(dim_a, pick1, d1m_a, d2m_a), _pick(die_a, pick1, d1e_a, d2e_a), _pick(djm_a, pick1, d2m_a, d1m_a),
        _pick(dje_a, pick1, d2e_a, d1e_a), par.noise_m, par.noise_e, _pick(p_i, pick1, p1, p2),
        _pick(p_max, pick1, cap2, cap1), floats, flags,
    )
    # per Hz at the station and at the eavesdropper: log2(1 + signal / (p_opt * gain + noise)), the signal the chosen
    # AP's power times its d**-alpha and the gain the other's d**-alpha; then their difference
    cap_m_fj, cap_e_fj, jam = floats.pop(), floats.pop(), floats.pop()
    for cap, (d1_n, d2_n), noise in (cap_m_fj, (d1m_n, d2m_n), par.noise_m), (cap_e_fj, (d1e_n, d2e_n), par.noise_e):
        np.add(np.multiply(p_opt, _pick(jam, pick1, d2_n, d1_n), out=jam), noise, out=jam)
        np.multiply(p1, d1_n, out=np.multiply(p2, d2_n, out=cap), where=pick1)
        np.log2(np.add(1.0, np.divide(cap, jam, out=cap), out=cap), out=cap)
    secrecy_fj = np.subtract(cap_m_fj, cap_e_fj, out=jam)
    # same guard as the scalar path: never fall below the no-jamming result
    worse = np.less(secrecy_fj, diff, out=flags.pop())
    for fj, no_fj in (cap_m_fj, cap_m), (cap_e_fj, cap_e), (secrecy_fj, secrecy):
        np.copyto(np.multiply(w, fj, out=fj), no_fj, where=worse)
    np.copyto(p_opt, 0.0, where=worse)
    floats.append(diff)
    flags += pick1, worse
    yield PolicyKind.SMART_AP_FJ, GridArrays(x, y, chosen, cap_m_fj, cap_e_fj, secrecy_fj, p_opt)


def _exact_sums(a: np.ndarray, buffers=None, positive: bool = True) -> tuple[float, float]:
    """``math.fsum`` of a float64 array and of ``np.maximum(a, 0.0)``, as lists, at numpy speed.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point summation part I", SIAM J. Sci.
    Comput. 31(1), 2008): for ``sigma`` a power of two and ``|r| <= 2**-M * sigma``, ``q = (sigma + r) - sigma``
    and ``r - q`` are exact, ``q`` is a multiple of ``2**-53 * sigma`` with ``|q| <= 2**-M * sigma``, and
    ``|r - q| <= 2**-53 * sigma``. With ``2**M >= a.size + 2`` a sum of ``q`` lanes is exact in any order.
    The first pass takes ``sigma = 2**(e + M)`` for ``max|a| < 2**e`` and the rest ``r = a``; each pass sums
    ``q`` over all lanes and over the lanes ``a > 0``, keeps ``r - q`` as the rest and scales ``sigma`` by
    ``2**(M - 53)``. When the rest is all zero, ``fsum`` of the passes' sums is correctly rounded. Underflow
    does no harm: a sum or difference with a subnormal result is exact, so a pass at a subnormal ``sigma`` leaves
    no rest, and a power of two times ``2**(M - 53)`` is exact or 0. No ``q`` lane is -0.0, so a zero sum is +0.0, as
    ``fsum`` gives for lanes not all zero. ``fsum`` of the lists runs only where no pass runs: inf or nan, an empty or
    all-zero array (its zero's sign) and ``max|a| >= 2**(1000 - M)`` (``sigma`` near overflow).
    ``buffers``, two float64 arrays and a bool one shaped like ``a``, are overwritten, the bool one with
    ``a > 0``; without them fresh ones are made. ``positive=False`` skips the lanes ``a > 0``: the bool
    buffer is not written and the second sum is 0.0.
    """
    q, rest, mask = buffers or (np.empty_like(a), np.empty_like(a), np.empty(a.shape, np.bool_))
    if positive:
        np.greater(a, 0.0, out=mask)
    m = (a.size + 1).bit_length()  # the least m with 2**m >= a.size + 2
    top = float(np.max(np.abs(a, out=q), initial=0.0))
    # nan, inf, 0.0 and a top too close to overflow leave sigma at 0.0, which runs no pass
    sigma = math.ldexp(1.0, math.frexp(top)[1] + m) if 0.0 < top < 2.0 ** (1000 - m) else 0.0
    r, totals, parts = a, [], []
    while sigma:
        r = np.subtract(r, np.subtract(np.add(r, sigma, out=q), sigma, out=q), out=rest)
        totals.append(float(q.sum()))
        if positive:
            parts.append(float(q.sum(where=mask)))
        if not r.any():
            return math.fsum(totals), math.fsum(parts)
        sigma *= 2.0 ** (m - 53)
    return math.fsum(a.tolist()), math.fsum(np.maximum(a, 0.0).tolist()) if positive else 0.0


def _metrics(ev: GridArrays, work, eve_sum: float | None = None) -> PolicyMeans:
    """The means of ``ev``, with scratch from the free buffers of a :func:`_workspace`, ``work``, given back after;
    ``eve_sum``, when given, is the exact sum of ``ev.cap_eve``."""
    floats, _, flags = work
    buffers, size = (floats.pop(), floats.pop(), flags.pop()), ev.secrecy.size
    secrecy, truncated = _exact_sums(ev.secrecy, buffers)
    count = int(np.count_nonzero(buffers[2]))  # the lanes of positive secrecy
    eve_sum = _exact_sums(ev.cap_eve, buffers, positive=False)[0] if eve_sum is None else eve_sum
    floats += buffers[:2]
    flags.append(buffers[2])
    return PolicyMeans(secrecy / size, truncated / size, eve_sum / size, count / size)


def _cells(ev: GridArrays) -> tuple[CellResult, ...]:
    # x, y, then SelectionResult's fields, valid as written; .tolist() gives ints for ``chosen``, floats for the rest
    columns = (column.tolist() for column in vars(ev).values())
    return tuple(
        CellResult(Point2D(x, y), _result(chosen, cap_m, cap_e, secrecy, fj_power))
        for x, y, chosen, cap_m, cap_e, secrecy, fj_power in zip(*columns)
    )


def _sweeps(scenario: Scenario, cfg: SweepConfig, policies, retain_cells: bool = False) -> dict[PolicyKind, SweepSummary]:
    """The :class:`SweepSummary` of each of ``policies`` (not ``cfg.policy``) in the grid engine's order: one pass per
    block of at most ``_BLOCK_CELLS`` cells, each stopped after the last of ``policies``, fills each policy's arrays;
    a cell's result does not depend on its block. Only passes that include smart_fj run the jamming optimizer."""
    (x, y), order = _grid_cells(scenario, cfg), sorted(set(policies), key=ALL_POLICIES.index)
    n, blocks = x.size, -(-x.size // _BLOCK_CELLS)  # as even as can be, the first as large as any: 4 of 3,600 at K=120
    grids = {p: GridArrays(x, y, np.empty(n, np.int64), *(np.empty(n) for _ in range(4))) for p in order}
    work = _workspace(x[: -(-n // blocks)])
    for cells in (slice(-(-i * n // blocks), -(-(i + 1) * n // blocks)) for i in range(blocks)):
        eve = _eve_terms(scenario, (x[cells], y[cells]))
        for policy, ev in _evaluate_grid(scenario, scenario.sta_m, eve, work):
            if policy in grids:
                for whole, part in list(zip(vars(grids[policy]).values(), vars(ev).values()))[2:]:
                    whole[cells] = part
            if policy is order[-1]:
                break
        del eve, ev  # before the next block's terms, or the means' scratch, are made
    work = _workspace(x)  # the means' scratch, a whole grid's
    return {
        policy: SweepSummary(**vars(_metrics(ev, work)), arrays=ev, grid=_cells(ev) if retain_cells else ())
        for policy, ev in grids.items()
    }


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
    """The records of the samples ``indices``; ``normal_eve`` holds each AP's exact eavesdropper-capacity sum.
    One workspace, made here (after the fork in a worker), serves every sample: after the first, a sample allocates
    no grid array."""
    work, records = _workspace(eve[2][0][0]), []  # shaped like the cells' terms
    for index in indices:
        # per-sample draw keyed by (seed, index): order- and worker-independent
        sta_m = Point2D(*_station_draw(seed, index, scenario.map_extent))
        metrics = {}
        for policy, ev in _evaluate_grid(scenario, sta_m, eve, work):
            eve_sum = normal_eve[ev.chosen[0] - 1] if policy is PolicyKind.NORMAL_WIFI else None
            metrics[policy] = _metrics(ev, work, eve_sum)
        records.append(SampleRecord(sta_m, metrics))
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
    n, seed, workers = (_integer(*arg) for arg in (("n", n, 1), ("seed", seed, 0), ("workers", workers, 1)))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, n, cpus)
    # the samples need the cells' terms and count, not their coordinates
    eve = (None, None, _eve_terms(scenario_template, _grid_cells(scenario_template, cfg))[2])
    # normal's eavesdropper capacity is one AP's over the whole grid, whatever the station
    normal_eve = [_exact_sums(scenario_template.params.bandwidth_w * c_e, positive=False)[0] for *_, c_e in eve[2]]
    # one contiguous chunk per worker, in sample order; forked workers inherit the terms and sums
    chunks = [range(i * n // workers, (i + 1) * n // workers) for i in range(workers)]
    records = _run_chunks(lambda chunk: _run_chunk(scenario_template, eve, normal_eve, seed, chunk), chunks)

    means = {}
    for policy in ALL_POLICIES:
        # one column per metric, in field order and sample order
        columns = zip(*(vars(record.metrics[policy]).values() for record in records))
        means[policy] = PolicyMeans(*(math.fsum(column) / n for column in columns))
    return MonteCarloSummary(n_samples=n, seed=seed, means=means, samples=tuple(records))
