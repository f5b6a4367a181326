import errno
import itertools
import math
import os
import signal
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secrecysim import (
    ApConfig,
    ChannelParams,
    Point2D,
    PolicyKind,
    Scenario,
    SweepConfig,
    bundled_scenario_path,
    distance_corrected_power,
    load_scenario,
    monte_carlo,
    select,
    sweep_eavesdropper,
)
from secrecysim import sweep as sweep_module
from secrecysim.sweep import ALL_POLICIES, PolicyMeans, _exact_sums, grid_coordinates

from conftest import FjArgs, best_power, build_scenario, drawn_scenarios, hexed


def small_cfg(policy=PolicyKind.SMART_AP_FJ, k=25, step=4.0):
    return SweepConfig(grid_k=k, cell_step=step, policy=policy)


def test_grid_row_order_y_outer_x_inner():
    cfg = SweepConfig(grid_k=3, cell_origin=Point2D(1.0, 1.0), cell_step=1.0)
    x, y = grid_coordinates(cfg)
    assert list(zip(x, y)) == [
        (1, 1), (2, 1), (3, 1),
        (1, 2), (2, 2), (3, 2),
        (1, 3), (2, 3), (3, 3),
    ]


@pytest.mark.parametrize(
    "policy, noise_ratio",
    [
        pytest.param(policy, ratio, id=f"{policy}{suffix}")
        for policy in PolicyKind
        for ratio, suffix in ((1.0, ""), (0.1, "-noise_e_0.1x"), (10.0, "-noise_e_10x"))
    ],
)
def test_sweep_matches_naive_double_loop(policy, noise_ratio):
    # independent oracle: an explicitly coded double loop over cells using
    # the scalar selector, re-summed with exact accumulation
    scenario = build_scenario((20.0, 100.0), noise_e=noise_ratio * 1e-10)
    cfg = small_cfg(policy)
    summary = sweep_eavesdropper(scenario, cfg)
    assert len(summary.grid) == cfg.grid_k ** 2

    secrecy_values = []
    eve_values = []
    positives = 0
    index = 0
    for iy in range(cfg.grid_k):
        for ix in range(cfg.grid_k):
            pos = Point2D(
                cfg.cell_origin.x + cfg.cell_step * ix, cfg.cell_origin.y + cfg.cell_step * iy
            )
            cell = summary.grid[index]
            index += 1
            assert cell.eve_pos == pos
            ref = select(scenario, pos, policy)
            assert cell.selection.chosen_ap == ref.chosen_ap
            assert cell.selection.secrecy == pytest.approx(ref.secrecy, rel=1e-12, abs=1e-12)
            assert cell.selection.fj_power == pytest.approx(ref.fj_power, rel=1e-9, abs=1e-18)
            secrecy_values.append(ref.secrecy)
            eve_values.append(ref.cap_eve)
            positives += cell.selection.secrecy > 0.0

    n = cfg.grid_k ** 2
    assert summary.avg_secrecy == pytest.approx(math.fsum(secrecy_values) / n, rel=1e-12, abs=1e-12)
    assert summary.avg_secrecy_truncated == pytest.approx(
        math.fsum(max(s, 0.0) for s in secrecy_values) / n, rel=1e-12, abs=1e-12
    )
    assert summary.avg_eve_capacity == pytest.approx(math.fsum(eve_values) / n, rel=1e-12)
    assert summary.coverage_ratio == positives / n
    assert summary.avg_secrecy <= max(secrecy_values) + 1e-12
    assert 0.0 <= summary.coverage_ratio <= 1.0


def test_single_cell_on_station_has_zero_coverage():
    scenario = build_scenario((20.0, 100.0))
    cfg = SweepConfig(grid_k=1, cell_origin=Point2D(20.0, 100.0), cell_step=1.0)
    summary = sweep_eavesdropper(scenario, cfg)
    assert summary.coverage_ratio == 0.0
    assert summary.grid[0].selection.secrecy == 0.0


def test_coverage_matches_summary_grid():
    scenario = build_scenario((60.0, 38.0))
    summary = sweep_eavesdropper(scenario, small_cfg())
    positives = sum(1 for cell in summary.grid if cell.selection.secrecy > 0.0)
    assert positives / len(summary.grid) == summary.coverage_ratio


def test_policy_ordering_scenario1():
    scenario = build_scenario((20.0, 100.0))
    cov = {}
    avg = {}
    for policy in ALL_POLICIES:
        summary = sweep_eavesdropper(scenario, small_cfg(policy), retain_cells=False)
        cov[policy] = summary.coverage_ratio
        avg[policy] = summary.avg_secrecy
    assert cov[PolicyKind.SMART_AP_FJ] >= cov[PolicyKind.SMART_AP] >= cov[PolicyKind.NORMAL_WIFI]
    assert avg[PolicyKind.SMART_AP_FJ] >= avg[PolicyKind.SMART_AP] >= avg[PolicyKind.NORMAL_WIFI]


def joint_fj_secrecy(scenario, cfg):
    """Per-Hz secrecy of the joint choice at every grid cell: each AP in turn
    serves while the other jams at the array optimizer's power, each choice
    is scored with the two-capacity form, and the better one is kept."""
    par = scenario.params
    a = par.pathloss_alpha
    x, y = grid_coordinates(cfg)

    def clamped(ap, px, py):
        return np.maximum(np.hypot(px - ap.position.x, py - ap.position.y), par.ref_distance_d0)

    best = np.full(x.shape, -np.inf)
    for data, idle in ((scenario.ap1, scenario.ap2), (scenario.ap2, scenario.ap1)):
        d_im = np.full(x.shape, clamped(data, scenario.sta_m.x, scenario.sta_m.y))
        d_jm = np.full(x.shape, clamped(idle, scenario.sta_m.x, scenario.sta_m.y))
        d_ie, d_je = clamped(data, x, y), clamped(idle, x, y)
        p_i = np.full(x.shape, distance_corrected_power(data.tx_power, par))
        p_max = np.full(x.shape, distance_corrected_power(idle.tx_power_max, par))
        p = best_power(FjArgs(d_im, d_ie, d_jm, d_je, a, par.noise_m, par.noise_e, p_i, p_max))
        cap_m = np.log2(1.0 + p_i * d_im ** -a / (p * d_jm ** -a + par.noise_m))
        cap_e = np.log2(1.0 + p_i * d_ie ** -a / (p * d_je ** -a + par.noise_e))
        best = np.maximum(best, cap_m - cap_e)
    return best


def seeded_unequal_scenario(seed):
    """Random geometry and alpha, with per-AP tx powers (1 mW to 1 W) and
    caps (up to 31.6x tx), and noise_e from 1e-12 to 1e-8 W."""
    rng = np.random.default_rng(seed)
    params = ChannelParams(
        pathloss_alpha=float(rng.uniform(2.0, 4.0)), noise_e=float(10 ** rng.uniform(-12.0, -8.0))
    )
    ap1, ap2, sta_m = (Point2D(*rng.uniform(0.0, 120.0, 2)) for _ in range(3))
    tx1, tx2 = 10 ** rng.uniform(-3.0, 0.0, 2)
    cap1, cap2 = 10 ** rng.uniform(0.0, 1.5, 2)
    return Scenario(
        ApConfig(ap1, float(tx1), float(tx1 * cap1)),
        ApConfig(ap2, float(tx2), float(tx2 * cap2)),
        sta_m,
        params,
        120.0,
    )


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_smart_fj_equals_the_joint_choice_on_bundled_scenarios(name):
    # smart_fj selects the AP without jamming, then lets the other AP jam;
    # on the bundled scenarios no cell gains from serving by the other AP
    loaded = load_scenario(bundled_scenario_path(name))
    summary = sweep_eavesdropper(loaded.scenario, loaded.sweep, retain_cells=False)
    sequential = summary.arrays.secrecy / loaded.scenario.params.bandwidth_w
    assert np.max(np.abs(joint_fj_secrecy(loaded.scenario, loaded.sweep) - sequential)) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_smart_fj_never_beats_the_joint_choice(seed):
    scenario = seeded_unequal_scenario(seed)
    cfg = SweepConfig(grid_k=60, cell_step=2.0)
    sequential = sweep_eavesdropper(scenario, cfg, retain_cells=False).arrays.secrecy
    gap = joint_fj_secrecy(scenario, cfg) - sequential
    assert np.min(gap) >= -1e-9
    if seed == 0:
        # with unequal tx powers, caps and noises, select-then-jam is not the
        # joint optimum: serving by the other AP, plus its jammer, does better
        assert np.max(gap) > 0.01


@settings(max_examples=40, deadline=None)
@given(drawn_scenarios(caps=st.just(1.0)))
def test_smart_fj_equals_the_joint_choice_when_each_cap_is_its_power(scenario):
    # select's docstring proves it: with caps equal to the tx powers, serving by
    # the other AP, with its best jamming, never beats select-then-jam
    cfg = SweepConfig(grid_k=30, cell_step=4.0)
    sequential = sweep_eavesdropper(scenario, cfg, retain_cells=False).arrays.secrecy
    assert np.max(np.abs(joint_fj_secrecy(scenario, cfg) - sequential)) <= 1e-9


def test_sweep_without_retained_cells_keeps_metrics():
    scenario = build_scenario((80.0, 20.0))
    with_cells = sweep_eavesdropper(scenario, small_cfg())
    without = sweep_eavesdropper(scenario, small_cfg(), retain_cells=False)
    assert without.grid == ()
    assert without.avg_secrecy == with_cells.avg_secrecy
    assert without.coverage_ratio == with_cells.coverage_ratio
    # the arrays hold exactly the values of the per-cell objects
    arrays = without.arrays
    fields = ("x", "y", "chosen", "cap_legit", "cap_eve", "secrecy", "fj_power")
    assert list(zip(*(getattr(arrays, f).tolist() for f in fields))) == [
        (c.eve_pos.x, c.eve_pos.y, c.selection.chosen_ap, c.selection.cap_legit,
         c.selection.cap_eve, c.selection.secrecy, c.selection.fj_power)
        for c in with_cells.grid
    ]


def result_arrays(arrays, coordinates=True):
    """The arrays of a ``GridArrays``, the cell coordinates only when ``coordinates``."""
    return [a for name, a in vars(arrays).items() if coordinates or name not in ("x", "y")]


def test_sweep_results_share_no_memory_and_own_their_buffers():
    # a retained summary holds its own arrays, never a view into a block that also holds scratch
    scenario = build_scenario((80.0, 20.0), noise_e=1e-9, alpha=2.418)
    first, second = (sweep_eavesdropper(scenario, small_cfg(), retain_cells=False).arrays for _ in range(2))
    assert not any(np.shares_memory(a, b) for a in result_arrays(first) for b in result_arrays(second))
    # one pass: the policies share only the cells' coordinates
    summaries = sweep_module._sweeps(scenario, small_cfg(), ALL_POLICIES)
    arrays = [a for summary in summaries.values() for a in result_arrays(summary.arrays, coordinates=False)]
    assert len(arrays) == 15
    assert [(i, j) for i, a in enumerate(arrays) for j, b in enumerate(arrays[:i]) if np.shares_memory(a, b)] == []
    assert all(a.base is None for a in arrays)


@pytest.mark.parametrize("k", [1, 7, 64, 65, 121])
@pytest.mark.parametrize("alpha", [2.0, 2.418])
def test_a_sweep_by_blocks_has_the_bits_of_one_whole_grid_pass(k, alpha):
    # 1 and 49 cells take one short block, 4,096 exactly one; 4,225 take 2,113 + 2,112 and 14,641
    # take 3,661 + 3 x 3,660, lengths that are not multiples of 8 and blocks that start mid-vector
    assert sweep_module._BLOCK_CELLS == 64 * 64
    scenario = build_scenario((80.0, 20.0), noise_e=1e-9, alpha=alpha)
    cfg = small_cfg(k=k, step=120.0 / k)
    eve = sweep_module._eve_terms(scenario, sweep_module._grid_cells(scenario, cfg))
    work = sweep_module._workspace(eve[0])
    whole = {}
    for policy, ev in sweep_module._evaluate_grid(scenario, scenario.sta_m, eve, work):
        # normal's arrays go back to the workspace when smart's step is asked for: read them now
        whole[policy] = sweep_module._cells(ev), hexed(ev), hexed(sweep_module._metrics(ev, work))
    for policies in (p for size in range(1, 4) for p in itertools.combinations(ALL_POLICIES, size)):
        # the cells are made from the arrays: retained once, for every policy
        retain = policies == ALL_POLICIES
        summaries = sweep_module._sweeps(scenario, cfg, policies, retain_cells=retain)
        assert list(summaries) == list(policies)
        for policy, summary in summaries.items():
            cells, arrays, means = whole[policy]
            assert hexed(summary.arrays) == arrays
            assert hexed([getattr(summary, f.name) for f in fields(PolicyMeans)]) == means
            assert summary.grid == (cells if retain else ())


@pytest.mark.parametrize("noise_e, alpha", [(1e-10, 2.0), (1e-9, 2.418)])
def test_one_chunk_of_four_samples_equals_four_chunks_of_one(noise_e, alpha, monkeypatch):
    # the chunk's workspace serves every sample: a step that reads a buffer before it writes it
    # reads a value left from an earlier sample there, and nan or garbage in a chunk's first
    pop = sweep_module._Buffers.pop

    def poisoned(buffers):
        made = not buffers
        buffer = pop(buffers)
        if made:
            buffer.fill(np.nan if buffer.dtype == np.float64 else 3)
        return buffer

    monkeypatch.setattr(sweep_module._Buffers, "pop", poisoned)
    scenario = build_scenario((20.0, 100.0), noise_e=noise_e, alpha=alpha)
    cfg = small_cfg(k=30, step=4.0)
    eve = sweep_module._eve_terms(scenario, sweep_module._grid_cells(scenario, cfg))
    normal_eve = [_exact_sums(scenario.params.bandwidth_w * c_e)[0] for *_, c_e in eve[2]]

    def records(indices):
        return hexed(sweep_module._run_chunk(scenario, eve, normal_eve, 8, indices))

    assert records(range(0, 4)) == [record for i in range(4) for record in records(range(i, i + 1))]


def test_a_pass_frees_its_workspace_and_cuts_it_to_its_cells(monkeypatch):
    # a chunk's samples and a sweep's blocks run pass after pass on one workspace: a second whole-grid
    # pass makes no buffer, and a pass over fewer cells runs in the first buffers' heads
    pop, made = sweep_module._Buffers.pop, Counter()

    def counted(buffers):
        made[np.dtype(buffers.dtype).name] += not buffers
        return pop(buffers)

    monkeypatch.setattr(sweep_module._Buffers, "pop", counted)
    loaded = load_scenario(bundled_scenario_path("scenario1"))
    scenario, (x, y) = loaded.scenario, sweep_module._grid_cells(loaded.scenario, loaded.sweep)
    whole, part = sweep_module._eve_terms(scenario, (x, y)), sweep_module._eve_terms(scenario, (x[:999], y[:999]))

    def run(eve, work):
        # each item and its means as it is yielded, with the means' scratch from the same workspace
        steps = sweep_module._evaluate_grid(scenario, scenario.sta_m, eve, work)
        return [hexed((ev, sweep_module._metrics(ev, work))) for _, ev in steps]

    work = sweep_module._workspace(x)
    first = run(whole, work)
    assert run(whole, work) == first
    assert made == {"float64": 18, "int8": 1, "bool": 2}
    cut = run(part, work)
    assert made == {"float64": 18, "int8": 1, "bool": 2}
    assert cut == run(part, sweep_module._workspace(part[0]))


def test_mirror_symmetry_of_the_standard_layout():
    # a K=119 grid is symmetric about the APs' perpendicular bisector x=60,
    # so reflecting the station mirrors the association map; cells where the
    # two APs tie exactly break to AP 1 on both sides and are exempted
    cfg = SweepConfig(grid_k=119, cell_step=1.0, policy=PolicyKind.SMART_AP)
    left = sweep_eavesdropper(build_scenario((20.0, 100.0)), cfg)
    right = sweep_eavesdropper(build_scenario((100.0, 100.0)), cfg)
    k = cfg.grid_k
    ties = 0
    for iy in range(k):
        for ix in range(k):
            a = left.grid[iy * k + ix].selection
            b = right.grid[iy * k + (k - 1 - ix)].selection
            if a.chosen_ap == 3 - b.chosen_ap:
                pass
            else:
                # legitimate only for an exact argmax tie; both break low
                assert a.chosen_ap == 1 and b.chosen_ap == 1
                ties += 1
            assert a.secrecy == pytest.approx(b.secrecy, rel=1e-9, abs=1e-12)
    assert ties < k  # ties are rare knife-edge cells, not whole regions
    assert left.avg_secrecy == pytest.approx(right.avg_secrecy, rel=1e-9)
    assert left.coverage_ratio == right.coverage_ratio


def test_monte_carlo_single_sample_degenerates_to_sweep():
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg()
    mc = monte_carlo(scenario, cfg, n=1, seed=123)
    drawn = mc.samples[0].sta_m
    assert 0.0 <= drawn.x <= scenario.map_extent
    assert 0.0 <= drawn.y <= scenario.map_extent
    placed = replace(scenario, sta_m=drawn)
    for policy in ALL_POLICIES:
        direct = sweep_eavesdropper(placed, replace(cfg, policy=policy), retain_cells=False)
        means = mc.means[policy]
        assert means.avg_secrecy == direct.avg_secrecy
        assert means.avg_eve_capacity == direct.avg_eve_capacity
        assert means.coverage_ratio == direct.coverage_ratio


def test_monte_carlo_preserves_policy_ordering():
    scenario = build_scenario((20.0, 100.0))
    mc = monte_carlo(scenario, small_cfg(k=15, step=8.0), n=40, seed=9)
    fj, smart, normal = (
        mc.means[PolicyKind.SMART_AP_FJ],
        mc.means[PolicyKind.SMART_AP],
        mc.means[PolicyKind.NORMAL_WIFI],
    )
    assert fj.avg_secrecy >= smart.avg_secrecy >= normal.avg_secrecy
    assert fj.coverage_ratio >= smart.coverage_ratio >= normal.coverage_ratio
    assert fj.avg_eve_capacity <= smart.avg_eve_capacity


def test_monte_carlo_worker_count_does_not_change_bits():
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg(k=12, step=10.0)
    serial = monte_carlo(scenario, cfg, n=200, seed=42, workers=1)
    parallel = monte_carlo(scenario, cfg, n=200, seed=42, workers=2)
    assert serial == parallel


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_monte_carlo_samples_match_per_policy_sweeps(workers):
    # distinct noises and a non-integer exponent; 9 samples in one chunk per worker
    scenario = build_scenario((20.0, 100.0), noise_e=1e-9, alpha=2.418)
    cfg = small_cfg(k=25, step=4.0)
    mc = monte_carlo(scenario, cfg, n=9, seed=11, workers=workers)
    assert len(mc.samples) == 9
    for index, sample in enumerate(mc.samples):
        x, y = np.random.default_rng([11, index]).uniform(0.0, scenario.map_extent, size=2)
        assert sample.sta_m == Point2D(float(x), float(y))
        placed = replace(scenario, sta_m=sample.sta_m)
        for policy in ALL_POLICIES:
            ev = sweep_eavesdropper(placed, replace(cfg, policy=policy), retain_cells=False).arrays
            size = ev.secrecy.size
            expected = PolicyMeans(
                avg_secrecy=math.fsum(ev.secrecy.tolist()) / size,
                avg_secrecy_truncated=math.fsum(np.maximum(ev.secrecy, 0.0).tolist()) / size,
                avg_eve_capacity=math.fsum(ev.cap_eve.tolist()) / size,
                coverage_ratio=int(np.count_nonzero(ev.secrecy > 0.0)) / size,
            )
            got = sample.metrics[policy]
            assert hexed(got) == hexed(expected), (index, policy)


def test_monte_carlo_starts_no_more_workers_than_samples(recording_pool, usable_cpus):
    usable_cpus(64)
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg(k=5, step=24.0)
    capped = monte_carlo(scenario, cfg, n=3, seed=4, workers=64)
    assert len(recording_pool.take()) == 3
    assert capped == monte_carlo(scenario, cfg, n=3, seed=4, workers=1)
    assert recording_pool.take() == [range(3)]
    # one sample forks nothing
    monte_carlo(scenario, cfg, n=1, seed=4, workers=64)
    assert recording_pool.take() == [range(1)]


@pytest.mark.parametrize("n, workers", [(9, 2), (7, 3), (3, 64)])
def test_monte_carlo_gives_each_worker_one_contiguous_chunk(n, workers, recording_pool, usable_cpus):
    usable_cpus(64)
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg(k=3, step=40.0)
    pooled = monte_carlo(scenario, cfg, n=n, seed=4, workers=workers)
    # this process runs the first chunk, the forked workers the others, in the order they started
    ranges = recording_pool.take()
    assert len(ranges) == min(workers, n)
    # contiguous, nonempty and in order, so together exactly range(n)
    assert all(r.step == 1 and len(r) > 0 for r in ranges)
    assert [i for r in ranges for i in r] == list(range(n))
    assert pooled == monte_carlo(scenario, cfg, n=n, seed=4, workers=1)


@pytest.fixture
def optimizer_calls(monkeypatch):
    """Count the grid engine's calls of the array jamming optimizer."""
    calls = []
    best_power = sweep_module._best_power

    def counted(*args):
        calls.append(args)
        return best_power(*args)

    monkeypatch.setattr(sweep_module, "_best_power", counted)
    return calls


@pytest.mark.parametrize(
    "policy, expected",
    [(PolicyKind.NORMAL_WIFI, 0), (PolicyKind.SMART_AP, 0), (PolicyKind.SMART_AP_FJ, 1)],
    ids=lambda value: getattr(value, "value", None),
)
def test_sweep_runs_the_jamming_optimizer_only_for_smart_fj(policy, expected, optimizer_calls):
    # the grid engine yields normal, smart, smart_fj in turn and a sweep stops at its policy
    summary = sweep_eavesdropper(build_scenario(), small_cfg(policy), retain_cells=False)
    assert len(optimizer_calls) == expected
    assert summary.arrays.chosen.size == 25 * 25


def test_monte_carlo_runs_the_jamming_optimizer_once_per_sample(optimizer_calls):
    mc = monte_carlo(build_scenario(), small_cfg(k=5, step=24.0), n=3, seed=5, workers=1)
    assert len(optimizer_calls) == 3
    assert set(mc.samples[0].metrics) == set(ALL_POLICIES)


@pytest.mark.parametrize(
    "cpus, allowed, started",
    [(2, 2, 2), (None, None, 1), (64, 1, 1)],
    ids=["two-cpus", "unknown", "one-allowed-cpu"],
)
def test_monte_carlo_starts_no_more_workers_than_cpus(cpus, allowed, started, recording_pool, monkeypatch):
    # every worker is a process, so 5,000 asked for would be 5,000 processes; only the
    # CPUs in the affinity mask count, and without a mask the CPU count, else one
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if allowed is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(allowed)), raising=False)
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg(k=3, step=40.0)
    capped = monte_carlo(scenario, cfg, n=20, seed=4, workers=5000)
    assert len(recording_pool.take()) == started
    assert capped == monte_carlo(scenario, cfg, n=20, seed=4, workers=1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("first", [False, True], ids=["worker-fails", "caller-fails"])
def test_monte_carlo_raises_a_failed_chunks_error_and_leaves_no_child(first, failing_chunks, usable_cpus):
    usable_cpus(2)
    failing_chunks(first)
    with pytest.raises(ValueError, match="chunk failed"):
        monte_carlo(build_scenario(), small_cfg(k=5, step=24.0), n=4, seed=4, workers=2)
    assert_no_child_left()


def test_monte_carlo_worker_that_dies_without_records_is_an_error(monkeypatch, usable_cpus):
    usable_cpus(2)
    run_chunk = sweep_module._run_chunk
    monkeypatch.setattr(sweep_module, "_run_chunk", lambda *args: os._exit(3) if args[-1].start else run_chunk(*args))
    with pytest.raises(ChildProcessError, match="worker died"):
        monte_carlo(build_scenario(), small_cfg(k=5, step=24.0), n=4, seed=4, workers=2)
    assert_no_child_left()


def open_descriptors():
    return set(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"))


def test_monte_carlo_closes_the_pipe_when_a_fork_fails(monkeypatch, usable_cpus):
    # the first fork "starts" a made-up worker, the second fails as at the process
    # limit; no process is started, so the made-up worker is signalled and reaped on paper
    usable_cpus(3)
    made_up, forks, reaped = 2**22 + 1, [], []  # above the largest pid Linux gives

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return made_up

    def kill(pid, sig):
        assert pid == made_up
        reaped.append(sig)

    def waitpid(pid, options):
        assert pid == made_up
        reaped.append("waited")
        return pid, 0

    before = open_descriptors()
    with monkeypatch.context() as patched:
        for name, fake in (("fork", fork), ("kill", kill), ("waitpid", waitpid)):
            patched.setattr(os, name, fake)
        with pytest.raises(BlockingIOError):
            monte_carlo(build_scenario(), small_cfg(k=5, step=24.0), n=8, seed=4, workers=3)
    assert reaped == [signal.SIGKILL, "waited"]
    assert_no_child_left()
    assert open_descriptors() == before


def test_monte_carlo_without_fork_runs_every_chunk_here(recording_pool, monkeypatch, usable_cpus):
    usable_cpus(2)
    scenario, cfg = build_scenario(), small_cfg(k=5, step=24.0)
    serial = monte_carlo(scenario, cfg, n=5, seed=4, workers=1)
    recording_pool.take()
    monkeypatch.delattr(os, "fork")
    assert monte_carlo(scenario, cfg, n=5, seed=4, workers=2) == serial
    # both chunks ran in this process, in order
    log = [line.split() for line in recording_pool.path.read_text().splitlines()]
    assert log == [[str(os.getpid()), "0", "2"], [str(os.getpid()), "2", "5"]]


def test_monte_carlo_seed_changes_draws():
    scenario = build_scenario((20.0, 100.0))
    cfg = small_cfg(k=5, step=24.0)
    a = monte_carlo(scenario, cfg, n=5, seed=1)
    b = monte_carlo(scenario, cfg, n=5, seed=2)
    assert [s.sta_m for s in a.samples] != [s.sta_m for s in b.samples]


@pytest.mark.parametrize(
    "name, least", [("grid_k", 1), ("n", 1), ("seed", 0), ("workers", 1)], ids=["grid_k", "n", "seed", "workers"]
)
@pytest.mark.parametrize(
    "kind", ["non_integer", "below_least", "numpy_float_scalar", "numpy_int_list", "digit_string", "none"]
)
def test_integer_arguments_follow_one_rule(name, least, kind):
    # grid_k=2.5 would give 3 x 3 cells on a box 1.5 steps wide; operator.index refuses the numpy arrays
    # with a TypeError, which must come out as the rule's ValueError
    value = {
        "non_integer": least + 1.5, "below_least": least - 1, "numpy_float_scalar": np.array(2.0),
        "numpy_int_list": np.array([3]), "digit_string": "3", "none": None,
    }[kind]
    scenario, args = build_scenario((20.0, 100.0)), {"n": 2, "seed": 1, "workers": 1}

    def run(value):
        if name == "grid_k":
            return SweepConfig(grid_k=value)
        return monte_carlo(scenario, small_cfg(k=2, step=60.0), **{**args, name: value})

    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}$"):
        run(value)
    # a numpy integer is an integer, its least included
    run(np.int64(least))


def test_monte_carlo_takes_a_numpy_integer_seed_as_that_int():
    scenario = load_scenario(bundled_scenario_path("scenario1")).scenario
    cfg = SweepConfig(grid_k=6, cell_step=20.0)
    summary = monte_carlo(scenario, cfg, n=3, seed=np.int64(42))
    assert summary == monte_carlo(scenario, cfg, n=3, seed=42)
    assert type(summary.seed) is int


def assert_draw_is_numpys(seed, index, extent):
    got = sweep_module._station_draw(seed, index, extent)
    expected = np.random.default_rng([seed, index]).uniform(0.0, extent, size=2)
    assert hexed(got) == hexed(expected)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**130), st.integers(0, 2**40), st.floats(1e-300, 1e300))
def test_station_draw_equals_numpys_default_rng(seed, index, extent):
    assert_draw_is_numpys(seed, index, extent)


def test_station_draw_equals_numpys_default_rng_at_word_boundaries():
    # a zero gives one entropy word; 2**32 and 2**64 start a new one
    edges = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64)
    for seed in edges:
        for index in edges:
            for extent in (120.0, 37.5, 1e-300, 1e300):
                assert_draw_is_numpys(seed, index, extent)


@pytest.mark.filterwarnings("error")
def test_cells_off_the_map_are_refused_before_they_overflow():
    # scenario1 at alpha 16.86 is accepted on its 120 m map, but cells near
    # (1e4, 1e4) overflow the jamming closed form: both entry points refuse
    # them before any array work, so no numpy warning is raised first
    scenario = load_scenario(bundled_scenario_path("scenario1")).scenario
    cfg = SweepConfig(grid_k=2, cell_origin=Point2D(1e4, 1e4), cell_step=100.0)
    steep = replace(scenario, params=replace(scenario.params, pathloss_alpha=16.86))
    with pytest.raises(ValueError, match="channel.alpha"):
        sweep_eavesdropper(steep, cfg)
    with pytest.raises(ValueError, match="channel.alpha"):
        monte_carlo(steep, cfg, n=2, seed=1)
    # the same cells at alpha 2 are fine
    assert scenario.params.pathloss_alpha == 2.0
    summary = sweep_eavesdropper(scenario, cfg)
    assert len(summary.grid) == 4 and math.isfinite(summary.avg_secrecy)
    assert math.isfinite(monte_carlo(scenario, cfg, n=2, seed=1).means[PolicyKind.SMART_AP_FJ].avg_secrecy)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(cell_step=0.0)
    # a nan step would sweep nan cells, and an inf one is no step either
    for step in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="cell_step must be a finite number > 0"):
            SweepConfig(cell_step=step)
    assert SweepConfig(grid_k=np.int64(3)).grid_k == 3


def fsum_outcome(values):
    """``math.fsum`` as a comparable value: the float's hex, or the error type."""
    try:
        return math.fsum(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def split_sums_outcome(array):
    """Both of ``_exact_sums``' floats as hex, or the error type."""
    try:
        return tuple(total.hex() for total in _exact_sums(array))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def fsums_outcome(values):
    """``math.fsum`` of ``values`` and of ``np.maximum(values, 0.0)`` as lists, as
    hex, or the type of the first error."""
    outcomes = fsum_outcome(values), fsum_outcome(np.maximum(np.array(values, dtype=float), 0.0).tolist())
    return next((o for o in outcomes if isinstance(o, type)), outcomes)


TINY = 2.2250738585072014e-308  # smallest normal double
finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
scaled = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-300, 300))
subnormal = st.floats(min_value=-TINY, max_value=TINY)
special = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0])


signed_zero = st.sampled_from([0.0, -0.0])
negative = st.one_of(finite, scaled, subnormal).filter(lambda v: v != 0.0).map(lambda v: -abs(v))


@given(
    st.lists(st.one_of(finite, scaled, subnormal, signed_zero), max_size=300),
    st.lists(st.one_of(scaled, subnormal), max_size=50),
)
def test_split_sums_match_fsum_of_values_and_of_positive_part(values, cancelling):
    # one set of bins gives both sums; each cancelling value also appears negated
    values = values + cancelling + [-v for v in cancelling]
    assert split_sums_outcome(np.array(values, dtype=float)) == fsums_outcome(values)


@given(
    st.one_of(
        st.lists(negative, min_size=1, max_size=50),
        st.lists(signed_zero, min_size=1, max_size=20),
        st.lists(st.one_of(negative, signed_zero), min_size=1, max_size=50),
        st.lists(st.one_of(subnormal, signed_zero), min_size=1, max_size=50),
        st.lists(st.one_of(finite, scaled, subnormal, special), min_size=1, max_size=1),
    )
)
def test_split_sums_of_negative_zero_subnormal_and_single_lanes(values):
    # all negative or all zero: the positive sum is +0.0, from the passes or, for an all-zero array, from fsum
    assert split_sums_outcome(np.array(values, dtype=float)) == fsums_outcome(values)


@given(st.lists(st.one_of(scaled, special), min_size=1, max_size=30))
def test_split_sums_fall_back_on_inf_and_nan(values):
    assert split_sums_outcome(np.array(values, dtype=float)) == fsums_outcome(values)


@pytest.mark.parametrize(
    "values", [[], [0.0], [-0.0], [1.5], [-1.5], [5e-324], [-TINY], [1.7e308], [-1.7e308], [math.inf], [math.nan]]
)
def test_split_sums_of_empty_and_one_lane_arrays(values):
    assert split_sums_outcome(np.array(values, dtype=float)) == fsums_outcome(values)


def test_split_sums_of_grid_sized_arrays():
    rng = np.random.default_rng(3)
    full_mantissa = np.full(100_000, np.nextafter(2.0, 0.0))
    mixed = rng.normal(size=14_400) * 10.0 ** rng.integers(-300, 300, size=14_400)
    for array in (full_mantissa, -full_mantissa, mixed, rng.normal(size=14_400)):
        assert split_sums_outcome(array) == fsums_outcome(array.tolist())


@pytest.mark.parametrize("k", range(2, 18))
def test_split_sums_at_sizes_around_each_pass_width_step(k):
    # the pass width M, with 2**M >= n + 2, steps up at n = 2**k - 1; lanes just below the power of two
    # above the largest give each pass's sum nearly 2**53 units of 2**-53 * sigma when they share a sign
    rng = np.random.default_rng(k)
    for n in range(max(2**k - 3, 0), 2**k + 2):
        near_two = np.nextafter(2.0, 0.0) - rng.random(n) * 2.0**-20
        for array in near_two, -near_two, near_two * rng.choice([-1.0, 1.0], n), rng.normal(size=n) * 1e-9:
            assert split_sums_outcome(array) == fsums_outcome(array.tolist()), (k, n)


@pytest.mark.parametrize("n", [3, 100, 14_400])
def test_split_sums_just_below_and_above_the_overflow_fallback(n):
    # max|a| below 2**(1000 - M) runs the passes, at or above it goes to fsum; from 2**(1023 - M) on,
    # sigma would overflow
    rng = np.random.default_rng(n)
    limit = 2.0 ** (1000 - (n + 1).bit_length())
    signs = rng.choice([-1.0, 1.0], n)
    for top in np.nextafter(limit, 0.0), limit, np.nextafter(limit, math.inf), limit * 2.0**23, np.finfo(float).max:
        for array in np.full(n, top) / (1.0 + rng.random(n)), signs * top * rng.random(n), signs * top:
            array[0] = top
            assert split_sums_outcome(array) == fsums_outcome(array.tolist()), (n, top)


@pytest.mark.parametrize(
    "values",
    [
        [1.0, 1e-300, 5e-324],
        [1.0, -1e-300, 5e-324, -3 * 5e-324, TINY / 3],
        [1e-300, -1e-310, 5e-324],
        [TINY, -TINY / 2**20, 7 * 5e-324],
        [-1.0, 2.0**-1000, -(2.0**-1060), 2.0**-1074],
        [1e-300] * 50 + [-1e-300] * 49 + [5e-324],
    ],
)
def test_split_sums_whose_remainders_reach_the_sigma_floor(values):
    # the rest keeps a tiny lane until sigma reaches the subnormal range, where a pass is exact
    for array in np.array(values), -np.array(values):
        assert split_sums_outcome(array) == fsums_outcome(array.tolist())


def test_split_sums_of_normal_and_subnormal_lanes_finish_in_passes(monkeypatch):
    # sigma runs on into the subnormal range, where a pass leaves no rest, so fsum only adds the pass sums
    rng = np.random.default_rng(7)
    normal = rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-307.0, 0.0, 1000)
    subnormal = rng.choice([-1.0, 1.0], 1000) * rng.uniform(0.0, TINY, 1000)
    fsum, summed = math.fsum, []

    def recorded_fsum(values):
        summed.append(list(values))
        return fsum(values)

    for array in np.array([1.0, 1e-310, -3e-320, 2.5e-308]), np.concatenate([normal, subnormal]):
        expected = fsums_outcome(array.tolist())
        summed.clear()
        with monkeypatch.context() as mp:
            mp.setattr(math, "fsum", recorded_fsum)
            assert split_sums_outcome(array) == expected
        assert array.tolist() not in summed and np.maximum(array, 0.0).tolist() not in summed
        assert len(summed) == 2


class ShortFsums:
    """``math`` for ``sweep``, whose ``fsum`` refuses more than 64 values: the exact sums' pass sums
    pass, the lanes of an array longer than 64 do not."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def fsum(values):
        values = list(values)
        assert len(values) <= 64, f"fsum of {len(values)} values"
        return math.fsum(values)


def passes_only_sums(array):
    """Both of ``_exact_sums``' floats as hex, with ``sweep``'s ``fsum`` given only the passes' sums."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_module, "math", ShortFsums())
        return tuple(total.hex() for total in _exact_sums(array))


def no_positive_lane_arrays():
    rng = np.random.default_rng(11)
    negative = -(10.0 ** rng.uniform(-300.0, 290.0, 14_400))  # below 2**985, where the passes run
    signed_zeros = rng.choice([0.0, -0.0], 14_400)
    subnormal = -rng.uniform(0.0, TINY, 14_400)
    # the secrecy of a sample whose eavesdroppers are a million times more sensitive than the station
    scenario = build_scenario(noise_e=1e-16)
    eve = sweep_module._eve_terms(scenario, sweep_module._grid_cells(scenario, SweepConfig()))
    work = sweep_module._workspace(eve[0])
    secrecy = next(sweep_module._evaluate_grid(scenario, scenario.sta_m, eve, work))[1].secrecy
    return [
        negative,
        np.where(rng.random(14_400) < 0.5, negative, signed_zeros),
        subnormal,
        np.where(rng.random(14_400) < 0.99, signed_zeros, subnormal),
        np.concatenate([signed_zeros[:-1], [-5e-324]]),
        secrecy.copy(),
    ]


@pytest.mark.parametrize("index", range(6), ids=["negative", "with-zeros", "subnormal", "sparse", "one-lane", "sample"])
def test_exact_sums_with_no_lane_above_zero_take_only_the_passes_sums(index):
    # the positive part of lanes of which none is above 0 sums to +0.0 in the passes, as fsum of the lanes does
    array = no_positive_lane_arrays()[index]
    assert not (array > 0.0).any() and array.any()
    assert passes_only_sums(array) == fsums_outcome(array.tolist())
    assert passes_only_sums(array)[1] == "0x0.0p+0"


def cancelling_arrays():
    rng = np.random.default_rng(12)
    normal = rng.choice([-1.0, 1.0], 7_200) * 10.0 ** rng.uniform(-300.0, 290.0, 7_200)
    subnormal = rng.uniform(0.0, TINY, 7_200)
    return [
        rng.permutation(np.concatenate([normal, -normal])),
        rng.permutation(np.concatenate([subnormal, -subnormal])),
        rng.permutation(np.concatenate([normal[:3_600], subnormal[:3_600], -normal[:3_600], -subnormal[:3_600]])),
        rng.permutation(np.concatenate([[1e290, -1e290], rng.choice([0.0, -0.0], 14_398)])),
    ]


@pytest.mark.parametrize("index", range(4), ids=["normal", "subnormal", "mixed", "two-lanes"])
def test_exact_sums_of_lanes_that_cancel_take_only_the_passes_sums(index):
    # an exact zero sum of lanes not all zero is +0.0, as fsum gives it
    array = cancelling_arrays()[index]
    assert passes_only_sums(array) == fsums_outcome(array.tolist())
    assert passes_only_sums(array)[0] == "0x0.0p+0"


magnitude = st.one_of(st.floats(min_value=5e-324, max_value=1e290), st.floats(min_value=5e-324, max_value=TINY))


@given(
    st.lists(st.one_of(magnitude.map(lambda v: -v), signed_zero), max_size=60),
    magnitude,
    st.integers(65, 600),
    st.randoms(use_true_random=False),
)
def test_drawn_arrays_with_no_lane_above_zero_take_only_the_passes_sums(values, first, size, random):
    # at least one lane below 0, repeated and shuffled to more lanes than fsum takes here
    lanes = np.resize(np.array([-first, *values]), size)
    random.shuffle(lanes)
    assert passes_only_sums(lanes) == fsums_outcome(lanes.tolist())


@given(
    st.lists(st.tuples(magnitude, st.booleans()), min_size=1, max_size=60),
    st.integers(0, 200),
    st.randoms(use_true_random=False),
)
def test_drawn_lanes_that_cancel_take_only_the_passes_sums(values, zeros, random):
    # each drawn value with its negation, and signed zeros, at least 65 lanes
    signed = [v if positive else -v for v, positive in values]
    padding = [random.choice([0.0, -0.0]) for _ in range(max(zeros, 65 - 2 * len(signed)))]
    lanes = signed + [-v for v in signed] + padding
    random.shuffle(lanes)
    assert passes_only_sums(np.array(lanes)) == fsums_outcome(lanes)


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_split_sums_of_every_array_a_monte_carlo_sample_sums(name):
    loaded = load_scenario(bundled_scenario_path(name))
    eve = sweep_module._eve_terms(loaded.scenario, sweep_module._grid_cells(loaded.scenario, loaded.sweep))
    sta_m = Point2D(*sweep_module._station_draw(5, 4, loaded.scenario.map_extent))
    # each item as it is yielded: normal's arrays are smart's buffers once smart's step is asked for
    for _, ev in sweep_module._evaluate_grid(loaded.scenario, sta_m, eve, sweep_module._workspace(eve[0])):
        for array in ev.secrecy, ev.cap_eve:
            assert split_sums_outcome(array) == fsums_outcome(array.tolist())
            # with a workspace's buffers: the eavesdropper sum alone, and the mask of positive lanes
            buffers = np.full_like(array, np.nan), np.full_like(array, np.nan), np.zeros(array.shape, np.bool_)
            assert _exact_sums(array, buffers, positive=False)[0].hex() == math.fsum(array.tolist()).hex()
            _exact_sums(array, buffers)
            assert np.array_equal(buffers[2], array > 0.0)
