"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. The randomized criteria use fixed seeds so every run checks the
same instances.
"""

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from secrecysim import (
    ChannelParams,
    PolicyKind,
    SweepConfig,
    monte_carlo,
    sweep_eavesdropper,
    transmit_power_from_corrected,
    watt_to_dbm,
)
from secrecysim.fjopt import optimize_fj_power

from conftest import (
    build_scenario,
    coefficients,
    direct_ratio,
    grid_search_best,
    log2_ratio,
    random_fj_geometry,
    ratio_denominator,
    write_document,
)

SCENARIOS = {
    "scenario1": (20.0, 100.0),
    "scenario2": (80.0, 20.0),
    "scenario3": (60.0, 38.0),
}
GRID_K = 120

# Regression values computed once from the K=120 grids and frozen: number
# of cells (out of 14400) with strictly positive secrecy.
FROZEN_POSITIVE_CELLS = {
    ("scenario1", PolicyKind.NORMAL_WIFI): 8256,
    ("scenario1", PolicyKind.SMART_AP): 8863,
    ("scenario1", PolicyKind.SMART_AP_FJ): 14288,
    ("scenario2", PolicyKind.NORMAL_WIFI): 9375,
    ("scenario2", PolicyKind.SMART_AP): 10975,
    ("scenario2", PolicyKind.SMART_AP_FJ): 14352,
    ("scenario3", PolicyKind.NORMAL_WIFI): 11615,
    ("scenario3", PolicyKind.SMART_AP): 13801,
    ("scenario3", PolicyKind.SMART_AP_FJ): 14355,
}


def report(number: int, message: str) -> None:
    print(f"\nACCEPTANCE CRITERION {number}: PASS - {message}")


@pytest.fixture(scope="module")
def standard_grids():
    """Per-cell arrays for the three scenarios and three policies."""
    grids = {}
    for name, sta in SCENARIOS.items():
        scenario = build_scenario(sta)
        for policy in PolicyKind:
            summary = sweep_eavesdropper(
                scenario, SweepConfig(grid_k=GRID_K, policy=policy), retain_cells=True
            )
            cells = summary.grid
            grids[(name, policy)] = {
                "x": np.array([c.eve_pos.x for c in cells]),
                "y": np.array([c.eve_pos.y for c in cells]),
                "secrecy": np.array([c.selection.secrecy for c in cells]),
                "eve": np.array([c.selection.cap_eve for c in cells]),
                "fj": np.array([c.selection.fj_power for c in cells]),
                "avg_secrecy": summary.avg_secrecy,
                "avg_eve": summary.avg_eve_capacity,
                "coverage": summary.coverage_ratio,
            }
    return grids


def test_criterion_1_closed_form_matches_dense_grid_search():
    # >= 1000 random geometries per eavesdropper noise, distances U[1,170],
    # alpha in {2,3}, N_m = 1e-10 W and N_e = 1, 0.1 and 10 times that,
    # 50 mW powers; 100,001-point grid oracle; 1e-6*W absolute
    started = time.time()
    worst = 0.0
    for noise_e in (1e-10, 1e-11, 1e-9):
        rng = np.random.default_rng(20240809)
        for _ in range(1000):
            geom = random_fj_geometry(rng, noise_e=noise_e)
            p_opt = optimize_fj_power(*geom)
            secrecy = log2_ratio(coefficients(geom)[2], p_opt)
            oracle_best, _ = grid_search_best(geom, points=100001)
            worst = max(worst, abs(secrecy - oracle_best))
    elapsed = time.time() - started
    assert worst <= 1e-6, f"worst |closed-form - grid| = {worst:g}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(
        1,
        f"1000 geometries x 3 noise ratios, worst |closed-form - grid| = {worst:.3g} <= 1e-6"
        f" ({elapsed:.1f} s)",
    )


def test_criterion_2_coefficients_match_derivative_and_exact_algebra():
    # numeric: the analytic derivative reproduces central differences of
    # the directly-composed ratio to 1e-6 relative at 100 random points
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        geom = random_fj_geometry(rng)
        _, (quad_a, quad_b, quad_c), _ = coefficients(geom)
        p = float(rng.uniform(0.0, geom.p_max))
        h = max(p, geom.p_max * 1e-3) * 1e-5
        numeric = (direct_ratio(geom, p + h) - direct_ratio(geom, p - h)) / (2.0 * h)
        analytic = (quad_a * p * p + quad_b * p + quad_c) / ratio_denominator(geom, p) ** 2
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic))
        worst = max(worst, rel)
        assert rel <= 1e-6

    # exact: the simplified coefficient forms equal the unsimplified
    # expansions in rational arithmetic, on random rational inputs
    int_rng = np.random.default_rng(778)
    for _ in range(100):
        a_, b_, c_, d_, e_, f_, k_, pn, pd = (int(v) for v in int_rng.integers(1, 10**6, 9))
        A, B, C, D, E, F, K = (Fraction(v, 997) for v in (a_, b_, c_, d_, e_, f_, k_))
        P = Fraction(pn, pd)
        assert 2 * P * A * E + P * A * C - 2 * P * A * C - P * A * E == P * A * (E - C)
        assert 2 * P * A * F - 2 * P * A * D == 2 * P * A * (F - D)
        literal = P * B * F + P ** 2 * F * C + P * K * C - P * B * D - P ** 2 * E * D - P * K * E
        assert literal == P * B * (F - D) + P ** 2 * (C * F - E * D) + P * K * (C - E)
    report(2, f"derivative check worst rel = {worst:.3g} <= 1e-6; exact algebra holds on 100 rational draws")


def test_criterion_3_dominance_ordering_zero_violations(standard_grids):
    started = time.time()
    total_cells = 0
    for name in SCENARIOS:
        normal = standard_grids[(name, PolicyKind.NORMAL_WIFI)]
        smart = standard_grids[(name, PolicyKind.SMART_AP)]
        jammed = standard_grids[(name, PolicyKind.SMART_AP_FJ)]
        viol_smart = int(np.count_nonzero(smart["secrecy"] < normal["secrecy"]))
        viol_fj = int(np.count_nonzero(jammed["secrecy"] < smart["secrecy"]))
        assert viol_smart == 0, f"{name}: {viol_smart} smart<normal cells"
        assert viol_fj == 0, f"{name}: {viol_fj} fj<smart cells"
        total_cells += smart["secrecy"].size
        assert jammed["avg_secrecy"] >= smart["avg_secrecy"] >= normal["avg_secrecy"]
        assert jammed["coverage"] >= smart["coverage"] >= normal["coverage"]
    elapsed = time.time() - started
    assert total_cells == 3 * GRID_K * GRID_K
    report(3, f"0 violations across {total_cells} cells and all aggregates ({elapsed:.1f} s)")


def test_criterion_4_no_jamming_concentrates_on_the_edge(standard_grids):
    grid = standard_grids[("scenario1", PolicyKind.SMART_AP_FJ)]
    x, y, fj = grid["x"], grid["y"], grid["fj"]
    ring = (x <= 5) | (x > GRID_K - 5) | (y <= 5) | (y > GRID_K - 5)
    zero_ring = float(np.mean(fj[ring] == 0.0))
    zero_interior = float(np.mean(fj[~ring] == 0.0))
    assert zero_ring > zero_interior
    report(
        4,
        f"zero-jamming fraction: boundary ring {zero_ring:.3f} > interior {zero_interior:.3f}",
    )


def test_criterion_5_jamming_power_band(standard_grids):
    params = ChannelParams()
    assert watt_to_dbm(0.05) == pytest.approx(17.0, abs=0.02)  # P_i is 17 dBm
    fj = standard_grids[("scenario1", PolicyKind.SMART_AP_FJ)]["fj"]
    active = fj[fj > 0.0]
    assert active.size > 0
    dbm_values = np.array(
        [watt_to_dbm(transmit_power_from_corrected(p, params)) for p in active]
    )
    median = float(np.median(dbm_values))
    assert 3.0 <= median <= 12.0
    report(5, f"median active jamming power {median:.2f} dBm in [3, 12] dBm")


def test_criterion_6_secrecy_coverage_high_with_jamming(standard_grids):
    for name in SCENARIOS:
        smart = standard_grids[(name, PolicyKind.SMART_AP)]
        jammed = standard_grids[(name, PolicyKind.SMART_AP_FJ)]
        assert jammed["coverage"] >= 0.95, f"{name}: coverage {jammed['coverage']:.4f}"
        assert jammed["coverage"] > smart["coverage"]
    # frozen regression: strict-positive cell counts per scenario and policy
    for (name, policy), frozen in FROZEN_POSITIVE_CELLS.items():
        positives = int(np.count_nonzero(standard_grids[(name, policy)]["secrecy"] > 0.0))
        assert positives == frozen, f"{name}/{policy.value}: {positives} != {frozen}"
    covs = {n: standard_grids[(n, PolicyKind.SMART_AP_FJ)]["coverage"] for n in SCENARIOS}
    report(6, "jammed coverage " + ", ".join(f"{n}={c:.4f}" for n, c in covs.items()) + " all >= 0.95")


def test_criterion_7_monte_carlo_preserves_ordering():
    started = time.time()
    scenario = build_scenario(SCENARIOS["scenario1"])
    mc = monte_carlo(scenario, SweepConfig(grid_k=GRID_K), n=500, seed=20240809, workers=2)
    elapsed = time.time() - started
    fj = mc.means[PolicyKind.SMART_AP_FJ]
    smart = mc.means[PolicyKind.SMART_AP]
    normal = mc.means[PolicyKind.NORMAL_WIFI]
    assert fj.avg_secrecy >= smart.avg_secrecy >= normal.avg_secrecy
    assert fj.coverage_ratio >= smart.coverage_ratio >= normal.coverage_ratio
    assert fj.avg_eve_capacity < smart.avg_eve_capacity
    assert elapsed < 300.0, f"took {elapsed:.0f} s"
    report(
        7,
        "n=500 means ordered; eavesdropper capacity "
        f"{smart.avg_eve_capacity:.3f} -> {fj.avg_eve_capacity:.3f} bits/s/Hz ({elapsed:.0f} s)",
    )


def test_criterion_8_determinism_across_worker_counts(tmp_path):
    # API level: bit-identical summaries for different worker counts
    scenario = build_scenario(SCENARIOS["scenario1"])
    cfg = SweepConfig(grid_k=GRID_K)
    assert monte_carlo(scenario, cfg, n=16, seed=5, workers=1) == monte_carlo(
        scenario, cfg, n=16, seed=5, workers=2
    )
    # CLI level: byte-identical output files
    scenario_doc = {
        "channel": {
            "bandwidth_hz": 1.0,
            "center_freq_hz": 2.4e9,
            "ref_distance_m": 1.0,
            "alpha": 2.0,
            "noise_m_watt": 1e-10,
            "noise_e_watt": 1e-10,
        },
        "aps": [
            {"x": 40.0, "y": 60.0, "tx_power_watt": 0.05, "tx_power_max_watt": 0.05},
            {"x": 80.0, "y": 60.0, "tx_power_watt": 0.05, "tx_power_max_watt": 0.05},
        ],
        "sta_m": {"x": 20.0, "y": 100.0},
        "grid": {"k": 120, "step_m": 1.0},
        "policy": "smart_fj",
    }
    config = write_document(tmp_path, scenario_doc)
    trees = {}
    for label, threads in (("a", "1"), ("b", "2")):
        out = tmp_path / label
        proc = subprocess.run(
            [
                sys.executable, "-m", "secrecysim.cli", "sweep",
                "--scenario", str(config), "--out-dir", str(out),
                "--monte-carlo-n", "8", "--seed", "5", "--threads", threads,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        trees[label] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert trees["a"] == trees["b"]
    assert len(trees["a"]) == 5
    report(8, "API summaries and all 5 CLI output files byte-identical for 1 vs 2 workers")


def test_criterion_9_absolute_values_scale_with_bandwidth():
    # the absolute capacity scales of the published maps are unknowable
    # without W: every capacity scales linearly in W, while associations,
    # jamming powers and coverage are W-invariant (criteria 3-6 pin those)
    w = 20e6
    base = build_scenario(SCENARIOS["scenario1"])
    wide = build_scenario(SCENARIOS["scenario1"], bandwidth=w)
    cfg = SweepConfig(grid_k=40, cell_step=3.0)
    narrow_summary = sweep_eavesdropper(base, cfg)
    wide_summary = sweep_eavesdropper(wide, cfg)
    for narrow_cell, wide_cell in zip(narrow_summary.grid, wide_summary.grid):
        a, b = narrow_cell.selection, wide_cell.selection
        assert b.chosen_ap == a.chosen_ap
        assert b.fj_power == a.fj_power
        assert b.secrecy == pytest.approx(w * a.secrecy, rel=1e-12, abs=1e-9)
    assert wide_summary.coverage_ratio == narrow_summary.coverage_ratio
    assert wide_summary.avg_secrecy == pytest.approx(w * narrow_summary.avg_secrecy, rel=1e-12)
    report(
        9,
        "capacities scale by W (absolute map values undefined without it); "
        "associations, jamming powers and coverage are W-invariant",
    )
