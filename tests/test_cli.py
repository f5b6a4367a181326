import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secrecysim import (
    ALL_POLICIES,
    BUNDLED_SCENARIOS,
    PolicyKind,
    bundled_scenario_path,
    load_scenario,
    monte_carlo,
    read_heatmap,
    read_summary,
    sweep_eavesdropper,
    transmit_power_from_corrected,
    watt_to_dbm,
)
from secrecysim import cli
from secrecysim.cli import main
from secrecysim.scenario_io import temp_path

from conftest import (
    UNDERFLOW_DOCUMENT, bundled_document, cut_short_writes, hexed, run_fresh, run_python, write_document,
)

SMALL = {
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
    "grid": {"k": 24, "step_m": 5.0},
    "policy": "smart_fj",
}

HEATMAP_KINDS = ("secrecy", "eve_capacity", "association", "fj_power_dbm")


@pytest.fixture
def small_scenario(tmp_path):
    return write_document(tmp_path, SMALL, "small.json")


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_sweep_all_policies_writes_full_inventory(small_scenario, tmp_path):
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", str(small_scenario), "--policy", "all", "--out-dir", str(out)])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    expected = {
        f"{policy}_{kind}.csv" for policy in ("normal", "smart", "smart_fj") for kind in HEATMAP_KINDS
    } | {f"{policy}_summary.json" for policy in ("normal", "smart", "smart_fj")}
    assert names == expected
    assert len([n for n in names if n.endswith(".csv")]) == 12

    k = SMALL["grid"]["k"]
    for policy in ("normal", "smart", "smart_fj"):
        x, y, assoc = read_heatmap(out / f"{policy}_association.csv")
        assert len(assoc) == k * k
        assert set(assoc) <= {1.0, 2.0}
        _, _, fj_dbm = read_heatmap(out / f"{policy}_fj_power_dbm.csv")
        if policy == "smart_fj":
            assert any(math.isfinite(v) for v in fj_dbm)
        else:
            assert all(v == -math.inf for v in fj_dbm)
        _, _, secrecy = read_heatmap(out / f"{policy}_secrecy.csv")
        assert min(secrecy) >= 0.0  # maps floor at zero; raw means live in the summary


def test_sweep_summary_matches_api(small_scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(small_scenario), "--out-dir", str(out)]) == 0
    document = read_summary(out / "smart_fj_summary.json")
    loaded = load_scenario(small_scenario)
    direct = sweep_eavesdropper(loaded.scenario, loaded.sweep, retain_cells=False)
    assert document["policy"] == "smart_fj"
    assert document["avg_secrecy"] == direct.avg_secrecy
    assert document["avg_secrecy_truncated"] == direct.avg_secrecy_truncated
    assert document["avg_eve_capacity"] == direct.avg_eve_capacity
    assert document["coverage_ratio"] == direct.coverage_ratio
    assert document["scenario"] == loaded.echo
    assert "monte_carlo" not in document


def test_sweep_policy_defaults_to_scenario_file(small_scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(small_scenario), "--out-dir", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {
        "smart_fj_secrecy.csv",
        "smart_fj_eve_capacity.csv",
        "smart_fj_association.csv",
        "smart_fj_fj_power_dbm.csv",
        "smart_fj_summary.json",
    }


def test_sweep_is_deterministic(small_scenario, tmp_path):
    args = ["sweep", "--scenario", str(small_scenario), "--policy", "all"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_sweep_monte_carlo_identical_across_thread_counts(small_scenario, tmp_path):
    base = [
        "sweep", "--scenario", str(small_scenario), "--policy", "smart_fj",
        "--monte-carlo-n", "6", "--seed", "7",
    ]
    assert main(base + ["--out-dir", str(tmp_path / "a"), "--threads", "1"]) == 0
    assert main(base + ["--out-dir", str(tmp_path / "b"), "--threads", "2"]) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    document = read_summary(tmp_path / "a" / "smart_fj_summary.json")
    assert document["monte_carlo"]["n"] == 6
    assert document["monte_carlo"]["seed"] == 7
    assert set(document["monte_carlo"]["means"]) == {
        "avg_secrecy", "avg_secrecy_truncated", "avg_eve_capacity", "coverage_ratio",
    }


def test_sweep_honors_scenario_file_monte_carlo_block(tmp_path):
    doc = json.loads(json.dumps(SMALL))
    doc["monte_carlo"] = {"enabled": True, "n": 3, "seed": 11}
    path = write_document(tmp_path, doc, "mc.json")
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(path), "--out-dir", str(out)]) == 0
    document = read_summary(out / "smart_fj_summary.json")
    assert document["monte_carlo"]["n"] == 3
    assert document["monte_carlo"]["seed"] == 11


def test_sweep_invalid_scenario_fails_cleanly(tmp_path, capsys):
    doc = json.loads(json.dumps(SMALL))
    doc["channel"]["fading"] = 3.0
    path = write_document(tmp_path, doc, "bad.json")
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", str(path), "--out-dir", str(out)])
    assert rc == 1
    assert "fading" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_sweep_writes_a_finite_dbm_for_jamming_powers_above_1_8e305_watt(tmp_path):
    # power_watt * 1000 overflowed there, and 19 of the 64 cells read inf
    doc = strong_ap_document(1e306, 1e307, center_freq_hz=2.385732596947511e157, noise_m_watt=20.0, noise_e_watt=20.0)
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", str(write_document(tmp_path, doc)), "--policy", "smart_fj", "--out-dir", str(out)])
    assert rc == 0
    _, _, dbm = read_heatmap(out / "smart_fj_fj_power_dbm.csv")
    jamming = dbm[dbm > -math.inf]
    assert len(dbm) == 64 and np.isfinite(jamming).all() and (jamming > 3082.5).sum() == 19
    assert jamming.max() < 3092.2


@pytest.mark.parametrize(
    "section, key, literal, message",
    [
        ("channel", "noise_m_watt", "NaN", "channel.noise_m_watt must be a finite number"),
        ("channel", "alpha", "9" * 400, "channel.alpha must be a finite number"),
        ("sta_m", "x", "-Infinity", "sta_m.x must be a finite number"),
        ("grid", "step_m", "1e999", "grid.step_m must be a finite number"),
        ("grid", "k", "9" * 400, "grid"),
    ],
    ids=["nan-noise", "400-digit-alpha", "-inf-sta", "1e999-step", "400-digit-k"],
)
def test_sweep_non_finite_number_fails_cleanly(section, key, literal, message, tmp_path, capsys):
    doc = json.loads(json.dumps(SMALL))
    doc[section][key] = "@literal@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"@literal@"', literal))
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", str(path), "--policy", "all", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and message in err
    assert not out.exists()


def strong_ap_document(tx, cap, **channel):
    """scenario1 on an 8 x 8 grid of 15 m steps, both APs at ``tx`` W with caps ``cap`` W, channel keys updated."""
    doc = bundled_document("scenario1", **channel)
    for ap in doc["aps"]:
        ap.update(tx_power_watt=tx, tx_power_max_watt=cap)
    doc["grid"] = {"k": 8, "step_m": 15.0}
    return doc


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "doc, key",
    [
        (bundled_document("scenario1", center_freq_hz=1e-200), "channel.center_freq_hz"),
        (bundled_document("scenario1", noise_e_watt=1e-320), "noise_e_watt"),
        (bundled_document("scenario1", alpha=400.0, ref_distance_m=10.0), "alpha"),
        (bundled_document("scenario1", alpha=20.0), "channel.alpha"),
        (bundled_document("scenario1", alpha=30.0), "channel.alpha"),
        (UNDERFLOW_DOCUMENT, "channel.noise_m_watt"),
        # 1 W's corrected power, which converts the jamming power back to W, is subnormal or infinite:
        # once, the dBm column took inf and nan in 64 of 64 cells, or -inf in all 64
        (strong_ap_document(1e300, 1e300, center_freq_hz=1e200, noise_m_watt=1e-100, noise_e_watt=1e-100), "1 W"),
        (strong_ap_document(5e-316, 5e-316, center_freq_hz=2.38732414637843e-148), "1 W"),
    ],
    ids=[
        "f0-1e-200", "subnormal-noise-e", "alpha-400-d0-10", "alpha-20", "alpha-30", "underflow",
        "1-watt-subnormal", "1-watt-overflows",
    ],
)
def test_sweep_refuses_derived_numbers_that_are_not_finite(doc, key, tmp_path, capsys):
    # each loads key by key, but once gave NaN summaries, overflow or
    # divide-by-zero warnings or a traceback; any warning fails this test
    path = write_document(tmp_path, doc, "bad.json")
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", str(path), "--policy", "all", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1 and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["sweep", "--policy", "all", "--out-dir"],
        ["sweep", "--monte-carlo-n", "2", "--threads", "1", "--out-dir"],
        ["compare", "--out"],
    ],
    ids=["sweep", "sweep-monte-carlo", "compare"],
)
def test_grid_too_large_to_allocate_fails_cleanly(command, tmp_path, capsys):
    # a finite extent (1e6 m) that loads, but 1e18 cells per axis; np.arange
    # refuses this size before it touches any memory
    doc = json.loads(json.dumps(SMALL))
    doc["grid"] = {"k": 1000000000000000000, "step_m": 1e-12}
    path = write_document(tmp_path, doc, "huge.json")
    out = tmp_path / "out"
    rc = main([command[0], "--scenario", str(path), *command[1:], str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def per_cell_heatmaps(loaded) -> dict[str, bytes]:
    """Every heatmap CSV of ``sweep --policy all``, built from per-cell
    objects with one f-string per value."""
    params = loaded.scenario.params
    kinds = {
        "secrecy": lambda sel: max(sel.secrecy, 0.0),
        "eve_capacity": lambda sel: sel.cap_eve,
        "association": lambda sel: sel.chosen_ap,
        "fj_power_dbm": lambda sel: watt_to_dbm(transmit_power_from_corrected(sel.fj_power, params)),
    }
    files = {}
    for policy in ALL_POLICIES:
        cfg = replace(loaded.sweep, policy=policy)
        grid = sweep_eavesdropper(loaded.scenario, cfg, retain_cells=True).grid
        for kind, value in kinds.items():
            lines = ["x,y,value"] + [
                f"{float(c.eve_pos.x):.9g},{float(c.eve_pos.y):.9g},{float(value(c.selection)):.9g}"
                for c in grid
            ]
            files[f"{policy.value}_{kind}.csv"] = ("\n".join(lines) + "\n").encode("utf-8")
    return files


@pytest.mark.parametrize("which", ["scenario1", "small_noise_e_10x"])
def test_sweep_heatmaps_match_per_cell_oracle(which, tmp_path):
    if which == "scenario1":
        scenario = "scenario1"
        path = bundled_scenario_path(scenario)
    else:
        doc = json.loads(json.dumps(SMALL))
        doc["channel"]["noise_e_watt"] = 10 * doc["channel"]["noise_m_watt"]
        path = write_document(tmp_path, doc, "noisy.json")
        scenario = str(path)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", scenario, "--policy", "all", "--out-dir", str(out)]) == 0
    written = {name: data for name, data in tree_bytes(out).items() if name.endswith(".csv")}
    assert written == per_cell_heatmaps(load_scenario(path))


def test_sweep_missing_scenario_fails(tmp_path, capsys):
    rc = main(["sweep", "--scenario", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


def test_sweep_partial_outputs_removed_on_write_failure(small_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    keep = out / "unrelated.txt"
    keep.write_text("precious")
    # a directory squatting on a target filename forces a mid-run write error
    (out / "smart_fj_association.csv").mkdir()
    rc = main(["sweep", "--scenario", str(small_scenario), "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    leftovers = {p.name for p in out.iterdir() if p.is_file()}
    assert leftovers == {"unrelated.txt"}
    assert keep.read_text() == "precious"


def test_sweep_interrupt_removes_outputs_and_propagates(small_scenario, tmp_path, monkeypatch):
    def interrupted(path, document):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_summary", interrupted)
    for out, created in ((tmp_path / "out", tmp_path / "out"), (tmp_path / "a" / "b", tmp_path / "a")):
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--scenario", str(small_scenario), "--policy", "all", "--out-dir", str(out)])
        # the four CSVs of the first policy were written before the interrupt;
        # they and every directory the run created are gone
        assert not created.exists()


def test_sweep_failure_removes_leftover_temp_files(small_scenario, tmp_path, monkeypatch):
    def cut_short(path, document):
        # a write stopped between creating its temp file and the rename
        temp_path(path).write_text("{")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_summary", cut_short)
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", str(small_scenario), "--out-dir", str(out)])
    assert rc == 1
    assert not out.exists()



def test_sweep_out_dir_failing_half_way_leaves_no_directory(small_scenario, tmp_path, capsys):
    # mkdir makes new, then fails on a name longer than the file system allows
    out = tmp_path / "new" / ("x" * 300)
    rc = main(["sweep", "--scenario", str(small_scenario), "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno.ENAMETOOLONG}]")
    assert not (tmp_path / "new").exists()


def test_sweep_failure_removes_a_file_the_run_replaced(small_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "normal_secrecy.csv").write_text("previous")
    # normal's files are written, the previous one replaced, before smart_fj's association fails
    (out / "smart_fj_association.csv").mkdir()
    rc = main(["sweep", "--scenario", str(small_scenario), "--policy", "all", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert [p.name for p in out.iterdir()] == ["smart_fj_association.csv"]


FAULTS = {"oserror": OSError("disk full"), "interrupt": KeyboardInterrupt()}


def main_cut_short(argv, fault, monkeypatch, capsys):
    """``main(argv)`` while the first write to a file opened for writing writes half its text and raises ``fault``."""
    with monkeypatch.context() as patched:
        cut_short_writes(patched, fault)
        if isinstance(fault, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 1
            assert capsys.readouterr().err == "error: disk full\n"


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
def test_compare_cut_short_leaves_the_previous_table(fault, small_scenario, tmp_path, monkeypatch, capsys):
    out = tmp_path / "table.json"
    out.write_text('{"old": true}')
    main_cut_short(["compare", "--scenario", str(small_scenario), "--out", str(out)], fault, monkeypatch, capsys)
    assert out.read_text() == '{"old": true}'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.json", "table.json"]


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
def test_sweep_cut_short_leaves_the_previous_outputs(fault, small_scenario, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "normal_secrecy.csv").write_text("previous")
    argv = ["sweep", "--scenario", str(small_scenario), "--policy", "normal", "--out-dir", str(out)]
    main_cut_short(argv, fault, monkeypatch, capsys)
    assert tree_bytes(out) == {"normal_secrecy.csv": b"previous"}


def test_compare_three_scenarios_orders_policies(tmp_path):
    paths = []
    for idx, sta in enumerate([(20.0, 100.0), (80.0, 20.0), (60.0, 38.0)], start=1):
        doc = json.loads(json.dumps(SMALL))
        doc["sta_m"] = {"x": sta[0], "y": sta[1]}
        paths.append(write_document(tmp_path, doc, f"s{idx}.json"))
    out = tmp_path / "table.json"
    args = ["compare"]
    for path in paths:
        args += ["--scenario", str(path)]
    assert main(args + ["--out", str(out)]) == 0
    table = read_summary(out)
    assert table["mode"] == "sweep"
    assert table["policies"] == ["normal", "smart", "smart_fj"]
    assert len(table["rows"]) == 3
    for row in table["rows"]:
        metrics = row["metrics"]
        assert metrics["smart_fj"]["avg_secrecy"] >= metrics["smart"]["avg_secrecy"]
        assert metrics["smart"]["avg_secrecy"] >= metrics["normal"]["avg_secrecy"]
        assert metrics["smart_fj"]["coverage_ratio"] >= metrics["smart"]["coverage_ratio"]
        assert metrics["smart_fj"]["avg_eve_capacity"] <= metrics["smart"]["avg_eve_capacity"]


def test_compare_monte_carlo_single_sample_equals_sweep_at_drawn_location(small_scenario, tmp_path):
    out = tmp_path / "table.json"
    rc = main([
        "compare", "--scenario", str(small_scenario),
        "--monte-carlo-n", "1", "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    table = read_summary(out)
    assert table["mode"] == "monte_carlo"
    assert table["monte_carlo"] == {"n": 1, "seed": 5}

    loaded = load_scenario(small_scenario)
    mc = monte_carlo(loaded.scenario, loaded.sweep, n=1, seed=5)
    placed = replace(loaded.scenario, sta_m=mc.samples[0].sta_m)
    metrics = table["rows"][0]["metrics"]
    for policy in PolicyKind:
        direct = sweep_eavesdropper(
            placed, replace(loaded.sweep, policy=policy), retain_cells=False
        )
        assert metrics[policy.value]["avg_secrecy"] == direct.avg_secrecy
        assert metrics[policy.value]["coverage_ratio"] == direct.coverage_ratio


def test_compare_monte_carlo_deterministic(small_scenario, tmp_path):
    args = [
        "compare", "--scenario", str(small_scenario),
        "--monte-carlo-n", "4", "--seed", "9",
    ]
    assert main(args + ["--out", str(tmp_path / "a.json"), "--threads", "1"]) == 0
    assert main(args + ["--out", str(tmp_path / "b.json"), "--threads", "2"]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_compare_writes_to_stdout_by_default(small_scenario, capsys):
    assert main(["compare", "--scenario", str(small_scenario)]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["rows"][0]["scenario"] == "small"


def test_compare_unknown_scenario_fails(capsys):
    rc = main(["compare", "--scenario", "scenario9"])
    assert rc == 1
    assert "scenario9" in capsys.readouterr().err


def test_bundled_scenario_resolves_by_name(tmp_path):
    out = tmp_path / "table.json"
    assert main(["compare", "--scenario", "scenario3", "--out", str(out)]) == 0
    table = read_summary(out)
    assert table["rows"][0]["scenario"] == "scenario3"
    assert table["rows"][0]["metrics"]["smart_fj"]["coverage_ratio"] > 0.95


def test_threads_env_fallback(small_scenario, tmp_path, monkeypatch):
    monkeypatch.setenv("SECRECY_SIM_THREADS", "2")
    args = [
        "sweep", "--scenario", str(small_scenario), "--policy", "smart",
        "--monte-carlo-n", "4", "--seed", "3",
    ]
    assert main(args + ["--out-dir", str(tmp_path / "env")]) == 0
    monkeypatch.delenv("SECRECY_SIM_THREADS")
    assert main(args + ["--out-dir", str(tmp_path / "plain")]) == 0
    assert tree_bytes(tmp_path / "env") == tree_bytes(tmp_path / "plain")


def test_threads_beyond_the_cpu_count_start_no_more_workers(
    small_scenario, tmp_path, monkeypatch, recording_pool, usable_cpus
):
    usable_cpus(2)
    args = ["sweep", "--scenario", str(small_scenario), "--policy", "smart", "--monte-carlo-n", "8"]
    monkeypatch.setenv("SECRECY_SIM_THREADS", "5000")
    assert main(args + ["--out-dir", str(tmp_path / "env")]) == 0
    assert len(recording_pool.take()) == 2
    monkeypatch.delenv("SECRECY_SIM_THREADS")
    assert main(args + ["--out-dir", str(tmp_path / "flag"), "--threads", "5000"]) == 0
    assert len(recording_pool.take()) == 2
    assert tree_bytes(tmp_path / "env") == tree_bytes(tmp_path / "flag")


@pytest.mark.parametrize("first", [False, True], ids=["worker-fails", "caller-fails"])
def test_sweep_monte_carlo_chunk_failure_fails_cleanly(
    first, small_scenario, tmp_path, monkeypatch, capsys, failing_chunks, usable_cpus
):
    usable_cpus(2)
    failing_chunks(first)
    out = tmp_path / "out"
    out.mkdir()
    args = ["sweep", "--scenario", str(small_scenario), "--policy", "all", "--out-dir", str(out)]
    assert main(args + ["--monte-carlo-n", "4", "--threads", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: chunk failed")
    assert list(out.iterdir()) == []
    # no worker is left, and none ran the CLI's cleanup or wrote a file
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "env, flag",
    [("abc", None), ("0", None), (None, "0"), (None, "-3"), (None, "abc")],
    ids=["env-abc", "env-0", "flag-0", "flag-minus-3", "flag-abc"],
)
def test_threads_must_be_positive_integer(env, flag, small_scenario, tmp_path, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("SECRECY_SIM_THREADS", raising=False)
    else:
        monkeypatch.setenv("SECRECY_SIM_THREADS", env)
    out = tmp_path / "out"
    args = ["sweep", "--scenario", str(small_scenario), "--out-dir", str(out)]
    if flag is not None:
        args += ["--threads", flag]
    assert main(args) == 1
    name = "--threads" if flag is not None else "SECRECY_SIM_THREADS"
    assert capsys.readouterr().err == f"error: {name} must be an integer >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize(
    "option, text",
    [("--monte-carlo-n", "abc"), ("--seed", "x"), ("--monte-carlo-n", "0"), ("--seed", "-1")],
)
def test_bad_integer_option_fails_cleanly(command, option, text, small_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    args = [command, "--scenario", str(small_scenario), option, text]
    args += ["--out-dir", str(out)] if command == "sweep" else ["--out", str(out)]
    if option == "--seed":
        args += ["--monte-carlo-n", "2"]
    assert main(args) == 1
    least = 0 if option == "--seed" else 1
    assert capsys.readouterr().err == f"error: {option} must be an integer >= {least}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_deeply_nested_scenario_fails_cleanly(command, tmp_path, capsys):
    # json's decoder gives up on this depth with a RecursionError, not a JSONDecodeError
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    out = tmp_path / "out"
    args = [command, "--scenario", str(path)] + (["--out-dir", str(out)] if command == "sweep" else ["--out", str(out)])
    assert main(args) == 1
    assert capsys.readouterr().err == "error: not valid JSON: nested too deeply\n"
    assert not out.exists()


def key_paths(doc, path=()):
    """The path of every key of a scenario document, its sections and list entries included."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, path + (key,))


DROP, NESTED = object(), "@nested@"
EXTREME_FLOATS = (sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324, 1e-300, 1e300, 0.0, -0.0)
# the counts that set the work of a run, drawn so no grid exceeds 64 x 64 cells and no run takes 100 samples;
# mutated, they may fall below their least
GRID_K, FILE_N = st.integers(1, 64), st.integers(1, 3)
MUTATED_COUNTS = {("grid", "k"): st.integers(-2, 64), ("monte_carlo", "n"): st.integers(-2, 3)}
COUNTS = {
    "--monte-carlo-n": st.integers(1, 3),
    "--seed": st.integers(0, 2**70),
    "--threads": st.integers(1, 2),
    "SECRECY_SIM_THREADS": st.integers(1, 2),
}
# a count's text: integers near its least, unicode digits and texts int() refuses, 5,000 digits among them (more
# than int() parses); any other count text is at most two digits
COUNT_TEXTS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["", " 2 ", "1_0", "+1", "-0", "1.0", "1e1", "0x1", "٣", "２", "nan", "\x00", "9" * 5000]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=2),
)


def mutate_key(draw, doc) -> str:
    """Drop one key of ``doc``, retype it or set it to an extreme float; the document's JSON text."""
    path = draw(st.sampled_from(list(key_paths(doc))))
    values = [
        st.just("1"), st.booleans(), st.just([1.0]), st.just({"x": 1.0}), st.none(), st.just(NESTED),
        MUTATED_COUNTS.get(path[-2:], st.just(10**400)),
        st.sampled_from(EXTREME_FLOATS),
    ]
    # without the grid or its k, the run would sweep the default 120 x 120 cells
    if path not in (("grid",), ("grid", "k")):
        values.append(st.just(DROP))
    value, parent = draw(st.one_of(values)), doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    depth = draw(st.integers(1, 3000))
    return json.dumps(doc).replace(f'"{NESTED}"', "[" * depth + "]" * depth)


@st.composite
def mutated_runs(draw):
    """``(file bytes, {count: text})`` with one fault: one key of a bundled scenario document (with a grid of at
    most 64 x 64 cells and maybe a Monte Carlo block), the file (cut short, invalid UTF-8 or nested too deeply)
    or the text of one count option or of ``SECRECY_SIM_THREADS``; the counts not at fault are absent or valid."""
    doc = bundled_document(draw(st.sampled_from(BUNDLED_SCENARIOS)))
    k = draw(GRID_K)
    doc["grid"] = {"k": k, "step_m": 120.0 / k}
    if draw(st.booleans()):
        n, seed = draw(FILE_N), draw(COUNTS["--seed"])
        doc["monte_carlo"] = {"enabled": draw(st.booleans()), "n": n, "seed": seed}
    counts = {name: str(draw(texts)) for name, texts in COUNTS.items() if draw(st.booleans())}
    site = draw(st.sampled_from(["key", "truncated", "invalid_utf8", "nested", *COUNTS]))
    text = (mutate_key(draw, doc) if site == "key" else json.dumps(doc)).encode()
    cut = draw(st.integers(0, len(text)))
    if site == "truncated":
        text = text[:cut]
    elif site == "invalid_utf8":
        text = text[:cut] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + text[cut:]
    elif site == "nested":
        text = b"[" * draw(st.integers(1, 200_000))
    elif site in COUNTS:
        # an environment variable cannot hold a NUL
        texts = COUNT_TEXTS.filter(lambda t: "\x00" not in t) if site == "SECRECY_SIM_THREADS" else COUNT_TEXTS
        counts[site] = draw(texts)
    return text, counts


@settings(max_examples=200, deadline=None)
@given(
    run=mutated_runs(),
    command=st.sampled_from(["sweep", "compare"]),
    policy=st.sampled_from([None, "normal", "smart", "smart_fj", "all"]),
)
def test_main_on_mutated_input_exits_cleanly(run, command, policy):
    text, counts = run
    env_threads = counts.pop("SECRECY_SIM_THREADS", None)
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        scenario.write_bytes(text)
        out.mkdir()
        argv = [command, "--scenario", str(scenario), *(f"{option}={value}" for option, value in counts.items())]
        if command == "sweep":
            argv += ["--out-dir", str(out / "run")] + ([f"--policy={policy}"] if policy else [])
        else:
            argv += ["--out", str(out / "table.json")]
        err = io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stderr(err):
            os.environ.pop("SECRECY_SIM_THREADS", None)
            if env_threads is not None:
                os.environ["SECRECY_SIM_THREADS"] = env_threads
            code = main(argv)
        left = [p.name for p in out.rglob("*")]
    err = err.getvalue()
    assert code in (0, 1), err
    if code == 0:
        assert err == ""
        assert not [name for name in left if name.endswith(".tmp")]
    else:
        # one line, so no traceback and no warning
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert left == []


@pytest.mark.parametrize("monte_carlo_n", [None, "2"])
def test_sweep_summary_key_order(monte_carlo_n, small_scenario, tmp_path):
    out = tmp_path / "out"
    args = ["sweep", "--scenario", str(small_scenario), "--policy", "all", "--out-dir", str(out)]
    if monte_carlo_n is not None:
        args += ["--monte-carlo-n", monte_carlo_n]
    assert main(args) == 0
    expected = [
        "tool_version", "policy", "avg_secrecy", "avg_secrecy_truncated",
        "avg_eve_capacity", "coverage_ratio", "scenario",
    ]
    if monte_carlo_n is not None:
        expected.append("monte_carlo")
    for policy in ("normal", "smart", "smart_fj"):
        document = json.loads((out / f"{policy}_summary.json").read_text())
        assert list(document) == expected


def blocks_of_live_lanes():
    """A column of more than two blocks of live lanes (``p > 0`` or ``nan``); the
    zeros and negatives between them shift those blocks off the blocks of rows,
    and ``nan``, ``inf`` and ``5e-324`` sit on each side of their edges."""
    block = 1024  # the CLI's block of rows
    powers = np.linspace(1e-4, 2.0, 4 * block)
    powers[1::3] = 0.0
    powers[2::7] = -1e-3
    live = np.flatnonzero(powers > 0.0)
    assert len(live) > 2 * block
    for k, lane in enumerate([block - 1, block, 2 * block - 1, 2 * block, len(live) - 1]):
        powers[live[lane]] = (math.nan, math.inf, 5e-324)[k % 3]
    return powers


def test_dbm_column_matches_scalar_watt_to_dbm():
    specials = np.array(
        [0.0, -0.0, -1e-3, -math.inf, math.nan, math.inf, 5e-324, 1e-3, 0.05, 0.1234, 2.0, 0.0]
    )
    for powers in (specials, blocks_of_live_lanes()):
        expected = [watt_to_dbm(p) for p in powers.tolist()]
        got = cli._dbm_column(powers)
        assert got is powers  # written over the column it was given
        assert hexed(got) == hexed(expected)


def test_sweep_without_monte_carlo_never_imports_the_pool(small_scenario, tmp_path):
    # nor with it: Monte Carlo forks its workers itself
    script = (
        "import sys\n"
        "import secrecysim.cli\n"
        "for out, extra in ((sys.argv[2], []), (sys.argv[3], ['--monte-carlo-n', '4', '--threads', '2'])):\n"
        "    argv = ['sweep', '--scenario', sys.argv[1], '--policy', 'all', '--out-dir', out] + extra\n"
        "    assert secrecysim.cli.main(argv) == 0\n"
        "    print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))\n"
    )
    proc = run_fresh(script, small_scenario, tmp_path / "out", tmp_path / "mc")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"
    assert len(list((tmp_path / "out").iterdir())) == 15
    assert len(list((tmp_path / "mc").iterdir())) == 15


def test_monte_carlo_never_imports_numpys_random_module(tmp_path):
    # the pytest process has imported it already, so a fresh interpreter runs the commands
    script = (
        "import sys\n"
        "import secrecysim.cli\n"
        "argv = ['sweep', '--scenario', 'scenario1', '--policy', 'smart_fj', '--monte-carlo-n', '3',\n"
        "        '--threads', '2', '--out-dir', sys.argv[1]]\n"
        "assert secrecysim.cli.main(argv) == 0\n"
        "assert secrecysim.cli.main(['compare', '--scenario', 'scenario1', '--monte-carlo-n', '2']) == 0\n"
        "assert 'numpy.random' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
    )
    proc = run_fresh(script, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert '"monte_carlo"' in proc.stdout
    assert len(list((tmp_path / "out").iterdir())) == 5


@pytest.mark.parametrize("caller_value", [None, "2"], ids=["unset", "set-by-caller"])
def test_cli_loads_numpy_with_one_blas_thread_and_leaves_the_environment_as_it_was(caller_value, monkeypatch):
    if caller_value is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller_value)
    script = (
        "import os\n"
        "import secrecysim.cli\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None)\n"
    )
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    assert value == str(caller_value)
    if caller_value is None:
        if threads == "None":
            pytest.skip("no /proc/self/task to count this process's threads")
        # no idle OpenBLAS worker, whatever the core count
        assert threads == "1"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["sweep", "--scenario", "{scenario}", "--policy", "all", "--out-dir", "{out}"], 0),
        (["sweep", "--scenario", "no_such_scenario", "--out-dir", "{out}"], 1),
        (["sweep", "--no-such-flag"], 2),
    ],
    ids=["version", "sweep", "unknown-scenario", "bad-flag"],
)
def test_the_process_entry_point_keeps_its_streams_and_exit_codes(argv, code, small_scenario, tmp_path, capsys):
    # python -m calls main() on sys.argv, which freezes what the run made as main returns; a
    # caller's main(argv) does not, so both must print and exit alike
    def filled(out):
        return [arg.format(scenario=small_scenario, out=tmp_path / out) for arg in argv]

    proc = run_python("-m", "secrecysim.cli", *filled("process"))
    try:
        in_process = main(filled("in_process"))
    except SystemExit as exc:
        in_process = exc.code
    captured = capsys.readouterr()
    assert (proc.returncode, in_process) == (code, code), proc.stderr
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
    assert proc.stderr.startswith({0: "", 1: "error: ", 2: "usage: secrecysim"}[code])
    if argv[0] == "--version":
        assert proc.stdout.startswith("secrecysim ")
    if (tmp_path / "in_process").exists():
        assert tree_bytes(tmp_path / "process") == tree_bytes(tmp_path / "in_process")
        assert len(tree_bytes(tmp_path / "process")) == 15


def test_a_process_run_of_main_leaves_its_exit_no_objects_to_collect(small_scenario, tmp_path):
    script = (
        "import gc, sys\n"
        "import secrecysim.cli\n"
        "sys.argv = ['secrecysim', 'sweep', '--scenario', sys.argv[1], '--policy', 'all', '--out-dir', sys.argv[2]]\n"
        "code = secrecysim.cli.main()\n"
        "print(code, gc.isenabled(), len(gc.get_objects()))\n"
    )
    proc = run_fresh(script, small_scenario, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    code, enabled, tracked = proc.stdout.split()
    # about 21,900 objects are tracked at this point without the freeze
    assert (code, enabled) == ("0", "True") and int(tracked) < 1000


def test_main_called_with_arguments_never_freezes_the_collector(small_scenario, tmp_path):
    # pytest, the benchmark's tracer and the golden tool call main(argv) many times in one process
    script = (
        "import gc, sys\n"
        "import secrecysim.cli\n"
        "main = secrecysim.cli.main\n"
        "codes = [main(['sweep', '--scenario', sys.argv[1], '--policy', 'all', '--out-dir', sys.argv[2]]),\n"
        "         main(['sweep', '--scenario', 'no_such_scenario', '--out-dir', sys.argv[2]])]\n"
        "for argv in ['--version'], ['sweep', '--no-such-flag']:\n"
        "    try:\n"
        "        main(argv)\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "print(codes, gc.get_freeze_count(), gc.isenabled())\n"
    )
    proc = run_fresh(script, small_scenario, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 1, 0, 2] 0 True"


def test_console_script_version():
    proc = subprocess.run(["secrecysim", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "secrecysim" in proc.stdout
