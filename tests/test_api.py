import importlib.util
import re
from pathlib import Path

import pytest

import secrecysim
import secrecysim.cli
import secrecysim.policy
from secrecysim.cli import build_parser

from conftest import run_fresh

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC_NAMES = [
    "SPEED_OF_LIGHT",
    "ApConfig",
    "ChannelParams",
    "Point2D",
    "distance",
    "distance_corrected_power",
    "effective_distance",
    "shannon_capacity",
    "transmit_power_from_corrected",
    "PolicyKind",
    "Scenario",
    "SelectionResult",
    "select",
    "BUNDLED_SCENARIOS",
    "LoadedScenario",
    "McSettings",
    "ScenarioValidationError",
    "bundled_scenario_path",
    "load_scenario",
    "read_heatmap",
    "read_summary",
    "watt_to_dbm",
    "write_heatmap",
    "write_summary",
    "ALL_POLICIES",
    "CellResult",
    "GridArrays",
    "MonteCarloSummary",
    "PolicyMeans",
    "SampleRecord",
    "SweepConfig",
    "SweepSummary",
    "monte_carlo",
    "sweep_eavesdropper",
    "__version__",
]


def test_public_names_are_pinned_and_resolve():
    assert secrecysim.__all__ == PUBLIC_NAMES
    for name in secrecysim.__all__:
        assert getattr(secrecysim, name) is not None, name


def test_the_package_loads_no_numpy_and_each_name_on_first_use():
    # the pytest process has imported everything already, so a fresh interpreter checks
    script = (
        "import sys\n"
        "import secrecysim\n"
        "assert 'numpy' not in sys.modules\n"
        "listed = dir(secrecysim)\n"
        "for name in ('fjopt', 'channel', 'policy', 'scenario_io', 'sweep'):\n"
        "    assert name in listed, name\n"
        "    assert getattr(secrecysim, name) is sys.modules['secrecysim.' + name], name\n"
        "star = {}\n"
        "exec('from secrecysim import *', star)\n"
        "for name in secrecysim.__all__:\n"
        "    assert name in listed, name\n"
        "    assert star[name] is getattr(secrecysim, name), name\n"
        "assert secrecysim.select is secrecysim.policy.select\n"
        "try:\n"
        "    secrecysim.no_such_name\n"
        "except AttributeError as error:\n"
        "    print(error)\n"
    )
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'secrecysim' has no attribute 'no_such_name'\n"


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_both_commands_take_the_monte_carlo_options(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for option in ("--monte-carlo-n", "--seed", "--threads"):
        assert option in text, option


def test_readme_library_example_runs(capsys):
    # the first python block under "## Library"
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert capsys.readouterr().out


def load_by_path(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_tracer_swaps_exists():
    # the tracer fetches each (module, attribute) with getattr, so a name no caller
    # uses any more, such as cli.sweep_eavesdropper, must still be importable there
    tracing = load_by_path(ROOT / "bench" / "tracing.py")
    driver = load_by_path(ROOT / "bench" / "library_driver.py")
    targets = tracing.layer_targets(secrecysim.cli, secrecysim.policy, driver)
    missing = [(module.__name__, attr) for module, attr, _ in targets if not hasattr(module, attr)]
    assert missing == []
