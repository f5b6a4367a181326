"""Network-level physical-layer security: smart AP selection plus optimal
friendly jamming from the idle AP, evaluated over spatial grids and Monte
Carlo station placements.

The public names load their submodule on first use (PEP 562), so
``import secrecysim`` loads no numpy: the command line sets up numpy's BLAS
before it imports numpy itself (see :mod:`secrecysim.cli`)."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it, in ``__all__``'s order
_EXPORTS = {
    "SPEED_OF_LIGHT": "channel",
    "ApConfig": "channel",
    "ChannelParams": "channel",
    "Point2D": "channel",
    "distance": "channel",
    "distance_corrected_power": "channel",
    "effective_distance": "channel",
    "shannon_capacity": "channel",
    "transmit_power_from_corrected": "channel",
    "PolicyKind": "policy",
    "Scenario": "policy",
    "SelectionResult": "policy",
    "select": "policy",
    "BUNDLED_SCENARIOS": "scenario_io",
    "LoadedScenario": "scenario_io",
    "McSettings": "scenario_io",
    "ScenarioValidationError": "scenario_io",
    "bundled_scenario_path": "scenario_io",
    "load_scenario": "scenario_io",
    "read_heatmap": "scenario_io",
    "read_summary": "scenario_io",
    "watt_to_dbm": "scenario_io",
    "write_heatmap": "scenario_io",
    "write_summary": "scenario_io",
    "ALL_POLICIES": "sweep",
    "CellResult": "sweep",
    "GridArrays": "sweep",
    "MonteCarloSummary": "sweep",
    "PolicyMeans": "sweep",
    "SampleRecord": "sweep",
    "SweepConfig": "sweep",
    "SweepSummary": "sweep",
    "monte_carlo": "sweep",
    "sweep_eavesdropper": "sweep",
}
# also attributes before anything imports them, as ``secrecysim.sweep``
_SUBMODULES = {*_EXPORTS.values(), "fjopt"}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
