"""Network-level physical-layer security: smart AP selection plus optimal
friendly jamming from the idle AP, evaluated over spatial grids and Monte
Carlo station placements."""

__version__ = "0.1.0"

from .channel import (
    SPEED_OF_LIGHT,
    ApConfig,
    ChannelParams,
    Point2D,
    distance,
    distance_corrected_power,
    effective_distance,
    shannon_capacity,
    transmit_power_from_corrected,
)
from .policy import (
    PolicyKind,
    Scenario,
    SelectionResult,
    select,
)
from .scenario_io import (
    BUNDLED_SCENARIOS,
    LoadedScenario,
    McSettings,
    ScenarioValidationError,
    bundled_scenario_path,
    load_scenario,
    read_heatmap,
    read_summary,
    watt_to_dbm,
    write_heatmap,
    write_summary,
)
from .sweep import (
    ALL_POLICIES,
    CellResult,
    GridArrays,
    MonteCarloSummary,
    PolicyMeans,
    SampleRecord,
    SweepConfig,
    SweepSummary,
    monte_carlo,
    sweep_eavesdropper,
)

__all__ = [
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
