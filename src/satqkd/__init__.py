"""Satellite entanglement-QKD link simulation and blockwise post-processing."""

from .channel import (
    ChannelParams,
    LinkSample,
    OpticsConfig,
    RadianceSchedule,
    SourceConfig,
    fidelity_to_qber,
)
from .config import ConfigError, ExperimentConfig, load_config
from .finite_key import (
    BlockStats,
    KeyLengthResult,
    SampleCounts,
    SecurityParams,
    asymptotic_rate_block,
    asymptotic_rate_nonblock,
    binary_entropy,
    key_length_block,
    key_length_nonblock,
    key_length_total,
    sampling_deviation,
)
from .orbit import ConstellationConfig, GroundStation, kepler_period
from .strategy import (
    BlockingPolicy,
    FidelityTrace,
    SampleColumns,
    SearchGrids,
    StrategyOutcome,
    best_blocking,
    evaluate_block,
    evaluate_nonblock,
    improvement,
)

__version__ = "0.1.0"
