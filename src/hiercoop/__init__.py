"""Throughput analysis of hierarchical cooperation in wireless networks.

Closed-form delay and throughput models for a two-phase layered
cooperation scheme and its three-phase ancestor, plus optimizers for the
layer structure, regime classification over the deployment area, and
comparison sweeps. The command-line entry point lives in hiercoop.cli.
"""
from __future__ import annotations

from .area import (
    CandidateOutcome,
    Regime,
    RegimeReport,
    area_from_exponent,
    c0_tradeoff,
    classify,
)
from .errors import DomainError, InfeasibleError, PlanError
from .explorer import (
    SweepRow,
    compare_schemes,
    ratio_log_adjusted,
    ratio_original,
    ratio_original_closed_form,
)
from .optimizer import (
    LayerChoice,
    depth_optimum,
    layer_choice,
    minimal_delay,
    optimal_cluster_sizes,
)
from .params import (
    MAX_LAYERS,
    MIN_RATE_RATIO,
    NetworkConfig,
    SchemeParams,
    derive,
    validate_plan,
)
from .recurrence import (
    TIME_SHARING_FACTOR,
    DelaySlots,
    delay_recursive,
)
from .throughput import (
    ModifiedThroughput,
    ThroughputReport,
    layer_throughput,
    multihop_baseline,
    optimal_modified,
    original_optimal_layers,
    original_throughput,
    per_pair_rate,
    smooth_modified,
    throughput_given_M1,
    upper_bound,
)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    # the verify suites load on first use (PEP 562): importing the package, or
    # any subcommand but verify, leaves selfcheck unloaded
    if name in ("SuiteResult", "run_all"):
        from . import selfcheck

        value = globals()[name] = getattr(selfcheck, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CandidateOutcome",
    "DelaySlots",
    "DomainError",
    "InfeasibleError",
    "LayerChoice",
    "MAX_LAYERS",
    "MIN_RATE_RATIO",
    "ModifiedThroughput",
    "NetworkConfig",
    "PlanError",
    "Regime",
    "RegimeReport",
    "SchemeParams",
    "SuiteResult",
    "SweepRow",
    "ThroughputReport",
    "TIME_SHARING_FACTOR",
    "area_from_exponent",
    "c0_tradeoff",
    "classify",
    "compare_schemes",
    "delay_recursive",
    "depth_optimum",
    "derive",
    "layer_choice",
    "layer_throughput",
    "minimal_delay",
    "multihop_baseline",
    "optimal_cluster_sizes",
    "optimal_modified",
    "original_optimal_layers",
    "original_throughput",
    "per_pair_rate",
    "ratio_log_adjusted",
    "ratio_original",
    "ratio_original_closed_form",
    "run_all",
    "smooth_modified",
    "throughput_given_M1",
    "upper_bound",
    "validate_plan",
]
