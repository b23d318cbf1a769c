"""Capacity and energy efficiency of cache-enabled cooperative UAV networks.

Semi-analytic engine (Laplace-functional quadrature) plus an independent
Monte Carlo stochastic-geometry simulator, optimal randomized content
placement, caching baselines, and a batch sweep harness with CSV output.
"""
from .analytics import (CapacityReport, PowerModel, QuadratureConfig,
                        ScenarioConfig, content_capacity, energy_efficiency,
                        energy_efficiency_exact, system_capacity)
from .caching import (POLICY_KINDS, ContentLibrary, PlacementPolicy, lru_che,
                      lru_empirical_policy, lru_simulate, mpc_policy,
                      rcp_objective, solve_rcp, zipf_popularity)
from .channel import (ENVIRONMENT_PRESETS, ChannelConfig, Environment,
                      elevation_deg, environment_preset, los_probability,
                      path_loss, shadowing_log_moments, shadowing_sigma_db)
from .errors import ConfigError, ConvergenceError, UavCacheError
from .harness import (CSV_HEADER, RunConfig, SweepRow, SweepSpec, dump_config,
                      emit_csv, load_config, parse_config, run_sweep)
from .simulator import SimEstimate, SimOptions, estimate_capacity, estimate_ee

__version__ = "0.1.0"

__all__ = [
    "CapacityReport", "PowerModel", "QuadratureConfig", "ScenarioConfig",
    "content_capacity", "energy_efficiency", "energy_efficiency_exact",
    "system_capacity",
    "POLICY_KINDS", "ContentLibrary", "PlacementPolicy", "lru_che", "lru_empirical_policy", "lru_simulate", "mpc_policy",
    "rcp_objective", "solve_rcp", "zipf_popularity",
    "ENVIRONMENT_PRESETS", "ChannelConfig", "Environment", "elevation_deg",
    "environment_preset", "los_probability", "path_loss",
    "shadowing_log_moments", "shadowing_sigma_db",
    "ConfigError", "ConvergenceError", "UavCacheError",
    "CSV_HEADER", "RunConfig", "SweepRow", "SweepSpec", "dump_config",
    "emit_csv", "load_config", "parse_config", "run_sweep",
    "SimEstimate", "SimOptions", "estimate_capacity", "estimate_ee",
    "__version__",
]
