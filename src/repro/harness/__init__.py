"""Experiment harness: runners, sweeps, parallel engine, result cache,
and figure-shaped table output."""
from .runner import (ExperimentResult, default_cycles, paper_length,
                     run_spec)
from .cache import (CACHE_SCHEMA_VERSION, ResultCache, cache_enabled,
                    default_cache_dir, result_from_dict, result_to_dict,
                    spec_digest, stable_digest)
from .parallel import (BatchedExecutor, Executor, ParallelSweep,
                       PoolExecutor, SerialExecutor, SweepTask,
                       batch_group_key, default_jobs, default_task_timeout)
from .sweep import (FIGURE_FRACTIONS, FIGURE_MECHANISMS, FIGURE_RATES,
                    run_sweep_spec)
from .ascii_plot import bar_chart, heat_grid, line_chart, sparkline
from .tables import breakdown_table, normalized_table, series_table, timeline_table

__all__ = [
    "run_spec", "ExperimentResult", "default_cycles", "paper_length",
    "ParallelSweep", "SweepTask", "default_jobs", "default_task_timeout",
    "Executor", "SerialExecutor", "PoolExecutor", "BatchedExecutor",
    "batch_group_key",
    "ResultCache", "cache_enabled", "default_cache_dir", "stable_digest",
    "spec_digest",
    "result_to_dict", "result_from_dict", "CACHE_SCHEMA_VERSION",
    "run_sweep_spec",
    "FIGURE_MECHANISMS", "FIGURE_FRACTIONS", "FIGURE_RATES",
    "series_table", "breakdown_table", "normalized_table", "timeline_table",
    "line_chart", "bar_chart", "sparkline", "heat_grid",
]
