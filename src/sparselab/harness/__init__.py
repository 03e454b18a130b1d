"""Experiment orchestration: config, adapters, runner, analysis, CLI."""

from .adapters import MockAdapter, RemoteAdapter, make_adapter
from .analysis import analyze, curve_for, error_rows, load_run, pareto_rows, summary_rows
from .config import ExperimentConfig, load_config
from .demo import plan_demo
from .runner import RunResult, record_key, run_suite, sample_seed

__all__ = [
    "ExperimentConfig",
    "MockAdapter",
    "RemoteAdapter",
    "RunResult",
    "analyze",
    "curve_for",
    "error_rows",
    "load_config",
    "load_run",
    "make_adapter",
    "pareto_rows",
    "plan_demo",
    "record_key",
    "run_suite",
    "sample_seed",
    "summary_rows",
]
