"""Tests for RunOptions, the one harness-option surface of every runner."""

import dataclasses

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.server.experiment import ExperimentConfig, run_experiment
from repro.server.options import RunOptions, reject_unsupported
from repro.server.rate_experiment import run_rate_experiment
from repro.server.slo import SloGuard


def _config():
    return ExperimentConfig(model_names=("squeezenet",),
                            requests_scale=0.25)


def test_run_options_is_frozen_and_replaceable():
    options = RunOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.guard = SloGuard()
    derived = options.replace(guard=SloGuard())
    assert derived.guard is not None and options.guard is None
    with pytest.raises(ValueError, match="sample_interval"):
        RunOptions(sample_interval=0.0)


def test_rate_runner_accepts_options():
    registry = MetricsRegistry()
    result = run_rate_experiment(
        _config(), offered_rps=500.0, duration=0.5,
        options=RunOptions(metrics=registry))
    assert result.achieved_rps > 0
    assert len(registry) > 0


def test_reject_unsupported_names_the_field():
    with pytest.raises(ValueError, match="workload"):
        reject_unsupported("caller", RunOptions(workload=object()),
                           "workload")
    # Default-valued fields never trip the rejection.
    reject_unsupported("caller", RunOptions(), "workload", "audit")


def test_closed_loop_runner_rejects_workload():
    with pytest.raises(ValueError, match="workload"):
        run_experiment(_config(),
                       options=RunOptions(workload=object()))
