"""The benchmark's tracer patches package functions by name; these names
and the counts read from them must keep working."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from psdsample import baseline, cli, estimator, integration, metrics, models, sampler
from psdsample.boxes import HyperRectangle, split_axes
from psdsample.models import GaussianPsdModel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_one_sampling_run_and_restores_the_package(monkeypatch):
    tracing = load_tracing(monkeypatch)
    owners = (
        baseline, cli, estimator, integration, metrics, models, sampler,
        models.GaussianPsdModel, models.RankOneModel, baseline.GridSampler,
    )
    before = {owner: dict(vars(owner)) for owner in owners}
    model = GaussianPsdModel(
        A=np.array([[0.6, -0.2], [-0.2, 0.5]]),
        X=np.array([[-0.8, 0.1], [0.9, -0.3]]),
        eta=np.array([2.0, 1.5]),
    )
    box = HyperRectangle(np.array([-2.0, -1.0]), np.array([2.0, 1.0]))
    params = sampler.SamplerParams(rho=0.25, n_samples=300, seed=4)

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        assert sampler.integrate_boxes is not before[sampler]["integrate_boxes"]
        run = sampler.sample(model, box, params)
    finally:
        tracer.restore()

    row = tracer.per_op()[tracer.op]
    levels = split_axes(box, params.rho).size
    assert row["integration.boxes"] == run.accounting.integral_evals
    assert row["sampler.sample.calls"] == 1
    assert row["sampler.sample>integration.integrate_boxes.calls"] == levels + 1
    for owner, attrs in before.items():
        after = vars(owner)
        assert after.keys() == attrs.keys()
        assert all(after[name] is value for name, value in attrs.items())
