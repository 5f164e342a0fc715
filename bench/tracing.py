"""In-memory spans around calls into psdsample's layers.

The package has no tracing of its own, so the traced run wraps the
public functions each module imports from another (for example
``psdsample.sampler.integrate_boxes``) and the methods the benchmark's
inputs reach.  A span records name, start, end, parent span and
operation id; counts are recorded at the same boundaries.  Wrappers are
installed only around traced operations and removed afterwards, so the
untraced runs execute the package untouched.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Spans and counts of the traced operations, kept until ``write``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        self.counts[self.op][name] += value

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` inside a span; ``on_return(result, *args, **kwargs)``
        records counts after the span has ended."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index].start = start
                self.spans[index].end = end
            if on_return is not None:
                on_return(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_return=None, fn=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper of ``fn`` (default: the
        current attribute) until ``restore``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, fn or original, on_return))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def per_op(self) -> dict[int, dict[str, float]]:
        """Busy time, self time and calls per span name, plus counts, per op.

        Busy time sums each span's duration; self time subtracts the
        durations of its direct children, which run one after another.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, span in enumerate(self.spans):
            row = ops[span.op]
            duration = span.end - span.start
            row[span.name + ".busy_s"] += duration
            row[span.name + ".self_s"] += duration - child_time[index]
            row[span.name + ".calls"] += 1
            row["trace.spans"] += 1
            if span.parent is not None:
                row[self.spans[span.parent].name + ">" + span.name + ".calls"] += 1
        for op, counts in self.counts.items():
            for key, value in counts.items():
                ops[op][key] += value
        return ops

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([asdict(span) for span in self.spans], fh)
            fh.write("\n")


def instrument(tracer: Tracer) -> None:
    """Wrap the layers' public functions under every name the benchmark
    or the package calls them by."""
    from psdsample import baseline, cli, estimator, integration, metrics, models, sampler

    original_boxes = integration.integrate_boxes

    def integrate_boxes(model, lowers, uppers, acct=None):
        # count through an accounting of our own, forwarded to the caller's
        own = integration.IntegralAccounting()
        out = original_boxes(model, lowers, uppers, own)
        if acct is not None:
            acct.add(own)
        pairs = model.m * (model.m + 1) // 2
        tracer.count("integration.boxes", own.integral_evals)
        tracer.count("integration.erf_terms", own.erf_calls)
        tracer.count("integration.box_pair_dims", own.integral_evals * pairs * model.d)
        return out

    for owner in (integration, sampler, metrics):
        tracer.patch(owner, "integrate_boxes", "integration.integrate_boxes", fn=integrate_boxes)
    tracer.patch(estimator, "quartic_gram", "integration.quartic_gram")

    def sampled(run, model, box, params):
        tracer.count("sampler.integrals", run.accounting.integral_evals)
        tracer.count("sampler.leaves", run.leaf_count)
        tracer.count("sampler.samples", params.n_samples)

    for owner in (sampler, cli):
        tracer.patch(owner, "sample", "sampler.sample", sampled)
    tracer.patch(cli, "write_samples_csv", "sampler.write_samples_csv",
                 lambda _, samples, path: tracer.count("sampler.csv_bytes", os.path.getsize(path)))
    tracer.patch(cli, "load_model", "models.load_model")

    tracer.patch(estimator, "fit_rank_one_holdout", "estimator.fit_rank_one_holdout")
    tracer.patch(estimator, "fit_psd", "estimator.fit_psd",
                 lambda fit, *a, **k: tracer.count("estimator.fit_psd.iterations", fit[1].iterations))
    for owner in (models, estimator):
        tracer.patch(owner, "project_psd", "kernels.project_psd")

    def mmd_pairs(_, P, Q, eta):
        n, m = len(P), len(Q)
        tracer.count("metrics.mmd_kernel_pairs", n * n + m * m + n * m)

    tracer.patch(metrics, "empirical_mmd", "metrics.empirical_mmd", mmd_pairs)
    tracer.patch(metrics, "exact_distances", "metrics.exact_distances")
    tracer.patch(metrics, "dyadic_density", "metrics.dyadic_density")
    tracer.patch(metrics, "adaptive_box_quadrature", "quadrature.adaptive_box_quadrature")

    def evaluated(_, model, points):
        tracer.count("models.evaluate.points", len(points) if getattr(points, "ndim", 1) > 1 else 1)

    for cls in (models.GaussianPsdModel, models.RankOneModel):
        tracer.patch(cls, "evaluate", "models.evaluate", evaluated)
    tracer.patch(baseline, "build_grid", "baseline.build_grid")
    tracer.patch(baseline.GridSampler, "sample", "baseline.grid_sample")
    tracer.patch(cli, "main", "cli.main")


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


# name -> (unit, how to read it from one traced operation's row)
LAYER_METRICS = {
    "integration.integrate_boxes.busy_s": ("s", None),
    "integration.integrate_boxes.calls": ("count", None),
    "integration.boxes": ("count", None),
    "integration.ns_per_box_pair_dim": ("ns", lambda r: _ratio(
        r["integration.integrate_boxes.busy_s"], r["integration.box_pair_dims"], 1e9)),
    "integration.erf_terms": ("count", None),
    "integration.quartic_gram.busy_s": ("s", None),
    "sampler.sample.busy_s": ("s", None),
    "sampler.sample.self_s": ("s", None),
    # per sampling run: psd-fit-2d samples several times in one operation
    "sampler.integrals": ("count", lambda r: _ratio(
        r["sampler.integrals"], r["sampler.sample.calls"])),
    "sampler.integrals_per_sample": ("count", lambda r: _ratio(
        r["sampler.integrals"], r["sampler.samples"])),
    "sampler.levels": ("count", lambda r: _ratio(
        r["sampler.sample>integration.integrate_boxes.calls"] - r["sampler.sample.calls"],
        r["sampler.sample.calls"])),
    "sampler.leaves": ("count", lambda r: _ratio(
        r["sampler.leaves"], r["sampler.sample.calls"])),
    "sampler.write_samples_csv.busy_s": ("s", None),
    "sampler.csv_bytes": ("B", None),
    "estimator.fit_rank_one_holdout.busy_s": ("s", None),
    "estimator.fit_psd.busy_s": ("s", None),
    "estimator.fit_psd.self_s": ("s", None),
    "estimator.fit_psd.iterations": ("count", None),
    "kernels.project_psd.busy_s": ("s", None),
    "kernels.project_psd.calls": ("count", None),
    "metrics.empirical_mmd.busy_s": ("s", None),
    "metrics.mmd_kernel_pairs": ("count", None),
    "metrics.ns_per_kernel_pair": ("ns", lambda r: _ratio(
        r["metrics.empirical_mmd.busy_s"], r["metrics.mmd_kernel_pairs"], 1e9)),
    "metrics.exact_distances.busy_s": ("s", None),
    "metrics.dyadic_density.busy_s": ("s", None),
    "quadrature.adaptive_box_quadrature.busy_s": ("s", None),
    "quadrature.adaptive_box_quadrature.calls": ("count", None),
    "models.evaluate.busy_s": ("s", None),
    "models.evaluate.points": ("count", None),
    "models.load_model.busy_s": ("s", None),
    "baseline.build_grid.busy_s": ("s", None),
    "baseline.grid_sample.busy_s": ("s", None),
    "cli.main.busy_s": ("s", None),
    "cli.main.self_s": ("s", None),
    "trace.spans": ("count", None),
    # filled from the operations' wall times, traced against untraced
    "trace.op_s": ("s", None),
    "trace.untraced_op_s": ("s", None),
    "trace.overhead_s": ("s", None),
}


def layer_metrics(tracer: Tracer, traced: list[float], untraced: list[float]) -> dict:
    """Median over traced operations of every layer metric, 0 where a
    workload never reaches the layer, plus the tracing overhead: the
    median traced operation minus the median untraced one."""
    rows = [defaultdict(float, row) for row in tracer.per_op().values()]
    values = {}
    for name, (_, read) in LAYER_METRICS.items():
        per_op = [read(row) if read else row[name] for row in rows]
        values[name] = statistics.median(per_op) if per_op else 0.0
    values["trace.op_s"] = statistics.median(traced) if traced else 0.0
    values["trace.untraced_op_s"] = statistics.median(untraced) if untraced else 0.0
    values["trace.overhead_s"] = values["trace.op_s"] - values["trace.untraced_op_s"]
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()}
