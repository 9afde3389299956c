"""Spans around the library's layer calls, installed from outside ``src/``.

Every wrapped name is a module attribute that the library looks up when it
calls it (``verify`` finds ``simulate`` in ``mc_oracle``'s globals, ``kober``
finds ``jacobi_rule`` in its own, and so on), so replacing the attribute puts
a span around each call without editing the library.  A span records its
name, start, end, parent span and a few counts taken from the call's
arguments and result.  Spans stay in memory; ``write`` saves them at the
end of a run and ``layer_metrics`` reduces them to the per-layer metrics.

Only the traced run installs the wrappers.  The untraced run, which gives
the end-to-end metrics, runs the library untouched.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np


class Tracer:
    """In-memory span store with a per-thread stack of open spans.

    A span opened on a worker thread has no parent: its caller's span lives
    on another thread's stack.
    """

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, counts or None]
        self.paused = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []
        self._pending_w1 = []

    def stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, counts=None):
        """``fn`` with a span named ``name`` around each call; ``counts``
        maps (args, kwargs, result) to the span's counts."""
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            st = self.stack()
            rec = [name, st[-1] if st else -1, 0.0, 0.0, None]
            with self._lock:
                st.append(len(spans))
                spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                st.pop()
            if counts is not None:
                rec[4] = counts(args, kwargs, out)
            return out

        return traced

    def _patch(self, module, attr, new):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        """Wrap every layer entry point the workloads reach."""
        from ekstat import cli, kober, mc_oracle, mellin, reporting, transforms

        w = self.wrap
        rows = lambda a, kw, out: {"rows": int(np.shape(a[0])[0])}
        draws = lambda i: lambda a, kw, out: {"draws": int(np.size(a[i]))}
        rule_key = lambda tag: lambda a, kw, out: {"key": (tag, a, tuple(sorted(kw.items())))}
        values = lambda a, kw, out: {"values": int(np.shape(a[3])[0])}

        def eval_values(a, kw, out):
            refine = kw.get("refine", a[4] if len(a) > 4 else True)
            return {"values": 2 if refine else 1}

        # streams, the density samplers and the triangular map, as
        # simulate_parts reaches them
        self._patch(mc_oracle, "uniform_block_parallel", w(
            "streams.uniforms", mc_oracle.uniform_block_parallel,
            lambda a, kw, out: {"rows": int(out.shape[0]), "bytes": int(out.nbytes)}))
        self._patch(mc_oracle, "beta_from_uniforms",
                    w("densities.sampler", mc_oracle.beta_from_uniforms, draws(0)))
        # the Dirichlet branch of simulate_parts calls scipy's inverse CDF
        # directly, so its draws are counted at that name
        self._patch(mc_oracle, "gammaincinv",
                    w("densities.sampler", mc_oracle.gammaincinv, draws(1)))
        for attr in ("forward", "inverse"):
            self._patch(transforms, attr, w("transforms.map", getattr(transforms, attr), rows))
        # every density the workloads build comes from one of these names
        for module in (kober, mc_oracle, cli):
            self._patch(module, "gamma_product", self._density_factory(module.gamma_product))

        # quadrature rules, as kober and mellin look them up
        self._patch(kober, "jacobi_rule",
                    w("quadrature.rule", kober.jacobi_rule, rule_key("jacobi")))
        for module in (kober, mellin):
            self._patch(module, "semiaxis_log_rule", w(
                "quadrature.rule", module.semiaxis_log_rule, rule_key("semiaxis")))

        # operator evaluation
        for attr in ("kober2_eval", "kober1_eval", "pathway_kober2_eval", "pathway_kober1_eval"):
            self._patch(kober, attr, w("kober.eval", getattr(kober, attr), eval_values))
        self._patch(mc_oracle, "eval_many", w("kober.eval_many", mc_oracle.eval_many, values))

        # the verify pipeline
        self._patch(mc_oracle, "simulate", self._simulate(mc_oracle.simulate))
        self._patch(mc_oracle, "default_probes", w("mc_oracle.probes", mc_oracle.default_probes))
        self._patch(mc_oracle, "histogram_estimate", w(
            "mc_oracle.histogram", mc_oracle.histogram_estimate,
            lambda a, kw, out: {"row_probes": int(np.shape(getattr(a[0], "data", a[0]))[0])
                                * int(np.atleast_2d(a[1]).shape[0])}))
        self._patch(mc_oracle, "identity_candidates", w(
            "mc_oracle.candidates", mc_oracle.identity_candidates,
            lambda a, kw, out: {"scored": sum(1 for c in out if c.admissible)}))
        self._patch(mc_oracle, "verify", w("mc_oracle.verify", mc_oracle.verify))

        # Mellin checks, reports and the command line
        self._patch(mellin, "mellin_factorization_check",
                    w("mellin.check", mellin.mellin_factorization_check))
        self._patch(mellin, "operator_image", self._image_factory(mellin.operator_image))
        self._patch(mellin, "kober_mellin_ratio", w("mellin.rhs", mellin.kober_mellin_ratio))
        json_bytes = lambda a, kw, out: {"bytes": len(out.encode())}
        for module in (reporting, cli):
            self._patch(module, "dumps_json", w("reporting.dumps_json", module.dumps_json, json_bytes))
        self._patch(cli, "run", w("cli.run", cli.run))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _density_factory(self, factory):
        pdf_counts = lambda a, kw, out: {
            "points": int(np.size(out)), "bytes": int(np.asarray(a[0]).nbytes + np.asarray(out).nbytes)}

        @functools.wraps(factory)
        def make(*args, **kwargs):
            f = factory(*args, **kwargs)
            return replace(
                f,
                pdf=self.wrap("densities.pdf", f.pdf, pdf_counts),
                from_uniforms=self.wrap("densities.sampler", f.from_uniforms,
                                        lambda a, kw, out: {"draws": int(np.size(a[0]))}),
                mellin=self.wrap("mellin.rhs", f.mellin),
            )

        return make

    def _image_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            image = factory(*args, **kwargs)
            k = image.dim
            return replace(image, pdf=self.wrap(
                "kober.image", image.pdf,
                lambda a, kw, out: {"values": int(np.size(a[0]) // k)}))

        return make

    def _simulate(self, simulate):
        """``simulate`` with a span, remembering each multi-worker call so
        that it can be repeated at workers=1 outside every timed region."""
        traced = self.wrap("mc_oracle.simulate", simulate)

        @functools.wraps(simulate)
        def call(spec, n, seed, workers=1):
            idx = len(self.spans)  # the span this call opens
            out = traced(spec, n, seed, workers)
            if not self.paused and workers > 1:
                self._pending_w1.append((idx, simulate, spec, n, seed, workers, out))
            return out

        return call

    def run_pending_w1(self) -> bool:
        """Repeat each remembered simulate call at workers=1, untraced.

        Adds the single-thread time to the call's span and returns whether
        every repeat drew exactly the same sample as the original call.
        """
        same = True
        self.paused = True
        try:
            while self._pending_w1:
                idx, simulate, spec, n, seed, workers, out = self._pending_w1.pop()
                t0 = time.perf_counter()
                single = simulate(spec, n, seed, 1)
                elapsed = time.perf_counter() - t0
                self.spans[idx][4] = {"workers": workers, "w1_time_s": elapsed}
                same = same and np.array_equal(single.data, out.data)
        finally:
            self.paused = False
        return same

    def write(self, path) -> None:
        """Save the spans as JSON lines: name, parent, start, end, counts."""
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1, counts) in enumerate(self.spans):
                counts = {k: v for k, v in (counts or {}).items() if k != "key"}
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": t0, "end": t1, "counts": counts}) + "\n")


_KOBER_SPANS = ("kober.eval", "kober.eval_many", "kober.image")


def layer_metrics(spans) -> dict:
    """Per-layer totals from the spans: time, self time (time minus the
    part covered by child spans) and counts, keyed by metric name."""
    dur = [t1 - t0 for _, _, t0, t1, _ in spans]
    child = [0.0] * len(spans)
    in_kober = [False] * len(spans)
    for i, (name, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
        in_kober[i] = name in _KOBER_SPANS or (parent >= 0 and in_kober[parent])

    time_s = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    keys = set()
    kober_points = kober_bytes = 0
    for i, (name, parent, _, _, counts) in enumerate(spans):
        time_s[name] += dur[i]
        self_s[name] += dur[i] - child[i]
        calls[name] += 1
        for key, val in (counts or {}).items():
            if key == "key":
                keys.add(val)
            else:
                sums[name, key] += val
        if name == "densities.pdf" and parent >= 0 and in_kober[parent]:
            kober_points += counts["points"]
            kober_bytes += counts["bytes"]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    kober_values = sum(sums[n, "values"] for n in _KOBER_SPANS)
    sim_workers_time = sum(dur[i] * (c or {}).get("workers", 0)
                           for i, (n, _, _, _, c) in enumerate(spans)
                           if n == "mc_oracle.simulate")
    return {
        "streams.uniforms.time_s": time_s["streams.uniforms"],
        "streams.uniforms.rows": sums["streams.uniforms", "rows"],
        "streams.uniforms.bytes_computed": sums["streams.uniforms", "bytes"],
        "densities.sampler.time_s": time_s["densities.sampler"],
        "densities.sampler.inverse_cdf_draws": sums["densities.sampler", "draws"],
        "densities.sampler.ns_per_draw": ratio(time_s["densities.sampler"],
                                               sums["densities.sampler", "draws"], 1e9),
        "densities.pdf.calls": calls["densities.pdf"],
        "densities.pdf.points": sums["densities.pdf", "points"],
        "densities.pdf.time_s": time_s["densities.pdf"],
        "transforms.map.time_s": time_s["transforms.map"],
        "transforms.map.rows": sums["transforms.map", "rows"],
        "quadrature.rules.calls": calls["quadrature.rule"],
        "quadrature.rules.distinct": len(keys),
        "quadrature.rules.time_s": time_s["quadrature.rule"],
        "kober.values": kober_values,
        "kober.time_s": sum(time_s[n] for n in _KOBER_SPANS),
        "kober.self_s": sum(self_s[n] for n in _KOBER_SPANS),
        "kober.nodes_per_value": ratio(kober_points, kober_values),
        "kober.bytes_computed": kober_bytes,
        "mellin.image.time_s": time_s["kober.image"],
        "mellin.image.points": sums["kober.image", "values"],
        "mellin.sum.self_s": self_s["mellin.check"],
        "mellin.rhs.time_s": time_s["mellin.rhs"],
        "mc_oracle.simulate.time_s": time_s["mc_oracle.simulate"],
        "mc_oracle.simulate.self_s": self_s["mc_oracle.simulate"],
        "mc_oracle.simulate.w1_time_s": sums["mc_oracle.simulate", "w1_time_s"],
        "mc_oracle.simulate.parallel_eff": ratio(sums["mc_oracle.simulate", "w1_time_s"],
                                                 sim_workers_time),
        "mc_oracle.probes.time_s": time_s["mc_oracle.probes"],
        "mc_oracle.histogram.time_s": time_s["mc_oracle.histogram"],
        "mc_oracle.histogram.ns_per_row_probe": ratio(time_s["mc_oracle.histogram"],
                                                      sums["mc_oracle.histogram", "row_probes"], 1e9),
        "mc_oracle.box_average.time_s": time_s["kober.eval_many"],
        "mc_oracle.box_average.points": sums["kober.eval_many", "values"],
        "mc_oracle.candidates.scored": sums["mc_oracle.candidates", "scored"],
        "mc_oracle.verify.self_s": self_s["mc_oracle.verify"],
        "reporting.dumps_json.time_s": time_s["reporting.dumps_json"],
        "reporting.dumps_json.bytes": sums["reporting.dumps_json", "bytes"],
        "cli.run.self_s": self_s["cli.run"],
    }


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if ".ns_per_" in metric:
        return "ns"
    if metric.endswith("bytes_computed") or metric.endswith(".bytes"):
        return "B"
    if metric.endswith("_frac") or metric.endswith("_eff"):
        return "ratio"
    return "count"
