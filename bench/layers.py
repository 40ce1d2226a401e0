"""Which package functions are traced, what each counts, and the
per-layer metrics and report built from the recorded spans.

Layers are the package modules.  Beside each function: the end-to-end
metric and workload a change to it should move.
"""

from __future__ import annotations

from spans import Target, per_function, root_time

MODULES = ("clustering", "perturbation", "stability", "lqr", "model", "bounds", "synth")


def _kmeans(c, a, res):
    c["clustering.kmeans_partition.restarts"] += a["restarts"]
    c["clustering.kmeans_partition.short"] += res[0].r < a["r"]


def _jsr(c, a, res):
    c["stability.jsr_bounds.levels"] += res.levels_completed
    c["stability.jsr_bounds.complete"] += res.complete
    c[f"jsr_levels.s{len(a['A_list'])}"] = res.levels_completed


def _kappa(c, a, res):
    c["stability.kappa_estimate.complete"] += res.complete


def _augmented(c, a, res):
    c["stability.augmented_matrix.bytes"] += res.nbytes  # (s n^2)^2 * 8


def _riccati(c, a, res):
    c["lqr.riccati_solve.iterations"] += res.iterations


def _simulate(c, a, res):
    c["model.simulate_coupled_batch.steps"] += a["n_traj"] * a["horizon"]


TARGETS = (
    # ops_per_s and op_p50_ms on sweep
    Target("clustering", "kmeans_partition", count=_kmeans),
    # op_p50_ms on sweep
    Target("clustering", "build_features_aggregatable"),
    Target("clustering", "build_features_lumpable"),
    Target("clustering", "average_model"),
    Target("clustering", "reduce_model"),
    Target("clustering", "misclustering_rate"),
    # op_tail_ms on sweep: the pair loops grow with s
    Target("perturbation", "perturbations"),
    Target("perturbation", "mr_bound"),
    # ops_per_s on certify; no change predicted on sweep or regulate
    Target("stability", "jsr_bounds", count=_jsr),
    Target("stability", "kappa_estimate", count=_kappa),
    # op_tail_ms on certify
    Target("stability", "tau_estimate"),
    Target("stability", "augmented_matrix", count=_augmented),
    # op_tail_ms and peak_rss_mb on regulate.  Called once per product
    # inside jsr_bounds, so those calls are folded into that span.
    Target("stability", "spectral_radius", aggregate_under=("stability.jsr_bounds",)),
    Target("stability", "stability_report"),
    # op_p50_ms on regulate
    Target("lqr", "riccati_solve", count=_riccati),
    Target("lqr", "closed_loop_average_cost"),
    Target("lqr", "reduced_lqr_suboptimality"),
    # ops_per_s on regulate and certify; no change predicted on sweep
    Target("lqr", "monte_carlo_cost"),
    Target("model", "simulate_coupled_batch", count=_simulate),
    Target("bounds", "empirical_traj_diff"),
    # ops_per_s on certify
    Target("bounds", "BoundInputs.from_model"),
    Target("bounds", "transition_kernel_enum"),
    Target("bounds", "wasserstein_exact"),
    # setup_s on every workload
    Target("synth", "generate"),
)

# Per-layer metrics beside calls/busy_s/self_s: name -> (unit, better).
EXTRA = {
    "clustering.kmeans_partition.restarts": ("count", "higher"),
    "clustering.kmeans_partition.short_frac": ("ratio", "lower"),
    "stability.jsr_bounds.levels": ("count", "higher"),
    "stability.jsr_bounds.complete_frac": ("ratio", "higher"),
    "stability.kappa_estimate.complete_frac": ("ratio", "higher"),
    "stability.augmented_matrix.bytes": ("bytes", "lower"),
    "lqr.riccati_solve.iterations": ("count", "lower"),
    "model.simulate_coupled_batch.steps": ("count", "higher"),
    **{f"layer.{m}.self_share": ("ratio", "lower") for m in MODULES if m != "synth"},
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def per_layer_spec() -> list[dict]:
    """The per_layer list of BENCHMARK.json, in metric order."""
    out = []
    for t in TARGETS:
        out.append({"name": f"{t.name}.calls", "unit": "count", "better": "higher"})
        out.append({"name": f"{t.name}.busy_s", "unit": "s", "better": "lower"})
        out.append({"name": f"{t.name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in EXTRA.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, counters, op_wall: float, overhead: float) -> dict[str, float]:
    """Per-layer values.  Call counts and times cover every recorded span,
    set-up included (synth.generate runs only there); shares and coverage
    cover op spans only, against the traced phase's op wall time."""
    fn = per_function(spans)
    out: dict[str, float] = {}
    for t in TARGETS:
        rec = fn.get(t.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for k in ("calls", "busy_s", "self_s"):
            out[f"{t.name}.{k}"] = rec[k]

    def frac(num: str, den: str) -> float:
        calls = fn.get(den, {}).get("calls", 0)
        return counters.get(num, 0.0) / calls if calls else 0.0

    out["clustering.kmeans_partition.restarts"] = counters.get(
        "clustering.kmeans_partition.restarts", 0.0
    )
    out["clustering.kmeans_partition.short_frac"] = frac(
        "clustering.kmeans_partition.short", "clustering.kmeans_partition"
    )
    out["stability.jsr_bounds.levels"] = frac("stability.jsr_bounds.levels", "stability.jsr_bounds")
    out["stability.jsr_bounds.complete_frac"] = frac(
        "stability.jsr_bounds.complete", "stability.jsr_bounds"
    )
    out["stability.kappa_estimate.complete_frac"] = frac(
        "stability.kappa_estimate.complete", "stability.kappa_estimate"
    )
    for key in (
        "stability.augmented_matrix.bytes",
        "lqr.riccati_solve.iterations",
        "model.simulate_coupled_batch.steps",
    ):
        out[key] = counters.get(key, 0.0)
    op_spans = [sp for sp in spans if sp.op is not None]
    shares = module_self(op_spans)
    for m in MODULES:
        if m != "synth":
            out[f"layer.{m}.self_share"] = shares.get(m, 0.0) / op_wall
    out["trace.coverage"] = root_time(op_spans) / op_wall
    out["trace.overhead"] = overhead
    return out


def module_self(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, rec in per_function(spans).items():
        m = _module(name)
        out[m] = out.get(m, 0.0) + rec["self_s"]
    return out


def report(workload: str, spans, op_wall: float, metrics: dict, counters: dict) -> list[str]:
    """Text report: each layer's share of op wall time, the layer with
    the largest self time, and the rows of the baseline table that the
    workloads cover."""
    op_spans = [sp for sp in spans if sp.op is not None]
    shares = module_self(op_spans)
    fn = per_function(op_spans)
    lines = [f"layer report: {workload}, traced op wall time {op_wall:.3f} s"]
    for m, sec in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {m:<14} self {sec:9.3f} s  {100 * sec / op_wall:6.1f}%")
    rest = op_wall - sum(shares.values())
    lines.append(f"  {'(untraced)':<14} self {rest:9.3f} s  {100 * rest / op_wall:6.1f}%")
    if shares:
        top = max(shares, key=shares.get)
        lines.append(f"  largest self time: {top}")

    def busy(name: str) -> float:
        return fn.get(name, {}).get("busy_s", 0.0)

    levels = {k.split(".", 1)[1]: int(v) for k, v in counters.items() if k.startswith("jsr_levels.")}

    lines.append(
        f"  k-means share (kmeans_partition busy / op wall): "
        f"{100 * busy('clustering.kmeans_partition') / op_wall:.1f}%"
    )
    lines.append(
        f"  dense-eig share (spectral_radius busy / op wall): "
        f"{100 * busy('stability.spectral_radius') / op_wall:.1f}%"
    )
    lines.append(
        "  JSR / kappa / tau busy: "
        f"{busy('stability.jsr_bounds'):.3f} / {busy('stability.kappa_estimate'):.3f} / "
        f"{busy('stability.tau_estimate'):.3f} s; JSR levels completed "
        f"{metrics['stability.jsr_bounds.levels']:.2f} on average, by mode count: {levels}"
    )
    lines.append(
        f"  coverage {100 * metrics['trace.coverage']:.1f}%, "
        f"tracing overhead {100 * metrics['trace.overhead']:+.1f}%"
    )
    return lines
