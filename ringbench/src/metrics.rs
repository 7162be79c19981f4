//! The metric catalogue: every end-to-end and per-layer name with its
//! unit, and the helpers that turn walks and span snapshots into
//! per-layer metrics. Every run prints every name of its mode; a layer
//! a workload does not exercise reads 0 there.

use crate::common::Report;
use crate::layers::Walk;
use ringcnn_trace::span::SpanRec;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("mpix_per_s", "Mpix/s"),
    ("frame_p50_ms", "ms"),
    ("frame_p90_ms", "ms"),
    ("low_p50_ms", "ms"),
    ("low_p90_ms", "ms"),
    ("high_p50_ms", "ms"),
    ("high_p90_ms", "ms"),
    ("max_rps_at_slo", "1/s"),
];

/// Serve-layer metrics of the traced run.
pub const SERVE_LAYER: &[(&str, &str)] = &[
    ("serve.scheduler.queue_ms_p50", "ms"),
    ("serve.scheduler.queue_ms_p99", "ms"),
    ("serve.scheduler.batch_mean", "count"),
    ("serve.wire_ms_p50.json", "ms"),
    ("serve.wire_ms_p50.binary", "ms"),
    ("serve.registry.exec_ms_p50", "ms"),
    ("serve.failed", "count"),
    ("serve.rejected", "count"),
    ("serve.gen_lag_ms_p99", "ms"),
    ("tensor.gemm.dispatches_per_req", "count"),
];

/// Runtime and GEMM metrics of the offline traced run.
pub const RUNTIME_LAYER: &[(&str, &str)] = &[
    ("nn.runtime.tiles_per_frame", "count"),
    ("nn.runtime.halo_overhead", "ratio"),
    ("tensor.gemm.tiles_per_frame", "count"),
    ("tensor.gemm.panel_packs_per_frame", "count"),
    ("tensor.gemm.dispatches_per_frame", "count"),
    ("tensor.gemm.panel_reuse_ratio", "ratio"),
    ("tensor.bytes_per_frame", "B_computed"),
];

/// The convolutions and activations of DnERNet-PU B2R2N0, by child
/// path. The float `Sequential` and its integer lowering share the
/// layout (pixel (un)shuffles at `0.0`/`0.6` are glue).
pub const DN_LAYERS: &[(&str, &str)] = &[
    ("0.1", "conv"),
    ("0.2", "act"),
    ("0.3.0", "conv"),
    ("0.3.1", "act"),
    ("0.3.2", "conv"),
    ("0.4.0", "conv"),
    ("0.4.1", "act"),
    ("0.4.2", "conv"),
    ("0.5", "conv"),
];

/// Spans whose self time the traced run reports: the benchmark's own
/// (`runner.run`, `walk.*`, `client.*`) and the program's (`tile` from
/// the runtime; `request`, `decode`, `queue_wait`, `batch`, `kernel`,
/// `encode` from the server).
pub const SPANS: &[&str] = &[
    "runner.run",
    "tile",
    "walk.frame",
    "walk.tile",
    "walk.layers",
    "walk.layer",
    "client.infer",
    "client.receive",
    "request",
    "decode",
    "queue_wait",
    "batch",
    "kernel",
    "encode",
];

/// Which per-layer family a walk fills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerKind {
    /// `nn.layer.*`: float layers, operation count = real multiplications.
    Float,
    /// `quant.layer.*`: integer layers, operation count = integer MACs.
    Quant,
}

impl LayerKind {
    fn prefix(self) -> &'static str {
        match self {
            LayerKind::Float => "nn.layer",
            LayerKind::Quant => "quant.layer",
        }
    }

    fn rate(self) -> (&'static str, &'static str) {
        match self {
            LayerKind::Float => ("gmac_s", "GMAC/s"),
            LayerKind::Quant => ("gop_s", "Gop/s"),
        }
    }
}

/// Every per-layer name with its unit (`--trace 1`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = SERVE_LAYER
        .iter()
        .chain(RUNTIME_LAYER)
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for kind in [LayerKind::Float, LayerKind::Quant] {
        let (rate, rate_unit) = kind.rate();
        for (path, k) in DN_LAYERS {
            let base = format!("{}.{path}.{k}", kind.prefix());
            out.push((format!("{base}.ms"), "ms"));
            out.push((format!("{base}.{rate}"), rate_unit));
            out.push((format!("{base}.share"), "ratio"));
        }
        out.push((format!("{}.glue_ms", kind.prefix()), "ms"));
        out.push((format!("{}.sum_gap_pct", kind.prefix()), "%"));
    }
    for s in SPANS {
        out.push((format!("trace.self_ms.{s}"), "ms"));
    }
    out.push(("trace.overhead_pct".into(), "%"));
    out
}

/// Fills every name of the run's mode that the workload left unset
/// with 0 and drops names of the other mode, so each run prints exactly
/// its mode's catalogue.
pub fn complete(rep: &mut Report, trace: bool) {
    let names: Vec<(String, &'static str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut kept = BTreeMap::new();
    for (name, unit) in names {
        let v = rep.metrics.get(&name).map(|m| m.0).unwrap_or(0.0);
        if !v.is_finite() {
            rep.fail(format!("metric {name} is not finite"));
        }
        kept.insert(name, (v, unit));
    }
    rep.metrics = kept;
}

/// Per-layer metrics from a walk over `frames` frames: time per frame,
/// achieved operation rate and share of the walked time, for every
/// layer of [`DN_LAYERS`]; the remaining time as glue; and the gap
/// between the walk's sum and the whole-model forwards it decomposes,
/// which must stay within 10%.
pub fn layer_metrics(rep: &mut Report, kind: LayerKind, walk: &Walk, whole_secs: f64, frames: f64) {
    let mut by_path: BTreeMap<(String, &'static str), (f64, f64)> = BTreeMap::new();
    let mut glue = walk.glue_secs;
    for l in &walk.leaves {
        if l.kind == "shuffle" {
            glue += l.secs;
            continue;
        }
        let e = by_path.entry((l.path.clone(), l.kind)).or_default();
        e.0 += l.secs;
        e.1 += l.ops;
    }
    let listed: Vec<(String, &str)> = DN_LAYERS.iter().map(|(p, k)| (p.to_string(), *k)).collect();
    let found: Vec<(String, &str)> = by_path.keys().map(|(p, k)| (p.clone(), *k)).collect();
    if found != listed {
        rep.fail(format!(
            "{} layer map changed: walked {found:?}, catalogue lists {listed:?}",
            kind.prefix()
        ));
    }
    let total = walk.total_secs();
    let (rate, rate_unit) = kind.rate();
    for ((path, k), (secs, ops)) in &by_path {
        let base = format!("{}.{path}.{k}", kind.prefix());
        rep.set(&format!("{base}.ms"), 1e3 * secs / frames, "ms");
        rep.set(
            &format!("{base}.{rate}"),
            if *secs > 0.0 { ops / secs / 1e9 } else { 0.0 },
            rate_unit,
        );
        rep.set(&format!("{base}.share"), secs / total, "ratio");
    }
    rep.set(
        &format!("{}.glue_ms", kind.prefix()),
        1e3 * glue / frames,
        "ms",
    );
    let gap = 100.0 * (total - whole_secs) / whole_secs;
    rep.set(&format!("{}.sum_gap_pct", kind.prefix()), gap, "%");
    let bytes: f64 = walk.leaves.iter().map(|l| l.bytes).sum();
    rep.set("tensor.bytes_per_frame", bytes / frames, "B_computed");
    rep.note(format!(
        "layer walk: layers + glue {:.3} ms vs whole-tile forwards {:.3} ms per frame, gap {gap:+.1}%",
        1e3 * total / frames,
        1e3 * whole_secs / frames
    ));
    if gap.abs() > 10.0 {
        rep.fail(format!(
            "per-layer times miss the tile time by {gap:+.1}% (limit 10%)"
        ));
    }
}

/// Mean self time per span instance for every name in [`SPANS`]: the
/// span's duration minus the part of its interval that its children
/// cover (the union of their intervals, since children may run in
/// parallel on pool threads).
pub fn span_self_times(rep: &mut Report, spans: &[SpanRec]) {
    let mut children: BTreeMap<(u64, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry((s.trace, s.parent))
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    let mut acc: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for s in spans {
        let Some(name) = SPANS.iter().find(|n| **n == s.name) else {
            continue;
        };
        let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
        let mut kids = children.get(&(s.trace, s.id)).cloned().unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = lo;
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(hi));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let e = acc.entry(name).or_default();
        e.0 += (s.dur_us - covered.min(s.dur_us)) as f64 / 1e3;
        e.1 += 1;
    }
    for (name, (ms, n)) in &acc {
        rep.set(&format!("trace.self_ms.{name}"), ms / *n as f64, "ms");
        rep.note(format!(
            "span {name}: {n} recorded, self {:.4} ms each",
            ms / *n as f64
        ));
    }
}
