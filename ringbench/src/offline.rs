//! The offline workloads: a stream of noisy frames through the tiled
//! `BatchRunner::run`, in f32 (`offline_dn_f32`) or through the 8/8-bit
//! integer pipeline (`offline_dn_q8`).

use crate::common::{dn_model, noisy_images, peak_rss_mb, Report};
use crate::layers::{quant_reference, walk_float, walk_quant, Walk};
use crate::metrics::{self, LayerKind};
use crate::stats::{fingerprint, median, tail, tally};
use ringcnn_nn::backend::ConvBackend;
use ringcnn_nn::layer::Layer;
use ringcnn_nn::prelude::*;
use ringcnn_nn::runtime::InferenceModel;
use ringcnn_nn::serialize::{load_params, save_params};
use ringcnn_quant::prelude::{QuantOptions, QuantizedModel};
use ringcnn_tensor::gemm::profile;
use ringcnn_tensor::prelude::*;
use ringcnn_trace::span;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Core tile of the runner, input pixels.
const TILE: usize = 64;
/// Base channel width of the offline model.
const WIDTH: usize = 32;
/// Distinct frames the stream cycles through.
const DISTINCT: usize = 3;
/// Least set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Least total set-up time per run: a sub-millisecond set-up (the f32
/// model) repeats until this much has passed, so its median is steady.
const SETUP_MIN_SECS: f64 = 0.25;
/// Least frames run before timing starts (plan and scratch warm-up).
const WARMUP: usize = 2;
/// Least warm-up time: the q8 pipeline's first frames run slow for
/// longer than two frames.
const WARMUP_SECS: f64 = 1.0;
/// Frames decomposed layer by layer in the traced run.
const WALK_FRAMES: usize = 2;
/// PSNR a tiled f32 frame must reach against the naive whole-image run
/// (see [`peak_psnr`]).
const F32_MIN_PSNR: f64 = 100.0;
/// Frame-latency objective of an offline stream, for `max_rps_at_slo`.
const FRAME_SLO_MS: f64 = 1000.0;

/// Which offline workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// `offline_dn_f32`: 256×256 frames, FastRingConv + f32 GEMM.
    F32,
    /// `offline_dn_q8`: 128×128 frames, integer pipeline.
    Q8,
}

impl Precision {
    fn frame_size(self) -> usize {
        match self {
            Precision::F32 => 256,
            Precision::Q8 => 128,
        }
    }
}

/// The model a workload runs: the float network, plus its calibrated
/// integer lowering for `Q8`.
struct Built {
    float: Sequential,
    quant: Option<QuantizedModel>,
}

fn build(prec: Precision, seed: u64) -> Built {
    let mut float = dn_model(WIDTH, seed);
    let quant = match prec {
        Precision::F32 => None,
        Precision::Q8 => {
            let calib = Tensor::stack_batches(&noisy_images(prec.frame_size(), 4, seed ^ 0xca1b));
            Some(
                QuantizedModel::try_quantize(&mut float, &calib, QuantOptions::default())
                    .expect("calibration of a freshly built model succeeds"),
            )
        }
    };
    Built { float, quant }
}

/// Build, prepare and (for q8) calibrate, timed.
fn set_up(prec: Precision, seed: u64) -> (Built, f64) {
    let t = Instant::now();
    let mut b = build(prec, seed);
    let topo = match &mut b.quant {
        Some(q) => BatchRunner::new(q).topo(),
        None => BatchRunner::new(&mut b.float).topo(),
    };
    black_box(topo);
    (b, t.elapsed().as_secs_f64())
}

/// Each frame's input index and output fingerprint.
type Outcomes = Vec<(usize, Result<u64, String>)>;

/// Timed stream of frames for `secs`; returns per-frame latency (ms)
/// and each frame's (input index, output fingerprint).
fn stream(
    runner: &BatchRunner<'_>,
    frames: &[Tensor],
    secs: f64,
    traced: bool,
) -> (Vec<f64>, Outcomes) {
    let mut lat = Vec::new();
    let mut outs = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < Duration::from_secs_f64(secs) || lat.len() < 20 {
        let k = i % frames.len();
        let t = Instant::now();
        let root = traced.then(|| span::root_span(span::mint_forced(), "runner.run"));
        let y = runner.run(&frames[k]);
        drop(root);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        outs.push((k, Ok(fingerprint(&y))));
        i += 1;
    }
    (lat, outs)
}

/// Runs an offline workload.
pub fn run(prec: Precision, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::new();
    let size = prec.frame_size();
    let frames = noisy_images(size, DISTINCT, seed);

    let mut setups = Vec::new();
    let mut built = None;
    while setups.len() < SETUPS || setups.iter().sum::<f64>() < SETUP_MIN_SECS {
        let (b, s) = set_up(prec, seed);
        setups.push(s);
        built = Some(b);
    }
    let mut built = built.expect("at least one set-up");
    rep.set("setup_s", median(&setups), "s");
    rep.note(format!("setup_s: median of {} set-ups", setups.len()));
    if let Some(rss) = peak_rss_mb("self") {
        rep.note(format!("peak RSS after set-up: {rss:.1} MiB"));
    }

    // The stream, timed. The traced run splits its time between an
    // untraced half (the reference for the tracing overhead) and a
    // traced half.
    let (grid, halo, frame_counters, lat, outs, traced_lat) = {
        let runner = match &mut built.quant {
            Some(q) => BatchRunner::new(q),
            None => BatchRunner::new(&mut built.float),
        }
        .with_tile(TileConfig::with_tile(TILE));
        let warm = Instant::now();
        for (n, f) in frames.iter().cycle().enumerate() {
            if n >= WARMUP && warm.elapsed().as_secs_f64() >= WARMUP_SECS {
                break;
            }
            black_box(runner.run(f));
        }
        let before = profile::snapshot();
        let untraced_secs = if trace { seconds / 2.0 } else { seconds };
        let (lat, outs) = stream(&runner, &frames, untraced_secs, false);
        let counters = profile::snapshot().delta_since(&before);
        let frame_counters = (counters, lat.len());
        let traced_lat = if trace {
            Some(stream(&runner, &frames, seconds / 2.0, true).0)
        } else {
            None
        };
        (
            runner.plan_grid(size, size),
            runner.halo(),
            frame_counters,
            lat,
            outs,
            traced_lat,
        )
    };
    if let Some(rss) = peak_rss_mb("self") {
        rep.set("peak_rss_mb", rss, "MiB");
    }

    // Correctness: every frame of one input is bit-identical to the
    // first (the runtime is deterministic at any pool size), and that
    // output meets the precision's oracle on the whole image.
    let first: Vec<Option<u64>> = (0..DISTINCT)
        .map(|k| {
            outs.iter()
                .find(|(i, _)| *i == k)
                .and_then(|(_, r)| r.clone().ok())
        })
        .collect();
    let tiled: Vec<Tensor> = {
        let runner = match &mut built.quant {
            Some(q) => BatchRunner::new(q),
            None => BatchRunner::new(&mut built.float),
        }
        .with_tile(TileConfig::with_tile(TILE));
        frames.iter().map(|x| runner.run(x)).collect()
    };
    let naive = match prec {
        Precision::F32 => Some(naive_twin(&mut built.float, seed)),
        Precision::Q8 => None,
    };
    let mut oracle_ok = [false; DISTINCT];
    for (k, (x, y)) in frames.iter().zip(&tiled).enumerate() {
        if Some(fingerprint(y)) != first[k] {
            rep.fail(format!("frame {k}: output changed between calls"));
            continue;
        }
        oracle_ok[k] = match (&built.quant, &naive) {
            (Some(q), _) => {
                let exact = fingerprint(&quant_reference(q, x)) == fingerprint(y);
                rep.note(format!(
                    "frame {k}: q8 tiled vs scalar i64 oracle: {}",
                    if exact { "bit-exact" } else { "MISMATCH" }
                ));
                exact
            }
            (None, Some(naive)) => {
                let want = Layer::forward_infer(naive, x);
                let db = peak_psnr(y, &want);
                rep.note(format!(
                    "frame {k}: f32 tiled vs naive whole-image: {db:.1} dB at peak {:.2} \
                     ({:.1} dB at peak 1)",
                    want.max_abs().max(1.0),
                    ringcnn_imaging::metrics::psnr(y, &want)
                ));
                db > F32_MIN_PSNR
            }
            (None, None) => false,
        };
    }
    let t = tally(&outs, |k| first[*k].filter(|_| oracle_ok[*k]));
    rep.attempted = t.attempted;
    rep.failed = t.failed;
    if t.failed > 0 {
        rep.fail(format!(
            "{} of {} frames failed their oracle",
            t.failed, t.attempted
        ));
    }

    end_to_end(&mut rep, size, &lat, seconds);
    if trace {
        let (counters, nframes) = frame_counters;
        let per = |v: u64| v as f64 / nframes as f64;
        rep.set("tensor.gemm.tiles_per_frame", per(counters.tiles), "count");
        rep.set(
            "tensor.gemm.panel_packs_per_frame",
            per(counters.panel_packs),
            "count",
        );
        rep.set(
            "tensor.gemm.dispatches_per_frame",
            per(counters.total_dispatches()),
            "count",
        );
        let uses = counters.panel_packs + counters.panel_reuses;
        rep.set(
            "tensor.gemm.panel_reuse_ratio",
            if uses == 0 {
                0.0
            } else {
                counters.panel_reuses as f64 / uses as f64
            },
            "ratio",
        );
        let untraced_p50 = median(&lat);
        let traced_p50 = median(traced_lat.as_deref().unwrap_or(&lat));
        rep.set(
            "trace.overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
            "%",
        );
        rep.note(format!(
            "tracing overhead: frame p50 {traced_p50:.3} ms traced vs {untraced_p50:.3} ms untraced"
        ));
        traced_layers(&mut rep, &mut built, &frames, grid, halo, size);
    }
    rep
}

/// PSNR of `got` against `want` with the reference's peak magnitude (at
/// least 1) as the signal range. The seeded, untrained weights put
/// outputs well outside `[0, 1]` (up to about 20), where the `[0, 1]`
/// PSNR of `ringcnn_imaging` would demand a smaller relative error from
/// larger values; for outputs in `[0, 1]` the two agree.
fn peak_psnr(got: &Tensor, want: &Tensor) -> f64 {
    let peak = f64::from(want.max_abs()).max(1.0);
    10.0 * (peak * peak / got.mse(want)).log10()
}

/// A second copy of the float model with the same weights on the naive
/// convolution backend (`conv2d_forward`), the f32 oracle.
fn naive_twin(model: &mut Sequential, seed: u64) -> Sequential {
    let mut twin = dn_model(WIDTH, seed);
    load_params(&mut twin, &save_params(model)).expect("same architecture");
    twin.set_conv_backend(ConvBackend::Naive);
    Layer::prepare_inference(&mut twin);
    twin
}

fn end_to_end(rep: &mut Report, size: usize, lat: &[f64], seconds: f64) {
    let busy_s: f64 = lat.iter().sum::<f64>() / 1e3;
    let mpix = (size * size) as f64 / 1e6;
    rep.set("mpix_per_s", mpix * lat.len() as f64 / busy_s, "Mpix/s");
    let p50 = median(lat);
    let t90 = tail(lat, 90);
    let t99 = tail(lat, 99);
    rep.note(format!(
        "{} frames of {size}x{size} in {busy_s:.2} s (asked {seconds} s); frame p50 {p50:.3} ms, \
         tail {:.3} ms at {}, {:.3} ms at {}",
        lat.len(),
        t90.value,
        t90.label(),
        t99.value,
        t99.label()
    ));
    // One load level: frames back to back, one in flight. The level and
    // rate names read the same stream (see README).
    for (name, v) in [
        ("frame_p50_ms", p50),
        ("frame_p90_ms", t90.value),
        ("low_p50_ms", p50),
        ("low_p90_ms", t90.value),
        ("high_p50_ms", p50),
        ("high_p90_ms", t90.value),
    ] {
        rep.set(name, v, "ms");
    }
    let fps = lat.len() as f64 / busy_s;
    rep.set(
        "max_rps_at_slo",
        if t99.value <= FRAME_SLO_MS { fps } else { 0.0 },
        "1/s",
    );
}

/// The traced decomposition: each tile window of `WALK_FRAMES` frames
/// runs once whole (`forward_infer`) and once layer by layer,
/// alternating, and the per-layer times are checked to sum to the tile
/// time within 10%.
fn traced_layers(
    rep: &mut Report,
    built: &mut Built,
    frames: &[Tensor],
    grid: Option<Vec<Window>>,
    halo: usize,
    size: usize,
) {
    let windows: Vec<Window> = match &grid {
        Some(g) => g.iter().map(|c| extend(c, halo, size)).collect(),
        None => vec![Window::new(0, 0, size, size)],
    };
    let computed: usize = windows.iter().map(|w| w.h * w.w).sum();
    rep.set("nn.runtime.tiles_per_frame", windows.len() as f64, "count");
    rep.set(
        "nn.runtime.halo_overhead",
        computed as f64 / (size * size) as f64,
        "ratio",
    );

    let mut whole_secs = 0.0;
    let mut walk = Walk::default();
    for x in frames.iter().cycle().take(WALK_FRAMES) {
        let _frame = span::root_span(span::mint_forced(), "walk.frame");
        for (i, w) in windows.iter().enumerate() {
            let tile = x.extract_window(0, *w);
            let (a, b) = if i % 2 == 0 {
                let a = whole_forward(built, &tile, &mut whole_secs);
                (a, layered_forward(built, &tile, &mut walk))
            } else {
                let b = layered_forward(built, &tile, &mut walk);
                (whole_forward(built, &tile, &mut whole_secs), b)
            };
            if fingerprint(&a) != fingerprint(&b) {
                rep.fail(format!(
                    "tile {i}: the layer walk diverged from forward_infer"
                ));
            }
        }
    }
    let frames_walked = WALK_FRAMES as f64;
    let family = if built.quant.is_some() {
        LayerKind::Quant
    } else {
        LayerKind::Float
    };
    metrics::layer_metrics(rep, family, &walk, whole_secs, frames_walked);
    metrics::span_self_times(rep, &span::snapshot());
}

/// One tile through the model's own `forward_infer`, timed.
fn whole_forward(built: &Built, tile: &Tensor, secs: &mut f64) -> Tensor {
    let _s = span::child_span("walk.tile");
    let t = Instant::now();
    let y = match &built.quant {
        Some(q) => InferenceModel::forward_infer(q, tile),
        None => Layer::forward_infer(&built.float, tile),
    };
    *secs += t.elapsed().as_secs_f64();
    y
}

/// One tile through the layer walk.
fn layered_forward(built: &mut Built, tile: &Tensor, walk: &mut Walk) -> Tensor {
    let _s = span::child_span("walk.layers");
    match &built.quant {
        Some(q) => walk_quant(q, tile, walk),
        None => walk_float(&mut built.float, tile, walk),
    }
}

/// The halo-extended window of a core tile, clipped at the image border
/// (what `BatchRunner::run` computes per tile).
fn extend(core: &Window, halo: usize, size: usize) -> Window {
    let h = halo as isize;
    let s = size as isize;
    let y0 = (core.y0 - h).max(0);
    let x0 = (core.x0 - h).max(0);
    let y1 = (core.y0 + core.h as isize + h).min(s);
    let x1 = (core.x0 + core.w as isize + h).min(s);
    Window::new(y0, x0, (y1 - y0) as usize, (x1 - x0) as usize)
}
