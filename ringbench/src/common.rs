//! Inputs, models and the report every workload fills in.

use ringcnn_algebra::relu::Nonlinearity;
use ringcnn_algebra::ring::RingKind;
use ringcnn_imaging::prelude::{add_gaussian_noise, generate, PatternKind};
use ringcnn_nn::models::ernet::{dn_ernet_pu, sr4_ernet, ErNetConfig};
use ringcnn_nn::prelude::*;
use ringcnn_tensor::prelude::*;
use std::collections::BTreeMap;

/// The paper's denoising algebra on its best ring: RH4 with the
/// directional ReLU `fH`.
pub fn rh4_fh() -> Algebra {
    Algebra::new(RingKind::Rh(4), Nonlinearity::DirectionalH)
}

/// ERNet `B2R2N0` at the given base width.
pub fn b2r2n0(width: usize) -> ErNetConfig {
    ErNetConfig {
        b: 2,
        r: 2,
        n_extra: 0,
        width,
    }
}

/// DnERNet-PU B2R2N0 over RH4/fH, one image channel.
pub fn dn_model(width: usize, seed: u64) -> Sequential {
    dn_ernet_pu(&rh4_fh(), b2r2n0(width), 1, seed)
}

/// SR4ERNet B2R2N0 over RH4/fH, one image channel.
pub fn sr_model(width: usize, seed: u64) -> Sequential {
    sr4_ernet(&rh4_fh(), b2r2n0(width), 1, seed)
}

/// `count` synthetic `size × size` images with Gaussian noise
/// (σ = 25 on the 0–255 scale), cycling through every pattern family.
/// Deterministic in `seed`.
pub fn noisy_images(size: usize, count: usize, seed: u64) -> Vec<Tensor> {
    let kinds = PatternKind::all();
    (0..count)
        .map(|i| {
            let s = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            let clean = generate(kinds[i % kinds.len()], size, size, s);
            add_gaussian_noise(&clean, 25.0, s ^ 0x9e37_79b9)
        })
        .collect()
}

/// Peak resident set (`VmHWM`) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Aggregate CPU ticks of the host from `/proc/stat`: (steal, total).
/// Steal is time the hypervisor ran something else while this machine
/// wanted the CPU; runs with a high steal share are noisy.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The result of one run: the JSON line plus the human-readable notes
/// printed above it.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output checked and every validity condition held.
    pub correct: bool,
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that failed (errors, refusals, wrong outputs).
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// A report that starts out correct.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records a note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Marks the run incorrect, with the reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", why.into()));
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `{}` gives; non-finite values (which
/// no metric should produce) become 0 so the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
