//! `ringbench`: the RingCNN benchmark. One run measures one workload for
//! a fixed time from outside the program — timing calls into the public
//! functions of `ringcnn_nn::runtime`, the `nn` layers, `ringcnn_quant`,
//! `ringcnn_tensor::gemm` and, through its TCP client, the
//! `ringcnn-serve` binary — checks every output against an oracle, and
//! prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path ringbench/Cargo.toml -- \
//!     --workload <offline_dn_f32|offline_dn_q8|serve_small> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced variant and prints the per-layer metrics. See `README.md`.

mod common;
mod layers;
mod metrics;
mod offline;
mod serving;
mod stats;

use std::process::ExitCode;

/// Every workload name; `BENCHMARK.json` and `README.md` say why each exists.
const WORKLOADS: &[&str] = &["offline_dn_f32", "offline_dn_q8", "serve_small"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ringbench: {e}");
            eprintln!("usage: ringbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let ticks = common::cpu_ticks();
    let result = match args.workload.as_str() {
        "offline_dn_f32" => Ok(offline::run(
            offline::Precision::F32,
            args.seed,
            args.seconds,
            args.trace,
        )),
        "offline_dn_q8" => Ok(offline::run(
            offline::Precision::Q8,
            args.seed,
            args.seconds,
            args.trace,
        )),
        "serve_small" => serving::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut rep = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ringbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks, common::cpu_ticks()) {
        let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        rep.note(format!("host CPU steal during the run: {share:.1}%"));
    }
    if rep.attempted == 0 {
        rep.fail("no operation was attempted");
    }
    metrics::complete(&mut rep, args.trace);
    for line in &rep.notes {
        println!("# {line}");
    }
    for (name, (v, unit)) in &rep.metrics {
        println!("# {name} = {v} {unit}");
    }
    println!("{}", rep.json());
    ExitCode::SUCCESS
}
