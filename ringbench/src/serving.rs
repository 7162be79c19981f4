//! The serve workload `serve_small`: the `ringcnn-serve` binary in its
//! own process with default flags, driven open-loop by two client
//! connections (one line-JSON, one binary) on fixed-interval schedules.

use crate::common::{dn_model, noisy_images, peak_rss_mb, rh4_fh, sr_model, Report};
use crate::metrics;
use crate::stats::{backlog_growing, fingerprint, ladder_search, median, tail, tally, Ladder};
use ringcnn_nn::serialize::{export_model, model_to_json, AlgebraSpec, ModelSpec};
use ringcnn_quant::prelude::{calibrate_to_qmodel, qmodel_to_json, QuantOptions};
use ringcnn_serve::prelude::*;
use ringcnn_tensor::prelude::*;
use ringcnn_trace::{clock, span};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server spawns per run; `setup_s` is the median.
const SETUPS: usize = 21;
/// Distinct inputs per model; requests cycle through them.
const DISTINCT: usize = 4;
/// `serve_small` input sizes: 16 px denoising inputs and 4 px
/// super-resolution inputs (16 px outputs), so that every request's
/// kernel time stays well inside the latency objective.
const DN_INPUT: usize = 16;
const SR_INPUT: usize = 4;
/// Latency objective of `serve_small`, on its tail percentile.
const SMALL_SLO_MS: f64 = 10.0;
/// Fixed total rates of `serve_small` (requests per second).
const SMALL_LOW_RPS: f64 = 100.0;
const SMALL_HIGH_RPS: f64 = 200.0;
/// The `serve_small` rate ladder.
const SMALL_LADDER: Ladder = Ladder {
    start: 100.0,
    factor: 1.25,
    refine: 2,
    max_rate: 3000.0,
};
/// Windows per fixed `serve_small` rate, a multiple of `LADDER_ROUNDS`
/// (the windows are spread over the rounds).
const WINDOWS: usize = 6;
/// Independent climbs of the `serve_small` ladder; `max_rps_at_slo` is
/// the median of their knees.
const LADDER_ROUNDS: usize = 3;
/// Client I/O timeout; a timed-out request counts as failed with this
/// latency.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One request of a phase.
#[derive(Clone, Debug)]
struct Sample {
    stream: usize,
    /// Index into the workload's (model, precision) mix.
    combo: usize,
    input: usize,
    /// Send time minus due time.
    lateness_ms: f64,
    /// Send time minus the earliest moment the generator could send
    /// (the later of due time and the previous reply on its connection).
    gen_lag_ms: f64,
    /// Reply time minus due time (the client latency).
    latency_ms: f64,
    /// Reply time minus send time.
    rtt_ms: f64,
    queue_ms: f64,
    total_ms: f64,
    batch: usize,
    out_px: usize,
    /// Reply time, seconds after the phase started.
    done_s: f64,
    result: Result<u64, String>,
}

/// A workload's models, inputs and request mix.
struct Plan {
    dir: PathBuf,
    /// (model name, precision) per combo.
    combos: Vec<(&'static str, Precision)>,
    /// Inputs per model name.
    inputs: HashMap<&'static str, Vec<Tensor>>,
}

/// Wire per stream: one line-JSON connection and one binary.
const WIRES: [Wire; 2] = [Wire::Json, Wire::Binary];

impl Plan {
    /// The (combo, input) of request `k` on `stream`: requests alternate
    /// model, then precision, and cycle through the inputs.
    fn pick(&self, stream: usize, k: usize) -> (usize, usize) {
        let c = (k + 2 * stream) % self.combos.len();
        (c, (k / self.combos.len()) % DISTINCT)
    }
}

fn write_model(
    dir: &Path,
    name: &str,
    spec: ModelSpec,
    model: &mut ringcnn_nn::layers::structure::Sequential,
    calib: Option<&Tensor>,
) -> Result<(), String> {
    let alg = rh4_fh();
    let file = export_model(name, spec, AlgebraSpec::of(&alg), model).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(format!("{name}.json")), model_to_json(&file))
        .map_err(|e| e.to_string())?;
    if let Some(batch) = calib {
        let q = calibrate_to_qmodel(
            name,
            &spec.label(),
            &alg.label(),
            model,
            batch,
            QuantOptions::default(),
        )
        .map_err(|e| e.to_string())?;
        std::fs::write(dir.join(format!("{name}.q.json")), qmodel_to_json(&q))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn dn_spec(width: usize) -> ModelSpec {
    ModelSpec::DnErnet {
        b: 2,
        r: 2,
        n_extra: 0,
        width,
        channels_io: 1,
    }
}

fn make_plan(seed: u64, dir: PathBuf) -> Result<Plan, String> {
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dn_in = noisy_images(DN_INPUT, DISTINCT, seed);
    let sr_in = noisy_images(SR_INPUT, DISTINCT, seed ^ 0x5151);
    let dn_cal = Tensor::stack_batches(&noisy_images(DN_INPUT, 4, seed ^ 0xca1b));
    let sr_cal = Tensor::stack_batches(&noisy_images(SR_INPUT, 4, seed ^ 0xca1c));
    write_model(
        &dir,
        "dn16",
        dn_spec(16),
        &mut dn_model(16, seed),
        Some(&dn_cal),
    )?;
    let sr_spec = ModelSpec::Sr4Ernet {
        b: 2,
        r: 2,
        n_extra: 0,
        width: 16,
        channels_io: 1,
    };
    write_model(
        &dir,
        "sr16",
        sr_spec,
        &mut sr_model(16, seed + 1),
        Some(&sr_cal),
    )?;
    Ok(Plan {
        dir,
        combos: vec![
            ("dn16", Precision::Fp64),
            ("sr16", Precision::Fp64),
            ("dn16", Precision::Quant),
            ("sr16", Precision::Quant),
        ],
        inputs: HashMap::from([("dn16", dn_in), ("sr16", sr_in)]),
    })
}

/// Where the benchmark keeps its scratch files: under the cargo target
/// directory of the checkout it runs in.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target
        .join("ringbench-work")
        .join(std::process::id().to_string())
}

/// Builds (or finds up to date) the `ringcnn-serve` binary of the
/// checkout the benchmark runs in.
fn server_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "ringcnn-serve"])
        .args(["--bin", "ringcnn-serve"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ringcnn-serve failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("ringcnn-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// A running server process.
struct Server {
    child: Child,
    addr: String,
    log: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and waits for its first `list_models` reply;
    /// returns it with the spawn-to-reply time in seconds.
    fn start(
        bin: &Path,
        dir: &Path,
        extra: &[String],
        want: usize,
    ) -> Result<(Server, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .arg("--models")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains the server's log for its whole life, so a full pipe can
        // never stall it; the first `listening` record names the port.
        let log = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.contains("msg=\"listening\"") {
                    if let Some(addr) = line
                        .split_whitespace()
                        .find_map(|f| f.strip_prefix("addr="))
                    {
                        if let Some(tx) = tx.take() {
                            let _ = tx.send(addr.to_string());
                        }
                    }
                } else if line.contains("level=error") {
                    eprintln!("ringcnn-serve: {line}");
                }
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            log: Some(log),
        };
        server.addr = match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(a) => a,
            Err(_) => {
                server.kill();
                return Err("server did not report its address".into());
            }
        };
        let ready = Client::connect_retry(&server.addr, Duration::from_secs(10))
            .and_then(|mut c| c.list_models());
        match ready {
            Ok(models) if models.len() == want => Ok((server, t.elapsed().as_secs_f64())),
            Ok(models) => {
                server.kill();
                Err(format!("server lists {} models, want {want}", models.len()))
            }
            Err(e) => {
                server.kill();
                Err(format!("list_models: {e}"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown`, waits for the drain and the exit.
    fn stop(mut self) -> Result<(), String> {
        let sent = Client::connect(&self.addr).and_then(|mut c| c.shutdown_server());
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break None,
            }
        };
        if status.is_none() {
            self.kill();
            return Err("server did not exit after shutdown".into());
        }
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
        sent.map_err(|e| format!("shutdown verb: {e}"))?;
        match status {
            Some(s) if s.success() => Ok(()),
            other => Err(format!("server exited with {other:?}")),
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.log.is_some() {
            self.kill();
        }
    }
}

fn connect_pair(addr: &str) -> Result<[Client; 2], String> {
    let mk = |w: Wire| -> Result<Client, String> {
        let mut c = Client::connect_wire(addr, w).map_err(|e| e.to_string())?;
        c.set_io_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(c)
    };
    Ok([mk(WIRES[0])?, mk(WIRES[1])?])
}

/// Sends every (combo, input) once per connection, closed-loop, so
/// plans, scratch buffers and sockets are warm before timing.
fn warm_up(clients: &mut [Client; 2], plan: &Plan) -> Result<(), String> {
    for c in clients.iter_mut() {
        for (model, prec) in &plan.combos {
            for x in &plan.inputs[model] {
                c.infer_with(model, x, *prec)
                    .map_err(|e| format!("warm-up {model}: {e}"))?;
            }
        }
    }
    Ok(())
}

/// One open-loop phase at `rate` requests per second in total, for
/// `secs`: each connection sends on its own fixed-interval schedule
/// (offset by half an interval from the other) and times each request
/// from its due time.
fn phase(
    clients: &mut [Client; 2],
    plan: &Plan,
    rate: f64,
    secs: f64,
    traced: bool,
) -> Vec<Sample> {
    let interval = 2.0 / rate;
    let t0 = Instant::now() + Duration::from_millis(5);
    let per_stream: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(stream, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut prev_done = t0;
                    for k in 0.. {
                        let offset = (k as f64 + 0.5 * stream as f64) * interval;
                        if offset >= secs {
                            break;
                        }
                        let due = t0 + Duration::from_secs_f64(offset);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let (combo, input) = plan.pick(stream, k);
                        let mut sample =
                            request(client, plan, stream, combo, input, due, prev_done, traced);
                        prev_done = Instant::now();
                        sample.done_s = (prev_done - t0).as_secs_f64();
                        out.push(sample);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread"))
            .collect()
    });
    per_stream.into_iter().flatten().collect()
}

#[allow(clippy::too_many_arguments)]
fn request(
    client: &mut Client,
    plan: &Plan,
    stream: usize,
    combo: usize,
    input: usize,
    due: Instant,
    prev_done: Instant,
    traced: bool,
) -> Sample {
    let (model, prec) = plan.combos[combo];
    let x = &plan.inputs[model][input];
    let sent = Instant::now();
    let ms = |a: Instant, b: Instant| a.saturating_duration_since(b).as_secs_f64() * 1e3;
    let root = traced.then(|| span::root_span(span::mint_forced(), "client.infer"));
    let mut first_tile_us = None;
    let reply = client.infer_streaming(model, x, prec, |_, _| {
        first_tile_us.get_or_insert_with(clock::now_us);
    });
    if let (Some(root), Some(start)) = (&root, first_tile_us) {
        let ctx = root.ctx();
        span::record_manual(
            ctx.trace,
            ctx.span,
            "client.receive",
            start,
            clock::now_us(),
        );
    }
    drop(root);
    let done = Instant::now();
    let mut s = Sample {
        stream,
        combo,
        input,
        lateness_ms: ms(sent, due),
        gen_lag_ms: ms(sent, due.max(prev_done)),
        latency_ms: ms(done, due),
        rtt_ms: ms(done, sent),
        queue_ms: 0.0,
        total_ms: 0.0,
        batch: 0,
        out_px: 0,
        done_s: 0.0,
        result: Err(String::new()),
    };
    match reply {
        Ok(r) => {
            s.queue_ms = r.queue_ms;
            s.total_ms = r.total_ms;
            s.batch = r.batch_size;
            let o = r.output.shape();
            s.out_px = o.n * o.h * o.w;
            s.result = Ok(fingerprint(&r.output));
        }
        Err(e) => {
            s.latency_ms = s.latency_ms.max(IO_TIMEOUT.as_secs_f64() * 1e3);
            s.result = Err(e.code().to_string());
        }
    }
    s
}

/// Whether a phase met its objective: no failed request (errors and
/// refusals; wrong outputs are found after timing), tail within
/// `slo_ms`, and no growing backlog on either connection.
fn meets(samples: &[Sample], slo_ms: f64, interval_ms: f64) -> bool {
    if samples.is_empty() || samples.iter().any(|s| s.result.is_err()) {
        return false;
    }
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let growing = (0..2).any(|st| {
        let late: Vec<f64> = samples
            .iter()
            .filter(|s| s.stream == st)
            .map(|s| s.lateness_ms)
            .collect();
        backlog_growing(&late, interval_ms)
    });
    tail(&lat, 99).value <= slo_ms && !growing
}

/// Completed (successful) requests per second of a phase's wall time,
/// from its start to its last reply.
fn achieved_rate(samples: &[Sample]) -> f64 {
    let ok = samples.iter().filter(|s| s.result.is_ok()).count();
    let wall = wall_secs(samples);
    if wall > 0.0 {
        ok as f64 / wall
    } else {
        0.0
    }
}

/// Wall time of one window: from its start to its last reply.
fn wall_secs(samples: &[Sample]) -> f64 {
    samples.iter().map(|s| s.done_s).fold(0.0, f64::max)
}

/// Median over windows of a per-window statistic.
fn windowed(windows: &[&[Sample]], stat: impl Fn(&[Sample]) -> f64) -> f64 {
    let v: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stat(w))
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// One fixed-rate load level and the samples of each of its windows.
struct Level {
    label: &'static str,
    rate: f64,
    windows: Vec<Vec<Sample>>,
}

impl Level {
    fn samples(&self) -> Vec<Sample> {
        self.windows.concat()
    }
}

/// The fixed-rate levels of `serve_small`, with no windows run yet.
fn levels() -> Vec<Level> {
    [("low", SMALL_LOW_RPS), ("high", SMALL_HIGH_RPS)]
        .into_iter()
        .map(|(label, rate)| Level {
            label,
            rate,
            windows: Vec::new(),
        })
        .collect()
}

/// Runs `windows` more windows of `secs` at every level, round-robin
/// across levels (low, high, low, high, …).
fn run_levels(
    clients: &mut [Client; 2],
    plan: &Plan,
    levels: &mut [Level],
    windows: usize,
    secs: f64,
    traced: bool,
) {
    for _ in 0..windows {
        for l in levels.iter_mut() {
            l.windows.push(phase(clients, plan, l.rate, secs, traced));
        }
    }
}

/// One climb of the rate ladder in steps of `step_secs`; returns its
/// knee (0 when no rate meets the objective) and adds every request to
/// `all`.
fn climb(
    rep: &mut Report,
    clients: &mut [Client; 2],
    plan: &Plan,
    round: usize,
    step_secs: f64,
    all: &mut Vec<Sample>,
) -> f64 {
    let res = ladder_search(SMALL_LADDER, |rate| {
        // A step misses only when two tries in a row miss, so one burst
        // of host noise does not end the climb.
        for attempt in 0..2 {
            let s = phase(clients, plan, rate, step_secs, false);
            let ok = meets(&s, SMALL_SLO_MS, 2e3 / rate);
            let t = tail(&field(&s, |x| x.latency_ms), 99);
            rep.note(format!(
                "ladder round {round} {rate:.1} req/s try {attempt}: {} requests, \
                 {:.3} ms at {} -> {}",
                s.len(),
                t.value,
                t.label(),
                if ok { "meets" } else { "misses" }
            ));
            let achieved = achieved_rate(&s);
            all.extend(s);
            if ok {
                return Some(achieved);
            }
        }
        None
    });
    res.map_or(0.0, |best| best.1)
}

fn field<T>(samples: &[Sample], f: impl Fn(&Sample) -> T) -> Vec<T> {
    samples.iter().map(f).collect()
}

fn describe(rep: &mut Report, plan: &Plan, label: &str, rate: f64, samples: &[Sample]) {
    let lat = field(samples, |s| s.latency_ms);
    let t = tail(&lat, 99);
    let lag = tail(&field(samples, |s| s.gen_lag_ms), 99);
    rep.note(format!(
        "{label} @ {rate:.1} req/s: {} requests, latency p50 {:.3} ms, {:.3} ms at {}; \
         generator lag {:.3} ms at {}; failed {}",
        samples.len(),
        median(&lat),
        t.value,
        t.label(),
        lag.value,
        lag.label(),
        samples.iter().filter(|s| s.result.is_err()).count()
    ));
    for (c, (model, prec)) in plan.combos.iter().enumerate() {
        let ok: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.combo == c && s.result.is_ok())
            .collect();
        if ok.is_empty() {
            continue;
        }
        let med = |f: &dyn Fn(&Sample) -> f64| median(&ok.iter().map(|s| f(s)).collect::<Vec<_>>());
        rep.note(format!(
            "  {model} {}: p50 latency {:.3} ms, server total {:.3} ms, queue {:.3} ms, batch {:.2}",
            prec.label(),
            med(&|s| s.latency_ms),
            med(&|s| s.total_ms),
            med(&|s| s.queue_ms),
            ok.iter().map(|s| s.batch as f64).sum::<f64>() / ok.len() as f64
        ));
    }
}

/// Runs `serve_small`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let bin = server_binary()?;
    let dir = work_dir();
    let result = run_in(seed, seconds, trace, &bin, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(seed: u64, seconds: f64, trace: bool, bin: &Path, dir: &Path) -> Result<Report, String> {
    let mut rep = Report::new();
    let plan = make_plan(seed, dir.join("models"))?;
    let n_models = plan.inputs.len();

    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let (s, secs) = Server::start(bin, &plan.dir, &[], n_models)?;
        setups.push(secs);
        if i + 1 < SETUPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    rep.set("setup_s", median(&setups), "s");

    let mut clients = connect_pair(&server.addr)?;
    warm_up(&mut clients, &plan)?;
    let mut admin = Client::connect(&server.addr).map_err(|e| e.to_string())?;
    let before = admin.stats().map_err(|e| e.to_string())?;

    // Fixed-rate levels, measured in windows interleaved across the
    // whole run (low, high, low, high, …, and one ladder climb after
    // each round of windows), so that a burst of host noise lasting a
    // few seconds lands in a minority of each level's windows.
    let window_secs = 0.25 * seconds / WINDOWS as f64;
    let rounds = if trace { 1 } else { LADDER_ROUNDS };
    let step_secs = 0.5 * seconds / (LADDER_ROUNDS * 14) as f64;
    let mut fixed = levels();
    let mut ladder = Vec::new();
    let mut knees = Vec::new();
    for round in 0..rounds {
        run_levels(
            &mut clients,
            &plan,
            &mut fixed,
            WINDOWS / rounds,
            window_secs,
            false,
        );
        if !trace {
            knees.push(climb(
                &mut rep,
                &mut clients,
                &plan,
                round,
                step_secs,
                &mut ladder,
            ));
        }
    }
    for l in &fixed {
        describe(&mut rep, &plan, l.label, l.rate, &l.samples());
    }
    let after = admin.stats().map_err(|e| e.to_string())?;
    let max_rps = if trace {
        0.0
    } else {
        rep.note(format!(
            "ladder knees {knees:?} req/s; the median is max_rps_at_slo"
        ));
        median(&knees)
    };
    let mut all: Vec<Sample> = fixed.iter().flat_map(|l| l.samples()).collect();
    all.extend(ladder);
    if let Some(rss) = peak_rss_mb(&server.pid()) {
        rep.set("peak_rss_mb", rss, "MiB");
    }
    drop(clients);
    drop(admin);
    server.stop()?;

    // Generator validity: at each level, the median window's generator
    // lag tail must stay within one per-connection send interval.
    let mut lag_all = Vec::new();
    for l in &fixed {
        let ws: Vec<&[Sample]> = l.windows.iter().map(Vec::as_slice).collect();
        let lag = windowed(&ws, |w| tail(&field(w, |s| s.gen_lag_ms), 99).value);
        let interval = 2e3 / l.rate;
        if lag > interval {
            rep.fail(format!(
                "generator fell behind at {}: lag tail {lag:.3} ms exceeds one send interval \
                 ({interval:.1} ms)",
                l.label
            ));
        }
        lag_all.extend(field(&l.samples(), |s| s.gen_lag_ms));
    }
    let lag = tail(&lag_all, 99);

    // Outputs: every reply bit-exact with in-process inference on a
    // registry loaded from the same files.
    let registry = ModelRegistry::new();
    registry
        .load_dir(&plan.dir)
        .map_err(|e| format!("oracle registry: {e}"))?;
    let mut expected: HashMap<(usize, usize), u64> = HashMap::new();
    for (c, (model, prec)) in plan.combos.iter().enumerate() {
        let entry = registry.get(model).ok_or("oracle registry lacks a model")?;
        for (i, x) in plan.inputs[model].iter().enumerate() {
            let y = entry.infer_precision(x, *prec).map_err(|e| e.to_string())?;
            expected.insert((c, i), fingerprint(&y));
        }
    }
    let keyed: Vec<((usize, usize), Result<u64, String>)> =
        field(&all, |s| ((s.combo, s.input), s.result.clone()));
    let t = tally(&keyed, |k| expected.get(k).copied());
    rep.attempted = t.attempted;
    rep.failed = t.failed;
    rep.note(format!(
        "outputs: {} requests, {} failed ({} refused, {} wrong)",
        t.attempted, t.failed, t.rejected, t.mismatched
    ));
    if t.failed > 0 {
        rep.fail(format!("{} of {} requests failed", t.failed, t.attempted));
    }

    // End-to-end metrics: medians over windows of per-window statistics.
    let fixed_samples: Vec<Sample> = fixed.iter().flat_map(|l| l.samples()).collect();
    let all_windows: Vec<&[Sample]> = fixed
        .iter()
        .flat_map(|l| l.windows.iter().map(Vec::as_slice))
        .collect();
    let wall: f64 = all_windows.iter().map(|w| wall_secs(w)).sum();
    let px: usize = fixed_samples
        .iter()
        .filter(|s| s.result.is_ok())
        .map(|s| s.out_px)
        .sum();
    rep.set("mpix_per_s", px as f64 / 1e6 / wall, "Mpix/s");
    let server_ms = |w: &[Sample]| -> Vec<f64> {
        w.iter()
            .filter(|s| s.result.is_ok())
            .map(|s| s.total_ms)
            .collect()
    };
    let latency = |w: &[Sample]| field(w, |s| s.latency_ms);
    rep.set(
        "frame_p50_ms",
        windowed(&all_windows, |w| median(&server_ms(w))),
        "ms",
    );
    rep.set(
        "frame_p90_ms",
        windowed(&all_windows, |w| tail(&server_ms(w), 90).value),
        "ms",
    );
    for (name, l) in [("low", &fixed[0]), ("high", &fixed[fixed.len() - 1])] {
        let ws: Vec<&[Sample]> = l.windows.iter().map(Vec::as_slice).collect();
        rep.set(
            &format!("{name}_p50_ms"),
            windowed(&ws, |w| median(&latency(w))),
            "ms",
        );
        rep.set(
            &format!("{name}_p90_ms"),
            windowed(&ws, |w| tail(&latency(w), 90).value),
            "ms",
        );
    }
    rep.set("max_rps_at_slo", max_rps, "1/s");

    if trace {
        serve_layers(&mut rep, &fixed_samples, &before, &after, &lag);
        let high = fixed[fixed.len() - 1].samples();
        traced_rerun(&mut rep, bin, dir, &plan, window_secs, &high)?;
    }
    Ok(rep)
}

/// Serve-layer metrics from the untraced fixed-rate phases.
fn serve_layers(
    rep: &mut Report,
    samples: &[Sample],
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    lag: &crate::stats::Tail,
) {
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.result.is_ok()).collect();
    if ok.is_empty() {
        return;
    }
    let q: Vec<f64> = ok.iter().map(|s| s.queue_ms).collect();
    rep.set("serve.scheduler.queue_ms_p50", median(&q), "ms");
    rep.set("serve.scheduler.queue_ms_p99", tail(&q, 99).value, "ms");
    rep.set(
        "serve.scheduler.batch_mean",
        ok.iter().map(|s| s.batch as f64).sum::<f64>() / ok.len() as f64,
        "count",
    );
    for (wire, name) in [(Wire::Json, "json"), (Wire::Binary, "binary")] {
        let v: Vec<f64> = ok
            .iter()
            .filter(|s| WIRES[s.stream] == wire)
            .map(|s| s.rtt_ms - s.total_ms)
            .collect();
        if !v.is_empty() {
            rep.set(&format!("serve.wire_ms_p50.{name}"), median(&v), "ms");
        }
    }
    let exec: Vec<f64> = ok.iter().map(|s| s.total_ms - s.queue_ms).collect();
    rep.set("serve.registry.exec_ms_p50", median(&exec), "ms");
    let failed = samples.len() - ok.len();
    let rejected = samples
        .iter()
        .filter(|s| matches!(&s.result, Err(c) if crate::stats::is_refusal(c)))
        .count();
    rep.set("serve.failed", failed as f64, "count");
    rep.set("serve.rejected", rejected as f64, "count");
    rep.set("serve.gen_lag_ms_p99", lag.value, "ms");
    let done = after.completed.saturating_sub(before.completed).max(1);
    rep.set(
        "tensor.gemm.dispatches_per_req",
        after.gemm_dispatches.saturating_sub(before.gemm_dispatches) as f64 / done as f64,
        "count",
    );
}

/// The traced half: a fresh server with `--trace-slow-ms 0 --trace-out`
/// runs the same fixed-rate phases with client spans; reports span self
/// times from both processes and the overhead on the high phase's p50.
fn traced_rerun(
    rep: &mut Report,
    bin: &Path,
    dir: &Path,
    plan: &Plan,
    window_secs: f64,
    untraced_high: &[Sample],
) -> Result<(), String> {
    let out = dir.join("server-trace.json");
    let extra = vec![
        "--trace-slow-ms".to_string(),
        "0".to_string(),
        "--trace-out".to_string(),
        out.display().to_string(),
    ];
    let (server, _) = Server::start(bin, &plan.dir, &extra, plan.inputs.len())?;
    let mut clients = connect_pair(&server.addr)?;
    warm_up(&mut clients, plan)?;
    let mut traced = levels();
    run_levels(&mut clients, plan, &mut traced, WINDOWS, window_secs, true);
    for l in &traced {
        describe(
            rep,
            plan,
            &format!("traced {}", l.label),
            l.rate,
            &l.samples(),
        );
    }
    let high = traced[traced.len() - 1].samples();
    drop(clients);
    server.stop()?;

    let untraced = median(&field(untraced_high, |s| s.latency_ms));
    let traced = median(&field(&high, |s| s.latency_ms));
    rep.set(
        "trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
    );
    rep.note(format!(
        "tracing overhead: high-rate p50 {traced:.3} ms traced vs {untraced:.3} ms untraced"
    ));
    metrics::span_self_times(rep, &span::snapshot());
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    metrics::span_self_times(rep, &parse_chrome(&text)?);
    Ok(())
}

/// The server's chrome://tracing export, back as span records.
fn parse_chrome(text: &str) -> Result<Vec<span::SpanRec>, String> {
    let doc: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let serde::Value::Array(events) = doc.field("traceEvents").map_err(|e| e.to_string())? else {
        return Err("traceEvents is not an array".into());
    };
    let num = |v: &serde::Value, k: &str| -> Result<u64, String> {
        v.field(k)
            .and_then(|x| x.as_u64())
            .map_err(|e| format!("{k}: {e}"))
    };
    events
        .iter()
        .map(|e| {
            let args = e.field("args").map_err(|x| x.to_string())?;
            let serde::Value::Str(name) = e.field("name").map_err(|x| x.to_string())? else {
                return Err("span name is not a string".to_string());
            };
            Ok(span::SpanRec {
                trace: num(args, "trace")?,
                id: num(args, "span")? as u32,
                parent: num(args, "parent")? as u32,
                name: name.clone(),
                start_us: num(e, "ts")?,
                dur_us: num(e, "dur")?,
                tid: num(e, "tid")? as u32,
                arg0: num(args, "arg0")?,
                arg1: num(args, "arg1")?,
            })
        })
        .collect()
}
