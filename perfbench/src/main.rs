//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload control|stream|broadcast|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs against an in-process server built with the shipping
//! defaults (reactor transport, inline data plane, `kernels::active()`,
//! loopback TCP).  With `--trace 0` the last line of standard output is one
//! JSON object carrying the end-to-end metrics; with `--trace 1` the same
//! workload runs untraced and then traced, and the object carries the
//! per-layer metrics while every span goes to one file under `.bench_out/`.
//! Every operation's output is checked; any failed check makes the exit
//! code non-zero.  See `perfbench/README.md` for the workloads and the
//! layer-to-end-to-end map.

#![deny(unsafe_code)]

mod broadcast;
mod control;
mod probes;
mod sched;
mod stream;
mod trace;
mod util;
mod window;

use af_server::{RunningServer, ServerStats};
use trace::Trace;
use util::{json_num, json_str, median, Dist};

/// Independent trials per run.  Each builds its own server, connections
/// and contexts from nothing (timed: `setup_s` is the median over trials)
/// and measures for its share of `--seconds`; every figure is the median
/// over trials.  Thread placement and similar per-instance accidents of a
/// server's start-up shift a whole instance's numbers together, so one
/// instance per run would let them decide a run's result.
const TRIALS: usize = 10;

/// Seconds of untimed `control` load, on a throwaway rig, before a
/// `control` run's first trial.  The host adapts to a process that sleeps
/// and wakes thousands of times a second over its first few seconds: without
/// this, the first two or three trials read about 50 % more server CPU per
/// request than the rest.  The closed loops keep their CPUs busy and show
/// no such start.
const CONTROL_WARM_S: f64 = 6.0;

/// End-to-end metrics every workload reports, in the order
/// `BENCHMARK.json` lists them.  Each workload also prints its own
/// end-to-end metrics by name (tails, throughput, the control rate
/// search); see README.md for why only these are bounded.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("server_cpu_us_per_op", "us"),
];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them.
const LAYERS: &[(&str, &str)] = &[
    ("client.cpu_us_per_op", "us/op"),
    ("proto.gettime_encode_ns", "ns"),
    ("proto.gettime_reply_decode_ns", "ns"),
    ("proto.play8k_request_decode_ns", "ns"),
    ("proto.record8k_reply_encode_ns", "ns"),
    ("reactor.cpu_us_per_op", "us/op"),
    ("reactor.runq_wait_us_per_op", "us/op"),
    ("reactor.switches_per_op", "count/op"),
    ("reactor.readiness_per_op", "count/op"),
    ("reactor.wakeups_per_op", "count/op"),
    ("reactor.partial_reads_per_op", "count/op"),
    ("dispatch.cpu_us_per_op", "us/op"),
    ("dispatch.runq_wait_us_per_op", "us/op"),
    ("dispatch.switches_per_op", "count/op"),
    ("buffer.write_play_ns_per_kb", "ns/KB"),
    ("buffer.read_rec_ns_per_kb", "ns/KB"),
    ("buffer.update_us", "us"),
    ("dsp.mix_cycles_per_byte", "cycles/B"),
    ("dsp.ulaw_to_lin16_cycles_per_byte", "cycles/B"),
    ("bcast.encode_cycles_per_byte", "cycles/B"),
    ("bcast.publish_us", "us"),
    ("bcast.fetch_batch_ns", "ns"),
    ("bcast.skip_aheads", "count"),
    ("bcast.evictions", "count"),
    ("update.run_us", "us"),
    ("server.protocol_errors", "count"),
    ("server.evictions", "count"),
    ("server.disconnects", "count"),
    ("gen.late_p99_us", "us"),
    ("gen.backlog_max", "count"),
    ("trace.overhead_frac", "ratio"),
];

pub struct RunCtx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Whether this trial also runs `control`'s rate search (the last
    /// untraced trial of a run does).
    pub search: bool,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    /// For a latency: its median and highest supported percentile.
    pub dist: Option<(f64, &'static str, f64)>,
    /// What a per-op ratio is divided by.
    pub base: Option<String>,
    /// For a per-window median: the number of windows.
    pub windows: Option<usize>,
    /// Trials the value is the median of.
    pub trials: usize,
}

impl Metric {
    pub fn of(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            n,
            dist: None,
            base: None,
            windows: None,
            trials: 1,
        }
    }

    pub fn dist(name: &'static str, unit: &'static str, d: &Dist, value: f64) -> Metric {
        Metric {
            dist: Some((d.p50, d.top_label, d.top)),
            ..Metric::of(name, unit, value, d.n)
        }
    }

    pub fn per(mut self, base: &str) -> Metric {
        self.base = Some(base.to_string());
        self
    }

    pub fn over(mut self, windows: usize) -> Metric {
        self.windows = Some(windows);
        self
    }
}

/// One-second windows (at least one) for a phase of `secs`.
pub fn windows_for(secs: f64) -> u32 {
    (secs.round() as u32).max(1)
}

/// Server-side counters read through the server's public stats.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub readiness: u64,
    pub wakeups: u64,
    pub partial_reads: u64,
    pub protocol_errors: u64,
    pub evictions: u64,
    pub disconnects: u64,
}

impl ServerCounters {
    pub fn read(stats: &ServerStats) -> ServerCounters {
        let mut c = ServerCounters {
            protocol_errors: ServerStats::get(&stats.protocol_errors),
            evictions: ServerStats::get(&stats.evicted_slow)
                + ServerStats::get(&stats.evicted_idle),
            disconnects: ServerStats::get(&stats.disconnects),
            ..ServerCounters::default()
        };
        for s in stats.reactor_snapshots() {
            c.readiness += s.readiness_events;
            c.wakeups += s.wakeups;
            c.partial_reads += s.partial_reads;
        }
        c
    }

    /// A failure to report if the server counted any protocol error,
    /// eviction or disconnect during a measured phase.
    pub fn problems(&self) -> Option<String> {
        (self.protocol_errors + self.evictions + self.disconnects > 0).then(|| {
            format!(
                "server counted {} protocol errors, {} evictions, {} disconnects",
                self.protocol_errors, self.evictions, self.disconnects
            )
        })
    }

    pub fn minus(&self, before: &ServerCounters) -> ServerCounters {
        ServerCounters {
            readiness: self.readiness - before.readiness,
            wakeups: self.wakeups - before.wakeups,
            partial_reads: self.partial_reads - before.partial_reads,
            protocol_errors: self.protocol_errors - before.protocol_errors,
            evictions: self.evictions - before.evictions,
            disconnects: self.disconnects - before.disconnects,
        }
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The contract metrics (`BENCHMARK.json` `end_to_end`).
    pub e2e: Vec<Metric>,
    /// The workload's own end-to-end metrics, under their specific names.
    pub detail: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// (metric, untraced value, traced value) for the tracing overhead.
    pub overhead: Vec<(&'static str, f64, f64)>,
    pub notes: Vec<String>,
    pub trace: Trace,
}

impl Outcome {
    pub fn count(&mut self, attempted: u64, failed: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        for f in failures {
            if self.failures.len() < 16 {
                self.failures.push(f.clone());
            }
        }
    }

    /// Scheduler and counter attribution of one measured phase.
    pub fn layer_accounting(
        &mut self,
        l: &sched::Layers,
        c: &ServerCounters,
        ops: f64,
        base: &str,
    ) {
        let us = |ns: u64| ns as f64 / 1e3 / ops;
        let per = |v: u64| v as f64 / ops;
        let n = ops as usize;
        for m in [
            Metric::of("client.cpu_us_per_op", "us/op", us(l.generator.run_ns), n),
            Metric::of("reactor.cpu_us_per_op", "us/op", us(l.reactor.run_ns), n),
            Metric::of(
                "reactor.runq_wait_us_per_op",
                "us/op",
                us(l.reactor.wait_ns),
                n,
            ),
            Metric::of(
                "reactor.switches_per_op",
                "count/op",
                per(l.reactor.slices),
                n,
            ),
            Metric::of("reactor.readiness_per_op", "count/op", per(c.readiness), n),
            Metric::of("reactor.wakeups_per_op", "count/op", per(c.wakeups), n),
            Metric::of(
                "reactor.partial_reads_per_op",
                "count/op",
                per(c.partial_reads),
                n,
            ),
            Metric::of("dispatch.cpu_us_per_op", "us/op", us(l.dispatch.run_ns), n),
            Metric::of(
                "dispatch.runq_wait_us_per_op",
                "us/op",
                us(l.dispatch.wait_ns),
                n,
            ),
            Metric::of(
                "dispatch.switches_per_op",
                "count/op",
                per(l.dispatch.slices),
                n,
            ),
        ] {
            self.layers.push(m.per(base));
        }
        self.layers.push(Metric::of(
            "server.protocol_errors",
            "count",
            c.protocol_errors as f64,
            1,
        ));
        self.layers.push(Metric::of(
            "server.evictions",
            "count",
            c.evictions as f64,
            1,
        ));
        self.layers.push(Metric::of(
            "server.disconnects",
            "count",
            c.disconnects as f64,
            1,
        ));
        self.notes.push(format!(
            "threads: {} reactor, {} dispatcher, {} audio worker, {} generator",
            l.reactor.threads, l.dispatch.threads, l.audio.threads, l.generator.threads
        ));
    }

    /// Folds the trials of one run: counts add up, and each metric becomes
    /// the median of its per-trial values.
    pub fn merge(trials: Vec<Outcome>) -> Outcome {
        fn fold(lists: Vec<Vec<Metric>>) -> Vec<Metric> {
            let mut out: Vec<Metric> = Vec::new();
            let mut values: Vec<Vec<Metric>> = Vec::new();
            for list in lists {
                for m in list {
                    match out.iter().position(|o| o.name == m.name) {
                        Some(i) => values[i].push(m),
                        None => {
                            out.push(m.clone());
                            values.push(vec![m]);
                        }
                    }
                }
            }
            for (o, v) in out.iter_mut().zip(values) {
                let med = |f: &dyn Fn(&Metric) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
                o.value = med(&|m| m.value);
                o.n = v.iter().map(|m| m.n).sum();
                o.windows = o.windows.map(|_| v.iter().filter_map(|m| m.windows).sum());
                o.dist = o.dist.map(|(_, label, _)| {
                    (
                        med(&|m| m.dist.map_or(f64::NAN, |d| d.0)),
                        label,
                        med(&|m| m.dist.map_or(f64::NAN, |d| d.2)),
                    )
                });
                o.trials = v.len();
            }
            out
        }
        let mut out = Outcome::default();
        let (mut e2e, mut detail, mut layers) = (Vec::new(), Vec::new(), Vec::new());
        for t in trials {
            out.attempted += t.attempted;
            out.failed += t.failed;
            out.count(0, 0, &t.failures);
            out.overhead.extend(t.overhead);
            for note in t.notes {
                if !out.notes.contains(&note) {
                    out.notes.push(note);
                }
            }
            out.trace.absorb(t.trace);
            e2e.push(t.e2e);
            detail.push(t.detail);
            layers.push(t.layers);
        }
        out.e2e = fold(e2e);
        out.detail = fold(detail);
        out.layers = fold(layers);
        out
    }

    pub fn has_layer(&self, name: &str) -> bool {
        self.layers.iter().any(|m| m.name == name)
    }
}

/// The shipping-default server shape every workload runs against: one
/// 8 kHz µ-law codec, reactor transport with the default shard count,
/// inline data plane, loopback TCP on an ephemeral port.
pub fn codec_server(
    clock: af_device::SharedClock,
    source: Box<dyn af_device::SampleSource>,
    broadcast: Option<af_server::BroadcastConfig>,
) -> Result<RunningServer, String> {
    let any: std::net::SocketAddr = "127.0.0.1:0".parse().expect("loopback address");
    let mut b = af_server::ServerBuilder::new().listen_tcp(any);
    b.add_codec(clock, Box::new(af_device::NullSink), source);
    if let Some(cfg) = broadcast {
        b = b.broadcast_with_config(0, any, cfg);
    }
    b.spawn().map_err(|e| format!("server spawn: {e}"))
}

fn git_commit() -> String {
    // The repository the benchmark was built from, never one above it.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(std::path::Path::new("."));
    let mut git = std::process::Command::new("git");
    git.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    git.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The active kernel table and, entry by entry, which implementation path
/// each of its function pointers comes from.
fn kernel_composition() -> String {
    use af_dsp::kernels::{active, available, KernelPath};
    let k = active();
    let paths: Vec<_> = available()
        .into_iter()
        .filter(|(p, _)| *p != KernelPath::Composed)
        .collect();
    let origin = |f: usize, of: &dyn Fn(&af_dsp::kernels::Kernels) -> usize| {
        paths
            .iter()
            .find(|(_, t)| of(t) == f)
            .map_or("?", |(_, t)| t.name)
    };
    format!(
        "{} (decode_ulaw {}, encode_ulaw {}, mix_lin16 {}, resample {})",
        k.name,
        origin(k.decode_ulaw as usize, &|t| t.decode_ulaw as usize),
        origin(k.encode_ulaw as usize, &|t| t.encode_ulaw as usize),
        origin(k.mix_lin16_le as usize, &|t| t.mix_lin16_le as usize),
        origin(k.resample_lin16 as usize, &|t| t.resample_lin16 as usize),
    )
}

/// The facts every output carries.
fn run_record(workload: &str, ctx: &RunCtx) -> Vec<(&'static str, String)> {
    let poller = if std::env::var("AF_REACTOR_FORCE").as_deref() == Ok("poll") {
        "poll"
    } else {
        "epoll"
    };
    vec![
        ("workload", workload.to_string()),
        ("seed", ctx.seed.to_string()),
        ("seconds", ctx.seconds.to_string()),
        ("trace", u8::from(ctx.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("kernels", kernel_composition()),
        ("poller", poller.to_string()),
        ("shards", af_server::default_shards().to_string()),
        ("transport", "reactor, loopback TCP".to_string()),
        ("data_plane", "inline".to_string()),
        ("commit", git_commit()),
    ]
}

/// Builds one trial's rig — timed up to its first good reply — and
/// measures it.  Returns the set-up time and the trial's outcome.
fn trial(workload: &str, ctx: &RunCtx) -> Result<(f64, Outcome), String> {
    match workload {
        "control" => {
            let t = std::time::Instant::now();
            let mut rig = control::setup()?;
            let setup_s = t.elapsed().as_secs_f64();
            Ok((setup_s, control::run(&mut rig, ctx)?))
        }
        "stream" => {
            // The microphone's loop is an input, made before set-up is timed.
            let mic = stream::mic_table(ctx.seed);
            let t = std::time::Instant::now();
            let mut rig = stream::setup(mic)?;
            let setup_s = t.elapsed().as_secs_f64();
            Ok((setup_s, stream::run(&mut rig, ctx)?))
        }
        "broadcast" => {
            let t = std::time::Instant::now();
            let mut rig = broadcast::setup()?;
            let setup_s = t.elapsed().as_secs_f64();
            Ok((setup_s, broadcast::run(&mut rig, ctx)?))
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn run_workload(workload: &str, ctx: &RunCtx) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(TRIALS);
    let mut trials = Vec::with_capacity(TRIALS);
    // Its operations are checked and counted like any others.
    let warm = if workload == "control" {
        let warm_ctx = RunCtx {
            seconds: CONTROL_WARM_S,
            trace: false,
            search: false,
            ..*ctx
        };
        Some(trial(workload, &warm_ctx)?.1)
    } else {
        None
    };
    for k in 0..TRIALS {
        let trial_ctx = RunCtx {
            seconds: ctx.seconds / TRIALS as f64,
            search: !ctx.trace && k + 1 == TRIALS,
            ..*ctx
        };
        let (s, out) = trial(workload, &trial_ctx)?;
        setup_s.push(s);
        trials.push(out);
    }
    let mut out = Outcome::merge(trials);
    if let Some(w) = warm {
        out.count(w.attempted, w.failed, &w.failures);
    }
    let setup = Metric {
        dist: Some((
            median(&setup_s),
            "max",
            setup_s.iter().cloned().fold(0.0, f64::max),
        )),
        ..Metric::of("setup_s", "s", median(&setup_s), setup_s.len())
    };
    out.detail.insert(0, setup.clone());
    out.e2e.insert(0, setup);
    if ctx.trace {
        probes::run(&mut out, workload, ctx.seed);
        let frac: Vec<f64> = out
            .overhead
            .iter()
            .filter(|(name, _, _)| *name == "p50_us")
            .map(|(_, base, traced)| (traced - base) / base)
            .collect();
        out.layers.push(Metric::of(
            "trace.overhead_frac",
            "ratio",
            median(&frac),
            frac.len(),
        ));
    }
    Ok(out)
}

fn print_metric(m: &Metric) {
    let mut line = format!("  {:<34} {:>14.4} {:<9}", m.name, m.value, m.unit);
    if m.trials > 1 {
        line.push_str(&format!(" median of {} trials", m.trials));
    }
    if let Some(w) = m.windows {
        line.push_str(&format!(" ({w} windows)"));
    }
    if let Some((p50, label, top)) = m.dist {
        line.push_str(&format!("; per trial: median {p50:.4}  {label} {top:.4}"));
    }
    line.push_str(&format!("  n={}", m.n));
    if let Some(base) = &m.base {
        line.push_str(&format!("  (per {base})"));
    }
    println!("{line}");
}

struct Args {
    workload: String,
    ctx: RunCtx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut ctx = RunCtx {
        seed: 1,
        seconds: 10.0,
        trace: false,
        search: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["control", "stream", "broadcast"],
        w => vec![w],
    };
    let ctx = &args.ctx;
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut json_metrics = Vec::new();
    for w in &workloads {
        let record = run_record(w, ctx);
        println!(
            "run: {}",
            record
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join("  ")
        );
        let out = match run_workload(w, ctx) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                std::process::exit(1);
            }
        };
        for n in &out.notes {
            println!("{n}");
        }
        println!("{w}: end-to-end");
        for m in &out.detail {
            print_metric(m);
        }
        let frac = out.failed as f64 / out.attempted.max(1) as f64;
        println!(
            "  {:<34} {:>14.6} {:<9}  n={} (failed {} of {} operations)",
            "failed_frac", frac, "ratio", out.attempted, out.failed, out.attempted
        );
        let wanted: &[(&str, &str)] = if ctx.trace { LAYERS } else { E2E };
        let reported: &[Metric] = if ctx.trace { &out.layers } else { &out.e2e };
        if ctx.trace {
            println!("{w}: per layer (traced run)");
            for m in &out.layers {
                print_metric(m);
            }
            let mut names: Vec<&str> = out.overhead.iter().map(|o| o.0).collect();
            names.sort_unstable();
            names.dedup();
            for name in names {
                let of = |f: fn(&(&str, f64, f64)) -> f64| {
                    median(
                        &out.overhead
                            .iter()
                            .filter(|o| o.0 == name)
                            .map(f)
                            .collect::<Vec<_>>(),
                    )
                };
                println!(
                    "  tracing overhead on {name}: {:.4} untraced -> {:.4} traced (medians over trials)",
                    of(|o| o.1),
                    of(|o| o.2)
                );
            }
            println!("{w}: self time by span (count, mean self us, mean total us)");
            for (name, (count, total, selft)) in out.trace.self_times() {
                println!(
                    "  {name:<28} {count:>9} {:>12.3} {:>12.3}",
                    selft as f64 / 1e3 / count as f64,
                    total as f64 / 1e3 / count as f64
                );
            }
            let path = std::path::PathBuf::from(".bench_out")
                .join(format!("spans-{w}-seed{}.jsonl", ctx.seed));
            let header = format!(
                "{{\"run\": {{{}}}}}",
                record
                    .iter()
                    .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            match out.trace.write(&path, &header) {
                Ok(()) => println!(
                    "{w}: {} spans ({} dropped) written to {}",
                    out.trace.spans.len(),
                    out.trace.dropped,
                    path.display()
                ),
                Err(e) => {
                    eprintln!("perfbench: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        for (name, unit) in wanted {
            let Some(m) = reported.iter().find(|m| m.name == *name) else {
                eprintln!("perfbench: {w} did not report `{name}`");
                std::process::exit(1);
            };
            if m.unit != *unit {
                eprintln!("perfbench: {w} reported `{name}` in {} not {unit}", m.unit);
                std::process::exit(1);
            }
            let key = if workloads.len() > 1 {
                format!("{w}.{name}")
            } else {
                name.to_string()
            };
            json_metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&key),
                json_num(m.value),
                json_str(unit)
            ));
        }
        if out.failed > 0 || !out.failures.is_empty() {
            correct = false;
            for f in &out.failures {
                eprintln!("perfbench: {w}: FAILED CHECK: {f}");
            }
        }
        attempted += out.attempted;
        failed += out.failed;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json_metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
