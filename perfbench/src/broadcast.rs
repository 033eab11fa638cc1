//! `broadcast`: closed-loop rounds through the encode-once fan-out plane.
//!
//! One generator thread (`pb-gen-bcast`) runs each round: a producer
//! `AudioConn` plays one chunk's worth of a seeded pattern ahead of the
//! tap's edge, the generator advances the virtual clock in sub-ring steps
//! and runs the update task after each (which feeds the bus tap and seals
//! the chunk), and one HTTP chunked listener reads until it holds that
//! chunk's full wire bytes.  Every chunk's payload is checked bit-exact
//! against the played pattern.

use crate::sched::{self, Layers};
use crate::trace::{Trace, NO_PARENT};
use crate::util::{now_ns, ulaw_payload, Dist, Rng};
use crate::window::{self, Windowed};
use crate::{Metric, Outcome, RunCtx, ServerCounters};
use af_client::{Ac, AcAttributes, AcMask, AudioConn};
use af_device::VirtualClock;
use af_server::broadcast::{BroadcastConfig, BroadcastSnapshot, HTTP_STREAM_HEADER};
use af_server::RunningServer;
use af_time::ATime;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Frames (= µ-law bytes) per round, and per sealed chunk.
pub const ROUND_FRAMES: u32 = 8_000;
/// Clock step: under the 1024-frame hardware ring, so no step overruns it.
const CLOCK_STEP: u32 = 800;
/// The producer plays this far ahead of the clock, past the hardware lead,
/// so every played sample reaches the tap through the update task.
const HEAD_START: u32 = 2_048;
/// Length of the seeded pattern table (a whole number of rounds).  The
/// table the rounds read is one round longer, repeating its start, so any
/// round's bytes are one contiguous slice.
const PATTERN_LEN: usize = 8 * ROUND_FRAMES as usize;
const ROUND_WIRE_HEADER: &[u8] = b"1f40\r\n";

pub struct Rig {
    pub server: RunningServer,
    clock: Arc<VirtualClock>,
    conn: AudioConn,
    ac: Ac,
    listener: TcpStream,
    inbuf: Vec<u8>,
    /// Next device time the producer plays at, and the next chunk due.
    head: u32,
    next_chunk: u64,
}

pub fn setup() -> Result<Rig, String> {
    let clock = Arc::new(VirtualClock::new(8000));
    let server = crate::codec_server(
        clock.clone(),
        Box::new(af_device::SilenceSource::new(af_dsp::g711::ULAW_SILENCE)),
        Some(BroadcastConfig {
            chunk_frames: ROUND_FRAMES,
            ..BroadcastConfig::default()
        }),
    )?;
    let addr = server.tcp_addr().ok_or("no tcp address")?.to_string();
    let mut conn = AudioConn::open(&addr).map_err(|e| format!("open producer: {e}"))?;
    let ac = conn
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .map_err(|e| format!("producer context: {e}"))?;
    conn.get_time(0)
        .map_err(|e| format!("first GetTime: {e}"))?;
    let baddr = server.broadcast_addr().ok_or("no broadcast address")?;
    let mut listener = TcpStream::connect(baddr).map_err(|e| format!("listener: {e}"))?;
    listener
        .write_all(b"GET /stream HTTP/1.1\r\nHost: perfbench\r\n\r\n")
        .map_err(|e| format!("listener request: {e}"))?;
    listener
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    // The response head is the listener's first good reply; the listener
    // joined before any chunk was sealed, so it will see chunk 0 onwards.
    let mut head = vec![0u8; HTTP_STREAM_HEADER.len()];
    listener
        .read_exact(&mut head)
        .map_err(|e| format!("listener response head: {e}"))?;
    if head != HTTP_STREAM_HEADER {
        return Err(format!(
            "unexpected listener response head {:?}",
            String::from_utf8_lossy(&head)
        ));
    }
    Ok(Rig {
        server,
        clock,
        conn,
        ac,
        listener,
        inbuf: Vec::with_capacity(64 << 10),
        head: HEAD_START,
        next_chunk: 0,
    })
}

fn bus(server: &RunningServer) -> Result<BroadcastSnapshot, String> {
    server
        .stats()
        .broadcast_snapshots()
        .into_iter()
        .next()
        .ok_or_else(|| "the server has no broadcast bus".to_string())
}

struct PhaseResult {
    /// (start ns, latency us) of every good round.
    round_us: Vec<(u64, f64)>,
    update_us: Vec<f64>,
    failures: Vec<String>,
    layers: Layers,
    counters: ServerCounters,
    bus_before: BroadcastSnapshot,
    bus_after: BroadcastSnapshot,
    windowed: Windowed,
    trace: Trace,
}

/// The played bytes for one round starting at device time `t`.
fn pattern_at(pattern: &[u8], t: u64) -> &[u8] {
    let at = t as usize % PATTERN_LEN;
    &pattern[at..at + ROUND_FRAMES as usize]
}

/// The bus byte the listener must receive at device time `t`: silence
/// before the producer's first sample, the pattern after.
fn expected(pattern: &[u8], t: u64) -> u8 {
    if t < u64::from(HEAD_START) {
        af_dsp::g711::ULAW_SILENCE
    } else {
        pattern[t as usize % PATTERN_LEN]
    }
}

fn run_phase(
    rig: &mut Rig,
    pattern: &[u8],
    secs: f64,
    trace_on: bool,
) -> Result<PhaseResult, String> {
    let handle = rig.server.handle();
    let stats = rig.server.stats();
    let counters_before = ServerCounters::read(&stats);
    let bus_before = bus(&rig.server)?;
    let before = sched::snapshot();
    let t0 = now_ns();
    let end = t0 + (secs * 1e9) as u64;
    let win_ns = (secs * 1e9) as u64 / u64::from(crate::windows_for(secs));
    let (out, snaps) = std::thread::scope(|s| {
        let generator = std::thread::Builder::new()
            .name("pb-gen-bcast".into())
            .spawn_scoped(s, || {
                let cpu0 = sched::own();
                let mut trace = Trace::default();
                let mut round_us = Vec::new();
                let mut update_us = Vec::new();
                let mut failures = Vec::new();
                let mut scratch = vec![0u8; 64 << 10];
                let chunk_len = ROUND_WIRE_HEADER.len() + ROUND_FRAMES as usize + 2;
                while now_ns() < end && failures.is_empty() {
                    let r = rig.next_chunk;
                    let data = pattern_at(pattern, u64::from(rig.head));
                    let r0 = now_ns();
                    let op = if trace_on {
                        trace.open("op.round", r, NO_PARENT)
                    } else {
                        NO_PARENT
                    };
                    let played = if trace_on {
                        trace.span("client.play_samples", r, op, || {
                            rig.conn.play_samples(&rig.ac, ATime::new(rig.head), data)
                        })
                    } else {
                        rig.conn.play_samples(&rig.ac, ATime::new(rig.head), data)
                    };
                    if let Err(e) = played {
                        failures.push(format!("round {r}: play: {e}"));
                        break;
                    }
                    for _ in 0..ROUND_FRAMES / CLOCK_STEP {
                        rig.clock.advance(CLOCK_STEP);
                        let u0 = now_ns();
                        if trace_on {
                            trace.span("update.run_update", r, op, || handle.run_update());
                        } else {
                            handle.run_update();
                        }
                        update_us.push((now_ns() - u0) as f64 / 1e3);
                    }
                    let drain = if trace_on {
                        trace.open("listener.drain", r, op)
                    } else {
                        NO_PARENT
                    };
                    while rig.inbuf.len() < chunk_len {
                        match rig.listener.read(&mut scratch) {
                            Ok(0) => {
                                failures.push(format!("round {r}: listener closed"));
                                break;
                            }
                            Ok(n) => rig.inbuf.extend_from_slice(&scratch[..n]),
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) => {
                                failures.push(format!("round {r}: listener read: {e}"));
                                break;
                            }
                        }
                    }
                    if trace_on {
                        trace.close(drain);
                        trace.close(op);
                    }
                    let dt = now_ns() - r0;
                    if !failures.is_empty() {
                        break;
                    }
                    let chunk = &rig.inbuf[..chunk_len];
                    let payload = &chunk[ROUND_WIRE_HEADER.len()..chunk_len - 2];
                    let base = r * u64::from(ROUND_FRAMES);
                    if !chunk.starts_with(ROUND_WIRE_HEADER) || !chunk.ends_with(b"\r\n") {
                        failures.push(format!("chunk {r}: bad chunked-transfer framing"));
                    } else if let Some(i) = (base < u64::from(HEAD_START)
                        || payload != pattern_at(pattern, base))
                    .then(|| {
                        (0..payload.len())
                            .find(|&i| payload[i] != expected(pattern, base + i as u64))
                    })
                    .flatten()
                    {
                        failures.push(format!(
                            "chunk {r}: byte {i} is {:#04x}, the played pattern has {:#04x}",
                            payload[i],
                            expected(pattern, base + i as u64)
                        ));
                    } else {
                        round_us.push((r0, dt as f64 / 1e3));
                    }
                    rig.inbuf.drain(..chunk_len);
                    rig.head = rig.head.wrapping_add(ROUND_FRAMES);
                    rig.next_chunk += 1;
                }
                for e in rig.conn.take_async_errors() {
                    failures.push(format!("producer async error: {e:?}"));
                }
                (
                    round_us,
                    update_us,
                    failures,
                    trace,
                    sched::own().since(&cpu0),
                )
            })
            .expect("spawn generator");
        let snaps = window::monitor(t0, win_ns, end);
        (generator.join().expect("generator panicked"), snaps)
    });
    let after = sched::snapshot();
    let (round_us, update_us, mut failures, trace, gen_cpu) = out;
    let counters = ServerCounters::read(&stats).minus(&counters_before);
    failures.extend(counters.problems());
    let windowed = window::summarize(&round_us, t0, win_ns, &snaps);
    Ok(PhaseResult {
        round_us,
        update_us,
        failures,
        layers: Layers::between(&before, &after, gen_cpu)?,
        counters,
        bus_before,
        bus_after: bus(&rig.server)?,
        windowed,
        trace,
    })
}

/// Counts the phase's rounds and failures; with `detail`, records the
/// workload's own end-to-end metrics.  Returns the round latencies.
fn summarize(out: &mut Outcome, r: &PhaseResult, detail: bool) -> Dist {
    let failed = r.failures.len() as u64;
    let ops = r.round_us.len() as u64;
    out.count(ops + failed, failed, &r.failures);
    let evictions = r.bus_after.evictions - r.bus_before.evictions;
    if evictions > 0 {
        out.count(0, evictions, &[format!("{evictions} listener evictions")]);
    }
    let rounds = Dist::of(r.round_us.iter().map(|s| s.1).collect());
    let w = r.windowed;
    if detail {
        out.detail.extend([
            Metric::dist("bcast_round_p50_us", "us", &rounds, w.p50).over(w.windows),
            Metric::dist("bcast_round_p99_us", "us", &rounds, w.p99).over(w.windows),
            Metric::of(
                "bcast_mb_s",
                "MB/s",
                w.ops_per_s * f64::from(ROUND_FRAMES) / 1e6,
                rounds.n,
            )
            .over(w.windows),
            Metric::of("server_cpu_us_per_op", "us", w.cpu_us_per_op, rounds.n)
                .over(w.windows)
                .per("broadcast round"),
        ]);
    }
    rounds
}

pub fn run(rig: &mut Rig, ctx: &RunCtx) -> Result<Outcome, String> {
    let mut pattern = ulaw_payload(&mut Rng::stream(ctx.seed, 2), PATTERN_LEN);
    pattern.extend_from_within(..ROUND_FRAMES as usize);
    let mut out = Outcome::default();
    // Warm-up rounds prime the chunk ring's buffer freelist.
    summarize(&mut out, &run_phase(rig, &pattern, 0.2, false)?, false);
    let secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let base = run_phase(rig, &pattern, secs, false)?;
    let d = summarize(&mut out, &base, true);
    let w = base.windowed;
    out.e2e = vec![
        Metric::dist("p50_us", "us", &d, w.p50).over(w.windows),
        Metric::of("server_cpu_us_per_op", "us", w.cpu_us_per_op, d.n).over(w.windows),
    ];
    if !ctx.trace {
        return Ok(out);
    }
    let traced = run_phase(rig, &pattern, secs, true)?;
    let td = summarize(&mut out, &traced, false);
    let t = traced.windowed;
    out.overhead.push(("p50_us", w.p50, t.p50));
    out.overhead.push(("p99_us", w.p99, t.p99));
    out.overhead.push(("ops_per_s", w.ops_per_s, t.ops_per_s));
    out.overhead
        .push(("server_cpu_us_per_op", w.cpu_us_per_op, t.cpu_us_per_op));
    out.layer_accounting(
        &traced.layers,
        &traced.counters,
        td.n as f64,
        "broadcast round",
    );
    let (a, z) = (&traced.bus_before, &traced.bus_after);
    let encoded = (z.encoded_bytes - a.encoded_bytes).max(1);
    out.layers.extend([
        Metric::of(
            "bcast.encode_cycles_per_byte",
            "cycles/B",
            (z.encode_cycles - a.encode_cycles) as f64 / encoded as f64,
            (z.chunks_sealed - a.chunks_sealed) as usize,
        )
        .per("payload byte sealed by the server"),
        Metric::of(
            "bcast.skip_aheads",
            "count",
            (z.skip_aheads - a.skip_aheads) as f64,
            1,
        ),
        Metric::of(
            "bcast.evictions",
            "count",
            (z.evictions - a.evictions) as f64,
            1,
        ),
    ]);
    let upd = Dist::of(traced.update_us.clone());
    out.layers
        .push(Metric::dist("update.run_us", "us", &upd, upd.p50));
    out.layers
        .push(Metric::of("gen.late_p99_us", "us", 0.0, td.n));
    out.layers
        .push(Metric::of("gen.backlog_max", "count", 1.0, 1));
    out.trace.absorb(traced.trace);
    Ok(out)
}
