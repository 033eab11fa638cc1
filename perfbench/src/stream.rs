//! `stream`: closed-loop 8 KB play and record through `af-client`.
//!
//! Two generator threads, one `AudioConn` each, share one codec:
//!
//! * `pb-gen-play` loops `get_time` plus one 8 KB µ-law mixing
//!   `play_samples` a fixed lead ahead of device time.  It also drives the
//!   device clock: every `MSUPDATE` of wall time it advances the virtual
//!   clock by 100 ms of samples and runs the update task, so device time
//!   moves at the real rate but can never overrun the hardware ring.
//! * `pb-gen-rec` loops 8 KB `record_samples` on a LIN16 context (the
//!   server converts µ-law to LIN16) from windows already captured, and
//!   checks every byte against a replica of the microphone's tone.
//!
//! The bounded `p50_us` is the mean of the per-window play and record
//! medians, so both paths weigh half whatever their share of the calls.

use crate::sched::{self, Layers};
use crate::trace::{Trace, NO_PARENT};
use crate::util::{now_ns, ulaw_payload, Dist, Rng};
use crate::window::{self, Windowed};
use crate::{Metric, Outcome, RunCtx, ServerCounters};
use af_client::{Ac, AcAttributes, AcMask, AudioConn};
use af_device::{SampleSource, VirtualClock};
use af_dsp::Encoding;
use af_server::{RunningServer, ServerHandle};
use af_time::ATime;
use std::sync::Arc;

/// Bytes per play or record call: the client library's chunk size.
const CALL_BYTES: usize = af_proto::CHUNK_BYTES;
/// LIN16 frames per record call.
const REC_FRAMES: u32 = (CALL_BYTES / 2) as u32;
/// How far ahead of device time the player schedules its data (frames).
const PLAY_LEAD: u32 = 2_000;
/// Device frames per update tick: 100 ms at 8 kHz, under the 1024-frame
/// hardware ring.
const TICK_FRAMES: u32 = 800;
const TICK_NS: u64 = af_server::MSUPDATE * 1_000_000;
/// Record history captured before measuring, so every window read lies in
/// the past.
const PREFILL_TICKS: u32 = 16;
/// Distinct seeded play payloads cycled through.
const PAYLOADS: usize = 16;

/// The microphone's 440 Hz tone has an exact 200-sample period at 8 kHz.
const TONE_PERIOD: usize = 200;
/// Tone periods in the microphone's loop, each at its own seeded amplitude:
/// 6.4 s, longer than the server's ~4 s record history, so a record window
/// read from the wrong device time gets different bytes.
const MIC_PERIODS: usize = 256;
const MIC_LEN: usize = TONE_PERIOD * MIC_PERIODS;

/// The microphone's µ-law loop for `seed`.
pub fn mic_table(seed: u64) -> Vec<u8> {
    let mut rng = Rng::stream(seed, 2);
    let mut t = Vec::with_capacity(MIC_LEN);
    for _ in 0..MIC_PERIODS {
        let amp = 1_000.0 + (rng.next_u64() % 7_000) as f64;
        for i in 0..TONE_PERIOD {
            let x = (2.0 * std::f64::consts::PI * 440.0 * i as f64 / 8000.0).sin();
            t.push(af_dsp::g711::linear_to_ulaw((x * amp).round() as i16));
        }
    }
    t
}

/// A microphone playing the loop as a function of device time, so what the
/// server captured at any instant is known exactly.
struct ToneMic {
    table: Vec<u8>,
}

impl SampleSource for ToneMic {
    fn fill(&mut self, time: ATime, out: &mut [u8]) {
        let start = time.ticks() as usize;
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.table[(start + i) % MIC_LEN];
        }
    }
}

/// ITU-T G.711 µ-law expansion, written out independently of the server's
/// tables so the record check does not trust the code it checks.
fn ulaw_expand(u: u8) -> i16 {
    let u = !u;
    let exp = (u >> 4) & 0x07;
    let mag = ((((u & 0x0F) as i32) << 3) + 0x84) << exp;
    let v = mag - 0x84;
    (if u & 0x80 != 0 { -v } else { v }) as i16
}

/// The expected LIN16 bytes of the microphone, long enough that the window
/// for any start time is one slice of it.
fn mic_lin16(table: &[u8]) -> Vec<u8> {
    (0..MIC_LEN + REC_FRAMES as usize)
        .flat_map(|i| ulaw_expand(table[i % MIC_LEN]).to_le_bytes())
        .collect()
}

pub struct Rig {
    pub server: RunningServer,
    clock: Arc<VirtualClock>,
    play: AudioConn,
    play_ac: Ac,
    rec: AudioConn,
    rec_ac: Ac,
    mic: Vec<u8>,
}

/// Builds the rig around a microphone playing `mic` (see [`mic_table`]).
pub fn setup(mic: Vec<u8>) -> Result<Rig, String> {
    let clock = Arc::new(VirtualClock::new(8000));
    let server = crate::codec_server(
        clock.clone(),
        Box::new(ToneMic { table: mic.clone() }),
        None,
    )?;
    let addr = server.tcp_addr().ok_or("no tcp address")?.to_string();
    let err = |what: &str| {
        let what = what.to_string();
        move |e: af_client::AfError| format!("{what}: {e}")
    };
    let mut play = AudioConn::open(&addr).map_err(err("open player"))?;
    let play_ac = play
        .create_ac(0, AcMask::default(), &AcAttributes::default())
        .map_err(err("player context"))?;
    let mut rec = AudioConn::open(&addr).map_err(err("open recorder"))?;
    let rec_ac = rec
        .create_ac(
            0,
            AcMask::ENCODING,
            &AcAttributes {
                encoding: Encoding::Lin16,
                ..AcAttributes::default()
            },
        )
        .map_err(err("recorder context"))?;
    play.get_time(0).map_err(err("first GetTime"))?;
    // A zero-byte record arms the recorder (§7.4.1) and is its first reply.
    rec.record_samples(&rec_ac, clock_now(&clock), 0, false)
        .map_err(err("arm recorder"))?;
    Ok(Rig {
        server,
        clock,
        play,
        play_ac,
        rec,
        rec_ac,
        mic,
    })
}

fn clock_now(clock: &VirtualClock) -> ATime {
    af_device::Clock::now(clock)
}

fn tick(clock: &VirtualClock, handle: &ServerHandle) {
    clock.advance(TICK_FRAMES);
    handle.run_update();
}

struct Inputs {
    payloads: Vec<Vec<u8>>,
    /// How far behind the newest captured sample each record window ends.
    rec_offsets: Vec<u32>,
    expected: Vec<u8>,
}

struct PhaseResult {
    /// (start ns, latency us) of every good call.
    play_us: Vec<(u64, f64)>,
    rec_us: Vec<(u64, f64)>,
    update_us: Vec<f64>,
    failures: Vec<String>,
    layers: Layers,
    counters: ServerCounters,
    elapsed_s: f64,
    windowed: Windowed,
    /// Median over windows of the mean of the play and record p50s.
    p50: f64,
    trace: Trace,
}

fn run_phase(
    rig: &mut Rig,
    inputs: &Inputs,
    secs: f64,
    trace_on: bool,
) -> Result<PhaseResult, String> {
    let handle = rig.server.handle();
    let stats = rig.server.stats();
    let counters_before = ServerCounters::read(&stats);
    let before = sched::snapshot();
    let t0 = now_ns();
    let end = t0 + (secs * 1e9) as u64;
    let win_ns = (secs * 1e9) as u64 / u64::from(crate::windows_for(secs));
    let Rig {
        clock,
        play,
        play_ac,
        rec,
        rec_ac,
        ..
    } = rig;
    let clock: &VirtualClock = clock;
    let (player, recorder, snaps) = std::thread::scope(|s| {
        let player = std::thread::Builder::new()
            .name("pb-gen-play".into())
            .spawn_scoped(s, || {
                let cpu0 = sched::own();
                let mut trace = Trace::default();
                let mut lat = Vec::new();
                let mut update_us = Vec::new();
                let mut failures = Vec::new();
                let mut last = None;
                let mut next_tick = t0 + TICK_NS;
                let mut k = 0u64;
                while now_ns() < end {
                    if now_ns() >= next_tick {
                        let u0 = now_ns();
                        if trace_on {
                            trace.span("update.run_update", k, NO_PARENT, || tick(clock, &handle));
                        } else {
                            tick(clock, &handle);
                        }
                        update_us.push((now_ns() - u0) as f64 / 1e3);
                        next_tick += TICK_NS;
                    }
                    let op = if trace_on {
                        trace.open("op.play", k, NO_PARENT)
                    } else {
                        NO_PARENT
                    };
                    let got = if trace_on {
                        trace.span("client.get_time", k, op, || play.get_time(0))
                    } else {
                        play.get_time(0)
                    };
                    let now = match got {
                        Ok(t) => t,
                        Err(e) => {
                            failures.push(format!("get_time {k}: {e}"));
                            break;
                        }
                    };
                    let data = &inputs.payloads[k as usize % inputs.payloads.len()];
                    let s0 = now_ns();
                    let r = if trace_on {
                        trace.span("client.play_samples", k, op, || {
                            play.play_samples(play_ac, now + PLAY_LEAD, data)
                        })
                    } else {
                        play.play_samples(play_ac, now + PLAY_LEAD, data)
                    };
                    let dt = now_ns() - s0;
                    if trace_on {
                        trace.close(op);
                    }
                    match r {
                        Ok(t) => {
                            if let Some(prev) = last {
                                if t - prev < 0 || t - now < 0 {
                                    failures.push(format!("play {k}: device time went backwards"));
                                }
                            }
                            last = Some(t);
                            lat.push((s0, dt as f64 / 1e3));
                        }
                        Err(e) => {
                            failures.push(format!("play {k}: {e}"));
                            break;
                        }
                    }
                    k += 1;
                }
                for e in play.take_async_errors() {
                    failures.push(format!("player async error: {e:?}"));
                }
                (lat, update_us, failures, trace, sched::own().since(&cpu0))
            })
            .expect("spawn player");
        let recorder = std::thread::Builder::new()
            .name("pb-gen-rec".into())
            .spawn_scoped(s, || {
                let cpu0 = sched::own();
                let mut trace = Trace::default();
                let mut lat = Vec::new();
                let mut failures = Vec::new();
                let mut newest = clock_now(clock);
                let mut k = 0u64;
                while now_ns() < end {
                    let back =
                        REC_FRAMES + inputs.rec_offsets[k as usize % inputs.rec_offsets.len()];
                    let start = ATime::new(newest.ticks().wrapping_sub(back));
                    let s0 = now_ns();
                    let r = if trace_on {
                        let op = trace.open("op.record", k, NO_PARENT);
                        let r = trace.span("client.record_samples", k, op, || {
                            rec.record_samples(rec_ac, start, CALL_BYTES, true)
                        });
                        trace.close(op);
                        r
                    } else {
                        rec.record_samples(rec_ac, start, CALL_BYTES, true)
                    };
                    let dt = now_ns() - s0;
                    match r {
                        Ok((time, data)) => {
                            let off = (start.ticks() as usize % MIC_LEN) * 2;
                            if data.len() != CALL_BYTES {
                                failures.push(format!("record {k}: {} bytes", data.len()));
                            } else if data[..] != inputs.expected[off..off + CALL_BYTES] {
                                failures.push(format!(
                                    "record {k} at {}: bytes differ from the microphone's at that time",
                                    start.ticks()
                                ));
                            } else if time - newest < 0 {
                                failures.push(format!("record {k}: device time went backwards"));
                            } else {
                                lat.push((s0, dt as f64 / 1e3));
                            }
                            newest = time;
                        }
                        Err(e) => {
                            failures.push(format!("record {k}: {e}"));
                            break;
                        }
                    }
                    if failures.len() > 8 {
                        break;
                    }
                    k += 1;
                }
                for e in rec.take_async_errors() {
                    failures.push(format!("recorder async error: {e:?}"));
                }
                (lat, failures, trace, sched::own().since(&cpu0))
            })
            .expect("spawn recorder");
        let snaps = window::monitor(t0, win_ns, end);
        (
            player.join().expect("player panicked"),
            recorder.join().expect("recorder panicked"),
            snaps,
        )
    });
    let after = sched::snapshot();
    let elapsed_s = (now_ns() - t0) as f64 / 1e9;
    let (play_us, update_us, mut failures, ptrace, pcpu) = player;
    let (rec_us, rfail, rtrace, rcpu) = recorder;
    failures.extend(rfail);
    let counters = ServerCounters::read(&stats).minus(&counters_before);
    failures.extend(counters.problems());
    let mut trace = Trace::default();
    trace.absorb(ptrace);
    trace.absorb(rtrace);
    let mut all = play_us.clone();
    all.extend_from_slice(&rec_us);
    let windowed = window::summarize(&all, t0, win_ns, &snaps);
    let p50 = window::median_mean_p50(&play_us, &rec_us, t0, win_ns, windowed.windows);
    Ok(PhaseResult {
        play_us,
        rec_us,
        update_us,
        failures,
        layers: Layers::between(&before, &after, pcpu.plus(&rcpu))?,
        counters,
        elapsed_s,
        windowed,
        p50,
        trace,
    })
}

fn values(v: &[(u64, f64)]) -> Vec<f64> {
    v.iter().map(|s| s.1).collect()
}

/// Counts the phase's operations and failures; with `detail`, records the
/// workload's own end-to-end metrics.  Returns the pooled latencies.
fn summarize(out: &mut Outcome, r: &PhaseResult, detail: bool) -> Dist {
    let failed = r.failures.len() as u64;
    let ops = (r.play_us.len() + r.rec_us.len()) as u64;
    out.count(ops + failed, failed, &r.failures);
    let mut pooled = values(&r.play_us);
    pooled.extend(values(&r.rec_us));
    let w = r.windowed;
    if detail {
        let play = Dist::of(values(&r.play_us));
        let rec = Dist::of(values(&r.rec_us));
        let mb = |n: usize| (n * CALL_BYTES) as f64 / r.elapsed_s / 1e6;
        out.detail.extend([
            Metric::dist("play_p50_us", "us", &play, play.p50),
            Metric::dist("play_p99_us", "us", &play, play.p99),
            Metric::dist("record_p50_us", "us", &rec, rec.p50),
            Metric::dist("record_p99_us", "us", &rec, rec.p99),
            Metric::of("play_mb_s", "MB/s", mb(play.n), play.n),
            Metric::of("record_mb_s", "MB/s", mb(rec.n), rec.n),
            Metric::of("server_cpu_us_per_op", "us", w.cpu_us_per_op, ops as usize)
                .over(w.windows)
                .per("8 KB play or record call"),
        ]);
    }
    Dist::of(pooled)
}

pub fn run(rig: &mut Rig, ctx: &RunCtx) -> Result<Outcome, String> {
    let mut rng = Rng::stream(ctx.seed, 1);
    let inputs = Inputs {
        payloads: (0..PAYLOADS)
            .map(|_| ulaw_payload(&mut rng, CALL_BYTES))
            .collect(),
        rec_offsets: (0..64)
            .map(|_| 1_024 + (rng.next_u64() % 5_120) as u32)
            .collect(),
        expected: mic_lin16(&rig.mic),
    };
    let handle = rig.server.handle();
    for _ in 0..PREFILL_TICKS {
        tick(&rig.clock, &handle);
    }
    let mut out = Outcome::default();
    summarize(&mut out, &run_phase(rig, &inputs, 0.2, false)?, false);
    let secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let base = run_phase(rig, &inputs, secs, false)?;
    let d = summarize(&mut out, &base, true);
    let w = base.windowed;
    out.e2e = vec![
        Metric::of("p50_us", "us", base.p50, d.n).over(w.windows),
        Metric::of("server_cpu_us_per_op", "us", w.cpu_us_per_op, d.n).over(w.windows),
    ];
    if !ctx.trace {
        return Ok(out);
    }
    let traced = run_phase(rig, &inputs, secs, true)?;
    let td = summarize(&mut out, &traced, false);
    let t = traced.windowed;
    out.overhead.push(("p50_us", base.p50, traced.p50));
    out.overhead.push(("p99_us", w.p99, t.p99));
    out.overhead.push(("ops_per_s", w.ops_per_s, t.ops_per_s));
    out.overhead
        .push(("server_cpu_us_per_op", w.cpu_us_per_op, t.cpu_us_per_op));
    out.layer_accounting(
        &traced.layers,
        &traced.counters,
        td.n as f64,
        "8 KB play or record call",
    );
    let upd = Dist::of(traced.update_us.clone());
    out.layers
        .push(Metric::dist("update.run_us", "us", &upd, upd.p50));
    // Closed loop: a call is sent the moment the previous one returns, so
    // the generator is never late and holds one call per thread.
    out.layers
        .push(Metric::of("gen.late_p99_us", "us", 0.0, td.n));
    out.layers
        .push(Metric::of("gen.backlog_max", "count", 2.0, 1));
    out.trace.absorb(traced.trace);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_ulaw_expansion_matches_g711() {
        for u in 0..=255u8 {
            let reference = af_dsp::reference::decode_to_lin16_scalar(Encoding::Mu255, &[u]);
            assert_eq!(ulaw_expand(u), reference[0], "byte {u:#x}");
        }
    }
}
