//! Standalone timings of single layers, on the workload's own inputs.
//!
//! The traced run times calls into each layer's public functions from the
//! benchmark's side: the `af-proto` codec on the workload's messages, a
//! standalone `DeviceBuffers` over a virtual codec, the `af-dsp` kernels
//! the server selects (`kernels::active()` and the mix entry point), and a
//! standalone `BroadcastBus`.  `control` carries no audio payload, so its
//! payload probes use the `stream` workload's payloads from the same seed;
//! every traced run thus reports every layer.

use crate::trace::{Trace, NO_PARENT};
use crate::util::{median, ulaw_payload, Rng};
use crate::{Metric, Outcome};
use af_device::hardware::{HwConfig, VirtualAudioHw};
use af_device::VirtualClock;
use af_dsp::kernels::cycles;
use af_dsp::Encoding;
use af_proto::message::MessageHeader;
use af_proto::{ByteOrder, Reply, Request};
use af_server::backend::LocalBackend;
use af_server::broadcast::{BroadcastBus, BroadcastConfig, BroadcastStats};
use af_server::DeviceBuffers;
use af_time::ATime;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 7;

/// Median over batches of the mean time per call, in ns.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let per: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t = Instant::now();
            for i in 0..iters {
                f(b * iters + i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per)
}

/// Median over batches of timestamp-counter cycles per byte.
fn cycles_per_byte(iters: usize, bytes: usize, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = cycles::timestamp();
            for _ in 0..iters {
                f();
            }
            cycles::timestamp().wrapping_sub(t) as f64 / (iters * bytes) as f64
        })
        .collect();
    median(&per)
}

pub fn run(out: &mut Outcome, workload: &str, seed: u64) {
    let order = ByteOrder::native();
    // The same seeded streams the workloads draw their payloads from.
    let stream = if workload == "broadcast" { 2 } else { 1 };
    let mut rng = Rng::stream(seed, stream);
    let payloads: Vec<Vec<u8>> = (0..8).map(|_| ulaw_payload(&mut rng, 8_192)).collect();
    let pick = |i: usize| &payloads[i % payloads.len()];
    let mut m: Vec<Metric> = Vec::new();
    let mut trace = Trace::default();
    let span = trace.open("probe.layers", 0, NO_PARENT);

    // af-proto: the control messages, and the stream's 8 KB frames.
    let t = trace.open("probe.proto", 0, span);
    m.push(Metric::of(
        "proto.gettime_encode_ns",
        "ns",
        ns_per_call(20_000, |_| {
            black_box(Request::GetTime { device: 0 }.encode(order));
        }),
        BATCHES,
    ));
    let time_reply = Reply::Time {
        time: ATime::new(12_345),
    }
    .encode(order, 7);
    m.push(Metric::of(
        "proto.gettime_reply_decode_ns",
        "ns",
        ns_per_call(20_000, |_| {
            let msg = black_box(&time_reply);
            let h = MessageHeader::decode(order, &msg[..MessageHeader::SIZE]).expect("header");
            black_box(Reply::decode(order, &h, &msg[MessageHeader::SIZE..]).expect("reply"));
        }),
        BATCHES,
    ));
    let play_frames: Vec<Vec<u8>> = payloads
        .iter()
        .map(|p| {
            Request::PlaySamples {
                ac: 1,
                start_time: ATime::new(4_000),
                flags: 0,
                data: p.clone(),
            }
            .encode(order)
        })
        .collect();
    m.push(Metric::of(
        "proto.play8k_request_decode_ns",
        "ns",
        ns_per_call(2_000, |i| {
            let f = black_box(&play_frames[i % play_frames.len()]);
            let head: [u8; 4] = f[..4].try_into().expect("4-byte header");
            let (op, len) = Request::parse_header(order, &head).expect("frame header");
            black_box(Request::decode(order, op, &f[4..4 + len]).expect("request"));
        }),
        BATCHES,
    ));
    let record_replies: Vec<Reply> = payloads
        .iter()
        .map(|p| Reply::Record {
            time: ATime::new(4_000),
            data: p.clone(),
        })
        .collect();
    let mut wire = Vec::with_capacity(9_000);
    m.push(Metric::of(
        "proto.record8k_reply_encode_ns",
        "ns",
        ns_per_call(2_000, |i| {
            record_replies[i % record_replies.len()].encode_into(order, i as u16, &mut wire);
            black_box(&wire);
        }),
        BATCHES,
    ));
    trace.close(t);

    // buffer: a standalone codec's DeviceBuffers, fed the same payloads.
    let t = trace.open("probe.buffer", 0, span);
    let clock = Arc::new(VirtualClock::new(8000));
    let hw = VirtualAudioHw::new(
        HwConfig::codec(),
        clock.clone(),
        Box::new(af_device::NullSink),
        Box::new(af_device::SilenceSource::new(af_dsp::g711::ULAW_SILENCE)),
    );
    let mut buffers = DeviceBuffers::new(
        Box::new(LocalBackend::new(hw)),
        Encoding::Mu255,
        1,
        af_server::builder::CODEC_BUFFER_FRAMES,
    );
    buffers.add_recorder();
    for _ in 0..16 {
        clock.advance(800);
        buffers.update(0, true);
    }
    let now = buffers.now();
    m.push(Metric::of(
        "buffer.write_play_ns_per_kb",
        "ns/KB",
        ns_per_call(500, |i| {
            black_box(buffers.write_play(now + 2_000u32, pick(i), false, 0, true));
        }) / 8.0,
        BATCHES,
    ));
    m.push(Metric::of(
        "buffer.read_rec_ns_per_kb",
        "ns/KB",
        ns_per_call(500, |i| {
            black_box(buffers.read_rec(now - (4_096 + (i % 64) as u32 * 16), 4_096));
        }) / 4.0,
        BATCHES,
    ));
    m.push(Metric::of(
        "buffer.update_us",
        "us",
        ns_per_call(100, |_| {
            clock.advance(800);
            black_box(buffers.update(0, true));
        }) / 1e3,
        BATCHES,
    ));
    trace.close(t);

    // dsp: the mix entry point the play path uses for µ-law, and the
    // active kernel table's µ-law → LIN16 conversion the record path uses.
    let t = trace.open("probe.dsp", 0, span);
    let mut dst = payloads[0].clone();
    let mut k = 0usize;
    m.push(Metric::of(
        "dsp.mix_cycles_per_byte",
        "cycles/B",
        cycles_per_byte(200, 8_192, || {
            k += 1;
            af_dsp::mix::mix_bytes(Encoding::Mu255, black_box(&mut dst), pick(k));
        }),
        BATCHES,
    ));
    let kernels = af_dsp::kernels::active();
    let mut lin = vec![0i16; 8_192];
    m.push(Metric::of(
        "dsp.ulaw_to_lin16_cycles_per_byte",
        "cycles/B",
        cycles_per_byte(200, 8_192, || {
            k += 1;
            (kernels.decode_ulaw)(pick(k), black_box(&mut lin));
        }),
        BATCHES,
    ));
    trace.close(t);

    // bcast: a standalone bus sealing and serving one-round chunks.
    let t = trace.open("probe.bcast", 0, span);
    let cfg = BroadcastConfig {
        chunk_frames: 8_000,
        ..BroadcastConfig::default()
    };
    let ring = cfg.ring_chunks as u64;
    let probe_stats = BroadcastStats::new("probe");
    let bus = BroadcastBus::new(cfg, 1, Arc::clone(&probe_stats));
    m.push(Metric::of(
        "bcast.publish_us",
        "us",
        ns_per_call(200, |i| bus.publish(&pick(i)[..8_000])) / 1e3,
        BATCHES,
    ));
    let oldest = bus.live_seq() - ring;
    let mut fetched = VecDeque::with_capacity(4);
    m.push(Metric::of(
        "bcast.fetch_batch_ns",
        "ns",
        ns_per_call(5_000, |i| {
            fetched.clear();
            black_box(bus.fetch_batch(oldest + i as u64 % ring, 1, &mut fetched));
        }),
        BATCHES,
    ));
    let s = probe_stats.snapshot();
    m.push(
        Metric::of(
            "bcast.encode_cycles_per_byte",
            "cycles/B",
            s.encode_cycles as f64 / s.encoded_bytes.max(1) as f64,
            s.chunks_sealed as usize,
        )
        .per("payload byte sealed by a standalone bus"),
    );
    trace.close(t);
    // A workload without a bus has nothing to skip or evict.
    m.push(Metric::of("bcast.skip_aheads", "count", 0.0, 1));
    m.push(Metric::of("bcast.evictions", "count", 0.0, 1));
    trace.close(span);

    for metric in m {
        if !out.has_layer(metric.name) {
            out.layers.push(metric);
        }
    }
    // First in the run's trace, so the span cap never drops them.
    trace.absorb(std::mem::take(&mut out.trace));
    out.trace = trace;
}
