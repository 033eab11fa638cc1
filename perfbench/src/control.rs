//! `control`: open-loop raw-wire `GetTime` over two pipelined connections.
//!
//! Arrivals are a Poisson process drawn from the seed.  One thread
//! (`pb-gen-send`) sends each request at its due time, batching whatever
//! is due into one write per connection; a second (`pb-gen-recv`) reads
//! replies as they arrive.  Latency runs from the request's *due* time, so
//! a stall anywhere — server, network or generator — is charged to every
//! request that was due during it, and the generator's own lateness and
//! outstanding-request count are reported beside it.

use crate::sched::{self, Layers};
use crate::trace::{Trace, NO_PARENT};
use crate::util::{now_ns, Dist, Rng};
use crate::window::{self, Windowed};
use crate::{Metric, Outcome, RunCtx, ServerCounters};
use af_proto::message::{MessageHeader, MessageKind};
use af_proto::{ByteOrder, ConnSetup, Reply, Request, SetupReply};
use af_server::reactor::poller::{Interest, PollEvent, Poller};
use af_server::RunningServer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The fixed nominal offered rate: about half of what one closed-loop
/// connection sustains on the reference host, so queues stay short and the
/// latency measures per-request cost rather than saturation.
pub const NOMINAL_RPS: f64 = 10_000.0;

/// The latency limit of the rate search, at p99.
pub const LIMIT_P99_US: f64 = 1_000.0;

/// Rate search: start, growth factor, refinement steps, windows per probe.
/// A probe passes when the median over its windows of the p99 (and of the
/// generator's lateness p99) meets the limit.
const SEARCH_START_RPS: f64 = 2.0 * NOMINAL_RPS;
const PROBE_WINDOWS: u32 = 5;
const SEARCH_GROWTH: f64 = 1.25;
const SEARCH_BISECTIONS: usize = 3;
const SEARCH_CEILING_RPS: f64 = 400_000.0;

/// How long the receiver waits for stragglers after the last request was
/// due before counting them as missing.
const DRAIN_TIMEOUT_NS: u64 = 2_000_000_000;

/// A `Time` reply: 8-byte header plus one word.
const TIME_REPLY_WORDS: u32 = 1;

/// Requests the generator keeps outstanding per connection, at most.  The
/// server queues at most this many replies per connection and evicts the
/// client when the queue overflows, even when the client reads promptly
/// and the backlog is the server's own; a client that never has more
/// requests in flight cannot overflow it.  A request this limit holds back
/// is still timed from its due time, so the wait shows in the latency tail
/// and in the generator's lateness, and it makes a rate-search probe miss.
/// It is not a failed operation: a stall of the whole host (a descheduled
/// virtual CPU) fills the window on its own, without any fault.
const MAX_IN_FLIGHT: u64 = af_server::OUTBOUND_QUEUE_CAPACITY as u64;

/// One raw protocol connection and what its replies must continue from.
pub struct ControlConn {
    stream: TcpStream,
    replies: ReplyCheck,
    inbuf: Vec<u8>,
}

/// What the next reply on a connection must look like.
struct ReplyCheck {
    next_seq: u16,
    last_time: Option<u32>,
}

impl ControlConn {
    /// Connects and completes the setup handshake.
    pub fn open(addr: SocketAddr) -> Result<ControlConn, String> {
        let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.write_all(&ConnSetup::new().encode())
            .map_err(|e| format!("setup write: {e}"))?;
        let mut len = [0u8; 4];
        s.read_exact(&mut len)
            .map_err(|e| format!("setup read: {e}"))?;
        let len = u32::from_ne_bytes(len) as usize;
        if len > 1 << 20 {
            return Err(format!("implausible setup reply length {len}"));
        }
        let mut body = vec![0u8; len];
        s.read_exact(&mut body)
            .map_err(|e| format!("setup read: {e}"))?;
        match SetupReply::decode(ByteOrder::native(), &body) {
            Ok(SetupReply::Success { .. }) => {}
            other => return Err(format!("setup refused: {other:?}")),
        }
        Ok(ControlConn {
            stream: s,
            replies: ReplyCheck {
                next_seq: 1,
                last_time: None,
            },
            inbuf: Vec::with_capacity(64 << 10),
        })
    }

    /// One blocking `GetTime` round trip (set-up's first good reply).
    pub fn ping(&mut self) -> Result<(), String> {
        self.stream
            .write_all(&get_time_frame())
            .map_err(|e| format!("write: {e}"))?;
        let mut msg = [0u8; 12];
        self.stream
            .read_exact(&mut msg)
            .map_err(|e| format!("read: {e}"))?;
        self.replies.check(&msg).map(|_| ())
    }
}

impl ReplyCheck {
    /// Validates one complete `Time` reply: kind, opcode tag, sequence,
    /// length, and that device time never goes backwards on a connection.
    fn check(&mut self, msg: &[u8]) -> Result<u32, String> {
        let order = ByteOrder::native();
        let h = MessageHeader::decode(order, &msg[..MessageHeader::SIZE])
            .map_err(|e| format!("header: {e:?}"))?;
        if h.kind != MessageKind::Reply {
            return Err(format!(
                "expected a reply, got {:?} (detail {})",
                h.kind, h.detail
            ));
        }
        if h.sequence != self.next_seq {
            return Err(format!(
                "sequence {} where {} was due",
                h.sequence, self.next_seq
            ));
        }
        if h.extra_words != TIME_REPLY_WORDS {
            return Err(format!("Time reply of {} words", h.extra_words));
        }
        let time = match Reply::decode(order, &h, &msg[MessageHeader::SIZE..]) {
            Ok(Reply::Time { time }) => time.ticks(),
            other => return Err(format!("expected a Time reply, got {other:?}")),
        };
        if let Some(last) = self.last_time {
            if (time.wrapping_sub(last) as i32) < 0 {
                return Err(format!("device time went backwards: {last} -> {time}"));
            }
        }
        self.last_time = Some(time);
        self.next_seq = self.next_seq.wrapping_add(1);
        Ok(time)
    }
}

pub fn get_time_frame() -> Vec<u8> {
    Request::GetTime { device: 0 }.encode(ByteOrder::native())
}

/// One open-loop phase at a fixed offered rate.
pub struct Phase {
    pub rate: f64,
    pub duration: Duration,
    /// Windows the phase is cut into for the per-window medians.
    pub windows: u32,
    /// Input stream of the seed this phase draws its arrivals from.
    pub stream: u64,
    pub trace: bool,
    /// For a probe: stop sending once the generator is this far behind
    /// schedule; the probe then misses, and unsent requests are not counted.
    pub give_up: Option<Duration>,
    /// Fault injection for the benchmark's own test: the sender sleeps
    /// for the duration once, before the first send that reaches the
    /// request with this index.
    pub stall: Option<(usize, Duration)>,
}

pub struct PhaseResult {
    /// One entry per request, from due time to reply; `INFINITY` for a
    /// request that failed or never got its reply.
    pub lat_us: Vec<f64>,
    /// Requests held back past their due time by [`MAX_IN_FLIGHT`].
    pub held_back: u64,
    /// Per request: how late the generator actually sent it.
    pub late_us: Vec<f64>,
    pub backlog_max: u64,
    /// Every due request was sent (the generator did not give up).
    pub complete: bool,
    pub ok: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub layers: Layers,
    pub counters: ServerCounters,
    pub windowed: Windowed,
    /// Median over windows of the generator's p99 lateness.
    pub late_p99: f64,
    pub trace: Trace,
}

/// Poisson arrival offsets (ns from phase start) at `rate` for `duration`.
pub fn arrivals(seed: u64, stream: u64, rate: f64, duration: Duration) -> Vec<u64> {
    let mut rng = Rng::stream(seed, stream);
    let end = duration.as_nanos() as f64;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * duration.as_secs_f64() * 1.1) as usize + 16);
    loop {
        t += -rng.next_unit().ln() / rate * 1e9;
        if t >= end {
            return out;
        }
        out.push(t as u64);
    }
}

/// Lets the sender's sleeps end on time: the default 50 µs timer slack
/// would make every request late by about that much.
fn tighten_timer_slack() {
    #[allow(unsafe_code)]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and changes only
        // the calling thread's timer slack; it touches no memory.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1u64);
        }
    }
}

pub fn run_phase(
    server: &RunningServer,
    conns: &mut [ControlConn; 2],
    seed: u64,
    p: &Phase,
) -> Result<PhaseResult, String> {
    let due = arrivals(seed, p.stream, p.rate, p.duration);
    let n = due.len();
    let frame = get_time_frame();
    let mut writers = Vec::with_capacity(2);
    for c in conns.iter() {
        writers.push(c.stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    }
    let shared = Shared {
        done: [AtomicU64::new(0), AtomicU64::new(0)],
        sent: AtomicU64::new(0),
        finished: AtomicBool::new(false),
        failed: AtomicBool::new(false),
    };
    let (done, send_failed) = (&shared.done, &shared.failed);
    let stats = server.stats();
    let counters_before = ServerCounters::read(&stats);
    let before = sched::snapshot();
    // Start slightly in the future so both threads are running at t0.
    let t0 = now_ns() + 2_000_000;
    let win_ns = p.duration.as_nanos() as u64 / u64::from(p.windows.max(1));

    let (send_out, recv_out, snaps) = std::thread::scope(|s| {
        let sender = std::thread::Builder::new()
            .name("pb-gen-send".into())
            .spawn_scoped(s, || {
                let cpu0 = sched::own();
                tighten_timer_slack();
                let mut late = Vec::with_capacity(n);
                let mut bufs: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
                let mut backlog_max = 0u64;
                let mut trace = Trace::default();
                let mut sent = [0u64; 2];
                // When the in-flight limit last held back a due request:
                // every request due by then and sent after was held back.
                let mut held_at = 0u64;
                let mut held_back = 0u64;
                let mut stall = p.stall;
                let mut i = 0usize;
                while i < n && !send_failed.load(Ordering::SeqCst) {
                    let at = t0 + due[i];
                    let now = now_ns();
                    if now < at {
                        std::thread::sleep(Duration::from_nanos(at - now));
                    } else if sent[i & 1] - done[i & 1].load(Ordering::Acquire) >= MAX_IN_FLIGHT {
                        // Due but held back: wait for replies to drain.
                        held_at = now;
                        std::thread::sleep(Duration::from_micros(20));
                        continue;
                    }
                    if let Some((_, len)) = stall.filter(|&(at_req, _)| i >= at_req) {
                        std::thread::sleep(len);
                        stall = None;
                    }
                    let now = now_ns();
                    if p.give_up
                        .is_some_and(|g| now > t0 + due[i] + g.as_nanos() as u64)
                    {
                        break;
                    }
                    let first = i;
                    while i < n && t0 + due[i] <= now {
                        let c = i & 1;
                        if sent[c] - done[c].load(Ordering::Acquire) >= MAX_IN_FLIGHT {
                            held_at = now;
                            break;
                        }
                        if t0 + due[i] <= held_at {
                            held_back += 1;
                        }
                        bufs[c].extend_from_slice(&frame);
                        late.push((now - (t0 + due[i])) as f64 / 1e3);
                        sent[c] += 1;
                        i += 1;
                    }
                    let span = if p.trace {
                        trace.open("gen.write", first as u64, NO_PARENT)
                    } else {
                        NO_PARENT
                    };
                    for (w, buf) in writers.iter_mut().zip(bufs.iter_mut()) {
                        if !buf.is_empty() && w.write_all(buf).is_err() {
                            send_failed.store(true, Ordering::SeqCst);
                        }
                        buf.clear();
                    }
                    if p.trace {
                        trace.close(span);
                    }
                    let outstanding: u64 = (0..2)
                        .map(|c| sent[c] - done[c].load(Ordering::Acquire))
                        .sum();
                    backlog_max = backlog_max.max(outstanding);
                }
                shared.sent.store(i as u64, Ordering::SeqCst);
                shared.finished.store(true, Ordering::SeqCst);
                (
                    late,
                    held_back,
                    backlog_max,
                    trace,
                    sched::own().since(&cpu0),
                )
            })
            .expect("spawn sender");
        let receiver = std::thread::Builder::new()
            .name("pb-gen-recv".into())
            .spawn_scoped(s, || {
                let cpu0 = sched::own();
                let r = receive(conns, &due, t0, p.trace, &shared);
                (r, sched::own().since(&cpu0))
            })
            .expect("spawn receiver");
        let snaps = window::monitor(t0, win_ns, t0 + p.duration.as_nanos() as u64);
        (
            sender.join().expect("sender panicked"),
            receiver.join().expect("receiver panicked"),
            snaps,
        )
    });
    let after = sched::snapshot();
    let (late_us, held_back, backlog_max, send_trace, send_cpu) = send_out;
    let (recv_out, recv_cpu) = recv_out;
    let (mut lat_us, mut failures, recv_trace) = recv_out?;
    // Requests the generator gave up on were never sent.
    let complete = shared.sent.load(Ordering::SeqCst) as usize == n;
    let n = shared.sent.load(Ordering::SeqCst) as usize;
    lat_us.truncate(n);
    if send_failed.load(Ordering::SeqCst) {
        failures.push("the generator stopped early: a write failed or replies stopped".into());
    }
    let counters = ServerCounters::read(&stats).minus(&counters_before);
    failures.extend(counters.problems());
    let ok = lat_us.iter().filter(|v| v.is_finite()).count() as u64;
    let at =
        |v: &[f64]| -> Vec<(u64, f64)> { due.iter().zip(v).map(|(d, l)| (t0 + d, *l)).collect() };
    let windowed = window::summarize(&at(&lat_us), t0, win_ns, &snaps);
    let late_buckets = window::buckets(&at(&late_us), t0, win_ns, windowed.windows);
    let mut trace = Trace::default();
    trace.absorb(send_trace);
    trace.absorb(recv_trace);
    Ok(PhaseResult {
        failed: n as u64 - ok,
        ok,
        lat_us,
        held_back,
        late_us,
        backlog_max,
        complete,
        failures,
        layers: Layers::between(&before, &after, send_cpu.plus(&recv_cpu))?,
        counters,
        windowed,
        late_p99: window::median_quantile(&late_buckets, 0.99),
        trace,
    })
}

type RecvOut = Result<(Vec<f64>, Vec<String>, Trace), String>;

/// What the sender and receiver of one phase share.
struct Shared {
    /// Replies received per connection.
    done: [AtomicU64; 2],
    /// Requests sent, published when the sender finishes.
    sent: AtomicU64,
    finished: AtomicBool,
    /// A write failed or the receiver gave up: both sides stop.
    failed: AtomicBool,
}

fn receive(
    conns: &mut [ControlConn; 2],
    due: &[u64],
    t0: u64,
    trace_on: bool,
    shared: &Shared,
) -> RecvOut {
    let n = due.len();
    let mut lat = vec![f64::INFINITY; n];
    let mut failures = Vec::new();
    let mut trace = Trace::default();
    let mut poller = Poller::new(false).map_err(|e| format!("poller: {e}"))?;
    for (i, c) in conns.iter().enumerate() {
        poller
            .register(c.stream.as_raw_fd(), i as u64, Interest::Read)
            .map_err(|e| format!("register: {e}"))?;
    }
    // Request i goes to connection i % 2, so the k-th reply on connection
    // c answers request 2k + c.
    let mut next_idx = [0usize, 1usize];
    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    // Stragglers get DRAIN_TIMEOUT_NS after the sender finishes.
    let mut deadline = u64::MAX;
    let mut expected = n;
    let mut received = 0usize;
    let order = ByteOrder::native();
    'outer: while received < expected {
        if deadline == u64::MAX && shared.finished.load(Ordering::SeqCst) {
            expected = shared.sent.load(Ordering::SeqCst) as usize;
            deadline = now_ns() + DRAIN_TIMEOUT_NS;
            continue;
        }
        if now_ns() > deadline || shared.failed.load(Ordering::SeqCst) {
            break;
        }
        events.clear();
        poller
            .wait(&mut events, 5)
            .map_err(|e| format!("poll: {e}"))?;
        for ev in &events {
            let c = ev.token as usize;
            let conn = &mut conns[c];
            // Level-triggered readiness on a blocking socket: one read is
            // guaranteed not to block, and leftovers fire again.
            let got = match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    failures.push(format!("connection {c} closed by the server"));
                    break 'outer;
                }
                Ok(got) => got,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    failures.push(format!("connection {c} read: {e}"));
                    break 'outer;
                }
            };
            let arrived = now_ns();
            conn.inbuf.extend_from_slice(&scratch[..got]);
            let mut off = 0usize;
            while conn.inbuf.len() - off >= MessageHeader::SIZE {
                let words = match MessageHeader::decode(order, &conn.inbuf[off..off + 8]) {
                    Ok(h) => h.payload_len(),
                    Err(e) => {
                        failures.push(format!("connection {c}: bad header {e:?}"));
                        break 'outer;
                    }
                };
                let total = MessageHeader::SIZE + words;
                if conn.inbuf.len() - off < total {
                    break;
                }
                let idx = next_idx[c];
                next_idx[c] += 2;
                if idx >= n {
                    failures.push(format!("connection {c}: reply with no request"));
                    break 'outer;
                }
                let msg = &conn.inbuf[off..off + total];
                off += total;
                let replies = &mut conn.replies;
                let checked = if trace_on {
                    let req = trace.open_at("req.gettime", idx as u64, NO_PARENT, t0 + due[idx]);
                    let r =
                        trace.span("proto.reply_decode", idx as u64, req, || replies.check(msg));
                    trace.close(req);
                    r
                } else {
                    replies.check(msg)
                };
                match checked {
                    Ok(_) => lat[idx] = arrived.saturating_sub(t0 + due[idx]) as f64 / 1e3,
                    Err(e) => {
                        if failures.len() < 8 {
                            failures.push(format!("request {idx}: {e}"));
                        }
                    }
                }
                received += 1;
                shared.done[c].fetch_add(1, Ordering::Release);
            }
            conn.inbuf.drain(..off);
        }
    }
    for c in conns.iter() {
        let _ = poller.deregister(c.stream.as_raw_fd());
    }
    if received < expected {
        // Stops a sender that may be waiting for these replies.
        shared.failed.store(true, Ordering::SeqCst);
        if failures.is_empty() {
            failures.push(format!("{} requests never answered", expected - received));
        }
    }
    Ok((lat, failures, trace))
}

/// The rate search: grows the offered rate until a probe misses the limit
/// (p99 above [`LIMIT_P99_US`], a generator that could not keep up, or any
/// request failed), then bisects between the last pass and the first miss.
/// Returns the rate and the number of requests sent.
fn max_rate(
    rig: &mut Rig,
    seed: u64,
    probe: Duration,
    log: &mut Vec<String>,
) -> Result<(f64, u64), String> {
    let mut stream = 100u64;
    let mut attempted = 0u64;
    let mut probe_at = |rate: f64, log: &mut Vec<String>| -> Result<bool, String> {
        stream += 1;
        let r = run_phase(
            &rig.server,
            &mut rig.conns,
            seed,
            &Phase {
                rate,
                duration: probe,
                windows: PROBE_WINDOWS,
                stream,
                trace: false,
                give_up: Some(Duration::from_millis(250)),
                stall: None,
            },
        )?;
        let (p99, late) = (r.windowed.p99, r.late_p99);
        let pass = r.complete
            && r.failed == 0
            && r.held_back == 0
            && p99 <= LIMIT_P99_US
            && late <= LIMIT_P99_US;
        log.push(format!(
            "  probe {rate:>9.0} req/s: p99 {p99:>9.1} us, late p99 {late:>8.1} us \
             (medians of {PROBE_WINDOWS} windows), {} held back -> {}",
            r.held_back,
            if pass { "pass" } else { "miss" }
        ));
        attempted += r.lat_us.len() as u64;
        if !r.failures.is_empty() {
            return Err(r.failures.join("; "));
        }
        Ok(pass)
    };
    let mut lo = 0.0f64;
    let mut hi = SEARCH_START_RPS;
    while hi <= SEARCH_CEILING_RPS && probe_at(hi, log)? {
        lo = hi;
        hi *= SEARCH_GROWTH;
    }
    if lo == 0.0 {
        // Even the starting rate misses: search below it instead.
        hi = SEARCH_START_RPS;
        lo = NOMINAL_RPS / 4.0;
    }
    for _ in 0..SEARCH_BISECTIONS {
        let mid = (lo * hi).sqrt();
        if probe_at(mid, log)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo, attempted))
}

/// A freshly set-up control rig: server plus two connections that have each
/// had one good reply.
pub struct Rig {
    pub server: RunningServer,
    pub conns: [ControlConn; 2],
}

pub fn setup() -> Result<Rig, String> {
    let server = crate::codec_server(
        std::sync::Arc::new(af_device::SystemClock::new(8000)),
        Box::new(af_device::SilenceSource::new(af_dsp::g711::ULAW_SILENCE)),
        None,
    )?;
    let conns = fresh_conns(&server)?;
    Ok(Rig { server, conns })
}

/// Two new connections, each with one good reply.
fn fresh_conns(server: &RunningServer) -> Result<[ControlConn; 2], String> {
    let addr = server.tcp_addr().ok_or("no tcp address")?;
    let mut conns = [ControlConn::open(addr)?, ControlConn::open(addr)?];
    for c in conns.iter_mut() {
        c.ping()?;
    }
    Ok(conns)
}

/// Counts a nominal-rate phase, and notes any requests the in-flight limit
/// held back (their wait is already in their latency).
fn count(out: &mut Outcome, r: &PhaseResult) {
    out.count(r.lat_us.len() as u64, r.failed, &r.failures);
    if r.held_back > 0 {
        out.notes.push(format!(
            "control: {} requests held back (charged from due time): the server \
             evicts a client with more than {MAX_IN_FLIGHT} replies queued",
            r.held_back
        ));
    }
}

pub fn run(rig: &mut Rig, ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let nominal = |trace: bool, stream: u64, secs: f64| Phase {
        rate: NOMINAL_RPS,
        duration: Duration::from_secs_f64(secs),
        windows: crate::windows_for(secs),
        stream,
        trace,
        give_up: None,
        stall: None,
    };
    // Warm the connections, pools and caches before anything is timed.
    let warm = run_phase(
        &rig.server,
        &mut rig.conns,
        ctx.seed,
        &nominal(false, 0, 0.2),
    )?;
    count(&mut out, &warm);

    let secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let base = run_phase(
        &rig.server,
        &mut rig.conns,
        ctx.seed,
        &nominal(false, 1, secs),
    )?;
    count(&mut out, &base);
    let d = Dist::of(base.lat_us.clone());
    let w = base.windowed;
    out.detail.extend([
        Metric::dist("gettime_p50_us", "us", &d, w.p50).over(w.windows),
        Metric::dist("gettime_p99_us", "us", &d, w.p99).over(w.windows),
        Metric::of("server_cpu_us_per_op", "us", w.cpu_us_per_op, d.n)
            .over(w.windows)
            .per("GetTime request"),
    ]);

    if !ctx.trace {
        out.e2e = vec![
            Metric::dist("p50_us", "us", &d, w.p50).over(w.windows),
            Metric::of("server_cpu_us_per_op", "us", w.cpu_us_per_op, d.n).over(w.windows),
        ];
        if !ctx.search {
            return Ok(out);
        }
        let mut log = Vec::new();
        // The search gets its own time budget, a quarter of the run's, in
        // probes of a fortieth (about ten probes).
        let probe = Duration::from_secs_f64(ctx.seconds * crate::TRIALS as f64 / 40.0);
        let (max_rps, attempted) = max_rate(rig, ctx.seed, probe, &mut log)?;
        out.notes.extend(log);
        out.attempted += attempted;
        out.detail
            .push(Metric::of("control_max_rps", "1/s", max_rps, 1));
        return Ok(out);
    }

    // Traced run: the same nominal phase again with spans on.
    let traced = run_phase(
        &rig.server,
        &mut rig.conns,
        ctx.seed,
        &nominal(true, 2, secs),
    )?;
    count(&mut out, &traced);
    let t = traced.windowed;
    out.overhead.push(("p50_us", w.p50, t.p50));
    out.overhead.push(("p99_us", w.p99, t.p99));
    out.overhead
        .push(("server_cpu_us_per_op", w.cpu_us_per_op, t.cpu_us_per_op));
    out.layer_accounting(
        &traced.layers,
        &traced.counters,
        traced.ok as f64,
        "GetTime request",
    );
    out.layers.push(
        Metric::of(
            "gen.late_p99_us",
            "us",
            traced.late_p99,
            traced.late_us.len(),
        )
        .over(t.windows),
    );
    out.layers.push(Metric::of(
        "gen.backlog_max",
        "count",
        traced.backlog_max as f64,
        1,
    ));
    out.trace.absorb(traced.trace);
    // Nothing in this workload runs the update task on demand; time the
    // dispatcher's own periodic task by asking for it directly.
    let handle = rig.server.handle();
    let upd: Vec<f64> = (0..100)
        .map(|i| {
            let t = now_ns();
            out.trace
                .span("update.run_update", i, NO_PARENT, || handle.run_update());
            (now_ns() - t) as f64 / 1e3
        })
        .collect();
    let upd = Dist::of(upd);
    out.layers
        .push(Metric::dist("update.run_us", "us", &upd, upd.p50));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_come_from_the_seed() {
        let d = Duration::from_millis(100);
        assert_eq!(arrivals(1, 1, 10_000.0, d), arrivals(1, 1, 10_000.0, d));
        assert_ne!(arrivals(1, 1, 10_000.0, d), arrivals(2, 1, 10_000.0, d));
        let n = arrivals(3, 1, 10_000.0, Duration::from_secs(1)).len();
        assert!((9_000..11_000).contains(&n), "{n} arrivals at 10k/s");
    }

    /// A generator stall must show up both in the latency tail (timed from
    /// due time, so requests due during the stall are charged for it) and
    /// in the generator's own lateness.
    #[test]
    fn injected_stall_shows_in_p99_and_lateness() {
        let mut rig = setup().expect("setup");
        let phase = |stall| Phase {
            rate: 2_000.0,
            duration: Duration::from_millis(500),
            windows: 1,
            stream: 9,
            trace: false,
            give_up: None,
            stall,
        };
        let calm = run_phase(&rig.server, &mut rig.conns, 5, &phase(None)).expect("calm");
        assert_eq!(calm.failed, 0, "{:?}", calm.failures);
        let stalled = run_phase(
            &rig.server,
            &mut rig.conns,
            5,
            &phase(Some((200, Duration::from_millis(50)))),
        )
        .expect("stalled");
        assert_eq!(stalled.failed, 0, "{:?}", stalled.failures);
        let (c, s) = (Dist::of(calm.lat_us), Dist::of(stalled.lat_us));
        let (cl, sl) = (Dist::of(calm.late_us), Dist::of(stalled.late_us));
        // ~100 requests are due during a 50 ms stall at 2k/s: well over 1 %.
        assert!(s.p99 > 20_000.0, "stalled p99 {} us", s.p99);
        assert!(sl.p99 > 20_000.0, "stalled lateness p99 {} us", sl.p99);
        assert!(
            c.p99 < s.p99 / 4.0,
            "calm p99 {} us vs stalled {}",
            c.p99,
            s.p99
        );
        assert!(
            cl.p99 < sl.p99 / 4.0,
            "calm lateness {} us vs stalled {}",
            cl.p99,
            sl.p99
        );
    }

    /// A catch-up burst over the in-flight limit is held back, not sent:
    /// the server evicts nobody, every request is answered, and the wait is
    /// charged to the held-back requests from their due time.
    #[test]
    fn requests_held_back_by_the_in_flight_limit_are_charged_their_wait() {
        let mut rig = setup().expect("setup");
        // ~1 200 requests fall due during the stall: ~600 per connection.
        let r = run_phase(
            &rig.server,
            &mut rig.conns,
            7,
            &Phase {
                rate: 20_000.0,
                duration: Duration::from_millis(300),
                windows: 1,
                stream: 9,
                trace: false,
                give_up: None,
                stall: Some((1_000, Duration::from_millis(60))),
            },
        )
        .expect("phase");
        assert!(r.held_back > 0, "nothing held back");
        assert_eq!(r.failed, 0, "{:?}", r.failures);
        assert_eq!(r.counters.evictions, 0);
        let (lat, late) = (Dist::of(r.lat_us), Dist::of(r.late_us));
        assert!(
            lat.p99.is_finite() && lat.p99 > 20_000.0,
            "p99 {} us",
            lat.p99
        );
        assert!(late.p99 > 20_000.0, "lateness p99 {} us", late.p99);
    }
}
