//! Event-driven transport: N reactor shards multiplexing all connections.
//!
//! The paper's server multiplexed every client socket with one `select()`
//! loop (§5.1, §7.3.1).  The classic transport replaced that with a
//! reader+writer thread pair per connection, which caps concurrency at a
//! few hundred clients.  This module restores the paper's shape at scale:
//! a small set of reactor shards (default `min(4, cores)`) each run a
//! level-triggered readiness loop ([`poller::Poller`]: raw `epoll` via the
//! audited [`sys`] shim, or `poll(2)` fallback) over nonblocking sockets.
//!
//! Each shard owns its connections' read side outright: a per-connection
//! staging buffer filled by one `read` per readiness event, and a
//! resumable parse over it (setup header → setup tail → frame header →
//! payload, resumable at any byte boundary across partial reads).  Framed
//! requests feed the existing dispatcher event channel, so single-threaded
//! control semantics, slow-client overflow/eviction, idle timeout, and
//! chaos fault injection are preserved unchanged from the classic
//! transport.
//!
//! Reply path (modeled in `loom_models.rs`): the thread that produces a
//! reply — the dispatcher or an audio worker — pushes it onto the
//! connection's bounded queue and then writes the queue into the
//! nonblocking socket itself, under the connection's writer lock taken
//! with `try_lock`.  Only when that cannot finish in place — a short
//! write, `EWOULDBLOCK`, or the lock held by another thread — does the
//! producer hand the connection to its shard: it swaps the connection's
//! `notified` flag, and only the first producer to set it pushes the
//! connection token onto the shard's pending queue and writes the
//! self-pipe.  The shard clears `notified` *before* draining and arms
//! write interest while a partial write is outstanding.  A producer that
//! held the lock checks the queue again after releasing it, so a reply
//! pushed while the lock was busy always has either a lock holder or a
//! pending wake.
//!
//! Backpressure parity: a shard blocks on the bounded dispatcher channel
//! exactly where a classic reader thread would, which stops reading that
//! shard's sockets — TCP backpressure to the clients.  Fault injection
//! note: `ChaosStream` read delays sleep on the shard thread, stalling
//! that shard's connections collectively, and write delays sleep on the
//! thread writing the reply; chaos plans are a test-only feature and the
//! tests account for it.

pub mod poller;
pub mod sys;

use crate::broadcast::{BroadcastBus, BroadcastChunk};
use crate::pool::PooledBuf;
use crate::state::{ClientId, ConnKick, RawRequest, ServerEvent};
use crate::transport::{decode_frame_header, OutboundTx, TransportShared, OUTBOUND_QUEUE_CAPACITY};
use af_chaos::ChaosStream;
use af_proto::{ByteOrder, ConnSetup};
use crossbeam_channel::{Receiver, Sender};
use poller::{Interest, PollEvent, Poller, MAX_EVENTS};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Bound on each shard's control inbox (new connections, listeners).
pub const REACTOR_INBOX_CAPACITY: usize = 1024;

/// Bound on each shard's pending-flush token queue.  The `notified` flag
/// admits at most one outstanding token per connection, so this only
/// overflows past ~64k simultaneous connections per shard — and overflow
/// degrades to a full sweep, never a lost wakeup.
pub const PENDING_TOKEN_CAPACITY: usize = 1 << 16;

/// Poller token reserved for the shard's self-pipe wake fd.
const WAKE_TOKEN: u64 = u64::MAX;

/// Sentinel in a connection's token cell before shard registration.
const UNASSIGNED_TOKEN: u64 = u64::MAX;

/// Frames decoded per readiness event per connection before yielding, so
/// one firehose client cannot starve its shard siblings (level-triggered
/// polling re-reports the fd immediately).
const FRAME_BUDGET: u32 = 64;

/// Size of each connection's read staging buffer.  One `read` per
/// readiness event fills it, and frames are parsed out of it; a payload
/// larger than this is read straight into its pooled frame buffer.
const STAGING_BYTES: usize = 4096;

/// Chunks gathered into one vectored write on a broadcast listener.
const BCAST_BATCH: usize = 8;

/// Cap on a broadcast listener's HTTP request head; longer heads are
/// treated as garbage and the connection is closed.
const BCAST_REQ_MAX: usize = 4096;

/// The default shard count: `min(4, cores)`.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Whether this build can run the reactor transport at all.
pub fn reactor_supported() -> bool {
    sys::supported()
}

/// Raises the process's open-file soft limit to the hard limit (load
/// harnesses opening thousands of sockets call this first).
pub fn raise_nofile_limit() -> io::Result<u64> {
    sys::raise_nofile_limit()
}

/// Per-shard counters, registered into
/// [`crate::state::ServerStats::reactor_snapshots`].
pub struct ReactorShardStats {
    /// Shard index (thread `af-reactor-{shard}`).
    pub shard: usize,
    /// Registered fds owned right now (gauge; includes listeners + pipe).
    pub fd_count: AtomicU64,
    /// Readiness events processed.
    pub readiness_events: AtomicU64,
    /// Self-pipe wakeups handled.
    pub wakeups: AtomicU64,
    /// Reads that advanced a frame without completing it.
    pub partial_reads: AtomicU64,
    /// Complete request frames delivered to the dispatcher.
    pub frames: AtomicU64,
    /// Outbound messages fully written to sockets.
    pub replies: AtomicU64,
    /// Connections this shard registered.
    pub accepted: AtomicU64,
    /// Connections this shard closed (any reason).
    pub closed: AtomicU64,
    /// Forced kicks (dispatcher evictions) landed on this shard's conns.
    pub evictions: AtomicU64,
}

impl ReactorShardStats {
    fn new(shard: usize) -> ReactorShardStats {
        ReactorShardStats {
            shard,
            fd_count: AtomicU64::new(0),
            readiness_events: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            partial_reads: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            replies: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Copies the counters out.
    pub fn snapshot(&self) -> ReactorShardSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ReactorShardSnapshot {
            shard: self.shard,
            fd_count: get(&self.fd_count),
            readiness_events: get(&self.readiness_events),
            wakeups: get(&self.wakeups),
            partial_reads: get(&self.partial_reads),
            frames: get(&self.frames),
            replies: get(&self.replies),
            accepted: get(&self.accepted),
            closed: get(&self.closed),
            evictions: get(&self.evictions),
        }
    }
}

/// A point-in-time copy of one shard's counters.
#[derive(Clone, Copy, Debug)]
pub struct ReactorShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Registered fds owned right now.
    pub fd_count: u64,
    /// Readiness events processed.
    pub readiness_events: u64,
    /// Self-pipe wakeups handled.
    pub wakeups: u64,
    /// Reads that advanced a frame without completing it.
    pub partial_reads: u64,
    /// Complete request frames delivered.
    pub frames: u64,
    /// Outbound messages fully written.
    pub replies: u64,
    /// Connections registered.
    pub accepted: u64,
    /// Connections closed.
    pub closed: u64,
    /// Forced kicks landed.
    pub evictions: u64,
}

/// Wakes a shard's poll loop by writing one byte to its self-pipe.
#[derive(Clone)]
struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    fn pair() -> io::Result<(Waker, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx: Arc::new(tx) }, rx))
    }

    fn wake(&self) {
        // A full pipe means a wake is already pending: dropping the byte
        // is correct, not a lost wakeup.
        let _ = (&*self.tx).write(&[1]);
    }
}

/// The wakeup half of the reply path: hands a connection whose reply
/// could not be written in place to its owning shard.
struct ConnNotify {
    token: AtomicU64,
    notified: AtomicBool,
    pending: Sender<u64>,
    sweep: Arc<AtomicBool>,
    waker: Waker,
}

impl ConnNotify {
    /// Signals the owning shard that the connection needs a flush.  Must
    /// be called *after* the queue push (the shard clears `notified`
    /// before draining, so this ordering is what makes a racing push
    /// visible — see the module docs and the loom model).
    fn wake(&self) {
        if !self.notified.swap(true, Ordering::AcqRel) {
            let token = self.token.load(Ordering::Acquire);
            if token == UNASSIGNED_TOKEN || self.pending.try_send(token).is_err() {
                // Not yet registered, or the token queue is saturated:
                // degrade to a full sweep of the shard's connections.
                self.sweep.store(true, Ordering::Release);
            }
            self.waker.wake();
        }
    }
}

/// One connection's socket, shared by the shard's read half, the reply
/// writer and the dispatcher's kick.  All three use the same fd, so a
/// `shutdown` from any of them reaches the peer at once, and the fd
/// closes only when the last holder drops it.
#[derive(Clone)]
struct SockRef(Arc<RawStream>);

impl SockRef {
    fn shutdown(&self) {
        let _ = match &*self.0 {
            RawStream::Tcp(s) => s.shutdown(Shutdown::Both),
            RawStream::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for SockRef {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match &*self.0 {
            RawStream::Tcp(s) => (&mut &*s).read(buf),
            RawStream::Unix(s) => (&mut &*s).read(buf),
        }
    }
}

impl Write for SockRef {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match &*self.0 {
            RawStream::Tcp(s) => (&mut &*s).write(buf),
            RawStream::Unix(s) => (&mut &*s).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The write half of a connection, behind [`ConnOutbound::writer`].
struct ConnWriter {
    io: Box<dyn ShardIo>,
    /// An outbound message mid-write: `(buffer, bytes already written)`.
    /// While set, only the shard writes (on write readiness).
    partial: Option<(PooledBuf, usize)>,
    /// A write failed; the shard closes the connection.
    failed: bool,
}

/// Where a [`ConnWriter::drain`] stopped.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Drain {
    /// The queue is empty and every message is fully written.
    Idle,
    /// The socket refused bytes: a partial write is outstanding.
    Stalled,
    /// The connection is dead.
    Failed,
}

impl ConnWriter {
    /// Writes queued messages in FIFO order until the queue is empty or
    /// the socket refuses bytes.  A short write counts as a refusal: the
    /// next write would only return `EWOULDBLOCK`.
    fn drain(&mut self, queue: &Receiver<PooledBuf>, stats: &ReactorShardStats) -> Drain {
        if self.failed {
            // Recycle what is still queued; nothing will write it.
            while queue.try_recv().is_ok() {}
            return Drain::Failed;
        }
        loop {
            if self.partial.is_none() {
                match queue.try_recv() {
                    Ok(buf) => self.partial = Some((buf, 0)),
                    Err(_) => return Drain::Idle,
                }
            }
            let Some((buf, off)) = self.partial.as_mut() else {
                return Drain::Idle;
            };
            match self.io.write(&buf[*off..]) {
                Ok(0) => break,
                Ok(n) => {
                    *off += n;
                    if *off < buf.len() {
                        return Drain::Stalled;
                    }
                    self.partial = None; // Drop recycles the pooled buffer.
                    stats.replies.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Drain::Stalled,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.failed = true;
        self.partial = None;
        Drain::Failed
    }
}

/// The shared reply path of one reactor connection, referenced by every
/// [`OutboundTx`] that targets it and by the owning shard.
pub(crate) struct ConnOutbound {
    queue: Receiver<PooledBuf>,
    writer: parking_lot::Mutex<ConnWriter>,
    notify: ConnNotify,
    stats: Arc<ReactorShardStats>,
}

impl ConnOutbound {
    /// The producer's write-through, called after every queue push: write
    /// the queue into the socket on this thread, and hand the connection
    /// to its shard only when that cannot finish here.
    pub(crate) fn write_through(&self) {
        let Some(mut writer) = self.writer.try_lock() else {
            // Another thread is writing; it rechecks the queue after
            // unlocking, and this wake covers the shard holding it.
            self.notify.wake();
            return;
        };
        let done =
            writer.partial.is_none() && writer.drain(&self.queue, &self.stats) == Drain::Idle;
        drop(writer);
        // Recheck after unlock: a reply pushed while the lock was held
        // here found it busy and may rely on this thread to see it.
        if !done || !self.queue.is_empty() {
            self.notify.wake();
        }
    }
}

/// Byte streams a shard can own: anything readable/writable off-thread.
pub trait ShardIo: Read + Write + Send {}
impl<T: Read + Write + Send> ShardIo for T {}

/// A connection handed to its owning shard for registration.
struct NewConn {
    io: Box<dyn ShardIo>,
    sock: SockRef,
    fd: RawFd,
    id: ClientId,
    peer: Option<IpAddr>,
    out: Arc<ConnOutbound>,
    otx: OutboundTx,
    kick: ConnKick,
}

/// A broadcast listener socket handed to its owning shard.
struct NewBcast {
    io: Box<dyn ShardIo>,
    fd: RawFd,
}

enum ShardMsg {
    Conn(Box<NewConn>),
    TcpL(TcpListener),
    UnixL(UnixListener),
    BcastL(TcpListener),
    Bcast(Box<NewBcast>),
    Shutdown,
}

struct ShardLink {
    inbox: Sender<ShardMsg>,
    waker: Waker,
    pending: Sender<u64>,
    sweep: Arc<AtomicBool>,
    stats: Arc<ReactorShardStats>,
}

struct ReactorShared {
    links: Vec<ShardLink>,
    rr: AtomicUsize,
}

/// Where the connection's resumable read state machine stands.
enum ReadPhase {
    /// Waiting for the fixed setup-message header to be staged.
    SetupHeader,
    /// Collecting the setup tail (`buf` holds header + zeroed tail).
    SetupTail { buf: Vec<u8>, have: usize },
    /// Waiting for a 4-byte request frame header to be staged.
    Header,
    /// Collecting a frame payload into a pooled buffer.
    Payload {
        opcode: u8,
        buf: PooledBuf,
        have: usize,
    },
}

/// Bytes read from a connection but not yet parsed: `buf[lo..hi]`.
struct Staging {
    buf: Box<[u8]>,
    lo: usize,
    hi: usize,
}

impl Staging {
    fn staged(&self) -> &[u8] {
        &self.buf[self.lo..self.hi]
    }

    fn consume(&mut self, n: usize) {
        self.lo += n;
        if self.lo == self.hi {
            self.lo = 0;
            self.hi = 0;
        }
    }

    /// Moves staged bytes into `dst[*have..]`; true once `dst` is full.
    fn fill(&mut self, dst: &mut [u8], have: &mut usize) -> bool {
        let n = (dst.len() - *have).min(self.hi - self.lo);
        dst[*have..*have + n].copy_from_slice(&self.buf[self.lo..self.lo + n]);
        *have += n;
        self.consume(n);
        *have == dst.len()
    }

    /// Free space for the next read, after moving the unparsed tail (at
    /// most a partial header) to the front.
    fn space(&mut self) -> &mut [u8] {
        if self.lo > 0 {
            self.buf.copy_within(self.lo..self.hi, 0);
            self.hi -= self.lo;
            self.lo = 0;
        }
        &mut self.buf[self.hi..]
    }
}

/// One registered connection, owned by exactly one shard.
struct ConnState {
    io: Box<dyn ShardIo>,
    sock: SockRef,
    fd: RawFd,
    id: ClientId,
    peer: Option<IpAddr>,
    order: ByteOrder,
    phase: ReadPhase,
    stage: Staging,
    /// Queued on the shard's backlog: staged frames wait for a visit that
    /// no readiness event will trigger.
    backlogged: bool,
    out: Arc<ConnOutbound>,
    /// The dispatcher's half of the connection, consumed into the
    /// `NewClient` event once setup completes.
    pending_hello: Option<(OutboundTx, ConnKick)>,
    want_write: bool,
}

impl ConnState {
    /// Whether a frame (or the setup message) is partly read.
    fn mid_frame(&self) -> bool {
        !self.stage.staged().is_empty()
            || matches!(
                self.phase,
                ReadPhase::SetupTail { .. } | ReadPhase::Payload { .. }
            )
    }
}

/// Where a broadcast listener connection stands.
enum BcastPhase {
    /// Reading the HTTP request head (until the blank line).
    Request,
    /// Streaming chunks from the shared ring.
    Streaming,
}

/// One broadcast listener, owned by exactly one shard.  Holds no audio
/// of its own — only a cursor into the shared chunk ring plus the batch
/// of `Arc`-shared chunks currently being written.
struct BcastConn {
    io: Box<dyn ShardIo>,
    fd: RawFd,
    phase: BcastPhase,
    /// Request-head bytes collected so far (bounded by [`BCAST_REQ_MAX`]).
    req: Vec<u8>,
    /// ICY listener: raw payload bytes, no chunked-transfer framing.
    icy: bool,
    /// Next chunk sequence number this listener wants.
    cursor: u64,
    /// Response head still to write: `(bytes, offset)`.
    header: Option<(&'static [u8], usize)>,
    /// Fetched chunks being written; front is in flight.
    batch: VecDeque<Arc<BroadcastChunk>>,
    /// Bytes of the front chunk's wire slice already written.
    off: usize,
    want_write: bool,
    /// Consecutive chunk publishes with pending data and zero write
    /// progress (the stalled-listener eviction trigger).
    strikes: u32,
}

/// Index of the byte just past the request head's blank line, if the
/// head is complete.
fn find_head_end(req: &[u8]) -> Option<usize> {
    req.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Per-shard broadcast state: the shared bus plus this shard's listener
/// roster, pumped when the bus marks the shard dirty.
struct ShardBroadcast {
    bus: Arc<BroadcastBus>,
    /// Set by [`BroadcastBus::publish`]; cleared (then acted on) by the
    /// shard's wake handler — the same edge-triggered shape as
    /// [`ConnNotify`].
    dirty: Arc<AtomicBool>,
    /// Tokens of this shard's broadcast listener slots.
    tokens: Vec<usize>,
}

enum Slot {
    Conn(Box<ConnState>),
    TcpL(TcpListener),
    UnixL(UnixListener),
    BcastL(TcpListener),
    Bcast(Box<BcastConn>),
}

enum RawStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// What one `parse_step` did.
enum Step {
    /// Delivered a request frame to the dispatcher.
    Frame,
    /// Moved to the next phase without delivering a frame.
    Advanced,
    /// Needs more bytes than are staged.
    Starved,
}

/// Why `drive_read` stopped.
enum ReadOutcome {
    /// Would block: state saved, wait for the next readiness event.
    Park,
    /// EOF, I/O error, or unusable setup: close without protocol blame.
    Close,
    /// Malformed framing: report `ProtocolError`, then close.
    Protocol(crate::transport::FrameError),
}

/// Builds the per-connection plumbing and picks the owning shard.
fn build_conn(
    transport: &Arc<TransportShared>,
    shared: &ReactorShared,
    stream: RawStream,
    peer: Option<IpAddr>,
) -> (usize, Box<NewConn>) {
    let id = transport.next_id.fetch_add(1, Ordering::Relaxed);
    let target = shared.rr.fetch_add(1, Ordering::Relaxed) % shared.links.len();
    let link = &shared.links[target];
    let fd = match &stream {
        RawStream::Tcp(s) => s.as_raw_fd(),
        RawStream::Unix(s) => s.as_raw_fd(),
    };
    let sock = SockRef(Arc::new(stream));
    let kick: ConnKick = {
        let stats = Arc::clone(&link.stats);
        let sock = sock.clone();
        Arc::new(move || {
            stats.evictions.fetch_add(1, Ordering::Relaxed);
            sock.shutdown();
        })
    };
    let (io, write_io): (Box<dyn ShardIo>, Box<dyn ShardIo>) = match &transport.chaos {
        Some(plan) => {
            // Same per-connection fault derivation as the classic
            // transport: fork the plan seed by the connection id.  Both
            // halves draw from one fault schedule.
            let mut plan = plan.clone();
            plan.seed = af_chaos::ChaosRng::new(plan.seed).fork(id).next_u64();
            let read_half = ChaosStream::new(sock.clone(), plan);
            let write_half = read_half.fork(sock.clone());
            (Box::new(read_half), Box::new(write_half))
        }
        None => (Box::new(sock.clone()), Box::new(sock.clone())),
    };
    let (tx, rx) = crossbeam_channel::bounded::<PooledBuf>(OUTBOUND_QUEUE_CAPACITY);
    let out = Arc::new(ConnOutbound {
        queue: rx,
        writer: parking_lot::Mutex::new(ConnWriter {
            io: write_io,
            partial: None,
            failed: false,
        }),
        notify: ConnNotify {
            token: AtomicU64::new(UNASSIGNED_TOKEN),
            notified: AtomicBool::new(false),
            pending: link.pending.clone(),
            sweep: Arc::clone(&link.sweep),
            waker: link.waker.clone(),
        },
        stats: Arc::clone(&link.stats),
    });
    let otx = OutboundTx::reactor(tx, Arc::clone(&out));
    (
        target,
        Box::new(NewConn {
            io,
            sock,
            fd,
            id,
            peer,
            out,
            otx,
            kick,
        }),
    )
}

struct Shard {
    index: usize,
    poller: Poller,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Tokens freed during the current event batch; recycled only after
    /// the batch so a stale readiness event cannot alias a fresh conn.
    deferred_free: Vec<usize>,
    wake_rx: UnixStream,
    inbox: Receiver<ShardMsg>,
    pending: Receiver<u64>,
    sweep: Arc<AtomicBool>,
    stats: Arc<ReactorShardStats>,
    transport: Arc<TransportShared>,
    shared: Arc<ReactorShared>,
    stop: bool,
    /// Reusable scratch for the wake-time flush-token drain; lives on the
    /// shard so a busy wake does not allocate.
    wake_scratch: Vec<u64>,
    /// Broadcast bus + listener roster, when this reactor serves fan-out.
    broadcast: Option<ShardBroadcast>,
    /// Reusable scratch for the broadcast dirty pass (same rationale as
    /// `wake_scratch`).
    bcast_scratch: Vec<usize>,
    /// Connections whose frame budget ran out with frames still staged:
    /// the socket may be empty, so level-triggered polling will not
    /// report them again, and the shard revisits them before it blocks.
    backlog: Vec<usize>,
    /// Reusable scratch for the backlog pass.
    backlog_scratch: Vec<usize>,
}

impl Shard {
    fn run(mut self) {
        if self
            .poller
            .register(self.wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::Read)
            .is_err()
        {
            return;
        }
        let mut events: Vec<PollEvent> = Vec::with_capacity(MAX_EVENTS);
        loop {
            if self.stop || self.transport.stop.load(Ordering::Relaxed) {
                break;
            }
            events.clear();
            // Staged frames waiting on the backlog must not sleep behind
            // a blocking wait: poll without blocking, then revisit them.
            let timeout = if self.backlog.is_empty() { -1 } else { 0 };
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for ev in &events {
                self.stats.readiness_events.fetch_add(1, Ordering::Relaxed);
                if ev.token == WAKE_TOKEN {
                    self.handle_wake();
                } else {
                    self.handle_token(*ev);
                }
                if self.stop {
                    break;
                }
            }
            self.run_backlog();
            self.free.append(&mut self.deferred_free);
        }
        self.close_all();
    }

    fn alloc_slot(&mut self) -> usize {
        match self.free.pop() {
            Some(t) => t,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        }
    }

    /// Revisits the connections whose staged frames outlasted their
    /// frame budget.  Runs after every event batch, so tokens freed in
    /// the batch are not yet recycled and cannot alias a new connection.
    fn run_backlog(&mut self) {
        let mut tokens = std::mem::take(&mut self.backlog_scratch);
        std::mem::swap(&mut tokens, &mut self.backlog);
        for &t in &tokens {
            if let Some(Some(Slot::Conn(c))) = self.slots.get_mut(t) {
                c.backlogged = false;
                self.read_conn(t);
            }
        }
        tokens.clear();
        self.backlog_scratch = tokens;
    }

    fn handle_wake(&mut self) {
        self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
        let mut sink = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                // A short read emptied the pipe: no second read to learn
                // that it would block.
                Ok(n) if n == sink.len() => continue,
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: pipe drained.
            }
        }
        while let Ok(msg) = self.inbox.try_recv() {
            match msg {
                ShardMsg::Conn(conn) => self.register_conn(*conn),
                ShardMsg::TcpL(l) => {
                    let fd = l.as_raw_fd();
                    self.register_listener(Slot::TcpL(l), fd);
                }
                ShardMsg::UnixL(l) => {
                    let fd = l.as_raw_fd();
                    self.register_listener(Slot::UnixL(l), fd);
                }
                ShardMsg::BcastL(l) => {
                    let fd = l.as_raw_fd();
                    self.register_listener(Slot::BcastL(l), fd);
                }
                ShardMsg::Bcast(b) => self.register_bcast(*b),
                ShardMsg::Shutdown => {
                    self.stop = true;
                    return;
                }
            }
        }
        // Flush connections whose producers could not finish writing
        // their replies.  Tokens are drained even when the sweep flag
        // forces a full pass, so stale entries never accumulate.  The
        // scratch buffer is taken off the shard and put back so a busy
        // wake never allocates.
        let mut tokens = std::mem::take(&mut self.wake_scratch);
        tokens.clear();
        while let Ok(t) = self.pending.try_recv() {
            tokens.push(t);
        }
        if self.sweep.swap(false, Ordering::AcqRel) {
            tokens.clear();
            tokens.extend((0..self.slots.len() as u64).filter(|&t| {
                matches!(self.slots.get(t as usize), Some(Some(Slot::Conn(_))))
            }));
        }
        for &t in &tokens {
            self.flush_token(t);
        }
        self.wake_scratch = tokens;
        // Broadcast dirty pass: a sealed chunk set this shard's flag, so
        // pump every listener we own.  Strikes are counted here (and only
        // here): a listener with pending bytes that makes no progress
        // across many publishes is stalled, not merely slow.
        if self
            .broadcast
            .as_ref()
            .is_some_and(|b| b.dirty.swap(false, Ordering::AcqRel))
        {
            let mut tokens = std::mem::take(&mut self.bcast_scratch);
            tokens.clear();
            if let Some(b) = self.broadcast.as_ref() {
                tokens.extend_from_slice(&b.tokens);
            }
            for &t in &tokens {
                self.pump_bcast(t, true);
            }
            self.bcast_scratch = tokens;
        }
    }

    fn register_listener(&mut self, slot: Slot, fd: RawFd) {
        let token = self.alloc_slot();
        if self
            .poller
            .register(fd, token as u64, Interest::Read)
            .is_ok()
        {
            self.slots[token] = Some(slot);
            self.stats.fd_count.fetch_add(1, Ordering::Relaxed);
        } else {
            self.free.push(token);
        }
    }

    fn register_conn(&mut self, conn: NewConn) {
        let token = self.alloc_slot();
        if self
            .poller
            .register(conn.fd, token as u64, Interest::Read)
            .is_err()
        {
            self.free.push(token);
            return; // Dropping the conn closes the socket; the dispatcher
                    // never learned of it, so no event is owed.
        }
        conn.out.notify.token.store(token as u64, Ordering::Release);
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.stats.fd_count.fetch_add(1, Ordering::Relaxed);
        self.slots[token] = Some(Slot::Conn(Box::new(ConnState {
            io: conn.io,
            sock: conn.sock,
            fd: conn.fd,
            id: conn.id,
            peer: conn.peer,
            order: ByteOrder::Little, // Overwritten when setup completes.
            phase: ReadPhase::SetupHeader,
            stage: Staging {
                buf: vec![0u8; STAGING_BYTES].into_boxed_slice(),
                lo: 0,
                hi: 0,
            },
            backlogged: false,
            out: conn.out,
            pending_hello: Some((conn.otx, conn.kick)),
            want_write: false,
        })));
    }

    fn handle_token(&mut self, ev: PollEvent) {
        let token = ev.token as usize;
        match self.slots.get(token) {
            Some(Some(Slot::TcpL(_))) => self.accept_tcp(token),
            Some(Some(Slot::UnixL(_))) => self.accept_unix(token),
            Some(Some(Slot::BcastL(_))) => self.accept_bcast(token),
            Some(Some(Slot::Conn(_))) => {
                if ev.writable {
                    self.flush_conn(token, false);
                }
                if ev.readable {
                    self.read_conn(token);
                }
            }
            Some(Some(Slot::Bcast(_))) => {
                if ev.writable {
                    self.pump_bcast(token, false);
                }
                if ev.readable {
                    self.read_bcast(token);
                }
            }
            _ => {} // Freed mid-batch: stale event, ignore.
        }
    }

    fn accept_tcp(&mut self, token: usize) {
        loop {
            let accepted = match self.slots.get(token) {
                Some(Some(Slot::TcpL(l))) => l.accept(),
                _ => return,
            };
            match accepted {
                Ok((s, addr)) => {
                    let _ = s.set_nodelay(true);
                    if s.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.route_conn(RawStream::Tcp(s), Some(addr.ip()));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock or transient accept failure.
            }
        }
    }

    fn accept_unix(&mut self, token: usize) {
        loop {
            let accepted = match self.slots.get(token) {
                Some(Some(Slot::UnixL(l))) => l.accept(),
                _ => return,
            };
            match accepted {
                Ok((s, _)) => {
                    if s.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.route_conn(RawStream::Unix(s), None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Accepts broadcast listeners and routes them round-robin across all
    /// shards, same as dispatcher connections — fan-out write work spreads
    /// over every reactor thread.
    fn accept_bcast(&mut self, token: usize) {
        loop {
            let accepted = match self.slots.get(token) {
                Some(Some(Slot::BcastL(l))) => l.accept(),
                _ => return,
            };
            match accepted {
                Ok((s, _)) => {
                    let _ = s.set_nodelay(true);
                    if s.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let fd = s.as_raw_fd();
                    let io: Box<dyn ShardIo> = match &self.transport.chaos {
                        Some(plan) => {
                            // Listeners share the connection id space so
                            // chaos fault derivation stays per-connection
                            // deterministic.
                            let id = self.transport.next_id.fetch_add(1, Ordering::Relaxed);
                            let mut plan = plan.clone();
                            plan.seed = af_chaos::ChaosRng::new(plan.seed).fork(id).next_u64();
                            Box::new(ChaosStream::new(s, plan))
                        }
                        None => Box::new(s),
                    };
                    let target =
                        self.shared.rr.fetch_add(1, Ordering::Relaxed) % self.shared.links.len();
                    let msg = Box::new(NewBcast { io, fd });
                    if target == self.index {
                        self.register_bcast(*msg);
                    } else {
                        let link = &self.shared.links[target];
                        // Full inbox is overload: shed the listener.
                        if link.inbox.try_send(ShardMsg::Bcast(msg)).is_ok() {
                            link.waker.wake();
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn register_bcast(&mut self, b: NewBcast) {
        let Some(bus_stats) = self
            .broadcast
            .as_ref()
            .map(|sb| Arc::clone(sb.bus.stats()))
        else {
            return; // No bus on this reactor: dropping closes the socket.
        };
        let token = self.alloc_slot();
        if self
            .poller
            .register(b.fd, token as u64, Interest::Read)
            .is_err()
        {
            self.free.push(token);
            return;
        }
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.stats.fd_count.fetch_add(1, Ordering::Relaxed);
        bus_stats.listeners_total.fetch_add(1, Ordering::Relaxed);
        self.slots[token] = Some(Slot::Bcast(Box::new(BcastConn {
            io: b.io,
            fd: b.fd,
            phase: BcastPhase::Request,
            req: Vec::with_capacity(256),
            icy: false,
            cursor: 0,
            header: None,
            batch: VecDeque::with_capacity(BCAST_BATCH),
            off: 0,
            want_write: false,
            strikes: 0,
        })));
        if let Some(sb) = self.broadcast.as_mut() {
            sb.tokens.push(token);
        }
    }

    fn route_conn(&mut self, stream: RawStream, peer: Option<IpAddr>) {
        let (target, conn) = build_conn(&self.transport, &self.shared, stream, peer);
        if target == self.index {
            self.register_conn(*conn);
        } else {
            let link = &self.shared.links[target];
            // A full inbox is overload: shed the connection (dropping it
            // closes the socket) rather than blocking the accept path.
            if link.inbox.try_send(ShardMsg::Conn(conn)).is_ok() {
                link.waker.wake();
            }
        }
    }

    /// Clears the notified flag, then drains: the clear-before-drain order
    /// is the receiving half of the wakeup protocol.
    fn flush_token(&mut self, token: u64) {
        let token = token as usize;
        if let Some(Some(Slot::Conn(c))) = self.slots.get(token) {
            c.out.notify.notified.store(false, Ordering::Release);
            self.flush_conn(token, true);
        }
    }

    /// Finishes what a producer could not write in place: drains the
    /// connection's outbound queue as far as the socket allows, tracking
    /// write interest so the poller only watches writability while a
    /// message is actually stalled.
    fn flush_conn(&mut self, token: usize, from_notify: bool) {
        let Some(slot) = self.slots.get_mut(token) else {
            return;
        };
        let Some(Slot::Conn(conn)) = slot.take() else {
            return;
        };
        let Some(drained) = conn
            .out
            .writer
            .try_lock()
            .map(|mut w| w.drain(&conn.out.queue, &self.stats))
        else {
            // A producer holds the writer: it rechecks the queue after
            // unlocking and wakes this shard if anything is left.
            self.slots[token] = Some(Slot::Conn(conn));
            return;
        };
        if drained == Drain::Failed {
            self.close_conn(token, *conn, None);
            return;
        }
        let mut conn = conn;
        let want = drained == Drain::Stalled;
        if want != conn.want_write {
            let interest = if want {
                Interest::ReadWrite
            } else {
                Interest::Read
            };
            if self
                .poller
                .reregister(conn.fd, token as u64, interest)
                .is_ok()
            {
                conn.want_write = want;
            } else if from_notify || want {
                // Cannot arm write interest: the stalled message would
                // never drain, so fail the connection instead of wedging.
                self.close_conn(token, *conn, None);
                return;
            }
        }
        self.slots[token] = Some(Slot::Conn(conn));
    }

    /// Reads a broadcast listener: the HTTP request head during
    /// [`BcastPhase::Request`], discard-and-detect-EOF afterwards
    /// (listeners have nothing further to say).
    fn read_bcast(&mut self, token: usize) {
        let Some(slot) = self.slots.get_mut(token) else {
            return;
        };
        let Some(Slot::Bcast(mut conn)) = slot.take() else {
            return;
        };
        let mut buf = [0u8; 512];
        loop {
            match conn.io.read(&mut buf) {
                Ok(0) => {
                    self.close_bcast(token, *conn);
                    return;
                }
                Ok(n) => match conn.phase {
                    BcastPhase::Request => {
                        conn.req.extend_from_slice(&buf[..n]);
                        if conn.req.len() > BCAST_REQ_MAX {
                            self.close_bcast(token, *conn); // Garbage head.
                            return;
                        }
                        if let Some(head_end) = find_head_end(&conn.req) {
                            if !self.start_stream(&mut conn, head_end) {
                                self.close_bcast(token, *conn);
                                return;
                            }
                            // Immediate pump: the preroll chunks burst in
                            // without waiting for the next publish.
                            self.slots[token] = Some(Slot::Bcast(conn));
                            self.pump_bcast(token, false);
                            return;
                        }
                    }
                    BcastPhase::Streaming => {} // Discard.
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_bcast(token, *conn);
                    return;
                }
            }
        }
        self.slots[token] = Some(Slot::Bcast(conn));
    }

    /// Parses the completed request head and arms the stream: response
    /// header, join cursor at the live edge minus preroll, listener gauge.
    /// Returns false on a head that is not a plausible stream request.
    fn start_stream(&self, conn: &mut BcastConn, head_end: usize) -> bool {
        let Some(sb) = self.broadcast.as_ref() else {
            return false;
        };
        let head = &conn.req[..head_end];
        let line_end = head.iter().position(|&c| c == b'\r').unwrap_or(head.len());
        let mut parts = head[..line_end].split(|&c| c == b' ');
        let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
            return false;
        };
        if method != b"GET" {
            return false;
        }
        // `/;` is the SHOUTcast convention for "give me the ICY stream";
        // a `.icy` suffix is accepted as an explicit spelling.
        conn.icy = path == b"/;" || path.ends_with(b".icy");
        conn.header = Some((
            if conn.icy {
                crate::broadcast::ICY_STREAM_HEADER
            } else {
                crate::broadcast::HTTP_STREAM_HEADER
            },
            0,
        ));
        conn.cursor = sb.bus.join_cursor();
        conn.phase = BcastPhase::Streaming;
        sb.bus.stats().listeners.fetch_add(1, Ordering::Relaxed);
        conn.req = Vec::new(); // Request buffer is dead weight from here.
        true
    }

    /// Writes a broadcast listener forward: response head first, then
    /// batches of `Arc`-shared ring chunks via one vectored write per
    /// round, until the socket would block or the cursor reaches the live
    /// edge.  `strike` is true on the publish-driven dirty pass, where
    /// zero progress with pending bytes counts toward stall eviction.
    fn pump_bcast(&mut self, token: usize, strike: bool) {
        let Some(slot) = self.slots.get_mut(token) else {
            return;
        };
        let Some(Slot::Bcast(mut conn)) = slot.take() else {
            return;
        };
        if matches!(conn.phase, BcastPhase::Request) {
            self.slots[token] = Some(Slot::Bcast(conn));
            return;
        }
        let Some(bus) = self.broadcast.as_ref().map(|sb| Arc::clone(&sb.bus)) else {
            self.close_bcast(token, *conn);
            return;
        };
        let mut progressed = false;
        let mut dead = false;
        loop {
            // Flush the response head before any chunk bytes.
            if let Some((head, off)) = conn.header.as_mut() {
                match conn.io.write(&head[*off..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        *off += n;
                        progressed = true;
                        if *off == head.len() {
                            conn.header = None;
                        } else {
                            continue;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            // Refill the write batch from the shared ring (applies the
            // skip-ahead lag policy and its accounting).
            if conn.batch.is_empty() {
                let info = bus.fetch_batch(conn.cursor, BCAST_BATCH, &mut conn.batch);
                conn.cursor = info.next_cursor;
                if conn.batch.is_empty() {
                    break; // At the live edge.
                }
            }
            // One vectored write over the whole batch.  The slices borrow
            // the `Arc`-shared chunk bytes directly: this is the zero-copy
            // fan-out — no listener-side buffer exists at all.
            let result = {
                let c = &mut *conn;
                let mut slices: [IoSlice; BCAST_BATCH] =
                    std::array::from_fn(|_| IoSlice::new(&[]));
                let mut count = 0;
                for chunk in c.batch.iter().take(BCAST_BATCH) {
                    let s = if c.icy { chunk.payload() } else { chunk.wire() };
                    slices[count] = IoSlice::new(if count == 0 { &s[c.off..] } else { s });
                    count += 1;
                }
                c.io.write_vectored(&slices[..count])
            };
            match result {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    bus.stats()
                        .bytes_fanned_out
                        .fetch_add(n as u64, Ordering::Relaxed);
                    // Retire fully written chunks; remember the offset
                    // into a partially written front.
                    let mut left = n;
                    while left > 0 {
                        let Some(chunk) = conn.batch.front() else {
                            break;
                        };
                        let total = if conn.icy {
                            chunk.payload().len()
                        } else {
                            chunk.wire().len()
                        };
                        let front_left = total - conn.off;
                        if left >= front_left {
                            conn.batch.pop_front();
                            conn.off = 0;
                            left -= front_left;
                        } else {
                            conn.off += left;
                            left = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            self.close_bcast(token, *conn);
            return;
        }
        let pending = conn.header.is_some() || !conn.batch.is_empty();
        if progressed {
            conn.strikes = 0;
        } else if strike && pending {
            conn.strikes += 1;
            if conn.strikes >= bus.config().stall_strikes {
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                bus.stats().evictions.fetch_add(1, Ordering::Relaxed);
                self.close_bcast(token, *conn);
                return;
            }
        }
        if pending != conn.want_write {
            let interest = if pending {
                Interest::ReadWrite
            } else {
                Interest::Read
            };
            if self
                .poller
                .reregister(conn.fd, token as u64, interest)
                .is_ok()
            {
                conn.want_write = pending;
            } else if pending {
                // Cannot arm write interest: the stalled bytes would never
                // drain, so fail the listener instead of wedging.
                self.close_bcast(token, *conn);
                return;
            }
        }
        self.slots[token] = Some(Slot::Bcast(conn));
    }

    fn close_bcast(&mut self, token: usize, conn: BcastConn) {
        let _ = self.poller.deregister(conn.fd);
        self.stats.closed.fetch_add(1, Ordering::Relaxed);
        self.stats.fd_count.fetch_sub(1, Ordering::Relaxed);
        if let Some(sb) = self.broadcast.as_mut() {
            if let Some(i) = sb.tokens.iter().position(|&t| t == token) {
                sb.tokens.swap_remove(i);
            }
            if matches!(conn.phase, BcastPhase::Streaming) {
                sb.bus.stats().listeners.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.deferred_free.push(token);
        // Dropping `conn` closes the fd and releases its chunk refs.
    }

    fn read_conn(&mut self, token: usize) {
        let Some(slot) = self.slots.get_mut(token) else {
            return;
        };
        let Some(Slot::Conn(mut conn)) = slot.take() else {
            return;
        };
        match self.drive_read(token, &mut conn) {
            ReadOutcome::Park => self.slots[token] = Some(Slot::Conn(conn)),
            ReadOutcome::Close => self.close_conn(token, *conn, None),
            ReadOutcome::Protocol(e) => self.close_conn(token, *conn, Some(e)),
        }
    }

    /// Advances the connection's read state machine until the socket
    /// is drained, the frame budget is spent, or the connection dies.
    /// Each read fills the staging buffer (or a large payload directly);
    /// a read that returns less than it asked for drained the socket, so
    /// the connection parks without a second read to see `EWOULDBLOCK`.
    fn drive_read(&mut self, token: usize, conn: &mut ConnState) -> ReadOutcome {
        let mut budget = FRAME_BUDGET;
        let mut fresh = false; // Bytes arrived since the last parse.
        let mut drained = false; // The last read came up short.
        loop {
            // Parse everything staged so far.
            let starved = loop {
                match self.parse_step(conn) {
                    Ok(Step::Frame) => {
                        budget -= 1;
                        if budget == 0 {
                            break false;
                        }
                    }
                    Ok(Step::Advanced) => {}
                    Ok(Step::Starved) => break true,
                    Err(out) => return out,
                }
            };
            if fresh && starved && conn.mid_frame() {
                self.stats.partial_reads.fetch_add(1, Ordering::Relaxed);
            }
            if !starved {
                if !conn.stage.staged().is_empty() && !conn.backlogged {
                    // The staged frames may be all there is: level-
                    // triggered polling will not report the socket again.
                    conn.backlogged = true;
                    self.backlog.push(token);
                }
                return ReadOutcome::Park;
            }
            if drained {
                return ReadOutcome::Park;
            }
            // Read more: straight into a payload too large to stage,
            // otherwise into the staging buffer.
            let (dst, have) = match &mut conn.phase {
                ReadPhase::SetupTail { buf, have } if buf.len() - *have > STAGING_BYTES => {
                    (&mut buf[*have..], Some(have))
                }
                ReadPhase::Payload { buf, have, .. } if buf.len() - *have > STAGING_BYTES => {
                    (&mut buf[*have..], Some(have))
                }
                _ => (conn.stage.space(), None),
            };
            let asked = dst.len();
            match conn.io.read(dst) {
                Ok(0) => return ReadOutcome::Close, // EOF.
                Ok(n) => {
                    match have {
                        Some(have) => *have += n,
                        None => conn.stage.hi += n,
                    }
                    fresh = true;
                    drained = n < asked;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Park,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Close,
            }
        }
    }

    /// Takes one step of the read state machine over the staged bytes.
    fn parse_step(&mut self, conn: &mut ConnState) -> Result<Step, ReadOutcome> {
        match &mut conn.phase {
            ReadPhase::SetupHeader => {
                let Some(header) = conn.stage.staged().get(..ConnSetup::HEADER_SIZE) else {
                    return Ok(Step::Starved);
                };
                let Ok(tail_len) = ConnSetup::tail_len(header) else {
                    return Err(ReadOutcome::Close); // Garbage setup.
                };
                // af-analyze: allow(alloc): connection-setup phase, one hello copy per connection
                let mut setup = header.to_vec();
                conn.stage.consume(ConnSetup::HEADER_SIZE);
                if tail_len == 0 {
                    self.finish_setup(conn, setup)?;
                } else {
                    setup.resize(ConnSetup::HEADER_SIZE + tail_len, 0);
                    conn.phase = ReadPhase::SetupTail {
                        buf: setup,
                        have: ConnSetup::HEADER_SIZE,
                    };
                }
                Ok(Step::Advanced)
            }
            ReadPhase::SetupTail { buf, have } => {
                if !conn.stage.fill(&mut buf[..], have) {
                    return Ok(Step::Starved);
                }
                let setup = std::mem::take(buf);
                self.finish_setup(conn, setup)?;
                Ok(Step::Advanced)
            }
            ReadPhase::Header => {
                let Some(&[a, b, c, d]) = conn.stage.staged().get(..4) else {
                    return Ok(Step::Starved);
                };
                let (opcode, payload_len) =
                    decode_frame_header(conn.order, [a, b, c, d]).map_err(ReadOutcome::Protocol)?;
                conn.stage.consume(4);
                conn.phase = ReadPhase::Payload {
                    opcode,
                    buf: self.transport.pool.take_filled(payload_len),
                    have: 0,
                };
                Ok(Step::Advanced)
            }
            ReadPhase::Payload { buf, have, .. } => {
                if !conn.stage.fill(&mut buf[..], have) {
                    return Ok(Step::Starved);
                }
                let ReadPhase::Payload { opcode, buf, .. } =
                    std::mem::replace(&mut conn.phase, ReadPhase::Header)
                else {
                    return Ok(Step::Advanced);
                };
                self.stats.frames.fetch_add(1, Ordering::Relaxed);
                let raw = RawRequest {
                    opcode,
                    payload: buf,
                };
                // Blocking send: backpressure parity with the classic
                // reader thread (stalls this shard's socket reads).
                if self
                    .transport
                    .events
                    // af-analyze: allow(blocking-in-reactor): designed backpressure; a full dispatcher queue must stall this shard's reads
                    .send(ServerEvent::Request { id: conn.id, raw })
                    .is_err()
                {
                    return Err(ReadOutcome::Close); // Dispatcher gone.
                }
                Ok(Step::Frame)
            }
        }
    }

    fn finish_setup(&self, conn: &mut ConnState, setup: Vec<u8>) -> Result<(), ReadOutcome> {
        let Some(&marker) = setup.first() else {
            return Err(ReadOutcome::Close);
        };
        let Ok(order) = ByteOrder::from_marker(marker) else {
            return Err(ReadOutcome::Close);
        };
        let Some((otx, kick)) = conn.pending_hello.take() else {
            return Err(ReadOutcome::Close);
        };
        conn.order = order;
        if self
            .transport
            .events
            // af-analyze: allow(blocking-in-reactor): admission backpressure; setup completes only when the dispatcher accepts the client
            .send(ServerEvent::NewClient {
                id: conn.id,
                setup,
                peer: conn.peer,
                tx: otx,
                kick,
            })
            .is_err()
        {
            return Err(ReadOutcome::Close);
        }
        conn.phase = ReadPhase::Header;
        Ok(())
    }

    fn close_conn(
        &mut self,
        token: usize,
        conn: ConnState,
        protocol: Option<crate::transport::FrameError>,
    ) {
        let _ = self.poller.deregister(conn.fd);
        // The dispatcher and workers still hold the socket through their
        // `OutboundTx`; shutting it down sends the FIN now rather than
        // when the last of them lets go.
        conn.sock.shutdown();
        if let Some(error) = protocol {
            let _ = self
                .transport
                .events
                // af-analyze: allow(blocking-in-reactor): teardown event; queue is bounded and the dispatcher drains it
                .send(ServerEvent::ProtocolError { id: conn.id, error });
        }
        // Always sent, even pre-setup — matching the classic reader
        // thread; the dispatcher ignores ids it never admitted.
        let _ = self
            .transport
            .events
            // af-analyze: allow(blocking-in-reactor): teardown event; queue is bounded and the dispatcher drains it
            .send(ServerEvent::Disconnect { id: conn.id });
        self.stats.closed.fetch_add(1, Ordering::Relaxed);
        self.stats.fd_count.fetch_sub(1, Ordering::Relaxed);
        self.deferred_free.push(token);
        // Dropping `conn` recycles its pooled buffers.
    }

    fn close_all(&mut self) {
        for slot in self.slots.iter_mut() {
            match slot.take() {
                Some(Slot::Conn(conn)) => {
                    let _ = self.poller.deregister(conn.fd);
                    conn.sock.shutdown();
                    let _ = self
                        .transport
                        .events
                        .send(ServerEvent::Disconnect { id: conn.id });
                }
                Some(Slot::Bcast(conn)) => {
                    let _ = self.poller.deregister(conn.fd);
                }
                _ => {}
            }
        }
    }
}

/// A running reactor: shard threads plus their shared routing table.
pub struct Reactor {
    shared: Arc<ReactorShared>,
    transport: Arc<TransportShared>,
    stats: Vec<Arc<ReactorShardStats>>,
    joins: Vec<std::thread::JoinHandle<()>>,
    has_broadcast: bool,
}

impl Reactor {
    /// Spawns `shards` reactor threads feeding `transport.events`.
    ///
    /// `force_poll` selects the `poll(2)` backend (otherwise epoll with
    /// automatic fallback).  Fails on targets without a syscall backend —
    /// callers should consult [`reactor_supported`] and fall back to the
    /// classic transport.
    pub fn spawn(
        transport: Arc<TransportShared>,
        shards: usize,
        force_poll: bool,
    ) -> io::Result<Reactor> {
        Reactor::spawn_with_broadcast(transport, shards, force_poll, None)
    }

    /// [`Reactor::spawn`] plus an optional [`BroadcastBus`]: every shard
    /// registers an edge-triggered dirty flag with the bus, so sealing a
    /// chunk wakes exactly the shards that own listeners.
    pub fn spawn_with_broadcast(
        transport: Arc<TransportShared>,
        shards: usize,
        force_poll: bool,
        broadcast: Option<Arc<BroadcastBus>>,
    ) -> io::Result<Reactor> {
        let shards = shards.max(1);
        let mut links = Vec::with_capacity(shards);
        let mut parts = Vec::with_capacity(shards);
        for i in 0..shards {
            let poller = Poller::new(force_poll)?;
            let (waker, wake_rx) = Waker::pair()?;
            let (inbox_tx, inbox_rx) = crossbeam_channel::bounded(REACTOR_INBOX_CAPACITY);
            let (pending_tx, pending_rx) = crossbeam_channel::bounded(PENDING_TOKEN_CAPACITY);
            let sweep = Arc::new(AtomicBool::new(false));
            let stats = Arc::new(ReactorShardStats::new(i));
            links.push(ShardLink {
                inbox: inbox_tx,
                waker,
                pending: pending_tx,
                sweep: Arc::clone(&sweep),
                stats: Arc::clone(&stats),
            });
            parts.push((poller, wake_rx, inbox_rx, pending_rx, sweep, stats));
        }
        let shared = Arc::new(ReactorShared {
            links,
            rr: AtomicUsize::new(0),
        });
        let mut joins = Vec::with_capacity(shards);
        let mut stats_list = Vec::with_capacity(shards);
        for (i, (poller, wake_rx, inbox, pending, sweep, stats)) in parts.into_iter().enumerate() {
            stats_list.push(Arc::clone(&stats));
            let shard_broadcast = broadcast.as_ref().map(|bus| {
                let dirty = Arc::new(AtomicBool::new(false));
                let waker = shared.links[i].waker.clone();
                bus.register_shard(Arc::clone(&dirty), Box::new(move || waker.wake()));
                ShardBroadcast {
                    bus: Arc::clone(bus),
                    dirty,
                    tokens: Vec::new(),
                }
            });
            let shard = Shard {
                index: i,
                poller,
                slots: Vec::new(),
                free: Vec::new(),
                deferred_free: Vec::new(),
                wake_rx,
                inbox,
                pending,
                sweep,
                stats,
                transport: Arc::clone(&transport),
                shared: Arc::clone(&shared),
                stop: false,
                wake_scratch: Vec::new(),
                broadcast: shard_broadcast,
                bcast_scratch: Vec::new(),
                backlog: Vec::new(),
                backlog_scratch: Vec::new(),
            };
            joins.push(
                std::thread::Builder::new()
                    .name(format!("af-reactor-{i}"))
                    .spawn(move || shard.run())?,
            );
        }
        Ok(Reactor {
            shared,
            transport,
            stats: stats_list,
            joins,
            has_broadcast: broadcast.is_some(),
        })
    }

    fn send_to_shard(&self, shard: usize, msg: ShardMsg) -> io::Result<()> {
        let Some(link) = self.shared.links.get(shard) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such shard"));
        };
        link.inbox
            .try_send(msg)
            .map_err(|_| io::Error::new(io::ErrorKind::WouldBlock, "reactor inbox full"))?;
        link.waker.wake();
        Ok(())
    }

    /// Binds a nonblocking TCP listener and hands it to shard 0; accepted
    /// connections are distributed round-robin across all shards.
    pub fn add_tcp(&self, addr: SocketAddr) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        self.send_to_shard(0, ShardMsg::TcpL(listener))?;
        Ok(bound)
    }

    /// Binds a nonblocking TCP listener for broadcast (HTTP/ICY) clients
    /// and hands it to shard 0; accepted listeners are spread round-robin
    /// across all shards.  Requires [`Reactor::spawn_with_broadcast`].
    pub fn add_broadcast_tcp(&self, addr: SocketAddr) -> io::Result<SocketAddr> {
        if !self.has_broadcast {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "reactor spawned without a broadcast bus",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        self.send_to_shard(0, ShardMsg::BcastL(listener))?;
        Ok(bound)
    }

    /// Binds a nonblocking Unix-domain listener (removing a stale socket
    /// file) and hands it to shard 0.
    pub fn add_unix(&self, path: &Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        self.send_to_shard(0, ShardMsg::UnixL(listener))
    }

    /// Per-shard counter handles (for registration into `ServerStats`).
    pub fn shard_stats(&self) -> &[Arc<ReactorShardStats>] {
        &self.stats
    }

    /// Stops every shard and joins their threads.  Idempotent.
    pub fn shutdown(&mut self) {
        if self.joins.is_empty() {
            return;
        }
        // Belt and braces: the stop flag alone terminates shards even if
        // an inbox is saturated and the Shutdown message is shed.
        self.transport.stop.store(true, Ordering::Relaxed);
        for link in &self.shared.links {
            let _ = link.inbox.try_send(ShardMsg::Shutdown);
            link.waker.wake();
        }
        for join in self.joins.drain(..) {
            // af-analyze: allow(blocking-in-reactor): server teardown only; the approximate call graph reaches here through a TcpStream::shutdown name collision
            let _ = join.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_time::ATime;
    use std::time::Duration;

    fn start(force_poll: bool) -> (Reactor, Receiver<ServerEvent>, SocketAddr) {
        let (tx, rx) = crossbeam_channel::unbounded();
        let shared = TransportShared::new(tx);
        let reactor = Reactor::spawn(shared, 2, force_poll).unwrap();
        let addr = reactor.add_tcp("127.0.0.1:0".parse().unwrap()).unwrap();
        (reactor, rx, addr)
    }

    fn recv(rx: &Receiver<ServerEvent>) -> ServerEvent {
        rx.recv_timeout(Duration::from_secs(5)).unwrap()
    }

    #[test]
    fn framing_round_trip_and_reply_over_both_backends() {
        for force_poll in [false, true] {
            let (mut reactor, rx, addr) = start(force_poll);
            let mut sock = TcpStream::connect(addr).unwrap();
            let setup = ConnSetup::new();
            sock.write_all(&setup.encode()).unwrap();
            let req = af_proto::Request::PlaySamples {
                ac: 3,
                start_time: ATime::new(99),
                flags: 0,
                data: vec![1, 2, 3, 4, 5, 6, 7],
            };
            sock.write_all(&req.encode(ByteOrder::native())).unwrap();

            let otx = match recv(&rx) {
                ServerEvent::NewClient { setup: s, peer, tx, .. } => {
                    assert_eq!(ConnSetup::decode(&s).unwrap(), setup);
                    assert!(peer.unwrap().is_loopback());
                    tx
                }
                _ => panic!("expected NewClient"),
            };
            match recv(&rx) {
                ServerEvent::Request { raw, .. } => {
                    assert_eq!(raw.opcode, af_proto::Opcode::PlaySamples.to_wire());
                    let decoded = af_proto::Request::decode(
                        ByteOrder::native(),
                        af_proto::Opcode::PlaySamples,
                        &raw.payload,
                    )
                    .unwrap();
                    assert_eq!(decoded, req);
                }
                _ => panic!("expected Request"),
            }

            // Reply path: queue bytes the way the dispatcher does and
            // check they arrive — this exercises the wakeup protocol and
            // the write-readiness drain end to end.
            let payload = vec![0xA5u8; 600];
            assert!(otx.try_send(payload.clone().into()).is_ok());
            let mut got = vec![0u8; payload.len()];
            sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            sock.read_exact(&mut got).unwrap();
            assert_eq!(got, payload);

            drop(sock);
            match recv(&rx) {
                ServerEvent::Disconnect { .. } => {}
                _ => panic!("expected Disconnect"),
            }
            reactor.shutdown();
        }
    }

    #[test]
    fn zero_length_frame_reports_protocol_error_then_disconnects() {
        let (mut reactor, rx, addr) = start(false);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        match recv(&rx) {
            ServerEvent::NewClient { .. } => {}
            _ => panic!("expected NewClient"),
        }
        sock.write_all(&[0, 0, 33, 0]).unwrap();
        match recv(&rx) {
            ServerEvent::ProtocolError { error, .. } => {
                assert_eq!(error, crate::transport::FrameError::ZeroLength);
            }
            _ => panic!("expected ProtocolError"),
        }
        match recv(&rx) {
            ServerEvent::Disconnect { .. } => {}
            _ => panic!("expected Disconnect"),
        }
        reactor.shutdown();
    }

    #[test]
    fn pipelined_frames_outlasting_the_frame_budget_are_all_answered() {
        // 200 frames in one write fit the staging buffer whole, so one
        // read empties the socket and the frame budget runs out with
        // frames still staged.  Level-triggered polling never reports the
        // empty socket again; only the shard's backlog pass answers them.
        let (mut reactor, rx, addr) = start(false);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        let otx = match recv(&rx) {
            ServerEvent::NewClient { tx, .. } => tx,
            _ => panic!("expected NewClient"),
        };
        let frame = af_proto::Request::GetTime { device: 0 }.encode(ByteOrder::native());
        let burst: Vec<u8> = frame
            .iter()
            .copied()
            .cycle()
            .take(frame.len() * 200)
            .collect();
        sock.write_all(&burst).unwrap();
        for i in 0..200u32 {
            match recv(&rx) {
                ServerEvent::Request { raw, .. } => {
                    assert_eq!(raw.opcode, af_proto::Opcode::GetTime.to_wire());
                    assert!(otx.try_send(i.to_le_bytes().to_vec().into()).is_ok());
                }
                _ => panic!("expected Request {i}"),
            }
        }
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut got = vec![0u8; 4 * 200];
        sock.read_exact(&mut got).unwrap();
        for (i, reply) in got.chunks(4).enumerate() {
            assert_eq!(reply, (i as u32).to_le_bytes(), "reply {i} out of order");
        }
        reactor.shutdown();
    }

    #[test]
    fn shard_close_sends_fin_while_the_dispatcher_holds_the_writer() {
        // The dispatcher's `OutboundTx` and kick keep the socket referenced
        // after the shard drops the connection; the client must still see
        // EOF at once, on the plain and the fault-injecting (forked) path.
        for chaos in [None, Some(af_chaos::StreamFaultPlan::new(11))] {
            let (tx, rx) = crossbeam_channel::unbounded();
            let shared = TransportShared::with_chaos(tx, chaos);
            let mut reactor = Reactor::spawn(shared, 2, false).unwrap();
            let addr = reactor.add_tcp("127.0.0.1:0".parse().unwrap()).unwrap();
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.write_all(&ConnSetup::new().encode()).unwrap();
            let held = match recv(&rx) {
                ServerEvent::NewClient { tx, kick, .. } => (tx, kick),
                _ => panic!("expected NewClient"),
            };
            sock.write_all(&[0, 0, 33, 0]).unwrap(); // Zero-length frame.
            sock.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
            let mut buf = [0u8; 16];
            match sock.read(&mut buf) {
                Ok(0) => {}
                other => panic!("expected EOF within 1 s, got {other:?}"),
            }
            // Replies to the dead connection are dropped, not stranded.
            assert!(held.0.try_send(vec![1u8; 8].into()).is_ok());
            reactor.shutdown();
            drop(held);
        }
    }

    #[test]
    fn partial_frames_one_byte_per_readiness_event() {
        // The torture case: every byte of the setup message and of several
        // request frames arrives in its own segment, so the state machine
        // must resume mid-header and mid-payload dozens of times.
        let (mut reactor, rx, addr) = start(false);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();

        let mut wire = ConnSetup::new().encode();
        for _ in 0..3 {
            wire.extend_from_slice(&[3, 0, 33, 0]); // 3 words: 8-byte payload.
            wire.extend_from_slice(&[9, 8, 7, 6, 5, 4, 3, 2]);
        }
        for byte in wire {
            sock.write_all(&[byte]).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }

        match recv(&rx) {
            ServerEvent::NewClient { .. } => {}
            _ => panic!("expected NewClient"),
        }
        for _ in 0..3 {
            match recv(&rx) {
                ServerEvent::Request { raw, .. } => {
                    assert_eq!(raw.opcode, 33);
                    assert_eq!(&*raw.payload, &[9, 8, 7, 6, 5, 4, 3, 2]);
                }
                _ => panic!("expected Request"),
            }
        }
        let partials: u64 = reactor
            .shard_stats()
            .iter()
            .map(|s| s.snapshot().partial_reads)
            .sum();
        assert!(
            partials >= 10,
            "one-byte delivery must exercise partial reads: {partials}"
        );
        drop(sock);
        match recv(&rx) {
            ServerEvent::Disconnect { .. } => {}
            _ => panic!("expected Disconnect"),
        }
        reactor.shutdown();
    }

    #[test]
    fn unix_socket_connects_and_disconnects() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let shared = TransportShared::new(tx);
        let mut reactor = Reactor::spawn(shared, 1, false).unwrap();
        let dir = std::env::temp_dir().join(format!("af-reactor-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("reactor.sock");
        reactor.add_unix(&path).unwrap();

        let mut sock = UnixStream::connect(&path).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        match recv(&rx) {
            ServerEvent::NewClient { peer, .. } => assert!(peer.is_none()),
            _ => panic!("expected NewClient"),
        }
        drop(sock);
        match recv(&rx) {
            ServerEvent::Disconnect { .. } => {}
            _ => panic!("expected Disconnect"),
        }
        reactor.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slow_reader_overflow_then_kick_closes_socket() {
        // Fill the bounded outbound queue far past the socket buffer, then
        // use the kick (as the dispatcher's eviction does) and check the
        // shard tears the connection down.
        let (mut reactor, rx, addr) = start(false);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        let (otx, kick) = match recv(&rx) {
            ServerEvent::NewClient { tx, kick, .. } => (tx, kick),
            _ => panic!("expected NewClient"),
        };
        let mut overflowed = false;
        for _ in 0..(OUTBOUND_QUEUE_CAPACITY * 4) {
            if otx.try_send(vec![0u8; 64 * 1024].into()).is_err() {
                overflowed = true;
                break;
            }
        }
        assert!(overflowed, "bounded queue must reject a flood");
        kick();
        match recv(&rx) {
            ServerEvent::Disconnect { .. } => {}
            _ => panic!("expected Disconnect after kick"),
        }
        let evictions: u64 = reactor
            .shard_stats()
            .iter()
            .map(|s| s.snapshot().evictions)
            .sum();
        assert_eq!(evictions, 1);
        reactor.shutdown();
    }

    use crate::broadcast::{BroadcastConfig, BroadcastStats};

    fn start_broadcast(
        cfg: BroadcastConfig,
        frame_bytes: usize,
    ) -> (Reactor, Arc<BroadcastBus>, SocketAddr) {
        let (tx, rx) = crossbeam_channel::unbounded();
        std::mem::forget(rx); // No dispatcher: keep the channel open.
        let shared = TransportShared::new(tx);
        let bus = BroadcastBus::new(cfg, frame_bytes, BroadcastStats::new("test"));
        let reactor =
            Reactor::spawn_with_broadcast(shared, 2, false, Some(Arc::clone(&bus))).unwrap();
        let addr = reactor
            .add_broadcast_tcp("127.0.0.1:0".parse().unwrap())
            .unwrap();
        (reactor, bus, addr)
    }

    fn small_cfg() -> BroadcastConfig {
        BroadcastConfig {
            chunk_frames: 4,
            ring_chunks: 8,
            preroll_chunks: 2,
            stall_strikes: 4,
        }
    }

    /// Spin until the bus's listener gauge reaches `n` (request parsed).
    fn wait_listeners(bus: &BroadcastBus, n: u64) {
        for _ in 0..500 {
            if bus.stats().listeners.load(Ordering::Relaxed) == n {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("listener gauge never reached {n}");
    }

    #[test]
    fn http_listener_streams_chunked_frames() {
        let (mut reactor, bus, addr) = start_broadcast(small_cfg(), 1);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"GET /stream HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        wait_listeners(&bus, 1);
        for i in 0..3u8 {
            bus.publish(&[i; 4]);
        }
        let mut head = vec![0u8; crate::broadcast::HTTP_STREAM_HEADER.len()];
        sock.read_exact(&mut head).unwrap();
        assert_eq!(head, crate::broadcast::HTTP_STREAM_HEADER);
        for i in 0..3u8 {
            let mut frame = [0u8; 9]; // "4\r\n" + 4 payload + "\r\n".
            sock.read_exact(&mut frame).unwrap();
            assert_eq!(&frame[..3], b"4\r\n");
            assert_eq!(&frame[3..7], &[i; 4]);
            assert_eq!(&frame[7..], b"\r\n");
        }
        // The client can observe the bytes a beat before the shard's
        // counter update lands: spin briefly.
        for _ in 0..500 {
            if bus.stats().bytes_fanned_out.load(Ordering::Relaxed) >= 27 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(bus.stats().bytes_fanned_out.load(Ordering::Relaxed) >= 27);
        drop(sock);
        for _ in 0..500 {
            if bus.stats().listeners.load(Ordering::Relaxed) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(bus.stats().listeners.load(Ordering::Relaxed), 0);
        assert_eq!(bus.stats().listeners_total.load(Ordering::Relaxed), 1);
        reactor.shutdown();
    }

    #[test]
    fn icy_listener_gets_raw_payload_of_the_same_chunks() {
        let (mut reactor, bus, addr) = start_broadcast(small_cfg(), 1);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"GET /; HTTP/1.0\r\nIcy-MetaData: 0\r\n\r\n")
            .unwrap();
        wait_listeners(&bus, 1);
        for i in 0..3u8 {
            bus.publish(&[i; 4]);
        }
        let mut head = vec![0u8; crate::broadcast::ICY_STREAM_HEADER.len()];
        sock.read_exact(&mut head).unwrap();
        assert_eq!(head, crate::broadcast::ICY_STREAM_HEADER);
        let mut body = [0u8; 12]; // 3 chunks × 4 raw payload bytes.
        sock.read_exact(&mut body).unwrap();
        assert_eq!(&body[..4], &[0; 4]);
        assert_eq!(&body[4..8], &[1; 4]);
        assert_eq!(&body[8..], &[2; 4]);
        reactor.shutdown();
    }

    #[test]
    fn late_joiner_bursts_in_from_the_preroll_cursor() {
        let (mut reactor, bus, addr) = start_broadcast(small_cfg(), 1);
        for i in 0..6u8 {
            bus.publish(&[i; 4]);
        }
        // Live edge 6, preroll 2: a joiner must start at seq 4 and get
        // chunks 4 and 5 immediately, with no further publish needed.
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut head = vec![0u8; crate::broadcast::HTTP_STREAM_HEADER.len()];
        sock.read_exact(&mut head).unwrap();
        for i in [4u8, 5] {
            let mut frame = [0u8; 9];
            sock.read_exact(&mut frame).unwrap();
            assert_eq!(&frame[3..7], &[i; 4]);
        }
        reactor.shutdown();
    }

    #[test]
    fn malformed_request_head_closes_the_listener() {
        let (mut reactor, bus, addr) = start_broadcast(small_cfg(), 1);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"PUT /nope HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 16];
        // The shard closes without a response: EOF (or reset).
        match sock.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("expected EOF, got {n} bytes"),
        }
        assert_eq!(bus.stats().listeners.load(Ordering::Relaxed), 0);
        reactor.shutdown();
    }

    #[test]
    fn stalled_listener_is_evicted_after_strike_budget() {
        // Big chunks fill the kernel socket buffers quickly; a listener
        // that never reads then makes zero progress and must be evicted
        // after `stall_strikes` consecutive publishes.
        let cfg = BroadcastConfig {
            chunk_frames: 32 * 1024,
            ring_chunks: 4,
            preroll_chunks: 1,
            stall_strikes: 4,
        };
        let (mut reactor, bus, addr) = start_broadcast(cfg, 1);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        wait_listeners(&bus, 1);
        let chunk = vec![0x42u8; 32 * 1024];
        let mut evicted = false;
        for _ in 0..200 {
            bus.publish(&chunk);
            if bus.stats().evictions.load(Ordering::Relaxed) > 0 {
                evicted = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(evicted, "stalled listener never evicted");
        wait_listeners(&bus, 0);
        let shard_evictions: u64 = reactor
            .shard_stats()
            .iter()
            .map(|s| s.snapshot().evictions)
            .sum();
        assert_eq!(shard_evictions, 1);
        reactor.shutdown();
    }

    #[test]
    fn lagging_listener_skips_ahead_and_keeps_byte_alignment() {
        // A listener that stops reading long enough for the ring to wrap,
        // then resumes, must land on a chunk boundary at the live edge
        // (minus preroll) — never mid-chunk garbage.
        const CHUNK: usize = 64 * 1024;
        let cfg = BroadcastConfig {
            chunk_frames: CHUNK as u32,
            ring_chunks: 4,
            preroll_chunks: 1,
            stall_strikes: 1_000_000, // Never evict in this test.
        };
        let wire_len = CHUNK + b"10000\r\n".len() + 2;
        let (mut reactor, bus, addr) = start_broadcast(cfg, 1);
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        sock.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        wait_listeners(&bus, 1);
        // Each chunk's payload is filled with its own sequence number.
        // Publish without the client reading until the unwritten backlog
        // provably exceeds the ring plus the in-flight batch: the cursor
        // has fallen off the ring tail.
        let mut final_seq = 0u8;
        for seq in 0..240u8 {
            final_seq = seq;
            bus.publish(&vec![seq; CHUNK]);
            std::thread::sleep(Duration::from_millis(2));
            let sealed = bus.stats().chunks_sealed.load(Ordering::Relaxed);
            let fanned = bus.stats().bytes_fanned_out.load(Ordering::Relaxed);
            let backlog = sealed * wire_len as u64 - fanned;
            if backlog > ((4 + BCAST_BATCH + 1) * wire_len) as u64 {
                break;
            }
        }
        // Resume reading: the stream must be buffered frames, then a
        // clean skip to the live edge — every frame still parses exactly.
        let mut head = vec![0u8; crate::broadcast::HTTP_STREAM_HEADER.len()];
        sock.read_exact(&mut head).unwrap();
        assert_eq!(head, crate::broadcast::HTTP_STREAM_HEADER);
        let mut frame = vec![0u8; wire_len];
        let mut last_tag: Option<u8> = None;
        let mut frames_read = 0u32;
        while sock.read_exact(&mut frame).is_ok() {
            frames_read += 1;
            assert_eq!(&frame[..7], b"10000\r\n", "chunk framing misaligned");
            let tag = frame[7];
            assert!(
                frame[7..7 + CHUNK].iter().all(|&b| b == tag),
                "payload mixes chunks"
            );
            assert_eq!(&frame[wire_len - 2..], b"\r\n");
            if let Some(prev) = last_tag {
                assert!(tag > prev, "sequence went backwards: {prev} -> {tag}");
            }
            last_tag = Some(tag);
        }
        assert!(frames_read >= 4, "read only {frames_read} frames");
        assert_eq!(
            last_tag,
            Some(final_seq),
            "drain must end at the live edge"
        );
        assert!(
            bus.stats().skip_aheads.load(Ordering::Relaxed) > 0,
            "ring never overtook the stalled cursor"
        );
        reactor.shutdown();
    }
}
