//! The OS layer: sockets in, framed requests out.
//!
//! The paper's server multiplexed client sockets with `select()`.  Two
//! transports reproduce that contract: the **reactor** (default; see
//! [`crate::reactor`]) registers nonblocking sockets with a small set of
//! readiness-driven shards, and the **classic** transport here gives each
//! accepted connection a reader thread (which performs the framing:
//! 4-byte header, length-derived payload) and a writer thread (which
//! drains a **bounded** outbound queue).  Either way the transport feeds
//! the dispatcher's single event channel, preserving single-threaded
//! semantics over all server state; [`OutboundTx`] abstracts the reply
//! route so the dispatcher and audio workers are transport-agnostic.
//!
//! Failure model: a malformed or oversized frame header is a protocol
//! error that disconnects only the offending client; a client that stops
//! reading fills its bounded queue and is evicted instead of growing
//! server memory; a [`StreamFaultPlan`] on the transport injects faults
//! into every accepted connection for chaos testing.
//!
//! TCP and Unix-domain sockets are supported, matching §5.1.

use crate::pool::{BufferPool, PooledBuf};
use crate::state::{ClientId, ConnKick, Overflow, RawRequest, ServerEvent};
use af_chaos::{ChaosStream, StreamFaultPlan};
use af_proto::{message, ByteOrder, ConnSetup, ErrorCode, Reply, WireError, MAX_REQUEST_BYTES};
use crossbeam_channel::Sender;
use std::io::{Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Bound on each connection's outbound (server → client) queue, in
/// messages.  A slow client hits this bound and is evicted; the seed's
/// unbounded queue grew without limit instead.
pub const OUTBOUND_QUEUE_CAPACITY: usize = 256;

/// The outbound route to one connection: its bounded queue plus, for
/// reactor-owned connections, the shared write half the producer writes
/// through.
///
/// The classic transport's writer thread blocks on the queue, so
/// [`OutboundTx::classic`] carries no write half.  For a reactor
/// connection the producer (dispatcher or audio worker) queues first and
/// then writes the queue into the socket itself, waking the owning shard
/// only when the socket refuses bytes or another thread holds the writer.
#[derive(Clone)]
pub struct OutboundTx {
    tx: Sender<PooledBuf>,
    reactor: Option<Arc<crate::reactor::ConnOutbound>>,
}

impl OutboundTx {
    /// A route to a classic writer thread (blocking queue consumer).
    pub fn classic(tx: Sender<PooledBuf>) -> OutboundTx {
        OutboundTx { tx, reactor: None }
    }

    /// A route to a reactor connection, written through after pushes.
    pub(crate) fn reactor(
        tx: Sender<PooledBuf>,
        out: Arc<crate::reactor::ConnOutbound>,
    ) -> OutboundTx {
        OutboundTx {
            tx,
            reactor: Some(out),
        }
    }

    /// Queues a message without blocking, then writes it through; the
    /// caller maps `Full` onto the slow-client overflow policy.  The queue
    /// holds only what the socket has refused, so `Full` means the client
    /// stopped reading.
    pub fn try_send(
        &self,
        buf: PooledBuf,
    ) -> Result<(), crossbeam_channel::TrySendError<PooledBuf>> {
        self.tx.try_send(buf)?;
        if let Some(out) = &self.reactor {
            out.write_through();
        }
        Ok(())
    }

    /// Queues a message, blocking if the queue is full.  Only for paths
    /// where the queue is provably near-empty (connection setup replies);
    /// steady-state producers must use [`Self::try_send`] so a slow
    /// client back-pressures into eviction rather than into the caller.
    pub fn send_blocking(&self, buf: PooledBuf) {
        if self.tx.send(buf).is_ok() {
            if let Some(out) = &self.reactor {
                out.write_through();
            }
        }
    }
}

/// A detached route to one client's outbound queue, handed to audio
/// workers so data-plane replies bypass the dispatcher entirely.
///
/// Mirrors the dispatcher's outbound path exactly: replies encode into a
/// pooled buffer, the bounded queue is tried without blocking, and a full
/// queue flags the shared overflow bit so the dispatcher evicts the
/// client on its next pass — the same slow-client policy either way.
#[derive(Clone)]
pub struct ReplySink {
    tx: OutboundTx,
    order: ByteOrder,
    overflowed: Arc<Overflow>,
    pool: Arc<BufferPool>,
}

impl ReplySink {
    /// Builds a sink over a client's outbound route and overflow flag.
    pub fn new(
        tx: OutboundTx,
        order: ByteOrder,
        overflowed: Arc<Overflow>,
        pool: Arc<BufferPool>,
    ) -> ReplySink {
        ReplySink {
            tx,
            order,
            overflowed,
            pool,
        }
    }

    /// Encodes and queues a reply.
    pub fn send_reply(&self, seq: u16, reply: &Reply) {
        let mut buf = self.pool.take_empty();
        reply.encode_into(self.order, seq, buf.vec_mut());
        self.push(buf);
    }

    /// Encodes and queues a protocol error.
    pub fn send_error(&self, seq: u16, code: ErrorCode, bad_value: u32, opcode: u8) {
        self.push(
            message::encode_error(
                self.order,
                &WireError {
                    code,
                    sequence: seq,
                    bad_value,
                    opcode,
                },
            )
            .into(),
        );
    }

    fn push(&self, buf: PooledBuf) {
        match self.tx.try_send(buf) {
            Ok(()) => {}
            Err(crossbeam_channel::TrySendError::Full(_)) => self.overflowed.raise(),
            Err(crossbeam_channel::TrySendError::Disconnected(_)) => {}
        }
    }
}

/// Where a server listens.
#[derive(Clone, Debug)]
pub enum ListenAddr {
    /// A TCP socket address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

/// Why the framing layer rejected an inbound frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length field was zero — below the minimum one-word frame.
    ZeroLength,
    /// The frame claimed more payload than [`MAX_REQUEST_BYTES`].
    Oversized {
        /// The claimed payload size in bytes.
        bytes: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::ZeroLength => write!(f, "zero-length frame header"),
            FrameError::Oversized { bytes } => {
                write!(f, "oversized frame: {bytes} bytes > {MAX_REQUEST_BYTES}")
            }
        }
    }
}

/// Decodes a 4-byte request frame header into `(opcode, payload_len)`.
///
/// The header is `[len_lo, len_hi, opcode, pad]` with the length counted
/// in 4-byte words including the header itself.  Garbage prefixes decode
/// to out-of-range lengths and are rejected rather than trusted — an
/// attacker-controlled or corrupted length must never size an allocation.
pub fn decode_frame_header(order: ByteOrder, header: [u8; 4]) -> Result<(u8, usize), FrameError> {
    let words = match order {
        ByteOrder::Little => u16::from_le_bytes([header[0], header[1]]),
        ByteOrder::Big => u16::from_be_bytes([header[0], header[1]]),
    } as usize;
    if words == 0 {
        return Err(FrameError::ZeroLength);
    }
    let payload_len = words * 4 - 4;
    if payload_len > MAX_REQUEST_BYTES {
        return Err(FrameError::Oversized { bytes: payload_len });
    }
    Ok((header[2], payload_len))
}

/// Shared transport bookkeeping.
pub struct TransportShared {
    /// Dispatcher event channel.
    pub events: Sender<ServerEvent>,
    /// Client id allocator.
    pub next_id: AtomicU64,
    /// Set to stop accept loops.
    pub stop: AtomicBool,
    /// Faults injected into every accepted connection (chaos testing).
    pub chaos: Option<StreamFaultPlan>,
    /// Frame/reply buffer pool shared by reader threads and the dispatcher.
    pub pool: Arc<BufferPool>,
}

impl TransportShared {
    /// Creates shared state feeding `events`.
    pub fn new(events: Sender<ServerEvent>) -> Arc<TransportShared> {
        Self::with_chaos(events, None)
    }

    /// Creates shared state with an optional per-connection fault plan.
    pub fn with_chaos(
        events: Sender<ServerEvent>,
        chaos: Option<StreamFaultPlan>,
    ) -> Arc<TransportShared> {
        Self::with_pool(events, chaos, BufferPool::shared())
    }

    /// Creates shared state over an explicitly sized buffer pool — the
    /// hook for reactor-mode servers, whose partial-frame accumulation
    /// wants a deeper free list than the classic default.
    pub fn with_pool(
        events: Sender<ServerEvent>,
        chaos: Option<StreamFaultPlan>,
        pool: Arc<BufferPool>,
    ) -> Arc<TransportShared> {
        Arc::new(TransportShared {
            events,
            next_id: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            chaos,
            pool,
        })
    }
}

/// Starts reader/writer threads for `stream`, wrapping it in the shared
/// fault plan (reseeded per connection) when one is configured.
fn spawn_wrapped<S: Conn>(shared: Arc<TransportShared>, stream: S, peer: Option<IpAddr>) {
    match &shared.chaos {
        Some(plan) => {
            // Each connection gets its own fault schedule, derived
            // deterministically from the plan seed and the connection id.
            let salt = shared.next_id.load(Ordering::Relaxed);
            let mut plan = plan.clone();
            plan.seed = af_chaos::ChaosRng::new(plan.seed).fork(salt).next_u64();
            let wrapped = ChaosStream::new(stream, plan);
            spawn_connection(Arc::clone(&shared), wrapped, peer);
        }
        None => spawn_connection(shared, stream, peer),
    }
}

/// Starts a TCP listener; returns the bound address.
pub fn spawn_tcp(shared: Arc<TransportShared>, addr: SocketAddr) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("af-accept-tcp".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::Relaxed) {
                    break;
                }
                match stream {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        let peer = s.peer_addr().ok().map(|a| a.ip());
                        spawn_wrapped(Arc::clone(&shared), s, peer);
                    }
                    Err(_) => break,
                }
            }
        })?;
    Ok(bound)
}

/// Starts a Unix-domain listener at `path` (removing any stale socket).
pub fn spawn_unix(shared: Arc<TransportShared>, path: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    std::thread::Builder::new()
        .name("af-accept-unix".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::Relaxed) {
                    break;
                }
                match stream {
                    Ok(s) => spawn_wrapped(Arc::clone(&shared), s, None),
                    Err(_) => break,
                }
            }
        })?;
    Ok(())
}

/// A bidirectional byte stream usable as an AudioFile connection.
///
/// `Sync` is required so a shared handle can live inside the dispatcher's
/// [`ConnKick`] closure.
pub trait Conn: Read + Write + Send + Sync + Sized + 'static {
    /// Clones the stream for the writer thread.
    fn split(&self) -> std::io::Result<Self>;

    /// Forcibly shuts down both directions, unblocking any reader.
    ///
    /// The dispatcher holds this (via a [`ConnKick`] closure) so it can
    /// evict a client whose socket would otherwise keep a reader thread
    /// parked in `read_exact` forever.
    fn shutdown(&self);
}

impl Conn for TcpStream {
    fn split(&self) -> std::io::Result<TcpStream> {
        self.try_clone()
    }

    fn shutdown(&self) {
        let _ = TcpStream::shutdown(self, Shutdown::Both);
    }
}

impl Conn for UnixStream {
    fn split(&self) -> std::io::Result<UnixStream> {
        self.try_clone()
    }

    fn shutdown(&self) {
        let _ = UnixStream::shutdown(self, Shutdown::Both);
    }
}

impl<S: Conn> Conn for ChaosStream<S> {
    fn split(&self) -> std::io::Result<Self> {
        Ok(self.fork(self.get_ref().split()?))
    }

    fn shutdown(&self) {
        self.get_ref().shutdown();
    }
}

/// Sets up reader and writer threads for one accepted connection.
pub fn spawn_connection<S: Conn>(shared: Arc<TransportShared>, stream: S, peer: Option<IpAddr>) {
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = crossbeam_channel::bounded::<PooledBuf>(OUTBOUND_QUEUE_CAPACITY);
    let mut write_half = match stream.split() {
        Ok(s) => s,
        Err(_) => return,
    };
    let kick_half = match stream.split() {
        Ok(s) => s,
        Err(_) => return,
    };
    let kick: ConnKick = Arc::new(move || kick_half.shutdown());

    // Writer: drain outbound queue until the channel closes.
    let _ = std::thread::Builder::new()
        .name(format!("af-writer-{id}"))
        .spawn(move || {
            // Each message arrives as one contiguous pooled buffer (header +
            // payload), so it costs a single write; dropping the buffer
            // afterwards recycles it through the pool.
            while let Ok(bytes) = rx.recv() {
                if write_half.write_all(&bytes).is_err() {
                    break;
                }
            }
            let _ = write_half.flush();
        });

    // Reader: setup message, then framed requests until EOF.
    let _ = std::thread::Builder::new()
        .name(format!("af-reader-{id}"))
        .spawn(move || {
            let mut stream = stream;
            let tx = OutboundTx::classic(tx);
            if let Some(order) = read_setup(&mut stream, &shared, id, peer, tx, kick) {
                read_requests(&mut stream, &shared, id, order);
            }
            let _ = shared.events.send(ServerEvent::Disconnect { id });
        });
}

fn read_setup<S: Read>(
    stream: &mut S,
    shared: &TransportShared,
    id: ClientId,
    peer: Option<IpAddr>,
    tx: OutboundTx,
    kick: ConnKick,
) -> Option<ByteOrder> {
    let mut header = [0u8; ConnSetup::HEADER_SIZE];
    stream.read_exact(&mut header).ok()?;
    let tail_len = ConnSetup::tail_len(&header).ok()?;
    let mut setup = header.to_vec();
    setup.resize(ConnSetup::HEADER_SIZE + tail_len, 0);
    stream
        .read_exact(&mut setup[ConnSetup::HEADER_SIZE..])
        .ok()?;
    let order = ByteOrder::from_marker(setup[0]).ok()?;
    shared
        .events
        .send(ServerEvent::NewClient {
            id,
            setup,
            peer,
            tx,
            kick,
        })
        .ok()?;
    Some(order)
}

fn read_requests<S: Read>(
    stream: &mut S,
    shared: &TransportShared,
    id: ClientId,
    order: ByteOrder,
) {
    loop {
        let mut header = [0u8; 4];
        if stream.read_exact(&mut header).is_err() {
            return;
        }
        let (opcode, payload_len) = match decode_frame_header(order, header) {
            Ok(decoded) => decoded,
            Err(error) => {
                // Protocol violation: report it so the dispatcher can
                // account for it, then drop only this connection.
                let _ = shared.events.send(ServerEvent::ProtocolError { id, error });
                return;
            }
        };
        // Pooled: steady-state traffic recycles the same frame buffers
        // instead of allocating one per request.
        let mut payload = shared.pool.take_filled(payload_len);
        if stream.read_exact(&mut payload).is_err() {
            return;
        }
        let raw = RawRequest { opcode, payload };
        if shared
            .events
            .send(ServerEvent::Request { id, raw })
            .is_err()
        {
            return;
        }
    }
}

/// Unblocks a pending `accept` on `addr` so its loop observes `stop`.
pub fn poke_tcp(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// Unblocks a pending Unix-domain `accept`.
pub fn poke_unix(path: &Path) {
    let _ = UnixStream::connect(path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_time::ATime;

    #[test]
    fn framing_round_trip_over_tcp() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let shared = TransportShared::new(tx);
        let addr = spawn_tcp(Arc::clone(&shared), "127.0.0.1:0".parse().unwrap()).unwrap();

        // Handshake + one request from a raw socket.
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

        // The dispatcher side sees NewClient then the framed request.
        match rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap() {
            ServerEvent::NewClient { setup: s, peer, .. } => {
                assert_eq!(ConnSetup::decode(&s).unwrap(), setup);
                assert!(peer.unwrap().is_loopback());
            }
            _ => panic!("expected NewClient"),
        }
        match rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap() {
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

        // Dropping the socket produces a Disconnect.
        drop(sock);
        match rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap() {
            ServerEvent::Disconnect { .. } => {}
            _ => panic!("expected Disconnect"),
        }
        shared.stop.store(true, Ordering::Relaxed);
        poke_tcp(addr);
    }

    #[test]
    fn zero_length_frame_drops_connection() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let shared = TransportShared::new(tx);
        let addr = spawn_tcp(Arc::clone(&shared), "127.0.0.1:0".parse().unwrap()).unwrap();

        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        let _ = rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap();
        // A zero length header is invalid: the transport reports the
        // protocol error, then drops the connection.
        sock.write_all(&[0, 0, 33, 0]).unwrap();
        match rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap() {
            ServerEvent::ProtocolError { error, .. } => {
                assert_eq!(error, FrameError::ZeroLength);
            }
            _ => panic!("expected ProtocolError for bad framing"),
        }
        match rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap() {
            ServerEvent::Disconnect { .. } => {}
            _ => panic!("expected Disconnect for bad framing"),
        }
        shared.stop.store(true, Ordering::Relaxed);
        poke_tcp(addr);
    }

    #[test]
    fn truncated_max_length_frame_disconnects_without_desync() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let shared = TransportShared::new(tx);
        let addr = spawn_tcp(Arc::clone(&shared), "127.0.0.1:0".parse().unwrap()).unwrap();

        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        let _ = rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap();
        // Claim the maximum expressible frame length (0xffff words, which
        // reads the same in either byte order), then hang up without
        // sending the payload.  The reader must not emit a partial request.
        sock.write_all(&[0xff, 0xff, 33, 0]).unwrap();
        drop(sock);
        match rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap() {
            ServerEvent::Disconnect { .. } => {}
            _ => panic!("expected Disconnect for truncated frame"),
        }
        shared.stop.store(true, Ordering::Relaxed);
        poke_tcp(addr);
    }

    #[test]
    fn decode_frame_header_bounds_every_possible_prefix() {
        // Zero length in both byte orders.
        assert_eq!(
            decode_frame_header(ByteOrder::Little, [0, 0, 7, 0]),
            Err(FrameError::ZeroLength)
        );
        assert_eq!(
            decode_frame_header(ByteOrder::Big, [0, 0, 7, 0]),
            Err(FrameError::ZeroLength)
        );
        // Minimum valid frame: one word, no payload — opcode preserved.
        assert_eq!(
            decode_frame_header(ByteOrder::Little, [1, 0, 42, 0]),
            Ok((42, 0))
        );
        assert_eq!(
            decode_frame_header(ByteOrder::Big, [0, 1, 42, 0]),
            Ok((42, 0))
        );
        // The allocation-safety property: over the ENTIRE header space, a
        // garbage prefix either errors or yields a payload length at most
        // MAX_REQUEST_BYTES — the length field never sizes an unbounded
        // allocation.  (The u16 length field tops out at 262,136 bytes,
        // just under the limit, so today Oversized guards against the
        // limit shrinking or the field widening.)
        for hi in 0..=255u8 {
            for lo in [0u8, 1, 2, 0x7f, 0x80, 0xfe, 0xff] {
                for order in [ByteOrder::Little, ByteOrder::Big] {
                    match decode_frame_header(order, [lo, hi, 0xAB, 0xCD]) {
                        Ok((op, len)) => {
                            assert_eq!(op, 0xAB);
                            assert!(len <= MAX_REQUEST_BYTES);
                        }
                        Err(FrameError::ZeroLength) => {}
                        Err(FrameError::Oversized { bytes }) => {
                            assert!(bytes > MAX_REQUEST_BYTES);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reader_steady_state_recycles_frame_buffers() {
        // The acceptance property for the buffer pool: on the steady-state
        // request path, the reader does NOT allocate a Vec per frame.  A
        // bounded(1) event channel forces lock-step with the consumer, so at
        // most a few buffers are ever in flight; after 100 frames the pool
        // must have satisfied nearly all takes from its free list.
        let (tx, rx) = crossbeam_channel::bounded(1);
        let shared = TransportShared::new(tx);
        let pool = Arc::clone(&shared.pool);

        let mut wire = Vec::new();
        for _ in 0..100 {
            wire.extend_from_slice(&[2, 0, 33, 0]); // 2 words: header + 4 bytes.
            wire.extend_from_slice(&[1, 2, 3, 4]);
        }
        let reader = std::thread::spawn(move || {
            let mut cur = std::io::Cursor::new(wire);
            read_requests(&mut cur, &shared, 1, ByteOrder::Little);
        });

        let mut seen = 0;
        while seen < 100 {
            match rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap() {
                ServerEvent::Request { raw, .. } => {
                    assert_eq!(&*raw.payload, &[1, 2, 3, 4]);
                    seen += 1;
                    // Dropping `raw` returns its buffer to the pool, exactly
                    // as the dispatcher does after handling a request.
                }
                _ => panic!("expected Request"),
            }
        }
        reader.join().unwrap();
        assert!(
            pool.allocs() <= 4,
            "steady-state reader allocated per frame: {} allocs",
            pool.allocs()
        );
        assert!(pool.reuses() >= 96, "only {} reuses", pool.reuses());
    }

    #[test]
    fn unix_socket_round_trip() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let shared = TransportShared::new(tx);
        let dir = std::env::temp_dir().join(format!("af-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("af-unix-test.sock");
        spawn_unix(Arc::clone(&shared), &path).unwrap();

        let mut sock = UnixStream::connect(&path).unwrap();
        sock.write_all(&ConnSetup::new().encode()).unwrap();
        match rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap() {
            ServerEvent::NewClient { peer, .. } => assert!(peer.is_none()),
            _ => panic!("expected NewClient"),
        }
        shared.stop.store(true, Ordering::Relaxed);
        poke_unix(&path);
        let _ = std::fs::remove_file(&path);
    }
}
