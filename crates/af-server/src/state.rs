//! Server-side state: devices, clients, audio contexts, atoms, access
//! control, and properties.

use crate::buffer::DeviceBuffers;
use crate::pool::PooledBuf;
use crate::transport::{FrameError, OutboundTx};
use af_dsp::convert::Converter;
use af_proto::{AcAttributes, AcId, Atom, ByteOrder, DeviceDesc, DeviceId, EventMask, Opcode};
use af_time::ATime;
use crossbeam_channel::Sender;
use std::collections::{HashMap, VecDeque};
use std::net::IpAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Server-assigned client connection identifier.
pub type ClientId = u64;

/// Forcibly closes a connection's underlying socket, unblocking its
/// reader thread (used to evict slow or idle clients).
pub type ConnKick = Arc<dyn Fn() + Send + Sync>;

/// Failure counters for a running server, shared with test harnesses and
/// operators.  All counters are monotonic except `clients_current`.
#[derive(Default)]
pub struct ServerStats {
    /// Clients currently connected (gauge).
    pub clients_current: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub clients_total: AtomicU64,
    /// Clients evicted because their outbound queue overflowed.
    pub evicted_slow: AtomicU64,
    /// Clients evicted because they sent nothing for the idle timeout.
    pub evicted_idle: AtomicU64,
    /// Connections dropped for malformed or oversized framing.
    pub protocol_errors: AtomicU64,
    /// Connections that ended for any reason.
    pub disconnects: AtomicU64,
    /// Per-worker data-plane counters (sharded servers only).
    pub workers: Mutex<Vec<Arc<crate::worker::WorkerStats>>>,
    /// Per-LineServer-link health counters (WAN deployments): jitter
    /// buffer depth, concealments, reorders, FEC recoveries.
    pub links: Mutex<Vec<Arc<af_device::jitter::LinkStats>>>,
    /// Per-reactor-shard transport counters (reactor transport only):
    /// fd count, readiness events, partial reads, wakeups, evictions.
    pub reactors: Mutex<Vec<Arc<crate::reactor::ReactorShardStats>>>,
    /// Per-broadcast-bus fan-out counters (broadcast servers only):
    /// listeners, chunks sealed, lag histogram, evictions, bytes fanned
    /// out.
    pub broadcasts: Mutex<Vec<Arc<crate::broadcast::BroadcastStats>>>,
}

impl ServerStats {
    /// Reads a counter (helper avoiding `Ordering` noise at call sites).
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Registers an audio worker's counters for snapshotting.
    pub fn register_worker(&self, stats: Arc<crate::worker::WorkerStats>) {
        // Leaf lock over a plain Vec: a poisoning panic elsewhere cannot
        // leave it structurally broken, so recover instead of spreading
        // the panic into the server.
        self.workers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(stats);
    }

    /// Copies out every registered worker's counters.
    pub fn worker_snapshots(&self) -> Vec<crate::worker::WorkerStatsSnapshot> {
        self.workers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .map(|w| w.snapshot())
            .collect()
    }

    /// Registers a LineServer link's counters for snapshotting.
    pub fn register_link(&self, stats: Arc<af_device::jitter::LinkStats>) {
        self.links
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(stats);
    }

    /// Copies out every registered link's counters, in registration order.
    pub fn link_snapshots(&self) -> Vec<af_device::jitter::LinkStatsSnapshot> {
        self.links
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .map(|l| l.snapshot())
            .collect()
    }

    /// Registers a reactor shard's counters for snapshotting.
    pub fn register_reactor_shard(&self, stats: Arc<crate::reactor::ReactorShardStats>) {
        self.reactors
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(stats);
    }

    /// Copies out every reactor shard's counters, in shard order.
    pub fn reactor_snapshots(&self) -> Vec<crate::reactor::ReactorShardSnapshot> {
        self.reactors
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .map(|s| s.snapshot())
            .collect()
    }

    /// Registers a broadcast bus's counters for snapshotting.
    pub fn register_broadcast(&self, stats: Arc<crate::broadcast::BroadcastStats>) {
        self.broadcasts
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(stats);
    }

    /// Copies out every broadcast bus's counters, in registration order.
    pub fn broadcast_snapshots(&self) -> Vec<crate::broadcast::BroadcastSnapshot> {
        self.broadcasts
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .map(|b| b.snapshot())
            .collect()
    }

    /// Bumps a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets a gauge to an absolute value.
    pub fn set(counter: &AtomicU64, value: u64) {
        counter.store(value, Ordering::Relaxed);
    }
}

/// The server-wide atom registry (§5.9).
///
/// Built-in atoms (Table 2) are pre-interned; clients add more with
/// `InternAtom`.
pub struct AtomRegistry {
    by_name: HashMap<String, Atom>,
    names: Vec<String>, // names[i] is the name of Atom(i + 1).
}

impl Default for AtomRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomRegistry {
    /// Creates a registry holding the built-in atoms.
    pub fn new() -> AtomRegistry {
        let mut reg = AtomRegistry {
            by_name: HashMap::new(),
            names: Vec::new(),
        };
        for (atom, name) in af_proto::atoms::BUILTIN_ATOMS {
            reg.names.push((*name).to_string());
            reg.by_name.insert((*name).to_string(), *atom);
        }
        reg
    }

    /// Interns `name`, creating a new atom unless `only_if_exists`.
    ///
    /// Returns [`Atom::NONE`] when `only_if_exists` finds nothing.
    pub fn intern(&mut self, name: &str, only_if_exists: bool) -> Atom {
        if let Some(a) = self.by_name.get(name) {
            return *a;
        }
        if only_if_exists {
            return Atom::NONE;
        }
        let atom = Atom(self.names.len() as u32 + 1);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), atom);
        atom
    }

    /// The name of `atom`, if interned.
    pub fn name(&self, atom: Atom) -> Option<&str> {
        let idx = (atom.0 as usize).checked_sub(1)?;
        self.names.get(idx).map(String::as_str)
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no atoms are interned (never true: built-ins always exist).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Host-based access control (§6.1.1): "a simple access control scheme
/// based on host network address".
pub struct AccessControl {
    enabled: bool,
    hosts: Vec<Vec<u8>>,
}

impl Default for AccessControl {
    fn default() -> Self {
        AccessControl::new()
    }
}

impl AccessControl {
    /// Creates the default policy: checking enabled, localhost-only.
    pub fn new() -> AccessControl {
        AccessControl {
            enabled: true,
            hosts: Vec::new(),
        }
    }

    /// Whether checking is enforced.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables checking (`SetAccessControl`).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The configured host list.
    pub fn hosts(&self) -> &[Vec<u8>] {
        &self.hosts
    }

    /// Adds or removes a host address (`ChangeHosts`).
    pub fn change(&mut self, insert: bool, address: &[u8]) {
        if insert {
            if !self.hosts.iter().any(|h| h == address) {
                self.hosts.push(address.to_vec());
            }
        } else {
            self.hosts.retain(|h| h != address);
        }
    }

    /// Whether a connection from `peer` may proceed.
    ///
    /// Local transports (`None`) and loopback addresses are always allowed,
    /// as the machine's own users are trusted in the paper's model.
    pub fn allows(&self, peer: Option<IpAddr>) -> bool {
        if !self.enabled {
            return true;
        }
        match peer {
            None => true,
            Some(ip) => {
                if ip.is_loopback() {
                    return true;
                }
                let bytes: Vec<u8> = match ip {
                    IpAddr::V4(v4) => v4.octets().to_vec(),
                    IpAddr::V6(v6) => v6.octets().to_vec(),
                };
                self.hosts.contains(&bytes)
            }
        }
    }
}

/// A stored property value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropertyValue {
    /// The type atom the writer declared.
    pub type_: Atom,
    /// Raw value bytes.
    pub data: Vec<u8>,
}

/// One abstract audio device with its buffering engine and control state.
///
/// A device either owns a buffering engine or is a *mono view* onto one
/// channel of another device's stereo buffers (§7.4.1's left/right
/// devices); exactly one of `buffers` and `mono_of` is set.
pub struct Device {
    /// The advertised attributes (sent at connection setup).
    pub desc: DeviceDesc,
    /// In sharded mode, the handle to the audio worker that owns this
    /// device's buffers (buffer owners only; `buffers` is then `None`).
    pub worker: Option<crate::worker::WorkerLink>,
    /// The buffering engine over the hardware backend (owners only).
    pub buffers: Option<DeviceBuffers>,
    /// For mono views: `(parent device index, channel lane)`.
    pub mono_of: Option<(usize, u8)>,
    /// The telephone line, when this device's connectors reach one.
    pub phone: Option<af_device::PhoneLine>,
    /// Current input gain in dB.
    pub input_gain_db: i32,
    /// Current output gain (volume) in dB.
    pub output_gain_db: i32,
    /// Settable gain range.
    pub gain_range: (i32, i32),
    /// Bitmask of enabled inputs.
    pub inputs_enabled: u32,
    /// Bitmask of enabled outputs.
    pub outputs_enabled: u32,
    /// Whether pass-through is engaged (§7.4.1).
    pub passthrough: bool,
    /// The peer device index pass-through connects to.
    pub passthrough_peer: Option<usize>,
    /// Device properties (§5.9).
    pub properties: HashMap<Atom, PropertyValue>,
    /// Whether gain-control requests are accepted ("not for general use").
    pub gain_control_locked: bool,
    /// Pass-through: how much of the peer's record stream we consumed.
    pub pt_in: ATime,
    /// Pass-through: our playback write cursor.
    pub pt_out: ATime,
}

impl Device {
    /// Whether any output connector is enabled.
    pub fn output_enabled(&self) -> bool {
        self.outputs_enabled != 0
    }

    /// Whether any input connector is enabled.
    pub fn input_enabled(&self) -> bool {
        self.inputs_enabled != 0
    }
}

/// The server half of an audio context (§7.3.2's `AC` struct).
pub struct ServerAc {
    /// The device the context binds to.
    pub device: DeviceId,
    /// Client-visible attributes.
    pub attrs: AcAttributes,
    /// Conversion module: client encoding → device encoding.
    pub play_conv: Converter,
    /// Conversion module: device encoding → client encoding.
    pub rec_conv: Converter,
    /// Whether this context has recorded (contributes to `recRefCount`).
    pub recording: bool,
}

/// A request as read off the wire, before decoding.
#[derive(Clone, Debug)]
pub struct RawRequest {
    /// The raw opcode byte (may be invalid; the dispatcher validates).
    pub opcode: u8,
    /// The payload after the 4-byte header, in a pooled frame buffer that
    /// recycles once the request is processed.
    pub payload: PooledBuf,
}

/// Why a client is suspended, and what to do when it can continue.
pub enum BlockedOp {
    /// A play request extended beyond the buffer horizon; the remainder is
    /// already converted to the device encoding with gain applied.
    Play {
        /// Target device (possibly a mono view).
        device: DeviceId,
        /// Whether to preempt.
        preempt: bool,
        /// Device time of the first remaining frame.
        start: ATime,
        /// The full request in device encoding; `offset` marks how much has
        /// been consumed (a cursor, so retries never re-copy the tail).
        frames: Vec<u8>,
        /// Bytes of `frames` already written into the device buffer.
        offset: usize,
        /// Whether the final reply is suppressed.
        suppress_reply: bool,
    },
    /// A blocking record request for data not yet captured.
    Record {
        /// The audio context to convert with.
        ac: AcId,
        /// Target device.
        device: DeviceId,
        /// Device time of the first requested frame.
        start: ATime,
        /// Frames requested.
        nframes: u32,
        /// Whether sample data should be returned big-endian.
        big_endian: bool,
    },
}

impl BlockedOp {
    /// The device the suspension is waiting on (for per-device wake-ups).
    pub fn device(&self) -> DeviceId {
        match self {
            BlockedOp::Play { device, .. } | BlockedOp::Record { device, .. } => *device,
        }
    }
}

/// A suspended request plus its sequence number (for the eventual reply).
pub struct Blocked {
    /// Sequence number the reply must carry.
    pub seq: u16,
    /// The suspended operation.
    pub op: BlockedOp,
}

/// A client's outbound-overflow flag.  Raising it also raises a
/// server-wide flag, so the dispatcher scans its clients for evictions
/// only after some producer hit a full queue instead of after every
/// event (the scan is O(clients)).
pub struct Overflow {
    client: AtomicBool,
    any: Arc<AtomicBool>,
}

impl Overflow {
    /// A lowered flag that raises `any` along with itself.
    pub fn new(any: &Arc<AtomicBool>) -> Arc<Overflow> {
        Arc::new(Overflow {
            client: AtomicBool::new(false),
            any: Arc::clone(any),
        })
    }

    /// Marks the client for eviction.
    pub fn raise(&self) {
        self.client.store(true, Ordering::Release);
        self.any.store(true, Ordering::Release);
    }

    /// Whether the client is marked for eviction.
    pub fn is_raised(&self) -> bool {
        self.client.load(Ordering::Acquire)
    }
}

/// Per-connection client state.
pub struct ClientState {
    /// Connection identifier.
    pub id: ClientId,
    /// The client's declared byte order.
    pub order: ByteOrder,
    /// Outbound route to the connection's writer (classic writer thread
    /// or reactor shard).
    pub tx: OutboundTx,
    /// Requests processed on this connection (low 16 bits are the wire
    /// sequence number).
    pub seq: u16,
    /// Audio contexts owned by this client.
    pub acs: HashMap<AcId, ServerAc>,
    /// Event selections per device.
    pub event_masks: HashMap<DeviceId, EventMask>,
    /// The currently suspended request, if any.
    pub blocked: Option<Blocked>,
    /// Requests received while suspended, in arrival order.
    pub queue: VecDeque<RawRequest>,
    /// Closes the connection's socket to unblock its reader thread.
    pub kick: ConnKick,
    /// Set when the bounded outbound queue rejected a message: the writer
    /// cannot keep up and the protocol stream is no longer coherent, so
    /// the client must be evicted (after the next event).  Shared
    /// (atomically) with audio-worker reply sinks, which can also hit the
    /// bound.
    pub overflowed: Arc<Overflow>,
    /// When the client last sent a request (for idle-connection eviction).
    pub last_activity: Instant,
    /// A sample job for this client is in flight on an audio worker;
    /// further requests wait in `queue` so per-client reply order holds.
    pub awaiting_worker: bool,
}

impl ClientState {
    /// Creates state for a newly accepted connection whose overflow also
    /// raises the server-wide `any_overflow`.
    pub fn new(
        id: ClientId,
        order: ByteOrder,
        tx: OutboundTx,
        kick: ConnKick,
        any_overflow: &Arc<AtomicBool>,
    ) -> ClientState {
        ClientState {
            id,
            order,
            tx,
            seq: 0,
            acs: HashMap::new(),
            event_masks: HashMap::new(),
            blocked: None,
            queue: VecDeque::new(),
            kick,
            overflowed: Overflow::new(any_overflow),
            last_activity: Instant::now(),
            awaiting_worker: false,
        }
    }

    /// The event mask in force for `device`.
    pub fn mask_for(&self, device: DeviceId) -> EventMask {
        self.event_masks.get(&device).copied().unwrap_or_default()
    }

    /// Queues encoded bytes for this client's writer thread.
    ///
    /// The queue is bounded
    /// ([`crate::transport::OUTBOUND_QUEUE_CAPACITY`]); a full queue means
    /// the client is reading more slowly than the server is producing, so
    /// instead of buffering without limit (the seed behavior) the client
    /// is flagged for eviction.  A vanished writer is ignored — the
    /// reader's disconnect event is already in flight.
    pub fn send<B: Into<PooledBuf>>(&self, bytes: B) {
        match self.tx.try_send(bytes.into()) {
            Ok(()) => {}
            Err(crossbeam_channel::TrySendError::Full(_)) => self.overflowed.raise(),
            Err(crossbeam_channel::TrySendError::Disconnected(_)) => {}
        }
    }

    /// A detached reply route for audio workers: same queue, same
    /// overflow policy, no dispatcher involvement.
    pub fn reply_sink(&self, pool: &Arc<crate::pool::BufferPool>) -> crate::transport::ReplySink {
        crate::transport::ReplySink::new(
            // af-analyze: allow(alloc): channel-sender clone is a refcount bump, not a heap allocation
            self.tx.clone(),
            self.order,
            Arc::clone(&self.overflowed),
            Arc::clone(pool),
        )
    }
}

/// Messages that flow into the dispatcher (the server's `select()` sources).
pub enum ServerEvent {
    /// A transport accepted a connection and read its setup message.
    NewClient {
        /// Transport-assigned id.
        id: ClientId,
        /// The raw setup message.
        setup: Vec<u8>,
        /// Peer address for access control (`None` for local transports).
        peer: Option<IpAddr>,
        /// Outbound route to the connection's writer.
        tx: OutboundTx,
        /// Closes the connection's socket (for forced eviction).
        kick: ConnKick,
    },
    /// A framed request arrived.
    Request {
        /// The connection it arrived on.
        id: ClientId,
        /// The request bytes.
        raw: RawRequest,
    },
    /// The connection sent an unrecoverable malformed frame; only this
    /// client is disconnected.
    ProtocolError {
        /// The offending connection.
        id: ClientId,
        /// What the framing decoder rejected.
        error: FrameError,
    },
    /// The connection closed or failed.
    Disconnect {
        /// The connection that went away.
        id: ClientId,
    },
    /// An audio worker finished (or failed) the client's in-flight sample
    /// job; the dispatcher may release the client's queued requests.
    WorkerDone {
        /// The client whose job completed.
        id: ClientId,
    },
    /// An out-of-band control message.
    Control(ControlMsg),
}

/// Control operations, used by tests, handles and shutdown.
pub enum ControlMsg {
    /// Run the update task immediately and acknowledge.
    RunUpdate {
        /// Ack channel.
        ack: Sender<()>,
    },
    /// Round-trip the dispatcher (all prior events processed).
    Barrier {
        /// Ack channel.
        ack: Sender<()>,
    },
    /// Stop the server.
    Shutdown,
}

/// Validates that a request opcode byte decodes, for error reporting.
pub fn decode_opcode(raw: u8) -> Option<Opcode> {
    Opcode::from_wire(raw).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_registry_builtins_and_interning() {
        let mut reg = AtomRegistry::new();
        assert_eq!(reg.len(), 20);
        assert_eq!(reg.name(Atom(4)), Some("STRING"));
        assert_eq!(reg.intern("STRING", true), Atom(4));
        assert_eq!(reg.intern("NOPE", true), Atom::NONE);
        let a = reg.intern("MY_THING", false);
        assert_eq!(a, Atom(21));
        assert_eq!(reg.intern("MY_THING", false), a);
        assert_eq!(reg.name(a), Some("MY_THING"));
        assert_eq!(reg.name(Atom(0)), None);
        assert_eq!(reg.name(Atom(99)), None);
    }

    #[test]
    fn access_control_policy() {
        let mut ac = AccessControl::new();
        assert!(ac.enabled());
        // Loopback and local transports always pass.
        assert!(ac.allows(None));
        assert!(ac.allows(Some("127.0.0.1".parse().unwrap())));
        // A remote host needs an entry.
        let remote: IpAddr = "10.1.2.3".parse().unwrap();
        assert!(!ac.allows(Some(remote)));
        ac.change(true, &[10, 1, 2, 3]);
        assert!(ac.allows(Some(remote)));
        // Duplicates are not stored twice.
        ac.change(true, &[10, 1, 2, 3]);
        assert_eq!(ac.hosts().len(), 1);
        ac.change(false, &[10, 1, 2, 3]);
        assert!(!ac.allows(Some(remote)));
        // Disabling opens the door.
        ac.set_enabled(false);
        assert!(ac.allows(Some(remote)));
    }

    #[test]
    fn client_state_defaults() {
        let (tx, _rx) = crossbeam_channel::unbounded();
        let any = Arc::new(AtomicBool::new(false));
        let c = ClientState::new(
            1,
            ByteOrder::Little,
            OutboundTx::classic(tx),
            Arc::new(|| {}),
            &any,
        );
        assert_eq!(c.mask_for(0), EventMask::NONE);
        assert!(c.blocked.is_none());
        assert!(c.queue.is_empty());
        assert!(!c.overflowed.is_raised());
        assert!(!c.awaiting_worker);
    }

    #[test]
    fn bounded_send_flags_overflow_instead_of_growing() {
        let (tx, rx) = crossbeam_channel::bounded(2);
        let any = Arc::new(AtomicBool::new(false));
        let c = ClientState::new(
            1,
            ByteOrder::Little,
            OutboundTx::classic(tx),
            Arc::new(|| {}),
            &any,
        );
        c.send(vec![1]);
        c.send(vec![2]);
        assert!(!c.overflowed.is_raised());
        assert!(!any.load(Ordering::Acquire));
        c.send(vec![3]); // Queue full: flagged, not grown.
        assert!(c.overflowed.is_raised());
        assert!(
            any.load(Ordering::Acquire),
            "the dispatcher must learn of it"
        );
        assert_eq!(rx.len(), 2, "queue never exceeds its bound");
    }
}
