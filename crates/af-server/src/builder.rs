//! Assembling and running servers.
//!
//! The paper shipped several server binaries — `Alofi` (two CODECs, HiFi,
//! telephone line), `Aaxp`/`Asparc` (one base-board CODEC), `Als`
//! (LineServer) — that differed only in their device-dependent bottom
//! halves.  [`ServerBuilder`] composes the same shapes from simulated
//! devices and produces a [`RunningServer`] with its dispatcher thread and
//! transports started.

use crate::backend::{AlsBackend, LocalBackend};
use crate::broadcast::{BroadcastBus, BroadcastConfig, BroadcastStats, BusTap};
use crate::buffer::DeviceBuffers;
use crate::dispatch::{Dispatcher, ServerCore};
use crate::state::{AccessControl, AtomRegistry, ControlMsg, Device, ServerEvent, ServerStats};
use crate::transport::{self, TransportShared};
use crate::worker::{
    AudioWorker, DeviceControl, WorkerDevice, WorkerHandle, WorkerLink, WorkerStats,
    WORKER_QUEUE_CAPACITY,
};
use af_chaos::StreamFaultPlan;
use af_device::hardware::{HwConfig, VirtualAudioHw};
use af_device::io::{NullSink, SampleSink, SampleSource, SilenceSource};
use af_device::lineserver::LineServerLink;
use af_device::{PhoneLine, SharedClock};
use af_dsp::Encoding;
use af_proto::{DeviceDesc, DeviceKind};
use af_time::ATime;
use crossbeam_channel::Sender;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Capacity of the dispatcher's central event queue.
///
/// Bounded so a stalled dispatcher exerts backpressure instead of growing
/// the heap: transport readers block (which in turn stops reading the
/// socket — TCP backpressure to the client), and audio workers block on
/// their `WorkerDone` notifications.  The bound cannot deadlock the
/// dispatcher↔worker cycle in practice: each client has at most one job in
/// flight (`awaiting_worker`), so outstanding `WorkerDone` events are
/// bounded by the client count, and each transport reader parks after a
/// single blocked send — thousands of concurrent senders would be needed
/// to fill the queue while the dispatcher is also blocked.
pub const EVENT_QUEUE_CAPACITY: usize = 4096;

/// Ingredients for one abstract audio device.
pub struct DeviceSetup {
    /// Advertised description (index is assigned by the builder).
    pub desc: DeviceDesc,
    /// The buffering engine over its backend (owners only).
    pub buffers: Option<DeviceBuffers>,
    /// For mono views: `(parent device index, channel lane)`.
    pub mono_of: Option<(usize, u8)>,
    /// Attached telephone line, if any.
    pub phone: Option<PhoneLine>,
    /// Pass-through peer device index, if wired.
    pub passthrough_peer: Option<usize>,
}

/// Builder for an AudioFile server.
pub struct ServerBuilder {
    vendor: String,
    update_interval: Duration,
    devices: Vec<DeviceSetup>,
    tcp: Option<SocketAddr>,
    unix: Option<PathBuf>,
    access_enabled: bool,
    idle_timeout: Option<Duration>,
    chaos: Option<StreamFaultPlan>,
    sharded: bool,
    classic_transport: bool,
    reactor_shards: Option<usize>,
    link_stats: Vec<Arc<af_device::jitter::LinkStats>>,
    broadcast: Option<(usize, SocketAddr, BroadcastConfig)>,
}

/// Server play/record buffer frames for an 8 kHz device: ≈ 4 seconds
/// (the next power of two above 4 × 8000).
pub const CODEC_BUFFER_FRAMES: u32 = 32_768;
/// Server buffer frames for a 44.1/48 kHz device: ≈ 4–6 seconds.
pub const HIFI_BUFFER_FRAMES: u32 = 262_144;

impl ServerBuilder {
    /// Creates an empty builder.
    pub fn new() -> ServerBuilder {
        ServerBuilder {
            vendor: "audiofile-rs".to_string(),
            update_interval: Duration::from_millis(crate::MSUPDATE),
            devices: Vec::new(),
            tcp: None,
            unix: None,
            access_enabled: true,
            idle_timeout: None,
            chaos: None,
            sharded: false,
            classic_transport: false,
            reactor_shards: None,
            link_stats: Vec::new(),
            broadcast: None,
        }
    }

    /// Broadcasts `device`'s post-mix speaker bus to HTTP/ICY listeners on
    /// `addr` (encode-once fan-out, DESIGN.md §13).  Use port 0 for an
    /// ephemeral port; the bound address is
    /// [`RunningServer::broadcast_addr`].  The device must own buffers (not
    /// a mono view).  Listeners are served by the reactor: in classic
    /// transport mode a dedicated broadcast-only reactor is spawned.
    pub fn broadcast(self, device: usize, addr: SocketAddr) -> Self {
        self.broadcast_with_config(device, addr, BroadcastConfig::default())
    }

    /// [`ServerBuilder::broadcast`] with explicit bus tuning (chunk size,
    /// ring depth, preroll, stall budget) — tests shrink these.
    pub fn broadcast_with_config(
        mut self,
        device: usize,
        addr: SocketAddr,
        cfg: BroadcastConfig,
    ) -> Self {
        self.broadcast = Some((device, addr, cfg));
        self
    }

    /// Selects the classic thread-per-connection transport instead of the
    /// event-driven reactor (the default).  Kept for differential testing
    /// and for targets without a reactor syscall backend — which fall back
    /// to classic automatically.
    pub fn classic_transport(mut self, enabled: bool) -> Self {
        self.classic_transport = enabled;
        self
    }

    /// Sets the reactor shard count (default `min(4, cores)`).  Ignored
    /// by the classic transport.
    pub fn reactor_shards(mut self, shards: usize) -> Self {
        self.reactor_shards = Some(shards.max(1));
        self
    }

    /// Shards the sample hot path: each buffer-owning device (grouped with
    /// its pass-through peer) moves onto a dedicated audio worker thread
    /// that drains play/record jobs, runs its own periodic update, and
    /// replies to clients directly.  Control requests keep the paper's
    /// single-threaded dispatcher semantics (§7.3.1).  Off by default.
    pub fn sharded_data_plane(mut self, enabled: bool) -> Self {
        self.sharded = enabled;
        self
    }

    /// Sets the vendor string reported at connection setup.
    pub fn vendor(mut self, vendor: &str) -> Self {
        self.vendor = vendor.to_string();
        self
    }

    /// Sets the update task period (the paper's `MSUPDATE`, default 100 ms).
    pub fn update_interval(mut self, interval: Duration) -> Self {
        self.update_interval = interval;
        self
    }

    /// Listens on a TCP address (use port 0 for an ephemeral port).
    pub fn listen_tcp(mut self, addr: SocketAddr) -> Self {
        self.tcp = Some(addr);
        self
    }

    /// Listens on a Unix-domain socket path.
    pub fn listen_unix(mut self, path: PathBuf) -> Self {
        self.unix = Some(path);
        self
    }

    /// Starts with access control disabled (any host may connect).
    pub fn access_control(mut self, enabled: bool) -> Self {
        self.access_enabled = enabled;
        self
    }

    /// Evicts clients that send no requests for `timeout`.
    ///
    /// Suspended clients (waiting on the server) are exempt.  Off by
    /// default, matching the paper's model of long-lived idle connections.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Injects deterministic faults into every accepted connection.
    ///
    /// Each connection's fault schedule is forked from the plan's seed and
    /// the connection id, so runs with the same seed see the same faults.
    pub fn chaos(mut self, plan: StreamFaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    fn desc_for(
        kind: DeviceKind,
        cfg: &HwConfig,
        frames: u32,
        phone_masks: (u32, u32),
    ) -> DeviceDesc {
        DeviceDesc {
            index: 0, // Assigned at spawn.
            kind,
            play_sample_freq: cfg.rate,
            rec_sample_freq: cfg.rate,
            play_buf_type: cfg.encoding,
            rec_buf_type: cfg.encoding,
            play_nchannels: cfg.channels,
            rec_nchannels: cfg.channels,
            play_nsamples_buf: frames,
            rec_nsamples_buf: frames,
            number_of_inputs: 1,
            number_of_outputs: 1,
            inputs_from_phone: phone_masks.0,
            outputs_to_phone: phone_masks.1,
            supported_types: DeviceDesc::all_convertible_types(),
        }
    }

    /// Adds an 8 kHz µ-law codec device with the given endpoints.
    ///
    /// Returns the device index.
    pub fn add_codec(
        &mut self,
        clock: SharedClock,
        sink: Box<dyn SampleSink>,
        source: Box<dyn SampleSource>,
    ) -> usize {
        self.add_codec_with_buffer(clock, sink, source, CODEC_BUFFER_FRAMES)
    }

    /// Adds a codec with an explicit server buffer size in frames (a power
    /// of two).  The buffer size is an advertised device attribute (§2.1
    /// footnote: "the precise size of the server buffer is available to
    /// clients as an attribute of the audio device"), so nonstandard sizes
    /// are legitimate — benchmarks use larger ones.
    pub fn add_codec_with_buffer(
        &mut self,
        clock: SharedClock,
        sink: Box<dyn SampleSink>,
        source: Box<dyn SampleSource>,
        frames: u32,
    ) -> usize {
        let cfg = HwConfig::codec();
        let hw = VirtualAudioHw::new(cfg, clock, sink, source);
        let buffers =
            DeviceBuffers::new(Box::new(LocalBackend::new(hw)), Encoding::Mu255, 1, frames);
        self.push(DeviceSetup {
            desc: Self::desc_for(DeviceKind::Codec, &cfg, frames, (0, 0)),
            buffers: Some(buffers),
            mono_of: None,
            phone: None,
            passthrough_peer: None,
        })
    }

    /// Adds a codec whose connectors reach a telephone line (LoFi device 0).
    pub fn add_phone_codec(&mut self, clock: SharedClock, line: PhoneLine) -> usize {
        let cfg = HwConfig::codec();
        let hw = VirtualAudioHw::new(
            cfg,
            clock,
            Box::new(line.line_sink()),
            Box::new(line.line_source()),
        );
        let buffers = DeviceBuffers::new(
            Box::new(LocalBackend::new(hw)),
            Encoding::Mu255,
            1,
            CODEC_BUFFER_FRAMES,
        );
        self.push(DeviceSetup {
            desc: Self::desc_for(DeviceKind::Codec, &cfg, CODEC_BUFFER_FRAMES, (1, 1)),
            buffers: Some(buffers),
            mono_of: None,
            phone: Some(line),
            passthrough_peer: None,
        })
    }

    /// Adds a 44.1 kHz 16-bit stereo HiFi device.
    pub fn add_hifi(
        &mut self,
        clock: SharedClock,
        sink: Box<dyn SampleSink>,
        source: Box<dyn SampleSource>,
    ) -> usize {
        let cfg = HwConfig::hifi();
        let hw = VirtualAudioHw::new(cfg, clock, sink, source);
        let buffers = DeviceBuffers::new(
            Box::new(LocalBackend::new(hw)),
            Encoding::Lin16,
            2,
            HIFI_BUFFER_FRAMES,
        );
        self.push(DeviceSetup {
            desc: Self::desc_for(DeviceKind::Hifi, &cfg, HIFI_BUFFER_FRAMES, (0, 0)),
            buffers: Some(buffers),
            mono_of: None,
            phone: None,
            passthrough_peer: None,
        })
    }

    /// Adds a HiFi stereo device plus two mono-view devices for its left
    /// and right channels, as the Alofi server does (§7.4.1: "to support
    /// mono channel operations, we also implemented two audio devices that
    /// represent the separate left and right channels of the stereo
    /// device").
    ///
    /// Returns `(stereo, left, right)` device indices.
    pub fn add_hifi_with_mono(
        &mut self,
        clock: SharedClock,
        sink: Box<dyn SampleSink>,
        source: Box<dyn SampleSource>,
    ) -> (usize, usize, usize) {
        let stereo = self.add_hifi(clock, sink, source);
        let cfg = HwConfig::hifi();
        let mono_desc = |kind: DeviceKind| {
            let mut d = Self::desc_for(kind, &cfg, HIFI_BUFFER_FRAMES, (0, 0));
            d.play_nchannels = 1;
            d.rec_nchannels = 1;
            d
        };
        let left = self.push(DeviceSetup {
            desc: mono_desc(DeviceKind::HifiLeft),
            buffers: None,
            mono_of: Some((stereo, 0)),
            phone: None,
            passthrough_peer: None,
        });
        let right = self.push(DeviceSetup {
            desc: mono_desc(DeviceKind::HifiRight),
            buffers: None,
            mono_of: Some((stereo, 1)),
            phone: None,
            passthrough_peer: None,
        });
        (stereo, left, right)
    }

    /// Adds a device served by a remote LineServer over UDP (`Als`).
    pub fn add_lineserver(&mut self, addr: SocketAddr) -> std::io::Result<usize> {
        let link = LineServerLink::connect(addr)?;
        Ok(self.add_lineserver_link(link))
    }

    /// Adds a LineServer device over an already-connected link — the hook
    /// for links with a fault-injecting UDP socket underneath.
    pub fn add_lineserver_link(&mut self, link: LineServerLink) -> usize {
        let backend = AlsBackend::new(link, 8000, af_device::lineserver::LS_BUFFER_SAMPLES);
        self.link_stats.push(backend.stats_handle());
        let buffers =
            DeviceBuffers::new(Box::new(backend), Encoding::Mu255, 1, CODEC_BUFFER_FRAMES);
        let cfg = HwConfig {
            encoding: Encoding::Mu255,
            rate: 8000,
            channels: 1,
            ring_frames: af_device::lineserver::LS_BUFFER_SAMPLES,
        };
        self.push(DeviceSetup {
            desc: Self::desc_for(DeviceKind::LineServer, &cfg, CODEC_BUFFER_FRAMES, (0, 0)),
            buffers: Some(buffers),
            mono_of: None,
            phone: None,
            passthrough_peer: None,
        })
    }

    /// Adds a fully custom device.
    pub fn add_device(&mut self, setup: DeviceSetup) -> usize {
        self.push(setup)
    }

    fn push(&mut self, setup: DeviceSetup) -> usize {
        self.devices.push(setup);
        self.devices.len() - 1
    }

    /// Wires two devices as a pass-through pair (§7.4.1).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or they are equal.
    pub fn pair_passthrough(&mut self, a: usize, b: usize) {
        assert!(a != b && a < self.devices.len() && b < self.devices.len());
        self.devices[a].passthrough_peer = Some(b);
        self.devices[b].passthrough_peer = Some(a);
    }

    /// The standard LoFi shape: a phone codec, a local codec (pass-through
    /// paired), and a HiFi device — all on one clock, as LoFi's devices
    /// shared synchronized interrupts.
    ///
    /// Returns `(builder, phone_line)`.
    pub fn lofi(clock: SharedClock) -> (ServerBuilder, PhoneLine) {
        let mut b = ServerBuilder::new().vendor("audiofile-rs Alofi");
        let line = PhoneLine::new();
        let d0 = b.add_phone_codec(Arc::clone(&clock), line.clone());
        let d1 = b.add_codec(
            Arc::clone(&clock),
            Box::new(NullSink),
            Box::new(SilenceSource::new(af_dsp::g711::ULAW_SILENCE)),
        );
        b.pair_passthrough(d0, d1);
        // Like Alofi, "presents five audio devices to clients": two CODECs
        // and three HiFi views (stereo, left, right).
        b.add_hifi_with_mono(clock, Box::new(NullSink), Box::new(SilenceSource::new(0)));
        (b, line)
    }

    /// Starts the server: dispatcher thread plus configured transports.
    pub fn spawn(self) -> std::io::Result<RunningServer> {
        let (tx, rx) = crossbeam_channel::bounded::<ServerEvent>(EVENT_QUEUE_CAPACITY);
        let mut devices = Vec::with_capacity(self.devices.len());
        for (i, mut setup) in self.devices.into_iter().enumerate() {
            setup.desc.index = i as u8;
            devices.push(Device {
                desc: setup.desc,
                buffers: setup.buffers,
                mono_of: setup.mono_of,
                phone: setup.phone,
                input_gain_db: 0,
                output_gain_db: 0,
                gain_range: (-30, 30),
                inputs_enabled: u32::MAX,
                outputs_enabled: u32::MAX,
                passthrough: false,
                passthrough_peer: setup.passthrough_peer,
                properties: HashMap::new(),
                gain_control_locked: false,
                pt_in: ATime::ZERO,
                pt_out: ATime::ZERO,
                worker: None,
            });
        }
        let mut access = AccessControl::new();
        access.set_enabled(self.access_enabled);
        let stats = Arc::new(ServerStats::default());
        for link in self.link_stats {
            stats.register_link(link);
        }
        // Broadcast fan-out: build the bus and install the speaker-bus tap
        // on the device *before* buffers can move onto an audio worker, so
        // the tap publishes from whichever thread runs the update task.
        let broadcast_req = self.broadcast;
        let mut broadcast_bus: Option<Arc<BroadcastBus>> = None;
        if let Some((dev_idx, _, cfg)) = &broadcast_req {
            let buffers = devices
                .get_mut(*dev_idx)
                .and_then(|d| d.buffers.as_mut())
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "broadcast device must own buffers",
                    )
                })?;
            let bstats = BroadcastStats::new(format!("broadcast-dev{dev_idx}"));
            stats.register_broadcast(Arc::clone(&bstats));
            let bus = BroadcastBus::new(cfg.clone(), buffers.frame_bytes(), bstats);
            let fill = af_dsp::silence::silence_byte(buffers.encoding()).unwrap_or(0);
            buffers.set_tap(Box::new(BusTap::new(Arc::clone(&bus), fill)));
            broadcast_bus = Some(bus);
        }
        // Transport mode: event-driven reactor by default; classic
        // thread-per-connection when requested or when the target has no
        // reactor syscall backend.
        let use_reactor = !self.classic_transport && crate::reactor::reactor_supported();
        let reactor_shards = self
            .reactor_shards
            .unwrap_or_else(crate::reactor::default_shards);
        // The transport layer owns the buffer pool; the dispatcher shares it
        // so reply buffers drained by writers come back around.  Reactor
        // mode sizes the free list for per-connection partial-frame
        // accumulation across thousands of sockets.
        let pool = if use_reactor {
            crate::pool::BufferPool::with_max_idle(
                reactor_shards * crate::pool::REACTOR_MAX_IDLE_PER_SHARD,
            )
        } else {
            crate::pool::BufferPool::shared()
        };
        let shared = TransportShared::with_pool(tx.clone(), self.chaos, pool);
        let mut workers: Vec<WorkerHandle> = Vec::new();
        if self.sharded {
            // Group buffer owners so pass-through pairs share one worker
            // (their cursor work crosses both rings); everything else gets
            // its own thread.  Mono views stay with their owner implicitly —
            // they have no buffers and resolve through `mono_of`.
            let n = devices.len();
            let mut root: Vec<usize> = (0..n).collect();
            fn find(root: &mut [usize], mut i: usize) -> usize {
                while root[i] != i {
                    root[i] = root[root[i]];
                    i = root[i];
                }
                i
            }
            let peers: Vec<Option<usize>> = devices.iter().map(|d| d.passthrough_peer).collect();
            for (i, peer) in peers.iter().enumerate() {
                if let Some(p) = *peer {
                    if p < n {
                        let (a, b) = (find(&mut root, i), find(&mut root, p));
                        if a != b {
                            root[a] = b;
                        }
                    }
                }
            }
            let owners: Vec<bool> = devices.iter().map(|d| d.buffers.is_some()).collect();
            let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
            for (i, owns) in owners.iter().enumerate() {
                if *owns {
                    let r = find(&mut root, i);
                    groups.entry(r).or_default().push(i);
                }
            }
            let mut group_list: Vec<Vec<usize>> = groups.into_values().collect();
            group_list.sort_by_key(|g| g[0]);
            for (gi, members) in group_list.into_iter().enumerate() {
                let (jtx, jrx) = crossbeam_channel::bounded(WORKER_QUEUE_CAPACITY);
                let wstats = Arc::new(WorkerStats::new(format!("audio-worker-{gi}")));
                stats.register_worker(Arc::clone(&wstats));
                let mut wdevs = Vec::with_capacity(members.len());
                for &i in &members {
                    let d = &mut devices[i];
                    // Groups are built from buffer owners only; if a member
                    // has no buffers, leave it on the classic path rather
                    // than dying during startup.
                    let Some(buffers) = d.buffers.take() else {
                        continue;
                    };
                    let control = Arc::new(DeviceControl::new(
                        d.output_gain_db,
                        d.input_gain_db,
                        d.inputs_enabled,
                        d.outputs_enabled,
                    ));
                    let snapshot = Arc::new(std::sync::atomic::AtomicU64::new(0));
                    d.worker = Some(WorkerLink {
                        worker_id: gi,
                        tx: jtx.clone(),
                        snapshot: Arc::clone(&snapshot),
                        control: Arc::clone(&control),
                        stats: Arc::clone(&wstats),
                        enc: buffers.encoding(),
                        frame_bytes: buffers.frame_bytes(),
                        frames: buffers.frames(),
                    });
                    wdevs.push(WorkerDevice {
                        index: i,
                        buffers,
                        control,
                        snapshot,
                        rate: d.desc.play_sample_freq,
                        channels: d.desc.play_nchannels,
                        passthrough: false,
                        passthrough_peer: d.passthrough_peer,
                        pt_in: ATime::ZERO,
                        pt_out: ATime::ZERO,
                    });
                }
                let worker = AudioWorker::new(
                    jrx,
                    wdevs,
                    self.update_interval,
                    Arc::clone(&wstats),
                    tx.clone(),
                    Arc::clone(&shared.pool),
                );
                let join = std::thread::Builder::new()
                    .name(format!("af-audio-{gi}"))
                    .spawn(move || worker.run())?;
                workers.push(WorkerHandle { tx: jtx, join });
            }
        }
        let core = ServerCore {
            vendor: self.vendor,
            devices,
            clients: HashMap::new(),
            atoms: AtomRegistry::new(),
            access,
            stats: Arc::clone(&stats),
            pool: Arc::clone(&shared.pool),
            any_overflow: Arc::new(AtomicBool::new(false)),
        };
        let dispatcher = Dispatcher::new(core, rx, self.update_interval)
            .with_idle_timeout(self.idle_timeout)
            .with_workers(workers);
        let join = std::thread::Builder::new()
            .name("af-dispatcher".into())
            .spawn(move || dispatcher.run())?;

        // `AF_REACTOR_FORCE=poll` pins the reactor onto its `poll(2)`
        // fallback for differential testing.
        let force_poll = std::env::var("AF_REACTOR_FORCE").as_deref() == Ok("poll");
        let mut reactor = None;
        let mut broadcast_addr = None;
        let tcp_addr;
        if use_reactor {
            let r = crate::reactor::Reactor::spawn_with_broadcast(
                Arc::clone(&shared),
                reactor_shards,
                force_poll,
                broadcast_bus.clone(),
            )?;
            for s in r.shard_stats() {
                stats.register_reactor_shard(Arc::clone(s));
            }
            tcp_addr = match self.tcp {
                Some(addr) => Some(r.add_tcp(addr)?),
                None => None,
            };
            if let Some(path) = &self.unix {
                r.add_unix(path)?;
            }
            if let Some((_, addr, _)) = &broadcast_req {
                broadcast_addr = Some(r.add_broadcast_tcp(*addr)?);
            }
            reactor = Some(r);
        } else {
            tcp_addr = match self.tcp {
                Some(addr) => Some(transport::spawn_tcp(Arc::clone(&shared), addr)?),
                None => None,
            };
            if let Some(path) = &self.unix {
                transport::spawn_unix(Arc::clone(&shared), path)?;
            }
            if let Some(bus) = broadcast_bus.clone() {
                // Classic transport carries dispatcher clients; listeners
                // still need readiness-driven fan-out, so a broadcast-only
                // reactor serves them (no dispatcher connections on it).
                let r = crate::reactor::Reactor::spawn_with_broadcast(
                    Arc::clone(&shared),
                    reactor_shards,
                    force_poll,
                    Some(bus),
                )?;
                for s in r.shard_stats() {
                    stats.register_reactor_shard(Arc::clone(s));
                }
                if let Some((_, addr, _)) = &broadcast_req {
                    broadcast_addr = Some(r.add_broadcast_tcp(*addr)?);
                }
                reactor = Some(r);
            }
        }
        Ok(RunningServer {
            handle: ServerHandle { events: tx },
            shared,
            stats,
            reactor,
            classic: !use_reactor,
            tcp_addr,
            broadcast_addr,
            unix_path: self.unix,
            join: Some(join),
        })
    }
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder::new()
    }
}

/// A control handle into a running server's dispatcher.
#[derive(Clone)]
pub struct ServerHandle {
    events: Sender<ServerEvent>,
}

impl ServerHandle {
    /// Runs the update task immediately and waits for it to finish.
    ///
    /// Tests that drive a [`af_device::VirtualClock`] call this after
    /// advancing the clock, standing in for the periodic task firing.
    pub fn run_update(&self) {
        let (ack, done) = crossbeam_channel::bounded(1);
        if self
            .events
            .send(ServerEvent::Control(ControlMsg::RunUpdate { ack }))
            .is_ok()
        {
            let _ = done.recv_timeout(Duration::from_secs(10));
        }
    }

    /// Waits until all previously submitted events have been processed.
    pub fn barrier(&self) {
        let (ack, done) = crossbeam_channel::bounded(1);
        if self
            .events
            .send(ServerEvent::Control(ControlMsg::Barrier { ack }))
            .is_ok()
        {
            let _ = done.recv_timeout(Duration::from_secs(10));
        }
    }

    /// Requests shutdown (the dispatcher exits after current events).
    pub fn shutdown(&self) {
        let _ = self.events.send(ServerEvent::Control(ControlMsg::Shutdown));
    }
}

/// A running server: dispatcher thread, transports, and control handle.
pub struct RunningServer {
    handle: ServerHandle,
    shared: Arc<TransportShared>,
    stats: Arc<ServerStats>,
    reactor: Option<crate::reactor::Reactor>,
    /// Classic thread-per-connection transport in use (its accept threads
    /// need the shutdown poke even when a broadcast reactor also runs).
    classic: bool,
    tcp_addr: Option<SocketAddr>,
    broadcast_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl RunningServer {
    /// The bound TCP address, if a TCP listener was configured.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound broadcast (HTTP/ICY) address, if broadcast was configured.
    pub fn broadcast_addr(&self) -> Option<SocketAddr> {
        self.broadcast_addr
    }

    /// Failure counters (evictions, protocol errors, disconnects).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// The Unix-domain socket path, if configured.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// The control handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Stops the server and joins the dispatcher thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.handle.shutdown();
        self.shared
            .stop
            .store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(mut reactor) = self.reactor.take() {
            // Wakes every shard; they observe the stop flag and exit.
            reactor.shutdown();
        }
        if self.classic {
            if let Some(addr) = self.tcp_addr {
                transport::poke_tcp(addr);
            }
            if let Some(path) = &self.unix_path {
                transport::poke_unix(path);
            }
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.stop();
        }
    }
}
