//! The device-independent dispatcher: the server's main loop (§7.3.1).
//!
//! One thread owns all server state.  It multiplexes three input sources —
//! framed client requests, connection lifecycle, and control messages —
//! over a single channel (the `select()` of the original), runs due tasks
//! (the periodic update, wake-ups for suspended clients), and calls into
//! the device-dependent layer through [`crate::buffer::DeviceBuffers`].

use crate::pool::BufferPool;
use crate::state::{
    AccessControl, AtomRegistry, Blocked, BlockedOp, ClientId, ClientState, ConnKick, ControlMsg,
    Device, PropertyValue, RawRequest, ServerAc, ServerEvent, ServerStats,
};
use crate::task::{TaskKind, TaskQueue};
use crate::worker::{AudioJob, WorkerHandle};
use af_dsp::convert::Converter;
use af_proto::request::{play_flags, record_flags, PropertyMode};
use af_proto::{
    message, AcAttributes, AcId, AcMask, Atom, DeviceId, ErrorCode, Event, EventDetail, EventMask,
    Opcode, Reply, Request, SetupReply, WireError, MAX_REQUEST_BYTES,
};
use af_time::ATime;
use crossbeam_channel::{Receiver, RecvTimeoutError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// All state owned by the dispatcher thread.
pub struct ServerCore {
    /// Vendor string reported at setup.
    pub vendor: String,
    /// The abstract audio devices.
    pub devices: Vec<Device>,
    /// Connected clients.
    pub clients: HashMap<ClientId, ClientState>,
    /// The atom registry.
    pub atoms: AtomRegistry,
    /// Host access control.
    pub access: AccessControl,
    /// Failure counters, shared with the server handle.
    pub stats: Arc<ServerStats>,
    /// Reply/frame buffer pool, shared with the transport layer so reply
    /// buffers drained by writer threads come back to the dispatcher.
    pub pool: Arc<BufferPool>,
    /// Raised with any client's overflow flag; cleared by the eviction
    /// scan it triggers.
    pub any_overflow: Arc<AtomicBool>,
}

impl ServerCore {
    fn device(&mut self, id: DeviceId) -> Option<&mut Device> {
        self.devices.get_mut(id as usize)
    }

    /// Resolves a device id to its buffer owner and, for mono views, the
    /// channel lane (§7.4.1: "the mono channel devices are built on top of
    /// the server's stereo buffers").
    fn resolve(&self, id: DeviceId) -> Option<(usize, Option<u8>)> {
        let d = self.devices.get(id as usize)?;
        match d.mono_of {
            Some((parent, lane)) if parent < self.devices.len() => Some((parent, Some(lane))),
            Some(_) => None,
            None => Some((id as usize, None)),
        }
    }

    /// The buffering engine serving `id`, the view lane, and the owner's
    /// channel count.
    fn buffers_mut(
        &mut self,
        id: DeviceId,
    ) -> Option<(&mut crate::buffer::DeviceBuffers, Option<u8>, u8)> {
        let (owner, lane) = self.resolve(id)?;
        let channels = self.devices[owner].desc.play_nchannels;
        self.devices[owner]
            .buffers
            .as_mut()
            .map(|b| (b, lane, channels))
    }

    /// Current device time of `id` (the owner's clock for mono views).
    /// Sharded devices answer from the worker's published snapshot, so
    /// this never blocks on the data plane.
    fn dev_now(&mut self, id: DeviceId) -> ATime {
        self.try_dev_now(id).unwrap_or(ATime::ZERO)
    }

    /// `dev_now` distinguishing "no such device" from time zero.
    fn try_dev_now(&mut self, id: DeviceId) -> Option<ATime> {
        let (owner, _) = self.resolve(id)?;
        if let Some(w) = &self.devices[owner].worker {
            return Some(w.now());
        }
        self.devices[owner].buffers.as_mut().map(|b| b.now())
    }

    /// The buffer owner's native encoding, whichever plane owns the
    /// buffers.
    fn owner_encoding(&self, owner: usize) -> Option<af_dsp::Encoding> {
        let d = self.devices.get(owner)?;
        d.buffers
            .as_ref()
            .map(|b| b.encoding())
            .or_else(|| d.worker.as_ref().map(|w| w.enc))
    }

    /// Output gain and enablement that apply to `id`'s buffer owner.
    fn output_state(&self, id: DeviceId) -> (i32, bool) {
        match self.resolve(id) {
            Some((owner, _)) => {
                let d = &self.devices[owner];
                (d.output_gain_db, d.output_enabled())
            }
            None => (0, true),
        }
    }
}

/// The dispatcher: event loop plus request handlers.
pub struct Dispatcher {
    core: ServerCore,
    rx: Receiver<ServerEvent>,
    tasks: TaskQueue,
    update_interval: Duration,
    /// Evict clients that send nothing for this long (checked during the
    /// periodic update; suspended clients are exempt — they are waiting on
    /// the server, not the other way round).
    idle_timeout: Option<Duration>,
    shutdown: bool,
    /// Scratch for AC sample-type conversion, reused across requests so a
    /// steady play/record stream converts without allocating.
    conv_buf: Vec<u8>,
    /// Data-plane workers (sharded mode): joined at shutdown, fanned out
    /// to on explicit `RunUpdate` so the handle stays a full barrier.
    workers: Vec<WorkerHandle>,
}

/// Milliseconds since the Unix epoch (the "host clock time" in events).
fn host_time_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Dispatcher {
    /// Creates a dispatcher over `core`, fed by `rx`.
    pub fn new(core: ServerCore, rx: Receiver<ServerEvent>, update_interval: Duration) -> Self {
        Dispatcher {
            core,
            rx,
            tasks: TaskQueue::new(),
            update_interval,
            idle_timeout: None,
            shutdown: false,
            conv_buf: Vec::new(),
            workers: Vec::new(),
        }
    }

    /// Enables idle-connection eviction.
    pub fn with_idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Attaches the data-plane workers (sharded mode).
    pub fn with_workers(mut self, workers: Vec<WorkerHandle>) -> Self {
        self.workers = workers;
        self
    }

    /// Runs until shutdown (the `WaitForSomething` loop).
    pub fn run(mut self) {
        self.tasks
            .schedule(Instant::now() + self.update_interval, TaskKind::Update);
        while !self.shutdown {
            let timeout = self
                .tasks
                .next_deadline()
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_secs(1));
            match self.rx.recv_timeout(timeout) {
                Ok(ev) => self.handle_event(ev),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            let now = Instant::now();
            for kind in self.tasks.pop_due(now) {
                match kind {
                    TaskKind::Update => {
                        self.run_update();
                        self.tasks
                            .schedule(now + self.update_interval, TaskKind::Update);
                    }
                    TaskKind::WakeBlocked(device) => self.retry_blocked_device(device),
                }
            }
        }
        // Drain the data plane: each worker exits after its queued jobs.
        for w in &self.workers {
            let _ = w.tx.send(AudioJob::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join.join();
        }
    }

    fn handle_event(&mut self, ev: ServerEvent) {
        match ev {
            ServerEvent::NewClient {
                id,
                setup,
                peer,
                tx,
                kick,
            } => self.handle_new_client(id, &setup, peer, tx, kick),
            ServerEvent::Request { id, raw } => {
                if let Some(c) = self.core.clients.get_mut(&id) {
                    c.last_activity = Instant::now();
                }
                let blocked = self
                    .core
                    .clients
                    .get(&id)
                    .map(|c| c.blocked.is_some() || c.awaiting_worker)
                    .unwrap_or(true);
                if blocked {
                    if let Some(c) = self.core.clients.get_mut(&id) {
                        c.queue.push_back(raw);
                    }
                } else {
                    self.process_request(id, raw);
                }
            }
            ServerEvent::ProtocolError { id, error: _ } => {
                // A framing violation poisons only the offending
                // connection; other clients are untouched.
                ServerStats::bump(&self.core.stats.protocol_errors);
                self.evict(id);
            }
            ServerEvent::Disconnect { id } => self.remove_client(id),
            ServerEvent::WorkerDone { id } => {
                if let Some(c) = self.core.clients.get_mut(&id) {
                    c.awaiting_worker = false;
                }
                self.drain_queue(id);
            }
            ServerEvent::Control(msg) => match msg {
                ControlMsg::RunUpdate { ack } => {
                    self.run_update();
                    self.run_worker_updates();
                    let _ = ack.send(());
                }
                ControlMsg::Barrier { ack } => {
                    let _ = ack.send(());
                }
                ControlMsg::Shutdown => self.shutdown = true,
            },
        }
        // Any event may have queued outbound data; evict clients whose
        // bounded queue overflowed rather than buffering without limit.
        self.evict_overflowed();
    }

    fn handle_new_client(
        &mut self,
        id: ClientId,
        setup: &[u8],
        peer: Option<std::net::IpAddr>,
        tx: crate::transport::OutboundTx,
        kick: ConnKick,
    ) {
        let setup = match af_proto::ConnSetup::decode(setup) {
            Ok(s) => s,
            Err(_) => return, // Garbage setup: drop the connection.
        };
        let order = setup.byte_order;
        if !self.core.access.allows(peer) {
            let reply = SetupReply::Failed {
                reason: "host not authorized".to_string(),
            };
            tx.send_blocking(reply.encode(order).into());
            return;
        }
        if setup.major != af_proto::PROTOCOL_MAJOR {
            let reply = SetupReply::Failed {
                reason: format!(
                    "protocol version mismatch: client {}.{}, server {}.{}",
                    setup.major,
                    setup.minor,
                    af_proto::PROTOCOL_MAJOR,
                    af_proto::PROTOCOL_MINOR
                ),
            };
            tx.send_blocking(reply.encode(order).into());
            return;
        }
        let reply = SetupReply::Success {
            major: af_proto::PROTOCOL_MAJOR,
            minor: af_proto::PROTOCOL_MINOR,
            vendor: self.core.vendor.clone(),
            devices: self.core.devices.iter().map(|d| d.desc).collect(),
        };
        tx.send_blocking(reply.encode(order).into());
        self.core.clients.insert(
            id,
            ClientState::new(id, order, tx, kick, &self.core.any_overflow),
        );
        ServerStats::bump(&self.core.stats.clients_total);
        ServerStats::set(
            &self.core.stats.clients_current,
            self.core.clients.len() as u64,
        );
    }

    fn remove_client(&mut self, id: ClientId) {
        if let Some(client) = self.core.clients.remove(&id) {
            // Release record references held by the client's ACs.
            for ac in client.acs.values() {
                if ac.recording {
                    if let Some((buffers, _, _)) = self.core.buffers_mut(ac.device) {
                        buffers.remove_recorder();
                    } else if let Some((owner, _)) = self.core.resolve(ac.device) {
                        if let Some(w) = &self.core.devices[owner].worker {
                            let _ = w.tx.send(AudioJob::RemoveRecorder { device: owner });
                        }
                    }
                }
            }
            // Drop worker-side converter state for the client's ACs.
            let mut notified: Vec<usize> = Vec::new();
            for d in &self.core.devices {
                if let Some(w) = &d.worker {
                    if !notified.contains(&w.worker_id) {
                        notified.push(w.worker_id);
                        let _ = w.tx.send(AudioJob::ForgetAc {
                            client: id,
                            ac: None,
                        });
                    }
                }
            }
            ServerStats::bump(&self.core.stats.disconnects);
            ServerStats::set(
                &self.core.stats.clients_current,
                self.core.clients.len() as u64,
            );
        }
    }

    /// Forcibly disconnects `id`: closes its socket (unblocking the reader
    /// thread) and drops its state (closing the writer's queue).  The
    /// reader's eventual `Disconnect` event finds nothing and is a no-op.
    fn evict(&mut self, id: ClientId) {
        if let Some(c) = self.core.clients.get(&id) {
            (c.kick)();
        }
        self.remove_client(id);
    }

    /// Evicts every client whose outbound queue overflowed.  Cleared
    /// before the scan, so an overflow raised during it rescans next time.
    fn evict_overflowed(&mut self) {
        if !self.core.any_overflow.swap(false, Ordering::AcqRel) {
            return;
        }
        let ids: Vec<ClientId> = self
            .core
            .clients
            .iter()
            .filter(|(_, c)| c.overflowed.is_raised())
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            ServerStats::bump(&self.core.stats.evicted_slow);
            self.evict(id);
        }
    }

    /// Evicts clients that have sent nothing for the idle timeout.
    ///
    /// Suspended clients are exempt: they are waiting on the *server* (a
    /// play past the horizon, a blocking record), not the other way round.
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let ids: Vec<ClientId> = self
            .core
            .clients
            .iter()
            .filter(|(_, c)| {
                c.blocked.is_none()
                    && !c.awaiting_worker
                    && now.duration_since(c.last_activity) > timeout
            })
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            ServerStats::bump(&self.core.stats.evicted_idle);
            self.evict(id);
        }
    }

    // ---- The update task (§7.2). ----

    fn run_update(&mut self) {
        // Worker-owned devices have `buffers == None` here and update on
        // their own threads; this loop covers only dispatcher-owned ones.
        for dev in &mut self.core.devices {
            let gain = dev.output_gain_db;
            let enabled = dev.output_enabled();
            if let Some(b) = dev.buffers.as_mut() {
                b.update(gain, enabled);
            }
        }
        self.run_passthrough();
        self.poll_phone_events();
        self.retry_blocked_all();
        self.sweep_idle();
        self.evict_overflowed();
    }

    /// Fans an explicit update out to every worker and waits for the
    /// acks, so `ServerHandle::run_update` remains a synchronous barrier
    /// over the whole server in sharded mode.  The periodic task does
    /// *not* call this — workers run their own periodic updates.
    fn run_worker_updates(&mut self) {
        let mut acks = Vec::with_capacity(self.workers.len());
        for w in &self.workers {
            let (ack, done) = crossbeam_channel::bounded(1);
            if w.tx.send(AudioJob::Update { ack }).is_ok() {
                acks.push(done);
            }
        }
        for done in acks {
            let _ = done.recv_timeout(Duration::from_secs(10));
        }
    }

    /// Moves audio directly between pass-through-connected device pairs.
    ///
    /// LoFi routed this in hardware; here the update task copies the
    /// freshest recorded frames of each device into the other's playback
    /// stream a small lead ahead of now (§7.4.1, "Pass-Through").
    fn run_passthrough(&mut self) {
        for i in 0..self.core.devices.len() {
            let (enabled, peer) = {
                let d = &self.core.devices[i];
                (d.passthrough, d.passthrough_peer)
            };
            let Some(j) = peer else { continue };
            if !enabled || i >= self.core.devices.len() || j >= self.core.devices.len() || i == j {
                continue;
            }
            // Copy peer's fresh record data into our play stream.
            let (src, dst) = if i < j {
                let (a, b) = self.core.devices.split_at_mut(j);
                (&mut b[0], &mut a[i])
            } else {
                let (a, b) = self.core.devices.split_at_mut(i);
                (&mut a[j], &mut b[0])
            };
            let (Some(sb), Some(db)) = (src.buffers.as_mut(), dst.buffers.as_mut()) else {
                continue; // Mono views cannot be pass-through endpoints.
            };
            // dst.pt_in tracks how much of src's record stream we consumed.
            let avail = sb.recorded_until() - dst.pt_in;
            if avail <= 0 {
                continue;
            }
            let frames = (avail as u32).min(sb.frames() / 2);
            let data = sb.read_rec(dst.pt_in, frames);
            let gain = dst.output_gain_db;
            let out_enabled = dst.outputs_enabled != 0;
            db.write_play(dst.pt_out, &data, false, gain, out_enabled);
            dst.pt_in += frames;
            dst.pt_out += frames;
        }
    }

    fn poll_phone_events(&mut self) {
        let mut outgoing: Vec<(DeviceId, Event)> = Vec::new();
        for (idx, dev) in self.core.devices.iter_mut().enumerate() {
            let Some(phone) = &dev.phone else { continue };
            let signals = phone.poll_signals();
            if signals.is_empty() {
                continue;
            }
            let device_time = match dev.buffers.as_mut() {
                Some(b) => b.now(),
                None => dev.worker.as_ref().map(|w| w.now()).unwrap_or(ATime::ZERO),
            };
            for s in signals {
                let detail = match s {
                    af_device::PhoneSignal::Ring(r) => EventDetail::Ring { ringing: r },
                    af_device::PhoneSignal::Dtmf { digit, down } => EventDetail::Dtmf {
                        digit: digit as u8,
                        down,
                    },
                    af_device::PhoneSignal::Loop(c) => EventDetail::Loop { current: c },
                    af_device::PhoneSignal::Hook(h) => EventDetail::Hook { off_hook: h },
                };
                outgoing.push((
                    idx as DeviceId,
                    Event {
                        device: idx as DeviceId,
                        device_time,
                        host_time_ms: host_time_ms(),
                        detail,
                    },
                ));
            }
        }
        for (device, event) in outgoing {
            self.broadcast_event(device, &event);
        }
    }

    fn broadcast_event(&mut self, device: DeviceId, event: &Event) {
        let kind = event.detail.kind();
        for client in self.core.clients.values() {
            if client.mask_for(device).selects(kind) {
                client.send(event.encode(client.order, client.seq));
            }
        }
    }

    // ---- Suspended clients (the task-resume mechanism). ----

    fn retry_blocked_all(&mut self) {
        let ids: Vec<ClientId> = self
            .core
            .clients
            .iter()
            .filter(|(_, c)| c.blocked.is_some())
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.retry_blocked(id);
            // A completed request may unblock queued requests.
            self.drain_queue(id);
        }
    }

    /// Retries only the clients suspended on `device` — the scoped form a
    /// `WakeBlocked(device)` task runs, so one device's wake-up does not
    /// re-attempt every suspended request server-wide.
    fn retry_blocked_device(&mut self, device: DeviceId) {
        let ids: Vec<ClientId> = self
            .core
            .clients
            .iter()
            .filter(|(_, c)| c.blocked.as_ref().is_some_and(|b| b.op.device() == device))
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.retry_blocked(id);
            self.drain_queue(id);
        }
    }

    fn drain_queue(&mut self, id: ClientId) {
        loop {
            let raw = {
                let Some(c) = self.core.clients.get_mut(&id) else {
                    return;
                };
                if c.blocked.is_some() || c.awaiting_worker {
                    return;
                }
                match c.queue.pop_front() {
                    Some(r) => r,
                    None => return,
                }
            };
            self.process_request(id, raw);
        }
    }

    fn retry_blocked(&mut self, id: ClientId) {
        let Some(client) = self.core.clients.get_mut(&id) else {
            return;
        };
        let Some(blocked) = client.blocked.take() else {
            return;
        };
        let seq = blocked.seq;
        let order = client.order;
        match blocked.op {
            BlockedOp::Play {
                device,
                preempt,
                start,
                frames,
                offset,
                suppress_reply,
            } => {
                let (gain, enabled) = self.core.output_state(device);
                let Some((buffers, lane, channels)) = self.core.buffers_mut(device) else {
                    return;
                };
                let fb = match lane {
                    Some(_) => buffers.frame_bytes() / channels.max(1) as usize,
                    None => buffers.frame_bytes(),
                };
                let pending = &frames[offset..];
                let outcome = match lane {
                    Some(ch) => buffers
                        .write_play_channel(start, pending, ch, channels, preempt, gain, enabled),
                    None => buffers.write_play(start, pending, preempt, gain, enabled),
                };
                let consumed = (outcome.dropped_past + outcome.written) as usize * fb;
                if outcome.beyond_horizon > 0 {
                    // Advance the cursor instead of re-copying the tail: the
                    // request bytes are written exactly once no matter how
                    // many wake-ups it takes to drain them.
                    let new_start = start + (outcome.dropped_past + outcome.written);
                    let wake = self.play_wake_instant(device, outcome.beyond_horizon);
                    let Some(client) = self.core.clients.get_mut(&id) else {
                        return; // disconnected mid-retry; drop the blocked op
                    };
                    client.blocked = Some(Blocked {
                        seq,
                        op: BlockedOp::Play {
                            device,
                            preempt,
                            start: new_start,
                            frames,
                            offset: offset + consumed,
                            suppress_reply,
                        },
                    });
                    self.tasks.schedule(wake, TaskKind::WakeBlocked(device));
                } else if !suppress_reply {
                    let now = self.core.dev_now(device);
                    self.send_reply_to(id, order, seq, &Reply::Time { time: now });
                }
            }
            BlockedOp::Record {
                ac,
                device,
                start,
                nframes,
                big_endian,
            } => {
                let ready = {
                    let Some((buffers, _, _)) = self.core.buffers_mut(device) else {
                        return;
                    };
                    let end = start + nframes;
                    !end.is_after(buffers.recorded_until())
                };
                if ready {
                    self.finish_record(id, order, seq, ac, device, start, nframes, big_endian);
                } else {
                    let remaining = {
                        let Some((buffers, _, _)) = self.core.buffers_mut(device) else {
                            return; // device vanished since the check above
                        };
                        let end = start + nframes;
                        (end - buffers.recorded_until()).max(1) as u32
                    };
                    let wake = self.play_wake_instant(device, remaining);
                    let Some(client) = self.core.clients.get_mut(&id) else {
                        return; // disconnected mid-retry; drop the blocked op
                    };
                    client.blocked = Some(Blocked {
                        seq,
                        op: BlockedOp::Record {
                            ac,
                            device,
                            start,
                            nframes,
                            big_endian,
                        },
                    });
                    self.tasks.schedule(wake, TaskKind::WakeBlocked(device));
                }
            }
        }
    }

    /// Estimates when `frames` more frames will have elapsed on `device`.
    fn play_wake_instant(&self, device: DeviceId, frames: u32) -> Instant {
        let rate = self
            .core
            .devices
            .get(device as usize)
            .map(|d| d.desc.play_sample_freq)
            .unwrap_or(8000)
            .max(1);
        let secs = f64::from(frames) / f64::from(rate);
        Instant::now() + Duration::from_secs_f64(secs.max(0.001))
    }

    // ---- Request processing. ----

    fn process_request(&mut self, id: ClientId, raw: RawRequest) {
        let Some(client) = self.core.clients.get_mut(&id) else {
            return;
        };
        client.seq = client.seq.wrapping_add(1);
        let seq = client.seq;
        let order = client.order;

        let opcode = match Opcode::from_wire(raw.opcode) {
            Ok(op) => op,
            Err(_) => {
                self.send_error_to(
                    id,
                    order,
                    seq,
                    ErrorCode::BadRequest,
                    u32::from(raw.opcode),
                    raw.opcode,
                );
                return;
            }
        };
        let request = match Request::decode(order, opcode, &raw.payload) {
            Ok(r) => r,
            Err(_) => {
                self.send_error_to(id, order, seq, ErrorCode::BadLength, 0, opcode.to_wire());
                return;
            }
        };
        self.dispatch(id, order, seq, opcode, request);
    }

    fn dispatch(
        &mut self,
        id: ClientId,
        order: af_proto::ByteOrder,
        seq: u16,
        opcode: Opcode,
        request: Request,
    ) {
        use Request as R;
        let result: Result<Option<Reply>, (ErrorCode, u32)> = match request {
            R::SelectEvents { device, mask } => self.h_select_events(id, device, mask),
            R::CreateAc {
                id: ac_id,
                device,
                mask,
                attrs,
            } => self.h_create_ac(id, ac_id, device, mask, attrs),
            R::ChangeAcAttributes {
                id: ac_id,
                mask,
                attrs,
            } => self.h_change_ac(id, ac_id, mask, attrs),
            R::FreeAc { id: ac_id } => self.h_free_ac(id, ac_id),
            R::PlaySamples {
                ac,
                start_time,
                flags,
                data,
            } => {
                // Play may suspend the client; it handles its own reply.
                self.h_play(id, order, seq, ac, start_time, flags, data);
                return;
            }
            R::RecordSamples {
                ac,
                start_time,
                nbytes,
                flags,
            } => {
                self.h_record(id, order, seq, ac, start_time, nbytes, flags);
                return;
            }
            R::GetTime { device } => match self.core.try_dev_now(device) {
                // Sharded devices answer from the worker's atomic snapshot,
                // so GetTime never waits on the data plane.
                Some(now) => Ok(Some(Reply::Time { time: now })),
                None => Err((ErrorCode::BadDevice, u32::from(device))),
            },
            R::QueryPhone { device } => self.h_query_phone(device),
            R::EnablePassThrough { device } => self.h_passthrough(device, true),
            R::DisablePassThrough { device } => self.h_passthrough(device, false),
            R::HookSwitch { device, off_hook } => self.h_hookswitch(device, off_hook),
            R::FlashHook { device } => self.h_flashhook(device),
            R::EnableGainControl { device } | R::DisableGainControl { device } => {
                // "Not for general use": accepted as no-ops.
                self.core
                    .device(device)
                    .map(|_| None)
                    .ok_or((ErrorCode::BadDevice, u32::from(device)))
            }
            R::DialPhone { .. } => Err((ErrorCode::BadImplementation, 0)),
            R::SetInputGain { device, db } => self.h_set_gain(device, db, true),
            R::SetOutputGain { device, db } => self.h_set_gain(device, db, false),
            R::QueryInputGain { device } => self.h_query_gain(device, true),
            R::QueryOutputGain { device } => self.h_query_gain(device, false),
            R::EnableInput { device, mask } => self.h_io_control(device, mask, true, true),
            R::EnableOutput { device, mask } => self.h_io_control(device, mask, false, true),
            R::DisableInput { device, mask } => self.h_io_control(device, mask, true, false),
            R::DisableOutput { device, mask } => self.h_io_control(device, mask, false, false),
            R::SetAccessControl { enabled } => {
                self.core.access.set_enabled(enabled);
                Ok(None)
            }
            R::ChangeHosts { insert, address } => {
                if address.len() == 4 || address.len() == 16 {
                    self.core.access.change(insert, &address);
                    Ok(None)
                } else {
                    Err((ErrorCode::BadValue, address.len() as u32))
                }
            }
            R::ListHosts => Ok(Some(Reply::Hosts {
                enabled: self.core.access.enabled(),
                hosts: self.core.access.hosts().to_vec(),
            })),
            R::InternAtom {
                only_if_exists,
                name,
            } => Ok(Some(Reply::InternedAtom {
                atom: self.core.atoms.intern(&name, only_if_exists),
            })),
            R::GetAtomName { atom } => match self.core.atoms.name(atom) {
                Some(n) => Ok(Some(Reply::AtomName {
                    name: n.to_string(),
                })),
                None => Err((ErrorCode::BadAtom, atom.0)),
            },
            R::ChangeProperty {
                device,
                mode,
                property,
                type_,
                data,
            } => self.h_change_property(device, mode, property, type_, data),
            R::DeleteProperty { device, property } => self.h_delete_property(device, property),
            R::GetProperty {
                device,
                delete,
                property,
                type_,
            } => self.h_get_property(device, delete, property, type_),
            R::ListProperties { device } => self
                .core
                .device(device)
                .map(|d| {
                    let mut atoms: Vec<Atom> = d.properties.keys().copied().collect();
                    atoms.sort();
                    Some(Reply::Properties { atoms })
                })
                .ok_or((ErrorCode::BadDevice, u32::from(device))),
            R::NoOperation => Ok(None),
            R::SyncConnection => Ok(Some(Reply::Sync)),
            R::QueryExtension { .. } => Ok(Some(Reply::Extension { present: false })),
            R::ListExtensions => Ok(Some(Reply::Extensions { names: Vec::new() })),
            R::KillClient { .. } => Err((ErrorCode::BadImplementation, 0)),
        };
        match result {
            Ok(Some(reply)) => self.send_reply_to(id, order, seq, &reply),
            Ok(None) => {}
            Err((code, bad_value)) => {
                self.send_error_to(id, order, seq, code, bad_value, opcode.to_wire())
            }
        }
    }

    // ---- Individual handlers. ----

    fn h_select_events(
        &mut self,
        id: ClientId,
        device: DeviceId,
        mask: EventMask,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        if self.core.device(device).is_none() {
            return Err((ErrorCode::BadDevice, u32::from(device)));
        }
        if let Some(c) = self.core.clients.get_mut(&id) {
            c.event_masks.insert(device, mask);
        }
        Ok(None)
    }

    fn h_create_ac(
        &mut self,
        id: ClientId,
        ac_id: AcId,
        device: DeviceId,
        mask: AcMask,
        attrs: AcAttributes,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let (dev_enc, dev_channels) = {
            let (owner, _lane) = self
                .core
                .resolve(device)
                .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
            let enc = self
                .core
                .owner_encoding(owner)
                .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
            // Mono views advertise one channel over the owner's encoding.
            let channels = self.core.devices[device as usize].desc.play_nchannels;
            (enc, channels)
        };
        // The AC starts from device-native defaults, then applies the
        // client's chosen fields.
        let mut effective = AcAttributes {
            encoding: dev_enc,
            channels: dev_channels,
            ..AcAttributes::default()
        };
        effective.apply(mask, &attrs);
        if effective.channels != dev_channels {
            return Err((ErrorCode::BadMatch, u32::from(effective.channels)));
        }
        // The device advertises the sample types its conversion modules
        // handle (§5.4); anything else is a mismatch.
        let supported = self.core.devices[device as usize]
            .desc
            .supports(effective.encoding);
        if !supported || !effective.encoding.is_convertible() {
            return Err((ErrorCode::BadMatch, u32::from(effective.encoding.to_wire())));
        }
        let play_conv =
            Converter::new(effective.encoding, dev_enc).map_err(|_| (ErrorCode::BadMatch, 0))?;
        let rec_conv =
            Converter::new(dev_enc, effective.encoding).map_err(|_| (ErrorCode::BadMatch, 0))?;
        let client = self
            .core
            .clients
            .get_mut(&id)
            .ok_or((ErrorCode::BadAccess, 0))?;
        if client.acs.contains_key(&ac_id) {
            return Err((ErrorCode::BadIdChoice, ac_id));
        }
        client.acs.insert(
            ac_id,
            ServerAc {
                device,
                attrs: effective,
                play_conv,
                rec_conv,
                recording: false,
            },
        );
        Ok(None)
    }

    fn h_change_ac(
        &mut self,
        id: ClientId,
        ac_id: AcId,
        mask: AcMask,
        attrs: AcAttributes,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let device_channels: HashMap<DeviceId, (af_dsp::Encoding, u8)> =
            (0..self.core.devices.len())
                .filter_map(|i| {
                    let id = i as DeviceId;
                    let (owner, _) = self.core.resolve(id)?;
                    let enc = self.core.owner_encoding(owner)?;
                    Some((id, (enc, self.core.devices[i].desc.play_nchannels)))
                })
                .collect();
        let client = self
            .core
            .clients
            .get_mut(&id)
            .ok_or((ErrorCode::BadAccess, 0))?;
        let ac = client
            .acs
            .get_mut(&ac_id)
            .ok_or((ErrorCode::BadAc, ac_id))?;
        let old_encoding = ac.attrs.encoding;
        ac.attrs.apply(mask, &attrs);
        let (dev_enc, dev_channels) = device_channels[&ac.device];
        if ac.attrs.channels != dev_channels {
            ac.attrs.channels = dev_channels;
            return Err((ErrorCode::BadMatch, 0));
        }
        if ac.attrs.encoding != old_encoding {
            ac.play_conv = Converter::new(ac.attrs.encoding, dev_enc)
                .map_err(|_| (ErrorCode::BadMatch, u32::from(ac.attrs.encoding.to_wire())))?;
            ac.rec_conv =
                Converter::new(dev_enc, ac.attrs.encoding).map_err(|_| (ErrorCode::BadMatch, 0))?;
        }
        Ok(None)
    }

    fn h_free_ac(&mut self, id: ClientId, ac_id: AcId) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let client = self
            .core
            .clients
            .get_mut(&id)
            .ok_or((ErrorCode::BadAccess, 0))?;
        let ac = client.acs.remove(&ac_id).ok_or((ErrorCode::BadAc, ac_id))?;
        if let Some((owner, _)) = self.core.resolve(ac.device) {
            if let Some(w) = &self.core.devices[owner].worker {
                if ac.recording {
                    let _ = w.tx.send(AudioJob::RemoveRecorder { device: owner });
                }
                // Drop the worker's cached converters so a recreated AC
                // starts with fresh codec state, matching the per-AC
                // converters of the classic path.
                let _ = w.tx.send(AudioJob::ForgetAc {
                    client: id,
                    ac: Some(ac_id),
                });
                return Ok(None);
            }
        }
        if ac.recording {
            if let Some((buffers, _, _)) = self.core.buffers_mut(ac.device) {
                buffers.remove_recorder();
            }
        }
        Ok(None)
    }

    #[allow(clippy::too_many_arguments)]
    fn h_play(
        &mut self,
        id: ClientId,
        order: af_proto::ByteOrder,
        seq: u16,
        ac_id: AcId,
        start_time: ATime,
        flags: u8,
        mut data: Vec<u8>,
    ) {
        // Sharded data plane: validate here (control plane), then hand the
        // raw payload to the owning device's worker.  Byte swapping,
        // conversion, gain, and the ring write all happen in-ring on the
        // worker thread; control state is captured now so the job sees
        // exactly what a synchronous request would have seen.
        let sharded = {
            let Some(client) = self.core.clients.get(&id) else {
                return;
            };
            let Some(ac) = client.acs.get(&ac_id) else {
                self.send_error_to(
                    id,
                    order,
                    seq,
                    ErrorCode::BadAc,
                    ac_id,
                    Opcode::PlaySamples.to_wire(),
                );
                return;
            };
            let device = ac.device;
            match self.core.resolve(device) {
                Some((owner, lane)) if self.core.devices[owner].worker.is_some() => Some((
                    owner,
                    lane,
                    device,
                    ac.attrs.big_endian_data || flags & play_flags::BIG_ENDIAN_DATA != 0,
                    ac.attrs.encoding,
                    i32::from(ac.attrs.play_gain_db),
                    ac.attrs.preempt || flags & play_flags::PREEMPT != 0,
                    flags & play_flags::SUPPRESS_REPLY != 0,
                )),
                _ => None,
            }
        };
        if let Some((owner, lane, device, swap_bytes, src_enc, play_gain_db, preempt, suppress)) =
            sharded
        {
            let (out_gain_db, out_enabled) = self.core.output_state(device);
            // Checked sharded above, but never panic the dispatcher on an
            // internal inconsistency: report it and keep serving.
            let Some(w) = self.core.devices[owner].worker.as_ref() else {
                self.send_error_to(
                    id,
                    order,
                    seq,
                    ErrorCode::BadImplementation,
                    ac_id,
                    Opcode::PlaySamples.to_wire(),
                );
                return;
            };
            let sink = {
                let Some(client) = self.core.clients.get_mut(&id) else {
                    return;
                };
                client.awaiting_worker = true;
                client.reply_sink(&self.core.pool)
            };
            let _ = w.tx.send(AudioJob::Play {
                sink,
                client: id,
                ac: ac_id,
                seq,
                device: owner,
                lane,
                start: start_time,
                preempt,
                suppress_reply: suppress,
                swap_bytes,
                src_enc,
                play_gain_db,
                out_gain_db,
                out_enabled,
                data,
            });
            w.stats.observe_depth(w.tx.len() as u64);
            return;
        }
        // Convert through the AC pipeline to device frames.
        let (device, preempt, suppress) = {
            let Some(client) = self.core.clients.get_mut(&id) else {
                return;
            };
            let Some(ac) = client.acs.get_mut(&ac_id) else {
                self.send_error_to(
                    id,
                    order,
                    seq,
                    ErrorCode::BadAc,
                    ac_id,
                    Opcode::PlaySamples.to_wire(),
                );
                return;
            };
            let big = ac.attrs.big_endian_data || flags & play_flags::BIG_ENDIAN_DATA != 0;
            if big {
                crate::gain::swap_sample_bytes(ac.attrs.encoding, &mut data);
            }
            // Identity ACs skip conversion (and its copy) outright; other
            // pipelines convert into the dispatcher's reusable scratch.
            if !ac.play_conv.is_identity() {
                let mut converted = std::mem::take(&mut self.conv_buf);
                match ac.play_conv.convert_into(&data, &mut converted) {
                    Ok(()) => {
                        std::mem::swap(&mut data, &mut converted);
                        self.conv_buf = converted;
                    }
                    Err(_) => {
                        self.conv_buf = converted;
                        self.send_error_to(
                            id,
                            order,
                            seq,
                            ErrorCode::BadLength,
                            data.len() as u32,
                            Opcode::PlaySamples.to_wire(),
                        );
                        return;
                    }
                }
            }
            (
                ac.device,
                ac.attrs.preempt || flags & play_flags::PREEMPT != 0,
                flags & play_flags::SUPPRESS_REPLY != 0,
            )
        };
        // Apply the AC's play gain in the owner's native encoding.
        let (play_gain, dev_enc) = {
            let Some(client) = self.core.clients.get(&id) else {
                return;
            };
            let Some(ac) = client.acs.get(&ac_id) else {
                return;
            };
            let enc = match self.core.resolve(device) {
                Some((owner, _)) => self.core.devices[owner]
                    .buffers
                    .as_ref()
                    .map(|b| b.encoding())
                    .unwrap_or(af_dsp::Encoding::Mu255),
                None => af_dsp::Encoding::Mu255,
            };
            (i32::from(ac.attrs.play_gain_db), enc)
        };
        crate::gain::apply_gain_bytes(dev_enc, &mut data, play_gain);
        let (gain, enabled) = self.core.output_state(device);
        let Some((buffers, lane, channels)) = self.core.buffers_mut(device) else {
            self.send_error_to(
                id,
                order,
                seq,
                ErrorCode::BadDevice,
                u32::from(device),
                Opcode::PlaySamples.to_wire(),
            );
            return;
        };
        let fb = match lane {
            Some(_) => buffers.frame_bytes() / channels.max(1) as usize,
            None => buffers.frame_bytes(),
        };
        if !data.len().is_multiple_of(fb) {
            self.send_error_to(
                id,
                order,
                seq,
                ErrorCode::BadLength,
                data.len() as u32,
                Opcode::PlaySamples.to_wire(),
            );
            return;
        }
        let outcome = match lane {
            Some(ch) => {
                buffers.write_play_channel(start_time, &data, ch, channels, preempt, gain, enabled)
            }
            None => buffers.write_play(start_time, &data, preempt, gain, enabled),
        };
        if outcome.beyond_horizon > 0 {
            // Suspend until time advances (§2.2: "requests that fall beyond
            // the four-second buffer are suspended").  The whole buffer moves
            // into the blocked op with a consumed-bytes cursor — no tail copy
            // here or on any retry.
            let consumed = (outcome.dropped_past + outcome.written) as usize * fb;
            let new_start = start_time + (outcome.dropped_past + outcome.written);
            let wake = self.play_wake_instant(device, outcome.beyond_horizon);
            if let Some(client) = self.core.clients.get_mut(&id) {
                client.blocked = Some(Blocked {
                    seq,
                    op: BlockedOp::Play {
                        device,
                        preempt,
                        start: new_start,
                        frames: data,
                        offset: consumed,
                        suppress_reply: suppress,
                    },
                });
            }
            self.tasks.schedule(wake, TaskKind::WakeBlocked(device));
            return;
        }
        if !suppress {
            let now = self.core.dev_now(device);
            self.send_reply_to(id, order, seq, &Reply::Time { time: now });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn h_record(
        &mut self,
        id: ClientId,
        order: af_proto::ByteOrder,
        seq: u16,
        ac_id: AcId,
        start_time: ATime,
        nbytes: u32,
        flags: u8,
    ) {
        if nbytes as usize > MAX_REQUEST_BYTES {
            self.send_error_to(
                id,
                order,
                seq,
                ErrorCode::BadValue,
                nbytes,
                Opcode::RecordSamples.to_wire(),
            );
            return;
        }
        let (device, nframes, big_endian, newly_recording, dst_enc, record_gain_db) = {
            let Some(client) = self.core.clients.get_mut(&id) else {
                return;
            };
            let Some(ac) = client.acs.get_mut(&ac_id) else {
                self.send_error_to(
                    id,
                    order,
                    seq,
                    ErrorCode::BadAc,
                    ac_id,
                    Opcode::RecordSamples.to_wire(),
                );
                return;
            };
            let samples = ac.attrs.encoding.samples_in_bytes(nbytes as usize);
            let nframes = (samples / ac.attrs.channels.max(1) as usize) as u32;
            let big = ac.attrs.big_endian_data || flags & record_flags::BIG_ENDIAN_DATA != 0;
            let newly = !ac.recording;
            if newly {
                // "The first record operation performed under a context
                // marks the context as recording."
                ac.recording = true;
            }
            (
                ac.device,
                nframes,
                big,
                newly,
                ac.attrs.encoding,
                i32::from(ac.attrs.record_gain_db),
            )
        };
        // Sharded data plane: the worker owns the record update, blocking,
        // and the read; the dispatcher only validates and captures
        // request-time control state.
        if let Some((owner, lane)) = self.core.resolve(device) {
            if self.core.devices[owner].worker.is_some() {
                let (out_gain_db, out_enabled) = self.core.output_state(device);
                // Checked sharded above, but never panic the dispatcher on
                // an internal inconsistency: report it and keep serving.
                let Some(w) = self.core.devices[owner].worker.as_ref() else {
                    self.send_error_to(
                        id,
                        order,
                        seq,
                        ErrorCode::BadImplementation,
                        ac_id,
                        Opcode::RecordSamples.to_wire(),
                    );
                    return;
                };
                let sink = {
                    let Some(client) = self.core.clients.get_mut(&id) else {
                        return;
                    };
                    client.awaiting_worker = true;
                    client.reply_sink(&self.core.pool)
                };
                let _ = w.tx.send(AudioJob::Record {
                    sink,
                    client: id,
                    ac: ac_id,
                    seq,
                    device: owner,
                    lane,
                    start: start_time,
                    nframes,
                    block: flags & record_flags::BLOCK != 0,
                    big_endian,
                    dst_enc,
                    record_gain_db,
                    add_recorder: newly_recording,
                    out_gain_db,
                    out_enabled,
                });
                w.stats.observe_depth(w.tx.len() as u64);
                return;
            }
        }
        let (gain, enabled) = self.core.output_state(device);
        let Some((buffers, _, _)) = self.core.buffers_mut(device) else {
            self.send_error_to(
                id,
                order,
                seq,
                ErrorCode::BadDevice,
                u32::from(device),
                Opcode::RecordSamples.to_wire(),
            );
            return;
        };
        if newly_recording {
            buffers.add_recorder();
        }
        let end = start_time + nframes;
        // Record update: make the buffer consistent if the request touches
        // the shaded region (§7.2).
        if end.is_after(buffers.recorded_until()) {
            buffers.update(gain, enabled);
        }
        let block = flags & record_flags::BLOCK != 0;
        if end.is_after(buffers.recorded_until()) {
            if block {
                let remaining = (end - buffers.recorded_until()).max(1) as u32;
                let wake = self.play_wake_instant(device, remaining);
                if let Some(client) = self.core.clients.get_mut(&id) {
                    client.blocked = Some(Blocked {
                        seq,
                        op: BlockedOp::Record {
                            ac: ac_id,
                            device,
                            start: start_time,
                            nframes,
                            big_endian,
                        },
                    });
                }
                self.tasks.schedule(wake, TaskKind::WakeBlocked(device));
                return;
            }
            // Non-blocking: return whatever is available now.
            let available = (buffers.recorded_until() - start_time).max(0) as u32;
            let nframes = available.min(nframes);
            self.finish_record(
                id, order, seq, ac_id, device, start_time, nframes, big_endian,
            );
            return;
        }
        self.finish_record(
            id, order, seq, ac_id, device, start_time, nframes, big_endian,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_record(
        &mut self,
        id: ClientId,
        order: af_proto::ByteOrder,
        seq: u16,
        ac_id: AcId,
        device: DeviceId,
        start: ATime,
        nframes: u32,
        big_endian: bool,
    ) {
        let (input_enabled, input_gain) = match self.core.resolve(device) {
            Some((owner, _)) => {
                let d = &self.core.devices[owner];
                (d.input_enabled(), d.input_gain_db)
            }
            None => return,
        };
        let (raw, now) = {
            let Some((buffers, lane, channels)) = self.core.buffers_mut(device) else {
                return;
            };
            let raw = match lane {
                Some(ch) => buffers.read_rec_channel(start, nframes, ch, channels),
                None => buffers.read_rec(start, nframes),
            };
            (raw, buffers.now())
        };
        let Some(client) = self.core.clients.get_mut(&id) else {
            return;
        };
        let Some(ac) = client.acs.get_mut(&ac_id) else {
            return;
        };
        let dev_enc = ac.rec_conv.from_encoding();
        let mut raw = raw;
        if !input_enabled {
            af_dsp::silence::fill_silence(dev_enc, &mut raw);
        } else {
            let total_gain = input_gain + i32::from(ac.attrs.record_gain_db);
            crate::gain::apply_gain_bytes(dev_enc, &mut raw, total_gain);
        }
        // Convert through the dispatcher's reusable scratch, and reclaim it
        // from the reply afterwards so steady recording never allocates here.
        let mut out = std::mem::take(&mut self.conv_buf);
        if ac.rec_conv.convert_into(&raw, &mut out).is_err() {
            out.clear();
        }
        if big_endian {
            crate::gain::swap_sample_bytes(ac.attrs.encoding, &mut out);
        }
        let reply = Reply::Record {
            time: now,
            data: out,
        };
        self.send_reply_to(id, order, seq, &reply);
        if let Reply::Record { data, .. } = reply {
            self.conv_buf = data;
        }
    }

    fn h_query_phone(&mut self, device: DeviceId) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let phone = dev
            .phone
            .as_ref()
            .ok_or((ErrorCode::BadMatch, u32::from(device)))?;
        let (off_hook, loop_current, ringing) = phone.query();
        Ok(Some(Reply::Phone {
            off_hook,
            loop_current,
            ringing,
        }))
    }

    fn h_hookswitch(
        &mut self,
        device: DeviceId,
        off_hook: bool,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let phone = dev
            .phone
            .as_ref()
            .ok_or((ErrorCode::BadMatch, u32::from(device)))?;
        phone.set_hook(off_hook);
        Ok(None)
    }

    fn h_flashhook(&mut self, device: DeviceId) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let phone = dev
            .phone
            .as_ref()
            .ok_or((ErrorCode::BadMatch, u32::from(device)))?;
        phone.flash_hook();
        Ok(None)
    }

    fn h_passthrough(
        &mut self,
        device: DeviceId,
        enable: bool,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let ndev = self.core.devices.len();
        let di = device as usize;
        if di >= ndev {
            return Err((ErrorCode::BadDevice, u32::from(device)));
        }
        let peer = self.core.devices[di]
            .passthrough_peer
            .filter(|p| *p < ndev && *p != di)
            .ok_or((ErrorCode::BadMatch, u32::from(device)))?;
        if self.core.devices[di].passthrough == enable {
            return Ok(None);
        }
        // Sharded data plane: passthrough pairs are grouped onto one worker
        // by the builder, so the cursor work happens in-ring.  The
        // dispatcher mirrors the flags so idempotence and peer lookups keep
        // working without consulting the worker.
        if let (Some(wd), Some(wp)) = (
            self.core.devices[di].worker.as_ref(),
            self.core.devices[peer].worker.as_ref(),
        ) {
            if wd.worker_id != wp.worker_id {
                return Err((ErrorCode::BadMatch, u32::from(device)));
            }
            let (ack, done) = crossbeam_channel::bounded(1);
            if wd
                .tx
                .send(AudioJob::SetPassthrough {
                    device: di,
                    peer,
                    enable,
                    ack,
                })
                .is_ok()
            {
                // Wait for the cursor setup so pass-through starts from the
                // device time of *this* request, as the classic path does.
                let _ = done.recv_timeout(Duration::from_secs(10));
            }
            self.core.devices[di].passthrough = enable;
            self.core.devices[peer].passthrough = enable;
            self.core.devices[peer].passthrough_peer = Some(di);
            return Ok(None);
        }
        // Pass-through needs both devices' record streams flowing, and
        // fresh cursors: consume the peer's stream from its current
        // position, write a small lead ahead of our own now.  Mono views
        // cannot be endpoints (they have no buffers of their own).
        for (a, b) in [(di, peer), (peer, di)] {
            if self.core.devices[a].buffers.is_none() || self.core.devices[b].buffers.is_none() {
                return Err((ErrorCode::BadMatch, u32::from(device)));
            }
        }
        for (a, b) in [(di, peer), (peer, di)] {
            // Both endpoints were verified to own buffers just above; if
            // that ever stops holding, fail the request, not the server.
            let Some(peer_rec) = self.core.devices[b]
                .buffers
                .as_ref()
                .map(|bufs| bufs.recorded_until())
            else {
                return Err((ErrorCode::BadMatch, u32::from(device)));
            };
            let dev = &mut self.core.devices[a];
            dev.passthrough = enable;
            let Some(bufs) = dev.buffers.as_mut() else {
                return Err((ErrorCode::BadMatch, u32::from(device)));
            };
            if enable {
                bufs.add_recorder();
                let lead = 800u32.min(bufs.frames() / 4);
                dev.pt_out = bufs.now() + lead;
                dev.pt_in = peer_rec;
            } else {
                bufs.remove_recorder();
            }
        }
        // Mirror the pairing so both directions flow in run_passthrough.
        self.core.devices[peer].passthrough_peer = Some(di);
        Ok(None)
    }

    fn h_set_gain(
        &mut self,
        device: DeviceId,
        db: i32,
        input: bool,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        // Gains live on the buffer owner: a mono view's volume is the
        // stereo device's volume (LoFi had no per-channel HiFi gain).
        let (owner, _) = self
            .core
            .resolve(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let dev = &mut self.core.devices[owner];
        let (min, max) = dev.gain_range;
        if db < min || db > max {
            return Err((ErrorCode::BadValue, db as u32));
        }
        if input {
            dev.input_gain_db = db;
        } else {
            dev.output_gain_db = db;
        }
        // Mirror into the worker's control block synchronously, before any
        // later job is enqueued, so the data plane observes control changes
        // in dispatch order.
        if let Some(w) = &dev.worker {
            let cell = if input {
                &w.control.input_gain_db
            } else {
                &w.control.output_gain_db
            };
            cell.store(db, std::sync::atomic::Ordering::Release);
        }
        Ok(None)
    }

    fn h_query_gain(
        &mut self,
        device: DeviceId,
        input: bool,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let (owner, _) = self
            .core
            .resolve(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let dev = &mut self.core.devices[owner];
        Ok(Some(Reply::Gain {
            min_db: dev.gain_range.0,
            max_db: dev.gain_range.1,
            current_db: if input {
                dev.input_gain_db
            } else {
                dev.output_gain_db
            },
        }))
    }

    fn h_io_control(
        &mut self,
        device: DeviceId,
        mask: u32,
        input: bool,
        enable: bool,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let (owner, _) = self
            .core
            .resolve(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let dev = &mut self.core.devices[owner];
        let count = if input {
            dev.desc.number_of_inputs
        } else {
            dev.desc.number_of_outputs
        };
        let valid = if count >= 32 {
            u32::MAX
        } else {
            (1u32 << count) - 1
        };
        if mask & !valid != 0 {
            return Err((ErrorCode::BadValue, mask));
        }
        let target = if input {
            &mut dev.inputs_enabled
        } else {
            &mut dev.outputs_enabled
        };
        if enable {
            *target |= mask;
        } else {
            *target &= !mask;
        }
        let updated = *target;
        if let Some(w) = &dev.worker {
            let cell = if input {
                &w.control.inputs_enabled
            } else {
                &w.control.outputs_enabled
            };
            cell.store(updated, std::sync::atomic::Ordering::Release);
        }
        Ok(None)
    }

    fn h_change_property(
        &mut self,
        device: DeviceId,
        mode: PropertyMode,
        property: Atom,
        type_: Atom,
        data: Vec<u8>,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        if self.core.atoms.name(property).is_none() {
            return Err((ErrorCode::BadAtom, property.0));
        }
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let entry = dev.properties.get_mut(&property);
        match (mode, entry) {
            (PropertyMode::Replace, _) => {
                dev.properties
                    .insert(property, PropertyValue { type_, data });
            }
            (PropertyMode::Prepend, Some(existing)) => {
                if existing.type_ != type_ {
                    return Err((ErrorCode::BadMatch, type_.0));
                }
                let mut combined = data;
                combined.extend_from_slice(&existing.data);
                existing.data = combined;
            }
            (PropertyMode::Append, Some(existing)) => {
                if existing.type_ != type_ {
                    return Err((ErrorCode::BadMatch, type_.0));
                }
                existing.data.extend_from_slice(&data);
            }
            (_, None) => {
                dev.properties
                    .insert(property, PropertyValue { type_, data });
            }
        }
        let now = self.core.dev_now(device);
        let event = Event {
            device,
            device_time: now,
            host_time_ms: host_time_ms(),
            detail: EventDetail::Property {
                atom: property,
                exists: true,
            },
        };
        self.broadcast_event(device, &event);
        Ok(None)
    }

    fn h_delete_property(
        &mut self,
        device: DeviceId,
        property: Atom,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        if dev.properties.remove(&property).is_some() {
            let now = self.core.dev_now(device);
            let event = Event {
                device,
                device_time: now,
                host_time_ms: host_time_ms(),
                detail: EventDetail::Property {
                    atom: property,
                    exists: false,
                },
            };
            self.broadcast_event(device, &event);
        }
        Ok(None)
    }

    fn h_get_property(
        &mut self,
        device: DeviceId,
        delete: bool,
        property: Atom,
        type_filter: Atom,
    ) -> Result<Option<Reply>, (ErrorCode, u32)> {
        let dev = self
            .core
            .device(device)
            .ok_or((ErrorCode::BadDevice, u32::from(device)))?;
        let Some(value) = dev.properties.get(&property) else {
            return Ok(Some(Reply::Property {
                type_: Atom::NONE,
                data: Vec::new(),
            }));
        };
        if !type_filter.is_none() && type_filter != value.type_ {
            // Type mismatch: report the actual type with no data, as X does.
            return Ok(Some(Reply::Property {
                type_: value.type_,
                data: Vec::new(),
            }));
        }
        let reply = Reply::Property {
            type_: value.type_,
            data: value.data.clone(),
        };
        if delete {
            dev.properties.remove(&property);
            let now = self.core.dev_now(device);
            let event = Event {
                device,
                device_time: now,
                host_time_ms: host_time_ms(),
                detail: EventDetail::Property {
                    atom: property,
                    exists: false,
                },
            };
            self.broadcast_event(device, &event);
        }
        Ok(Some(reply))
    }

    // ---- Outbound helpers. ----

    fn send_reply_to(&self, id: ClientId, order: af_proto::ByteOrder, seq: u16, reply: &Reply) {
        if let Some(c) = self.core.clients.get(&id) {
            // Header and payload are encoded into one pooled buffer: one
            // allocation-free encode, one `write` on the transport, and the
            // writer thread's drop recycles the storage.
            let mut buf = self.core.pool.take_empty();
            reply.encode_into(order, seq, buf.vec_mut());
            c.send(buf);
        }
    }

    fn send_error_to(
        &self,
        id: ClientId,
        order: af_proto::ByteOrder,
        seq: u16,
        code: ErrorCode,
        bad_value: u32,
        opcode: u8,
    ) {
        if let Some(c) = self.core.clients.get(&id) {
            c.send(message::encode_error(
                order,
                &WireError {
                    code,
                    sequence: seq,
                    bad_value,
                    opcode,
                },
            ));
        }
    }
}
