//! Loom-style model checks for the sharded data plane's handoff protocols.
//!
//! The dispatcher/worker split (src/worker.rs, src/dispatch.rs) rests on a
//! few cross-thread protocols that ordinary tests exercise under only one
//! interleaving.  Each model below re-states one protocol with the same
//! atomics/queue shapes as the server and asserts its invariant under
//! *every* interleaving of the synchronization operations, via the `loom`
//! shim's exhaustive schedule exploration:
//!
//! 1. job-queue handoff: the `awaiting_worker` flag admits at most one
//!    in-flight job per client, and a completion is never lost.
//! 2. device-time publication: `GetTime` snapshots published through an
//!    `AtomicU64` are monotonic from the dispatcher's point of view.
//! 3. `DeviceControl` mirroring: control stores precede job enqueue, so a
//!    worker processing a job always sees the settings that were current
//!    when the job was submitted.
//! 4. per-device `WakeBlocked`: a wake event enqueued after freeing space
//!    can never be observed before the space is visible (no lost wakeup),
//!    and it stays scoped to its own device.
//! 5. write-through reply path: a producer pushes a reply, takes the
//!    connection's writer with a try-lock and writes the queue itself,
//!    falling back to the shard wakeup when the socket refuses bytes or
//!    the lock is busy, and rechecking the queue after it unlocks.
//!    Invariants: every reply is written exactly once and in push order,
//!    and no reply is ever left with neither a lock holder nor a pending
//!    wake (no lost wakeup).
//!
//! Models must stay tiny (two threads, a handful of operations): the
//! schedule space is explored exhaustively.

use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Scenario 1 — SPSC job-queue handoff with the `awaiting_worker` gate.
///
/// The dispatcher enqueues a job only after winning `awaiting_worker`
/// (false → true); the worker drains the job and clears the flag *after*
/// recording the completion.  Invariant: the queue never holds more than
/// one job for the client, and a second submission either queues (it saw
/// the flag already cleared) or is counted blocked — never silently lost.
#[test]
fn job_queue_admits_one_in_flight_job_per_client() {
    loom::model(|| {
        let queue = Arc::new(Mutex::new(VecDeque::new()));
        let awaiting = Arc::new(AtomicBool::new(false));
        let completions = Arc::new(AtomicUsize::new(0));

        // Dispatcher submits the first job: gate, then enqueue.
        assert!(!awaiting.swap(true, Ordering::SeqCst));
        queue.lock().unwrap().push_back(1u32);

        let worker = {
            let (queue, awaiting, completions) =
                (queue.clone(), awaiting.clone(), completions.clone());
            loom::thread::spawn(move || {
                let job = queue.lock().unwrap().pop_front();
                assert_eq!(job, Some(1), "job enqueued before spawn must be visible");
                // Completion recorded before the gate opens, mirroring the
                // worker sending WorkerDone before the dispatcher clears
                // `awaiting_worker`.
                completions.fetch_add(1, Ordering::SeqCst);
                awaiting.store(false, Ordering::SeqCst);
            })
        };

        // Dispatcher attempts a second submission concurrently.
        let second_blocked = awaiting.swap(true, Ordering::SeqCst);
        if !second_blocked {
            queue.lock().unwrap().push_back(2u32);
        }
        assert!(
            queue.lock().unwrap().len() <= 1,
            "gate must keep at most one job in flight"
        );

        worker.join().expect("worker thread");
        assert_eq!(completions.load(Ordering::SeqCst), 1, "completion lost");
        if second_blocked {
            // The submission was suspended; the queue drained to empty.
            assert!(queue.lock().unwrap().is_empty());
        } else {
            // It was admitted after the worker finished job 1.
            assert_eq!(queue.lock().unwrap().pop_front(), Some(2));
        }
    });
}

/// Scenario 2 — device-time snapshot publication (`GetTime` fast path).
///
/// The worker publishes successive tick snapshots into an `AtomicU64`; the
/// dispatcher answers `GetTime` from loads of the same cell.  Invariant:
/// reads are monotonic and only ever values the worker actually published.
#[test]
fn device_time_snapshots_read_monotonically() {
    loom::model(|| {
        let ticks = Arc::new(AtomicU64::new(0));

        let worker = {
            let ticks = ticks.clone();
            loom::thread::spawn(move || {
                ticks.store(1, Ordering::SeqCst);
                ticks.store(2, Ordering::SeqCst);
            })
        };

        let a = ticks.load(Ordering::SeqCst);
        let b = ticks.load(Ordering::SeqCst);
        assert!(a <= b, "GetTime went backwards: {a} then {b}");
        assert!(a <= 2 && b <= 2, "read a value never published");

        worker.join().expect("worker thread");
        assert_eq!(ticks.load(Ordering::SeqCst), 2);
    });
}

/// Scenario 3 — `DeviceControl` mirroring: store settings, then enqueue.
///
/// The dispatcher mirrors gain/enable into atomics *before* pushing the
/// job (dispatch happens-before the worker's pop through the queue lock).
/// Invariant: a worker that sees the job also sees the settings; a worker
/// that races ahead of the enqueue simply finds no job — it never processes
/// one with stale settings.
#[test]
fn worker_sees_control_settings_stored_before_enqueue() {
    loom::model(|| {
        let queue = Arc::new(Mutex::new(VecDeque::new()));
        let gain_db = Arc::new(AtomicU64::new(0));
        let enabled = Arc::new(AtomicBool::new(false));

        let worker = {
            let (queue, gain_db, enabled) = (queue.clone(), gain_db.clone(), enabled.clone());
            loom::thread::spawn(move || {
                let job = queue.lock().unwrap().pop_front();
                if let Some(j) = job {
                    assert_eq!(j, 7u32, "unexpected job");
                    assert_eq!(
                        gain_db.load(Ordering::SeqCst),
                        12,
                        "job visible but its control settings are not"
                    );
                    assert!(enabled.load(Ordering::SeqCst), "enable bit not mirrored");
                }
            })
        };

        // Dispatcher: mirror control state first, enqueue last.
        gain_db.store(12, Ordering::SeqCst);
        enabled.store(true, Ordering::SeqCst);
        queue.lock().unwrap().push_back(7u32);

        worker.join().expect("worker thread");
    });
}

/// Scenario 4 — per-device `WakeBlocked` carries no lost wakeups.
///
/// The worker frees ring space (`space_a`) and *then* enqueues the wake
/// event for device A.  Invariant: whenever the dispatcher observes the
/// wake event, the freed space is already visible, and device B's blocked
/// state is untouched by A's wakeup.
#[test]
fn wake_blocked_is_ordered_after_space_free_and_device_scoped() {
    loom::model(|| {
        let events = Arc::new(Mutex::new(Vec::new()));
        let space_a = Arc::new(AtomicBool::new(false));
        let blocked_b = Arc::new(AtomicBool::new(true));

        let worker = {
            let (events, space_a) = (events.clone(), space_a.clone());
            loom::thread::spawn(move || {
                space_a.store(true, Ordering::SeqCst);
                events.lock().unwrap().push(0u8); // WakeBlocked(device A)
            })
        };

        // Dispatcher polls the event queue once, concurrently.
        let polled = events.lock().unwrap().pop();
        if let Some(device) = polled {
            assert_eq!(device, 0, "wake scoped to device A");
            assert!(
                space_a.load(Ordering::SeqCst),
                "wake observed before the space that justified it"
            );
        }

        worker.join().expect("worker thread");
        assert!(
            blocked_b.load(Ordering::SeqCst),
            "device B woken by device A's event"
        );
        // Exactly one wake total: either the poll got it or it is queued.
        let queued = events.lock().unwrap().len();
        assert_eq!(queued + usize::from(polled.is_some()), 1);
    });
}

/// Scenario 5's shared state: one connection's reply path.
///
/// The queue and the wakeup (`notified` flag plus self-pipe bytes) are
/// model atomics and mutexes, so every access is a scheduling point.  The
/// writer lock is a flag taken only by compare-exchange — a try-lock, as
/// in the server.  What it guards (the outstanding partial write and the
/// socket) is plain std state touched only by the lock holder, or by the
/// model thread after every other thread has joined.
struct ReplyPath {
    /// Queued replies, plus every reply in push order.
    queue: Mutex<(VecDeque<u32>, Vec<u32>)>,
    writer: AtomicBool,
    /// A reply the socket refused; while set, only the shard writes.
    partial: std::sync::Mutex<Option<u32>>,
    /// Replies the socket still takes before it refuses bytes.
    room: std::sync::atomic::AtomicUsize,
    /// What reached the peer, in order.
    written: std::sync::Mutex<Vec<u32>>,
    notified: AtomicBool,
    /// Unread self-pipe bytes.
    pipe: AtomicUsize,
    /// Whether a producer rechecks the queue after unlocking.
    recheck: bool,
}

impl ReplyPath {
    fn new(room: usize, recheck: bool) -> ReplyPath {
        ReplyPath {
            queue: Mutex::new((VecDeque::new(), Vec::new())),
            writer: AtomicBool::new(false),
            partial: std::sync::Mutex::new(None),
            room: std::sync::atomic::AtomicUsize::new(room),
            written: std::sync::Mutex::new(Vec::new()),
            notified: AtomicBool::new(false),
            pipe: AtomicUsize::new(0),
            recheck,
        }
    }

    fn push(&self, reply: u32) {
        let mut q = self.queue.lock().unwrap();
        q.0.push_back(reply);
        q.1.push(reply);
    }

    fn try_lock(&self) -> bool {
        self.writer
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn unlock(&self) {
        self.writer.store(false, Ordering::SeqCst);
    }

    fn stalled(&self) -> bool {
        self.partial.lock().unwrap().is_some()
    }

    /// Lock held: writes the partial reply, then the queue, in order,
    /// until the socket refuses bytes.  Returns true on a stall.
    fn drain(&self) -> bool {
        loop {
            let held = self.partial.lock().unwrap().take();
            let Some(reply) = held.or_else(|| self.queue.lock().unwrap().0.pop_front()) else {
                return false;
            };
            let room = self.room.load(std::sync::atomic::Ordering::SeqCst);
            if room == 0 {
                *self.partial.lock().unwrap() = Some(reply);
                return true;
            }
            self.room
                .store(room - 1, std::sync::atomic::Ordering::SeqCst);
            self.written.lock().unwrap().push(reply);
        }
    }

    /// `ConnNotify::wake`: only the false→true edge writes the pipe.
    fn wake(&self) {
        if !self.notified.swap(true, Ordering::SeqCst) {
            self.pipe.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// `ConnOutbound::write_through`, run after every push.
    fn write_through(&self) {
        if !self.try_lock() {
            self.wake();
            return;
        }
        let done = !self.stalled() && !self.drain();
        self.unlock();
        if !done || (self.recheck && !self.queue.lock().unwrap().0.is_empty()) {
            self.wake();
        }
    }

    /// One shard pass: a pipe byte means flush (clearing `notified`
    /// first); otherwise armed write interest means the socket is
    /// writable again.  A busy lock is left to its holder's recheck.
    fn shard_round(&self, want_write: &mut bool) {
        if self.pipe.swap(0, Ordering::SeqCst) > 0 {
            self.notified.store(false, Ordering::SeqCst);
        } else if !*want_write {
            return;
        }
        if self.try_lock() {
            *want_write = self.drain();
            self.unlock();
        }
    }

    fn unwritten(&self) -> bool {
        self.stalled() || !self.queue.lock().unwrap().0.is_empty()
    }
}

/// Runs scenario 5 with two producers (a worker thread and the model
/// thread) racing one shard pass.  The socket takes one reply and then
/// refuses bytes until the peer reads, after every producer is done.
fn write_through_model(recheck: bool) {
    loom::model(move || {
        let path = Arc::new(ReplyPath::new(1, recheck));
        let worker = {
            let path = path.clone();
            loom::thread::spawn(move || {
                path.push(1);
                path.write_through();
            })
        };
        path.push(2);
        path.write_through();
        let mut want_write = false;
        path.shard_round(&mut want_write);
        worker.join().expect("worker thread");

        // Quiescent: no lock holder is left, so anything unwritten must
        // have a pending wake — a pipe byte or armed write interest.
        assert!(
            !path.unwritten() || path.pipe.load(Ordering::SeqCst) > 0 || want_write,
            "reply stranded with neither a lock holder nor a pending wake"
        );

        // The peer reads; the shard's remaining passes finish the job.
        path.room.store(8, std::sync::atomic::Ordering::SeqCst);
        for _ in 0..2 {
            path.shard_round(&mut want_write);
        }
        let pushed = path.queue.lock().unwrap().1.clone();
        let written = path.written.lock().unwrap().clone();
        assert_eq!(written, pushed, "replies lost, duplicated or reordered");
    });
}

/// Scenario 5 — the write-through reply path (`ConnOutbound` in
/// src/reactor/mod.rs): producer try-lock plus recheck after unlock, a
/// shard drain, and a socket that refuses bytes.  Every reply is written
/// exactly once, in push order, and none is stranded.
#[test]
fn write_through_reply_path_strands_no_reply() {
    write_through_model(true);
}

/// The inverse of scenario 5 — a producer that unlocks without
/// rechecking the queue strands a reply pushed while it held the lock
/// under some interleaving, and the checker must catch it.
#[test]
fn shim_catches_unlock_without_recheck_bug() {
    let failed = catch_unwind(AssertUnwindSafe(|| write_through_model(false))).is_err();
    assert!(
        failed,
        "the seeded unlock-without-recheck bug must be detected"
    );
}

/// The shim really explores more than one interleaving: a two-thread model
/// with racing stores must run under several schedules.
#[test]
fn shim_explores_multiple_schedules() {
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
    static RUNS: StdAtomicUsize = StdAtomicUsize::new(0);
    loom::model(|| {
        RUNS.fetch_add(1, StdOrdering::SeqCst);
        let x = Arc::new(AtomicU64::new(0));
        let t = {
            let x = x.clone();
            loom::thread::spawn(move || x.store(1, Ordering::SeqCst))
        };
        x.store(2, Ordering::SeqCst);
        t.join().expect("thread");
        let v = x.load(Ordering::SeqCst);
        assert!(v == 1 || v == 2);
    });
    assert!(
        RUNS.load(StdOrdering::SeqCst) > 1,
        "expected several schedules, got {}",
        RUNS.load(StdOrdering::SeqCst)
    );
}

/// The checker actually catches ordering bugs: enqueueing the wake event
/// *before* freeing the space (the inverse of scenario 4) must fail under
/// some interleaving.
#[test]
fn shim_catches_publication_order_bug() {
    let failed = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let events = Arc::new(Mutex::new(Vec::new()));
            let space = Arc::new(AtomicBool::new(false));

            let worker = {
                let (events, space) = (events.clone(), space.clone());
                loom::thread::spawn(move || {
                    events.lock().unwrap().push(0u8); // BUG: wake before free
                    space.store(true, Ordering::SeqCst);
                })
            };

            let polled = events.lock().unwrap().pop();
            if polled.is_some() {
                assert!(space.load(Ordering::SeqCst), "lost wakeup");
            }
            worker.join().expect("worker thread");
        });
    }))
    .is_err();
    assert!(failed, "the seeded lost-wakeup bug must be detected");
}

/// The checker detects deadlock: two threads taking two locks in opposite
/// orders must deadlock under some schedule, and the shim must report it
/// rather than hang.
#[test]
fn shim_detects_lock_order_deadlock() {
    let failed = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let t = {
                let (a, b) = (a.clone(), b.clone());
                loom::thread::spawn(move || {
                    let _ga = a.lock().unwrap();
                    let _gb = b.lock().unwrap();
                })
            };
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop((_ga, _gb));
            t.join().expect("thread");
        });
    }))
    .is_err();
    assert!(failed, "opposite lock order must be reported as deadlock");
}
