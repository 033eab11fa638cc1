//! Per-thread scheduler accounting from `/proc/self/task/*`.
//!
//! The server runs in this process, so its layers are told apart by thread
//! name: `af-reactor-*` (transport shards), `af-dispatcher` (§7.3.1
//! dispatcher and update task), `af-audio-*` (sharded data plane, off by
//! default) and the benchmark's own `pb-gen-*` load generators.  Each
//! thread's `schedstat` gives time on CPU, time runnable but waiting for a
//! CPU, and the number of times it was scheduled in.

use std::collections::BTreeMap;

#[derive(Clone, Debug)]
pub struct ThreadStat {
    pub comm: String,
    pub run_ns: u64,
    pub wait_ns: u64,
    pub slices: u64,
}

/// Every live thread of this process, keyed by tid.
pub fn snapshot() -> BTreeMap<u32, ThreadStat> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let path = entry.path();
        // A thread can exit between listing and reading; skip it.
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(path.join("comm")),
            std::fs::read_to_string(path.join("schedstat")),
        ) else {
            continue;
        };
        let f: Vec<u64> = stat
            .split_whitespace()
            .filter_map(|s| s.parse().ok())
            .collect();
        if f.len() < 3 {
            continue;
        }
        out.insert(
            tid,
            ThreadStat {
                comm: comm.trim().to_string(),
                run_ns: f[0],
                wait_ns: f[1],
                slices: f[2],
            },
        );
    }
    out
}

/// The calling thread's own counters.  Generator threads read these
/// themselves at start and end: a thread's `/proc` entry vanishes when it
/// exits, before a later snapshot could see it.
pub fn own() -> Group {
    let f: Vec<u64> = std::fs::read_to_string("/proc/thread-self/schedstat")
        .unwrap_or_default()
        .split_whitespace()
        .filter_map(|s| s.parse().ok())
        .collect();
    match f[..] {
        [run_ns, wait_ns, slices, ..] => Group {
            threads: 1,
            run_ns,
            wait_ns,
            slices,
        },
        _ => Group::default(),
    }
}

/// Scheduler deltas of one thread group between two snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct Group {
    pub threads: usize,
    pub run_ns: u64,
    pub wait_ns: u64,
    pub slices: u64,
}

/// Sums the deltas of every thread whose name starts with `prefix`.
/// Threads born between the snapshots count from zero.
pub fn group(
    before: &BTreeMap<u32, ThreadStat>,
    after: &BTreeMap<u32, ThreadStat>,
    prefix: &str,
) -> Group {
    let mut g = Group::default();
    for (tid, a) in after {
        if !a.comm.starts_with(prefix) {
            continue;
        }
        let (run, wait, slices) = match before.get(tid) {
            Some(b) if b.comm == a.comm => (b.run_ns, b.wait_ns, b.slices),
            _ => (0, 0, 0),
        };
        g.threads += 1;
        g.run_ns += a.run_ns.saturating_sub(run);
        g.wait_ns += a.wait_ns.saturating_sub(wait);
        g.slices += a.slices.saturating_sub(slices);
    }
    g
}

/// Thread groups the benchmark attributes time to.
pub const REACTOR: &str = "af-reactor-";
pub const DISPATCHER: &str = "af-dispatcher";
pub const AUDIO: &str = "af-audio-";
pub const GENERATOR: &str = "pb-gen-";

/// The layer accounting of one measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    pub reactor: Group,
    pub dispatch: Group,
    pub audio: Group,
    pub generator: Group,
}

impl Group {
    /// Counters accumulated since `start` (both from [`own`]).
    pub fn since(&self, start: &Group) -> Group {
        Group {
            threads: self.threads,
            run_ns: self.run_ns.saturating_sub(start.run_ns),
            wait_ns: self.wait_ns.saturating_sub(start.wait_ns),
            slices: self.slices.saturating_sub(start.slices),
        }
    }

    pub fn plus(&self, o: &Group) -> Group {
        Group {
            threads: self.threads + o.threads,
            run_ns: self.run_ns + o.run_ns,
            wait_ns: self.wait_ns + o.wait_ns,
            slices: self.slices + o.slices,
        }
    }
}

impl Layers {
    /// Groups the server threads' deltas, plus the generator threads' own
    /// accounting, failing loudly when an expected thread is missing: a
    /// renamed or vanished thread must not read as a layer that costs
    /// nothing.
    pub fn between(
        before: &BTreeMap<u32, ThreadStat>,
        after: &BTreeMap<u32, ThreadStat>,
        generator: Group,
    ) -> Result<Layers, String> {
        let l = Layers {
            reactor: group(before, after, REACTOR),
            dispatch: group(before, after, DISPATCHER),
            audio: group(before, after, AUDIO),
            generator,
        };
        for (name, g) in [
            (REACTOR, l.reactor),
            (DISPATCHER, l.dispatch),
            (GENERATOR, l.generator),
        ] {
            if g.threads == 0 {
                let seen: Vec<&str> = after.values().map(|t| t.comm.as_str()).collect();
                return Err(format!(
                    "expected thread group `{name}*` not found (threads: {seen:?})"
                ));
            }
        }
        Ok(l)
    }

    /// CPU time of every server thread (all `af-*` threads).
    pub fn server_run_ns(&self) -> u64 {
        self.reactor.run_ns + self.dispatch.run_ns + self.audio.run_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_named_threads_and_charges_their_cpu() {
        let before = snapshot();
        let worker = std::thread::Builder::new()
            .name("pb-gen-sched".into())
            .spawn(|| {
                let start = own();
                let t = std::time::Instant::now();
                let mut x = 0u64;
                while t.elapsed() < std::time::Duration::from_millis(20) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                (snapshot(), own().since(&start))
            })
            .expect("spawn");
        let (after, own_delta) = worker.join().expect("join");
        // Other tests run generator threads concurrently: match this one.
        let g = group(&before, &after, "pb-gen-sched");
        assert_eq!(g.threads, 1);
        assert!(g.run_ns >= 5_000_000, "run {} ns", g.run_ns);
        assert!(
            own_delta.run_ns >= 5_000_000,
            "own run {} ns",
            own_delta.run_ns
        );
        // A snapshot without server threads: the accounting must refuse
        // rather than charge them nothing.
        assert!(Layers::between(&before, &BTreeMap::new(), g).is_err());
    }
}
