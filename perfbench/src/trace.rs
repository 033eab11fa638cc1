//! In-memory spans for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public functions
//! (the program itself is not instrumented).  Each thread records into its
//! own [`Trace`]; the run merges them and writes one file at exit.

use crate::util::{json_str, now_ns};
use std::collections::BTreeMap;
use std::io::Write;

/// Spans kept per trace (a thread's, or a whole run's); beyond this they
/// are counted, not stored, so a long run cannot exhaust memory or disk.
const MAX_SPANS: usize = 500_000;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same trace, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation (request, call or round) this span belongs to.
    pub req: u64,
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Trace {
    /// Opens a span; returns its handle for [`Trace::close`] and for
    /// children's `parent`.
    pub fn open(&mut self, name: &'static str, req: u64, parent: u32) -> u32 {
        self.open_at(name, req, parent, now_ns())
    }

    /// Opens a span that started at `start_ns` (e.g. a request's due time).
    pub fn open_at(&mut self, name: &'static str, req: u64, parent: u32, start_ns: u64) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.close_at(id, now_ns());
    }

    pub fn close_at(&mut self, id: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, req, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Appends another trace, rebasing its parent links.  Past the cap
    /// only a prefix is kept; a parent always precedes its children, so
    /// every kept span's parent is kept too.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len() as u32;
        let keep = other
            .spans
            .len()
            .min(MAX_SPANS.saturating_sub(self.spans.len()));
        self.dropped += other.dropped + (other.spans.len() - keep) as u64;
        self.spans
            .extend(other.spans.into_iter().take(keep).map(|mut s| {
                if s.parent != NO_PARENT {
                    s.parent += base;
                }
                s
            }));
    }

    /// Per span name: (count, total duration ns, total self time ns).  Self
    /// time is a span's duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes `header` (the run record) and then every span, one JSON
    /// object per line.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_across_absorbed_traces() {
        let mut a = Trace::default();
        let p = a.open_at("op", 1, NO_PARENT, 100);
        let c = a.open_at("call", 1, p, 120);
        a.close_at(c, 170);
        a.close_at(p, 200);
        let mut b = Trace::default();
        let p2 = b.open_at("op", 2, NO_PARENT, 0);
        b.close_at(p2, 10);
        let mut all = Trace::default();
        all.absorb(b);
        all.absorb(a);
        let t = all.self_times();
        assert_eq!(t["op"], (2, 110, 60));
        assert_eq!(t["call"], (1, 50, 50));
        assert_eq!(all.spans[2].parent, 1);
    }
}
