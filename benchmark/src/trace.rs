//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `name, start, end, parent, job`. Spans are kept in memory and
//! written out when the run ends. A layer's *self time* is its spans'
//! duration minus the part their child spans cover; totals per name are
//! kept apart from the span list, so they stay complete even once the list
//! has reached its cap. Only the traced run (`--trace 1`) records spans;
//! the end-to-end numbers are measured with no tracer in the loop.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans of one name kept for the span file. Past this, spans of that name
/// still count toward its totals but are not stored. The cap is per name so
/// a dense layer (one span per emitted path) cannot crowd the sparse ones
/// (one span per HTTP job) out of the file.
const MAX_STORED_PER_NAME: u64 = 50_000;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the file, or `u32::MAX`.
    pub parent: u32,
    /// Repetition or job the span belongs to; spans of one job share it.
    pub job: u32,
}

/// Per-name sums over every span of that name, stored or not.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    /// Time covered by direct children.
    pub child_ns: u64,
    /// Spans of this name kept in the span list.
    stored: u64,
}

impl Total {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.total_ns.saturating_sub(self.child_ns) as f64 * 1e-9
    }
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Slot reserved in `spans`, if the cap allowed one.
    stored: Option<u32>,
}

/// One thread's span recorder. Threads each own one (sharing the epoch) and
/// the owner merges them with [`Tracer::absorb`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, Total>,
    dropped: u64,
}

/// Returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[must_use]
pub struct SpanGuard(usize);

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            dropped: 0,
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is open now.
    pub fn enter(&mut self, name: &'static str, job: u32) -> SpanGuard {
        let start_ns = self.now_ns();
        let total = self.totals.entry(name).or_default();
        let stored = (total.stored < MAX_STORED_PER_NAME).then(|| {
            total.stored += 1;
            let parent = self
                .stack
                .iter()
                .rev()
                .find_map(|o| o.stored)
                .unwrap_or(NO_PARENT);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                job,
            });
            (self.spans.len() - 1) as u32
        });
        if stored.is_none() {
            self.dropped += 1;
        }
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            stored,
        });
        SpanGuard(self.stack.len())
    }

    /// Close the innermost span.
    ///
    /// # Panics
    ///
    /// Panics when `guard` is not the innermost open span: spans nest.
    pub fn exit(&mut self, guard: SpanGuard) {
        assert_eq!(
            guard.0,
            self.stack.len(),
            "spans must close innermost first"
        );
        let open = self.stack.pop().expect("guard implies an open span");
        let end_ns = self.now_ns();
        let dur = end_ns - open.start_ns;
        if let Some(i) = open.stored {
            self.spans[i as usize].end_ns = end_ns;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.child_ns += open.child_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, job: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        let guard = self.enter(name, job);
        let out = f(self);
        self.exit(guard);
        out
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Spans opened so far, stored or not.
    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Fold a finished thread's tracer into this one. Parent indices are
    /// re-pointed at wherever the parent span landed; a span whose parent the
    /// per-name cap dropped becomes a root.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbing a tracer with open spans");
        self.dropped += other.dropped;
        // Where each of `other`'s spans landed here, if it was kept.
        let mut moved: Vec<u32> = Vec::with_capacity(other.spans.len());
        for mut span in other.spans {
            let total = self.totals.entry(span.name).or_default();
            if total.stored >= MAX_STORED_PER_NAME {
                self.dropped += 1;
                moved.push(NO_PARENT);
                continue;
            }
            total.stored += 1;
            if span.parent != NO_PARENT {
                // A parent precedes its children, so it has been placed.
                span.parent = moved[span.parent as usize];
            }
            moved.push(self.spans.len() as u32);
            self.spans.push(span);
        }
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.child_ns += t.child_ns;
        }
    }

    /// Write `index name start_ns end_ns parent job`, one span a line.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tjob")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("outer", 7);
        for _ in 0..3 {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        t.exit(outer);
        let (outer, inner) = (t.total("outer"), t.total("inner"));
        assert_eq!((outer.count, inner.count), (1, 3));
        assert_eq!(outer.child_ns, inner.total_ns);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_s() < outer.total_s());
        assert_eq!(t.recorded(), 4);

        let mut tsv = Vec::new();
        t.write_tsv(&mut tsv).unwrap();
        let text = String::from_utf8(tsv).unwrap();
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 5);
        assert!(rows[1].starts_with("0\touter\t") && rows[1].ends_with("\t-\t7"));
        assert!(rows[2].starts_with("1\tinner\t") && rows[2].ends_with("\t0\t7"));
    }

    #[test]
    fn absorb_keeps_parents_and_totals() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch);
        main.span("a", 0, |_| ());
        let mut worker = Tracer::new(epoch);
        worker.span("job", 1, |t| t.span("read", 1, |_| ()));
        main.absorb(worker);
        assert_eq!(main.recorded(), 3);
        assert_eq!(main.spans[2].parent, 1);
        assert_eq!(main.total("job").count, 1);
        assert_eq!(main.total("missing"), Total::default());
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn crossed_exits_are_a_bug() {
        let mut t = Tracer::new(Instant::now());
        let a = t.enter("a", 0);
        let _b = t.enter("b", 0);
        t.exit(a);
    }
}
