//! In-memory span log of the traced run, written out as Chrome trace-event
//! JSON (`chrome://tracing`, Perfetto) when the run ends.
//!
//! Slots are preallocated and claimed with one atomic increment, so any
//! thread can record without a lock; once the log is full further spans
//! are dropped, keeping the earliest ones of the rep.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Spans kept per traced rep: ~3 MiB in memory, ~12 MB of JSON.
pub const CAPACITY: usize = 100_000;

pub struct SpanLog {
    base: Instant,
    names: &'static [&'static str],
    /// What `key` means in the output: the parent span (`"parent"`) or the
    /// request, i.e. the job (`"job"`).
    key_name: &'static str,
    /// Per slot: name index << 32 | thread, key + 1 (0 = none), start ns,
    /// duration ns.
    slots: Vec<[AtomicU64; 4]>,
    next: AtomicUsize,
}

impl SpanLog {
    pub fn new(names: &'static [&'static str], key_name: &'static str) -> Self {
        SpanLog {
            base: Instant::now(),
            names,
            key_name,
            slots: (0..CAPACITY).map(|_| Default::default()).collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Forget every span; the next rep starts from an empty log.
    pub fn clear(&mut self) {
        self.base = Instant::now();
        *self.next.get_mut() = 0;
    }

    /// Record a span; returns its id (0 once the log is full).
    pub fn record(
        &self,
        name: usize,
        thread: u64,
        key: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get(i) else { return 0 };
        let start_ns = start.saturating_duration_since(self.base).as_nanos() as u64;
        slot[0].store(((name as u64) << 32) | thread, Ordering::Relaxed);
        slot[1].store(key.map_or(0, |k| k + 1), Ordering::Relaxed);
        slot[2].store(start_ns, Ordering::Relaxed);
        slot[3].store(end.saturating_duration_since(start).as_nanos() as u64, Ordering::Relaxed);
        i as u64 + 1
    }

    /// Write the recorded spans as trace-event JSON. Call after every
    /// recording thread has stopped.
    pub fn write_chrome(&self, path: &Path) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let n = self.next.load(Ordering::Relaxed).min(self.slots.len());
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"{\"traceEvents\": [\n")?;
        for (i, slot) in self.slots[..n].iter().enumerate() {
            let [head, key, start, dur] = slot.each_ref().map(|a| a.load(Ordering::Relaxed));
            let name = self.names[(head >> 32) as usize];
            let key = match key {
                0 => String::new(),
                k => format!(", \"{}\": {}", self.key_name, k - 1),
            };
            writeln!(
                out,
                "{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}{key}}}}}{}",
                head & 0xffff_ffff,
                start as f64 / 1e3,
                dur as f64 / 1e3,
                i + 1,
                if i + 1 < n { "," } else { "" }
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()?;
        Ok(n)
    }
}
