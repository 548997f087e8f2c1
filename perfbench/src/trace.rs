//! Wall-clock spans recorded from the benchmark side of each layer call.
//!
//! A [`Tracer`] belongs to one experiment: every span it records carries
//! that experiment's id, a per-experiment span id and the id of the span
//! that was open when it started. Spans stay in memory until the run ends;
//! [`write_jsonl`] then writes them out in one go, so recording costs two
//! clock reads and a push per call.

use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Experiment the span belongs to (its index in the workload).
    pub exp: u32,
    /// Span id, unique within the experiment.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// `layer.function`, or `exp` / `shard` for the structural spans.
    pub name: &'static str,
    /// Start, ns since the traced run's epoch.
    pub start_ns: u64,
    /// End, ns since the traced run's epoch.
    pub end_ns: u64,
    /// Natural work units the call did (rows, samples, chunks, simulated
    /// flow-seconds); 0 when the call has none.
    pub work: f64,
    /// Fingerprint of the call's inputs; 0 when not fingerprinted.
    pub key: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// True for spans around a layer call (not the experiment/shard frame).
    pub fn is_layer(&self) -> bool {
        self.name.contains('.')
    }
}

/// Span recorder for one experiment.
pub struct Tracer {
    epoch: Instant,
    exp: u32,
    id_base: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder for experiment `exp`, timing against the run's `epoch`.
    /// Span ids start at `id_base`, so the tracers of one experiment's
    /// shards hand out disjoint ids.
    pub fn new(epoch: Instant, exp: u32, id_base: u32) -> Self {
        Tracer {
            epoch,
            exp,
            id_base,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.id_base + u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            exp: self.exp,
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            work: 0.0,
            key: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32, work: f64, key: u64) {
        assert_eq!(self.stack.pop(), Some(id), "spans close in LIFO order");
        let end_ns = self.now_ns();
        let span = &mut self.spans[(id - self.id_base) as usize];
        span.end_ns = end_ns;
        span.work = work;
        span.key = key;
    }

    /// Times one layer call; `work` reads the natural work units off its
    /// result.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        key: u64,
        work: impl FnOnce(&R) -> f64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id, work(&out), key);
        out
    }

    /// Times one layer call that has no natural work unit.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.call(name, 0, |_| 0.0, f)
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span was closed");
        self.spans
    }
}

/// FNV-1a over a stream of 64-bit words: the input fingerprint of a call.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one word in.
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes a float's bit pattern in.
    pub fn float(self, x: f64) -> Self {
        self.word(x.to_bits())
    }

    /// Mixes a byte string in.
    pub fn bytes(self, s: &[u8]) -> Self {
        s.iter()
            .fold(self.word(s.len() as u64), |fp, &b| fp.word(u64::from(b)))
    }

    /// The finished fingerprint (never 0, which means "none").
    pub fn finish(self) -> u64 {
        self.0.max(1)
    }
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(
    path: &std::path::Path,
    exp_ids: &[&str],
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"exp\":{},\"exp_id\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{},\"key\":{}}}",
            s.exp,
            exp_ids[s.exp as usize],
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns,
            s.work,
            s.key
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_experiment_id() {
        let mut t = Tracer::new(Instant::now(), 7, 100);
        let outer = t.open("shard");
        let v = t.call(
            "mlkit.tree_fit",
            42,
            |v: &Vec<u8>| v.len() as f64,
            || vec![1, 2, 3],
        );
        t.close(outer, 0.0, 0);
        assert_eq!(v, vec![1, 2, 3]);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.exp == 7));
        assert_eq!((spans[0].id, spans[0].parent), (100, None));
        assert_eq!((spans[1].id, spans[1].parent), (101, Some(100)));
        assert_eq!(spans[1].work, 3.0);
        assert_eq!(spans[1].key, 42);
        assert!(spans[1].is_layer() && !spans[0].is_layer());
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn fingerprints_separate_inputs() {
        let a = Fingerprint::default().float(1.0).word(2).finish();
        let b = Fingerprint::default().float(1.0).word(3).finish();
        assert_ne!(a, b);
        assert_eq!(a, Fingerprint::default().float(1.0).word(2).finish());
    }
}
