//! In-memory span recorder for the traced run.
//!
//! A span is opened around one call into a layer and closed when the call
//! returns. It carries a name, the layer it charges, an id shared by every
//! span of one packet, batch, flow set or message set, and its parent (the
//! span open when it began). Durations are aggregated as spans close, so
//! per-name totals and per-layer self time cover every span; the first
//! [`RETAINED_PER_NAME`] spans of each name are also kept for the Chrome
//! trace-event export.
//!
//! When tracing is off every call returns at the first branch and nothing
//! is recorded.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Spans of one name kept for the trace file; later ones are aggregated
/// only.
const RETAINED_PER_NAME: u64 = 2_000;

/// Layers a span may charge, in report order. `bench` is the benchmark's
/// own code (batch, iteration and round envelopes).
pub const LAYERS: [&str; 7] = [
    "bench",
    "ib-packet",
    "ib-crypto",
    "core",
    "ib-sim",
    "ib-transport",
    "ib-sm",
];

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    pub total_ns: u64,
}

impl Agg {
    /// Mean span duration, ns (0 when no span closed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

struct Open {
    slot: usize,
    layer: usize,
    start: Instant,
    child_ns: u64,
    /// Index into `spans` when retained.
    retained: Option<usize>,
}

struct Span {
    slot: usize,
    layer: usize,
    id: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A token returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Token(bool);

pub struct Tracer {
    on: bool,
    t0: Instant,
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    layer_self_ns: [u64; LAYERS.len()],
    open: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            names: Vec::new(),
            aggs: Vec::new(),
            layer_self_ns: [0; LAYERS.len()],
            open: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn slot(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.names.iter().position(|n| std::ptr::eq(*n, name)) {
            return i;
        }
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i;
        }
        self.names.push(name);
        self.aggs.push(Agg::default());
        self.names.len() - 1
    }

    /// Spans of `slot` currently open (recursion depth; 0 or 1 here).
    fn open_of(&self, slot: usize) -> u64 {
        self.open.iter().filter(|o| o.slot == slot).count() as u64
    }

    /// Open a span charged to `layer` (one of [`LAYERS`]).
    #[inline]
    pub fn begin(&mut self, layer: &'static str, name: &'static str, id: u64) -> Token {
        if !self.on {
            return Token(false);
        }
        let slot = self.slot(name);
        let layer = LAYERS
            .iter()
            .position(|l| *l == layer)
            .expect("span layer is one of LAYERS");
        let start = Instant::now();
        let retained = if self.aggs[slot].count + self.open_of(slot) < RETAINED_PER_NAME {
            self.spans.push(Span {
                slot,
                layer,
                id,
                start_ns: (start - self.t0).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().and_then(|o| o.retained),
            });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.open.push(Open {
            slot,
            layer,
            start,
            child_ns: 0,
            retained,
        });
        Token(true)
    }

    /// Close the innermost open span; returns its duration in ns.
    #[inline]
    pub fn end(&mut self, token: Token) -> u64 {
        if !token.0 {
            return 0;
        }
        let end = Instant::now();
        let o = self.open.pop().expect("end matches a begin");
        let dur = (end - o.start).as_nanos() as u64;
        let agg = &mut self.aggs[o.slot];
        agg.count += 1;
        agg.total_ns += dur;
        self.layer_self_ns[o.layer] += dur.saturating_sub(o.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = o.retained {
            self.spans[i].end_ns = (end - self.t0).as_nanos() as u64;
        }
        dur
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = self.begin(layer, name, id);
        let r = f();
        self.end(t);
        r
    }

    /// Totals for every span closed under `name`.
    pub fn agg(&self, name: &str) -> Agg {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.aggs[i])
            .unwrap_or_default()
    }

    /// Self time charged to each of [`LAYERS`], seconds.
    pub fn layer_self_s(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        LAYERS
            .iter()
            .zip(self.layer_self_ns)
            .map(|(l, ns)| (*l, ns as f64 * 1e-9))
    }

    /// Write the retained spans as Chrome trace-event JSON (complete "X"
    /// events; Perfetto and chrome://tracing open it). `meta` is a JSON
    /// object recorded under `otherData`, the format's metadata key.
    pub fn write_chrome(&self, path: &std::path::Path, meta: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"displayTimeUnit\":\"ns\",\"otherData\":{meta},")?;
        write!(w, "\"dropped_spans\":{},\"traceEvents\":[", self.dropped)?;
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                line,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"span\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                self.names[s.slot],
                LAYERS[s.layer],
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                i,
                parent
            );
            w.write_all(line.as_bytes())?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: std::time::Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_nested_spans() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("bench", "outer", 7);
        busy(std::time::Duration::from_millis(2));
        tr.span("core", "inner", 7, || {
            busy(std::time::Duration::from_millis(5))
        });
        let total = tr.end(outer);
        let inner = tr.agg("inner").total_ns;
        let self_s: Vec<_> = tr.layer_self_s().collect();
        let bench = self_s.iter().find(|(l, _)| *l == "bench").unwrap().1;
        let core = self_s.iter().find(|(l, _)| *l == "core").unwrap().1;
        assert!(inner >= 5_000_000 && total >= inner + 2_000_000);
        assert!((bench - (total - inner) as f64 * 1e-9).abs() < 1e-12);
        assert!((core - inner as f64 * 1e-9).abs() < 1e-12);
        assert_eq!(tr.spans[1].parent, Some(0), "inner span's parent is outer");
        assert_eq!(tr.spans[1].id, tr.spans[0].id);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let t = tr.begin("core", "x", 1);
        assert_eq!(tr.end(t), 0);
        assert_eq!(tr.agg("x").count, 0);
        assert!(tr.spans.is_empty());
    }
}
