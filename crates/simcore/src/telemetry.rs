//! The deterministic telemetry plane: sim-time spans, counters, gauges,
//! and fixed-bucket histograms.
//!
//! The paper's contributions are measurements, and so are this
//! reproduction's debugging needs: when a figure drifts or a chaos run
//! degrades, the question is always *where the simulated time went* —
//! which handoffs fired, how long the RRC machine dwelt in each state,
//! when the congestion window collapsed, which segment stalled playback.
//! This module records exactly that, following the same ambient-plane
//! discipline as [`crate::faults`] and [`crate::recovery`]:
//!
//! * a thread-local collector, installed per experiment attempt (by
//!   `simcore::ambient::install_schedule`) and uninstalled when the guard
//!   drops, so parallel campaign workers never share state;
//! * hooks that cost one thread-local boolean load when no collector is
//!   installed, and that **never draw randomness**, so instrumentation can
//!   not perturb simulation output — with the plane off, every manifest,
//!   report, and figure byte matches an uninstrumented build;
//! * timestamps in *simulated* seconds (each component advances the
//!   thread's clock with [`clock`]), so two runs of the same experiment
//!   produce byte-identical event streams regardless of host speed.
//!
//! The whole module is additionally gated behind the `telemetry` cargo
//! feature (on by default): built without it, every hook compiles to a
//! no-op and [`compiled`] reports `false`, which CI uses to pin the
//! off-path determinism guarantee at the build level too.
//!
//! Span events stream into a bounded buffer ([`MAX_EVENTS`]); counters,
//! gauges, and histograms aggregate in place, so even 5 kHz power-rail
//! sampling instruments cheaply. [`drain`] snapshots everything into an
//! [`AttemptTelemetry`] with name-sorted aggregates for stable rendering.

#[cfg(feature = "telemetry")]
use std::cell::{Cell, RefCell};

/// Cap on buffered span events per attempt: enough for every figure's
/// span volume, bounded so a pathological loop cannot eat the heap. Spans
/// past the cap still aggregate into [`SpanStat`]s; only their stream
/// events are dropped (and counted in [`AttemptTelemetry::dropped_events`]).
pub const MAX_EVENTS: usize = 1 << 18;

/// Number of fixed histogram buckets. Bucket `i` covers the value range
/// `[2^(i-20), 2^(i-19))` — from about a microsecond to about 10^13, which
/// spans every unit the stack observes (seconds, milliseconds, milliwatts,
/// packets). Underflow and overflow clamp to the end buckets.
pub const HIST_BUCKETS: usize = 64;

/// Number of fixed simulated-time bins in a [`SeriesStat`].
pub const SERIES_BINS: usize = 64;

/// Width of one series bin, simulated seconds. With [`SERIES_BINS`] bins
/// the series covers `[0, 512)` s of simulated time, which brackets every
/// experiment's drive loop; later samples clamp into the last bin.
pub const SERIES_BIN_S: f64 = 8.0;

/// What a metric name denotes. Every name in [`CATALOG`] is registered
/// under exactly one kind per emitting hook; the same name may appear
/// under two kinds only when two hooks deliberately share it (none do
/// today — the lint in `tests/observatory.rs` keeps it that way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A timed region recorded via [`span`] / [`span_closed`].
    Span,
    /// A monotonic total recorded via [`count`].
    Counter,
    /// A last/min/max sample recorded via [`gauge`].
    Gauge,
    /// A log2-bucketed distribution recorded via [`observe`].
    Histogram,
    /// A fixed-bin sim-time series recorded via [`series`].
    Series,
}

impl MetricKind {
    /// Stable lowercase label, used in `metrics.json` and lint output.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Span => "span",
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Series => "series",
        }
    }
}

/// One registered metric: its emitted name, hook kind, owning stack layer,
/// and physical unit. The observatory renders layer/unit next to every
/// rollup, and the catalog lint cross-checks this table against every
/// `telemetry::` call site in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The exact `&'static str` passed to the emitting hook.
    pub name: &'static str,
    /// Which hook family emits it.
    pub kind: MetricKind,
    /// Owning layer (crate) — `radio`, `rrc`, `transport`, `video`, `web`,
    /// or `power`.
    pub layer: &'static str,
    /// Physical unit of the recorded value (`"1"` for dimensionless counts).
    pub unit: &'static str,
}

/// The complete metric catalog: every span, counter, gauge, histogram, and
/// series name emitted anywhere in the workspace. Kept name-sorted within
/// each kind. Adding an instrumentation site without registering it here
/// fails the catalog lint in `tests/observatory.rs`.
pub const CATALOG: &[MetricDef] = &[
    // Spans.
    def("power/record", MetricKind::Span, "power", "sim-s"),
    def("radio/drive", MetricKind::Span, "radio", "sim-s"),
    def("rrc/packet", MetricKind::Span, "rrc", "sim-s"),
    def("rrc/promotion", MetricKind::Span, "rrc", "sim-s"),
    def("rrc/switch", MetricKind::Span, "rrc", "sim-s"),
    def("rrc/tail", MetricKind::Span, "rrc", "sim-s"),
    def("transport/bond/run", MetricKind::Span, "transport", "sim-s"),
    def("transport/run", MetricKind::Span, "transport", "sim-s"),
    def("video/segment", MetricKind::Span, "video", "sim-s"),
    def("video/session", MetricKind::Span, "video", "sim-s"),
    def("web/object_wave", MetricKind::Span, "web", "sim-s"),
    def("web/page", MetricKind::Span, "web", "sim-s"),
    // Counters.
    def("power/sample", MetricKind::Counter, "power", "1"),
    def(
        "radio/handoff/horizontal",
        MetricKind::Counter,
        "radio",
        "1",
    ),
    def("radio/handoff/vertical", MetricKind::Counter, "radio", "1"),
    def("radio/rlf", MetricKind::Counter, "radio", "1"),
    def("radio/shadow/hit", MetricKind::Counter, "radio", "1"),
    def("radio/shadow/miss", MetricKind::Counter, "radio", "1"),
    def("rrc/state/connected", MetricKind::Counter, "rrc", "1"),
    def("rrc/state/connected-lte", MetricKind::Counter, "rrc", "1"),
    def("rrc/state/idle", MetricKind::Counter, "rrc", "1"),
    def("rrc/state/inactive", MetricKind::Counter, "rrc", "1"),
    def(
        "transport/bbr/state_change",
        MetricKind::Counter,
        "transport",
        "1",
    ),
    def(
        "transport/bond/overflow",
        MetricKind::Counter,
        "transport",
        "1",
    ),
    def(
        "transport/conn_reset",
        MetricKind::Counter,
        "transport",
        "1",
    ),
    def("transport/loss", MetricKind::Counter, "transport", "1"),
    def(
        "transport/nada/rampup",
        MetricKind::Counter,
        "transport",
        "1",
    ),
    def("transport/rto", MetricKind::Counter, "transport", "1"),
    def("video/bitrate_switch", MetricKind::Counter, "video", "1"),
    def("video/stall", MetricKind::Counter, "video", "1"),
    def("web/object", MetricKind::Counter, "web", "1"),
    // Gauges.
    def(
        "transport/bbr/btlbw_mbps",
        MetricKind::Gauge,
        "transport",
        "Mbit/s",
    ),
    def(
        "transport/bbr/rtprop_s",
        MetricKind::Gauge,
        "transport",
        "s",
    ),
    def("transport/bond/groups", MetricKind::Gauge, "transport", "1"),
    def(
        "transport/mean_mbps",
        MetricKind::Gauge,
        "transport",
        "Mbit/s",
    ),
    def(
        "transport/nada/rate_mbps",
        MetricKind::Gauge,
        "transport",
        "Mbit/s",
    ),
    // Histograms.
    def("power/rail_mw", MetricKind::Histogram, "power", "mW"),
    def("rrc/delay_ms", MetricKind::Histogram, "rrc", "ms"),
    def("rrc/dwell_s", MetricKind::Histogram, "rrc", "s"),
    def("rrc/tail_s", MetricKind::Histogram, "rrc", "s"),
    def(
        "transport/cwnd_pkts",
        MetricKind::Histogram,
        "transport",
        "pkts",
    ),
    def(
        "transport/queue_delay_s",
        MetricKind::Histogram,
        "transport",
        "s",
    ),
    def(
        "transport/rto_backoff_s",
        MetricKind::Histogram,
        "transport",
        "s",
    ),
    def("video/stall_s", MetricKind::Histogram, "video", "s"),
    def("web/plt_s", MetricKind::Histogram, "web", "s"),
    // Series.
    def("power/rail_mw_t", MetricKind::Series, "power", "mW"),
    def("radio/rsrp_dbm_t", MetricKind::Series, "radio", "dBm"),
    def(
        "transport/bond/split_mbps_t",
        MetricKind::Series,
        "transport",
        "Mbit/s",
    ),
    def(
        "transport/cwnd_pkts_t",
        MetricKind::Series,
        "transport",
        "pkts",
    ),
    def(
        "transport/rate_mbps_t",
        MetricKind::Series,
        "transport",
        "Mbit/s",
    ),
];

/// Const constructor keeping [`CATALOG`] entries one line each.
const fn def(
    name: &'static str,
    kind: MetricKind,
    layer: &'static str,
    unit: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        kind,
        layer,
        unit,
    }
}

/// Looks up the catalog entry for `name` emitted as `kind`.
pub fn registered(name: &str, kind: MetricKind) -> Option<&'static MetricDef> {
    CATALOG.iter().find(|d| d.name == name && d.kind == kind)
}

/// Enter/exit marker of a span event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Span opened.
    Enter,
    /// Span closed.
    Exit,
}

/// One buffered span event (the JSONL/Chrome-trace stream unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Per-attempt span id; the Enter and Exit of one span share it.
    pub id: u64,
    /// Static span name, e.g. `"radio/drive"`.
    pub name: &'static str,
    /// Enter or exit.
    pub phase: SpanPhase,
    /// Simulated time of the edge, seconds (component-local clock).
    pub t_s: f64,
}

/// Aggregated statistics of one span name.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanStat {
    /// Completed spans.
    pub count: u64,
    /// Cumulative simulated time inside the span, seconds.
    pub total_s: f64,
}

/// Aggregated statistics of one gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStat {
    /// Most recent value.
    pub last: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
    /// Number of samples.
    pub samples: u64,
}

/// A fixed-bucket (power-of-two edges) histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket counts; bucket `i` covers `[2^(i-20), 2^(i-19))`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
}

/// The lower edge of histogram bucket `i`.
fn bucket_lo(i: usize) -> f64 {
    2f64.powi(i as i32 - 20)
}

/// The bucket index of value `v` (non-positive and NaN clamp to bucket 0).
fn bucket_of(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    (v.log2().floor() as i64 + 20).clamp(0, HIST_BUCKETS as i64 - 1) as usize
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-estimated quantile `q` in `[0, 1]`: the geometric midpoint of
    /// the bucket holding the q-th observation, clamped to the exact
    /// min/max so single-bucket histograms report faithfully.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil()).max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                let mid = (bucket_lo(i) * bucket_lo(i + 1)).sqrt();
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed-bin simulated-time series: per-bin value sums and sample counts
/// over `[0, SERIES_BINS * SERIES_BIN_S)` seconds of sim time. Fixed bins
/// (rather than raw samples) keep campaign rollups bounded and make merging
/// shards / attempts a per-bin addition, which is order-independent — the
/// property the byte-identity contract needs under `--jobs N`.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesStat {
    /// Per-bin sum of observed values.
    pub sums: Vec<f64>,
    /// Per-bin number of samples.
    pub counts: Vec<u64>,
}

/// The bin index of simulated time `t_s` (negative and NaN clamp to bin 0,
/// late samples clamp to the last bin).
fn series_bin(t_s: f64) -> usize {
    if t_s.is_nan() || t_s <= 0.0 {
        return 0;
    }
    ((t_s / SERIES_BIN_S) as usize).min(SERIES_BINS - 1)
}

impl SeriesStat {
    /// An empty series.
    pub fn new() -> Self {
        SeriesStat {
            sums: vec![0.0; SERIES_BINS],
            counts: vec![0; SERIES_BINS],
        }
    }

    /// Records value `v` at simulated time `t_s`.
    pub fn observe(&mut self, t_s: f64, v: f64) {
        let i = series_bin(t_s);
        self.sums[i] += v;
        self.counts[i] += 1;
    }

    /// Mean of bin `i`, or `None` when the bin holds no samples.
    pub fn mean(&self, i: usize) -> Option<f64> {
        if self.counts[i] == 0 {
            None
        } else {
            Some(self.sums[i] / self.counts[i] as f64)
        }
    }

    /// Total samples across all bins.
    pub fn samples(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merges `other` into `self` bin-wise.
    pub fn merge(&mut self, other: &SeriesStat) {
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

impl Default for SeriesStat {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything one attempt recorded: the bounded span-event stream plus the
/// name-sorted aggregates. Produced by [`drain`]; rendered by the bench
/// crate into JSONL, Chrome `trace_event` files, and the campaign summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttemptTelemetry {
    /// Span enter/exit events in emission order (bounded by [`MAX_EVENTS`]).
    pub events: Vec<SpanEvent>,
    /// Span events dropped past the buffer cap (aggregates still updated).
    pub dropped_events: u64,
    /// Per-span-name aggregates, sorted by name.
    pub spans: Vec<(&'static str, SpanStat)>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge aggregates, sorted by name.
    pub gauges: Vec<(&'static str, GaugeStat)>,
    /// Histograms, sorted by name.
    pub hists: Vec<(&'static str, Histogram)>,
    /// Fixed-bin sim-time series, sorted by name.
    pub series: Vec<(&'static str, SeriesStat)>,
}

impl AttemptTelemetry {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.series.is_empty()
    }

    /// Merges `other`'s aggregates into `self` (campaign roll-up). The
    /// event streams are per-experiment artifacts and are not merged.
    pub fn merge_aggregates(&mut self, other: &AttemptTelemetry) {
        fn slot<'a, T>(
            v: &'a mut Vec<(&'static str, T)>,
            name: &'static str,
            mk: impl FnOnce() -> T,
        ) -> &'a mut T {
            if let Some(i) = v.iter().position(|(n, _)| *n == name) {
                return &mut v[i].1;
            }
            v.push((name, mk()));
            let i = v.len() - 1;
            &mut v[i].1
        }
        for (name, s) in &other.spans {
            let dst = slot(&mut self.spans, name, SpanStat::default);
            dst.count += s.count;
            dst.total_s += s.total_s;
        }
        for (name, n) in &other.counters {
            *slot(&mut self.counters, name, || 0) += n;
        }
        for (name, g) in &other.gauges {
            let dst = slot(&mut self.gauges, name, || GaugeStat {
                last: g.last,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                samples: 0,
            });
            dst.last = g.last;
            dst.min = dst.min.min(g.min);
            dst.max = dst.max.max(g.max);
            dst.samples += g.samples;
        }
        for (name, h) in &other.hists {
            slot(&mut self.hists, name, Histogram::new).merge(h);
        }
        for (name, s) in &other.series {
            slot(&mut self.series, name, SeriesStat::new).merge(s);
        }
        self.dropped_events += other.dropped_events;
        self.spans.sort_by_key(|(n, _)| *n);
        self.counters.sort_by_key(|(n, _)| *n);
        self.gauges.sort_by_key(|(n, _)| *n);
        self.hists.sort_by_key(|(n, _)| *n);
        self.series.sort_by_key(|(n, _)| *n);
    }
}

/// True when the crate was built with the `telemetry` feature; when false,
/// every hook below is a compiled no-op and [`collect`] installs nothing.
pub const fn compiled() -> bool {
    cfg!(feature = "telemetry")
}

#[cfg(feature = "telemetry")]
struct Collector {
    events: Vec<SpanEvent>,
    dropped: u64,
    next_id: u64,
    clock_s: f64,
    spans: Vec<(&'static str, SpanStat)>,
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, GaugeStat)>,
    hists: Vec<(&'static str, Histogram)>,
    series: Vec<(&'static str, SeriesStat)>,
}

#[cfg(feature = "telemetry")]
impl Collector {
    fn new() -> Self {
        Collector {
            events: Vec::new(),
            dropped: 0,
            next_id: 0,
            clock_s: 0.0,
            spans: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            series: Vec::new(),
        }
    }

    fn push_event(&mut self, ev: SpanEvent) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(feature = "telemetry")]
thread_local! {
    /// Fast flag: true iff a collector is installed on this thread.
    static ON: Cell<bool> = const { Cell::new(false) };
    /// The installed collector.
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Uninstalls the thread's telemetry collector when dropped.
#[must_use = "the telemetry collector uninstalls when this guard drops"]
pub struct TelemetryGuard {
    _private: (),
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        #[cfg(feature = "telemetry")]
        {
            COLLECTOR.with(|c| *c.borrow_mut() = None);
            ON.with(|f| f.set(false));
        }
    }
}

/// Installs a fresh telemetry collector on this thread, replacing any
/// previous one. Uninstalls when the guard drops. With the `telemetry`
/// feature compiled out this is a no-op guard.
pub fn collect() -> TelemetryGuard {
    #[cfg(feature = "telemetry")]
    {
        COLLECTOR.with(|c| *c.borrow_mut() = Some(Collector::new()));
        ON.with(|f| f.set(true));
    }
    TelemetryGuard { _private: () }
}

/// True iff a collector is installed on this thread. The single load every
/// hook pays when telemetry is off.
pub fn enabled() -> bool {
    #[cfg(feature = "telemetry")]
    {
        ON.with(|f| f.get())
    }
    #[cfg(not(feature = "telemetry"))]
    {
        false
    }
}

#[cfg(feature = "telemetry")]
fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    COLLECTOR.with(|c| c.borrow_mut().as_mut().map(f))
}

#[cfg(feature = "telemetry")]
fn agg<'a, T>(
    v: &'a mut Vec<(&'static str, T)>,
    name: &'static str,
    mk: impl FnOnce() -> T,
) -> &'a mut T {
    if let Some(i) = v.iter().position(|(n, _)| *n == name) {
        return &mut v[i].1;
    }
    v.push((name, mk()));
    let i = v.len() - 1;
    &mut v[i].1
}

/// Advances this thread's simulated clock to `t_s` (component-local
/// seconds). Spans opened afterwards enter at this time; spans dropped
/// afterwards exit at it.
pub fn clock(t_s: f64) {
    #[cfg(feature = "telemetry")]
    with_collector(|c| c.clock_s = t_s);
    #[cfg(not(feature = "telemetry"))]
    let _ = t_s;
}

/// The thread's current simulated clock (0 when no collector is installed).
pub fn now() -> f64 {
    #[cfg(feature = "telemetry")]
    {
        with_collector(|c| c.clock_s).unwrap_or(0.0)
    }
    #[cfg(not(feature = "telemetry"))]
    {
        0.0
    }
}

/// An open span; records the exit edge (at the thread clock's then-current
/// time) and the cumulative-time aggregate when dropped.
#[must_use = "a span measures nothing unless it lives across the work"]
pub struct SpanGuard {
    #[cfg(feature = "telemetry")]
    open: Option<(u64, &'static str, f64)>,
    #[cfg(not(feature = "telemetry"))]
    _private: (),
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        #[cfg(feature = "telemetry")]
        if let Some((id, name, t0)) = self.open.take() {
            with_collector(|c| {
                let t1 = c.clock_s;
                c.push_event(SpanEvent {
                    id,
                    name,
                    phase: SpanPhase::Exit,
                    t_s: t1,
                });
                let s = agg(&mut c.spans, name, SpanStat::default);
                s.count += 1;
                s.total_s += (t1 - t0).max(0.0);
            });
        }
    }
}

/// Opens a span at the thread clock's current time; the returned RAII
/// guard closes it (see [`SpanGuard`]). Call [`clock`] first to anchor the
/// enter edge, and keep calling it inside the span so the exit edge lands
/// at the simulated end time.
pub fn span(name: &'static str) -> SpanGuard {
    #[cfg(feature = "telemetry")]
    {
        let open = with_collector(|c| {
            let id = c.next_id;
            c.next_id += 1;
            let t0 = c.clock_s;
            c.push_event(SpanEvent {
                id,
                name,
                phase: SpanPhase::Enter,
                t_s: t0,
            });
            (id, name, t0)
        });
        SpanGuard { open }
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = name;
        SpanGuard { _private: () }
    }
}

/// Records a span whose interval `[t0_s, t1_s]` was computed rather than
/// lived through (e.g. a segment download duration): both edges plus the
/// aggregate, without touching the thread clock.
pub fn span_closed(name: &'static str, t0_s: f64, t1_s: f64) {
    #[cfg(feature = "telemetry")]
    with_collector(|c| {
        let id = c.next_id;
        c.next_id += 1;
        c.push_event(SpanEvent {
            id,
            name,
            phase: SpanPhase::Enter,
            t_s: t0_s,
        });
        c.push_event(SpanEvent {
            id,
            name,
            phase: SpanPhase::Exit,
            t_s: t1_s,
        });
        let s = agg(&mut c.spans, name, SpanStat::default);
        s.count += 1;
        s.total_s += (t1_s - t0_s).max(0.0);
    });
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = (name, t0_s, t1_s);
    }
}

/// Adds `n` to counter `name`.
pub fn count(name: &'static str, n: u64) {
    #[cfg(feature = "telemetry")]
    with_collector(|c| *agg(&mut c.counters, name, || 0) += n);
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = (name, n);
    }
}

/// Sets gauge `name` to `v`, tracking min/max/sample-count.
pub fn gauge(name: &'static str, v: f64) {
    #[cfg(feature = "telemetry")]
    with_collector(|c| {
        let g = agg(&mut c.gauges, name, || GaugeStat {
            last: v,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            samples: 0,
        });
        g.last = v;
        g.min = g.min.min(v);
        g.max = g.max.max(v);
        g.samples += 1;
    });
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = (name, v);
    }
}

/// Records `v` into histogram `name`.
pub fn observe(name: &'static str, v: f64) {
    #[cfg(feature = "telemetry")]
    with_collector(|c| agg(&mut c.hists, name, Histogram::new).observe(v));
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = (name, v);
    }
}

/// Records `v` at simulated time `t_s` into the fixed-bin series `name`.
/// Unlike [`gauge`], which keeps only last/min/max, a series preserves the
/// *shape* over sim time (bin means), which the observatory renders as a
/// sparkline and ROADMAP item 5 will consume as calibration features.
pub fn series(name: &'static str, t_s: f64, v: f64) {
    #[cfg(feature = "telemetry")]
    with_collector(|c| agg(&mut c.series, name, SeriesStat::new).observe(t_s, v));
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = (name, t_s, v);
    }
}

/// Snapshots and clears this thread's collected telemetry. Aggregates come
/// out sorted by name, so rendering the result is deterministic. Returns
/// an empty [`AttemptTelemetry`] when no collector is installed (or the
/// feature is compiled out).
pub fn drain() -> AttemptTelemetry {
    #[cfg(feature = "telemetry")]
    {
        with_collector(|c| {
            let mut t = AttemptTelemetry {
                events: std::mem::take(&mut c.events),
                dropped_events: std::mem::take(&mut c.dropped),
                spans: std::mem::take(&mut c.spans),
                counters: std::mem::take(&mut c.counters),
                gauges: std::mem::take(&mut c.gauges),
                hists: std::mem::take(&mut c.hists),
                series: std::mem::take(&mut c.series),
            };
            c.next_id = 0;
            c.clock_s = 0.0;
            t.spans.sort_by_key(|(n, _)| *n);
            t.counters.sort_by_key(|(n, _)| *n);
            t.gauges.sort_by_key(|(n, _)| *n);
            t.hists.sort_by_key(|(n, _)| *n);
            t.series.sort_by_key(|(n, _)| *n);
            t
        })
        .unwrap_or_default()
    }
    #[cfg(not(feature = "telemetry"))]
    {
        AttemptTelemetry::default()
    }
}

#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_inert_without_a_collector() {
        assert!(!enabled());
        clock(5.0);
        count("x", 3);
        observe("y", 1.0);
        gauge("z", 2.0);
        span_closed("s", 0.0, 1.0);
        {
            let _sp = span("t");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn collector_guard_installs_and_uninstalls() {
        {
            let _g = collect();
            assert!(enabled());
        }
        assert!(!enabled());
    }

    #[test]
    fn spans_record_both_edges_and_cumulative_time() {
        let _g = collect();
        clock(1.0);
        {
            let _sp = span("radio/drive");
            clock(4.0);
        }
        span_closed("video/segment", 10.0, 12.5);
        let t = drain();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.events[0].phase, SpanPhase::Enter);
        assert_eq!(t.events[0].t_s, 1.0);
        assert_eq!(t.events[1].phase, SpanPhase::Exit);
        assert_eq!(t.events[1].t_s, 4.0);
        // Aggregates sorted by name: radio/drive then video/segment.
        assert_eq!(t.spans[0].0, "radio/drive");
        assert!((t.spans[0].1.total_s - 3.0).abs() < 1e-12);
        assert_eq!(t.spans[1].0, "video/segment");
        assert!((t.spans[1].1.total_s - 2.5).abs() < 1e-12);
    }

    #[test]
    fn counters_gauges_histograms_aggregate() {
        let _g = collect();
        count("a", 2);
        count("a", 3);
        gauge("g", 5.0);
        gauge("g", 1.0);
        observe("h", 10.0);
        observe("h", 1000.0);
        let t = drain();
        assert_eq!(t.counters, vec![("a", 5)]);
        assert_eq!(t.gauges[0].1.last, 1.0);
        assert_eq!(t.gauges[0].1.max, 5.0);
        assert_eq!(t.gauges[0].1.samples, 2);
        let h = &t.hists[0].1;
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 10.0);
        assert_eq!(h.max, 1000.0);
        assert!((h.mean() - 505.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((250.0..=1000.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50, "p99 {p99} >= p50 {p50}");
        assert!(p99 <= 1000.0);
    }

    #[test]
    fn event_buffer_is_bounded_but_aggregates_continue() {
        let _g = collect();
        for _ in 0..(MAX_EVENTS / 2 + 10) {
            span_closed("s", 0.0, 1.0);
        }
        let t = drain();
        assert_eq!(t.events.len(), MAX_EVENTS);
        assert_eq!(t.dropped_events, 20);
        assert_eq!(t.spans[0].1.count as usize, MAX_EVENTS / 2 + 10);
    }

    #[test]
    fn drain_is_deterministic_across_runs() {
        let run = || {
            let _g = collect();
            clock(0.0);
            {
                let _sp = span("a");
                clock(2.0);
            }
            count("c", 7);
            observe("h", 3.5);
            drain()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn merge_aggregates_rolls_up_without_events() {
        let mk = |n: u64| {
            let _g = collect();
            count("c", n);
            span_closed("s", 0.0, n as f64);
            observe("h", n as f64);
            drain()
        };
        let mut total = AttemptTelemetry::default();
        total.merge_aggregates(&mk(2));
        total.merge_aggregates(&mk(3));
        assert!(total.events.is_empty());
        assert_eq!(total.counters, vec![("c", 5)]);
        assert_eq!(total.spans[0].1.count, 2);
        assert!((total.spans[0].1.total_s - 5.0).abs() < 1e-12);
        assert_eq!(total.hists[0].1.count, 2);
    }

    #[test]
    fn compiled_reports_the_feature() {
        assert!(compiled());
    }

    #[test]
    fn series_bins_by_sim_time_and_clamps_edges() {
        let _g = collect();
        series("s", 0.0, 10.0);
        series("s", SERIES_BIN_S - 0.001, 20.0); // same first bin
        series("s", SERIES_BIN_S, 30.0); // second bin
        series("s", -5.0, 1.0); // clamps to bin 0
        series("s", f64::NAN, 2.0); // clamps to bin 0
        series("s", 1e9, 99.0); // clamps to last bin
        let t = drain();
        let st = &t.series[0].1;
        assert_eq!(st.counts[0], 4);
        assert_eq!(st.counts[1], 1);
        assert_eq!(st.counts[SERIES_BINS - 1], 1);
        assert_eq!(st.mean(1), Some(30.0));
        assert_eq!(st.mean(2), None);
        assert_eq!(st.samples(), 6);
    }

    #[test]
    fn series_merge_is_binwise() {
        let mut a = SeriesStat::new();
        a.observe(1.0, 4.0);
        let mut b = SeriesStat::new();
        b.observe(1.0, 8.0);
        b.observe(100.0, 2.0);
        a.merge(&b);
        assert_eq!(a.counts[0], 2);
        assert_eq!(a.mean(0), Some(6.0));
        assert_eq!(a.counts[series_bin(100.0)], 1);
    }

    #[test]
    fn catalog_names_are_unique_per_kind_and_sorted_within_kind() {
        for (i, d) in CATALOG.iter().enumerate() {
            for other in &CATALOG[i + 1..] {
                assert!(
                    !(d.name == other.name && d.kind == other.kind),
                    "duplicate catalog entry {} ({})",
                    d.name,
                    d.kind.as_str()
                );
            }
        }
        for w in CATALOG.windows(2) {
            if w[0].kind == w[1].kind {
                assert!(
                    w[0].name < w[1].name,
                    "catalog not sorted within kind: {} >= {}",
                    w[0].name,
                    w[1].name
                );
            }
        }
    }

    #[test]
    fn catalog_lookup_matches_name_and_kind() {
        let d = registered("radio/drive", MetricKind::Span).expect("radio/drive");
        assert_eq!(d.layer, "radio");
        assert!(registered("radio/drive", MetricKind::Counter).is_none());
        assert!(registered("no/such/metric", MetricKind::Span).is_none());
    }

    #[test]
    fn histogram_merge_with_empty_side_is_identity() {
        let mut a = Histogram::new();
        a.observe(4.0);
        a.observe(64.0);
        let before = a.clone();
        a.merge(&Histogram::new()); // empty right side
        assert_eq!(a.counts, before.counts);
        assert_eq!(a.count, before.count);
        assert_eq!(a.sum, before.sum);
        assert_eq!(a.min, before.min);
        assert_eq!(a.max, before.max);
        let mut e = Histogram::new(); // empty left side
        e.merge(&before);
        assert_eq!(e.counts, before.counts);
        assert_eq!(e.min, before.min);
        assert_eq!(e.max, before.max);
    }

    #[test]
    fn histogram_quantile_on_single_sample_reports_the_sample() {
        let mut h = Histogram::new();
        h.observe(7.0);
        // min == max == 7.0, so every quantile clamps to exactly 7.0.
        assert_eq!(h.quantile(0.0), 7.0);
        assert_eq!(h.quantile(0.5), 7.0);
        assert_eq!(h.quantile(1.0), 7.0);
    }

    #[test]
    fn histogram_quantile_handles_end_buckets() {
        let mut h = Histogram::new();
        h.observe(0.0); // underflow clamps to bucket 0
        h.observe(-3.0); // non-positive clamps to bucket 0
        h.observe(1e300); // overflow clamps to the last bucket
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[HIST_BUCKETS - 1], 1);
        let p99 = h.quantile(0.99);
        assert!(
            p99.is_finite(),
            "overflow-bucket quantile stays finite: {p99}"
        );
        assert!(p99 <= h.max);
        assert!(h.quantile(0.1) >= h.min);
    }

    #[test]
    fn histogram_merge_is_associative_on_summaries() {
        // Dyadic values make every float sum exact, so the associativity
        // check is on semantics, not float rounding.
        let mk = |vals: &[f64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let a = mk(&[0.25, 2.0, 2.0]);
        let b = mk(&[16.0]);
        let c = mk(&[0.5, 1024.0, 4096.0]);
        let left = {
            let mut ab = a.clone();
            ab.merge(&b);
            ab.merge(&c);
            ab
        };
        let right = {
            let mut bc = b.clone();
            bc.merge(&c);
            let mut abc = a.clone();
            abc.merge(&bc);
            abc
        };
        assert_eq!(left, right);
        assert_eq!(left.quantile(0.5), right.quantile(0.5));
        assert_eq!(left.quantile(0.99), right.quantile(0.99));
        assert_eq!(left.mean(), right.mean());
    }
}
