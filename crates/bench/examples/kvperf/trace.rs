//! Host-time spans around the benchmark's own calls into each layer.
//!
//! A traced trial records one [`Span`] per call the benchmark makes into
//! a layer's public API (and one per batch of op planning), plus one per
//! message the cluster sends through the [`TracedFabric`] wrapper. Spans
//! live in buffers sized before the trial starts and are reduced to
//! per-layer self time when the trial ends: a span's self time is its
//! duration minus the part of it covered by spans nested inside it (a
//! cluster call minus the fabric messages it sent).
//!
//! Untraced trials use [`Tracer::off`], whose `span` is a direct call,
//! and build the cluster over the bare `Fabric`, so the difference
//! between traced and untraced trials is the whole cost of tracing.

use std::sync::{Arc, Mutex};

use kvssd_bench::walltime::Stopwatch;
use kvssd_cluster::{Transport, TransportStats};
use kvssd_fabric::{Delivery, Fabric};
use kvssd_sim::SimTime;

/// The layers the benchmark times, one per crate it calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `kvssd-kvbench` key generation plus the benchmark's op planning.
    Plan,
    /// `kvssd-core`: calls into one `KvSsd`.
    Core,
    /// `kvssd-cluster`: calls into `KvCluster` (router, SQs, replicas).
    Cluster,
    /// `kvssd-fabric`: messages the cluster sends over the fabric.
    Fabric,
    /// `kvssd-lsm-store`: calls into `LsmStore` (with host-stack and
    /// block-ftl below it).
    Lsm,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 5;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }
}

/// One timed call: host nanoseconds since the trial's clock started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start instant, ns.
    pub start: u64,
    /// End instant, ns.
    pub end: u64,
    /// The layer called.
    pub layer: Layer,
}

fn now_ns(clock: &Stopwatch) -> u64 {
    (clock.elapsed_secs() * 1e9) as u64
}

/// Records spans when on; a pass-through when off.
#[derive(Debug)]
pub struct Tracer {
    clock: Stopwatch,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off(clock: Stopwatch) -> Self {
        Tracer { clock, spans: None }
    }

    /// A tracer with room for `capacity` spans before it must grow.
    pub fn on(clock: Stopwatch, capacity: usize) -> Self {
        Tracer {
            clock,
            spans: Some(Vec::with_capacity(capacity)),
        }
    }

    /// Runs `f`, recording it as one `layer` span when on.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let Some(spans) = &mut self.spans else {
            return f();
        };
        let start = now_ns(&self.clock);
        let r = f();
        spans.push(Span {
            start,
            end: now_ns(&self.clock),
            layer,
        });
        r
    }

    /// The recorded spans (empty when off).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Per-layer span totals of one traced trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Self time per layer, ns.
    pub self_ns: [u64; LAYERS],
    /// Span count per layer.
    pub count: [u64; LAYERS],
}

impl LayerTimes {
    /// Self time of `layer`, ns.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Spans recorded for `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer.index()]
    }
}

/// Reduces spans to per-layer self time. `spans` may come from several
/// buffers; they are ordered by start (outer span first on ties) and
/// each span's duration is charged to itself and taken off the
/// innermost span that encloses it.
pub fn self_times(spans: &mut [Span]) -> LayerTimes {
    spans.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
    let mut out = LayerTimes::default();
    let mut open: Vec<Span> = Vec::new();
    for &s in spans.iter() {
        while open.last().is_some_and(|p| p.end <= s.start) {
            open.pop();
        }
        let dur = s.end - s.start;
        if let Some(parent) = open.last() {
            let p = parent.layer.index();
            out.self_ns[p] = out.self_ns[p].saturating_sub(dur);
        }
        out.self_ns[s.layer.index()] += dur;
        out.count[s.layer.index()] += 1;
        open.push(s);
    }
    out
}

/// Where a [`TracedFabric`] hands its spans when the cluster drops it.
pub type SpanSink = Arc<Mutex<Vec<Span>>>;

/// A `Transport` that times every message it forwards to the `Fabric`
/// it wraps. Its spans stay local until it is dropped with the cluster,
/// then move to the shared sink, so the per-message cost is two clock
/// reads and a push.
#[derive(Debug)]
pub struct TracedFabric {
    inner: Fabric,
    clock: Stopwatch,
    spans: Vec<Span>,
    sink: SpanSink,
}

impl TracedFabric {
    /// Wraps `inner`, with room for `capacity` message spans.
    pub fn new(inner: Fabric, clock: Stopwatch, capacity: usize, sink: SpanSink) -> Self {
        TracedFabric {
            inner,
            clock,
            spans: Vec::with_capacity(capacity),
            sink,
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut Fabric) -> Delivery) -> Delivery {
        let start = now_ns(&self.clock);
        let d = f(&mut self.inner);
        self.spans.push(Span {
            start,
            end: now_ns(&self.clock),
            layer: Layer::Fabric,
        });
        d
    }
}

impl Drop for TracedFabric {
    fn drop(&mut self) {
        // A poisoned sink only loses the trace; the trial's outputs are
        // already recorded, and a panic here would abort the process.
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.spans);
        }
    }
}

impl Transport for TracedFabric {
    fn request(&mut self, now: SimTime, shard: usize, bytes: u64) -> Delivery {
        self.timed(|f| f.request_delivery(now, shard, bytes))
    }

    fn response(&mut self, now: SimTime, shard: usize, bytes: u64) -> Delivery {
        self.timed(|f| f.response_delivery(now, shard, bytes))
    }

    fn is_partitioned(&self, shard: usize) -> bool {
        self.inner.is_partitioned(shard)
    }

    fn on_add_shard(&mut self) {
        self.inner.add_link();
    }

    fn on_remove_shard(&mut self, idx: usize) {
        self.inner.remove_link(idx);
    }

    fn stats(&self) -> TransportStats {
        Transport::stats(&self.inner)
    }

    fn fabric_mut(&mut self) -> Option<&mut Fabric> {
        Some(&mut self.inner)
    }
}
