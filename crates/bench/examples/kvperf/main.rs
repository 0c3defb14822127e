//! `kvperf`: the repository's end-to-end benchmark.
//!
//! One invocation runs one named workload, single-threaded, for about
//! `--seconds` of host time, and prints every metric by name with its
//! unit and sample count. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release -p kvssd-bench --example kvperf -- \
//!     --workload kvssd_gc_churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run repeats whole trials — build the store, fill it, run the
//! measured phase through a `QueueRunner` at a fixed queue depth, check
//! every read against the oracle — until its time is spent. Trials of
//! one run replay the same inputs, so their virtual-time digests must be
//! identical, and a host time is the sum over fixed chunks of the work
//! of each chunk's fastest time in any trial (see [`fastest`]).
//! `--trace 1` alternates untraced and traced trials and reports the
//! per-layer metrics instead of the end-to-end ones. See `README.md`
//! beside this file for the workloads, the metric definitions and what
//! each should move.

mod oracle;
mod plan;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use kvssd_bench::walltime::Stopwatch;
use kvssd_core::{KvError, Payload};
use kvssd_kvbench::keys::KeyGen;
use kvssd_sim::{mix64, QueueRunner, SimDuration, SimTime, ZipfianDistribution};

use oracle::{Oracle, OracleCounts, TOMBSTONE};
use plan::{Batch, Kind, Pattern, Planner};
use trace::{Layer, LayerTimes, SpanSink, Tracer};
use workloads::{domain, stream, Counters, GcChurn, GrayFailure, LsmReadMostly, Target};

/// Ops planned per batch.
const BATCH_OPS: usize = 256;

/// Ops per timed chunk of the fill and of the measured phase: a
/// multiple of [`BATCH_OPS`].
const CHUNK_OPS: u64 = 8192;

/// Fewest trials a run makes, whatever `--seconds` says.
const MIN_TRIALS: usize = 3;

/// A run stops starting trials once it could not finish another by
/// this many host seconds.
const TIME_LIMIT_S: f64 = 150.0;

/// Samples a p99.9 needs so that ten lie beyond it.
const P999_MIN_SAMPLES: u64 = 10_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    GcChurn,
    GrayFailure,
    LsmReadMostly,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("kvssd_gc_churn", Workload::GcChurn),
        ("cluster_gray_failure", Workload::GrayFailure),
        ("lsm_read_mostly", Workload::LsmReadMostly),
    ];
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.iter().find(|(n, _)| *n == value);
                workload = Some(w.ok_or(format!("unknown workload {value}"))?.1);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required: one of {names:?}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Every virtual latency of one kind of op, in ns (saturating at about
/// 4.3 s), so percentiles are exact rather than bucketed.
#[derive(Debug)]
struct Latencies(Vec<u32>);

impl Latencies {
    fn with_capacity(n: u64) -> Self {
        Latencies(Vec::with_capacity(n as usize))
    }

    fn record(&mut self, d: SimDuration) {
        self.0.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    /// Sorts the record and keeps what the metrics and the digest need.
    fn summarize(mut self) -> LatencySummary {
        self.0.sort_unstable();
        let n = self.0.len();
        // Nearest rank, in µs.
        let pct = |p: f64| {
            let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
            self.0.get(rank - 1).map_or(0.0, |&v| f64::from(v) / 1e3)
        };
        LatencySummary {
            count: n as u64,
            sum_ns: self.0.iter().map(|&v| u64::from(v)).sum(),
            p50_us: pct(50.0),
            p999_us: pct(99.9),
            digest_pcts_us: DIGEST_PERCENTILES.map(pct),
        }
    }
}

/// Percentiles the digest covers, beyond the reported ones.
const DIGEST_PERCENTILES: [f64; 9] = [0.0, 1.0, 10.0, 25.0, 75.0, 90.0, 99.0, 99.99, 100.0];

/// What a trial keeps of its latency record.
#[derive(Debug)]
struct LatencySummary {
    count: u64,
    sum_ns: u64,
    p50_us: f64,
    p999_us: f64,
    digest_pcts_us: [f64; 9],
}

/// What one trial measured.
#[derive(Debug)]
struct Trial {
    traced: bool,
    fill_ops: u64,
    ops: u64,
    setup_s: f64,
    phase_s: f64,
    /// Host seconds of each step of the set-up: the build, then each
    /// fill chunk of [`CHUNK_OPS`] stores (the last one with the flush).
    setup_chunks: Vec<f64>,
    /// Host seconds of each measured-phase chunk of [`CHUNK_OPS`] ops
    /// (the last one with the closing flush).
    phase_chunks: Vec<f64>,
    reads: LatencySummary,
    writes: LatencySummary,
    virt_start: SimTime,
    virt_end: SimTime,
    host_cpu_ns: u64,
    device_bytes: u64,
    live_user_bytes: u64,
    user_bytes_written: u64,
    counters: Counters,
    oracle: OracleCounts,
    fill_errors: u64,
    layers: LayerTimes,
}

impl Trial {
    /// A digest of everything virtual the trial produced: it must not
    /// depend on host speed or on tracing.
    fn digest(&self) -> u64 {
        let mut h = 0u64;
        let mut eat = |v: u64| h = mix64(h ^ v);
        eat(self.virt_start.as_nanos());
        eat(self.virt_end.as_nanos());
        for lat in [&self.reads, &self.writes] {
            eat(lat.count);
            eat(lat.sum_ns);
            for v in [lat.p50_us, lat.p999_us].iter().chain(&lat.digest_pcts_us) {
                eat(v.to_bits());
            }
        }
        eat(self.host_cpu_ns);
        eat(self.device_bytes);
        eat(self.live_user_bytes);
        eat(self.user_bytes_written);
        for v in self.counters.values() {
            eat(v);
        }
        let o = self.oracle;
        for v in [
            o.stale_reads,
            o.resurrected_deletes,
            o.lost_writes,
            o.typed_errors,
            self.fill_errors,
        ] {
            eat(v);
        }
        h
    }
}

/// Builds and fills a store, then runs the measured phase.
fn run_trial<T: Target>(seed: u64, traced: bool) -> Result<Trial, KvError> {
    let spec = T::SPEC;
    let clock = Stopwatch::start();
    let sink: SpanSink = Arc::new(Mutex::new(Vec::new()));
    let mut target = T::build(seed, traced.then(|| (clock, sink.clone())));
    let mut setup_marks = vec![0.0, clock.elapsed_secs()];

    // Fill: every key once, in order, at the phase's queue depth.
    let keygen = KeyGen::new(spec.key_bytes);
    let mut oracle = Oracle::new(spec.keys);
    let mut quiet = Tracer::off(clock);
    let mut key = Vec::with_capacity(spec.key_bytes);
    let mut runner = QueueRunner::new(spec.queue_depth);
    for i in 0..spec.keys {
        if i > 0 && i.is_multiple_of(CHUNK_OPS) {
            setup_marks.push(clock.elapsed_secs());
        }
        keygen.key_into(i, &mut key);
        let tag = i + 1;
        runner.submit(|issue| {
            let value = Payload::synthetic(spec.value_bytes, tag);
            let r = target.store(&mut quiet, issue, &key, value);
            oracle.mutated(i, tag, &r);
            r.unwrap_or(issue)
        });
    }
    let filled = runner.drain();
    let start = target.flush(filled)?.max(filled);
    let setup_s = clock.elapsed_secs();
    setup_marks.push(setup_s);
    let fill_errors = std::mem::take(&mut oracle.counts).failed();

    let before = target.counters();
    let cpu_before = target.host_cpu_busy();
    let pattern = match spec.zipf_theta {
        Some(theta) => Pattern::Zipfian {
            dist: ZipfianDistribution::new(spec.keys, theta),
            salt: stream(seed, domain::ZIPF),
        },
        None => Pattern::Uniform,
    };
    let mut planner = Planner::new(
        keygen,
        stream(seed, domain::OPS),
        spec.keys,
        pattern,
        spec.mix,
        spec.keys + 1,
    );
    let mut tr = if traced {
        let batches = spec.ops as usize / BATCH_OPS + 1;
        Tracer::on(clock, spec.ops as usize + batches)
    } else {
        Tracer::off(clock)
    };
    let mut batch = Batch::new(BATCH_OPS, spec.key_bytes);
    let mut reads = Latencies::with_capacity(spec.ops * (spec.mix.read + 5) / 100);
    let mut writes = Latencies::with_capacity(spec.ops * (105 - spec.mix.read) / 100);
    let mut user_bytes_written = 0u64;
    let mut runner = QueueRunner::starting_at(spec.queue_depth, start);

    let phase = Stopwatch::start();
    let phase_start_ns = (clock.elapsed_secs() * 1e9) as u64;
    let mut phase_marks = vec![0.0];
    let mut done = 0u64;
    while done < spec.ops {
        if done > 0 && done.is_multiple_of(CHUNK_OPS) {
            phase_marks.push(phase.elapsed_secs());
        }
        target.before_ops(done);
        let n = BATCH_OPS.min((spec.ops - done) as usize);
        tr.span(Layer::Plan, || planner.plan(n, &mut batch));
        for (i, op) in batch.ops.iter().enumerate() {
            let key = batch.key(i);
            let mut ok = true;
            let timing = runner.submit(|issue| match op.kind {
                Kind::Read => {
                    let r = target.retrieve(&mut tr, issue, key);
                    oracle.read(op.key, &r);
                    ok = r.is_ok();
                    r.map_or(issue, |(at, _)| at)
                }
                Kind::Update => {
                    let value = Payload::synthetic(spec.value_bytes, op.tag);
                    let r = target.store(&mut tr, issue, key, value);
                    oracle.mutated(op.key, op.tag, &r);
                    ok = r.is_ok();
                    r.unwrap_or(issue)
                }
                Kind::Delete => {
                    let r = target.delete(&mut tr, issue, key);
                    oracle.mutated(op.key, TOMBSTONE, &r);
                    ok = r.is_ok();
                    r.unwrap_or(issue)
                }
            });
            // A failed op has no latency: it counts as failed instead.
            if ok {
                match op.kind {
                    Kind::Read => reads.record(timing.latency()),
                    Kind::Update => {
                        user_bytes_written += (spec.key_bytes as u64) + spec.value_bytes as u64;
                        writes.record(timing.latency());
                    }
                    Kind::Delete => writes.record(timing.latency()),
                }
            }
        }
        done += n as u64;
    }
    let drained = runner.drain();
    let virt_end = target.flush(drained)?.max(drained);
    let phase_s = phase.elapsed_secs();
    phase_marks.push(phase_s);

    let counters = target.counters().since(&before);
    let host_cpu_ns = (target.host_cpu_busy() - cpu_before).as_nanos();
    let device_bytes = target.device_bytes();
    // Dropping the store hands the fabric's spans to the sink.
    drop(target);
    let mut spans = tr.into_spans();
    if let Ok(mut fabric_spans) = sink.lock() {
        // The fill's messages are set-up, not measured-phase work.
        spans.extend(fabric_spans.drain(..).filter(|s| s.start >= phase_start_ns));
    }
    Ok(Trial {
        traced,
        fill_ops: spec.keys,
        ops: spec.ops,
        setup_s,
        phase_s,
        setup_chunks: steps(&setup_marks),
        phase_chunks: steps(&phase_marks),
        reads: reads.summarize(),
        writes: writes.summarize(),
        virt_start: start,
        virt_end,
        host_cpu_ns,
        device_bytes,
        live_user_bytes: oracle.live_keys() * (spec.key_bytes as u64 + spec.value_bytes as u64),
        user_bytes_written,
        counters,
        oracle: oracle.counts,
        fill_errors,
        layers: trace::self_times(&mut spans),
    })
}

/// The gaps between successive time marks.
fn steps(marks: &[f64]) -> Vec<f64> {
    marks.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Host seconds of the work every trial repeats, each chunk at its
/// fastest: the sum over chunks of the least time any trial took for
/// it. Trials replay the same inputs, so chunk `k` is the same work in
/// every trial, and a chunk's least time is the one least slowed by
/// whatever else the machine ran meanwhile.
fn fastest(trials: &[&Trial], chunks: fn(&Trial) -> &[f64]) -> f64 {
    let Some(first) = trials.first() else {
        return 0.0;
    };
    (0..chunks(first).len())
        .map(|k| {
            trials
                .iter()
                .filter_map(|t| chunks(t).get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The process's peak resident memory, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: u64,
}

fn m(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The ten end-to-end metrics. Host times are each chunk's fastest
/// over the untraced trials; virtual ones are the same in every trial.
fn end_to_end(trials: &[Trial]) -> Vec<Metric> {
    let timed: Vec<&Trial> = trials.iter().filter(|t| !t.traced).collect();
    let n = timed.len() as u64;
    let t = &trials[0];
    let ops = t.ops;
    let virt_s = t.virt_end.since(t.virt_start).as_secs_f64();
    vec![
        m(
            "host_kops",
            ops as f64 / fastest(&timed, |t| &t.phase_chunks) / 1e3,
            "kops/s",
            n,
        ),
        m("setup_s", fastest(&timed, |t| &t.setup_chunks), "s", n),
        m("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB", 1),
        m("virt_kops", ops as f64 / virt_s / 1e3, "kops/s", ops),
        m("virt_read_p50_us", t.reads.p50_us, "us", t.reads.count),
        m("virt_read_p999_us", t.reads.p999_us, "us", t.reads.count),
        m("virt_write_p50_us", t.writes.p50_us, "us", t.writes.count),
        m("virt_write_p999_us", t.writes.p999_us, "us", t.writes.count),
        m(
            "virt_host_cpu_cores",
            t.host_cpu_ns as f64 / 1e9 / virt_s,
            "cores",
            ops,
        ),
        m(
            "space_amp",
            ratio(t.device_bytes, t.live_user_bytes),
            "ratio",
            1,
        ),
    ]
}

/// The per-layer metrics: counts from any trial (they repeat exactly),
/// host time from the traced trials.
fn per_layer(trials: &[Trial]) -> Vec<Metric> {
    let t = &trials[0];
    let c = &t.counters;
    let o = &t.oracle;
    let ops = t.ops;
    let traced: Vec<&Trial> = trials.iter().filter(|t| t.traced).collect();
    let untraced: Vec<&Trial> = trials.iter().filter(|t| !t.traced).collect();
    let nt = traced.len() as u64;
    let ns_per = |layer: Layer, per: fn(&Trial) -> u64| {
        median(
            traced
                .iter()
                .map(|t| ratio(t.layers.self_ns(layer), per(t)))
                .collect(),
        )
    };
    let per_op = |n: u64| ratio(n, ops);
    let msgs = c.fab_requests + c.fab_responses;
    let overhead = {
        let traced_s = fastest(&traced, |t| &t.phase_chunks);
        let untraced_s = fastest(&untraced, |t| &t.phase_chunks);
        if untraced_s > 0.0 {
            (traced_s / untraced_s - 1.0) * 100.0
        } else {
            0.0
        }
    };
    vec![
        m("core.ns_per_op", ns_per(Layer::Core, |t| t.ops), "ns", nt),
        m("flash.reads_per_op", per_op(c.flash_reads), "count/op", ops),
        m(
            "core.gc_copied_segments_per_store",
            ratio(c.kv_gc_copied_segments, c.kv_stores),
            "count/op",
            c.kv_stores,
        ),
        m("core.gc_erases", c.kv_gc_erases as f64, "count", 1),
        m("core.fg_gc_events", c.kv_fg_gc_events as f64, "count", 1),
        m(
            "core.stall_us_per_store",
            ratio(c.kv_stall_ns, c.kv_stores) / 1e3,
            "us",
            c.kv_stores,
        ),
        m(
            "core.merges_per_store",
            ratio(c.kv_merges, c.kv_stores),
            "count/op",
            c.kv_stores,
        ),
        m(
            "core.merge_flash_reads_per_store",
            ratio(c.kv_merge_flash_reads, c.kv_stores),
            "count/op",
            c.kv_stores,
        ),
        m(
            "flash.write_amp",
            ratio(c.flash_bytes_written, t.user_bytes_written),
            "ratio",
            1,
        ),
        m("flash.erases", c.flash_erases as f64, "count", 1),
        m(
            "core.index_flash_reads_per_retrieve",
            ratio(c.kv_lookup_flash_reads, c.kv_retrieves),
            "count/op",
            c.kv_retrieves,
        ),
        m(
            "core.write_buffer_hit_ratio",
            ratio(c.kv_write_buffer_hits, c.kv_retrieves),
            "ratio",
            c.kv_retrieves,
        ),
        m(
            "core.bloom_negatives",
            c.kv_bloom_negatives as f64,
            "count",
            1,
        ),
        m(
            "cluster.ns_per_op",
            ns_per(Layer::Cluster, |t| t.ops),
            "ns",
            nt,
        ),
        m(
            "fabric.ns_per_msg",
            ns_per(Layer::Fabric, |t| t.layers.count(Layer::Fabric)),
            "ns",
            nt,
        ),
        m(
            "cluster.legs_per_op",
            per_op(c.fab_requests),
            "count/op",
            ops,
        ),
        m(
            "cluster.leg_retries_per_op",
            per_op(c.cl_leg_retries),
            "count/op",
            ops,
        ),
        m(
            "cluster.useful_leg_ratio",
            ratio(ops * workloads::GRAY_QUORUM, c.fab_requests),
            "ratio",
            c.fab_requests,
        ),
        m(
            "cluster.hedged_spares_per_op",
            per_op(c.cl_hedged_spares),
            "count/op",
            ops,
        ),
        m(
            "cluster.hedged_write_spares_per_op",
            per_op(c.cl_hedged_write_spares),
            "count/op",
            ops,
        ),
        m(
            "cluster.dup_suppressed_per_op",
            per_op(c.cl_dup_suppressed),
            "count/op",
            ops,
        ),
        m("cluster.rescued_ops", c.cl_rescued_ops as f64, "count", 1),
        m("fabric.msgs_per_op", per_op(msgs), "count/op", ops),
        m("fabric.bytes_per_op", per_op(c.fab_bytes), "B/op", ops),
        m("fabric.dropped", c.fab_dropped as f64, "count", 1),
        m(
            "fabric.partition_drops",
            c.fab_partition_drops as f64,
            "count",
            1,
        ),
        m("fabric.queue_stalls", c.fab_queue_stalls as f64, "count", 1),
        m("nvme.sq_full_stalls", c.sq_full_stalls as f64, "count", 1),
        m(
            "nvme.sq_stall_us_per_op",
            per_op(c.sq_stall_ns) / 1e3,
            "us",
            ops,
        ),
        m("oracle.stale_reads", o.stale_reads as f64, "count", 1),
        m(
            "oracle.resurrected_deletes",
            o.resurrected_deletes as f64,
            "count",
            1,
        ),
        m("oracle.lost_writes", o.lost_writes as f64, "count", 1),
        m("oracle.typed_errors", o.typed_errors as f64, "count", 1),
        m(
            "lsm-store.ns_per_op",
            ns_per(Layer::Lsm, |t| t.ops),
            "ns",
            nt,
        ),
        m(
            "lsm-store.block_cache_hit_ratio",
            ratio(
                c.lsm_block_cache_hits,
                c.lsm_block_cache_hits + c.lsm_block_cache_misses,
            ),
            "ratio",
            c.lsm_block_cache_hits + c.lsm_block_cache_misses,
        ),
        m(
            "lsm-store.memtable_hit_ratio",
            ratio(c.lsm_memtable_hits, c.lsm_gets),
            "ratio",
            c.lsm_gets,
        ),
        m(
            "host-stack.page_cache_hit_ratio",
            ratio(
                c.fs_page_cache_hits,
                c.fs_page_cache_hits + c.fs_page_cache_misses,
            ),
            "ratio",
            c.fs_page_cache_hits + c.fs_page_cache_misses,
        ),
        m(
            "host-stack.bytes_read_per_get",
            ratio(c.fs_bytes_read, c.lsm_gets),
            "B/op",
            c.lsm_gets,
        ),
        m("lsm-store.flushes", c.lsm_flushes as f64, "count", 1),
        m(
            "lsm-store.compactions",
            c.lsm_compactions as f64,
            "count",
            1,
        ),
        m(
            "lsm-store.compaction_bytes_per_put",
            ratio(c.lsm_bytes_compacted, c.lsm_puts),
            "B/op",
            c.lsm_puts,
        ),
        m(
            "lsm-store.stall_us_per_put",
            ratio(c.lsm_stall_ns, c.lsm_puts) / 1e3,
            "us",
            c.lsm_puts,
        ),
        m("host-stack.fsyncs", c.fs_fsyncs as f64, "count", 1),
        m(
            "block-ftl.write_amp",
            ratio(c.flash_bytes_written, c.blk_host_bytes_written),
            "ratio",
            1,
        ),
        m(
            "block-ftl.gc_copied_clusters",
            c.blk_gc_copied_clusters as f64,
            "count",
            1,
        ),
        m("block-ftl.rmw_reads", c.blk_rmw_reads as f64, "count", 1),
        m(
            "block-ftl.fg_gc_events",
            c.blk_fg_gc_events as f64,
            "count",
            1,
        ),
        m(
            "kvbench.plan_ns_per_op",
            ns_per(Layer::Plan, |t| t.ops),
            "ns",
            nt,
        ),
        m("trace.overhead_pct", overhead, "%", nt),
    ]
}

/// Runs trials until `seconds` have passed (at least [`MIN_TRIALS`]),
/// alternating untraced and traced trials when tracing.
fn run<T: Target>(args: &Args) -> Result<Vec<Trial>, KvError> {
    let clock = Stopwatch::start();
    let min = if args.trace {
        2 * MIN_TRIALS
    } else {
        MIN_TRIALS
    };
    let mut trials: Vec<Trial> = Vec::new();
    loop {
        let traced = args.trace && trials.len() % 2 == 1;
        let t = run_trial::<T>(args.seed, traced)?;
        eprintln!(
            "trial {}{}: setup {:.3} s, phase {:.3} s, digest {:016x}",
            trials.len(),
            if traced { " (traced)" } else { "" },
            t.setup_s,
            t.phase_s,
            t.digest()
        );
        trials.push(t);
        let elapsed = clock.elapsed_secs();
        let per_trial = elapsed / trials.len() as f64;
        let enough = trials.len() >= min && elapsed >= args.seconds;
        if enough || elapsed + per_trial > TIME_LIMIT_S {
            return Ok(trials);
        }
    }
}

fn main() {
    kvssd_bench::alloctune::retain_large_allocations();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kvperf: {e}");
            eprintln!("usage: kvperf --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut problems = Vec::new();
    if let Err(e) = oracle::self_test() {
        problems.push(e);
    }
    let result = match args.workload {
        Workload::GcChurn => run::<GcChurn>(&args),
        Workload::GrayFailure => run::<GrayFailure>(&args),
        Workload::LsmReadMostly => run::<LsmReadMostly>(&args),
    };
    let trials = match result {
        Ok(t) => t,
        Err(e) => {
            eprintln!("kvperf: a set-up or flush call failed: {e}");
            std::process::exit(1);
        }
    };

    let first = &trials[0];
    let digest = first.digest();
    if trials.iter().any(|t| t.digest() != digest) {
        problems.push("virtual digests differ between trials of one run".to_string());
    }
    for (what, lat) in [("reads", &first.reads), ("writes", &first.writes)] {
        if lat.count < P999_MIN_SAMPLES {
            problems.push(format!(
                "{} {what}: too few for a p99.9 with ten samples beyond it",
                lat.count
            ));
        }
    }

    let metrics = if args.trace {
        per_layer(&trials)
    } else {
        end_to_end(&trials)
    };
    for x in &metrics {
        if !x.value.is_finite() {
            problems.push(format!("{} is not a number", x.name));
        }
    }
    let o = first.oracle;
    // Fill ops are attempted too: a typed error there is a failure.
    let attempted = first.fill_ops + first.ops;
    let failed = first.fill_errors + o.failed();
    println!(
        "workload {} seed {} trials {} ({} traced) digest {digest:016x}",
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == args.workload)
            .map_or("?", |(n, _)| n),
        args.seed,
        trials.len(),
        trials.iter().filter(|t| t.traced).count(),
    );
    println!(
        "ops {attempted} ({} fill, {} measured) failed {failed} \
         (stale {} resurrected {} lost {} typed {}; fill typed {})",
        first.fill_ops,
        first.ops,
        o.stale_reads,
        o.resurrected_deletes,
        o.lost_writes,
        o.typed_errors,
        first.fill_errors,
    );
    for x in &metrics {
        println!(
            "{:<36} {:>14.4} {:<9} n={}",
            x.name, x.value, x.unit, x.samples
        );
    }
    for p in &problems {
        println!("problem: {p}");
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        problems.is_empty(),
        attempted,
        failed
    );
    for (i, x) in metrics.iter().enumerate() {
        let value = if x.value.is_finite() { x.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            x.name, x.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
