//! The three workloads: each layer's store, built the way the figure
//! runners build it, behind one small interface the phase loop drives.

use kvssd_bench::setup;
use kvssd_bench::walltime::Stopwatch;
use kvssd_cluster::{ClusterConfig, KvCluster, Transport};
use kvssd_core::{KvError, KvSsd, Payload};
use kvssd_fabric::{Fabric, FabricConfig, LinkConfig};
use kvssd_host_stack::{ExtFs, HostCpu};
use kvssd_lsm_store::{LsmConfig, LsmStore};
use kvssd_sim::{mix64, DeterministicRng, SimDuration, SimTime};

use crate::plan::Mix;
use crate::trace::{Layer, SpanSink, TracedFabric, Tracer};

/// Derives an independent input stream from the run's seed.
pub fn stream(seed: u64, domain: u64) -> u64 {
    mix64(seed ^ mix64(domain))
}

/// Seed domains, one per input stream.
pub mod domain {
    /// The measured phase's op stream.
    pub const OPS: u64 = 1;
    /// The Zipfian scramble.
    pub const ZIPF: u64 = 2;
    /// Cluster ring placement and retry backoff.
    pub const RING: u64 = 3;
    /// Fabric drop and jitter streams.
    pub const FABRIC: u64 = 4;
    /// The order in which shards are partitioned.
    pub const PARTITIONS: u64 = 5;
}

/// A workload's fixed shape. Sizes are fixed here, not by options, so
/// every run of a workload does the same work.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Keys filled before the measured phase (and the key space).
    pub keys: u64,
    /// Key length, bytes.
    pub key_bytes: usize,
    /// Value length, bytes.
    pub value_bytes: u32,
    /// Queue depth of fill and measured phase.
    pub queue_depth: usize,
    /// Ops in the measured phase.
    pub ops: u64,
    /// Read / update / delete mix.
    pub mix: Mix,
    /// Zipfian skew, or `None` for uniform keys.
    pub zipf_theta: Option<f64>,
}

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Raw layer counters, summed over every device of a workload.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Counters {
            /// The counts accumulated since `before`.
            pub fn since(&self, before: &Counters) -> Counters {
                Counters { $($name: self.$name.wrapping_sub(before.$name),)* }
            }

            /// Every counter, in declaration order.
            pub fn values(&self) -> Vec<u64> {
                vec![$(self.$name,)*]
            }
        }
    };
}

counters! {
    /// KV store commands.
    kv_stores,
    /// KV retrieve commands.
    kv_retrieves,
    /// KV negative lookups answered by a Bloom filter.
    kv_bloom_negatives,
    /// Segments copied by KV GC.
    kv_gc_copied_segments,
    /// Blocks erased by KV GC.
    kv_gc_erases,
    /// Foreground KV GC episodes.
    kv_fg_gc_events,
    /// KV write stall time, ns.
    kv_stall_ns,
    /// KV reads served from the write buffer.
    kv_write_buffer_hits,
    /// KV local-to-global index merges.
    kv_merges,
    /// Index flash reads paid by lookups.
    kv_lookup_flash_reads,
    /// Index flash reads paid by merges.
    kv_merge_flash_reads,
    /// Flash page reads, every device.
    flash_reads,
    /// Flash block erases, every device.
    flash_erases,
    /// Flash bytes programmed, every device.
    flash_bytes_written,
    /// Cluster spare read legs.
    cl_hedged_spares,
    /// Cluster leg re-issues after a missed deadline.
    cl_leg_retries,
    /// Cluster ops rescued by a retried or hedged leg.
    cl_rescued_ops,
    /// Cluster spare write legs.
    cl_hedged_write_spares,
    /// Re-delivered mutations deduped at replicas.
    cl_dup_suppressed,
    /// Submission-queue full stalls.
    sq_full_stalls,
    /// Submission-queue stall time, ns.
    sq_stall_ns,
    /// Fabric request messages.
    fab_requests,
    /// Fabric response messages.
    fab_responses,
    /// Fabric messages lost to seeded drops.
    fab_dropped,
    /// Fabric messages swallowed by partitions.
    fab_partition_drops,
    /// Fabric sends that waited on a full queue.
    fab_queue_stalls,
    /// Fabric payload bytes.
    fab_bytes,
    /// LSM puts (updates and deletes).
    lsm_puts,
    /// LSM gets.
    lsm_gets,
    /// LSM memtable flushes.
    lsm_flushes,
    /// LSM compactions.
    lsm_compactions,
    /// LSM write stall time, ns.
    lsm_stall_ns,
    /// LSM bytes written by compactions.
    lsm_bytes_compacted,
    /// LSM gets answered by the memtable.
    lsm_memtable_hits,
    /// LSM block-cache hits.
    lsm_block_cache_hits,
    /// LSM block-cache misses.
    lsm_block_cache_misses,
    /// Filesystem fsyncs.
    fs_fsyncs,
    /// Bytes read through the filesystem.
    fs_bytes_read,
    /// Page-cache hits.
    fs_page_cache_hits,
    /// Page-cache misses.
    fs_page_cache_misses,
    /// Bytes the host wrote to the block device.
    blk_host_bytes_written,
    /// Clusters copied by block-FTL GC.
    blk_gc_copied_clusters,
    /// Block-FTL read-modify-write reads.
    blk_rmw_reads,
    /// Foreground block-FTL GC episodes.
    blk_fg_gc_events,
}

impl Counters {
    fn add_kv_device(&mut self, d: &KvSsd) {
        let s = d.stats();
        self.kv_stores += s.stores;
        self.kv_retrieves += s.retrieves;
        self.kv_bloom_negatives += s.bloom_negatives;
        self.kv_gc_copied_segments += s.gc_copied_segments;
        self.kv_gc_erases += s.gc_erases;
        self.kv_fg_gc_events += s.foreground_gc_events;
        self.kv_stall_ns += s.stall_time.as_nanos();
        self.kv_write_buffer_hits += s.write_buffer_hits;
        self.kv_merges += s.merges;
        let i = d.index_stats();
        self.kv_lookup_flash_reads += i.lookup_flash_reads;
        self.kv_merge_flash_reads += i.merge_flash_reads;
        self.add_flash(d.flash());
    }

    fn add_flash(&mut self, f: &kvssd_flash::FlashDevice) {
        let s = f.stats();
        self.flash_reads += s.reads;
        self.flash_erases += s.erases;
        self.flash_bytes_written += s.bytes_written;
    }
}

/// One workload's system under test, as the phase loop sees it. Each
/// call into the layer runs inside a tracer span.
pub trait Target: Sized {
    /// The workload's shape.
    const SPEC: Spec;

    /// Builds the store for `seed`. With `trace` set, cluster messages
    /// are timed too.
    fn build(seed: u64, trace: Option<(Stopwatch, SpanSink)>) -> Self;

    /// Stores `value` under `key`.
    fn store(
        &mut self,
        tr: &mut Tracer,
        now: SimTime,
        key: &[u8],
        value: Payload,
    ) -> Result<SimTime, KvError>;

    /// Reads `key`.
    fn retrieve(
        &mut self,
        tr: &mut Tracer,
        now: SimTime,
        key: &[u8],
    ) -> Result<(SimTime, Option<Payload>), KvError>;

    /// Deletes `key`.
    fn delete(&mut self, tr: &mut Tracer, now: SimTime, key: &[u8]) -> Result<SimTime, KvError>;

    /// Flushes buffered state (the end-of-phase barrier).
    fn flush(&mut self, now: SimTime) -> Result<SimTime, KvError>;

    /// Modelled host CPU consumed so far.
    fn host_cpu_busy(&self) -> SimDuration;

    /// Bytes the store occupies on its devices, summed over replicas.
    fn device_bytes(&self) -> u64;

    /// Every layer counter, now.
    fn counters(&self) -> Counters;

    /// Called before measured op number `done` when `done` is a multiple
    /// of the batch size.
    fn before_ops(&mut self, done: u64) {
        let _ = done;
    }
}

/// The KV API's per-op host cost, as `kvssd_kvbench`'s KV adapters
/// charge it.
const KV_API_COST: SimDuration = SimDuration::from_micros(1);

/// Host cores the KV adapters model.
const KV_HOST_CORES: usize = 8;

/// `kvssd_gc_churn`: one KV-SSD, filled to about three quarters, under
/// uniform updates and deletes.
#[derive(Debug)]
pub struct GcChurn {
    device: KvSsd,
    host: HostCpu,
}

impl Target for GcChurn {
    const SPEC: Spec = Spec {
        keys: 500_000,
        key_bytes: 16,
        value_bytes: 4096,
        queue_depth: 16,
        ops: 1_000_000,
        mix: Mix {
            read: 30,
            update: 60,
        },
        zipf_theta: None,
    };

    fn build(_seed: u64, _trace: Option<(Stopwatch, SpanSink)>) -> Self {
        GcChurn {
            device: KvSsd::new(setup::geometry(), setup::timing(), setup::kv_config_macro()),
            host: HostCpu::new(KV_HOST_CORES),
        }
    }

    fn store(
        &mut self,
        tr: &mut Tracer,
        now: SimTime,
        key: &[u8],
        value: Payload,
    ) -> Result<SimTime, KvError> {
        let t = self.host.run(now, KV_API_COST);
        tr.span(Layer::Core, || self.device.store(t, key, value))
    }

    fn retrieve(
        &mut self,
        tr: &mut Tracer,
        now: SimTime,
        key: &[u8],
    ) -> Result<(SimTime, Option<Payload>), KvError> {
        let t = self.host.run(now, KV_API_COST);
        let l = tr.span(Layer::Core, || self.device.retrieve(t, key))?;
        Ok((l.at, l.value))
    }

    fn delete(&mut self, tr: &mut Tracer, now: SimTime, key: &[u8]) -> Result<SimTime, KvError> {
        let t = self.host.run(now, KV_API_COST);
        Ok(tr.span(Layer::Core, || self.device.delete(t, key))?.0)
    }

    fn flush(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        self.device.flush(now)
    }

    fn host_cpu_busy(&self) -> SimDuration {
        self.host.busy_total()
    }

    fn device_bytes(&self) -> u64 {
        self.device.space().allocated_bytes
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        c.add_kv_device(&self.device);
        c
    }
}

/// Ops per partition window of `cluster_gray_failure`: windows alternate
/// between one shard's link partitioned and every link healthy.
pub const PARTITION_WINDOW_OPS: u64 = 10_240;

/// `cluster_gray_failure`: an 8-shard, 3-way replicated cluster over a
/// lossy fabric whose links are partitioned in turn.
#[derive(Debug)]
pub struct GrayFailure {
    cluster: KvCluster,
    host: HostCpu,
    /// Shards in the order their links are partitioned.
    partition_order: Vec<usize>,
    partitioned: Option<usize>,
}

const GRAY_SHARDS: usize = 8;
const GRAY_REPLICAS: usize = 3;

/// Acknowledgements a `cluster_gray_failure` op needs: a majority.
pub const GRAY_QUORUM: u64 = (GRAY_REPLICAS / 2 + 1) as u64;

/// Fabric messages per op a traced trial makes room for up front.
const GRAY_MSGS_PER_OP: u64 = 12;

impl Target for GrayFailure {
    const SPEC: Spec = Spec {
        keys: 50_000,
        key_bytes: 32,
        value_bytes: 1024,
        queue_depth: 8,
        ops: 200_000,
        mix: Mix {
            read: 45,
            update: 45,
        },
        zipf_theta: Some(0.99),
    };

    fn build(seed: u64, trace: Option<(Stopwatch, SpanSink)>) -> Self {
        let link = LinkConfig::datacenter()
            .latency(SimDuration::from_micros(15))
            .jitter(SimDuration::from_micros(5))
            .drop_ppm(10_000);
        let fabric = Fabric::new(
            FabricConfig::new(stream(seed, domain::FABRIC), link),
            GRAY_SHARDS,
        );
        let transport: Box<dyn Transport> = match trace {
            Some((clock, sink)) => {
                let capacity = (Self::SPEC.ops * GRAY_MSGS_PER_OP) as usize;
                Box::new(TracedFabric::new(fabric, clock, capacity, sink))
            }
            None => Box::new(fabric),
        };
        let hedge = Some(SimDuration::from_micros(200));
        let config = ClusterConfig::new(GRAY_SHARDS, stream(seed, domain::RING))
            .replication(GRAY_REPLICAS)
            .lean_reads(hedge)
            .hedged_writes(hedge)
            .deadlines(SimDuration::from_millis(2), 3);
        let kv = setup::kv_config_macro();
        let cluster = KvCluster::with_transport(config, transport, |_| {
            KvSsd::new(setup::geometry(), setup::timing(), kv)
        });
        let mut rng = DeterministicRng::seed_from(stream(seed, domain::PARTITIONS));
        let mut partition_order: Vec<usize> = (0..GRAY_SHARDS).collect();
        for i in (1..partition_order.len()).rev() {
            partition_order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        GrayFailure {
            cluster,
            host: HostCpu::new(KV_HOST_CORES),
            partition_order,
            partitioned: None,
        }
    }

    fn store(
        &mut self,
        tr: &mut Tracer,
        now: SimTime,
        key: &[u8],
        value: Payload,
    ) -> Result<SimTime, KvError> {
        let t = self.host.run(now, KV_API_COST);
        tr.span(Layer::Cluster, || self.cluster.store(t, key, value))
    }

    fn retrieve(
        &mut self,
        tr: &mut Tracer,
        now: SimTime,
        key: &[u8],
    ) -> Result<(SimTime, Option<Payload>), KvError> {
        let t = self.host.run(now, KV_API_COST);
        let l = tr.span(Layer::Cluster, || self.cluster.retrieve(t, key))?;
        Ok((l.at, l.value))
    }

    fn delete(&mut self, tr: &mut Tracer, now: SimTime, key: &[u8]) -> Result<SimTime, KvError> {
        let t = self.host.run(now, KV_API_COST);
        Ok(tr.span(Layer::Cluster, || self.cluster.delete(t, key))?.0)
    }

    fn flush(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        self.cluster.flush(now)
    }

    fn host_cpu_busy(&self) -> SimDuration {
        self.host.busy_total()
    }

    fn device_bytes(&self) -> u64 {
        self.cluster.space().allocated_bytes
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for shard in self.cluster.shards() {
            c.add_kv_device(shard.device());
        }
        let s = self.cluster.stats();
        c.cl_hedged_spares = s.hedged_spares;
        c.cl_leg_retries = s.leg_retries;
        c.cl_rescued_ops = s.retry_rescued_ops;
        c.cl_hedged_write_spares = s.hedged_write_spares;
        c.cl_dup_suppressed = s.dup_suppressed;
        c.sq_full_stalls = s.sq_full_stalls;
        c.sq_stall_ns = s.sq_stall_time.as_nanos();
        let t = self.cluster.transport_stats();
        c.fab_requests = t.requests;
        c.fab_responses = t.responses;
        c.fab_dropped = t.dropped;
        c.fab_partition_drops = t.partition_drops;
        c.fab_queue_stalls = t.queue_stalls;
        c.fab_bytes = t.bytes;
        c
    }

    fn before_ops(&mut self, done: u64) {
        if !done.is_multiple_of(PARTITION_WINDOW_OPS) {
            return;
        }
        let window = done / PARTITION_WINDOW_OPS;
        let Some(fabric) = self.cluster.fabric_mut() else {
            return;
        };
        if let Some(link) = self.partitioned.take() {
            fabric.heal(link);
        }
        if window % 2 == 1 {
            let link = self.partition_order[(window / 2) as usize % GRAY_SHARDS];
            fabric.partition(link);
            self.partitioned = Some(link);
        }
    }
}

/// `lsm_read_mostly`: the RocksDB-like store on ext4 over the block
/// SSD, its data many times its block cache.
#[derive(Debug)]
pub struct LsmReadMostly {
    store: LsmStore,
}

impl Target for LsmReadMostly {
    const SPEC: Spec = Spec {
        keys: 220_000,
        key_bytes: 16,
        value_bytes: 1024,
        queue_depth: 16,
        ops: 1_000_000,
        mix: Mix {
            read: 90,
            update: 10,
        },
        zipf_theta: Some(0.99),
    };

    fn build(_seed: u64, _trace: Option<(Stopwatch, SpanSink)>) -> Self {
        LsmReadMostly {
            store: LsmStore::new(
                ExtFs::format(setup::block_ssd()),
                LsmConfig::rocksdb_like_small_host(),
            ),
        }
    }

    fn store(
        &mut self,
        tr: &mut Tracer,
        now: SimTime,
        key: &[u8],
        value: Payload,
    ) -> Result<SimTime, KvError> {
        Ok(tr.span(Layer::Lsm, || self.store.put(now, key, value)))
    }

    fn retrieve(
        &mut self,
        tr: &mut Tracer,
        now: SimTime,
        key: &[u8],
    ) -> Result<(SimTime, Option<Payload>), KvError> {
        Ok(tr.span(Layer::Lsm, || self.store.get(now, key)))
    }

    fn delete(&mut self, tr: &mut Tracer, now: SimTime, key: &[u8]) -> Result<SimTime, KvError> {
        Ok(tr.span(Layer::Lsm, || self.store.delete(now, key)))
    }

    fn flush(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        Ok(self.store.flush_all(now))
    }

    fn host_cpu_busy(&self) -> SimDuration {
        self.store.cpu_busy_total()
    }

    fn device_bytes(&self) -> u64 {
        self.store.disk_bytes()
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        let s = self.store.stats();
        c.lsm_puts = s.puts;
        c.lsm_gets = s.gets;
        c.lsm_flushes = s.flushes;
        c.lsm_compactions = s.compactions;
        c.lsm_stall_ns = s.stall_time.as_nanos();
        c.lsm_bytes_compacted = s.bytes_compacted;
        c.lsm_memtable_hits = s.gets_from_memtable;
        c.lsm_block_cache_hits = s.block_cache_hits;
        c.lsm_block_cache_misses = s.block_cache_misses;
        let fs = self.store.fs();
        let f = fs.stats();
        c.fs_fsyncs = f.fsyncs;
        c.fs_bytes_read = f.bytes_read;
        c.fs_page_cache_hits = f.cache_hits;
        c.fs_page_cache_misses = f.cache_misses;
        let b = fs.device().stats();
        c.blk_host_bytes_written = b.host_bytes_written;
        c.blk_gc_copied_clusters = b.gc_copied_clusters;
        c.blk_rmw_reads = b.rmw_reads;
        c.blk_fg_gc_events = b.foreground_gc_events;
        c.add_flash(fs.device().flash());
        c
    }
}
