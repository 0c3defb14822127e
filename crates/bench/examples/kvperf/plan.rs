//! Op planning: the measured phase's op stream, drawn from the seed.
//!
//! Keys come from `kvssd_kvbench::KeyGen` over a dense index space, so
//! the oracle can track each key by its index. Planning fills a reusable
//! batch (one flat key arena, no per-op allocation) that the phase loop
//! then executes.

use kvssd_kvbench::keys::KeyGen;
use kvssd_sim::{mix64, DeterministicRng, ZipfianDistribution};

/// What one op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Point read, checked against the oracle.
    Read,
    /// Store of a fresh tag over an existing or deleted key.
    Update,
    /// Delete.
    Delete,
}

/// One planned op.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// What the op does.
    pub kind: Kind,
    /// The key's index (the oracle's slot).
    pub key: u64,
    /// The payload tag an update writes.
    pub tag: u64,
}

/// How keys are chosen.
#[derive(Debug)]
pub enum Pattern {
    /// Every key equally likely.
    Uniform,
    /// YCSB-style Zipfian ranks, scattered over the key space by a
    /// seeded scramble so the hot keys differ from seed to seed.
    Zipfian {
        /// Rank distribution.
        dist: ZipfianDistribution,
        /// Scramble salt.
        salt: u64,
    },
}

/// The op mix, in percent; deletes take the rest.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Reads, %.
    pub read: u64,
    /// Updates, %.
    pub update: u64,
}

/// A reusable batch of planned ops with their keys.
#[derive(Debug)]
pub struct Batch {
    key_bytes: usize,
    keys: Vec<u8>,
    /// The planned ops, in submission order.
    pub ops: Vec<Op>,
}

impl Batch {
    /// An empty batch for `capacity` ops of `key_bytes`-long keys.
    pub fn new(capacity: usize, key_bytes: usize) -> Self {
        Batch {
            key_bytes,
            keys: Vec::with_capacity(capacity * key_bytes),
            ops: Vec::with_capacity(capacity),
        }
    }

    /// The key bytes of op `i`.
    pub fn key(&self, i: usize) -> &[u8] {
        &self.keys[i * self.key_bytes..(i + 1) * self.key_bytes]
    }
}

/// Draws ops from one seeded stream.
#[derive(Debug)]
pub struct Planner {
    keygen: KeyGen,
    key_buf: Vec<u8>,
    rng: DeterministicRng,
    keys: u64,
    pattern: Pattern,
    mix: Mix,
    next_tag: u64,
}

impl Planner {
    /// A planner over keys `0..keys` whose first update writes tag
    /// `first_tag`.
    pub fn new(
        keygen: KeyGen,
        seed: u64,
        keys: u64,
        pattern: Pattern,
        mix: Mix,
        first_tag: u64,
    ) -> Self {
        Planner {
            key_buf: Vec::with_capacity(keygen.key_bytes()),
            keygen,
            rng: DeterministicRng::seed_from(seed),
            keys,
            pattern,
            mix,
            next_tag: first_tag,
        }
    }

    /// Replaces `batch`'s contents with the next `n` ops.
    pub fn plan(&mut self, n: usize, batch: &mut Batch) {
        batch.keys.clear();
        batch.ops.clear();
        for _ in 0..n {
            let key = match &self.pattern {
                Pattern::Uniform => self.rng.below(self.keys),
                Pattern::Zipfian { dist, salt } => {
                    mix64(dist.sample(&mut self.rng) ^ salt) % self.keys
                }
            };
            let roll = self.rng.below(100);
            let kind = if roll < self.mix.read {
                Kind::Read
            } else if roll < self.mix.read + self.mix.update {
                Kind::Update
            } else {
                Kind::Delete
            };
            let tag = if kind == Kind::Update {
                self.next_tag += 1;
                self.next_tag - 1
            } else {
                0
            };
            self.keygen.key_into(key, &mut self.key_buf);
            batch.keys.extend_from_slice(&self.key_buf);
            batch.ops.push(Op { kind, key, tag });
        }
    }
}
