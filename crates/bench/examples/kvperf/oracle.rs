//! The read oracle: what every read should return.
//!
//! The benchmark tags each mutation with a fresh number and writes it as
//! the synthetic payload's tag. The simulator executes ops in submission
//! order, so the oracle can keep, per key, the tag of the latest
//! acknowledged store — or a tombstone after an acknowledged delete —
//! and judge each read exactly. A mutation that fails with a typed error
//! may or may not have landed, so until the next acknowledged mutation
//! of that key a read may return either the old or the attempted state.

use kvssd_core::{KvError, Payload};
use kvssd_sim::PrehashedMap;

/// The state of a key that is absent: never written, or deleted.
pub const TOMBSTONE: u64 = 0;

/// Failure counts, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleCounts {
    /// Reads that returned a tag other than the latest acknowledged one.
    pub stale_reads: u64,
    /// Reads that found a value for a deleted key.
    pub resurrected_deletes: u64,
    /// Reads that found nothing for a live key.
    pub lost_writes: u64,
    /// Ops that returned a typed error.
    pub typed_errors: u64,
}

impl OracleCounts {
    /// Every failed op.
    pub fn failed(&self) -> u64 {
        self.stale_reads + self.resurrected_deletes + self.lost_writes + self.typed_errors
    }
}

/// Per-key expected state for a dense key space `0..keys`.
#[derive(Debug)]
pub struct Oracle {
    state: Vec<u64>,
    /// States the key's typed-failed mutations may have left, until its
    /// next acknowledged mutation.
    pending: PrehashedMap<u64, Vec<u64>>,
    live: u64,
    /// Failures seen so far.
    pub counts: OracleCounts,
}

impl Oracle {
    /// An oracle over `keys` keys, all absent.
    pub fn new(keys: u64) -> Self {
        Oracle {
            state: vec![TOMBSTONE; keys as usize],
            pending: PrehashedMap::default(),
            live: 0,
            counts: OracleCounts::default(),
        }
    }

    /// Keys whose latest acknowledged mutation is a store.
    pub fn live_keys(&self) -> u64 {
        self.live
    }

    /// Records the outcome of a store (`tag`) or delete ([`TOMBSTONE`])
    /// of `key`.
    pub fn mutated<T>(&mut self, key: u64, new: u64, outcome: &Result<T, KvError>) {
        if outcome.is_err() {
            self.counts.typed_errors += 1;
            self.pending.entry(key).or_default().push(new);
            return;
        }
        if !self.pending.is_empty() {
            self.pending.remove(&key);
        }
        let old = std::mem::replace(&mut self.state[key as usize], new);
        match (old == TOMBSTONE, new == TOMBSTONE) {
            (true, false) => self.live += 1,
            (false, true) => self.live -= 1,
            _ => {}
        }
    }

    /// Judges one read of `key`.
    pub fn read<T>(&mut self, key: u64, outcome: &Result<(T, Option<Payload>), KvError>) {
        let got = match outcome {
            Err(_) => {
                self.counts.typed_errors += 1;
                return;
            }
            Ok((_, None)) => TOMBSTONE,
            Ok((_, Some(Payload::Synthetic { tag, .. }))) => *tag,
            // The benchmark writes only synthetic payloads; bytes it
            // never wrote are as wrong as a stale tag.
            Ok((_, Some(Payload::Bytes(_)))) => u64::MAX,
        };
        let want = self.state[key as usize];
        if got == want || self.pending.get(&key).is_some_and(|p| p.contains(&got)) {
            return;
        }
        if got == TOMBSTONE {
            self.counts.lost_writes += 1;
        } else if want == TOMBSTONE {
            self.counts.resurrected_deletes += 1;
        } else {
            self.counts.stale_reads += 1;
        }
    }
}

/// Checks that the oracle sees each kind of wrong answer: a store that
/// serves a stale tag, forgets a delete and drops a write must land one
/// count in each of `oracle.*`; two typed-failed stores of one key count
/// as typed errors, reads may then return either failed store's tag, and
/// the key's next acknowledged store makes both stale again. Returns a
/// description of the first mismatch.
pub fn self_test() -> Result<(), String> {
    use kvssd_sim::SimTime;

    /// A map-backed store that lies on request.
    #[derive(Default)]
    struct Liar {
        map: PrehashedMap<u64, u64>,
        history: PrehashedMap<u64, u64>,
        serve_stale: bool,
        forget_delete: bool,
        drop_store: bool,
        fail_stores: u32,
    }

    impl Liar {
        fn store(&mut self, key: u64, tag: u64) -> Result<SimTime, KvError> {
            if !std::mem::take(&mut self.drop_store) {
                if let Some(old) = self.map.insert(key, tag) {
                    self.history.insert(key, old);
                }
            }
            if self.fail_stores > 0 {
                // The failed store still lands, as a quorum write whose
                // acknowledgements were lost would.
                self.fail_stores -= 1;
                return Err(KvError::Internal {
                    what: "injected failure",
                });
            }
            Ok(SimTime::ZERO)
        }

        fn delete(&mut self, key: u64) -> Result<SimTime, KvError> {
            if !std::mem::take(&mut self.forget_delete) {
                self.map.remove(&key);
            }
            Ok(SimTime::ZERO)
        }

        fn read(&mut self, key: u64) -> Result<(SimTime, Option<Payload>), KvError> {
            let mut tag = self.map.get(&key).copied();
            if std::mem::take(&mut self.serve_stale) {
                tag = self.history.get(&key).copied();
            }
            Ok((SimTime::ZERO, tag.map(|t| Payload::synthetic(64, t))))
        }
    }

    let mut store = Liar::default();
    let mut oracle = Oracle::new(8);
    let mut tag = 0;
    let mut put = |store: &mut Liar, oracle: &mut Oracle, key: u64| {
        tag += 1;
        let r = store.store(key, tag);
        oracle.mutated(key, tag, &r);
    };
    let del = |store: &mut Liar, oracle: &mut Oracle, key: u64| {
        let r = store.delete(key);
        oracle.mutated(key, TOMBSTONE, &r);
    };
    let get = |store: &mut Liar, oracle: &mut Oracle, key: u64| {
        let r = store.read(key);
        oracle.read(key, &r);
    };
    let expect = |oracle: &Oracle, step: &str, want: OracleCounts| {
        if oracle.counts == want {
            Ok(())
        } else {
            Err(format!(
                "oracle self-test, {step}: counted {:?}, expected {want:?}",
                oracle.counts
            ))
        }
    };

    for key in 0..4 {
        put(&mut store, &mut oracle, key);
        get(&mut store, &mut oracle, key);
    }
    let mut want = OracleCounts::default();
    expect(&oracle, "honest store", want)?;

    put(&mut store, &mut oracle, 0);
    store.serve_stale = true;
    get(&mut store, &mut oracle, 0);
    want.stale_reads += 1;
    expect(&oracle, "stale tag", want)?;

    store.forget_delete = true;
    del(&mut store, &mut oracle, 1);
    get(&mut store, &mut oracle, 1);
    want.resurrected_deletes += 1;
    expect(&oracle, "forgotten delete", want)?;

    del(&mut store, &mut oracle, 2);
    store.drop_store = true;
    put(&mut store, &mut oracle, 2);
    get(&mut store, &mut oracle, 2);
    want.lost_writes += 1;
    expect(&oracle, "dropped write", want)?;

    store.fail_stores = 2;
    put(&mut store, &mut oracle, 3);
    put(&mut store, &mut oracle, 3);
    store.serve_stale = true;
    get(&mut store, &mut oracle, 3);
    get(&mut store, &mut oracle, 3);
    want.typed_errors += 2;
    expect(&oracle, "either of two typed-failed stores", want)?;

    put(&mut store, &mut oracle, 3);
    store.serve_stale = true;
    get(&mut store, &mut oracle, 3);
    want.stale_reads += 1;
    expect(&oracle, "acknowledged store after typed failures", want)?;

    if oracle.counts.failed() != 6 || oracle.live_keys() != 3 {
        return Err(format!(
            "oracle self-test: {} failures and {} live keys, expected 6 and 3",
            oracle.counts.failed(),
            oracle.live_keys()
        ));
    }
    Ok(())
}
