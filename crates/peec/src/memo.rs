//! The sharded memo map behind the crate's kernel caches: the fast
//! operator's [`crate::fastop::KernelCache`] and the table builder's
//! [`crate::gmd::GmdMemo`].
//!
//! Keys are fixed-width `u64` words (raw `f64` bit patterns of a geometry),
//! values are `f64`. The map lives behind [`SHARDS`] mutex shards selected
//! by FNV-1a over the key words, so concurrent tasks contend only when
//! their keys collide mod the shard count. The shard count is fixed —
//! independent of the worker-thread count — so layout and per-shard
//! counter attribution are the same for every run of the same workload.
//!
//! Every cached value must be a pure function of its key. That makes a
//! first-touch race harmless: both tasks compute the same bits outside the
//! lock and store them. Only the hit/miss counters can differ under such a
//! race (both tasks count a miss); they are diagnostics, not part of the
//! deterministic contract.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Lock shards per memo. Fixed, never derived from the thread count.
pub(crate) const SHARDS: usize = 16;

#[derive(Default)]
struct Shard<const N: usize> {
    map: HashMap<[u64; N], f64>,
    hits: u64,
    misses: u64,
}

/// A concurrent `[u64; N] → f64` memo with per-shard hit/miss counters.
#[derive(Default)]
pub(crate) struct ShardedMemo<const N: usize> {
    shards: [Mutex<Shard<N>>; SHARDS],
}

/// Deterministic shard index of a key: FNV-1a over the key words. Stable
/// across runs, platforms and thread counts.
#[inline]
pub(crate) fn shard_of(key: &[u64]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in key {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

impl<const N: usize> ShardedMemo<N> {
    fn shard(&self, si: usize) -> MutexGuard<'_, Shard<N>> {
        // Cached values are pure functions of their keys, so a panic
        // mid-insert cannot leave a shard inconsistent; keep going.
        self.shards[si].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cached value of `key`, or `compute()` stored under it. Counts
    /// one hit or one miss. The computation runs outside the lock, so a
    /// first touch never stalls other lookups in the same shard.
    pub(crate) fn get_or_insert_with(&self, key: [u64; N], compute: impl FnOnce() -> f64) -> f64 {
        let si = shard_of(&key);
        {
            let mut s = self.shard(si);
            if let Some(&v) = s.map.get(&key) {
                s.hits += 1;
                return v;
            }
            s.misses += 1;
        }
        let v = compute();
        self.shard(si).map.insert(key, v);
        v
    }

    /// The cached value of `key` in shard `si` (= [`shard_of`] of `key`),
    /// without touching the counters — for batched callers that account
    /// hits and misses themselves through [`ShardedMemo::count`].
    pub(crate) fn peek(&self, si: usize, key: &[u64; N]) -> Option<f64> {
        self.shard(si).map.get(key).copied()
    }

    /// Stores `v` under `key`.
    pub(crate) fn insert(&self, key: [u64; N], v: f64) {
        self.shard(shard_of(&key)).map.insert(key, v);
    }

    /// Adds per-shard `(hits, misses)` deltas, taking each touched shard's
    /// lock once.
    pub(crate) fn count(&self, deltas: &[(u64, u64); SHARDS]) {
        for (si, &(h, m)) in deltas.iter().enumerate() {
            if h != 0 || m != 0 {
                let mut s = self.shard(si);
                s.hits += h;
                s.misses += m;
            }
        }
    }

    /// `(hits, misses)` accumulated so far, summed in fixed shard order.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (0..SHARDS).fold((0, 0), |(h, m), si| {
            let s = self.shard(si);
            (h + s.hits, m + s.misses)
        })
    }

    /// Number of distinct keys stored.
    pub(crate) fn len(&self) -> usize {
        (0..SHARDS).map(|si| self.shard(si).map.len()).sum()
    }
}
