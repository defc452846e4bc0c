//! Distributed-GEMM planning for multiplier resampling.
//!
//! Algorithm 3's resampling pass is a `B×n` by `n×m` matrix multiply.
//! The grid layout splits the replicate axis into tiles and runs one
//! engine task per (replicate-tile × `U`-partition) cell via
//! [`crate::Dataset::grid_cells`]; the driver broadcasts each tile's
//! `n×k` multiplier block as the shared operand. [`BroadcastTileCache`]
//! memoizes those broadcasts so repeated analyses over the same seed
//! (the multi-tenant service replaying gene queries against one cohort)
//! ship each tile to the executors once instead of once per query.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::{Broadcast, Engine};

struct CacheInner<K> {
    map: HashMap<K, Broadcast<Vec<f64>>>,
    /// Insertion order for FIFO eviction at capacity.
    order: VecDeque<K>,
    hits: u64,
    misses: u64,
}

/// A bounded memo of broadcast multiplier tiles, keyed by whatever
/// identifies a tile's content (typically `(seed, start, width)`) plus
/// whatever scopes its reuse (e.g. the dataset it multiplies).
///
/// The cache never *generates* tiles — callers hand it the drawn values —
/// because multiplier tiles come from one sequential RNG stream: skipping
/// a draw on a hit would desynchronize every later tile. What it saves is
/// the re-broadcast: the virtual network charge and the per-node copy of
/// shipping an identical `n×k` block again for the next query over the
/// same seed.
pub struct BroadcastTileCache<K: Eq + Hash + Clone> {
    engine: Arc<Engine>,
    capacity: usize,
    inner: Mutex<CacheInner<K>>,
}

impl<K: Eq + Hash + Clone> BroadcastTileCache<K> {
    /// Cache holding at most `capacity` broadcast tiles (FIFO eviction).
    pub fn new(engine: Arc<Engine>, capacity: usize) -> Self {
        assert!(capacity > 0, "tile cache capacity must be positive");
        BroadcastTileCache {
            engine,
            capacity,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// The broadcast for `key`, reusing a cached handle when one exists.
    /// On a miss, `tile` is broadcast (charging virtual network time) and
    /// retained; the caller must guarantee that equal keys always carry
    /// equal tile contents.
    pub fn get_or_broadcast(&self, key: K, tile: Vec<f64>) -> Broadcast<Vec<f64>> {
        {
            let mut inner = self.inner.lock();
            if let Some(b) = inner.map.get(&key) {
                let b = b.clone();
                inner.hits += 1;
                return b;
            }
        }
        // Broadcast outside the lock: it charges virtual time and may
        // contend with tasks reading the clock.
        let b = self.engine.broadcast(tile);
        let mut inner = self.inner.lock();
        inner.misses += 1;
        if let Some(prev) = inner.map.insert(key.clone(), b.clone()) {
            // Raced with another query broadcasting the same tile; keep
            // ours, drop theirs — both carry identical contents.
            drop(prev);
        } else {
            inner.order.push_back(key);
            if inner.order.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                }
            }
        }
        b
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Broadcast tiles currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache holds no tiles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkscore_cluster::ClusterSpec;

    #[test]
    fn tile_cache_hits_on_repeat_and_evicts_fifo() {
        let engine = Engine::builder(ClusterSpec::test_small(2)).build();
        let cache: BroadcastTileCache<(u64, u64)> = BroadcastTileCache::new(engine, 2);
        let a = cache.get_or_broadcast((7, 0), vec![1.0, 2.0]);
        let a2 = cache.get_or_broadcast((7, 0), vec![1.0, 2.0]);
        assert_eq!(a.value(), a2.value());
        assert_eq!(cache.stats(), (1, 1));
        cache.get_or_broadcast((7, 1), vec![3.0]);
        // Third insert evicts (7, 0) — the oldest — so it misses again.
        cache.get_or_broadcast((7, 2), vec![4.0]);
        assert_eq!(cache.len(), 2);
        cache.get_or_broadcast((7, 0), vec![1.0, 2.0]);
        assert_eq!(cache.stats(), (1, 4));
    }
}
