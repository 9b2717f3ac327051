//! Criterion benchmark crate for perpetuum (benches live in `benches/`),
//! plus the baselines those benches race the library against.

use perpetuum_online::OnlineController;
use perpetuum_serve::SessionSlot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

/// The session store the sharded [`perpetuum_serve::SessionStore`]
/// replaced: one global `Mutex<HashMap>` with whole-store LRU. The
/// `ingest/churn_*` bench asserts the sharded store beats it; the daemon
/// never builds one. Ids and the recency clock are atomics taken outside
/// the lock, as in the original, so the lock covers only the map.
pub struct MutexMapStore {
    /// Each slot with its last-use tick.
    inner: Mutex<HashMap<u64, (Arc<SessionSlot>, AtomicU64)>>,
    capacity: usize,
    next_id: AtomicU64,
    tick: AtomicU64,
}

impl MutexMapStore {
    /// A store holding at most `capacity` live sessions (at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            next_id: AtomicU64::new(0),
            tick: AtomicU64::new(0),
        }
    }

    fn map(&self) -> MutexGuard<'_, HashMap<u64, (Arc<SessionSlot>, AtomicU64)>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a controller; returns its id and whether the LRU session
    /// was evicted.
    pub fn insert(&self, controller: OnlineController) -> (u64, bool) {
        let id = self.next_id.fetch_add(1, Relaxed) + 1;
        let slot = Arc::new(SessionSlot::new(controller));
        let used = AtomicU64::new(self.tick.fetch_add(1, Relaxed));
        let mut map = self.map();
        let mut evicted = false;
        if map.len() >= self.capacity {
            if let Some(&lru) = map.iter().min_by_key(|(_, (_, t))| t.load(Relaxed)).map(|(k, _)| k)
            {
                map.remove(&lru);
                evicted = true;
            }
        }
        map.insert(id, (slot, used));
        (id, evicted)
    }

    /// Looks a session up through the global lock, refreshing recency.
    pub fn get(&self, id: u64) -> Option<Arc<SessionSlot>> {
        let tick = self.tick.fetch_add(1, Relaxed);
        let map = self.map();
        let (slot, used) = map.get(&id)?;
        used.store(tick, Relaxed);
        Some(Arc::clone(slot))
    }

    /// Number of live sessions (takes the store lock).
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True when no sessions are live (takes the store lock).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_core::network::Network;
    use perpetuum_geom::Point2;
    use perpetuum_online::OnlineConfig;

    fn controller() -> OnlineController {
        let sensors = vec![Point2::new(10.0, 20.0), Point2::new(40.0, 20.0)];
        let depots = vec![Point2::new(25.0, 60.0)];
        let network = Network::new(sensors, depots);
        OnlineController::new(network, vec![1.0, 1.0], vec![0.25, 0.125], OnlineConfig::new(100.0))
            .expect("valid controller")
    }

    #[test]
    fn mutex_baseline_still_works() {
        let store = MutexMapStore::new(2);
        let (a, _) = store.insert(controller());
        let (b, _) = store.insert(controller());
        assert!(store.get(a).is_some());
        let (_, evicted) = store.insert(controller());
        assert!(evicted);
        assert!(store.get(b).is_none(), "LRU evicted");
        assert_eq!(store.len(), 2);
    }
}
