//! Stateful online-controller sessions behind a **sharded** store.
//!
//! A session wraps one [`OnlineController`] behind its own mutex: store
//! locks are only ever held for a lookup/insert/remove, never while a
//! telemetry batch is being ingested, so concurrent clients feeding
//! *different* sessions never contend, and concurrent clients feeding the
//! *same* session serialize on that session alone — every acknowledged
//! batch is applied (no lost updates).
//!
//! At million-session scale the store itself becomes the contention
//! point, so it is split into independent shards selected by a
//! multiplicative hash of the session id. Each shard owns its slice of
//! the id space behind an `RwLock`: the hot path (`get`) takes a shard
//! *read* lock — many workers resolving different (or the same) sessions
//! proceed in parallel — while insert/remove take the write lock of one
//! shard only. Recency is tracked with per-slot atomics so a `get` never
//! needs a write lock.
//!
//! The store is bounded: creating a session beyond `capacity` evicts the
//! least-recently-used one *in the new session's shard* (capacity is
//! split evenly across shards; the eviction is reported to the caller so
//! the daemon can count it into `/metrics`). Live counts are maintained
//! per shard and in one aggregate atomic, so `/metrics` scrapes read
//! gauges without touching any lock.
//!
//! The single-`Mutex<HashMap>` store this design replaced lives on only
//! as the ingest benchmark's baseline, in `perpetuum-bench`.

use perpetuum_online::OnlineController;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default shard count when the caller passes `0` (auto) and no worker
/// count is known.
pub const DEFAULT_SHARDS: usize = 8;

/// Hard ceiling on the shard count (`--shards` validation re-checks this
/// at the CLI boundary; the constructor clamps as a safety net).
pub const MAX_SHARDS: usize = 1024;

/// A session's controller mutex was poisoned: a request panicked while
/// mutating it, so its state can no longer be trusted. The daemon reacts
/// by quarantining the session (remove + journal `End` + count), never by
/// silently reusing the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPoisoned;

/// One live session: the controller behind its own lock.
pub struct SessionSlot {
    controller: Mutex<OnlineController>,
    last_used: AtomicU64,
}

impl SessionSlot {
    /// A slot around `controller`, never yet used. The store stamps
    /// recency on insert; other containers (the ingest benchmark's
    /// baseline store) wrap it in their own `Arc`.
    pub fn new(controller: OnlineController) -> Self {
        Self { controller: Mutex::new(controller), last_used: AtomicU64::new(0) }
    }

    /// Locks the controller for one ingest/plan operation.
    ///
    /// Poisoning is surfaced, not swallowed: a poisoned mutex means some
    /// request panicked *while holding the controller* — the thread that
    /// was concurrently blocked on the same session must not proceed on
    /// state of unknown integrity. Callers treat `Err` exactly like a
    /// panic of their own: quarantine the session.
    pub fn lock(&self) -> Result<MutexGuard<'_, OnlineController>, SessionPoisoned> {
        self.controller.lock().map_err(|_| SessionPoisoned)
    }
}

/// One shard: an id → slot map behind a read/write lock, plus the shard's
/// recency clock and live-count gauge (both lock-free).
struct Shard {
    slots: RwLock<HashMap<u64, Arc<SessionSlot>>>,
    tick: AtomicU64,
    live: AtomicU64,
}

impl Shard {
    fn read(&self) -> RwLockReadGuard<'_, HashMap<u64, Arc<SessionSlot>>> {
        match self.slots.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<u64, Arc<SessionSlot>>> {
        match self.slots.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A bounded, sharded LRU map from session ids to [`SessionSlot`]s.
pub struct SessionStore {
    shards: Vec<Shard>,
    /// `shards.len()` is a power of two; the hash's high bits select via
    /// this shift.
    shard_shift: u32,
    per_shard_capacity: usize,
    next_id: AtomicU64,
    live: AtomicU64,
}

/// Fibonacci-style multiplicative mix: sequential session ids land on
/// well-spread shards instead of marching through them in order.
#[inline]
fn mix(id: u64) -> u64 {
    id.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Index of the shard owning `id` in a store of `shard_count` shards
/// (`shard_count` must be a power of two). Exported so the write-ahead
/// journal files one `shard-<i>.wal` per store shard with the *same*
/// ownership mapping — a session's journal records and its live slot
/// always agree on the shard index.
#[inline]
pub fn shard_index(id: u64, shard_count: usize) -> usize {
    if shard_count <= 1 {
        return 0; // a 64-bit shift would overflow
    }
    (mix(id) >> (64 - shard_count.trailing_zeros())) as usize
}

impl SessionStore {
    /// A store holding at most `capacity` live sessions split over
    /// `shards` shards (rounded up to a power of two, clamped to
    /// `1..=`[`MAX_SHARDS`]; `0` means [`DEFAULT_SHARDS`]).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = if shards == 0 { DEFAULT_SHARDS } else { shards }
            .clamp(1, MAX_SHARDS)
            .next_power_of_two();
        let capacity = capacity.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Shard {
                    slots: RwLock::new(HashMap::new()),
                    tick: AtomicU64::new(0),
                    live: AtomicU64::new(0),
                })
                .collect(),
            shard_shift: 64 - shards.trailing_zeros(),
            per_shard_capacity: capacity.div_ceil(shards),
            next_id: AtomicU64::new(0),
            live: AtomicU64::new(0),
        }
    }

    /// Index of the shard owning `id`.
    pub fn shard_of(&self, id: u64) -> usize {
        if self.shards.len() == 1 {
            return 0; // a 64-bit shift would overflow
        }
        (mix(id) >> self.shard_shift) as usize
    }

    /// Reserves the next session id without making anything visible. The
    /// daemon journals the session's `Create` record between allocation
    /// and [`insert_with_id`](Self::insert_with_id), so no concurrent
    /// ingest can ever journal frames for an id whose genesis is not on
    /// disk yet.
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Relaxed) + 1
    }

    /// Ensures future [`allocate_id`](Self::allocate_id) calls return ids
    /// strictly greater than `floor` — recovery calls this with the
    /// highest id seen in the journal so restored and new sessions never
    /// collide (ids stay never-reused across restarts).
    pub fn bump_next_id(&self, floor: u64) {
        self.next_id.fetch_max(floor, Relaxed);
    }

    /// Registers a controller under a previously allocated (or recovered)
    /// id; returns the id of the session LRU-evicted to make room, if
    /// any. The id must come from [`allocate_id`](Self::allocate_id) or a
    /// journal — inserting an id twice would double-count the gauges.
    pub fn insert_with_id(&self, id: u64, controller: OnlineController) -> Option<u64> {
        self.bump_next_id(id);
        let shard = &self.shards[self.shard_of(id)];
        let slot = Arc::new(SessionSlot::new(controller));
        slot.last_used.store(shard.tick.fetch_add(1, Relaxed), Relaxed);
        let mut map = shard.write();
        let mut evicted = None;
        if map.len() >= self.per_shard_capacity {
            // O(len) scan, same trade as the plan cache: eviction is the
            // cold path and each shard's map is small.
            if let Some(&lru) =
                map.iter().min_by_key(|(_, s)| s.last_used.load(Relaxed)).map(|(k, _)| k)
            {
                map.remove(&lru);
                evicted = Some(lru);
            }
        }
        map.insert(id, slot);
        drop(map);
        if evicted.is_none() {
            shard.live.fetch_add(1, Relaxed);
            self.live.fetch_add(1, Relaxed);
        }
        evicted
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Registers a controller and returns its fresh id plus the id of the
    /// session evicted to make room, if any. Ids are monotonically
    /// increasing and never reused.
    pub fn insert(&self, controller: OnlineController) -> (u64, Option<u64>) {
        let id = self.allocate_id();
        let evicted = self.insert_with_id(id, controller);
        (id, evicted)
    }

    /// Looks a session up, refreshing its recency. Read-mostly hot path:
    /// only the shard's *read* lock is taken, so concurrent lookups —
    /// even of the same session — never serialize on the store. The
    /// returned `Arc` outlives the lock; callers lock the slot *after*
    /// this returns.
    pub fn get(&self, id: u64) -> Option<Arc<SessionSlot>> {
        let shard = &self.shards[self.shard_of(id)];
        let slot = Arc::clone(shard.read().get(&id)?);
        slot.last_used.store(shard.tick.fetch_add(1, Relaxed), Relaxed);
        Some(slot)
    }

    /// Removes a session; `true` if it existed.
    pub fn remove(&self, id: u64) -> bool {
        let shard = &self.shards[self.shard_of(id)];
        let removed = shard.write().remove(&id).is_some();
        if removed {
            shard.live.fetch_sub(1, Relaxed);
            self.live.fetch_sub(1, Relaxed);
        }
        removed
    }

    /// Number of live sessions — one atomic load, no locks (kept exact
    /// by insert/evict/remove).
    pub fn len(&self) -> usize {
        self.live.load(Relaxed) as usize
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard live-session gauges — atomic loads, no locks.
    pub fn shard_lens(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.live.load(Relaxed)).collect()
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
    fn ids_are_monotone_and_never_reused() {
        let store = SessionStore::new(8, 4);
        let (a, _) = store.insert(controller());
        let (b, _) = store.insert(controller());
        assert!(b > a);
        assert!(store.remove(a));
        let (c, _) = store.insert(controller());
        assert!(c > b, "removed ids are not recycled");
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn lru_session_is_evicted_at_capacity() {
        // One shard so all sessions share a single LRU domain.
        let store = SessionStore::new(2, 1);
        let (a, e1) = store.insert(controller());
        let (b, e2) = store.insert(controller());
        assert!(e1.is_none() && e2.is_none());
        assert!(store.get(a).is_some(), "refresh a — b becomes LRU");
        let (c, evicted) = store.insert(controller());
        assert_eq!(evicted, Some(b), "third insert evicts the LRU session by id");
        assert!(store.get(a).is_some());
        assert!(store.get(b).is_none(), "LRU session gone");
        assert!(store.get(c).is_some());
        assert_eq!(store.len(), 2, "eviction kept the aggregate gauge exact");
    }

    #[test]
    fn slots_lock_independently_of_the_store() {
        let store = SessionStore::new(4, 2);
        let (id, _) = store.insert(controller());
        let slot = store.get(id).expect("present");
        let guard = slot.lock().expect("not poisoned");
        // Store operations proceed while a session is locked.
        assert_eq!(store.len(), 1);
        let (other, _) = store.insert(controller());
        assert!(store.get(other).is_some());
        drop(guard);
    }

    #[test]
    fn explicit_ids_restore_and_keep_the_counter_monotone() {
        let store = SessionStore::new(8, 4);
        // Recovery-style insert at an arbitrary id.
        assert!(store.insert_with_id(41, controller()).is_none());
        assert!(store.get(41).is_some());
        // Fresh allocations jump past it — recovered ids are never reused.
        let (fresh, _) = store.insert(controller());
        assert!(fresh > 41, "allocator resumed past the recovered id, got {fresh}");
        store.bump_next_id(100);
        assert!(store.allocate_id() > 100);
    }

    #[test]
    fn poisoned_slots_report_instead_of_recovering() {
        let store = SessionStore::new(4, 1);
        let (id, _) = store.insert(controller());
        let slot = store.get(id).expect("present");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = slot.lock().expect("first lock clean");
            panic!("ingest blew up while holding the controller");
        }));
        assert!(panicked.is_err());
        assert_eq!(slot.lock().err(), Some(SessionPoisoned), "poison must surface");
    }

    #[test]
    fn missing_sessions_are_none() {
        let store = SessionStore::new(2, 2);
        assert!(store.is_empty());
        assert!(store.get(99).is_none());
        assert!(!store.remove(99));
    }

    #[test]
    fn shard_count_normalizes_to_a_power_of_two() {
        assert_eq!(SessionStore::new(8, 0).shard_count(), DEFAULT_SHARDS);
        assert_eq!(SessionStore::new(8, 1).shard_count(), 1);
        assert_eq!(SessionStore::new(8, 3).shard_count(), 4);
        assert_eq!(SessionStore::new(8, 16).shard_count(), 16);
        assert_eq!(SessionStore::new(8, MAX_SHARDS + 5).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn sequential_ids_spread_across_shards() {
        let store = SessionStore::new(1024, 8);
        for _ in 0..64 {
            store.insert(controller());
        }
        let lens = store.shard_lens();
        assert_eq!(lens.len(), 8);
        assert_eq!(lens.iter().sum::<u64>(), 64);
        assert_eq!(store.len(), 64);
        let populated = lens.iter().filter(|&&l| l > 0).count();
        assert!(populated >= 6, "64 sequential ids must spread widely: {lens:?}");
    }

    #[test]
    fn gauges_track_insert_evict_remove() {
        let store = SessionStore::new(4, 1);
        let mut ids = Vec::new();
        for _ in 0..4 {
            ids.push(store.insert(controller()).0);
        }
        assert_eq!(store.len(), 4);
        let (_, evicted) = store.insert(controller());
        assert_eq!(evicted, Some(ids[0]), "oldest session evicted");
        assert_eq!(store.len(), 4, "evicting insert is len-neutral");
        assert!(store.remove(ids[3]));
        assert_eq!(store.len(), 3);
        assert_eq!(store.shard_lens()[0], 3);
    }
}
