//! Daemon-level benchmarks: `/plan` over real sockets.
//!
//! The numbers behind `BENCH_serve.json` and the README serving table:
//!
//! * `plan_cold/2000` — every request is a *distinct* n = 2000 sparse
//!   scenario (the `index` field is bumped per iteration), so each one
//!   pays the full planning pipeline;
//! * `plan_hit/2000` — the identical request repeated, so after the
//!   primer every iteration is a canonical-hash cache hit;
//! * `throughput/{1,8}_clients` — 64 cache-hit requests issued from one
//!   client thread vs. eight concurrent ones, isolating the accept →
//!   queue → worker-pool overhead from planning cost;
//! * `ingest/churn_{sharded,mutex_map}/…` — 8 threads sweeping lookups
//!   over 10 000 live sessions with one session insert per 256 lookups,
//!   both stores at capacity: sharded [`SessionStore`] vs. the
//!   single-mutex [`MutexMapStore`] baseline. Setup *asserts* the
//!   sharded store strictly beats the mutex map — every insert pays an
//!   LRU eviction scan, over the whole map under the global mutex but
//!   over one ~625-session shard under a shard write lock — so
//!   regenerating the file re-proves the claim. Ops/sec and p50/p99
//!   latencies are measured in a setup pass and baked into the
//!   benchmark id (the JSON schema only carries ns/iter);
//! * `ingest/apply_{sharded,mutex_map}/…` — a full in-process ingest
//!   (lookup + slot lock + controller tick) of one frame per session on
//!   churn-free stores; here per-frame controller work dominates, which
//!   is the point — store overhead vanishes once sharded;
//! * `ingest/batch_e2e/…` — the same 10 000 sessions ingested over real
//!   sockets: 8 client threads each posting binary `/telemetry/batch`
//!   requests of 125 frames. Setup also asserts the binary encoding of
//!   a frame batch is less than half its JSON size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perpetuum_bench::MutexMapStore;
use perpetuum_core::network::Network;
use perpetuum_geom::Point2;
use perpetuum_online::ControllerSeed;
use perpetuum_online::{OnlineConfig, OnlineController, TelemetryBatch, TelemetryRecord};
use perpetuum_serve::wire::{self, Frame};
use perpetuum_serve::{
    start, FsyncPolicy, JournalSet, Metrics, ServerConfig, ServerHandle, SessionSlot, SessionStore,
};
use std::cell::Cell;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 2000;

fn daemon() -> ServerHandle {
    start(ServerConfig {
        workers: 8,
        queue_capacity: 256,
        cache_capacity: 64,
        ..ServerConfig::default()
    })
    .expect("daemon starts on an ephemeral port")
}

fn plan_body(index: u64) -> String {
    format!(
        r#"{{"scenario": {{
            "field_size": 1000.0, "n": {N}, "q": 5,
            "tau_min": 2.0, "tau_max": 40.0,
            "dist": {{ "Linear": {{ "sigma": 2.0 }} }},
            "horizon": 60.0, "slot": 10.0,
            "variable": false, "deployment": "Uniform"
        }}, "seed": 42, "index": {index}, "sparse": true}}"#
    )
}

fn post_plan(addr: SocketAddr, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head =
        format!("POST /plan HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).expect("head");
    stream.write_all(body.as_bytes()).expect("body");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("response");
    assert!(out.starts_with("HTTP/1.1 200"), "unexpected response: {out}");
    out
}

fn bench_serve(c: &mut Criterion) {
    let handle = daemon();
    let addr = handle.addr;

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    // Cold: a fresh scenario each iteration (index bump changes the
    // canonical hash), so the full pipeline runs every time.
    let cold_index = Cell::new(0u64);
    group.bench_with_input(BenchmarkId::new("plan_cold", N), &N, |b, _| {
        b.iter(|| {
            let body = plan_body(1000 + cold_index.replace(cold_index.get() + 1));
            let resp = post_plan(addr, &body);
            assert!(resp.contains("\"cache_hit\":false"), "cold request must miss");
            resp.len()
        })
    });

    // Hit: identical request, primed once outside the measured loop.
    let hit_body = plan_body(0);
    let primer = post_plan(addr, &hit_body);
    assert!(primer.contains("\"cache_hit\":false"));
    group.bench_with_input(BenchmarkId::new("plan_hit", N), &N, |b, _| {
        b.iter(|| {
            let resp = post_plan(addr, &hit_body);
            assert!(resp.contains("\"cache_hit\":true"), "repeat request must hit");
            resp.len()
        })
    });

    // Throughput: 64 cache-hit requests from 1 vs. 8 client threads.
    const REQUESTS: usize = 64;
    for &clients in &[1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("throughput", format!("{clients}_clients")),
            &clients,
            |b, &clients| {
                b.iter(|| {
                    let per_client = REQUESTS / clients;
                    let threads: Vec<_> = (0..clients)
                        .map(|_| {
                            let body = hit_body.clone();
                            std::thread::spawn(move || {
                                let mut total = 0usize;
                                for _ in 0..per_client {
                                    total += post_plan(addr, &body).len();
                                }
                                total
                            })
                        })
                        .collect();
                    threads.into_iter().map(|t| t.join().expect("client thread")).sum::<usize>()
                })
            },
        );
    }
    group.finish();

    handle.shutdown();
}

/// Sessions held live during the ingest benchmarks.
const INGEST_SESSIONS: usize = 10_000;
/// Concurrent ingest threads (store-level) / client threads (e2e).
const INGEST_THREADS: usize = 8;
/// Frames per `/telemetry/batch` request in the e2e benchmark.
const E2E_BATCH: usize = 125;
/// Lookup sweeps per churn pass.
const CHURN_ROUNDS: usize = 5;
/// Lookups between session inserts in a churn pass.
const CHURN: usize = 256;

/// The smallest controller the online crate will accept: two sensors,
/// one depot. Real per-session planning state, but cheap enough to
/// build 10 000×. Drain is slow (first predicted death at t = 1000) and
/// the horizon modest — the dispatch grid is emitted eagerly over the
/// whole horizon, so `horizon / τ₁` must stay small per session — which
/// keeps every bench tick (the clock never passes ~100) an in-band,
/// zero-replan ingest.
fn tiny_controller() -> OnlineController {
    let sensors = vec![Point2::new(10.0, 10.0), Point2::new(30.0, 40.0)];
    let depots = vec![Point2::new(0.0, 0.0)];
    let network = Network::new(sensors, depots);
    OnlineController::new(network, vec![1.0; 2], vec![1.0 / 1000.0; 2], OnlineConfig::new(5000.0))
        .expect("tiny controller")
}

/// [`tiny_controller`]'s construction arguments as a journal-able seed —
/// what `POST /session` would journal for it.
fn tiny_seed() -> ControllerSeed {
    ControllerSeed {
        sensors: vec![(10.0, 10.0), (30.0, 40.0)],
        depots: vec![(0.0, 0.0)],
        capacities: vec![1.0; 2],
        initial_rates: vec![1.0 / 1000.0; 2],
        config: OnlineConfig::new(5000.0),
    }
}

/// One ingest pass: every session receives one empty telemetry tick at
/// `time`, split over [`INGEST_THREADS`] threads (each session is owned
/// by exactly one thread, so per-session times stay monotone). Returns
/// the wall-clock elapsed and, when `latencies`, per-frame nanoseconds.
fn ingest_pass<F>(get: &F, ids: &[u64], time: f64, latencies: bool) -> (Duration, Vec<u64>)
where
    F: Fn(u64) -> Option<Arc<SessionSlot>> + Sync,
{
    let chunk = ids.len().div_ceil(INGEST_THREADS);
    let started = Instant::now();
    let lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(if latencies { part.len() } else { 0 });
                    for &id in part {
                        let t0 = latencies.then(Instant::now);
                        let slot = get(id).expect("live session");
                        slot.lock()
                            .expect("not poisoned")
                            .ingest(&TelemetryBatch::tick(time))
                            .expect("monotone tick");
                        if let Some(t0) = t0 {
                            lat.push(t0.elapsed().as_nanos() as u64);
                        }
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("ingest thread")).collect()
    });
    (started.elapsed(), lat)
}

/// One churn pass: [`CHURN_ROUNDS`] lookup sweeps over every session
/// from [`INGEST_THREADS`] threads, with one session *insert* per
/// [`CHURN`] lookups. Both stores run at capacity, so every insert pays
/// the LRU eviction scan — over the whole 10k-session map under the
/// global mutex, over one ~625-session shard under a shard write lock.
/// That 16× structural gap in lock-held work is what the
/// sharded-beats-mutex assertion runs on; lookups of evicted sessions
/// return `None` and count as misses. Returns wall-clock elapsed and,
/// when `latencies`, per-lookup nanoseconds from the final sweep.
fn churn_pass<G, I>(get: &G, insert: &I, ids: &[u64], latencies: bool) -> (Duration, Vec<u64>)
where
    G: Fn(u64) -> Option<Arc<SessionSlot>> + Sync,
    I: Fn() -> (u64, bool) + Sync,
{
    let chunk = ids.len().div_ceil(INGEST_THREADS);
    let started = Instant::now();
    let lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(if latencies { part.len() } else { 0 });
                    for round in 0..CHURN_ROUNDS {
                        // Latency samples only from the final sweep, so
                        // warm caches are what gets measured.
                        let sample = latencies && round == CHURN_ROUNDS - 1;
                        for (i, &id) in part.iter().enumerate() {
                            if i % CHURN == 0 {
                                std::hint::black_box(insert());
                            }
                            let t0 = sample.then(Instant::now);
                            std::hint::black_box(get(id));
                            if let Some(t0) = t0 {
                                lat.push(t0.elapsed().as_nanos() as u64);
                            }
                        }
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("churn thread")).collect()
    });
    (started.elapsed(), lat)
}

/// Best-of-three timed passes plus the final pass's latency samples.
fn best_of_three(mut pass: impl FnMut(bool) -> (Duration, Vec<u64>)) -> (Duration, Vec<u64>) {
    let mut best = Duration::MAX;
    let mut samples = Vec::new();
    for round in 0..3 {
        let (elapsed, lat) = pass(round == 2);
        best = best.min(elapsed);
        if !lat.is_empty() {
            samples = lat;
        }
    }
    (best, samples)
}

fn percentile_ns(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx]
}

fn per_sec(ops: usize, elapsed: Duration) -> u64 {
    (ops as f64 / elapsed.as_secs_f64()) as u64
}

/// A realistic mixed frame batch and its JSON request-body size, for
/// the binary-vs-JSON byte comparison.
fn wire_sample(frames: usize) -> (Vec<Frame>, usize) {
    let sample: Vec<Frame> = (0..frames as u64)
        .map(|i| {
            Frame::telemetry(
                i,
                TelemetryBatch {
                    time: i as f64 / 3.0 + 0.01,
                    records: vec![
                        TelemetryRecord::full(0, i as f64 / 7.0 + 0.02, 0.5 + i as f64 / 1000.0),
                        TelemetryRecord::rate(1, i as f64 / 11.0 + 0.03),
                    ],
                },
            )
        })
        .collect();
    let parts: Vec<String> = sample
        .iter()
        .map(|f| {
            let perpetuum_serve::wire::FramePayload::Telemetry(batch) = &f.payload else {
                unreachable!("sample frames are telemetry");
            };
            let batch = serde_json::to_string(batch).expect("batch json");
            format!("{{\"session\":{},{}", f.session, &batch[1..])
        })
        .collect();
    let json_len = format!("{{\"frames\":[{}]}}", parts.join(",")).len();
    (sample, json_len)
}

/// Raw binary POST of a frame batch; returns the response body bytes.
fn post_batch(addr: SocketAddr, body: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /telemetry/batch HTTP/1.1\r\nhost: bench\r\ncontent-type: {ct}\r\naccept: {ct}\r\ncontent-length: {len}\r\n\r\n",
        ct = wire::CONTENT_TYPE,
        len = body.len()
    );
    stream.write_all(head.as_bytes()).expect("head");
    stream.write_all(body).expect("body");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("response");
    assert!(out.starts_with(b"HTTP/1.1 200"), "unexpected response status");
    let split = out.windows(4).position(|w| w == b"\r\n\r\n").expect("header terminator");
    out.split_off(split + 4)
}

/// One e2e pass: each client thread owns a contiguous slice of
/// sessions and posts them as binary batches of [`E2E_BATCH`] frames.
/// Returns wall-clock elapsed and, when `latencies`, per-request ns.
fn e2e_pass(addr: SocketAddr, ids: &[u64], time: f64, latencies: bool) -> (Duration, Vec<u64>) {
    let chunk = ids.len().div_ceil(INGEST_THREADS);
    let started = Instant::now();
    let lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut lat = Vec::new();
                    for batch in part.chunks(E2E_BATCH) {
                        let frames: Vec<Frame> = batch
                            .iter()
                            .map(|&session| Frame::telemetry(session, TelemetryBatch::tick(time)))
                            .collect();
                        let body = wire::encode_frames(&frames);
                        let t0 = latencies.then(Instant::now);
                        let reports = post_batch(addr, &body);
                        if let Some(t0) = t0 {
                            lat.push(t0.elapsed().as_nanos() as u64);
                        }
                        std::hint::black_box(reports);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    (started.elapsed(), lat)
}

fn bench_ingest(c: &mut Criterion) {
    // -- store-level: sharded vs. single-mutex map, 10k sessions --
    // These two stores never churn (the apply benches need every id to
    // stay live); the sharded one gets 2x headroom because shard
    // assignment is hashed, so per-shard LRU capacity needs slack above
    // the mean occupancy to never evict during setup.
    let sharded = SessionStore::new(2 * INGEST_SESSIONS, 16);
    let mutexed = MutexMapStore::new(INGEST_SESSIONS);
    let sharded_ids: Vec<u64> =
        (0..INGEST_SESSIONS).map(|_| sharded.insert(tiny_controller()).0).collect();
    let mutexed_ids: Vec<u64> =
        (0..INGEST_SESSIONS).map(|_| mutexed.insert(tiny_controller()).0).collect();
    assert_eq!(sharded.len(), INGEST_SESSIONS, "no eviction during setup");
    assert_eq!(mutexed.len(), INGEST_SESSIONS, "no eviction during setup");

    let sharded_get = |id| sharded.get(id);
    let mutexed_get = |id| mutexed.get(id);
    let sharded_clock = Cell::new(1.0);
    let mutexed_clock = Cell::new(1.0);

    // The acceptance claim, measured on a churn workload (5 lookup
    // sweeps per pass with one insert per 256 lookups, both stores at
    // capacity so every insert evicts): the sharded store must strictly
    // beat the whole-map mutex. The gap is structural — the mutex pays
    // a 10k-session LRU scan under the global lock per insert, a shard
    // only its own ~625 — so regeneration fails loudly if the sharded
    // store ever stops winning.
    let churn_sharded = SessionStore::new(INGEST_SESSIONS, 16);
    let churn_mutexed = MutexMapStore::new(INGEST_SESSIONS);
    let churn_sharded_ids: Vec<u64> =
        (0..INGEST_SESSIONS).map(|_| churn_sharded.insert(tiny_controller()).0).collect();
    let churn_mutexed_ids: Vec<u64> =
        (0..INGEST_SESSIONS).map(|_| churn_mutexed.insert(tiny_controller()).0).collect();
    let churn_sharded_get = |id| churn_sharded.get(id);
    let churn_sharded_insert = || {
        let (id, evicted) = churn_sharded.insert(tiny_controller());
        (id, evicted.is_some())
    };
    let churn_mutexed_get = |id| churn_mutexed.get(id);
    let churn_mutexed_insert = || churn_mutexed.insert(tiny_controller());

    let (sharded_best, mut sharded_lat) = best_of_three(|lat| {
        churn_pass(&churn_sharded_get, &churn_sharded_insert, &churn_sharded_ids, lat)
    });
    let (mutexed_best, mut mutexed_lat) = best_of_three(|lat| {
        churn_pass(&churn_mutexed_get, &churn_mutexed_insert, &churn_mutexed_ids, lat)
    });
    assert!(
        sharded_best < mutexed_best,
        "sharded store ({sharded_best:?}) must beat mutex map ({mutexed_best:?}) \
         at {INGEST_SESSIONS} churning sessions x {INGEST_THREADS} threads"
    );
    let lookups = CHURN_ROUNDS * INGEST_SESSIONS;
    let churn_id = |best: Duration, lat: &mut [u64]| {
        format!(
            "{INGEST_SESSIONS}_sessions_{INGEST_THREADS}_threads_{}ops_p50_{}ns_p99_{}ns",
            per_sec(lookups, best),
            percentile_ns(lat, 0.50),
            percentile_ns(lat, 0.99),
        )
    };
    let sharded_churn_id = churn_id(sharded_best, &mut sharded_lat);
    let mutexed_churn_id = churn_id(mutexed_best, &mut mutexed_lat);

    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::new("churn_sharded", sharded_churn_id), &(), |b, _| {
        b.iter(|| {
            churn_pass(&churn_sharded_get, &churn_sharded_insert, &churn_sharded_ids, false).0
        })
    });
    group.bench_with_input(BenchmarkId::new("churn_mutex_map", mutexed_churn_id), &(), |b, _| {
        b.iter(|| {
            churn_pass(&churn_mutexed_get, &churn_mutexed_insert, &churn_mutexed_ids, false).0
        })
    });

    // Full frame-apply passes (lookup + slot lock + controller ingest)
    // on both stores: the end-to-end in-process ingest throughput.
    let (sharded_apply, mut sharded_apply_lat) = best_of_three(|lat| {
        ingest_pass(
            &sharded_get,
            &sharded_ids,
            sharded_clock.replace(sharded_clock.get() + 1.0),
            lat,
        )
    });
    let (mutexed_apply, mut mutexed_apply_lat) = best_of_three(|lat| {
        ingest_pass(
            &mutexed_get,
            &mutexed_ids,
            mutexed_clock.replace(mutexed_clock.get() + 1.0),
            lat,
        )
    });
    let apply_id = |best: Duration, lat: &mut [u64]| {
        format!(
            "{INGEST_SESSIONS}_sessions_{INGEST_THREADS}_threads_{}sps_p50_{}ns_p99_{}ns",
            per_sec(INGEST_SESSIONS, best),
            percentile_ns(lat, 0.50),
            percentile_ns(lat, 0.99),
        )
    };
    let sharded_apply_id = apply_id(sharded_apply, &mut sharded_apply_lat);
    let mutexed_apply_id = apply_id(mutexed_apply, &mut mutexed_apply_lat);
    group.bench_with_input(BenchmarkId::new("apply_sharded", sharded_apply_id), &(), |b, _| {
        b.iter(|| {
            ingest_pass(
                &sharded_get,
                &sharded_ids,
                sharded_clock.replace(sharded_clock.get() + 1.0),
                false,
            )
            .0
        })
    });
    group.bench_with_input(BenchmarkId::new("apply_mutex_map", mutexed_apply_id), &(), |b, _| {
        b.iter(|| {
            ingest_pass(
                &mutexed_get,
                &mutexed_ids,
                mutexed_clock.replace(mutexed_clock.get() + 1.0),
                false,
            )
            .0
        })
    });

    // -- wire format: binary must be less than half the JSON bytes --
    let (sample, json_len) = wire_sample(256);
    let binary_len = wire::encode_frames(&sample).len();
    assert!(
        binary_len * 2 < json_len,
        "binary frame batch ({binary_len} B) must be under half the JSON body ({json_len} B)"
    );
    group.bench_with_input(
        BenchmarkId::new(
            "wire_encode",
            format!("256_frames_binary_{binary_len}B_json_{json_len}B"),
        ),
        &sample,
        |b, sample| b.iter(|| wire::encode_frames(std::hint::black_box(sample)).len()),
    );

    // -- e2e: binary /telemetry/batch over real sockets --
    let handle = start(ServerConfig {
        workers: INGEST_THREADS,
        queue_capacity: 256,
        cache_capacity: 16,
        session_capacity: 2 * INGEST_SESSIONS,
        session_shards: 16,
        session_threads: INGEST_THREADS,
        ..ServerConfig::default()
    })
    .expect("ingest daemon starts");
    let addr = handle.addr;
    let e2e_ids: Vec<u64> =
        (0..INGEST_SESSIONS).map(|_| handle.state().sessions.insert(tiny_controller()).0).collect();
    let e2e_clock = Cell::new(1.0);

    // Warm-up pass also validates the reports: every frame must apply.
    {
        let frames: Vec<Frame> = e2e_ids
            .iter()
            .take(E2E_BATCH)
            .map(|&session| Frame::telemetry(session, TelemetryBatch::tick(0.5)))
            .collect();
        let reports = post_batch(addr, &wire::encode_frames(&frames));
        let outcomes = wire::decode_reports(&reports).expect("binary reports");
        assert_eq!(outcomes.len(), frames.len());
        assert!(outcomes.iter().all(|o| o.result.is_ok()), "all warm-up frames apply");
    }
    e2e_pass(addr, &e2e_ids, e2e_clock.replace(2.0), false);

    let (e2e_best, mut e2e_lat) = best_of_three(|lat| {
        e2e_pass(addr, &e2e_ids, e2e_clock.replace(e2e_clock.get() + 1.0), lat)
    });
    let e2e_id = format!(
        "{INGEST_SESSIONS}_sessions_{INGEST_THREADS}_clients_{}sps_req_p50_{}us_p99_{}us",
        per_sec(INGEST_SESSIONS, e2e_best),
        percentile_ns(&mut e2e_lat, 0.50) / 1_000,
        percentile_ns(&mut e2e_lat, 0.99) / 1_000,
    );
    group.bench_with_input(BenchmarkId::new("batch_e2e", e2e_id), &(), |b, _| {
        b.iter(|| e2e_pass(addr, &e2e_ids, e2e_clock.replace(e2e_clock.get() + 1.0), false).0)
    });

    // -- e2e with the write-ahead journal: the durability overhead --
    // Identical daemon + workload, but every accepted frame is appended
    // to the per-shard WAL (batched fsync) before its ack.
    let journal_dir =
        std::env::temp_dir().join(format!("perpetuum-bench-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let journaled = start(ServerConfig {
        workers: INGEST_THREADS,
        queue_capacity: 256,
        cache_capacity: 16,
        session_capacity: 2 * INGEST_SESSIONS,
        session_shards: 16,
        session_threads: INGEST_THREADS,
        data_dir: Some(journal_dir.clone()),
        compact_every: 0, // measure raw append cost, not compaction blips
        ..ServerConfig::default()
    })
    .expect("journaled daemon starts");
    let j_addr = journaled.addr;
    let j_ids: Vec<u64> = (0..INGEST_SESSIONS)
        .map(|_| journaled.state().sessions.insert(tiny_controller()).0)
        .collect();
    let j_clock = Cell::new(1.0);
    e2e_pass(j_addr, &j_ids, j_clock.replace(2.0), false);
    // Paired measurement: alternate plain and journaled passes
    // back-to-back, then compare the two minima — drift between the
    // daemons' distant setup phases cannot masquerade as journaling
    // overhead.
    let mut paired_plain = Duration::MAX;
    let mut j_best = Duration::MAX;
    let mut j_lat: Vec<u64> = Vec::new();
    for _ in 0..3 {
        let (plain, _) = e2e_pass(addr, &e2e_ids, e2e_clock.replace(e2e_clock.get() + 1.0), false);
        paired_plain = paired_plain.min(plain);
        let (j, lat) = e2e_pass(j_addr, &j_ids, j_clock.replace(j_clock.get() + 1.0), true);
        if j < j_best {
            j_best = j;
            j_lat = lat;
        }
    }
    let overhead_pct = (j_best.as_secs_f64() / paired_plain.as_secs_f64() - 1.0) * 100.0;
    let j_id = format!(
        "{INGEST_SESSIONS}_sessions_{INGEST_THREADS}_clients_{}sps_overhead_{}pct_p50_{}us_p99_{}us",
        per_sec(INGEST_SESSIONS, j_best),
        overhead_pct.round() as i64,
        percentile_ns(&mut j_lat, 0.50) / 1_000,
        percentile_ns(&mut j_lat, 0.99) / 1_000,
    );
    group.bench_with_input(BenchmarkId::new("batch_e2e_journaled", j_id), &(), |b, _| {
        b.iter(|| e2e_pass(j_addr, &j_ids, j_clock.replace(j_clock.get() + 1.0), false).0)
    });

    // -- recovery: replay a journaled fleet from a cold WAL --
    const RECOVERY_SESSIONS: usize = 2_000;
    const RECOVERY_FRAMES: usize = 4;
    let recovery_dir =
        std::env::temp_dir().join(format!("perpetuum-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&recovery_dir);
    {
        let journal = JournalSet::open(
            &recovery_dir,
            16,
            FsyncPolicy::Never,
            0,
            Arc::new(Metrics::default()),
        )
        .expect("open recovery journal");
        let store = SessionStore::new(2 * RECOVERY_SESSIONS, 16);
        let seed = tiny_seed();
        for _ in 0..RECOVERY_SESSIONS {
            let id = store.allocate_id();
            journal.append_create(id, &seed);
            for t in 1..=RECOVERY_FRAMES {
                journal
                    .append_frames(id, vec![Frame::telemetry(id, TelemetryBatch::tick(t as f64))]);
            }
        }
        journal.flush().expect("journal flush");
    }
    // `recover` rebases the files it reads, so snapshot the raw WAL bytes
    // and restore them before every replay — each iteration recovers the
    // same cold, snapshot-less journal.
    let wal_files: Vec<(std::path::PathBuf, Vec<u8>)> = std::fs::read_dir(&recovery_dir)
        .expect("recovery dir")
        .map(|e| {
            let path = e.expect("entry").path();
            let bytes = std::fs::read(&path).expect("wal bytes");
            (path, bytes)
        })
        .collect();
    let restore_and_recover = || {
        for entry in std::fs::read_dir(&recovery_dir).expect("recovery dir") {
            let _ = std::fs::remove_file(entry.expect("entry").path());
        }
        for (path, bytes) in &wal_files {
            std::fs::write(path, bytes).expect("restore wal");
        }
        let journal = JournalSet::open(
            &recovery_dir,
            16,
            FsyncPolicy::Never,
            0,
            Arc::new(Metrics::default()),
        )
        .expect("reopen journal");
        let store = SessionStore::new(2 * RECOVERY_SESSIONS, 16);
        let started = Instant::now();
        let stats = journal.recover(&store).expect("recover");
        let elapsed = started.elapsed();
        assert_eq!(stats.sessions, RECOVERY_SESSIONS);
        elapsed
    };
    let recover_best = (0..3).map(|_| restore_and_recover()).min().expect("three passes");
    let recovery_id = format!(
        "{RECOVERY_SESSIONS}_sessions_{}_wal_records_{}ms",
        RECOVERY_SESSIONS * (1 + RECOVERY_FRAMES),
        recover_best.as_millis(),
    );
    group.bench_with_input(BenchmarkId::new("recovery_replay", recovery_id), &(), |b, _| {
        b.iter(restore_and_recover)
    });

    group.finish();
    handle.shutdown();
    journaled.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&recovery_dir);
}

criterion_group!(benches, bench_serve, bench_ingest);
criterion_main!(benches);
