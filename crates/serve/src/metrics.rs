//! Process metrics in Prometheus text exposition format.
//!
//! Everything is lock-free atomics: counters for requests, responses by
//! class, cache hits/misses and queue rejections; gauges for in-flight
//! requests and queue depth; and fixed-bucket latency histograms for the
//! two planning endpoints. `GET /metrics` renders the whole set in one
//! pass — no locks are ever held while a request is being served.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Histogram bucket upper bounds, in seconds (`+Inf` is implicit). The
/// sub-millisecond bounds resolve planner-free ingests, which take tens of
/// microseconds.
const BUCKETS: [f64; 14] = [
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.25, 1.0, 5.0,
    15.0,
];

/// A fixed-bucket latency histogram (Prometheus `histogram` type).
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS.len() + 1],
    /// Sum of observations in nanoseconds (integer atomics; Prometheus
    /// gets seconds back at render time). Microseconds would drop up to
    /// one from each planner-free ingest, which takes only tens of them.
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, seconds: f64) {
        let idx = BUCKETS.iter().position(|&ub| seconds <= ub).unwrap_or(BUCKETS.len());
        self.buckets[idx].fetch_add(1, Relaxed);
        self.sum_ns.fetch_add((seconds * 1e9) as u64, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Renders the histogram with one fixed `key="value"` label pair.
    fn render(&self, out: &mut String, name: &str, label: &str, value: &str) {
        let mut cumulative = 0u64;
        for (i, ub) in BUCKETS.iter().enumerate() {
            cumulative += self.buckets[i].load(Relaxed);
            let _ = writeln!(out, "{name}_bucket{{{label}=\"{value}\",le=\"{ub}\"}} {cumulative}");
        }
        cumulative += self.buckets[BUCKETS.len()].load(Relaxed);
        let _ = writeln!(out, "{name}_bucket{{{label}=\"{value}\",le=\"+Inf\"}} {cumulative}");
        let sum = self.sum_ns.load(Relaxed) as f64 / 1e9;
        let _ = writeln!(out, "{name}_sum{{{label}=\"{value}\"}} {sum}");
        let _ = writeln!(out, "{name}_count{{{label}=\"{value}\"}} {}", self.count.load(Relaxed));
    }
}

/// Counters and histograms for one endpoint.
#[derive(Default)]
pub struct EndpointStats {
    /// Requests routed to the endpoint.
    pub requests: AtomicU64,
    /// End-to-end handling latency.
    pub latency: Histogram,
}

/// The daemon's full metric set. One instance is shared (`Arc`) by every
/// worker, the accept loop, and the `/metrics` handler.
#[derive(Default)]
pub struct Metrics {
    /// Requests accepted and parsed, by endpoint.
    pub plan: EndpointStats,
    /// Same for `/simulate`.
    pub simulate: EndpointStats,
    /// Same for the `/session` endpoint family (create, telemetry, plan,
    /// delete).
    pub session: EndpointStats,
    /// Same for `POST /telemetry/batch`.
    pub batch: EndpointStats,
    /// Telemetry frames carried by `/telemetry/batch` requests (a single
    /// request can carry thousands).
    pub batch_frames: AtomicU64,
    /// Frames inside batches that were rejected (unknown session or
    /// invalid telemetry) — applied frames are `batch_frames - this`.
    pub batch_frame_errors: AtomicU64,
    /// Suppressed-event batches accepted (any path: `/session/{id}/events`
    /// or events frames inside `/telemetry/batch`).
    pub events_ingested: AtomicU64,
    /// Client-side observations reported by accepted event batches (the
    /// frames edge clients *would* have streamed without suppression).
    pub client_frames_observed: AtomicU64,
    /// Frames edge clients actually sent, as reported by accepted event
    /// batches. `1 - sent/observed` is the suppression ratio.
    pub client_frames_sent: AtomicU64,
    /// `GET /healthz` + `GET /metrics` + unroutable requests.
    pub other_requests: AtomicU64,
    /// Plan-cache hits.
    pub cache_hits: AtomicU64,
    /// Plan-cache misses (each one paid for a full planning run).
    pub cache_misses: AtomicU64,
    /// Plans evicted from the cache to make room for new ones.
    pub cache_evictions: AtomicU64,
    /// Live sessions evicted (LRU) to make room for new ones.
    pub session_evictions: AtomicU64,
    /// Sessions quarantined after a panic during ingest (removed from the
    /// store and journaled as ended; never served again).
    pub sessions_quarantined: AtomicU64,
    /// Sessions reconstructed from the journal at startup.
    pub sessions_recovered: AtomicU64,
    /// Bytes appended to the write-ahead journal (WAL + snapshots).
    pub journal_bytes_written: AtomicU64,
    /// Explicit `fsync` calls issued by the journal.
    pub journal_fsyncs: AtomicU64,
    /// WAL records replayed at startup — 0 after a clean drain, because
    /// drain compacts every live session into its snapshot.
    pub journal_replayed_wal_records: AtomicU64,
    /// Wall-clock duration of startup recovery passes.
    pub recovery_seconds: Histogram,
    /// Session telemetry outcomes by replan kind: `[none, incremental,
    /// full]` (indexing matches [`perpetuum_online::ReplanKind`]).
    pub session_replans: [AtomicU64; 3],
    /// Emergency rescue dispatches issued by session ingests.
    pub session_emergencies: AtomicU64,
    /// Ingest latency of telemetry batches that replanned nothing.
    pub planner_none: Histogram,
    /// Planner latency of telemetry batches resolved on the incremental
    /// (forest-splice) path.
    pub planner_incremental: Histogram,
    /// Planner latency of telemetry batches that forced a full replan.
    pub planner_full: Histogram,
    /// Refinement passes completed (inline `/plan` requests and background
    /// worker jobs alike).
    pub refine_passes: AtomicU64,
    /// Cached `/plan` entries replaced in place by a background
    /// refinement pass.
    pub refine_upgrades: AtomicU64,
    /// Background refinement jobs dropped: the queue was full, or the
    /// cache entry was evicted before the upgrade landed.
    pub refine_jobs_dropped: AtomicU64,
    /// Cumulative constructive service cost seen by refinement passes,
    /// in cost millis (integer atomics; the improvement-ratio gauge is
    /// derived at render time).
    pub refine_constructive_millicost: AtomicU64,
    /// Cumulative refined service cost, in cost millis.
    pub refine_refined_millicost: AtomicU64,
    /// Wall-clock duration of refinement passes.
    pub refine_seconds: Histogram,
    /// Connections rejected with `503` because the request queue was full.
    pub queue_rejected: AtomicU64,
    /// Responses by status class: `[2xx, 4xx, 5xx]`.
    pub responses: [AtomicU64; 3],
    /// Requests currently being handled by workers (gauge).
    pub in_flight: AtomicU64,
    /// Connections waiting in the bounded queue (gauge).
    pub queue_depth: AtomicU64,
}

impl Metrics {
    /// Records one session telemetry ingest: the replan kind it resolved
    /// to, the rescued-sensor count, and the end-to-end ingest latency
    /// under that replan path.
    pub(crate) fn record_ingest(
        &self,
        kind: perpetuum_online::ReplanKind,
        emergencies: u64,
        seconds: f64,
    ) {
        use perpetuum_online::ReplanKind;
        let idx = match kind {
            ReplanKind::None => 0,
            ReplanKind::Incremental => 1,
            ReplanKind::Full => 2,
        };
        self.session_replans[idx].fetch_add(1, Relaxed);
        self.session_emergencies.fetch_add(emergencies, Relaxed);
        match kind {
            ReplanKind::None => self.planner_none.observe(seconds),
            ReplanKind::Incremental => self.planner_incremental.observe(seconds),
            ReplanKind::Full => self.planner_full.observe(seconds),
        }
    }

    /// Records one accepted suppressed-event batch and its delta counters
    /// (observations made vs frames actually sent since the client's last
    /// accepted batch).
    pub(crate) fn record_events(&self, observed: u64, sent: u64) {
        self.events_ingested.fetch_add(1, Relaxed);
        self.client_frames_observed.fetch_add(observed, Relaxed);
        self.client_frames_sent.fetch_add(sent, Relaxed);
    }

    /// Records one completed refinement pass: the service cost before and
    /// after, and the wall-clock time it took. Feeds the pass counter,
    /// the improvement-ratio gauge and the latency histogram.
    pub(crate) fn record_refine(&self, constructive_cost: f64, refined_cost: f64, seconds: f64) {
        self.refine_passes.fetch_add(1, Relaxed);
        self.refine_constructive_millicost
            .fetch_add((constructive_cost.max(0.0) * 1e3) as u64, Relaxed);
        self.refine_refined_millicost.fetch_add((refined_cost.max(0.0) * 1e3) as u64, Relaxed);
        self.refine_seconds.observe(seconds);
    }

    /// Records a finished response's status class.
    pub(crate) fn record_status(&self, status: u16) {
        let idx = match status {
            200..=299 => 0,
            400..=499 => 1,
            _ => 2,
        };
        self.responses[idx].fetch_add(1, Relaxed);
    }

    /// Renders the Prometheus text exposition. `cache_len` and
    /// `session_count` are sampled by the caller from lock-free gauges;
    /// `shard_sessions` holds the per-shard live counts (one gauge line
    /// each, labelled by shard index).
    pub fn render(&self, cache_len: usize, session_count: usize, shard_sessions: &[u64]) -> String {
        let mut out = String::with_capacity(2048);
        let requests_total = self.plan.requests.load(Relaxed)
            + self.simulate.requests.load(Relaxed)
            + self.session.requests.load(Relaxed)
            + self.batch.requests.load(Relaxed)
            + self.other_requests.load(Relaxed);

        out.push_str("# HELP perpetuum_requests_total Requests parsed, by endpoint.\n");
        out.push_str("# TYPE perpetuum_requests_total counter\n");
        let _ = writeln!(
            out,
            "perpetuum_requests_total{{endpoint=\"plan\"}} {}",
            self.plan.requests.load(Relaxed)
        );
        let _ = writeln!(
            out,
            "perpetuum_requests_total{{endpoint=\"simulate\"}} {}",
            self.simulate.requests.load(Relaxed)
        );
        let _ = writeln!(
            out,
            "perpetuum_requests_total{{endpoint=\"session\"}} {}",
            self.session.requests.load(Relaxed)
        );
        let _ = writeln!(
            out,
            "perpetuum_requests_total{{endpoint=\"telemetry_batch\"}} {}",
            self.batch.requests.load(Relaxed)
        );
        let _ = writeln!(
            out,
            "perpetuum_requests_total{{endpoint=\"other\"}} {}",
            self.other_requests.load(Relaxed)
        );
        let _ = writeln!(out, "# Total across endpoints: {requests_total}");

        out.push_str("# HELP perpetuum_request_seconds End-to-end handling latency.\n");
        out.push_str("# TYPE perpetuum_request_seconds histogram\n");
        self.plan.latency.render(&mut out, "perpetuum_request_seconds", "endpoint", "plan");
        self.simulate.latency.render(&mut out, "perpetuum_request_seconds", "endpoint", "simulate");
        self.session.latency.render(&mut out, "perpetuum_request_seconds", "endpoint", "session");
        self.batch.latency.render(
            &mut out,
            "perpetuum_request_seconds",
            "endpoint",
            "telemetry_batch",
        );

        out.push_str("# HELP perpetuum_batch_frames_total Telemetry frames carried by batches.\n");
        out.push_str("# TYPE perpetuum_batch_frames_total counter\n");
        let _ = writeln!(out, "perpetuum_batch_frames_total {}", self.batch_frames.load(Relaxed));
        out.push_str("# HELP perpetuum_batch_frame_errors_total Rejected frames inside batches.\n");
        out.push_str("# TYPE perpetuum_batch_frame_errors_total counter\n");
        let _ = writeln!(
            out,
            "perpetuum_batch_frame_errors_total {}",
            self.batch_frame_errors.load(Relaxed)
        );

        out.push_str("# HELP perpetuum_events_ingested_total Suppressed-event batches accepted.\n");
        out.push_str("# TYPE perpetuum_events_ingested_total counter\n");
        let _ =
            writeln!(out, "perpetuum_events_ingested_total {}", self.events_ingested.load(Relaxed));
        out.push_str(
            "# HELP perpetuum_client_frames_observed_total Edge-client observations reported.\n",
        );
        out.push_str("# TYPE perpetuum_client_frames_observed_total counter\n");
        let _ = writeln!(
            out,
            "perpetuum_client_frames_observed_total {}",
            self.client_frames_observed.load(Relaxed)
        );
        out.push_str(
            "# HELP perpetuum_client_frames_sent_total Edge-client frames actually sent.\n",
        );
        out.push_str("# TYPE perpetuum_client_frames_sent_total counter\n");
        let _ = writeln!(
            out,
            "perpetuum_client_frames_sent_total {}",
            self.client_frames_sent.load(Relaxed)
        );
        out.push_str(
            "# HELP perpetuum_frames_suppressed_ratio Fraction of edge observations never sent.\n",
        );
        out.push_str("# TYPE perpetuum_frames_suppressed_ratio gauge\n");
        let observed = self.client_frames_observed.load(Relaxed);
        let sent = self.client_frames_sent.load(Relaxed);
        let suppressed =
            if observed == 0 { 0.0 } else { 1.0 - (sent.min(observed) as f64 / observed as f64) };
        let _ = writeln!(out, "perpetuum_frames_suppressed_ratio {suppressed}");

        out.push_str("# HELP perpetuum_session_replans_total Telemetry batches by replan kind.\n");
        out.push_str("# TYPE perpetuum_session_replans_total counter\n");
        for (idx, kind) in ["none", "incremental", "full"].iter().enumerate() {
            let _ = writeln!(
                out,
                "perpetuum_session_replans_total{{kind=\"{kind}\"}} {}",
                self.session_replans[idx].load(Relaxed)
            );
        }
        out.push_str("# HELP perpetuum_session_emergencies_total Emergency rescue dispatches.\n");
        out.push_str("# TYPE perpetuum_session_emergencies_total counter\n");
        let _ = writeln!(
            out,
            "perpetuum_session_emergencies_total {}",
            self.session_emergencies.load(Relaxed)
        );

        out.push_str("# HELP perpetuum_planner_seconds Telemetry ingest latency by replan path.\n");
        out.push_str("# TYPE perpetuum_planner_seconds histogram\n");
        self.planner_none.render(&mut out, "perpetuum_planner_seconds", "path", "none");
        self.planner_incremental.render(
            &mut out,
            "perpetuum_planner_seconds",
            "path",
            "incremental",
        );
        self.planner_full.render(&mut out, "perpetuum_planner_seconds", "path", "full");

        out.push_str("# HELP perpetuum_cache_hits_total Plan-cache hits.\n");
        out.push_str("# TYPE perpetuum_cache_hits_total counter\n");
        let _ = writeln!(out, "perpetuum_cache_hits_total {}", self.cache_hits.load(Relaxed));
        out.push_str("# HELP perpetuum_cache_misses_total Plan-cache misses.\n");
        out.push_str("# TYPE perpetuum_cache_misses_total counter\n");
        let _ = writeln!(out, "perpetuum_cache_misses_total {}", self.cache_misses.load(Relaxed));
        out.push_str("# HELP perpetuum_cache_evictions_total Plans evicted from the cache.\n");
        out.push_str("# TYPE perpetuum_cache_evictions_total counter\n");
        let _ =
            writeln!(out, "perpetuum_cache_evictions_total {}", self.cache_evictions.load(Relaxed));
        out.push_str("# HELP perpetuum_cache_plans Plans currently cached.\n");
        out.push_str("# TYPE perpetuum_cache_plans gauge\n");
        let _ = writeln!(out, "perpetuum_cache_plans {cache_len}");

        out.push_str("# HELP perpetuum_sessions Live telemetry sessions.\n");
        out.push_str("# TYPE perpetuum_sessions gauge\n");
        let _ = writeln!(out, "perpetuum_sessions {session_count}");
        out.push_str("# HELP perpetuum_session_shard_sessions Live sessions per store shard.\n");
        out.push_str("# TYPE perpetuum_session_shard_sessions gauge\n");
        for (shard, &count) in shard_sessions.iter().enumerate() {
            let _ = writeln!(out, "perpetuum_session_shard_sessions{{shard=\"{shard}\"}} {count}");
        }
        out.push_str("# HELP perpetuum_session_evictions_total Sessions evicted (LRU).\n");
        out.push_str("# TYPE perpetuum_session_evictions_total counter\n");
        let _ = writeln!(
            out,
            "perpetuum_session_evictions_total {}",
            self.session_evictions.load(Relaxed)
        );

        out.push_str(
            "# HELP perpetuum_sessions_quarantined_total Sessions quarantined after a panic.\n",
        );
        out.push_str("# TYPE perpetuum_sessions_quarantined_total counter\n");
        let _ = writeln!(
            out,
            "perpetuum_sessions_quarantined_total {}",
            self.sessions_quarantined.load(Relaxed)
        );
        out.push_str("# HELP perpetuum_sessions_recovered_total Sessions rebuilt from the journal at startup.\n");
        out.push_str("# TYPE perpetuum_sessions_recovered_total counter\n");
        let _ = writeln!(
            out,
            "perpetuum_sessions_recovered_total {}",
            self.sessions_recovered.load(Relaxed)
        );
        out.push_str(
            "# HELP perpetuum_journal_bytes_written_total Bytes appended to the journal.\n",
        );
        out.push_str("# TYPE perpetuum_journal_bytes_written_total counter\n");
        let _ = writeln!(
            out,
            "perpetuum_journal_bytes_written_total {}",
            self.journal_bytes_written.load(Relaxed)
        );
        out.push_str(
            "# HELP perpetuum_journal_fsyncs_total Explicit fsyncs issued by the journal.\n",
        );
        out.push_str("# TYPE perpetuum_journal_fsyncs_total counter\n");
        let _ =
            writeln!(out, "perpetuum_journal_fsyncs_total {}", self.journal_fsyncs.load(Relaxed));
        out.push_str(
            "# HELP perpetuum_journal_replayed_wal_records_total WAL records replayed at startup.\n",
        );
        out.push_str("# TYPE perpetuum_journal_replayed_wal_records_total counter\n");
        let _ = writeln!(
            out,
            "perpetuum_journal_replayed_wal_records_total {}",
            self.journal_replayed_wal_records.load(Relaxed)
        );
        out.push_str("# HELP perpetuum_recovery_seconds Startup journal-recovery duration.\n");
        out.push_str("# TYPE perpetuum_recovery_seconds histogram\n");
        self.recovery_seconds.render(&mut out, "perpetuum_recovery_seconds", "phase", "startup");

        out.push_str("# HELP perpetuum_refine_passes_total Refinement passes completed.\n");
        out.push_str("# TYPE perpetuum_refine_passes_total counter\n");
        let _ = writeln!(out, "perpetuum_refine_passes_total {}", self.refine_passes.load(Relaxed));
        out.push_str(
            "# HELP perpetuum_refine_upgrades_total Cached plans upgraded in place by background refinement.\n",
        );
        out.push_str("# TYPE perpetuum_refine_upgrades_total counter\n");
        let _ =
            writeln!(out, "perpetuum_refine_upgrades_total {}", self.refine_upgrades.load(Relaxed));
        out.push_str(
            "# HELP perpetuum_refine_jobs_dropped_total Background refinement jobs dropped (queue full or entry evicted).\n",
        );
        out.push_str("# TYPE perpetuum_refine_jobs_dropped_total counter\n");
        let _ = writeln!(
            out,
            "perpetuum_refine_jobs_dropped_total {}",
            self.refine_jobs_dropped.load(Relaxed)
        );
        out.push_str(
            "# HELP perpetuum_refine_improvement_ratio Service cost removed by refinement, as a fraction of constructive cost.\n",
        );
        out.push_str("# TYPE perpetuum_refine_improvement_ratio gauge\n");
        let constructive = self.refine_constructive_millicost.load(Relaxed);
        let refined = self.refine_refined_millicost.load(Relaxed);
        let ratio = if constructive == 0 {
            0.0
        } else {
            1.0 - refined.min(constructive) as f64 / constructive as f64
        };
        let _ = writeln!(out, "perpetuum_refine_improvement_ratio {ratio}");
        out.push_str("# HELP perpetuum_refine_seconds Refinement pass duration.\n");
        out.push_str("# TYPE perpetuum_refine_seconds histogram\n");
        self.refine_seconds.render(&mut out, "perpetuum_refine_seconds", "kind", "pass");

        out.push_str("# HELP perpetuum_queue_rejected_total Connections shed with 503.\n");
        out.push_str("# TYPE perpetuum_queue_rejected_total counter\n");
        let _ =
            writeln!(out, "perpetuum_queue_rejected_total {}", self.queue_rejected.load(Relaxed));

        out.push_str("# HELP perpetuum_responses_total Responses by status class.\n");
        out.push_str("# TYPE perpetuum_responses_total counter\n");
        for (idx, class) in ["2xx", "4xx", "5xx"].iter().enumerate() {
            let _ = writeln!(
                out,
                "perpetuum_responses_total{{class=\"{class}\"}} {}",
                self.responses[idx].load(Relaxed)
            );
        }

        out.push_str("# HELP perpetuum_in_flight Requests currently being handled.\n");
        out.push_str("# TYPE perpetuum_in_flight gauge\n");
        let _ = writeln!(out, "perpetuum_in_flight {}", self.in_flight.load(Relaxed));
        out.push_str("# HELP perpetuum_queue_depth Connections waiting in the bounded queue.\n");
        out.push_str("# TYPE perpetuum_queue_depth gauge\n");
        let _ = writeln!(out, "perpetuum_queue_depth {}", self.queue_depth.load(Relaxed));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe(0.0001); // ≤ 0.0001
        h.observe(0.01); // ≤ 0.025
        h.observe(100.0); // +Inf only
        assert_eq!(h.count(), 3);
        let mut out = String::new();
        h.render(&mut out, "x_seconds", "endpoint", "plan");
        assert!(out.contains("x_seconds_bucket{endpoint=\"plan\",le=\"0.00005\"} 0"), "{out}");
        assert!(out.contains("x_seconds_bucket{endpoint=\"plan\",le=\"0.0001\"} 1"), "{out}");
        assert!(out.contains("x_seconds_bucket{endpoint=\"plan\",le=\"0.0005\"} 1"), "{out}");
        assert!(out.contains("x_seconds_bucket{endpoint=\"plan\",le=\"0.025\"} 2"), "{out}");
        assert!(out.contains("x_seconds_bucket{endpoint=\"plan\",le=\"+Inf\"} 3"), "{out}");
        assert!(out.contains("x_seconds_count{endpoint=\"plan\"} 3"), "{out}");
    }

    #[test]
    fn render_contains_every_family() {
        let m = Metrics::default();
        m.plan.requests.fetch_add(2, Relaxed);
        m.session.requests.fetch_add(3, Relaxed);
        m.cache_hits.fetch_add(1, Relaxed);
        m.cache_evictions.fetch_add(4, Relaxed);
        m.session_evictions.fetch_add(1, Relaxed);
        m.record_status(200);
        m.record_status(404);
        m.record_status(503);
        m.batch.requests.fetch_add(7, Relaxed);
        m.batch_frames.fetch_add(120, Relaxed);
        m.batch_frame_errors.fetch_add(2, Relaxed);
        m.sessions_quarantined.fetch_add(1, Relaxed);
        m.sessions_recovered.fetch_add(3, Relaxed);
        m.journal_bytes_written.fetch_add(4096, Relaxed);
        m.journal_fsyncs.fetch_add(9, Relaxed);
        m.journal_replayed_wal_records.fetch_add(17, Relaxed);
        m.recovery_seconds.observe(0.012);
        m.record_events(40, 3);
        m.record_events(10, 2);
        m.record_refine(200.0, 150.0, 0.004);
        m.refine_upgrades.fetch_add(1, Relaxed);
        m.refine_jobs_dropped.fetch_add(2, Relaxed);
        let text = m.render(5, 2, &[2, 0]);
        for needle in [
            "perpetuum_refine_passes_total 1",
            "perpetuum_refine_upgrades_total 1",
            "perpetuum_refine_jobs_dropped_total 2",
            "perpetuum_refine_improvement_ratio 0.25",
            "perpetuum_refine_seconds_count{kind=\"pass\"} 1",
            "perpetuum_refine_seconds_bucket{kind=\"pass\",le=\"0.005\"} 1",
            "perpetuum_events_ingested_total 2",
            "perpetuum_client_frames_observed_total 50",
            "perpetuum_client_frames_sent_total 5",
            "perpetuum_frames_suppressed_ratio 0.9",
            "perpetuum_sessions_quarantined_total 1",
            "perpetuum_sessions_recovered_total 3",
            "perpetuum_journal_bytes_written_total 4096",
            "perpetuum_journal_fsyncs_total 9",
            "perpetuum_journal_replayed_wal_records_total 17",
            "perpetuum_recovery_seconds_count{phase=\"startup\"} 1",
            "perpetuum_recovery_seconds_bucket{phase=\"startup\",le=\"0.025\"} 1",
            "perpetuum_requests_total{endpoint=\"telemetry_batch\"} 7",
            "perpetuum_batch_frames_total 120",
            "perpetuum_batch_frame_errors_total 2",
            "perpetuum_session_shard_sessions{shard=\"0\"} 2",
            "perpetuum_session_shard_sessions{shard=\"1\"} 0",
            "perpetuum_requests_total{endpoint=\"plan\"} 2",
            "perpetuum_requests_total{endpoint=\"session\"} 3",
            "perpetuum_cache_hits_total 1",
            "perpetuum_cache_misses_total 0",
            "perpetuum_cache_evictions_total 4",
            "perpetuum_cache_plans 5",
            "perpetuum_sessions 2",
            "perpetuum_session_evictions_total 1",
            "perpetuum_responses_total{class=\"2xx\"} 1",
            "perpetuum_responses_total{class=\"4xx\"} 1",
            "perpetuum_responses_total{class=\"5xx\"} 1",
            "perpetuum_in_flight 0",
            "perpetuum_queue_depth 0",
            "perpetuum_session_replans_total{kind=\"none\"} 0",
            "perpetuum_session_emergencies_total 0",
            "perpetuum_planner_seconds_count{path=\"none\"} 0",
            "perpetuum_planner_seconds_count{path=\"incremental\"} 0",
            "perpetuum_planner_seconds_count{path=\"full\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn ingest_records_split_by_replan_path() {
        use perpetuum_online::ReplanKind;
        let m = Metrics::default();
        m.record_ingest(ReplanKind::None, 0, 0.00003);
        m.record_ingest(ReplanKind::Incremental, 0, 0.002);
        m.record_ingest(ReplanKind::Incremental, 1, 0.003);
        m.record_ingest(ReplanKind::Full, 2, 0.2);
        let text = m.render(0, 1, &[1]);
        for needle in [
            "perpetuum_session_replans_total{kind=\"none\"} 1",
            "perpetuum_session_replans_total{kind=\"incremental\"} 2",
            "perpetuum_session_replans_total{kind=\"full\"} 1",
            "perpetuum_session_emergencies_total 3",
            "perpetuum_planner_seconds_count{path=\"none\"} 1",
            "perpetuum_planner_seconds_bucket{path=\"none\",le=\"0.000025\"} 0",
            "perpetuum_planner_seconds_bucket{path=\"none\",le=\"0.00005\"} 1",
            "perpetuum_planner_seconds_sum{path=\"none\"} 0.00003",
            "perpetuum_planner_seconds_count{path=\"incremental\"} 2",
            "perpetuum_planner_seconds_count{path=\"full\"} 1",
            "perpetuum_planner_seconds_bucket{path=\"full\",le=\"0.25\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Each ingest lands in exactly its own path's histogram.
        assert_eq!(m.planner_none.count(), 1);
        assert_eq!(m.planner_incremental.count() + m.planner_full.count(), 3);
    }
}
