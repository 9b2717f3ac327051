//! Compact binary wire format for the ingest path.
//!
//! JSON costs the million-sensor ingest path twice: bytes on the wire
//! (~3–4× the information content for numeric telemetry) and parse time
//! per frame. This module is a hand-rolled little-endian codec — plain
//! `put_*`/`get_*` over a byte buffer, no reflection, no new
//! dependencies — for the three message shapes the hot path speaks:
//!
//! * a **frame batch** ([`encode_frames`]/[`decode_frames`]): telemetry
//!   frames for many sessions in one request body
//!   (`POST /telemetry/batch` with `Content-Type:` [`CONTENT_TYPE`]);
//! * a **report batch** ([`encode_reports`]/[`decode_reports`]): the
//!   per-frame ingest outcomes going back (`Accept:` [`CONTENT_TYPE`]);
//! * a **plan summary** ([`PlanWire::encode`]/[`PlanWire::decode`]): the
//!   compact numeric view of a session's plan
//!   (`GET /session/{id}/plan` with `Accept:` [`CONTENT_TYPE`]).
//!
//! Layout (all integers little-endian, all floats IEEE-754 `f64` bits):
//!
//! ```text
//! frame batch                      report batch
//! ┌────────┬─────────────┐        ┌────────┬─────────────┐
//! │ "PBT1" │ u32 frames  │        │ "PRP1" │ u32 reports │
//! ├────────┴─────────────┤        ├────────┴─────────────┤
//! │ frame × frames       │        │ report × reports     │
//! └──────────────────────┘        └──────────────────────┘
//! frame:   u64 session · u8 tag · payload
//!   tag 0 (telemetry): f64 time · u32 records · record × records
//!   tag 1 (events):    f64 time · u8 sync · u32 events · event × events
//!                      · u64 observed · u64 sent
//! record:  u32 sensor · u8 flags(1=rate,2=level) · [f64 rate] · [f64 level]
//! event:   u32 sensor · f64 rho_hat · f64 last_rate · f64 level
//! report:  u64 session · u8 ok
//!          ok=1: u64 revision · f64 time · u8 replan(0|1|2)
//!                · u32 class_changes · u32 emergencies · u32 planner_calls
//!          ok=0: u16 len · len bytes of UTF-8 error text
//! ```
//!
//! The per-frame tag byte is the codec's versioning space: tag 0 is
//! per-slot telemetry, tag 1 the suppressed [`ClassEvent`] batches of
//! `perpetuum-client`, and every other value is *reserved* — decoders
//! reject it with the typed [`WireError::BadTag`] (`field: "frame_tag"`),
//! never a misleading truncation error, so an old server confronted with
//! a newer frame kind fails loud and precise. (The tag byte is a PBT1
//! layout change; pre-1.0 journals written by earlier builds are not
//! readable by this one.)
//!
//! Every decoder rejects truncated buffers ([`WireError::Truncated`]),
//! trailing garbage ([`WireError::Trailing`]), bad magic, and
//! out-of-range tags — a malformed binary body maps to the same typed
//! `400` a malformed JSON body gets. Declared element counts are capped
//! against the remaining buffer length before any allocation, so a
//! hostile 4-gigabyte count in a 40-byte body cannot reserve memory.

use perpetuum_online::{
    ClassEvent, EventBatch, IngestReport, ReplanKind, TelemetryBatch, TelemetryRecord,
};
use std::fmt;

/// MIME type negotiated for every binary message this module encodes.
pub const CONTENT_TYPE: &str = "application/x-perpetuum";

/// Magic prefix of a frame-batch request body.
pub(crate) const MAGIC_FRAMES: [u8; 4] = *b"PBT1";
/// Magic prefix of a report-batch response body.
pub(crate) const MAGIC_REPORTS: [u8; 4] = *b"PRP1";
/// Magic prefix of a plan-summary response body.
pub(crate) const MAGIC_PLAN: [u8; 4] = *b"PPL1";

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a fixed-width field or declared payload.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes the buffer still had.
        have: usize,
    },
    /// The first four bytes are not the expected magic.
    BadMagic {
        /// The magic the decoder expected.
        expected: [u8; 4],
        /// The bytes it found.
        found: [u8; 4],
    },
    /// Bytes remain after the message's declared end.
    Trailing {
        /// Count of unconsumed bytes.
        extra: usize,
    },
    /// A tag/flag byte holds a value outside its domain.
    BadTag {
        /// Which field carried the tag.
        field: &'static str,
        /// The offending value.
        value: u8,
    },
    /// A declared element count cannot fit in the remaining bytes.
    BadCount {
        /// Which field carried the count.
        field: &'static str,
        /// The declared count.
        count: u64,
    },
    /// A string payload is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { need, have } => {
                write!(f, "truncated buffer: need {need} more bytes, have {have}")
            }
            Self::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:?}, found {found:?}")
            }
            Self::Trailing { extra } => write!(f, "{extra} trailing bytes after message end"),
            Self::BadTag { field, value } => write!(f, "bad `{field}` tag: {value}"),
            Self::BadCount { field, count } => {
                write!(f, "`{field}` count {count} exceeds the buffer")
            }
            Self::BadUtf8 => write!(f, "string payload is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

// --- primitive put/get ---------------------------------------------------

/// Growable little-endian write buffer.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian IEEE-754 bit pattern.
    pub(crate) fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends raw bytes verbatim.
    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over a byte slice with typed, bounds-checked reads.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { need: n, have: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub(crate) fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub(crate) fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub(crate) fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub(crate) fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f64` from its little-endian bit pattern.
    pub(crate) fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads and checks a 4-byte magic prefix.
    pub(crate) fn expect_magic(&mut self, expected: [u8; 4]) -> Result<(), WireError> {
        let b = self.take(4)?;
        let found = [b[0], b[1], b[2], b[3]];
        if found != expected {
            return Err(WireError::BadMagic { expected, found });
        }
        Ok(())
    }

    /// Reads an element count and sanity-checks it against the remaining
    /// buffer assuming each element costs at least `min_bytes` — a
    /// hostile count can never drive an allocation past the body it
    /// arrived in.
    pub(crate) fn get_count(
        &mut self,
        field: &'static str,
        min_bytes: usize,
    ) -> Result<usize, WireError> {
        let count = self.get_u32()? as u64;
        if count.saturating_mul(min_bytes as u64) > self.remaining() as u64 {
            return Err(WireError::BadCount { field, count });
        }
        Ok(count as usize)
    }

    /// Asserts the buffer is fully consumed (call after the last field).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Trailing { extra: self.remaining() });
        }
        Ok(())
    }
}

// --- telemetry frames ----------------------------------------------------

/// One ingest frame addressed to a session: the batch-ingest unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Target session id.
    pub session: u64,
    /// What the frame carries.
    pub payload: FramePayload,
}

/// The two kinds of payload a PBT1 frame can carry, discriminated on the
/// wire by the per-frame tag byte. Tags outside this enum are reserved
/// for future frame kinds and decode to [`WireError::BadTag`].
#[derive(Debug, Clone, PartialEq)]
pub enum FramePayload {
    /// Tag 0: per-slot telemetry records (rates and/or levels).
    Telemetry(TelemetryBatch),
    /// Tag 1: suppressed rounding-class events from edge clients.
    Events(EventBatch),
}

impl Frame {
    /// A telemetry frame (wire tag `TAG_TELEMETRY`).
    pub fn telemetry(session: u64, batch: TelemetryBatch) -> Self {
        Self { session, payload: FramePayload::Telemetry(batch) }
    }

    /// A suppressed-event frame (wire tag `TAG_EVENTS`).
    pub fn events(session: u64, batch: EventBatch) -> Self {
        Self { session, payload: FramePayload::Events(batch) }
    }

    /// The payload's timestamp, whichever kind it is.
    pub fn time(&self) -> f64 {
        match &self.payload {
            FramePayload::Telemetry(b) => b.time,
            FramePayload::Events(b) => b.time,
        }
    }
}

/// Frame tag for a telemetry payload.
pub(crate) const TAG_TELEMETRY: u8 = 0;
/// Frame tag for a suppressed-event payload.
pub(crate) const TAG_EVENTS: u8 = 1;

const RATE_FLAG: u8 = 1;
const LEVEL_FLAG: u8 = 2;
/// Cheapest possible frame: session + tag + time + element count
/// (the telemetry shape; an events frame is strictly larger).
const MIN_FRAME_BYTES: usize = 8 + 1 + 8 + 4;
/// Cheapest possible record: sensor + flags.
const MIN_RECORD_BYTES: usize = 4 + 1;
/// Exact event size: sensor + rho_hat + last_rate + level.
const EVENT_BYTES: usize = 4 + 8 + 8 + 8;

/// Encodes a frame batch (request body of `POST /telemetry/batch`).
pub fn encode_frames(frames: &[Frame]) -> Vec<u8> {
    let mut w = Writer::with_capacity(8 + frames.len() * 48);
    w.put_bytes(&MAGIC_FRAMES);
    w.put_u32(frames.len() as u32);
    for f in frames {
        w.put_u64(f.session);
        match &f.payload {
            FramePayload::Telemetry(batch) => {
                w.put_u8(TAG_TELEMETRY);
                w.put_f64(batch.time);
                w.put_u32(batch.records.len() as u32);
                for r in &batch.records {
                    w.put_u32(r.sensor as u32);
                    let mut flags = 0u8;
                    if r.rate.is_some() {
                        flags |= RATE_FLAG;
                    }
                    if r.level.is_some() {
                        flags |= LEVEL_FLAG;
                    }
                    w.put_u8(flags);
                    if let Some(rate) = r.rate {
                        w.put_f64(rate);
                    }
                    if let Some(level) = r.level {
                        w.put_f64(level);
                    }
                }
            }
            FramePayload::Events(batch) => {
                w.put_u8(TAG_EVENTS);
                w.put_f64(batch.time);
                w.put_u8(u8::from(batch.sync));
                w.put_u32(batch.events.len() as u32);
                for e in &batch.events {
                    w.put_u32(e.sensor as u32);
                    w.put_f64(e.rho_hat);
                    w.put_f64(e.last_rate);
                    w.put_f64(e.level);
                }
                w.put_u64(batch.observed);
                w.put_u64(batch.sent);
            }
        }
    }
    w.into_bytes()
}

/// Decodes a frame batch, rejecting truncation, trailing garbage and
/// reserved frame tags.
pub fn decode_frames(bytes: &[u8]) -> Result<Vec<Frame>, WireError> {
    let mut r = Reader::new(bytes);
    r.expect_magic(MAGIC_FRAMES)?;
    let frames = r.get_count("frames", MIN_FRAME_BYTES)?;
    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        let session = r.get_u64()?;
        let payload = match r.get_u8()? {
            TAG_TELEMETRY => {
                let time = r.get_f64()?;
                let records = r.get_count("records", MIN_RECORD_BYTES)?;
                let mut batch = TelemetryBatch { time, records: Vec::with_capacity(records) };
                for _ in 0..records {
                    let sensor = r.get_u32()? as usize;
                    let flags = r.get_u8()?;
                    if flags & !(RATE_FLAG | LEVEL_FLAG) != 0 {
                        return Err(WireError::BadTag { field: "record flags", value: flags });
                    }
                    let rate = if flags & RATE_FLAG != 0 { Some(r.get_f64()?) } else { None };
                    let level = if flags & LEVEL_FLAG != 0 { Some(r.get_f64()?) } else { None };
                    batch.records.push(TelemetryRecord { sensor, rate, level });
                }
                FramePayload::Telemetry(batch)
            }
            TAG_EVENTS => {
                let time = r.get_f64()?;
                let sync = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(WireError::BadTag { field: "sync", value: other }),
                };
                let count = r.get_count("events", EVENT_BYTES)?;
                let mut events = Vec::with_capacity(count);
                for _ in 0..count {
                    let sensor = r.get_u32()? as usize;
                    let rho_hat = r.get_f64()?;
                    let last_rate = r.get_f64()?;
                    let level = r.get_f64()?;
                    events.push(ClassEvent { sensor, rho_hat, last_rate, level });
                }
                let observed = r.get_u64()?;
                let sent = r.get_u64()?;
                FramePayload::Events(EventBatch { time, sync, events, observed, sent })
            }
            other => return Err(WireError::BadTag { field: "frame_tag", value: other }),
        };
        out.push(Frame { session, payload });
    }
    r.finish()?;
    Ok(out)
}

// --- ingest reports ------------------------------------------------------

/// Outcome of one frame inside a batch: the session it addressed plus
/// either the controller's report or the typed error text.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOutcome {
    /// The session the frame addressed.
    pub session: u64,
    /// `Ok(report)` when the frame was applied, `Err(text)` otherwise.
    pub result: Result<IngestReport, String>,
}

fn replan_tag(kind: ReplanKind) -> u8 {
    match kind {
        ReplanKind::None => 0,
        ReplanKind::Incremental => 1,
        ReplanKind::Full => 2,
    }
}

fn replan_from_tag(tag: u8) -> Result<ReplanKind, WireError> {
    match tag {
        0 => Ok(ReplanKind::None),
        1 => Ok(ReplanKind::Incremental),
        2 => Ok(ReplanKind::Full),
        other => Err(WireError::BadTag { field: "replan", value: other }),
    }
}

/// Cheapest possible report: session + ok byte.
const MIN_REPORT_BYTES: usize = 8 + 1;

/// Encodes a report batch (binary response of `POST /telemetry/batch`).
pub fn encode_reports(outcomes: &[FrameOutcome]) -> Vec<u8> {
    let mut w = Writer::with_capacity(8 + outcomes.len() * 38);
    w.put_bytes(&MAGIC_REPORTS);
    w.put_u32(outcomes.len() as u32);
    for o in outcomes {
        w.put_u64(o.session);
        match &o.result {
            Ok(rep) => {
                w.put_u8(1);
                w.put_u64(rep.revision);
                w.put_f64(rep.time);
                w.put_u8(replan_tag(rep.replan));
                w.put_u32(rep.class_changes as u32);
                w.put_u32(rep.emergency_sensors as u32);
                w.put_u32(rep.planner_calls as u32);
            }
            Err(text) => {
                w.put_u8(0);
                let bytes = text.as_bytes();
                let len = bytes.len().min(u16::MAX as usize);
                w.put_u16(len as u16);
                w.put_bytes(&bytes[..len]);
            }
        }
    }
    w.into_bytes()
}

/// Decodes a report batch.
pub fn decode_reports(bytes: &[u8]) -> Result<Vec<FrameOutcome>, WireError> {
    let mut r = Reader::new(bytes);
    r.expect_magic(MAGIC_REPORTS)?;
    let count = r.get_count("reports", MIN_REPORT_BYTES)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let session = r.get_u64()?;
        let result = match r.get_u8()? {
            1 => Ok(IngestReport {
                revision: r.get_u64()?,
                time: r.get_f64()?,
                replan: replan_from_tag(r.get_u8()?)?,
                class_changes: r.get_u32()? as usize,
                emergency_sensors: r.get_u32()? as usize,
                planner_calls: r.get_u32()? as usize,
            }),
            0 => {
                let len = r.get_u16()? as usize;
                let bytes = r.take(len)?;
                Err(String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)?)
            }
            other => return Err(WireError::BadTag { field: "ok", value: other }),
        };
        out.push(FrameOutcome { session, result });
    }
    r.finish()?;
    Ok(out)
}

// --- plan summaries ------------------------------------------------------

/// Compact numeric view of a session plan — everything the JSON plan
/// response carries except the per-tour geometry: revision, clocks,
/// assigned cycles and the dispatch timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanWire {
    /// Plan revision.
    pub revision: u64,
    /// Controller clock.
    pub now: f64,
    /// Monitoring horizon.
    pub horizon: f64,
    /// Base cycle τ₁.
    pub tau1: f64,
    /// Total service cost of the schedule.
    pub service_cost: f64,
    /// Executed dispatch count.
    pub executed: u64,
    /// Per-sensor assigned (rounded) cycles.
    pub assigned: Vec<f64>,
    /// `(time, set id)` for every dispatch, in series order.
    pub dispatches: Vec<(f64, u32)>,
}

impl PlanWire {
    /// Encodes the summary (binary response of `GET /session/{id}/plan`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w =
            Writer::with_capacity(60 + self.assigned.len() * 8 + self.dispatches.len() * 12);
        w.put_bytes(&MAGIC_PLAN);
        w.put_u64(self.revision);
        w.put_f64(self.now);
        w.put_f64(self.horizon);
        w.put_f64(self.tau1);
        w.put_f64(self.service_cost);
        w.put_u64(self.executed);
        w.put_u32(self.assigned.len() as u32);
        for &a in &self.assigned {
            w.put_f64(a);
        }
        w.put_u32(self.dispatches.len() as u32);
        for &(time, set) in &self.dispatches {
            w.put_f64(time);
            w.put_u32(set);
        }
        w.into_bytes()
    }

    /// Decodes a summary, rejecting truncation and trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        r.expect_magic(MAGIC_PLAN)?;
        let revision = r.get_u64()?;
        let now = r.get_f64()?;
        let horizon = r.get_f64()?;
        let tau1 = r.get_f64()?;
        let service_cost = r.get_f64()?;
        let executed = r.get_u64()?;
        let n = r.get_count("assigned", 8)?;
        let mut assigned = Vec::with_capacity(n);
        for _ in 0..n {
            assigned.push(r.get_f64()?);
        }
        let d = r.get_count("dispatches", 12)?;
        let mut dispatches = Vec::with_capacity(d);
        for _ in 0..d {
            let time = r.get_f64()?;
            let set = r.get_u32()?;
            dispatches.push((time, set));
        }
        r.finish()?;
        Ok(Self { revision, now, horizon, tau1, service_cost, executed, assigned, dispatches })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::telemetry(
                7,
                TelemetryBatch {
                    time: 1.5,
                    records: vec![
                        TelemetryRecord::rate(0, 0.25),
                        TelemetryRecord::level(3, 0.5),
                        TelemetryRecord::full(9, 0.1, 0.9),
                        TelemetryRecord { sensor: 2, rate: None, level: None },
                    ],
                },
            ),
            Frame::telemetry(u64::MAX, TelemetryBatch::tick(2.0)),
            Frame::events(
                9,
                EventBatch {
                    time: 3.5,
                    sync: true,
                    events: vec![
                        ClassEvent::new(0, 0.25, 0.26, 0.75),
                        ClassEvent::new(4, 0.125, 0.12, 1.0),
                    ],
                    observed: 40,
                    sent: 2,
                },
            ),
            Frame::events(10, EventBatch::new(4.0, vec![])),
        ]
    }

    #[test]
    fn frames_round_trip() {
        let frames = sample_frames();
        let bytes = encode_frames(&frames);
        assert_eq!(decode_frames(&bytes).expect("decode"), frames);
    }

    #[test]
    fn every_truncation_of_a_frame_batch_is_rejected() {
        let bytes = encode_frames(&sample_frames());
        for cut in 0..bytes.len() {
            let err = decode_frames(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(err, WireError::Truncated { .. } | WireError::BadCount { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_frames(&sample_frames());
        bytes.push(0xAB);
        assert_eq!(decode_frames(&bytes), Err(WireError::Trailing { extra: 1 }));
    }

    #[test]
    fn bad_magic_and_bad_flags_are_rejected() {
        let mut bytes = encode_frames(&sample_frames());
        bytes[0] = b'X';
        assert!(matches!(decode_frames(&bytes), Err(WireError::BadMagic { .. })));

        let one = vec![Frame::telemetry(
            1,
            TelemetryBatch { time: 0.0, records: vec![TelemetryRecord::rate(0, 0.1)] },
        )];
        let mut bytes = encode_frames(&one);
        // The flags byte of the single record: magic(4)+count(4)+session(8)
        // +tag(1)+time(8)+records(4)+sensor(4) = offset 33.
        bytes[33] = 0xFF;
        assert!(matches!(
            decode_frames(&bytes),
            Err(WireError::BadTag { field: "record flags", .. })
        ));
    }

    #[test]
    fn reserved_frame_tags_are_rejected_with_a_typed_error() {
        let one = vec![Frame::telemetry(1, TelemetryBatch::tick(0.5))];
        let mut bytes = encode_frames(&one);
        // The frame tag byte: magic(4)+count(4)+session(8) = offset 16.
        for reserved in [2u8, 3, 0x7F, 0xFF] {
            bytes[16] = reserved;
            assert_eq!(
                decode_frames(&bytes),
                Err(WireError::BadTag { field: "frame_tag", value: reserved }),
                "reserved tag {reserved} must fail loud, not as truncation"
            );
        }
    }

    #[test]
    fn bad_sync_byte_is_rejected() {
        let one = vec![Frame::events(1, EventBatch::new(0.5, vec![]))];
        let mut bytes = encode_frames(&one);
        // The sync byte: magic(4)+count(4)+session(8)+tag(1)+time(8) = 25.
        bytes[25] = 7;
        assert_eq!(decode_frames(&bytes), Err(WireError::BadTag { field: "sync", value: 7 }));
    }

    #[test]
    fn hostile_counts_cannot_drive_allocation() {
        let mut w = Writer::default();
        w.put_bytes(&MAGIC_FRAMES);
        w.put_u32(u32::MAX);
        let err = decode_frames(&w.into_bytes()).expect_err("hostile count");
        assert!(matches!(err, WireError::BadCount { field: "frames", .. }), "{err:?}");
    }

    #[test]
    fn reports_round_trip_including_errors() {
        let outcomes = vec![
            FrameOutcome {
                session: 3,
                result: Ok(IngestReport {
                    revision: 9,
                    time: 4.25,
                    replan: ReplanKind::Incremental,
                    class_changes: 2,
                    emergency_sensors: 1,
                    planner_calls: 3,
                }),
            },
            FrameOutcome { session: 4, result: Err("no session 4".to_string()) },
        ];
        let bytes = encode_reports(&outcomes);
        assert_eq!(decode_reports(&bytes).expect("decode"), outcomes);
        for cut in 0..bytes.len() {
            assert!(decode_reports(&bytes[..cut]).is_err(), "cut {cut} must fail");
        }
    }

    #[test]
    fn plan_summary_round_trips() {
        let plan = PlanWire {
            revision: 12,
            now: 31.5,
            horizon: 300.0,
            tau1: 4.0,
            service_cost: 1234.5,
            executed: 6,
            assigned: vec![4.0, 8.0, 8.0, 16.0],
            dispatches: vec![(4.0, 0), (8.0, 1), (12.0, 0)],
        };
        let bytes = plan.encode();
        assert_eq!(PlanWire::decode(&bytes).expect("decode"), plan);
        for cut in 0..bytes.len() {
            assert!(PlanWire::decode(&bytes[..cut]).is_err(), "cut {cut} must fail");
        }
        let mut garbage = bytes.clone();
        garbage.extend_from_slice(&[1, 2, 3]);
        assert_eq!(PlanWire::decode(&garbage), Err(WireError::Trailing { extra: 3 }));
    }

    #[test]
    fn binary_frames_are_smaller_than_json() {
        // Realistic telemetry: measured floats whose shortest JSON
        // rendering runs to ~17 significant digits, vs 8 bytes binary.
        let batch = TelemetryBatch {
            time: 17.0 / 3.0,
            records: (0..32)
                .map(|i| TelemetryRecord::full(i, i as f64 / 3.0 + 0.01, i as f64 / 7.0))
                .collect(),
        };
        // Size of the same request as the JSON batch body:
        // {"frames":[{"session":42,<batch fields>}]}.
        let json: usize = 12 + 16 + serde_json::to_string(&batch).expect("json").len();
        let binary = encode_frames(&[Frame::telemetry(42, batch)]).len();
        assert!(binary * 2 < json, "binary {binary}B must be well under JSON {json}B");
    }
}
