//! The durable telemetry journal: an append-only on-disk log of
//! [`LiveSample`]s.
//!
//! The [`crate::LiveStore`] ring holds ~2 minutes of history; anything
//! older exists only as post-mortem black boxes. The journal is the
//! third leg next to live (`pm top`) and post-mortem (`pm trace`):
//! every ticker sample is appended as a length-prefixed binary frame to
//! a segment file, segments rotate by size and age, old raw segments
//! are compacted into downsampled *rollup* segments (250 ms samples →
//! [`JournalConfig::rollup_window_us`] windows), and a byte cap bounds
//! total disk use no matter how long the run lives. The `pm query` CLI
//! reads journals back for range queries, historical alert replay and
//! run-over-run diffs. [`rollup`] is the one merge of samples: a rollup
//! frame is it over one window's samples, and `pm query diff` is it over
//! a whole journal.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/MANIFEST.json     role, stage count, config
//! <dir>/seg-000000.pmj    raw frames (one per ticker sample)
//! <dir>/seg-000001.pmj    ... the active segment is the highest index
//! <dir>/rollup-000000.pmj downsampled frames from compacted raw segs
//! <dir>/OFFSET            optional: handshake clock offset, µs (text)
//! ```
//!
//! Frames are written and split by [`crate::codec`], the encoding the
//! wire and checkpoints use too: a little-endian `u32` length prefix,
//! then a versioned payload with every float stored as its bit pattern
//! so round trips are bit-exact. Nothing in a frame refers to another
//! frame, so a reader can start at any segment boundary.
//!
//! ## Crash tolerance
//!
//! The writer never seeks: a crash (or SIGKILL) can only leave a
//! partially written *tail* frame in the active segment. The reader
//! treats any frame it cannot split or decode — a truncated length
//! prefix, a payload shorter than its prefix, a prefix over
//! [`crate::codec::MAX_FRAME`] — as clean end-of-segment and reports how
//! many partial tails it skipped. There is no fsync on the append path:
//! the journal survives process death unconditionally and power loss up
//! to the OS write-back window, which is the right trade for telemetry.
//!
//! ## Cost
//!
//! Appends run on the ticker thread (via
//! [`crate::StoreTicker::spawn_with_hook`]), never the training or
//! serving hot path, and a single append is one buffered `write` call —
//! bounded by [`JOURNAL_APPEND_BOUND_US`], asserted by the journal
//! bench. Rotation, compaction and retention also run inline on the
//! ticker thread; they touch at most one segment per append.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::codec::{deframe, frame, CodecError, Reader, Writer};
use crate::json::{self, Value};
use crate::metrics::{HistogramSnapshot, MetricValue, MetricsSnapshot};
use crate::store::{LiveSample, StageLive};

/// Documented per-append cost bound, µs; the journal bench asserts the
/// median append against it. One sample is a few hundred bytes, so a
/// buffered write stays orders of magnitude under this even on slow
/// filesystems.
pub const JOURNAL_APPEND_BOUND_US: u64 = 500;

/// Frame format version.
const FRAME_VERSION: u8 = 1;
/// Manifest file name inside a journal directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";
/// Optional clock-offset file (decimal µs, one line), the one record of
/// a journal's offset. The orchestrator writes it into each worker's
/// journal directory after the handshake measures the offset, so
/// `pm query` can merge multi-process journals onto the driver clock;
/// the manifest cannot hold it, since the worker's own writer rewrites
/// the manifest on every rotation.
pub const OFFSET_FILE: &str = "OFFSET";

/// Rotation, compaction and retention policy for a [`JournalWriter`].
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Rotate the active segment once it holds this many bytes.
    pub max_segment_bytes: u64,
    /// Rotate the active segment once it is this old, even if small
    /// (bounds how much history a torn tail can hide).
    pub max_segment_age: Duration,
    /// Total on-disk byte cap; the oldest rollup (then raw) segments
    /// are deleted to stay under it.
    pub max_total_bytes: u64,
    /// Rollup window: compaction merges raw samples into one frame per
    /// this many µs of coverage.
    pub rollup_window_us: u64,
    /// How many finalized raw segments to keep at full resolution
    /// before the oldest is compacted into rollups.
    pub keep_raw_segments: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            max_segment_bytes: 1 << 20,
            max_segment_age: Duration::from_secs(60),
            max_total_bytes: 64 << 20,
            rollup_window_us: 10_000_000,
            keep_raw_segments: 4,
        }
    }
}

// ---------------------------------------------------------------------
// Frame payloads.

/// Encodes one sample as a frame payload (no length prefix): the bytes
/// of every sample a journal segment or a stats scrape carries.
pub(crate) fn encode_sample(sample: &LiveSample, rollup: bool) -> Vec<u8> {
    let mut w = Writer::new();
    w.reserve(256);
    w.put_u8(FRAME_VERSION);
    w.put_bool(rollup);
    w.put_u64(sample.seq);
    w.put_u64(sample.ts_us);
    w.put_u64(sample.window_us);
    w.put_u64(sample.sample_cost_us);
    w.put_u32(sample.stages.len() as u32);
    for st in &sample.stages {
        w.put_u32(st.stage);
        w.put_f64(st.util);
        w.put_f64(st.fwd_us);
        w.put_f64(st.bkwd_us);
        w.put_f64(st.recomp_us);
        w.put_u64(st.wait_us);
        w.put_f64(st.tau);
        w.put_u32(st.tau_pairs as u32);
        w.put_u64(st.events);
    }
    w.put_u32(sample.metrics.metrics.len() as u32);
    for (name, value) in &sample.metrics.metrics {
        w.put_str(name);
        match value {
            MetricValue::Counter(c) => {
                w.put_u8(0);
                w.put_u64(*c);
            }
            MetricValue::Gauge(g) => {
                w.put_u8(1);
                w.put_f64(*g);
            }
            MetricValue::Histogram(h) => {
                w.put_u8(2);
                w.put_u32(h.bounds.len() as u32);
                for b in &h.bounds {
                    w.put_f64(*b);
                }
                for c in &h.counts {
                    w.put_u64(*c);
                }
                w.put_u64(h.count);
                w.put_f64(h.sum);
            }
        }
    }
    w.into_bytes()
}

/// Decodes one frame payload. An error means a malformed payload (the
/// reader treats it like a torn tail: end of segment). No count read
/// from the frame sizes anything: vectors grow as their elements decode.
pub(crate) fn decode_sample(payload: &[u8]) -> Result<(LiveSample, bool), CodecError> {
    let mut r = Reader::new(payload);
    if r.get_u8()? != FRAME_VERSION {
        return Err(CodecError::BadValue("unknown journal frame version"));
    }
    let rollup = r.get_bool()?;
    let seq = r.get_u64()?;
    let ts_us = r.get_u64()?;
    let window_us = r.get_u64()?;
    let sample_cost_us = r.get_u64()?;
    let mut stages = Vec::new();
    for _ in 0..r.get_u32()? {
        stages.push(StageLive {
            stage: r.get_u32()?,
            util: r.get_f64()?,
            fwd_us: r.get_f64()?,
            bkwd_us: r.get_f64()?,
            recomp_us: r.get_f64()?,
            wait_us: r.get_u64()?,
            tau: r.get_f64()?,
            tau_pairs: r.get_u32()? as usize,
            events: r.get_u64()?,
        });
    }
    let mut metrics = Vec::new();
    for _ in 0..r.get_u32()? {
        let name = r.get_str()?;
        let value = match r.get_u8()? {
            0 => MetricValue::Counter(r.get_u64()?),
            1 => MetricValue::Gauge(r.get_f64()?),
            2 => {
                let n_bounds = r.get_u32()?;
                let mut bounds = Vec::new();
                for _ in 0..n_bounds {
                    bounds.push(r.get_f64()?);
                }
                let mut counts = Vec::new();
                for _ in 0..=n_bounds {
                    counts.push(r.get_u64()?);
                }
                MetricValue::Histogram(HistogramSnapshot {
                    bounds,
                    counts,
                    count: r.get_u64()?,
                    sum: r.get_f64()?,
                })
            }
            t => return Err(CodecError::BadTag(t)),
        };
        metrics.push((name, value));
    }
    Ok((
        LiveSample {
            seq,
            ts_us,
            window_us,
            stages,
            metrics: MetricsSnapshot { metrics },
            sample_cost_us,
        },
        rollup,
    ))
}

fn segment_name(index: u64) -> String {
    format!("seg-{index:06}.pmj")
}

fn rollup_name(index: u64) -> String {
    format!("rollup-{index:06}.pmj")
}

/// Parses `seg-NNNNNN.pmj` / `rollup-NNNNNN.pmj` into (is_rollup, index).
fn parse_segment_name(name: &str) -> Option<(bool, u64)> {
    let (rollup, rest) = if let Some(rest) = name.strip_prefix("seg-") {
        (false, rest)
    } else if let Some(rest) = name.strip_prefix("rollup-") {
        (true, rest)
    } else {
        return None;
    };
    rest.strip_suffix(".pmj").and_then(|idx| idx.parse().ok()).map(|idx| (rollup, idx))
}

// ---------------------------------------------------------------------
// Writer.

struct ActiveSegment {
    file: io::BufWriter<fs::File>,
    index: u64,
    bytes: u64,
    opened: Instant,
}

/// The append side of a journal directory. One writer per directory;
/// the on-disk format needs no locking because readers never assume a
/// complete tail frame.
pub struct JournalWriter {
    dir: PathBuf,
    role: String,
    n_stages: usize,
    cfg: JournalConfig,
    active: Option<ActiveSegment>,
    next_index: u64,
    last_seq: u64,
    /// Finalized raw segment indices, oldest first (compaction queue).
    finalized: Vec<u64>,
}

impl JournalWriter {
    /// Creates (or reopens) the journal at `dir`, creating the
    /// directory if needed. Reopening continues after the highest
    /// existing segment index; existing frames are never rewritten.
    pub fn create(
        dir: impl Into<PathBuf>,
        role: &str,
        n_stages: usize,
        cfg: JournalConfig,
    ) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut next_index = 0;
        let mut finalized = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some((rollup, idx)) = name.to_str().and_then(parse_segment_name) {
                next_index = next_index.max(idx + 1);
                if !rollup {
                    finalized.push(idx);
                }
            }
        }
        finalized.sort_unstable();
        let writer = JournalWriter {
            dir,
            role: role.to_string(),
            n_stages,
            cfg,
            active: None,
            next_index,
            last_seq: 0,
            finalized,
        };
        writer.write_manifest()?;
        Ok(writer)
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one sample as a raw frame, rotating / compacting /
    /// enforcing retention as configured. Appending a seq already
    /// journaled is a no-op, so on-demand samples racing the ticker
    /// (in-band stats scrapes call [`crate::LiveStore::sample`] too)
    /// never duplicate frames.
    pub fn append(&mut self, sample: &LiveSample) -> io::Result<()> {
        if sample.seq <= self.last_seq {
            return Ok(());
        }
        let frame = frame(&encode_sample(sample, false)).map_err(io::Error::other)?;
        let frame_len = frame.len() as u64;
        let rotate = match &self.active {
            Some(seg) => {
                seg.bytes + frame_len > self.cfg.max_segment_bytes
                    || seg.opened.elapsed() >= self.cfg.max_segment_age
            }
            None => true,
        };
        if rotate {
            self.rotate()?;
        }
        let seg = self.active.as_mut().expect("rotate always leaves an active segment");
        seg.file.write_all(&frame)?;
        seg.file.flush()?;
        seg.bytes += frame_len;
        self.last_seq = sample.seq;
        Ok(())
    }

    /// Finalizes the active segment (if any) and opens the next one,
    /// then runs compaction and retention on the finalized set.
    fn rotate(&mut self) -> io::Result<()> {
        if let Some(seg) = self.active.take() {
            drop(seg.file);
            self.finalized.push(seg.index);
        }
        let index = self.next_index;
        self.next_index += 1;
        let file = fs::File::create(self.dir.join(segment_name(index)))?;
        self.active = Some(ActiveSegment {
            file: io::BufWriter::new(file),
            index,
            bytes: 0,
            opened: Instant::now(),
        });
        self.compact()?;
        self.enforce_retention()?;
        self.write_manifest()
    }

    /// Compacts the oldest finalized raw segments into rollup frames
    /// until at most [`JournalConfig::keep_raw_segments`] raw segments
    /// remain finalized.
    fn compact(&mut self) -> io::Result<()> {
        while self.finalized.len() > self.cfg.keep_raw_segments {
            let index = self.finalized.remove(0);
            let raw_path = self.dir.join(segment_name(index));
            let (entries, _) = read_segment(&raw_path)?;
            let rollups =
                rollup_samples(entries.iter().map(|e| &e.sample), self.cfg.rollup_window_us);
            if !rollups.is_empty() {
                let path = self.dir.join(rollup_name(index));
                let file = fs::File::create(path)?;
                let mut out = io::BufWriter::new(file);
                for s in &rollups {
                    out.write_all(&frame(&encode_sample(s, true)).map_err(io::Error::other)?)?;
                }
                out.flush()?;
            }
            fs::remove_file(&raw_path)?;
        }
        Ok(())
    }

    /// Deletes the oldest rollup, then the oldest finalized raw
    /// segments, until total journal bytes fit the cap.
    fn enforce_retention(&mut self) -> io::Result<()> {
        let mut files: Vec<(bool, u64, u64, PathBuf)> = Vec::new();
        let mut total = 0u64;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let len = entry.metadata()?.len();
            total += len;
            if let Some((rollup, idx)) = entry.file_name().to_str().and_then(parse_segment_name) {
                if Some(idx) != self.active.as_ref().map(|s| s.index) {
                    files.push((rollup, idx, len, entry.path()));
                }
            }
        }
        // Oldest data first: rollups (always older than surviving raws),
        // then finalized raws by index.
        files.sort_by_key(|(rollup, idx, _, _)| (!rollup, *idx));
        for (rollup, idx, len, path) in files {
            if total <= self.cfg.max_total_bytes {
                break;
            }
            fs::remove_file(&path)?;
            total = total.saturating_sub(len);
            if !rollup {
                self.finalized.retain(|&i| i != idx);
            }
        }
        Ok(())
    }

    fn write_manifest(&self) -> io::Result<()> {
        let manifest = Value::obj()
            .set("version", 1u64)
            .set("role", self.role.as_str())
            .set("n_stages", self.n_stages as u64)
            .set("rollup_window_us", self.cfg.rollup_window_us)
            .set("max_segment_bytes", self.cfg.max_segment_bytes)
            .set("max_total_bytes", self.cfg.max_total_bytes);
        // Write-then-rename so a crash mid-write never corrupts the
        // manifest a concurrent reader is parsing.
        let tmp = self.dir.join(".MANIFEST.tmp");
        fs::write(&tmp, manifest.to_pretty())?;
        fs::rename(&tmp, self.dir.join(MANIFEST_FILE))
    }
}

/// Merges samples into one: window-weighted means of the finite rates
/// (util, τ, span means), sums of the totals (waits, τ pairs, events,
/// window coverage), and the *last* sample's identity and metrics
/// snapshot (counters are cumulative and gauges are "current", so
/// last-wins is the faithful downsample for both). A journal's rollup
/// frames are this per `rollup_window_us` bucket; `pm query diff` is this
/// over a whole run. `None` for no samples.
pub fn rollup<'a>(samples: impl IntoIterator<Item = &'a LiveSample>) -> Option<LiveSample> {
    let members: Vec<&LiveSample> = samples.into_iter().collect();
    let last = members.last()?;
    let n_stages = members.iter().map(|s| s.stages.len()).max().unwrap_or(0);
    let mut stages = Vec::with_capacity(n_stages);
    for s in 0..n_stages {
        let rows: Vec<(&StageLive, f64)> = members
            .iter()
            .filter_map(|m| m.stages.get(s).map(|st| (st, m.window_us.max(1) as f64)))
            .collect();
        let wmean = |f: fn(&StageLive) -> f64| {
            let (mut num, mut den) = (0.0, 0.0);
            for (st, w) in &rows {
                let v = f(st);
                if v.is_finite() {
                    num += v * w;
                    den += w;
                }
            }
            if den > 0.0 {
                num / den
            } else {
                f64::NAN
            }
        };
        stages.push(StageLive {
            stage: s as u32,
            util: wmean(|st| st.util),
            fwd_us: wmean(|st| st.fwd_us),
            bkwd_us: wmean(|st| st.bkwd_us),
            recomp_us: wmean(|st| st.recomp_us),
            wait_us: rows.iter().map(|(st, _)| st.wait_us).sum(),
            tau: wmean(|st| st.tau),
            tau_pairs: rows.iter().map(|(st, _)| st.tau_pairs).sum(),
            events: rows.iter().map(|(st, _)| st.events).sum(),
        });
    }
    Some(LiveSample {
        seq: last.seq,
        ts_us: last.ts_us,
        window_us: members.iter().map(|m| m.window_us).sum(),
        stages,
        metrics: last.metrics.clone(),
        sample_cost_us: last.sample_cost_us,
    })
}

/// Downsamples raw samples into one [`rollup`] frame per `window_us`
/// bucket of sample time.
fn rollup_samples<'a>(
    samples: impl Iterator<Item = &'a LiveSample>,
    window_us: u64,
) -> Vec<LiveSample> {
    let window_us = window_us.max(1);
    let mut buckets: Vec<(u64, Vec<&'a LiveSample>)> = Vec::new();
    for sample in samples {
        let key = sample.ts_us / window_us;
        match buckets.last_mut() {
            Some((k, members)) if *k == key => members.push(sample),
            _ => buckets.push((key, vec![sample])),
        }
    }
    buckets.into_iter().filter_map(|(_, members)| rollup(members)).collect()
}

// ---------------------------------------------------------------------
// Reader.

/// One frame read back from a journal.
#[derive(Clone, Debug)]
pub struct JournalEntry {
    /// The decoded sample.
    pub sample: LiveSample,
    /// Whether this frame is a compacted rollup (coarser window) rather
    /// than a raw ticker sample.
    pub rollup: bool,
}

/// Reads one segment file; a truncated or malformed tail frame reads as
/// clean end-of-segment. Returns the decoded entries and whether a
/// partial tail was skipped.
pub fn read_segment(path: &Path) -> io::Result<(Vec<JournalEntry>, bool)> {
    let bytes = fs::read(path)?;
    let rollup_file = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_segment_name)
        .is_some_and(|(r, _)| r);
    let mut out = Vec::new();
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        // A tail too short or too long to frame, or a frame that frames
        // correctly but decodes wrong (torn, or from a future version):
        // stop at it.
        let Ok(Some((payload, tail))) = deframe(rest) else { return Ok((out, true)) };
        let Ok((sample, rollup)) = decode_sample(payload) else { return Ok((out, true)) };
        out.push(JournalEntry { sample, rollup: rollup || rollup_file });
        rest = tail;
    }
    Ok((out, false))
}

/// The read side of a journal directory.
pub struct JournalReader {
    dir: PathBuf,
    /// Role recorded in the manifest (`"unknown"` if absent).
    pub role: String,
    /// Stage count recorded in the manifest.
    pub n_stages: usize,
    /// Clock offset for merging (µs, this journal's clock minus the
    /// driver's), read from the [`OFFSET_FILE`]; 0 without one.
    pub clock_offset_us: i64,
}

impl JournalReader {
    /// Opens a journal directory. Tolerates a missing or stale manifest
    /// (segments are discovered by listing, not by manifest contents),
    /// so a SIGKILLed writer's journal always opens.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} is not a journal directory", dir.display()),
            ));
        }
        let manifest = fs::read_to_string(dir.join(MANIFEST_FILE))
            .ok()
            .and_then(|text| json::parse(&text).ok());
        let role = manifest
            .as_ref()
            .and_then(|m| m.get("role"))
            .and_then(|r| r.as_str())
            .unwrap_or("unknown")
            .to_string();
        let n_stages = manifest
            .as_ref()
            .and_then(|m| m.get("n_stages"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0) as usize;
        let clock_offset_us = fs::read_to_string(dir.join(OFFSET_FILE))
            .ok()
            .and_then(|text| text.trim().parse().ok())
            .unwrap_or(0);
        Ok(JournalReader { dir, role, n_stages, clock_offset_us })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Every decodable entry — rollups first, then raw, each group in
    /// segment order (which is time order) — plus how many torn tail
    /// frames were skipped across all segments.
    pub fn entries(&self) -> io::Result<(Vec<JournalEntry>, u64)> {
        let mut segments: Vec<(bool, u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some((rollup, idx)) = entry.file_name().to_str().and_then(parse_segment_name) {
                segments.push((rollup, idx, entry.path()));
            }
        }
        segments.sort_by_key(|(rollup, idx, _)| (!rollup, *idx));
        let mut out = Vec::new();
        let mut truncated = 0u64;
        for (_, _, path) in segments {
            let (entries, torn) = read_segment(&path)?;
            out.extend(entries);
            truncated += u64::from(torn);
        }
        Ok((out, truncated))
    }

    /// [`JournalReader::entries`] at the best available resolution: raw
    /// samples everywhere raw coverage exists, rollups only for the
    /// (older, compacted) time range raw no longer covers. Sorted by
    /// `ts_us`.
    pub fn samples(&self) -> io::Result<(Vec<JournalEntry>, u64)> {
        let (entries, truncated) = self.entries()?;
        let raw_start = entries.iter().filter(|e| !e.rollup).map(|e| e.sample.ts_us).min();
        let mut out: Vec<JournalEntry> = entries
            .into_iter()
            .filter(|e| !e.rollup || raw_start.is_none_or(|start| e.sample.ts_us < start))
            .collect();
        out.sort_by_key(|e| e.sample.ts_us);
        Ok((out, truncated))
    }
}

/// Merges entries from several journals onto the driver clock: each
/// entry's `ts_us` is shifted by its journal's `clock_offset_us` (the
/// same convention [`crate::merge_worker_events`] uses for traces).
/// Returns `(role, entry)` pairs sorted by aligned time.
pub fn merge_journals(readers: &[JournalReader]) -> io::Result<(Vec<(String, JournalEntry)>, u64)> {
    let mut out = Vec::new();
    let mut truncated = 0u64;
    for reader in readers {
        let (entries, torn) = reader.samples()?;
        truncated += torn;
        for mut e in entries {
            e.sample.ts_us = (e.sample.ts_us as i64 - reader.clock_offset_us).max(0) as u64;
            out.push((reader.role.clone(), e));
        }
    }
    out.sort_by(|a, b| (a.1.sample.ts_us, &a.0).cmp(&(b.1.sample.ts_us, &b.0)));
    Ok((out, truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample(seq: u64, ts_us: u64) -> LiveSample {
        let reg = MetricsRegistry::new();
        reg.counter("serve.accepted").add(seq * 10);
        reg.gauge("health.stage0.alpha_margin").set(1.5);
        reg.histogram("serve.batch_rows", &[1.0, 4.0]).observe(2.0);
        LiveSample {
            seq,
            ts_us,
            window_us: 250_000,
            stages: vec![StageLive {
                stage: 0,
                util: 0.5,
                fwd_us: 100.0,
                bkwd_us: 200.0,
                recomp_us: f64::NAN,
                wait_us: 42,
                tau: 3.0,
                tau_pairs: 7,
                events: 12,
            }],
            metrics: reg.snapshot(),
            sample_cost_us: 17,
        }
    }

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn frames_roundtrip_bit_exact() {
        let s = sample(3, 1_000_000);
        let payload = encode_sample(&s, false);
        let (back, rollup) = decode_sample(&payload).expect("decodes");
        assert!(!rollup);
        assert_eq!(back.seq, s.seq);
        assert_eq!(back.ts_us, s.ts_us);
        assert_eq!(back.stages.len(), 1);
        assert!(approx(back.stages[0].util, 0.5));
        assert!(back.stages[0].recomp_us.is_nan(), "NaN survives to_bits round trip");
        assert_eq!(back.metrics, s.metrics, "snapshot round trips bit-exact");
        // A stats scrape carries the same frames: it survives encode and
        // decode bit for bit, NaN fields included.
        let scrape = crate::Scrape {
            role: "worker-0".into(),
            n_stages: 1,
            max_sample_cost_us: 90,
            alerts: vec![crate::ActiveAlert {
                rule: "tau_drift".into(),
                label: "stage0".into(),
                severity: crate::Severity::Warn,
                since_ts_us: 500_000,
                value: f64::NAN,
            }],
            samples: vec![sample(2, 750_000), s.clone()],
        };
        let bytes = scrape.encode().expect("encodes");
        let back = crate::Scrape::decode(&bytes).expect("decodes");
        assert_eq!(back.encode().expect("re-encodes"), bytes, "scrape round trips bit-exact");
        assert!(back.alerts[0].value.is_nan() && back.samples[1].stages[0].recomp_us.is_nan());
        assert_eq!(back.samples[1].metrics, s.metrics);
    }

    #[test]
    fn writer_appends_and_reader_reads_back() {
        let dir = std::env::temp_dir().join(format!("pmj-rw-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut w = JournalWriter::create(&dir, "test", 1, JournalConfig::default()).unwrap();
        for i in 1..=5u64 {
            w.append(&sample(i, i * 250_000)).unwrap();
        }
        // Duplicate seq (an on-demand sample racing the ticker): no-op.
        w.append(&sample(5, 5 * 250_000)).unwrap();
        drop(w);
        let r = JournalReader::open(&dir).unwrap();
        assert_eq!(r.role, "test");
        assert_eq!(r.n_stages, 1);
        let (entries, truncated) = r.samples().unwrap();
        assert_eq!(truncated, 0);
        assert_eq!(entries.iter().map(|e| e.sample.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert!(entries.iter().all(|e| !e.rollup));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_by_size_and_compact_into_rollups() {
        let dir = std::env::temp_dir().join(format!("pmj-rot-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = JournalConfig {
            max_segment_bytes: 600, // ~1 frame per segment
            keep_raw_segments: 2,
            rollup_window_us: 1_000_000,
            ..JournalConfig::default()
        };
        let mut w = JournalWriter::create(&dir, "test", 1, cfg).unwrap();
        for i in 1..=10u64 {
            w.append(&sample(i, i * 250_000)).unwrap();
        }
        drop(w);
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().any(|n| n.starts_with("rollup-")),
            "compaction produced rollups: {names:?}"
        );
        let r = JournalReader::open(&dir).unwrap();
        let (entries, _) = r.samples().unwrap();
        assert!(entries.iter().any(|e| e.rollup), "old range served from rollups");
        assert!(entries.iter().any(|e| !e.rollup), "recent range still raw");
        // Resolution auto-pick: no rollup may overlap raw coverage.
        let raw_start = entries.iter().filter(|e| !e.rollup).map(|e| e.sample.ts_us).min().unwrap();
        assert!(entries.iter().filter(|e| e.rollup).all(|e| e.sample.ts_us < raw_start));
        // Rollups aggregate: 1 s windows over 250 ms samples.
        let ru = entries.iter().find(|e| e.rollup).unwrap();
        assert!(ru.sample.window_us >= 250_000);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_reads_as_clean_eof() {
        let dir = std::env::temp_dir().join(format!("pmj-trunc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut w = JournalWriter::create(&dir, "test", 1, JournalConfig::default()).unwrap();
        for i in 1..=3u64 {
            w.append(&sample(i, i * 250_000)).unwrap();
        }
        drop(w);
        // Chop bytes off the only segment's tail.
        let seg = dir.join(segment_name(0));
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();
        let (entries, truncated) = JournalReader::open(&dir).unwrap().samples().unwrap();
        assert_eq!(entries.len(), 2, "intact frames survive");
        assert_eq!(truncated, 1, "the torn tail is counted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_caps_total_bytes() {
        let dir = std::env::temp_dir().join(format!("pmj-ret-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = JournalConfig {
            max_segment_bytes: 600,
            max_total_bytes: 3_000,
            keep_raw_segments: 1,
            rollup_window_us: 1_000_000,
            ..JournalConfig::default()
        };
        let mut w = JournalWriter::create(&dir, "test", 1, cfg).unwrap();
        for i in 1..=60u64 {
            w.append(&sample(i, i * 250_000)).unwrap();
        }
        drop(w);
        let total: u64 = fs::read_dir(&dir)
            .unwrap()
            .map(Result::unwrap)
            .filter(|e| e.file_name().to_str().and_then(parse_segment_name).is_some())
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(total <= 4_000, "retention holds total near the cap, got {total}");
        // The newest data always survives.
        let (entries, _) = JournalReader::open(&dir).unwrap().samples().unwrap();
        assert_eq!(entries.last().unwrap().sample.seq, 60);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_journal_continues_segment_numbering() {
        let dir = std::env::temp_dir().join(format!("pmj-reopen-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut w = JournalWriter::create(&dir, "test", 1, JournalConfig::default()).unwrap();
        w.append(&sample(1, 250_000)).unwrap();
        drop(w);
        let mut w = JournalWriter::create(&dir, "test", 1, JournalConfig::default()).unwrap();
        w.append(&sample(1, 260_000)).unwrap(); // fresh process restarts seq
        drop(w);
        let (entries, truncated) = JournalReader::open(&dir).unwrap().entries().unwrap();
        assert_eq!(truncated, 0);
        assert_eq!(entries.len(), 2, "both processes' frames survive in distinct segments");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn offset_file_overrides_manifest_and_aligns_merge() {
        let dir_a = std::env::temp_dir().join(format!("pmj-mg-a-{}", std::process::id()));
        let dir_b = std::env::temp_dir().join(format!("pmj-mg-b-{}", std::process::id()));
        for d in [&dir_a, &dir_b] {
            let _ = fs::remove_dir_all(d);
        }
        let mut wa =
            JournalWriter::create(&dir_a, "orchestrator", 1, JournalConfig::default()).unwrap();
        wa.append(&sample(1, 1_000_000)).unwrap();
        drop(wa);
        let mut wb =
            JournalWriter::create(&dir_b, "worker-0", 1, JournalConfig::default()).unwrap();
        wb.append(&sample(1, 6_000_000)).unwrap();
        drop(wb);
        // Worker clock runs 5 s ahead of the driver.
        fs::write(dir_b.join(OFFSET_FILE), "5000000\n").unwrap();
        let readers =
            vec![JournalReader::open(&dir_a).unwrap(), JournalReader::open(&dir_b).unwrap()];
        assert_eq!(readers[1].clock_offset_us, 5_000_000);
        let (merged, _) = merge_journals(&readers).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].1.sample.ts_us, merged[1].1.sample.ts_us, "aligned to driver time");
        for d in [&dir_a, &dir_b] {
            fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn rollup_aggregation_is_window_weighted() {
        let mut a = sample(1, 100_000);
        a.stages[0].util = 1.0;
        a.window_us = 300_000;
        let mut b = sample(2, 400_000);
        b.stages[0].util = 0.0;
        b.window_us = 100_000;
        let rolled = rollup_samples([&a, &b].into_iter(), 1_000_000);
        assert_eq!(rolled.len(), 1);
        assert!(approx(rolled[0].stages[0].util, 0.75), "window-weighted mean");
        assert_eq!(rolled[0].window_us, 400_000);
        assert_eq!(rolled[0].seq, 2, "last sample's identity");
    }

    #[test]
    fn garbage_file_is_ignored_not_fatal() {
        let dir = std::env::temp_dir().join(format!("pmj-junk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut w = JournalWriter::create(&dir, "test", 1, JournalConfig::default()).unwrap();
        w.append(&sample(1, 250_000)).unwrap();
        drop(w);
        fs::write(dir.join("seg-000099.pmj"), b"\xff\xff\xff\xffnot a frame").unwrap();
        let (entries, truncated) = JournalReader::open(&dir).unwrap().samples().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(truncated, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
