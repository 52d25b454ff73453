//! The durable cold tier: crash-safe persistence for the sharded
//! store.
//!
//! [`DurableStore`] wraps a [`ShardedTrajectoryStore`] with three
//! on-disk structures in one data directory:
//!
//! - **Per-shard segment files** (`shard-<i>.seg`) — append-only
//!   streams of checksummed frames, each carrying one serialized
//!   [`TrajectorySegment`]. The
//!   same seal that rotates fixes out of the hot tier appends the
//!   created segments here.
//! - **A write-ahead log** ([`crate::wal`]) — accepted fix batches and
//!   published-watermark marks, logged before the in-memory hot tier
//!   applies them. Rotated (not grown) at each seal: the new
//!   generation starts with a snapshot of the post-seal hot tier.
//! - **A manifest** ([`crate::manifest`]) — atomically replaced last,
//!   naming the WAL generation, the seal cut, the watermark, the valid
//!   segment-file lengths, and every sealed segment's fences.
//!
//! ## Crash-ordering argument
//!
//! A seal persists in the order *segments → new WAL generation →
//! manifest → delete old WAL*. The manifest rename is the commit
//! point: crash before it and recovery sees the old manifest — old
//! WAL (which still holds everything the dropped segment-file tail
//! held as hot batches), segment tails past the old lengths ignored.
//! Crash after it and recovery sees the new manifest — new segments
//! acknowledged, new WAL generation holding exactly the post-seal hot
//! tier. Either way the recovered state is one the live process
//! actually published.
//!
//! ## What "durable" means here
//!
//! Recovery restores the store to the state observable at the largest
//! durable mark `W`: every fix with event time `<= W` that was logged,
//! all of it indexed (grid and kNN rebuilt on replay), and the exact
//! published watermark `W`. Fixes logged after the last mark carry
//! event times past `W` (the pipelines' tick discipline); they were
//! never part of a published snapshot, and recovery discards them the
//! same way a reader could never have seen them. Torn tails on any
//! file — a crash mid-write — are detected by checksums and truncated,
//! never panicked over.
//!
//! ## Concurrency contract
//!
//! [`DurableStore::log_batch`] / [`DurableStore::mark`] are
//! serialized by an internal lock and may be called from concurrent
//! writer lanes. [`DurableStore::seal_before`] must not race appends
//! to the wrapped store — the pipeline calls it from the boundary
//! leader while every other writer lane is parked (a lone lane is its
//! own leader), which is exactly the quiescence it needs.

use crate::manifest::{Manifest, SegmentMeta};
use crate::segment::TrajectorySegment;
use crate::shards::{SealOutcome, ShardedTrajectoryStore, StoreConfig};
use crate::tier::TierStats;
use crate::wal::{self, WalWriter};
use mda_geo::{Fix, Timestamp};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Where and how a [`DurableStore`] persists.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The data directory (created if missing). One store per
    /// directory.
    pub dir: PathBuf,
    /// `true` to fsync the WAL on every logged record and seal
    /// artifacts before the manifest commit — survives OS/power
    /// failure at a large throughput cost. `false` (default) flushes
    /// every record to the OS on write, surviving process crashes —
    /// the failure mode the kill-and-recover contract targets.
    pub sync: bool,
}

impl DurabilityConfig {
    /// Durability into `dir` with the default (process-crash) policy.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), sync: false }
    }
}

/// What a [`DurableStore::recover`] (or durable open of an existing
/// directory) reconstructed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The recovered published watermark — the exact stamp the last
    /// pre-crash published snapshot carried.
    pub watermark: Timestamp,
    /// Sealed segments adopted from the segment files.
    pub segments: usize,
    /// Hot-tier fixes replayed from the WAL.
    pub hot_fixes: usize,
    /// Logged fixes past the watermark, discarded (never published
    /// before the crash, so not observable after it either).
    pub discarded_unpublished: usize,
    /// True when the WAL ended in a torn record (truncated).
    pub wal_torn: bool,
    /// Manifest-acknowledged segments dropped because their file
    /// bytes were torn or failed validation (truncate-and-continue).
    pub dropped_segments: usize,
}

/// Mutable durable state behind one lock: the open WAL generation,
/// the segment-file append handles, and the accounting the next
/// manifest write needs.
#[derive(Debug)]
struct Inner {
    wal: WalWriter,
    wal_gen: u64,
    seg_files: Vec<File>,
    file_lens: Vec<u64>,
    segments: Vec<SegmentMeta>,
    sealed_to: Timestamp,
    last_mark: Timestamp,
    manifest_bytes: u64,
}

/// A [`ShardedTrajectoryStore`] backed by a data directory: segments
/// persist at seal time, the hot tier write-ahead-logs, and
/// [`DurableStore::recover`] restores the exact pre-crash published
/// state.
///
/// ## Example
///
/// ```no_run
/// use mda_geo::{Fix, Position, Timestamp};
/// use mda_store::{DurabilityConfig, DurableStore, StoreConfig};
///
/// let cfg = DurabilityConfig::new("/tmp/mda-data");
/// let store = DurableStore::open(StoreConfig::default(), &cfg).unwrap();
/// store
///     .append_batch(vec![Fix::new(1, Timestamp::from_secs(1), Position::new(43.0, 5.0), 10.0, 90.0)])
///     .unwrap();
/// store.mark(Timestamp::from_secs(1)).unwrap();
/// drop(store); // crash here —
/// let back = DurableStore::recover("/tmp/mda-data", StoreConfig::default()).unwrap();
/// assert_eq!(back.watermark(), Timestamp::from_secs(1));
/// assert_eq!(back.store().len(), 1);
/// ```
#[derive(Debug)]
pub struct DurableStore {
    store: ShardedTrajectoryStore,
    dir: PathBuf,
    sync: bool,
    inner: Mutex<Inner>,
    recovery: RecoveryReport,
}

/// The segment file name of file index `i`.
fn seg_file_name(i: usize) -> String {
    format!("shard-{i}.seg")
}

impl DurableStore {
    /// Open a durable store in `config.dir`: recover an existing data
    /// directory (manifest present) or initialize a fresh one.
    pub fn open(config: StoreConfig, durability: &DurabilityConfig) -> io::Result<Self> {
        std::fs::create_dir_all(&durability.dir)?;
        match Manifest::read(&durability.dir)? {
            Some(manifest) => {
                Self::recover_with(&durability.dir, config, durability.sync, manifest)
            }
            None => Self::create(config, durability),
        }
    }

    /// Restart from an existing data directory: read the manifest,
    /// re-open the segment files (read-back; `unsafe` — and therefore
    /// mmap — is denied workspace-wide), replay the WAL, and
    /// reconstruct hot tier, cold tier and indexes to the exact
    /// pre-crash published watermark. Torn tails on the WAL or any
    /// segment file are truncated and recovery continues; only a
    /// missing or corrupt *manifest* is an error (it is replaced
    /// atomically, so that is real damage, not a crash artifact).
    pub fn recover(dir: impl AsRef<Path>, config: StoreConfig) -> io::Result<Self> {
        let dir = dir.as_ref();
        let manifest = Manifest::read(dir)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "no MANIFEST in data directory")
        })?;
        Self::recover_with(dir, config, false, manifest)
    }

    /// Initialize a fresh data directory: empty segment files, WAL
    /// generation 0, and a manifest acknowledging the empty state.
    fn create(config: StoreConfig, durability: &DurabilityConfig) -> io::Result<Self> {
        let dir = durability.dir.clone();
        let store = ShardedTrajectoryStore::with_config(config);
        let files = store.shard_count();
        let mut seg_files = Vec::with_capacity(files);
        for i in 0..files {
            seg_files.push(File::create(dir.join(seg_file_name(i)))?);
        }
        let wal = WalWriter::create(&dir, 0)?;
        let manifest = Manifest::fresh(files);
        manifest.write(&dir)?;
        let inner = Inner {
            wal,
            wal_gen: 0,
            seg_files,
            file_lens: vec![0; files],
            segments: Vec::new(),
            sealed_to: Timestamp::MIN,
            last_mark: Timestamp::MIN,
            manifest_bytes: manifest.encoded_len(),
        };
        Ok(Self {
            store,
            dir,
            sync: durability.sync,
            inner: Mutex::new(inner),
            recovery: RecoveryReport::default(),
        })
    }

    /// The recovery path shared by [`Self::open`] and
    /// [`Self::recover`].
    fn recover_with(
        dir: &Path,
        config: StoreConfig,
        sync: bool,
        manifest: Manifest,
    ) -> io::Result<Self> {
        let store = ShardedTrajectoryStore::with_config(config);
        let files = manifest.file_lens.len();
        let mut report = RecoveryReport::default();
        let mut file_lens = Vec::with_capacity(files);
        let mut kept_meta: Vec<SegmentMeta> = Vec::new();
        let mut seg_files = Vec::with_capacity(files);

        for (i, &acked_len) in manifest.file_lens.iter().enumerate() {
            let path = dir.join(seg_file_name(i));
            let bytes = match File::open(&path) {
                Ok(mut f) => {
                    let mut v = Vec::new();
                    f.read_to_end(&mut v)?;
                    v
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            };
            // Bytes past the manifest-acknowledged length are a
            // crashed seal's unacknowledged tail; their fixes are
            // still in the acknowledged WAL generation as hot batches.
            let acked = (acked_len as usize).min(bytes.len());
            let expected: Vec<&SegmentMeta> =
                manifest.segments.iter().filter(|m| m.file as usize == i).collect();
            let mut at = 0usize;
            let mut good = 0usize;
            for meta in &expected {
                let frame_start = at;
                // lint:allow(panic-free-decode): acked is clamped to
                // bytes.len() where it is computed above.
                match crate::frame::read_frame(&bytes[..acked], &mut at) {
                    crate::frame::FrameRead::Ok(payload) => {
                        let ok = TrajectorySegment::try_from_bytes(payload)
                            .ok()
                            .filter(|seg| {
                                let (t0, t1) = seg.time_span();
                                seg.vessel() == meta.vessel
                                    && t0 == meta.t_min
                                    && t1 == meta.t_max
                                    && seg.len() as u64 == meta.fixes
                            })
                            .and_then(|seg| store.adopt_segment(seg).ok())
                            .is_some();
                        if !ok {
                            // An acknowledged record failing parse,
                            // fence cross-check or adoption is
                            // corruption: stop trusting this file
                            // here, keep the prefix.
                            at = frame_start;
                            break;
                        }
                        good += 1;
                        kept_meta.push(**meta);
                    }
                    _ => {
                        at = frame_start;
                        break;
                    }
                }
            }
            report.segments += good;
            report.dropped_segments += expected.len() - good;
            file_lens.push(at as u64);
            // Truncate to the validated prefix and re-open appending.
            let f = OpenOptions::new().write(true).create(true).truncate(false).open(&path)?;
            f.set_len(at as u64)?;
            let mut f = f;
            f.seek(io::SeekFrom::End(0))?;
            seg_files.push(f);
        }

        // WAL: replay the acknowledged generation, then apply the
        // event-time durability filter at the recovered watermark.
        let replay = wal::replay(dir, manifest.wal_gen)?;
        report.wal_torn = replay.torn;
        let watermark = replay.watermark.unwrap_or(Timestamp::MIN).max(manifest.watermark);
        report.watermark = watermark;
        let total = replay.fixes.len();
        let published: Vec<Fix> = replay.fixes.into_iter().filter(|f| f.t <= watermark).collect();
        report.discarded_unpublished = total - published.len();
        report.hot_fixes = published.len();
        store.append_batch(published);
        store.restore_sealed_to(manifest.sealed_to);

        // Truncate the torn tail (if any) and resume appending to the
        // same generation.
        let wal = match WalWriter::reopen(dir, manifest.wal_gen, replay.valid_len) {
            Ok(w) => w,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                WalWriter::create(dir, manifest.wal_gen)?
            }
            Err(e) => return Err(e),
        };
        // Reclaim WAL generations the manifest no longer names (a
        // crash between manifest commit and old-generation delete).
        remove_stray_wals(dir, manifest.wal_gen)?;

        // Commit the repair: the manifest now acknowledges exactly
        // what survived validation.
        let repaired = Manifest {
            wal_gen: manifest.wal_gen,
            sealed_to: manifest.sealed_to,
            watermark,
            file_lens: file_lens.clone(),
            segments: kept_meta.clone(),
        };
        repaired.write(dir)?;

        let inner = Inner {
            wal,
            wal_gen: manifest.wal_gen,
            seg_files,
            file_lens,
            segments: kept_meta,
            sealed_to: manifest.sealed_to,
            last_mark: watermark,
            manifest_bytes: repaired.encoded_len(),
        };
        Ok(Self { store, dir: dir.to_path_buf(), sync, inner: Mutex::new(inner), recovery: report })
    }

    /// The wrapped in-memory store (clone the handle freely — shards
    /// are `Arc`-shared).
    pub fn store(&self) -> &ShardedTrajectoryStore {
        &self.store
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the durable open reconstructed (all zeros for a fresh
    /// directory).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The largest durable published watermark.
    pub fn watermark(&self) -> Timestamp {
        self.inner.lock().last_mark
    }

    /// Log a batch of accepted fixes to the WAL — call *before*
    /// applying them to the store, so the log never trails memory.
    pub fn log_batch(&self, fixes: &[Fix]) -> io::Result<()> {
        if fixes.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        inner.wal.append_batch(fixes)?;
        if self.sync {
            inner.wal.sync()?;
        }
        Ok(())
    }

    /// Log and apply a batch in one call (the non-pipeline
    /// convenience; pipelines log and apply at different stages).
    pub fn append_batch(&self, fixes: Vec<Fix>) -> io::Result<usize> {
        self.log_batch(&fixes)?;
        Ok(self.store.append_batch(fixes))
    }

    /// Record that `wm` is now a published snapshot watermark — the
    /// durability boundary recovery replays to. Regressing or repeated
    /// marks are no-ops, so callers can mark every tick boundary
    /// unconditionally.
    pub fn mark(&self, wm: Timestamp) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if wm <= inner.last_mark {
            return Ok(());
        }
        inner.wal.append_mark(wm)?;
        if self.sync {
            inner.wal.sync()?;
        }
        inner.last_mark = wm;
        Ok(())
    }

    /// Seal the wrapped store at `watermark` *and* persist the result:
    /// append the created segments to their shards' files, rotate the
    /// WAL to a fresh generation holding the post-seal hot tier, and
    /// commit both with an atomic manifest replace. See the module
    /// docs for the crash-ordering argument; see the concurrency
    /// contract for the required append quiescence.
    pub fn seal_before(&self, watermark: Timestamp) -> io::Result<SealOutcome> {
        let (outcome, per_shard) = self.store.seal_before_collect(watermark);
        if outcome.segments == 0 {
            return Ok(outcome);
        }
        let mut inner = self.inner.lock();
        let inner = &mut *inner;

        // 1. Segment records, appended per shard file.
        let files = inner.seg_files.len();
        for (shard, segments) in per_shard.iter().enumerate() {
            if segments.is_empty() {
                continue;
            }
            let file = shard % files;
            let mut buf = Vec::new();
            for seg in segments {
                crate::frame::write_frame(&mut buf, &seg.to_bytes());
                let (t_min, t_max) = seg.time_span();
                inner.segments.push(SegmentMeta {
                    file: file as u32,
                    vessel: seg.vessel(),
                    t_min,
                    t_max,
                    fixes: seg.len() as u64,
                });
            }
            // lint:allow(panic-free-decode): file = shard % len is in
            // bounds by construction; this is the append path.
            inner.file_lens[file] += buf.len() as u64;
            // lint:allow(panic-free-decode): same modulo bound as above.
            let seg_file = &mut inner.seg_files[file];
            seg_file.write_all(&buf)?;
            if self.sync {
                seg_file.sync_data()?;
            }
        }

        // 2. Fresh WAL generation: snapshot of the post-seal hot tier
        //    plus the durability boundary. (The event-time filter at
        //    replay keeps the boundary exact even though the snapshot
        //    batch precedes the mark record.)
        let new_gen = inner.wal_gen + 1;
        let mut new_wal = WalWriter::create(&self.dir, new_gen)?;
        let hot: Vec<Fix> = self.store.fold_shards(Vec::new(), |mut acc, archive| {
            acc.extend(archive.iter());
            acc
        });
        new_wal.append_batch(&hot)?;
        if inner.last_mark > Timestamp::MIN {
            new_wal.append_mark(inner.last_mark)?;
        }
        if self.sync {
            new_wal.sync()?;
        }

        // 3. Commit: atomically point the manifest at the new state.
        inner.sealed_to = inner.sealed_to.max(outcome.cut);
        let manifest = Manifest {
            wal_gen: new_gen,
            sealed_to: inner.sealed_to,
            watermark: inner.last_mark,
            file_lens: inner.file_lens.clone(),
            segments: inner.segments.clone(),
        };
        manifest.write(&self.dir)?;
        inner.manifest_bytes = manifest.encoded_len();

        // 4. The old generation is now unreferenced; reclaim it.
        let old_path = inner.wal.path().to_path_buf();
        inner.wal = new_wal;
        inner.wal_gen = new_gen;
        let _ = std::fs::remove_file(old_path);
        Ok(outcome)
    }

    /// Per-tier accounting with [`TierStats::disk_bytes`] filled in:
    /// real on-disk bytes (segment files + WAL + manifest).
    pub fn tier_stats(&self) -> TierStats {
        let mut stats = self.store.tier_stats();
        stats.disk_bytes = self.disk_bytes() as usize;
        stats
    }

    /// Real bytes on disk: validated segment-file lengths + the live
    /// WAL generation + the manifest.
    pub fn disk_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.file_lens.iter().sum::<u64>() + inner.wal.bytes() + inner.manifest_bytes
    }
}

/// Delete every `wal-<gen>.log` in `dir` other than `keep` — leftovers
/// of generations the manifest no longer (or never came to) name.
fn remove_stray_wals(dir: &Path, keep: u64) -> io::Result<()> {
    let keep_name = wal::file_name(keep);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("wal-") && name.ends_with(".log") && name != keep_name {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::Position;

    fn fix(id: u32, t: i64) -> Fix {
        Fix::new(
            id,
            Timestamp::from_secs(t),
            Position::new(43.0, 5.0 + t as f64 * 1e-4),
            10.0,
            90.0,
        )
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mda-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn drain(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fresh_open_then_recover_round_trips() {
        let dir = tmp_dir("fresh");
        let cfg = DurabilityConfig::new(&dir);
        let ds = DurableStore::open(StoreConfig::default(), &cfg).unwrap();
        ds.append_batch((0..100).map(|i| fix(1 + i % 3, i as i64)).collect()).unwrap();
        ds.mark(Timestamp::from_secs(99)).unwrap();
        let expect = ds.store().trajectory(1).unwrap();
        drop(ds); // simulated crash: no graceful shutdown path exists

        let back = DurableStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(back.watermark(), Timestamp::from_secs(99));
        assert_eq!(back.recovery().hot_fixes, 100);
        assert_eq!(back.store().trajectory(1).unwrap(), expect);
        drain(&dir);
    }

    #[test]
    fn unmarked_tail_is_discarded_on_recovery() {
        let dir = tmp_dir("tail");
        let ds = DurableStore::open(StoreConfig::default(), &DurabilityConfig::new(&dir)).unwrap();
        ds.append_batch((0..50).map(|i| fix(1, i as i64)).collect()).unwrap();
        ds.mark(Timestamp::from_secs(49)).unwrap();
        // Logged but never covered by a mark: event times past 49s.
        ds.append_batch((50..60).map(|i| fix(1, i as i64)).collect()).unwrap();
        drop(ds);

        let back = DurableStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(back.watermark(), Timestamp::from_secs(49));
        assert_eq!(back.store().len(), 50, "unpublished suffix must not resurrect");
        assert_eq!(back.recovery().discarded_unpublished, 10);
        drain(&dir);
    }

    #[test]
    fn seal_persists_segments_and_rotates_wal() {
        let dir = tmp_dir("seal");
        let ds = DurableStore::open(StoreConfig::default(), &DurabilityConfig::new(&dir)).unwrap();
        ds.append_batch((0..7_200).map(|i| fix(1 + i % 5, i as i64)).collect()).unwrap();
        ds.mark(Timestamp::from_secs(7_199)).unwrap();
        let outcome = ds.seal_before(Timestamp::from_secs(3_600)).unwrap();
        assert!(outcome.segments > 0);
        let stats = ds.tier_stats();
        assert!(stats.cold_segments > 0 && stats.disk_bytes > 0);
        let expect: Vec<Vec<Fix>> = (1..=5).map(|v| ds.store().trajectory(v).unwrap()).collect();
        drop(ds);

        let back = DurableStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(back.recovery().segments, outcome.segments);
        assert_eq!(back.watermark(), Timestamp::from_secs(7_199));
        let cold = back.store().tier_stats();
        assert_eq!(cold.cold_segments, outcome.segments);
        for (v, want) in (1..=5).zip(&expect) {
            assert_eq!(&back.store().trajectory(v).unwrap(), want, "vessel {v}");
        }
        drain(&dir);
    }

    #[test]
    fn recovery_tolerates_torn_tails_everywhere() {
        let dir = tmp_dir("torn");
        let ds = DurableStore::open(StoreConfig::default(), &DurabilityConfig::new(&dir)).unwrap();
        ds.append_batch((0..7_200).map(|i| fix(1 + i % 5, i as i64)).collect()).unwrap();
        ds.mark(Timestamp::from_secs(7_199)).unwrap();
        ds.seal_before(Timestamp::from_secs(3_600)).unwrap();
        ds.append_batch((7_200..7_300).map(|i| fix(1, i as i64)).collect()).unwrap();
        ds.mark(Timestamp::from_secs(7_299)).unwrap();
        drop(ds);

        // Tear the WAL tail: chop bytes off the live generation.
        let manifest = Manifest::read(&dir).unwrap().unwrap();
        let wal_path = dir.join(wal::file_name(manifest.wal_gen));
        let wal_bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &wal_bytes[..wal_bytes.len() - 3]).unwrap();
        let back = DurableStore::recover(&dir, StoreConfig::default()).unwrap();
        assert!(back.recovery().wal_torn);
        // The torn record was the last mark or batch; everything up to
        // the previous durable mark survives.
        assert!(back.watermark() >= Timestamp::from_secs(7_199));
        drop(back);

        // Tear a segment file tail: recovery drops the torn segment,
        // truncates, and keeps serving the rest.
        let manifest = Manifest::read(&dir).unwrap().unwrap();
        let victim = (0..manifest.file_lens.len())
            .rfind(|&i| manifest.file_lens[i] > 0)
            .expect("some shard sealed");
        let path = dir.join(seg_file_name(victim));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let dropped_expect: usize = 1; // only the file's last record is torn
        let before: usize = manifest.segments.len();
        let back = DurableStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(back.recovery().dropped_segments, dropped_expect);
        assert_eq!(back.recovery().segments, before - dropped_expect);
        drain(&dir);
    }

    #[test]
    fn recovery_requires_a_manifest() {
        let dir = tmp_dir("nomanifest");
        std::fs::create_dir_all(&dir).unwrap();
        let err = DurableStore::recover(&dir, StoreConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        drain(&dir);
    }

    #[test]
    fn shard_count_change_across_restart_reroutes_segments() {
        let dir = tmp_dir("reshard");
        let ds = DurableStore::open(
            StoreConfig { shards: 8, ..StoreConfig::default() },
            &DurabilityConfig::new(&dir),
        )
        .unwrap();
        ds.append_batch((0..7_200).map(|i| fix(1 + i % 7, i as i64)).collect()).unwrap();
        ds.mark(Timestamp::from_secs(7_199)).unwrap();
        ds.seal_before(Timestamp::from_secs(3_600)).unwrap();
        let expect = ds.store().trajectory(3).unwrap();
        drop(ds);

        let back = DurableStore::recover(&dir, StoreConfig { shards: 3, ..StoreConfig::default() })
            .unwrap();
        assert_eq!(back.store().trajectory(3).unwrap(), expect);
        assert_eq!(back.recovery().dropped_segments, 0);
        drain(&dir);
    }
}
