//! Incremental, content-addressed cell-result cache.
//!
//! Re-running a sweep after an edit that only touches part of the grid
//! (a new seed, an appended utilization, a renamed knob) should not
//! recompute the cells whose inputs did not change. The cache keys each
//! completed cell by its [`cell_fingerprint`](crate::cell_fingerprint) —
//! a canonical digest of exactly the inputs that reach the simulation —
//! and persists `(digest, schedulable, both stack results)` records in a
//! cache directory that any later run, sharded or not, can hit.
//!
//! ## Storage
//!
//! The directory holds append-only segment files (`seg-<pid>.mpdpc`),
//! one per writing process, created on the process's first insert (a run
//! that only hits leaves the directory as it found it), each a
//! [`LineJournal`] with the standard
//! fsync + per-record-checksum + torn-tail-recovery discipline. The
//! header fingerprint is the FNV-1a of [`ENGINE_VERSION`], implementing
//! the `(cell fingerprint, engine version)` key: bumping the engine
//! version orphans every old segment instead of replaying stale results.
//! A process appends only to its own segment and reads every other
//! segment tolerantly (wrong-version headers skip the file; a torn or
//! corrupt record stops the scan of that file), so concurrent sharded
//! workers share one directory without locking.
//!
//! ## Eviction
//!
//! The cache is capped by total on-disk bytes. At open, oldest segments
//! (by mtime, ties by name) are deleted until the directory fits the
//! cap — whole-segment granularity keeps eviction a single `unlink` and
//! never tears a surviving file.
//!
//! ## What a hit means
//!
//! A hit returns a [`CellResult`] reconstructed from the *live* spec's
//! cell coordinates and knob label, so exports are byte-identical to a
//! cold run by construction: the cached payload is exactly the data a
//! checkpoint-journal record round-trips, and everything cosmetic comes
//! from the current spec.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::engine::{CellResult, StackResult};
use crate::error::SweepError;
use crate::fingerprint::{cell_fingerprint, ENGINE_VERSION};
use crate::journal::{format_stack, parse_stack};
use crate::linejournal::{fnv1a, LineJournal};
use crate::spec::{CellSpec, SweepSpec};

/// Magic + version tag of cache segment headers.
pub(crate) const CACHE_MAGIC: &str = "MPDPC1";

/// Default on-disk size cap: plenty for tens of millions of cells while
/// staying polite on a developer machine.
pub const DEFAULT_CACHE_CAP_BYTES: u64 = 256 * 1024 * 1024;

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to execution.
    pub misses: u64,
    /// Records dropped by segment eviction at open.
    pub evictions: u64,
    /// Bytes of segment data loaded at open plus appended since.
    pub bytes: u64,
}

/// The cached payload of one cell: everything a
/// [`CellResult`] holds except the coordinates and label, which are
/// reattached from the live spec on a hit.
#[derive(Debug, Clone, PartialEq)]
struct CachedCell {
    schedulable: bool,
    theoretical: StackResult,
    real: StackResult,
}

/// An open cell-result cache directory. Cheap to share behind an `Arc`;
/// lookups and inserts are thread-safe.
pub struct CellCache {
    entries: Mutex<HashMap<u64, CachedCell>>,
    /// This process's segment file.
    own: PathBuf,
    /// The open segment: set at open when a file already exists under
    /// this pid, else on the first insert. `None` once creating it
    /// failed; appends are advisory, so inserts then stay in memory.
    segment: OnceLock<Option<LineJournal>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

impl fmt::Debug for CellCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellCache")
            .field("segment", &self.own)
            .field("stats", &self.stats())
            .finish()
    }
}

fn cache_err(path: &Path, detail: String) -> SweepError {
    SweepError::Journal {
        path: path.display().to_string(),
        detail,
    }
}

/// The engine-version fingerprint every readable segment must carry.
fn engine_fingerprint() -> u64 {
    fnv1a(ENGINE_VERSION.as_bytes())
}

/// The record body for one cached cell (the segment adds the checksum).
fn format_cache_body(digest: u64, entry: &CachedCell) -> String {
    format!(
        "cell {digest:016x} {} {} {}",
        u8::from(entry.schedulable),
        format_stack(&entry.theoretical),
        format_stack(&entry.real)
    )
}

/// Parses one checksum-verified record body. `None` stops the scan of
/// that segment, exactly like a torn tail.
fn parse_cache_body(body: &str) -> Option<(u64, CachedCell)> {
    let mut tokens = body.split(' ');
    if tokens.next()? != "cell" {
        return None;
    }
    let digest = u64::from_str_radix(tokens.next()?, 16).ok()?;
    let schedulable = match tokens.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let theoretical = parse_stack(tokens.next()?)?;
    let real = parse_stack(tokens.next()?)?;
    if tokens.next().is_some() {
        return None;
    }
    Some((
        digest,
        CachedCell {
            schedulable,
            theoretical,
            real,
        },
    ))
}

/// One segment file found in the cache directory.
struct Segment {
    path: PathBuf,
    len: u64,
    mtime: std::time::SystemTime,
}

fn list_segments(dir: &Path) -> Result<Vec<Segment>, SweepError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| cache_err(dir, format!("cannot list cache: {e}")))?;
    let mut segments = Vec::new();
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "mpdpc") {
            continue;
        }
        let Ok(meta) = entry.metadata() else { continue };
        segments.push(Segment {
            len: meta.len(),
            mtime: meta.modified().unwrap_or(std::time::UNIX_EPOCH),
            path,
        });
    }
    // Oldest first; mtime ties (coarse filesystems) break by name so
    // eviction order is still deterministic.
    segments.sort_by(|a, b| (a.mtime, &a.path).cmp(&(b.mtime, &b.path)));
    Ok(segments)
}

/// Counts the records in a segment file about to be evicted (complete
/// lines past the header) — advisory accounting, so a best-effort read.
fn count_records(path: &Path) -> u64 {
    std::fs::read_to_string(path).map_or(0, |text| {
        (text
            .split_inclusive('\n')
            .filter(|l| l.ends_with('\n'))
            .count() as u64)
            .saturating_sub(1)
    })
}

impl CellCache {
    /// Opens (or creates) the cache directory with the default size cap.
    ///
    /// # Errors
    ///
    /// [`SweepError::Journal`] when the directory cannot be created or an
    /// existing segment of this process's cannot be recovered.
    pub fn open(dir: &Path) -> Result<Self, SweepError> {
        Self::open_capped(dir, DEFAULT_CACHE_CAP_BYTES)
    }

    /// Opens (or creates) the cache directory, evicting oldest segments
    /// until the directory fits `cap_bytes`, then loading every readable
    /// entry. Foreign segments are read tolerantly: a wrong-version
    /// header skips the file, a torn or corrupt record stops that file's
    /// scan — corruption can cost hits, never correctness.
    ///
    /// # Errors
    ///
    /// [`SweepError::Journal`] when the directory cannot be created or an
    /// existing segment of this process's cannot be recovered; never for
    /// unreadable foreign segments.
    pub fn open_capped(dir: &Path, cap_bytes: u64) -> Result<Self, SweepError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| cache_err(dir, format!("cannot create cache dir: {e}")))?;
        let own = dir.join(format!("seg-{}.mpdpc", std::process::id()));
        let mut segments = list_segments(dir)?;

        // Capped-size eviction, oldest segment first. The own segment is
        // evictable like any other: a stale file under our pid is just an
        // old segment that happens to collide.
        let mut total: u64 = segments.iter().map(|s| s.len).sum();
        let mut evicted_records = 0u64;
        while total > cap_bytes && !segments.is_empty() {
            let victim = segments.remove(0);
            evicted_records += count_records(&victim.path);
            let _ = std::fs::remove_file(&victim.path);
            total -= victim.len;
        }

        let fingerprint = engine_fingerprint();
        let expected_header = format!("{CACHE_MAGIC} fp={fingerprint:016x}\n");
        let mut entries = HashMap::new();
        let mut loaded_bytes = 0u64;
        for segment in segments.iter().filter(|s| s.path != own) {
            let Ok(text) = std::fs::read_to_string(&segment.path) else {
                continue;
            };
            let mut lines = text.split_inclusive('\n');
            match lines.next() {
                Some(head) if head == expected_header => {}
                _ => continue, // different engine version or torn header
            }
            loaded_bytes += expected_header.len() as u64;
            for line in lines {
                if !line.ends_with('\n') {
                    break; // torn tail
                }
                let Some((digest, entry)) = verify_and_parse(line.trim_end()) else {
                    break; // corrupt record: stop, as recovery would
                };
                entries.insert(digest, entry);
                loaded_bytes += line.len() as u64;
            }
        }

        // A segment already under our pid goes through the full
        // LineJournal recovery so this process can append to it; its
        // surviving records load too. Otherwise the segment waits for the
        // first insert.
        let segment = OnceLock::new();
        if segments.iter().any(|s| s.path == own) {
            let journal = LineJournal::open(&own, CACHE_MAGIC, fingerprint)
                .map_err(|e| cache_err(&own, e.detail))?;
            for body in journal.recovered() {
                if let Some((digest, entry)) = parse_cache_body(body) {
                    entries.insert(digest, entry);
                }
                loaded_bytes += body.len() as u64 + 19; // " #<16-hex>\n"
            }
            let _ = segment.set(Some(journal));
        }

        Ok(CellCache {
            entries: Mutex::new(entries),
            own,
            segment,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(evicted_records),
            bytes: AtomicU64::new(loaded_bytes),
        })
    }

    /// Looks up a cell; a hit reconstructs the full [`CellResult`] from
    /// the cached payload plus the live spec's coordinates and label.
    /// Every call counts as exactly one hit or one miss.
    pub fn lookup(&self, spec: &SweepSpec, cell: &CellSpec) -> Option<CellResult> {
        let digest = cell_fingerprint(spec, cell);
        let cached = {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            entries.get(&digest).cloned()
        };
        match cached {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(CellResult {
                    cell: *cell,
                    knob_label: spec.knobs[cell.knob_index].label.clone(),
                    schedulable: entry.schedulable,
                    theoretical: entry.theoretical,
                    real: entry.real,
                })
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly computed cell. The in-memory map always takes
    /// the entry; the durable append is advisory (a full disk costs
    /// future hits, not this sweep).
    pub fn insert(&self, spec: &SweepSpec, cell: &CellSpec, result: &CellResult) {
        let digest = cell_fingerprint(spec, cell);
        let entry = CachedCell {
            schedulable: result.schedulable,
            theoretical: result.theoretical.clone(),
            real: result.real.clone(),
        };
        let body = format_cache_body(digest, &entry);
        let segment = self
            .segment
            .get_or_init(|| LineJournal::open(&self.own, CACHE_MAGIC, engine_fingerprint()).ok());
        if segment.as_ref().is_some_and(|s| s.append(&body).is_ok()) {
            self.bytes
                .fetch_add(body.len() as u64 + 19, Ordering::Relaxed);
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.insert(digest, entry);
    }

    /// Entries currently resident in memory.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// Verifies a record line's checksum and parses its body.
fn verify_and_parse(line: &str) -> Option<(u64, CachedCell)> {
    let (body, crc) = line.rsplit_once(" #")?;
    if crc.len() != 16 {
        return None;
    }
    let crc = u64::from_str_radix(crc, 16).ok()?;
    if crc != fnv1a(body.as_bytes()) {
        return None;
    }
    parse_cache_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_cell;
    use crate::spec::{ArrivalSpec, Knobs, WorkloadSpec};
    use mpdp_core::time::Cycles;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            utilizations: vec![0.4],
            proc_counts: vec![2],
            seeds: vec![0, 1],
            knobs: vec![Knobs::default()],
            workload: WorkloadSpec::Automotive,
            arrivals: ArrivalSpec::Bursts {
                activations: 1,
                gap: Cycles::from_secs(12),
            },
            master_seed: 42,
        }
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mpdp-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_hits_across_reopens_and_counts_stats() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let dir = tempdir("roundtrip");
        let cache = CellCache::open(&dir).expect("opens");
        assert!(cache.is_empty());
        assert!(cache.lookup(&spec, &cells[0]).is_none());
        let result = run_cell(&spec, &cells[0]).expect("cell runs");
        cache.insert(&spec, &cells[0], &result);
        assert_eq!(cache.lookup(&spec, &cells[0]).as_ref(), Some(&result));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.bytes > 0);
        drop(cache);

        // Same process reopens its own segment; the entry survives.
        let cache = CellCache::open(&dir).expect("reopens");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&spec, &cells[0]).as_ref(), Some(&result));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_warm_all_hit_run_adds_no_file_to_the_cache_directory() {
        let spec = tiny_spec();
        let dir = tempdir("lazy-segment");
        let cold = CellCache::open(&dir).expect("opens");
        let listing = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .expect("lists")
                .map(|e| e.expect("entry").file_name())
                .collect();
            names.sort();
            names
        };
        assert!(listing().is_empty(), "opening creates no segment");
        crate::engine::run_sweep_with_cache(&spec, 1, Some(&cold)).expect("cold run");
        drop(cold);
        // Hand the cold segment to another writer, as a fleet's cold
        // worker would leave it, so this process has none of its own.
        let own = dir.join(format!("seg-{}.mpdpc", std::process::id()));
        std::fs::rename(&own, dir.join("seg-1.mpdpc")).expect("rename");
        let before = listing();

        let warm = CellCache::open(&dir).expect("reopens");
        crate::engine::run_sweep_with_cache(&spec, 1, Some(&warm)).expect("warm run");
        assert_eq!(warm.stats().hits, spec.cell_count() as u64);
        assert_eq!(warm.stats().misses, 0);
        assert_eq!(listing(), before, "an all-hit run leaves no segment behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hits_survive_knob_renames_but_not_semantic_edits() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let dir = tempdir("keying");
        let cache = CellCache::open(&dir).expect("opens");
        let result = run_cell(&spec, &cells[0]).expect("cell runs");
        cache.insert(&spec, &cells[0], &result);

        let mut renamed = tiny_spec();
        renamed.knobs[0].label = "renamed".to_string();
        let hit = cache
            .lookup(&renamed, &renamed.cells()[0])
            .expect("label is not part of the key");
        assert_eq!(hit.knob_label, "renamed", "label comes from the live spec");
        assert_eq!(hit.theoretical, result.theoretical);

        let mut edited = tiny_spec();
        edited.knobs[0].wcet_margin = 1.3;
        assert!(
            cache.lookup(&edited, &edited.cells()[0]).is_none(),
            "semantic knob edits must miss"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_segments_are_shared_and_corrupt_records_are_skipped() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let dir = tempdir("foreign");
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A "foreign" segment left by another worker process.
        let foreign = dir.join("seg-99999999.mpdpc");
        let journal =
            LineJournal::open(&foreign, CACHE_MAGIC, engine_fingerprint()).expect("creates");
        let r0 = run_cell(&spec, &cells[0]).expect("cell 0");
        let r1 = run_cell(&spec, &cells[1]).expect("cell 1");
        for (cell, result) in [(&cells[0], &r0), (&cells[1], &r1)] {
            let entry = CachedCell {
                schedulable: result.schedulable,
                theoretical: result.theoretical.clone(),
                real: result.real.clone(),
            };
            journal
                .append(&format_cache_body(cell_fingerprint(&spec, cell), &entry))
                .expect("appends");
        }
        drop(journal);

        let cache = CellCache::open(&dir).expect("opens");
        assert_eq!(cache.len(), 2, "foreign entries load");
        assert_eq!(cache.lookup(&spec, &cells[1]).as_ref(), Some(&r1));

        // Corrupt the first record's body: the scan of that segment stops
        // there — the second record is lost with it (torn-tail
        // semantics), but opening still succeeds and lookups miss cleanly.
        let mut text = std::fs::read_to_string(&foreign).expect("read");
        let start = text.find('\n').expect("header") + 8;
        let original = text.as_bytes()[start];
        let replacement = if original == b'7' { b'8' } else { b'7' };
        text.replace_range(
            start..start + 1,
            std::str::from_utf8(&[replacement]).unwrap(),
        );
        std::fs::write(&foreign, &text).expect("write");
        let cache = CellCache::open(&dir).expect("opens despite corruption");
        assert!(cache.lookup(&spec, &cells[0]).is_none());
        assert_eq!(cache.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_engine_version_segments_are_skipped_entirely() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let dir = tempdir("version");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let stale = dir.join("seg-11111111.mpdpc");
        let journal =
            LineJournal::open(&stale, CACHE_MAGIC, fnv1a(b"mpdp-cell-engine/0")).expect("creates");
        let result = run_cell(&spec, &cells[0]).expect("cell runs");
        let entry = CachedCell {
            schedulable: result.schedulable,
            theoretical: result.theoretical.clone(),
            real: result.real.clone(),
        };
        journal
            .append(&format_cache_body(
                cell_fingerprint(&spec, &cells[0]),
                &entry,
            ))
            .expect("appends");
        drop(journal);
        let cache = CellCache::open(&dir).expect("opens");
        assert!(
            cache.lookup(&spec, &cells[0]).is_none(),
            "old-engine entries must not replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_drops_oldest_segments_to_fit_the_cap() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let dir = tempdir("evict");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let result = run_cell(&spec, &cells[0]).expect("cell runs");
        let entry = CachedCell {
            schedulable: result.schedulable,
            theoretical: result.theoretical.clone(),
            real: result.real.clone(),
        };
        let old = dir.join("seg-1.mpdpc");
        let journal = LineJournal::open(&old, CACHE_MAGIC, engine_fingerprint()).expect("creates");
        journal
            .append(&format_cache_body(
                cell_fingerprint(&spec, &cells[0]),
                &entry,
            ))
            .expect("appends");
        drop(journal);

        // A 1-byte cap cannot fit the old segment: it is evicted whole.
        let cache = CellCache::open_capped(&dir, 1).expect("opens");
        assert!(!old.exists(), "oldest segment evicted");
        assert_eq!(cache.stats().evictions, 1, "its one record counted");
        assert!(cache.lookup(&spec, &cells[0]).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
