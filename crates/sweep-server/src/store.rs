//! The content-addressed run store (DESIGN.md §2.7).
//!
//! On disk a store is a directory of append-only JSONL *segments*
//! (`segment-NNNNNN.jsonl`). Each line is one committed cell:
//!
//! ```text
//! {"v":1,"key":"<32 hex>","descriptor":"<spec descriptor>",
//!  "record":<RunRecord JSON>,"commit":"<16 hex>"}
//! ```
//!
//! `key` is [`ScenarioSpec::cache_key`] over `descriptor`; `commit` is
//! an FNV-1a-64 checksum over `key\n descriptor\n record-json`, computed
//! before the line is written. A reader accepts a line only if it parses
//! *and* the checksum matches *and* the record body survives
//! [`codec::decode_verified`] — so a torn tail (power cut mid-`write`),
//! a truncated copy, or a hand-edited record all degrade to "skipped
//! with a warning", never to a wrong record or a panic. Writers never
//! append to a pre-existing segment: every store handle opens a fresh
//! segment on its first write, so a torn tail from a crashed process is
//! quarantined in its own file and cannot corrupt later appends. Each
//! line is committed with a single `write_all` of the fully-built line.
//!
//! In memory the store is a key → slot index. A slot is either `Ready`
//! (the decoded record plus its exact serialized bytes) or `InFlight`
//! (some thread is simulating that cell right now). [`RunStore`]
//! implements [`RunCache`] by *claiming* the key before computing:
//! concurrent requests for the same cell — within a job or across jobs
//! — block on the claim and then all receive the one stored record,
//! so a cell is simulated at most once per store lifetime.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use scenario::{CacheKey, CachedRun, RunCache, RunRecord, ScenarioSpec};
use serde::write_json_str;
use serde_json::Value;

use crate::codec;

/// On-disk line format version.
const STORE_VERSION: u64 = 1;

/// FNV-1a 64-bit, the per-line commit checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        acc ^= b as u64;
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

/// One committed cell: the decoded record plus the exact bytes that
/// were (or will be) persisted — what a cache hit hands back.
#[derive(Debug)]
pub struct StoredRun {
    pub key: CacheKey,
    pub descriptor: String,
    /// The record's serialized form, byte-identical to what the original
    /// simulation emitted.
    pub raw: String,
    pub record: RunRecord,
}

enum Slot {
    Ready(Arc<StoredRun>),
    InFlight,
}

/// What `open` found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Committed cells indexed.
    pub loaded: usize,
    /// Lines skipped as torn/corrupt/undecodable (warned, not fatal).
    pub skipped: usize,
    /// Segment files scanned.
    pub segments: usize,
}

/// The content-addressed run store. Cheap to share: wrap in `Arc` and
/// hand clones to every job.
pub struct RunStore {
    dir: PathBuf,
    index: Mutex<HashMap<u128, Slot>>,
    claim_released: Condvar,
    /// Lazily-created fresh segment for this handle's appends.
    writer: Mutex<Option<File>>,
    load: LoadReport,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl RunStore {
    /// Open (creating if needed) the store at `dir`, scanning every
    /// existing segment into the in-memory index. Corrupt lines are
    /// counted and warned about on stderr, never fatal.
    pub fn open(dir: &Path) -> std::io::Result<RunStore> {
        std::fs::create_dir_all(dir)?;
        let mut index = HashMap::new();
        let mut load = LoadReport::default();
        for path in Self::segment_paths(dir)? {
            load.segments += 1;
            let text = std::fs::read_to_string(&path)?;
            for (lineno, line) in text.lines().enumerate() {
                if line.is_empty() {
                    continue;
                }
                match Self::parse_line(line) {
                    Ok(stored) => {
                        // Determinism makes duplicate keys across
                        // segments identical; first wins.
                        index
                            .entry(stored.key.0)
                            .or_insert_with(|| Slot::Ready(Arc::new(stored)));
                        load.loaded += 1;
                    }
                    Err(why) => {
                        load.skipped += 1;
                        eprintln!(
                            "sweep-server: skipping corrupt store line {}:{}: {why}",
                            path.display(),
                            lineno + 1
                        );
                    }
                }
            }
        }
        Ok(RunStore {
            dir: dir.to_path_buf(),
            index: Mutex::new(index),
            claim_released: Condvar::new(),
            writer: Mutex::new(None),
            load,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        })
    }

    fn segment_paths(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("segment-") && n.ends_with(".jsonl"))
            })
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Parse + fully verify one segment line.
    fn parse_line(line: &str) -> Result<StoredRun, String> {
        let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let version = v
            .get("v")
            .and_then(Value::as_u64)
            .ok_or("missing version")?;
        if version != STORE_VERSION {
            return Err(format!("unsupported store version {version}"));
        }
        let key_hex = v.get("key").and_then(Value::as_str).ok_or("missing key")?;
        let key = CacheKey::from_hex(key_hex).ok_or("malformed key")?;
        let descriptor = v
            .get("descriptor")
            .and_then(Value::as_str)
            .ok_or("missing descriptor")?
            .to_owned();
        if CacheKey::of_descriptor(&descriptor) != key {
            return Err("key does not match descriptor".into());
        }
        let commit = v
            .get("commit")
            .and_then(Value::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("missing commit marker")?;
        // Re-serialize the record member to recover the exact raw bytes;
        // `decode_verified` below proves this is the canonical form.
        let raw = v.get("record").ok_or("missing record")?.to_json();
        if commit != Self::commit_checksum(key, &descriptor, &raw) {
            return Err("commit checksum mismatch (torn or tampered line)".into());
        }
        let record = codec::decode_verified(&raw)?;
        Ok(StoredRun {
            key,
            descriptor,
            raw,
            record,
        })
    }

    fn commit_checksum(key: CacheKey, descriptor: &str, raw: &str) -> u64 {
        let mut buf = key.hex();
        buf.push('\n');
        buf.push_str(descriptor);
        buf.push('\n');
        buf.push_str(raw);
        fnv1a64(buf.as_bytes())
    }

    /// Build the full segment line (with trailing newline) for a cell.
    fn format_line(key: CacheKey, descriptor: &str, raw: &str) -> String {
        let commit = Self::commit_checksum(key, descriptor, raw);
        let mut line = format!(
            "{{\"v\":{STORE_VERSION},\"key\":\"{}\",\"descriptor\":",
            key.hex()
        );
        write_json_str(descriptor, &mut line);
        line.push_str(",\"record\":");
        line.push_str(raw);
        line.push_str(&format!(",\"commit\":\"{commit:016x}\"}}\n"));
        line
    }

    /// Append a committed cell to this handle's segment (created fresh
    /// on first use so appends never follow another process's torn
    /// tail). Single `write_all` per line. Best-effort: I/O failure
    /// warns and leaves the cell memory-only.
    fn persist(&self, key: CacheKey, descriptor: &str, raw: &str) {
        let line = Self::format_line(key, descriptor, raw);
        let mut writer = self.writer.lock().expect("store writer poisoned");
        if writer.is_none() {
            match self.create_segment() {
                Ok(file) => *writer = Some(file),
                Err(err) => {
                    eprintln!("sweep-server: cannot create store segment: {err}");
                    return;
                }
            }
        }
        if let Some(file) = writer.as_mut() {
            if let Err(err) = file.write_all(line.as_bytes()) {
                eprintln!("sweep-server: store append failed: {err}");
            }
        }
    }

    fn create_segment(&self) -> std::io::Result<File> {
        let taken = Self::segment_paths(&self.dir)?;
        let mut next = taken.len() as u64;
        loop {
            let path = self.dir.join(format!("segment-{next:06}.jsonl"));
            match OpenOptions::new().create_new(true).append(true).open(&path) {
                Ok(file) => return Ok(file),
                Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => next += 1,
                Err(err) => return Err(err),
            }
        }
    }

    /// Committed cell for `key`, if present (does not wait on claims).
    pub fn get(&self, key: CacheKey) -> Option<Arc<StoredRun>> {
        match self.index.lock().expect("store index poisoned").get(&key.0) {
            Some(Slot::Ready(stored)) => Some(Arc::clone(stored)),
            _ => None,
        }
    }

    /// Number of committed cells in the index.
    pub fn len(&self) -> usize {
        self.index
            .lock()
            .expect("store index poisoned")
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What `open` found on disk (loaded/skipped/segments).
    pub fn load_report(&self) -> LoadReport {
        self.load
    }

    /// Lifetime hit/miss counters across every `get_or_run` on this
    /// handle (all jobs), for the server's `stats` endpoint.
    pub fn counters(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Claim `key` or return the ready/awaited cell. `None` means the
    /// caller now owns the claim and must fulfil or release it.
    fn claim(&self, key: CacheKey) -> Option<Arc<StoredRun>> {
        let mut index = self.index.lock().expect("store index poisoned");
        loop {
            match index.get(&key.0) {
                Some(Slot::Ready(stored)) => return Some(Arc::clone(stored)),
                Some(Slot::InFlight) => {
                    index = self
                        .claim_released
                        .wait(index)
                        .expect("store index poisoned");
                }
                None => {
                    index.insert(key.0, Slot::InFlight);
                    return None;
                }
            }
        }
    }

    fn fulfil(&self, key: CacheKey, stored: Arc<StoredRun>) {
        let mut index = self.index.lock().expect("store index poisoned");
        index.insert(key.0, Slot::Ready(stored));
        drop(index);
        self.claim_released.notify_all();
    }

    fn release(&self, key: CacheKey) {
        let mut index = self.index.lock().expect("store index poisoned");
        if matches!(index.get(&key.0), Some(Slot::InFlight)) {
            index.remove(&key.0);
        }
        drop(index);
        self.claim_released.notify_all();
    }
}

/// Releases an unfulfilled claim if the compute panics, so waiters wake
/// up and one of them re-claims instead of deadlocking forever.
struct ClaimGuard<'a> {
    store: &'a RunStore,
    key: CacheKey,
    fulfilled: bool,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.store.release(self.key);
        }
    }
}

impl RunCache for RunStore {
    fn get_or_run(
        &self,
        spec: &ScenarioSpec,
        compute: &(dyn Fn() -> RunRecord + Sync),
    ) -> CachedRun {
        let descriptor = spec.descriptor();
        let key = CacheKey::of_descriptor(&descriptor);
        if let Some(stored) = self.claim(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return CachedRun {
                record: stored.record.clone(),
                hit: true,
            };
        }
        let mut guard = ClaimGuard {
            store: self,
            key,
            fulfilled: false,
        };
        let record = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let raw = codec::encode_record(&record);
        // Only records that provably round-trip are persisted; a codec
        // gap degrades to "this cell re-simulates next time", warned.
        match codec::decode_verified(&raw) {
            Ok(_) => self.persist(key, &descriptor, &raw),
            Err(why) => eprintln!("sweep-server: not persisting `{}`: {why}", spec.label()),
        }
        self.fulfil(
            key,
            Arc::new(StoredRun {
                key,
                descriptor,
                raw,
                record: record.clone(),
            }),
        );
        guard.fulfilled = true;
        CachedRun { record, hit: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::{ClusterStrategy, Executor, ProtocolSpec};
    use workloads::WorkloadSpec;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sweep-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(rounds: usize) -> ScenarioSpec {
        ScenarioSpec::new(
            WorkloadSpec::NetPipe { rounds, bytes: 128 },
            ProtocolSpec::hydee(),
            ClusterStrategy::PerRank,
        )
    }

    #[test]
    fn miss_then_hit_round_trips_bytes_across_reopen() {
        let dir = tmpdir("reopen");
        let spec = spec(2);
        let first_raw;
        {
            let store = RunStore::open(&dir).unwrap();
            let first = store.get_or_run(&spec, &|| Executor::run_one(&spec));
            assert!(!first.hit);
            first_raw = codec::encode_record(&first.record);
            let again = store.get_or_run(&spec, &|| panic!("must not recompute"));
            assert!(again.hit);
            assert_eq!(codec::encode_record(&again.record), first_raw);
        }
        // A fresh handle reads the persisted cell back bit-identically.
        let store = RunStore::open(&dir).unwrap();
        assert_eq!(store.load_report().loaded, 1);
        assert_eq!(store.load_report().skipped, 0);
        let hit = store.get_or_run(&spec, &|| panic!("must not recompute"));
        assert!(hit.hit);
        assert_eq!(codec::encode_record(&hit.record), first_raw);
        let stored = store.get(spec.cache_key()).unwrap();
        assert_eq!(stored.raw, first_raw);
        assert_eq!(stored.descriptor, spec.descriptor());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_skipped_with_warning_not_panic() {
        let dir = tmpdir("torn");
        {
            let store = RunStore::open(&dir).unwrap();
            let s1 = spec(2);
            let s2 = spec(3);
            store.get_or_run(&s1, &|| Executor::run_one(&s1));
            store.get_or_run(&s2, &|| Executor::run_one(&s2));
        }
        // Tear the last line mid-record, as a power cut would.
        let seg = RunStore::segment_paths(&dir).unwrap().pop().unwrap();
        let text = std::fs::read_to_string(&seg).unwrap();
        let torn: String = text[..text.len() - 40].into();
        std::fs::write(&seg, torn).unwrap();
        let store = RunStore::open(&dir).unwrap();
        assert_eq!(store.load_report().loaded, 1);
        assert_eq!(store.load_report().skipped, 1);
        // The torn cell re-simulates; the intact one hits.
        let s1 = spec(2);
        let r = store.get_or_run(&s1, &|| panic!("intact cell must hit"));
        assert!(r.hit);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_record_fails_commit_and_reruns() {
        let dir = tmpdir("tamper");
        let spec = spec(4);
        {
            let store = RunStore::open(&dir).unwrap();
            store.get_or_run(&spec, &|| Executor::run_one(&spec));
        }
        let seg = RunStore::segment_paths(&dir).unwrap().pop().unwrap();
        let text = std::fs::read_to_string(&seg).unwrap();
        // Flip a digit inside the record body; the commit marker now
        // disagrees, so the line must be rejected wholesale.
        let tampered = text.replacen("\"events\":", "\"events\":1", 1);
        assert_ne!(tampered, text);
        std::fs::write(&seg, tampered).unwrap();
        let store = RunStore::open(&dir).unwrap();
        assert_eq!(store.load_report().loaded, 0);
        assert_eq!(store.load_report().skipped, 1);
        let r = store.get_or_run(&spec, &|| Executor::run_one(&spec));
        assert!(!r.hit, "tampered cell must re-simulate");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_requests_for_one_cell_compute_once() {
        let dir = tmpdir("dedup");
        let store = Arc::new(RunStore::open(&dir).unwrap());
        let spec = spec(5);
        let computes = Arc::new(AtomicUsize::new(0));
        let mut raws: Vec<String> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let store = Arc::clone(&store);
                    let spec = spec.clone();
                    let computes = Arc::clone(&computes);
                    scope.spawn(move || {
                        let run = store.get_or_run(&spec, &|| {
                            computes.fetch_add(1, Ordering::SeqCst);
                            Executor::run_one(&spec)
                        });
                        codec::encode_record(&run.record)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "cell ran exactly once");
        raws.dedup();
        assert_eq!(raws.len(), 1, "every caller saw identical bytes");
        let (hits, misses) = store.counters();
        assert_eq!((hits, misses), (7, 1));
        // And exactly one line was persisted.
        drop(store);
        let store = RunStore::open(&dir).unwrap();
        assert_eq!(store.load_report().loaded, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panicking_compute_releases_the_claim() {
        let dir = tmpdir("panic");
        let store = Arc::new(RunStore::open(&dir).unwrap());
        let spec = spec(6);
        let boom = std::thread::scope(|scope| {
            let store = Arc::clone(&store);
            let spec = spec.clone();
            scope
                .spawn(move || store.get_or_run(&spec, &|| panic!("boom")))
                .join()
        });
        assert!(boom.is_err(), "compute panic propagates");
        // The claim is gone: a second request computes normally instead
        // of deadlocking on a stale InFlight slot.
        let r = store.get_or_run(&spec, &|| Executor::run_one(&spec));
        assert!(!r.hit);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
