//! The exact result cache: canonical spec text → completed cell.
//!
//! Soundness rests on two repo-wide contracts: `ScenarioSpec`'s
//! `parse`/`Display` round-trip is exact, so
//! [`od_sim::ScenarioSpec::canonical_key`] collides only for equal
//! specs; and every exact-tier engine makes trial `i` a pure function
//! of `SeedSequence::new(spec.seed).seed(i)`, so equal specs produce
//! bit-identical trials. A cache hit therefore replays exactly the
//! bytes a fresh run would stream.
//!
//! With a directory configured the cache is persistent: completed cells
//! are serialised as line-oriented text (floats as `f64::to_bits` hex
//! words, like `WindowCheckpoint`) and written via temp-file + rename,
//! then reloaded wholesale on startup. Each file's header carries the
//! [`ENGINE_EPOCH`] it was computed under; a file from another epoch is
//! skipped, so a change to what some spec text computes cannot be masked
//! by results persisted before it. In-flight window checkpoints for
//! long static-converge cells live in the same directory under a
//! `.window` extension, keyed the same way.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use od_core::WindowCheckpoint;
use od_sim::TrialResult;

/// The version of what the engines compute for a given spec text,
/// written into every `.cell` header and required on reload. Bump it with
/// any change that moves some spec's results or engine label.
///
/// * 1 — the unversioned `odcell 1` header.
/// * 2 — `tier lane` node-model specs run the lane engines in every
///   build (they ran the exact engines unless built with a cargo
///   feature).
pub const ENGINE_EPOCH: u32 = 2;

/// One completed cell as the cache stores it: the engine it ran on
/// (display form) and its per-trial results.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCell {
    /// `Engine`'s display form (e.g. `streaming-converge`).
    pub engine: String,
    /// Per-trial results, trial order.
    pub trials: Vec<TrialResult>,
}

impl StoredCell {
    /// Serialises the cell together with its cache key as line-oriented
    /// text under the current [`ENGINE_EPOCH`]; floats as `f64::to_bits`
    /// hex words so the round trip is exact.
    pub fn to_text(&self, key: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "odcell 1 epoch {ENGINE_EPOCH}");
        let _ = writeln!(out, "keylines {}", key.lines().count());
        for line in key.lines() {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "engine {}", self.engine);
        for t in &self.trials {
            let _ = writeln!(
                out,
                "trial {} {} {:016x} {:016x} {} {}",
                t.steps,
                u8::from(t.converged),
                t.potential.to_bits(),
                t.estimate.to_bits(),
                t.winner.map_or("-".to_string(), |w| w.to_string()),
                t.mutations
            );
        }
        out
    }

    /// Parses a cell serialised by [`StoredCell::to_text`], returning
    /// `(key, cell)`.
    ///
    /// # Errors
    ///
    /// A description of the malformed line, or of a header from another
    /// [`ENGINE_EPOCH`].
    pub fn from_text(text: &str) -> Result<(String, StoredCell), String> {
        let mut lines = text.lines();
        let header = format!("odcell 1 epoch {ENGINE_EPOCH}");
        if lines.next() != Some(header.as_str()) {
            return Err(format!("missing '{header}' header"));
        }
        let count_line = lines.next().ok_or("missing keylines line")?;
        let count: usize = count_line
            .strip_prefix("keylines ")
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("malformed keylines line '{count_line}'"))?;
        let mut key = String::new();
        for _ in 0..count {
            key.push_str(lines.next().ok_or("truncated key")?);
            key.push('\n');
        }
        let engine_line = lines.next().ok_or("missing engine line")?;
        let engine = engine_line
            .strip_prefix("engine ")
            .ok_or_else(|| format!("malformed engine line '{engine_line}'"))?
            .to_string();
        let mut trials = Vec::new();
        for line in lines {
            let words: Vec<&str> = line.split_whitespace().collect();
            // Slice pattern, not indexing: a short line is a parse
            // error, never a panic — this path reads untrusted files.
            let ["trial", steps, converged, potential, estimate, winner, mutations] =
                words.as_slice()
            else {
                return Err(format!("malformed trial line '{line}'"));
            };
            let bits = |w: &str| {
                u64::from_str_radix(w, 16)
                    .map(f64::from_bits)
                    .map_err(|_| format!("malformed float bits '{w}'"))
            };
            trials.push(TrialResult {
                steps: steps.parse().map_err(|_| "malformed steps")?,
                converged: *converged != "0",
                potential: bits(potential)?,
                estimate: bits(estimate)?,
                winner: if *winner == "-" {
                    None
                } else {
                    Some(winner.parse().map_err(|_| "malformed winner")?)
                },
                mutations: mutations.parse().map_err(|_| "malformed mutations")?,
            });
        }
        Ok((key, StoredCell { engine, trials }))
    }
}

/// FNV-1a 64 over the key — the on-disk file stem. The key itself is
/// stored inside the file and wins on any collision, so the hash only
/// needs to spread names.
fn key_stem(key: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}-{}", key.len())
}

/// Atomic text-file write: temp file in the target directory, then
/// rename over the final path — a reader never observes a torn file.
pub(crate) fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension(format!(
        "tmp.{}",
        std::process::id() // unique per daemon; renames are last-writer-wins
    ));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// The memoisation table: canonical spec text → [`StoredCell`], shared
/// across connections and workers, optionally mirrored to a directory.
#[derive(Debug)]
pub struct MemoCache {
    dir: Option<PathBuf>,
    map: Mutex<HashMap<String, Arc<StoredCell>>>,
    /// `.cell` files the preload could not read or parse.
    skipped: usize,
}

impl MemoCache {
    /// Locks the table, recovering from poison: the map holds only
    /// completed cells behind `Arc`s and every mutation is a single
    /// `insert`, so a poisoned guard still fronts a structurally valid
    /// map — a worker panic must degrade to an `ERR` response, not
    /// take the cache (and with it the daemon) down.
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<StoredCell>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty in-memory cache, or — with `dir` — a persistent one
    /// preloaded with every `.cell` file already in the directory.
    /// Unreadable, malformed or other-epoch files are skipped, not fatal,
    /// and counted ([`MemoCache::skipped`]).
    ///
    /// # Errors
    ///
    /// IO errors creating or scanning the directory.
    pub fn new(dir: Option<PathBuf>) -> io::Result<MemoCache> {
        let mut map = HashMap::new();
        let mut skipped = 0;
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)?;
            for entry in std::fs::read_dir(dir)? {
                let path = entry?.path();
                if path.extension().and_then(|e| e.to_str()) != Some("cell") {
                    continue;
                }
                let loaded = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| StoredCell::from_text(&text).ok());
                match loaded {
                    Some((key, cell)) => {
                        map.insert(key, Arc::new(cell));
                    }
                    None => skipped += 1,
                }
            }
        }
        Ok(MemoCache {
            dir,
            map: Mutex::new(map),
            skipped,
        })
    }

    /// Number of `.cell` files the preload skipped as unreadable,
    /// malformed or from another [`ENGINE_EPOCH`].
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The cached cell for `key`, if any.
    pub fn get(&self, key: &str) -> Option<Arc<StoredCell>> {
        self.lock().get(key).cloned()
    }

    /// Inserts a completed cell, persisting it when a directory is
    /// configured, and drops any in-flight window checkpoint for the
    /// same key (the cell is done). Returns the shared handle.
    pub fn insert(&self, key: &str, cell: StoredCell) -> Arc<StoredCell> {
        if let Some(dir) = &self.dir {
            let _ = write_atomic(
                &dir.join(format!("{}.cell", key_stem(key))),
                &cell.to_text(key),
            );
            let _ = std::fs::remove_file(dir.join(format!("{}.window", key_stem(key))));
        }
        let cell = Arc::new(cell);
        self.lock().insert(key.to_string(), Arc::clone(&cell));
        cell
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The in-flight window checkpoint stored for `key`, if the
    /// directory holds one that parses and belongs to this key.
    pub fn load_window(&self, key: &str) -> Option<WindowCheckpoint> {
        let dir = self.dir.as_ref()?;
        let text = std::fs::read_to_string(dir.join(format!("{}.window", key_stem(key)))).ok()?;
        let (stored_key, checkpoint_text) = split_window_file(&text)?;
        if stored_key != key {
            return None;
        }
        WindowCheckpoint::from_text(checkpoint_text).ok()
    }

    /// Persists an in-flight window checkpoint for `key` (no-op without
    /// a directory).
    pub fn store_window(&self, key: &str, checkpoint: &WindowCheckpoint) {
        let Some(dir) = &self.dir else { return };
        use std::fmt::Write;
        let mut text = String::new();
        let _ = writeln!(text, "odserve-window 1");
        let _ = writeln!(text, "keylines {}", key.lines().count());
        for line in key.lines() {
            let _ = writeln!(text, "{line}");
        }
        text.push_str(&checkpoint.to_text());
        let _ = write_atomic(&dir.join(format!("{}.window", key_stem(key))), &text);
    }
}

/// Splits a `.window` file into its embedded key and the checkpoint
/// text that follows.
fn split_window_file(text: &str) -> Option<(String, &str)> {
    let rest = text.strip_prefix("odserve-window 1\n")?;
    let (count_line, rest) = rest.split_once('\n')?;
    let count: usize = count_line.strip_prefix("keylines ")?.parse().ok()?;
    let mut key = String::new();
    let mut rest = rest;
    for _ in 0..count {
        let (line, tail) = rest.split_once('\n')?;
        key.push_str(line);
        key.push('\n');
        rest = tail;
    }
    Some((key, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> StoredCell {
        StoredCell {
            engine: "streaming-converge".into(),
            trials: vec![
                TrialResult {
                    steps: 123,
                    converged: true,
                    potential: 1e-9,
                    estimate: 0.25,
                    winner: None,
                    mutations: 0,
                },
                TrialResult {
                    steps: 7,
                    converged: false,
                    potential: f64::NAN,
                    estimate: f64::NAN,
                    winner: Some(3),
                    mutations: 42,
                },
            ],
        }
    }

    #[test]
    fn stored_cell_text_round_trips_bit_for_bit() {
        let key = "model voter\ngraph complete n=8\nseed 3\n";
        let text = cell().to_text(key);
        let (got_key, got) = StoredCell::from_text(&text).unwrap();
        assert_eq!(got_key, key);
        assert_eq!(got.engine, "streaming-converge");
        assert_eq!(got.trials.len(), 2);
        for (a, b) in got.trials.iter().zip(&cell().trials) {
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.converged, b.converged);
            assert_eq!(a.potential.to_bits(), b.potential.to_bits());
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            assert_eq!(a.winner, b.winner);
            assert_eq!(a.mutations, b.mutations);
        }
    }

    #[test]
    fn persistent_cache_survives_reload() {
        let dir = std::env::temp_dir().join(format!("od-serve-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = "model voter\ngraph complete n=8\nseed 3\n";
        {
            let cache = MemoCache::new(Some(dir.clone())).unwrap();
            assert!(cache.is_empty());
            cache.insert(key, cell());
            assert_eq!(cache.len(), 1);
        }
        let reloaded = MemoCache::new(Some(dir.clone())).unwrap();
        assert_eq!(reloaded.len(), 1);
        let got = reloaded.get(key).unwrap();
        // NaN fields make PartialEq unusable here; the text form is the
        // bit-exact comparison.
        assert_eq!(got.to_text(key), cell().to_text(key));
        assert!(reloaded.get("other key\n").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preload_counts_corrupt_cell_files() {
        let dir = std::env::temp_dir().join(format!("od-serve-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (good, bad) = ("model voter\ngraph complete n=8\nseed 3\n", "seed 4\n");
        {
            let cache = MemoCache::new(Some(dir.clone())).unwrap();
            assert_eq!(cache.skipped(), 0);
            cache.insert(good, cell());
            cache.insert(bad, cell());
        }
        let path = dir.join(format!("{}.cell", key_stem(bad)));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let reloaded = MemoCache::new(Some(dir.clone())).unwrap();
        assert_eq!(reloaded.skipped(), 1);
        assert_eq!(reloaded.len(), 1);
        assert!(reloaded.get(good).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(StoredCell::from_text("nope").is_err());
        let header = format!("odcell 1 epoch {ENGINE_EPOCH}");
        assert!(StoredCell::from_text(&format!("{header}\nkeylines 2\nonly-one\n")).is_err());
        assert!(
            StoredCell::from_text(&format!("{header}\nkeylines 0\nengine e\ntrial bad\n")).is_err()
        );
        // A well-formed cell from another epoch is rejected too.
        let text = cell().to_text("seed 3\n");
        let stale = text.replacen(&header, "odcell 1", 1);
        assert!(StoredCell::from_text(&text).is_ok());
        assert!(StoredCell::from_text(&stale).is_err());
    }
}
