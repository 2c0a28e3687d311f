//! The resumable run manifest: results stream to a JSONL artifact.
//!
//! The first line is a header binding the file to one `(campaign,
//! fingerprint)` pair; every further line records one finished job. On
//! open, a manifest whose header matches yields its completed jobs as a
//! cache — the engine skips those keys entirely — while a mismatched or
//! corrupt manifest is discarded and rewritten, never wrongly reused.
//! A torn or corrupt line (a run killed mid-write, a flipped byte) is
//! dropped on load, so that job simply re-runs; a `done` record that a
//! later `done` record for the same key supersedes is dropped with it.

use std::fs;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ch_sim::{det_hash_map, DetHashMap};

use crate::json::Json;

/// Manifest file-format version.
const VERSION: u64 = 1;

/// A result type that can round-trip through the manifest.
///
/// Decoded values must equal the originals exactly — resume correctness
/// depends on a cached result being indistinguishable from a recomputed
/// one. Prefer integer counts over derived floats where possible; when
/// floats are unavoidable, [`Json`]'s shortest-round-trip rendering keeps
/// them bit-exact.
pub trait ManifestCodec: Sized {
    /// Encodes the result as a JSON value.
    fn to_json(&self) -> Json;
    /// Decodes a result; `None` marks the record stale (the job re-runs).
    fn from_json(json: &Json) -> Option<Self>;
}

// Full-range u64s do not fit a JSON number (an f64 is exact only up to
// 2^53), so the integer codecs fall back to a decimal string above that.
impl ManifestCodec for u64 {
    fn to_json(&self) -> Json {
        if *self <= (1 << 53) {
            Json::from_u64(*self)
        } else {
            Json::str(self.to_string())
        }
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_u64()
            .or_else(|| json.as_str().and_then(|s| s.parse().ok()))
    }
}

impl ManifestCodec for usize {
    fn to_json(&self) -> Json {
        (*self as u64).to_json()
    }
    fn from_json(json: &Json) -> Option<Self> {
        usize::try_from(u64::from_json(json)?).ok()
    }
}

impl ManifestCodec for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_f64()
    }
}

impl ManifestCodec for String {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_str().map(str::to_string)
    }
}

/// An append-only JSONL manifest for one campaign run.
#[derive(Debug)]
pub struct Manifest {
    path: PathBuf,
    cached: DetHashMap<String, Json>,
    file: Mutex<fs::File>,
}

/// One intact record line, with the key and result when its status is
/// `done`. `None` marks a corrupt line: not UTF-8, not JSON, or JSON that
/// is not a job record — a flipped byte inside a string stays valid JSON.
/// Only `key`, `status` and `result` are read, so any other member (the
/// per-job `ms` older manifests carry) is ignored.
fn parse_record(line: &[u8]) -> Option<(&str, Option<(String, Json)>)> {
    let line = std::str::from_utf8(line).ok()?;
    let entry = Json::parse(line).ok()?;
    let key = entry.get("key").and_then(Json::as_str)?;
    match entry.get("status").and_then(Json::as_str)? {
        "done" => Some((line, Some((key.to_string(), entry.get("result")?.clone())))),
        // Failed jobs re-run on resume, but their records survive
        // rewrites for post-mortems.
        "failed" => Some((line, None)),
        _ => None,
    }
}

impl Manifest {
    /// Opens (or creates) the manifest at `path` for the given campaign.
    ///
    /// An existing file with a matching header has its completed jobs
    /// loaded for resume; anything else is truncated and re-headed. A
    /// missing file opens empty; any other read error is returned.
    pub fn open(path: &Path, campaign: &str, fingerprint: u64) -> Result<Manifest, String> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        // Bytes, not a string: one non-UTF-8 byte must cost its own line
        // only, not every record in the file.
        let existing = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let mut lines = existing
            .strip_suffix(b"\n")
            .unwrap_or(&existing)
            .split(|&byte| byte == b'\n');
        let header_matches = lines
            .next()
            .and_then(|line| Json::parse(std::str::from_utf8(line).ok()?).ok())
            .is_some_and(|header| {
                header.get("campaign").and_then(Json::as_str) == Some(campaign)
                    // Through the u64 codec, not `as_u64`: fingerprints are
                    // full-range hashes, far beyond f64's exact integers.
                    && header.get("fingerprint").and_then(u64::from_json) == Some(fingerprint)
                    && header.get("version").and_then(Json::as_u64) == Some(VERSION)
            });

        // Classify every record line: intact ones are kept (and the
        // `done` ones cached for resume); corrupt ones are dropped so the
        // affected job simply re-runs.
        let mut records = Vec::new();
        let mut skipped = 0usize;
        if header_matches {
            for line in lines {
                match parse_record(line) {
                    Some(record) => records.push(record),
                    None => skipped += 1,
                }
            }
        }
        // A job whose `done` record stopped decoding re-runs and appends a
        // second `done` line for its key. Walking backwards, the first
        // `done` line met for a key is its latest; every earlier one is
        // superseded and left out of the rewrite.
        let mut cached = det_hash_map();
        let mut kept: Vec<&str> = Vec::with_capacity(records.len());
        let mut superseded = 0usize;
        for (line, done) in records.into_iter().rev() {
            if let Some((key, result)) = done {
                if cached.contains_key(&key) {
                    superseded += 1;
                    continue;
                }
                cached.insert(key, result);
            }
            kept.push(line);
        }
        kept.reverse();

        // A header mismatch, a corrupt line or a superseded record triggers
        // a full rewrite — staged in a sibling tmp file and renamed into
        // place, so a crash mid-rewrite leaves either the old manifest or
        // the new one, never a half-written hybrid.
        if !header_matches || skipped > 0 || superseded > 0 {
            if skipped > 0 {
                eprintln!(
                    "fleet: manifest {}: skipped {skipped} corrupt line(s); \
                     the affected job(s) will re-run",
                    path.display()
                );
            }
            if superseded > 0 {
                eprintln!(
                    "fleet: manifest {}: dropped {superseded} superseded record(s)",
                    path.display()
                );
            }
            let header = Json::Obj(vec![
                ("campaign".into(), Json::str(campaign)),
                ("fingerprint".into(), fingerprint.to_json()),
                ("version".into(), Json::from_u64(VERSION)),
            ]);
            let mut staged = header.render();
            staged.push('\n');
            for line in &kept {
                staged.push_str(line);
                staged.push('\n');
            }
            let mut tmp_name = path.as_os_str().to_os_string();
            tmp_name.push(".tmp");
            let tmp = PathBuf::from(tmp_name);
            fs::write(&tmp, staged).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
            fs::rename(&tmp, path).map_err(|e| {
                format!("cannot rename {} -> {}: {e}", tmp.display(), path.display())
            })?;
        }

        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;

        Ok(Manifest {
            path: path.to_path_buf(),
            cached,
            file: Mutex::new(file),
        })
    }

    /// The manifest's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The result recorded for `key`'s latest completed run, if any.
    pub fn cached(&self, key: &str) -> Option<&Json> {
        self.cached.get(key)
    }

    /// How many completed jobs the manifest already held on open.
    pub fn cached_len(&self) -> usize {
        self.cached.len()
    }

    /// Appends a completed job. Called from worker threads; line writes
    /// are serialized through an internal lock.
    pub fn record_done(&self, key: &str, result: &Json) -> Result<(), String> {
        self.append(Json::Obj(vec![
            ("key".into(), Json::str(key)),
            ("status".into(), Json::str("done")),
            ("result".into(), result.clone()),
        ]))
    }

    /// Appends a failed job (recorded for post-mortems; re-runs on resume).
    pub fn record_failed(&self, key: &str, error: &str) -> Result<(), String> {
        self.append(Json::Obj(vec![
            ("key".into(), Json::str(key)),
            ("status".into(), Json::str("failed")),
            ("error".into(), Json::str(error)),
        ]))
    }

    fn append(&self, entry: Json) -> Result<(), String> {
        let line = entry.render();
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(file, "{line}").map_err(|e| format!("cannot append {}: {e}", self.path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ch-fleet-manifest-{}-{tag}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn fresh_manifest_then_resume() {
        let path = temp_path("fresh");
        let _ = fs::remove_file(&path);

        let manifest = Manifest::open(&path, "test", 42).unwrap();
        assert_eq!(manifest.cached_len(), 0);
        manifest.record_done("a", &Json::from_u64(1)).unwrap();
        manifest.record_failed("b", "boom").unwrap();
        drop(manifest);

        let resumed = Manifest::open(&path, "test", 42).unwrap();
        assert_eq!(resumed.cached_len(), 1, "failed entries must re-run");
        assert_eq!(resumed.cached("a"), Some(&Json::from_u64(1)));
        assert!(resumed.cached("b").is_none());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn legacy_done_line_with_ms_still_resumes() {
        // Manifests written before records dropped their wall-clock `ms`
        // member (the committed `results/fleet_*.jsonl`) carry it between
        // `status` and `result`.
        let path = temp_path("legacy-ms");
        let header = Json::Obj(vec![
            ("campaign".into(), Json::str("test")),
            ("fingerprint".into(), 23u64.to_json()),
            ("version".into(), Json::from_u64(VERSION)),
        ]);
        let legacy = format!(
            "{}\n{{\"key\":\"a\",\"status\":\"done\",\"ms\":910.4,\"result\":{{\"h\":7}}}}\n",
            header.render()
        );
        fs::write(&path, &legacy).unwrap();

        let resumed = Manifest::open(&path, "test", 23).unwrap();
        assert_eq!(resumed.cached_len(), 1);
        let result = resumed.cached("a").expect("the legacy record is cached");
        assert_eq!(result.get("h").and_then(Json::as_u64), Some(7));
        drop(resumed);
        // A clean open leaves the file byte-unchanged.
        assert_eq!(fs::read_to_string(&path).unwrap(), legacy);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_discards() {
        let path = temp_path("fp");
        let _ = fs::remove_file(&path);
        {
            let manifest = Manifest::open(&path, "test", 1).unwrap();
            manifest.record_done("a", &Json::from_u64(1)).unwrap();
        }
        let other = Manifest::open(&path, "test", 2).unwrap();
        assert_eq!(other.cached_len(), 0, "stale config must not be reused");
        drop(other);
        // And the file was re-headed: reopening under the new pair works.
        let again = Manifest::open(&path, "test", 2).unwrap();
        assert_eq!(again.cached_len(), 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn full_range_fingerprints_survive_the_header_round_trip() {
        // Real fingerprints are FNV hashes well above 2^53; a lossy f64
        // header encoding would silently invalidate every resume.
        let path = temp_path("bigfp");
        let _ = fs::remove_file(&path);
        let fp = 0xDEAD_BEEF_CAFE_F00Du64;
        {
            let manifest = Manifest::open(&path, "test", fp).unwrap();
            manifest.record_done("a", &Json::from_u64(1)).unwrap();
        }
        let resumed = Manifest::open(&path, "test", fp).unwrap();
        assert_eq!(resumed.cached_len(), 1, "header fingerprint must match");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_mid_file_line_is_skipped_and_repaired() {
        // XOR 0x55 keeps every byte ASCII; the high bit makes the line
        // invalid UTF-8, which must cost that line only, not the file.
        for mask in [0b0101_0101u8, 0b1000_0000] {
            let path = temp_path(&format!("midline-{mask:02x}"));
            let _ = fs::remove_file(&path);
            {
                let manifest = Manifest::open(&path, "test", 11).unwrap();
                manifest.record_done("a", &Json::from_u64(1)).unwrap();
                manifest.record_done("b", &Json::from_u64(2)).unwrap();
                manifest.record_done("c", &Json::from_u64(3)).unwrap();
            }
            // Flip bytes inside the *middle* record (not the tail): a disk
            // hiccup on a committed-style manifest, not a mid-write kill.
            let mut bytes = fs::read(&path).unwrap();
            let line_starts: Vec<usize> = std::iter::once(0)
                .chain(
                    bytes
                        .iter()
                        .enumerate()
                        .filter(|(_, &b)| b == b'\n')
                        .map(|(i, _)| i + 1),
                )
                .collect();
            let (b_start, b_end) = (line_starts[2], line_starts[3] - 1);
            for byte in &mut bytes[b_start..b_end] {
                *byte ^= mask;
            }
            fs::write(&path, &bytes).unwrap();

            let resumed = Manifest::open(&path, "test", 11).unwrap();
            assert!(
                resumed.cached("a").is_some(),
                "mask {mask:#x}: records before the bad line survive"
            );
            assert!(
                resumed.cached("b").is_none(),
                "mask {mask:#x}: the corrupted job must re-run"
            );
            assert!(
                resumed.cached("c").is_some(),
                "mask {mask:#x}: records after the bad line survive"
            );
            drop(resumed);

            // The open repaired the file in place: a second open sees a
            // clean manifest (header + the two intact records) and no tmp
            // residue.
            let text = fs::read_to_string(&path).unwrap();
            assert_eq!(text.lines().count(), 3, "mask {mask:#x}: {text}");
            let mut tmp_name = path.as_os_str().to_os_string();
            tmp_name.push(".tmp");
            assert!(
                !PathBuf::from(tmp_name).exists(),
                "mask {mask:#x}: tmp file must be renamed away"
            );
            let again = Manifest::open(&path, "test", 11).unwrap();
            assert_eq!(again.cached_len(), 2, "mask {mask:#x}");
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn superseded_done_records_are_dropped_on_open() {
        let path = temp_path("superseded");
        let _ = fs::remove_file(&path);
        {
            // `a`'s first record stopped decoding and the job re-ran:
            // a second `done` line for the same key follows it.
            let manifest = Manifest::open(&path, "test", 17).unwrap();
            manifest.record_done("a", &Json::from_u64(1)).unwrap();
            manifest.record_failed("b", "boom").unwrap();
            manifest.record_done("a", &Json::from_u64(2)).unwrap();
        }
        for _ in 0..2 {
            let resumed = Manifest::open(&path, "test", 17).unwrap();
            assert_eq!(resumed.cached("a"), Some(&Json::from_u64(2)), "latest wins");
            assert_eq!(resumed.cached_len(), 1);
            drop(resumed);
            // Header, the failed record kept for post-mortems, and `a`'s
            // latest record, in file order.
            let text = fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 3, "{text}");
            assert!(lines[1].contains("\"failed\""), "{text}");
            assert!(lines[2].contains("\"result\":2"), "{text}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn unreadable_manifest_is_an_error_not_an_empty_cache() {
        // A directory at the manifest path cannot be read; only a missing
        // file opens as an empty manifest.
        let path = temp_path("isdir");
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        let err = Manifest::open(&path, "test", 19).unwrap_err();
        assert!(err.starts_with("cannot read"), "{err}");
        let _ = fs::remove_dir_all(&path);
    }

    #[test]
    fn flipped_bytes_inside_valid_json_still_invalidate_the_record() {
        let path = temp_path("jsonflip");
        let _ = fs::remove_file(&path);
        {
            let manifest = Manifest::open(&path, "test", 13).unwrap();
            manifest.record_done("a", &Json::from_u64(1)).unwrap();
        }
        // Corrupt the status string: the line still parses as JSON but is
        // no longer a recognisable job record.
        let text = fs::read_to_string(&path).unwrap();
        let mangled = text.replace("\"status\":\"done\"", "\"status\":\"dXne\"");
        assert_ne!(text, mangled);
        fs::write(&path, mangled).unwrap();

        let resumed = Manifest::open(&path, "test", 13).unwrap();
        assert_eq!(resumed.cached_len(), 0, "unknown status must not be cached");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_line_is_skipped() {
        let path = temp_path("torn");
        let _ = fs::remove_file(&path);
        {
            let manifest = Manifest::open(&path, "test", 7).unwrap();
            manifest.record_done("a", &Json::from_u64(1)).unwrap();
            manifest.record_done("b", &Json::from_u64(2)).unwrap();
        }
        // Simulate a kill mid-write: chop the file inside the last line.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 9]).unwrap();

        let resumed = Manifest::open(&path, "test", 7).unwrap();
        assert!(resumed.cached("a").is_some());
        assert!(resumed.cached("b").is_none(), "torn record must re-run");
        let _ = fs::remove_file(&path);
    }
}
