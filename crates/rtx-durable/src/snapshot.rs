//! Checkpoint snapshots: the compacted base state, serialized so the WAL
//! prefix it covers can be truncated.
//!
//! A snapshot is written only at a *clean* point (the
//! [`checkpoint_rows`](rtx_query::UpdatableIndex::checkpoint_rows)
//! contract): the live `(key, value)` rows in rowID order are exactly the
//! columns a fresh build reproduces the index from. Files are named
//! `snap-<bsn>.snap` — the snapshot covers every WAL record with a bsn at
//! or below its own — and written to a temp name, fsynced, then renamed,
//! so a crash mid-write leaves the previous snapshot untouched. Recovery
//! picks the newest snapshot that decodes intact and ignores the rest.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::record::{crc32, put_u32, put_u64, Reader};

const MAGIC: u32 = 0x5258_534E; // "RXSN"

/// One decoded snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The WAL frontier the snapshot covers (replay starts past it).
    pub bsn: u64,
    /// Whether the index carries a real value column.
    pub has_values: bool,
    /// Live `(key, value)` rows in rowID order.
    pub rows: Vec<(u64, u64)>,
}

impl Snapshot {
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(32 + self.rows.len() * 16);
        put_u64(&mut body, self.bsn);
        // The row allocator, which a clean state holds at `rows.len()`.
        put_u64(&mut body, self.rows.len() as u64);
        body.push(self.has_values as u8);
        // Once a flag for per-row global rowIDs (the retired per-shard
        // layout); always 0, and a snapshot that sets it does not decode.
        body.push(0);
        put_u64(&mut body, self.rows.len() as u64);
        for &(k, _) in &self.rows {
            put_u64(&mut body, k);
        }
        for &(_, v) in &self.rows {
            put_u64(&mut body, v);
        }
        let mut file = Vec::with_capacity(body.len() + 16);
        put_u32(&mut file, MAGIC);
        put_u32(&mut file, crc32(&body));
        put_u64(&mut file, body.len() as u64);
        file.extend_from_slice(&body);
        file
    }

    fn decode(buf: &[u8]) -> Option<Snapshot> {
        let mut r = Reader { buf, pos: 0 };
        if r.u32()? != MAGIC {
            return None;
        }
        let crc = r.u32()?;
        let len = r.u64()? as usize;
        let body = r.bytes(len)?;
        if crc32(body) != crc {
            return None;
        }
        let mut b = Reader { buf: body, pos: 0 };
        let bsn = b.u64()?;
        let _next_row = b.u64()?;
        let has_values = b.u8()? != 0;
        if b.u8()? != 0 {
            return None;
        }
        let n = b.u64()? as usize;
        let keys = b.u64s(n)?;
        let values = b.u64s(n)?;
        Some(Snapshot {
            bsn,
            has_values,
            rows: keys.into_iter().zip(values).collect(),
        })
    }

    /// Splits the rows back into the parallel build columns (`values` is
    /// `None` when the index had no value column).
    pub fn columns(&self) -> (Vec<u64>, Option<Vec<u64>>) {
        let keys = self.rows.iter().map(|&(k, _)| k).collect();
        let values = self
            .has_values
            .then(|| self.rows.iter().map(|&(_, v)| v).collect());
        (keys, values)
    }
}

fn snapshot_path(dir: &Path, bsn: u64) -> PathBuf {
    dir.join(format!("snap-{bsn:020}.snap"))
}

fn parse_snapshot_bsn(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Writes `snapshot` durably into `dir` (temp + fsync + rename), deletes
/// every older snapshot, and returns the file size in bytes.
pub fn write_snapshot(dir: &Path, snapshot: &Snapshot) -> io::Result<u64> {
    fs::create_dir_all(dir)?;
    let bytes = snapshot.encode();
    let tmp = dir.join(format!("snap-{:020}.tmp", snapshot.bsn));
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, snapshot_path(dir, snapshot.bsn))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    // Older snapshots are superseded; leftovers of interrupted writes too.
    for (bsn, path) in snapshot_files(dir)? {
        if bsn < snapshot.bsn {
            let _ = fs::remove_file(path);
        }
    }
    Ok(bytes.len() as u64)
}

/// Reads the newest snapshot in `dir` that decodes intact, with its file
/// size. `Ok(None)` when no usable snapshot exists.
pub fn read_latest_snapshot(dir: &Path) -> io::Result<Option<(Snapshot, u64)>> {
    let mut files = snapshot_files(dir)?;
    files.sort_by_key(|file| std::cmp::Reverse(file.0));
    for (_, path) in files {
        let mut buf = Vec::new();
        File::open(&path)?.read_to_end(&mut buf)?;
        if let Some(snapshot) = Snapshot::decode(&buf) {
            return Ok(Some((snapshot, buf.len() as u64)));
        }
    }
    Ok(None)
}

fn snapshot_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    match fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                if let Some(bsn) = entry.file_name().to_str().and_then(parse_snapshot_bsn) {
                    files.push((bsn, entry.path()));
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rtx-durable-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn snap(bsn: u64) -> Snapshot {
        Snapshot {
            bsn,
            has_values: true,
            rows: vec![(10, 100), (20, 200), (30, 300)],
        }
    }

    #[test]
    fn snapshots_round_trip_and_supersede_older_ones() {
        let dir = tmp("roundtrip");
        let first = snap(4);
        let bytes = write_snapshot(&dir, &first).unwrap();
        assert!(bytes > 0);
        let (read, size) = read_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(read, first);
        assert_eq!(size, bytes);
        let (keys, values) = read.columns();
        assert_eq!(keys, vec![10, 20, 30]);
        assert_eq!(values, Some(vec![100, 200, 300]));

        let second = snap(9);
        write_snapshot(&dir, &second).unwrap();
        let (read, _) = read_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(read, second);
        assert_eq!(
            snapshot_files(&dir).unwrap().len(),
            1,
            "older snapshot deleted"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_newest_snapshot_falls_back_to_the_previous_one() {
        let dir = tmp("corrupt");
        let good = snap(4);
        write_snapshot(&dir, &good).unwrap();
        // A later snapshot written by hand, then damaged (bit flip in the
        // body) — as if the process died while the disk scribbled on it.
        let bad = snap(9);
        let mut bytes = bad.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        fs::write(snapshot_path(&dir, 9), &bytes).unwrap();

        let (read, _) = read_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(read, good, "corrupt snapshot skipped");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_missing_dirs_read_as_no_snapshot() {
        let dir = tmp("missing");
        assert!(read_latest_snapshot(&dir).unwrap().is_none());
        fs::create_dir_all(&dir).unwrap();
        assert!(read_latest_snapshot(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
