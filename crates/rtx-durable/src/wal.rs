//! The append-only, segmented write-ahead log.
//!
//! A log is a directory of `wal-NNNNNNNN.seg` files. Records append to the
//! highest (*active*) segment; once it reaches
//! [`DurableConfig::segment_bytes`] the log rolls to a fresh one. Snapshot
//! truncation drops whole sealed segments whose records are all covered by
//! the snapshot — no rewriting, so truncation cannot corrupt the log.
//!
//! Recovery scans the segments in order and stops at the first frame that
//! is torn (length prefix past the file end) or corrupt (CRC mismatch).
//! Everything from the stop point on is cut off, so the log is
//! append-clean again after every open.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::config::{DurableConfig, FsyncPolicy};
use crate::record::WalRecord;

/// One segment file of the log; the last entry is the active one.
#[derive(Debug)]
struct Segment {
    seq: u64,
    bytes: u64,
    /// Highest bsn of any record in the segment (0 while empty).
    max_bsn: u64,
}

/// An append-only segmented record log with checksummed frames.
#[derive(Debug)]
pub struct WriteAheadLog {
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    segments: Vec<Segment>,
    active: File,
    fsyncs: u64,
    unsynced_records: u64,
    unsynced_bytes: u64,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.seg"))
}

fn parse_segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

impl WriteAheadLog {
    /// Creates an empty log in `dir` (the directory is created; it must not
    /// already hold segments).
    pub fn create(dir: &Path, config: &DurableConfig) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        if !Self::segment_seqs(dir)?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds WAL segments", dir.display()),
            ));
        }
        let active = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(dir, 1))?;
        Ok(WriteAheadLog {
            dir: dir.to_path_buf(),
            fsync: config.fsync,
            segment_bytes: config.segment_bytes,
            segments: vec![Segment {
                seq: 1,
                bytes: 0,
                max_bsn: 0,
            }],
            active,
            fsyncs: 0,
            unsynced_records: 0,
            unsynced_bytes: 0,
        })
    }

    /// Opens an existing log (creating an empty one when `dir` holds no
    /// segments), replays its intact records and cuts off everything past
    /// the first torn/corrupt frame. Returns the log, positioned to append,
    /// and the surviving records in order.
    pub fn open(dir: &Path, config: &DurableConfig) -> io::Result<(Self, Vec<WalRecord>)> {
        let seqs = Self::segment_seqs(dir)?;
        if seqs.is_empty() {
            return Ok((Self::create(dir, config)?, Vec::new()));
        }

        let mut records = Vec::new();
        let mut segments = Vec::new();
        let mut cut: Option<(usize, u64)> = None; // (segment position, valid bytes)
        for (position, &seq) in seqs.iter().enumerate() {
            let path = segment_path(dir, seq);
            let mut buf = Vec::new();
            File::open(&path)?.read_to_end(&mut buf)?;
            let mut offset = 0usize;
            let mut max_bsn = 0u64;
            while offset < buf.len() {
                match WalRecord::decode(&buf, offset) {
                    Some((record, next)) => {
                        max_bsn = max_bsn.max(record.bsn);
                        records.push(record);
                        offset = next;
                    }
                    None => break, // torn or corrupt from here on
                }
            }
            segments.push(Segment {
                seq,
                bytes: offset as u64,
                max_bsn,
            });
            if offset < buf.len() {
                cut = Some((position, offset as u64));
                break;
            }
        }

        // Cut the damage: truncate the stop segment, drop everything after.
        if let Some((position, valid)) = cut {
            let keep = &segments[position];
            let file = OpenOptions::new()
                .write(true)
                .open(segment_path(dir, keep.seq))?;
            file.set_len(valid)?;
            file.sync_all()?;
            for &seq in &seqs[position + 1..] {
                fs::remove_file(segment_path(dir, seq))?;
            }
            segments.truncate(position + 1);
        }

        let last = segments.last().expect("at least one segment");
        let active = OpenOptions::new()
            .append(true)
            .open(segment_path(dir, last.seq))?;
        Ok((
            WriteAheadLog {
                dir: dir.to_path_buf(),
                fsync: config.fsync,
                segment_bytes: config.segment_bytes,
                segments,
                active,
                fsyncs: 0,
                unsynced_records: 0,
                unsynced_bytes: 0,
            },
            records,
        ))
    }

    /// Appends one record to the active segment (rolling first when it is
    /// full). The record is *not* flushed — call [`commit`](Self::commit)
    /// (policy-driven) or [`sync`](Self::sync) (forced) before treating it
    /// as durable. Returns the framed size in bytes.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        if self.active_segment().bytes >= self.segment_bytes {
            self.roll()?;
        }
        let frame = record.encode();
        self.active.write_all(&frame)?;
        let segment = self.segments.last_mut().expect("active segment");
        segment.bytes += frame.len() as u64;
        segment.max_bsn = segment.max_bsn.max(record.bsn);
        self.unsynced_records += 1;
        self.unsynced_bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Flushes according to the configured [`FsyncPolicy`]. Call once per
    /// logged batch, after its records are appended and before they apply.
    pub fn commit(&mut self) -> io::Result<()> {
        let due = match self.fsync {
            FsyncPolicy::Always => self.unsynced_records > 0,
            FsyncPolicy::EveryN(n) => self.unsynced_records >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Unconditionally fsyncs the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        self.active.sync_all()?;
        self.fsyncs += 1;
        self.unsynced_records = 0;
        self.unsynced_bytes = 0;
        Ok(())
    }

    /// Truncates the log up to (and including) `bsn`: seals the active
    /// segment, then deletes every sealed segment whose records are all at
    /// or below `bsn`. Returns the number of bytes reclaimed.
    pub fn truncate_through(&mut self, bsn: u64) -> io::Result<u64> {
        self.roll()?;
        // The freshly rolled (empty) active segment always survives.
        let active = self.segments.pop().expect("active segment");
        let mut reclaimed = 0;
        let mut keep = Vec::with_capacity(1);
        for segment in self.segments.drain(..) {
            if segment.max_bsn <= bsn {
                reclaimed += segment.bytes;
                fs::remove_file(segment_path(&self.dir, segment.seq))?;
            } else {
                keep.push(segment);
            }
        }
        keep.push(active);
        self.segments = keep;
        Ok(reclaimed)
    }

    /// Total live bytes across every segment.
    pub fn bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Bytes appended since the last fsync (lost on a crash under a lazy
    /// [`FsyncPolicy`]; the WAL's contribution to the memory/risk budget).
    pub fn unsynced_bytes(&self) -> u64 {
        self.unsynced_bytes
    }

    /// Number of fsyncs issued since this handle opened.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    fn active_segment(&self) -> &Segment {
        self.segments.last().expect("active segment")
    }

    /// Seals the active segment (fsync) and starts the next one.
    fn roll(&mut self) -> io::Result<()> {
        self.sync()?;
        let seq = self.active_segment().seq + 1;
        self.active = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&self.dir, seq))?;
        self.segments.push(Segment {
            seq,
            bytes: 0,
            max_bsn: 0,
        });
        Ok(())
    }

    fn segment_seqs(dir: &Path) -> io::Result<Vec<u64>> {
        let mut seqs = Vec::new();
        match fs::read_dir(dir) {
            Ok(entries) => {
                for entry in entries {
                    let entry = entry?;
                    if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_seq) {
                        seqs.push(seq);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        seqs.sort_unstable();
        Ok(seqs)
    }
}

/// Convenience for tests and inspectors: every intact record of the log in
/// `dir`, without opening it for appends.
pub fn read_log(dir: &Path) -> io::Result<Vec<WalRecord>> {
    let mut records = Vec::new();
    for seq in WriteAheadLog::segment_seqs(dir)? {
        let mut buf = Vec::new();
        File::open(segment_path(dir, seq))?.read_to_end(&mut buf)?;
        let (mut decoded, valid) = crate::record::decode_stream(&buf);
        records.append(&mut decoded);
        if valid < buf.len() {
            break;
        }
    }
    Ok(records)
}

/// The concatenated frame bytes of the log in `dir`, segment order — what
/// the crash simulator slices at arbitrary offsets.
pub fn log_bytes(dir: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    for seq in WriteAheadLog::segment_seqs(dir)? {
        File::open(segment_path(dir, seq))?.read_to_end(&mut bytes)?;
    }
    Ok(bytes)
}

/// Replaces the log in `dir` with exactly `bytes` (one segment) — the
/// other half of the crash simulator: "the process died when this much of
/// the log had reached the disk".
pub fn write_log_bytes(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    for seq in WriteAheadLog::segment_seqs(dir)? {
        fs::remove_file(segment_path(dir, seq))?;
    }
    fs::create_dir_all(dir)?;
    let mut file = File::create(segment_path(dir, 1))?;
    file.write_all(bytes)?;
    file.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalPayload;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rtx-durable-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(bsn: u64) -> WalRecord {
        WalRecord::new(
            bsn,
            WalPayload::Insert {
                keys: vec![bsn; 4],
                values: vec![bsn * 10; 4],
                globals: None,
            },
        )
    }

    #[test]
    fn append_commit_reopen_round_trips() {
        let dir = tmp("roundtrip");
        let config = DurableConfig::default();
        let mut wal = WriteAheadLog::create(&dir, &config).unwrap();
        for bsn in 1..=5 {
            wal.append(&rec(bsn)).unwrap();
            wal.commit().unwrap();
        }
        assert!(wal.bytes() > 0);
        assert_eq!(wal.fsyncs(), 5, "Always policy syncs per commit");
        drop(wal);

        let (wal, records) = WriteAheadLog::open(&dir, &config).unwrap();
        assert_eq!(records, (1..=5).map(rec).collect::<Vec<_>>());
        assert_eq!(
            wal.bytes(),
            records.iter().map(|r| r.encode().len() as u64).sum()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_cut_and_the_log_appends_cleanly_after() {
        let dir = tmp("torn");
        let config = DurableConfig::default();
        let mut wal = WriteAheadLog::create(&dir, &config).unwrap();
        for bsn in 1..=3 {
            wal.append(&rec(bsn)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Tear the last record: chop 5 bytes off the segment.
        let bytes = log_bytes(&dir).unwrap();
        write_log_bytes(&dir, &bytes[..bytes.len() - 5]).unwrap();

        let (mut wal, records) = WriteAheadLog::open(&dir, &config).unwrap();
        assert_eq!(records, vec![rec(1), rec(2)], "torn record dropped");
        // The cut log accepts appends and they survive the next open.
        wal.append(&rec(3)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, records) = WriteAheadLog::open(&dir, &config).unwrap();
        assert_eq!(records, vec![rec(1), rec(2), rec(3)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_truncate_by_snapshot_bsn() {
        let dir = tmp("truncate");
        // Tiny segments: every record rolls into its own.
        let config = DurableConfig::default().with_segment_bytes(1);
        let mut wal = WriteAheadLog::create(&dir, &config).unwrap();
        for bsn in 1..=6 {
            wal.append(&rec(bsn)).unwrap();
        }
        wal.sync().unwrap();
        let before = wal.bytes();
        let reclaimed = wal.truncate_through(4).unwrap();
        assert!(reclaimed > 0);
        assert_eq!(wal.bytes(), before - reclaimed);
        drop(wal);

        let (_, records) = WriteAheadLog::open(&dir, &config).unwrap();
        assert_eq!(
            records,
            vec![rec(5), rec(6)],
            "snapshot-covered prefix gone"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_fsync_policies_batch_their_syncs() {
        let dir = tmp("lazy");
        let config = DurableConfig::default().with_fsync(FsyncPolicy::EveryN(3));
        let mut wal = WriteAheadLog::create(&dir, &config).unwrap();
        for bsn in 1..=7 {
            wal.append(&rec(bsn)).unwrap();
            wal.commit().unwrap();
        }
        assert_eq!(wal.fsyncs(), 2, "7 commits at every-3 = 2 syncs");
        assert!(wal.unsynced_bytes() > 0, "one record still buffered");
        fs::remove_dir_all(&dir).unwrap();
    }
}
