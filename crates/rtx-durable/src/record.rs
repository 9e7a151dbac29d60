//! The WAL record format and its checksummed binary codec.
//!
//! Every record travels as one length-prefixed, CRC-protected frame:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = [bsn: u64 LE] [kind: u8] [body…]
//! ```
//!
//! `bsn` is the *batch sequence number* — a monotonically increasing
//! counter over everything the durable wrapper logs. The frame layout is
//! what makes torn tails detectable: a crash mid-append leaves either a
//! short frame (length prefix runs past the file) or a frame whose CRC
//! does not match, and replay stops exactly there.
//!
//! The encoding is hand-rolled (the workspace is offline — no serde) and
//! little-endian throughout.

/// CRC-32 (IEEE) — the checksum guarding every WAL frame and snapshot
/// body; the same function guards the composite-key sidecar.
pub use rtx_query::crc32;

/// What one WAL record means.
///
/// `Insert`/`Delete`/`Upsert` are the redo records proper — one per
/// acknowledged update batch. `Swap` and `Compact` pin the two
/// reorganisation points replay cannot re-derive on its own (a background
/// swap landing, an explicit compaction). `Freeze` and `SyncCompact` are
/// *annotations*: no-ops for index replay (the replayed index re-derives
/// them deterministically from its compaction policy) but they make the
/// log self-describing, so an external consumer — the crash-replay oracle,
/// a log inspector — can reconstruct rowID renumbering without modelling
/// the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalPayload {
    /// An insert batch. `globals` is a retired field: nothing writes
    /// `Some` any more, and replay ignores it.
    Insert {
        keys: Vec<u64>,
        values: Vec<u64>,
        globals: Option<Vec<u32>>,
    },
    /// A delete batch.
    Delete { keys: Vec<u64> },
    /// An upsert batch (delete every copy, insert one row per pair);
    /// `globals` as for `Insert`.
    Upsert {
        keys: Vec<u64>,
        values: Vec<u64>,
        globals: Option<Vec<u32>>,
    },
    /// A completed background compaction swapped in at this point. Replay
    /// forces the swap here ([`UpdatableIndex::await_reorganisation`]),
    /// reproducing the exact rowID renumbering independent of
    /// background-thread timing.
    ///
    /// [`UpdatableIndex::await_reorganisation`]: rtx_query::UpdatableIndex::await_reorganisation
    Swap,
    /// An explicit synchronous compaction ran at this point (the
    /// [`checkpoint`](rtx_query::UpdatableIndex::checkpoint) protocol).
    /// Replay re-runs it.
    Compact,
    /// Annotation: the batch logged just before froze its delta and began
    /// a background rebuild.
    Freeze,
    /// Annotation: the batch logged just before triggered a synchronous
    /// policy compaction.
    SyncCompact,
}

impl WalPayload {
    /// Short display name of the record kind.
    pub fn kind(&self) -> &'static str {
        match self {
            WalPayload::Insert { .. } => "insert",
            WalPayload::Delete { .. } => "delete",
            WalPayload::Upsert { .. } => "upsert",
            WalPayload::Swap => "swap",
            WalPayload::Compact => "compact",
            WalPayload::Freeze => "freeze",
            WalPayload::SyncCompact => "sync-compact",
        }
    }

    /// True for the three update-batch kinds.
    pub fn is_update(&self) -> bool {
        matches!(
            self,
            WalPayload::Insert { .. } | WalPayload::Delete { .. } | WalPayload::Upsert { .. }
        )
    }

    fn tag(&self) -> u8 {
        match self {
            WalPayload::Insert { .. } => 1,
            WalPayload::Delete { .. } => 2,
            WalPayload::Upsert { .. } => 3,
            WalPayload::Swap => 4,
            WalPayload::Compact => 5,
            WalPayload::Freeze => 6,
            WalPayload::SyncCompact => 7,
        }
    }
}

/// One sequenced WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Batch sequence number.
    pub bsn: u64,
    /// What happened.
    pub payload: WalPayload,
}

impl WalRecord {
    /// Creates a record.
    pub fn new(bsn: u64, payload: WalPayload) -> Self {
        WalRecord { bsn, payload }
    }

    /// Encodes the record as one framed byte sequence (length prefix, CRC,
    /// payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(16);
        put_u64(&mut payload, self.bsn);
        payload.push(self.payload.tag());
        match &self.payload {
            WalPayload::Insert {
                keys,
                values,
                globals,
            }
            | WalPayload::Upsert {
                keys,
                values,
                globals,
            } => {
                put_u32(&mut payload, keys.len() as u32);
                for &k in keys {
                    put_u64(&mut payload, k);
                }
                for &v in values {
                    put_u64(&mut payload, v);
                }
                match globals {
                    Some(globals) => {
                        payload.push(1);
                        for &g in globals {
                            put_u32(&mut payload, g);
                        }
                    }
                    None => payload.push(0),
                }
            }
            WalPayload::Delete { keys } => {
                put_u32(&mut payload, keys.len() as u32);
                for &k in keys {
                    put_u64(&mut payload, k);
                }
            }
            WalPayload::Swap
            | WalPayload::Compact
            | WalPayload::Freeze
            | WalPayload::SyncCompact => {}
        }
        let mut frame = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        frame
    }

    /// Decodes one frame starting at `buf[offset..]`. Returns the record
    /// and the offset just past its frame, or `None` when the bytes from
    /// `offset` do not hold one intact record — a torn or corrupt tail.
    pub fn decode(buf: &[u8], offset: usize) -> Option<(WalRecord, usize)> {
        let mut r = Reader { buf, pos: offset };
        let len = r.u32()? as usize;
        let crc = r.u32()?;
        let payload = r.bytes(len)?;
        if crc32(payload) != crc {
            return None;
        }
        let end = r.pos;
        let mut p = Reader {
            buf: payload,
            pos: 0,
        };
        let bsn = p.u64()?;
        let tag = p.u8()?;
        let payload = match tag {
            1 | 3 => {
                let n = p.u32()? as usize;
                let keys = p.u64s(n)?;
                let values = p.u64s(n)?;
                let globals = match p.u8()? {
                    0 => None,
                    1 => Some(p.u32s(n)?),
                    _ => return None,
                };
                if tag == 1 {
                    WalPayload::Insert {
                        keys,
                        values,
                        globals,
                    }
                } else {
                    WalPayload::Upsert {
                        keys,
                        values,
                        globals,
                    }
                }
            }
            2 => {
                let n = p.u32()? as usize;
                WalPayload::Delete { keys: p.u64s(n)? }
            }
            4 => WalPayload::Swap,
            5 => WalPayload::Compact,
            6 => WalPayload::Freeze,
            7 => WalPayload::SyncCompact,
            _ => return None,
        };
        if p.pos != p.buf.len() {
            return None; // trailing garbage inside a "valid" frame
        }
        Some((WalRecord { bsn, payload }, end))
    }
}

/// Decodes every intact record of a segment byte stream, stopping at the
/// first torn or corrupt frame. Returns the records and the byte offset of
/// the valid prefix (everything past it is tail damage).
pub fn decode_stream(buf: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut offset = 0;
    while offset < buf.len() {
        match WalRecord::decode(buf, offset) {
            Some((record, next)) => {
                records.push(record);
                offset = next;
            }
            None => break,
        }
    }
    (records, offset)
}

// --- little-endian primitives -------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a byte slice.
pub(crate) struct Reader<'a> {
    pub buf: &'a [u8],
    pub pos: usize,
}

impl<'a> Reader<'a> {
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    pub fn u64s(&mut self, n: usize) -> Option<Vec<u64>> {
        (0..n).map(|_| self.u64()).collect()
    }

    pub fn u32s(&mut self, n: usize) -> Option<Vec<u32>> {
        (0..n).map(|_| self.u32()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_payload_kind_round_trips() {
        let records = vec![
            WalRecord::new(
                1,
                WalPayload::Insert {
                    keys: vec![10, 20],
                    values: vec![100, 200],
                    globals: None,
                },
            ),
            WalRecord::new(
                2,
                WalPayload::Upsert {
                    keys: vec![5],
                    values: vec![55],
                    globals: Some(vec![7]),
                },
            ),
            WalRecord::new(3, WalPayload::Delete { keys: vec![10] }),
            WalRecord::new(4, WalPayload::Swap),
            WalRecord::new(5, WalPayload::Compact),
            WalRecord::new(6, WalPayload::Freeze),
            WalRecord::new(7, WalPayload::SyncCompact),
        ];
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(&r.encode());
        }
        let (decoded, valid) = decode_stream(&stream);
        assert_eq!(decoded, records);
        assert_eq!(valid, stream.len());
    }

    #[test]
    fn torn_and_corrupt_tails_stop_the_decode() {
        let a = WalRecord::new(1, WalPayload::Delete { keys: vec![1, 2] });
        let b = WalRecord::new(2, WalPayload::Swap);
        let mut stream = a.encode();
        let a_len = stream.len();
        stream.extend_from_slice(&b.encode());

        // Truncating anywhere inside the second frame keeps only the first
        // record.
        for cut in a_len..stream.len() {
            let (records, valid) = decode_stream(&stream[..cut]);
            assert_eq!(records, vec![a.clone()], "cut at {cut}");
            assert_eq!(valid, a_len);
        }
        // A flipped payload bit fails the CRC.
        let mut corrupt = stream.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        let (records, _) = decode_stream(&corrupt);
        assert_eq!(records.len(), 1);
    }
}
