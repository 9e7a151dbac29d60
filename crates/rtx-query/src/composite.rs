//! The composite-key wrapper: serves typed multi-column queries on any
//! backend by mapping encoded keys into the 1-D `u64` space the backends
//! already index.
//!
//! Built by the registry whenever a name (or spec) carries a `{...}` key
//! schema, wrapping the ordinary resolution *outermost* — so sharded,
//! durable and builder-suffixed variants compose underneath without any
//! per-backend changes:
//!
//! * **direct codec** — a schema whose raw width fits 8 bytes encodes each
//!   tuple to a single `u64` that *is* the backend key. Compilation is
//!   stateless, arbitrary encoded bounds are valid, and the `{u64}` schema
//!   encodes a key to itself, keeping the raw path zero-overhead;
//! * **dictionary codec** — wider schemas (16/32-byte encodings) keep an
//!   order-preserving dictionary from [`EncodedKey`] to `u64`: build keys
//!   are ranked and spaced `2^16` apart, inserts take the midpoint of
//!   their neighbours' gap, so `u64` order equals encoded order equals
//!   tuple order. Typed queries compile ranges via the dictionary's
//!   nearest entries (a range over no entries is uniformly empty; a point
//!   miss probes the never-allocated `u64::MAX` sentinel). Raw `u64`
//!   updates are rejected — they would bypass the dictionary.
//!
//! For durable (`+wal:`) indexes the dictionary persists in a `KEYDICT`
//! sidecar next to the WAL: a versioned header carrying the key widths,
//! then CRC-framed entry batches appended before each mutating insert (a
//! torn tail is dropped on load; a crash between sidecar append and WAL
//! append leaves harmless orphan dictionary entries).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::arena::ExecArena;
use crate::batch::QueryBatch;
use crate::error::IndexError;
use crate::index::{IndexBackend, SecondaryIndex, UpdatableIndex};
use crate::keys::{EncodedKey, EncodedRange, KeySchema, KeyTuple, TypedBatch};
use crate::registry::{IndexSpec, Registry, SpecName};
use crate::shard::{RebalanceReport, ShardLoad};
use crate::types::{
    Capabilities, DurableStats, IndexBuildMetrics, MemoryUsage, QueryOutcome, UpdateReport,
};

/// Mapped dictionary values are spaced `2^GAP_BITS` apart at build time,
/// leaving that many midpoint-insert levels between any two build keys
/// before a gap exhausts (a clear error, not silent misordering). 16 bits
/// also keeps small key sets within `u32`, so B+ can serve wide composites
/// on the set sizes it accepts for raw keys.
const GAP_BITS: u32 = 16;

const SIDECAR_FILE: &str = "KEYDICT";
const SIDECAR_MAGIC: u32 = 0x5258_4B44; // "RXKD"
const SIDECAR_VERSION: u32 = 1;

fn composite_error(name: &str, message: String) -> IndexError {
    IndexError::Backend {
        backend: name.to_string().into(),
        message,
    }
}

/// The order-preserving dictionary of a wide (multi-limb) schema.
#[derive(Debug, Default, Clone)]
struct KeyDict {
    map: BTreeMap<EncodedKey, u64>,
}

impl KeyDict {
    /// Ranks the unique encoded build keys and spaces them `2^GAP_BITS`
    /// apart, starting above 0 so a below-first insert has room too.
    fn build(encoded: &[EncodedKey]) -> Self {
        let mut unique: Vec<EncodedKey> = encoded.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let map = unique
            .into_iter()
            .enumerate()
            .map(|(rank, key)| (key, (rank as u64 + 1) << GAP_BITS))
            .collect();
        KeyDict { map }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn get(&self, key: &EncodedKey) -> Option<u64> {
        self.map.get(key).copied()
    }

    /// Smallest mapped value whose encoded key is `>= key`.
    fn first_at_or_above(&self, key: &EncodedKey) -> Option<u64> {
        self.map.range(*key..).next().map(|(_, &m)| m)
    }

    /// Largest mapped value whose encoded key is `<= key`.
    fn last_at_or_below(&self, key: &EncodedKey) -> Option<u64> {
        self.map.range(..=*key).next_back().map(|(_, &m)| m)
    }

    /// Returns the mapped value for `key`, allocating the midpoint of its
    /// neighbours' gap for a fresh key (`true` in the pair). Fails when the
    /// gap between the neighbours is exhausted.
    fn insert(&mut self, key: EncodedKey) -> Result<(u64, bool), IndexError> {
        if let Some(mapped) = self.get(&key) {
            return Ok((mapped, false));
        }
        let prev = self
            .map
            .range(..key)
            .next_back()
            .map(|(_, &m)| m)
            .unwrap_or(0);
        let mapped = match self.map.range(key..).next().map(|(_, &m)| m) {
            Some(next) => {
                if next - prev < 2 {
                    return Err(IndexError::Backend {
                        backend: "composite-dict".into(),
                        message: format!(
                            "key-dictionary gap exhausted between mapped values {prev} and \
                             {next}; rebuild the index to re-space the dictionary"
                        ),
                    });
                }
                prev + (next - prev) / 2
            }
            // Append above the current top: one gap step, not the midpoint
            // to `u64::MAX` — the mapped image stays dense, so encoded
            // ranges stay narrow for row-decomposed backends. `u64::MAX`
            // itself is the reserved miss sentinel.
            None => match prev.checked_add(1 << GAP_BITS) {
                Some(m) if m < u64::MAX => m,
                _ => {
                    return Err(IndexError::Backend {
                        backend: "composite-dict".into(),
                        message: "key-dictionary mapped space exhausted at the top; \
                                  rebuild the index to re-space the dictionary"
                            .to_string(),
                    });
                }
            },
        };
        self.map.insert(key, mapped);
        Ok((mapped, true))
    }

    fn memory_bytes(&self, encoded_width: usize) -> u64 {
        (self.map.len() * (encoded_width + 8)) as u64
    }
}

/// How typed tuples reach the backend's `u64` key space.
enum Codec {
    /// Single-limb schema: the encoded key is the backend key.
    Direct,
    /// Multi-limb schema: dictionary-mapped.
    Dict(KeyDict),
}

/// A typed composite-key index: a [`KeySchema`]-aware wrapper around any
/// backend built by the registry (plain, sharded, durable — the wrapper is
/// outermost). Typed batches compile to encoded `u64` operations here;
/// raw `u64` operations pass straight through and address the encoded
/// (direct codec) or dictionary-mapped (wide codec) key domain.
pub struct CompositeIndex<I: ?Sized> {
    name: String,
    schema: KeySchema,
    codec: Codec,
    sidecar: Option<PathBuf>,
    inner: Box<I>,
}

impl<I: ?Sized + SecondaryIndex> CompositeIndex<I> {
    /// The inner backend the wrapper delegates to.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Compiles a typed batch into the raw batch the inner backend runs:
    /// stateless encoding for the direct codec, dictionary mapping for
    /// wide schemas.
    pub fn compile(&self, batch: &TypedBatch) -> Result<QueryBatch, IndexError> {
        match &self.codec {
            Codec::Direct => self.schema.compile(batch),
            Codec::Dict(dict) => {
                let mut out = QueryBatch::new().fetch_values(batch.fetches_values());
                if let Some(chunk) = batch.chunk_size() {
                    out = out.with_chunk_size(chunk);
                }
                for op in batch.ops() {
                    out = match self.schema.compile_op(op)? {
                        EncodedRange::Point(key) => match dict.get(&key) {
                            Some(mapped) => out.point(mapped),
                            // u64::MAX is never allocated: a guaranteed miss.
                            None => out.point(u64::MAX),
                        },
                        EncodedRange::Range(lower, upper) => {
                            match (
                                dict.first_at_or_above(&lower),
                                dict.last_at_or_below(&upper),
                            ) {
                                (Some(lo), Some(hi)) if lo <= hi => out.range(lo, hi),
                                // No dictionary entry in the window: the
                                // canonical inverted (empty) range.
                                _ => out.range(1, 0),
                            }
                        }
                        EncodedRange::Empty => out.range(1, 0),
                    };
                }
                Ok(out)
            }
        }
    }

    fn dict_bytes(&self) -> u64 {
        match &self.codec {
            Codec::Direct => 0,
            Codec::Dict(dict) => dict.memory_bytes(self.schema.encoded_width()),
        }
    }
}

impl CompositeIndex<dyn UpdatableIndex> {
    /// Maps typed rows to backend keys for a write, allocating (and
    /// persisting) dictionary entries for fresh wide keys. `allocate`
    /// distinguishes inserts/upserts from deletes, which must not grow the
    /// dictionary; unmapped delete keys become the miss sentinel (the
    /// inner delete ignores unknown keys).
    fn map_rows_for_write(
        &mut self,
        rows: &[KeyTuple],
        allocate: bool,
    ) -> Result<Vec<u64>, IndexError> {
        let encoded = rows
            .iter()
            .map(|row| self.schema.encode(row))
            .collect::<Result<Vec<_>, _>>()?;
        match &mut self.codec {
            Codec::Direct => Ok(encoded.iter().map(|e| e.limb(0)).collect()),
            Codec::Dict(dict) => {
                let mut mapped = Vec::with_capacity(encoded.len());
                let mut fresh = Vec::new();
                for key in encoded {
                    if allocate {
                        let (m, new) = dict.insert(key)?;
                        if new {
                            fresh.push((key, m));
                        }
                        mapped.push(m);
                    } else {
                        mapped.push(dict.get(&key).unwrap_or(u64::MAX));
                    }
                }
                if !fresh.is_empty() {
                    if let Some(path) = &self.sidecar {
                        // Sidecar first, WAL second: a crash in between
                        // leaves orphan dictionary entries, which are
                        // harmless (never probed as hits).
                        append_sidecar(path, &self.schema, &fresh).map_err(|e| {
                            composite_error(&self.name, format!("sidecar append failed: {e}"))
                        })?;
                    }
                }
                Ok(mapped)
            }
        }
    }

    fn reject_raw_writes(&self) -> Result<(), IndexError> {
        if matches!(self.codec, Codec::Dict(_)) {
            return Err(IndexError::UnsupportedOperation {
                backend: self.name.clone().into(),
                operation: "raw u64 updates on a dictionary-mapped composite index",
            });
        }
        Ok(())
    }
}

/// One delegation for both wrappers: the read-only one holds a
/// `dyn SecondaryIndex`, the updatable one a `dyn UpdatableIndex`.
impl<I: ?Sized + SecondaryIndex> SecondaryIndex for CompositeIndex<I> {
    fn name(&self) -> &str {
        &self.name
    }
    fn key_count(&self) -> usize {
        self.inner.key_count()
    }
    fn memory_bytes(&self) -> u64 {
        self.inner.memory_bytes() + self.dict_bytes()
    }
    fn build_metrics(&self) -> IndexBuildMetrics {
        self.inner.build_metrics()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn has_value_column(&self) -> bool {
        self.inner.has_value_column()
    }
    fn memory_usage(&self) -> MemoryUsage {
        let mut usage = self.inner.memory_usage();
        usage.base_bytes += self.dict_bytes();
        usage
    }
    fn durability_stats(&self) -> Option<DurableStats> {
        self.inner.durability_stats()
    }
    fn shard_load(&self) -> Option<ShardLoad> {
        self.inner.shard_load()
    }
    fn key_schema(&self) -> Option<&KeySchema> {
        Some(&self.schema)
    }
    fn execute_typed(&self, batch: &TypedBatch) -> Result<QueryOutcome, IndexError> {
        let compiled = self.compile(batch)?;
        self.execute(&compiled)
    }
    fn point_chunk(
        &self,
        queries: &[u64],
        fetch_values: bool,
    ) -> Result<crate::types::BatchOutcome, IndexError> {
        self.inner.point_chunk(queries, fetch_values)
    }
    fn range_chunk(
        &self,
        ranges: &[(u64, u64)],
        fetch_values: bool,
    ) -> Result<crate::types::BatchOutcome, IndexError> {
        self.inner.range_chunk(ranges, fetch_values)
    }
    fn execute_in(
        &self,
        batch: &QueryBatch,
        arena: &mut ExecArena,
    ) -> Result<QueryOutcome, IndexError> {
        self.inner.execute_in(batch, arena)
    }
}

impl UpdatableIndex for CompositeIndex<dyn UpdatableIndex> {
    fn insert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        self.reject_raw_writes()?;
        self.inner.insert(keys, values)
    }

    fn delete(&mut self, keys: &[u64]) -> Result<UpdateReport, IndexError> {
        self.reject_raw_writes()?;
        self.inner.delete(keys)
    }

    fn upsert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        self.reject_raw_writes()?;
        self.inner.upsert(keys, values)
    }

    fn insert_rows(
        &mut self,
        rows: &[KeyTuple],
        values: &[u64],
    ) -> Result<UpdateReport, IndexError> {
        let keys = self.map_rows_for_write(rows, true)?;
        self.inner.insert(&keys, values)
    }

    fn delete_rows(&mut self, rows: &[KeyTuple]) -> Result<UpdateReport, IndexError> {
        let keys = self.map_rows_for_write(rows, false)?;
        self.inner.delete(&keys)
    }

    fn upsert_rows(
        &mut self,
        rows: &[KeyTuple],
        values: &[u64],
    ) -> Result<UpdateReport, IndexError> {
        let keys = self.map_rows_for_write(rows, true)?;
        self.inner.upsert(&keys, values)
    }

    fn poll_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        self.inner.poll_reorganisation()
    }

    fn await_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        self.inner.await_reorganisation()
    }

    fn reorganisation_in_flight(&self) -> bool {
        self.inner.reorganisation_in_flight()
    }

    fn compact(&mut self) -> Result<UpdateReport, IndexError> {
        self.inner.compact()
    }

    fn checkpoint_rows(&self) -> Option<Vec<(u64, u64)>> {
        self.inner.checkpoint_rows()
    }

    fn checkpoint(&mut self) -> Result<u64, IndexError> {
        self.inner.checkpoint()
    }

    fn rebalance_shards(&mut self) -> Result<RebalanceReport, IndexError> {
        self.inner.rebalance_shards()
    }
}

/// What a composite build feeds the inner backend.
struct Prepared {
    keys: Vec<u64>,
    codec: Codec,
    sidecar: Option<PathBuf>,
    write_sidecar: bool,
}

fn prepare(
    name: &str,
    wal: Option<&Path>,
    spec: &IndexSpec<'_>,
    schema: &KeySchema,
) -> Result<Prepared, IndexError> {
    if schema.limbs() == 1 {
        // Direct codec: encoded keys are backend keys; raw `spec.keys` are
        // accepted as pre-encoded (for `{u64}` they are the keys).
        let keys = match &spec.rows {
            Some(rows) => schema.encode_rows(rows)?,
            None => spec.keys.to_vec(),
        };
        return Ok(Prepared {
            keys,
            codec: Codec::Direct,
            sidecar: None,
            write_sidecar: false,
        });
    }

    let sidecar = wal.map(|dir| dir.join(SIDECAR_FILE));
    match &spec.rows {
        Some(rows) => {
            let encoded = rows
                .iter()
                .map(|row| schema.encode(row))
                .collect::<Result<Vec<_>, _>>()?;
            let dict = KeyDict::build(&encoded);
            let keys = encoded
                .iter()
                .map(|e| dict.get(e).expect("build key is in the dictionary"))
                .collect();
            Ok(Prepared {
                keys,
                codec: Codec::Dict(dict),
                sidecar,
                write_sidecar: true,
            })
        }
        None if spec.keys.is_empty() => {
            // Empty build, or a durable reopen: the dictionary reloads
            // from the sidecar while the inner index replays its WAL.
            let dict = match &sidecar {
                Some(path) if path.exists() => load_sidecar(path, schema)
                    .map_err(|e| composite_error(name, format!("sidecar load failed: {e}")))?,
                _ => KeyDict::default(),
            };
            Ok(Prepared {
                keys: Vec::new(),
                codec: Codec::Dict(dict),
                sidecar,
                write_sidecar: false,
            })
        }
        None => Err(composite_error(
            name,
            format!(
                "a wide key schema {schema} builds from typed rows (IndexSpec::rows); \
                 raw u64 keys cannot be dictionary-mapped"
            ),
        )),
    }
}

fn inner_spec<'a>(spec: &IndexSpec<'a>, keys: &'a [u64]) -> IndexSpec<'a> {
    IndexSpec {
        device: spec.device,
        keys,
        values: spec.values.clone(),
        builder: spec.builder,
        durability: spec.durability.clone(),
        key_schema: None,
        rows: None,
    }
}

fn finish_sidecar(
    name: &str,
    schema: &KeySchema,
    prepared: &Prepared,
    inner: &dyn SecondaryIndex,
) -> Result<(), IndexError> {
    let Some(path) = &prepared.sidecar else {
        return Ok(());
    };
    if prepared.write_sidecar {
        let Codec::Dict(dict) = &prepared.codec else {
            return Ok(());
        };
        write_sidecar(path, schema, dict)
            .map_err(|e| composite_error(name, format!("sidecar write failed: {e}")))?;
    } else if let Codec::Dict(dict) = &prepared.codec {
        if dict.len() == 0 && inner.key_count() > 0 {
            return Err(composite_error(
                name,
                format!(
                    "durable index holds {} keys but the {SIDECAR_FILE} sidecar is missing or \
                     empty; the dictionary cannot be reconstructed",
                    inner.key_count()
                ),
            ));
        }
    }
    Ok(())
}

/// Builds a composite index: resolves `name` (which carries no schema)
/// through the registry and wraps whichever kind of backend that built
/// with `schema`'s codec. `name` printed with the schema is the index's
/// display name; its durability production, if any, is where the sidecar
/// lives.
pub(crate) fn build(
    registry: &Registry,
    name: &SpecName,
    spec: &IndexSpec<'_>,
    schema: KeySchema,
) -> Result<IndexBackend, IndexError> {
    let display = SpecName {
        schema: Some(schema.clone()),
        ..name.clone()
    }
    .to_string();
    let prepared = prepare(&display, name.wal.as_deref(), spec, &schema)?;
    let inner = registry.resolve(name, &inner_spec(spec, &prepared.keys))?;
    finish_sidecar(&display, &schema, &prepared, inner.read())?;
    let Prepared { codec, sidecar, .. } = prepared;
    Ok(match inner {
        IndexBackend::Read(inner) => IndexBackend::Read(Box::new(CompositeIndex {
            name: display,
            schema,
            codec,
            sidecar,
            inner,
        })),
        IndexBackend::Write(inner) => IndexBackend::Write(Box::new(CompositeIndex {
            name: display,
            schema,
            codec,
            sidecar,
            inner,
        })),
    })
}

// ---------------------------------------------------------------------------
// Sidecar persistence: [header][frame]*, torn-tail tolerant.
// header = magic u32 | version u32 | raw_width u32 | encoded_width u32 (LE)
// frame  = entry_count u32 | crc32(payload) u32 | payload
// entry  = encoded key (big-endian bytes, encoded_width) | mapped u64 (LE)
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data`: the checksum of every sidecar frame here and,
/// through `rtx-durable`, of every WAL frame, snapshot and manifest.
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |c, &b| {
        (c >> 8) ^ CRC_TABLE[((c ^ b as u32) & 0xFF) as usize]
    })
}

fn sidecar_header(schema: &KeySchema) -> [u8; 16] {
    let mut header = [0u8; 16];
    header[0..4].copy_from_slice(&SIDECAR_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&SIDECAR_VERSION.to_le_bytes());
    header[8..12].copy_from_slice(&(schema.raw_width() as u32).to_le_bytes());
    header[12..16].copy_from_slice(&(schema.encoded_width() as u32).to_le_bytes());
    header
}

fn frame_bytes(schema: &KeySchema, entries: &[(EncodedKey, u64)]) -> Vec<u8> {
    let width = schema.encoded_width();
    let mut payload = Vec::with_capacity(entries.len() * (width + 8));
    for (key, mapped) in entries {
        for limb in key.limbs() {
            payload.extend_from_slice(&limb.to_be_bytes());
        }
        payload.extend_from_slice(&mapped.to_le_bytes());
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn write_sidecar(path: &Path, schema: &KeySchema, dict: &KeyDict) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let entries: Vec<(EncodedKey, u64)> = dict.map.iter().map(|(k, &m)| (*k, m)).collect();
    let mut file = std::fs::File::create(path)?;
    file.write_all(&sidecar_header(schema))?;
    file.write_all(&frame_bytes(schema, &entries))?;
    file.sync_all()
}

fn append_sidecar(
    path: &Path,
    schema: &KeySchema,
    entries: &[(EncodedKey, u64)],
) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
    file.write_all(&frame_bytes(schema, entries))?;
    file.sync_all()
}

fn load_sidecar(path: &Path, schema: &KeySchema) -> std::io::Result<KeyDict> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    if bytes.len() < 16 {
        return Err(bad("sidecar shorter than its header"));
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    if word(0) != SIDECAR_MAGIC {
        return Err(bad("bad sidecar magic"));
    }
    if word(4) != SIDECAR_VERSION {
        return Err(bad("unsupported sidecar version"));
    }
    let width = schema.encoded_width();
    if word(8) as usize != schema.raw_width() || word(12) as usize != width {
        return Err(bad("sidecar key widths do not match the schema"));
    }

    let limbs = schema.limbs();
    let entry = width + 8;
    let mut dict = KeyDict::default();
    let mut at = 16usize;
    while bytes.len() >= at + 8 {
        let count = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let Some(payload) = bytes.get(at + 8..at + 8 + count * entry) else {
            break; // torn tail: drop the partial frame
        };
        if crc32(payload) != crc {
            break; // torn or corrupt tail
        }
        for chunk in payload.chunks_exact(entry) {
            let mut key_limbs = [0u64; 4];
            for (i, limb) in key_limbs.iter_mut().enumerate().take(limbs) {
                *limb = u64::from_be_bytes(chunk[i * 8..(i + 1) * 8].try_into().unwrap());
            }
            let mapped = u64::from_le_bytes(chunk[width..width + 8].try_into().unwrap());
            dict.map
                .insert(EncodedKey::from_limbs(&key_limbs[..limbs]), mapped);
        }
        at += 8 + count * entry;
    }
    Ok(dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyValue;

    fn enc(schema: &KeySchema, tuple: &[KeyValue]) -> EncodedKey {
        schema.encode(tuple).unwrap()
    }

    #[test]
    fn dict_build_ranks_and_spaces() {
        let schema = KeySchema::parse("{u64,u64}").unwrap();
        let tuples: Vec<KeyTuple> = vec![
            vec![2u64.into(), 0u64.into()],
            vec![1u64.into(), 5u64.into()],
            vec![1u64.into(), 5u64.into()], // duplicate collapses
            vec![1u64.into(), 9u64.into()],
        ];
        let encoded: Vec<EncodedKey> = tuples.iter().map(|t| enc(&schema, t)).collect();
        let dict = KeyDict::build(&encoded);
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.get(&encoded[1]), Some(1 << GAP_BITS));
        assert_eq!(dict.get(&encoded[3]), Some(2 << GAP_BITS));
        assert_eq!(dict.get(&encoded[0]), Some(3 << GAP_BITS));
    }

    #[test]
    fn dict_inserts_take_midpoints_until_gap_exhaustion() {
        let schema = KeySchema::parse("{u64,u64}").unwrap();
        let e = |a: u64, b: u64| enc(&schema, &[a.into(), b.into()]);
        let mut dict = KeyDict::build(&[e(10, 0), e(20, 0)]);

        // Existing key: stable mapping, not fresh.
        assert_eq!(dict.insert(e(10, 0)).unwrap(), (1 << GAP_BITS, false));
        // Between the two build keys.
        let (mid, fresh) = dict.insert(e(15, 0)).unwrap();
        assert!(fresh && (1 << GAP_BITS) < mid && mid < (2 << GAP_BITS));
        // Below the first and above the last stay ordered too.
        let (low, _) = dict.insert(e(5, 0)).unwrap();
        let (high, _) = dict.insert(e(30, 0)).unwrap();
        assert!(low < (1 << GAP_BITS) && high > (2 << GAP_BITS));

        // Bisecting one gap repeatedly must exhaust in ~GAP_BITS steps.
        let mut err = None;
        for i in 0..2 * GAP_BITS as u64 {
            if let Err(e_) = dict.insert(e(10, i + 1)) {
                err = Some(e_);
                break;
            }
        }
        let err = err.expect("gap must exhaust");
        assert!(err.to_string().contains("gap exhausted"), "{err}");
    }

    #[test]
    fn sidecar_round_trips_and_tolerates_torn_tails() {
        let schema = KeySchema::parse("{u32,str16,u32}").unwrap();
        let e = |a: u64, s: &str, c: u64| enc(&schema, &[a.into(), s.into(), c.into()]);
        let dict = KeyDict::build(&[e(1, "a", 2), e(1, "b", 3), e(9, "zz", 0)]);

        let dir = std::env::temp_dir().join(format!(
            "rtx-composite-sidecar-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SIDECAR_FILE);
        write_sidecar(&path, &schema, &dict).unwrap();

        // Append a frame, then a torn half-frame.
        append_sidecar(&path, &schema, &[(e(4, "mid", 7), 99 << GAP_BITS)]).unwrap();
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(&[3, 0, 0, 0, 1, 2]).unwrap(); // nonsense partial frame
        drop(file);

        let loaded = load_sidecar(&path, &schema).unwrap();
        assert_eq!(loaded.len(), 4);
        assert_eq!(loaded.get(&e(1, "b", 3)), dict.get(&e(1, "b", 3)));
        assert_eq!(loaded.get(&e(4, "mid", 7)), Some(99 << GAP_BITS));

        // A schema-width mismatch is refused.
        let other = KeySchema::parse("{u64,u64}").unwrap();
        assert!(load_sidecar(&path, &other).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A sharded backend as the composite wrapper sees it: it only knows
    /// its load and how to rebalance.
    struct ShardedStub;

    impl SecondaryIndex for ShardedStub {
        fn name(&self) -> &str {
            "STUB@2"
        }
        fn key_count(&self) -> usize {
            0
        }
        fn memory_bytes(&self) -> u64 {
            0
        }
        fn build_metrics(&self) -> IndexBuildMetrics {
            IndexBuildMetrics::default()
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::read_only()
        }
        fn has_value_column(&self) -> bool {
            false
        }
        fn shard_load(&self) -> Option<ShardLoad> {
            Some(ShardLoad {
                ops: vec![9, 1],
                rows: vec![5, 5],
            })
        }
        fn point_chunk(&self, _: &[u64], _: bool) -> Result<crate::BatchOutcome, IndexError> {
            unreachable!("the stub serves no lookups")
        }
        fn range_chunk(
            &self,
            _: &[(u64, u64)],
            _: bool,
        ) -> Result<crate::BatchOutcome, IndexError> {
            unreachable!("the stub serves no lookups")
        }
    }

    impl UpdatableIndex for ShardedStub {
        fn insert(&mut self, _: &[u64], _: &[u64]) -> Result<UpdateReport, IndexError> {
            unreachable!("the stub takes no writes")
        }
        fn delete(&mut self, _: &[u64]) -> Result<UpdateReport, IndexError> {
            unreachable!("the stub takes no writes")
        }
        fn upsert(&mut self, _: &[u64], _: &[u64]) -> Result<UpdateReport, IndexError> {
            unreachable!("the stub takes no writes")
        }
        fn rebalance_shards(&mut self) -> Result<RebalanceReport, IndexError> {
            Ok(RebalanceReport {
                moved_rows: 7,
                reorganisations: 1,
            })
        }
    }

    #[test]
    fn shard_load_and_rebalance_reach_the_inner_index() {
        let mut composite: CompositeIndex<dyn UpdatableIndex> = CompositeIndex {
            name: "STUB@2{u32,u32}".to_string(),
            schema: KeySchema::parse("{u32,u32}").unwrap(),
            codec: Codec::Direct,
            sidecar: None,
            inner: Box::new(ShardedStub),
        };
        let load = composite.shard_load().expect("the inner index is sharded");
        assert_eq!(load.hottest_shard(), Some(0));
        assert_eq!(composite.rebalance_shards().unwrap().moved_rows, 7);
    }
}
