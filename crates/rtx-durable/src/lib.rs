//! # rtx-durable
//!
//! WAL + snapshot persistence with crash-consistent recovery for the
//! dynamic RTIndeX backends.
//!
//! Every index in the reproduction is memory-only: a process crash loses
//! the delta layer's acknowledged updates. This crate adds the canonical
//! database answer — a redo [`WriteAheadLog`] (append-only checksummed
//! segments, one record per update batch and per reorganisation point) in
//! front of any [`UpdatableIndex`], plus [`Snapshot`]s of the compacted
//! base at checkpoint time so the log stays short. Reopening the directory
//! replays snapshot + WAL and lands, batch for batch, on the exact
//! pre-crash state — rowIDs included, torn final records cut off by the
//! frame CRCs.
//!
//! One wrapper, [`DurableIndex`], holds one WAL and one snapshot chain
//! around whatever `registry.build_updatable(base)` returns — a sharded
//! index included: its batches are logged whole, before they fan out to
//! the shards, so a crash recovers a prefix of whole batches, and its
//! snapshot is a plain `(key, value)` column that reopens as an ordinary
//! build. [`install_durability`] hooks it into a [`Registry`], after which
//! the trailing `"+wal:<path>"` name production builds it:
//!
//! ```text
//! "RXD+wal:/data/ix"            one durable RXD
//! "RXD:sah@4:hash+wal:/data/ix" four hash-routed shards behind one WAL
//! ```
//!
//! The same name *creates* state on first use (non-empty build columns)
//! and *reopens* it afterwards (empty build columns — the snapshot + WAL
//! are the truth; building over existing state is refused). A `META`
//! manifest in the directory records the base backend name and whether a
//! value column exists.

pub mod config;
pub mod durable;
pub mod record;
pub mod snapshot;
pub mod wal;

use std::fs::{self, File};
use std::io::{self, Read as _, Write as _};
use std::path::Path;

use rtx_query::{IndexError, IndexSpec, Registry, SecondaryIndex, SpecName, UpdatableIndex};

pub use config::{DurableConfig, FsyncPolicy};
pub use durable::DurableIndex;
pub use record::{crc32, decode_stream, WalPayload, WalRecord};
pub use snapshot::{read_latest_snapshot, write_snapshot, Snapshot};
pub use wal::{log_bytes, read_log, write_log_bytes, WriteAheadLog};

use record::{put_u32, Reader};

/// Converts an I/O failure into the backend error of the durable wrapper.
pub(crate) fn io_err(label: &str, e: io::Error) -> IndexError {
    IndexError::Backend {
        backend: label.to_string().into(),
        message: format!("I/O error: {e}"),
    }
}

/// Installs the durable-index factory into `registry` with the default
/// [`DurableConfig`]: afterwards any `"<base>+wal:<path>"` name builds (or
/// reopens) a WAL-backed persistent index through the same
/// `registry.build_updatable(..)` call every experiment already uses.
pub fn install_durability(registry: &mut Registry) {
    install_durability_with(registry, DurableConfig::default());
}

/// [`install_durability`] with an explicit configuration (fsync policy,
/// segment size, checkpoint threshold) applied to every durable index the
/// registry builds.
pub fn install_durability_with(registry: &mut Registry, config: DurableConfig) {
    registry.set_durable_builder(Box::new(move |registry, base, spec| {
        open_or_create(registry, base, spec, config)
    }));
}

/// The create-vs-open dispatch behind the `"+wal:"` name production (also
/// callable directly with an explicit config). The directory's `META`
/// manifest decides: absent → create fresh state from the spec's columns;
/// present → reopen, requiring *empty* build columns (rebuilding over
/// existing durable state is refused, never silent).
pub fn open_or_create(
    registry: &Registry,
    base: &str,
    spec: &IndexSpec<'_>,
    config: DurableConfig,
) -> Result<Box<dyn UpdatableIndex>, IndexError> {
    let label = durable::durable_label(base);
    let dir = spec
        .durability
        .as_ref()
        .ok_or_else(|| IndexError::Backend {
            backend: label.clone().into(),
            message: "the spec carries no durability path (use the \"+wal:<path>\" name \
                      production or IndexSpec::durability)"
                .to_string(),
        })?
        .path
        .clone();

    match read_meta(&dir).map_err(|e| io_err(&label, e))? {
        Some(meta) => {
            if !spec.keys.is_empty() {
                return Err(IndexError::Backend {
                    backend: label.into(),
                    message: format!(
                        "refusing to rebuild over existing durable state at {}; reopen with \
                         empty build columns (the snapshot + WAL are the truth) or point the \
                         path at a fresh directory",
                        dir.display()
                    ),
                });
            }
            // A manifest may spell the base another way ("RXD@2:hash" for
            // the printed "RXD@2"); the parsed names decide.
            let same_base = match (SpecName::parse(&meta.base), SpecName::parse(base)) {
                (Ok(recorded), Ok(requested)) => recorded == requested,
                _ => meta.base == base,
            };
            if !same_base {
                return Err(IndexError::Backend {
                    backend: label.into(),
                    message: format!(
                        "durable state at {} belongs to backend {:?}, not {:?}",
                        dir.display(),
                        meta.base,
                        base
                    ),
                });
            }
            DurableIndex::open(registry, base, spec, &dir, config)
                .map(|ix| Box::new(ix) as Box<dyn UpdatableIndex>)
        }
        None => {
            let ix = DurableIndex::create(registry, base, spec, &dir, config)?;
            let meta = Meta {
                base: base.to_string(),
                has_values: ix.has_value_column(),
            };
            write_meta(&dir, &meta).map_err(|e| io_err(&label, e))?;
            Ok(Box::new(ix))
        }
    }
}

// --- the META manifest ---------------------------------------------------

const META_MAGIC: u32 = 0x5258_444D; // "RXDM"
const META_FILE: &str = "META";

/// What the manifest records: the base backend name and whether a value
/// column exists. Its first body byte once flagged a router (the retired
/// per-shard WAL layout); it is always 0 now, and a manifest that sets it
/// is refused.
struct Meta {
    base: String,
    has_values: bool,
}

const CORRUPT_META: &str = "corrupt durable manifest";
const SHARDED_META: &str = "durable manifest of the retired per-shard WAL layout (it names a \
                            router), which this version cannot reopen";

impl Meta {
    fn encode(&self) -> Vec<u8> {
        let mut body = vec![0, self.has_values as u8];
        put_u32(&mut body, self.base.len() as u32);
        body.extend_from_slice(self.base.as_bytes());
        let mut file = Vec::with_capacity(body.len() + 12);
        put_u32(&mut file, META_MAGIC);
        put_u32(&mut file, crc32(&body));
        put_u32(&mut file, body.len() as u32);
        file.extend_from_slice(&body);
        file
    }

    /// Decodes a manifest, or says why it cannot.
    fn decode(buf: &[u8]) -> Result<Meta, &'static str> {
        let mut r = Reader { buf, pos: 0 };
        let body = (|| {
            (r.u32()? == META_MAGIC).then_some(())?;
            let crc = r.u32()?;
            let len = r.u32()? as usize;
            let body = r.bytes(len)?;
            (crc32(body) == crc).then_some(body)
        })()
        .ok_or(CORRUPT_META)?;
        let mut b = Reader { buf: body, pos: 0 };
        match b.u8() {
            Some(0) => {}
            Some(_) => return Err(SHARDED_META),
            None => return Err(CORRUPT_META),
        }
        (|| {
            let has_values = b.u8()? != 0;
            let base_len = b.u32()? as usize;
            let base = String::from_utf8(b.bytes(base_len)?.to_vec()).ok()?;
            (b.pos == b.buf.len()).then_some(Meta { base, has_values })
        })()
        .ok_or(CORRUPT_META)
    }
}

/// Writes the manifest durably (temp + fsync + rename — the manifest is
/// the commit point of index creation).
fn write_meta(dir: &Path, meta: &Meta) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join("META.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&meta.encode())?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, dir.join(META_FILE))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Reads the manifest: `Ok(None)` when the directory holds none (fresh
/// create), an *error* when a manifest exists but does not decode — a
/// corrupt manifest must never silently trigger a rebuild over state.
fn read_meta(dir: &Path) -> io::Result<Option<Meta>> {
    let path = dir.join(META_FILE);
    let mut buf = Vec::new();
    match File::open(&path) {
        Ok(mut file) => file.read_to_end(&mut buf).map(|_| ())?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    Meta::decode(&buf).map(Some).map_err(|why| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{why} at {}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips() {
        for has_values in [false, true] {
            let meta = Meta {
                base: "RXD:sah@4:hash".to_string(),
                has_values,
            };
            let decoded = Meta::decode(&meta.encode()).expect("round trip");
            assert_eq!(decoded.base, meta.base);
            assert_eq!(decoded.has_values, meta.has_values);
        }
    }

    #[test]
    fn corrupt_meta_reads_as_an_error_not_as_absent() {
        let dir = std::env::temp_dir().join(format!("rtx-durable-meta-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert!(read_meta(&dir).unwrap().is_none(), "no manifest yet");

        let meta = Meta {
            base: "RXD".to_string(),
            has_values: false,
        };
        write_meta(&dir, &meta).unwrap();
        assert_eq!(read_meta(&dir).unwrap().unwrap().base, "RXD");

        let mut bytes = meta.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(dir.join(META_FILE), &bytes).unwrap();
        assert!(
            read_meta(&dir).is_err(),
            "corrupt manifest must not look fresh"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_manifest_spelling_the_base_another_way_reopens() {
        let mut registry = Registry::new();
        rtx_delta::register_dynamic(&mut registry, rtx_delta::DynamicRtConfig::default());
        rtx_shard::install_sharding(&mut registry);
        install_durability(&mut registry);
        let device = gpu_device::Device::default_eval();
        let dir = std::env::temp_dir().join(format!("rtx-durable-spelling-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let name = |base: &str| format!("{base}+wal:{}", dir.display());
        let keys = IndexSpec::keys_only(&device, &[5, 6, 7]);
        drop(registry.build_updatable(&name("RXD@2"), &keys).unwrap());
        let meta = Meta {
            base: "RXD@2:hash".to_string(),
            has_values: false,
        };
        write_meta(&dir, &meta).unwrap();

        let empty = IndexSpec::keys_only(&device, &[]);
        let reopened = registry.build_updatable(&name("RXD@2"), &empty).unwrap();
        assert_eq!(reopened.key_count(), 3);
        drop(reopened);
        let err = registry
            .build_updatable(&name("RXD@3"), &empty)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("belongs to backend"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
