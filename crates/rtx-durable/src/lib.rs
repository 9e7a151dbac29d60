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
//! Two wrappers share the machinery:
//!
//! * [`DurableIndex`] — one WAL + snapshot chain around one backend;
//! * [`ShardedDurableIndex`] — per-shard WALs plus a root commit journal
//!   around a [`ShardedIndex`](rtx_shard::ShardedIndex); shards recover in
//!   parallel on the worker pool and a crash between a shard append and
//!   the root commit rolls the whole batch back.
//!
//! [`install_durability`] hooks both into a [`Registry`], after which the
//! trailing `"+wal:<path>"` name production builds them:
//!
//! ```text
//! "RXD+wal:/data/ix"            one durable RXD
//! "RXD:sah@4:hash+wal:/data/ix" four durable hash-routed shards
//! ```
//!
//! The same name *creates* state on first use (non-empty build columns)
//! and *reopens* it afterwards (empty build columns — the snapshot + WAL
//! are the truth; building over existing state is refused). A `META`
//! manifest in the directory records which wrapper owns it, the base
//! backend name, and — sharded — the router, whose range partition bounds
//! cannot be re-derived once the original build column is gone.

pub mod config;
pub mod durable;
pub mod record;
pub mod sharded;
pub mod snapshot;
pub mod wal;

use std::fs::{self, File};
use std::io::{self, Read as _, Write as _};
use std::path::Path;

use rtx_query::{IndexError, IndexSpec, Registry, SecondaryIndex, ShardSpec, UpdatableIndex};
use rtx_shard::RouterConfig;

pub use config::{DurableConfig, FsyncPolicy};
pub use durable::DurableIndex;
pub use record::{crc32, decode_stream, WalPayload, WalRecord};
pub use sharded::ShardedDurableIndex;
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
                      production or IndexSpec::with_durability)"
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
            if meta.base != base {
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
            match meta.router {
                Some(router) => ShardedDurableIndex::open(
                    registry,
                    base,
                    spec,
                    &dir,
                    config,
                    router,
                    meta.has_values,
                )
                .map(|ix| Box::new(ix) as Box<dyn UpdatableIndex>),
                None => DurableIndex::open(registry, base, spec, &dir, config)
                    .map(|ix| Box::new(ix) as Box<dyn UpdatableIndex>),
            }
        }
        None => {
            let verbatim = registry.updatable_backends().contains(&base);
            let sharded =
                !verbatim && registry.supports_sharding() && ShardSpec::parse(base).is_some();
            if sharded {
                let ix = ShardedDurableIndex::create(registry, base, spec, &dir, config)?;
                let meta = Meta {
                    base: base.to_string(),
                    has_values: ix.has_value_column(),
                    router: Some(ix.inner().router_config().clone()),
                };
                write_meta(&dir, &meta).map_err(|e| io_err(&label, e))?;
                Ok(Box::new(ix))
            } else {
                let ix = DurableIndex::create(registry, base, spec, &dir, config)?;
                let meta = Meta {
                    base: base.to_string(),
                    has_values: ix.has_value_column(),
                    router: None,
                };
                write_meta(&dir, &meta).map_err(|e| io_err(&label, e))?;
                Ok(Box::new(ix))
            }
        }
    }
}

// --- the META manifest ---------------------------------------------------

const META_MAGIC: u32 = 0x5258_444D; // "RXDM"
const META_FILE: &str = "META";

/// What the manifest records: which wrapper owns the directory (`router`
/// present → sharded), the base backend name, and whether a value column
/// exists.
struct Meta {
    base: String,
    has_values: bool,
    router: Option<RouterConfig>,
}

impl Meta {
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.push(self.router.is_some() as u8);
        body.push(self.has_values as u8);
        put_u32(&mut body, self.base.len() as u32);
        body.extend_from_slice(self.base.as_bytes());
        match &self.router {
            None => {}
            Some(RouterConfig::Hash { shards }) => {
                body.push(0);
                record::put_u64(&mut body, *shards as u64);
            }
            Some(RouterConfig::Range { bounds }) => {
                body.push(1);
                record::put_u64(&mut body, bounds.len() as u64);
                for &b in bounds {
                    record::put_u64(&mut body, b);
                }
            }
            Some(RouterConfig::WeightedHash { shards, slots }) => {
                body.push(2);
                record::put_u64(&mut body, *shards as u64);
                record::put_u64(&mut body, slots.len() as u64);
                for &slot in slots {
                    record::put_u64(&mut body, slot as u64);
                }
            }
        }
        let mut file = Vec::with_capacity(body.len() + 16);
        put_u32(&mut file, META_MAGIC);
        put_u32(&mut file, crc32(&body));
        put_u32(&mut file, body.len() as u32);
        file.extend_from_slice(&body);
        file
    }

    fn decode(buf: &[u8]) -> Option<Meta> {
        let mut r = Reader { buf, pos: 0 };
        if r.u32()? != META_MAGIC {
            return None;
        }
        let crc = r.u32()?;
        let len = r.u32()? as usize;
        let body = r.bytes(len)?;
        if crc32(body) != crc {
            return None;
        }
        let mut b = Reader { buf: body, pos: 0 };
        let sharded = b.u8()? != 0;
        let has_values = b.u8()? != 0;
        let base_len = b.u32()? as usize;
        let base = String::from_utf8(b.bytes(base_len)?.to_vec()).ok()?;
        let router = if sharded {
            Some(match b.u8()? {
                0 => RouterConfig::Hash {
                    shards: b.u64()? as usize,
                },
                1 => {
                    let n = b.u64()? as usize;
                    RouterConfig::Range { bounds: b.u64s(n)? }
                }
                2 => {
                    let shards = b.u64()? as usize;
                    let n = b.u64()? as usize;
                    let slots: Vec<u32> = b
                        .u64s(n)?
                        .into_iter()
                        .map(u32::try_from)
                        .collect::<Result<_, _>>()
                        .ok()?;
                    if slots.iter().any(|&s| s as usize >= shards.max(1)) {
                        return None;
                    }
                    RouterConfig::WeightedHash { shards, slots }
                }
                _ => return None,
            })
        } else {
            None
        };
        if b.pos != b.buf.len() {
            return None;
        }
        Some(Meta {
            base,
            has_values,
            router,
        })
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
    Meta::decode(&buf).map(Some).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt durable manifest at {}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips_for_both_wrapper_kinds() {
        for router in [
            None,
            Some(RouterConfig::Hash { shards: 4 }),
            Some(RouterConfig::Range {
                bounds: vec![100, 200, 300],
            }),
            Some(RouterConfig::WeightedHash {
                shards: 3,
                slots: (0..rtx_shard::WEIGHTED_HASH_SLOTS as u32)
                    .map(|i| i % 3)
                    .collect(),
            }),
        ] {
            let meta = Meta {
                base: "RXD:sah@4:hash".to_string(),
                has_values: true,
                router: router.clone(),
            };
            let decoded = Meta::decode(&meta.encode()).expect("round trip");
            assert_eq!(decoded.base, meta.base);
            assert_eq!(decoded.has_values, meta.has_values);
            assert_eq!(decoded.router, router);
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
            router: None,
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
}
