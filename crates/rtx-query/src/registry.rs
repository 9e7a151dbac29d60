//! The backend registry: build any index by name.
//!
//! `rtx-query` cannot depend on the backend crates (they depend on it), so
//! the registry is populated at runtime: each backend crate exposes a
//! `register_*` function that installs its builder closures, and the
//! harness composes them into the default registry holding all five
//! backends.
//!
//! # Name grammar
//!
//! Every index is built from a name. [`SpecName::parse`] is the one reader
//! of the grammar and [`SpecName`]'s `Display` its one printer:
//!
//! ```text
//! name        := backend [builder] [shard] [schema] [durability]
//! backend     := "RX" | "HT" | "B+" | "SA" | "RXD" | <any registered name>
//! builder     := ":sah" | ":lbvh"
//! shard       := "@" <count> [":hash" | ":range"]      1 ≤ count ≤ 256
//! schema      := "{" column ("," column)* "}"
//! column      := "u8" | "u16" | "u32" | "u64" | "i64" | "str" <bytes>
//! durability  := "+wal:" <path>
//! ```
//!
//! The parser also takes the builder after the shard production
//! (`"RX@4:sah"`, `"RX@4:range:lbvh"`) and the schema anywhere before the
//! durability production. The printer writes the order above and drops
//! the default `:hash`, so `SpecName::parse(s)?.to_string()` names the same
//! index as `s`. A parsed backend holds no `:`, `@`, `{` or `}`: a name
//! whose text after the backend is not a sequence of productions
//! (`"RX:fast"`, `"RX:lbvh:sah"`, `"RX@4@2"`) is a parse error, which the
//! registry reports as an unknown backend.
//!
//! # Resolution
//!
//! [`Registry::build_backend`] first looks the whole name up verbatim, so a
//! registered `"NULL@4"` wins over the shard production (the shard step
//! looks the backend and count up verbatim again, so it also wins under a
//! builder, schema or durability production: `"NULL@4:sah"`,
//! `"NULL@4{u64}"`). Otherwise it parses the name once and builds from the
//! parsed fields, outermost layer first:
//!
//! 1. **schema** — a brace production, or a schema riding
//!    [`IndexSpec::key_schema`], wraps the build in a typed composite-key
//!    layer (see [`crate::composite`] and [`KeySchema`]); when both are
//!    present they must agree. The layers below work on the encoded keys;
//! 2. **durability** — `"+wal:<path>"` puts the path in
//!    [`IndexSpec::durability`] and hands the rest of the name, printed, to
//!    the durable factory (see [`Registry::set_durable_builder`];
//!    `rtx-durable`'s `install_durability` provides it), which builds it
//!    and wraps it in a WAL-backed index that always takes writes;
//! 3. **shard** — `"@<count>"` hands the backend, with the builder
//!    selection in the spec, to the sharding factory (see
//!    [`Registry::set_sharded_builder`]; `rtx-shard`'s `install_sharding`
//!    provides it), which builds one backend per shard and takes writes
//!    exactly when every shard does;
//! 4. **builder** — `":sah"` / `":lbvh"` rides in [`IndexSpec::builder`];
//!    backends without a BVH (HT, B+, SA) ignore it;
//! 5. **backend** — the registered builder runs. A name nobody registered
//!    fails with [`IndexError::UnknownBackend`] listing every registered
//!    backend.
//!
//! The shard bound, `1 ≤ count ≤` [`MAX_SHARDS`](crate::shard::MAX_SHARDS),
//! is one check ([`check_shard_count`]): the parser applies it to every
//! name, so a hostile count fails before any factory runs, and
//! `ShardedIndex::build` applies it to the specs it is handed directly.
//!
//! # Table specs
//!
//! The table layer reuses this grammar: every
//! [`IndexDef::spec`](crate::table::IndexDef) of a
//! [`TableSchema`](crate::table::TableSchema) is read by the same
//! [`SpecName::parse`] and resolved through [`Registry::build`] each time
//! the table (re)builds that index. One table can therefore mix `"HT"`,
//! `"RX:sah@4:hash"` and `"SA{u32,u32}"` across its columns. The one
//! production a table refuses is durability: a table index is a rebuilt
//! base plus a row-store overlay, so a `"+wal:"` spec fails at load. Use
//! [`Registry::backends`] to enumerate the candidate backends instead of
//! hard-coding them.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use gpu_device::Device;
use rtx_bvh::BuilderKind;

use crate::composite;
use crate::error::IndexError;
use crate::index::{IndexBackend, SecondaryIndex, UpdatableIndex};
use crate::keys::{KeySchema, KeyTuple};
use crate::shard::{check_shard_count, Partitioning, ShardSpec};

/// What to build an index over: the device and the column pair. The
/// position of a key in `keys` is its rowID; `values`, when present, must
/// have the same length and enables value-fetching batches.
///
/// The value column is held behind an [`Arc`] so that building several
/// backends from one spec (e.g. `Registry::build_supported`) shares a
/// single copy instead of duplicating the column per adapter.
#[derive(Debug, Clone)]
pub struct IndexSpec<'a> {
    /// The (simulated) GPU the index lives on.
    pub device: &'a Device,
    /// The indexed key column.
    pub keys: &'a [u64],
    /// The optional value column, shared across every backend built from
    /// this spec.
    pub values: Option<Arc<[u64]>>,
    /// Acceleration-structure builder override, set by a `:sah` / `:lbvh`
    /// name production (see the [module docs](self) for the grammar).
    /// `None` keeps the backend's configured default; backends without a
    /// BVH ignore it.
    pub builder: Option<BuilderKind>,
    /// Durability request, set by a trailing `"+wal:<path>"` name
    /// production (see the [module docs](self)). The durable factory reads
    /// the path; backends that see it set prepare themselves for an
    /// external durability wrapper (e.g. RXD disables autonomous
    /// background-compaction swaps so the wrapper controls the exact swap
    /// points it logs).
    pub durability: Option<DurabilitySpec>,
    /// Typed key schema, set by [`IndexSpec::typed`] (or directly). With a
    /// schema present the registry wraps the build in a composite-key layer
    /// exactly as for a `"{u32,u32,str16}"` brace production in the name;
    /// without one the spec describes the raw-`u64` key column.
    pub key_schema: Option<KeySchema>,
    /// Typed key tuples, one per row, for composite builds (the typed
    /// counterpart of `keys`; exactly one of the two may be non-empty).
    /// Required for wide multi-limb schemas, whose raw `u64` image is
    /// dictionary-assigned; optional for single-limb schemas, where raw
    /// `keys` are accepted as pre-encoded. Shared behind an [`Arc`] like
    /// the value column.
    pub rows: Option<Arc<[KeyTuple]>>,
}

/// The durability request riding in [`IndexSpec::durability`]: where the
/// WAL + snapshot directory lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilitySpec {
    /// Directory holding the WAL segments and snapshots. Created on first
    /// use.
    pub path: PathBuf,
}

impl DurabilitySpec {
    /// A durability request rooted at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        DurabilitySpec { path: path.into() }
    }
}

impl<'a> IndexSpec<'a> {
    /// A spec over a key column without values.
    pub fn keys_only(device: &'a Device, keys: &'a [u64]) -> Self {
        IndexSpec {
            device,
            keys,
            values: None,
            builder: None,
            durability: None,
            key_schema: None,
            rows: None,
        }
    }

    /// A spec over a `(keys, values)` column pair. The value column is
    /// copied once, here; every backend built from this spec shares it.
    pub fn with_values(device: &'a Device, keys: &'a [u64], values: &[u64]) -> Self {
        IndexSpec {
            device,
            keys,
            values: Some(Arc::from(values)),
            builder: None,
            durability: None,
            key_schema: None,
            rows: None,
        }
    }

    /// A spec over typed key tuples without values: each row is one tuple
    /// matching `schema` column for column (the composite counterpart of
    /// [`keys_only`](IndexSpec::keys_only)).
    pub fn typed(device: &'a Device, schema: KeySchema, rows: &[KeyTuple]) -> Self {
        IndexSpec {
            device,
            keys: &[],
            values: None,
            builder: None,
            durability: None,
            key_schema: Some(schema),
            rows: Some(Arc::from(rows)),
        }
    }

    /// A spec over typed key tuples with a value column (the composite
    /// counterpart of [`with_values`](IndexSpec::with_values)).
    pub fn typed_with_values(
        device: &'a Device,
        schema: KeySchema,
        rows: &[KeyTuple],
        values: &[u64],
    ) -> Self {
        IndexSpec {
            device,
            keys: &[],
            values: Some(Arc::from(values)),
            builder: None,
            durability: None,
            key_schema: Some(schema),
            rows: Some(Arc::from(rows)),
        }
    }

    /// The value column as a slice, if present.
    pub fn values(&self) -> Option<&[u64]> {
        self.values.as_deref()
    }

    /// Number of rows the spec describes: typed tuples when present,
    /// otherwise raw keys.
    pub fn row_count(&self) -> usize {
        match &self.rows {
            Some(rows) => rows.len(),
            None => self.keys.len(),
        }
    }

    fn validate(&self) -> Result<(), IndexError> {
        if self.rows.is_some() && !self.keys.is_empty() {
            return Err(IndexError::Backend {
                backend: "spec".into(),
                message: "a spec may carry raw keys or typed rows, not both".to_string(),
            });
        }
        if let Some(values) = &self.values {
            if values.len() != self.row_count() {
                return Err(IndexError::ValueColumnLengthMismatch {
                    expected: self.row_count(),
                    actual: values.len(),
                });
            }
        }
        Ok(())
    }
}

/// The name suffix of a builder selection.
fn builder_suffix(builder: BuilderKind) -> &'static str {
    match builder {
        BuilderKind::Sah => "sah",
        BuilderKind::Lbvh => "lbvh",
    }
}

/// A parsed spec name: every production of the registry grammar (see the
/// [module docs](self)) as a field. [`SpecName::parse`] is the one reader
/// of the grammar and `Display` its one printer; printing and parsing back
/// gives the same value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecName {
    /// The registered backend name (`"RX"`, `"HT"`, ...).
    pub backend: String,
    /// Builder selection (`":sah"` / `":lbvh"`), if any.
    pub builder: Option<BuilderKind>,
    /// Shard count and partitioning (`"@4:range"`), if sharded.
    pub shard: Option<(usize, Partitioning)>,
    /// Typed key schema (`"{u32,u32,str16}"`), if composite.
    pub schema: Option<KeySchema>,
    /// WAL directory (`"+wal:<path>"`), if durable.
    pub wal: Option<PathBuf>,
}

impl SpecName {
    /// Parses a name of the registry grammar into its productions. Accepts
    /// the builder before or after the shard production and the schema
    /// anywhere before `"+wal:"`; `Display` prints the canonical order.
    ///
    /// Fails on an empty backend or path around `"+wal:"`, a malformed or
    /// second key schema, a shard count outside [`check_shard_count`]'s
    /// bound, and a name that is not a backend followed by a sequence of
    /// productions (`"RX:fast"`); [`Registry::build_backend`] reports the
    /// last as [`IndexError::UnknownBackend`] listing every registered
    /// backend.
    pub fn parse(name: &str) -> Result<SpecName, IndexError> {
        SpecName::read(name)?.ok_or_else(|| IndexError::Backend {
            backend: name.into(),
            message: "not a backend followed by a sequence of name productions \
                      (see the registry grammar)"
                .to_string(),
        })
    }

    /// [`parse`](SpecName::parse), with `Ok(None)` for a name that is not
    /// a backend followed by a sequence of productions.
    fn read(name: &str) -> Result<Option<SpecName>, IndexError> {
        let grammar_error = |message: &str| IndexError::Backend {
            backend: name.into(),
            message: message.to_string(),
        };
        // The first "+wal:" splits, so the path may hold any text.
        let (rest, wal) = match name.split_once("+wal:") {
            Some((base, path)) if base.is_empty() || path.is_empty() => {
                return Err(grammar_error(
                    "a durable spec needs both a backend name and a path \
                     (\"<backend>+wal:<path>\")",
                ))
            }
            Some((base, path)) => (base, Some(PathBuf::from(path))),
            None => (name, None),
        };
        let (rest, schema) = match rest.find('{') {
            Some(start) => {
                let end = rest[start..]
                    .find('}')
                    .map(|i| start + i)
                    .ok_or_else(|| grammar_error("unterminated key schema (missing '}')"))?;
                let schema = KeySchema::parse(&rest[start..=end])?;
                (
                    format!("{}{}", &rest[..start], &rest[end + 1..]),
                    Some(schema),
                )
            }
            None => (rest.to_string(), None),
        };
        if rest.contains(['{', '}']) {
            return Err(grammar_error("a spec name holds at most one key schema"));
        }

        let (backend, mut tail) = rest.split_at(rest.find([':', '@']).unwrap_or(rest.len()));
        // A backend ending in "+wal" would print as a durability production
        // in front of a builder suffix.
        if backend.is_empty() || backend.ends_with("+wal") {
            return Ok(None);
        }
        let mut spec = SpecName {
            backend: backend.to_string(),
            schema,
            wal,
            ..SpecName::default()
        };
        // The tail is a run of productions, each opened by '@' or ':'. A
        // partitioning may only follow the shard count.
        let mut count_just_read = false;
        while let Some(mark) = tail.chars().next() {
            let body_end = tail[1..].find([':', '@']).map_or(tail.len(), |i| i + 1);
            let body = &tail[1..body_end];
            tail = &tail[body_end..];
            let after_count = std::mem::take(&mut count_just_read);
            match (mark, body) {
                ('@', count)
                    if spec.shard.is_none()
                        && !count.is_empty()
                        && count.bytes().all(|b| b.is_ascii_digit()) =>
                {
                    // All digits: a count too large for `usize` is out of
                    // bounds, not a different production.
                    let shards = count.parse().unwrap_or(usize::MAX);
                    check_shard_count(name, shards)?;
                    spec.shard = Some((shards, Partitioning::Hash));
                    count_just_read = true;
                }
                (':', "hash") if after_count => {}
                (':', "range") if after_count => {
                    spec.shard = spec.shard.map(|(shards, _)| (shards, Partitioning::Range));
                }
                (':', "sah") if spec.builder.is_none() => spec.builder = Some(BuilderKind::Sah),
                (':', "lbvh") if spec.builder.is_none() => spec.builder = Some(BuilderKind::Lbvh),
                _ => return Ok(None),
            }
        }
        Ok(Some(spec))
    }
}

impl fmt::Display for SpecName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.backend)?;
        if let Some(builder) = self.builder {
            write!(f, ":{}", builder_suffix(builder))?;
        }
        if let Some((count, partitioning)) = self.shard {
            write!(f, "@{count}")?;
            // Hash is the default and prints bare.
            if partitioning == Partitioning::Range {
                write!(f, ":{}", partitioning.name())?;
            }
        }
        if let Some(schema) = &self.schema {
            write!(f, "{schema}")?;
        }
        if let Some(wal) = &self.wal {
            write!(f, "+wal:{}", wal.display())?;
        }
        Ok(())
    }
}

/// Builder of a registered backend: read-only backends come back as
/// [`IndexBackend::Read`], updatable ones as [`IndexBackend::Write`].
pub type IndexBuilder =
    Box<dyn Fn(&IndexSpec<'_>) -> Result<IndexBackend, IndexError> + Send + Sync>;

/// Factory building the shard production (e.g. `"RX@8"`) into a sharded
/// backend, updatable exactly when every shard is. Receives the registry
/// so it can build the inner backends by name; the builder selection rides
/// in the spec.
pub type ShardedBuilder = Box<
    dyn Fn(&Registry, &ShardSpec, &IndexSpec<'_>) -> Result<IndexBackend, IndexError> + Send + Sync,
>;

/// Factory building the `"+wal:<path>"` production into a WAL-backed
/// durable index. Receives the registry, the *base* name (the parsed name
/// without its schema and durability productions, printed) and a spec
/// whose [`IndexSpec::durability`] carries the path; it builds the base and
/// wraps it.
pub type DurableBuilder = Box<
    dyn Fn(&Registry, &str, &IndexSpec<'_>) -> Result<Box<dyn UpdatableIndex>, IndexError>
        + Send
        + Sync,
>;

/// A registered builder and whether what it builds takes writes.
struct Registered {
    build: IndexBuilder,
    updatable: bool,
}

/// Builds any registered backend by name.
#[derive(Default)]
pub struct Registry {
    builders: BTreeMap<String, Registered>,
    sharded: Option<ShardedBuilder>,
    durable: Option<DurableBuilder>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or replaces) the read-only builder for `name`.
    pub fn register<F>(&mut self, name: &str, builder: F)
    where
        F: Fn(&IndexSpec<'_>) -> Result<Box<dyn SecondaryIndex>, IndexError>
            + Send
            + Sync
            + 'static,
    {
        let build = Box::new(move |spec: &IndexSpec<'_>| builder(spec).map(IndexBackend::Read));
        let entry = Registered {
            build,
            updatable: false,
        };
        self.builders.insert(name.to_string(), entry);
    }

    /// Registers (or replaces) the *updatable* builder for `name`. An
    /// updatable index is a secondary index, so [`build`](Registry::build)
    /// serves the name too.
    pub fn register_updatable<F>(&mut self, name: &str, builder: F)
    where
        F: Fn(&IndexSpec<'_>) -> Result<Box<dyn UpdatableIndex>, IndexError>
            + Send
            + Sync
            + 'static,
    {
        let build = Box::new(move |spec: &IndexSpec<'_>| builder(spec).map(IndexBackend::Write));
        let entry = Registered {
            build,
            updatable: true,
        };
        self.builders.insert(name.to_string(), entry);
    }

    /// Installs the sharded-backend factory: with it in place, any name
    /// with a shard production that is not registered verbatim (`"RX@8"`,
    /// `"SA@4:range"`, …) builds a sharded backend over the registry's own
    /// inner builders. `rtx-shard` provides the canonical factory via its
    /// `install_sharding` function.
    pub fn set_sharded_builder(&mut self, sharded: ShardedBuilder) {
        self.sharded = Some(sharded);
    }

    /// True once [`set_sharded_builder`](Registry::set_sharded_builder)
    /// has installed a sharding layer.
    pub fn supports_sharding(&self) -> bool {
        self.sharded.is_some()
    }

    /// Installs the durable-index factory: with it in place, any name with
    /// a trailing `"+wal:<path>"` builds a WAL-backed persistent wrapper
    /// over the base name's backend. `rtx-durable` provides the canonical
    /// factory via its `install_durability` function.
    pub fn set_durable_builder(&mut self, durable: DurableBuilder) {
        self.durable = Some(durable);
    }

    /// Every registered backend name, sorted: the enumeration planners and
    /// examples iterate instead of hard-coding backend names.
    pub fn backends(&self) -> Vec<&str> {
        self.builders.keys().map(String::as_str).collect()
    }

    /// Every registered updatable backend name, sorted.
    pub fn updatable_backends(&self) -> Vec<&str> {
        self.builders
            .iter()
            .filter(|(_, entry)| entry.updatable)
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Builds the backend `name` resolves to over `spec`, read-only or
    /// updatable as the name decides: a name registered verbatim builds
    /// directly, any other is parsed once by [`SpecName::parse`] and built
    /// layer by layer (see the [module docs](self)). Unknown names fail
    /// with an error listing every registered backend.
    pub fn build_backend(
        &self,
        name: &str,
        spec: &IndexSpec<'_>,
    ) -> Result<IndexBackend, IndexError> {
        spec.validate()?;
        let parsed = match self.builders.get(name) {
            // With no schema to wrap it, a registered name builds directly
            // and allocates nothing for the name on the build's peak.
            Some(entry) if spec.key_schema.is_none() && spec.rows.is_none() => {
                return (entry.build)(spec);
            }
            Some(_) => SpecName {
                backend: name.to_string(),
                ..SpecName::default()
            },
            None => SpecName::read(name)?.ok_or_else(|| self.unknown(name))?,
        };
        self.resolve(&parsed, spec)
    }

    /// [`build_backend`](Registry::build_backend) behind the read trait.
    pub fn build(
        &self,
        name: &str,
        spec: &IndexSpec<'_>,
    ) -> Result<Box<dyn SecondaryIndex>, IndexError> {
        Ok(match self.build_backend(name, spec)? {
            IndexBackend::Read(ix) => ix,
            IndexBackend::Write(ix) => ix,
        })
    }

    /// [`build_backend`](Registry::build_backend) behind the write trait:
    /// a name that is unknown, or resolves to a read-only backend, fails
    /// with [`IndexError::UnknownBackend`] listing the updatable backends.
    pub fn build_updatable(
        &self,
        name: &str,
        spec: &IndexSpec<'_>,
    ) -> Result<Box<dyn UpdatableIndex>, IndexError> {
        let unknown = |name: String| IndexError::UnknownBackend {
            name,
            known: self
                .updatable_backends()
                .iter()
                .map(|s| s.to_string())
                .collect(),
        };
        match self.build_backend(name, spec) {
            Ok(IndexBackend::Write(ix)) => Ok(ix),
            Ok(IndexBackend::Read(_)) => Err(unknown(name.to_string())),
            Err(IndexError::UnknownBackend { name, .. }) => Err(unknown(name)),
            Err(err) => Err(err),
        }
    }

    /// Builds a parsed name, outermost layer first: schema, durability,
    /// shard, builder, backend. The composite layer calls this with the
    /// schema taken off the name and the spec, so the inner build never
    /// wraps again.
    pub(crate) fn resolve(
        &self,
        name: &SpecName,
        spec: &IndexSpec<'_>,
    ) -> Result<IndexBackend, IndexError> {
        let schema = match (&name.schema, &spec.key_schema) {
            (Some(named), Some(attached)) if named != attached => {
                return Err(IndexError::Backend {
                    backend: name.to_string().into(),
                    message: format!(
                        "the name carries schema {named} but the spec carries {attached}; \
                         they must agree"
                    ),
                });
            }
            (named, attached) => named.as_ref().or(attached.as_ref()),
        };
        if let Some(schema) = schema {
            let inner = SpecName {
                schema: None,
                ..name.clone()
            };
            return composite::build(self, &inner, spec, schema.clone());
        }
        if spec.rows.is_some() {
            return Err(IndexError::Backend {
                backend: name.to_string().into(),
                message: "typed rows need a key schema (a {...} name production or \
                          IndexSpec::typed)"
                    .to_string(),
            });
        }

        if let Some(path) = &name.wal {
            let base = SpecName {
                wal: None,
                ..name.clone()
            }
            .to_string();
            let factory = self.durable.as_ref().ok_or_else(|| IndexError::Backend {
                backend: name.to_string().into(),
                message: format!(
                    "{base:?} requests durability but no durability layer is installed in \
                     this registry (known backends: {})",
                    self.backends().join(", ")
                ),
            })?;
            let spec = IndexSpec {
                durability: Some(DurabilitySpec::new(path)),
                ..spec.clone()
            };
            return factory(self, &base, &spec).map(IndexBackend::Write);
        }

        let spec = &IndexSpec {
            builder: name.builder.or(spec.builder),
            ..spec.clone()
        };
        if let Some((shards, partitioning)) = name.shard {
            // A backend and shard count registered verbatim win here too,
            // under a builder, schema or durability production
            // (`"NULL@4:sah"`, `"NULL@4{u32}"`) as for the whole name.
            let verbatim = SpecName {
                backend: name.backend.clone(),
                shard: name.shard,
                ..SpecName::default()
            };
            if let Some(entry) = self.builders.get(&verbatim.to_string()) {
                return (entry.build)(spec);
            }
            let factory = self.sharded.as_ref().ok_or_else(|| IndexError::Backend {
                backend: name.to_string().into(),
                message: format!(
                    "{:?} is a sharded spec but no sharding layer is installed in this \
                     registry (known backends: {})",
                    name.to_string(),
                    self.backends().join(", ")
                ),
            })?;
            let shard_spec = ShardSpec {
                backend: name.backend.clone(),
                shards,
                partitioning,
            };
            return factory(self, &shard_spec, spec);
        }
        match self.builders.get(&name.backend) {
            Some(entry) => (entry.build)(spec),
            None => Err(self.unknown(&name.backend)),
        }
    }

    /// Builds every registered backend that supports the spec's key set, in
    /// name order. Backends reporting
    /// [`IndexError::UnsupportedKeySet`] are skipped (the way the paper
    /// omits the B+-tree from duplicate-key and 64-bit experiments); any
    /// other build failure propagates.
    pub fn build_supported(
        &self,
        spec: &IndexSpec<'_>,
    ) -> Result<Vec<Box<dyn SecondaryIndex>>, IndexError> {
        self.build_named(self.backends().as_slice(), spec)
    }

    /// Builds the named backends (in the given order) over `spec`, skipping
    /// those that report [`IndexError::UnsupportedKeySet`].
    pub fn build_named(
        &self,
        names: &[&str],
        spec: &IndexSpec<'_>,
    ) -> Result<Vec<Box<dyn SecondaryIndex>>, IndexError> {
        let mut built = Vec::with_capacity(names.len());
        for name in names {
            match self.build(name, spec) {
                Ok(ix) => built.push(ix),
                Err(err) if err.is_unsupported_key_set() => continue,
                Err(err) => return Err(err),
            }
        }
        Ok(built)
    }

    fn unknown(&self, name: &str) -> IndexError {
        IndexError::UnknownBackend {
            name: name.to_string(),
            known: self.backends().iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("backends", &self.backends())
            .field("updatable_backends", &self.updatable_backends())
            .field("supports_sharding", &self.supports_sharding())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::QueryBatch;
    use crate::types::{BatchOutcome, Capabilities, IndexBuildMetrics, LookupResult};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// A stub backend whose lookups always miss.
    struct NullIndex {
        keys: usize,
    }

    impl SecondaryIndex for NullIndex {
        fn name(&self) -> &str {
            "NULL"
        }
        fn key_count(&self) -> usize {
            self.keys
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
        fn point_chunk(&self, q: &[u64], _f: bool) -> Result<BatchOutcome, IndexError> {
            Ok(BatchOutcome {
                results: vec![LookupResult::miss(); q.len()],
                ..Default::default()
            })
        }
        fn range_chunk(&self, r: &[(u64, u64)], _f: bool) -> Result<BatchOutcome, IndexError> {
            Ok(BatchOutcome {
                results: vec![LookupResult::miss(); r.len()],
                ..Default::default()
            })
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register("NULL", |spec| {
            Ok(Box::new(NullIndex {
                keys: spec.keys.len(),
            }) as Box<dyn SecondaryIndex>)
        });
        r.register("PICKY", |_spec| {
            Err(IndexError::UnsupportedKeySet {
                backend: "PICKY".into(),
                reason: "never supported".into(),
            })
        });
        r
    }

    #[test]
    fn build_by_name_and_unknown_backend() {
        let device = Device::default_eval();
        let r = registry();
        assert_eq!(r.backends(), vec!["NULL", "PICKY"]);
        let ix = r
            .build("NULL", &IndexSpec::keys_only(&device, &[1, 2, 3]))
            .unwrap();
        assert_eq!(ix.key_count(), 3);
        assert_eq!(
            ix.execute(&QueryBatch::new().point(1)).unwrap().hit_count(),
            0
        );

        let err = r
            .build("XX", &IndexSpec::keys_only(&device, &[]))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, IndexError::UnknownBackend { .. }));
        assert!(
            err.to_string().contains("NULL") && err.to_string().contains("PICKY"),
            "unknown-backend errors list every registered backend: {err}"
        );
    }

    #[test]
    fn backends_list_every_registration_sorted() {
        let mut r = registry();
        // Updatable registrations appear too, and the list stays sorted.
        r.register_updatable("AAA", |spec| {
            let keys = spec.keys.len();
            Err::<Box<dyn UpdatableIndex>, _>(IndexError::Backend {
                backend: "AAA".into(),
                message: format!("{keys} keys"),
            })
        });
        assert_eq!(r.backends(), vec!["AAA", "NULL", "PICKY"]);
        assert_eq!(r.updatable_backends(), vec!["AAA"]);
    }

    #[test]
    fn shard_specs_without_a_sharding_layer_fail_with_guidance() {
        let device = Device::default_eval();
        let r = registry();
        assert!(!r.supports_sharding());
        let spec = IndexSpec::keys_only(&device, &[1]);
        let err = r.build("NULL@4", &spec).map(|_| ()).unwrap_err();
        assert!(
            err.to_string().contains("no sharding layer")
                && err.to_string().contains("NULL, PICKY"),
            "{err}"
        );
        let err = r.build_updatable("NULL@4", &spec).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("no sharding layer"), "{err}");
    }

    #[test]
    fn installed_sharded_builders_resolve_shard_specs() {
        let mut r = registry();
        r.set_sharded_builder(Box::new(|registry, shard_spec, spec| {
            // A degenerate "sharded" factory: builds the inner backend once;
            // enough to prove routing, recursion and validation.
            registry.build_backend(&shard_spec.backend, spec)
        }));
        assert!(r.supports_sharding());
        let device = Device::default_eval();
        let spec = IndexSpec::keys_only(&device, &[1, 2]);
        let ix = r.build("NULL@4", &spec).unwrap();
        assert_eq!(ix.key_count(), 2);

        // Unknown inner backends surface the full backend listing.
        let err = r.build("XX@4", &spec).map(|_| ()).unwrap_err();
        assert!(matches!(err, IndexError::UnknownBackend { .. }), "{err}");
        assert!(err.to_string().contains("NULL"));

        // A zero shard count is rejected before the factory runs.
        let err = r.build("NULL@0", &spec).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");

        // Exact registrations always win over shard-spec parsing.
        r.register("NULL@4", |spec| {
            Ok(Box::new(NullIndex {
                keys: spec.keys.len() + 100,
            }) as Box<dyn SecondaryIndex>)
        });
        assert_eq!(r.build("NULL@4", &spec).unwrap().key_count(), 102);
        // ... under a builder, schema or durability production too, but not
        // for another partitioning.
        for name in ["NULL@4:sah", "NULL:lbvh@4", "NULL@4:hash", "NULL@4{u64}"] {
            assert_eq!(r.build(name, &spec).unwrap().key_count(), 102, "{name}");
        }
        assert_eq!(r.build("NULL@4:range", &spec).unwrap().key_count(), 2);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        r.set_durable_builder(Box::new(move |_, base, _| {
            log.lock().unwrap().push(base.to_string());
            Err(IndexError::Backend {
                backend: base.into(),
                message: "stub".into(),
            })
        }));
        assert!(r.build("NULL@4+wal:/p", &spec).is_err());
        assert_eq!(*seen.lock().unwrap(), ["NULL@4"]);
    }

    #[test]
    fn builder_suffixes_parse_and_ride_the_spec() {
        // A registry backend observes the selection through the spec.
        let mut r = Registry::new();
        r.register("PROBE", |spec| {
            Ok(Box::new(NullIndex {
                keys: match spec.builder {
                    Some(BuilderKind::Sah) => 1,
                    Some(BuilderKind::Lbvh) => 2,
                    None => 0,
                },
            }) as Box<dyn SecondaryIndex>)
        });
        let device = Device::default_eval();
        let spec = IndexSpec::keys_only(&device, &[]);
        assert_eq!(r.build("PROBE", &spec).unwrap().key_count(), 0);
        assert_eq!(r.build("PROBE:sah", &spec).unwrap().key_count(), 1);
        assert_eq!(r.build("PROBE:lbvh", &spec).unwrap().key_count(), 2);
        // Unknown bases still fail with the full backend listing.
        let err = r.build("XX:sah", &spec).map(|_| ()).unwrap_err();
        assert!(matches!(err, IndexError::UnknownBackend { .. }), "{err}");
        // Only one builder suffix may resolve: a second is rejected, never
        // silently dropped.
        let err = r.build("PROBE:lbvh:sah", &spec).map(|_| ()).unwrap_err();
        assert!(matches!(err, IndexError::UnknownBackend { .. }), "{err}");
        let err = r
            .build_updatable("PROBE:lbvh:sah", &spec)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, IndexError::UnknownBackend { .. }), "{err}");

        // The suffix composes with sharding: the inner resolution sees the
        // builder via the spec handed to the factory.
        r.set_sharded_builder(Box::new(|registry, shard_spec, spec| {
            registry.build_backend(&shard_spec.backend, spec)
        }));
        assert_eq!(r.build("PROBE:sah@4", &spec).unwrap().key_count(), 1);
        assert_eq!(r.build("PROBE@4:sah", &spec).unwrap().key_count(), 1);
        assert_eq!(r.build("PROBE@4:range:lbvh", &spec).unwrap().key_count(), 2);
    }

    #[test]
    fn durable_suffix_routes_to_the_installed_factory() {
        let mut r = registry();
        let device = Device::default_eval();
        let spec = IndexSpec::keys_only(&device, &[1]);
        let err = r.build("NULL+wal:/tmp/x", &spec).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("no durability layer"), "{err}");

        // A probe factory: verifies the stripped base name and the path
        // riding in the spec reach the factory intact.
        r.set_durable_builder(Box::new(|_, base, spec| {
            let d = spec.durability.as_ref().expect("durability rides the spec");
            Err(IndexError::Backend {
                backend: base.into(),
                message: format!("wal at {}", d.path.display()),
            })
        }));
        let err = r
            .build_updatable("NULL+wal:/tmp/x", &spec)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("wal at /tmp/x"), "{err}");
        let err = r.build("NULL+wal:/tmp/x", &spec).map(|_| ()).unwrap_err();
        assert!(matches!(err, IndexError::Backend { backend, .. } if &*backend == "NULL"));

        // Degenerate specs are rejected before the factory runs.
        let err = r.build("NULL+wal:", &spec).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("needs both"), "{err}");
        let err = r.build_updatable("+wal:/p", &spec).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("needs both"), "{err}");
    }

    #[test]
    fn build_supported_skips_unsupported_key_sets() {
        let device = Device::default_eval();
        let built = registry()
            .build_supported(&IndexSpec::keys_only(&device, &[1]))
            .unwrap();
        assert_eq!(built.len(), 1);
        assert_eq!(built[0].name(), "NULL");
    }

    #[test]
    fn specs_validate_value_column_length() {
        let device = Device::default_eval();
        let err = registry()
            .build(
                "NULL",
                &IndexSpec {
                    device: &device,
                    keys: &[1, 2],
                    values: Some(Arc::from(&[9u64][..])),
                    builder: None,
                    durability: None,
                    key_schema: None,
                    rows: None,
                },
            )
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err,
            IndexError::ValueColumnLengthMismatch {
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn updatable_registrations_also_serve_read_only_builds() {
        // No updatable backend registered here: the lookup must fail with
        // the updatable-specific known list.
        let r = registry();
        let device = Device::default_eval();
        let err = r
            .build_updatable("NULL", &IndexSpec::keys_only(&device, &[]))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, IndexError::UnknownBackend { known, .. } if known.is_empty()));
    }

    #[test]
    fn spec_names_parse_every_production_and_print_canonically() {
        let parsed = SpecName::parse("RX:lbvh@8:range{u32,str16}+wal:/p").unwrap();
        assert_eq!(parsed.backend, "RX");
        assert_eq!(parsed.builder, Some(BuilderKind::Lbvh));
        assert_eq!(parsed.shard, Some((8, Partitioning::Range)));
        assert_eq!(
            parsed.schema,
            Some(KeySchema::parse("{u32,str16}").unwrap())
        );
        assert_eq!(parsed.wal, Some(PathBuf::from("/p")));
        assert_eq!(
            SpecName::parse("RX").unwrap(),
            SpecName {
                backend: "RX".into(),
                ..SpecName::default()
            }
        );

        // The builder may follow the shard, the schema may sit anywhere
        // before "+wal:", the default ":hash" prints bare, and the path is
        // opaque.
        for (name, printed) in [
            ("RX@8:sah", "RX:sah@8"),
            ("RX@4:range:lbvh", "RX:lbvh@4:range"),
            ("B+@2:hash", "B+@2"),
            ("RX:sah@4:hash{u32,u32,str16}", "RX:sah@4{u32,u32,str16}"),
            ("RX{u32,u32}:sah@4", "RX:sah@4{u32,u32}"),
            ("RXD:sah@4:hash+wal:/p", "RXD:sah@4+wal:/p"),
            ("RXD{u64,u64}+wal:/tmp/x", "RXD{u64,u64}+wal:/tmp/x"),
            ("RX+wal:/a{b}@2+wal:c", "RX+wal:/a{b}@2+wal:c"),
        ] {
            assert_eq!(
                SpecName::parse(name).unwrap().to_string(),
                printed,
                "{name}"
            );
        }

        for name in "RX{u32 RX{nope} RX{u32}{u32} RX} NULL+wal: +wal:/p".split(' ') {
            let err = SpecName::parse(name).unwrap_err();
            assert!(matches!(err, IndexError::Backend { .. }), "{name}: {err}");
        }
        // Text after the backend that is not a run of productions: the
        // parser says so, and the registry reports an unknown backend with
        // every registered backend listed.
        let r = registry();
        let device = Device::default_eval();
        let spec = IndexSpec::keys_only(&device, &[]);
        let unknown = "RX:fast :sah RX:sah:lbvh @8 RX@ RX@x RX@8:zigzag RX@8: RX@4@2 \
                       RX:sah:range RX+wal@4:sah {u32}";
        for name in unknown.split(' ') {
            let err = SpecName::parse(name).unwrap_err();
            assert!(
                err.to_string().contains("name productions"),
                "{name}: {err}"
            );
            let err = r.build_backend(name, &spec).map(|_| ()).unwrap_err();
            let listed = matches!(&err, IndexError::UnknownBackend { known, .. } if known == &["NULL", "PICKY"]);
            assert!(listed, "{name}: {err}");
        }
    }

    #[test]
    fn a_named_schema_must_agree_with_the_spec() {
        let r = registry();
        let device = Device::default_eval();
        let typed = IndexSpec::typed(&device, KeySchema::parse("{u64}").unwrap(), &[]);
        assert_eq!(r.build("NULL{u64}", &typed).unwrap().name(), "NULL{u64}");
        assert_eq!(r.build("NULL", &typed).unwrap().name(), "NULL{u64}");
        let err = r.build("NULL{u32}", &typed).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("must agree"), "{err}");
        let untyped = IndexSpec {
            key_schema: None,
            ..typed
        };
        let err = r.build("NULL", &untyped).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("need a key schema"), "{err}");
    }

    #[test]
    fn hostile_shard_counts_fail_before_any_factory_runs() {
        let mut r = registry();
        r.set_sharded_builder(Box::new(|_, shard_spec, _| {
            panic!("the factory ran for {} shards", shard_spec.shards)
        }));
        let device = Device::default_eval();
        let spec = IndexSpec::keys_only(&device, &[1]);
        for name in [
            "NULL@0",
            "NULL@257",
            "NULL@4000000000",
            "NULL@99999999999999999999999",
            "NULL:sah@0:range",
        ] {
            let err = r.build(name, &spec).map(|_| ()).unwrap_err();
            assert!(
                err.to_string().contains("at least 1 and at most 256"),
                "{name}: {err}"
            );
            assert!(SpecName::parse(name).is_err(), "{name}");
        }
        assert_eq!(
            SpecName::parse("NULL@256").unwrap().shard,
            Some((256, Partitioning::Hash))
        );
    }

    /// Registry of the grammar fuzz: stub backends only, a sharding factory
    /// that builds the inner backend once and no durability layer, so no
    /// name allocates per shard or touches the disk.
    fn fuzz_registry() -> Registry {
        let mut r = registry();
        for name in ["RX", "RXD", "B+", "HT", "SA"] {
            r.register(name, |_| {
                Ok(Box::new(NullIndex { keys: 0 }) as Box<dyn SecondaryIndex>)
            });
        }
        r.set_sharded_builder(Box::new(|registry, shard_spec, spec| {
            assert!((1..=crate::shard::MAX_SHARDS).contains(&shard_spec.shards));
            registry.build_backend(&shard_spec.backend, spec)
        }));
        r
    }

    /// Joins random tokens of the grammar's alphabet, whole productions
    /// among them, after a backend or junk token into names, and feeds
    /// each to `SpecName::parse` and `Registry::build_backend`: neither
    /// panics, every parsed name prints to a name that parses back to the
    /// same value, and every name the parser refuses the registry refuses
    /// too (unless it is registered verbatim). Enough names parse and build
    /// that the property is not vacuous.
    fn fuzz_grammar(cases: u32, seed: &str) {
        // '|'-separated, so that a space is a token too.
        const HEADS: &str = "RX|RXD|B+|SA|NULL||@|{u32}";
        const TOKENS: &str = ":sah|:lbvh|@4|@16|@256|:hash|:range|{u32,u32}|{str8,u64}|\
            +wal:fuzz-dir|@0|@257|@4000000000|@99999999999999999999|@|:|sah|range|{|}|u8|i64|\
            str40|,|+wal:|+wal|+|wal|RX|B+|0|1|4| |{u64}|{str8}|{u32,}";
        let heads: Vec<&str> = HEADS.split('|').collect();
        let tokens: Vec<&str> = TOKENS.split('|').collect();
        let registry = fuzz_registry();
        let device = Device::default_eval();
        let spec = IndexSpec::keys_only(&device, &[]);
        let names = (0..heads.len(), prop::collection::vec(0..tokens.len(), 0..6));
        let mut rng = TestRng::deterministic(seed);
        let (mut parsed_ok, mut built_ok) = (0, 0);
        for _ in 0..cases {
            let (head, tail) = names.generate(&mut rng);
            let name: String = std::iter::once(heads[head])
                .chain(tail.into_iter().map(|t| tokens[t]))
                .collect();
            let parsed = SpecName::parse(&name);
            if let Ok(parsed) = &parsed {
                parsed_ok += 1;
                let printed = parsed.to_string();
                assert_eq!(
                    SpecName::parse(&printed).as_ref(),
                    Ok(parsed),
                    "{name:?} → {printed:?}"
                );
            }
            let built = registry.build_backend(&name, &spec);
            built_ok += built.is_ok() as u32;
            if parsed.is_err() && !registry.backends().contains(&name.as_str()) {
                assert!(
                    built.is_err(),
                    "{name:?}: the parser refused what the registry built"
                );
            }
        }
        assert!(
            parsed_ok * 5 > cases && built_ok * 10 > cases,
            "{parsed_ok} parsed, {built_ok} built of {cases}"
        );
    }

    #[test]
    fn grammar_fuzz_never_panics_and_round_trips() {
        fuzz_grammar(2_000, "registry::grammar_fuzz");
    }

    /// The long sweep of the grammar fuzz; run it in release:
    /// `cargo test --release -p rtx-query -- --ignored grammar`.
    #[test]
    #[ignore]
    fn grammar_fuzz_sweep() {
        fuzz_grammar(20_000, "registry::grammar_fuzz_sweep");
    }
}
