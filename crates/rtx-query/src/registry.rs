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
//! [`Registry::build_backend`] resolves a backend name once, production by
//! production, into an [`IndexBackend`] — read-only or updatable as the
//! name decides; [`Registry::build`] and [`Registry::build_updatable`] are
//! views of it behind the read and the write trait:
//!
//! ```text
//! name        := backend [builder] [shard] [schema] [durability]
//! backend     := "RX" | "HT" | "B+" | "SA" | "RXD" | <any registered name>
//! builder     := ":sah" | ":lbvh"
//! shard       := "@" <count> [":hash" | ":range"]
//! schema      := "{" column ("," column)* "}"
//! column      := "u8" | "u16" | "u32" | "u64" | "i64" | "str" <bytes>
//! durability  := "+wal:" <path>
//! ```
//!
//! −1. **key schema** — a brace-enclosed column list anywhere in the name
//!    (canonically after the shard production:
//!    `"RX:sah@4:hash{u32,u32,str16}"`) is stripped *first* and wraps the
//!    whole resolution in a typed composite-key layer (see
//!    [`crate::composite`] and [`KeySchema`]); the
//!    remaining productions resolve below it, so sharding and durability
//!    operate on the *encoded* key space. A schema set programmatically via
//!    [`IndexSpec::with_schema`] behaves identically;
//! 0. **durability** — a trailing `"+wal:<path>"` (the outermost
//!    production: `"RXD+wal:/data/ix"`, `"RXD:sah@4:hash+wal:/data/ix"`)
//!    strips the suffix, records the path in [`IndexSpec::durability`] and
//!    delegates the whole build to the installed durable factory (see
//!    [`Registry::set_durable_builder`]; `rtx-durable` provides the
//!    canonical factory via its `install_durability` function), which
//!    resolves the base name recursively and wraps it in a WAL-backed
//!    persistent index, which always takes writes;
//! 1. **verbatim** — a name registered exactly always wins (`"RX"`);
//! 2. **sharding** — a name containing `@` parses as a
//!    [`ShardSpec`] (`"RX@8"`, `"SA@4:range"`) when a sharding layer is
//!    installed; the part before `@` resolves recursively, so builder
//!    suffixes compose with sharding (`"RX:sah@8:range"`), and the sharded
//!    index takes writes exactly when every shard does;
//! 3. **builder selection** — a `:sah` / `:lbvh` suffix
//!    ([`parse_builder_name`]) selects the acceleration-structure builder
//!    and resolves the rest of the name recursively: `"RX:lbvh"`,
//!    `"RXD:sah"`. The selection rides in [`IndexSpec::builder`]; backends
//!    without a BVH (HT, B+, SA) ignore it.
//!
//! # Table specs
//!
//! The table layer reuses this grammar: every
//! [`IndexDef::spec`](crate::table::IndexDef) of a
//! [`TableSchema`](crate::table::TableSchema) is a name in the grammar
//! above, resolved through [`Registry::build`] each time the table
//! (re)builds that index. One table can therefore mix `"HT"`,
//! `"RX:sah@4:hash"` and `"SA{u32,u32}"` across its columns. The one
//! production a table refuses is durability: a table index is a rebuilt
//! base plus a row-store overlay, so a `"+wal:"` spec fails at load. Use
//! [`Registry::names`] to enumerate the candidate backends instead of
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
use crate::shard::{Partitioning, ShardSpec};

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
    /// name suffix (see the [module docs](self) for the grammar) or by
    /// [`IndexSpec::with_builder`]. `None` keeps the backend's configured
    /// default; backends without a BVH ignore it.
    pub builder: Option<BuilderKind>,
    /// Durability request, set by a trailing `"+wal:<path>"` name suffix
    /// (the outermost grammar production — see the [module docs](self)).
    /// The durable factory reads the path; backends that see it set prepare
    /// themselves for an external durability wrapper (e.g. RXD disables
    /// autonomous background-compaction swaps so the wrapper controls the
    /// exact swap points it logs).
    pub durability: Option<DurabilitySpec>,
    /// Typed key schema, set by a `"{u32,u32,str16}"` brace production in
    /// the name or by [`IndexSpec::with_schema`]. With a schema present the
    /// registry wraps the build in a composite-key layer (see the
    /// [module docs](self) grammar); without one the spec describes the
    /// legacy raw-`u64` key column.
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

    /// Returns the spec with a typed key schema attached (the programmatic
    /// equivalent of the `"{...}"` brace production in a name). When a name
    /// also carries a brace production the two must agree.
    pub fn with_schema(mut self, schema: KeySchema) -> Self {
        self.key_schema = Some(schema);
        self
    }

    /// Returns the spec with an explicit builder selection (the
    /// programmatic equivalent of the `:sah` / `:lbvh` name suffix).
    pub fn with_builder(mut self, builder: BuilderKind) -> Self {
        self.builder = Some(builder);
        self
    }

    /// Returns the spec with a durability request attached (how the
    /// `"+wal:<path>"` name production records its path). Building a
    /// backend directly from such a spec does *not* wrap it — name
    /// resolution through the `+wal:` suffix (or the `rtx-durable` API)
    /// does; a bare backend seeing the request merely prepares itself for
    /// an external durability wrapper.
    pub fn with_durability(mut self, durability: DurabilitySpec) -> Self {
        self.durability = Some(durability);
        self
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

impl fmt::Display for IndexSpec<'_> {
    /// The grammar productions riding this spec — builder suffix, key
    /// schema, durability — in canonical order. Append to a backend name
    /// to reprint a full spec name for logs or `ExplainPlan` (or go
    /// through [`SpecName`] to round-trip shard counts too).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(builder) = self.builder {
            write!(f, ":{}", builder_suffix(builder))?;
        }
        if let Some(schema) = &self.key_schema {
            write!(f, "{schema}")?;
        }
        if let Some(durability) = &self.durability {
            write!(f, "+wal:{}", durability.path.display())?;
        }
        Ok(())
    }
}

/// The name suffix of a builder selection (inverse of
/// [`parse_builder_name`]).
fn builder_suffix(builder: BuilderKind) -> &'static str {
    match builder {
        BuilderKind::Sah => "sah",
        BuilderKind::Lbvh => "lbvh",
    }
}

/// A fully parsed spec name: every production of the registry grammar as a
/// structured value, with a [`Display`](fmt::Display) that reprints the
/// canonical name — so `SpecName::parse(s).to_string()` resolves to the
/// same index as `s` for every grammatical name.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// every order [`Registry::build`] accepts (builder before or after the
    /// shard production, schema anywhere); [`Display`](fmt::Display)
    /// reprints the canonical order.
    pub fn parse(name: &str) -> Result<SpecName, IndexError> {
        let (rest, wal) = match parse_durable_name(name) {
            Some((base, path)) => (base.to_string(), Some(PathBuf::from(path))),
            None => (name.to_string(), None),
        };
        let (rest, schema) = match composite::parse_schema_name(&rest)? {
            Some((rest, schema)) => (rest, Some(schema)),
            None => (rest, None),
        };
        let (rest, shard) = match ShardSpec::parse(&rest) {
            Some(spec) => (spec.backend.clone(), Some((spec.shards, spec.partitioning))),
            None => (rest, None),
        };
        let (backend, builder, shard) = match parse_builder_name(&rest) {
            // The builder suffix may follow the shard production
            // ("RX@4:sah"); in that case the shard spec hides inside the
            // builder's base.
            Some((base, kind)) => match (&shard, ShardSpec::parse(base)) {
                (None, Some(spec)) => (
                    spec.backend.clone(),
                    Some(kind),
                    Some((spec.shards, spec.partitioning)),
                ),
                _ => (base.to_string(), Some(kind), shard),
            },
            None => (rest, None, shard),
        };
        if backend.is_empty() {
            return Err(IndexError::Backend {
                backend: name.to_string().into(),
                message: "a spec name needs a backend before its suffix productions".to_string(),
            });
        }
        Ok(SpecName {
            backend,
            builder,
            shard,
            schema,
            wal,
        })
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
            // Hash is the default and prints bare, matching `ShardSpec`.
            if partitioning == Partitioning::Range {
                write!(f, ":range")?;
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

/// Factory resolving a parsed [`ShardSpec`] (e.g. `"RX@8"`) into a sharded
/// backend, updatable exactly when every shard is. Receives the registry
/// so it can build the inner backends by name.
pub type ShardedBuilder = Box<
    dyn Fn(&Registry, &ShardSpec, &IndexSpec<'_>) -> Result<IndexBackend, IndexError> + Send + Sync,
>;

/// Factory resolving a `"+wal:<path>"`-suffixed name into a WAL-backed
/// durable index. Receives the registry, the *base* name (everything
/// before `+wal:`) and a spec whose [`IndexSpec::durability`] carries the
/// path; it resolves the base recursively and wraps it.
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
    /// that is not registered verbatim but parses as a [`ShardSpec`]
    /// (`"RX@8"`, `"SA@4:range"`, …) builds a sharded backend over the
    /// registry's own inner builders. `rtx-shard` provides the canonical
    /// factory via its `install_sharding` function.
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

    /// True once [`set_durable_builder`](Registry::set_durable_builder)
    /// has installed a durability layer.
    pub fn supports_durability(&self) -> bool {
        self.durable.is_some()
    }

    /// Every registered backend name, sorted.
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

    /// Every registered backend name as an owned, sorted list — the
    /// enumeration planners and examples iterate instead of hard-coding
    /// backend names (the borrowing equivalent is
    /// [`backends`](Registry::backends)).
    pub fn names(&self) -> Vec<String> {
        self.builders.keys().cloned().collect()
    }

    /// Builds the backend `name` resolves to over `spec`, read-only or
    /// updatable as the name decides.
    ///
    /// The name resolves once, production by production (see the
    /// [module docs](self) grammar): a `"{...}"` key-schema production (or
    /// a schema attached via [`IndexSpec::with_schema`]) wraps the whole
    /// build in a typed composite-key layer; a `"+wal:<path>"` suffix hands
    /// the base name to the durable factory; a name registered verbatim
    /// builds directly; a name with `@` goes to the sharding factory (see
    /// [`ShardSpec::parse`]); a `:sah` / `:lbvh` suffix (see
    /// [`parse_builder_name`]) selects the builder and resolves the rest.
    /// Truly unknown names fail with an error listing every registered
    /// backend.
    pub fn build_backend(
        &self,
        name: &str,
        spec: &IndexSpec<'_>,
    ) -> Result<IndexBackend, IndexError> {
        spec.validate()?;
        match self.extract_schema(name, spec)? {
            Some((rest, schema)) => composite::build(self, &rest, spec, schema),
            None => self.resolve(name, spec),
        }
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

    /// The schema-free resolution core behind
    /// [`build_backend`](Registry::build_backend): durability, verbatim,
    /// sharding, then builder-suffix recursion. The composite layer calls
    /// this with a schema-stripped name and spec so the inner backends
    /// never re-wrap.
    pub(crate) fn resolve(
        &self,
        name: &str,
        spec: &IndexSpec<'_>,
    ) -> Result<IndexBackend, IndexError> {
        if let Some((base, path)) = parse_durable_name(name) {
            return self
                .build_durable(base, path, spec)
                .map(IndexBackend::Write);
        }
        if let Some(entry) = self.builders.get(name) {
            return (entry.build)(spec);
        }
        if let Some(shard_spec) = ShardSpec::parse(name) {
            let factory = self.sharded.as_ref().ok_or_else(|| self.unsharded(name))?;
            self.validate_shard_spec(&shard_spec)?;
            return factory(self, &shard_spec, spec);
        }
        // At most one builder suffix resolves: with a selection already in
        // the spec, a further suffix (e.g. "RX:lbvh:sah") falls through to
        // the unknown-backend error instead of silently picking one.
        if spec.builder.is_none() {
            if let Some((base, kind)) = parse_builder_name(name) {
                return self.resolve(base, &spec.clone().with_builder(kind));
            }
        }
        Err(self.unknown(name))
    }

    /// Resolves the key-schema production for a build: a brace production
    /// in the name wins (and must agree with any schema riding the spec);
    /// otherwise the spec's own schema applies to the whole name. Typed
    /// rows without any schema are an error — they cannot be interpreted.
    fn extract_schema(
        &self,
        name: &str,
        spec: &IndexSpec<'_>,
    ) -> Result<Option<(String, KeySchema)>, IndexError> {
        if let Some((rest, schema)) = composite::parse_schema_name(name)? {
            if let Some(attached) = &spec.key_schema {
                if *attached != schema {
                    return Err(IndexError::Backend {
                        backend: name.to_string().into(),
                        message: format!(
                            "the name carries schema {schema} but the spec carries {attached}; \
                             they must agree"
                        ),
                    });
                }
            }
            return Ok(Some((rest, schema)));
        }
        if let Some(schema) = &spec.key_schema {
            return Ok(Some((name.to_string(), schema.clone())));
        }
        if spec.rows.is_some() {
            return Err(IndexError::Backend {
                backend: name.to_string().into(),
                message: "typed rows need a key schema (a {...} name production or \
                          IndexSpec::with_schema)"
                    .to_string(),
            });
        }
        Ok(None)
    }

    /// Resolves a stripped `"+wal:"` production: records the path in the
    /// spec and delegates to the installed durable factory.
    fn build_durable(
        &self,
        base: &str,
        path: &str,
        spec: &IndexSpec<'_>,
    ) -> Result<Box<dyn UpdatableIndex>, IndexError> {
        let factory = self.durable.as_ref().ok_or_else(|| IndexError::Backend {
            backend: format!("{base}+wal:{path}").into(),
            message: format!(
                "{base:?} requests durability but no durability layer is installed in this \
                 registry (known backends: {})",
                self.backends().join(", ")
            ),
        })?;
        if base.is_empty() || path.is_empty() {
            return Err(IndexError::Backend {
                backend: format!("{base}+wal:{path}").into(),
                message: "a durable spec needs both a backend name and a path \
                          (\"<backend>+wal:<path>\")"
                    .to_string(),
            });
        }
        let spec = spec.clone().with_durability(DurabilitySpec::new(path));
        factory(self, base, &spec)
    }

    fn validate_shard_spec(&self, spec: &ShardSpec) -> Result<(), IndexError> {
        if spec.shards == 0 {
            return Err(IndexError::Backend {
                backend: spec.name().into(),
                message: "shard count must be at least 1".to_string(),
            });
        }
        Ok(())
    }

    fn unsharded(&self, name: &str) -> IndexError {
        IndexError::Backend {
            backend: name.to_string().into(),
            message: format!(
                "{name:?} is a sharded spec but no sharding layer is installed in this \
                 registry (known backends: {})",
                self.backends().join(", ")
            ),
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

/// Splits the durability suffix off a backend name: `"RXD+wal:/data/ix"` →
/// `("RXD", "/data/ix")`, `"RXD:sah@4:hash+wal:/p"` →
/// `("RXD:sah@4:hash", "/p")`. The *first* `"+wal:"` splits, so the base
/// name can never contain the marker. Returns `None` for names without it.
pub fn parse_durable_name(name: &str) -> Option<(&str, &str)> {
    name.split_once("+wal:")
}

/// Parses the builder-selection suffix of a backend name: `"RX:lbvh"` →
/// `("RX", BuilderKind::Lbvh)`, `"RX:sah@8:range"` → shard handling strips
/// nothing here, so the suffix must be last — see the [module docs](self)
/// grammar. Returns `None` for names without a recognised suffix.
pub fn parse_builder_name(name: &str) -> Option<(&str, BuilderKind)> {
    let (base, suffix) = name.rsplit_once(':')?;
    if base.is_empty() {
        return None;
    }
    match suffix {
        "sah" => Some((base, BuilderKind::Sah)),
        "lbvh" => Some((base, BuilderKind::Lbvh)),
        _ => None,
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
    fn names_returns_owned_sorted_backend_names() {
        let mut r = registry();
        assert_eq!(r.names(), vec!["NULL".to_string(), "PICKY".to_string()]);
        assert_eq!(
            r.names(),
            r.backends()
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
        // Updatable registrations appear too (they register a read-only
        // builder alongside), and the list stays sorted.
        r.register_updatable("AAA", |spec| {
            let keys = spec.keys.len();
            Err::<Box<dyn UpdatableIndex>, _>(IndexError::Backend {
                backend: "AAA".into(),
                message: format!("{keys} keys"),
            })
        });
        assert_eq!(r.names(), vec!["AAA", "NULL", "PICKY"]);
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
    }

    #[test]
    fn builder_suffixes_parse_and_ride_the_spec() {
        assert_eq!(parse_builder_name("RX:sah"), Some(("RX", BuilderKind::Sah)));
        assert_eq!(
            parse_builder_name("RX:lbvh"),
            Some(("RX", BuilderKind::Lbvh))
        );
        assert_eq!(
            parse_builder_name("RX@8:sah"),
            Some(("RX@8", BuilderKind::Sah))
        );
        assert_eq!(parse_builder_name("RX"), None);
        assert_eq!(parse_builder_name("RX:fast"), None);
        assert_eq!(parse_builder_name(":sah"), None);

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
        assert_eq!(
            parse_durable_name("RXD+wal:/tmp/x"),
            Some(("RXD", "/tmp/x"))
        );
        assert_eq!(
            parse_durable_name("RXD:sah@4:hash+wal:/p"),
            Some(("RXD:sah@4:hash", "/p"))
        );
        assert_eq!(parse_durable_name("RXD"), None);

        let mut r = registry();
        let device = Device::default_eval();
        let spec = IndexSpec::keys_only(&device, &[1]);
        assert!(!r.supports_durability());
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
        assert!(r.supports_durability());
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
}
