//! Table vocabulary: multi-column schemas, CDC ingest batches,
//! multi-predicate queries and planner explain output.
//!
//! A *table* owns one row store (one `u64` column per named column, dense
//! rowIDs) plus any number of named secondary indexes, each built over one
//! column from a backend spec in the full registry
//! [name grammar](crate::registry), read by
//! [`SpecName::parse`](crate::SpecName::parse), except durability — `"HT"`,
//! `"RX:sah@4:hash"` and `"RXD@2"` are all valid per-column specs, and a
//! `"+wal:<path>"` spec is refused, because nothing recovers a whole table
//! from a WAL. This module holds
//! only the *vocabulary* shared by every layer (workloads generate
//! [`IngestBatch`]es, the table renders [`ExplainPlan`]s); the table
//! mechanics — row store, index fan-out, rollback, the planner itself —
//! live in the `rtx-table` crate, which cannot host the types because
//! `rtx-workloads` must not depend on it.
//!
//! Row identity follows the global-rowID scheme of the dynamic backends:
//! an initial bulk load of `n` records occupies rowIDs `0..n`, every
//! subsequent insert takes the next fresh rowID, and deletes leave holes
//! (no implicit renumbering). Deletes and upserts key on the table's
//! *primary column* — always the first column of the schema.

use crate::batch::QueryOp;
use crate::error::IndexError;
use crate::keys::{KeyBound, KeyValue, TypedOp};
use crate::registry::SpecName;

/// One named secondary index of a table: an index `name`, the ordered
/// schema `columns` it keys on, and the backend `spec` string it is built
/// from ([registry grammar](crate::registry), without `"+wal:"`).
///
/// A single-column definition behaves exactly as before; a multi-column
/// definition builds a *composite* index whose key is the order-preserving
/// encoding of the column tuple (see [`KeySchema`](crate::keys::KeySchema)).
/// The spec may carry an explicit brace schema (`"HT{u32,u32}"`); without
/// one every key column defaults to `u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Unique index name within the table (used by plans and reports).
    pub name: String,
    /// The schema columns the index keys on, leading column first.
    pub columns: Vec<String>,
    /// Backend spec in the registry name grammar (`"HT"`,
    /// `"RX:sah@4:hash"`, `"RXD@2"`, `"B+{u32,u32}"`, …).
    pub spec: String,
}

impl IndexDef {
    /// The leading key column (the full key for single-column indexes);
    /// empty for a definition with no columns (which
    /// [`TableSchema::validate`] rejects).
    pub fn column(&self) -> &str {
        self.columns.first().map_or("", String::as_str)
    }

    /// True when the index keys on more than one column or its spec
    /// carries an explicit brace schema — either way the backend is built
    /// through the composite (typed) path.
    pub fn is_composite(&self) -> bool {
        self.columns.len() > 1
            || SpecName::parse(&self.spec).is_ok_and(|spec| spec.schema.is_some())
    }
}

/// The shape of a table: named `u64` columns, an optional designated value
/// column, and any number of named indexes.
///
/// The first column is the *primary* column: [`IngestOp::Delete`] and
/// [`IngestOp::Upsert`] key on it. Several indexes may share a column
/// (e.g. an `"HT"` and an `"RX"` over the same column, letting the
/// planner pick per predicate), and columns may have no index at all
/// (predicates on them fall back to a row-store scan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Column names, in record order; `columns[0]` is the primary column.
    pub columns: Vec<String>,
    /// The column whose values every index serves for value-fetching
    /// queries; `None` builds keys-only indexes.
    pub value_column: Option<String>,
    /// The table's indexes.
    pub indexes: Vec<IndexDef>,
}

impl TableSchema {
    /// A schema over the named columns with no value column and no
    /// indexes yet.
    pub fn new<I, S>(columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TableSchema {
            columns: columns.into_iter().map(Into::into).collect(),
            value_column: None,
            indexes: Vec::new(),
        }
    }

    /// Designates the column whose values indexes serve to value-fetching
    /// queries.
    pub fn with_value_column(mut self, column: impl Into<String>) -> Self {
        self.value_column = Some(column.into());
        self
    }

    /// Adds a named single-column index over `column` built from `spec`.
    pub fn with_index(
        mut self,
        name: impl Into<String>,
        column: impl Into<String>,
        spec: impl Into<String>,
    ) -> Self {
        self.indexes.push(IndexDef {
            name: name.into(),
            columns: vec![column.into()],
            spec: spec.into(),
        });
        self
    }

    /// Adds a named composite index over the ordered `columns`, built from
    /// `spec` (which may carry an explicit `{...}` key schema; without one
    /// every column defaults to `u64`).
    pub fn with_composite_index<I, S>(
        mut self,
        name: impl Into<String>,
        columns: I,
        spec: impl Into<String>,
    ) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.indexes.push(IndexDef {
            name: name.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            spec: spec.into(),
        });
        self
    }

    /// Position of `column` in a record, or `None` for unknown names.
    pub fn column_position(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }

    /// Checks structural consistency: at least one column, unique
    /// non-empty column and index names, every referenced column (index
    /// targets, the value column) declared, and no durable index spec.
    pub fn validate(&self) -> Result<(), IndexError> {
        let fail = |message: String| {
            Err(IndexError::Backend {
                backend: "table".to_string().into(),
                message,
            })
        };
        if self.columns.is_empty() {
            return fail("a table needs at least one column".to_string());
        }
        for (i, column) in self.columns.iter().enumerate() {
            if column.is_empty() {
                return fail("column names must be non-empty".to_string());
            }
            if self.columns[..i].contains(column) {
                return fail(format!("duplicate column name {column:?}"));
            }
        }
        if let Some(value) = &self.value_column {
            if self.column_position(value).is_none() {
                return fail(format!("value column {value:?} is not a schema column"));
            }
        }
        for (i, ix) in self.indexes.iter().enumerate() {
            if ix.name.is_empty() {
                return fail("index names must be non-empty".to_string());
            }
            if self.indexes[..i].iter().any(|other| other.name == ix.name) {
                return fail(format!("duplicate index name {:?}", ix.name));
            }
            if ix.columns.is_empty() {
                return fail(format!("index {:?} keys on no columns", ix.name));
            }
            for (j, column) in ix.columns.iter().enumerate() {
                if self.column_position(column).is_none() {
                    return fail(format!(
                        "index {:?} keys on unknown column {column:?}",
                        ix.name
                    ));
                }
                if ix.columns[..j].contains(column) {
                    return fail(format!("index {:?} repeats key column {column:?}", ix.name));
                }
            }
            if ix.spec.is_empty() {
                return fail(format!("index {:?} has an empty backend spec", ix.name));
            }
            let spec = match SpecName::parse(&ix.spec) {
                Ok(spec) => spec,
                Err(err) => {
                    return fail(format!("index {:?} has a malformed spec: {err}", ix.name));
                }
            };
            if spec.wal.is_some() {
                return fail(format!(
                    "index {:?} has the durable spec {:?}: whole-table recovery from a \
                     WAL is not supported, so a table index takes no \"+wal:\" suffix",
                    ix.name, ix.spec
                ));
            }
            // A brace schema in the spec must cover the key columns one for
            // one (the registry would reject the arity mismatch anyway, but
            // failing at schema validation is friendlier).
            if let Some(schema) = spec.schema {
                if schema.columns().len() != ix.columns.len() {
                    return fail(format!(
                        "index {:?} keys on {} column(s) but its spec schema {schema} has {}",
                        ix.name,
                        ix.columns.len(),
                        schema.columns().len()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One CDC record: a `u64` per schema column, in schema order.
pub type Record = Vec<u64>;

/// One change-data-capture operation of an [`IngestBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOp {
    /// Append a fresh record (takes the next rowID).
    Insert(Record),
    /// Delete every live record whose *primary* column holds the key.
    Delete(u64),
    /// Delete every record with the record's primary key, then insert the
    /// record fresh.
    Upsert(Record),
}

impl IngestOp {
    /// The record's primary-column key (`record[0]`), or the delete key.
    pub fn primary_key(&self) -> u64 {
        match self {
            IngestOp::Insert(record) | IngestOp::Upsert(record) => record[0],
            IngestOp::Delete(key) => *key,
        }
    }

    /// Short display name of the operation kind.
    pub fn kind(&self) -> &'static str {
        match self {
            IngestOp::Insert(_) => "insert",
            IngestOp::Delete(_) => "delete",
            IngestOp::Upsert(_) => "upsert",
        }
    }
}

/// An ordered batch of CDC operations, applied to a table and fanned out
/// to every index atomically: either the whole batch lands or none of it
/// does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestBatch {
    ops: Vec<IngestOp>,
}

impl IngestBatch {
    /// An empty batch.
    pub fn new() -> Self {
        IngestBatch::default()
    }

    /// Appends an insert of `record`.
    pub fn insert(mut self, record: Record) -> Self {
        self.ops.push(IngestOp::Insert(record));
        self
    }

    /// Appends a delete of every record whose primary key is `key`.
    pub fn delete(mut self, key: u64) -> Self {
        self.ops.push(IngestOp::Delete(key));
        self
    }

    /// Appends an upsert of `record` (keyed on its primary column).
    pub fn upsert(mut self, record: Record) -> Self {
        self.ops.push(IngestOp::Upsert(record));
        self
    }

    /// Appends an already-built operation.
    pub fn push(mut self, op: IngestOp) -> Self {
        self.ops.push(op);
        self
    }

    /// The operations in application order.
    pub fn ops(&self) -> &[IngestOp] {
        &self.ops
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One predicate of a [`TableQuery`], over a named column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Rows whose column equals `key`.
    Point {
        /// The predicated column.
        column: String,
        /// The key to match.
        key: u64,
    },
    /// Rows whose column lies in `lower..=upper`.
    Range {
        /// The predicated column.
        column: String,
        /// Inclusive lower bound.
        lower: u64,
        /// Inclusive upper bound.
        upper: u64,
    },
    /// Rows whose column's high bits equal `prefix` — i.e. all keys `k`
    /// with `k >> low_bits == prefix`. Compiles to the contiguous range
    /// `[prefix << low_bits, (prefix << low_bits) + 2^low_bits - 1]`; a
    /// prefix too large for the key width matches nothing.
    Prefix {
        /// The predicated column.
        column: String,
        /// The fixed high bits.
        prefix: u64,
        /// Number of free low bits (0 makes this a point lookup).
        low_bits: u32,
    },
    /// A tuple prefix-range over several columns: the first `prefix.len()`
    /// columns are bound to exact values, and — when `range` is set — the
    /// next column to an inclusive range ("all rows where a=5, b∈\[10,20\]").
    /// `columns.len()` must equal `prefix.len()` plus one when `range` is
    /// set; a composite index whose leading key columns match serves this
    /// as one encoded prefix-range lookup.
    Composite {
        /// The predicated columns, in index key order.
        columns: Vec<String>,
        /// Exact values of the leading `prefix.len()` columns.
        prefix: Vec<u64>,
        /// Inclusive bounds on the column after the prefix, if any.
        range: Option<(u64, u64)>,
    },
}

impl Predicate {
    /// The predicated (leading) column's name; empty for a composite
    /// predicate that names no column (which [`validate`] rejects).
    ///
    /// [`validate`]: Predicate::validate
    pub fn column(&self) -> &str {
        self.columns().first().map_or("", String::as_str)
    }

    /// Every predicated column, leading column first.
    pub fn columns(&self) -> &[String] {
        match self {
            Predicate::Point { column, .. }
            | Predicate::Range { column, .. }
            | Predicate::Prefix { column, .. } => std::slice::from_ref(column),
            Predicate::Composite { columns, .. } => columns,
        }
    }

    /// Checks the predicate's internal shape (composite arity bookkeeping);
    /// scalar predicates are always well-formed.
    pub fn validate(&self) -> Result<(), IndexError> {
        let Predicate::Composite {
            columns,
            prefix,
            range,
        } = self
        else {
            return Ok(());
        };
        let fail = |message: String| {
            Err(IndexError::Backend {
                backend: "table".to_string().into(),
                message,
            })
        };
        if columns.is_empty() {
            return fail("a composite predicate needs at least one column".to_string());
        }
        let expected = prefix.len() + usize::from(range.is_some());
        if columns.len() != expected {
            return fail(format!(
                "composite predicate names {} column(s) but binds {expected} \
                 ({} equality value(s){})",
                columns.len(),
                prefix.len(),
                if range.is_some() {
                    " plus one range"
                } else {
                    ""
                },
            ));
        }
        Ok(())
    }

    /// Compiles the predicate to the single-column [`QueryOp`] an index on
    /// its column executes, or `None` when no single-column operation is
    /// equivalent (multi-column composite predicates). Prefixes with no
    /// free bits compile to points; a prefix that overflows the key width
    /// compiles to the canonical empty range `(1, 0)` (inverted ranges
    /// answer empty on every backend). Single-column composite predicates
    /// compile to the obvious point or range.
    pub fn as_op(&self) -> Option<QueryOp> {
        match self {
            Predicate::Point { key, .. } => Some(QueryOp::Point(*key)),
            Predicate::Range { lower, upper, .. } => Some(QueryOp::Range(*lower, *upper)),
            Predicate::Prefix {
                prefix, low_bits, ..
            } => {
                let (prefix, low_bits) = (*prefix, *low_bits);
                if low_bits == 0 {
                    return Some(QueryOp::Point(prefix));
                }
                if low_bits >= 64 {
                    return Some(if prefix == 0 {
                        QueryOp::Range(0, u64::MAX)
                    } else {
                        QueryOp::Range(1, 0)
                    });
                }
                Some(match prefix.checked_shl(low_bits) {
                    Some(lower) if prefix >> (64 - low_bits) == 0 => {
                        QueryOp::Range(lower, lower | ((1u64 << low_bits) - 1))
                    }
                    _ => QueryOp::Range(1, 0),
                })
            }
            Predicate::Composite { prefix, range, .. } => match (prefix.as_slice(), range) {
                ([key], None) => Some(QueryOp::Point(*key)),
                ([], Some((lower, upper))) => Some(QueryOp::Range(*lower, *upper)),
                _ => None,
            },
        }
    }

    /// Compiles the predicate to the [`TypedOp`] an index keyed on the
    /// ordered `index_columns` executes, or `None` when the predicate's
    /// column sequence is not a prefix of the index's key columns. Scalar
    /// predicates bind the index's *leading* column (equality or bounds,
    /// remaining columns unconstrained); composite predicates bind the
    /// leading `columns.len()` columns.
    pub fn as_typed_op(&self, index_columns: &[String]) -> Option<TypedOp> {
        let leading = index_columns.first()?;
        match self {
            Predicate::Point { column, key } => (column == leading).then(|| TypedOp::Prefix {
                prefix: vec![KeyValue::U64(*key)],
                lower: KeyBound::Unbounded,
                upper: KeyBound::Unbounded,
            }),
            Predicate::Range { column, .. } | Predicate::Prefix { column, .. } => {
                if column != leading {
                    return None;
                }
                // `as_op` canonicalizes bit-prefixes; inverted (empty)
                // ranges survive compilation as encoded empties.
                Some(match self.as_op().expect("scalar predicates compile") {
                    QueryOp::Point(key) => TypedOp::Prefix {
                        prefix: vec![KeyValue::U64(key)],
                        lower: KeyBound::Unbounded,
                        upper: KeyBound::Unbounded,
                    },
                    QueryOp::Range(lower, upper) => TypedOp::Prefix {
                        prefix: Vec::new(),
                        lower: KeyBound::Included(KeyValue::U64(lower)),
                        upper: KeyBound::Included(KeyValue::U64(upper)),
                    },
                })
            }
            Predicate::Composite {
                columns,
                prefix,
                range,
            } => {
                if columns.len() > index_columns.len()
                    || columns.iter().zip(index_columns).any(|(p, ix)| p != ix)
                {
                    return None;
                }
                let (lower, upper) = match range {
                    Some((lower, upper)) => (
                        KeyBound::Included(KeyValue::U64(*lower)),
                        KeyBound::Included(KeyValue::U64(*upper)),
                    ),
                    None => (KeyBound::Unbounded, KeyBound::Unbounded),
                };
                Some(TypedOp::Prefix {
                    prefix: prefix.iter().map(|&v| KeyValue::U64(v)).collect(),
                    lower,
                    upper,
                })
            }
        }
    }

    /// True when the compiled single-column operation is a range lookup
    /// (and the serving index therefore needs
    /// [`Capabilities::range_lookups`]). Only meaningful where [`as_op`]
    /// applies — for multi-column composite predicates the planner decides
    /// against the index's key schema instead.
    ///
    /// [`as_op`]: Predicate::as_op
    /// [`Capabilities::range_lookups`]: crate::types::Capabilities
    pub fn needs_ranges(&self) -> bool {
        matches!(self.as_op(), Some(QueryOp::Range(..)))
    }

    /// The largest key the compiled single-column operation touches
    /// (planner input: backends without [`Capabilities::full_64bit_keys`]
    /// cannot serve keys above `u32::MAX`). Conservatively `u64::MAX` for
    /// multi-column composite predicates, whose encoded width the planner
    /// judges from the index's key schema.
    ///
    /// [`Capabilities::full_64bit_keys`]: crate::types::Capabilities
    pub fn max_key(&self) -> u64 {
        match self.as_op() {
            Some(QueryOp::Point(key)) => key,
            Some(QueryOp::Range(lower, upper)) => upper.max(lower),
            None => u64::MAX,
        }
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Predicate::Point { column, key } => write!(f, "{column} = {key}"),
            Predicate::Range {
                column,
                lower,
                upper,
            } => write!(f, "{column} in [{lower}, {upper}]"),
            Predicate::Prefix {
                column,
                prefix,
                low_bits,
            } => write!(f, "{column} >> {low_bits} = {prefix}"),
            Predicate::Composite {
                columns,
                prefix,
                range,
            } => {
                for (i, (column, value)) in columns.iter().zip(prefix).enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{column} = {value}")?;
                }
                if let Some((lower, upper)) = range {
                    if !prefix.is_empty() {
                        write!(f, ", ")?;
                    }
                    let column = columns.last().map_or("", String::as_str);
                    write!(f, "{column} in [{lower}, {upper}]")?;
                }
                Ok(())
            }
        }
    }
}

/// A multi-predicate query over a table: each predicate is answered
/// independently (one [`LookupResult`] per predicate, `first_row` being
/// the smallest matching table rowID), optionally fetching value sums
/// from the schema's value column.
///
/// [`LookupResult`]: crate::types::LookupResult
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableQuery {
    predicates: Vec<Predicate>,
    fetch_values: bool,
}

impl TableQuery {
    /// An empty query.
    pub fn new() -> Self {
        TableQuery::default()
    }

    /// Adds a point predicate on `column`.
    pub fn point(mut self, column: impl Into<String>, key: u64) -> Self {
        self.predicates.push(Predicate::Point {
            column: column.into(),
            key,
        });
        self
    }

    /// Adds an inclusive range predicate on `column`.
    pub fn range(mut self, column: impl Into<String>, lower: u64, upper: u64) -> Self {
        self.predicates.push(Predicate::Range {
            column: column.into(),
            lower,
            upper,
        });
        self
    }

    /// Adds a high-bits prefix predicate on `column`.
    pub fn prefix(mut self, column: impl Into<String>, prefix: u64, low_bits: u32) -> Self {
        self.predicates.push(Predicate::Prefix {
            column: column.into(),
            prefix,
            low_bits,
        });
        self
    }

    /// Adds a composite equality predicate: the named columns (in index
    /// key order) each bound to the matching value of `prefix`. With every
    /// key column of a composite index named, this is a tuple point
    /// lookup; with a strict leading subset it matches every row sharing
    /// the prefix.
    pub fn prefix_tuple<I, S>(mut self, columns: I, prefix: Vec<u64>) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.predicates.push(Predicate::Composite {
            columns: columns.into_iter().map(Into::into).collect(),
            prefix,
            range: None,
        });
        self
    }

    /// Adds a composite prefix-range predicate: all but the last named
    /// column bound to the matching value of `prefix` (which must hold one
    /// value fewer than `columns`), the last column to `lower..=upper` —
    /// "all rows where a=5, b∈\[10,20\]".
    pub fn prefix_range<I, S>(
        mut self,
        columns: I,
        prefix: Vec<u64>,
        lower: u64,
        upper: u64,
    ) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.predicates.push(Predicate::Composite {
            columns: columns.into_iter().map(Into::into).collect(),
            prefix,
            range: Some((lower, upper)),
        });
        self
    }

    /// Adds an already-built predicate.
    pub fn predicate(mut self, predicate: Predicate) -> Self {
        self.predicates.push(predicate);
        self
    }

    /// Requests (or clears) value-sum fetching from the value column.
    pub fn fetch_values(mut self, fetch: bool) -> Self {
        self.fetch_values = fetch;
        self
    }

    /// The predicates in submission order.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// True when the query holds no predicates.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Whether the query fetches value sums.
    pub fn fetches_values(&self) -> bool {
        self.fetch_values
    }
}

/// Where the planner routed one predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Route {
    /// Served by the named index.
    Index {
        /// The chosen index's name (from the schema).
        index: String,
        /// The backend spec the index was built from.
        spec: String,
    },
    /// No index qualified: served by a full row-store scan.
    Scan,
}

impl Route {
    /// The chosen index name, or `None` for a scan.
    pub fn index_name(&self) -> Option<&str> {
        match self {
            Route::Index { index, .. } => Some(index),
            Route::Scan => None,
        }
    }
}

/// One index the planner considered for a predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The index's name.
    pub index: String,
    /// The backend spec the index was built from.
    pub spec: String,
    /// Whether the index can serve the predicate at all.
    pub eligible: bool,
    /// Estimated cost of serving the predicate there (simulated seconds
    /// per operation, plus the memory tiebreak); infinite when ineligible.
    pub cost: f64,
    /// Why the index is (in)eligible or how its cost was derived.
    pub detail: String,
}

/// The planner's decision for one predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// The predicate being routed.
    pub predicate: Predicate,
    /// Every index on the predicate's column, scored.
    pub candidates: Vec<Candidate>,
    /// Where the predicate was routed.
    pub route: Route,
    /// One-line justification of the route.
    pub reason: String,
}

/// The planner's decisions for a whole [`TableQuery`], one
/// [`PlanChoice`] per predicate in submission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplainPlan {
    /// Per-predicate decisions.
    pub choices: Vec<PlanChoice>,
}

impl ExplainPlan {
    /// The index name predicate `i` was routed to, or `None` for a scan
    /// and past the last predicate.
    pub fn routed_index(&self, i: usize) -> Option<&str> {
        self.choices.get(i)?.route.index_name()
    }

    /// Number of predicates that fell back to a row-store scan.
    pub fn scan_fallbacks(&self) -> usize {
        self.choices
            .iter()
            .filter(|c| c.route == Route::Scan)
            .count()
    }
}

impl std::fmt::Display for ExplainPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, choice) in self.choices.iter().enumerate() {
            let route = match &choice.route {
                Route::Index { index, spec } => format!("index {index} ({spec})"),
                Route::Scan => "row-store scan".to_string(),
            };
            writeln!(f, "#{i} {} -> {route}: {}", choice.predicate, choice.reason)?;
            for c in &choice.candidates {
                writeln!(
                    f,
                    "    {} ({}): {} — {}",
                    c.index,
                    c.spec,
                    if c.eligible {
                        format!("cost {:.3e}", c.cost)
                    } else {
                        "ineligible".to_string()
                    },
                    c.detail
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(["id", "ts", "val"])
            .with_value_column("val")
            .with_index("id_ht", "id", "HT")
            .with_index("ts_rx", "ts", "RX")
    }

    #[test]
    fn schema_validates_and_navigates() {
        let s = schema();
        s.validate().unwrap();
        assert_eq!(s.column_position("ts"), Some(1));
        assert_eq!(s.column_position("nope"), None);
    }

    #[test]
    fn schema_rejects_structural_mistakes() {
        let broken: Vec<TableSchema> = vec![
            TableSchema::new(Vec::<String>::new()),
            TableSchema::new(["a", "a"]),
            TableSchema::new(["a", ""]),
            TableSchema::new(["a"]).with_value_column("b"),
            TableSchema::new(["a"]).with_index("i", "b", "HT"),
            TableSchema::new(["a"])
                .with_index("i", "a", "HT")
                .with_index("i", "a", "RX"),
            TableSchema::new(["a"]).with_index("", "a", "HT"),
            TableSchema::new(["a"]).with_index("i", "a", ""),
            TableSchema::new(["a"]).with_index("i", "a", "RXD+wal:/p"),
        ];
        for s in broken {
            assert!(s.validate().is_err(), "accepted {s:?}");
        }
        // A spec the grammar refuses names itself and the reason.
        let err = TableSchema::new(["a"])
            .with_index("i", "a", "RX:fast")
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("RX:fast: not a backend followed by"), "{err}");
        // Two indexes on one column are fine — that is the planner's job.
        TableSchema::new(["a"])
            .with_index("fast", "a", "HT")
            .with_index("wide", "a", "RX")
            .validate()
            .unwrap();
    }

    #[test]
    fn ingest_batches_build_and_report() {
        let batch = IngestBatch::new()
            .insert(vec![1, 2, 3])
            .delete(1)
            .upsert(vec![4, 5, 6])
            .push(IngestOp::Delete(9));
        assert_eq!(batch.len(), 4);
        assert!(!batch.is_empty());
        assert_eq!(batch.ops()[0].primary_key(), 1);
        assert_eq!(batch.ops()[2].primary_key(), 4);
        assert_eq!(batch.ops()[3].kind(), "delete");
        assert!(IngestBatch::new().is_empty());
    }

    #[test]
    fn predicates_compile_to_query_ops() {
        let p = Predicate::Point {
            column: "id".into(),
            key: 7,
        };
        assert_eq!(p.as_op(), Some(QueryOp::Point(7)));
        assert!(!p.needs_ranges());
        assert_eq!(p.max_key(), 7);

        let r = Predicate::Range {
            column: "ts".into(),
            lower: 10,
            upper: 20,
        };
        assert_eq!(r.as_op(), Some(QueryOp::Range(10, 20)));
        assert!(r.needs_ranges());
        assert_eq!(r.max_key(), 20);
    }

    #[test]
    fn prefix_predicates_compile_to_contiguous_ranges() {
        let prefix = |prefix, low_bits| Predicate::Prefix {
            column: "k".into(),
            prefix,
            low_bits,
        };
        assert_eq!(prefix(5, 4).as_op(), Some(QueryOp::Range(80, 95)));
        assert_eq!(prefix(3, 0).as_op(), Some(QueryOp::Point(3)));
        assert_eq!(prefix(0, 64).as_op(), Some(QueryOp::Range(0, u64::MAX)));
        // Prefixes past the key width match nothing: the canonical empty
        // (inverted) range.
        assert_eq!(prefix(1, 64).as_op(), Some(QueryOp::Range(1, 0)));
        assert_eq!(prefix(u64::MAX, 8).as_op(), Some(QueryOp::Range(1, 0)));
        assert_eq!(
            prefix(1, 63).as_op(),
            Some(QueryOp::Range(1 << 63, u64::MAX))
        );
        assert!(prefix(5, 4).needs_ranges());
        assert!(!prefix(5, 0).needs_ranges());
    }

    #[test]
    fn queries_build_and_expose_predicates() {
        let q = TableQuery::new()
            .point("id", 3)
            .range("ts", 0, 9)
            .prefix("ts", 2, 3)
            .fetch_values(true);
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert!(q.fetches_values());
        assert_eq!(q.predicates()[0].column(), "id");
        assert_eq!(q.predicates()[1].as_op(), Some(QueryOp::Range(0, 9)));
        assert!(TableQuery::new().is_empty());
    }

    #[test]
    fn composite_schemas_validate_key_columns() {
        TableSchema::new(["a", "b", "c"])
            .with_composite_index("ab", ["a", "b"], "HT")
            .with_composite_index("abc", ["a", "b", "c"], "B+{u32,u32,u32}")
            .validate()
            .unwrap();
        let broken = [
            TableSchema::new(["a"]).with_composite_index("i", Vec::<String>::new(), "HT"),
            TableSchema::new(["a", "b"]).with_composite_index("i", ["a", "nope"], "HT"),
            TableSchema::new(["a", "b"]).with_composite_index("i", ["a", "a"], "HT"),
            // Spec schema arity must match the key-column count.
            TableSchema::new(["a", "b"]).with_composite_index("i", ["a", "b"], "HT{u32}"),
            TableSchema::new(["a", "b"]).with_composite_index("i", ["a", "b"], "HT{u32,u32"),
        ];
        for s in broken {
            assert!(s.validate().is_err(), "accepted {s:?}");
        }
    }

    #[test]
    fn composite_predicates_validate_and_compile() {
        let index_columns: Vec<String> = vec!["a".into(), "b".into(), "c".into()];

        let tuple = Predicate::Composite {
            columns: vec!["a".into(), "b".into()],
            prefix: vec![5, 10],
            range: None,
        };
        tuple.validate().unwrap();
        assert_eq!(tuple.column(), "a");
        assert_eq!(tuple.columns(), vec!["a", "b"]);
        assert_eq!(tuple.as_op(), None);
        assert_eq!(tuple.max_key(), u64::MAX);
        assert_eq!(tuple.to_string(), "a = 5, b = 10");
        match tuple.as_typed_op(&index_columns) {
            Some(TypedOp::Prefix { prefix, .. }) => {
                assert_eq!(prefix, vec![KeyValue::U64(5), KeyValue::U64(10)]);
            }
            other => panic!("expected a prefix op, got {other:?}"),
        }

        let ranged = Predicate::Composite {
            columns: vec!["a".into(), "b".into()],
            prefix: vec![5],
            range: Some((10, 20)),
        };
        ranged.validate().unwrap();
        assert_eq!(ranged.to_string(), "a = 5, b in [10, 20]");
        match ranged.as_typed_op(&index_columns) {
            Some(TypedOp::Prefix {
                prefix,
                lower,
                upper,
            }) => {
                assert_eq!(prefix, vec![KeyValue::U64(5)]);
                assert_eq!(lower, KeyBound::Included(KeyValue::U64(10)));
                assert_eq!(upper, KeyBound::Included(KeyValue::U64(20)));
            }
            other => panic!("expected a prefix op, got {other:?}"),
        }
        // Column sequences that are not a leading prefix of the index: no op.
        assert!(ranged
            .as_typed_op(&["b".to_string(), "a".to_string()])
            .is_none());
        assert!(ranged.as_typed_op(&["a".to_string()]).is_none());

        // Single-column composites degrade to scalar ops.
        let single = Predicate::Composite {
            columns: vec!["a".into()],
            prefix: vec![7],
            range: None,
        };
        assert_eq!(single.as_op(), Some(QueryOp::Point(7)));

        // Arity mismatches are rejected.
        let broken = Predicate::Composite {
            columns: vec!["a".into(), "b".into()],
            prefix: vec![5],
            range: None,
        };
        assert!(broken.validate().is_err());
        assert!(Predicate::Composite {
            columns: Vec::new(),
            prefix: Vec::new(),
            range: None,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn scalar_predicates_compile_to_typed_leading_column_ops() {
        let index_columns: Vec<String> = vec!["a".into(), "b".into()];
        let point = Predicate::Point {
            column: "a".into(),
            key: 9,
        };
        match point.as_typed_op(&index_columns) {
            Some(TypedOp::Prefix {
                prefix,
                lower: KeyBound::Unbounded,
                upper: KeyBound::Unbounded,
            }) => assert_eq!(prefix, vec![KeyValue::U64(9)]),
            other => panic!("expected an unbounded prefix, got {other:?}"),
        }
        let range = Predicate::Range {
            column: "a".into(),
            lower: 3,
            upper: 8,
        };
        match range.as_typed_op(&index_columns) {
            Some(TypedOp::Prefix {
                prefix,
                lower,
                upper,
            }) => {
                assert!(prefix.is_empty());
                assert_eq!(lower, KeyBound::Included(KeyValue::U64(3)));
                assert_eq!(upper, KeyBound::Included(KeyValue::U64(8)));
            }
            other => panic!("expected a bounded prefix, got {other:?}"),
        }
        // Wrong leading column: no typed op.
        let off = Predicate::Point {
            column: "b".into(),
            key: 1,
        };
        assert!(off.as_typed_op(&index_columns).is_none());
    }

    #[test]
    fn query_builders_cover_composite_forms() {
        let q = TableQuery::new()
            .prefix_tuple(["a", "b"], vec![1, 2])
            .prefix_range(["a", "b"], vec![1], 5, 9);
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.predicates()[0],
            Predicate::Composite {
                columns: vec!["a".into(), "b".into()],
                prefix: vec![1, 2],
                range: None,
            }
        );
        assert_eq!(
            q.predicates()[1],
            Predicate::Composite {
                columns: vec!["a".into(), "b".into()],
                prefix: vec![1],
                range: Some((5, 9)),
            }
        );
    }

    #[test]
    fn explain_plans_summarise_routes() {
        let plan = ExplainPlan {
            choices: vec![
                PlanChoice {
                    predicate: Predicate::Point {
                        column: "id".into(),
                        key: 1,
                    },
                    candidates: vec![Candidate {
                        index: "id_ht".into(),
                        spec: "HT".into(),
                        eligible: true,
                        cost: 1e-6,
                        detail: "probe".into(),
                    }],
                    route: Route::Index {
                        index: "id_ht".into(),
                        spec: "HT".into(),
                    },
                    reason: "cheapest eligible index".into(),
                },
                PlanChoice {
                    predicate: Predicate::Range {
                        column: "val".into(),
                        lower: 0,
                        upper: 9,
                    },
                    candidates: vec![],
                    route: Route::Scan,
                    reason: "no index on column".into(),
                },
            ],
        };
        assert_eq!(plan.routed_index(0), Some("id_ht"));
        assert_eq!(plan.routed_index(1), None);
        assert_eq!(plan.scan_fallbacks(), 1);
        let rendered = plan.to_string();
        assert!(rendered.contains("id_ht"), "{rendered}");
        assert!(rendered.contains("row-store scan"), "{rendered}");
    }

    #[test]
    fn routed_index_past_the_last_predicate_is_none() {
        assert_eq!(ExplainPlan::default().routed_index(0), None);
    }

    /// What `TableQuery::prefix_range(Vec::<&str>::new(), vec![], 1, 2)`
    /// builds: a composite predicate naming no column.
    fn columnless() -> Predicate {
        TableQuery::new()
            .prefix_range(Vec::<&str>::new(), vec![], 1, 2)
            .predicates()[0]
            .clone()
    }

    #[test]
    fn a_columnless_composite_predicate_has_an_empty_column() {
        let predicate = columnless();
        assert_eq!(predicate.column(), "");
        assert!(predicate.columns().is_empty());
        assert!(predicate.validate().is_err());
    }

    #[test]
    fn a_columnless_composite_predicate_displays() {
        assert_eq!(columnless().to_string(), " in [1, 2]");
    }

    #[test]
    fn a_columnless_index_def_has_an_empty_column() {
        let def = IndexDef {
            name: "ix".to_string(),
            columns: Vec::new(),
            spec: "HT".to_string(),
        };
        assert_eq!(def.column(), "");
        let schema = TableSchema {
            indexes: vec![def],
            ..TableSchema::new(["id"])
        };
        assert!(schema.validate().is_err());
    }
}
