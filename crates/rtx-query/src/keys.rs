//! Typed composite keys: [`KeySchema`], order-preserving byte encoding and
//! the typed query forms that compile down to the 1-D `u64` key space every
//! backend already serves.
//!
//! # Encoding rules
//!
//! A schema is an ordered list of columns drawn from
//! `u8 / u16 / u32 / u64 / i64 / str<N>`. A tuple encodes column by column
//! into a fixed-width byte string:
//!
//! * unsigned integers — big-endian bytes at the column's natural width;
//! * `i64` — big-endian bytes of `(v as u64) ^ (1 << 63)` (sign-flip), so
//!   negative values sort below positive ones byte-wise;
//! * `str<N>` — the UTF-8 bytes, zero-padded to exactly `N`. NUL bytes are
//!   rejected (a string containing `\0` would collide with its own
//!   padding), as are strings longer than `N` — the encoding stays
//!   injective.
//!
//! The concatenation is then zero-padded up to the schema's *width bucket*
//! — the smallest of 8, 16 or 32 bytes that fits the raw width — and read
//! back as big-endian `u64` limbs. The padding sits at the *high* bytes:
//! every tuple of one schema has the same raw width, so the pad is a
//! shared constant prefix that never affects relative order, and the
//! encoded image spans only the raw content range. (A low-byte pad would
//! preserve order just as well, but would shift content into the high
//! bytes — inflating every prefix range by the padded tail and pushing
//! even narrow schemas past backends with 32-bit key domains or
//! row-decomposed range budgets.)
//!
//! **Ordering proof sketch.** For two tuples `a < b` (lexicographic over
//! typed column values), let `i` be the first differing column. All columns
//! before `i` encode identically (fixed width ⇒ same bytes at same
//! offsets). At column `i` the encodings differ, and each per-column
//! encoding is order-preserving on its own domain (big-endian magnitude
//! order for unsigned; sign-flip maps `i64` order onto unsigned order;
//! zero-padded bytes preserve string order because `\0` is excluded and
//! sorts below every permitted byte). So the byte strings compare exactly
//! like the tuples, and big-endian limbs compare exactly like the byte
//! strings: **byte order = limb order = logical order**.
//!
//! # Width buckets
//!
//! Raw widths are padded to 8, 16 or 32 bytes (1, 2 or 4 `u64` limbs) so a
//! backend sees one of three fixed key widths instead of arbitrary ones —
//! the same trade SpacetimeDB's `BytesKey<N>` makes. A schema whose raw
//! width fits 8 bytes encodes to a *single* `u64` and runs on every
//! backend's existing key path unchanged (the **direct codec**); the
//! degenerate `{u64}` schema encodes a key to itself, which is what keeps
//! the raw-`u64` path zero-overhead. Wider schemas (2 or 4 limbs) are
//! order-preservingly dictionary-mapped into the `u64` space by the
//! composite wrapper (see [`crate::composite`]).

use std::fmt;

use crate::batch::QueryBatch;
use crate::error::IndexError;

/// Maximum raw width (bytes) of a schema: four `u64` limbs.
pub const MAX_RAW_WIDTH: usize = 32;

/// One column of a [`KeySchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Unsigned 8-bit integer (1 byte).
    U8,
    /// Unsigned 16-bit integer (2 bytes).
    U16,
    /// Unsigned 32-bit integer (4 bytes).
    U32,
    /// Unsigned 64-bit integer (8 bytes).
    U64,
    /// Signed 64-bit integer (8 bytes, sign-flip encoded).
    I64,
    /// Fixed-capacity UTF-8 string, zero-padded to `N` bytes.
    Str(usize),
}

impl ColumnType {
    /// Encoded width of this column in bytes.
    pub fn width(&self) -> usize {
        match self {
            ColumnType::U8 => 1,
            ColumnType::U16 => 2,
            ColumnType::U32 => 4,
            ColumnType::U64 | ColumnType::I64 => 8,
            ColumnType::Str(n) => *n,
        }
    }

    /// Parses one column of the schema grammar: `u8`, `u16`, `u32`, `u64`,
    /// `i64` or `str<N>` (e.g. `str16`).
    pub fn parse(text: &str) -> Result<Self, IndexError> {
        match text {
            "u8" => Ok(ColumnType::U8),
            "u16" => Ok(ColumnType::U16),
            "u32" => Ok(ColumnType::U32),
            "u64" => Ok(ColumnType::U64),
            "i64" => Ok(ColumnType::I64),
            _ => {
                if let Some(len) = text.strip_prefix("str") {
                    let n: usize = len
                        .parse()
                        .map_err(|_| schema_error(text, "bad str width"))?;
                    if n == 0 || n > MAX_RAW_WIDTH {
                        return Err(schema_error(
                            text,
                            "str width must be between 1 and 32 bytes",
                        ));
                    }
                    return Ok(ColumnType::Str(n));
                }
                Err(schema_error(
                    text,
                    "expected u8, u16, u32, u64, i64 or str<N>",
                ))
            }
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::U8 => write!(f, "u8"),
            ColumnType::U16 => write!(f, "u16"),
            ColumnType::U32 => write!(f, "u32"),
            ColumnType::U64 => write!(f, "u64"),
            ColumnType::I64 => write!(f, "i64"),
            ColumnType::Str(n) => write!(f, "str{n}"),
        }
    }
}

fn schema_error(fragment: &str, message: &str) -> IndexError {
    IndexError::Backend {
        backend: "key-schema".into(),
        message: format!("invalid schema column {fragment:?}: {message}"),
    }
}

fn encode_error(message: String) -> IndexError {
    IndexError::Backend {
        backend: "key-schema".into(),
        message,
    }
}

/// One typed key component; a key tuple is a `Vec<KeyValue>` matching the
/// schema column for column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyValue {
    /// Value for any unsigned column (`u8`/`u16`/`u32`/`u64`); must fit the
    /// column width.
    U64(u64),
    /// Value for an `i64` column.
    I64(i64),
    /// Value for a `str<N>` column; at most `N` bytes, no NULs.
    Str(String),
}

impl From<u64> for KeyValue {
    fn from(v: u64) -> Self {
        KeyValue::U64(v)
    }
}

impl From<u32> for KeyValue {
    fn from(v: u32) -> Self {
        KeyValue::U64(v as u64)
    }
}

impl From<i64> for KeyValue {
    fn from(v: i64) -> Self {
        KeyValue::I64(v)
    }
}

impl From<&str> for KeyValue {
    fn from(v: &str) -> Self {
        KeyValue::Str(v.to_string())
    }
}

impl From<String> for KeyValue {
    fn from(v: String) -> Self {
        KeyValue::Str(v)
    }
}

impl fmt::Display for KeyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyValue::U64(v) => write!(f, "{v}"),
            KeyValue::I64(v) => write!(f, "{v}"),
            KeyValue::Str(v) => write!(f, "{v:?}"),
        }
    }
}

/// A typed key tuple: one [`KeyValue`] per schema column.
pub type KeyTuple = Vec<KeyValue>;

/// An ordered multi-column key schema: the typed description of what one
/// backend key encodes. Parsed from the registry grammar's brace production
/// (`"{u32,u32,str16}"`) or built programmatically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeySchema {
    columns: Vec<ColumnType>,
}

impl KeySchema {
    /// A schema over the given columns. Fails on an empty column list or a
    /// raw width beyond [`MAX_RAW_WIDTH`].
    pub fn new(columns: Vec<ColumnType>) -> Result<Self, IndexError> {
        if columns.is_empty() {
            return Err(encode_error(
                "a key schema needs at least one column".into(),
            ));
        }
        let raw: usize = columns.iter().map(ColumnType::width).sum();
        if raw > MAX_RAW_WIDTH {
            return Err(encode_error(format!(
                "schema raw width {raw} exceeds the {MAX_RAW_WIDTH}-byte limit"
            )));
        }
        Ok(KeySchema { columns })
    }

    /// The implicit schema of every legacy raw-`u64` index.
    pub fn raw_u64() -> Self {
        KeySchema {
            columns: vec![ColumnType::U64],
        }
    }

    /// Parses the brace production of the registry grammar:
    /// `"{u32,u32,str16}"`.
    pub fn parse(text: &str) -> Result<Self, IndexError> {
        let inner = text
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or_else(|| encode_error(format!("key schema {text:?} must be brace-enclosed")))?;
        let columns = inner
            .split(',')
            .map(|c| ColumnType::parse(c.trim()))
            .collect::<Result<Vec<_>, _>>()?;
        KeySchema::new(columns)
    }

    /// The schema's columns, in key order.
    pub fn columns(&self) -> &[ColumnType] {
        &self.columns
    }

    /// Sum of the column widths, before bucket padding.
    pub fn raw_width(&self) -> usize {
        self.columns.iter().map(ColumnType::width).sum()
    }

    /// The padded width bucket: 8, 16 or 32 bytes.
    pub fn encoded_width(&self) -> usize {
        let raw = self.raw_width();
        if raw <= 8 {
            8
        } else if raw <= 16 {
            16
        } else {
            32
        }
    }

    /// Number of `u64` limbs in the encoded key (1, 2 or 4).
    pub fn limbs(&self) -> usize {
        self.encoded_width() / 8
    }

    /// Encodes one full tuple into its order-preserving key.
    pub fn encode(&self, tuple: &[KeyValue]) -> Result<EncodedKey, IndexError> {
        if tuple.len() != self.columns.len() {
            return Err(encode_error(format!(
                "tuple has {} values but schema {self} has {} columns",
                tuple.len(),
                self.columns.len()
            )));
        }
        let mut bytes = [0u8; MAX_RAW_WIDTH];
        // Bucket padding is a shared high-byte prefix (see module docs).
        let mut at = self.encoded_width() - self.raw_width();
        for (column, value) in self.columns.iter().zip(tuple) {
            at += encode_column(*column, value, &mut bytes[at..])?;
        }
        debug_assert_eq!(at, self.encoded_width());
        Ok(EncodedKey::from_bytes(&bytes, self.limbs()))
    }

    /// Encodes a batch of tuples into single-`u64` keys. Only valid for
    /// single-limb (direct-codec) schemas; the backend key *is* the encoded
    /// key, so `{u64}` is the identity map.
    pub fn encode_rows(&self, rows: &[KeyTuple]) -> Result<Vec<u64>, IndexError> {
        self.require_direct("encode typed rows to raw u64 keys")?;
        rows.iter()
            .map(|row| self.encode(row).map(|e| e.limb(0)))
            .collect()
    }

    /// Compiles a typed batch into the raw [`QueryBatch`] a backend
    /// executes. Only valid for single-limb (direct-codec) schemas — wider
    /// schemas need the dictionary held by the composite wrapper, so build
    /// them through the registry with a `{...}` name.
    pub fn compile(&self, batch: &TypedBatch) -> Result<QueryBatch, IndexError> {
        self.require_direct("compile typed queries statelessly")?;
        let mut out = QueryBatch::new().fetch_values(batch.fetches_values());
        if let Some(chunk) = batch.chunk_size() {
            out = out.with_chunk_size(chunk);
        }
        for op in batch.ops() {
            out = match self.compile_op(op)? {
                EncodedRange::Point(k) => out.point(k.limb(0)),
                EncodedRange::Range(lo, hi) => out.range(lo.limb(0), hi.limb(0)),
                // Canonical inverted range: uniformly empty on every backend.
                EncodedRange::Empty => out.range(1, 0),
            };
        }
        Ok(out)
    }

    /// Compiles one typed operation into its encoded point or inclusive
    /// range over the byte-ordered key domain. Works at any limb width —
    /// this is the schema-level half the composite wrapper and the test
    /// oracles share.
    pub fn compile_op(&self, op: &TypedOp) -> Result<EncodedRange, IndexError> {
        match op {
            TypedOp::Point(tuple) => Ok(EncodedRange::Point(self.encode(tuple)?)),
            TypedOp::Range(lower, upper) => {
                let lo = self.encode(lower)?;
                let hi = self.encode(upper)?;
                if lo > hi {
                    Ok(EncodedRange::Empty)
                } else {
                    Ok(EncodedRange::Range(lo, hi))
                }
            }
            TypedOp::Prefix {
                prefix,
                lower,
                upper,
            } => self.compile_prefix(prefix, lower, upper),
        }
    }

    /// Prefix-range compilation: equality on the leading `prefix.len()`
    /// columns, bounds on the next column, everything after unconstrained.
    fn compile_prefix(
        &self,
        prefix: &[KeyValue],
        lower: &KeyBound,
        upper: &KeyBound,
    ) -> Result<EncodedRange, IndexError> {
        if prefix.len() > self.columns.len() {
            return Err(encode_error(format!(
                "prefix has {} values but schema {self} has {} columns",
                prefix.len(),
                self.columns.len()
            )));
        }
        if prefix.len() == self.columns.len() {
            if !matches!((lower, upper), (KeyBound::Unbounded, KeyBound::Unbounded)) {
                return Err(encode_error(
                    "a full-arity prefix leaves no column for range bounds".into(),
                ));
            }
            return Ok(EncodedRange::Point(self.encode(prefix)?));
        }
        let bound_column = self.columns[prefix.len()];
        if matches!(bound_column, ColumnType::Str(_))
            && !matches!((lower, upper), (KeyBound::Unbounded, KeyBound::Unbounded))
        {
            // Exclusive string bounds would need byte-level succ/pred over
            // variable content; equality prefixes cover the string use case.
            return Err(encode_error(
                "range bounds on str columns are not supported; bound an integer column".into(),
            ));
        }

        // Shared prefix bytes, behind the constant high-byte bucket pad.
        let mut head = [0u8; MAX_RAW_WIDTH];
        let mut at = self.encoded_width() - self.raw_width();
        for (column, value) in self.columns.iter().zip(prefix) {
            at += encode_column(*column, value, &mut head[at..])?;
        }
        let width = bound_column.width();

        // Lower limit: prefix + bound column (or 0x00s) + 0x00 tail.
        let mut lo = head;
        match lower {
            KeyBound::Unbounded => {} // already zero
            KeyBound::Included(v) => {
                encode_column(bound_column, v, &mut lo[at..])?;
            }
            KeyBound::Excluded(v) => {
                encode_column(bound_column, v, &mut lo[at..])?;
                if !increment(&mut lo[at..at + width]) {
                    return Ok(EncodedRange::Empty); // succ(MAX) — nothing above
                }
            }
        }

        // Upper limit: prefix + bound column (or 0xFFs) + 0xFF tail.
        // Everything after the prefix is real column content (the bucket
        // pads at the high bytes, before the first column), so a 0xFF tail
        // bounds every tuple sharing the prefix from above.
        let mut hi = head;
        for byte in hi[at..].iter_mut() {
            *byte = 0xFF;
        }
        match upper {
            KeyBound::Unbounded => {}
            KeyBound::Included(v) => {
                encode_column(bound_column, v, &mut hi[at..])?;
            }
            KeyBound::Excluded(v) => {
                encode_column(bound_column, v, &mut hi[at..])?;
                if !decrement(&mut hi[at..at + width]) {
                    return Ok(EncodedRange::Empty); // pred(MIN) — nothing below
                }
            }
        }

        let lo = EncodedKey::from_bytes(&lo, self.limbs());
        let hi = EncodedKey::from_bytes(&hi, self.limbs());
        if lo > hi {
            Ok(EncodedRange::Empty)
        } else {
            Ok(EncodedRange::Range(lo, hi))
        }
    }

    fn require_direct(&self, what: &str) -> Result<(), IndexError> {
        if self.limbs() != 1 {
            return Err(encode_error(format!(
                "schema {self} encodes to {} limbs; only single-limb schemas can {what} — \
                 build wide schemas through the registry with a {{...}} name",
                self.limbs()
            )));
        }
        Ok(())
    }
}

impl fmt::Display for KeySchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, column) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{column}")?;
        }
        write!(f, "}}")
    }
}

/// Encodes `value` into `out[..column.width()]`, big-endian; returns the
/// width written.
fn encode_column(
    column: ColumnType,
    value: &KeyValue,
    out: &mut [u8],
) -> Result<usize, IndexError> {
    let width = column.width();
    match (column, value) {
        (
            ColumnType::U8 | ColumnType::U16 | ColumnType::U32 | ColumnType::U64,
            KeyValue::U64(v),
        ) => {
            let max = if width == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * width)) - 1
            };
            if *v > max {
                return Err(encode_error(format!(
                    "value {v} does not fit a {column} column (max {max})"
                )));
            }
            out[..width].copy_from_slice(&v.to_be_bytes()[8 - width..]);
        }
        (ColumnType::I64, KeyValue::I64(v)) => {
            // Sign-flip: maps i64 order onto unsigned byte order.
            out[..8].copy_from_slice(&((*v as u64) ^ (1 << 63)).to_be_bytes());
        }
        (ColumnType::Str(n), KeyValue::Str(s)) => {
            let bytes = s.as_bytes();
            if bytes.len() > n {
                return Err(encode_error(format!(
                    "string {s:?} is {} bytes, over the str{n} column width",
                    bytes.len()
                )));
            }
            if bytes.contains(&0) {
                return Err(encode_error(format!(
                    "string {s:?} contains a NUL byte, which collides with padding"
                )));
            }
            out[..bytes.len()].copy_from_slice(bytes);
            for byte in out[bytes.len()..n].iter_mut() {
                *byte = 0;
            }
        }
        (column, value) => {
            return Err(encode_error(format!(
                "value {value} does not match a {column} column"
            )));
        }
    }
    Ok(width)
}

/// Byte-string increment with carry, in place. Returns `false` on overflow
/// (all bytes were `0xFF`).
fn increment(bytes: &mut [u8]) -> bool {
    for byte in bytes.iter_mut().rev() {
        let (v, overflow) = byte.overflowing_add(1);
        *byte = v;
        if !overflow {
            return true;
        }
    }
    false
}

/// Byte-string decrement with borrow, in place. Returns `false` on
/// underflow (all bytes were `0x00`).
fn decrement(bytes: &mut [u8]) -> bool {
    for byte in bytes.iter_mut().rev() {
        let (v, underflow) = byte.overflowing_sub(1);
        *byte = v;
        if !underflow {
            return true;
        }
    }
    false
}

/// An encoded key: up to four big-endian `u64` limbs comparing
/// lexicographically, i.e. exactly like the underlying byte string and
/// therefore exactly like the typed tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodedKey {
    limbs: [u64; 4],
    limb_count: u8,
}

impl EncodedKey {
    /// Reads `limb_count` big-endian limbs from the byte buffer.
    fn from_bytes(bytes: &[u8; MAX_RAW_WIDTH], limb_count: usize) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate().take(limb_count) {
            *limb = u64::from_be_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
        }
        EncodedKey {
            limbs,
            limb_count: limb_count as u8,
        }
    }

    /// Rebuilds a key from its limbs (the sidecar-load path).
    pub fn from_limbs(limbs: &[u64]) -> Self {
        let mut all = [0u64; 4];
        all[..limbs.len()].copy_from_slice(limbs);
        EncodedKey {
            limbs: all,
            limb_count: limbs.len() as u8,
        }
    }

    /// The `i`-th limb (most-significant first).
    pub fn limb(&self, i: usize) -> u64 {
        self.limbs[i]
    }

    /// The populated limbs, most-significant first.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs[..self.limb_count as usize]
    }
}

impl Ord for EncodedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        debug_assert_eq!(self.limb_count, other.limb_count);
        self.limbs().cmp(other.limbs())
    }
}

impl PartialOrd for EncodedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One compiled typed operation: a point or an inclusive range over the
/// encoded key domain, or statically empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodedRange {
    /// Exact-key probe.
    Point(EncodedKey),
    /// Inclusive encoded range, `lower <= upper`.
    Range(EncodedKey, EncodedKey),
    /// Compiled away: matches nothing (inverted range, bound overflow).
    Empty,
}

/// One side of a prefix-range bound on the column after the equality
/// prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyBound {
    /// Bound includes the value.
    Included(KeyValue),
    /// Bound excludes the value (compiled to ±1 on the column's bytes).
    Excluded(KeyValue),
    /// No bound on this side.
    Unbounded,
}

/// One typed query operation against a composite-keyed index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypedOp {
    /// Exact tuple lookup (full arity).
    Point(KeyTuple),
    /// Inclusive tuple range (both ends full arity).
    Range(KeyTuple, KeyTuple),
    /// Prefix range: equality on the leading columns, optional bounds on
    /// the next one — "all rows where a=5, b ∈ [10, 20)".
    Prefix {
        /// Equality values for the leading columns (may be empty).
        prefix: KeyTuple,
        /// Lower bound on the column after the prefix.
        lower: KeyBound,
        /// Upper bound on the column after the prefix.
        upper: KeyBound,
    },
}

/// The typed counterpart of [`QueryBatch`]: a mixed submission of typed
/// point, range and prefix-range operations, compiled against an index's
/// [`KeySchema`] before any backend sees it.
///
/// ```
/// use rtx_query::keys::TypedBatch;
///
/// let batch = TypedBatch::new()
///     .point([5u64.into(), 10u64.into()])
///     .prefix([5u64.into()])
///     .prefix_range([5u64.into()], 10u64.into()..20u64.into())
///     .fetch_values(true);
/// assert_eq!(batch.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TypedBatch {
    ops: Vec<TypedOp>,
    fetch_values: bool,
    chunk_size: Option<usize>,
}

impl TypedBatch {
    /// An empty typed batch.
    pub fn new() -> Self {
        TypedBatch::default()
    }

    /// Appends an exact tuple lookup.
    pub fn point(mut self, tuple: impl IntoIterator<Item = KeyValue>) -> Self {
        self.ops.push(TypedOp::Point(tuple.into_iter().collect()));
        self
    }

    /// Appends an inclusive tuple range.
    pub fn range(
        mut self,
        lower: impl IntoIterator<Item = KeyValue>,
        upper: impl IntoIterator<Item = KeyValue>,
    ) -> Self {
        self.ops.push(TypedOp::Range(
            lower.into_iter().collect(),
            upper.into_iter().collect(),
        ));
        self
    }

    /// Appends a pure prefix scan: every row whose leading columns equal
    /// `prefix`.
    pub fn prefix(mut self, prefix: impl IntoIterator<Item = KeyValue>) -> Self {
        self.ops.push(TypedOp::Prefix {
            prefix: prefix.into_iter().collect(),
            lower: KeyBound::Unbounded,
            upper: KeyBound::Unbounded,
        });
        self
    }

    /// Appends a prefix range — equality on `prefix`, the next column
    /// within `bounds` (`lo..hi` excludes `hi`; `lo..=hi` includes it).
    pub fn prefix_range(
        mut self,
        prefix: impl IntoIterator<Item = KeyValue>,
        bounds: impl Into<PrefixBounds>,
    ) -> Self {
        let bounds = bounds.into();
        self.ops.push(TypedOp::Prefix {
            prefix: prefix.into_iter().collect(),
            lower: bounds.lower,
            upper: bounds.upper,
        });
        self
    }

    /// Appends an already-constructed typed operation.
    pub fn op(mut self, op: TypedOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Enables or disables the value-column fetch.
    pub fn fetch_values(mut self, fetch: bool) -> Self {
        self.fetch_values = fetch;
        self
    }

    /// Sets the chunk size of the compiled batch (0 clears it).
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk_size = if chunk == 0 { None } else { Some(chunk) };
        self
    }

    /// The typed operations, in submission order.
    pub fn ops(&self) -> &[TypedOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether the compiled batch fetches values.
    pub fn fetches_values(&self) -> bool {
        self.fetch_values
    }

    /// The chunk-size override, if any.
    pub fn chunk_size(&self) -> Option<usize> {
        self.chunk_size
    }
}

/// Bounds for [`TypedBatch::prefix_range`], convertible from the std range
/// types over [`KeyValue`].
#[derive(Debug, Clone)]
pub struct PrefixBounds {
    /// Lower side.
    pub lower: KeyBound,
    /// Upper side.
    pub upper: KeyBound,
}

impl From<std::ops::Range<KeyValue>> for PrefixBounds {
    fn from(r: std::ops::Range<KeyValue>) -> Self {
        PrefixBounds {
            lower: KeyBound::Included(r.start),
            upper: KeyBound::Excluded(r.end),
        }
    }
}

impl From<std::ops::RangeInclusive<KeyValue>> for PrefixBounds {
    fn from(r: std::ops::RangeInclusive<KeyValue>) -> Self {
        let (start, end) = r.into_inner();
        PrefixBounds {
            lower: KeyBound::Included(start),
            upper: KeyBound::Included(end),
        }
    }
}

impl From<(KeyBound, KeyBound)> for PrefixBounds {
    fn from((lower, upper): (KeyBound, KeyBound)) -> Self {
        PrefixBounds { lower, upper }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(text: &str) -> KeySchema {
        KeySchema::parse(text).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for text in [
            "{u64}",
            "{u8}",
            "{u32,u32}",
            "{u32,u32,str16}",
            "{i64,u16}",
            "{str8,u8,i64}",
        ] {
            let s = schema(text);
            assert_eq!(s.to_string(), text);
            assert_eq!(KeySchema::parse(&s.to_string()).unwrap(), s);
        }
        assert!(KeySchema::parse("{}").is_err());
        assert!(KeySchema::parse("{u128}").is_err());
        assert!(KeySchema::parse("{str0}").is_err());
        assert!(KeySchema::parse("{str33}").is_err());
        assert!(KeySchema::parse("u64").is_err());
        // Over the 32-byte raw-width cap.
        assert!(KeySchema::parse("{str32,u8}").is_err());
    }

    #[test]
    fn width_buckets() {
        assert_eq!(schema("{u64}").encoded_width(), 8);
        assert_eq!(schema("{u32,u32}").encoded_width(), 8);
        assert_eq!(schema("{u32,u32,u8}").encoded_width(), 16);
        assert_eq!(schema("{u32,u32,str16}").encoded_width(), 32);
        assert_eq!(schema("{str16}").encoded_width(), 16);
    }

    #[test]
    fn unit_u64_encoding_is_the_identity() {
        let s = KeySchema::raw_u64();
        for v in [0, 1, 42, u32::MAX as u64, u64::MAX] {
            assert_eq!(s.encode(&[KeyValue::U64(v)]).unwrap().limb(0), v);
        }
        assert_eq!(
            s.encode_rows(&[vec![KeyValue::U64(7)], vec![KeyValue::U64(9)]])
                .unwrap(),
            vec![7, 9]
        );
    }

    #[test]
    fn encoding_preserves_tuple_order() {
        let s = schema("{u32,i64,str8}");
        let tuples: Vec<KeyTuple> = vec![
            vec![0u64.into(), (-5i64).into(), "zz".into()],
            vec![1u64.into(), i64::MIN.into(), "".into()],
            vec![1u64.into(), (-1i64).into(), "abc".into()],
            vec![1u64.into(), 0i64.into(), "".into()],
            vec![1u64.into(), 0i64.into(), "a".into()],
            vec![1u64.into(), 0i64.into(), "ab".into()],
            vec![1u64.into(), i64::MAX.into(), "x".into()],
            vec![2u64.into(), (-9i64).into(), "".into()],
        ];
        let encoded: Vec<EncodedKey> = tuples.iter().map(|t| s.encode(t).unwrap()).collect();
        for w in encoded.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn encoding_rejects_mismatches() {
        let s = schema("{u8,str4}");
        // Arity.
        assert!(s.encode(&[1u64.into()]).is_err());
        // Width overflow.
        assert!(s.encode(&[256u64.into(), "ab".into()]).is_err());
        // Type mismatch.
        assert!(s.encode(&[(-1i64).into(), "ab".into()]).is_err());
        // String too long.
        assert!(s.encode(&[1u64.into(), "abcde".into()]).is_err());
        // NUL collides with padding.
        assert!(s.encode(&[1u64.into(), "a\0".into()]).is_err());
    }

    #[test]
    fn direct_compile_points_and_ranges() {
        let s = schema("{u32,u32}");
        let enc = |a: u64, b: u64| s.encode(&[a.into(), b.into()]).unwrap().limb(0);
        let batch = TypedBatch::new()
            .point([5u64.into(), 10u64.into()])
            .range([5u64.into(), 10u64.into()], [5u64.into(), 20u64.into()])
            .fetch_values(true);
        let compiled = s.compile(&batch).unwrap();
        assert_eq!(compiled.point_keys(), &[enc(5, 10)]);
        assert_eq!(compiled.range_bounds(), &[(enc(5, 10), enc(5, 20))]);
        assert!(!compiled.is_range(0) && compiled.is_range(1));
        assert!(compiled.fetches_values());

        // Inverted typed range compiles to the canonical empty range.
        let inverted =
            TypedBatch::new().range([6u64.into(), 0u64.into()], [5u64.into(), 0u64.into()]);
        assert_eq!(s.compile(&inverted).unwrap().range_bounds(), &[(1, 0)]);
    }

    #[test]
    fn prefix_compilation_covers_exactly_the_prefix() {
        let s = schema("{u32,u32}");
        let enc = |a: u64, b: u64| s.encode(&[a.into(), b.into()]).unwrap().limb(0);

        // Pure prefix: all rows with a=5.
        let op = TypedOp::Prefix {
            prefix: vec![5u64.into()],
            lower: KeyBound::Unbounded,
            upper: KeyBound::Unbounded,
        };
        match s.compile_op(&op).unwrap() {
            EncodedRange::Range(lo, hi) => {
                assert_eq!(lo.limb(0), enc(5, 0));
                assert_eq!(hi.limb(0), enc(5, u32::MAX as u64));
            }
            other => panic!("{other:?}"),
        }

        // Half-open bound: a=5, b in [10, 20).
        let op = TypedOp::Prefix {
            prefix: vec![5u64.into()],
            lower: KeyBound::Included(10u64.into()),
            upper: KeyBound::Excluded(20u64.into()),
        };
        match s.compile_op(&op).unwrap() {
            EncodedRange::Range(lo, hi) => {
                assert_eq!(lo.limb(0), enc(5, 10));
                assert_eq!(hi.limb(0), enc(5, 19));
            }
            other => panic!("{other:?}"),
        }

        // Exclusive lower.
        let op = TypedOp::Prefix {
            prefix: vec![5u64.into()],
            lower: KeyBound::Excluded(10u64.into()),
            upper: KeyBound::Unbounded,
        };
        match s.compile_op(&op).unwrap() {
            EncodedRange::Range(lo, _) => assert_eq!(lo.limb(0), enc(5, 11)),
            other => panic!("{other:?}"),
        }

        // Excluding the column maximum from below leaves nothing.
        let op = TypedOp::Prefix {
            prefix: vec![5u64.into()],
            lower: KeyBound::Excluded((u32::MAX as u64).into()),
            upper: KeyBound::Unbounded,
        };
        assert_eq!(s.compile_op(&op).unwrap(), EncodedRange::Empty);

        // Excluding zero from above leaves nothing.
        let op = TypedOp::Prefix {
            prefix: vec![5u64.into()],
            lower: KeyBound::Unbounded,
            upper: KeyBound::Excluded(0u64.into()),
        };
        assert_eq!(s.compile_op(&op).unwrap(), EncodedRange::Empty);

        // Full-arity prefix is a point.
        let op = TypedOp::Prefix {
            prefix: vec![5u64.into(), 7u64.into()],
            lower: KeyBound::Unbounded,
            upper: KeyBound::Unbounded,
        };
        assert_eq!(
            s.compile_op(&op).unwrap(),
            EncodedRange::Point(s.encode(&[5u64.into(), 7u64.into()]).unwrap())
        );

        // Empty prefix with bounds on the first column.
        let op = TypedOp::Prefix {
            prefix: vec![],
            lower: KeyBound::Included(3u64.into()),
            upper: KeyBound::Excluded(4u64.into()),
        };
        match s.compile_op(&op).unwrap() {
            EncodedRange::Range(lo, hi) => {
                assert_eq!(lo.limb(0), enc(3, 0));
                assert_eq!(hi.limb(0), enc(3, u32::MAX as u64));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn prefix_ranges_order_correctly_on_wide_schemas() {
        let s = schema("{u32,str16,u32}");
        assert_eq!(s.limbs(), 4);
        let t = |a: u64, b: &str, c: u64| s.encode(&[a.into(), b.into(), c.into()]).unwrap();
        let op = TypedOp::Prefix {
            prefix: vec![7u64.into(), "de".into()],
            lower: KeyBound::Included(10u64.into()),
            upper: KeyBound::Excluded(20u64.into()),
        };
        let EncodedRange::Range(lo, hi) = s.compile_op(&op).unwrap() else {
            panic!("expected a range");
        };
        assert!(lo <= t(7, "de", 10) && t(7, "de", 10) <= hi);
        assert!(lo <= t(7, "de", 19) && t(7, "de", 19) <= hi);
        assert!(t(7, "de", 20) > hi);
        assert!(t(7, "de", 9) < lo);
        assert!(t(7, "dd", 15) < lo);
        assert!(t(7, "df", 15) > hi);
        assert!(t(6, "de", 15) < lo);
        assert!(t(8, "de", 15) > hi);
    }

    #[test]
    fn wide_schemas_refuse_stateless_compile() {
        let s = schema("{u64,u64}");
        let err = s
            .compile(&TypedBatch::new().point([1u64.into(), 2u64.into()]))
            .unwrap_err();
        assert!(err.to_string().contains("registry"), "{err}");
        assert!(s.encode_rows(&[vec![1u64.into(), 2u64.into()]]).is_err());
    }

    #[test]
    fn typed_batch_builder_and_bounds() {
        let b = TypedBatch::new()
            .point([1u64.into()])
            .prefix([2u64.into()])
            .prefix_range([3u64.into()], 4u64.into()..10u64.into())
            .prefix_range([5u64.into()], 6u64.into()..=9u64.into())
            .fetch_values(true)
            .with_chunk_size(32);
        assert_eq!(b.len(), 4);
        assert!(b.fetches_values());
        assert_eq!(b.chunk_size(), Some(32));
        assert!(matches!(
            &b.ops()[2],
            TypedOp::Prefix {
                upper: KeyBound::Excluded(KeyValue::U64(10)),
                ..
            }
        ));
        assert!(matches!(
            &b.ops()[3],
            TypedOp::Prefix {
                upper: KeyBound::Included(KeyValue::U64(9)),
                ..
            }
        ));
    }

    #[test]
    fn encoded_key_round_trips_through_limbs() {
        let s = schema("{u32,str16,u32}");
        let k = s
            .encode(&[7u64.into(), "hello".into(), 9u64.into()])
            .unwrap();
        assert_eq!(EncodedKey::from_limbs(k.limbs()), k);
    }
}
