//! Versioned snapshot/restore — the serialization kernel behind
//! `hcsim-snapshot/v1`.
//!
//! Every stateful layer of the simulator (queues, RNGs, statistics,
//! interconnect models, accelerators, the hypervisor, the topology
//! forest) implements one of two capabilities defined here:
//!
//! * [`PersistValue`] — plain data that can be written to a byte stream
//!   and *reconstructed* from it (`load_value` builds a fresh value).
//!   Queues, beats, statistics and enums are values.
//! * [`Persist`] — components restored *in place* into an identically
//!   constructed object (`restore` overwrites mutable state). This is
//!   the shape required by types that own non-serializable parts
//!   (closures, boxed trait objects): the caller rebuilds the object
//!   from its original configuration, then `restore` overlays the
//!   snapshot state.
//!
//! A blanket impl makes every `PersistValue` a `Persist` (restore =
//! load-and-assign), so component code can treat both uniformly.
//!
//! The container format is [`Snapshot`]: a magic line
//! (`hcsim-snapshot/v1`), a section count, and named sections each
//! carrying an independent CRC-32 checksum. Sections let a consumer
//! (or the CI schema checker) validate and locate state per layer
//! without decoding unrelated layers, and the per-section checksum
//! pinpoints which layer a corrupted snapshot lost.
//!
//! # Determinism contract
//!
//! Snapshot bytes are a pure function of logical simulator state:
//! collections serialize in logical (front-to-back / sorted-key) order,
//! never in storage order. Two states that behave identically must
//! snapshot identically — this is what lets the equivalence oracle
//! compare snapshots taken under different schedulers byte for byte.
//!
//! # Example
//!
//! ```
//! use sim::persist::{Persist, PersistValue, Snapshot, SnapshotWriter};
//! use sim::TimedFifo;
//!
//! let mut fifo: TimedFifo<u32> = TimedFifo::new(4, 1);
//! fifo.push(10, 42).unwrap();
//!
//! let mut w = SnapshotWriter::new();
//! fifo.save(&mut w);
//! let mut snap = Snapshot::new();
//! snap.push_section("fifo", w);
//! let bytes = snap.to_bytes();
//!
//! let reread = Snapshot::from_bytes(&bytes).unwrap();
//! let mut fresh: TimedFifo<u32> = TimedFifo::new(4, 1);
//! let mut r = reread.section("fifo").unwrap();
//! fresh.restore(&mut r).unwrap();
//! assert_eq!(fresh.pop_ready(11), Some(42));
//! ```

/// The on-disk / in-memory format tag for snapshots produced by this
/// crate. Bump the suffix on any incompatible layout change.
pub const FORMAT_TAG: &str = "hcsim-snapshot/v1";

/// Error raised while decoding or validating snapshot bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The byte stream ended before the expected value.
    Truncated {
        /// What was being decoded when the stream ran out.
        context: &'static str,
    },
    /// The container does not start with [`FORMAT_TAG`].
    BadMagic,
    /// A section's payload failed its CRC-32 check.
    ChecksumMismatch {
        /// Name of the corrupted section.
        section: String,
    },
    /// A required section is absent from the container.
    MissingSection(String),
    /// A decoded value is structurally invalid (bad discriminant,
    /// length overflow, non-UTF-8 string, ...).
    Corrupt(&'static str),
    /// The snapshot was taken from a differently-shaped system than the
    /// restore target (e.g. node-count mismatch).
    ShapeMismatch(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { context } => write!(f, "snapshot truncated while reading {context}"),
            Self::BadMagic => write!(f, "not a {FORMAT_TAG} snapshot"),
            Self::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
            Self::MissingSection(name) => write!(f, "missing snapshot section '{name}'"),
            Self::Corrupt(what) => write!(f, "corrupt snapshot value: {what}"),
            Self::ShapeMismatch(what) => write!(f, "snapshot/target shape mismatch: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte slice.
///
/// Self-contained so the workspace stays dependency-free; the CI schema
/// checker re-implements the same polynomial in Python.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Little-endian byte sink for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Little-endian byte source for snapshot payloads.
#[derive(Debug, Clone)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Wraps a payload slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a bool (rejecting bytes other than 0/1).
    pub fn take_bool(&mut self) -> Result<bool, PersistError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Corrupt("bool")),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, PersistError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8, "u64")?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `u128`.
    pub fn take_u128(&mut self) -> Result<u128, PersistError> {
        let b = self.take(16, "u128")?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// Reads a `usize` stored as `u64`.
    pub fn take_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt("usize overflow"))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed byte slice.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let len = self.take_usize()?;
        self.take(len, "bytes")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, PersistError> {
        let b = self.take_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| PersistError::Corrupt("utf-8 string"))
    }
}

/// In-place snapshot capability for stateful components.
///
/// `restore` must be called on an object constructed (and configured)
/// identically to the one that was saved; it overlays the snapshot's
/// mutable state. Implemented automatically for every [`PersistValue`].
pub trait Persist {
    /// Appends this object's state to the writer.
    fn save(&self, w: &mut SnapshotWriter);

    /// Overwrites this object's state from the reader.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] if the stream is truncated, corrupt or
    /// shaped for a different configuration.
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError>;
}

/// Snapshot capability for plain data: values that can be rebuilt from
/// bytes alone (no closures, no trait objects, no external config).
pub trait PersistValue: Sized {
    /// Appends this value to the writer.
    fn save_value(&self, w: &mut SnapshotWriter);

    /// Reconstructs a value from the reader.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] if the stream is truncated or corrupt.
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError>;
}

impl<T: PersistValue> Persist for T {
    fn save(&self, w: &mut SnapshotWriter) {
        self.save_value(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        *self = T::load_value(r)?;
        Ok(())
    }
}

macro_rules! persist_int {
    ($ty:ty, $put:ident, $take:ident) => {
        impl PersistValue for $ty {
            fn save_value(&self, w: &mut SnapshotWriter) {
                w.$put(*self);
            }
            fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
                r.$take()
            }
        }
    };
}

/// Implements [`PersistValue`] for a plain struct from one field list.
///
/// Fields are written and read in the listed order, each through its
/// own `PersistValue`; the list *is* the wire layout, so new fields are
/// appended at the end. Loading builds a `Self { .. }` literal, so a
/// field missing from the list is a compile error. Tuple structs list
/// their positions (`PortId { 0 }`); generic containers name their type
/// parameters first (`impl<T> TimedFifo<T> { .. }`), each bound by
/// `PersistValue`.
///
/// An optional `check |value| { .. }` block validates the decoded value
/// and may `return Err(..)`; it runs after every field is read.
///
/// ```
/// use sim::persist::{PersistError, PersistValue, SnapshotReader, SnapshotWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Window {
///     lo: u64,
///     hi: u64,
///     label: Option<String>,
/// }
///
/// sim::persist_fields!(Window { lo, hi, label } check |win| {
///     if win.lo > win.hi {
///         return Err(PersistError::Corrupt("inverted window"));
///     }
/// });
///
/// let win = Window { lo: 4, hi: 9, label: None };
/// let mut w = SnapshotWriter::new();
/// win.save_value(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(Window::load_value(&mut SnapshotReader::new(&bytes)), Ok(win));
/// ```
///
/// A field left out of the list does not build:
///
/// ```compile_fail
/// struct Window {
///     lo: u64,
///     hi: u64,
/// }
///
/// sim::persist_fields!(Window { lo });
/// ```
#[macro_export]
macro_rules! persist_fields {
    (
        impl<$($gen:ident),+> $ty:ty { $($field:tt),+ $(,)? }
        $(check |$value:ident| $check:block)?
    ) => {
        $crate::persist_fields!(@impl [$($gen),+] $ty { $($field),+ } $(check |$value| $check)?);
    };
    (
        $ty:ty { $($field:tt),+ $(,)? }
        $(check |$value:ident| $check:block)?
    ) => {
        $crate::persist_fields!(@impl [] $ty { $($field),+ } $(check |$value| $check)?);
    };
    (
        @impl [$($gen:ident),*] $ty:ty { $($field:tt),+ }
        $(check |$value:ident| $check:block)?
    ) => {
        impl<$($gen: $crate::persist::PersistValue),*> $crate::persist::PersistValue for $ty {
            fn save_value(&self, w: &mut $crate::persist::SnapshotWriter) {
                $( $crate::persist::PersistValue::save_value(&self.$field, w); )+
            }

            fn load_value(
                r: &mut $crate::persist::SnapshotReader<'_>,
            ) -> ::core::result::Result<Self, $crate::persist::PersistError> {
                let loaded = Self {
                    $( $field: $crate::persist::PersistValue::load_value(r)?, )+
                };
                $({
                    let $value = &loaded;
                    $check
                })?
                Ok(loaded)
            }
        }
    };
}

/// Implements [`PersistValue`] for a fieldless enum as a one-byte code
/// (or `as u32` etc. for a wider one): a variant's position in the list
/// is its wire code. The list is append-only — reordering it remaps
/// every stored snapshot. The save side matches exhaustively, so a
/// variant added to the enum but not to the list fails to build; an
/// unknown code on load is `PersistError::Corrupt($err)`.
///
/// ```
/// use sim::persist::{PersistError, PersistValue, SnapshotReader, SnapshotWriter};
///
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Level {
///     Low,
///     High,
/// }
///
/// sim::persist_enum!(Level, "unknown level", [Low, High]);
///
/// let mut w = SnapshotWriter::new();
/// Level::High.save_value(&mut w);
/// assert_eq!(w.into_bytes(), vec![1]);
/// assert_eq!(
///     Level::load_value(&mut SnapshotReader::new(&[2])),
///     Err(PersistError::Corrupt("unknown level"))
/// );
/// ```
#[macro_export]
macro_rules! persist_enum {
    ($ty:ident, $err:literal, [$($variant:ident),+ $(,)?]) => {
        $crate::persist_enum!($ty as u8, $err, [$($variant),+]);
    };
    ($ty:ident as $code:ty, $err:literal, [$($variant:ident),+ $(,)?]) => {
        impl $crate::persist::PersistValue for $ty {
            fn save_value(&self, w: &mut $crate::persist::SnapshotWriter) {
                const TABLE: &[$ty] = &[$($ty::$variant),+];
                match self {
                    $($ty::$variant)|+ => {}
                }
                let code = TABLE
                    .iter()
                    .position(|v| v == self)
                    .expect("variant in wire table");
                let code = <$code>::try_from(code).expect("wire code fits its width");
                $crate::persist::PersistValue::save_value(&code, w);
            }

            fn load_value(
                r: &mut $crate::persist::SnapshotReader<'_>,
            ) -> ::core::result::Result<Self, $crate::persist::PersistError> {
                const TABLE: &[$ty] = &[$($ty::$variant),+];
                let code = <$code as $crate::persist::PersistValue>::load_value(r)?;
                usize::try_from(code)
                    .ok()
                    .and_then(|i| TABLE.get(i))
                    .copied()
                    .ok_or($crate::persist::PersistError::Corrupt($err))
            }
        }
    };
}

/// Generates `save_state` / `restore_state` for a component restored in
/// place (the shape of `ha::Accelerator`, `axi::AxiInterconnect` and
/// the memory controller / hypervisor inherent methods). The form
/// `Type as save, restore { .. }` names the two methods instead, e.g. to
/// implement [`Persist`]. An optional
/// `shape |this| expr => "what"` clause before the field list writes a
/// leading shape word (say, a port count) that a restore target must
/// reproduce, or the restore fails with `PersistError::ShapeMismatch`.
///
/// Every field of the struct appears exactly once: either in the
/// persisted list — written in order through its `PersistValue` — or
/// in a `skip "reason" { .. }` group, which documents why it is not
/// state (construction-time configuration, scratch buffers, handles the
/// caller rebuilds). Both methods destructure `Self`, so a new field
/// that is neither listed nor skipped fails to build.
///
/// Restore is all-or-nothing: every persisted field decodes into a
/// temporary of the field's own type, then the optional
/// `check |this| { .. }` block runs — it sees each decoded value under
/// its field name and the untouched component as `this`, and may
/// `return Err(..)` — and only then are the fields assigned. A corrupt
/// or mismatched stream therefore leaves the component unchanged.
///
/// ```
/// use sim::persist::{PersistError, SnapshotReader, SnapshotWriter};
///
/// struct Counter {
///     lanes: usize,
///     counts: Vec<u64>,
///     total: u64,
/// }
///
/// impl Counter {
///     sim::persist_state! {
///         pub Counter { counts, total }
///         skip "construction-time configuration" { lanes }
///         check |this| {
///             if counts.len() != this.lanes {
///                 return Err(PersistError::ShapeMismatch("lane count"));
///             }
///         }
///     }
/// }
///
/// let busy = Counter { lanes: 2, counts: vec![3, 4], total: 7 };
/// let mut w = SnapshotWriter::new();
/// busy.save_state(&mut w);
/// let bytes = w.into_bytes();
///
/// let mut fresh = Counter { lanes: 2, counts: vec![0, 0], total: 0 };
/// fresh.restore_state(&mut SnapshotReader::new(&bytes)).unwrap();
/// assert_eq!((fresh.counts, fresh.total), (vec![3, 4], 7));
///
/// let mut narrow = Counter { lanes: 1, counts: vec![0], total: 0 };
/// let err = narrow.restore_state(&mut SnapshotReader::new(&bytes));
/// assert_eq!(err, Err(PersistError::ShapeMismatch("lane count")));
/// assert_eq!(narrow.total, 0, "a rejected restore changes nothing");
/// ```
///
/// A field that is neither persisted nor skipped does not build:
///
/// ```compile_fail
/// struct Counter {
///     lanes: usize,
///     total: u64,
/// }
///
/// impl Counter {
///     sim::persist_state! {
///         pub Counter { total }
///     }
/// }
/// ```
#[macro_export]
macro_rules! persist_state {
    (
        @impl [$vis:vis] $save:ident $restore:ident $ty:ident
        $(shape |$sthis:ident| $shape:expr => $shape_err:literal)?
        { $($field:ident),+ $(,)? }
        $(skip $why:literal { $($skip:ident),+ $(,)? })*
        $(check |$this:ident| $check:block)?
    ) => {
        /// Appends the persisted fields, in declaration order.
        $vis fn $save(&self, w: &mut $crate::persist::SnapshotWriter) {
            $({
                let $sthis = self;
                $crate::persist::PersistValue::save_value(&$shape, w);
            })?
            let $ty { $($field,)+ $($($skip: _,)+)* } = self;
            $( $crate::persist::PersistValue::save_value($field, w); )+
        }

        /// Restores state written by the matching save into a
        /// component built with the same configuration. Decodes (and
        /// checks) everything before assigning anything.
        $vis fn $restore(
            &mut self,
            r: &mut $crate::persist::SnapshotReader<'_>,
        ) -> ::core::result::Result<(), $crate::persist::PersistError> {
            fn load_like<T: $crate::persist::PersistValue>(
                _field: &T,
                r: &mut $crate::persist::SnapshotReader<'_>,
            ) -> ::core::result::Result<T, $crate::persist::PersistError> {
                T::load_value(r)
            }
            $({
                let $sthis = &*self;
                let expected = $shape;
                if load_like(&expected, r)? != expected {
                    return Err($crate::persist::PersistError::ShapeMismatch($shape_err));
                }
            })?
            let $ty { $($field: _,)+ $($($skip: _,)+)* } = self;
            $( let $field = load_like(&self.$field, r)?; )+
            $({
                let $this = &*self;
                $check
            })?
            $( self.$field = $field; )+
            Ok(())
        }
    };
    ($vis:vis $ty:ident as $save:ident, $restore:ident $($rest:tt)+) => {
        $crate::persist_state!(@impl [$vis] $save $restore $ty $($rest)+);
    };
    ($vis:vis $ty:ident $($rest:tt)+) => {
        $crate::persist_state!(@impl [$vis] save_state restore_state $ty $($rest)+);
    };
}

persist_int!(u8, put_u8, take_u8);
persist_int!(u16, put_u16, take_u16);
persist_int!(u32, put_u32, take_u32);
persist_int!(u64, put_u64, take_u64);
persist_int!(u128, put_u128, take_u128);
persist_int!(usize, put_usize, take_usize);
persist_int!(bool, put_bool, take_bool);
persist_int!(f64, put_f64, take_f64);

impl PersistValue for i64 {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_u64(*self as u64);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(r.take_u64()? as i64)
    }
}

impl PersistValue for String {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        r.take_str()
    }
}

impl<T: PersistValue> PersistValue for Option<T> {
    fn save_value(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                v.save_value(w);
            }
        }
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        if r.take_bool()? {
            Ok(Some(T::load_value(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: PersistValue> PersistValue for Vec<T> {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for v in self {
            v.save_value(w);
        }
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let len = r.take_usize()?;
        // Guard against absurd lengths from corrupt streams before
        // reserving memory: every element is at least one byte.
        if len > r.remaining() {
            return Err(PersistError::Corrupt("vec length exceeds stream"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::load_value(r)?);
        }
        Ok(out)
    }
}

impl<T: PersistValue> PersistValue for std::collections::VecDeque<T> {
    /// Serialized front-to-back (logical order), so the byte stream is
    /// independent of the deque's internal split point.
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for v in self {
            v.save_value(w);
        }
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let len = r.take_usize()?;
        if len > r.remaining() {
            return Err(PersistError::Corrupt("deque length exceeds stream"));
        }
        let mut out = std::collections::VecDeque::with_capacity(len);
        for _ in 0..len {
            out.push_back(T::load_value(r)?);
        }
        Ok(out)
    }
}

impl<K, V, S> PersistValue for std::collections::HashMap<K, V, S>
where
    K: PersistValue + Ord + std::hash::Hash + Eq,
    V: PersistValue,
    S: std::hash::BuildHasher + Default,
{
    /// Serialized in ascending key order, so the byte stream does not
    /// depend on hash-map iteration order.
    fn save_value(&self, w: &mut SnapshotWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.put_usize(entries.len());
        for (k, v) in entries {
            k.save_value(w);
            v.save_value(w);
        }
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let len = r.take_usize()?;
        if len > r.remaining() {
            return Err(PersistError::Corrupt("map count exceeds stream"));
        }
        let mut map = Self::with_capacity_and_hasher(len, S::default());
        for _ in 0..len {
            let k = K::load_value(r)?;
            if map.insert(k, V::load_value(r)?).is_some() {
                return Err(PersistError::Corrupt("duplicate map key"));
            }
        }
        Ok(map)
    }
}

impl<A: PersistValue, B: PersistValue> PersistValue for (A, B) {
    fn save_value(&self, w: &mut SnapshotWriter) {
        self.0.save_value(w);
        self.1.save_value(w);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok((A::load_value(r)?, B::load_value(r)?))
    }
}

impl<A: PersistValue, B: PersistValue, C: PersistValue> PersistValue for (A, B, C) {
    fn save_value(&self, w: &mut SnapshotWriter) {
        self.0.save_value(w);
        self.1.save_value(w);
        self.2.save_value(w);
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok((A::load_value(r)?, B::load_value(r)?, C::load_value(r)?))
    }
}

impl<T: PersistValue, const N: usize> PersistValue for [T; N] {
    fn save_value(&self, w: &mut SnapshotWriter) {
        for v in self {
            v.save_value(w);
        }
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load_value(r)?);
        }
        out.try_into()
            .map_err(|_| PersistError::Corrupt("array length"))
    }
}

/// One named, checksummed slice of a snapshot.
#[derive(Debug, Clone)]
struct Section {
    name: String,
    payload: Vec<u8>,
}

/// A complete `hcsim-snapshot/v1` container: named sections, each with
/// an independent CRC-32 validated on decode.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    sections: Vec<Section>,
}

impl Snapshot {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section holding the writer's payload.
    pub fn push_section(&mut self, name: &str, w: SnapshotWriter) {
        self.sections.push(Section {
            name: name.to_owned(),
            payload: w.into_bytes(),
        });
    }

    /// Section names in container order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.name.as_str()).collect()
    }

    /// A reader over the named section's payload.
    pub fn section(&self, name: &str) -> Option<SnapshotReader<'_>> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| SnapshotReader::new(&s.payload))
    }

    /// A reader over the named section, or [`PersistError::MissingSection`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::MissingSection`] when absent.
    pub fn require_section(&self, name: &str) -> Result<SnapshotReader<'_>, PersistError> {
        self.section(name)
            .ok_or_else(|| PersistError::MissingSection(name.to_owned()))
    }

    /// Serializes the container:
    ///
    /// ```text
    /// "hcsim-snapshot/v1\n"
    /// u32 section_count
    /// per section:
    ///   u16 name_len, name bytes (UTF-8)
    ///   u32 payload_len, payload bytes
    ///   u32 crc32(payload)
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(FORMAT_TAG.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            out.extend_from_slice(&(s.name.len() as u16).to_le_bytes());
            out.extend_from_slice(s.name.as_bytes());
            out.extend_from_slice(&(s.payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&s.payload);
            out.extend_from_slice(&crc32(&s.payload).to_le_bytes());
        }
        out
    }

    /// Parses and checksum-validates a container produced by
    /// [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on bad magic, truncation or a CRC
    /// mismatch in any section.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let magic_len = FORMAT_TAG.len() + 1;
        if bytes.len() < magic_len
            || &bytes[..magic_len - 1] != FORMAT_TAG.as_bytes()
            || bytes[magic_len - 1] != b'\n'
        {
            return Err(PersistError::BadMagic);
        }
        let mut r = SnapshotReader::new(&bytes[magic_len..]);
        let count = r.take_u32()? as usize;
        let mut sections = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            let name_len = r.take_u16()? as usize;
            let name = String::from_utf8(r.take(name_len, "section name")?.to_vec())
                .map_err(|_| PersistError::Corrupt("section name utf-8"))?;
            let payload_len = r.take_u32()? as usize;
            let payload = r.take(payload_len, "section payload")?.to_vec();
            let stored_crc = r.take_u32()?;
            if crc32(&payload) != stored_crc {
                return Err(PersistError::ChecksumMismatch { section: name });
            }
            sections.push(Section { name, payload });
        }
        Ok(Self { sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scalar_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_u128(1 << 100);
        w.put_bool(true);
        w.put_f64(1.5);
        w.put_str("hello");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u16().unwrap(), 300);
        assert_eq!(r.take_u32().unwrap(), 70_000);
        assert_eq!(r.take_u64().unwrap(), 1 << 40);
        assert_eq!(r.take_u128().unwrap(), 1 << 100);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_f64().unwrap(), 1.5);
        assert_eq!(r.take_str().unwrap(), "hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = SnapshotReader::new(&[1, 2]);
        assert!(matches!(r.take_u64(), Err(PersistError::Truncated { .. })));
    }

    #[test]
    fn value_containers_roundtrip() {
        let original: Vec<(u64, Option<String>)> =
            vec![(1, Some("a".into())), (2, None), (3, Some("ccc".into()))];
        let mut w = SnapshotWriter::new();
        original.save_value(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let loaded = Vec::<(u64, Option<String>)>::load_value(&mut r).unwrap();
        assert_eq!(loaded, original);
    }

    #[test]
    fn corrupt_length_is_rejected_before_allocating() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.push(1);
        assert_eq!(
            std::collections::VecDeque::<u8>::load_value(&mut SnapshotReader::new(&bytes)).err(),
            Some(PersistError::Corrupt("deque length exceeds stream"))
        );
    }

    #[test]
    fn array_roundtrip() {
        let state: [u64; 4] = [1, 2, 3, u64::MAX];
        let mut w = SnapshotWriter::new();
        state.save_value(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(<[u64; 4]>::load_value(&mut r).unwrap(), state);
    }

    #[test]
    fn snapshot_container_roundtrip() {
        let mut snap = Snapshot::new();
        let mut w = SnapshotWriter::new();
        w.put_u64(42);
        snap.push_section("alpha", w);
        let mut w = SnapshotWriter::new();
        w.put_str("beta-data");
        snap.push_section("beta", w);

        let bytes = snap.to_bytes();
        assert!(bytes.starts_with(b"hcsim-snapshot/v1\n"));

        let reread = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(reread.section_names(), vec!["alpha", "beta"]);
        assert_eq!(reread.section("alpha").unwrap().take_u64().unwrap(), 42);
        assert_eq!(
            reread.section("beta").unwrap().take_str().unwrap(),
            "beta-data"
        );
        assert!(reread.section("gamma").is_none());
        assert!(matches!(
            reread.require_section("gamma"),
            Err(PersistError::MissingSection(_))
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut snap = Snapshot::new();
        let mut w = SnapshotWriter::new();
        w.put_u64(7);
        snap.push_section("s", w);
        let mut bytes = snap.to_bytes();
        // Flip a payload byte (magic + count + name header precede it).
        let idx = bytes.len() - 6;
        bytes[idx] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            Snapshot::from_bytes(b"not-a-snapshot\n\0\0\0\0"),
            Err(PersistError::BadMagic)
        ));
    }
}
