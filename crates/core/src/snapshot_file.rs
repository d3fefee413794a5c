//! Crash-safe single-file snapshot persistence.
//!
//! A [`StatsSnapshot`] is rebuilt from the generator on every process start
//! (seconds at full scale); this module makes the offline phase durable: a
//! versioned, checksummed single-file binary format plus an atomic writer
//! and a corruption-tolerant loader, so a replica fleet can ship one file
//! instead of re-running the build.
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! magic            8  b"SAFEBSNP"
//! format_version   u32
//! saved_build_id   u64   (informational; loads mint a fresh id)
//! build_time_ns    u64
//! num_tables       u32
//! total_rows       u64
//! schema_fp        u64   fingerprint of table names + join columns
//! param_fp         u64   fingerprint of the SafeBoundConfig encoding
//! num_sections     u32
//! per section:     id u32, offset u64, len u64, xxh64 checksum u64
//! section payloads (symbols, config, tables)
//! trailer          u64   xxh64 over the header and section table
//! ```
//!
//! Every stored checksum and fingerprint is XXH64 with seed 0
//! ([`xxh64`]), the content checksum of the zstd and LZ4 frame formats.
//! The section payloads tile the bytes between the section table and the
//! trailer exactly — no gap, no overlap, in any id order — so every byte
//! of the file is covered by exactly one checksum: the header and section
//! table by the trailer, each payload by its section's entry, and the
//! trailer by itself. A load hashes each byte once.
//!
//! # Version history
//!
//! - **1**: byte-serial FNV-1a checksums; the trailer covered every
//!   preceding byte.
//! - **2**: XXH64 checksums; the trailer still covered every preceding
//!   byte, so every payload byte was hashed twice per load.
//! - **3** (current): the trailer covers the header and section table
//!   only, and the sections must tile the body. Same byte layout and size
//!   as version 2.
//!
//! Files of any other version are refused as
//! [`SnapshotFileError::UnsupportedVersion`] before any checksum runs
//! (the server's `--snapshot-load` then falls back to a build); a
//! version-2 file must be saved again.
//!
//! # Robustness contract
//!
//! - **Atomic publish**: [`save_snapshot`] serializes to `<path>.tmp`,
//!   fsyncs the file, renames over the target, then fsyncs the parent
//!   directory. A crash at any point leaves the old file or the new file
//!   on disk, never a hybrid.
//! - **Validate before construct**: [`load_snapshot`] checks magic,
//!   format version, the trailer checksum, the section tiling and every
//!   per-section checksum *before* decoding a single statistic, then
//!   validates all
//!   structural invariants (sorted CDS sets, Bloom geometry, histogram
//!   bucket shapes, symbol ranges) during decoding. Every failure is a
//!   typed [`SnapshotFileError`]; nothing on the load path panics (the
//!   module denies `clippy::unwrap_used`, `expect_used`, `panic`, `todo`
//!   and `unimplemented`).
//! - **Bit-identical round trip**: a decoded snapshot's statistics
//!   compare equal to the originals, so bounds computed from a loaded
//!   file match the in-RAM build bit for bit. The one intentional
//!   difference is [`StatsSnapshot::build_id`]: loads mint a fresh
//!   process-unique id so sessions flush their caches.
//!
//! Loading is an owned read of the whole file ([`load_snapshot`]). The
//! decoder copies every CDS's knots, in file order, into the snapshot's
//! one [`CdsPool`] (reserved up front from the tables section's length),
//! one bounds check per polyline, each MCV index's Bloom words into one
//! exactly sized [`BloomBank`], and every other statistic into its own
//! small buffers; a decoded snapshot holds no reference to the file
//! bytes. A private `mmap` would fault in the same pages that `read`
//! copies, and it measured no faster.
//!
//! Every file I/O helper consults the [`hooks`] registry, which can
//! inject `io::Error`s, short reads/writes, and byte corruption for
//! paths under an installed prefix. It is always compiled and inert while
//! empty; the serve crate's chaos suite drives it through deterministic
//! schedules.

// A bad file is a typed error, never a panic; the writer runs on the
// refresher thread, where a panic would stop background refresh.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

use crate::bloom::BloomBank;
use crate::conditioning::{
    HistogramLevel, HistogramStats, JoinCol, McvIndex, McvStats, NgramStats,
};
use crate::config::SafeBoundConfig;
use crate::piecewise::PwlView;
use crate::pool::{CdsPool, CdsView, SetRange};
use crate::simd::hash::{xxh64, FastMap};
use crate::stats::{FilterColumnStats, StatsSnapshot, TableStats};
use crate::symbol::{Sym, SymbolTable};
use safebound_storage::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"SAFEBSNP";

/// Current format version; bumped on any incompatible layout change.
/// Readers reject other versions with
/// [`SnapshotFileError::UnsupportedVersion`] rather than guessing.
pub const FORMAT_VERSION: u32 = 3;

const SEC_SYMBOLS: u32 = 1;
const SEC_CONFIG: u32 = 2;
const SEC_TABLES: u32 = 3;
const NUM_SECTIONS: usize = 3;

/// Fixed byte length of everything before the section payloads.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4 + 8 + 8 + 8 + 4 + NUM_SECTIONS * (4 + 8 + 8 + 8);
/// Smallest possible well-formed file: header + empty payloads + trailer.
const MIN_FILE_LEN: usize = HEADER_LEN + 8;

// ---------------------------------------------------------------------
// Error type.
// ---------------------------------------------------------------------

/// Why a snapshot file could not be written or loaded. Every load-path
/// failure mode — torn write, bit flip, truncation, version skew,
/// injected I/O fault — maps to one of these; the loader never panics.
#[derive(Debug)]
pub enum SnapshotFileError {
    /// The underlying file operation failed (or a fault was injected).
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot file.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The file ends before the bytes the format requires.
    Truncated {
        /// Bytes the decoder needed to proceed.
        needed: u64,
        /// Bytes actually available.
        have: u64,
    },
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// Which checksum failed (`"file"`, `"symbols"`, `"config"`,
        /// `"tables"`).
        section: &'static str,
    },
    /// The bytes checksum correctly but violate a structural invariant —
    /// only a buggy or adversarial writer produces this.
    Malformed(&'static str),
    /// Header fingerprints disagree with the decoded content.
    FingerprintMismatch {
        /// Which fingerprint disagreed (`"schema"` or `"params"`).
        kind: &'static str,
    },
    /// A snapshot too large for the format's u32 counts (save-side only).
    TooLarge(&'static str),
}

impl std::fmt::Display for SnapshotFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotFileError::Io(e) => write!(f, "snapshot file I/O: {e}"),
            SnapshotFileError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotFileError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (expected {FORMAT_VERSION})"
                )
            }
            SnapshotFileError::Truncated { needed, have } => {
                write!(
                    f,
                    "snapshot file truncated: needed {needed} bytes, have {have}"
                )
            }
            SnapshotFileError::ChecksumMismatch { section } => {
                write!(f, "snapshot {section} checksum mismatch (file corrupted)")
            }
            SnapshotFileError::Malformed(what) => write!(f, "malformed snapshot file: {what}"),
            SnapshotFileError::FingerprintMismatch { kind } => {
                write!(f, "snapshot {kind} fingerprint mismatch")
            }
            SnapshotFileError::TooLarge(what) => {
                write!(f, "snapshot too large for the file format: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotFileError {
    fn from(e: std::io::Error) -> Self {
        SnapshotFileError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Byte-level encoder / decoder.
// ---------------------------------------------------------------------

/// Append-only little-endian encoder. Infallible by construction: a
/// collection too large for a u32 count latches `too_large` (and writes a
/// placeholder) instead of returning a `Result` from every call site;
/// [`save_snapshot`] checks the latch once before touching the disk.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
    too_large: Option<&'static str>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// A collection count; latches [`Enc::too_large`] on u32 overflow.
    fn count(&mut self, n: usize, what: &'static str) {
        match u32::try_from(n) {
            Ok(v) => self.u32(v),
            Err(_) => {
                self.too_large = Some(what);
                self.u32(u32::MAX);
            }
        }
    }
    fn str(&mut self, s: &str) {
        self.count(s.len(), "string length");
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian cursor over an in-memory file image.
/// Every read is validated; nothing here can panic.
#[derive(Clone)]
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotFileError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapshotFileError::Malformed("length overflow"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotFileError::Truncated {
                needed: end as u64,
                have: self.buf.len() as u64,
            })?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotFileError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotFileError> {
        let b = self.take(4)?;
        let arr: [u8; 4] = b
            .try_into()
            .map_err(|_| SnapshotFileError::Malformed("fixed-width read"))?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, SnapshotFileError> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b
            .try_into()
            .map_err(|_| SnapshotFileError::Malformed("fixed-width read"))?;
        Ok(u64::from_le_bytes(arr))
    }

    fn f64(&mut self) -> Result<f64, SnapshotFileError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A collection count, sanity-bounded against the remaining bytes
    /// (`min_elem` = smallest possible encoding of one element) so a
    /// corrupted count can never drive a pre-allocation of gigabytes.
    fn count(&mut self, min_elem: usize) -> Result<usize, SnapshotFileError> {
        let n = self.u32()? as usize;
        if min_elem > 0 && n > self.remaining() / min_elem {
            return Err(SnapshotFileError::Malformed("count exceeds section size"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, SnapshotFileError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotFileError::Malformed("invalid UTF-8 in string"))
    }

    /// A run of `n` little-endian 64-bit words behind one bounds check.
    fn words(&mut self, n: usize) -> Result<&'a [[u8; 8]], SnapshotFileError> {
        let len = n
            .checked_mul(8)
            .ok_or(SnapshotFileError::Malformed("length overflow"))?;
        Ok(self.take(len)?.as_chunks::<8>().0)
    }
}

// ---------------------------------------------------------------------
// Statistic encodings. Each `enc_*`/`dec_*` pair is symmetric; decoders
// re-validate every invariant the serving path relies on.
// ---------------------------------------------------------------------

fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Int(i) => {
            e.u8(1);
            e.u64(*i as u64);
        }
        Value::Float(f) => {
            e.u8(2);
            e.f64(*f);
        }
        Value::Str(s) => {
            e.u8(3);
            e.str(s);
        }
    }
}

fn dec_value(d: &mut Dec<'_>) -> Result<Value, SnapshotFileError> {
    match d.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(d.u64()? as i64)),
        2 => Ok(Value::Float(d.f64()?)),
        3 => Ok(Value::Str(d.str()?)),
        _ => Err(SnapshotFileError::Malformed("unknown value tag")),
    }
}

fn enc_set(e: &mut Enc, s: CdsView<'_>) {
    e.count(s.len(), "CDS set entry count");
    for (sym, pwl) in s.iter() {
        e.u32(sym.0);
        let knots = pwl.knots();
        e.count(knots.len(), "CDS knot count");
        for &(x, y) in knots {
            e.f64(x);
            e.f64(y);
        }
    }
}

/// Decode a CDS set straight into the pool, enforcing the
/// strictly-sorted-by-symbol invariant its binary searches and sorted
/// merges rely on (`unsorted` names the violation), that every symbol
/// exists in the symbol table, and the CDS invariants of every polyline.
/// Each polyline's knots are appended behind one bounds check.
fn dec_set(
    d: &mut Dec<'_>,
    num_syms: u32,
    pool: &mut CdsPool,
    unsorted: &'static str,
) -> Result<SetRange, SnapshotFileError> {
    let n = d.count(8)?;
    let begin = pool.begin_set();
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        let sym = d.u32()?;
        if sym >= num_syms {
            return Err(SnapshotFileError::Malformed("symbol id out of range"));
        }
        if prev.is_some_and(|p| p >= sym) {
            return Err(SnapshotFileError::Malformed(unsorted));
        }
        prev = Some(sym);
        let k = d.count(16)?;
        let (pairs, _) = d.words(2 * k)?.as_chunks::<2>();
        let knots = pool
            .push_entry(
                Sym(sym),
                pairs
                    .iter()
                    .map(|[x, y]| (f64::from_le_bytes(*x), f64::from_le_bytes(*y))),
            )
            .ok_or(SnapshotFileError::Malformed("CDS pool index overflow"))?;
        PwlView::from_saved_knots(knots)
            .ok_or(SnapshotFileError::Malformed("CDS knots violate invariants"))?;
    }
    pool.end_set(begin)
        .ok_or(SnapshotFileError::Malformed("CDS pool index overflow"))
}

/// [`dec_set`] for every set but the fallback.
fn dec_group(
    d: &mut Dec<'_>,
    num_syms: u32,
    pool: &mut CdsPool,
) -> Result<SetRange, SnapshotFileError> {
    dec_set(
        d,
        num_syms,
        pool,
        "CDS set entries not strictly sorted by symbol",
    )
}

fn enc_index(e: &mut Enc, idx: &McvIndex) {
    match idx {
        McvIndex::Exact(map) => {
            e.u8(0);
            // FastMap iteration order is explicitly not part of any
            // persisted format: sort by the Value total order so the
            // bytes are deterministic.
            let mut entries: Vec<(&Value, usize)> = map.iter().map(|(v, &g)| (v, g)).collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            e.count(entries.len(), "MCV index entry count");
            for (v, g) in entries {
                enc_value(e, v);
                e.u64(g as u64);
            }
        }
        McvIndex::Bloom(bank) => {
            e.u8(1);
            e.count(bank.len(), "Bloom filter count");
            for (bits, num_bits, num_hashes) in bank.iter() {
                e.u64(num_bits);
                e.u32(num_hashes);
                e.count(bits.len(), "Bloom word count");
                for &w in bits {
                    e.u64(w);
                }
            }
        }
    }
}

/// Decode an [`McvIndex`], bounding every group id by `num_groups` (the
/// lookup path indexes `groups[g]` directly) and rebuilding Bloom filters
/// into one exactly sized [`BloomBank`] through its geometry-validating
/// constructor.
fn dec_index(d: &mut Dec<'_>, num_groups: usize) -> Result<McvIndex, SnapshotFileError> {
    match d.u8()? {
        0 => {
            let n = d.count(9)?;
            let mut map = FastMap::default();
            for _ in 0..n {
                let v = dec_value(d)?;
                let g = d.u64()? as usize;
                if g >= num_groups {
                    return Err(SnapshotFileError::Malformed("MCV group id out of range"));
                }
                if map.insert(v, g).is_some() {
                    return Err(SnapshotFileError::Malformed("duplicate MCV index value"));
                }
            }
            Ok(McvIndex::Exact(map))
        }
        1 => {
            let n = d.count(16)?;
            // One filter per group: the lookup maps filter position i to
            // group id i, so a longer filter list would index out of
            // bounds in the group array.
            if n != num_groups {
                return Err(SnapshotFileError::Malformed(
                    "Bloom filter count disagrees with group count",
                ));
            }
            // A first pass over the filter headers sums the words, so the
            // bank's buffer is allocated once at its exact size.
            let mut scan = d.clone();
            let mut total = 0usize;
            for _ in 0..n {
                scan.u64()?;
                scan.u32()?;
                let words = scan.count(8)?;
                scan.words(words)?;
                total = total.saturating_add(words);
            }
            let mut bank = BloomBank::with_capacity(n, total);
            for _ in 0..n {
                let num_bits = d.u64()?;
                let num_hashes = d.u32()?;
                let words = d.count(8)?;
                let bits = d.words(words)?.iter().map(|w| u64::from_le_bytes(*w));
                bank.push(bits, num_bits, num_hashes)
                    .ok_or(SnapshotFileError::Malformed("inconsistent Bloom geometry"))?;
            }
            Ok(McvIndex::Bloom(bank))
        }
        _ => Err(SnapshotFileError::Malformed("unknown MCV index tag")),
    }
}

fn enc_mcv(e: &mut Enc, m: &McvStats, pool: &CdsPool) {
    e.count(m.groups.len(), "MCV group count");
    for &g in &m.groups {
        enc_set(e, pool.set(g));
    }
    enc_index(e, &m.index);
    enc_set(e, pool.set(m.default_set));
}

fn dec_mcv(
    d: &mut Dec<'_>,
    num_syms: u32,
    pool: &mut CdsPool,
) -> Result<McvStats, SnapshotFileError> {
    let n = d.count(4)?;
    let mut groups = Vec::with_capacity(n);
    for _ in 0..n {
        groups.push(dec_group(d, num_syms, pool)?);
    }
    let index = dec_index(d, groups.len())?;
    let default_set = dec_group(d, num_syms, pool)?;
    Ok(McvStats {
        groups,
        index,
        default_set,
    })
}

fn enc_hist(e: &mut Enc, h: &HistogramStats, pool: &CdsPool) {
    e.count(h.levels.len(), "histogram level count");
    for level in &h.levels {
        e.count(level.bounds.len(), "histogram bound count");
        for v in &level.bounds {
            enc_value(e, v);
        }
        e.count(level.bucket_groups.len(), "histogram bucket count");
        for &g in &level.bucket_groups {
            e.u64(g as u64);
        }
    }
    e.count(h.groups.len(), "histogram group count");
    for &g in &h.groups {
        enc_set(e, pool.set(g));
    }
}

/// Decode a [`HistogramStats`], enforcing the bucket-shape invariants the
/// covering-bucket search indexes by (`bounds.len() == buckets + 1`, at
/// least one bucket, bounds non-decreasing, group ids in range). The
/// batched-search key matrix is a deterministic function of the levels
/// and is rebuilt by [`HistogramStats::new`], not persisted.
fn dec_hist(
    d: &mut Dec<'_>,
    num_syms: u32,
    pool: &mut CdsPool,
) -> Result<HistogramStats, SnapshotFileError> {
    let num_levels = d.count(8)?;
    let mut levels = Vec::with_capacity(num_levels);
    for _ in 0..num_levels {
        let nbounds = d.count(1)?;
        let mut bounds = Vec::with_capacity(nbounds);
        for _ in 0..nbounds {
            bounds.push(dec_value(d)?);
        }
        if !bounds.windows(2).all(|w| w[0] <= w[1]) {
            return Err(SnapshotFileError::Malformed("histogram bounds not sorted"));
        }
        let nbuckets = d.count(8)?;
        if nbuckets == 0 || nbounds != nbuckets + 1 {
            return Err(SnapshotFileError::Malformed(
                "histogram bucket/bound shape mismatch",
            ));
        }
        let bucket_groups = d.words(nbuckets)?;
        let bucket_groups = bucket_groups
            .iter()
            .map(|w| u64::from_le_bytes(*w) as usize)
            .collect();
        levels.push(HistogramLevel {
            bounds,
            bucket_groups,
        });
    }
    let num_groups = d.count(4)?;
    let mut groups = Vec::with_capacity(num_groups);
    for _ in 0..num_groups {
        groups.push(dec_group(d, num_syms, pool)?);
    }
    for level in &levels {
        if level.bucket_groups.iter().any(|&g| g >= groups.len()) {
            return Err(SnapshotFileError::Malformed(
                "histogram group id out of range",
            ));
        }
    }
    Ok(HistogramStats::new(levels, groups))
}

fn enc_ngrams(e: &mut Enc, n: &NgramStats, pool: &CdsPool) {
    e.u64(n.n as u64);
    e.count(n.groups.len(), "n-gram group count");
    for &g in &n.groups {
        enc_set(e, pool.set(g));
    }
    enc_index(e, &n.index);
    enc_set(e, pool.set(n.default_set));
}

fn dec_ngrams(
    d: &mut Dec<'_>,
    num_syms: u32,
    pool: &mut CdsPool,
) -> Result<NgramStats, SnapshotFileError> {
    let n = d.u64()? as usize;
    // A zero gram length would make the extraction windows panic; the
    // builder never produces one, and huge lengths are nonsensical.
    if n == 0 || n > 64 {
        return Err(SnapshotFileError::Malformed("n-gram length out of range"));
    }
    let num_groups = d.count(4)?;
    let mut groups = Vec::with_capacity(num_groups);
    for _ in 0..num_groups {
        groups.push(dec_group(d, num_syms, pool)?);
    }
    let index = dec_index(d, groups.len())?;
    let default_set = dec_group(d, num_syms, pool)?;
    Ok(NgramStats {
        n,
        groups,
        index,
        default_set,
    })
}

fn enc_filter(e: &mut Enc, f: &FilterColumnStats, pool: &CdsPool) {
    enc_mcv(e, &f.mcv, pool);
    match &f.histogram {
        None => e.u8(0),
        Some(h) => {
            e.u8(1);
            enc_hist(e, h, pool);
        }
    }
    match &f.ngrams {
        None => e.u8(0),
        Some(n) => {
            e.u8(1);
            enc_ngrams(e, n, pool);
        }
    }
}

fn dec_filter(
    d: &mut Dec<'_>,
    num_syms: u32,
    pool: &mut CdsPool,
) -> Result<FilterColumnStats, SnapshotFileError> {
    let mcv = dec_mcv(d, num_syms, pool)?;
    let histogram = match d.u8()? {
        0 => None,
        1 => Some(dec_hist(d, num_syms, pool)?),
        _ => return Err(SnapshotFileError::Malformed("bad histogram presence tag")),
    };
    let ngrams = match d.u8()? {
        0 => None,
        1 => Some(dec_ngrams(d, num_syms, pool)?),
        _ => return Err(SnapshotFileError::Malformed("bad n-gram presence tag")),
    };
    Ok(FilterColumnStats {
        mcv,
        histogram,
        ngrams,
    })
}

fn enc_table(e: &mut Enc, t: &TableStats, pool: &CdsPool) {
    e.str(&t.table);
    e.u32(t.table_sym.0);
    e.u64(t.row_count);
    e.count(t.join_columns.len(), "join column count");
    for (sym, name) in &t.join_columns {
        e.u32(sym.0);
        e.str(name);
    }
    enc_set(e, pool.set(t.base));
    let named: Vec<(&str, &FilterColumnStats)> = t.named_filters().collect();
    e.count(named.len(), "filter column count");
    for (name, f) in named {
        e.str(name);
        enc_filter(e, f, pool);
    }
    // The fallback set's encoding is a set's: a count, then `(symbol,
    // polyline)` pairs.
    enc_set(e, pool.set(t.fallback_cds));
}

fn dec_table(
    d: &mut Dec<'_>,
    symbols: &SymbolTable,
    pool: &mut CdsPool,
) -> Result<TableStats, SnapshotFileError> {
    let num_syms = symbols.len() as u32;
    let table = d.str()?;
    let table_sym = d.u32()?;
    if symbols.lookup(&table) != Some(Sym(table_sym)) {
        return Err(SnapshotFileError::Malformed(
            "table symbol disagrees with the symbol table",
        ));
    }
    let row_count = d.u64()?;
    let njoin = d.count(8)?;
    let mut join_columns: Vec<JoinCol> = Vec::with_capacity(njoin);
    for _ in 0..njoin {
        let sym = d.u32()?;
        let name = d.str()?;
        if symbols.lookup(&name) != Some(Sym(sym)) {
            return Err(SnapshotFileError::Malformed(
                "join column symbol disagrees with the symbol table",
            ));
        }
        join_columns.push((Sym(sym), name));
    }
    let base = dec_group(d, num_syms, pool)?;
    let nfilters = d.count(8)?;
    let mut named: BTreeMap<String, FilterColumnStats> = BTreeMap::new();
    for _ in 0..nfilters {
        let name = d.str()?;
        // Strictly ascending names: feeding the sorted map back through
        // `TableStats::assemble` then reproduces the exact slot
        // numbering of the original build.
        if named.last_key_value().is_some_and(|(p, _)| *p >= name) {
            return Err(SnapshotFileError::Malformed(
                "filter columns not strictly sorted by name",
            ));
        }
        let f = dec_filter(d, num_syms, pool)?;
        named.insert(name, f);
    }
    let fallback_cds = dec_set(
        d,
        num_syms,
        pool,
        "fallback CDS not strictly sorted by symbol",
    )?;
    Ok(TableStats::assemble(
        table,
        Sym(table_sym),
        row_count,
        join_columns,
        base,
        named,
        fallback_cds,
    ))
}

fn enc_config(e: &mut Enc, c: &SafeBoundConfig) {
    e.f64(c.compression_c);
    e.u64(c.mcv_size as u64);
    e.u64(c.histogram_levels as u64);
    e.u64(c.ngram_size as u64);
    e.u64(c.ngram_mcv_size as u64);
    match c.cds_groups {
        None => e.u8(0),
        Some(g) => {
            e.u8(1);
            e.u64(g as u64);
        }
    }
    e.u64(c.cluster_input_cap as u64);
    e.u8(c.use_bloom_filters as u8);
    e.u64(c.bloom_bits_per_key as u64);
    e.u8(c.pk_fk_propagation as u8);
    e.u8(c.enable_ngrams as u8);
    e.u64(c.spanning_tree_cap as u64);
}

fn dec_usize(d: &mut Dec<'_>) -> Result<usize, SnapshotFileError> {
    usize::try_from(d.u64()?).map_err(|_| SnapshotFileError::Malformed("usize out of range"))
}

fn dec_bool(d: &mut Dec<'_>) -> Result<bool, SnapshotFileError> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(SnapshotFileError::Malformed("bad boolean encoding")),
    }
}

fn dec_config(d: &mut Dec<'_>) -> Result<SafeBoundConfig, SnapshotFileError> {
    let compression_c = d.f64()?;
    let mcv_size = dec_usize(d)?;
    let histogram_levels = dec_usize(d)?;
    let ngram_size = dec_usize(d)?;
    let ngram_mcv_size = dec_usize(d)?;
    let cds_groups = match d.u8()? {
        0 => None,
        1 => Some(dec_usize(d)?),
        _ => return Err(SnapshotFileError::Malformed("bad option encoding")),
    };
    let cluster_input_cap = dec_usize(d)?;
    let use_bloom_filters = dec_bool(d)?;
    let bloom_bits_per_key = dec_usize(d)?;
    let pk_fk_propagation = dec_bool(d)?;
    let enable_ngrams = dec_bool(d)?;
    let spanning_tree_cap = dec_usize(d)?;
    Ok(SafeBoundConfig {
        compression_c,
        mcv_size,
        histogram_levels,
        ngram_size,
        ngram_mcv_size,
        cds_groups,
        cluster_input_cap,
        use_bloom_filters,
        bloom_bits_per_key,
        pk_fk_propagation,
        enable_ngrams,
        spanning_tree_cap,
    })
}

// ---------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------

/// XXH64 fingerprint of the snapshot's schema: table names and their
/// join columns, in deterministic (sorted-table, declared-column) order.
/// Stored in the header so a reader can reject a file built against a
/// different schema before (or without) decoding the statistics.
pub fn schema_fingerprint(snapshot: &StatsSnapshot) -> u64 {
    let mut e = Enc::default();
    for (name, t) in &snapshot.tables {
        e.str(name);
        e.count(t.join_columns.len(), "join column count");
        for (_, col) in &t.join_columns {
            e.str(col);
        }
    }
    xxh64(&e.buf)
}

/// XXH64 fingerprint of the build configuration (its canonical section
/// encoding), so parameter drift between writer and reader is detected.
pub fn param_fingerprint(config: &SafeBoundConfig) -> u64 {
    let mut e = Enc::default();
    enc_config(&mut e, config);
    xxh64(&e.buf)
}

// ---------------------------------------------------------------------
// Encode / decode the whole file image.
// ---------------------------------------------------------------------

/// Serialize a snapshot to its complete file image (header + sections +
/// trailer). Exposed for tests; [`save_snapshot`] adds the atomic write.
pub fn encode_snapshot(snapshot: &StatsSnapshot) -> Result<Vec<u8>, SnapshotFileError> {
    let mut symbols = Enc::default();
    symbols.count(snapshot.symbols.len(), "symbol count");
    for i in 0..snapshot.symbols.len() {
        symbols.str(snapshot.symbols.name(Sym(i as u32)));
    }

    let mut config = Enc::default();
    enc_config(&mut config, &snapshot.config);

    let mut tables = Enc::default();
    tables.count(snapshot.tables.len(), "table count");
    let mut total_rows = 0u64;
    for t in snapshot.tables.values() {
        total_rows = total_rows.saturating_add(t.row_count);
        enc_table(&mut tables, t, &snapshot.pool);
    }

    for enc in [&symbols, &config, &tables] {
        if let Some(what) = enc.too_large {
            return Err(SnapshotFileError::TooLarge(what));
        }
    }

    let sections: [(u32, &[u8]); NUM_SECTIONS] = [
        (SEC_SYMBOLS, &symbols.buf),
        (SEC_CONFIG, &config.buf),
        (SEC_TABLES, &tables.buf),
    ];

    let mut out = Enc::default();
    out.buf.extend_from_slice(&MAGIC);
    out.u32(FORMAT_VERSION);
    out.u64(snapshot.build_id);
    out.u64(u64::try_from(snapshot.build_time.as_nanos()).unwrap_or(u64::MAX));
    out.count(snapshot.tables.len(), "table count");
    out.u64(total_rows);
    out.u64(schema_fingerprint(snapshot));
    out.u64(xxh64(&config.buf)); // == param_fingerprint(&snapshot.config)
    out.u32(NUM_SECTIONS as u32);
    let mut offset = HEADER_LEN as u64;
    for (id, body) in &sections {
        out.u32(*id);
        out.u64(offset);
        out.u64(body.len() as u64);
        out.u64(xxh64(body));
        offset = offset.saturating_add(body.len() as u64);
    }
    if out.buf.len() != HEADER_LEN || out.too_large.is_some() {
        // Unreachable by construction; kept as a typed guard so a future
        // layout edit can never ship a file with lying offsets.
        return Err(SnapshotFileError::Malformed("header layout drift"));
    }
    // The section table already holds every payload's checksum: the
    // trailer covers the header and the table, not the payloads again.
    let trailer = xxh64(&out.buf);
    for (_, body) in &sections {
        out.buf.extend_from_slice(body);
    }
    out.u64(trailer);
    Ok(out.buf)
}

/// Header metadata of a snapshot file, readable without decoding the
/// statistics (see [`read_header`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// The file's format version (always [`FORMAT_VERSION`] today).
    pub format_version: u32,
    /// Build id of the process that wrote the file (informational).
    pub saved_build_id: u64,
    /// Wall-clock build time of the persisted statistics.
    pub build_time: Duration,
    /// Number of tables in the snapshot.
    pub num_tables: u32,
    /// Total row count across all tables (the "scale" of the build).
    pub total_rows: u64,
    /// See [`schema_fingerprint`].
    pub schema_fingerprint: u64,
    /// See [`param_fingerprint`].
    pub param_fingerprint: u64,
}

/// Validate the file envelope (magic, version, trailer checksum, section
/// tiling) and parse the header + section table. Returns the header and
/// the three section byte ranges, each already checksum-verified.
fn validate_envelope(
    bytes: &[u8],
) -> Result<(SnapshotHeader, [&[u8]; NUM_SECTIONS]), SnapshotFileError> {
    // Magic and version first: a file from a different format (or a
    // future version of this one) is reported as such, not as garbage.
    let magic = bytes.get(..8).ok_or(SnapshotFileError::Truncated {
        needed: MIN_FILE_LEN as u64,
        have: bytes.len() as u64,
    })?;
    if magic != MAGIC {
        return Err(SnapshotFileError::BadMagic);
    }
    let mut d = Dec { buf: bytes, pos: 8 };
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotFileError::UnsupportedVersion(version));
    }
    if bytes.len() < MIN_FILE_LEN {
        return Err(SnapshotFileError::Truncated {
            needed: MIN_FILE_LEN as u64,
            have: bytes.len() as u64,
        });
    }
    // The trailer checks the header and section table before any other
    // field is trusted. XXH64 is not a CRC and guarantees no minimum
    // error distance: a corruption gets past only by colliding in 64
    // bits. The payloads are covered by their section checksums below,
    // and the tiling check leaves no byte outside every checksum.
    let body_len = bytes.len() - 8;
    let stored = {
        let mut t = Dec {
            buf: bytes,
            pos: body_len,
        };
        t.u64()?
    };
    let header = bytes
        .get(..HEADER_LEN)
        .ok_or(SnapshotFileError::Malformed("trailer range"))?;
    if xxh64(header) != stored {
        return Err(SnapshotFileError::ChecksumMismatch { section: "file" });
    }

    let saved_build_id = d.u64()?;
    let build_time_ns = d.u64()?;
    let num_tables = d.u32()?;
    let total_rows = d.u64()?;
    let schema_fp = d.u64()?;
    let param_fp = d.u64()?;
    let num_sections = d.u32()?;
    if num_sections as usize != NUM_SECTIONS {
        return Err(SnapshotFileError::Malformed("unexpected section count"));
    }
    let mut ranges: [Option<(u64, u64, u64)>; NUM_SECTIONS] = [None; NUM_SECTIONS];
    for _ in 0..NUM_SECTIONS {
        let id = d.u32()?;
        let offset = d.u64()?;
        let len = d.u64()?;
        let checksum = d.u64()?;
        let slot = match id {
            SEC_SYMBOLS => 0,
            SEC_CONFIG => 1,
            SEC_TABLES => 2,
            _ => return Err(SnapshotFileError::Malformed("unknown section id")),
        };
        if ranges[slot].is_some() {
            return Err(SnapshotFileError::Malformed("duplicate section id"));
        }
        ranges[slot] = Some((offset, len, checksum));
    }
    // Per slot: (offset, end, checksum).
    let mut spans = [(0u64, 0u64, 0u64); NUM_SECTIONS];
    for (span, range) in spans.iter_mut().zip(&ranges) {
        let (offset, len, checksum) =
            range.ok_or(SnapshotFileError::Malformed("missing section"))?;
        let end = offset
            .checked_add(len)
            .ok_or(SnapshotFileError::Malformed("section range overflow"))?;
        if offset < HEADER_LEN as u64 || end > body_len as u64 {
            return Err(SnapshotFileError::Malformed("section range out of file"));
        }
        *span = (offset, end, checksum);
    }
    // The payloads must tile the body exactly: a byte in a gap would be
    // covered by no checksum, a byte in an overlap by two.
    let mut sorted = spans;
    sorted.sort_unstable();
    let mut at = HEADER_LEN as u64;
    for (offset, end, _) in sorted {
        if offset < at {
            return Err(SnapshotFileError::Malformed("sections overlap"));
        }
        if offset > at {
            return Err(SnapshotFileError::Malformed("gap between sections"));
        }
        at = end;
    }
    if at != body_len as u64 {
        return Err(SnapshotFileError::Malformed("gap between sections"));
    }
    let names = ["symbols", "config", "tables"];
    let mut sections: [&[u8]; NUM_SECTIONS] = [&[]; NUM_SECTIONS];
    for (slot, &(offset, end, checksum)) in spans.iter().enumerate() {
        let body = bytes
            .get(offset as usize..end as usize)
            .ok_or(SnapshotFileError::Malformed("section range out of file"))?;
        if xxh64(body) != checksum {
            return Err(SnapshotFileError::ChecksumMismatch {
                section: names.get(slot).copied().unwrap_or("section"),
            });
        }
        sections[slot] = body;
    }
    // The param fingerprint is definitionally the config section's
    // checksum; a disagreement means the header was forged or the writer
    // is buggy.
    if param_fp != spans[1].2 {
        return Err(SnapshotFileError::FingerprintMismatch { kind: "params" });
    }
    Ok((
        SnapshotHeader {
            format_version: version,
            saved_build_id,
            build_time: Duration::from_nanos(build_time_ns),
            num_tables,
            total_rows,
            schema_fingerprint: schema_fp,
            param_fingerprint: param_fp,
        },
        sections,
    ))
}

/// Decode a complete snapshot file image. Every validation described in
/// the module docs runs before the returned snapshot exists; the
/// function cannot panic on any input. Exposed so corruption fuzzing can
/// drive the decoder without touching the filesystem.
pub fn decode_snapshot(bytes: &[u8]) -> Result<StatsSnapshot, SnapshotFileError> {
    let (header, [sym_bytes, config_bytes, table_bytes]) = validate_envelope(bytes)?;

    let mut d = Dec::new(sym_bytes);
    let num_syms = d.count(4)?;
    let mut symbols = SymbolTable::new();
    for i in 0..num_syms {
        let name = d.str()?;
        if symbols.intern(&name).index() != i {
            return Err(SnapshotFileError::Malformed("duplicate symbol name"));
        }
    }
    if !d.done() {
        return Err(SnapshotFileError::Malformed("trailing bytes after symbols"));
    }

    let mut d = Dec::new(config_bytes);
    let config = dec_config(&mut d)?;
    if !d.done() {
        return Err(SnapshotFileError::Malformed("trailing bytes after config"));
    }

    // Every knot takes 16 bytes of the tables section and every polyline
    // at least 24 (symbol, count, origin knot), so these bounds hold for
    // any file that decodes and the pool never regrows.
    let mut pool = CdsPool::with_capacity(table_bytes.len() / 16, table_bytes.len() / 24);
    let mut d = Dec::new(table_bytes);
    let num_tables = d.count(8)?;
    if num_tables as u64 != header.num_tables as u64 {
        return Err(SnapshotFileError::Malformed(
            "table count disagrees with header",
        ));
    }
    let mut tables: BTreeMap<String, TableStats> = BTreeMap::new();
    for _ in 0..num_tables {
        let t = dec_table(&mut d, &symbols, &mut pool)?;
        if tables.last_key_value().is_some_and(|(p, _)| *p >= t.table) {
            return Err(SnapshotFileError::Malformed(
                "tables not strictly sorted by name",
            ));
        }
        tables.insert(t.table.clone(), t);
    }
    if !d.done() {
        return Err(SnapshotFileError::Malformed("trailing bytes after tables"));
    }

    // Fresh process-unique build id: sessions key every cache on it, and
    // a loaded file must flush them exactly like a hot swap does.
    let snapshot = StatsSnapshot {
        tables,
        pool,
        symbols,
        config,
        build_time: header.build_time,
        build_id: crate::stats::next_build_id(),
    };
    if schema_fingerprint(&snapshot) != header.schema_fingerprint {
        return Err(SnapshotFileError::FingerprintMismatch { kind: "schema" });
    }
    Ok(snapshot)
}

// ---------------------------------------------------------------------
// File I/O: atomic writer, owned-read loader, header peek.
// ---------------------------------------------------------------------

/// Serialize `snapshot` and atomically publish it at `path`: the bytes
/// go to `<path>.tmp`, the tmp file is fsynced, renamed over `path`, and
/// the parent directory is fsynced so the rename itself is durable. A
/// crash at any point leaves either the previous file or the complete
/// new file — never a partial write. Returns the file size in bytes.
pub fn save_snapshot(path: &Path, snapshot: &StatsSnapshot) -> Result<u64, SnapshotFileError> {
    let bytes = encode_snapshot(snapshot)?;
    let tmp = tmp_path(path);
    let result = write_tmp_and_rename(path, &tmp, &bytes);
    if result.is_err() {
        // Best-effort cleanup; the target file was never touched.
        let _ = std::fs::remove_file(&tmp);
    }
    result?;
    Ok(bytes.len() as u64)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

fn write_tmp_and_rename(path: &Path, tmp: &Path, bytes: &[u8]) -> Result<(), SnapshotFileError> {
    let mut file = std::fs::File::create(tmp)?;
    fio::write_all(&mut file, tmp, bytes)?;
    fio::sync_file(&file, tmp)?;
    drop(file);
    fio::rename(tmp, path)?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fio::sync_dir(parent)?;
    Ok(())
}

/// Load a snapshot with an owned read of the whole file. All validation
/// happens before any statistic is constructed; see the module docs.
pub fn load_snapshot(path: &Path) -> Result<StatsSnapshot, SnapshotFileError> {
    let bytes = fio::read(path)?;
    decode_snapshot(&bytes)
}

/// Read and validate only a file's envelope (magic, version, checksums)
/// and return its [`SnapshotHeader`] — enough to answer "is this file
/// loadable, and what build does it hold?" without decoding statistics.
pub fn read_header(path: &Path) -> Result<SnapshotHeader, SnapshotFileError> {
    let bytes = fio::read(path)?;
    validate_envelope(&bytes).map(|(h, _)| h)
}

// ---------------------------------------------------------------------
// Fault-injectable file I/O.
// ---------------------------------------------------------------------

/// Fault-injection seams for the snapshot file I/O. The serve crate's
/// chaos suite installs deterministic schedules here; with no hook
/// installed every operation costs one uncontended registry lock and
/// then goes straight to `std::fs`.
pub mod hooks {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, PoisonError};

    /// The file operation the snapshot I/O layer is about to perform.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FileOp {
        /// Whole-file read on the load path.
        Read,
        /// `write_all` of the serialized image to the tmp file.
        Write,
        /// fsync of the tmp file before the rename.
        SyncFile,
        /// fsync of the parent directory after the rename.
        SyncDir,
        /// The atomic `rename(tmp, path)` publish step.
        Rename,
    }

    /// What a hook injects for one operation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FileFault {
        /// Proceed normally.
        None,
        /// Fail the operation with an `io::Error` of this kind.
        Error(std::io::ErrorKind),
        /// Reads: return only the first `n` bytes (truncation). Writes:
        /// persist `n` bytes, then fail (a torn tmp write; the rename
        /// never runs, so the published file is untouched).
        Short(usize),
        /// Reads: XOR the byte at `offset % len` with `xor` (a seeded
        /// bit flip). Ignored for other operations.
        CorruptByte {
            /// Byte position (reduced modulo the file length).
            offset: usize,
            /// XOR mask; must be nonzero to actually corrupt.
            xor: u8,
        },
    }

    type Hook = dyn Fn(FileOp, &Path) -> FileFault + Send + Sync;

    /// Registered hooks, matched by path prefix (first match decides).
    /// Keyed so parallel tests faulting different directories never see
    /// each other's schedules.
    static REGISTRY: Mutex<Vec<(u64, PathBuf, Arc<Hook>)>> = Mutex::new(Vec::new());
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);

    /// Uninstalls its hook when dropped.
    #[must_use = "dropping the guard immediately uninstalls the hook"]
    pub struct HookGuard {
        id: u64,
    }

    impl Drop for HookGuard {
        fn drop(&mut self) {
            let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
            reg.retain(|(id, _, _)| *id != self.id);
        }
    }

    /// Install `hook` for every snapshot file operation on paths under
    /// `prefix`. Returns an RAII guard; the hook stays installed until
    /// the guard drops.
    pub fn install<F>(prefix: PathBuf, hook: F) -> HookGuard
    where
        F: Fn(FileOp, &Path) -> FileFault + Send + Sync + 'static,
    {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        reg.push((id, prefix, Arc::new(hook)));
        HookGuard { id }
    }

    /// The fault (if any) scheduled for `op` on `path`.
    pub(crate) fn consult(op: FileOp, path: &Path) -> FileFault {
        let reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        for (_, prefix, hook) in reg.iter() {
            if path.starts_with(prefix) {
                return hook(op, path);
            }
        }
        FileFault::None
    }
}

/// The snapshot module's only route to the filesystem: thin `std::fs`
/// wrappers that consult the [`hooks`] registry first.
mod fio {
    use super::hooks::{consult, FileFault, FileOp};
    use std::io::Write;
    use std::path::Path;

    pub(super) fn read(path: &Path) -> std::io::Result<Vec<u8>> {
        match consult(FileOp::Read, path) {
            FileFault::None => {}
            FileFault::Error(kind) => {
                return Err(std::io::Error::new(kind, "injected read fault"));
            }
            FileFault::Short(n) => {
                let mut bytes = std::fs::read(path)?;
                bytes.truncate(n);
                return Ok(bytes);
            }
            FileFault::CorruptByte { offset, xor } => {
                let mut bytes = std::fs::read(path)?;
                if !bytes.is_empty() {
                    let i = offset % bytes.len();
                    if let Some(b) = bytes.get_mut(i) {
                        *b ^= xor;
                    }
                }
                return Ok(bytes);
            }
        }
        std::fs::read(path)
    }

    pub(super) fn write_all(
        file: &mut std::fs::File,
        path: &Path,
        bytes: &[u8],
    ) -> std::io::Result<()> {
        match consult(FileOp::Write, path) {
            FileFault::None | FileFault::CorruptByte { .. } => {}
            FileFault::Error(kind) => {
                return Err(std::io::Error::new(kind, "injected write fault"));
            }
            FileFault::Short(n) => {
                // A torn write: some prefix lands on disk, then the
                // device errors. Only the tmp file is affected; the
                // rename never runs.
                file.write_all(&bytes[..n.min(bytes.len())])?;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "injected short write",
                ));
            }
        }
        file.write_all(bytes)
    }

    pub(super) fn sync_file(file: &std::fs::File, path: &Path) -> std::io::Result<()> {
        if let FileFault::Error(kind) = consult(FileOp::SyncFile, path) {
            return Err(std::io::Error::new(kind, "injected fsync fault"));
        }
        file.sync_all()
    }

    pub(super) fn rename(from: &Path, to: &Path) -> std::io::Result<()> {
        if let FileFault::Error(kind) = consult(FileOp::Rename, to) {
            return Err(std::io::Error::new(kind, "injected rename fault"));
        }
        std::fs::rename(from, to)
    }

    pub(super) fn sync_dir(dir: &Path) -> std::io::Result<()> {
        if let FileFault::Error(kind) = consult(FileOp::SyncDir, dir) {
            return Err(std::io::Error::new(kind, "injected directory fsync fault"));
        }
        // Make the rename durable: fsync the directory entry. Directory
        // handles are a Unix notion; elsewhere the rename is as durable
        // as the platform makes it.
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()?;
        }
        #[cfg(not(unix))]
        let _ = dir;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::SafeBound;
    use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let kw = Table::new(
            "keyword",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("word", DataType::Str),
            ]),
            vec![
                Column::from_ints((1..=5).map(Some)),
                Column::from_strs(["common", "frequent", "medium", "rare", "unique"].map(Some)),
            ],
        );
        let mut movie_ids = Vec::new();
        let mut kw_ids = Vec::new();
        for k in 1i64..=5 {
            for r in 0..(1 << (6 - k)) {
                movie_ids.push(Some((k * 31 + r) % 20));
                kw_ids.push(Some(k));
            }
        }
        let mk = Table::new(
            "movie_keyword",
            Schema::new(vec![
                Field::new("movie_id", DataType::Int),
                Field::new("keyword_id", DataType::Int),
            ]),
            vec![Column::from_ints(movie_ids), Column::from_ints(kw_ids)],
        );
        c.add_table(kw);
        c.add_table(mk);
        c.declare_primary_key("keyword", "id");
        c.declare_foreign_key("movie_keyword", "keyword_id", "keyword", "id");
        c
    }

    fn snapshot() -> StatsSnapshot {
        crate::stats::SafeBoundBuilder::new(SafeBoundConfig::test_small()).build(&catalog())
    }

    fn snapshot_bloom() -> StatsSnapshot {
        let mut config = SafeBoundConfig::test_small();
        config.use_bloom_filters = true;
        crate::stats::SafeBoundBuilder::new(config).build(&catalog())
    }

    fn temp_file(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "safebound_snapfile_{}_{}_{}.snap",
            std::process::id(),
            tag,
            n
        ))
    }

    fn assert_same_stats(a: &StatsSnapshot, b: &StatsSnapshot) {
        assert_eq!(a.tables, b.tables, "tables must round-trip bit-identically");
        assert_eq!(a.pool, b.pool, "every CDS must round-trip bit-identically");
        assert_eq!(a.symbols, b.symbols, "symbol table must round-trip");
        assert_eq!(
            param_fingerprint(&a.config),
            param_fingerprint(&b.config),
            "config must round-trip"
        );
        assert_eq!(a.build_time, b.build_time);
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let snap = snapshot();
        let path = temp_file("roundtrip");
        let bytes = save_snapshot(&path, &snap).expect("save");
        assert_eq!(bytes, std::fs::metadata(&path).expect("meta").len());
        let loaded = load_snapshot(&path).expect("load");
        // The decoder reserves its pool from the tables section's length,
        // the build sizes it exactly: equality compares contents, never
        // capacity.
        assert_same_stats(&snap, &loaded);
        assert_eq!(snap.byte_size(), loaded.byte_size());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn re_encoding_a_decoded_file_reproduces_it_byte_for_byte() {
        for snap in [snapshot(), snapshot_bloom()] {
            let bytes = encode_snapshot(&snap).expect("encode");
            let mut decoded = decode_snapshot(&bytes).expect("decode");
            // The one field a load does not restore: it mints a fresh id.
            decoded.build_id = snap.build_id;
            assert!(encode_snapshot(&decoded).expect("re-encode") == bytes);
        }
    }

    #[test]
    fn decoded_sets_tile_the_pool_and_keep_the_cds_invariants() {
        let bytes = encode_snapshot(&snapshot_bloom()).expect("encode");
        let decoded = decode_snapshot(&bytes).expect("decode");
        let pool = &decoded.pool;
        let (mut entries, mut knots) = (0, 0);
        for t in decoded.tables.values() {
            t.clone().for_each_set_mut(&mut |r| {
                assert!(pool.contains(*r), "{r:?} lies outside the pool");
                for (_, pwl) in pool.set(*r).iter() {
                    assert!(PwlView::from_saved_knots(pwl.knots()).is_some());
                    knots += pwl.knots().len();
                }
                entries += r.len();
            });
        }
        // Every entry and knot belongs to exactly one stored set.
        assert_eq!(entries, pool.num_entries());
        assert_eq!(knots, pool.num_knots());
    }

    #[test]
    fn round_trip_with_bloom_filters() {
        let snap = snapshot_bloom();
        let path = temp_file("bloom");
        save_snapshot(&path, &snap).expect("save");
        let loaded = load_snapshot(&path).expect("load");
        assert_same_stats(&snap, &loaded);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn loaded_snapshot_gets_fresh_build_id() {
        let snap = snapshot();
        let path = temp_file("buildid");
        save_snapshot(&path, &snap).expect("save");
        let a = load_snapshot(&path).expect("load a");
        let b = load_snapshot(&path).expect("load b");
        assert_ne!(a.build_id, snap.build_id);
        assert_ne!(a.build_id, b.build_id, "every load mints a fresh id");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_peek_reports_metadata() {
        let snap = snapshot();
        let path = temp_file("header");
        save_snapshot(&path, &snap).expect("save");
        let h = read_header(&path).expect("header");
        assert_eq!(h.format_version, FORMAT_VERSION);
        assert_eq!(h.saved_build_id, snap.build_id);
        assert_eq!(h.num_tables, snap.tables.len() as u32);
        assert_eq!(
            h.total_rows,
            snap.tables.values().map(|t| t.row_count).sum::<u64>()
        );
        assert_eq!(h.schema_fingerprint, schema_fingerprint(&snap));
        assert_eq!(h.param_fingerprint, param_fingerprint(&snap.config));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_snapshot(&snapshot()).expect("encode");
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotFileError::BadMagic)
        ));
    }

    #[test]
    fn version_skew_is_typed_before_checksums() {
        let mut bytes = encode_snapshot(&snapshot()).expect("encode");
        // Bump the version field without fixing any checksum: skew must
        // be reported as skew, not as corruption.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotFileError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn version_one_files_are_refused_before_checksums() {
        let mut bytes = encode_snapshot(&snapshot()).expect("encode");
        // A file from the FNV-1a era: refused as skew, never checksummed
        // with the wrong hash.
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotFileError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn version_two_files_are_refused_before_checksums() {
        let mut bytes = encode_snapshot(&snapshot()).expect("encode");
        // Version 2 has this layout but a trailer over every byte: refused
        // as skew, never checked against the wrong trailer definition.
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotFileError::UnsupportedVersion(2))
        ));
    }

    /// Position of the tables section's entry (id, offset, len, checksum)
    /// in the section table, where it comes last.
    const TABLES_ENTRY: usize = HEADER_LEN - 28;

    /// Recompute the trailer over the (edited) header and section table.
    fn reseal(bytes: &mut [u8]) {
        let trailer = xxh64(&bytes[..HEADER_LEN]);
        let body_len = bytes.len() - 8;
        write_u64(bytes, body_len, trailer);
    }

    /// Flip the last byte of the tables payload, just before the trailer.
    fn corrupt_tables_payload(bytes: &mut [u8]) {
        assert_eq!(
            bytes[TABLES_ENTRY..TABLES_ENTRY + 4],
            SEC_TABLES.to_le_bytes()
        );
        let last = bytes.len() - 9;
        bytes[last] ^= 0x01;
    }

    fn write_u64(bytes: &mut [u8], pos: usize, v: u64) {
        bytes[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn section_checksum_is_live_behind_a_recomputed_trailer() {
        let mut bytes = encode_snapshot(&snapshot()).expect("encode");
        corrupt_tables_payload(&mut bytes);
        reseal(&mut bytes);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotFileError::ChecksumMismatch { section: "tables" })
        ));
    }

    #[test]
    fn a_flipped_header_byte_fails_the_trailer() {
        let mut bytes = encode_snapshot(&snapshot()).expect("encode");
        // The build time: a field no later check would catch.
        bytes[20] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotFileError::ChecksumMismatch { section: "file" })
        ));
    }

    #[test]
    fn a_gap_or_overlap_in_the_section_table_is_malformed() {
        let bytes = encode_snapshot(&snapshot()).expect("encode");
        let field = |b: &[u8], pos: usize| {
            u64::from_le_bytes(b[pos..pos + 8].try_into().expect("u64 field"))
        };
        // Move the tables section's start by one byte either way, keeping
        // its end, and reseal: the trailer passes, the tiling must not.
        for (shift, want) in [(1i64, "gap between sections"), (-1, "sections overlap")] {
            let mut edited = bytes.clone();
            let offset = field(&edited, TABLES_ENTRY + 4).wrapping_add_signed(shift);
            let len = field(&edited, TABLES_ENTRY + 12).wrapping_add_signed(-shift);
            write_u64(&mut edited, TABLES_ENTRY + 4, offset);
            write_u64(&mut edited, TABLES_ENTRY + 12, len);
            reseal(&mut edited);
            assert!(matches!(
                decode_snapshot(&edited),
                Err(SnapshotFileError::Malformed(m)) if m == want
            ));
        }
        // A tables section that stops one byte short of the trailer.
        let mut edited = bytes.clone();
        let len = field(&edited, TABLES_ENTRY + 12) - 1;
        write_u64(&mut edited, TABLES_ENTRY + 12, len);
        reseal(&mut edited);
        assert!(matches!(
            decode_snapshot(&edited),
            Err(SnapshotFileError::Malformed("gap between sections"))
        ));
    }

    #[test]
    fn trailer_is_live_behind_a_recomputed_section_checksum() {
        let mut bytes = encode_snapshot(&snapshot()).expect("encode");
        corrupt_tables_payload(&mut bytes);
        let offset = bytes[TABLES_ENTRY + 4..TABLES_ENTRY + 12]
            .try_into()
            .map(u64::from_le_bytes)
            .expect("offset field") as usize;
        let section = xxh64(&bytes[offset..bytes.len() - 8]);
        write_u64(&mut bytes, TABLES_ENTRY + 20, section);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotFileError::ChecksumMismatch { section: "file" })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_harmless() {
        let snap = snapshot();
        let bytes = encode_snapshot(&snap).expect("encode");
        // Exhaustive for a small snapshot: flip every bit of every byte in
        // turn; the checksums must catch every flip (a flip inside the
        // trailer corrupts the stored checksum itself).
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                match decode_snapshot(&corrupt) {
                    Err(_) => {}
                    Ok(_) => panic!("flip of bit {bit} at byte {i} produced a loadable file"),
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_typed() {
        let bytes = encode_snapshot(&snapshot()).expect("encode");
        for len in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..len]).is_err(),
                "truncation to {len} bytes must not load"
            );
        }
    }

    #[test]
    fn extension_is_rejected() {
        let mut bytes = encode_snapshot(&snapshot()).expect("encode");
        bytes.push(0);
        assert!(decode_snapshot(&bytes).is_err());
    }

    #[test]
    fn failed_save_leaves_existing_file_untouched() {
        let snap = snapshot();
        let path = temp_file("atomic");
        save_snapshot(&path, &snap).expect("save");
        let before = std::fs::read(&path).expect("read");
        // A save into a directory path fails (create of `<dir>/x.tmp`
        // under a file) — simulate by saving to a path whose parent is
        // actually a file.
        let bad = path.join("child.snap");
        assert!(matches!(
            save_snapshot(&bad, &snap),
            Err(SnapshotFileError::Io(_))
        ));
        assert_eq!(std::fs::read(&path).expect("read"), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_cleans_up_tmp_on_success() {
        let snap = snapshot();
        let path = temp_file("tmpclean");
        save_snapshot(&path, &snap).expect("save");
        assert!(!tmp_path(&path).exists(), "tmp file must not linger");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = temp_file("missing");
        assert!(matches!(
            load_snapshot(&path),
            Err(SnapshotFileError::Io(_))
        ));
    }

    #[test]
    fn loaded_snapshot_serves_identical_bounds() {
        use safebound_query::parse_sql;
        let cat = catalog();
        let sb = SafeBound::build(&cat, SafeBoundConfig::test_small());
        let snap = sb.snapshot();
        let path = temp_file("bounds");
        save_snapshot(&path, &snap).expect("save");
        let loaded = load_snapshot(&path).expect("load");
        let sb2 = SafeBound::from_stats(loaded);
        let queries = [
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k WHERE mk.keyword_id = k.id",
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k WHERE mk.keyword_id = k.id \
             AND k.word = 'rare'",
            "SELECT COUNT(*) FROM movie_keyword mk, keyword k WHERE mk.keyword_id = k.id \
             AND k.id <= 3",
        ];
        for q in queries {
            let parsed = parse_sql(q).expect("parse");
            let a = sb.bound(&parsed).expect("bound a");
            let b = sb2.bound(&parsed).expect("bound b");
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "bounds must be bit-identical: {q}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_read_faults_surface_as_typed_errors() {
        use hooks::{FileFault, FileOp};
        let snap = snapshot();
        let dir = std::env::temp_dir().join(format!("safebound_hookdir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("hooked.snap");
        save_snapshot(&path, &snap).expect("save");

        {
            let _guard = hooks::install(dir.clone(), |op, _| match op {
                FileOp::Read => FileFault::Error(std::io::ErrorKind::PermissionDenied),
                _ => FileFault::None,
            });
            assert!(matches!(
                load_snapshot(&path),
                Err(SnapshotFileError::Io(_))
            ));
        }
        {
            let _guard = hooks::install(dir.clone(), |op, _| match op {
                FileOp::Read => FileFault::Short(40),
                _ => FileFault::None,
            });
            assert!(matches!(
                load_snapshot(&path),
                Err(SnapshotFileError::Truncated { .. })
            ));
        }
        {
            let _guard = hooks::install(dir.clone(), |op, _| match op {
                FileOp::Read => FileFault::CorruptByte {
                    offset: 123,
                    xor: 0x20,
                },
                _ => FileFault::None,
            });
            assert!(load_snapshot(&path).is_err());
        }
        // Guards dropped: the file loads cleanly again.
        let loaded = load_snapshot(&path).expect("recovered load");
        assert_same_stats(&snap, &loaded);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn injected_write_faults_never_corrupt_the_published_file() {
        use hooks::{FileFault, FileOp};
        let snap = snapshot();
        let dir = std::env::temp_dir().join(format!("safebound_hookdir_w_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("write.snap");
        save_snapshot(&path, &snap).expect("initial save");
        let before = std::fs::read(&path).expect("read");

        for fault in [
            FileFault::Error(std::io::ErrorKind::StorageFull),
            FileFault::Short(64),
        ] {
            let _guard = hooks::install(dir.clone(), move |op, _| match op {
                FileOp::Write => fault,
                _ => FileFault::None,
            });
            assert!(matches!(
                save_snapshot(&path, &snap),
                Err(SnapshotFileError::Io(_))
            ));
            assert_eq!(
                std::fs::read(&path).expect("read"),
                before,
                "a failed save must leave the published file bit-identical"
            );
            assert!(!tmp_path(&path).exists(), "failed save must clean up tmp");
        }
        for op_under_test in [FileOp::SyncFile, FileOp::Rename, FileOp::SyncDir] {
            let _guard = hooks::install(dir.clone(), move |op, _| {
                if op == op_under_test {
                    FileFault::Error(std::io::ErrorKind::Other)
                } else {
                    FileFault::None
                }
            });
            assert!(save_snapshot(&path, &snap).is_err());
            assert_eq!(std::fs::read(&path).expect("read"), before);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
