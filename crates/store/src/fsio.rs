//! Filesystem plumbing for the durable store: CRC-32 checksums,
//! length-prefixed checksummed frames, and the small write abstraction
//! ([`StoreFs`]) the WAL and segment writers go through. The production
//! implementation is [`RealFs`]; [`FailFs`] is the crash injector the
//! recovery test suites use — it forwards writes to the real filesystem
//! until a configured byte budget is exhausted, writes the final partial
//! buffer up to exactly that offset, and then fails every subsequent
//! operation, leaving the on-disk state a process crash would leave.
//!
//! Reads deliberately bypass the abstraction (recovery reads whole files
//! with `std::fs::read`): a crash tears writes, never reads.

use std::io::{self, Seek, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-8
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic one-byte table; `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight lookups fold
/// an 8-byte block in one step.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC-32 (IEEE) of `data` — the frame checksum of the WAL and segment
/// formats. Detects every single-byte corruption and all burst errors up
/// to 32 bits, which is exactly the torn-write/bit-rot class recovery
/// must stop on.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][(x >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Frames: [payload len: u32 LE][crc32(payload): u32 LE][payload]
// ---------------------------------------------------------------------

/// Byte length of a frame header (length + checksum words).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single frame payload (1 GiB). A corrupted length
/// word almost always lands above this, so replay stops instead of
/// trying to allocate or skip by garbage.
pub const MAX_FRAME: usize = 1 << 30;

/// Appends one frame (`len || crc || payload`) to `out`, `encode` writing
/// the payload in place: the header is reserved, the payload appended
/// behind it, and its length and checksum patched in.
pub(crate) fn encode_frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    encode(out);
    let payload = &out[start + FRAME_HEADER..];
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc);
}

/// Outcome of reading one frame out of a byte buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// A complete frame with a valid checksum; `next` is the offset of
    /// the following frame.
    Frame {
        /// The frame's payload bytes.
        payload: &'a [u8],
        /// Offset just past this frame.
        next: usize,
    },
    /// `pos` is exactly the end of the buffer — a clean end of log.
    End,
    /// The bytes at `pos` are not a whole, checksummed frame: a torn
    /// tail write or corruption. Replay must stop here.
    Torn,
}

/// Reads the frame starting at `pos`. Never panics: a partial header, a
/// length that overruns the buffer or [`MAX_FRAME`], and a checksum
/// mismatch all come back as [`FrameRead::Torn`].
pub fn read_frame(buf: &[u8], pos: usize) -> FrameRead<'_> {
    if pos == buf.len() {
        return FrameRead::End;
    }
    let Some(header) = buf.get(pos..pos + FRAME_HEADER) else {
        return FrameRead::Torn;
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME {
        return FrameRead::Torn;
    }
    let start = pos + FRAME_HEADER;
    let Some(payload) = buf.get(start..start + len) else {
        return FrameRead::Torn;
    };
    if crc32(payload) != crc {
        return FrameRead::Torn;
    }
    FrameRead::Frame { payload, next: start + len }
}

// ---------------------------------------------------------------------
// Write abstraction
// ---------------------------------------------------------------------

/// A writable store file: sequential writes plus an explicit durability
/// barrier. The WAL batches appends between [`sync`] calls.
///
/// [`sync`]: StoreWriter::sync
pub trait StoreWriter: Write + Send + std::fmt::Debug {
    /// Flushes buffered bytes and forces them to stable storage
    /// (`fdatasync`-equivalent).
    fn sync(&mut self) -> io::Result<()>;
}

/// Filesystem operations the durable store performs. Swapping in
/// [`FailFs`] turns any write sequence into a reproducible crash.
pub trait StoreFs: std::fmt::Debug + Send + Sync {
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreWriter>>;
    /// Opens an existing file for appending after truncating it to
    /// `len` bytes — how the WAL discards a torn tail before reuse.
    fn append_truncated(&self, path: &Path, len: u64) -> io::Result<Box<dyn StoreWriter>>;
    /// Atomically renames `from` to `to` (the manifest commit point).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file. Only used for post-commit garbage; failures are
    /// ignored by callers.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Best-effort fsync of a directory so renames inside it are
    /// durable. Platforms that cannot sync directories return `Ok(())`.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The production [`StoreFs`]: plain `std::fs` files.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

#[derive(Debug)]
struct RealWriter(std::fs::File);

impl Write for RealWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl StoreWriter for RealWriter {
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl StoreFs for RealFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreWriter>> {
        Ok(Box::new(RealWriter(std::fs::File::create(path)?)))
    }

    fn append_truncated(&self, path: &Path, len: u64) -> io::Result<Box<dyn StoreWriter>> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        let mut writer = RealWriter(file);
        writer.0.seek(io::SeekFrom::End(0))?;
        Ok(Box::new(writer))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and syncing it is the POSIX way
        // to make a rename durable; where unsupported, renames are the
        // best the platform offers, so degrade silently.
        match std::fs::File::open(dir) {
            Ok(d) => {
                let _ = d.sync_all();
                Ok(())
            }
            Err(_) => Ok(()),
        }
    }
}

/// Crash-injecting [`StoreFs`] for recovery tests.
///
/// All writers created from one `FailFs` share a byte budget. While the
/// budget lasts, writes pass straight through to the real filesystem.
/// The write that would cross the budget is truncated at exactly the
/// budget boundary — the torn frame a power cut leaves — and from then
/// on every write, sync, create and rename fails, modeling the process
/// being gone. Reopening the directory with [`RealFs`] afterwards *is*
/// the crash-recovery path under test.
///
/// ```
/// use up2p_store::{FailFs, StoreFs};
/// let dir = std::env::temp_dir().join(format!("up2p-failfs-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let fs = FailFs::new(5);
/// let mut w = fs.create(&dir.join("f")).unwrap();
/// use std::io::Write;
/// assert!(w.write_all(b"abc").is_ok());      // 3 of 5 bytes
/// assert!(w.write_all(b"defg").is_err());    // crosses the budget
/// assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"abcde"); // torn at byte 5
/// assert_eq!(fs.bytes_written(), 5);
/// assert!(fs.is_dead());
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct FailFs {
    inner: RealFs,
    remaining: Arc<AtomicU64>,
    written: Arc<AtomicU64>,
    dead: Arc<AtomicBool>,
}

impl FailFs {
    /// A filesystem that dies once `budget` total bytes have been
    /// written across all files.
    pub fn new(budget: u64) -> FailFs {
        FailFs {
            inner: RealFs,
            remaining: Arc::new(AtomicU64::new(budget)),
            written: Arc::new(AtomicU64::new(0)),
            dead: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A filesystem that never dies but still counts bytes — the
    /// recording pass that measures a workload's total write volume so
    /// kill offsets can be chosen inside it.
    pub fn unlimited() -> FailFs {
        FailFs::new(u64::MAX)
    }

    /// Total bytes actually written so far (across every file).
    pub fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::SeqCst)
    }

    /// `true` once the budget has been exhausted and the simulated
    /// process is gone.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn crash() -> io::Error {
        io::Error::other("injected crash: write budget exhausted")
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.is_dead() {
            Err(Self::crash())
        } else {
            Ok(())
        }
    }
}

#[derive(Debug)]
struct FailWriter {
    inner: Box<dyn StoreWriter>,
    fs: FailFs,
}

impl Write for FailWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.fs.check_alive()?;
        let remaining = self.fs.remaining.load(Ordering::SeqCst);
        let allowed = (buf.len() as u64).min(remaining) as usize;
        if allowed > 0 {
            self.inner.write_all(&buf[..allowed])?;
            // make the torn prefix visible on disk before "crashing"
            let _ = self.inner.flush();
            self.fs.written.fetch_add(allowed as u64, Ordering::SeqCst);
            self.fs.remaining.fetch_sub(allowed as u64, Ordering::SeqCst);
        }
        if allowed < buf.len() {
            self.fs.dead.store(true, Ordering::SeqCst);
            return Err(FailFs::crash());
        }
        Ok(allowed)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.fs.check_alive()?;
        self.inner.flush()
    }
}

impl StoreWriter for FailWriter {
    fn sync(&mut self) -> io::Result<()> {
        self.fs.check_alive()?;
        self.inner.sync()
    }
}

impl StoreFs for FailFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreWriter>> {
        self.check_alive()?;
        let inner = self.inner.create(path)?;
        Ok(Box::new(FailWriter { inner, fs: self.clone() }))
    }

    fn append_truncated(&self, path: &Path, len: u64) -> io::Result<Box<dyn StoreWriter>> {
        self.check_alive()?;
        let inner = self.inner.append_truncated(path, len)?;
        Ok(Box::new(FailWriter { inner, fs: self.clone() }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.sync_dir(dir)
    }
}

// ---------------------------------------------------------------------
// Little-endian payload codec shared by WAL records and segment entries
// ---------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over a payload slice; every getter is bounds-checked so a
/// logically corrupt (but checksum-valid) payload decodes to `None`
/// rather than panicking.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    pub(crate) fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.buf.get(self.pos..self.pos + len)?;
        self.pos += len;
        std::str::from_utf8(bytes).ok()
    }

    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// The frame encoder as the store first wrote it — header then a copy of
/// a finished payload — kept as the reference the in-place
/// [`encode_frame_with`] must match byte for byte.
#[cfg(test)]
pub(crate) fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        // past one 8-byte block, and a block plus a tail
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(b"12345678"), 0x9AE0_DAAF);
    }

    #[test]
    fn frame_round_trip_and_torn_detection() {
        let mut buf = Vec::new();
        encode_frame_with(&mut buf, |out| out.extend_from_slice(b"hello"));
        encode_frame_with(&mut buf, |_| {});
        let mut reference = Vec::new();
        encode_frame(b"hello", &mut reference);
        encode_frame(b"", &mut reference);
        assert_eq!(buf, reference);
        let FrameRead::Frame { payload, next } = read_frame(&buf, 0) else {
            panic!("first frame should parse")
        };
        assert_eq!(payload, b"hello");
        let FrameRead::Frame { payload, next } = read_frame(&buf, next) else {
            panic!("empty frame should parse")
        };
        assert_eq!(payload, b"");
        assert_eq!(read_frame(&buf, next), FrameRead::End);
        // every strict prefix that cuts into a frame is torn, not a panic
        for cut in 1..buf.len() {
            match read_frame(&buf[..cut], 0) {
                FrameRead::Frame { .. } if cut >= FRAME_HEADER + 5 => {}
                FrameRead::Torn => {}
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
        // single byte flips always fail the checksum or the structure
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let mut pos = 0;
            let mut payloads: Vec<Vec<u8>> = Vec::new();
            while let FrameRead::Frame { payload, next } = read_frame(&bad, pos) {
                payloads.push(payload.to_vec());
                pos = next;
            }
            assert!(
                payloads != vec![b"hello".to_vec(), Vec::new()],
                "flip at {i} went undetected"
            );
        }
    }

    #[test]
    fn cursor_is_bounds_checked() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hi");
        put_u32(&mut buf, 7);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.str(), Some("hi"));
        assert_eq!(c.u32(), Some(7));
        assert!(c.at_end());
        assert_eq!(c.u32(), None);
        // truncated string length overruns cleanly
        let mut c = Cursor::new(&[10, 0, 0, 0, b'x']);
        assert_eq!(c.str(), None);
    }

    #[test]
    fn failfs_budget_tears_exactly() {
        let dir = std::env::temp_dir().join(format!("up2p-fsio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fs = FailFs::new(10);
        let mut w = fs.create(&dir.join("a")).unwrap();
        w.write_all(b"0123456").unwrap();
        assert!(w.write_all(b"789XYZ").is_err());
        assert_eq!(std::fs::read(dir.join("a")).unwrap(), b"0123456789");
        assert!(fs.is_dead());
        // everything after death fails
        assert!(fs.create(&dir.join("b")).is_err());
        assert!(fs.rename(&dir.join("a"), &dir.join("c")).is_err());
        assert!(w.flush().is_err());
        assert!(w.sync().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failfs_unlimited_counts_bytes() {
        let dir = std::env::temp_dir().join(format!("up2p-fsio-u-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fs = FailFs::unlimited();
        let mut w = fs.create(&dir.join("a")).unwrap();
        w.write_all(b"hello").unwrap();
        w.sync().unwrap();
        let mut w2 = fs.create(&dir.join("b")).unwrap();
        w2.write_all(b"!!").unwrap();
        assert_eq!(fs.bytes_written(), 7);
        assert!(!fs.is_dead());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_fs_append_truncated_drops_tail() {
        let dir = std::env::temp_dir().join(format!("up2p-fsio-t-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        std::fs::write(&path, b"keep-me-TORNTAIL").unwrap();
        let mut w = RealFs.append_truncated(&path, 7).unwrap();
        w.write_all(b"+new").unwrap();
        w.sync().unwrap();
        drop(w);
        assert_eq!(std::fs::read(&path).unwrap(), b"keep-me+new");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
