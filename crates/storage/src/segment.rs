//! Page-aligned checkpoint segments with a checksummed section
//! directory.
//!
//! Layout:
//!
//! ```text
//! header   magic "GSG1" (4) | version u32-le | sections u32-le
//!          | dir_len u32-le | dir_crc u32-le            (20 bytes)
//! dir      per section: kind str | name str
//!          | offset u64-le | len u64-le | crc u32-le
//! payloads each starting on a 4096-byte boundary
//! ```
//!
//! `dir_crc` is FNV-1a over the directory bytes; each section's `crc`
//! covers its payload. Offsets are absolute and fixed-width so the
//! directory's size is independent of where the payloads land — which
//! lets [`SegmentWriter`] reserve the header and directory up front and
//! stream section payloads straight to the file through a fixed-size
//! buffer with an incremental CRC, never materializing a section (let
//! alone the whole segment) in memory.
//!
//! The read side is a [`Segment`] over any [`ByteBuffer`] — an owned
//! byte vector or a memory-mapped checkpoint file
//! ([`crate::mmap::SegmentMap`]). Payloads start on 4096-byte
//! boundaries, so a mapped segment hands out page-aligned slices the
//! core's `Slab<T>` can adopt without copying. Verification has two
//! modes: [`Segment::open`] with `verify_sections = true` checks every
//! payload CRC up front (the right call when the bytes were just read
//! into memory anyway), while `false` checks only the header and
//! directory — per-section CRCs stay available via
//! [`Section::verify`] for callers that decode lazily, and are skipped
//! for sections whose decoded structure is validated instead.

use crate::Result;
use gql_core::storage::{fnv1a, fnv1a_update, get_str, put_str, ByteSink, StorageError, FNV_BASIS};
use gql_core::{ByteBuffer, OwnedBytes};
use std::io::{Seek, SeekFrom, Write};
use std::sync::Arc;

/// Section payload alignment (and the assumed page size).
pub const PAGE_SIZE: usize = 4096;

/// Size of the [`SegmentWriter`] staging buffer: payload bytes are
/// CRC'd as they arrive and flushed to the file in chunks of this size.
const STREAM_BUF: usize = 64 * 1024;

const MAGIC: &[u8; 4] = b"GSG1";
/// Format version. Version 3 dropped the optional-CSR tag from index
/// sections (the CSR arrays are always present); older segments are
/// rejected rather than misread.
const VERSION: u32 = 3;
const HEADER_LEN: usize = 20;

/// One directory entry: a typed, named, checksummed payload span.
#[derive(Debug, Clone)]
struct SectionEntry {
    kind: String,
    name: String,
    offset: u64,
    len: u64,
    crc: u32,
}

fn encode_dir<'a, I>(entries: I) -> Vec<u8>
where
    I: Iterator<Item = (&'a str, &'a str, u64, u64, u32)>,
{
    let mut dir = Vec::new();
    for (kind, name, offset, len, crc) in entries {
        put_str(&mut dir, kind);
        put_str(&mut dir, name);
        dir.extend_from_slice(&offset.to_le_bytes());
        dir.extend_from_slice(&len.to_le_bytes());
        dir.extend_from_slice(&crc.to_le_bytes());
    }
    dir
}

fn align_up(n: usize) -> usize {
    n.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

/// A [`ByteSink`] that also knows its position within the section being
/// written. The codec's raw-array encoding pads to 8-byte boundaries
/// *relative to the section start* (sections themselves start on page
/// boundaries), and needs this position to do it identically whether
/// the sink is a plain `Vec<u8>` or a [`SegmentWriter`] streaming to
/// disk.
pub trait SectionSink: ByteSink {
    /// Bytes written to the current section so far.
    fn pos(&self) -> usize;
}

impl SectionSink for Vec<u8> {
    fn pos(&self) -> usize {
        self.len()
    }
}

/// Streams a segment to a `Write + Seek` target: declare every section
/// up front (the directory's size depends only on the kind/name
/// strings), then write each section's payload in declared order
/// through the [`ByteSink`] interface. Payload bytes are checksummed
/// incrementally and flushed through a fixed-size buffer; `finish`
/// seeks back and fills in the real header and directory.
///
/// I/O errors are stashed internally (the `ByteSink` methods are
/// infallible by design) and surfaced by [`SegmentWriter::finish`].
#[derive(Debug)]
pub struct SegmentWriter<W: Write + Seek> {
    w: W,
    declared: Vec<(String, String)>,
    done: Vec<SectionEntry>,
    pos: u64,
    section_start: u64,
    section_len: u64,
    crc: u32,
    buf: Vec<u8>,
    in_section: bool,
    err: Option<std::io::Error>,
}

impl<W: Write + Seek> SegmentWriter<W> {
    /// Starts a segment that will contain exactly `sections` (kind,
    /// name) payloads, written in this order. Reserves the header and
    /// directory region (zero-filled for now) and positions the writer
    /// at the first payload page.
    pub fn create(mut w: W, sections: &[(&str, &str)]) -> std::io::Result<SegmentWriter<W>> {
        let dir_len = encode_dir(sections.iter().map(|&(k, n)| (k, n, 0, 0, 0))).len();
        let data_start = align_up(HEADER_LEN + dir_len);
        w.write_all(&vec![0u8; data_start])?;
        Ok(SegmentWriter {
            w,
            declared: sections
                .iter()
                .map(|&(k, n)| (k.to_string(), n.to_string()))
                .collect(),
            done: Vec::with_capacity(sections.len()),
            pos: data_start as u64,
            section_start: data_start as u64,
            section_len: 0,
            crc: FNV_BASIS,
            buf: Vec::with_capacity(STREAM_BUF),
            in_section: false,
            err: None,
        })
    }

    /// Begins the next declared section; must match the declaration
    /// order given to [`SegmentWriter::create`].
    pub fn begin_section(&mut self, kind: &str, name: &str) {
        assert!(!self.in_section, "begin_section while a section is open");
        let expect = self
            .declared
            .get(self.done.len())
            .expect("more sections written than declared");
        assert!(
            expect.0 == kind && expect.1 == name,
            "section order mismatch: declared {expect:?}, writing ({kind:?}, {name:?})"
        );
        self.section_start = self.pos;
        self.section_len = 0;
        self.crc = FNV_BASIS;
        self.in_section = true;
    }

    /// Ends the current section: flushes the staging buffer, records
    /// the directory entry, and pads to the next page boundary.
    pub fn end_section(&mut self) {
        assert!(self.in_section, "end_section without begin_section");
        self.flush_buf();
        let (kind, name) = self.declared[self.done.len()].clone();
        self.done.push(SectionEntry {
            kind,
            name,
            offset: self.section_start,
            len: self.section_len,
            crc: self.crc,
        });
        let pad = align_up(self.pos as usize) - self.pos as usize;
        if pad > 0 {
            self.write_raw(&vec![0u8; pad]);
        }
        self.in_section = false;
    }

    /// Writes the real header and directory and returns the underlying
    /// writer (so callers can fsync the file), or the first I/O error
    /// hit anywhere along the way.
    pub fn finish(mut self) -> Result<W> {
        assert!(!self.in_section, "finish with a section still open");
        assert_eq!(
            self.done.len(),
            self.declared.len(),
            "finish before all declared sections were written"
        );
        if let Some(e) = self.err.take() {
            return Err(e.into());
        }
        let dir = encode_dir(
            self.done
                .iter()
                .map(|e| (e.kind.as_str(), e.name.as_str(), e.offset, e.len, e.crc)),
        );
        let mut head = Vec::with_capacity(HEADER_LEN + dir.len());
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.extend_from_slice(&(self.done.len() as u32).to_le_bytes());
        head.extend_from_slice(&(dir.len() as u32).to_le_bytes());
        head.extend_from_slice(&fnv1a(&dir).to_le_bytes());
        head.extend_from_slice(&dir);
        self.w.seek(SeekFrom::Start(0))?;
        self.w.write_all(&head)?;
        self.w.flush()?;
        Ok(self.w)
    }

    fn flush_buf(&mut self) {
        if self.buf.is_empty() || self.err.is_some() {
            self.buf.clear();
            return;
        }
        if let Err(e) = self.w.write_all(&self.buf) {
            self.err = Some(e);
        }
        self.pos += self.buf.len() as u64;
        self.buf.clear();
    }

    /// Writes bytes that belong to the file layout but not to any
    /// section's checksummed payload (padding).
    fn write_raw(&mut self, data: &[u8]) {
        debug_assert!(self.buf.is_empty());
        if self.err.is_none() {
            if let Err(e) = self.w.write_all(data) {
                self.err = Some(e);
            }
        }
        self.pos += data.len() as u64;
    }
}

impl<W: Write + Seek> ByteSink for SegmentWriter<W> {
    fn put_bytes(&mut self, data: &[u8]) {
        debug_assert!(self.in_section, "payload bytes outside a section");
        self.crc = fnv1a_update(self.crc, data);
        self.section_len += data.len() as u64;
        if self.buf.len() + data.len() > STREAM_BUF {
            self.flush_buf();
        }
        if data.len() >= STREAM_BUF {
            // Oversized write: bypass staging, stream it directly.
            if self.err.is_none() {
                if let Err(e) = self.w.write_all(data) {
                    self.err = Some(e);
                }
            }
            self.pos += data.len() as u64;
        } else {
            self.buf.extend_from_slice(data);
        }
    }
}

impl<W: Write + Seek> SectionSink for SegmentWriter<W> {
    fn pos(&self) -> usize {
        self.section_len as usize
    }
}

/// Accumulates sections in memory and assembles the final segment
/// bytes. A convenience wrapper over [`SegmentWriter`] for callers that
/// already hold the payloads; anything producing large payloads should
/// stream through [`SegmentWriter`] directly.
#[derive(Debug, Default)]
pub struct SegmentBuilder {
    sections: Vec<(String, String, Vec<u8>)>,
}

impl SegmentBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        SegmentBuilder::default()
    }

    /// Adds one section (kept in insertion order).
    pub fn push(&mut self, kind: &str, name: &str, payload: Vec<u8>) {
        self.sections.push((kind.into(), name.into(), payload));
    }

    /// Assembles the segment: header, checksummed directory, and
    /// page-aligned payloads. Byte-identical to streaming the same
    /// payloads through [`SegmentWriter`] (it is the same code path).
    pub fn finish(self) -> Vec<u8> {
        let declared: Vec<(&str, &str)> = self
            .sections
            .iter()
            .map(|(k, n, _)| (k.as_str(), n.as_str()))
            .collect();
        let cursor = std::io::Cursor::new(Vec::new());
        let mut w = SegmentWriter::create(cursor, &declared).expect("in-memory write");
        for (kind, name, payload) in &self.sections {
            w.begin_section(kind, name);
            w.put_bytes(payload);
            w.end_section();
        }
        w.finish().expect("in-memory write").into_inner()
    }
}

/// A parsed segment over owned or mapped bytes. Header, directory CRC,
/// span bounds, and payload alignment are always verified at open;
/// payload CRCs are verified up front or lazily depending on the open
/// mode (see the module docs).
#[derive(Debug)]
pub struct Segment {
    buf: Arc<dyn ByteBuffer>,
    dir: Vec<SectionEntry>,
}

/// A handle to one section of a [`Segment`]: its identity, payload
/// bytes, absolute position (for zero-copy adoption), and on-demand
/// checksum verification.
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    seg: &'a Segment,
    entry: &'a SectionEntry,
}

impl<'a> Section<'a> {
    /// The section's kind tag.
    pub fn kind(&self) -> &'a str {
        &self.entry.kind
    }

    /// The section's name.
    pub fn name(&self) -> &'a str {
        &self.entry.name
    }

    /// The payload bytes.
    pub fn bytes(&self) -> &'a [u8] {
        let lo = self.entry.offset as usize;
        &self.seg.buf.bytes()[lo..lo + self.entry.len as usize]
    }

    /// Absolute byte offset of the payload within the segment buffer —
    /// always a multiple of [`PAGE_SIZE`], which is what lets typed
    /// slabs adopt mapped payload spans directly.
    pub fn base(&self) -> usize {
        self.entry.offset as usize
    }

    /// Verifies this section's payload CRC. Cheap relative to decoding
    /// and O(section), not O(file).
    pub fn verify(&self) -> Result<()> {
        if fnv1a(self.bytes()) != self.entry.crc {
            return Err(StorageError::Corrupt.into());
        }
        Ok(())
    }
}

impl Segment {
    /// Parses and fully verifies an owned byte vector (every payload
    /// CRC checked up front). The right entry point when the bytes were
    /// read into memory anyway.
    pub fn parse(buf: Vec<u8>) -> Result<Segment> {
        Segment::open(Arc::new(OwnedBytes(buf)), true)
    }

    /// Opens a segment over any byte buffer. Magic, version, directory
    /// checksum, span bounds, and payload alignment are always
    /// verified. With `verify_sections` every payload CRC is checked
    /// too (touching every byte — faulting in the whole file when
    /// mapped); without it, payload checksums are left to
    /// [`Section::verify`] at access time.
    pub fn open(buf: Arc<dyn ByteBuffer>, verify_sections: bool) -> Result<Segment> {
        let bytes = buf.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(StorageError::Truncated.into());
        }
        if &bytes[..4] != MAGIC {
            return Err(StorageError::BadMagic.into());
        }
        let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("bounds"));
        if word(4) != VERSION {
            return Err(StorageError::Malformed("segment version").into());
        }
        let n_sections = word(8) as usize;
        let dir_len = word(12) as usize;
        let dir_crc = word(16);
        let dir_end = HEADER_LEN
            .checked_add(dir_len)
            .ok_or(StorageError::Truncated)?;
        if dir_end > bytes.len() {
            return Err(StorageError::Truncated.into());
        }
        let dir_bytes = &bytes[HEADER_LEN..dir_end];
        if fnv1a(dir_bytes) != dir_crc {
            return Err(StorageError::Corrupt.into());
        }
        let mut dir = Vec::with_capacity(n_sections.min(1024));
        let mut pos = 0usize;
        for _ in 0..n_sections {
            let kind = get_str(dir_bytes, &mut pos)?;
            let name = get_str(dir_bytes, &mut pos)?;
            let end = pos.checked_add(20).ok_or(StorageError::Truncated)?;
            if end > dir_bytes.len() {
                return Err(StorageError::Truncated.into());
            }
            let offset = u64::from_le_bytes(dir_bytes[pos..pos + 8].try_into().expect("bounds"));
            let len = u64::from_le_bytes(dir_bytes[pos + 8..pos + 16].try_into().expect("bounds"));
            let crc = u32::from_le_bytes(dir_bytes[pos + 16..end].try_into().expect("bounds"));
            pos = end;
            let span_end = offset.checked_add(len).ok_or(StorageError::Truncated)?;
            if span_end > bytes.len() as u64 {
                return Err(StorageError::Truncated.into());
            }
            if !(offset as usize).is_multiple_of(PAGE_SIZE) {
                return Err(StorageError::Malformed("unaligned section").into());
            }
            if verify_sections && fnv1a(&bytes[offset as usize..span_end as usize]) != crc {
                return Err(StorageError::Corrupt.into());
            }
            dir.push(SectionEntry {
                kind,
                name,
                offset,
                len,
                crc,
            });
        }
        if pos != dir_bytes.len() {
            return Err(StorageError::Malformed("directory trailing bytes").into());
        }
        Ok(Segment { buf, dir })
    }

    /// The backing buffer — what zero-copy slabs hold to keep a mapped
    /// segment alive.
    pub fn buffer(&self) -> &Arc<dyn ByteBuffer> {
        &self.buf
    }

    /// The section with this kind and name, if present.
    pub fn find(&self, kind: &str, name: &str) -> Option<Section<'_>> {
        self.dir
            .iter()
            .find(|e| e.kind == kind && e.name == name)
            .map(|entry| Section { seg: self, entry })
    }

    /// The payload of the section with this kind and name, if present
    /// (no checksum verification — see [`Section::verify`]).
    pub fn section(&self, kind: &str, name: &str) -> Option<&[u8]> {
        self.find(kind, name).map(|s| s.bytes())
    }

    /// All sections in directory order.
    pub fn sections(&self) -> impl Iterator<Item = Section<'_>> {
        self.dir.iter().map(|entry| Section { seg: self, entry })
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// Total size of the backing file in bytes (header + directory +
    /// payloads) — what the `storage.live_segment_bytes` gauge reports.
    pub fn byte_len(&self) -> usize {
        self.buf.bytes().len()
    }

    /// True when the segment has no sections.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreError;

    fn sample() -> Vec<u8> {
        let mut b = SegmentBuilder::new();
        b.push("collection", "db", vec![1; 10]);
        b.push("var", "Q", vec![2; PAGE_SIZE + 3]); // spans pages
        b.push("meta", "options", vec![]);
        b.finish()
    }

    #[test]
    fn sections_round_trip_and_are_page_aligned() {
        let bytes = sample();
        let seg = Segment::parse(bytes).unwrap();
        assert_eq!(seg.len(), 3);
        assert_eq!(seg.section("collection", "db").unwrap(), &[1u8; 10][..]);
        assert_eq!(
            seg.section("var", "Q").unwrap(),
            &vec![2u8; PAGE_SIZE + 3][..]
        );
        assert_eq!(seg.section("meta", "options").unwrap(), &[] as &[u8]);
        assert!(seg.section("collection", "other").is_none());
        let kinds: Vec<&str> = seg.sections().map(|s| s.kind()).collect();
        assert_eq!(kinds, ["collection", "var", "meta"]);
        for s in seg.sections() {
            assert!(s.base().is_multiple_of(PAGE_SIZE));
            s.verify().unwrap();
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let seg = Segment::parse(SegmentBuilder::new().finish()).unwrap();
        assert!(seg.is_empty());
    }

    #[test]
    fn streaming_writer_matches_builder_bytes() {
        // Many small puts through the streaming writer produce the same
        // file as one builder push — the incremental CRC and the
        // staging buffer are invisible in the output.
        let payload: Vec<u8> = (0..(3 * STREAM_BUF + 17))
            .map(|i| (i % 251) as u8)
            .collect();
        let mut b = SegmentBuilder::new();
        b.push("collection", "db", payload.clone());
        b.push("meta", "options", vec![7, 8, 9]);
        let built = b.finish();

        let mut w = SegmentWriter::create(
            std::io::Cursor::new(Vec::new()),
            &[("collection", "db"), ("meta", "options")],
        )
        .unwrap();
        w.begin_section("collection", "db");
        for chunk in payload.chunks(13) {
            w.put_bytes(chunk);
        }
        w.end_section();
        w.begin_section("meta", "options");
        w.put_bytes(&[7]);
        w.put_bytes(&[8, 9]);
        w.end_section();
        let streamed = w.finish().unwrap().into_inner();
        assert_eq!(built, streamed);
    }

    #[test]
    fn lazy_open_defers_payload_checksums() {
        let bytes = sample();
        let seg = Segment::parse(bytes.clone()).unwrap();
        let payload_pos = seg.find("var", "Q").unwrap().base() + 1;
        let mut bad = bytes;
        bad[payload_pos] ^= 0xff;
        // Eager open sees the corruption immediately...
        assert!(Segment::parse(bad.clone()).is_err());
        // ...lazy open defers it to the section's own verify.
        let lazy = Segment::open(Arc::new(OwnedBytes(bad)), false).unwrap();
        assert!(lazy.find("var", "Q").unwrap().verify().is_err());
        lazy.find("collection", "db").unwrap().verify().unwrap();
        // Header/directory corruption is still caught at open.
        let mut bad_dir = sample();
        bad_dir[HEADER_LEN + 2] ^= 0xff;
        assert!(Segment::open(Arc::new(OwnedBytes(bad_dir)), false).is_err());
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let bytes = sample();
        // Flip a byte at a sample of positions across header,
        // directory, padding, and payloads. Padding flips are the one
        // place corruption is invisible — no checksummed data lives
        // there — so only assert detection where data actually lives.
        let seg = Segment::parse(bytes.clone()).unwrap();
        let mut data_spans: Vec<(usize, usize)> = vec![(0, HEADER_LEN + 64)];
        for e in &seg.dir {
            data_spans.push((e.offset as usize, (e.offset + e.len) as usize));
        }
        for (lo, hi) in data_spans {
            if hi <= lo {
                continue; // empty payload: no checksummed bytes to flip
            }
            for i in [lo, (lo + hi) / 2, hi - 1] {
                if i >= bytes.len() {
                    continue;
                }
                let mut bad = bytes.clone();
                bad[i] ^= 0xff;
                if bad == bytes {
                    continue; // flip landed on its own value
                }
                assert!(Segment::parse(bad).is_err(), "flip at {i} undetected");
            }
        }
        // Truncation at every page boundary and a few interior cuts.
        for cut in [0, 3, HEADER_LEN, HEADER_LEN + 5, PAGE_SIZE, bytes.len() - 1] {
            assert!(Segment::parse(bytes[..cut].to_vec()).is_err(), "cut {cut}");
        }
        // A header from an older format version is rejected by name.
        let mut old = bytes.clone();
        old[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            Segment::parse(old),
            Err(StoreError::Codec(StorageError::Malformed(
                "segment version"
            )))
        ));
    }
}
