//! Low-level wire buffer reader/writer with DNS name compression.
//!
//! [`WireWriter`] compresses later occurrences of a name suffix with
//! pointers to its first occurrence (RFC 1035 §4.1.4). Its compression
//! table holds (suffix hash, offset) pairs: the suffix itself is borrowed
//! from the bytes already written, so a candidate match is confirmed by
//! reading the earlier name back out of the buffer, through its own
//! pointers. The table sits inline in the writer; a message with more
//! distinct suffixes than it holds spills the rest into a vector.
//! [`WireReader`] resolves pointers with a hop limit to reject loops.

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::error::WireError;
use crate::name::{Name, NameBuf, NameRef};

/// Maximum pointer hops while decompressing one name; real messages need a
/// handful, so this comfortably rejects loops without false positives.
const MAX_POINTER_HOPS: usize = 64;

/// Inline compression-table slots.
const TABLE_SLOTS: usize = 128;
/// Entries kept inline before further ones spill into a vector.
const TABLE_FILL: usize = 96;
/// Offset marking an empty slot (real offsets are below 0x4000).
const EMPTY: u16 = u16::MAX;

/// Suffixes already written: (hash of the suffix's wire form, offset of
/// its first occurrence from the message start). Open addressing with
/// linear probing; a suffix is entered only when a lookup missed, so each
/// suffix appears once and the first occurrence wins.
#[derive(Debug)]
struct CompressionTable {
    slots: [(u32, u16); TABLE_SLOTS],
    filled: usize,
    spill: Vec<(u32, u16)>,
}

impl CompressionTable {
    fn new() -> CompressionTable {
        CompressionTable {
            slots: [(0, EMPTY); TABLE_SLOTS],
            filled: 0,
            spill: Vec::new(),
        }
    }

    /// Offset of the recorded suffix equal to `suffix`, reading candidates
    /// back from `msg` (the message written so far).
    fn find(&self, hash: u32, suffix: &[u8], msg: &[u8]) -> Option<u16> {
        let mut i = slot_of(hash);
        loop {
            let (h, off) = self.slots[i];
            if off == EMPTY {
                break;
            }
            if h == hash && suffix_at(msg, off, suffix) {
                return Some(off);
            }
            i = (i + 1) % TABLE_SLOTS;
        }
        self.spill
            .iter()
            .find(|&&(h, off)| h == hash && suffix_at(msg, off, suffix))
            .map(|&(_, off)| off)
    }

    fn insert(&mut self, hash: u32, off: u16) {
        if self.filled == TABLE_FILL {
            self.spill.push((hash, off));
            return;
        }
        let mut i = slot_of(hash);
        while self.slots[i].1 != EMPTY {
            i = (i + 1) % TABLE_SLOTS;
        }
        self.slots[i] = (hash, off);
        self.filled += 1;
    }
}

fn slot_of(hash: u32) -> usize {
    hash as usize % TABLE_SLOTS
}

/// True when the name written at `off` in `msg` (following its pointers)
/// is exactly `suffix`, an uncompressed wire-form name.
fn suffix_at(msg: &[u8], off: u16, suffix: &[u8]) -> bool {
    let mut pos = usize::from(off);
    let mut i = 0;
    loop {
        let Some(&len) = msg.get(pos) else {
            return false;
        };
        if len & 0xC0 == 0xC0 {
            let Some(&low) = msg.get(pos + 1) else {
                return false;
            };
            // Pointers this writer emits always point backwards.
            let target = usize::from(len & 0x3F) << 8 | usize::from(low);
            if target >= pos {
                return false;
            }
            pos = target;
            continue;
        }
        let n = usize::from(len);
        if suffix.get(i) != Some(&len) {
            return false;
        }
        if n == 0 {
            return true;
        }
        if msg.get(pos + 1..pos + 1 + n) != suffix.get(i + 1..i + 1 + n) {
            return false;
        }
        pos += 1 + n;
        i += 1 + n;
    }
}

/// Growable output buffer that records name positions for compression.
///
/// A writer may start after bytes already in its buffer (see
/// [`crate::Message::encode_into`]); lengths, patch offsets and
/// compression pointers all count from where it started.
#[derive(Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// Where this writer's message starts in `buf`.
    base: usize,
    table: CompressionTable,
    /// When false, names are always written uncompressed (ablation knob and
    /// required inside RRSIG rdata per RFC 4034 §3.1.7).
    compress: bool,
}

impl Default for WireWriter {
    /// An empty writer with compression disabled.
    fn default() -> Self {
        WireWriter {
            buf: Vec::new(),
            base: 0,
            table: CompressionTable::new(),
            compress: false,
        }
    }
}

impl WireWriter {
    /// New writer with compression enabled.
    pub fn new() -> Self {
        WireWriter::appending(Vec::with_capacity(512), true)
    }

    /// New writer with compression disabled.
    pub fn uncompressed() -> Self {
        WireWriter::appending(Vec::with_capacity(512), false)
    }

    /// A writer whose message starts at the end of `buf`.
    pub(crate) fn appending(buf: Vec<u8>, compress: bool) -> Self {
        WireWriter {
            base: buf.len(),
            buf,
            table: CompressionTable::new(),
            compress,
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - self.base
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the writer, returning its buffer: any bytes it started
    /// after, then the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current contents as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.base..]
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub fn put_ipv4(&mut self, v: Ipv4Addr) {
        self.buf.extend_from_slice(&v.octets());
    }

    pub fn put_ipv6(&mut self, v: Ipv6Addr) {
        self.buf.extend_from_slice(&v.octets());
    }

    /// Overwrites the two bytes at `offset` (used to patch RDLENGTH after
    /// the rdata is written, since compression makes lengths unpredictable).
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        let at = self.base + offset;
        self.buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Writes a name uncompressed whatever the writer's mode, recording
    /// nothing (names inside SRV, RRSIG and NSEC rdata).
    pub(crate) fn put_name_uncompressed(&mut self, name: &NameRef) {
        self.buf.extend_from_slice(name.as_wire());
    }

    /// Writes a domain name, compressing against previously written names
    /// when enabled: the longest suffix already written becomes a pointer,
    /// and each suffix written out here is recorded if its offset fits a
    /// 14-bit pointer.
    pub fn put_name(&mut self, name: &NameRef) -> Result<(), WireError> {
        let wire = name.as_wire();
        if !self.compress {
            self.buf.extend_from_slice(wire);
            return Ok(());
        }
        let name_off = self.len();
        let msg = &self.buf[self.base..];
        // Suffixes start at label boundaries, longest first.
        let mut hit = None;
        let mut at = 0;
        while let Some(&len) = wire.get(at) {
            if len == 0 {
                break;
            }
            let suffix = &wire[at..];
            if let Some(off) = self.table.find(suffix_hash(suffix), suffix, msg) {
                hit = Some((at, off));
                break;
            }
            at += 1 + usize::from(len);
        }
        let written = match hit {
            Some((at, off)) => {
                self.buf.extend_from_slice(&wire[..at]);
                self.put_u16(0xC000 | off);
                at
            }
            None => {
                self.buf.extend_from_slice(wire);
                at
            }
        };
        let mut at = 0;
        while at < written {
            let Ok(off) = u16::try_from(name_off + at) else {
                break;
            };
            if off >= 0x4000 {
                break;
            }
            self.table.insert(suffix_hash(&wire[at..]), off);
            at += 1 + usize::from(wire[at]);
        }
        Ok(())
    }
}

/// Hash of a suffix's wire form, eight bytes at a time.
fn suffix_hash(suffix: &[u8]) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = suffix.len() as u64;
    let mut chunks = suffix.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word))
            .wrapping_mul(K)
            .rotate_left(31);
    }
    let tail = chunks.remainder();
    let mut word = [0u8; 8];
    word[..tail.len()].copy_from_slice(tail);
    h = (h ^ u64::from_le_bytes(word)).wrapping_mul(K);
    // The high half is the best mixed.
    (h >> 32) as u32 // ldp-lint: allow(r2) -- keeps the high 32 bits by design
}

/// Cursor over a received message. Keeps the whole message around so
/// compression pointers can be chased.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    msg: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// New reader positioned at the start of `msg`.
    pub fn new(msg: &'a [u8]) -> Self {
        WireReader { msg, pos: 0 }
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.msg.len().saturating_sub(self.pos)
    }

    /// Moves the cursor to an absolute position.
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.msg.len() {
            return Err(WireError::Truncated { context: "seek" });
        }
        self.pos = pos;
        Ok(())
    }

    pub fn read_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        if self.pos >= self.msg.len() {
            return Err(WireError::Truncated { context });
        }
        let v = self.msg[self.pos];
        self.pos += 1;
        Ok(v)
    }

    pub fn read_u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.read_bytes(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub fn read_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.read_bytes(4, context)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn read_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let s = &self.msg[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn read_ipv4(&mut self) -> Result<Ipv4Addr, WireError> {
        let b = self.read_bytes(4, "ipv4")?;
        Ok(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
    }

    pub fn read_ipv6(&mut self) -> Result<Ipv6Addr, WireError> {
        let b = self.read_bytes(16, "ipv6")?;
        let mut o = [0u8; 16];
        o.copy_from_slice(b);
        Ok(Ipv6Addr::from(o))
    }

    /// Reads a (possibly compressed) domain name at the cursor. The cursor
    /// advances past the name's first pointer or terminating root label;
    /// pointer targets are followed without moving the cursor further.
    pub fn read_name(&mut self) -> Result<Name, WireError> {
        // Labels gather on the stack; the name is one allocation.
        let mut out = NameBuf::root();
        let mut pos = self.pos;
        // After the first pointer, the cursor no longer tracks `pos`.
        let mut cursor_done = false;
        let mut hops = 0usize;
        loop {
            if pos >= self.msg.len() {
                return Err(WireError::Truncated { context: "name" });
            }
            let len = self.msg[pos];
            match len & 0xC0 {
                0x00 => {
                    if len == 0 {
                        pos += 1;
                        if !cursor_done {
                            self.pos = pos;
                        }
                        return out.finish().map(|b| b.to_name());
                    }
                    let start = pos + 1;
                    let end = start + len as usize;
                    if end > self.msg.len() {
                        return Err(WireError::Truncated { context: "label" });
                    }
                    out.push_label(&self.msg[start..end]);
                    pos = end;
                }
                0xC0 => {
                    if pos + 1 >= self.msg.len() {
                        return Err(WireError::Truncated { context: "pointer" });
                    }
                    // 14-bit offset: low bits of the length octet, then the
                    // next octet. Assembled as u16 so it can never be lossy.
                    let target = u16::from(len & 0x3F) << 8 | u16::from(self.msg[pos + 1]);
                    // Pointers must point strictly backwards to already-seen
                    // data; forward pointers are malformed and can loop.
                    if usize::from(target) >= pos {
                        return Err(WireError::BadCompressionPointer(target));
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::PointerLoop);
                    }
                    if !cursor_done {
                        self.pos = pos + 2;
                        cursor_done = true;
                    }
                    pos = usize::from(target);
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn primitive_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEADBEEF);
        w.put_ipv4(Ipv4Addr::new(192, 0, 2, 1));
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_u8("t").unwrap(), 7);
        assert_eq!(r.read_u16("t").unwrap(), 0xBEEF);
        assert_eq!(r.read_u32("t").unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_ipv4().unwrap(), Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(r.remaining(), 0);
        assert!(r.read_u8("end").is_err());
    }

    #[test]
    fn name_roundtrip_uncompressed() {
        let mut w = WireWriter::uncompressed();
        w.put_name(&n("www.example.com")).unwrap();
        w.put_name(&n("example.com")).unwrap();
        let bytes = w.into_bytes();
        // No pointers: 17 + 13 bytes.
        assert_eq!(bytes.len(), 17 + 13);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), n("www.example.com"));
        assert_eq!(r.read_name().unwrap(), n("example.com"));
    }

    #[test]
    fn name_compression_reuses_suffix() {
        let mut w = WireWriter::new();
        w.put_name(&n("www.example.com")).unwrap();
        let first_len = w.len();
        w.put_name(&n("example.com")).unwrap();
        // Second name is a single 2-byte pointer.
        assert_eq!(w.len(), first_len + 2);
        w.put_name(&n("ftp.example.com")).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), n("www.example.com"));
        assert_eq!(r.read_name().unwrap(), n("example.com"));
        assert_eq!(r.read_name().unwrap(), n("ftp.example.com"));
    }

    #[test]
    fn root_name() {
        let mut w = WireWriter::new();
        w.put_name(&Name::root()).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0]);
        let mut r = WireReader::new(&bytes);
        assert!(r.read_name().unwrap().is_root());
    }

    #[test]
    fn cursor_lands_after_pointer() {
        let mut w = WireWriter::new();
        w.put_name(&n("a.example")).unwrap();
        w.put_name(&n("a.example")).unwrap();
        w.put_u16(0x1234);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.read_name().unwrap();
        r.read_name().unwrap();
        assert_eq!(r.read_u16("tail").unwrap(), 0x1234);
    }

    #[test]
    fn rejects_forward_pointer() {
        // Pointer to itself.
        let bytes = [0xC0u8, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.read_name(),
            Err(WireError::BadCompressionPointer(_))
        ));
    }

    #[test]
    fn rejects_bad_label_type() {
        let bytes = [0x80u8, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.read_name(), Err(WireError::BadLabelType(_))));
    }

    #[test]
    fn rejects_truncated_label() {
        let bytes = [5u8, b'a', b'b'];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.read_name(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn rejects_missing_terminator() {
        let bytes = [1u8, b'a'];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.read_name(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn patch_u16_fixes_placeholder() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        let at = 0;
        w.put_slice(b"abc");
        w.patch_u16(at, 3);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..2], &[0, 3]);
    }
}
