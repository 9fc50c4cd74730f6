//! Minimal checked binary codec for on-page records.
//!
//! All on-disk structures in the workspace serialize through these two
//! cursors. Encoding is little-endian, fixed-width for numbers plus
//! length-prefixed `u32` lists; decoding is bounds-checked and returns
//! [`IndexError::Corrupt`] instead of panicking.

use reach_core::IndexError;

/// Append-only byte sink.
#[derive(Default, Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the writer, keeping its buffer for the next record.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian IEEE-754 `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`-length-prefixed list of `u32`s.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_u32(u32::try_from(v.len()).expect("slice length fits u32"));
        self.buf.reserve(4 * v.len());
        for &x in v {
            self.put_u32(x);
        }
    }
}

/// Bounds-checked byte cursor.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn corrupt(what: &str) -> IndexError {
    IndexError::Corrupt(format!("truncated record while reading {what}"))
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current cursor offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], IndexError> {
        if self.remaining() < n {
            return Err(corrupt(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, IndexError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, IndexError> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, IndexError> {
        let s = self.take(8, "u64")?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `u32`-length-prefixed list of `u32`s.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, IndexError> {
        let len = self.get_u32()? as usize;
        if self.remaining() < len.saturating_mul(4) {
            return Err(corrupt("u32 list"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u32()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 1);
        w.put_f32(3.25);
        w.put_u32_slice(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(f32::from_bits(r.get_u32().unwrap()), 3.25);
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn u32_list_leaves_the_cursor_after_its_elements() {
        let mut w = ByteWriter::new();
        w.put_u32_slice(&[1, 2, 3]);
        w.put_u8(9);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.position(), 16);
        assert_eq!(r.get_u8().unwrap(), 9);
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
        // Cursor unchanged after failed read keeps the reader usable.
        assert_eq!(r.remaining(), 2);
        assert_eq!((r.get_u8().unwrap(), r.get_u8().unwrap()), (1, 2));
    }

    #[test]
    fn bogus_length_prefix_is_corrupt() {
        let mut w = ByteWriter::new();
        w.put_u32(1_000_000); // claims a million bytes follow
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_u32_vec(), Err(IndexError::Corrupt(_))));
    }

    #[test]
    fn empty_collections_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u32_slice(&[]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u32_vec().unwrap(), Vec::<u32>::new());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn writer_len_tracks_bytes() {
        let mut w = ByteWriter::with_capacity(16);
        assert!(w.is_empty());
        w.put_u32(1);
        assert_eq!(w.len(), 4);
        assert_eq!(w.as_bytes(), &1u32.to_le_bytes());
    }
}
