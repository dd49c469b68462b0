//! LEB128 variable-length integers and zig-zag signed encoding, as the
//! ALSC stream format ([`crate::stream`]) stores them. Writers append to
//! any `io::Write`; the decoders ([`take_u64`], [`take_i64`]) are
//! slice-based, for hot decode loops that already hold the whole file in
//! memory and cannot afford a `Read` round-trip per byte.

use std::io::{self, Write};

/// Writes an unsigned LEB128 integer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_u64<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Decodes an unsigned LEB128 integer from `buf` starting at `*pos`,
/// advancing `*pos` past it. Returns `None` on truncation or a value
/// exceeding 64 bits.
pub fn take_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Decodes a zig-zag LEB128 signed integer; see [`take_u64`].
pub fn take_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    take_u64(buf, pos).map(unzigzag)
}

/// Zig-zag encodes a signed integer so small magnitudes stay small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes a zig-zag LEB128 signed integer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_i64<W: Write>(w: &mut W, v: i64) -> io::Result<()> {
    write_u64(w, zigzag(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_round_trips() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v).unwrap();
            let mut pos = 0;
            assert_eq!(take_u64(&buf, &mut pos), Some(v), "value {v}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn signed_round_trips() {
        for v in [0i64, 1, -1, 63, -64, 1 << 40, -(1 << 40), i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v).unwrap();
            let mut pos = 0;
            assert_eq!(take_i64(&buf, &mut pos), Some(v), "value {v}");
        }
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(-123456)), -123456);
    }

    #[test]
    fn truncation_is_an_error() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1 << 30).unwrap();
        buf.pop();
        let mut pos = 0;
        assert_eq!(take_u64(&buf, &mut pos), None);
    }

    #[test]
    fn small_values_take_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v).unwrap();
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn overlong_encoding_is_rejected_by_the_slice_decoder() {
        // Eleven continuation bytes would shift past bit 63.
        let buf = [0x80u8; 10];
        let mut with_tail = buf.to_vec();
        with_tail.push(0x02);
        let mut pos = 0;
        assert_eq!(take_u64(&with_tail, &mut pos), None);
    }
}
