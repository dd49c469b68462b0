//! LEB128 variable-length integers and zig-zag signed encoding, as the
//! ALSC stream format ([`crate::stream`]) stores them. Writers push
//! straight onto a byte vector, the encoder's buffer; the decoders
//! ([`take_u64`], [`take_i64`]) are slice-based, for hot decode loops
//! that already hold the whole file in memory and cannot afford a
//! `Read` round-trip per byte.

/// Appends an unsigned LEB128 integer to `out`.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
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

/// Appends a zig-zag LEB128 signed integer to `out`.
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_round_trips() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(take_u64(&buf, &mut pos), Some(v), "value {v}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn signed_round_trips() {
        for v in [0i64, 1, -1, 63, -64, 1 << 40, -(1 << 40), i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
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
        write_u64(&mut buf, 1 << 30);
        buf.pop();
        let mut pos = 0;
        assert_eq!(take_u64(&buf, &mut pos), None);
    }

    #[test]
    fn small_values_take_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
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
