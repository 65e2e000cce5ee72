//! LEB128 varints, zigzag mapping and the FNV-1a checksum used by the
//! trace format.

/// Appends `v` as an LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf` starting at `*pos`, advancing it.
///
/// Returns `None` on truncation or a varint longer than 10 bytes.
#[inline]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Maps a signed delta onto small unsigned values (zigzag).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// 64-bit FNV-1a over `bytes`, and its streaming form: the workspace's
/// one copy, which lives in the dependency-free `rvp-fail`.
pub use rvp_fail::{fnv1a, Fnv1a};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips() {
        let cases = [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small: that is the whole point.
        assert!(zigzag(-1) < 4);
        assert!(zigzag(2) < 8);
    }

    #[test]
    fn truncated_varint_is_detected() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
    }
}
