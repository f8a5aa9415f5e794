//! Shared on-disk encoding primitives: FNV-1a checksums, LEB128
//! varint/zigzag integer coding, and the bounds-checked [`Reader`] that
//! decodes them.
//!
//! These started life inside the trace-file format ([`crate::TraceReader`])
//! and are exported here so every durable format in the workspace — trace
//! files, the experiment journal, the result store — agrees on one checksum,
//! one integer wire coding and one way of rejecting malformed bytes. FNV-1a's XOR and odd-prime multiply are both
//! bijections modulo 2^64, so any single substituted byte always changes the
//! final hash; that is the property the corruption fences rely on.

use std::fmt;

/// FNV-1a 64-bit offset basis: the initial `hash` argument to [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a hash. Seed with [`FNV_OFFSET`] and
/// chain calls to hash discontiguous regions.
#[must_use]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Append `v` to `buf` as a LEB128 varint (7 payload bits per byte,
/// continuation bit 0x80).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Map a signed value onto an unsigned one so that small magnitudes of
/// either sign stay small as varints.
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Malformed bytes met by a [`Reader`]. The formats built on it convert
/// this into their own error (`TraceFileError::Corrupt`, the journal's
/// `String`) with `?`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended inside a value.
    Truncated {
        /// Bytes the value needed.
        wanted: usize,
        /// Bytes that were left.
        left: usize,
    },
    /// A varint carries more than 64 bits.
    Overlong,
    /// Bytes are left after the last value.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { wanted, left } => {
                write!(f, "unexpected end: wanted {wanted} bytes, {left} left")
            }
            WireError::Overlong => write!(f, "varint overflows 64 bits"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after the decoded payload"),
        }
    }
}

impl From<WireError> for String {
    fn from(e: WireError) -> String {
        e.to_string()
    }
}

/// Bounds-checked reader over an encoded byte slice.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let left = self.remaining();
        if left < n {
            return Err(WireError::Truncated { wanted: n, left });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A LEB128 varint written by [`put_varint`]. A tenth byte may carry
    /// bit 63 alone: anything more would silently drop high bits, so it is
    /// rejected as [`WireError::Overlong`].
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::Overlong);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Fails unless every byte has been read.
    pub fn expect_end(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlong_varints_are_rejected() {
        let mut max = vec![0xff; 9];
        max.push(0x01);
        let mut reader = Reader::new(&max);
        assert_eq!(reader.varint(), Ok(u64::MAX));
        reader.expect_end().unwrap();
        // Bit 64 and up: a tenth byte above 1, or an eleventh byte.
        let mut past_bit_63 = vec![0xff; 9];
        past_bit_63.push(0x02);
        assert_eq!(Reader::new(&past_bit_63).varint(), Err(WireError::Overlong));
        let mut eleven = vec![0x80; 10];
        eleven.push(0x00);
        assert_eq!(Reader::new(&eleven).varint(), Err(WireError::Overlong));
        assert_eq!(
            Reader::new(&[0x80]).varint(),
            Err(WireError::Truncated { wanted: 1, left: 0 })
        );
    }
}
