//! The one reader behind every binary decoder of sealed state.
//!
//! Telemetry snapshots, the runtime's checkpoint and the snapshot
//! payload all come back in from the untrusted OS as bytes. They decode
//! through [`Reader`], so two decisions live here and nowhere else: what
//! a decode failure looks like ([`DecodeError`]), and how far a count
//! read from the input is trusted ([`Reader::list`] refuses a count the
//! remaining bytes could not fill, so no decoder preallocates for
//! elements that are not there).
//!
//! Every integer is little-endian. No method panics, whatever the input.

use core::fmt;

/// Why a binary decode failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside a value.
    Truncated,
    /// A count read from the input claims more elements than the bytes
    /// left could hold, or a size does not fit in `usize`.
    OversizeCount,
    /// A byte or word the format fixes has another value: an unknown
    /// enum discriminant, a bool byte other than 0 or 1, a wrong magic,
    /// version or section count.
    BadTag,
    /// Bytes are left over after the value, or padding is not zero.
    Trailing,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DecodeError::Truncated => "input ends inside a value",
            DecodeError::OversizeCount => "count exceeds the bytes left",
            DecodeError::BadTag => "unknown tag, magic, version or section count",
            DecodeError::Trailing => "bytes left over after the value",
        })
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over untrusted little-endian bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Self { input }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .input
            .split_at_checked(n)
            .ok_or(DecodeError::Truncated)?;
        self.input = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array (a magic, a measurement).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A size stored as a `u64`; [`DecodeError::OversizeCount`] when it
    /// does not fit in `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::OversizeCount)
    }

    /// A bool byte: 0 or 1, anything else is [`DecodeError::BadTag`].
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::BadTag),
        }
    }

    /// A `u64` count, then that many elements read by `item`.
    ///
    /// `min_len` is the fewest bytes one element encodes to (at least
    /// 1). A count whose elements could not fit in the bytes left is
    /// [`DecodeError::OversizeCount`] before anything is allocated, so
    /// the capacity reserved is bounded by the input's length.
    pub fn list<T>(
        &mut self,
        min_len: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        assert!(min_len > 0, "an element encodes to at least one byte");
        let count = self.usize()?;
        if count
            .checked_mul(min_len)
            .is_none_or(|len| len > self.input.len())
        {
            return Err(DecodeError::OversizeCount);
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// End of the value: [`DecodeError::Trailing`] unless every byte
    /// was read.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.input.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Trailing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_and_reports_each_failure() {
        let mut bytes = vec![1, 7];
        bytes.extend_from_slice(&0xA1B2_C3D4u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut r = Reader::new(&bytes);
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.bool(), Err(DecodeError::BadTag));
        assert_eq!(r.u32(), Ok(0xA1B2_C3D4));
        assert_eq!(r.array::<3>(), Ok([0xFF; 3]));
        assert_eq!(r.u64(), Err(DecodeError::Truncated));
        assert_eq!(r.bytes(5).map(<[u8]>::len), Ok(5));
        r.finish().expect("every byte read");

        assert_eq!(Reader::new(&[0]).finish(), Err(DecodeError::Trailing));
    }

    #[test]
    fn list_refuses_counts_the_input_cannot_fill() {
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[5, 6]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.list(1, Reader::u8), Ok(vec![5, 6]));
        r.finish().expect("every byte read");

        // Two 2-byte elements need 4 bytes; 3 are left.
        bytes.push(7);
        assert_eq!(
            Reader::new(&bytes).list(2, |r| r.bytes(2).map(<[u8]>::to_vec)),
            Err(DecodeError::OversizeCount)
        );
        for count in [u64::MAX, 1 << 32, 1 << 20] {
            let huge = count.to_le_bytes();
            assert_eq!(
                Reader::new(&huge).list(8, Reader::u64),
                Err(DecodeError::OversizeCount),
                "count {count}"
            );
        }
    }
}
