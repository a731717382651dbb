//! Request masks: the one-word bit vectors every arbiter and allocator
//! in this crate works on (bit `i` = requestor `i`).

/// The most requestors one arbiter (or one allocator dimension) covers:
/// the width of the `u64` mask a request vector is packed into.
pub const MAX_REQUESTORS: usize = u64::BITS as usize;

/// The mask of the low `n` bits.
///
/// # Panics
///
/// Panics (in debug builds) if `n > MAX_REQUESTORS`.
#[inline]
#[must_use]
pub fn low_bits(n: usize) -> u64 {
    debug_assert!(n <= MAX_REQUESTORS, "{n} bits do not fit one word");
    if n == 0 {
        0
    } else {
        u64::MAX >> (MAX_REQUESTORS - n)
    }
}

/// Packs a request vector into a mask (bit `i` = `requests[i]`).
///
/// # Panics
///
/// Panics if `requests.len() != n`.
pub(crate) fn pack(requests: &[bool], n: usize) -> u64 {
    assert_eq!(
        requests.len(),
        n,
        "request vector length {} != arbiter size {n}",
        requests.len(),
    );
    requests
        .iter()
        .enumerate()
        .fold(0, |mask, (i, &r)| mask | u64::from(r) << i)
}

/// The indices of the set bits of a mask, ascending.
///
/// ```
/// use arbitration::mask::Bits;
///
/// assert_eq!(Bits(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Bits(pub u64);

impl Iterator for Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_bits_covers_the_full_word() {
        assert_eq!(low_bits(0), 0);
        assert_eq!(low_bits(1), 1);
        assert_eq!(low_bits(10), 0x3ff);
        assert_eq!(low_bits(64), u64::MAX);
    }

    #[test]
    fn pack_sets_one_bit_per_request() {
        assert_eq!(pack(&[true, false, true], 3), 0b101);
        assert_eq!(pack(&[true; 64], 64), u64::MAX);
    }

    #[test]
    fn bits_walks_set_bits_in_order() {
        assert_eq!(Bits(0).count(), 0);
        assert_eq!(Bits(1 << 63 | 1).collect::<Vec<_>>(), vec![0, 63]);
    }
}
