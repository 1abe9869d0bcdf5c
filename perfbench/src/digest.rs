//! An order-independent fingerprint of a result's row set, computed
//! from the XML document a response carries. The oracle fingerprints
//! the origin's own answer the same way, so two answers agree exactly
//! when they hold the same multiset of first-column values (`objID`
//! for the sky templates) — row order, which legitimately differs
//! between cache paths, does not matter.

const ROW_START: &[u8] = b"<Row><V>";

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowDigest {
    pub rows: u64,
    sum: u64,
    xor: u64,
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RowDigest {
    pub fn add(&mut self, key: &[u8]) {
        let h = key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        self.rows += 1;
        self.sum = self.sum.wrapping_add(mix(h));
        self.xor ^= mix(h ^ 0x9e37_79b9_7f4a_7c15);
    }

    /// Fingerprints every `<Row>`'s first `<V>` cell of an XML result.
    pub fn of_xml(body: &[u8]) -> RowDigest {
        let mut d = RowDigest::default();
        let mut at = 0;
        while let Some(off) = find(&body[at..], ROW_START) {
            let start = at + off + ROW_START.len();
            let len = body[start..].iter().position(|&b| b == b'<').unwrap_or(0);
            d.add(&body[start..start + len]);
            at = start + len;
        }
        d
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let first = needle[0];
    let mut at = 0;
    while let Some(p) = hay[at..].iter().position(|&b| b == first) {
        let i = at + p;
        if hay[i..].starts_with(needle) {
            return Some(i);
        }
        at = i + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_row_order_but_not_rows() {
        let a = b"<ResultSet><Row><V>1</V><V>x</V></Row><Row><V>2</V></Row></ResultSet>";
        let b = b"<ResultSet><Row><V>2</V></Row><Row><V>1</V><V>y</V></Row></ResultSet>";
        let c = b"<ResultSet><Row><V>2</V></Row></ResultSet>";
        assert_eq!(RowDigest::of_xml(a), RowDigest::of_xml(b));
        assert_ne!(RowDigest::of_xml(a), RowDigest::of_xml(c));
        assert_eq!(RowDigest::of_xml(a).rows, 2);
    }
}
