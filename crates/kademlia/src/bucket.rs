//! K-bucket views: fixed-capacity groups of peers at one proximity order.
//!
//! Buckets no longer own storage — entries live in the topology's
//! [`TableArena`](crate::routing_table) — so a `BucketRef` is a borrowed
//! slice of table entries plus metadata, obtained through
//! [`TableRef::bucket`](crate::TableRef::bucket) /
//! [`TableRef::buckets`](crate::TableRef::buckets).

use crate::address::{AddressSpace, OverlayAddress};
use crate::routing_table::Entry;
use crate::topology::NodeId;

/// A read view of a single routing-table bucket.
///
/// Bucket `i` of a node holds peers whose addresses share a prefix of
/// length *exactly* `i` with the node's own address (paper §IV-B: "The
/// i-th bucket of a node contains addresses that have a common prefix of
/// length i with the node's address. Each bucket contains at most k
/// addresses.").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketRef<'a> {
    index: u32,
    capacity: usize,
    space: AddressSpace,
    entries: &'a [Entry],
}

impl<'a> BucketRef<'a> {
    pub(crate) fn new(
        index: u32,
        capacity: usize,
        space: AddressSpace,
        entries: &'a [Entry],
    ) -> Self {
        Self {
            index,
            capacity,
            space,
            entries,
        }
    }

    /// The proximity order this bucket covers.
    #[inline]
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Maximum number of peers this bucket may hold (`k`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of peers.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bucket holds no peers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the bucket is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Whether `node` is in this bucket.
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|entry| entry.id as usize == node.0)
    }

    /// Iterates over `(NodeId, OverlayAddress)` entries in insertion
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, OverlayAddress)> + 'a {
        let bits = self.space.bits();
        self.entries.iter().map(move |&entry| {
            (
                NodeId(entry.id as usize),
                OverlayAddress::from_raw_unchecked(entry.raw, bits),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space16() -> AddressSpace {
        AddressSpace::new(16).unwrap()
    }

    fn entries(pairs: &[(u32, u64)]) -> Vec<Entry> {
        pairs.iter().map(|&(id, raw)| Entry { raw, id }).collect()
    }

    #[test]
    fn metadata_and_iteration() {
        let entries = entries(&[(7, 0x00F0), (9, 0x00F1), (11, 0x00F2)]);
        let b = BucketRef::new(5, 20, space16(), &entries);
        assert_eq!(b.index(), 5);
        assert_eq!(b.capacity(), 20);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(!b.is_full());
        assert!(b.contains(NodeId(9)));
        assert!(!b.contains(NodeId(10)));
        let entries: Vec<(usize, u64)> = b.iter().map(|(id, a)| (id.0, a.raw())).collect();
        assert_eq!(entries, vec![(7, 0x00F0), (9, 0x00F1), (11, 0x00F2)]);
    }

    #[test]
    fn fullness_uses_configured_capacity() {
        let entries = entries(&[(1, 1), (2, 2)]);
        let full = BucketRef::new(0, 2, space16(), &entries);
        assert!(full.is_full());
        let spare = BucketRef::new(0, 3, space16(), &entries);
        assert!(!spare.is_full());
    }

    #[test]
    fn empty_bucket() {
        let b = BucketRef::new(3, 4, space16(), &[]);
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
    }
}
