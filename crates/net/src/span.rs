//! Address-span accounting.
//!
//! The paper repeatedly reports "fraction of routed address space" — for IPv4
//! this is counted in /32 addresses and for IPv6 (where raw address counts are
//! meaningless) in routed prefixes or /64 subnets. [`AddressSpan`] accumulates
//! both, de-duplicating overlapping prefixes so that a /16 plus one of its
//! /24s counts the /16 only once.

use std::collections::BTreeSet;

use crate::prefix::Prefix;
use crate::v4::Prefix4;
use crate::v6::Prefix6;

/// Accumulates a set of prefixes and reports the exact number of unique
/// IPv4 addresses and IPv6 /64 subnets they cover.
///
/// Internally keeps a disjoint set of intervals per family, so overlapping or
/// duplicate prefixes never double count.
///
/// ```
/// use p2o_net::AddressSpan;
/// let mut span = AddressSpan::new();
/// span.add(&"10.0.0.0/16".parse().unwrap());
/// span.add(&"10.0.1.0/24".parse().unwrap()); // nested: no extra addresses
/// assert_eq!(span.v4_addresses(), 65536);
/// ```
#[derive(Debug, Default, Clone)]
pub struct AddressSpan {
    // Disjoint, sorted, non-adjacent-merged intervals (first, last).
    v4: BTreeSet<(u32, u32)>,
    v6: BTreeSet<(u128, u128)>,
}

impl AddressSpan {
    /// Creates an empty span.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a prefix of either family.
    pub fn add(&mut self, prefix: &Prefix) {
        match prefix {
            Prefix::V4(p) => self.add_v4(p),
            Prefix::V6(p) => self.add_v6(p),
        }
    }

    /// Adds an IPv4 prefix.
    pub fn add_v4(&mut self, p: &Prefix4) {
        insert_interval(&mut self.v4, p.first_addr(), p.last_addr(), 0u32, u32::MAX);
    }

    /// Adds an IPv6 prefix.
    pub fn add_v6(&mut self, p: &Prefix6) {
        insert_interval(
            &mut self.v6,
            p.first_addr(),
            p.last_addr(),
            0u128,
            u128::MAX,
        );
    }

    /// Number of unique IPv4 addresses covered.
    pub fn v4_addresses(&self) -> u64 {
        self.v4.iter().map(|(a, b)| (*b - *a) as u64 + 1).sum()
    }

    /// Number of unique IPv6 /64 subnets covered (partial /64s round up).
    pub fn v6_slash64(&self) -> u128 {
        self.v6.iter().map(|(a, b)| (b >> 64) - (a >> 64) + 1).sum()
    }

    /// Whether nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.v4.is_empty() && self.v6.is_empty()
    }

    /// The stored IPv4 intervals, widened to `u128`.
    #[cfg(test)]
    pub(crate) fn v4_intervals(&self) -> Vec<(u128, u128)> {
        self.v4
            .iter()
            .map(|&(a, b)| (a as u128, b as u128))
            .collect()
    }

    /// The stored IPv6 intervals.
    #[cfg(test)]
    pub(crate) fn v6_intervals(&self) -> Vec<(u128, u128)> {
        self.v6.iter().copied().collect()
    }
}

/// Inserts `[first, last]` into a disjoint interval set, merging overlaps and
/// adjacency. `min`/`max` are the domain bounds (used for safe adjacency
/// checks without overflow).
fn insert_interval<T>(set: &mut BTreeSet<(T, T)>, first: T, last: T, min: T, max: T)
where
    T: Copy + Ord + num_like::NumLike,
{
    let mut new_first = first;
    let mut new_last = last;
    // Candidate overlapping/adjacent intervals: those starting at or before
    // last+1 and ending at or after first-1. The set is disjoint and
    // sorted, so at most one of them starts before first-1 (the nearest
    // predecessor, if it reaches first-1); the rest start inside
    // [first-1, last+1]. Both are found by range queries in O(log n).
    let lo_probe = if first == min { min } else { first.dec() };
    let hi_probe = if last == max { max } else { last.inc() };
    let before = set
        .range(..(lo_probe, min))
        .next_back()
        .copied()
        .filter(|(_, b)| *b >= lo_probe);
    let to_merge: Vec<(T, T)> = before
        .into_iter()
        .chain(set.range((lo_probe, min)..=(hi_probe, max)).copied())
        .collect();
    for iv in &to_merge {
        set.remove(iv);
        if iv.0 < new_first {
            new_first = iv.0;
        }
        if iv.1 > new_last {
            new_last = iv.1;
        }
    }
    set.insert((new_first, new_last));
}

/// Minimal numeric-like trait so the interval merge works for both `u32` and
/// `u128` without pulling in a numerics crate.
mod num_like {
    pub trait NumLike {
        fn inc(self) -> Self;
        fn dec(self) -> Self;
    }
    impl NumLike for u32 {
        fn inc(self) -> Self {
            self + 1
        }
        fn dec(self) -> Self {
            self - 1
        }
    }
    impl NumLike for u128 {
        fn inc(self) -> Self {
            self + 1
        }
        fn dec(self) -> Self {
            self - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn empty_span() {
        let span = AddressSpan::new();
        assert!(span.is_empty());
        assert_eq!(span.v4_addresses(), 0);
        assert_eq!(span.v6_slash64(), 0);
    }

    #[test]
    fn disjoint_prefixes_sum() {
        let mut span = AddressSpan::new();
        span.add(&p("10.0.0.0/24"));
        span.add(&p("192.0.2.0/24"));
        assert_eq!(span.v4_addresses(), 512);
    }

    #[test]
    fn nested_prefixes_do_not_double_count() {
        let mut span = AddressSpan::new();
        span.add(&p("10.0.0.0/16"));
        span.add(&p("10.0.1.0/24"));
        span.add(&p("10.0.0.0/16"));
        assert_eq!(span.v4_addresses(), 65536);
    }

    #[test]
    fn subnet_added_before_supernet() {
        let mut span = AddressSpan::new();
        span.add(&p("10.0.1.0/24"));
        span.add(&p("10.0.0.0/16"));
        assert_eq!(span.v4_addresses(), 65536);
    }

    #[test]
    fn adjacent_prefixes_merge() {
        let mut span = AddressSpan::new();
        span.add(&p("10.0.0.0/25"));
        span.add(&p("10.0.0.128/25"));
        assert_eq!(span.v4_addresses(), 256);
        // Internally merged to a single interval: adding the covering /24 is a
        // no-op.
        span.add(&p("10.0.0.0/24"));
        assert_eq!(span.v4_addresses(), 256);
    }

    #[test]
    fn merge_spanning_many_existing_intervals() {
        let mut span = AddressSpan::new();
        for i in 0u32..8 {
            span.add(&Prefix4::new_truncated(i << 9, 24).into()); // every other /24
        }
        assert_eq!(span.v4_addresses(), 8 * 256);
        span.add(&p("0.0.0.0/20")); // covers all 8 and the gaps
        assert_eq!(span.v4_addresses(), 4096);
    }

    #[test]
    fn full_v4_space() {
        let mut span = AddressSpan::new();
        span.add(&p("0.0.0.0/1"));
        span.add(&p("128.0.0.0/1"));
        assert_eq!(span.v4_addresses(), 1u64 << 32);
    }

    #[test]
    fn v6_slash64_accounting() {
        let mut span = AddressSpan::new();
        span.add(&p("2001:db8::/32"));
        assert_eq!(span.v6_slash64(), 1u128 << 32);
        // A nested /48 adds nothing.
        span.add(&p("2001:db8:1::/48"));
        assert_eq!(span.v6_slash64(), 1u128 << 32);
        // A /128 still counts as one /64.
        span.add(&p("2002::1/128"));
        assert_eq!(span.v6_slash64(), (1u128 << 32) + 1);
    }

    #[test]
    fn families_are_independent() {
        let mut span = AddressSpan::new();
        span.add(&p("10.0.0.0/8"));
        span.add(&p("2001:db8::/32"));
        assert_eq!(span.v4_addresses(), 1 << 24);
        assert_eq!(span.v6_slash64(), 1u128 << 32);
    }
}
