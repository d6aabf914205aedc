//! Property-based tests for prefix and range arithmetic.

use p2o_util::check::{run_cases, Gen};

use crate::range::{Range4, Range6};
use crate::v4::Prefix4;
use crate::v6::Prefix6;
use crate::{AddressSpan, Prefix};

fn gen_prefix4(g: &mut Gen) -> Prefix4 {
    Prefix4::new_truncated(g.u32(), g.range(0, 32) as u8)
}

fn gen_prefix6(g: &mut Gen) -> Prefix6 {
    Prefix6::new_truncated(g.u128(), g.range(0, 128) as u8)
}

#[test]
fn v4_display_parse_round_trip() {
    run_cases(256, |g| {
        let p = gen_prefix4(g);
        assert_eq!(p.to_string().parse::<Prefix4>().unwrap(), p);
    });
}

#[test]
fn v6_display_parse_round_trip() {
    run_cases(256, |g| {
        let p = gen_prefix6(g);
        assert_eq!(p.to_string().parse::<Prefix6>().unwrap(), p);
    });
}

#[test]
fn family_enum_round_trip() {
    run_cases(256, |g| {
        let p = if g.bool() {
            Prefix::V4(gen_prefix4(g))
        } else {
            Prefix::V6(gen_prefix6(g))
        };
        assert_eq!(p.to_string().parse::<Prefix>().unwrap(), p);
    });
}

#[test]
fn v4_containment_is_reflexive_and_antisymmetric() {
    run_cases(256, |g| {
        let a = gen_prefix4(g);
        let b = gen_prefix4(g);
        assert!(a.contains(&a));
        if a.contains(&b) && b.contains(&a) {
            assert_eq!(a, b);
        }
    });
}

#[test]
fn v4_supernet_contains() {
    run_cases(256, |g| {
        let p = gen_prefix4(g);
        if let Some(s) = p.supernet() {
            assert!(s.contains(&p));
        }
    });
}

#[test]
fn v4_subnets_partition() {
    run_cases(256, |g| {
        let p = gen_prefix4(g);
        if let Some((lo, hi)) = p.subnets() {
            assert!(p.contains(&lo) && p.contains(&hi));
            assert!(!lo.overlaps(&hi));
            assert_eq!(lo.num_addrs() + hi.num_addrs(), p.num_addrs());
        }
    });
}

/// CIDR decomposition of a range covers it exactly: blocks are sorted,
/// contiguous, start at first, end at last.
#[test]
fn v4_range_decomposition_exact_cover() {
    run_cases(256, |g| {
        let (a, b) = (g.u32(), g.u32());
        let (first, last) = if a <= b { (a, b) } else { (b, a) };
        let r = Range4::new(first, last).unwrap();
        let blocks = r.to_prefixes();
        assert!(!blocks.is_empty());
        assert_eq!(blocks.first().unwrap().first_addr(), first);
        assert_eq!(blocks.last().unwrap().last_addr(), last);
        for w in blocks.windows(2) {
            assert_eq!(w[0].last_addr() as u64 + 1, w[1].first_addr() as u64);
        }
        let total: u64 = blocks.iter().map(|p| p.num_addrs()).sum();
        assert_eq!(total, r.num_addrs());
    });
}

/// Decomposition is minimal: no two consecutive blocks could merge into
/// a single aligned block.
#[test]
fn v4_range_decomposition_minimal() {
    run_cases(256, |g| {
        let (a, b) = (g.u32(), g.u32());
        let (first, last) = if a <= b { (a, b) } else { (b, a) };
        let blocks = Range4::new(first, last).unwrap().to_prefixes();
        for w in blocks.windows(2) {
            if w[0].len() == w[1].len() {
                if let Some(sup) = w[0].supernet() {
                    // If both fit in the same supernet they should have merged.
                    assert!(!(sup.contains(&w[0]) && sup.contains(&w[1])));
                }
            }
        }
    });
}

#[test]
fn v4_range_prefix_round_trip() {
    run_cases(256, |g| {
        let p = gen_prefix4(g);
        let r = Range4::from_prefix(&p);
        assert_eq!(r.as_prefix(), Some(p));
        assert_eq!(r.to_prefixes(), vec![p]);
    });
}

#[test]
fn v6_range_prefix_round_trip() {
    run_cases(256, |g| {
        let p = gen_prefix6(g);
        let r = Range6::from_prefix(&p);
        assert_eq!(r.as_prefix(), Some(p));
        assert_eq!(r.to_prefixes(), vec![p]);
    });
}

#[test]
fn v6_range_decomposition_exact_cover() {
    run_cases(256, |g| {
        let (a, b) = (g.u128(), g.u128());
        let (first, last) = if a <= b { (a, b) } else { (b, a) };
        let r = Range6::new(first, last).unwrap();
        let blocks = r.to_prefixes();
        assert!(!blocks.is_empty());
        assert_eq!(blocks.first().unwrap().first_addr(), first);
        assert_eq!(blocks.last().unwrap().last_addr(), last);
        for w in blocks.windows(2) {
            assert_eq!(w[0].last_addr().wrapping_add(1), w[1].first_addr());
        }
    });
}

/// The span of a set of prefixes equals the brute-force union size on a
/// constrained 16-bit sub-universe (so brute force is feasible).
#[test]
fn span_matches_brute_force() {
    run_cases(128, |g| {
        let prefixes: Vec<Prefix4> = (0..g.range(1, 19))
            .map(|_| {
                let hi = g.u32() >> 16;
                Prefix4::new_truncated(hi << 16, g.range(18, 32) as u8)
            })
            .collect();
        let mut span = AddressSpan::new();
        let mut brute = std::collections::HashSet::new();
        for p in &prefixes {
            span.add_v4(p);
            // len >= 18 keeps each prefix to at most 16384 addresses, so
            // exhaustive enumeration stays cheap.
            for a in p.first_addr()..=p.last_addr() {
                brute.insert(a);
            }
        }
        assert_eq!(span.v4_addresses(), brute.len() as u64);
    });
}

/// Sort-and-merge-from-scratch oracle: the disjoint interval list covering
/// `ivs`, with overlapping and adjacent intervals merged.
fn merged_from_scratch(mut ivs: Vec<(u128, u128)>) -> Vec<(u128, u128)> {
    ivs.sort_unstable();
    let mut out: Vec<(u128, u128)> = Vec::new();
    for (first, last) in ivs {
        match out.last_mut() {
            // `first > top.1` in the adjacency arm, so `first - 1` cannot
            // underflow.
            Some(top) if first <= top.1 || first - 1 == top.1 => top.1 = top.1.max(last),
            _ => out.push((first, last)),
        }
    }
    out
}

/// The low `k` bits set (`k` ≤ 128).
fn low_bits(k: u8) -> u128 {
    if k >= 128 {
        u128::MAX
    } else {
        (1u128 << k) - 1
    }
}

/// Hundreds of `(bits, len)` prefixes of a `width`-bit family in random
/// order: fresh ones, duplicates, nested ones, siblings and next-door
/// blocks of earlier ones, plus (sometimes) the given domain edges.
fn span_workload(g: &mut Gen, width: u8, edges: &[(u128, u8)]) -> Vec<(u128, u8)> {
    let n = g.range(200, 400);
    let mut out: Vec<(u128, u8)> = Vec::with_capacity(n + edges.len());
    // Four /8-sized regions keep fresh prefixes colliding.
    let fresh = |g: &mut Gen| {
        let region = (g.below(4) as u128) << (width - 8);
        let len = g.range(8, width as usize) as u8;
        (region | (g.u128() & low_bits(width - 8)), len)
    };
    for _ in 0..n {
        if out.is_empty() {
            out.push(fresh(g));
            continue;
        }
        let (bits, len) = *g.pick(&out);
        let block = 1u128 << (width - len.max(1));
        let next_door = bits
            .checked_add(block)
            .filter(|b| width == 128 || b >> width == 0);
        out.push(match g.below(5) {
            0 => fresh(g),
            1 => (bits, len),
            2 if len < width => {
                let sub = g.range(len as usize + 1, width as usize) as u8;
                (bits | (g.u128() & low_bits(width - len)), sub)
            }
            3 if len > 0 => (bits ^ block, len),
            4 if len > 0 && next_door.is_some() => (next_door.unwrap(), len),
            _ => (bits, len),
        });
    }
    for &edge in edges {
        if g.chance(if edge.1 == 0 { 0.1 } else { 0.5 }) {
            out.push(edge);
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, g.below(i + 1));
    }
    out
}

/// [`AddressSpan`] keeps exactly the sort-and-merge interval set of
/// everything added, for hundreds of random IPv4 and IPv6 prefixes in
/// random order, including the domain edges that exercise the `min`/`max`
/// probe branches of the insert.
#[test]
fn span_matches_sort_and_merge_oracle() {
    const V4_EDGES: &[(u128, u8)] = &[(0, 0), (0, 32), (0xFFFF_FFFF, 32)];
    const V6_EDGES: &[(u128, u8)] = &[(0, 0), (0, 128), (u128::MAX, 128)];
    run_cases(64, |g| {
        let mut span = AddressSpan::new();
        let v4: Vec<Prefix4> = span_workload(g, 32, V4_EDGES)
            .into_iter()
            .map(|(bits, len)| Prefix4::new_truncated(bits as u32, len))
            .collect();
        let v6: Vec<Prefix6> = span_workload(g, 128, V6_EDGES)
            .into_iter()
            .map(|(bits, len)| Prefix6::new_truncated(bits, len))
            .collect();
        // Interleave the families so each insert sees the other's state.
        for i in 0..v4.len().max(v6.len()) {
            if let Some(p) = v4.get(i) {
                span.add(&Prefix::V4(*p));
            }
            if let Some(p) = v6.get(i) {
                span.add(&Prefix::V6(*p));
            }
        }
        let want4 = merged_from_scratch(
            v4.iter()
                .map(|p| (p.first_addr() as u128, p.last_addr() as u128))
                .collect(),
        );
        let want6 =
            merged_from_scratch(v6.iter().map(|p| (p.first_addr(), p.last_addr())).collect());
        assert_eq!(span.v4_intervals(), want4);
        assert_eq!(span.v6_intervals(), want6);
        let addrs: u128 = want4.iter().map(|(a, b)| b - a + 1).sum();
        assert_eq!(span.v4_addresses() as u128, addrs);
        let slash64: u128 = want6.iter().map(|(a, b)| (b >> 64) - (a >> 64) + 1).sum();
        assert_eq!(span.v6_slash64(), slash64);
    });
}

/// Each domain edge on its own and next to its neighbours: the inserts
/// whose `first - 1` or `last + 1` probe would leave the domain.
#[test]
fn span_domain_edges() {
    let mut span = AddressSpan::new();
    for p in [
        "0.0.0.0/32",
        "255.255.255.255/32",
        "::/128",
        "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
    ] {
        span.add(&p.parse().unwrap());
    }
    assert_eq!(span.v4_addresses(), 2);
    assert_eq!(span.v6_slash64(), 2);
    span.add(&"0.0.0.1/32".parse().unwrap());
    span.add(&"255.255.255.254/32".parse().unwrap());
    assert_eq!(
        span.v4_intervals(),
        vec![(0, 1), (0xFFFF_FFFE, 0xFFFF_FFFF)]
    );
    span.add(&"0.0.0.0/0".parse().unwrap());
    span.add(&"::/0".parse().unwrap());
    assert_eq!(span.v4_intervals(), vec![(0, 0xFFFF_FFFF)]);
    assert_eq!(span.v6_intervals(), vec![(0, u128::MAX)]);
    assert_eq!(span.v4_addresses(), 1 << 32);
}
