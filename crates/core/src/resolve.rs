//! §5.2 — Finding Direct Owners and Delegated Customers of routed prefixes.

use p2o_net::Prefix;
use p2o_util::Symbol;
use p2o_whois::alloc::{AllocationType, OwnershipLevel};
use p2o_whois::{DelegationEntry, DelegationTree, Registry};

use crate::explain::{push_step, step};

/// One step in a prefix's delegation chain below the Direct Owner.
///
/// Organization names are [`Symbol`]s into the delegation tree's interner
/// ([`DelegationTree::names`]); they stay symbols through resolution and
/// clustering, and are materialized to strings only when the dataset is
/// assembled (see `crate::dataset::CustomerStep`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelegationStep {
    /// The Delegated Customer's organization name.
    pub org_name: Symbol,
    /// The registered block of this sub-delegation.
    pub prefix: Prefix,
    /// Its allocation type.
    pub alloc: AllocationType,
}

/// The resolved ownership of one routed prefix (§5.2): the Direct Owner, and
/// the chain of Delegated Customers in hierarchical order (closest to the
/// Direct Owner first, most specific last).
///
/// When the most specific WHOIS record on the prefix is itself a Direct
/// Owner delegation, the owner organization "is both the Direct Owner and
/// Delegated Customer" in the paper's terms; the chain is then empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnershipRecord {
    /// The routed prefix.
    pub prefix: Prefix,
    /// The Direct Owner's WHOIS organization name (symbol into the source
    /// tree's interner).
    pub direct_owner: Symbol,
    /// The block of the Direct Owner delegation covering the prefix.
    pub do_prefix: Prefix,
    /// The Direct Owner delegation's allocation type.
    pub do_alloc: AllocationType,
    /// The registry holding the Direct Owner record.
    pub do_registry: Registry,
    /// Sub-delegations below the Direct Owner, in hierarchical order.
    pub delegated_customers: Vec<DelegationStep>,
}

impl OwnershipRecord {
    /// The most specific Delegated Customer — the paper's per-prefix "DC":
    /// the last chain entry, or the Direct Owner itself when no
    /// sub-delegation exists.
    pub fn most_specific_customer(&self) -> Symbol {
        self.delegated_customers
            .last()
            .map(|s| s.org_name)
            .unwrap_or(self.direct_owner)
    }

    /// Whether the prefix is used by an organization other than its Direct
    /// Owner (the §6 "Delegated Customer is not the same organization"
    /// statistic). Symbol comparison is exact-name comparison because both
    /// symbols come from the same interner.
    pub fn has_external_customer(&self) -> bool {
        self.delegated_customers
            .last()
            .map(|s| s.org_name != self.direct_owner)
            .unwrap_or(false)
    }
}

/// Resolves routed prefixes against a WHOIS delegation tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct Resolver;

impl Resolver {
    /// Resolves one routed prefix. Returns `None` when no covering Direct
    /// Owner delegation exists (the paper's 0.03% unmapped tail).
    ///
    /// The walk mirrors §5.2: take the covering chain (most specific block
    /// first); collect Delegated Customer records until the first Direct
    /// Owner record, which names the Direct Owner. Multiple records on one
    /// block are already in hierarchy order (see
    /// [`AllocationType::chain_depth`]).
    pub fn resolve(&self, tree: &DelegationTree, prefix: &Prefix) -> Option<OwnershipRecord> {
        self.resolve_inner(tree, prefix, None)
    }

    /// Like [`resolve`](Self::resolve), but records every rule the walk
    /// applies — the radix LPM, each Delegated Customer record consulted,
    /// and the Direct Owner match — into `trace`. The recorded chain is
    /// deterministic: it depends only on the tree and the prefix.
    pub fn resolve_traced(
        &self,
        tree: &DelegationTree,
        prefix: &Prefix,
        trace: &mut p2o_obs::DecisionTrace,
    ) -> Option<OwnershipRecord> {
        self.resolve_inner(tree, prefix, Some(trace))
    }

    fn resolve_inner(
        &self,
        tree: &DelegationTree,
        prefix: &Prefix,
        mut trace: Option<&mut p2o_obs::DecisionTrace>,
    ) -> Option<OwnershipRecord> {
        let (chain, visited) = tree.covering_chain_with_depth(prefix);
        if let Some(t) = trace.as_deref_mut() {
            push_step(t, step::RADIX_LPM, |d| {
                step::covering_chain(d, chain.len(), visited)
            });
        }
        // Collected most-specific-first, then reversed into hierarchical
        // order at the end.
        let mut customers_rev: Vec<DelegationStep> = Vec::new();
        for (block, entries) in chain {
            // Entries are sorted Direct Owner first, then by increasing
            // chain depth. Scan customers deepest-first so the
            // most-specific assignment precedes its re-allocation parent in
            // `customers_rev`.
            for entry in entries.iter().rev() {
                match entry.ownership_level() {
                    OwnershipLevel::DelegatedCustomer => {
                        if let Some(t) = trace.as_deref_mut() {
                            push_step(t, step::DELEGATED_CUSTOMER, |d| {
                                step::delegated_customer(
                                    d,
                                    tree.name(entry.org_name),
                                    entry.alloc,
                                    &block,
                                )
                            });
                        }
                        customers_rev.push(DelegationStep {
                            org_name: entry.org_name,
                            prefix: block,
                            alloc: entry.alloc,
                        });
                    }
                    OwnershipLevel::DirectOwner => {
                        if let Some(t) = trace.as_deref_mut() {
                            push_step(t, step::DIRECT_OWNER, |d| {
                                step::direct_owner(
                                    d,
                                    tree.name(entry.org_name),
                                    entry.alloc,
                                    &block,
                                    entry.registry,
                                )
                            });
                        }
                        customers_rev.reverse();
                        return Some(OwnershipRecord {
                            prefix: *prefix,
                            direct_owner: entry.org_name,
                            do_prefix: block,
                            do_alloc: entry.alloc,
                            do_registry: entry.registry,
                            delegated_customers: customers_rev,
                        });
                    }
                }
            }
        }
        if let Some(t) = trace {
            t.push(step::UNRESOLVED, step::UNRESOLVED_DETAIL);
        }
        None
    }

    /// Resolves every prefix of an iterator, dropping unresolved ones and
    /// counting them.
    pub fn resolve_all<'a, I>(
        &self,
        tree: &DelegationTree,
        prefixes: I,
    ) -> (Vec<OwnershipRecord>, usize)
    where
        I: IntoIterator<Item = &'a Prefix>,
    {
        let mut records = Vec::new();
        let mut unresolved = 0;
        for p in prefixes {
            match self.resolve(tree, p) {
                Some(r) => records.push(r),
                None => unresolved += 1,
            }
        }
        (records, unresolved)
    }
}

/// Convenience used by tests and examples: the Direct Owner entry of a
/// block, if any.
pub fn direct_owner_entry(entries: &[DelegationEntry]) -> Option<&DelegationEntry> {
    entries
        .iter()
        .find(|e| e.ownership_level() == OwnershipLevel::DirectOwner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_net::{IpRange, Range4};
    use p2o_whois::record::{OrgRef, RawWhoisRecord};
    use p2o_whois::{Rir, WhoisDb};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn rec(net: &str, org: &str, alloc: AllocationType) -> RawWhoisRecord {
        let prefix: p2o_net::Prefix4 = net.parse().unwrap();
        RawWhoisRecord {
            net: IpRange::V4(Range4::from_prefix(&prefix)),
            org: OrgRef::Name(org.into()),
            alloc: Some(alloc),
            source: Registry::Rir(Rir::Arin),
            last_modified: 20240101,
        }
    }

    fn tree(records: Vec<RawWhoisRecord>) -> DelegationTree {
        let mut db = WhoisDb::new();
        for r in records {
            db.add_record(r);
        }
        db.build().0
    }

    #[test]
    fn direct_owner_only() {
        let t = tree(vec![rec(
            "63.64.0.0/10",
            "Verizon Business",
            AllocationType::Allocation,
        )]);
        let r = Resolver.resolve(&t, &p("63.80.52.0/24")).unwrap();
        assert_eq!(t.name(r.direct_owner), "Verizon Business");
        assert_eq!(r.do_prefix, p("63.64.0.0/10"));
        assert_eq!(r.do_alloc, AllocationType::Allocation);
        assert!(r.delegated_customers.is_empty());
        // DO doubles as the most specific customer.
        assert_eq!(t.name(r.most_specific_customer()), "Verizon Business");
        assert!(!r.has_external_customer());
    }

    #[test]
    fn listing1_chain() {
        // Listing 1: 63.80.52.0/24 — DO Verizon (63.64.0.0/10 ALLOCATION),
        // DCs Bandwidth.com (REALLOCATION) then Ceva (REASSIGNMENT), both on
        // the /24 itself.
        let t = tree(vec![
            rec(
                "63.64.0.0/10",
                "Verizon Business",
                AllocationType::Allocation,
            ),
            rec(
                "63.80.52.0/24",
                "Bandwidth.com Inc.",
                AllocationType::Reallocation,
            ),
            rec("63.80.52.0/24", "Ceva Inc", AllocationType::Reassignment),
        ]);
        let r = Resolver.resolve(&t, &p("63.80.52.0/24")).unwrap();
        assert_eq!(t.name(r.direct_owner), "Verizon Business");
        assert_eq!(r.do_prefix, p("63.64.0.0/10"));
        let names: Vec<_> = r
            .delegated_customers
            .iter()
            .map(|s| t.name(s.org_name))
            .collect();
        assert_eq!(names, vec!["Bandwidth.com Inc.", "Ceva Inc"]);
        assert_eq!(t.name(r.most_specific_customer()), "Ceva Inc");
        assert!(r.has_external_customer());
    }

    #[test]
    fn traced_resolution_pins_the_rule_chain() {
        let t = tree(vec![
            rec(
                "63.64.0.0/10",
                "Verizon Business",
                AllocationType::Allocation,
            ),
            rec(
                "63.80.52.0/24",
                "Bandwidth.com Inc.",
                AllocationType::Reallocation,
            ),
            rec("63.80.52.0/24", "Ceva Inc", AllocationType::Reassignment),
        ]);
        let mut trace = p2o_obs::DecisionTrace::new("63.80.52.0/24");
        let traced = Resolver
            .resolve_traced(&t, &p("63.80.52.0/24"), &mut trace)
            .unwrap();
        // Tracing must not change the answer.
        assert_eq!(
            Some(&traced),
            Resolver.resolve(&t, &p("63.80.52.0/24")).as_ref()
        );
        // The chain is deterministic, so the full trace pins exactly.
        let mut expected = p2o_obs::DecisionTrace::new("63.80.52.0/24");
        expected.push(
            "radix.lpm",
            "covering chain has 2 registered block(s) (3 radix nodes walked)",
        );
        expected.push(
            "whois.delegated_customer",
            "Ceva Inc via Reassignment on 63.80.52.0/24",
        );
        expected.push(
            "whois.delegated_customer",
            "Bandwidth.com Inc. via Reallocation on 63.80.52.0/24",
        );
        expected.push(
            "whois.direct_owner",
            "Verizon Business via Allocation on 63.64.0.0/10 [ARIN]",
        );
        assert_eq!(trace, expected);

        // An unresolved prefix records the miss.
        let mut miss = p2o_obs::DecisionTrace::new("200.0.0.0/16");
        assert!(Resolver
            .resolve_traced(&t, &p("200.0.0.0/16"), &mut miss)
            .is_none());
        assert!(miss.used("whois.unresolved"));
    }

    #[test]
    fn figure1_same_prefix_do_and_dc() {
        // Figure 1: PSINet holds 206.238.0.0/16 directly and reassigns the
        // whole block to Tcloudnet — two records on the same prefix.
        let t = tree(vec![
            rec("206.238.0.0/16", "PSINet, Inc", AllocationType::Allocation),
            rec(
                "206.238.0.0/16",
                "Tcloudnet, Inc",
                AllocationType::Reassignment,
            ),
        ]);
        let r = Resolver.resolve(&t, &p("206.238.0.0/16")).unwrap();
        assert_eq!(t.name(r.direct_owner), "PSINet, Inc");
        assert_eq!(r.delegated_customers.len(), 1);
        assert_eq!(t.name(r.delegated_customers[0].org_name), "Tcloudnet, Inc");
    }

    #[test]
    fn chain_across_blocks() {
        let t = tree(vec![
            rec("10.0.0.0/8", "Carrier", AllocationType::Allocation),
            rec("10.1.0.0/16", "Regional ISP", AllocationType::Reallocation),
            rec("10.1.2.0/24", "End User", AllocationType::Reassignment),
        ]);
        let r = Resolver.resolve(&t, &p("10.1.2.0/24")).unwrap();
        assert_eq!(t.name(r.direct_owner), "Carrier");
        let names: Vec<_> = r
            .delegated_customers
            .iter()
            .map(|s| t.name(s.org_name))
            .collect();
        assert_eq!(names, vec!["Regional ISP", "End User"]);
        // A routed prefix deeper than all records resolves identically.
        let r2 = Resolver.resolve(&t, &p("10.1.2.128/25")).unwrap();
        assert_eq!(t.name(r2.direct_owner), "Carrier");
        assert_eq!(r2.delegated_customers.len(), 2);
    }

    #[test]
    fn nested_direct_owners_pick_most_specific() {
        // A /16 directly assigned out of a /8 direct allocation: the /16
        // holder is the prefix's Direct Owner (its record is closer).
        let t = tree(vec![
            rec("100.0.0.0/8", "Big Carrier", AllocationType::Allocation),
            rec("100.50.0.0/16", "PI Holder", AllocationType::Allocation),
        ]);
        let r = Resolver.resolve(&t, &p("100.50.1.0/24")).unwrap();
        assert_eq!(t.name(r.direct_owner), "PI Holder");
        assert!(r.delegated_customers.is_empty());
    }

    #[test]
    fn unresolved_prefix() {
        let t = tree(vec![rec(
            "63.64.0.0/10",
            "Verizon Business",
            AllocationType::Allocation,
        )]);
        assert!(Resolver.resolve(&t, &p("200.0.0.0/16")).is_none());
        let prefixes = [p("63.80.52.0/24"), p("200.0.0.0/16")];
        let (records, unresolved) = Resolver.resolve_all(&t, prefixes.iter());
        assert_eq!(records.len(), 1);
        assert_eq!(unresolved, 1);
    }

    #[test]
    fn customer_chain_with_no_visible_do_is_unresolved() {
        // Only sub-delegation records and no covering direct delegation:
        // the walk exhausts the chain without a Direct Owner.
        let t = tree(vec![rec(
            "10.1.0.0/16",
            "Orphan Customer",
            AllocationType::Reassignment,
        )]);
        assert!(Resolver.resolve(&t, &p("10.1.2.0/24")).is_none());
    }
}
