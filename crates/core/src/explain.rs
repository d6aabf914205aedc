//! `p2o explain <prefix>` — the provenance rule chain behind one mapping.
//!
//! [`Pipeline::explain`] replays the decision a full run would make for a
//! single prefix and records every rule consulted along the way in a
//! [`DecisionTrace`]: the routing-table lookup, the radix LPM walk over the
//! delegation tree, each WHOIS delegation matched (Direct Owner and
//! Delegated Customers), and the clustering evidence (base name, RPKI
//! certificate, origin-ASN clusters, merge edges) behind its final cluster.
//!
//! The trace construction is split in two layers so a long-running service
//! can reuse it without re-running the pipeline per query:
//! [`attribution_trace`] builds the chain against an *already computed*
//! dataset and merge-edge list (the serve snapshot holds both), while
//! [`Pipeline::explain`] computes them on the fly and then delegates —
//! guaranteeing the two paths render byte-identical attributions for any
//! prefix the dataset covers.

use p2o_net::Prefix;
use p2o_obs::DecisionTrace;

use crate::cluster::MergeEdge;
use crate::dataset::Prefix2OrgDataset;
use crate::exceptions::{ExceptionAction, ExceptionSet};
use crate::pipeline::{Pipeline, PipelineInputs};
use crate::resolve::Resolver;

/// Rule names and detail wording of every trace step — the single source
/// for both the [`DecisionTrace`] builders (here and in
/// [`crate::resolve`]) and the frozen artifact's on-demand renderer
/// ([`crate::frozen`]), so the two cannot drift apart. Each writer appends
/// one step's detail text to `out`.
pub(crate) mod step {
    use core::fmt::{Display, Write as _};

    use p2o_net::Prefix;
    use p2o_rpki::RovStatus;
    use p2o_whois::alloc::AllocationType;

    pub const BGP_ORIGINS: &str = "bgp.origins";
    pub const RADIX_LPM: &str = "radix.lpm";
    pub const DELEGATED_CUSTOMER: &str = "whois.delegated_customer";
    pub const DIRECT_OWNER: &str = "whois.direct_owner";
    pub const UNRESOLVED: &str = "whois.unresolved";
    pub const BASE_NAME: &str = "cluster.base_name";
    pub const CERTIFICATE: &str = "rpki.certificate";
    pub const ROV: &str = "rpki.rov";
    pub const ASN_CLUSTERS: &str = "as2org.clusters";
    pub const MERGE: &str = "cluster.merge";
    pub const FINAL: &str = "cluster.final";
    pub const LOCAL_EXCEPTION: &str = "local_exception";

    pub const UNRESOLVED_DETAIL: &str =
        "no covering Direct Owner delegation — prefix stays unmapped";
    pub const FILTERED_DETAIL: &str = "filtered as bogus by operator rule: no attribution";

    /// `None` = not in the routing table.
    pub fn origins(out: &mut String, origins: Option<impl IntoIterator<Item = u32>>) {
        match origins {
            Some(asns) => {
                out.push_str("routed, announced by ");
                for (i, asn) in asns.into_iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "AS{asn}");
                }
            }
            None => out.push_str("not in the routing table (hypothetical mapping)"),
        }
    }

    pub fn covering_chain(out: &mut String, blocks: usize, nodes: usize) {
        let _ = write!(
            out,
            "covering chain has {blocks} registered block(s) ({nodes} radix nodes walked)"
        );
    }

    pub fn delegated_customer(out: &mut String, org: &str, alloc: AllocationType, block: &Prefix) {
        let _ = write!(out, "{org} via {alloc} on {block}");
    }

    pub fn direct_owner(
        out: &mut String,
        org: &str,
        alloc: AllocationType,
        block: &Prefix,
        registry: impl Display,
    ) {
        let _ = write!(out, "{org} via {alloc} on {block} [{registry}]");
    }

    pub fn base_name(out: &mut String, owner: &str, base: &str) {
        let _ = write!(out, "\"{owner}\" reduces to base name \"{base}\"");
    }

    pub fn certificate(out: &mut String, cert: Option<&str>) {
        match cert {
            Some(cert) => {
                out.push_str("covered by ");
                out.push_str(cert);
            }
            None => out.push_str("no covering validated Resource Certificate"),
        }
    }

    pub fn rov(out: &mut String, rov: RovStatus) {
        out.push_str("route origin validation: ");
        out.push_str(rov.as_str());
    }

    pub fn asn_clusters(out: &mut String, clusters: impl IntoIterator<Item = u32>) {
        let mut any = false;
        for c in clusters {
            out.push_str(if any { ", " } else { "origin ASN cluster(s) " });
            any = true;
            let _ = write!(out, "{c}");
        }
        if !any {
            out.push_str("origin ASNs map to no sibling cluster");
        }
    }

    /// One merge edge touching `owner`: names the other side.
    pub fn merge(out: &mut String, owner: &str, a: &str, b: &str, evidence: &str) {
        let other = if a == owner { b } else { a };
        let _ = write!(out, "merged with \"{other}\": {evidence}");
    }

    pub fn final_cluster(out: &mut String, label: &str, names: usize) {
        let _ = write!(out, "final cluster \"{label}\" ({names} WHOIS name(s))");
    }

    pub fn asserted(out: &mut String, org: &str) {
        let _ = write!(out, "operator rule overrides attribution to \"{org}\"");
    }
}

/// Appends one step whose detail a [`step`] writer produces.
pub(crate) fn push_step(trace: &mut DecisionTrace, rule: &str, detail: impl FnOnce(&mut String)) {
    let mut text = String::new();
    detail(&mut text);
    trace.push(rule, text);
}

/// The shared trace prelude: routing-table consultation plus the traced
/// resolution walk. Returns the trace and whether resolution found a
/// covering Direct Owner (when it did not, the chain already ends at the
/// `whois.unresolved` step and no cluster steps apply).
fn trace_prelude(inputs: &PipelineInputs<'_>, prefix: &Prefix) -> (DecisionTrace, bool) {
    let mut trace = DecisionTrace::new(prefix.to_string());
    let origins = inputs.routes.origins(prefix);
    push_step(&mut trace, step::BGP_ORIGINS, |d| {
        step::origins(d, origins.map(|set| set.iter().copied()))
    });
    let resolved = Resolver
        .resolve_traced(inputs.delegations, prefix, &mut trace)
        .is_some();
    (trace, resolved)
}

/// Appends the clustering evidence steps for `prefix`'s record in
/// `dataset`: base name, RPKI certificate, origin-ASN clusters, every merge
/// edge touching the Direct Owner, and the final cluster label.
fn push_cluster_steps(
    trace: &mut DecisionTrace,
    dataset: &Prefix2OrgDataset,
    merge_edges: &[MergeEdge],
    prefix: &Prefix,
) {
    let Some(record) = dataset.record(prefix) else {
        return;
    };
    let owner = record.direct_owner.as_str();
    push_step(trace, step::BASE_NAME, |d| {
        step::base_name(d, owner, &record.base_name)
    });
    push_step(trace, step::CERTIFICATE, |d| {
        step::certificate(d, record.rpki_certificate.as_deref())
    });
    push_step(trace, step::ROV, |d| step::rov(d, record.rov));
    push_step(trace, step::ASN_CLUSTERS, |d| {
        step::asn_clusters(d, record.origin_asn_clusters.iter().copied())
    });
    for edge in merge_edges.iter().filter(|e| e.a == owner || e.b == owner) {
        push_step(trace, step::MERGE, |d| {
            step::merge(d, owner, &edge.a, &edge.b, &edge.evidence)
        });
    }
    // The inferred label by cluster id: under an operator override the
    // record's own label carries the asserted org, while this step keeps
    // showing what the pipeline concluded.
    push_step(trace, step::FINAL, |d| {
        step::final_cluster(
            d,
            dataset.cluster_label(record.cluster),
            dataset.cluster_names(record.cluster).len(),
        )
    });
    if let Some(org) = &record.local_exception {
        push_step(trace, step::LOCAL_EXCEPTION, |d| step::asserted(d, org));
    }
}

/// Builds the full decision trace for `prefix` against an already-computed
/// `dataset` and `merge_edges` (a clustering run with
/// [`Clusterer::with_merge_evidence`] enabled).
///
/// For any prefix with a record in `dataset`, the result is byte-identical
/// to [`Pipeline::explain`] on the same inputs — the serve snapshot relies
/// on this to answer per-lookup provenance without re-running the pipeline.
/// Prefixes the dataset does not cover still get the routing and resolution
/// steps; the chain simply ends there.
pub fn attribution_trace(
    inputs: &PipelineInputs<'_>,
    dataset: &Prefix2OrgDataset,
    merge_edges: &[MergeEdge],
    prefix: &Prefix,
) -> DecisionTrace {
    attribution_trace_with(inputs, dataset, merge_edges, None, prefix)
}

/// [`attribution_trace`] with local operator exceptions in view.
///
/// `dataset` must already have the exceptions applied (asserted overrides
/// render from the record itself); the set is only consulted to explain
/// prefixes a `filter` rule removed — without it a filtered prefix is
/// indistinguishable from one the pipeline never attributed.
pub fn attribution_trace_with(
    inputs: &PipelineInputs<'_>,
    dataset: &Prefix2OrgDataset,
    merge_edges: &[MergeEdge],
    exceptions: Option<&ExceptionSet>,
    prefix: &Prefix,
) -> DecisionTrace {
    let (mut trace, resolved) = trace_prelude(inputs, prefix);
    if !resolved {
        return trace;
    }
    if let Some(set) = exceptions {
        if matches!(set.rule(prefix), Some(ExceptionAction::Filter)) {
            trace.push(step::LOCAL_EXCEPTION, step::FILTERED_DETAIL);
            return trace;
        }
    }
    push_cluster_steps(&mut trace, dataset, merge_edges, prefix);
    trace
}

impl Pipeline {
    /// Explains how `prefix` would be mapped by this pipeline: every rule
    /// consulted, in application order.
    ///
    /// The chain is deterministic — it carries no timestamps, thread ids or
    /// iteration-order artifacts, so identical inputs render the identical
    /// explanation at any thread count. Prefixes absent from the routing
    /// table are still explained (as a hypothetical mapping); prefixes with
    /// no covering Direct Owner delegation end at a `whois.unresolved` step.
    pub fn explain(&self, inputs: &PipelineInputs<'_>, prefix: &Prefix) -> DecisionTrace {
        self.explain_with(inputs, None, prefix)
    }

    /// [`Pipeline::explain`] with local operator exceptions applied, so the
    /// trace reports overridden attributions (`local_exception` step) and
    /// filtered prefixes exactly as a build with `--exceptions` would.
    pub fn explain_with(
        &self,
        inputs: &PipelineInputs<'_>,
        exceptions: Option<&ExceptionSet>,
        prefix: &Prefix,
    ) -> DecisionTrace {
        let (trace, resolved) = trace_prelude(inputs, prefix);
        if !resolved {
            return trace;
        }

        // Re-run resolution over the routed table (plus this prefix, when it
        // is not routed) and cluster with merge evidence, so the final label
        // and every merge touching this owner can be reported.
        let (mut dataset, merge_edges) = self.dataset_with_evidence(inputs, Some(prefix));
        if let Some(set) = exceptions {
            set.apply(&mut dataset);
        }
        attribution_trace_with(inputs, &dataset, &merge_edges, exceptions, prefix)
    }

    /// Runs resolution and clustering with merge-evidence recording and
    /// assembles the dataset — the precomputation behind
    /// [`attribution_trace`]. When `extra` names a prefix missing from the
    /// routing table it is resolved alongside the routed set, so even
    /// hypothetical mappings get a record.
    pub fn dataset_with_evidence(
        &self,
        inputs: &PipelineInputs<'_>,
        extra: Option<&Prefix>,
    ) -> (Prefix2OrgDataset, Vec<MergeEdge>) {
        self.run_inner(inputs, extra, None, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_rpki::RpkiRepository;
    use p2o_whois::WhoisDb;

    fn fixture() -> (p2o_whois::DelegationTree, p2o_bgp::RouteTable) {
        let mut whois = WhoisDb::new();
        whois.add_arin(
            "NetRange: 63.64.0.0 - 63.127.255.255\nNetType: Allocation\n\
             OrgName: Verizon Business\nUpdated: 2024-05-20\n",
        );
        whois.add_arin(
            "NetRange: 63.80.52.0 - 63.80.52.255\nNetType: Reallocation\n\
             OrgName: Bandwidth.com Inc.\nUpdated: 2024-03-11\n",
        );
        let (tree, _) = whois.build();
        let mut routes = p2o_bgp::RouteTable::new();
        routes.add_route("63.80.52.0/24".parse().unwrap(), 701);
        routes.add_route("63.64.0.0/16".parse().unwrap(), 701);
        (tree, routes)
    }

    #[test]
    fn explain_is_deterministic_and_names_every_rule() {
        let (tree, routes) = fixture();
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let inputs = PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        };
        let prefix: Prefix = "63.80.52.0/24".parse().unwrap();
        let seq = Pipeline::with_threads(1).explain(&inputs, &prefix);
        for rule in [
            "bgp.origins",
            "radix.lpm",
            "whois.delegated_customer",
            "whois.direct_owner",
            "cluster.base_name",
            "rpki.certificate",
            "cluster.final",
        ] {
            assert!(seq.used(rule), "missing rule {rule}:\n{}", seq.render());
        }
        assert_eq!(seq, Pipeline::with_threads(4).explain(&inputs, &prefix));
    }

    #[test]
    fn explain_covers_unrouted_and_unresolved_prefixes() {
        let (tree, routes) = fixture();
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let inputs = PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        };

        // Covered by WHOIS but not routed: hypothetical, still resolved.
        let unrouted =
            Pipeline::with_threads(1).explain(&inputs, &"63.100.0.0/16".parse().unwrap());
        assert!(unrouted.used("bgp.origins"));
        assert!(unrouted.used("whois.direct_owner"));
        assert!(unrouted.used("cluster.final"));

        // No covering delegation at all: the chain ends at the miss.
        let miss = Pipeline::with_threads(1).explain(&inputs, &"198.51.100.0/24".parse().unwrap());
        assert!(miss.used("whois.unresolved"));
        assert!(!miss.used("cluster.final"));
    }

    #[test]
    fn precomputed_attribution_is_byte_identical_to_explain() {
        let (tree, routes) = fixture();
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let inputs = PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        };
        let pipeline = Pipeline::with_threads(2);
        // The snapshot precomputation: one dataset + merge-edge list.
        let (dataset, edges) = pipeline.dataset_with_evidence(&inputs, None);
        for q in ["63.80.52.0/24", "63.64.0.0/16", "198.51.100.0/24"] {
            let prefix: Prefix = q.parse().unwrap();
            let live = pipeline.explain(&inputs, &prefix);
            let precomputed = attribution_trace(&inputs, &dataset, &edges, &prefix);
            assert_eq!(
                live.render(),
                precomputed.render(),
                "trace divergence for {q}"
            );
        }
    }
}
