//! §5.3 — Aggregating prefixes registered by the same organization.
//!
//! Builds the three cluster families of Figure 2/3 and merges them:
//!
//! - **𝒲 (Default Clusters)** — prefixes grouped by the *exact* Direct Owner
//!   name after basic string processing (footnote 4);
//! - **𝓡 (RPKI groups)** — prefixes grouped by `(base name, child-most
//!   Resource Certificate)`;
//! - **𝓐 (ASN groups)** — prefixes grouped by `(base name, origin ASN
//!   cluster)`;
//!
//! then merges any 𝒲 clusters that co-occur in an 𝓡 or 𝓐 group (union-find
//! over 𝒲 ids), yielding the final clusters.

use std::collections::HashMap;
use std::ops::Range;

use p2o_as2org::AsnClusters;
use p2o_bgp::RouteTable;
use p2o_rpki::{CertId, ValidatedRepo};
use p2o_strings::clean::{basic_clean, corporate_form};
use p2o_strings::BaseNameExtractor;
use p2o_util::{Interner, Symbol, UnionFind};

use crate::resolve::OwnershipRecord;

/// Identifier of a final cluster (dense, assigned at clustering time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

/// Per-prefix clustering annotations (the right-hand columns of Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixClusterInfo {
    /// The Direct Owner's base name.
    pub base_name: String,
    /// The child-most Resource Certificate covering the prefix, if any.
    pub rpki_cert: Option<CertId>,
    /// The origin ASN cluster ids (one per origin; MOAS prefixes have
    /// several).
    pub asn_clusters: Vec<u32>,
    /// The final cluster.
    pub cluster: ClusterId,
}

/// Output of the clustering stage.
#[derive(Debug)]
pub struct ClusteringOutput {
    /// Per-record annotations, index-aligned with the input records.
    pub info: Vec<PrefixClusterInfo>,
    /// Human-readable label per final cluster: `basename-I`, `basename-II`
    /// (Table 3 style), globally unique.
    pub labels: Vec<String>,
    /// Number of 𝒲 (exact-name) clusters.
    pub w_clusters: usize,
    /// Number of 𝓡 groups.
    pub r_groups: usize,
    /// Number of 𝓐 groups.
    pub a_groups: usize,
    /// 𝒲 clusters that appear in at least one 𝓡 group.
    pub w_with_r: usize,
    /// 𝒲 clusters that appear in at least one 𝓐 group.
    pub w_with_a: usize,
    /// Number of final clusters.
    pub final_clusters: usize,
    /// Distinct base names.
    pub base_names: usize,
    /// For each final cluster, its member 𝒲 names (exact, basic-cleaned).
    pub cluster_org_names: Vec<Vec<String>>,
    /// Number of routed prefixes covered by a valid Resource Certificate.
    pub rpki_covered_prefixes: usize,
    /// The §5.3.3 merge evidence: which pairs of 𝒲 clusters were unioned
    /// and why. Empty unless [`Clusterer::with_merge_evidence`] was set;
    /// sorted and deduplicated, so the list is deterministic regardless of
    /// group-map iteration order.
    pub merge_edges: Vec<MergeEdge>,
}

/// One union applied during the §5.3.3 merge, with its evidence — the
/// cluster-level provenance surfaced by `p2o explain`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MergeEdge {
    /// Cleaned 𝒲 name of one merged cluster (lexicographically first).
    pub a: String,
    /// Cleaned 𝒲 name of the other.
    pub b: String,
    /// Human-readable evidence (`shared RPKI certificate …` or
    /// `shared origin-ASN cluster …`).
    pub evidence: String,
}

/// Options controlling the clustering stage — primarily for the ablation
/// benches (the paper quantifies the separate contributions of 𝓡 and 𝓐 in
/// §6).
#[derive(Debug, Clone, Copy)]
pub struct ClusterOptions {
    /// Use RPKI (𝓡) evidence for merging.
    pub use_rpki: bool,
    /// Use origin-ASN (𝓐) evidence for merging.
    pub use_asn: bool,
    /// Frequent-word threshold for base-name extraction.
    pub frequency_threshold: usize,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            use_rpki: true,
            use_asn: true,
            frequency_threshold: p2o_strings::pipeline::DEFAULT_FREQUENCY_THRESHOLD,
        }
    }
}

/// Per-shard accumulator of the 𝓡/𝓐 group-build pass. Shards cover
/// contiguous record ranges, so appending the per-key member vectors in
/// shard order reproduces the sequential per-key member order exactly —
/// which is what keeps union-find inputs, cluster ids and labels
/// byte-identical between the threaded and sequential paths.
#[derive(Default)]
struct GroupShard {
    r_groups: HashMap<(Symbol, CertId), Vec<Symbol>>,
    a_groups: HashMap<(Symbol, u32), Vec<Symbol>>,
    rpki_cert_of: Vec<Option<CertId>>,
    asn_clusters_of: Vec<Vec<u32>>,
    rpki_covered: usize,
}

impl GroupShard {
    fn build(
        records: &[OwnershipRecord],
        w_of_record: &[Symbol],
        base_of_w: &[Symbol],
        routes: &RouteTable,
        asn_clusters: &AsnClusters,
        rpki: &ValidatedRepo,
    ) -> GroupShard {
        let mut shard = GroupShard {
            rpki_cert_of: Vec::with_capacity(records.len()),
            asn_clusters_of: Vec::with_capacity(records.len()),
            ..GroupShard::default()
        };
        for (rec, &w) in records.iter().zip(w_of_record) {
            let base = base_of_w[w.index()];
            let cert = rpki.child_most_rc(&rec.prefix);
            if cert.is_some() {
                shard.rpki_covered += 1;
            }
            if let Some(cert) = cert {
                shard.r_groups.entry((base, cert)).or_default().push(w);
            }
            shard.rpki_cert_of.push(cert);
            let mut clusters: Vec<u32> = routes
                .origins(&rec.prefix)
                .map(|origins| {
                    origins
                        .iter()
                        .map(|&asn| asn_clusters.cluster_id(asn))
                        .collect()
                })
                .unwrap_or_default();
            clusters.sort_unstable();
            clusters.dedup();
            for &c in &clusters {
                shard.a_groups.entry((base, c)).or_default().push(w);
            }
            shard.asn_clusters_of.push(clusters);
        }
        shard
    }

    /// Appends `other` (the next contiguous record range) onto `self`.
    fn merge(&mut self, other: GroupShard) {
        for (k, v) in other.r_groups {
            self.r_groups.entry(k).or_default().extend(v);
        }
        for (k, v) in other.a_groups {
            self.a_groups.entry(k).or_default().extend(v);
        }
        self.rpki_cert_of.extend(other.rpki_cert_of);
        self.asn_clusters_of.extend(other.asn_clusters_of);
        self.rpki_covered += other.rpki_covered;
    }
}

/// The clustering engine.
#[derive(Debug, Default)]
pub struct Clusterer {
    /// Options for this run.
    pub options: ClusterOptions,
    /// Worker threads for the base-name and 𝓡/𝓐 group-build passes; `0`
    /// and `1` both mean sequential. The output is byte-identical at any thread count.
    pub threads: usize,
    /// Record [`ClusteringOutput::merge_edges`]; off by default (the edge
    /// list allocates per union and is only needed by `p2o explain`).
    pub record_merge_evidence: bool,
    obs: Option<p2o_obs::Obs>,
}

impl Clusterer {
    /// A clusterer with the given options (sequential group build).
    pub fn new(options: ClusterOptions) -> Self {
        Clusterer {
            options,
            threads: 1,
            record_merge_evidence: false,
            obs: None,
        }
    }

    /// Sets the worker-thread count for the group-build pass.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches an observability registry: base-name and group-build
    /// shards record `cluster.base_names` and `cluster.group_build` spans
    /// when tracing is enabled on `obs`.
    pub fn with_obs(mut self, obs: &p2o_obs::Obs) -> Self {
        self.obs = Some(obs.clone());
        self
    }

    /// Turns on [`ClusteringOutput::merge_edges`] recording.
    pub fn with_merge_evidence(mut self) -> Self {
        self.record_merge_evidence = true;
        self
    }

    /// Runs `work` over contiguous index ranges covering `0..len` — one
    /// range per worker thread when there are enough items, else one range
    /// on the calling thread — and returns the results in range order, so
    /// merging them in order reproduces the sequential pass exactly. Each
    /// range runs under a `span` trace span (args `shard` and `count_arg`)
    /// when tracing is enabled.
    fn sharded<R, F>(&self, len: usize, span: &'static str, count_arg: &str, work: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let threads = self.threads.max(1);
        let chunk = if threads > 1 && len >= 2 * threads {
            len.div_ceil(threads)
        } else {
            len
        };
        let run = |idx: usize, range: Range<usize>| {
            let log = self.obs.as_ref().and_then(|o| o.thread_log(span));
            let _span = log.as_ref().map(|l| {
                let s = l.span(span);
                s.arg("shard", idx);
                s.arg(count_arg, range.len());
                s
            });
            work(range)
        };
        if chunk >= len {
            return vec![run(0, 0..len)];
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..len)
                .step_by(chunk)
                .enumerate()
                .map(|(idx, lo)| {
                    let run = &run;
                    scope.spawn(move || run(idx, lo..(lo + chunk).min(len)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Runs §5.3 over resolved ownership records. `names` is the interner
    /// that produced the records' [`Symbol`]s (the delegation tree's, in the
    /// pipeline).
    pub fn cluster(
        &self,
        records: &[OwnershipRecord],
        routes: &RouteTable,
        asn_clusters: &AsnClusters,
        rpki: &ValidatedRepo,
        names: &Interner,
    ) -> ClusteringOutput {
        // --- Distinct Direct Owners, in first-appearance order. ---
        // The first record carrying a given owner is also the first record
        // that could mint its 𝒲 cluster, so walking owners in this order
        // numbers 𝒲 clusters exactly as a walk over the records would.
        let mut slot_of_owner: HashMap<Symbol, u32> = HashMap::new();
        let mut owners: Vec<Symbol> = Vec::new();
        let mut weights: Vec<usize> = Vec::new();
        let slot_of_record: Vec<u32> = records
            .iter()
            .map(|rec| {
                let slot = *slot_of_owner.entry(rec.direct_owner).or_insert_with(|| {
                    owners.push(rec.direct_owner);
                    weights.push(0);
                    (owners.len() - 1) as u32
                });
                weights[slot as usize] += 1;
                slot
            })
            .collect();

        // --- Base names (§5.3.1): clean each owner once. ---
        // `(basic, corporate)` forms per owner; the frequent-word counts
        // weight each owner by its record count, so the extractor is the
        // one built from every record's Direct Owner name.
        let staged: Vec<(String, String)> = self
            .sharded(owners.len(), "cluster.base_names", "owners", |range| {
                owners[range]
                    .iter()
                    .map(|&owner| {
                        let basic = basic_clean(names.resolve(owner));
                        let corporate = corporate_form(&basic);
                        (basic, corporate)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let extractor = BaseNameExtractor::from_weighted(
            staged
                .iter()
                .zip(&weights)
                .map(|((_, corporate), &weight)| (corporate, weight)),
            self.options.frequency_threshold,
        );

        // --- 𝒲 clusters: exact (basic-cleaned) Direct Owner name. ---
        let mut w_names = Interner::new();
        let mut base_names = Interner::new();
        let mut base_of_w: Vec<Symbol> = Vec::new();
        let w_of_owner: Vec<Symbol> = staged
            .iter()
            .map(|(basic, corporate)| {
                let w = w_names.intern(basic);
                if w.index() == base_of_w.len() {
                    // Fresh 𝒲 cluster: its base name comes from the owner
                    // that minted it.
                    base_of_w.push(base_names.intern(&extractor.base_from_corporate(corporate)));
                }
                w
            })
            .collect();
        let w_of_record: Vec<Symbol> = slot_of_record
            .iter()
            .map(|&slot| w_of_owner[slot as usize])
            .collect();

        // --- 𝓡 groups: (base name, child-most RC). ---
        // --- 𝓐 groups: (base name, origin ASN cluster). ---
        let mut groups = GroupShard::default();
        for shard in self.sharded(records.len(), "cluster.group_build", "records", |range| {
            GroupShard::build(
                &records[range.clone()],
                &w_of_record[range],
                &base_of_w,
                routes,
                asn_clusters,
                rpki,
            )
        }) {
            groups.merge(shard);
        }
        let GroupShard {
            r_groups,
            a_groups,
            rpki_cert_of,
            asn_clusters_of,
            rpki_covered: rpki_covered_prefixes,
        } = groups;

        // --- Merge (§5.3.3): union 𝒲 clusters sharing an 𝓡 or 𝓐 group. ---
        let mut uf = UnionFind::new(w_names.len());
        let mut w_with_r = vec![false; w_names.len()];
        let mut w_with_a = vec![false; w_names.len()];
        let mut merge_edges: Vec<MergeEdge> = Vec::new();
        let record_edge = |edges: &mut Vec<MergeEdge>, a: Symbol, b: Symbol, evidence: String| {
            if a == b {
                return;
            }
            let (a, b) = (w_names.resolve(a), w_names.resolve(b));
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            edges.push(MergeEdge {
                a: a.to_string(),
                b: b.to_string(),
                evidence,
            });
        };
        if self.options.use_rpki {
            for ((base, cert), members) in &r_groups {
                for w in members {
                    w_with_r[w.index()] = true;
                }
                for pair in members.windows(2) {
                    uf.union(pair[0].index(), pair[1].index());
                    if self.record_merge_evidence {
                        record_edge(
                            &mut merge_edges,
                            pair[0],
                            pair[1],
                            format!(
                                "shared RPKI certificate {cert} under base \"{}\"",
                                base_names.resolve(*base)
                            ),
                        );
                    }
                }
            }
        }
        if self.options.use_asn {
            for ((base, asn_cluster), members) in &a_groups {
                for w in members {
                    w_with_a[w.index()] = true;
                }
                for pair in members.windows(2) {
                    uf.union(pair[0].index(), pair[1].index());
                    if self.record_merge_evidence {
                        record_edge(
                            &mut merge_edges,
                            pair[0],
                            pair[1],
                            format!(
                                "shared origin-ASN cluster {asn_cluster} under base \"{}\"",
                                base_names.resolve(*base)
                            ),
                        );
                    }
                }
            }
        }
        // Group maps iterate in hash order; sorting (and deduplicating
        // repeat pairs from multi-member groups) makes the evidence list
        // deterministic.
        merge_edges.sort();
        merge_edges.dedup();

        // --- Final clusters and Table 3-style labels. ---
        let mut cluster_of_root: HashMap<usize, ClusterId> = HashMap::new();
        let mut cluster_base: Vec<Symbol> = Vec::new();
        let mut cluster_names: Vec<Vec<String>> = Vec::new();
        let mut cluster_of_w: Vec<ClusterId> = vec![ClusterId(0); w_names.len()];
        #[allow(clippy::needless_range_loop)] // `w` indexes three parallel tables
        for w in 0..w_names.len() {
            let root = uf.find(w);
            let id = *cluster_of_root.entry(root).or_insert_with(|| {
                let id = ClusterId(cluster_base.len() as u32);
                // Base of the first-seen member. Identical to the root's
                // base: 𝓡/𝓐 merges only join 𝒲 clusters sharing a base.
                cluster_base.push(base_of_w[w]);
                cluster_names.push(Vec::new());
                id
            });
            cluster_of_w[w] = id;
            cluster_names[id.0 as usize].push(w_names.resolve(Symbol(w as u32)).to_string());
        }
        for names in cluster_names.iter_mut() {
            names.sort();
        }

        // Labels: roman numerals per base name, in cluster-id order.
        let mut seen_per_base: HashMap<Symbol, usize> = HashMap::new();
        let labels: Vec<String> = cluster_base
            .iter()
            .map(|&base| {
                let n = seen_per_base.entry(base).or_insert(0);
                *n += 1;
                format!("{}-{}", base_names.resolve(base), roman(*n))
            })
            .collect();

        let info: Vec<PrefixClusterInfo> = records
            .iter()
            .enumerate()
            .map(|(idx, _)| {
                let w = w_of_record[idx];
                PrefixClusterInfo {
                    base_name: base_names.resolve(base_of_w[w.index()]).to_string(),
                    rpki_cert: rpki_cert_of[idx],
                    asn_clusters: asn_clusters_of[idx].clone(),
                    cluster: cluster_of_w[w.index()],
                }
            })
            .collect();

        ClusteringOutput {
            info,
            final_clusters: cluster_base.len(),
            labels,
            w_clusters: w_names.len(),
            r_groups: r_groups.len(),
            a_groups: a_groups.len(),
            w_with_r: w_with_r.iter().filter(|b| **b).count(),
            w_with_a: w_with_a.iter().filter(|b| **b).count(),
            base_names: base_names.len(),
            cluster_org_names: cluster_names,
            rpki_covered_prefixes,
            merge_edges,
        }
    }
}

/// Roman numerals for cluster labels (`verizon-I`, `fastly-II`, ... per
/// Table 3). Falls back to arabic beyond 3999.
fn roman(mut n: usize) -> String {
    if n == 0 || n > 3999 {
        return n.to_string();
    }
    const TABLE: [(usize, &str); 13] = [
        (1000, "M"),
        (900, "CM"),
        (500, "D"),
        (400, "CD"),
        (100, "C"),
        (90, "XC"),
        (50, "L"),
        (40, "XL"),
        (10, "X"),
        (9, "IX"),
        (5, "V"),
        (4, "IV"),
        (1, "I"),
    ];
    let mut out = String::new();
    for (value, symbol) in TABLE {
        while n >= value {
            out.push_str(symbol);
            n -= value;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::OwnershipRecord;
    use p2o_net::Prefix;
    use p2o_rpki::{IpResourceSet, RoaPrefix, RpkiRepository};
    use p2o_whois::alloc::AllocationType;
    use p2o_whois::{Registry, Rir};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn rec(names: &mut Interner, prefix: &str, owner: &str) -> OwnershipRecord {
        OwnershipRecord {
            prefix: p(prefix),
            direct_owner: names.intern(owner),
            do_prefix: p(prefix),
            do_alloc: AllocationType::Allocation,
            do_registry: Registry::Rir(Rir::Arin),
            delegated_customers: Vec::new(),
        }
    }

    /// Builds the Table 3 world: Verizon under four names, P1-P3 sharing a
    /// cert, P3-P4 sharing an ASN cluster; Fastly Inc vs the unrelated
    /// Vietnamese "Fastly Network Solution".
    /// Options for fixture tests: the 7-name corpus is far too small for
    /// the paper's 100-occurrence frequent-word threshold, so use 0 — every
    /// repeated-position token drops, which reproduces the paper's behaviour
    /// where "Business"/"Network"/"Solution" are corpus-frequent.
    fn topts(use_rpki: bool, use_asn: bool) -> ClusterOptions {
        ClusterOptions {
            use_rpki,
            use_asn,
            frequency_threshold: 0,
        }
    }

    type Table3World = (
        Vec<OwnershipRecord>,
        RouteTable,
        AsnClusters,
        ValidatedRepo,
        Interner,
    );

    fn table3_fixture() -> Table3World {
        let mut names = Interner::new();
        let records = vec![
            rec(&mut names, "210.80.198.0/24", "Verizon Japan Ltd"), // P1
            rec(&mut names, "2404:e8:100::/40", "Verizon Asia Pte Ltd"), // P2
            rec(&mut names, "203.193.92.0/24", "Verizon Hong Kong Ltd"), // P3
            rec(&mut names, "65.196.14.0/24", "Verizon Business"),   // P4
            rec(&mut names, "2a04:4e40:8440::/48", "Fastly, Inc."),  // P5
            rec(&mut names, "172.111.123.0/24", "Fastly, Inc."),     // P6
            rec(&mut names, "103.186.154.0/24", "Fastly Network Solution"), // P7
        ];

        let mut routes = RouteTable::new();
        routes.add_route(p("210.80.198.0/24"), 18692);
        routes.add_route(p("2404:e8:100::/40"), 701);
        routes.add_route(p("203.193.92.0/24"), 395753);
        routes.add_route(p("65.196.14.0/24"), 395753);
        routes.add_route(p("2a04:4e40:8440::/48"), 54113);
        routes.add_route(p("172.111.123.0/24"), 54113);
        routes.add_route(p("103.186.154.0/24"), 63739);

        // ASN clusters: each origin is its own cluster (no sibling data) —
        // the paper's P3/P4 share origin AS 395753.
        let clusters = p2o_as2org::As2OrgDb::new().cluster();

        // RPKI: P1-P3 in one cert ("verizon-apac"), P4 in another, P5 alone,
        // P6 alone, P7 alone.
        let mut repo = RpkiRepository::new();
        let everything = IpResourceSet::everything();
        let ta = repo.issue_trust_anchor("IANA", everything, 20200101, 20991231);
        let mut issue = |prefixes: &[&str], subject: &str| {
            let rs: IpResourceSet = prefixes.iter().map(|s| p(s)).collect();
            repo.issue_cert(ta, subject, rs, 20200101, 20991231)
                .unwrap()
        };
        issue(
            &["210.80.198.0/24", "2404:e8:100::/40", "203.193.92.0/24"],
            "verizon-apac-account",
        );
        issue(&["65.196.14.0/24"], "verizon-us-account");
        issue(&["2a04:4e40:8440::/48"], "fastly-account-1");
        issue(&["172.111.123.0/24"], "fastly-account-2");
        issue(&["103.186.154.0/24"], "fastly-vn-account");
        let (valid, problems) = repo.validate(20240901);
        assert!(problems.is_empty(), "{problems:?}");

        (records, routes, clusters, valid, names)
    }

    #[test]
    fn table3_verizon_merges_fastly_splits() {
        let (records, routes, clusters, rpki, names) = table3_fixture();
        let out =
            Clusterer::new(topts(true, true)).cluster(&records, &routes, &clusters, &rpki, &names);

        // P1-P3 share (verizon, cert); P3-P4 share (verizon, AS395753):
        // all four Verizon names end in one final cluster.
        let c: Vec<ClusterId> = out.info.iter().map(|i| i.cluster).collect();
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
        assert_eq!(c[2], c[3]);

        // P5 and P6 share (fastly, AS54113) despite different certs.
        assert_eq!(c[4], c[5]);
        // P7 has the same base name but shares neither cert nor ASN.
        assert_ne!(c[6], c[4]);
        // And the two Fastlys never merge with Verizon.
        assert_ne!(c[0], c[4]);

        // Base names collapse correctly.
        assert_eq!(out.info[0].base_name, "verizon");
        assert_eq!(out.info[4].base_name, "fastly");
        assert_eq!(out.info[6].base_name, "fastly");

        // 7 W clusters (6 distinct names; "Fastly, Inc." twice) -> 6.
        assert_eq!(out.w_clusters, 6);
        assert_eq!(out.final_clusters, 3);
        // Labels: one verizon cluster, two fastly clusters.
        let verizon_label = &out.labels[c[0].0 as usize];
        assert!(verizon_label.starts_with("verizon-"));
        let f1 = &out.labels[c[4].0 as usize];
        let f2 = &out.labels[c[6].0 as usize];
        assert!(f1.starts_with("fastly-") && f2.starts_with("fastly-"));
        assert_ne!(f1, f2);

        // The merged verizon cluster holds 4 org names.
        let names = &out.cluster_org_names[c[0].0 as usize];
        assert_eq!(names.len(), 4);
        assert!(names.contains(&"verizon business".to_string()));
        assert_eq!(out.rpki_covered_prefixes, 7);
    }

    #[test]
    fn ablation_rpki_only_and_asn_only() {
        let (records, routes, clusters, rpki, names) = table3_fixture();
        // RPKI only: P1-P3 merge, P4 stays separate (needs the ASN bridge).
        let out =
            Clusterer::new(topts(true, false)).cluster(&records, &routes, &clusters, &rpki, &names);
        let c: Vec<ClusterId> = out.info.iter().map(|i| i.cluster).collect();
        assert_eq!(c[0], c[2]);
        assert_ne!(c[2], c[3]);
        // P5/P6 share the exact WHOIS name, so they are one 𝒲 cluster even
        // without 𝓐 evidence; the unrelated P7 stays separate.
        assert_eq!(c[4], c[5]);
        assert_ne!(c[6], c[4]);

        // ASN only: P3-P4 merge (shared origin), P1/P2 stay separate.
        let out =
            Clusterer::new(topts(false, true)).cluster(&records, &routes, &clusters, &rpki, &names);
        let c: Vec<ClusterId> = out.info.iter().map(|i| i.cluster).collect();
        assert_eq!(c[2], c[3]);
        assert_ne!(c[0], c[2]);
        assert_eq!(c[4], c[5]);
    }

    #[test]
    fn no_evidence_means_default_clusters() {
        let (records, routes, clusters, rpki, names) = table3_fixture();
        let out = Clusterer::new(topts(false, false))
            .cluster(&records, &routes, &clusters, &rpki, &names);
        // Every distinct exact name is its own final cluster.
        assert_eq!(out.final_clusters, out.w_clusters);
    }

    #[test]
    fn sibling_asns_bridge_clusters() {
        // P1 originated by AS18692, P4 by AS701; making them siblings merges
        // the two Verizon names even without RPKI.
        let (records, routes, _ignored, rpki, names) = table3_fixture();
        let mut db = p2o_as2org::As2OrgDb::new();
        db.add_sibling_edge(18692, 701);
        db.add_sibling_edge(18692, 395753);
        let clusters = db.cluster();
        let out =
            Clusterer::new(topts(false, true)).cluster(&records, &routes, &clusters, &rpki, &names);
        let c: Vec<ClusterId> = out.info.iter().map(|i| i.cluster).collect();
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[3]);
    }

    #[test]
    fn moas_prefix_joins_both_asn_groups() {
        let mut names = Interner::new();
        let mut records = vec![
            rec(&mut names, "10.0.0.0/16", "Acme East"),
            rec(&mut names, "10.1.0.0/16", "Acme West"),
        ];
        let mut routes = RouteTable::new();
        // The first prefix is MOAS: both origins.
        routes.add_route(p("10.0.0.0/16"), 64512);
        routes.add_route(p("10.0.0.0/16"), 64513);
        routes.add_route(p("10.1.0.0/16"), 64513);
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (valid, _) = RpkiRepository::new().validate(20240901);
        // Names share base "acme"? "acme east" vs "acme west" differ — use
        // identical bases by renaming.
        records[0].direct_owner = names.intern("Acme Corporation");
        records[1].direct_owner = names.intern("Acme Ltd");
        let out = Clusterer::default().cluster(&records, &routes, &clusters, &valid, &names);
        assert_eq!(out.info[0].asn_clusters, vec![64512, 64513]);
        // Shared (acme, 64513) group merges the two W clusters.
        assert_eq!(out.info[0].cluster, out.info[1].cluster);
    }

    #[test]
    fn threaded_group_build_is_byte_identical() {
        let (records, routes, clusters, rpki, names) = table3_fixture();
        let seq =
            Clusterer::new(topts(true, true)).cluster(&records, &routes, &clusters, &rpki, &names);
        for threads in [2, 3, 8] {
            let par = Clusterer::new(topts(true, true))
                .with_threads(threads)
                .cluster(&records, &routes, &clusters, &rpki, &names);
            assert_eq!(par.info, seq.info, "threads={threads}");
            assert_eq!(par.labels, seq.labels);
            assert_eq!(par.cluster_org_names, seq.cluster_org_names);
            assert_eq!(par.final_clusters, seq.final_clusters);
            assert_eq!(par.w_clusters, seq.w_clusters);
            assert_eq!(par.r_groups, seq.r_groups);
            assert_eq!(par.a_groups, seq.a_groups);
            assert_eq!(par.w_with_r, seq.w_with_r);
            assert_eq!(par.w_with_a, seq.w_with_a);
            assert_eq!(par.base_names, seq.base_names);
            assert_eq!(par.rpki_covered_prefixes, seq.rpki_covered_prefixes);
        }
    }

    #[test]
    fn merge_evidence_is_deterministic_and_opt_in() {
        let (records, routes, clusters, rpki, names) = table3_fixture();
        let off =
            Clusterer::new(topts(true, true)).cluster(&records, &routes, &clusters, &rpki, &names);
        assert!(off.merge_edges.is_empty(), "evidence must be opt-in");

        let run = |threads: usize| {
            Clusterer::new(topts(true, true))
                .with_merge_evidence()
                .with_threads(threads)
                .cluster(&records, &routes, &clusters, &rpki, &names)
        };
        let seq = run(1);
        assert!(!seq.merge_edges.is_empty());
        // P1-P3 share the verizon-apac certificate; P3-P4 share origin
        // AS395753 — both kinds of evidence must appear, names sorted
        // within each edge.
        assert!(seq
            .merge_edges
            .iter()
            .any(|e| e.evidence.contains("shared RPKI certificate")));
        assert!(seq
            .merge_edges
            .iter()
            .any(|e| e.evidence.contains("shared origin-ASN cluster")));
        for e in &seq.merge_edges {
            assert!(e.a < e.b, "edge endpoints must be sorted: {e:?}");
        }
        let sorted = {
            let mut v = seq.merge_edges.clone();
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(seq.merge_edges, sorted, "edge list must be sorted+deduped");
        // Thread count must not change the evidence.
        for threads in [2, 3] {
            assert_eq!(
                run(threads).merge_edges,
                seq.merge_edges,
                "threads={threads}"
            );
        }
    }

    /// The per-owner, record-weighted extractor the clusterer builds is the
    /// extractor built from every record's Direct Owner name: same frequent
    /// words, same base name for every owner, and the clusterer's per-record
    /// base names follow it — on synth corpora, at thresholds 0, 5 and 100.
    #[test]
    fn weighted_extractor_equals_per_record_corpus() {
        use p2o_strings::clean::{basic_clean, corporate_form};
        use p2o_synth::{World, WorldConfig};
        for config in [WorldConfig::tiny(7), WorldConfig::default_scale(42)] {
            let built = World::generate(config).build_inputs();
            let prefixes: Vec<Prefix> = built.routes.iter().map(|(p, _)| *p).collect();
            let (records, _) =
                crate::Pipeline::with_threads(1).resolve_stage(&built.tree, &prefixes);
            let names = built.tree.names();
            let corpus: Vec<&str> = records
                .iter()
                .map(|r| names.resolve(r.direct_owner))
                .collect();
            let mut weight: HashMap<&str, usize> = HashMap::new();
            for &name in &corpus {
                *weight.entry(name).or_insert(0) += 1;
            }
            assert!(weight.len() < corpus.len(), "some owner must repeat");
            for threshold in [0, 5, 100] {
                let per_record = BaseNameExtractor::build(corpus.iter(), threshold);
                let weighted = BaseNameExtractor::from_weighted(
                    weight
                        .iter()
                        .map(|(name, &w)| (corporate_form(&basic_clean(name)), w)),
                    threshold,
                );
                assert!(
                    !per_record.frequent_words().is_empty(),
                    "threshold {threshold}"
                );
                assert_eq!(weighted.frequent_words(), per_record.frequent_words());
                for name in weight.keys() {
                    let corporate = corporate_form(&basic_clean(name));
                    assert_eq!(
                        weighted.base_from_corporate(&corporate),
                        per_record.extract(name),
                        "threshold {threshold}: {name:?}"
                    );
                }
                let options = ClusterOptions {
                    frequency_threshold: threshold,
                    ..ClusterOptions::default()
                };
                for threads in [1, 3] {
                    let out = Clusterer::new(options).with_threads(threads).cluster(
                        &records,
                        &built.routes,
                        &built.clusters,
                        &built.rpki,
                        names,
                    );
                    for (info, &name) in out.info.iter().zip(&corpus) {
                        assert_eq!(info.base_name, per_record.extract(name), "{name:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn roman_numerals() {
        assert_eq!(roman(1), "I");
        assert_eq!(roman(2), "II");
        assert_eq!(roman(4), "IV");
        assert_eq!(roman(9), "IX");
        assert_eq!(roman(14), "XIV");
        assert_eq!(roman(3999), "MMMCMXCIX");
        assert_eq!(roman(4000), "4000");
        assert_eq!(roman(0), "0");
    }

    #[test]
    fn empty_input() {
        let routes = RouteTable::new();
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (valid, _) = RpkiRepository::new().validate(20240901);
        let names = Interner::new();
        let out = Clusterer::default().cluster(&[], &routes, &clusters, &valid, &names);
        assert_eq!(out.final_clusters, 0);
        assert_eq!(out.w_clusters, 0);
        assert!(out.info.is_empty());
    }

    // keep unused import warnings away in cfg(test)
    #[allow(unused)]
    fn silence(_: RoaPrefix) {}
}
