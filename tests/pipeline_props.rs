//! Property-based integration tests: pipeline invariants over randomly
//! seeded synthetic worlds. The world seed is the property input, so every
//! case is a structurally different Internet.

use p2o_util::check::run_cases;

use p2o_net::Prefix;
use p2o_synth::{World, WorldConfig};
use p2o_whois::OwnershipLevel;
use prefix2org::{Pipeline, PipelineInputs, Prefix2OrgDataset};

fn build(seed: u64, transfers: usize) -> (World, p2o_synth::BuiltInputs, Prefix2OrgDataset) {
    let world = World::generate(WorldConfig::tiny(seed).with_transfers(transfers));
    let built = world.build_inputs();
    let dataset = Pipeline::default().run(&PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    });
    (world, built, dataset)
}

/// Every routed prefix of every world is mapped, with structurally valid
/// records.
#[test]
fn mapping_is_total_and_well_formed() {
    run_cases(12, |g| {
        let seed = g.u64();
        let (_world, built, dataset) = build(seed, 0);
        assert_eq!(
            dataset.len() + dataset.metrics().unresolved_prefixes,
            built.routes.len()
        );
        assert_eq!(
            dataset.metrics().unresolved_prefixes,
            0,
            "synthetic worlds are fully covered"
        );
        for rec in dataset.records() {
            assert!(rec.do_prefix.contains(&rec.prefix));
            assert_eq!(rec.do_alloc.ownership_level(), OwnershipLevel::DirectOwner);
            let mut last_depth = 0u8;
            let mut last_len = rec.do_prefix.len();
            for step in &rec.delegated_customers {
                assert_eq!(
                    step.alloc.ownership_level(),
                    OwnershipLevel::DelegatedCustomer
                );
                assert!(step.prefix.contains(&rec.prefix));
                // Chains narrow monotonically: each later step is on an
                // equal-or-more-specific block, and within a block the
                // allocation depth increases.
                if step.prefix.len() == last_len {
                    assert!(step.alloc.chain_depth() >= last_depth);
                } else {
                    assert!(step.prefix.len() > last_len);
                }
                last_depth = step.alloc.chain_depth();
                last_len = step.prefix.len();
            }
        }
    });
}

/// Final clusters partition the records, labels are unique, and every
/// cluster's members share one base name.
#[test]
fn clustering_is_a_labeled_partition() {
    run_cases(12, |g| {
        let seed = g.u64();
        let (_world, _built, dataset) = build(seed, 0);
        let total: usize = dataset.clusters().map(|(_, recs)| recs.len()).sum();
        assert_eq!(total, dataset.len());
        let mut labels = std::collections::HashSet::new();
        for (id, recs) in dataset.clusters() {
            assert!(labels.insert(dataset.cluster_label(id).to_string()));
            let base = &recs[0].base_name;
            for rec in &recs {
                assert_eq!(&rec.base_name, base, "cluster mixes base names");
                assert_eq!(rec.cluster, id);
            }
            assert!(dataset.cluster_label(id).starts_with(base.as_str()));
        }
    });
}

/// The export round-trips losslessly for every world.
#[test]
fn export_round_trip() {
    run_cases(12, |g| {
        let seed = g.u64();
        let (_world, _built, dataset) = build(seed, 0);
        let parsed = prefix2org::from_jsonl(&prefix2org::to_jsonl(&dataset)).unwrap();
        assert_eq!(parsed.len(), dataset.len());
        for (exp, rec) in parsed.iter().zip(dataset.records()) {
            assert_eq!(exp, &prefix2org::ExportRecord::from(rec));
        }
    });
}

/// Transfers between snapshots surface as owner changes and never as
/// route-set churn; the diff of a snapshot with itself is empty.
#[test]
fn snapshot_diff_laws() {
    run_cases(12, |g| {
        let seed = g.u64();
        let transfers = 1 + g.below(4);
        let (_w1, _b1, before) = build(seed, 0);
        let (_w2, _b2, same) = build(seed, 0);
        let d = prefix2org::diff(&before, &same);
        assert_eq!(d.changed(), 0);

        let (_w3, _b3, after) = build(seed, transfers);
        let d = prefix2org::diff(&before, &after);
        assert!(d.added.is_empty(), "transfers must not add prefixes");
        assert!(d.removed.is_empty(), "transfers must not remove prefixes");
        // Transferred end-user blocks show up as owner changes (at least
        // one per distinct transferred block that is routed; collisions in
        // the transfer plan can reduce the count below `transfers`).
        assert!(d.owner_changes.len() + d.customer_changes.len() > 0);
    });
}

/// Resolution agrees with a naive re-derivation from the delegation
/// tree for a sample of prefixes.
#[test]
fn resolution_matches_naive_walk() {
    run_cases(12, |g| {
        let seed = g.u64();
        let (_world, built, dataset) = build(seed, 0);
        for rec in dataset.records().iter().step_by(7) {
            // Naive: scan the covering chain for the first Direct Owner
            // entry (most specific block first; entries pre-sorted deepest
            // customer last).
            let chain = built.tree.covering_chain(&rec.prefix);
            let mut naive_do: Option<&str> = None;
            'outer: for (_, entries) in &chain {
                for entry in entries.iter().rev() {
                    if entry.ownership_level() == OwnershipLevel::DirectOwner {
                        naive_do = Some(built.tree.name(entry.org_name));
                        break 'outer;
                    }
                }
            }
            assert_eq!(naive_do, Some(rec.direct_owner.as_str()), "{}", rec.prefix);
        }
    });
}

/// The origin ASN clusters recorded per prefix are exactly the route
/// table's origins mapped through sibling clustering.
#[test]
fn origin_clusters_faithful() {
    run_cases(12, |g| {
        let seed = g.u64();
        let (_world, built, dataset) = build(seed, 0);
        for rec in dataset.records().iter().step_by(5) {
            let origins = built.routes.origins(&rec.prefix).expect("routed");
            let mut want: Vec<u32> = origins
                .iter()
                .map(|&o| built.clusters.cluster_id(o))
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(&rec.origin_asn_clusters, &want);
        }
    });
}

/// Prefixes in the same world never map to different Direct Owners across
/// thread counts (scheduling independence), checked on one fixed seed
/// outside proptest to keep runtime bounded.
#[test]
fn thread_count_does_not_change_results() {
    let world = World::generate(WorldConfig::tiny(0x7EAD));
    let built = world.build_inputs();
    let mk = |threads| {
        Pipeline::with_threads(threads).run(&PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        })
    };
    let reference = mk(1);
    for threads in [2, 3, 8] {
        let other = mk(threads);
        assert_eq!(other.metrics(), reference.metrics());
        for rec in reference.records() {
            let o = other.record(&rec.prefix).unwrap();
            assert_eq!(o.direct_owner, rec.direct_owner);
            assert_eq!(o.final_cluster_label, rec.final_cluster_label);
        }
    }
}

/// The interned, parallel pipeline is byte-identical to the sequential
/// one: for fixed-seed worlds of varying scale, the JSONL export digest
/// and every observability counter (the golden-snapshot surface) agree
/// between `threads = 1` and a multi-threaded run.
#[test]
fn parallel_pipeline_is_byte_identical_to_sequential() {
    run_cases(6, |g| {
        let seed = g.u64();
        let transfers = g.below(4);
        // Vary the world scale, not just its seed: small worlds exercise
        // the sequential fallback thresholds, larger ones the real fan-out.
        let config = if g.bool() {
            WorldConfig::tiny(seed).with_transfers(transfers)
        } else {
            WorldConfig::default_scale(seed).with_transfers(transfers)
        };
        let world = World::generate(config);
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let run = |threads: usize| {
            let obs = p2o_obs::Obs::new();
            let (dataset, _) = Pipeline::with_threads(threads).run_with_obs(&inputs, &obs);
            let digest =
                p2o_util::Digest::of_bytes(prefix2org::to_jsonl(&dataset).as_bytes()).to_string();
            (digest, obs.report())
        };
        let (seq_digest, seq_report) = run(1);
        let threads = 2 + g.below(7);
        let (par_digest, par_report) = run(threads);
        assert_eq!(par_digest, seq_digest, "export digest (threads={threads})");
        assert_eq!(
            par_report.counters, seq_report.counters,
            "counters (threads={threads})"
        );
        assert_eq!(
            par_report.stages.len(),
            seq_report.stages.len(),
            "stage set (threads={threads})"
        );
        for (a, b) in par_report.stages.iter().zip(&seq_report.stages) {
            assert_eq!((&a.name, a.items), (&b.name, b.items));
        }
    });
}

/// Prefix-level sanity against the ground truth: the Direct Owner cluster
/// of every routed prefix contains a name of its true owner.
#[test]
fn ground_truth_owner_names_land_in_the_right_cluster() {
    let (world, _built, dataset) = build(0x60D, 0);
    let mut checked = 0usize;
    for (org_id, prefixes) in &world.truth.org_routed_prefixes {
        let org = world.org(*org_id);
        for prefix in prefixes.iter().take(3) {
            let Some(rec) = dataset.record(prefix) else {
                continue;
            };
            // The record's Direct Owner name must be one of the org's
            // variants (possibly registry-decorated, so compare by base).
            let owner = p2o_strings::clean::basic_clean(&rec.direct_owner);
            assert!(
                owner.starts_with(&org.base),
                "{prefix}: owner {owner:?} does not match org base {:?}",
                org.base
            );
            checked += 1;
        }
    }
    assert!(checked > 20, "only {checked} prefixes checked");
}

/// Worlds of different scales build and stay internally consistent.
#[test]
fn default_scale_world_smoke() {
    let world = World::generate(WorldConfig::default_scale(0x5CA1E));
    let built = world.build_inputs();
    assert!(built.rpki_problems.is_empty());
    let dataset = Pipeline::with_threads(4).run(&PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    });
    assert!(dataset.len() > 1000);
    let _ = dataset.metrics();
    let mut prefixes: Vec<Prefix> = dataset.records().iter().map(|r| r.prefix).collect();
    prefixes.sort();
    prefixes.dedup();
    assert_eq!(
        prefixes.len(),
        dataset.len(),
        "duplicate prefixes in dataset"
    );
}

/// Bench-scale world end-to-end (tens of thousands of prefixes). Run with
/// `cargo test -- --ignored` — excluded from the default suite for time.
#[test]
#[ignore = "large world; run explicitly with --ignored"]
fn bench_scale_world_end_to_end() {
    let world = World::generate(WorldConfig::bench_scale(0xB16));
    let built = world.build_inputs();
    assert!(built.rpki_problems.is_empty());
    let dataset = Pipeline::with_threads(8).run(&PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    });
    assert!(dataset.len() > 15_000, "only {} prefixes", dataset.len());
    assert_eq!(dataset.metrics().unresolved_prefixes, 0);
    assert!(dataset.metrics().final_clusters < dataset.metrics().direct_owners);
}
