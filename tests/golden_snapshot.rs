//! Golden-snapshot regression test: a fixed-seed synthetic world must
//! produce byte-for-byte the same dataset export and exactly the same
//! observability counters on every run, on every machine.
//!
//! The pinned values cover the whole pipeline: the synthetic generator
//! stream, all three WHOIS parser flavours, MRT decoding, radix insert and
//! lookup traffic, resolution, and clustering. If an intentional change
//! shifts them (generator stream, parser behaviour, pipeline semantics),
//! run `golden_probe_prints_current_values` with `--nocapture`, verify the
//! shift is expected, and update the constants below.

use p2o_obs::Obs;
use p2o_synth::{World, WorldConfig};
use p2o_util::Digest;
use prefix2org::{Pipeline, PipelineInputs};

const GOLDEN_SEED: u64 = 0x601D;

/// FNV-1a digest of the full JSONL export for the golden world.
const GOLDEN_EXPORT_DIGEST: &str = "BE:51:13:3B:F5:75:F9:F9";

/// Every deterministic counter of the run, in registration order. The
/// `ingest.quarantined*` family is pinned at zero: a clean golden world
/// must quarantine nothing, and the counters must still be present.
const GOLDEN_COUNTERS: &[(&str, u64)] = &[
    ("ingest.quarantined", 0),
    ("ingest.quarantined.mrt", 0),
    ("ingest.quarantined.whois", 0),
    ("ingest.quarantined.rpki", 0),
    ("ingest.quarantined.exception", 0),
    ("ingest.quarantined.mrt_truncated", 0),
    ("ingest.quarantined.mrt_bad_type", 0),
    ("ingest.quarantined.mrt_bad_length", 0),
    ("ingest.quarantined.mrt_bad_record", 0),
    ("ingest.quarantined.rpsl_unterminated", 0),
    ("ingest.quarantined.rpsl_bad_attr", 0),
    ("ingest.quarantined.rpsl_bad_net", 0),
    ("ingest.quarantined.rpsl_bad_object", 0),
    ("ingest.quarantined.rpki_bad_line", 0),
    ("ingest.quarantined.rpki_bad_resource", 0),
    ("ingest.quarantined.rpki_bad_object", 0),
    ("ingest.quarantined.exception_bad_line", 0),
    ("ingest.quarantined.exception_bad_rule", 0),
    // The durability family is likewise pinned at zero: an in-process
    // golden build performs no atomic writes, resumes, or fault injection,
    // but the counters must still be registered.
    ("store.torn_detected", 0),
    ("checkpoint.skipped", 0),
    ("checkpoint.recomputed", 0),
    ("checkpoint.artifacts_verified", 0),
    ("io.fault.injected", 0),
    ("io.fault.short_write", 0),
    ("io.fault.enospc", 0),
    ("io.fault.eio", 0),
    // The ROV tallies are pinned nonzero (the golden world's RPKI
    // repository covers most routed prefixes); the exception counters stay
    // zero without an exception file but must be registered.
    ("rov.valid", 101),
    ("rov.invalid", 23),
    ("rov.not_found", 214),
    // The memory family is pinned at zero: an in-process golden build has
    // no budget and spills nothing, but the series must be registered so
    // in-memory and spill runs stay structurally identical.
    ("mem.peak_bytes", 0),
    ("mem.budget_bytes", 0),
    ("mem.budget_exceeded", 0),
    ("mem.spill_runs_created", 0),
    ("mem.spill_runs_merged", 0),
    ("mem.spill_bytes_written", 0),
    ("mem.spill_bytes_read", 0),
    ("exceptions.asserted", 0),
    ("exceptions.filtered", 0),
    ("exceptions.unmatched", 0),
    ("whois.records", 293),
    ("whois.malformed", 0),
    ("whois.unresolved_handles", 0),
    ("whois.superseded", 1),
    ("whois.missing_alloc", 0),
    ("whois.prefixes", 254),
    ("interner.symbols", 50),
    ("interner.hits", 243),
    ("radix.inserts", 254),
    ("radix.lookups", 884),
    ("mrt.records", 338),
    ("mrt.entries", 342),
    ("mrt.bytes", 19901),
    ("pipeline.routed_prefixes", 338),
    ("pipeline.moas_prefixes", 4),
    ("pipeline.resolved", 338),
    ("pipeline.unresolved", 0),
    ("cluster.w_clusters", 42),
    ("cluster.r_groups", 46),
    ("cluster.a_groups", 80),
    ("cluster.merged_w_clusters", 7),
    ("cluster.final_clusters", 35),
    ("cluster.rpki_covered_prefixes", 335),
];

/// Stage → item count (wall times are the only nondeterministic fields).
const GOLDEN_STAGES: &[(&str, u64)] = &[
    ("whois.build", 293),
    ("bgp.parse", 338),
    ("pipeline.resolve", 338),
    ("pipeline.cluster", 338),
    ("pipeline.assemble", 338),
];

/// Histogram summary: (count, sum, min, max).
type HistSummary = (u64, u64, u64, u64);

/// Histogram name → summary.
const GOLDEN_HISTOGRAMS: &[(&str, HistSummary)] = &[
    ("whois.entries_per_prefix", (254, 292, 1, 2)),
    ("mrt.entries_per_record", (338, 342, 1, 2)),
];

fn run() -> (prefix2org::Prefix2OrgDataset, p2o_obs::RunReport) {
    let world = World::generate(WorldConfig::tiny(GOLDEN_SEED));
    let obs = Obs::new();
    let built = world.build_inputs_with(Some(&obs));
    assert!(built.rpki_problems.is_empty());
    let (dataset, _) = Pipeline::default().run_with_obs(
        &PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        },
        &obs,
    );
    (dataset, obs.report())
}

#[test]
fn export_digest_is_stable() {
    let (dataset, _) = run();
    let digest = Digest::of_bytes(prefix2org::to_jsonl(&dataset).as_bytes());
    assert_eq!(
        digest.to_string(),
        GOLDEN_EXPORT_DIGEST,
        "dataset export changed for the golden world — if intentional, \
         update GOLDEN_EXPORT_DIGEST"
    );
}

#[test]
fn run_report_counters_match_exactly() {
    let (_, report) = run();
    // The report must carry every golden counter at its exact value...
    for &(name, want) in GOLDEN_COUNTERS {
        assert_eq!(report.counter(name), Some(want), "counter {name}");
    }
    // ...and nothing beyond the golden set (a new counter must be pinned).
    assert_eq!(report.counters.len(), GOLDEN_COUNTERS.len());
    assert!(
        GOLDEN_COUNTERS.len() >= 10,
        "the report must expose at least 10 distinct counters"
    );
}

#[test]
fn run_report_stages_and_histograms_match() {
    let (_, report) = run();
    for &(name, items) in GOLDEN_STAGES {
        let stage = report
            .stage(name)
            .unwrap_or_else(|| panic!("stage {name} missing"));
        assert_eq!(stage.items, Some(items), "stage {name} items");
    }
    assert_eq!(report.stages.len(), GOLDEN_STAGES.len());
    for &(name, (count, sum, min, max)) in GOLDEN_HISTOGRAMS {
        let h = report
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram {name} missing"));
        assert_eq!(
            (h.count, h.sum, h.min, h.max),
            (count, sum, min, max),
            "histogram {name}"
        );
    }
    assert_eq!(report.histograms.len(), GOLDEN_HISTOGRAMS.len());
}

#[test]
fn run_report_survives_json_round_trip() {
    let (_, report) = run();
    let text = report.to_json_string();
    let doc = p2o_util::Json::parse(&text).expect("report JSON parses");
    let back = p2o_obs::RunReport::from_json(&doc).expect("report JSON loads");
    assert_eq!(back.counters, report.counters);
    for (a, b) in back.stages.iter().zip(&report.stages) {
        assert_eq!(
            (a.name.as_str(), a.wall_ns, a.items),
            (b.name.as_str(), b.wall_ns, b.items)
        );
    }
}

/// Not an assertion: prints the current values so pinning after an
/// intentional change is one `--nocapture` run away.
#[test]
fn golden_probe_prints_current_values() {
    let (dataset, report) = run();
    println!(
        "digest: {}",
        Digest::of_bytes(prefix2org::to_jsonl(&dataset).as_bytes())
    );
    for (name, value) in &report.counters {
        println!("counter {name} = {value}");
    }
    for s in &report.stages {
        println!("stage {} items={:?}", s.name, s.items);
    }
    for h in &report.histograms {
        println!(
            "hist {} count={} sum={} min={} max={}",
            h.name, h.count, h.sum, h.min, h.max
        );
    }
}
