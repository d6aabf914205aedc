//! Differential test of the frozen artifact's on-demand provenance.
//!
//! The artifact stores the facts a decision trace is made from, not its
//! text. For every record of every world below, the trace rendered out of
//! the artifact must equal the trace [`attribution_trace_with`] builds from
//! the live inputs, byte for byte, and the thawed Listing-1 body and JSONL
//! export must equal the live ones, and every record's line from the direct
//! JSONL writer must equal its line rendered through the JSON tree
//! (`ExportRecord::to_json`). The worlds cross three seeds with the
//! clean world and each semantic-adversarial fault class, each built once
//! without exceptions and once with assert and filter rules applied.
//!
//! The pipeline's merge edges name clusters by cleaned (lower-cased) names
//! while the trace matches them against the raw Direct Owner name, so in
//! these worlds no real edge reaches a trace. Each cell therefore appends
//! synthetic edges naming real Direct Owners — on either side, and one
//! self-edge — so the `cluster.merge` steps and their per-owner edge slices
//! are compared too.

use p2o_synth::adversary::{self, FaultClass};
use p2o_synth::{World, WorldConfig};
use p2o_util::Json;
use prefix2org::{
    attribution_trace_with, freeze, to_jsonl, write_jsonl_line, ExceptionSet, ExportRecord,
    FrozenDataset, MergeEdge, Pipeline, PipelineInputs, Prefix2OrgDataset,
};

const SEEDS: [u64; 3] = [7, 42, 1001];
const ADV_SEED: u64 = 7;

fn rule(prefix: &str, action: &str, org: Option<&str>) -> String {
    let mut o = Json::object();
    o.set("prefix", prefix);
    o.set("action", action);
    if let Some(org) = org {
        o.set("org", org);
    }
    format!("{o}\n")
}

/// Asserts every fifth record (alternating a new org and another record's
/// inferred label) and filters every seventh.
fn rules_for(dataset: &Prefix2OrgDataset) -> ExceptionSet {
    let records = dataset.records();
    let mut text = String::new();
    for (i, rec) in records.iter().enumerate() {
        let prefix = rec.prefix.to_string();
        if i % 7 == 3 {
            text.push_str(&rule(&prefix, "filter", None));
        } else if i % 5 == 1 {
            let org = if i % 2 == 0 {
                "Operator Override LLC".to_string()
            } else {
                records[(i + 1) % records.len()].final_cluster_label.clone()
            };
            text.push_str(&rule(&prefix, "assert", Some(&org)));
        }
    }
    let (set, rejected) = ExceptionSet::parse_lenient(&text);
    assert!(rejected.is_empty(), "{rejected:?}");
    set
}

/// Appends edges touching the Direct Owners of every ninth record: the
/// owner as `a`, as `b`, and (for every other one) on both sides.
fn with_owner_edges(dataset: &Prefix2OrgDataset, mut edges: Vec<MergeEdge>) -> Vec<MergeEdge> {
    for (i, rec) in dataset.records().iter().enumerate().step_by(9) {
        let owner = rec.direct_owner.clone();
        let edge = |a: &str, b: &str| MergeEdge {
            a: a.to_string(),
            b: b.to_string(),
            evidence: format!("synthetic evidence {i} \"quoted\""),
        };
        edges.push(edge(&owner, "sibling one"));
        edges.push(edge("sibling two", &owner));
        if i % 2 == 0 {
            edges.push(edge(&owner, &owner));
        }
    }
    edges
}

/// Rules whose steps only some records have; each must occur somewhere in
/// the sweep for it to prove anything about them.
const OPTIONAL_RULES: [&str; 3] = [
    "whois.delegated_customer",
    "cluster.merge",
    "local_exception",
];

/// Checks every record of one world, with and without exception rules.
/// Returns how many records were compared, and per [`OPTIONAL_RULES`]
/// entry how many of their traces used it.
fn check_world(world: &World, label: &str) -> (usize, [usize; 3]) {
    let built = world.build_inputs();
    let inputs = PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    };
    let mut compared = 0;
    let mut used = [0; 3];
    for with_rules in [false, true] {
        let (mut dataset, edges) = Pipeline::with_threads(2).dataset_with_evidence(&inputs, None);
        let edges = with_owner_edges(&dataset, edges);
        let set = if with_rules {
            let set = rules_for(&dataset);
            let summary = set.apply(&mut dataset);
            assert!(summary.asserted > 0 && summary.filtered > 0, "{label}");
            set
        } else {
            ExceptionSet::new()
        };
        let cell = format!("{label}, rules: {with_rules}");
        let payload = freeze(&inputs, &dataset, &edges, 0);
        let frozen = FrozenDataset::from_payload(payload).expect("fresh freeze validates");
        assert_eq!(frozen.len(), dataset.len(), "{cell}");
        let jsonl = to_jsonl(&dataset);
        assert!(frozen.reproduces_jsonl(&jsonl), "{cell}");
        assert_eq!(frozen.to_jsonl(), jsonl, "{cell}");
        for (idx, rec) in dataset.records().iter().enumerate() {
            let idx = idx as u32;
            let live = attribution_trace_with(&inputs, &dataset, &edges, Some(&set), &rec.prefix);
            for (n, rule) in used.iter_mut().zip(OPTIONAL_RULES) {
                *n += live.used(rule) as usize;
            }
            assert_eq!(
                frozen.provenance(idx),
                live.render(),
                "{cell}: trace of {}",
                rec.prefix
            );
            assert_eq!(
                frozen.listing1_json(idx).to_string(),
                rec.listing1_json().to_string(),
                "{cell}: listing 1 of {}",
                rec.prefix
            );
            let mut line = String::new();
            write_jsonl_line(rec, &mut line);
            assert_eq!(
                line,
                format!("{}\n", ExportRecord::from(rec).to_json()),
                "{cell}: JSONL line of {}",
                rec.prefix
            );
        }
        compared += dataset.len();
    }
    (compared, used)
}

#[test]
fn frozen_traces_equal_live_traces_for_every_record() {
    let mut compared = 0;
    let mut used = [0; 3];
    let mut tally = |(n, u): (usize, [usize; 3])| {
        compared += n;
        for (total, k) in used.iter_mut().zip(u) {
            *total += k;
        }
    };
    for seed in SEEDS {
        tally(check_world(
            &World::generate(WorldConfig::tiny(seed)),
            &format!("seed {seed}"),
        ));
        for class in FaultClass::ALL {
            let mut world = World::generate(WorldConfig::tiny(seed));
            adversary::apply(&mut world, class, ADV_SEED);
            tally(check_world(
                &world,
                &format!("seed {seed}, {}", class.as_str()),
            ));
        }
    }
    assert!(compared > 1000, "only {compared} records compared");
    for (rule, n) in OPTIONAL_RULES.iter().zip(used) {
        assert!(n > 0, "no trace in the sweep used {rule}");
    }
}

/// Appending one record's thawed line twice, dropping the final newline
/// or flipping one byte anywhere must all fail the freeze check.
#[test]
fn reproduces_jsonl_rejects_any_difference() {
    let world = World::generate(WorldConfig::tiny(7));
    let built = world.build_inputs();
    let inputs = PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    };
    let (dataset, edges) = Pipeline::with_threads(2).dataset_with_evidence(&inputs, None);
    let frozen = FrozenDataset::from_payload(freeze(&inputs, &dataset, &edges, 0)).unwrap();
    let jsonl = to_jsonl(&dataset);
    assert!(frozen.reproduces_jsonl(&jsonl));
    let first_line = jsonl.lines().next().unwrap();
    assert!(!frozen.reproduces_jsonl(&format!("{jsonl}{first_line}\n")));
    assert!(!frozen.reproduces_jsonl(&jsonl[..jsonl.len() - 1]));
    assert!(!frozen.reproduces_jsonl(""));
    for at in [0, jsonl.len() / 2, jsonl.len() - 2] {
        let at = (at..jsonl.len())
            .find(|&i| jsonl.as_bytes()[i].is_ascii())
            .unwrap();
        let mut bytes = jsonl.clone().into_bytes();
        bytes[at] = if bytes[at] == b'x' { b'y' } else { b'x' };
        let damaged = String::from_utf8(bytes).unwrap();
        assert!(!frozen.reproduces_jsonl(&damaged), "flip at {at}");
    }
}
