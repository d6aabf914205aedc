//! The served snapshot: one immutable, fully precomputed view of a built
//! artifact directory, and the swap cell that readers go through.
//!
//! A [`Snapshot`] owns everything a lookup needs — the delegation tree,
//! routing table, the assembled dataset, the merge-evidence edges, a radix
//! LPM index over the dataset's prefixes, and the rendered JSONL export —
//! so answering a query never touches the filesystem and never recomputes
//! pipeline stages. Provenance comes from [`prefix2org::attribution_trace`]
//! over the precomputed dataset, which is byte-identical to what
//! `prefix2org explain` prints for the same prefix on the same inputs; a
//! frozen snapshot renders the same trace from the facts stored in the
//! artifact ([`FrozenDataset::provenance`]).
//!
//! [`SnapshotCell`] is the reload point. The workspace has no `arc-swap`
//! crate, so the lock-free read path is built from two primitives: a
//! generation counter (`AtomicU64`) and a mutex-guarded `Arc` that only
//! swaps and cache-misses take. Each connection holds a [`SnapshotReader`]
//! caching `(generation, Arc)`; the hot path is a single `Acquire` load —
//! a lock is taken only on the first read after a swap. The cell counts
//! those slow-path acquisitions so the stress test can assert the read
//! path stayed lock-free between reloads.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use p2o_as2org::AsnClusters;
use p2o_bgp::RouteTable;
use p2o_net::Prefix;
use p2o_radix::PrefixMap;
use p2o_rpki::ValidatedRepo;
use p2o_util::digest::Digest;
use p2o_util::json::Json;
use p2o_whois::DelegationTree;
use prefix2org::{
    attribution_trace_with, to_jsonl, ExceptionSet, ExportRecord, FrozenDataset, MergeEdge,
    Pipeline, PipelineInputs, Prefix2OrgDataset,
};

/// The live backing: fully parsed inputs plus the assembled dataset, as
/// produced by re-running the pipeline over an artifact directory.
struct LiveBacking {
    /// The full dataset export, one JSON record per line.
    jsonl: String,
    /// The export records, parsed once for delta computation.
    records: Vec<ExportRecord>,
    /// The assembled per-prefix dataset.
    dataset: Prefix2OrgDataset,
    /// Cluster merge evidence (for provenance rendering).
    merge_edges: Vec<MergeEdge>,
    /// WHOIS delegation tree.
    tree: DelegationTree,
    /// Routing table with per-prefix origin sets (MOAS evidence).
    routes: RouteTable,
    /// ASN sibling clusters.
    clusters: AsnClusters,
    /// Validated RPKI view.
    rpki: ValidatedRepo,
    /// Longest-prefix-match index: covering prefix → dataset record index.
    lpm: PrefixMap<usize>,
    /// Local operator exceptions applied to the dataset (needed so traces
    /// can explain prefixes a `filter` rule removed).
    exceptions: ExceptionSet,
}

/// The frozen backing: one validated `world.p2ob` arena, pinned for the
/// snapshot's lifetime behind the cell's `Arc`. The JSONL text and parsed
/// export records — only needed by `/dump` and delta computation, not by
/// lookups — are thawed lazily on first use.
struct FrozenBacking {
    frozen: FrozenDataset,
    jsonl: OnceLock<String>,
    records: OnceLock<Vec<ExportRecord>>,
}

enum Backing {
    Live(Box<LiveBacking>),
    Frozen(Box<FrozenBacking>),
}

/// One immutable, query-ready view of a built artifact directory — backed
/// either by a full pipeline re-run ([`Snapshot::assemble`]) or by the
/// frozen zero-copy artifact ([`Snapshot::from_frozen`]).
pub struct Snapshot {
    /// The artifact directory this snapshot was loaded from.
    pub dir: PathBuf,
    /// Monotonic snapshot serial (0 for the boot snapshot; +1 per reload).
    pub serial: u64,
    /// Content digest of the JSONL export — the identity readers see.
    /// Identical for live and frozen backings of the same build.
    pub digest: String,
    /// ROV tallies and exception count, counted once at assembly so the
    /// health and status probes stay O(1).
    rov_tallies: [u64; 3],
    exception_count: u64,
    backing: Backing,
}

impl Snapshot {
    /// Assembles a snapshot from parsed inputs: runs resolution and
    /// clustering once (with merge evidence, so provenance can be rendered
    /// per query without re-clustering), renders the export, and builds
    /// the LPM index.
    pub fn assemble(
        dir: PathBuf,
        serial: u64,
        tree: DelegationTree,
        routes: RouteTable,
        clusters: AsnClusters,
        rpki: ValidatedRepo,
        threads: usize,
    ) -> Snapshot {
        Self::assemble_with(
            dir,
            serial,
            tree,
            routes,
            clusters,
            rpki,
            threads,
            ExceptionSet::new(),
        )
    }

    /// [`Snapshot::assemble`] with local operator exceptions applied to the
    /// dataset before the export and LPM index are built, so overridden
    /// attributions and filtered records are what every endpoint serves.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_with(
        dir: PathBuf,
        serial: u64,
        tree: DelegationTree,
        routes: RouteTable,
        clusters: AsnClusters,
        rpki: ValidatedRepo,
        threads: usize,
        exceptions: ExceptionSet,
    ) -> Snapshot {
        let pipeline = Pipeline::with_threads(threads.max(1));
        let (mut dataset, merge_edges) = {
            let inputs = PipelineInputs {
                delegations: &tree,
                routes: &routes,
                asn_clusters: &clusters,
                rpki: &rpki,
            };
            pipeline.dataset_with_evidence(&inputs, None)
        };
        exceptions.apply(&mut dataset);
        let jsonl = to_jsonl(&dataset);
        let records = prefix2org::from_jsonl(&jsonl).expect("own export parses back");
        let digest = Digest::of_bytes(jsonl.as_bytes()).short();
        let mut lpm = PrefixMap::new();
        for (i, rec) in dataset.records().iter().enumerate() {
            lpm.insert(rec.prefix, i);
        }
        Snapshot {
            dir,
            serial,
            digest,
            rov_tallies: dataset.rov_tallies(),
            exception_count: dataset.exception_count(),
            backing: Backing::Live(Box::new(LiveBacking {
                jsonl,
                records,
                dataset,
                merge_edges,
                tree,
                routes,
                clusters,
                rpki,
                lpm,
                exceptions,
            })),
        }
    }

    /// Wraps an already-validated frozen dataset. No pipeline stage runs;
    /// the arena buffer is pinned for the snapshot's lifetime and lookups
    /// are answered straight out of it.
    pub fn from_frozen(dir: PathBuf, serial: u64, frozen: FrozenDataset) -> Snapshot {
        let digest = frozen.digest_short();
        Snapshot {
            dir,
            serial,
            digest,
            rov_tallies: frozen.rov_tallies(),
            exception_count: frozen.exception_count(),
            backing: Backing::Frozen(Box::new(FrozenBacking {
                frozen,
                jsonl: OnceLock::new(),
                records: OnceLock::new(),
            })),
        }
    }

    /// Whether this snapshot serves from the frozen artifact.
    pub fn is_frozen(&self) -> bool {
        matches!(self.backing, Backing::Frozen(_))
    }

    /// Number of mapped prefixes.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Live(live) => live.dataset.len(),
            Backing::Frozen(f) => f.frozen.len(),
        }
    }

    /// Whether the snapshot maps no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical JSONL export. For a frozen backing this thaws (and
    /// caches) the text on first use — the digests are guaranteed equal by
    /// the freeze-time round-trip check.
    pub fn jsonl(&self) -> &str {
        match &self.backing {
            Backing::Live(live) => &live.jsonl,
            Backing::Frozen(f) => f.jsonl.get_or_init(|| f.frozen.to_jsonl()),
        }
    }

    /// The export records (delta computation). Thawed lazily when frozen.
    pub fn records(&self) -> &[ExportRecord] {
        match &self.backing {
            Backing::Live(live) => &live.records,
            Backing::Frozen(f) => f.records.get_or_init(|| {
                (0..f.frozen.len() as u32)
                    .map(|i| f.frozen.export_record(i))
                    .collect()
            }),
        }
    }

    /// ROV state tallies of the served dataset: `[valid, invalid,
    /// not_found]`, indexed by [`p2o_rpki::RovStatus::as_u8`].
    pub fn rov_tallies(&self) -> [u64; 3] {
        self.rov_tallies
    }

    /// How many served records carry a local operator override.
    pub fn exception_count(&self) -> u64 {
        self.exception_count
    }

    /// Answers one lookup: longest-match `query` against the dataset and
    /// return the full response object `{query, matched, record, rov,
    /// origins, moas, provenance, serial, snapshot}` — plus `rule:
    /// "local_exception"` when the matched attribution was overridden by an
    /// operator rule — or `None` when no routed prefix in the snapshot
    /// covers the query.
    ///
    /// The `provenance` string is the rendered decision trace. A live
    /// backing renders it for the query itself — byte-for-byte what
    /// `prefix2org explain` prints. A frozen backing renders the matched
    /// *record's* trace on demand from the facts frozen with it (identical
    /// whenever the query is a record prefix; for a strictly more-specific
    /// query the trace documents the covering record it was attributed to).
    pub fn lookup(&self, query: &Prefix) -> Option<Json> {
        let (matched, record_json, origins, provenance, rov, overridden) = match &self.backing {
            Backing::Live(live) => {
                let (matched, &idx) = live.lpm.longest_match(query)?;
                let record = &live.dataset.records()[idx];
                let inputs = PipelineInputs {
                    delegations: &live.tree,
                    routes: &live.routes,
                    asn_clusters: &live.clusters,
                    rpki: &live.rpki,
                };
                let trace = attribution_trace_with(
                    &inputs,
                    &live.dataset,
                    &live.merge_edges,
                    Some(&live.exceptions),
                    query,
                );
                let origins: Vec<u32> = live
                    .routes
                    .origins(&matched)
                    .map(|set| set.iter().copied().collect())
                    .unwrap_or_default();
                (
                    matched,
                    record.listing1_json(),
                    origins,
                    trace.render(),
                    record.rov,
                    record.local_exception.is_some(),
                )
            }
            Backing::Frozen(f) => {
                let (matched, idx) = f.frozen.lookup(query)?;
                (
                    matched,
                    f.frozen.listing1_json(idx),
                    f.frozen.origins(idx),
                    f.frozen.provenance(idx),
                    f.frozen.rov(idx),
                    f.frozen.has_local_exception(idx),
                )
            }
        };
        let mut out = Json::object();
        out.set("query", query.to_string());
        out.set("matched", matched.to_string());
        out.set("serial", self.serial);
        out.set("snapshot", self.digest.clone());
        out.set("record", record_json);
        out.set("rov", rov.as_str());
        if overridden {
            out.set("rule", "local_exception");
        }
        out.set(
            "origins",
            Json::Arr(origins.iter().map(|&a| Json::from(a)).collect()),
        );
        out.set("moas", origins.len() > 1);
        out.set("provenance", provenance);
        Some(out)
    }
}

/// The reload point: a mutex-guarded current `Arc<Snapshot>` plus a
/// generation counter that lets readers skip the lock entirely while no
/// swap has happened.
pub struct SnapshotCell {
    current: Mutex<Arc<Snapshot>>,
    generation: AtomicU64,
    read_locks: AtomicU64,
}

impl SnapshotCell {
    /// A cell serving `initial`.
    pub fn new(initial: Arc<Snapshot>) -> SnapshotCell {
        SnapshotCell {
            current: Mutex::new(initial),
            generation: AtomicU64::new(0),
            read_locks: AtomicU64::new(0),
        }
    }

    /// Atomically replaces the served snapshot. Readers that already hold
    /// the old `Arc` finish their in-flight responses against it; new
    /// reads see the replacement. Returns the new generation.
    pub fn swap(&self, snapshot: Arc<Snapshot>) -> u64 {
        let mut current = self.current.lock().expect("snapshot cell poisoned");
        *current = snapshot;
        // The store is inside the lock so a reader that observes the new
        // generation and then locks always finds the new Arc.
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        self.generation.store(generation, Ordering::Release);
        generation
    }

    /// The current generation (bumped once per [`swap`]).
    ///
    /// [`swap`]: SnapshotCell::swap
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// How many reads had to take the lock (first read after a swap). The
    /// concurrency battery asserts this stays ≤ readers × (swaps + 1) —
    /// i.e. the steady-state read path never locks.
    pub fn read_locks(&self) -> u64 {
        self.read_locks.load(Ordering::Relaxed)
    }

    /// Clones the current snapshot through the lock (slow path; used by
    /// readers on generation change and by non-hot endpoints).
    pub fn load(&self) -> Arc<Snapshot> {
        self.read_locks.fetch_add(1, Ordering::Relaxed);
        self.current.lock().expect("snapshot cell poisoned").clone()
    }

    /// A per-connection reader caching `(generation, Arc)`.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader {
            cell: Arc::clone(self),
            generation: self.generation(),
            cached: self.load(),
        }
    }
}

/// A connection-local snapshot handle: one `Acquire` load per request in
/// steady state, one lock acquisition after each reload.
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
    generation: u64,
    cached: Arc<Snapshot>,
}

impl SnapshotReader {
    /// The snapshot to serve this request from. Every field read off the
    /// returned `Arc` within one response is consistent — the swap
    /// replaces the whole `Arc`, never mutates in place.
    pub fn get(&mut self) -> &Arc<Snapshot> {
        let generation = self.cell.generation.load(Ordering::Acquire);
        if generation != self.generation {
            self.cached = self.cell.load();
            // Re-read under the published value: load() locked, so cached
            // is at least as new as `generation`.
            self.generation = generation;
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_synth::{World, WorldConfig};

    pub(crate) fn snapshot_from_seed(seed: u64, serial: u64) -> Snapshot {
        let world = World::generate(WorldConfig::tiny(seed));
        let built = world.build_inputs();
        Snapshot::assemble(
            PathBuf::from(format!("seed-{seed}")),
            serial,
            built.tree,
            built.routes,
            built.clusters,
            built.rpki,
            1,
        )
    }

    #[test]
    fn lookup_hits_misses_and_provenance() {
        let snap = snapshot_from_seed(7, 0);
        assert!(!snap.records().is_empty(), "tiny world exports records");
        let first = snap.records()[0].prefix;
        let hit = snap.lookup(&first).expect("exported prefix resolves");
        assert_eq!(
            hit.get("matched").unwrap().as_str().unwrap(),
            first.to_string()
        );
        let provenance = hit.get("provenance").unwrap().as_str().unwrap();
        assert!(provenance.starts_with(&first.to_string()));
        assert!(provenance.contains("cluster.final"));
        // A prefix outside every delegation: no covering routed prefix.
        assert!(snap
            .lookup(&"255.255.255.255/32".parse().unwrap())
            .is_none());
    }

    pub(crate) fn frozen_snapshot_from_seed(seed: u64, serial: u64) -> Snapshot {
        let world = World::generate(WorldConfig::tiny(seed));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let (dataset, edges) = Pipeline::default().dataset_with_evidence(&inputs, None);
        let payload = prefix2org::freeze(&inputs, &dataset, &edges, 0);
        Snapshot::from_frozen(
            PathBuf::from(format!("seed-{seed}")),
            serial,
            FrozenDataset::from_payload(payload).expect("fresh freeze validates"),
        )
    }

    #[test]
    fn frozen_snapshot_answers_identically_for_record_prefixes() {
        let live = snapshot_from_seed(7, 3);
        let frozen = frozen_snapshot_from_seed(7, 3);
        assert!(frozen.is_frozen() && !live.is_frozen());
        assert_eq!(frozen.digest, live.digest, "same build, same identity");
        assert_eq!(frozen.len(), live.len());
        assert_eq!(frozen.jsonl(), live.jsonl());
        assert_eq!(frozen.records(), live.records());
        for rec in live.records() {
            let a = live.lookup(&rec.prefix).expect("live hit");
            let b = frozen.lookup(&rec.prefix).expect("frozen hit");
            assert_eq!(a.to_string(), b.to_string(), "prefix {}", rec.prefix);
        }
        assert!(frozen
            .lookup(&"255.255.255.255/32".parse().unwrap())
            .is_none());
    }

    #[test]
    fn cell_swap_bumps_generation_and_readers_follow() {
        let a = Arc::new(snapshot_from_seed(7, 0));
        let b = Arc::new(snapshot_from_seed(8, 1));
        let cell = Arc::new(SnapshotCell::new(Arc::clone(&a)));
        let mut reader = cell.reader();
        let locks_after_setup = cell.read_locks();
        assert_eq!(reader.get().digest, a.digest);
        assert_eq!(reader.get().digest, a.digest);
        // Steady state: no further lock acquisitions.
        assert_eq!(cell.read_locks(), locks_after_setup);
        cell.swap(Arc::clone(&b));
        assert_eq!(cell.generation(), 1);
        assert_eq!(reader.get().digest, b.digest);
        // Exactly one slow-path acquisition for the swap.
        assert_eq!(cell.read_locks(), locks_after_setup + 1);
    }
}
