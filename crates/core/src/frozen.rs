//! The frozen dataset artifact — `world.p2ob`.
//!
//! `build` exports the dataset as canonical JSONL, which is portable but
//! slow to serve: every boot re-parses every line and re-builds the radix
//! tree. The frozen artifact trades that for a **single-read, zero-copy**
//! form: one arena buffer ([`p2o_util::arena`]) holding fixed-width
//! records, one interned-string table ([`p2o_util::interner::StringBlob`]),
//! flattened per-family LPM span tables ([`p2o_radix::freeze`]), and the
//! structured facts each record's decision trace is rendered from — so
//! `prefix2org serve` answers its first lookup milliseconds after exec, with
//! no per-record allocation at load.
//!
//! **Provenance as facts.** The artifact stores a trace's *inputs*, not its
//! text: whether the prefix is routed, the covering-chain length and radix
//! nodes walked, the inferred cluster label and its WHOIS-name count, and
//! the merge edges touching the Direct Owner. Everything else the trace
//! prints is already in the record. [`FrozenDataset::provenance`] renders
//! the trace on demand, byte-identical to [`attribution_trace`] at freeze
//! time; both go through the same step wording and line writer.
//!
//! **Byte-identical derivation.** Freezing is defined against the canonical
//! JSONL export: [`FrozenDataset::to_jsonl`] must reproduce
//! [`crate::export::to_jsonl`] exactly, and the builder verifies it record
//! by record before the artifact is written. The meta section carries both
//! the JSONL digest (identity) and the inputs digest (staleness: serve
//! recomputes the input digest and falls back to a full build when they
//! disagree).
//!
//! Layout (arena sections, byte offsets in DESIGN.md §4h):
//!
//! ```text
//! meta         36 B     format_version, record/step/pool/edge counts, digests
//! strings      var      StringBlob: count | offsets | UTF-8 blob
//! recs         n×104 B  fixed-width records (string ids, pool slices, trace facts)
//! dcsteps      k×24 B   delegated-customer chain steps
//! u32pool      m×4 B    shared u32 arrays (ASN clusters, BGP origins, edge indices)
//! edges        e×12 B   merge edges: a | b | evidence string ids
//! lpm4         var      frozen IPv4 span table, values = record indices
//! lpm6         var      frozen IPv6 span table, values = record indices
//! ```
//!
//! Everything is little-endian. The artifact on disk is this payload
//! wrapped in the standard checksummed frame ([`p2o_util::atomic`]), so
//! torn writes and bit rot are caught before any of the above is trusted;
//! [`FrozenDataset::validate_payload`] then audits the interior for `fsck`.
//!
//! [`attribution_trace`]: crate::explain::attribution_trace

use std::collections::HashMap;
use std::path::Path;

use p2o_net::{Prefix, Prefix4, Prefix6};
use p2o_obs::{rule_width, StepWriter};
use p2o_radix::{freeze_v4, freeze_v6, LpmView4, LpmView6};
use p2o_rpki::RovStatus;
use p2o_util::arena::{u128_at, u16_at, u32_at, u64_at, ArenaIndex, ArenaWriter};
use p2o_util::atomic::read_framed;
use p2o_util::interner::{StringBlob, StringBlobBuilder};
use p2o_util::vfs::Vfs;
use p2o_util::{Digest, Json};
use p2o_whois::alloc::AllocationType;
use p2o_whois::Registry;

use crate::cluster::{ClusterId, MergeEdge};
use crate::dataset::{CustomerStep, Prefix2OrgDataset, PrefixRecord};
use crate::explain::step;
use crate::export::{to_jsonl, write_jsonl_line, ExportRecord};
use crate::pipeline::PipelineInputs;

/// The frozen artifact's file name inside a build directory.
pub const FROZEN_FILE: &str = "world.p2ob";

/// Interior format version; readers require an exact match. v2 repurposed
/// two record pad bytes for the ROV state and the local-exception flag; v3
/// replaced the stored provenance text with the facts it is rendered from
/// (see the module docs) and added the merge-edge section `edges`.
pub const FROZEN_FORMAT_VERSION: u32 = 3;

/// The kill-point / frame label the artifact is written under.
pub const FROZEN_LABEL: &str = "frozen";

/// Sentinel string id for "absent" (`rpki_certificate: null`).
const NONE_ID: u32 = u32::MAX;

/// Fixed-width record size.
const REC_SIZE: usize = 104;
/// Fixed-width delegated-customer step size.
const DC_SIZE: usize = 24;
/// Fixed-width merge-edge row size.
const EDGE_SIZE: usize = 12;
/// Serialized prefix size: family u8 | len u8 | bits u128 LE.
const PFX_SIZE: usize = 18;
/// Meta section size.
const META_SIZE: usize = 36;

/// Byte offsets of the record fields (DESIGN.md §4h).
mod rec {
    pub const PREFIX: usize = 0;
    pub const DO_PREFIX: usize = 18;
    pub const REGISTRY: usize = 36;
    pub const DIRECT_OWNER: usize = 40;
    pub const BASE_NAME: usize = 44;
    pub const RPKI_CERT: usize = 48;
    pub const FINAL_LABEL: usize = 52;
    /// The pipeline's label for the record's cluster; differs from
    /// `FINAL_LABEL` only under an asserted operator override.
    pub const INFERRED_LABEL: usize = 56;
    pub const DO_ALLOC: usize = 60;
    pub const ROV: usize = 61;
    pub const LOCAL_EXCEPTION: usize = 62;
    pub const ROUTED: usize = 63;
    pub const DC_OFF: usize = 64;
    pub const DC_LEN: usize = 68;
    pub const ASNC_OFF: usize = 72;
    pub const ASNC_LEN: usize = 76;
    pub const ORIGINS_OFF: usize = 80;
    pub const ORIGINS_LEN: usize = 84;
    pub const EDGES_OFF: usize = 88;
    pub const EDGES_LEN: usize = 92;
    pub const CHAIN_BLOCKS: usize = 96;
    pub const NODES_WALKED: usize = 98;
    pub const CLUSTER_NAMES: usize = 100;
}

fn push_prefix(out: &mut Vec<u8>, p: &Prefix) {
    match p {
        Prefix::V4(p4) => {
            out.push(4);
            out.push(p4.len());
            out.extend_from_slice(&(p4.bits() as u128).to_le_bytes());
        }
        Prefix::V6(p6) => {
            out.push(6);
            out.push(p6.len());
            out.extend_from_slice(&p6.bits().to_le_bytes());
        }
    }
}

fn read_prefix(bytes: &[u8], off: usize) -> Result<Prefix, String> {
    let fam = *bytes
        .get(off)
        .ok_or_else(|| "prefix field out of bounds".to_string())?;
    let len = bytes[off + 1];
    let bits = u128_at(bytes, off + 2).ok_or_else(|| "prefix bits out of bounds".to_string())?;
    match fam {
        4 => {
            let bits32 =
                u32::try_from(bits).map_err(|_| "IPv4 prefix bits exceed 32 bits".to_string())?;
            Prefix4::new(bits32, len)
                .map(Prefix::V4)
                .map_err(|_| format!("non-canonical IPv4 prefix ({bits32:#x}/{len})"))
        }
        6 => Prefix6::new(bits, len)
            .map(Prefix::V6)
            .map_err(|_| format!("non-canonical IPv6 prefix ({bits:#x}/{len})")),
        other => Err(format!("unknown address family tag {other}")),
    }
}

fn alloc_index(t: AllocationType) -> u8 {
    AllocationType::ALL
        .iter()
        .position(|a| *a == t)
        .expect("every allocation type is in ALL") as u8
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `vals` to the u32 pool; returns their `(offset, len)` slice.
fn push_pool(pool: &mut Vec<u8>, vals: impl IntoIterator<Item = u32>) -> (u32, u32) {
    let off = (pool.len() / 4) as u32;
    for v in vals {
        put_u32(pool, v);
    }
    (off, (pool.len() / 4) as u32 - off)
}

/// Flattens an already-built dataset (plus the evidence needed for
/// provenance) into the frozen arena payload. The caller wraps the payload
/// in a checksummed frame and writes it atomically.
///
/// `inputs` must be the same inputs the dataset was built from — the
/// per-record trace facts (routing state, covering-chain walk) and BGP
/// origins are taken from them. `inputs_digest` is the canonical digest of
/// the build directory's input files, stored for staleness detection at
/// serve time. This renders the JSONL export once for its digest; a caller
/// that already holds the export uses [`freeze_with_export_digest`].
pub fn freeze(
    inputs: &PipelineInputs<'_>,
    dataset: &Prefix2OrgDataset,
    merge_edges: &[MergeEdge],
    inputs_digest: u64,
) -> Vec<u8> {
    let jsonl_digest = Digest::of_bytes(to_jsonl(dataset).as_bytes()).0;
    freeze_with_export_digest(inputs, dataset, merge_edges, jsonl_digest, inputs_digest)
}

/// [`freeze`] for a caller that already rendered the export:
/// `jsonl_digest` must be [`Digest::of_bytes`] of
/// [`to_jsonl`]`(dataset)`; it is stored as the artifact's identity.
pub fn freeze_with_export_digest(
    inputs: &PipelineInputs<'_>,
    dataset: &Prefix2OrgDataset,
    merge_edges: &[MergeEdge],
    jsonl_digest: u64,
    inputs_digest: u64,
) -> Vec<u8> {
    let mut strings = StringBlobBuilder::new();
    let mut recs: Vec<u8> = Vec::with_capacity(dataset.len() * REC_SIZE);
    let mut dcsteps: Vec<u8> = Vec::new();
    let mut pool: Vec<u8> = Vec::new();
    let mut dc_count = 0u32;
    let mut v4_entries: Vec<(Prefix4, u32)> = Vec::new();
    let mut v6_entries: Vec<(Prefix6, u32)> = Vec::new();

    // Merge edges in their original order, and for each organization name
    // the indices of the edges touching it — the `cluster.merge` steps of
    // its records. One pool slice per Direct Owner, shared by its records.
    let mut edge_rows: Vec<u8> = Vec::with_capacity(merge_edges.len() * EDGE_SIZE);
    let mut touching: HashMap<&str, Vec<u32>> = HashMap::new();
    for (i, edge) in merge_edges.iter().enumerate() {
        put_u32(&mut edge_rows, strings.intern(&edge.a));
        put_u32(&mut edge_rows, strings.intern(&edge.b));
        put_u32(&mut edge_rows, strings.intern(&edge.evidence));
        touching.entry(&edge.a).or_default().push(i as u32);
        if edge.b != edge.a {
            touching.entry(&edge.b).or_default().push(i as u32);
        }
    }
    let mut owner_edges: HashMap<&str, (u32, u32)> = HashMap::new();

    for (idx, rec) in dataset.records().iter().enumerate() {
        let idx = idx as u32;
        match rec.prefix {
            Prefix::V4(p) => v4_entries.push((p, idx)),
            Prefix::V6(p) => v6_entries.push((p, idx)),
        }

        let origins = inputs.routes.origins(&rec.prefix);
        let (chain, walked) = inputs.delegations.covering_chain_with_depth(&rec.prefix);
        let blocks = u16::try_from(chain.len()).expect("covering chain is at most 129 blocks");
        let walked = u16::try_from(walked).expect("radix walk is at most 129 nodes");

        let dc_off = dc_count;
        for step in &rec.delegated_customers {
            push_prefix(&mut dcsteps, &step.prefix);
            put_u32(&mut dcsteps, strings.intern(&step.org_name));
            dcsteps.push(alloc_index(step.alloc));
            dcsteps.push(0); // pad to 24 bytes
        }
        dc_count += rec.delegated_customers.len() as u32;

        let (asnc_off, asnc_len) = push_pool(&mut pool, rec.origin_asn_clusters.iter().copied());
        let (org_off, org_len) = push_pool(&mut pool, origins.into_iter().flatten().copied());
        let owner = rec.direct_owner.as_str();
        let (edge_off, edge_len) = *owner_edges.entry(owner).or_insert_with(|| {
            push_pool(
                &mut pool,
                touching.get(owner).into_iter().flatten().copied(),
            )
        });

        push_prefix(&mut recs, &rec.prefix);
        push_prefix(&mut recs, &rec.do_prefix);
        put_u32(&mut recs, strings.intern(&rec.registry.to_string()));
        put_u32(&mut recs, strings.intern(&rec.direct_owner));
        put_u32(&mut recs, strings.intern(&rec.base_name));
        let rpki_id = match &rec.rpki_certificate {
            Some(id) => strings.intern(id),
            None => NONE_ID,
        };
        put_u32(&mut recs, rpki_id);
        put_u32(&mut recs, strings.intern(&rec.final_cluster_label));
        put_u32(
            &mut recs,
            strings.intern(dataset.cluster_label(rec.cluster)),
        );
        recs.push(alloc_index(rec.do_alloc));
        recs.push(rec.rov.as_u8());
        recs.push(rec.local_exception.is_some() as u8);
        recs.push(origins.is_some() as u8);
        put_u32(&mut recs, dc_off);
        put_u32(&mut recs, rec.delegated_customers.len() as u32);
        put_u32(&mut recs, asnc_off);
        put_u32(&mut recs, asnc_len);
        put_u32(&mut recs, org_off);
        put_u32(&mut recs, org_len);
        put_u32(&mut recs, edge_off);
        put_u32(&mut recs, edge_len);
        recs.extend_from_slice(&blocks.to_le_bytes());
        recs.extend_from_slice(&walked.to_le_bytes());
        put_u32(&mut recs, dataset.cluster_names(rec.cluster).len() as u32);
    }

    let mut meta = Vec::with_capacity(META_SIZE);
    put_u32(&mut meta, FROZEN_FORMAT_VERSION);
    put_u32(&mut meta, dataset.len() as u32);
    meta.extend_from_slice(&jsonl_digest.to_le_bytes());
    meta.extend_from_slice(&inputs_digest.to_le_bytes());
    put_u32(&mut meta, dc_count);
    put_u32(&mut meta, (pool.len() / 4) as u32);
    put_u32(&mut meta, merge_edges.len() as u32);

    let mut w = ArenaWriter::new();
    w.section("meta", meta);
    w.section("strings", strings.into_bytes());
    w.section("recs", recs);
    w.section("dcsteps", dcsteps);
    w.section("u32pool", pool);
    w.section("edges", edge_rows);
    w.section("lpm4", freeze_v4(&v4_entries));
    w.section("lpm6", freeze_v6(&v6_entries));
    w.finish()
}

/// The parsed section geometry of a frozen payload.
struct Sections {
    strings: core::ops::Range<usize>,
    recs: core::ops::Range<usize>,
    dcsteps: core::ops::Range<usize>,
    pool: core::ops::Range<usize>,
    edges: core::ops::Range<usize>,
    lpm4: core::ops::Range<usize>,
    lpm6: core::ops::Range<usize>,
    /// `(entry_count, span_count)` of each LPM blob, captured at index
    /// time so the lookup hot path can rebuild its view without re-reading
    /// the blob header on every call.
    lpm4_parts: (usize, usize),
    lpm6_parts: (usize, usize),
    record_count: u32,
    dc_count: u32,
    pool_count: u32,
    edge_count: u32,
    jsonl_digest: u64,
    inputs_digest: u64,
}

/// Checks that section `name` holds exactly `count` rows of `width` bytes.
fn require_rows(
    arena: &ArenaIndex,
    name: &str,
    count: u32,
    width: usize,
    what: &str,
) -> Result<core::ops::Range<usize>, String> {
    let range = arena.require(name)?;
    let want = count as usize * width;
    if range.len() != want {
        return Err(format!(
            "{name} section is {} bytes, expected {want} for {count} {what}",
            range.len()
        ));
    }
    Ok(range)
}

/// Arena parse + meta decode + section-size arithmetic. Shared by the
/// cheap loader and the deep validator.
fn index_sections(payload: &[u8]) -> Result<Sections, String> {
    let arena = ArenaIndex::parse(payload)?;
    let meta = arena.require("meta")?;
    let m = &payload[meta];
    // The version gate comes first: an older layout may size its meta
    // differently, and "rebuild the artifact" is the useful answer.
    let format_version = u32_at(m, 0).ok_or("meta section is shorter than its version field")?;
    if format_version > FROZEN_FORMAT_VERSION {
        return Err(format!(
            "frozen format_version {format_version} is newer than this reader \
             (max {FROZEN_FORMAT_VERSION})"
        ));
    }
    if format_version < FROZEN_FORMAT_VERSION {
        return Err(format!(
            "frozen format_version {format_version} is older than this reader \
             (want {FROZEN_FORMAT_VERSION}); rebuild the artifact"
        ));
    }
    if m.len() != META_SIZE {
        return Err(format!(
            "meta section is {} bytes, expected {META_SIZE}",
            m.len()
        ));
    }
    let record_count = u32_at(m, 4).expect("meta length checked");
    let jsonl_digest = u64_at(m, 8).expect("meta length checked");
    let inputs_digest = u64_at(m, 16).expect("meta length checked");
    let dc_count = u32_at(m, 24).expect("meta length checked");
    let pool_count = u32_at(m, 28).expect("meta length checked");
    let edge_count = u32_at(m, 32).expect("meta length checked");

    let recs = require_rows(&arena, "recs", record_count, REC_SIZE, "records")?;
    let dcsteps = require_rows(&arena, "dcsteps", dc_count, DC_SIZE, "steps")?;
    let pool = require_rows(&arena, "u32pool", pool_count, 4, "values")?;
    let edges = require_rows(&arena, "edges", edge_count, EDGE_SIZE, "merge edges")?;
    let lpm4 = arena.require("lpm4")?;
    let lpm6 = arena.require("lpm6")?;
    let lpm4_parts = LpmView4::attach(&payload[lpm4.clone()])
        .map_err(|e| format!("lpm4: {e}"))?
        .parts();
    let lpm6_parts = LpmView6::attach(&payload[lpm6.clone()])
        .map_err(|e| format!("lpm6: {e}"))?
        .parts();
    Ok(Sections {
        strings: arena.require("strings")?,
        recs,
        dcsteps,
        pool,
        edges,
        lpm4,
        lpm6,
        lpm4_parts,
        lpm6_parts,
        record_count,
        dc_count,
        pool_count,
        edge_count,
        jsonl_digest,
        inputs_digest,
    })
}

/// A loaded frozen dataset: one owned arena buffer, all answers served by
/// slicing into it.
///
/// Construction runs the full [`validate_payload`] audit once; after that
/// every accessor re-enters the buffer through cheap `attach` views, so a
/// longest-prefix lookup is one binary search plus O(depth) parent climbs
/// with **zero allocation**.
///
/// [`validate_payload`]: FrozenDataset::validate_payload
pub struct FrozenDataset {
    payload: Vec<u8>,
    sections: Sections,
}

impl core::fmt::Debug for FrozenDataset {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FrozenDataset")
            .field("records", &self.sections.record_count)
            .field("jsonl_digest", &Digest(self.sections.jsonl_digest).short())
            .finish()
    }
}

impl FrozenDataset {
    /// Reads `path` through the checksummed frame and validates the interior.
    pub fn load(vfs: &Vfs, path: &Path) -> Result<FrozenDataset, String> {
        let payload = read_framed(vfs, path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_payload(payload).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Validates an unframed payload and takes ownership of it.
    pub fn from_payload(payload: Vec<u8>) -> Result<FrozenDataset, String> {
        Self::validate_payload(&payload)?;
        let sections = index_sections(&payload).expect("validated");
        Ok(FrozenDataset { payload, sections })
    }

    /// Gives the validated payload back (e.g. to frame it for writing).
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }

    /// The interior `format_version` a payload declares, read without
    /// auditing anything else — `None` when not even the arena container
    /// and meta section parse. Lets `fsck` tell an artifact written by an
    /// older release (rebuildable, served by a full-load fallback) from
    /// damage.
    pub fn declared_format_version(payload: &[u8]) -> Option<u32> {
        let meta = ArenaIndex::parse(payload).ok()?.get("meta")?;
        u32_at(&payload[meta], 0)
    }

    /// The full interior audit behind [`load`](Self::load) — also what
    /// `fsck` runs against a suspect artifact. Checks, in order: the arena
    /// container (magic, endianness marker, container version, TOC bounds),
    /// the meta section (`format_version` gate, size, section-size
    /// arithmetic), the string table (monotone offsets, UTF-8), both LPM
    /// blobs (sorted canonical keys, ancestor links, span invariants), every
    /// record (string ids, flag bytes, allocation-type and pool ranges,
    /// merge-edge slices, prefix canonicality, LPM keys ↔ record prefixes
    /// bijection), every chain step, and every merge-edge row.
    pub fn validate_payload(payload: &[u8]) -> Result<(), String> {
        let s = index_sections(payload)?;
        let strings =
            StringBlob::parse(&payload[s.strings.clone()]).map_err(|e| format!("strings: {e}"))?;
        let lpm4 = LpmView4::parse(&payload[s.lpm4.clone()]).map_err(|e| format!("lpm4: {e}"))?;
        let lpm6 = LpmView6::parse(&payload[s.lpm6.clone()]).map_err(|e| format!("lpm6: {e}"))?;

        let str_ok = |id: u32| (id as usize) < strings.len();
        let edges = &payload[s.edges.clone()];
        for i in 0..s.edge_count as usize {
            for (name, off) in [("a", 0), ("b", 4), ("evidence", 8)] {
                let id = u32_at(edges, i * EDGE_SIZE + off).expect("edges sized above");
                if !str_ok(id) {
                    return Err(format!("merge edge {i}: {name} string id out of range"));
                }
            }
        }
        let edge_at = |i: u32, off: usize| u32_at(edges, i as usize * EDGE_SIZE + off);

        let pool = &payload[s.pool.clone()];
        let recs = &payload[s.recs.clone()];
        let mut v4_seen = 0usize;
        let mut v6_seen = 0usize;
        for i in 0..s.record_count as usize {
            let base = i * REC_SIZE;
            let err = |what: &str| format!("record {i}: {what}");
            let prefix = read_prefix(recs, base).map_err(|e| err(&format!("prefix: {e}")))?;
            read_prefix(recs, base + rec::DO_PREFIX)
                .map_err(|e| err(&format!("do_prefix: {e}")))?;
            let at = |off: usize| u32_at(recs, base + off).expect("recs sized above");
            for (name, off) in [
                ("registry", rec::REGISTRY),
                ("direct_owner", rec::DIRECT_OWNER),
                ("base_name", rec::BASE_NAME),
                ("final_cluster", rec::FINAL_LABEL),
                ("inferred_cluster", rec::INFERRED_LABEL),
            ] {
                if !str_ok(at(off)) {
                    return Err(err(&format!("{name} string id out of range")));
                }
            }
            if at(rec::RPKI_CERT) != NONE_ID && !str_ok(at(rec::RPKI_CERT)) {
                return Err(err("rpki_certificate string id out of range"));
            }
            let registry = strings.get(at(rec::REGISTRY)).expect("checked above");
            if registry.parse::<Registry>().is_err() {
                return Err(err(&format!("unknown registry {registry:?}")));
            }
            if recs[base + rec::DO_ALLOC] as usize >= AllocationType::ALL.len() {
                return Err(err("allocation type index out of range"));
            }
            if RovStatus::from_u8(recs[base + rec::ROV]).is_none() {
                return Err(err("rov state byte out of range"));
            }
            if recs[base + rec::LOCAL_EXCEPTION] > 1 {
                return Err(err("local-exception flag byte out of range"));
            }
            if recs[base + rec::ROUTED] > 1 {
                return Err(err("routed flag byte out of range"));
            }
            if recs[base + rec::ROUTED] == 0 && at(rec::ORIGINS_LEN) != 0 {
                return Err(err("unrouted record carries BGP origins"));
            }
            if at(rec::DC_OFF) as u64 + at(rec::DC_LEN) as u64 > s.dc_count as u64 {
                return Err(err("delegated-customer slice out of range"));
            }
            let in_pool =
                |off: usize, len: usize| at(off) as u64 + at(len) as u64 <= s.pool_count as u64;
            if !in_pool(rec::ASNC_OFF, rec::ASNC_LEN)
                || !in_pool(rec::ORIGINS_OFF, rec::ORIGINS_LEN)
            {
                return Err(err("u32 pool slice out of range"));
            }
            if !in_pool(rec::EDGES_OFF, rec::EDGES_LEN) {
                return Err(err("merge-edge slice out of range"));
            }
            let owner = at(rec::DIRECT_OWNER);
            for k in at(rec::EDGES_OFF)..at(rec::EDGES_OFF) + at(rec::EDGES_LEN) {
                let edge = u32_at(pool, k as usize * 4).expect("slice checked above");
                if edge >= s.edge_count {
                    return Err(err(&format!("merge-edge index {edge} out of range")));
                }
                if edge_at(edge, 0) != Some(owner) && edge_at(edge, 4) != Some(owner) {
                    return Err(err(&format!(
                        "merge edge {edge} does not touch the Direct Owner"
                    )));
                }
            }
            let blocks = u16_at(recs, base + rec::CHAIN_BLOCKS).expect("recs sized above");
            let walked = u16_at(recs, base + rec::NODES_WALKED).expect("recs sized above");
            if blocks == 0 || blocks > walked {
                return Err(err(&format!(
                    "covering chain of {blocks} block(s) over {walked} walked node(s)"
                )));
            }
            // The LPM tables must map this record's prefix back to it.
            let hit = match prefix {
                Prefix::V4(p) => {
                    v4_seen += 1;
                    lpm4.lookup(&p).map(|(k, v)| (Prefix::V4(k), v))
                }
                Prefix::V6(p) => {
                    v6_seen += 1;
                    lpm6.lookup(&p).map(|(k, v)| (Prefix::V6(k), v))
                }
            };
            if hit != Some((prefix, i as u32)) {
                return Err(err("LPM table does not map the record's own prefix to it"));
            }
        }
        if lpm4.len() != v4_seen || lpm6.len() != v6_seen {
            return Err(format!(
                "LPM entry counts ({}, {}) disagree with record families ({v4_seen}, {v6_seen})",
                lpm4.len(),
                lpm6.len()
            ));
        }

        let dcsteps = &payload[s.dcsteps.clone()];
        for i in 0..s.dc_count as usize {
            let base = i * DC_SIZE;
            read_prefix(dcsteps, base).map_err(|e| format!("step {i}: prefix: {e}"))?;
            let org = u32_at(dcsteps, base + PFX_SIZE).expect("dcsteps sized above");
            if !str_ok(org) {
                return Err(format!("step {i}: org string id out of range"));
            }
            if dcsteps[base + 22] as usize >= AllocationType::ALL.len() {
                return Err(format!("step {i}: allocation type index out of range"));
            }
        }
        Ok(())
    }

    fn strings(&self) -> StringBlob<'_> {
        StringBlob::attach(&self.payload[self.sections.strings.clone()]).expect("validated")
    }

    fn str_at(&self, id: u32) -> &str {
        self.strings().get(id).expect("validated")
    }

    #[inline]
    fn lpm4(&self) -> LpmView4<'_> {
        let (entries, spans) = self.sections.lpm4_parts;
        LpmView4::from_parts(&self.payload[self.sections.lpm4.clone()], entries, spans)
    }

    #[inline]
    fn lpm6(&self) -> LpmView6<'_> {
        let (entries, spans) = self.sections.lpm6_parts;
        LpmView6::from_parts(&self.payload[self.sections.lpm6.clone()], entries, spans)
    }

    /// The fixed-width bytes of record `idx`.
    fn rec(&self, idx: u32) -> &[u8] {
        let base = self.sections.recs.start + idx as usize * REC_SIZE;
        &self.payload[base..base + REC_SIZE]
    }

    fn rec_u32(&self, idx: u32, off: usize) -> u32 {
        u32_at(self.rec(idx), off).expect("validated")
    }

    fn rec_str(&self, idx: u32, off: usize) -> &str {
        self.str_at(self.rec_u32(idx, off))
    }

    /// The `u32pool` slice `(off, len)` of record `idx`, values in order.
    fn pool_iter(&self, idx: u32, off: usize, len: usize) -> impl Iterator<Item = u32> + '_ {
        let pool = &self.payload[self.sections.pool.clone()];
        let start = self.rec_u32(idx, off) as usize;
        let end = start + self.rec_u32(idx, len) as usize;
        (start..end).map(move |i| u32_at(pool, i * 4).expect("validated"))
    }

    /// Delegated-customer step `i`: `(block, org, allocation type)`.
    fn dc_step(&self, i: u32) -> (Prefix, &str, AllocationType) {
        let dcsteps = &self.payload[self.sections.dcsteps.clone()];
        let base = i as usize * DC_SIZE;
        (
            read_prefix(dcsteps, base).expect("validated"),
            self.str_at(u32_at(dcsteps, base + PFX_SIZE).expect("validated")),
            AllocationType::ALL[dcsteps[base + 22] as usize],
        )
    }

    /// Merge edge `i`: `(a, b, evidence)`.
    fn merge_edge(&self, i: u32) -> (&str, &str, &str) {
        let edges = &self.payload[self.sections.edges.clone()];
        let at = |off: usize| {
            self.str_at(u32_at(edges, i as usize * EDGE_SIZE + off).expect("validated"))
        };
        (at(0), at(4), at(8))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.sections.record_count as usize
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.sections.record_count == 0
    }

    /// The digest of the canonical JSONL export this artifact derives from.
    pub fn jsonl_digest(&self) -> u64 {
        self.sections.jsonl_digest
    }

    /// [`jsonl_digest`](Self::jsonl_digest) in the short display form the
    /// rest of the tooling prints.
    pub fn digest_short(&self) -> String {
        Digest(self.sections.jsonl_digest).short()
    }

    /// The digest of the build inputs the artifact was frozen from.
    pub fn inputs_digest(&self) -> u64 {
        self.sections.inputs_digest
    }

    /// Longest-prefix match over the frozen record set: the most specific
    /// record prefix covering `q`, with the record index. Zero allocation.
    pub fn lookup(&self, q: &Prefix) -> Option<(Prefix, u32)> {
        match q {
            Prefix::V4(p) => self.lpm4().lookup(p).map(|(k, v)| (Prefix::V4(k), v)),
            Prefix::V6(p) => self.lpm6().lookup(p).map(|(k, v)| (Prefix::V6(k), v)),
        }
    }

    /// The record index holding exactly `prefix`, if any.
    pub fn exact(&self, prefix: &Prefix) -> Option<u32> {
        match self.lookup(prefix) {
            Some((matched, idx)) if matched == *prefix => Some(idx),
            _ => None,
        }
    }

    /// The routed prefix of record `idx`.
    pub fn record_prefix(&self, idx: u32) -> Prefix {
        read_prefix(self.rec(idx), rec::PREFIX).expect("validated")
    }

    /// The decision trace of record `idx`, rendered from its stored facts —
    /// byte-identical to what [`attribution_trace`] renders for the record
    /// prefix against the inputs the artifact was frozen from.
    ///
    /// [`attribution_trace`]: crate::explain::attribution_trace
    pub fn provenance(&self, idx: u32) -> String {
        let r = self.rec(idx);
        let at = |off: usize| u32_at(r, off).expect("validated");
        let owner = self.str_at(at(rec::DIRECT_OWNER));
        let (dc_off, dc_len) = (at(rec::DC_OFF), at(rec::DC_LEN));
        let edge_count = at(rec::EDGES_LEN) as usize;
        let exception = r[rec::LOCAL_EXCEPTION] == 1;

        // Bound up front: step count and rule column width.
        let steps = 2 + dc_len as usize + 5 + edge_count + 1 + exception as usize;
        let width = rule_width(
            [
                step::BGP_ORIGINS,
                step::RADIX_LPM,
                step::DIRECT_OWNER,
                step::BASE_NAME,
                step::CERTIFICATE,
                step::ROV,
                step::ASN_CLUSTERS,
                step::FINAL,
            ]
            .into_iter()
            .chain((dc_len > 0).then_some(step::DELEGATED_CUSTOMER))
            .chain((edge_count > 0).then_some(step::MERGE))
            .chain(exception.then_some(step::LOCAL_EXCEPTION)),
        );

        let mut out = String::with_capacity(768);
        let prefix = read_prefix(r, rec::PREFIX).expect("validated");
        let mut lines = StepWriter::new(&mut out, prefix, steps, width);
        lines.step(step::BGP_ORIGINS, |d| {
            let routed = r[rec::ROUTED] == 1;
            step::origins(
                d,
                routed.then(|| self.pool_iter(idx, rec::ORIGINS_OFF, rec::ORIGINS_LEN)),
            )
        });
        lines.step(step::RADIX_LPM, |d| {
            let blocks = u16_at(r, rec::CHAIN_BLOCKS).expect("validated");
            let walked = u16_at(r, rec::NODES_WALKED).expect("validated");
            step::covering_chain(d, blocks as usize, walked as usize)
        });
        // The walk meets the chain most specific first.
        for i in (dc_off..dc_off + dc_len).rev() {
            let (block, org, alloc) = self.dc_step(i);
            lines.step(step::DELEGATED_CUSTOMER, |d| {
                step::delegated_customer(d, org, alloc, &block)
            });
        }
        lines.step(step::DIRECT_OWNER, |d| {
            step::direct_owner(
                d,
                owner,
                AllocationType::ALL[r[rec::DO_ALLOC] as usize],
                &read_prefix(r, rec::DO_PREFIX).expect("validated"),
                self.str_at(at(rec::REGISTRY)),
            )
        });
        lines.step(step::BASE_NAME, |d| {
            step::base_name(d, owner, self.str_at(at(rec::BASE_NAME)))
        });
        lines.step(step::CERTIFICATE, |d| {
            let cert = (at(rec::RPKI_CERT) != NONE_ID).then(|| self.str_at(at(rec::RPKI_CERT)));
            step::certificate(d, cert)
        });
        lines.step(step::ROV, |d| {
            step::rov(d, RovStatus::from_u8(r[rec::ROV]).expect("validated"))
        });
        lines.step(step::ASN_CLUSTERS, |d| {
            step::asn_clusters(d, self.pool_iter(idx, rec::ASNC_OFF, rec::ASNC_LEN))
        });
        for edge in self.pool_iter(idx, rec::EDGES_OFF, rec::EDGES_LEN) {
            let (a, b, evidence) = self.merge_edge(edge);
            lines.step(step::MERGE, |d| step::merge(d, owner, a, b, evidence));
        }
        lines.step(step::FINAL, |d| {
            step::final_cluster(
                d,
                self.str_at(at(rec::INFERRED_LABEL)),
                at(rec::CLUSTER_NAMES) as usize,
            )
        });
        if exception {
            // An asserted override replaces the final label with the
            // asserted org.
            lines.step(step::LOCAL_EXCEPTION, |d| {
                step::asserted(d, self.str_at(at(rec::FINAL_LABEL)))
            });
        }
        out
    }

    /// The BGP origin ASNs observed for record `idx` at freeze time,
    /// ascending.
    pub fn origins(&self, idx: u32) -> Vec<u32> {
        self.pool_iter(idx, rec::ORIGINS_OFF, rec::ORIGINS_LEN)
            .collect()
    }

    /// The ROV state of record `idx`.
    pub fn rov(&self, idx: u32) -> RovStatus {
        RovStatus::from_u8(self.rec(idx)[rec::ROV]).expect("validated")
    }

    /// Whether record `idx` carries a local operator override.
    pub fn has_local_exception(&self, idx: u32) -> bool {
        self.rec(idx)[rec::LOCAL_EXCEPTION] == 1
    }

    /// `[valid, invalid, not_found]` record counts, indexed by
    /// [`RovStatus::as_u8`] — the frozen counterpart of
    /// [`Prefix2OrgDataset::rov_tallies`].
    pub fn rov_tallies(&self) -> [u64; 3] {
        let mut tallies = [0u64; 3];
        for idx in 0..self.sections.record_count {
            tallies[self.rov(idx).as_u8() as usize] += 1;
        }
        tallies
    }

    /// Number of records overridden by local operator exceptions.
    pub fn exception_count(&self) -> u64 {
        (0..self.sections.record_count)
            .filter(|&idx| self.has_local_exception(idx))
            .count() as u64
    }

    /// Thaws record `idx` into the full [`PrefixRecord`] shape (the cluster
    /// id is not frozen — records get a placeholder id; every Listing-1
    /// field is exact).
    fn prefix_record(&self, idx: u32) -> PrefixRecord {
        let r = self.rec(idx);
        let dc_off = self.rec_u32(idx, rec::DC_OFF);
        let dc_len = self.rec_u32(idx, rec::DC_LEN);
        let delegated_customers = (dc_off..dc_off + dc_len)
            .map(|i| {
                let (prefix, org, alloc) = self.dc_step(i);
                CustomerStep {
                    org_name: org.to_string(),
                    prefix,
                    alloc,
                }
            })
            .collect();
        PrefixRecord {
            prefix: self.record_prefix(idx),
            registry: self
                .rec_str(idx, rec::REGISTRY)
                .parse()
                .expect("registry validated at load"),
            direct_owner: self.rec_str(idx, rec::DIRECT_OWNER).to_string(),
            do_prefix: read_prefix(r, rec::DO_PREFIX).expect("validated"),
            do_alloc: AllocationType::ALL[r[rec::DO_ALLOC] as usize],
            delegated_customers,
            base_name: self.rec_str(idx, rec::BASE_NAME).to_string(),
            rpki_certificate: match self.rec_u32(idx, rec::RPKI_CERT) {
                NONE_ID => None,
                id => Some(self.str_at(id).to_string()),
            },
            origin_asn_clusters: self.pool_iter(idx, rec::ASNC_OFF, rec::ASNC_LEN).collect(),
            final_cluster_label: self.rec_str(idx, rec::FINAL_LABEL).to_string(),
            cluster: ClusterId(0),
            rov: self.rov(idx),
            // An asserted override replaces the final label with the
            // asserted org, so the flag byte plus the label reconstruct it.
            local_exception: self
                .has_local_exception(idx)
                .then(|| self.rec_str(idx, rec::FINAL_LABEL).to_string()),
        }
    }

    /// The Listing-1 JSON body of record `idx` — byte-identical to
    /// [`PrefixRecord::listing1_json`] on the live dataset.
    pub fn listing1_json(&self, idx: u32) -> Json {
        self.prefix_record(idx).listing1_json()
    }

    /// Thaws record `idx` into its canonical [`ExportRecord`].
    pub fn export_record(&self, idx: u32) -> ExportRecord {
        ExportRecord::from(&self.prefix_record(idx))
    }

    /// Appends record `idx`'s canonical JSONL line, newline included.
    fn push_jsonl_line(&self, idx: u32, out: &mut String) {
        write_jsonl_line(&self.prefix_record(idx), out);
    }

    /// Re-derives the canonical JSONL export. Must reproduce the original
    /// byte-for-byte; [`jsonl_digest`](Self::jsonl_digest) pins the claim.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for idx in 0..self.sections.record_count {
            self.push_jsonl_line(idx, &mut out);
        }
        out
    }

    /// Whether thawing reproduces `jsonl` byte for byte — the build's
    /// freeze check. Compares one record line at a time, so no second copy
    /// of the export is ever held.
    pub fn reproduces_jsonl(&self, jsonl: &str) -> bool {
        let mut rest = jsonl.as_bytes();
        let mut line = String::new();
        for idx in 0..self.sections.record_count {
            line.clear();
            self.push_jsonl_line(idx, &mut line);
            match rest.strip_prefix(line.as_bytes()) {
                Some(tail) => rest = tail,
                None => return false,
            }
        }
        rest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::attribution_trace;
    use crate::pipeline::Pipeline;
    use p2o_synth::{World, WorldConfig};

    fn frozen_from_seed(seed: u64) -> (FrozenDataset, String) {
        let world = World::generate(WorldConfig::tiny(seed));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let (dataset, edges) = Pipeline::default().dataset_with_evidence(&inputs, None);
        let jsonl = to_jsonl(&dataset);
        let payload = freeze(&inputs, &dataset, &edges, 0xDEAD_BEEF);
        (FrozenDataset::from_payload(payload).unwrap(), jsonl)
    }

    #[test]
    fn freeze_thaw_reproduces_canonical_jsonl() {
        let (frozen, jsonl) = frozen_from_seed(42);
        assert!(!frozen.is_empty(), "tiny world has records");
        assert_eq!(frozen.to_jsonl(), jsonl);
        assert_eq!(frozen.jsonl_digest(), Digest::of_bytes(jsonl.as_bytes()).0);
        assert_eq!(frozen.inputs_digest(), 0xDEAD_BEEF);
    }

    #[test]
    fn lookup_and_listing1_agree_with_live_dataset() {
        let world = World::generate(WorldConfig::tiny(7));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let (dataset, edges) = Pipeline::default().dataset_with_evidence(&inputs, None);
        let payload = freeze(&inputs, &dataset, &edges, 1);
        let frozen = FrozenDataset::from_payload(payload).unwrap();
        assert_eq!(frozen.len(), dataset.len());
        for (idx, rec) in dataset.records().iter().enumerate() {
            let idx = idx as u32;
            assert_eq!(frozen.lookup(&rec.prefix), Some((rec.prefix, idx)));
            assert_eq!(frozen.exact(&rec.prefix), Some(idx));
            assert_eq!(frozen.record_prefix(idx), rec.prefix);
            assert_eq!(
                frozen.listing1_json(idx).to_string(),
                rec.listing1_json().to_string()
            );
            assert_eq!(
                frozen.provenance(idx),
                attribution_trace(&inputs, &dataset, &edges, &rec.prefix).render()
            );
            let want: Vec<u32> = built
                .routes
                .origins(&rec.prefix)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            assert_eq!(frozen.origins(idx), want);
        }
    }

    #[test]
    fn freezing_is_deterministic() {
        let world = World::generate(WorldConfig::tiny(42));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let (dataset, edges) = Pipeline::default().dataset_with_evidence(&inputs, None);
        let a = freeze(&inputs, &dataset, &edges, 5);
        let b = freeze(&inputs, &dataset, &edges, 5);
        assert_eq!(a, b, "same inputs must freeze to identical bytes");
    }

    /// Golden pin: the frozen payload at a fixed seed and fixed inputs
    /// digest hashes to a known value. Any change to the byte layout —
    /// section order, record width, string-intern order, LPM span
    /// encoding — trips this and must come with a FROZEN_FORMAT_VERSION
    /// bump and a re-pin.
    #[test]
    fn frozen_payload_digest_is_pinned_at_fixed_seed() {
        let (frozen, _) = frozen_from_seed(42);
        let digest = Digest::of_bytes(&frozen.payload).0;
        assert_eq!(
            digest, GOLDEN_FROZEN_DIGEST,
            "frozen byte layout changed: bump FROZEN_FORMAT_VERSION and re-pin \
             (got {digest:#018x})"
        );
    }

    const GOLDEN_FROZEN_DIGEST: u64 = 0x9825_a0c1_0db5_aca1;

    /// Rewrites record 0's u32 field at `off` in a copy of `payload`.
    fn with_rec_u32(payload: &[u8], off: usize, value: u32) -> Vec<u8> {
        let recs = ArenaIndex::parse(payload).unwrap().require("recs").unwrap();
        let mut bad = payload.to_vec();
        bad[recs.start + off..recs.start + off + 4].copy_from_slice(&value.to_le_bytes());
        bad
    }

    #[test]
    fn validate_rejects_damage() {
        let (frozen, _) = frozen_from_seed(42);
        let payload = frozen.payload.clone();
        assert!(FrozenDataset::validate_payload(&payload).is_ok());

        // Truncation.
        let err = FrozenDataset::validate_payload(&payload[..payload.len() - 1]).unwrap_err();
        assert!(!err.is_empty());

        // Future interior format version.
        let arena = ArenaIndex::parse(&payload).unwrap();
        let meta_range = arena.require("meta").unwrap();
        let mut bad = payload.clone();
        bad[meta_range.start..meta_range.start + 4]
            .copy_from_slice(&(FROZEN_FORMAT_VERSION + 1).to_le_bytes());
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(err.contains("newer than this reader"), "{err}");

        // Corrupt record count: section arithmetic breaks.
        let mut bad = payload.clone();
        bad[meta_range.start + 4..meta_range.start + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(err.contains("recs section"), "{err}");

        // Corrupt a string id in record 0 (registry, then inferred label).
        for off in [rec::REGISTRY, rec::INFERRED_LABEL] {
            let bad = with_rec_u32(&payload, off, 0xFFFF_FF00);
            let err = FrozenDataset::validate_payload(&bad).unwrap_err();
            assert!(err.contains("string id out of range"), "{err}");
        }

        // Flag bytes: routed must be 0 or 1.
        let recs_range = arena.require("recs").unwrap();
        let mut bad = payload.clone();
        bad[recs_range.start + rec::ROUTED] = 2;
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(err.contains("routed flag byte out of range"), "{err}");

        // A merge-edge slice reaching past the end of the u32 pool.
        let pool_count = u32_at(&payload[meta_range.clone()], 28).unwrap();
        let bad = with_rec_u32(&payload, rec::EDGES_OFF, pool_count);
        let bad = with_rec_u32(&bad, rec::EDGES_LEN, 1);
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(err.contains("merge-edge slice out of range"), "{err}");

        // A slice in range whose value is no edge index: point record 0's
        // edge slice at its own origin-ASN values (BGP ASNs, far above the
        // edge count).
        let edge_count = u32_at(&payload[meta_range.clone()], 32).unwrap();
        let origins_off = u32_at(&payload[recs_range.clone()], rec::ORIGINS_OFF).unwrap();
        let origins_len = u32_at(&payload[recs_range.clone()], rec::ORIGINS_LEN).unwrap();
        assert!(origins_len > 0, "record 0 of a built world is routed");
        let pool = arena.require("u32pool").unwrap();
        let first_origin = u32_at(&payload[pool], origins_off as usize * 4).unwrap();
        assert!(first_origin >= edge_count, "an ASN is not an edge index");
        let bad = with_rec_u32(&payload, rec::EDGES_OFF, origins_off);
        let bad = with_rec_u32(&bad, rec::EDGES_LEN, 1);
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(err.contains("merge-edge index"), "{err}");

        // A merge-edge row naming a string the table does not hold.
        assert!(edge_count > 0, "seed 42 merges clusters");
        let edges = arena.require("edges").unwrap();
        for off in [0, 4, 8] {
            let mut bad = payload.clone();
            bad[edges.start + off..edges.start + off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let err = FrozenDataset::validate_payload(&bad).unwrap_err();
            assert!(
                err.starts_with("merge edge 0:") && err.contains("string id out of range"),
                "{err}"
            );
        }

        // Flip a bit inside the LPM section.
        let lpm_range = arena.require("lpm4").unwrap();
        if lpm_range.len() > 12 {
            let mut bad = payload.clone();
            bad[lpm_range.start + 8] ^= 0x01;
            assert!(FrozenDataset::validate_payload(&bad).is_err());
        }
    }

    /// A payload in the previous layout — format_version 2 with its 32-byte
    /// meta — is refused with the rebuild hint, not a layout complaint.
    #[test]
    fn older_format_version_asks_for_a_rebuild() {
        let (frozen, _) = frozen_from_seed(42);
        let arena = ArenaIndex::parse(&frozen.payload).unwrap();
        let mut w = ArenaWriter::new();
        for name in arena.names() {
            let mut bytes = frozen.payload[arena.require(name).unwrap()].to_vec();
            if name == "meta" {
                bytes.truncate(32);
                bytes[..4].copy_from_slice(&2u32.to_le_bytes());
            }
            w.section(name, bytes);
        }
        let v2 = w.finish();
        assert_eq!(FrozenDataset::declared_format_version(&v2), Some(2));
        let err = FrozenDataset::from_payload(v2).unwrap_err();
        assert!(
            err.contains("format_version 2 is older than this reader")
                && err.contains("rebuild the artifact"),
            "{err}"
        );
    }
}
