//! The traced run: the same layer calls `prefix2org build` and `prefix2org
//! serve` make, in the same order, each timed by a span from this file.
//!
//! The program's `store`, `checkpoint` and `fsck` modules are private to
//! the binary, so their work (file listing and reads, the input digests,
//! the checkpoint stamp, the serve-time audit beyond manifest
//! verification) is not replayed here; it is what the caller reports as
//! the unattributed remainder. The replica always ingests in memory, and
//! its outputs must equal the subprocess's byte for byte — that is what
//! proves it measured the same program.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use p2o_bgp::RouteTable;
use p2o_serve::{RequestParser, Snapshot};
use p2o_synth::{World, WorldConfig};
use p2o_util::json::Json;
use p2o_util::manifest::Manifest;
use p2o_util::vfs::Vfs;
use p2o_util::{atomic, tsv};
use p2o_whois::alloc::AllocationType;
use p2o_whois::{Nir, Registry, Rir, WhoisDb};
use prefix2org::{FrozenDataset, Pipeline, PipelineInputs};

use crate::load::{self, Pools};
use crate::oracle::{self, Oracle};
use crate::spans::Spans;

/// Span group ids: one per replicated operation. Replicated builds count
/// up from [`FIRST_BUILD`], requests from [`FIRST_REQUEST`].
const GROUP_SYNTH: u64 = 1;
const GROUP_BOOT: u64 = 2;
const FIRST_BUILD: u64 = 10;
const FIRST_REQUEST: u64 = 1000;

/// Minimum wall time a loop-timed nanosecond-scale layer runs for.
const MIN_LOOP_NS: u128 = 50_000_000;

pub struct Options {
    pub world: PathBuf,
    pub export: PathBuf,
    pub seed: u64,
    pub mix: load::Mix,
    pub threads: usize,
    /// How many times the build is replicated; each layer reports its
    /// median over the repetitions.
    pub reps: usize,
    pub work: PathBuf,
    pub trace_out: PathBuf,
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Runs every traced layer and prints one JSON object of results.
pub fn run(opt: &Options) -> Result<(), String> {
    let vfs = Vfs::real();
    let mut spans = Spans::new();
    let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
    let mut checks: Vec<(String, bool)> = Vec::new();

    // p2o-synth: the generator behind `prefix2org generate --scale bench`,
    // the scale every workload uses.
    let config = WorldConfig::bench_scale(opt.seed);
    let world = spans.time("synth.generate", GROUP_SYNTH, || World::generate(config));
    counts.insert("synth.orgs", world.config.total_orgs() as f64);
    drop(world);

    // The canonical inputs digest is computed by the binary's private
    // checkpoint module; the replica borrows it from the artifact the
    // subprocess wrote so its own freeze can be compared byte for byte.
    let frozen_path = opt.world.join(prefix2org::FROZEN_FILE);
    let subprocess_framed = vfs.read(&frozen_path).map_err(err("reading world.p2ob"))?;
    let inputs_digest = FrozenDataset::from_payload(
        atomic::unframe(&subprocess_framed).map_err(err("unframing world.p2ob"))?,
    )?
    .inputs_digest();
    let subprocess_export = std::fs::read(&opt.export).map_err(err("reading export"))?;

    let mut build_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut build_total_ms: Vec<f64> = Vec::new();
    for rep in 0..opt.reps.max(1) {
        let group = FIRST_BUILD + rep as u64;
        let built = replicate_build(opt, &vfs, &mut spans, &mut counts, inputs_digest, group)?;
        checks.push((
            format!("replica build {rep}: export equals subprocess export"),
            built.jsonl.as_bytes() == subprocess_export.as_slice(),
        ));
        checks.push((
            format!("replica build {rep}: world.p2ob equals subprocess world.p2ob"),
            built.framed == subprocess_framed,
        ));
        checks.push((
            format!("replica build {rep}: thaw reproduces its export"),
            built.thaw_equal,
        ));
        for (name, ms) in spans.self_ms(group) {
            build_ms.entry(name).or_default().push(ms);
        }
        build_total_ms.push(spans.total_ms(group, "build"));
    }

    // Serve boot, from the artifact the subprocess wrote.
    let boot = spans.begin("boot", GROUP_BOOT);
    spans.time("util.manifest_verify", GROUP_BOOT, || {
        Manifest::load(&vfs, &opt.world).map(|m| m.map(|m| m.verify_all(&vfs, &opt.world)))
    })?;
    let frozen = spans.time("core.frozen_load", GROUP_BOOT, || {
        FrozenDataset::load(&vfs, &frozen_path)
    })?;
    let snapshot = spans.time("serve.snapshot_attach", GROUP_BOOT, || {
        Snapshot::from_frozen(opt.world.clone(), 0, frozen)
    });
    spans.end(boot);

    // A second handle on the same artifact for timing the bare LPM: the
    // snapshot does not expose its frozen backing.
    let lpm = FrozenDataset::load(&vfs, &frozen_path)?;
    let queries = trace_queries(opt, &snapshot, &lpm, &mut spans, &mut counts)?;
    checks.push((
        "in-process answers match the oracle".into(),
        queries.failures == 0,
    ));

    std::fs::write(&opt.trace_out, spans.to_chrome_json()).map_err(err("writing trace"))?;

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    for (name, ms) in spans.self_ms(GROUP_SYNTH) {
        layers.insert(name.to_string(), ms);
    }
    for (name, ms) in spans.self_ms(GROUP_BOOT) {
        layers.insert(format!("boot:{name}"), ms);
    }
    let median = |mut ms: Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    for (name, ms) in build_ms {
        layers.insert(format!("build:{name}"), median(ms));
    }
    // The whole traced build, root span included: the traced figure the
    // caller sets against the untraced `build_s`.
    layers.insert("build.total".into(), median(build_total_ms));
    layers.insert("serve.http_parse_ns".into(), queries.http_parse_ns);
    layers.insert("core.frozen_lpm_ns".into(), queries.frozen_lpm_ns);
    layers.insert("serve.lookup_render_us".into(), queries.lookup_render_us);
    layers.insert("serve.batch_lookup_us".into(), queries.batch_lookup_us);
    layers.insert("serve.probe_tallies_us".into(), queries.probe_tallies_us);

    let mut out = Json::object();
    let mut l = Json::object();
    for (k, v) in &layers {
        l.set(k.as_str(), *v);
    }
    out.set("layers", l);
    let mut c = Json::object();
    for (k, v) in &counts {
        c.set(*k, *v);
    }
    out.set("counts", c);
    let mut ch = Json::object();
    for (k, ok) in &checks {
        ch.set(k.as_str(), *ok);
    }
    out.set("checks", ch);
    out.set("query_failures", queries.failure_samples.join("; "));
    println!("{out}");
    Ok(())
}

struct Built {
    jsonl: String,
    framed: Vec<u8>,
    thaw_equal: bool,
}

/// The in-memory `build` path, layer by layer.
fn replicate_build(
    opt: &Options,
    vfs: &Vfs,
    spans: &mut Spans,
    counts: &mut BTreeMap<&str, f64>,
    inputs_digest: u64,
    group: u64,
) -> Result<Built, String> {
    let dir = opt.world.as_path();
    let threads = opt.threads;
    let root = spans.begin("build", group);

    let torn = spans.time("util.manifest_verify", group, || {
        Manifest::load(vfs, dir).map(|m| m.map(|m| m.verify_all(vfs, dir)).unwrap_or_default())
    })?;
    if !torn.is_empty() {
        return Err(format!(
            "{} torn input artifact(s) in {}",
            torn.len(),
            dir.display()
        ));
    }
    let mut snapshot_date = 20240901u32;
    let meta = std::fs::read_to_string(dir.join("meta.tsv")).map_err(err("reading meta.tsv"))?;
    for row in tsv::parse_rows(&meta, 2).map_err(err("meta.tsv"))? {
        if row[0] == "snapshot_date" {
            snapshot_date = row[1].parse().map_err(err("snapshot_date"))?;
        }
    }

    let mut db = WhoisDb::new();
    let mut whois_files: Vec<PathBuf> = std::fs::read_dir(dir.join("whois"))
        .map_err(err("listing whois/"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    whois_files.sort();
    for path in &whois_files {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let registry: Registry = stem.parse().map_err(err(stem))?;
        let text = std::fs::read_to_string(path).map_err(err("reading whois dump"))?;
        spans.time("whois.parse", group, || match registry {
            Registry::Rir(Rir::Arin) => db.add_arin_parallel(&text, threads),
            Registry::Rir(Rir::Lacnic) | Registry::Nir(Nir::NicBr) | Registry::Nir(Nir::NicMx) => {
                db.add_lacnic_parallel(&text, registry, threads)
            }
            reg => db.add_rpsl_parallel(&text, reg, threads),
        });
    }
    if !db.problems().is_empty() {
        return Err(format!("{} WHOIS records rejected", db.problems().len()));
    }

    let mrt = std::fs::read(dir.join("rib.mrt")).map_err(err("reading rib.mrt"))?;
    let lenient = spans.time("bgp.mrt_decode", group, || {
        RouteTable::from_mrt_lenient(bytes::Bytes::from(mrt), None, threads)
    });
    if !lenient.quarantined.is_empty() {
        return Err(format!(
            "{} MRT records rejected",
            lenient.quarantined.len()
        ));
    }
    let routes = lenient.table;

    let (repo, rejected) = spans
        .time("rpki.load", group, || {
            p2o_rpki::persist::load_jsonl_lenient(vfs, &dir.join("rpki.jsonl"))
        })
        .map_err(err("reading rpki.jsonl"))?;
    if !rejected.is_empty() {
        return Err(format!("{} RPKI objects rejected", rejected.len()));
    }

    let mut jpnic: HashMap<p2o_net::Prefix, AllocationType> = HashMap::new();
    if let Ok(text) = std::fs::read_to_string(dir.join("jpnic_alloc.tsv")) {
        for row in tsv::parse_rows(&text, 2).map_err(err("jpnic_alloc.tsv"))? {
            let prefix: p2o_net::Prefix = row[0].parse().map_err(err("jpnic_alloc.tsv"))?;
            let alloc = AllocationType::parse_keyword(Rir::Apnic, &row[1])
                .ok_or_else(|| format!("jpnic_alloc.tsv: unknown type {:?}", row[1]))?;
            jpnic.insert(prefix, alloc);
        }
    }
    let (tree, whois_stats) = spans.time("whois.tree_build", group, || {
        db.fill_jpnic_alloc(|p| jpnic.get(p).copied());
        db.build()
    });

    let as2org_text = std::fs::read_to_string(dir.join("as2org.tsv")).map_err(err("as2org.tsv"))?;
    let siblings_text = std::fs::read_to_string(dir.join("siblings.tsv")).ok();
    let clusters = spans.time("as2org.cluster", group, || {
        let mut as2org = p2o_as2org::As2OrgDb::new();
        as2org.load_records_tsv(&as2org_text)?;
        if let Some(text) = &siblings_text {
            as2org.load_siblings_tsv(text)?;
        }
        Ok::<_, String>(as2org.cluster())
    })?;

    let (rpki, _problems) = spans.time("rpki.validate", group, || repo.validate(snapshot_date));

    let pipeline = Pipeline::with_threads(threads);
    let inputs = PipelineInputs {
        delegations: &tree,
        routes: &routes,
        asn_clusters: &clusters,
        rpki: &rpki,
    };
    let (dataset, edges) = spans.time("core.pipeline", group, || {
        pipeline.dataset_with_evidence(&inputs, None)
    });
    let jsonl = spans.time("core.export_render", group, || {
        prefix2org::to_jsonl(&dataset)
    });
    let mut bytes_written = 0u64;
    let export_path = opt.work.join("replica.jsonl");
    spans
        .time("util.atomic_write", group, || {
            atomic::write_atomic(vfs, &export_path, "export", jsonl.as_bytes())
        })
        .map_err(err("writing replica export"))?;
    bytes_written += jsonl.len() as u64;

    let payload = spans.time("core.freeze", group, || {
        prefix2org::freeze(&inputs, &dataset, &edges, inputs_digest)
    });
    let thawed = spans.time("core.thaw_validate", group, || {
        FrozenDataset::from_payload(payload.clone())
    })?;
    let thaw_equal = spans.time("core.thaw_render", group, || thawed.to_jsonl() == jsonl);
    drop(thawed);
    let framed = spans.time("util.frame", group, || atomic::frame(&payload));
    let frozen_out = opt.work.join(prefix2org::FROZEN_FILE);
    let manifest = Manifest::load(vfs, dir)?;
    spans
        .time("util.atomic_write", group, || {
            atomic::write_atomic(vfs, &frozen_out, prefix2org::FROZEN_LABEL, &framed)?;
            if let Some(mut m) = manifest {
                m.record(prefix2org::FROZEN_FILE, &framed);
                m.save(vfs, &opt.work)?;
            }
            Ok::<_, std::io::Error>(())
        })
        .map_err(err("writing replica world.p2ob"))?;
    bytes_written += framed.len() as u64;
    spans.end(root);

    counts.insert("whois.records", whois_stats.raw_records as f64);
    counts.insert("bgp.routes", routes.len() as f64);
    counts.insert("core.prefixes", dataset.len() as f64);
    counts.insert("core.export_bytes", jsonl.len() as f64);
    counts.insert("core.frozen_bytes", payload.len() as f64);
    counts.insert("util.bytes_written", bytes_written as f64);
    Ok(Built {
        jsonl,
        framed,
        thaw_equal,
    })
}

struct QueryLayers {
    http_parse_ns: f64,
    frozen_lpm_ns: f64,
    lookup_render_us: f64,
    batch_lookup_us: f64,
    probe_tallies_us: f64,
    failures: u64,
    failure_samples: Vec<String>,
}

/// Repeats `f` (one pass over `n` items) until at least [`MIN_LOOP_NS`]
/// has passed; returns nanoseconds per item.
fn per_item_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_nanos() < MIN_LOOP_NS {
        f();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes as f64 * n as f64)
}

/// The serve query path, layer by layer, over the same seeded mix the load
/// generator sends.
fn trace_queries(
    opt: &Options,
    snapshot: &Snapshot,
    lpm: &FrozenDataset,
    spans: &mut Spans,
    counts: &mut BTreeMap<&str, f64>,
) -> Result<QueryLayers, String> {
    let text = std::fs::read_to_string(&opt.export).map_err(err("reading export"))?;
    let oracle = Oracle::from_export(&text)?;
    let pools = Pools::new(&oracle, opt.seed, &opt.mix);
    let prefixes: Vec<p2o_net::Prefix> = pools
        .lookups
        .iter()
        .map(|q| q.text.parse().map_err(err(&q.text)))
        .collect::<Result<_, _>>()?;
    let mut failures = 0u64;
    let mut samples = Vec::new();
    let mut fail = |e: String| {
        failures += 1;
        if samples.len() < 5 {
            samples.push(e);
        }
    };

    // HTTP request parsing: one parser per connection, fed one request per
    // read, as the server's connection loop does.
    let wire = load::lookup_wire(&pools.lookups, opt.mix.health_every);
    let http_parse_ns = spans.time("serve.http_parse", FIRST_REQUEST, || {
        per_item_ns(wire.len(), || {
            let mut parser = RequestParser::new();
            for bytes in &wire {
                parser.feed(black_box(bytes));
                let req = parser.poll();
                assert!(matches!(req, Ok(Some(_))), "every mix request parses");
                black_box(&req);
            }
        })
    });

    let frozen_lpm_ns = spans.time("core.frozen_lpm", FIRST_REQUEST, || {
        per_item_ns(prefixes.len(), || {
            for p in &prefixes {
                black_box(lpm.lookup(black_box(p)));
            }
        })
    });

    // One span per request: lookup plus the response rendering the server
    // does for it.
    let mut lookup_ns = 0u128;
    for (i, (q, p)) in pools.lookups.iter().zip(&prefixes).enumerate() {
        let t = Instant::now();
        let body = spans.time("serve.lookup_render", FIRST_REQUEST + 1 + i as u64, || {
            snapshot.lookup(p).map(|json| format!("{json}\n"))
        });
        lookup_ns += t.elapsed().as_nanos();
        let (status, body) = match body {
            Some(b) => (200, b.into_bytes()),
            None => (404, Vec::new()),
        };
        if let Err(e) = oracle::check_prefix(&oracle, q, status, &body) {
            fail(e);
        }
    }
    let lookup_render_us = lookup_ns as f64 / 1e3 / pools.lookups.len() as f64;

    let base = FIRST_REQUEST + 1 + pools.lookups.len() as u64;
    let mut batch_ns = 0u128;
    for (k, qs) in pools.batches.iter().enumerate() {
        let batch_prefixes: Vec<p2o_net::Prefix> = qs
            .iter()
            .map(|q| q.text.parse().map_err(err(&q.text)))
            .collect::<Result<_, _>>()?;
        let t = Instant::now();
        let body = spans.time("serve.batch_lookup", base + k as u64, || {
            let mut out = String::new();
            for (q, p) in qs.iter().zip(&batch_prefixes) {
                match snapshot.lookup(p) {
                    Some(json) => out.push_str(&format!("{json}\n")),
                    None => {
                        let mut o = Json::object();
                        o.set("query", q.text.as_str());
                        o.set("error", "no covering routed prefix in the snapshot");
                        out.push_str(&format!("{o}\n"));
                    }
                }
            }
            out
        });
        batch_ns += t.elapsed().as_nanos();
        if let Err(e) = oracle::check_batch(&oracle, qs, 200, body.as_bytes()) {
            fail(e);
        }
    }
    let batch_lookup_us = batch_ns as f64 / 1e3 / pools.batches.len() as f64;

    let probe_tallies_us = spans.time(
        "serve.probe_tallies",
        base + pools.batches.len() as u64,
        || {
            per_item_ns(1, || {
                black_box(snapshot.rov_tallies());
                black_box(snapshot.exception_count());
            }) / 1e3
        },
    );
    if snapshot.len() != oracle.records.len() {
        fail(format!(
            "snapshot has {} records, export {}",
            snapshot.len(),
            oracle.records.len()
        ));
    }
    counts.insert("serve.mix_queries", pools.lookups.len() as f64);
    Ok(QueryLayers {
        http_parse_ns,
        frozen_lpm_ns,
        lookup_render_us,
        batch_lookup_us,
        probe_tallies_us,
        failures,
        failure_samples: samples,
    })
}
