//! The `prefix2org` subcommand implementations.

use std::fs;
use std::path::Path;

use p2o_net::{AddressFamily, Prefix};
use p2o_radix::PrefixMap;
use p2o_synth::corrupt::{corrupt_world, CorruptionConfig};
use p2o_synth::{World, WorldConfig};
use p2o_util::atomic;
use p2o_util::ingest::{IngestLayer, DEFAULT_QUARANTINE_SAMPLES};
use p2o_util::vfs::Vfs;
use prefix2org::{ExportRecord, Pipeline, PipelineInputs};

use crate::args::Parsed;
use crate::checkpoint;
use crate::fsck;
use crate::store;
use crate::CliError;

/// `generate`: materialize a synthetic Internet on disk.
pub fn generate(args: &Parsed) -> Result<(), CliError> {
    let out = Path::new(args.require("out")?);
    let seed = args.get_num::<u64>("seed")?.unwrap_or(0x2024_0901);
    let transfers = args.get_num::<usize>("transfers")?.unwrap_or(0);
    let corrupt_rate = args.get_num::<f64>("corrupt-rate")?.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&corrupt_rate) {
        return Err(format!("--corrupt-rate must be in 0..=1, got {corrupt_rate}").into());
    }
    let corrupt_seed = args.get_num::<u64>("corrupt-seed")?.unwrap_or(seed);
    let adversarial = match args.get("adversarial") {
        None => None,
        Some(spec) => {
            let class = p2o_synth::adversary::FaultClass::parse(spec).ok_or_else(|| {
                let known: Vec<&str> = p2o_synth::adversary::FaultClass::ALL
                    .iter()
                    .map(|c| c.as_str())
                    .collect();
                format!(
                    "unknown adversarial class {spec:?} (one of: {})",
                    known.join(", ")
                )
            })?;
            let adv_seed = args.get_num::<u64>("adversarial-seed")?.unwrap_or(seed);
            Some((class, adv_seed))
        }
    };
    let config = match args.get("scale").unwrap_or("default") {
        "tiny" => WorldConfig::tiny(seed),
        "default" => WorldConfig::default_scale(seed),
        "bench" => WorldConfig::bench_scale(seed),
        "xl" => WorldConfig::xl_scale(seed),
        other => return Err(format!("unknown scale {other:?} (tiny|default|bench|xl)").into()),
    }
    .with_transfers(transfers);

    eprintln!(
        "generating world (seed {seed:#x}, {} orgs)...",
        config.total_orgs()
    );
    let vfs = Vfs::from_env().map_err(CliError::General)?;
    let mut world = World::generate(config);
    let outcome = adversarial
        .map(|(class, adv_seed)| p2o_synth::adversary::apply(&mut world, class, adv_seed));
    let mut manifest = store::write_world(&vfs, &world, out)?;
    if let Some(outcome) = &outcome {
        // The mutation is already baked into rpki.jsonl; adversary.json is
        // the manifest of what was done — CI and the degradation tests read
        // it to know which prefixes to probe.
        let text = outcome.to_json().to_string_pretty();
        let path = out.join("adversary.json");
        atomic::write_atomic(&vfs, &path, "adversary", text.as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        manifest.record("adversary.json", text.as_bytes());
        eprintln!(
            "applied adversarial mutation {} (seed {:#x}): {} victim cert(s), {} affected prefix(es)",
            outcome.class,
            outcome.seed,
            outcome.victim_subjects.len(),
            outcome.affected_prefixes.len(),
        );
    }
    if corrupt_rate > 0.0 {
        // Corruption injection deliberately alters record *content*; the
        // overwrites still go through the atomic writer and re-record their
        // bytes, so the manifest describes the final (corrupted) files and
        // `fsck` distinguishes durable-but-dirty data from torn writes.
        let corrupted = corrupt_world(
            &world,
            &CorruptionConfig::uniform(corrupt_seed, corrupt_rate),
        );
        let mut rewrite = |relpath: String, data: &[u8]| -> Result<(), CliError> {
            let path = out.join(&relpath);
            atomic::write_atomic(&vfs, &path, "corrupt", data)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            manifest.record(&relpath, data);
            Ok(())
        };
        for (registry, dump) in &corrupted.whois {
            rewrite(format!("whois/{registry}.txt"), dump.data.as_bytes())?;
        }
        rewrite("rib.mrt".to_string(), &corrupted.mrt.data)?;
        rewrite(
            "rpki.jsonl".to_string(),
            corrupted.rpki_jsonl.data.as_bytes(),
        )?;
        eprintln!(
            "injected {} faults (seed {corrupt_seed:#x}, rate {corrupt_rate}): \
             mrt {}, whois {}, rpki {}",
            corrupted.total_faults(),
            corrupted.mrt.faults,
            corrupted.whois_faults(),
            corrupted.rpki_jsonl.faults,
        );
    }
    // Written last, so it always describes the final on-disk bytes.
    manifest
        .save(&vfs, out)
        .map_err(|e| format!("writing manifest: {e}"))?;
    println!(
        "wrote {} WHOIS dumps, {} RPKI objects, {} byte RIB, {} truth lists to {}",
        world.whois_dumps.len(),
        world.rpki.cert_count() + world.rpki.roa_count(),
        world.mrt.len(),
        world.truth.published_lists.len(),
        out.display()
    );
    Ok(())
}

/// Outcome of the `--resume` checkpoint evaluation.
enum ResumeDecision {
    /// Everything verifies; the build is skipped entirely.
    Skip {
        /// Artifacts that verified against the stamp.
        verified: u64,
    },
    /// Run the build; `checkpoint` is the durability-report decision label
    /// (`created` for a fresh build, `recomputed` when a stamp existed but
    /// did not verify) and `stamp_torn` marks a damaged stamp frame.
    Run {
        checkpoint: &'static str,
        stamp_torn: bool,
    },
}

/// Evaluates `build --resume`: skip iff the stamp exists, its inputs
/// digest matches, and every artifact this invocation asks for is recorded
/// (same path) and verifies on disk. Anything else recomputes with a
/// warning — never an abort.
fn evaluate_resume(
    vfs: &Vfs,
    out: &Path,
    inputs_digest: u64,
    requested: &[(&str, &str)],
    report_to_stdout: bool,
) -> ResumeDecision {
    let recompute = |reason: &str, stamp_torn: bool| {
        eprintln!("warning: resume: {reason}; recomputing");
        ResumeDecision::Run {
            checkpoint: "recomputed",
            stamp_torn,
        }
    };
    match checkpoint::Stamp::load(vfs, out) {
        Err(damage) => recompute(&format!("checkpoint stamp unusable ({damage})"), true),
        Ok(None) => {
            eprintln!(
                "resume: no checkpoint at {}; running a full build",
                checkpoint::stamp_path(out).display()
            );
            ResumeDecision::Run {
                checkpoint: "created",
                stamp_torn: false,
            }
        }
        Ok(Some(stamp)) => {
            if report_to_stdout {
                return recompute(
                    "`--report -` streams to stdout and cannot be skipped",
                    false,
                );
            }
            if stamp.inputs_digest != inputs_digest {
                return recompute("inputs or options changed since the checkpoint", false);
            }
            let mut verified = 0u64;
            for (role, path) in requested {
                match stamp.artifact(role) {
                    Some(a) if a.path == *path => {
                        if checkpoint::artifact_verifies(vfs, a) {
                            verified += 1;
                        } else {
                            return recompute(
                                &format!("{role} artifact {path} is missing or altered"),
                                false,
                            );
                        }
                    }
                    _ => {
                        return recompute(
                            &format!("{role} artifact {path} is not covered by the checkpoint"),
                            false,
                        )
                    }
                }
            }
            ResumeDecision::Skip { verified }
        }
    }
}

/// `build`: parse a snapshot directory, run the pipeline, write JSONL.
pub fn build(args: &Parsed) -> Result<(), CliError> {
    let dir = Path::new(args.require("in")?);
    let out_str = args.require("out")?;
    let out = Path::new(out_str);
    let threads = args
        .get_num::<usize>("threads")?
        .unwrap_or_else(prefix2org::default_threads)
        .max(1);
    let strict = args.has("strict");
    let mode = if strict {
        store::IngestMode::Strict
    } else {
        store::IngestMode::Lenient
    };
    let quarantine_samples = args
        .get_num::<usize>("quarantine-samples")?
        .unwrap_or(DEFAULT_QUARANTINE_SAMPLES);
    let mem = store::MemOptions {
        spill: args.has("spill"),
        budget: args.get_num::<u64>("mem-budget")?,
        strict: args.has("strict-mem"),
    };
    if mem.strict && mem.budget.is_none() {
        return Err("--strict-mem needs --mem-budget BYTES to enforce".into());
    }
    let report_path = args.get("report");
    let trace_path = args.get("trace");
    let metrics_path = args.get("metrics");
    let report_to_stdout = report_path == Some("-");
    let vfs = Vfs::from_env().map_err(CliError::General)?;

    // Local operator exceptions (SLURM-style assert/filter rules). The file
    // is read once up front: its content participates in both checkpoint
    // digests, and the parsed rules are applied to the dataset after
    // resolution. Lenient by default — a damaged line is quarantined and
    // the rest of the file still applies; --strict aborts on the first.
    let exceptions_path = args.get("exceptions");
    let exceptions_text = exceptions_path
        .map(|p| {
            vfs.read_to_string(Path::new(p))
                .map_err(|e| format!("reading exceptions {p}: {e}"))
        })
        .transpose()?;
    let (exception_set, exception_rejects) = match &exceptions_text {
        Some(text) => prefix2org::ExceptionSet::parse_lenient(text),
        None => (prefix2org::ExceptionSet::new(), Vec::new()),
    };
    if strict {
        if let Some(first) = exception_rejects.first() {
            return Err(CliError::Ingest(format!(
                "{}: line {}: {} ({})",
                exceptions_path.unwrap_or("exceptions"),
                first.offset,
                first.message,
                first.kind.counter_suffix(),
            )));
        }
    }

    // The checkpoint covers the export plus every file-bound artifact this
    // invocation asks for.
    let frozen_path = dir.join(prefix2org::FROZEN_FILE);
    let frozen_path_str = frozen_path.display().to_string();
    let mut requested: Vec<(&str, &str)> =
        vec![("export", out_str), ("frozen", frozen_path_str.as_str())];
    if let Some(p) = report_path {
        if p != "-" {
            requested.push(("report", p));
        }
    }
    if let Some(p) = metrics_path {
        requested.push(("metrics", p));
    }
    if let Some(p) = trace_path {
        requested.push(("trace", p));
    }

    let inputs_digest = checkpoint::inputs_digest_with(
        &vfs,
        dir,
        strict,
        quarantine_samples,
        exceptions_text.as_deref().map(str::as_bytes),
        mem,
    )?;
    let (ckpt_decision, stamp_torn) = if args.has("resume") {
        match evaluate_resume(&vfs, out, inputs_digest, &requested, report_to_stdout) {
            ResumeDecision::Skip { verified } => {
                eprintln!(
                    "resume: inputs unchanged, all {verified} requested artifacts verify; \
                     skipping build"
                );
                println!("dataset already current at {} (resumed)", out.display());
                return Ok(());
            }
            ResumeDecision::Run {
                checkpoint,
                stamp_torn,
            } => (checkpoint, stamp_torn),
        }
    } else {
        ("created", false)
    };

    let obs = (report_path.is_some() || trace_path.is_some() || metrics_path.is_some())
        .then(p2o_obs::Obs::new);
    if trace_path.is_some() {
        // Must be on before loading: the WHOIS/MRT parse shards trace too.
        obs.as_ref().expect("obs created above").enable_tracing();
    }

    let outcome = store::load_inputs_budgeted(&vfs, dir, obs.as_ref(), threads, mode, mem)
        .map_err(|e| match e {
            store::LoadError::Ingest(err) => CliError::Ingest(err.to_string()),
            store::LoadError::Budget(msg) => CliError::Ingest(msg),
            store::LoadError::Other(msg) => CliError::General(msg),
        })?;
    let store::LoadOutcome {
        inputs,
        mut quarantine,
        torn,
        manifest_verified,
        memory,
    } = outcome;
    if memory.mode != "in-memory" {
        eprintln!(
            "mem: {} build: peak working set {} bytes (budget {}), {} spill run(s), \
             {} bytes spilled",
            memory.mode,
            memory.peak_bytes,
            if memory.budget_bytes == 0 {
                "unlimited".to_string()
            } else {
                memory.budget_bytes.to_string()
            },
            memory.spill_runs_created,
            memory.spill_bytes_written,
        );
    }
    if !exception_rejects.is_empty() {
        let file = exceptions_path.unwrap_or("exceptions");
        eprintln!(
            "warning: exceptions {file}: {} rejected line(s) ignored (run with --strict to abort)",
            exception_rejects.len()
        );
        if let Some(o) = &obs {
            // The store's own quarantine was already folded into the
            // counters inside the load; add only the exception delta.
            let mut delta = p2o_util::ingest::Quarantine::new();
            for rec in &exception_rejects {
                delta.push(rec.clone());
            }
            p2o_obs::record_quarantine(o, &delta);
        }
        quarantine.extend_from_file(file, exception_rejects);
    }
    for (path, issue) in &torn {
        eprintln!("warning: manifest: {path}: {issue}");
    }
    let torn_detected = torn.len() as u64 + u64::from(stamp_torn);
    if let Some(o) = &obs {
        if stamp_torn {
            o.counter(p2o_obs::STORE_TORN_DETECTED).incr();
        }
        if ckpt_decision == "recomputed" {
            o.counter(p2o_obs::CHECKPOINT_RECOMPUTED).incr();
        }
    }
    if !quarantine.is_empty() {
        eprintln!(
            "warning: {} corrupt records quarantined (mrt {}, whois {}, rpki {}, exception {})",
            quarantine.len(),
            quarantine.count_for_layer(IngestLayer::Mrt),
            quarantine.count_for_layer(IngestLayer::Whois),
            quarantine.count_for_layer(IngestLayer::Rpki),
            quarantine.count_for_layer(IngestLayer::Exception),
        );
        if inputs.whois_stats.raw_records == 0 && inputs.routes.is_empty() {
            return Err(CliError::Ingest(format!(
                "nothing survived ingest: all {} records quarantined",
                quarantine.len()
            )));
        }
    }
    // The paper's §4.1 footnote check against the delegation files, when
    // present: no delegation larger than /8 (IPv4) or /16 (IPv6).
    let delegated_dir = dir.join("delegated");
    if delegated_dir.is_dir() {
        let mut oversized = 0usize;
        if let Ok(entries) = fs::read_dir(&delegated_dir) {
            for entry in entries.flatten() {
                if let Ok(text) = fs::read_to_string(entry.path()) {
                    let (records, _) = p2o_whois::delegated::parse(&text);
                    oversized += p2o_whois::delegated::oversized_delegations(&records).len();
                }
            }
        }
        if oversized > 0 {
            eprintln!("warning: {oversized} delegations exceed /8 (v4) or /16 (v6)");
        } else {
            eprintln!("delegation-file check: no delegation larger than /8 or /16 (paper §4.1)");
        }
    }
    if !inputs.rpki_problems.is_empty() {
        eprintln!(
            "warning: {} invalid RPKI objects excluded (first: {:?})",
            inputs.rpki_problems.len(),
            inputs.rpki_problems[0]
        );
    }
    eprintln!(
        "loaded: {} WHOIS records -> {} blocks ({} superseded, {} unresolved handles), \
         {} routed prefixes, snapshot {}; resolving with {threads} threads...",
        inputs.whois_stats.raw_records,
        inputs.tree.len(),
        inputs.whois_stats.superseded,
        inputs.whois_stats.unresolved_handles,
        inputs.routes.len(),
        inputs.snapshot_date,
    );
    let pipeline = Pipeline::with_threads(threads);
    let pipeline_inputs = PipelineInputs {
        delegations: &inputs.tree,
        routes: &inputs.routes,
        asn_clusters: &inputs.clusters,
        rpki: &inputs.rpki,
    };
    // The frozen artifact needs the merge evidence next to the dataset;
    // an observed build captures it in its one instrumented run.
    let (mut dataset, merge_edges) = match &obs {
        Some(o) => pipeline.run_with_obs(&pipeline_inputs, o),
        None => pipeline.dataset_with_evidence(&pipeline_inputs, None),
    };
    // Operator exceptions apply after resolution and clustering, so an
    // assert overrides the inferred attribution (keeping its evidence) and
    // a filter drops the record entirely — from the export, the frozen
    // artifact, and every index built from them.
    let exception_summary = exception_set.apply(&mut dataset);
    if let Some(o) = &obs {
        o.counter(p2o_obs::EXCEPTIONS_ASSERTED)
            .add(exception_summary.asserted);
        o.counter(p2o_obs::EXCEPTIONS_FILTERED)
            .add(exception_summary.filtered);
        o.counter(p2o_obs::EXCEPTIONS_UNMATCHED)
            .add(exception_summary.unmatched);
    }
    if exceptions_path.is_some() {
        eprintln!(
            "exceptions: {} rule(s): {} asserted, {} filtered, {} unmatched",
            exception_set.len(),
            exception_summary.asserted,
            exception_summary.filtered,
            exception_summary.unmatched,
        );
    }
    let jsonl = prefix2org::to_jsonl(&dataset);
    atomic::write_atomic(&vfs, out, "export", jsonl.as_bytes())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    let mut stamp = checkpoint::Stamp::new(inputs_digest);
    stamp.record("export", out_str, jsonl.as_bytes());
    if let (Some(p), Some(text)) = (exceptions_path, &exceptions_text) {
        // Recorded for the audit trail (which rules shaped this build);
        // the content already participates in the inputs digest.
        stamp.record("exceptions", p, text.as_bytes());
    }

    // Freeze the same dataset into the zero-copy serve artifact. The META
    // section stamps the option-independent inputs digest so a later
    // `serve` can detect staleness no matter which flags this build ran
    // with, and the thaw check proves the artifact reproduces the export
    // byte-for-byte before anything touches disk.
    let canonical_digest = checkpoint::canonical_inputs_digest_with(
        &vfs,
        dir,
        exceptions_text.as_deref().map(str::as_bytes),
    )?;
    let payload = prefix2org::freeze_with_export_digest(
        &pipeline_inputs,
        &dataset,
        &merge_edges,
        p2o_util::Digest::of_bytes(jsonl.as_bytes()).0,
        canonical_digest,
    );
    let thawed = prefix2org::FrozenDataset::from_payload(payload)
        .map_err(|e| format!("frozen artifact failed self-validation: {e}"))?;
    if !thawed.reproduces_jsonl(&jsonl) {
        return Err(CliError::General(
            "frozen artifact does not thaw back to the canonical export".to_string(),
        ));
    }
    let framed = atomic::frame(&thawed.into_payload());
    atomic::write_atomic(&vfs, &frozen_path, prefix2org::FROZEN_LABEL, &framed)
        .map_err(|e| format!("writing {}: {e}", frozen_path.display()))?;
    stamp.record("frozen", &frozen_path_str, &framed);
    if let Ok(Some(mut manifest)) = p2o_util::manifest::Manifest::load(&vfs, dir) {
        manifest.record(prefix2org::FROZEN_FILE, &framed);
        manifest
            .save(&vfs, dir)
            .map_err(|e| format!("updating MANIFEST.tsv: {e}"))?;
    }
    let frozen_bytes = framed.len();

    if let Some(o) = &obs {
        // Fold the I/O layer's own statistics into the counter families
        // before rendering, so the report and Prometheus export carry them.
        let io = vfs.stats();
        o.counter(p2o_obs::IO_FAULT_INJECTED)
            .add(io.faults_injected());
        o.counter(p2o_obs::IO_FAULT_SHORT_WRITE)
            .add(io.faults_short_write);
        o.counter(p2o_obs::IO_FAULT_ENOSPC).add(io.faults_enospc);
        o.counter(p2o_obs::IO_FAULT_EIO).add(io.faults_eio);

        let mut report = o.report();
        // Always present, all-zero on clean input: consumers can rely on
        // the sections existing.
        report.data_quality = Some(quarantine.summary(quarantine_samples));
        report.durability = Some(p2o_obs::DurabilitySummary {
            atomic_writes: io.writes,
            artifacts_verified: manifest_verified,
            torn_detected,
            checkpoint: ckpt_decision.to_string(),
            faults_injected: io.faults_injected(),
        });
        report.memory = Some(memory.clone());
        if let Some(path) = report_path {
            let text = report.to_json_string();
            if report_to_stdout {
                println!("{text}");
            } else {
                atomic::write_atomic(&vfs, Path::new(path), "report", text.as_bytes())
                    .map_err(|e| format!("writing report {path}: {e}"))?;
                stamp.record("report", path, text.as_bytes());
            }
            eprint!("{}", report.summary_table());
            if !report_to_stdout {
                eprintln!("run report written to {path}");
            }
        }
        if let Some(path) = metrics_path {
            let text = p2o_obs::promexpo::to_prometheus(&report);
            atomic::write_atomic(&vfs, Path::new(path), "metrics", text.as_bytes())
                .map_err(|e| format!("writing metrics {path}: {e}"))?;
            stamp.record("metrics", path, text.as_bytes());
            eprintln!("Prometheus metrics written to {path}");
        }
        if let Some(path) = trace_path {
            let trace = o.take_trace();
            let text = trace.to_chrome_json_string();
            atomic::write_atomic(&vfs, Path::new(path), "trace", text.as_bytes())
                .map_err(|e| format!("writing trace {path}: {e}"))?;
            stamp.record("trace", path, text.as_bytes());
            eprintln!(
                "Chrome trace ({} events across {} threads) written to {path}",
                trace.event_count(),
                trace.threads.len()
            );
        }
    }

    // The stamp is written last: a kill anywhere above leaves no (or a
    // stale) stamp, and `--resume` recomputes.
    stamp.save(&vfs, out).map_err(|e| {
        format!(
            "writing checkpoint {}: {e}",
            checkpoint::stamp_path(out).display()
        )
    })?;

    // When the JSON report goes to stdout, the human summary must not
    // corrupt it — divert the summary to stderr.
    let say = |line: String| {
        if report_to_stdout {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    let m = dataset.metrics();
    say(format!(
        "dataset: {} prefixes -> {}",
        dataset.len(),
        out.display()
    ));
    say(format!(
        "  frozen dataset: {frozen_bytes} bytes -> {}",
        frozen_path.display()
    ));
    say(format!(
        "  IPv4 {} / IPv6 {}; {} Direct Owners, {} base names, {} final clusters",
        m.ipv4_prefixes, m.ipv6_prefixes, m.direct_owners, m.base_names, m.final_clusters
    ));
    say(format!(
        "  multi-name clusters: {} holding {:.1}% of routed IPv4 space",
        m.multi_name_clusters, m.pct_v4_space_multi_name
    ));
    say(format!(
        "  unresolved prefixes: {} ({:.3}%)",
        m.unresolved_prefixes,
        100.0 * m.unresolved_prefixes as f64 / inputs.routes.len().max(1) as f64
    ));
    Ok(())
}

/// `fsck`: audit a data directory for torn writes, leftover tmp files,
/// damaged checkpoint stamps, and unsupported format versions.
pub fn fsck(args: &Parsed) -> Result<(), CliError> {
    let dir = args
        .positional()
        .first()
        .map(String::as_str)
        .or_else(|| args.get("in"))
        .ok_or("fsck needs a directory argument (fsck DIR)")?;
    let vfs = Vfs::from_env().map_err(CliError::General)?;
    let mut report = fsck::audit(&vfs, Path::new(dir))?;
    for note in &report.notes {
        eprintln!("note: {note}");
    }
    for finding in &report.findings {
        println!("{finding}");
    }
    if args.has("gc") {
        let removed = fsck::gc(&vfs, Path::new(dir))?;
        for path in &removed {
            println!("gc: removed {path}");
        }
        eprintln!("gc: removed {} debris file(s)", removed.len());
        // The exit code reflects the directory *after* collection: debris
        // that --gc swept is no longer damage, anything else still is.
        report = fsck::audit(&vfs, Path::new(dir))?;
    }
    if report.findings.is_empty() {
        println!("{dir}: ok ({} artifacts verified)", report.verified);
        Ok(())
    } else {
        Err(CliError::Integrity(format!(
            "{} integrity finding(s) in {dir}",
            report.findings.len()
        )))
    }
}

/// `explain`: render the provenance rule chain behind prefix mappings.
pub fn explain(args: &Parsed) -> Result<(), CliError> {
    let dir = Path::new(args.require("in")?);
    let threads = args
        .get_num::<usize>("threads")?
        .unwrap_or_else(prefix2org::default_threads)
        .max(1);
    if args.positional().is_empty() {
        return Err("explain needs at least one prefix argument".into());
    }
    let exceptions = args
        .get("exceptions")
        .map(|p| -> Result<prefix2org::ExceptionSet, CliError> {
            let text = fs::read_to_string(p).map_err(|e| format!("reading exceptions {p}: {e}"))?;
            let (set, rejected) = prefix2org::ExceptionSet::parse_lenient(&text);
            if !rejected.is_empty() {
                eprintln!(
                    "warning: exceptions {p}: {} rejected line(s) ignored",
                    rejected.len()
                );
            }
            Ok(set)
        })
        .transpose()?;
    if args.has("frozen") {
        if exceptions.is_some() {
            eprintln!(
                "warning: --exceptions is ignored with --frozen; the artifact's stored \
                 traces already reflect the rules it was built with"
            );
        }
        // Render the traces from the frozen artifact's stored facts instead
        // of replaying the pipeline. For prefixes that are themselves
        // records the output is byte-identical to a live explain; for
        // covered queries the trace of the covering record is printed with
        // a note naming it.
        let vfs = Vfs::from_env().map_err(CliError::General)?;
        let frozen_path = dir.join(prefix2org::FROZEN_FILE);
        let frozen =
            prefix2org::FrozenDataset::load(&vfs, &frozen_path).map_err(CliError::Integrity)?;
        for (i, q) in args.positional().iter().enumerate() {
            let prefix: Prefix = q.parse().map_err(|e| format!("{q:?}: {e}"))?;
            if i > 0 {
                println!();
            }
            match frozen.lookup(&prefix) {
                None => println!("{prefix}: no covering record in the frozen dataset"),
                Some((matched, idx)) => {
                    if matched != prefix {
                        println!("{prefix}: covered by {matched}; its stored trace follows");
                    }
                    print!("{}", frozen.provenance(idx));
                }
            }
        }
        return Ok(());
    }
    let inputs = store::load_inputs_with(dir, None, threads)?;
    let pipeline = Pipeline::with_threads(threads);
    let pipeline_inputs = PipelineInputs {
        delegations: &inputs.tree,
        routes: &inputs.routes,
        asn_clusters: &inputs.clusters,
        rpki: &inputs.rpki,
    };
    for (i, q) in args.positional().iter().enumerate() {
        let prefix: Prefix = q.parse().map_err(|e| format!("{q:?}: {e}"))?;
        if i > 0 {
            println!();
        }
        print!(
            "{}",
            pipeline
                .explain_with(&pipeline_inputs, exceptions.as_ref(), &prefix)
                .render()
        );
    }
    Ok(())
}

fn load_dataset(path: &str) -> Result<Vec<ExportRecord>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    prefix2org::from_jsonl(&text)
}

/// `lookup`: longest-match queries against a JSONL snapshot.
pub fn lookup(args: &Parsed) -> Result<(), CliError> {
    let records = load_dataset(args.require("dataset")?)?;
    if args.positional().is_empty() {
        return Err("lookup needs at least one prefix argument".into());
    }
    let mut map: PrefixMap<usize> = PrefixMap::new();
    for (i, rec) in records.iter().enumerate() {
        map.insert(rec.prefix, i);
    }
    for q in args.positional() {
        let prefix: Prefix = q.parse().map_err(|e| format!("{q:?}: {e}"))?;
        match map.longest_match(&prefix) {
            None => println!("{prefix}: no covering routed prefix in the snapshot"),
            Some((covering, &idx)) => {
                let rec = &records[idx];
                println!("{prefix} -> routed as {covering}");
                println!("  Direct Owner : {} ({})", rec.direct_owner, rec.do_alloc);
                println!("  DO block     : {} via {}", rec.do_prefix, rec.registry);
                for (name, block, alloc) in &rec.delegated_customers {
                    println!("  Customer     : {name} ({} on {block})", alloc.keyword());
                }
                println!("  Cluster      : {}", rec.final_cluster);
            }
        }
    }
    Ok(())
}

/// `org`: list the prefixes attributed to an organization name fragment.
pub fn org(args: &Parsed) -> Result<(), CliError> {
    let records = load_dataset(args.require("dataset")?)?;
    let needle = args
        .positional()
        .first()
        .ok_or("org needs a NAME argument")?;
    let needle = p2o_strings::clean::basic_clean(needle);
    // Match cluster labels and owner names, like the validation path.
    let mut clusters: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for rec in &records {
        if p2o_strings::clean::basic_clean(&rec.direct_owner).contains(&needle)
            || rec.final_cluster == needle
            || rec.final_cluster.starts_with(&format!("{needle}-"))
        {
            clusters.insert(&rec.final_cluster);
        }
    }
    if clusters.is_empty() {
        println!("no organization matching {needle:?}");
        return Ok(());
    }
    for cluster in clusters {
        println!("{cluster}:");
        for rec in records.iter().filter(|r| r.final_cluster == cluster) {
            println!(
                "  {}  {} [{}]",
                rec.prefix,
                rec.direct_owner,
                rec.do_alloc.keyword()
            );
        }
    }
    Ok(())
}

/// `stats`: summarize a JSONL snapshot.
pub fn stats(args: &Parsed) -> Result<(), CliError> {
    let records = load_dataset(args.require("dataset")?)?;
    let mut v4 = 0usize;
    let mut v6 = 0usize;
    let mut owners = std::collections::BTreeSet::new();
    let mut clusters: std::collections::BTreeMap<&str, (usize, u64)> =
        std::collections::BTreeMap::new();
    let mut per_registry: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    let mut legacy = 0usize;
    let mut with_customers = 0usize;
    for rec in &records {
        match rec.prefix {
            Prefix::V4(p) => {
                v4 += 1;
                let slot = clusters.entry(&rec.final_cluster).or_default();
                slot.0 += 1;
                slot.1 += p.num_addrs();
            }
            Prefix::V6(_) => {
                v6 += 1;
                clusters.entry(&rec.final_cluster).or_default().0 += 1;
            }
        }
        owners.insert(rec.direct_owner.as_str());
        *per_registry.entry(rec.registry.to_string()).or_default() += 1;
        if rec.do_alloc.is_legacy() {
            legacy += 1;
        }
        if !rec.delegated_customers.is_empty() {
            with_customers += 1;
        }
    }
    println!("prefixes        : {} ({v4} IPv4, {v6} IPv6)", records.len());
    println!("direct owners   : {}", owners.len());
    println!("final clusters  : {}", clusters.len());
    println!("legacy-typed    : {legacy}");
    println!("with customers  : {with_customers}");
    println!("per registry    :");
    for (registry, count) in &per_registry {
        println!("  {registry:<8} {count}");
    }
    let mut ranked: Vec<(&&str, &(usize, u64))> = clusters.iter().collect();
    ranked.sort_by_key(|e| std::cmp::Reverse(e.1 .1));
    println!("largest clusters by IPv4 addresses:");
    for (label, (prefixes, addrs)) in ranked.into_iter().take(10) {
        println!("  {label:<24} {prefixes:>5} prefixes  {addrs:>12} addresses");
    }
    Ok(())
}

/// `diff`: compare two JSONL snapshots.
pub fn diff(args: &Parsed) -> Result<(), CliError> {
    let old = load_dataset(args.require("old")?)?;
    let new = load_dataset(args.require("new")?)?;
    let delta = prefix2org::delta::diff_exports(&old, &new);
    println!(
        "snapshots: {} -> {} prefixes; {} unchanged",
        old.len(),
        new.len(),
        delta.unchanged
    );
    println!(
        "added {} / removed {} / owner changes {} / customer churn {}",
        delta.added.len(),
        delta.removed.len(),
        delta.owner_changes.len(),
        delta.customer_changes.len()
    );
    for change in delta.owner_changes.iter().take(20) {
        println!(
            "  transfer {}: {} -> {}",
            change.prefix, change.from, change.to
        );
    }
    if delta.owner_changes.len() > 20 {
        println!("  ... {} more", delta.owner_changes.len() - 20);
    }
    Ok(())
}

/// `validate`: evaluate a snapshot against a directory's ground truth.
pub fn validate(args: &Parsed) -> Result<(), CliError> {
    let dir = Path::new(args.require("in")?);
    let records = load_dataset(args.require("dataset")?)?;
    let inputs = store::load_inputs(dir)?;
    if inputs.truth.is_empty() {
        return Err(format!("{} has no truth/lists.tsv", dir.display()).into());
    }

    // Rebuild a queryable dataset view from the export: org -> prefixes via
    // cluster labels.
    let mut by_cluster: std::collections::HashMap<&str, Vec<Prefix>> =
        std::collections::HashMap::new();
    let mut owners: std::collections::HashMap<Prefix, &ExportRecord> =
        std::collections::HashMap::new();
    for rec in &records {
        by_cluster
            .entry(&rec.final_cluster)
            .or_default()
            .push(rec.prefix);
        owners.insert(rec.prefix, rec);
    }
    let predicted_for = |org_name: &str| -> Vec<Prefix> {
        let needle = p2o_strings::clean::basic_clean(org_name);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for rec in &records {
            if p2o_strings::clean::basic_clean(&rec.direct_owner).contains(&needle)
                && seen.insert(rec.final_cluster.as_str())
            {
                out.extend(by_cluster[rec.final_cluster.as_str()].iter().copied());
            }
        }
        out.sort();
        out.dedup();
        out
    };

    println!(
        "{:<40} {:>5} {:>5} {:>5} {:>5} {:>5} {:>9} {:>7}",
        "Organization", "True", "Pred", "TP", "FP", "FN", "Precision", "Recall"
    );
    let mut tot = (0usize, 0usize, 0usize, 0usize, 0usize);
    for list in &inputs.truth {
        for family in [AddressFamily::V4, AddressFamily::V6] {
            let truth: Vec<Prefix> = list
                .prefixes
                .iter()
                .filter(|p| p.family() == family && owners.contains_key(p))
                .copied()
                .collect();
            if truth.is_empty() {
                continue;
            }
            let predicted: Vec<Prefix> = predicted_for(&list.org_name)
                .into_iter()
                .filter(|p| p.family() == family)
                .collect();
            let tp = predicted
                .iter()
                .filter(|p| truth.iter().any(|t| t.contains(p)))
                .count();
            let fp = predicted.len() - tp;
            let fnn = truth
                .iter()
                .filter(|t| !predicted.iter().any(|p| t.contains(p) || p.contains(t)))
                .count();
            let precision = if tp + fp == 0 {
                100.0
            } else {
                100.0 * tp as f64 / (tp + fp) as f64
            };
            let recall = 100.0 * (truth.len() - fnn) as f64 / truth.len() as f64;
            let kind = if list.exhaustive {
                "exhaustive"
            } else {
                "public"
            };
            println!(
                "{:<40} {:>5} {:>5} {:>5} {:>5} {:>5} {:>9.2} {:>7.2}",
                format!("{} ({family}, {kind})", list.org_name),
                truth.len(),
                predicted.len(),
                tp,
                fp,
                fnn,
                precision,
                recall
            );
            tot = (
                tot.0 + truth.len(),
                tot.1 + predicted.len(),
                tot.2 + tp,
                tot.3 + fp,
                tot.4 + fnn,
            );
        }
    }
    let precision = if tot.2 + tot.3 == 0 {
        100.0
    } else {
        100.0 * tot.2 as f64 / (tot.2 + tot.3) as f64
    };
    let recall = if tot.0 == 0 {
        100.0
    } else {
        100.0 * (tot.0 - tot.4) as f64 / tot.0 as f64
    };
    println!(
        "{:<40} {:>5} {:>5} {:>5} {:>5} {:>5} {:>9.2} {:>7.2}",
        "Total", tot.0, tot.1, tot.2, tot.3, tot.4, precision, recall
    );
    Ok(())
}

/// `serve`: the long-running lookup service over a built artifact
/// directory.
///
/// The directory is audited through the same fsck machinery the `fsck`
/// command uses *before* anything is loaded — a damaged dir refuses to
/// start with exit code 2 and a one-line diagnostic. The same gate guards
/// every `/reload`: the loader closure re-runs the audit and the
/// crash-safe store load, so a reload onto a torn directory is rejected
/// and the old snapshot keeps serving.
pub fn serve(args: &Parsed) -> Result<(), CliError> {
    let dir = args
        .positional()
        .first()
        .map(String::as_str)
        .or_else(|| args.get("in"))
        .ok_or("serve needs a directory argument (serve DIR)")?;
    let dir = Path::new(dir);
    let addr = args.get("addr").unwrap_or("127.0.0.1:8642").to_string();
    let threads = args
        .get_num::<usize>("threads")?
        .unwrap_or_else(prefix2org::default_threads)
        .max(1);
    let use_frozen = !args.has("no-frozen");
    let allow_quit = args.has("allow-quit");
    let exceptions_path = args.get("exceptions").map(std::path::PathBuf::from);
    let access_log = args
        .get("access-log")
        .map(|path| -> Result<p2o_serve::AccessLog, CliError> {
            let vfs = Vfs::from_env().map_err(CliError::General)?;
            Ok(p2o_serve::AccessLog::new(vfs, Path::new(path)))
        })
        .transpose()?;

    let loader: p2o_serve::SnapshotLoader = std::sync::Arc::new(move |dir: &Path| {
        let vfs = Vfs::from_env()?;
        let report = fsck::audit(&vfs, dir)?;
        if !report.findings.is_empty() {
            return Err(format!(
                "{} integrity finding(s) in {} (run `prefix2org fsck` for details)",
                report.findings.len(),
                dir.display()
            ));
        }
        // The exceptions file is re-read on every load — boot and each
        // /reload — so edited rules land with a reload, no restart. Serving
        // is strict where build is lenient: any rejected line refuses the
        // load (exit 2 at boot, 503 on reload) and, on reload, the old
        // snapshot keeps serving — a torn rule file can delay an update but
        // never changes an answer.
        let exceptions_text = match &exceptions_path {
            None => None,
            Some(p) => Some(
                vfs.read_to_string(p)
                    .map_err(|e| format!("reading exceptions {}: {e}", p.display()))?,
            ),
        };
        let exceptions = match &exceptions_text {
            None => prefix2org::ExceptionSet::new(),
            Some(text) => {
                let (set, rejected) = prefix2org::ExceptionSet::parse_lenient(text);
                if let Some(first) = rejected.first() {
                    return Err(format!(
                        "exceptions file {}: {} rejected line(s); first: line {}: {} ({})",
                        exceptions_path
                            .as_ref()
                            .expect("text implies path")
                            .display(),
                        rejected.len(),
                        first.offset,
                        first.message,
                        first.kind.counter_suffix(),
                    ));
                }
                set
            }
        };
        // Prefer the frozen artifact: one framed read plus O(1) arena
        // attachment instead of re-parsing WHOIS/MRT and re-running the
        // pipeline. Staleness (inputs changed since the freeze) and any
        // load failure fall back to the full load with a warning — the
        // frozen path is an accelerator, never a gate.
        if use_frozen {
            let frozen_path = dir.join(prefix2org::FROZEN_FILE);
            if frozen_path.is_file() {
                match prefix2org::FrozenDataset::load(&vfs, &frozen_path) {
                    Ok(frozen) => {
                        // The current digest includes this serve's exception
                        // rules; a frozen artifact built with different (or
                        // no) rules reads as stale and the full load below
                        // applies the live rules instead.
                        let current = checkpoint::canonical_inputs_digest_with(
                            &vfs,
                            dir,
                            exceptions_text.as_deref().map(str::as_bytes),
                        )?;
                        if frozen.inputs_digest() == current {
                            return Ok(p2o_serve::Snapshot::from_frozen(
                                dir.to_path_buf(),
                                0,
                                frozen,
                            ));
                        }
                        eprintln!(
                            "warning: {}: frozen artifact is stale (inputs changed since it \
                             was built); falling back to a full load",
                            frozen_path.display()
                        );
                    }
                    Err(e) => eprintln!("warning: {e}; falling back to a full load"),
                }
            }
        }
        let outcome = store::load_inputs_mode(&vfs, dir, None, threads, store::IngestMode::Lenient)
            .map_err(|e| e.to_string())?;
        let inputs = outcome.inputs;
        Ok(p2o_serve::Snapshot::assemble_with(
            dir.to_path_buf(),
            0,
            inputs.tree,
            inputs.routes,
            inputs.clusters,
            inputs.rpki,
            threads,
            exceptions,
        ))
    });

    // Boot load through the same gate; an unhealthy directory is an
    // integrity error (exit 2), matching `fsck`.
    let initial = loader(dir).map_err(CliError::Integrity)?;
    eprintln!(
        "loaded {} ({} prefixes, snapshot {}{}{})",
        dir.display(),
        initial.len(),
        initial.digest,
        if initial.is_frozen() { ", frozen" } else { "" },
        match initial.exception_count() {
            0 => String::new(),
            n => format!(", {n} exception override(s)"),
        }
    );
    let config = p2o_serve::ServerConfig {
        addr,
        access_log,
        allow_quit,
        ..Default::default()
    };
    let server = p2o_serve::spawn(config, initial, loader).map_err(CliError::General)?;
    // The parseable readiness line tools (bench harness, chaos tests)
    // wait for; keep the format stable.
    println!("listening on {}", server.addr);
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
    Ok(())
}
