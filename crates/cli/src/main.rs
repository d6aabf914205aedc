//! `prefix2org` — the command-line front end of the reproduction.
//!
//! ```text
//! prefix2org generate --out DIR [--seed N] [--scale tiny|default|bench|xl] [--transfers N]
//!                     [--corrupt-rate R] [--corrupt-seed N]
//!                     [--adversarial CLASS] [--adversarial-seed N]
//! prefix2org build    --in DIR --out FILE.jsonl [--strict] [--resume] [--threads N]
//!                     [--spill] [--mem-budget BYTES] [--strict-mem]
//!                     [--quarantine-samples N] [--exceptions FILE.jsonl]
//!                     [--report RUN.json|-] [--trace TRACE.json] [--metrics METRICS.prom]
//! prefix2org fsck     DIR [--gc]
//! prefix2org serve    DIR [--addr HOST:PORT] [--threads N] [--access-log FILE] [--allow-quit]
//!                     [--exceptions FILE.jsonl]
//! prefix2org explain  --in DIR PREFIX... [--threads N] [--exceptions FILE.jsonl]
//! prefix2org lookup   --dataset FILE.jsonl PREFIX...
//! prefix2org stats    --dataset FILE.jsonl
//! prefix2org org      --dataset FILE.jsonl NAME
//! prefix2org diff     --old A.jsonl --new B.jsonl
//! prefix2org validate --in DIR --dataset FILE.jsonl
//! ```
//!
//! `generate` materializes a synthetic Internet as *files in each source's
//! native format* (WHOIS bulk dumps, an MRT RIB, AS2Org TSVs, ground-truth
//! lists); `build` runs the full Prefix2Org pipeline over such a directory
//! and writes the dataset as JSON Lines; the query commands operate on the
//! JSONL snapshot alone — the adoption workflow a downstream user of the
//! published dataset would follow.

mod args;
mod checkpoint;
mod commands;
mod fsck;
mod store;

use std::process::ExitCode;

/// A command failure, split by what exit code it maps to.
pub enum CliError {
    /// Usage / I/O / any other error: exit code 1.
    General(String),
    /// A typed ingest failure (strict-mode abort on a corrupt record, or a
    /// lenient run where nothing at all parsed): exit code 2. The message
    /// is the one-line diagnostic naming file, offset, and error variant.
    Ingest(String),
    /// `fsck` found durability damage (torn writes, leftover tmp files,
    /// damaged checkpoint stamps): exit code 2.
    Integrity(String),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::General(e)
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> Self {
        CliError::General(e.to_string())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::General(e)) => {
            eprintln!("prefix2org: error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Ingest(e)) => {
            eprintln!("prefix2org: ingest error: {e}");
            ExitCode::from(2)
        }
        Err(CliError::Integrity(e)) => {
            eprintln!("prefix2org: integrity error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        print_usage();
        return Err("no command given".into());
    };
    let rest = &argv[1..];
    match command.as_str() {
        "generate" => commands::generate(&args::Parsed::parse(rest)?),
        "build" => commands::build(&args::Parsed::parse_with_switches(
            rest,
            &["strict", "resume", "spill", "strict-mem"],
        )?),
        "fsck" => commands::fsck(&args::Parsed::parse_with_switches(rest, &["gc"])?),
        "serve" => commands::serve(&args::Parsed::parse_with_switches(
            rest,
            &["no-frozen", "allow-quit"],
        )?),
        "explain" => commands::explain(&args::Parsed::parse_with_switches(rest, &["frozen"])?),
        "lookup" => commands::lookup(&args::Parsed::parse(rest)?),
        "org" => commands::org(&args::Parsed::parse(rest)?),
        "diff" => commands::diff(&args::Parsed::parse(rest)?),
        "stats" => commands::stats(&args::Parsed::parse(rest)?),
        "validate" => commands::validate(&args::Parsed::parse(rest)?),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `prefix2org help`").into()),
    }
}

fn print_usage() {
    println!(
        "\
prefix2org — map BGP prefixes to organizations (IMC'25 reproduction)

USAGE:
  prefix2org generate --out DIR [--seed N] [--scale tiny|default|bench|xl] [--transfers N]
                      [--corrupt-rate R] [--corrupt-seed N]
                      [--adversarial CLASS] [--adversarial-seed N]
      Materialize a synthetic Internet: WHOIS bulk dumps (native formats),
      an MRT RIB snapshot, AS2Org + sibling TSVs, RPKI objects, ground truth.
      --scale xl is the out-of-core stress world (>=10x bench), sized so
      `build --spill --mem-budget` exercises the spill path for real.
      --corrupt-rate injects seeded record-level corruption (truncation,
      bit-flips, length-field lies, junk records) into the written WHOIS,
      MRT and RPKI artifacts at the given per-record rate (0..=1);
      --corrupt-seed decouples the fault pattern from the world seed.
      --adversarial applies one seeded *semantic* RPKI mutation before
      writing: every object still parses and its signature verifies, but
      relying-party validation (or ROV) rejects it. Classes: expired-cert
      (a member cert — or a whole trust anchor — re-signed with an
      elapsed window), resource-overclaim
      (cert re-signed claiming 192.0.2.0/24 it was never delegated),
      conflicting-roas (a valid ROA authorizing hijacker AS64666 over
      uncovered routed space, MOAS sets first), orphaned-delegation (a
      mid-chain cert withdrawn, stranding its subtree and ROAs). The
      mutation manifest is written to DIR/adversary.json;
      --adversarial-seed decouples victim selection from the world seed.

  prefix2org build --in DIR --out FILE.jsonl [--strict] [--resume] [--threads N]
                   [--spill] [--mem-budget BYTES] [--strict-mem]
                   [--quarantine-samples N] [--exceptions FILE.jsonl]
                   [--report RUN.json|-] [--trace TRACE.json] [--metrics METRICS.prom]
      Parse a generated (or compatible) directory and run the full pipeline;
      write the per-prefix dataset as JSON Lines and print Table-4 metrics.
      Every artifact is written atomically (tmp + fsync + rename), and a
      checksummed checkpoint stamp FILE.jsonl.ckpt is written last.
      Alongside the export, a frozen zero-copy artifact DIR/world.p2ob is
      written (flattened LPM tables, interned strings, fixed-width
      records, and the facts each decision trace is rendered from);
      `serve` boots from it in milliseconds and `explain --frozen`
      renders its traces on demand. The freeze is verified to thaw
      back to the export byte-for-byte before it is written.
      Corrupt input records are skipped and quarantined by default (counts
      go to stderr and the report's data_quality section); exit code 2 is
      reserved for ingest failures. --strict aborts on the first corrupt
      record instead, naming its file, byte/line offset and error variant.
      --resume skips the whole build when the checkpoint stamp proves the
      inputs are unchanged and every requested artifact still verifies;
      anything torn or stale recomputes with a warning, never an abort.
      --quarantine-samples caps the sample records carried into the
      report's data_quality section (default 8).
      --threads defaults to the number of available cores; 1 forces the
      fully sequential path (the output is identical either way).
      --report writes a JSON run report (per-stage wall times, counters,
      histograms) and prints its summary table to stderr; `--report -`
      writes the JSON to stdout (the human summary moves to stderr).
      --trace writes a Chrome trace-event file (load it in Perfetto or
      chrome://tracing) with per-thread span timelines for the WHOIS
      parse, MRT decode, resolution and cluster group-build shards.
      --metrics writes every counter and histogram in Prometheus text
      exposition format.
      --exceptions applies SLURM-style local operator rules (RFC 8416
      spirit) after resolution: one JSON object per line, either
      {{\"prefix\":P,\"action\":\"assert\",\"org\":NAME}} to override a
      prefix's attribution or {{\"prefix\":P,\"action\":\"filter\"}} to drop a bogus
      record entirely. The last rule per prefix wins. Overrides keep the
      inferred evidence and are marked in the export (local_exception),
      the frozen artifact, and every provenance trace. Rule-file content
      participates in the checkpoint and frozen-staleness digests. A
      damaged line warns and is quarantined (--strict aborts instead).
      --spill streams the ingest through sorted on-disk spill runs
      (written atomically under DIR/spill/) and merges them with a
      bounded working set, so a directory larger than RAM still builds;
      the export is byte-identical to the in-memory path. --mem-budget
      BYTES bounds the transient working set: the spill chunk sizes are
      derived from it, and an in-memory build whose largest input would
      exceed it degrades to the spill path with a warning (--strict-mem
      aborts with exit 2 instead; it requires --mem-budget). Peak usage,
      budget, and spill traffic land in the run report's memory section
      and the mem.* counters of --metrics.

  prefix2org fsck DIR [--gc]
      Audit a data directory: verify every artifact against MANIFEST.tsv,
      flag leftover .p2o-tmp files from interrupted writes and orphaned
      .spill runs from interrupted streaming builds, check that
      checkpoint stamps unframe cleanly, audit frozen .p2ob datasets
      (frame digest, arena layout, format_version, string/LPM table
      invariants), and reject unsupported format_versions. Exits 2 when
      anything is damaged. --gc deletes the removable debris (tmp files
      and orphaned spill runs) after the audit, then re-audits; the exit
      code reflects the directory's state after collection.

  prefix2org serve DIR [--addr HOST:PORT] [--threads N] [--no-frozen]
                   [--access-log FILE] [--allow-quit] [--exceptions FILE.jsonl]
      Serve the directory as a long-running lookup service (default
      address 127.0.0.1:8642). The directory is fsck-audited before
      loading; damage refuses to start with exit 2. When DIR/world.p2ob
      exists and matches the directory's current inputs, the snapshot is
      attached from it in milliseconds instead of re-running the
      pipeline; --no-frozen forces the full load, and a stale or damaged
      artifact falls back to it with a warning. Endpoints:
      GET /prefix/<cidr> (longest-match lookup with DO, DC chain,
      cluster, MOAS origin set, and the explain-identical provenance
      chain), POST /batch (one CIDR per line, JSONL out), GET /dump
      [?serial=N] (full table as a reset, or the delta since serial N),
      GET /metrics (Prometheus text exposition incl. serve.* cumulative
      counters and rolling-window latency/rate gauges), POST /reload
      (re-verify and atomically swap; body = new dir path, empty =
      reload the same dir), GET /health (liveness + uptime + 60s request
      rate), GET /status (per-endpoint windowed p50/p90/p99/max + rates,
      snapshot generation/serial/backing, connection gauge, flight-
      recorder occupancy), GET /debug/requests?n=K (recent + slowest
      requests as JSONL), GET /debug/trace?ms=N (attach a live tracer
      for N ms and return a Chrome trace), POST /quit (graceful drain;
      gated behind --allow-quit). Every response carries a monotonic
      X-P2O-Request-Id. --access-log FILE appends one JSON object per
      request (written atomically, flushed on drain). Shutdown drains
      in-flight connections and prints a final run report to stderr.
      --exceptions applies the rule file to every served snapshot and
      re-reads it on each /reload, so edited rules land without a
      restart. Serving is strict where build is lenient: a rejected
      line refuses to boot (exit 2), and on /reload it is rejected
      with 503 while the old snapshot keeps serving. /health, /status
      and /metrics report the override count and ROV state tallies.

  prefix2org explain --in DIR PREFIX... [--threads N] [--frozen]
                     [--exceptions FILE.jsonl]
      Replay the mapping decision for each prefix and print the rule
      chain behind it: routing-table lookup, radix LPM walk, WHOIS
      delegation matches, base name, RPKI certificate, origin-ASN
      clusters, cluster merges, final cluster label. --frozen renders the
      trace from DIR/world.p2ob instead of replaying the pipeline
      (byte-identical for record prefixes). --exceptions
      applies a local rule file first, so the trace shows operator
      overrides (local_exception) and filtered prefixes exactly as a
      build with the same rules would.

  prefix2org lookup --dataset FILE.jsonl PREFIX...
      Longest-match lookup of prefixes in a built snapshot.

  prefix2org org --dataset FILE.jsonl NAME
      List the prefixes attributed to an organization.

  prefix2org diff --old A.jsonl --new B.jsonl
      Compare two snapshots: added/removed prefixes, ownership transfers,
      customer churn.

  prefix2org stats --dataset FILE.jsonl
      Summarize a snapshot: per-registry and per-family counts, owners,
      clusters, largest organizations.

  prefix2org validate --in DIR --dataset FILE.jsonl
      Evaluate the snapshot against the directory's ground-truth lists
      (per-organization precision/recall, paper Tables 5-6)."
    );
}
