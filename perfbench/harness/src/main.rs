//! `p2o-perfbench`: the compiled half of the prefix2org benchmark.
//!
//! ```text
//! p2o-perfbench trace --world DIR --export FILE --seed N --threads N --reps N
//!                     --work DIR --trace-out FILE MIX
//! p2o-perfbench load --export FILE --seed N MIX
//!
//! MIX: --mix RECORD,MORE_SPECIFIC,MISS --health-every N --batch-lines N
//! ```
//!
//! `trace` replays the layer calls of `prefix2org build` and `serve` with a
//! span around each and prints one JSON object of self times, counts and
//! output checks. `load` is the open-loop load generator, driven by
//! commands on stdin (see `load.rs`). `perfbench/run.py` runs both.

mod load;
mod oracle;
mod replica;
mod spans;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: p2o-perfbench trace|load ...")?;
    let f = flags(rest)?;
    let get = |k: &str| {
        f.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let mix = load::Mix::parse(&get("mix")?, &get("health-every")?, &get("batch-lines")?)?;
    match cmd.as_str() {
        "trace" => replica::run(&replica::Options {
            world: PathBuf::from(get("world")?),
            export: PathBuf::from(get("export")?),
            seed,
            mix,
            threads: get("threads")?
                .parse()
                .map_err(|e| format!("--threads: {e}"))?,
            reps: get("reps")?.parse().map_err(|e| format!("--reps: {e}"))?,
            work: PathBuf::from(get("work")?),
            trace_out: PathBuf::from(get("trace-out")?),
        }),
        "load" => load::serve_commands(&get("export")?, seed, &mix),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("p2o-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
