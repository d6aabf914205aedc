//! End-to-end tests for `prefix2org serve`: the acceptance criterion that
//! batch lookups on a loaded artifact return **byte-identical**
//! attributions to `prefix2org explain` for the same prefixes, plus the
//! endpoint surface (`/prefix`, `/batch`, `/dump` serial/reset semantics,
//! `/metrics` exposition, `/reload`).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

use p2o_serve::HttpClient;
use p2o_util::Json;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_prefix2org")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

fn run_ok(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "command {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p2o-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn generate(dir: &Path, seed: &str) {
    run_ok(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--scale",
        "tiny",
        "--seed",
        seed,
    ]);
}

/// A serve subprocess that is killed when the test ends.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(dir: &Path) -> Server {
        Self::start_with(dir, &[])
    }

    fn start_with(dir: &Path, extra: &[&str]) -> Server {
        Self::spawn(dir, extra, Stdio::null())
    }

    /// Like [`Server::start`], with stderr written to `log`.
    fn start_logging(dir: &Path, log: &Path) -> Server {
        let file = std::fs::File::create(log).expect("creating stderr log");
        Self::spawn(dir, &[], Stdio::from(file))
    }

    fn spawn(dir: &Path, extra: &[&str], stderr: Stdio) -> Server {
        let mut child = Command::new(bin())
            .args(["serve", dir.to_str().unwrap(), "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawning serve");
        let stdout = child.stdout.take().expect("serve stdout");
        let line = BufReader::new(stdout)
            .lines()
            .next()
            .expect("serve printed its readiness line")
            .expect("readable stdout");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected readiness line {line:?}"))
            .to_string();
        Server { child, addr }
    }

    fn client(&self) -> HttpClient {
        HttpClient::connect(&self.addr).expect("connect")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The first `n` routed prefixes of the served snapshot, via `/dump`.
fn served_prefixes(client: &mut HttpClient, n: usize) -> Vec<String> {
    let dump = client.get("/dump").expect("dump");
    assert_eq!(dump.status, 200);
    dump.text()
        .lines()
        .skip(1)
        .take(n)
        .map(|line| {
            Json::parse(line)
                .expect("dump record parses")
                .get("prefix")
                .and_then(|p| p.as_str())
                .expect("record has a prefix")
                .to_string()
        })
        .collect()
}

/// The acceptance criterion: for the same artifact directory and the same
/// prefixes, the serve `provenance` field and the `prefix2org explain`
/// stdout are byte-identical.
#[test]
fn batch_attributions_are_byte_identical_to_explain() {
    let dir = temp_dir("identity");
    generate(&dir, "4242");
    let server = Server::start(&dir);
    let mut client = server.client();
    let prefixes = served_prefixes(&mut client, 5);
    assert_eq!(prefixes.len(), 5, "tiny world has at least 5 prefixes");

    // One explain subprocess per prefix: stdout is exactly one rendered
    // decision trace.
    let explained: Vec<String> = prefixes
        .iter()
        .map(|p| run_ok(&["explain", "--in", dir.to_str().unwrap(), p]))
        .collect();

    // The same prefixes through POST /batch, one JSONL response per line.
    let body = prefixes.join("\n");
    let batch = client.post("/batch", body.as_bytes()).expect("batch");
    assert_eq!(batch.status, 200);
    let lines: Vec<String> = batch.text().lines().map(String::from).collect();
    assert_eq!(lines.len(), prefixes.len());
    for ((line, expected), prefix) in lines.iter().zip(&explained).zip(&prefixes) {
        let response = Json::parse(line).expect("batch line parses");
        assert_eq!(
            response.get("query").and_then(|q| q.as_str()),
            Some(prefix.as_str())
        );
        let provenance = response
            .get("provenance")
            .and_then(|p| p.as_str())
            .unwrap_or_else(|| panic!("no provenance for {prefix}: {line}"));
        assert_eq!(
            provenance, expected,
            "serve provenance diverges from explain for {prefix}"
        );
    }

    // And the single-lookup endpoint agrees with batch.
    let single = client
        .get(&format!("/prefix/{}", prefixes[0].replace('/', "%2f")))
        .expect("lookup");
    assert_eq!(single.status, 200);
    let single_json = Json::parse(&single.text()).expect("lookup parses");
    assert_eq!(
        single_json.get("provenance").and_then(|p| p.as_str()),
        Some(explained[0].as_str())
    );
}

#[test]
fn endpoint_surface_dump_metrics_health_and_reload() {
    let dir = temp_dir("surface");
    generate(&dir, "77");
    let server = Server::start(&dir);
    let mut client = server.client();

    // /health names the boot serial and a digest.
    let health = client.get("/health").expect("health");
    assert_eq!(health.status, 200);
    let health_json = Json::parse(&health.text()).expect("health parses");
    assert_eq!(health_json.get("serial").and_then(|s| s.as_u64()), Some(0));
    let digest = health_json
        .get("snapshot")
        .and_then(|s| s.as_str())
        .expect("digest")
        .to_string();
    assert_eq!(health.header("x-p2o-snapshot"), Some(digest.as_str()));

    // /dump without a serial is a reset carrying the full table.
    let dump = client.get("/dump").expect("dump");
    let text = dump.text();
    let header = Json::parse(text.lines().next().unwrap()).expect("header");
    assert_eq!(header.get("type").and_then(|t| t.as_str()), Some("reset"));
    assert_eq!(header.get("serial").and_then(|s| s.as_u64()), Some(0));
    let records = header.get("records").and_then(|r| r.as_u64()).unwrap();
    assert_eq!(text.lines().count() as u64, records + 1);

    // /dump at the current serial is an empty delta.
    let delta = client.get("/dump?serial=0").expect("dump at serial");
    let delta_text = delta.text();
    let delta_header = Json::parse(delta_text.lines().next().unwrap()).expect("header");
    assert_eq!(
        delta_header.get("type").and_then(|t| t.as_str()),
        Some("delta")
    );
    assert_eq!(delta_text.lines().count(), 1, "no ops at the same serial");

    // /dump at an unknown (future) serial falls back to a reset.
    let future = client.get("/dump?serial=99").expect("dump future");
    let future_header = Json::parse(future.text().lines().next().unwrap()).expect("header");
    assert_eq!(
        future_header.get("type").and_then(|t| t.as_str()),
        Some("reset")
    );

    // /reload (same dir) swaps to serial 1 with an identical digest, and
    // the delta from serial 0 is then empty.
    let reload = client.post("/reload", b"").expect("reload");
    assert_eq!(reload.status, 200, "{}", reload.text());
    let reload_json = Json::parse(&reload.text()).expect("reload parses");
    assert_eq!(reload_json.get("serial").and_then(|s| s.as_u64()), Some(1));
    assert_eq!(
        reload_json.get("snapshot").and_then(|s| s.as_str()),
        Some(digest.as_str()),
        "same dir reloads to the same content digest"
    );
    let bridged = client.get("/dump?serial=0").expect("dump bridged");
    let bridged_text = bridged.text();
    let bridged_header = Json::parse(bridged_text.lines().next().unwrap()).expect("header");
    assert_eq!(
        bridged_header.get("type").and_then(|t| t.as_str()),
        Some("delta")
    );
    assert_eq!(bridged_header.get("from").and_then(|s| s.as_u64()), Some(0));
    assert_eq!(
        bridged_header.get("serial").and_then(|s| s.as_u64()),
        Some(1)
    );
    assert_eq!(
        bridged_text.lines().count(),
        1,
        "identical content, empty delta ops"
    );

    // /metrics is valid Prometheus text exposition and carries the serve
    // counter family.
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let metrics_text = metrics.text();
    for series in [
        "p2o_serve_connections_total",
        "p2o_serve_requests_total",
        "p2o_serve_http_4xx_total",
        "p2o_serve_http_5xx_total",
        "p2o_serve_reloads_total",
        "p2o_serve_lookup_ns",
    ] {
        assert!(
            metrics_text.contains(series),
            "missing {series} in:\n{metrics_text}"
        );
    }
    assert!(metrics_text.contains("p2o_serve_reloads_total 1"));
    // The process RSS gauge is always present; on Linux (where CI runs)
    // the /proc/self/statm probe must report a live, nonzero footprint.
    let rss = metrics_text
        .lines()
        .find_map(|l| l.strip_prefix("p2o_serve_rss_bytes "))
        .expect("p2o_serve_rss_bytes series")
        .parse::<u64>()
        .expect("rss value");
    if cfg!(target_os = "linux") {
        assert!(rss > 0, "statm-backed RSS gauge must be nonzero on linux");
    }
    let status = client.get("/status").expect("status");
    assert_eq!(status.status, 200);
    let status_text = status.text();
    assert!(
        status_text.contains("\"rss_bytes\""),
        "status must carry rss_bytes:\n{status_text}"
    );
    for line in metrics_text.lines() {
        if line.starts_with('#') {
            assert!(line.starts_with("# TYPE ") || line.starts_with("# HELP "));
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("series value");
        assert!(value.parse::<f64>().is_ok(), "bad value: {line}");
    }
}

/// A built directory boots from the frozen artifact (`/health` reports
/// `frozen: true`), answers byte-identically to both `explain --frozen`
/// and a live `explain`, matches a `--no-frozen` full-load boot digest
/// for digest, and a stale artifact (inputs regenerated after the
/// freeze) silently falls back to the full load.
#[test]
fn frozen_boot_serves_identically_and_stale_artifact_falls_back() {
    let dir = temp_dir("frozen-boot");
    let dir_s = dir.to_str().unwrap().to_string();
    generate(&dir, "4243");
    run_ok(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        dir.join("dataset.jsonl").to_str().unwrap(),
    ]);
    assert!(
        dir.join("world.p2ob").is_file(),
        "build writes the frozen artifact"
    );

    let digest;
    {
        let server = Server::start(&dir);
        let mut client = server.client();
        let health = Json::parse(&client.get("/health").expect("health").text()).expect("parses");
        assert_eq!(
            health.get("frozen").and_then(Json::as_bool),
            Some(true),
            "boot must attach the frozen artifact: {health:?}"
        );
        digest = health
            .get("snapshot")
            .and_then(|s| s.as_str())
            .expect("digest")
            .to_string();
        let prefixes = served_prefixes(&mut client, 3);
        assert_eq!(prefixes.len(), 3);
        for p in &prefixes {
            let single = client
                .get(&format!("/prefix/{}", p.replace('/', "%2f")))
                .expect("lookup");
            assert_eq!(single.status, 200);
            let json = Json::parse(&single.text()).expect("lookup parses");
            let provenance = json
                .get("provenance")
                .and_then(|x| x.as_str())
                .unwrap_or_else(|| panic!("no provenance for {p}"));
            let frozen_explain = run_ok(&["explain", "--in", &dir_s, "--frozen", p]);
            assert_eq!(
                provenance, frozen_explain,
                "frozen serve diverges from explain --frozen for {p}"
            );
            let live_explain = run_ok(&["explain", "--in", &dir_s, p]);
            assert_eq!(
                provenance, live_explain,
                "frozen serve diverges from live explain for {p}"
            );
        }
    }

    // --no-frozen forces the full load; same content, same digest.
    {
        let server = Server::start_with(&dir, &["--no-frozen"]);
        let mut client = server.client();
        let health = Json::parse(&client.get("/health").expect("health").text()).expect("parses");
        assert_eq!(health.get("frozen").and_then(Json::as_bool), Some(false));
        assert_eq!(
            health.get("snapshot").and_then(|s| s.as_str()),
            Some(digest.as_str()),
            "full load and frozen attach must agree on the content digest"
        );
    }

    // Regenerating the inputs strands the old artifact; boot detects the
    // stale inputs digest and falls back to the full load.
    generate(&dir, "4244");
    {
        let server = Server::start(&dir);
        let mut client = server.client();
        let health = Json::parse(&client.get("/health").expect("health").text()).expect("parses");
        assert_eq!(
            health.get("frozen").and_then(Json::as_bool),
            Some(false),
            "stale artifact must not be served: {health:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// An intact artifact written by a release with an older frozen format
/// (format_version 2, whose meta section was 32 bytes) is not damage:
/// `fsck` names it in a note and passes, and `serve` warns that it asks
/// for a rebuild, falls back to the full load, and answers exactly what a
/// `--no-frozen` boot answers.
#[test]
fn older_frozen_format_falls_back_to_a_full_load() {
    use p2o_util::arena::{ArenaIndex, ArenaWriter};
    use p2o_util::atomic;

    let dir = temp_dir("frozen-v2");
    let dir_s = dir.to_str().unwrap().to_string();
    generate(&dir, "4245");
    run_ok(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        dir.join("dataset.jsonl").to_str().unwrap(),
    ]);
    let p2ob = dir.join("world.p2ob");
    let payload = atomic::unframe(&std::fs::read(&p2ob).expect("artifact")).expect("unframes");
    let arena = ArenaIndex::parse(&payload).expect("arena parses");
    let mut w = ArenaWriter::new();
    for name in arena.names() {
        let mut bytes = payload[arena.require(name).unwrap()].to_vec();
        if name == "meta" {
            bytes.truncate(32);
            bytes[..4].copy_from_slice(&2u32.to_le_bytes());
        }
        w.section(name, bytes);
    }
    let framed = atomic::frame(&w.finish());
    std::fs::write(&p2ob, &framed).expect("write v2 artifact");
    // The release that wrote it recorded it in the manifest too.
    let vfs = p2o_util::vfs::Vfs::real();
    let mut manifest = p2o_util::manifest::Manifest::load(&vfs, &dir)
        .expect("manifest loads")
        .expect("generate writes a manifest");
    manifest.record("world.p2ob", &framed);
    manifest.save(&vfs, &dir).expect("manifest saves");

    let out = run(&["fsck", &dir_s]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "an older format is not damage:\nstdout: {}\nstderr: {stderr}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains("world.p2ob") && stderr.contains("rebuild the artifact"),
        "fsck must name the artifact:\n{stderr}"
    );

    let reference = {
        let server = Server::start_with(&dir, &["--no-frozen"]);
        let mut client = server.client();
        let prefixes = served_prefixes(&mut client, 3);
        prefixes
            .iter()
            .map(|p| {
                let r = client
                    .get(&format!("/prefix/{}", p.replace('/', "%2f")))
                    .expect("lookup");
                (p.clone(), r.status, r.text())
            })
            .collect::<Vec<_>>()
    };
    let log = dir.join("serve.stderr");
    let server = Server::start_logging(&dir, &log);
    let stderr = std::fs::read_to_string(&log).expect("stderr log");
    assert!(
        stderr.contains("format_version 2 is older than this reader")
            && stderr.contains("falling back to a full load"),
        "serve must log the fallback:\n{stderr}"
    );
    let mut client = server.client();
    let health = Json::parse(&client.get("/health").expect("health").text()).expect("parses");
    assert_eq!(health.get("frozen").and_then(Json::as_bool), Some(false));
    assert!(!reference.is_empty());
    for (p, status, body) in &reference {
        let r = client
            .get(&format!("/prefix/{}", p.replace('/', "%2f")))
            .expect("lookup");
        assert_eq!((r.status, &r.text()), (*status, body), "answer for {p}");
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_an_unhealthy_directory_with_exit_2() {
    let dir = temp_dir("unhealthy");
    generate(&dir, "99");
    // A leftover tmp file is exactly the damage fsck flags.
    std::fs::write(dir.join("whois_arin.txt.p2o-tmp"), b"partial").expect("write tmp");
    let out = run(&["serve", dir.to_str().unwrap(), "--addr", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2), "integrity damage must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let diag: Vec<&str> = stderr.lines().collect();
    assert_eq!(diag.len(), 1, "one-line diagnostic, got:\n{stderr}");
    assert!(diag[0].contains("integrity error"), "{stderr}");
}
