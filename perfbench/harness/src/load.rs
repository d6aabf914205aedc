//! Open-loop HTTP load over two keep-alive connections.
//!
//! `lookup` sends `GET /prefix/<cidr>` from the seeded mix, with every Nth
//! request a `GET /health` probe; `bulk` sends `POST /batch` bodies of
//! mixed lines. The shares and sizes come from the command line ([`Mix`]). Each connection is driven by one thread that sends every
//! request at its due time whether or not earlier answers have arrived
//! (requests pipeline on the connection), so a stall in the server shows
//! as queueing rather than as a slower client. Latency is timed from the
//! due time, so generator lateness counts against the server too, and the
//! lateness itself is reported so a run whose generator fell behind can be
//! thrown out.
//!
//! The process reads commands on stdin and answers each with one JSON line:
//!
//! ```text
//! connect ADDR                       open both connections
//! step LOOKUP_RPS BULK_RPS SECONDS   run one fixed-rate step
//! burst N BULK_RPS                   send N lookup requests at once, with
//!                                    bulk at its rate until they are answered
//! close                              drop both connections
//! ```
//!
//! Every answer is checked against the export oracle after the step, off
//! the clock.

use std::collections::VecDeque;
use std::ffi::{c_int, c_long, c_ulong, c_void};
use std::fmt::Write as _;
use std::io::{BufRead, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::oracle::{self, Oracle, Query, QueryKind};

/// Distinct `/prefix` queries cycled through.
const LOOKUP_POOL: usize = 4096;
/// Distinct `/batch` bodies cycled through.
const BATCH_POOL: usize = 64;
/// How long a step waits for outstanding answers after its last send.
const DRAIN: Duration = Duration::from_secs(10);

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        tmo: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
}

/// Waits until `fd` is ready for `events` or `timeout` passes.
fn wait_ready(fd: c_int, events: i16, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid out (#[repr(C)]
    // matching struct pollfd / struct timespec on Linux) for the whole
    // call, nfds is 1 for the single pollfd, and a null sigmask means "do
    // not change the signal mask". A failed or interrupted call only
    // returns early, which the caller's loop tolerates.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Asks the kernel to wake this thread's timed waits within 1 µs of their
/// deadline instead of the default 50 µs slack, so sends leave on time.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (the slack in
    // ns) and touches only the calling thread's scheduling attributes; the
    // unused trailing arguments are ignored. Failure leaves the default
    // slack, which only makes sends later (and lateness is measured).
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
    }
}

/// The request mix, as given on the command line.
pub struct Mix {
    /// Shares of the `/prefix` queries in percent: record prefixes,
    /// more-specifics inside a record, and misses.
    pub percent: [(QueryKind, u64); 3],
    /// Every `health_every`th request on the lookup connection is a probe.
    pub health_every: u64,
    /// Lines per `/batch` request.
    pub batch_lines: usize,
}

impl Mix {
    /// `percent` is `RECORD,MORE_SPECIFIC,MISS`, summing to 100.
    pub fn parse(percent: &str, health_every: &str, batch_lines: &str) -> Result<Mix, String> {
        let shares: Vec<u64> = percent
            .split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|e| format!("--mix {percent:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let [record, more_specific, miss] = shares[..] else {
            return Err(format!("--mix {percent:?}: want three shares"));
        };
        if record + more_specific + miss != 100 {
            return Err(format!("--mix {percent:?}: shares must sum to 100"));
        }
        let health_every: u64 = health_every
            .parse()
            .map_err(|e| format!("--health-every: {e}"))?;
        let batch_lines: usize = batch_lines
            .parse()
            .map_err(|e| format!("--batch-lines: {e}"))?;
        if health_every < 2 || batch_lines == 0 {
            return Err("--health-every must be at least 2 and --batch-lines at least 1".into());
        }
        Ok(Mix {
            percent: [
                (QueryKind::Record, record),
                (QueryKind::MoreSpecific, more_specific),
                (QueryKind::Miss, miss),
            ],
            health_every,
            batch_lines,
        })
    }
}

/// One request on a connection, pre-rendered.
struct Req {
    bytes: Vec<u8>,
    /// 0 = /prefix, 1 = /health, 2 = /batch.
    kind: usize,
    /// Index into the lookup or batch pool.
    pool: usize,
}

/// The answer to one request.
struct Answer {
    kind: usize,
    pool: usize,
    status: u16,
    body: Vec<u8>,
}

struct ConnResult {
    lat_ns: [Vec<u64>; 3],
    late_ns: Vec<u64>,
    backlog_max: usize,
    backlog_end: usize,
    answers: Vec<Answer>,
    lost: u64,
    broken: bool,
    /// From the first due time to the last answer.
    span_ns: u64,
}

/// When a connection's requests are due.
#[derive(Clone, Copy)]
struct Pace {
    /// Requests to send; a `stop` flag may end sending earlier.
    total: usize,
    /// Between consecutive due times; 0 sends them all at once.
    interval_ns: f64,
}

impl Pace {
    fn rate(rate: f64, seconds: f64) -> Pace {
        if rate <= 0.0 {
            return Pace {
                total: 0,
                interval_ns: 0.0,
            };
        }
        Pace {
            total: (rate * seconds).round().max(1.0) as usize,
            interval_ns: 1e9 / rate,
        }
    }
}

/// Splits one complete response off the front of `buf`: (status, body
/// range, bytes consumed).
fn parse_response(buf: &[u8]) -> Result<Option<(u16, std::ops::Range<usize>, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "response head not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let mut len = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().map_err(|_| "bad content-length")?;
            }
        }
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + len {
        return Ok(None);
    }
    Ok(Some((
        status,
        body_start..body_start + len,
        body_start + len,
    )))
}

/// Sends `reqs` (cycled from `next`) over `stream` at the due times of
/// `pace`, open loop. Sending also ends once `stop` is set.
fn drive(
    stream: &mut TcpStream,
    reqs: &[Req],
    next: &mut usize,
    pace: Pace,
    stop: Option<&AtomicBool>,
) -> ConnResult {
    tighten_timer_slack();
    let mut res = ConnResult {
        lat_ns: [Vec::new(), Vec::new(), Vec::new()],
        late_ns: Vec::new(),
        backlog_max: 0,
        backlog_end: 0,
        answers: Vec::new(),
        lost: 0,
        broken: false,
        span_ns: 0,
    };
    let Pace {
        mut total,
        interval_ns,
    } = pace;
    if total == 0 {
        return res;
    }
    let fd = stream.as_raw_fd();
    stream
        .set_nonblocking(true)
        .expect("a connected socket can be made nonblocking");
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| t0 + Duration::from_nanos((i as f64 * interval_ns) as u64);
    let mut sent = 0usize;
    let mut outstanding: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut out: Vec<u8> = Vec::new();
    let mut out_off = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut deadline: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if sent < total && stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            total = sent;
            res.backlog_end = outstanding.len();
            deadline = Some(now + DRAIN);
        }
        while sent < total && due(sent) <= now {
            let d = due(sent);
            let r = &reqs[*next % reqs.len()];
            *next += 1;
            out.extend_from_slice(&r.bytes);
            res.late_ns.push(now.duration_since(d).as_nanos() as u64);
            outstanding.push_back((d, *next - 1));
            res.backlog_max = res.backlog_max.max(outstanding.len());
            sent += 1;
            if sent == total {
                res.backlog_end = outstanding.len();
                deadline = Some(now + DRAIN);
            }
        }
        while out_off < out.len() {
            match stream.write(&out[out_off..]) {
                Ok(0) => {
                    res.broken = true;
                    break;
                }
                Ok(n) => out_off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    res.broken = true;
                    break;
                }
            }
        }
        if out_off == out.len() {
            out.clear();
            out_off = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    res.broken = true;
                    break;
                }
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    res.broken = true;
                    break;
                }
            }
        }
        let mut consumed = 0usize;
        while let Ok(Some((status, body, used))) = parse_response(&inbuf[consumed..]) {
            let at = Instant::now();
            let Some((d, idx)) = outstanding.pop_front() else {
                res.broken = true;
                break;
            };
            let r = &reqs[idx % reqs.len()];
            res.lat_ns[r.kind].push(at.duration_since(d).as_nanos() as u64);
            res.span_ns = at.saturating_duration_since(t0).as_nanos() as u64;
            res.answers.push(Answer {
                kind: r.kind,
                pool: r.pool,
                status,
                body: inbuf[consumed + body.start..consumed + body.end].to_vec(),
            });
            consumed += used;
        }
        if parse_response(&inbuf[consumed..]).is_err() {
            res.broken = true;
        }
        inbuf.drain(..consumed);
        if res.broken || (sent == total && outstanding.is_empty()) {
            break;
        }
        let now = Instant::now();
        let wake = if sent < total {
            due(sent)
        } else {
            deadline.expect("set with the last send")
        };
        if sent == total && now >= wake {
            break;
        }
        let events = if out.is_empty() {
            POLLIN
        } else {
            POLLIN | POLLOUT
        };
        wait_ready(fd, events, wake.saturating_duration_since(now));
    }
    res.lost = outstanding.len() as u64;
    if res.lost > 0 {
        res.broken = true;
    }
    res
}

fn encode_path(q: &Query) -> String {
    q.text.replace('/', "%2f")
}

fn render_lookup(pool: &[Query], health_every: u64) -> Vec<Req> {
    let mut reqs = Vec::with_capacity(pool.len() * 2);
    let mut j = 0usize;
    let mut i = 0u64;
    // One full cycle of the query pool, with a probe every `health_every`.
    while j < pool.len() {
        i += 1;
        if i.is_multiple_of(health_every) {
            reqs.push(Req {
                bytes: b"GET /health HTTP/1.1\r\nHost: perfbench\r\n\r\n".to_vec(),
                kind: 1,
                pool: 0,
            });
        } else {
            reqs.push(Req {
                bytes: format!(
                    "GET /prefix/{} HTTP/1.1\r\nHost: perfbench\r\n\r\n",
                    encode_path(&pool[j])
                )
                .into_bytes(),
                kind: 0,
                pool: j,
            });
            j += 1;
        }
    }
    reqs
}

/// The lookup connection's requests for one pass over `pool`, as bytes.
pub fn lookup_wire(pool: &[Query], health_every: u64) -> Vec<Vec<u8>> {
    render_lookup(pool, health_every)
        .into_iter()
        .map(|r| r.bytes)
        .collect()
}

fn render_batches(batches: &[Vec<Query>]) -> Vec<Req> {
    batches
        .iter()
        .enumerate()
        .map(|(k, qs)| {
            let body: String = qs.iter().map(|q| format!("{}\n", q.text)).collect();
            let mut bytes = format!(
                "POST /batch HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            bytes.extend_from_slice(body.as_bytes());
            Req {
                bytes,
                kind: 2,
                pool: k,
            }
        })
        .collect()
}

/// The seeded request pools: the `/prefix` mix and the `/batch` bodies.
pub struct Pools {
    pub lookups: Vec<Query>,
    pub batches: Vec<Vec<Query>>,
}

impl Pools {
    pub fn new(oracle: &Oracle, seed: u64, mix: &Mix) -> Pools {
        let lookups = oracle::query_mix(oracle, seed, LOOKUP_POOL, &mix.percent);
        let flat = oracle::query_mix(
            oracle,
            seed.wrapping_add(1),
            BATCH_POOL * mix.batch_lines,
            &mix.percent,
        );
        let batches = flat
            .chunks(mix.batch_lines)
            .map(<[Query]>::to_vec)
            .collect();
        Pools { lookups, batches }
    }
}

fn check(oracle: &Oracle, pools: &Pools, a: &Answer) -> Result<(), String> {
    match a.kind {
        0 => oracle::check_prefix(oracle, &pools.lookups[a.pool], a.status, &a.body),
        1 => oracle::check_health(oracle, a.status, &a.body),
        _ => oracle::check_batch(oracle, &pools.batches[a.pool], a.status, &a.body),
    }
}

fn json_list(out: &mut String, key: &str, values: &[u64]) {
    let _ = write!(out, "\"{key}\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push_str("],");
}

fn json_str(s: &str) -> String {
    p2o_util::json::Json::from(s).to_string()
}

struct Session {
    lookup: TcpStream,
    bulk: TcpStream,
}

fn connect(addr: &str) -> Result<Session, String> {
    let open = || -> Result<TcpStream, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(s)
    };
    Ok(Session {
        lookup: open()?,
        bulk: open()?,
    })
}

/// Runs the stdin command loop until EOF.
pub fn serve_commands(export: &str, seed: u64, mix: &Mix) -> Result<(), String> {
    let text = std::fs::read_to_string(export).map_err(|e| format!("reading {export}: {e}"))?;
    let oracle = Oracle::from_export(&text)?;
    let pools = Pools::new(&oracle, seed, mix);
    let lookup_reqs = render_lookup(&pools.lookups, mix.health_every);
    let batch_reqs = render_batches(&pools.batches);
    let mut next_lookup = 0usize;
    let mut next_batch = 0usize;
    let mut session: Option<Session> = None;
    let stdout = std::io::stdout();
    let share = |kind: QueryKind| pools.lookups.iter().filter(|q| q.kind == kind).count();
    println!(
        "{{\"ready\":true,\"records\":{},\"mix\":{{\"record\":{},\"more_specific\":{},\"miss\":{}}}}}",
        oracle.records.len(),
        share(QueryKind::Record),
        share(QueryKind::MoreSpecific),
        share(QueryKind::Miss),
    );
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let words: Vec<&str> = line.split_whitespace().collect();
        let reply = match words.as_slice() {
            ["connect", addr] => match connect(addr) {
                Ok(s) => {
                    session = Some(s);
                    "{\"ok\":true}".to_string()
                }
                Err(e) => format!("{{\"ok\":false,\"error\":{}}}", json_str(&e)),
            },
            ["close"] => {
                session = None;
                "{\"ok\":true}".to_string()
            }
            ["step", _, _, _] | ["burst", _, _] => {
                let num = |s: &str| s.parse::<f64>().map_err(|e| format!("{s:?}: {e}"));
                let (lookup_pace, bulk_pace, burst) = match words.as_slice() {
                    ["step", lookup_rps, bulk_rps, seconds] => {
                        let secs = num(seconds)?;
                        (
                            Pace::rate(num(lookup_rps)?, secs),
                            Pace::rate(num(bulk_rps)?, secs),
                            false,
                        )
                    }
                    [_, n, bulk_rps] => (
                        Pace {
                            total: n.parse().map_err(|e| format!("{n:?}: {e}"))?,
                            interval_ns: 0.0,
                        },
                        // Bulk keeps its rate until the burst is answered.
                        Pace::rate(num(bulk_rps)?, DRAIN.as_secs_f64()),
                        true,
                    ),
                    _ => unreachable!("matched above"),
                };
                let Some(s) = session.as_mut() else {
                    return Err("step before connect".to_string());
                };
                let done = AtomicBool::new(false);
                let stop = burst.then_some(&done);
                let (lres, bres) = std::thread::scope(|scope| {
                    let l = scope.spawn(|| {
                        let r = drive(
                            &mut s.lookup,
                            &lookup_reqs,
                            &mut next_lookup,
                            lookup_pace,
                            None,
                        );
                        done.store(true, Ordering::Relaxed);
                        r
                    });
                    let b = scope.spawn(|| {
                        drive(&mut s.bulk, &batch_reqs, &mut next_batch, bulk_pace, stop)
                    });
                    (
                        l.join().expect("lookup generator thread panicked"),
                        b.join().expect("bulk generator thread panicked"),
                    )
                });
                let mut failures: Vec<String> = Vec::new();
                let mut failed = lres.lost + bres.lost;
                let mut attempted = failed;
                for a in lres.answers.iter().chain(&bres.answers) {
                    attempted += 1;
                    if let Err(e) = check(&oracle, &pools, a) {
                        failed += 1;
                        if failures.len() < 5 {
                            failures.push(e);
                        }
                    }
                }
                if lres.broken || bres.broken {
                    failures.push("connection broken; reconnect before the next step".into());
                    session = None;
                }
                let mut late = lres.late_ns;
                late.extend_from_slice(&bres.late_ns);
                let mut out = String::from("{");
                json_list(&mut out, "prefix_ns", &lres.lat_ns[0]);
                json_list(&mut out, "health_ns", &lres.lat_ns[1]);
                json_list(&mut out, "batch_ns", &bres.lat_ns[2]);
                json_list(&mut out, "late_ns", &late);
                let _ = write!(
                    out,
                    "\"backlog_max\":{},\"backlog_end\":{},\"lookup_span_ns\":{},\"attempted\":{attempted},\"failed\":{failed},\"failures\":[{}]}}",
                    lres.backlog_max.max(bres.backlog_max),
                    lres.backlog_end,
                    lres.span_ns,
                    failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(",")
                );
                out
            }
            _ => format!(
                "{{\"ok\":false,\"error\":{}}}",
                json_str(&format!("bad command {line:?}"))
            ),
        };
        let mut lock = stdout.lock();
        writeln!(lock, "{reply}").map_err(|e| e.to_string())?;
        lock.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}
