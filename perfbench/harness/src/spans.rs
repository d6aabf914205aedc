//! In-memory span recorder for the traced run.
//!
//! Spans are recorded on one thread around calls into the program's
//! layers: name, start, end and the enclosing span. Every span also
//! carries a group id — one per replicated build or per request — so a
//! trace viewer can pick out one operation. Nothing is written until the
//! run ends; [`Spans::to_chrome_json`] then renders the same Chrome
//! trace-event array that `prefix2org build --trace` writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    group: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A single-threaded span log.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, group: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, group);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span name in `group`, in milliseconds: each
    /// span's duration minus the part its direct children cover, summed per
    /// name.
    pub fn self_ms(&self, group: u64) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.group == group)
        {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Summed wall time of the spans named `name` in `group`, in
    /// milliseconds, children included.
    pub fn total_ms(&self, group: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.group == group && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// The spans as a Chrome trace-event array (B/E pairs on one thread,
    /// timestamps in microseconds, `span_id`/`parent` args).
    pub fn to_chrome_json(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut events: Vec<String> = vec![
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"perfbench"}}"#
                .to_string(),
        ];
        // Iterative pre/post-order walk: a span's B, its children, its E.
        let mut stack: Vec<(usize, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
        while let Some((i, closing)) = stack.pop() {
            let s = &self.spans[i];
            if closing {
                events.push(format!(
                    r#"{{"name":"{}","ph":"E","pid":1,"tid":1,"ts":{:.3}}}"#,
                    s.name,
                    s.end_ns as f64 / 1e3
                ));
                continue;
            }
            let mut args = format!(r#""span_id":{},"group":{}"#, i + 1, s.group);
            if let Some(p) = s.parent {
                let _ = write!(args, r#","parent":{}"#, p + 1);
            }
            events.push(format!(
                r#"{{"name":"{}","ph":"B","pid":1,"tid":1,"ts":{:.3},"args":{{{args}}}}}"#,
                s.name,
                s.start_ns as f64 / 1e3
            ));
            stack.push((i, true));
            for &c in children[i].iter().rev() {
                stack.push((c, false));
            }
        }
        format!("[\n{}\n]\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_trace_nests() {
        let mut spans = Spans::new();
        let outer = spans.begin("outer", 1);
        spans.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.end(outer);
        let own = spans.self_ms(1);
        assert!(own["inner"] >= 2.0);
        assert!(
            own["outer"] < own["inner"],
            "outer self time excludes inner"
        );
        assert!(spans.total_ms(1, "outer") >= own["inner"] + own["outer"] - 1e-9);
        let json = spans.to_chrome_json();
        let parsed = p2o_util::json::Json::parse(&json).expect("trace is JSON");
        let events = parsed.as_array().expect("array");
        let phases: Vec<&str> = events
            .iter()
            .skip(1)
            .map(|e| e.get("ph").and_then(|p| p.as_str()).unwrap())
            .collect();
        assert_eq!(phases, ["B", "B", "E", "E"]);
    }
}
