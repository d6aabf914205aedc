//! Decision provenance: the rule chain behind one pipeline answer.
//!
//! The paper's validation (§5) hinges on being able to audit *why* a
//! prefix was assigned its Direct Owner and Delegated Customers — which
//! covering delegations were consulted, which radix LPM nodes were
//! walked, which WHOIS org matched, which merge joined the clusters.
//! A [`DecisionTrace`] captures that chain as ordered, human-readable
//! steps; `p2o explain <prefix>` renders it.
//!
//! Steps are plain `{rule, detail}` strings: this crate sits below
//! `p2o-whois`/`p2o-core` in the dependency graph, so the domain layers
//! format their own details and the trace stays type-agnostic. Unlike
//! span timestamps, a decision trace is fully deterministic for a
//! deterministic input — tests pin rendered traces verbatim.

/// One applied rule in a decision chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionStep {
    /// Short rule identifier (e.g. `radix.lpm`, `whois.direct_owner`).
    pub rule: String,
    /// Human-readable detail: what the rule matched and produced.
    pub detail: String,
}

/// The ordered rule chain that produced one answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTrace {
    /// What is being explained (e.g. the prefix under resolution).
    pub subject: String,
    /// Applied rules, in application order.
    pub steps: Vec<DecisionStep>,
}

impl DecisionTrace {
    /// An empty trace for `subject`.
    pub fn new(subject: impl Into<String>) -> DecisionTrace {
        DecisionTrace {
            subject: subject.into(),
            steps: Vec::new(),
        }
    }

    /// Appends a step.
    pub fn push(&mut self, rule: impl Into<String>, detail: impl Into<String>) {
        self.steps.push(DecisionStep {
            rule: rule.into(),
            detail: detail.into(),
        });
    }

    /// Whether any step used rule `rule`.
    pub fn used(&self, rule: &str) -> bool {
        self.steps.iter().any(|s| s.rule == rule)
    }

    /// Renders the chain as numbered, rule-aligned lines:
    ///
    /// ```text
    /// 203.0.113.0/24
    ///   1. bgp.origins      announced by AS65001
    ///   2. radix.lpm        covering chain has 2 blocks (7 nodes walked)
    /// ```
    pub fn render(&self) -> String {
        let width = rule_width(self.steps.iter().map(|s| s.rule.as_str()));
        let mut out = String::new();
        let mut lines = StepWriter::new(&mut out, &self.subject, self.steps.len(), width);
        for step in &self.steps {
            lines.step(&step.rule, |out| out.push_str(&step.detail));
        }
        out
    }
}

/// The rule column width for a chain using `rules`: the longest rule name,
/// in bytes (the same measure [`DecisionTrace::render`] always used).
pub fn rule_width<'a>(rules: impl IntoIterator<Item = &'a str>) -> usize {
    rules.into_iter().map(str::len).max().unwrap_or(0)
}

/// The one writer of the numbered, aligned trace layout.
///
/// [`DecisionTrace::render`] drives it from stored steps; renderers that
/// hold the trace's *inputs* instead (the frozen artifact) drive it
/// directly, writing each detail straight into the output. The step count
/// and rule width are fixed up front, so no line is ever re-padded.
pub struct StepWriter<'a> {
    out: &'a mut String,
    width: usize,
    digits: usize,
    steps: usize,
    written: usize,
}

impl<'a> StepWriter<'a> {
    /// Writes the subject line and prepares for `steps` numbered lines with
    /// the rule column padded to `width`. A chain of zero steps renders the
    /// `(no rules applied)` placeholder.
    pub fn new(
        out: &'a mut String,
        subject: impl core::fmt::Display,
        steps: usize,
        width: usize,
    ) -> StepWriter<'a> {
        use core::fmt::Write as _;
        let _ = writeln!(out, "{subject}");
        if steps == 0 {
            out.push_str("  (no rules applied)\n");
        }
        StepWriter {
            out,
            width,
            digits: decimal_digits(steps),
            steps,
            written: 0,
        }
    }

    /// Writes the next numbered line: the rule, padded to the column
    /// width, then whatever `detail` appends, then the newline.
    pub fn step(&mut self, rule: &str, detail: impl FnOnce(&mut String)) {
        use core::fmt::Write as _;
        self.written += 1;
        debug_assert!(self.written <= self.steps, "more steps than declared");
        let n = self.written;
        pad(
            self.out,
            (2 + self.digits).saturating_sub(decimal_digits(n)),
        );
        let _ = write!(self.out, "{n}. ");
        self.out.push_str(rule);
        pad(
            self.out,
            self.width.saturating_sub(rule.chars().count()) + 2,
        );
        detail(self.out);
        self.out.push('\n');
    }
}

fn decimal_digits(mut n: usize) -> usize {
    let mut digits = 1;
    while n >= 10 {
        n /= 10;
        digits += 1;
    }
    digits
}

fn pad(out: &mut String, spaces: usize) {
    const SPACES: &str = "                                ";
    let mut left = spaces;
    while left > 0 {
        let take = left.min(SPACES.len());
        out.push_str(&SPACES[..take]);
        left -= take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_numbered_and_aligned() {
        let mut trace = DecisionTrace::new("203.0.113.0/24");
        trace.push("bgp.origins", "announced by AS65001");
        trace.push("radix.lpm", "covering chain has 2 blocks");
        trace.push("whois.direct_owner", "Example Networks (allocation)");
        let text = trace.render();
        assert_eq!(
            text,
            "203.0.113.0/24\n\
             \x20 1. bgp.origins         announced by AS65001\n\
             \x20 2. radix.lpm           covering chain has 2 blocks\n\
             \x20 3. whois.direct_owner  Example Networks (allocation)\n"
        );
        assert!(trace.used("radix.lpm"));
        assert!(!trace.used("cluster.merge"));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let trace = DecisionTrace::new("198.51.100.0/24");
        assert_eq!(trace.render(), "198.51.100.0/24\n  (no rules applied)\n");
    }

    /// The writer reproduces the `format!`-padded layout it replaced,
    /// including two-digit numbering and rules longer than the width.
    #[test]
    fn writer_matches_format_padding() {
        let reference = |trace: &DecisionTrace| {
            let width = trace.steps.iter().map(|s| s.rule.len()).max().unwrap_or(0);
            let digits = trace.steps.len().to_string().len();
            let mut out = format!("{}\n", trace.subject);
            for (i, step) in trace.steps.iter().enumerate() {
                out.push_str(&format!(
                    "  {:>digits$}. {:width$}  {}\n",
                    i + 1,
                    step.rule,
                    step.detail,
                ));
            }
            out
        };
        for n in [1usize, 9, 10, 11, 100] {
            let mut trace = DecisionTrace::new(format!("subject {n}"));
            for i in 0..n {
                trace.push("r".repeat(i % 13 + 1), format!("detail {i}"));
            }
            assert_eq!(trace.render(), reference(&trace), "{n} steps");
        }
        let mut out = String::new();
        let mut w = StepWriter::new(&mut out, "s", 1, 2);
        w.step("longer-than-width", |o| o.push('d'));
        assert_eq!(out, "s\n  1. longer-than-width  d\n");
    }

    #[test]
    fn traces_are_comparable_for_pinning() {
        let mut a = DecisionTrace::new("s");
        a.push("r", "d");
        let mut b = DecisionTrace::new("s");
        b.push("r", "d");
        assert_eq!(a, b);
        b.push("r2", "d2");
        assert_ne!(a, b);
    }
}
