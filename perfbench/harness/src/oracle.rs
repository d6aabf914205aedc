//! The benchmark's own view of a built dataset: an exact-match table per
//! prefix length built from the export JSONL, longest-prefix match over
//! it, the seeded query mix, and the checks every served response must
//! pass. Prefix parsing and matching use only the standard library, so the
//! oracle shares no lookup code with the program it checks.

use std::collections::{HashMap, HashSet};
use std::net::{Ipv4Addr, Ipv6Addr};

use p2o_util::json::Json;

/// An address prefix: family, length and the network bits (host bits zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    pub v6: bool,
    pub len: u8,
    pub bits: u128,
}

impl Cidr {
    fn width(v6: bool) -> u8 {
        if v6 {
            128
        } else {
            32
        }
    }

    fn mask(bits: u128, len: u8, width: u8) -> u128 {
        if len == 0 {
            return 0;
        }
        let full: u128 = if width == 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        };
        bits & (full << (width - len)) & full
    }

    pub fn parse(s: &str) -> Option<Cidr> {
        let (addr, len) = s.split_once('/')?;
        let len: u8 = len.parse().ok()?;
        let (v6, bits) = if addr.contains(':') {
            (true, u128::from(addr.parse::<Ipv6Addr>().ok()?))
        } else {
            (false, u128::from(u32::from(addr.parse::<Ipv4Addr>().ok()?)))
        };
        let width = Cidr::width(v6);
        if len > width || Cidr::mask(bits, len, width) != bits {
            return None;
        }
        Some(Cidr { v6, len, bits })
    }

    /// The covering prefix of length `len` (≤ this one's).
    pub fn truncate(&self, len: u8) -> Cidr {
        Cidr {
            v6: self.v6,
            len,
            bits: Cidr::mask(self.bits, len, Cidr::width(self.v6)),
        }
    }

    pub fn max_len(&self) -> u8 {
        Cidr::width(self.v6)
    }
}

impl std::fmt::Display for Cidr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.v6 {
            write!(f, "{}/{}", Ipv6Addr::from(self.bits), self.len)
        } else {
            write!(f, "{}/{}", Ipv4Addr::from(self.bits as u32), self.len)
        }
    }
}

/// The fields of one export record a served answer must reproduce.
pub struct Record {
    pub prefix: Cidr,
    /// The record's prefix exactly as the export spells it.
    pub prefix_text: String,
    pub direct_owner: String,
    pub final_cluster: String,
}

/// Longest-prefix match over the export's record prefixes.
pub struct Oracle {
    pub records: Vec<Record>,
    by_prefix: HashMap<Cidr, usize>,
    /// Record prefix lengths present per family, longest first.
    lens_v4: Vec<u8>,
    lens_v6: Vec<u8>,
}

impl Oracle {
    pub fn from_export(jsonl: &str) -> Result<Oracle, String> {
        let mut records = Vec::new();
        let mut by_prefix = HashMap::new();
        let mut lens: [HashSet<u8>; 2] = [HashSet::new(), HashSet::new()];
        for (n, line) in jsonl.lines().enumerate() {
            let doc = Json::parse(line).map_err(|e| format!("export line {}: {e:?}", n + 1))?;
            let field = |k: &str| -> Result<String, String> {
                doc.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("export line {}: no {k:?}", n + 1))
            };
            let prefix_text = field("prefix")?;
            let prefix = Cidr::parse(&prefix_text)
                .ok_or_else(|| format!("export line {}: bad prefix {prefix_text:?}", n + 1))?;
            if by_prefix.insert(prefix, records.len()).is_some() {
                return Err(format!("export repeats prefix {prefix_text}"));
            }
            lens[prefix.v6 as usize].insert(prefix.len);
            records.push(Record {
                prefix,
                prefix_text,
                direct_owner: field("direct_owner")?,
                final_cluster: field("final_cluster")?,
            });
        }
        if records.is_empty() {
            return Err("export has no records".to_string());
        }
        let sorted = |set: &HashSet<u8>| {
            let mut v: Vec<u8> = set.iter().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        };
        Ok(Oracle {
            by_prefix,
            lens_v4: sorted(&lens[0]),
            lens_v6: sorted(&lens[1]),
            records,
        })
    }

    /// The index of the longest record prefix covering `q`, if any.
    pub fn lpm(&self, q: &Cidr) -> Option<usize> {
        let lens = if q.v6 { &self.lens_v6 } else { &self.lens_v4 };
        lens.iter()
            .filter(|&&l| l <= q.len)
            .find_map(|&l| self.by_prefix.get(&q.truncate(l)).copied())
    }
}

/// SplitMix64: a small deterministic generator, so the mix depends on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0FB3_AC4A_1157)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What kind of `/prefix` query a mix entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Exactly a record prefix.
    Record,
    /// Strictly inside a record prefix.
    MoreSpecific,
    /// Covered by no record.
    Miss,
}

/// One lookup query with the record the oracle says must answer it.
#[derive(Debug, Clone)]
pub struct Query {
    pub kind: QueryKind,
    pub text: String,
    pub expect: Option<usize>,
}

fn draw_query(oracle: &Oracle, rng: &mut Rng, kind: QueryKind) -> Query {
    let cidr = match kind {
        QueryKind::Record => oracle.records[rng.below(oracle.records.len() as u64) as usize].prefix,
        QueryKind::MoreSpecific => loop {
            let base = oracle.records[rng.below(oracle.records.len() as u64) as usize].prefix;
            let room = base.max_len() - base.len;
            if room == 0 {
                continue;
            }
            let len = base.len + 1 + rng.below(u64::from(room.min(8))) as u8;
            let noise = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
            let host_mask = u128::MAX >> (128 - room);
            let widened = Cidr {
                v6: base.v6,
                len: base.max_len(),
                bits: base.bits | (noise & host_mask),
            };
            break widened.truncate(len);
        },
        QueryKind::Miss => loop {
            let c = if rng.below(10) < 7 {
                Cidr {
                    v6: false,
                    len: 32,
                    bits: u128::from(rng.next_u64() as u32),
                }
                .truncate(24)
            } else {
                Cidr {
                    v6: true,
                    len: 128,
                    bits: (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64()),
                }
                .truncate(48)
            };
            if oracle.lpm(&c).is_none() {
                break c;
            }
        },
    };
    Query {
        kind,
        text: cidr.to_string(),
        expect: oracle.lpm(&cidr),
    }
}

/// Draws `n` queries in the `percent` shares (summing to 100),
/// deterministically from `seed`.
pub fn query_mix(
    oracle: &Oracle,
    seed: u64,
    n: usize,
    percent: &[(QueryKind, u64); 3],
) -> Vec<Query> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let mut roll = rng.below(100);
            let mut kind = QueryKind::Miss;
            for &(k, pct) in percent {
                if roll < pct {
                    kind = k;
                    break;
                }
                roll -= pct;
            }
            draw_query(oracle, &mut rng, kind)
        })
        .collect()
}

/// Checks a `/prefix` answer: 200 with the oracle's matched prefix, Direct
/// Owner and final cluster, or 404 when no record covers the query. The
/// provenance text is not compared: for a more-specific query it documents
/// the covering record, and how it is rendered is the program's choice.
pub fn check_prefix(oracle: &Oracle, q: &Query, status: u16, body: &[u8]) -> Result<(), String> {
    match q.expect {
        None if status == 404 => Ok(()),
        None => Err(format!("{}: expected 404, got {status}", q.text)),
        Some(_) if status != 200 => Err(format!("{}: expected 200, got {status}", q.text)),
        Some(idx) => {
            let text =
                std::str::from_utf8(body).map_err(|_| format!("{}: body not UTF-8", q.text))?;
            let doc = Json::parse(text.trim_end())
                .map_err(|e| format!("{}: body not JSON: {e:?}", q.text))?;
            check_answer(oracle, &q.text, idx, &doc)
        }
    }
}

fn check_answer(oracle: &Oracle, query: &str, idx: usize, doc: &Json) -> Result<(), String> {
    let rec = &oracle.records[idx];
    let matched = doc.get("matched").and_then(Json::as_str);
    if matched != Some(rec.prefix_text.as_str()) {
        return Err(format!(
            "{query}: matched {matched:?}, oracle says {}",
            rec.prefix_text
        ));
    }
    // The served record uses the paper's Listing 1 field names.
    let record = doc.get("record");
    let field = |k: &str| record.and_then(|r| r.get(k)).and_then(Json::as_str);
    let owner = field("Direct Owner (DO)");
    if owner != Some(rec.direct_owner.as_str()) {
        return Err(format!(
            "{query}: Direct Owner {owner:?}, oracle says {:?}",
            rec.direct_owner
        ));
    }
    let cluster = field("Final Cluster");
    if cluster != Some(rec.final_cluster.as_str()) {
        return Err(format!(
            "{query}: Final Cluster {cluster:?}, oracle says {:?}",
            rec.final_cluster
        ));
    }
    Ok(())
}

/// Checks a `/batch` answer: one line per query, in order, each a correct
/// answer or an `error` object for a miss.
pub fn check_batch(oracle: &Oracle, qs: &[Query], status: u16, body: &[u8]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("batch: status {status}"));
    }
    let text = std::str::from_utf8(body).map_err(|_| "batch: body not UTF-8".to_string())?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != qs.len() {
        return Err(format!(
            "batch: {} lines for {} queries",
            lines.len(),
            qs.len()
        ));
    }
    for (q, line) in qs.iter().zip(lines) {
        let doc = Json::parse(line).map_err(|e| format!("batch line for {}: {e:?}", q.text))?;
        match q.expect {
            None if doc.get("error").is_some() => {}
            None => return Err(format!("batch: {} should miss", q.text)),
            Some(idx) => check_answer(oracle, &q.text, idx, &doc)?,
        }
    }
    Ok(())
}

/// Checks a `/health` answer: 200, `status: ok`, and the record count.
pub fn check_health(oracle: &Oracle, status: u16, body: &[u8]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("health: status {status}"));
    }
    let doc = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t.trim_end()).ok())
        .ok_or("health: body not JSON")?;
    if doc.get("status").and_then(Json::as_str) != Some("ok") {
        return Err("health: status is not ok".to_string());
    }
    let prefixes = doc.get("prefixes").and_then(Json::as_u64);
    if prefixes != Some(oracle.records.len() as u64) {
        return Err(format!(
            "health: {prefixes:?} prefixes, export has {}",
            oracle.records.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPORT: &str = concat!(
        r#"{"prefix":"10.0.0.0/8","direct_owner":"A","final_cluster":"a"}"#,
        "\n",
        r#"{"prefix":"10.1.0.0/16","direct_owner":"B","final_cluster":"b"}"#,
        "\n",
        r#"{"prefix":"2001:db8::/32","direct_owner":"C","final_cluster":"c"}"#,
        "\n",
    );

    #[test]
    fn lpm_picks_the_longest_cover() {
        let o = Oracle::from_export(EXPORT).unwrap();
        let q = |s: &str| o.lpm(&Cidr::parse(s).unwrap());
        assert_eq!(q("10.1.2.0/24"), Some(1));
        assert_eq!(q("10.2.0.0/16"), Some(0));
        assert_eq!(q("10.0.0.0/8"), Some(0));
        assert_eq!(q("11.0.0.0/8"), None);
        assert_eq!(q("2001:db8:1::/48"), Some(2));
        assert_eq!(q("2001:db9::/32"), None);
        assert!(Cidr::parse("10.0.0.1/8").is_none(), "host bits set");
    }

    #[test]
    fn mix_is_seeded_and_expectations_hold() {
        let o = Oracle::from_export(EXPORT).unwrap();
        let percent = [
            (QueryKind::Record, 70),
            (QueryKind::MoreSpecific, 20),
            (QueryKind::Miss, 10),
        ];
        let a = query_mix(&o, 7, 200, &percent);
        let b = query_mix(&o, 7, 200, &percent);
        assert_eq!(
            a.iter().map(|q| q.text.clone()).collect::<Vec<_>>(),
            b.iter().map(|q| q.text.clone()).collect::<Vec<_>>()
        );
        for q in &a {
            let cidr = Cidr::parse(&q.text).expect("queries are canonical CIDRs");
            match q.kind {
                QueryKind::Miss => assert_eq!(q.expect, None),
                QueryKind::Record => assert_eq!(o.records[q.expect.unwrap()].prefix, cidr),
                QueryKind::MoreSpecific => {
                    let rec = o.records[q.expect.unwrap()].prefix;
                    assert!(rec.len < cidr.len && cidr.truncate(rec.len) == rec);
                }
            }
        }
    }
}
