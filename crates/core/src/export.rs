//! Dataset export/import — the "public dataset" surface of the paper
//! (the authors publish Prefix2Org on Zenodo as per-prefix JSON records;
//! Listing 1 shows the shape).
//!
//! The export format is JSON Lines: one self-contained object per routed
//! prefix, with stable machine-friendly field names (the pretty Listing-1
//! rendering with display names lives in
//! [`Prefix2OrgDataset::record_json`]). Import round-trips every field
//! needed to query a snapshot without re-running the pipeline.

use std::fmt::Write as _;

use p2o_net::Prefix;
use p2o_rpki::RovStatus;
use p2o_util::json::write_escaped;
use p2o_util::Json;
use p2o_whois::alloc::AllocationType;
use p2o_whois::Registry;

use crate::dataset::{Prefix2OrgDataset, PrefixRecord};

/// One exported record, with plain machine-friendly field names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportRecord {
    /// The routed prefix.
    pub prefix: Prefix,
    /// The registry of the Direct Owner record.
    pub registry: Registry,
    /// The Direct Owner's WHOIS organization name.
    pub direct_owner: String,
    /// The Direct Owner delegation's block.
    pub do_prefix: Prefix,
    /// The Direct Owner delegation's allocation type.
    pub do_alloc: AllocationType,
    /// Delegated Customer chain: `(name, prefix, allocation type)`.
    pub delegated_customers: Vec<(String, Prefix, AllocationType)>,
    /// The Direct Owner's base name.
    pub base_name: String,
    /// The child-most Resource Certificate id, colon-hex.
    pub rpki_certificate: Option<String>,
    /// The origin ASN cluster ids.
    pub origin_asn_clusters: Vec<u32>,
    /// RFC 6811 validation state of the prefix's announcements.
    pub rov: RovStatus,
    /// The final cluster label.
    pub final_cluster: String,
    /// The asserted organization when a local operator exception overrode
    /// the attribution.
    pub local_exception: Option<String>,
}

impl From<&PrefixRecord> for ExportRecord {
    fn from(rec: &PrefixRecord) -> Self {
        ExportRecord {
            prefix: rec.prefix,
            registry: rec.registry,
            direct_owner: rec.direct_owner.clone(),
            do_prefix: rec.do_prefix,
            do_alloc: rec.do_alloc,
            delegated_customers: rec
                .delegated_customers
                .iter()
                .map(|s| (s.org_name.clone(), s.prefix, s.alloc))
                .collect(),
            base_name: rec.base_name.clone(),
            rpki_certificate: rec.rpki_certificate.clone(),
            origin_asn_clusters: rec.origin_asn_clusters.clone(),
            rov: rec.rov,
            final_cluster: rec.final_cluster_label.clone(),
            local_exception: rec.local_exception.clone(),
        }
    }
}

fn alloc_name(t: AllocationType) -> String {
    format!("{t:?}")
}

fn parse_alloc(s: &str) -> Option<AllocationType> {
    AllocationType::ALL
        .into_iter()
        .find(|t| format!("{t:?}") == s)
}

impl ExportRecord {
    /// The record as one JSON object (prefixes and the registry as their
    /// display strings, allocation types as their variant names).
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("prefix", self.prefix.to_string());
        o.set("registry", self.registry.to_string());
        o.set("direct_owner", self.direct_owner.as_str());
        o.set("do_prefix", self.do_prefix.to_string());
        o.set("do_alloc", alloc_name(self.do_alloc));
        o.set(
            "delegated_customers",
            self.delegated_customers
                .iter()
                .map(|(name, prefix, alloc)| {
                    Json::Arr(vec![
                        Json::from(name.as_str()),
                        Json::from(prefix.to_string()),
                        Json::from(alloc_name(*alloc)),
                    ])
                })
                .collect::<Vec<Json>>(),
        );
        o.set("base_name", self.base_name.as_str());
        o.set(
            "rpki_certificate",
            match &self.rpki_certificate {
                Some(id) => Json::from(id.as_str()),
                None => Json::Null,
            },
        );
        o.set(
            "origin_asn_clusters",
            self.origin_asn_clusters
                .iter()
                .map(|&c| Json::from(c))
                .collect::<Vec<Json>>(),
        );
        o.set("rov", self.rov.as_str());
        o.set("final_cluster", self.final_cluster.as_str());
        if let Some(org) = &self.local_exception {
            o.set("local_exception", org.as_str());
        }
        o
    }

    /// Parses one JSON object back into a record.
    pub fn from_json(doc: &Json) -> Result<ExportRecord, String> {
        fn str_field<'a>(doc: &'a Json, name: &str) -> Result<&'a str, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing or non-string field {name:?}"))
        }
        fn prefix_field(doc: &Json, name: &str) -> Result<Prefix, String> {
            str_field(doc, name)?
                .parse()
                .map_err(|e| format!("field {name:?}: {e}"))
        }
        let delegated_customers = doc
            .get("delegated_customers")
            .and_then(Json::as_array)
            .ok_or("missing delegated_customers")?
            .iter()
            .map(|step| {
                let items = step
                    .as_array()
                    .filter(|a| a.len() == 3)
                    .ok_or("bad delegated customer step")?;
                let name = items[0].as_str().ok_or("bad customer name")?.to_string();
                let prefix: Prefix = items[1]
                    .as_str()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad customer prefix")?;
                let alloc = items[2]
                    .as_str()
                    .and_then(parse_alloc)
                    .ok_or("bad customer alloc")?;
                Ok((name, prefix, alloc))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ExportRecord {
            prefix: prefix_field(doc, "prefix")?,
            registry: str_field(doc, "registry")?
                .parse()
                .map_err(|e| format!("field \"registry\": {e}"))?,
            direct_owner: str_field(doc, "direct_owner")?.to_string(),
            do_prefix: prefix_field(doc, "do_prefix")?,
            do_alloc: parse_alloc(str_field(doc, "do_alloc")?).ok_or("bad do_alloc")?,
            delegated_customers,
            base_name: str_field(doc, "base_name")?.to_string(),
            rpki_certificate: match doc.get("rpki_certificate") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_str().ok_or("bad rpki_certificate")?.to_string()),
            },
            origin_asn_clusters: doc
                .get("origin_asn_clusters")
                .and_then(Json::as_array)
                .ok_or("missing origin_asn_clusters")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| "bad cluster id".to_string())
                })
                .collect::<Result<Vec<u32>, String>>()?,
            // Absent in pre-ROV exports: default NotFound.
            rov: match doc.get("rov") {
                Some(Json::Null) | None => RovStatus::NotFound,
                Some(v) => v
                    .as_str()
                    .and_then(RovStatus::parse)
                    .ok_or("bad rov state")?,
            },
            final_cluster: str_field(doc, "final_cluster")?.to_string(),
            local_exception: match doc.get("local_exception") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_str().ok_or("bad local_exception")?.to_string()),
            },
        })
    }
}

/// Appends `rec`'s canonical JSONL line, newline included: the bytes of
/// `ExportRecord::from(rec).to_json().to_string()` plus `'\n'`, written
/// straight into `out` without building the record or its JSON tree. The
/// one renderer behind [`to_jsonl`] and the frozen artifact's thaw check.
///
/// Field order is [`ExportRecord::to_json`]'s. Strings go through the
/// shared escaper; prefixes, registries and allocation types print as
/// plain ASCII with nothing to escape; cluster ids are integers, printed as
/// the JSON writer prints integral numbers.
pub fn write_jsonl_line(rec: &PrefixRecord, out: &mut String) {
    let _ = write!(
        out,
        "{{\"prefix\":\"{}\",\"registry\":\"{}\",\"direct_owner\":",
        rec.prefix, rec.registry
    );
    write_escaped(out, &rec.direct_owner);
    let _ = write!(
        out,
        ",\"do_prefix\":\"{}\",\"do_alloc\":\"{:?}\",\"delegated_customers\":[",
        rec.do_prefix, rec.do_alloc
    );
    for (i, step) in rec.delegated_customers.iter().enumerate() {
        out.push_str(if i == 0 { "[" } else { ",[" });
        write_escaped(out, &step.org_name);
        let _ = write!(out, ",\"{}\",\"{:?}\"]", step.prefix, step.alloc);
    }
    out.push_str("],\"base_name\":");
    write_escaped(out, &rec.base_name);
    out.push_str(",\"rpki_certificate\":");
    match &rec.rpki_certificate {
        Some(id) => write_escaped(out, id),
        None => out.push_str("null"),
    }
    out.push_str(",\"origin_asn_clusters\":[");
    for (i, c) in rec.origin_asn_clusters.iter().enumerate() {
        let _ = write!(out, "{}{c}", if i == 0 { "" } else { "," });
    }
    let _ = write!(out, "],\"rov\":\"{}\",\"final_cluster\":", rec.rov.as_str());
    write_escaped(out, &rec.final_cluster_label);
    if let Some(org) = &rec.local_exception {
        out.push_str(",\"local_exception\":");
        write_escaped(out, org);
    }
    out.push_str("}\n");
}

/// Serializes the whole dataset as JSON Lines.
pub fn to_jsonl(dataset: &Prefix2OrgDataset) -> String {
    let mut out = String::new();
    for rec in dataset.records() {
        write_jsonl_line(rec, &mut out);
    }
    out
}

/// Parses a JSON Lines export back into records.
///
/// Blank lines are skipped; the first malformed line aborts with its line
/// number.
pub fn from_jsonl(text: &str) -> Result<Vec<ExportRecord>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let rec = ExportRecord::from_json(&doc).map_err(|e| format!("line {}: {e}", idx + 1))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineInputs};
    use p2o_bgp::RouteTable;
    use p2o_rpki::RpkiRepository;
    use p2o_whois::WhoisDb;

    fn dataset() -> Prefix2OrgDataset {
        let mut db = WhoisDb::new();
        db.add_arin(
            "\
NetRange: 63.64.0.0 - 63.127.255.255\nNetType: Allocation\nOrgName: Verizon Business\nUpdated: 2024-05-20\n\n\
NetRange: 63.80.52.0 - 63.80.52.255\nNetType: Reassignment\nOrgName: Ceva Inc\nUpdated: 2024-06-02\n",
        );
        db.add_rpsl(
            "inet6num: 2001:db8::/32\ndescr: Verizon Business\nstatus: ALLOCATED-BY-RIR\nsource: RIPE\n",
            p2o_whois::Registry::Rir(p2o_whois::Rir::Ripe),
        );
        let (tree, _) = db.build();
        let mut routes = RouteTable::new();
        routes.add_route("63.80.52.0/24".parse().unwrap(), 701);
        routes.add_route("2001:db8::/32".parse().unwrap(), 701);
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        Pipeline::default().run(&PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        })
    }

    /// Every name a WHOIS record could carry that the escaper must handle:
    /// quotes, backslashes, every control character below 0x20, DEL,
    /// U+2028 and multi-byte UTF-8.
    fn hostile_names() -> Vec<String> {
        let controls: String = (0u8..0x20).map(char::from).collect();
        vec![
            "Quote \" Inc".to_string(),
            "Back\\slash \\\" Ltd".to_string(),
            format!("ctl{controls}end"),
            "del\u{7f}ete".to_string(),
            "line\u{2028}sep\u{2029}".to_string(),
            "Téléphonie 東京 \u{1F310} Ltd".to_string(),
            String::new(),
        ]
    }

    fn hand_record(i: usize, prefix: &str, name: &str) -> PrefixRecord {
        let p: Prefix = prefix.parse().unwrap();
        PrefixRecord {
            prefix: p,
            registry: p2o_whois::Registry::Rir(p2o_whois::Rir::Ripe),
            direct_owner: format!("{name} owner"),
            do_prefix: p,
            do_alloc: AllocationType::ALL[i % AllocationType::ALL.len()],
            delegated_customers: (0..i % 3)
                .map(|k| crate::dataset::CustomerStep {
                    org_name: format!("{name} dc{k}"),
                    prefix: p,
                    alloc: AllocationType::ALL[(i + k) % AllocationType::ALL.len()],
                })
                .collect(),
            base_name: name.to_string(),
            rpki_certificate: i.is_multiple_of(2).then(|| format!("cert:{name}")),
            origin_asn_clusters: (0..i % 4).map(|k| u32::MAX - k as u32).collect(),
            final_cluster_label: format!("{name}-I"),
            cluster: crate::cluster::ClusterId(i as u32),
            rov: [RovStatus::Valid, RovStatus::Invalid, RovStatus::NotFound][i % 3],
            local_exception: (i % 3 == 1).then(|| format!("{name} asserted")),
        }
    }

    #[test]
    fn line_writer_matches_json_tree_on_hand_built_records() {
        let prefixes = [
            "192.0.2.0/24",
            "2001:db8::/32",
            "::/0",
            "0.0.0.0/0",
            "2001:db8::1/128",
        ];
        let mut all = String::new();
        for (i, name) in hostile_names().iter().enumerate() {
            for (j, prefix) in prefixes.iter().enumerate() {
                let rec = hand_record(i + j, prefix, name);
                let mut line = String::new();
                write_jsonl_line(&rec, &mut line);
                let want = format!("{}\n", ExportRecord::from(&rec).to_json());
                assert_eq!(line, want, "record {i}/{j}");
                let back = from_jsonl(&line).unwrap();
                assert_eq!(back, vec![ExportRecord::from(&rec)]);
                all.push_str(&line);
            }
        }
        // The shapes the matrix must have covered: a null certificate, an
        // empty DC chain and an empty cluster list, and each escape class.
        for needle in [
            "\"rpki_certificate\":null",
            "\"delegated_customers\":[]",
            "\"origin_asn_clusters\":[]",
            "\\\"",
            "\\\\",
            "\\u0000",
            "\\u001f",
            "\\n",
            "\u{7f}",
            "\u{2028}",
        ] {
            assert!(all.contains(needle), "missing {needle:?} in {all}");
        }
    }

    #[test]
    fn jsonl_round_trip() {
        let ds = dataset();
        let text = to_jsonl(&ds);
        assert_eq!(text.lines().count(), ds.len());
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), ds.len());
        for (exp, rec) in parsed.iter().zip(ds.records()) {
            assert_eq!(exp, &ExportRecord::from(rec));
        }
    }

    #[test]
    fn exported_fields_are_complete() {
        let ds = dataset();
        let parsed = from_jsonl(&to_jsonl(&ds)).unwrap();
        let v4 = parsed
            .iter()
            .find(|r| r.prefix == "63.80.52.0/24".parse().unwrap())
            .unwrap();
        assert_eq!(v4.direct_owner, "Verizon Business");
        assert_eq!(v4.do_alloc, AllocationType::Allocation);
        assert_eq!(v4.delegated_customers.len(), 1);
        assert_eq!(v4.delegated_customers[0].0, "Ceva Inc");
        assert_eq!(v4.origin_asn_clusters, vec![701]);
        assert!(!v4.final_cluster.is_empty());
    }

    #[test]
    fn import_rejects_garbage_with_line_number() {
        let err = from_jsonl("{\"not\": \"a record\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let ds = dataset();
        let mut text = to_jsonl(&ds);
        text.push_str("this is not json\n");
        let err = from_jsonl(&text).unwrap_err();
        assert!(err.contains(&format!("line {}", ds.len() + 1)), "{err}");
    }

    #[test]
    fn blank_lines_skipped() {
        let ds = dataset();
        let text = to_jsonl(&ds).replace('\n', "\n\n");
        assert_eq!(from_jsonl(&text).unwrap().len(), ds.len());
    }
}
