//! The §5.3.1 cleaning steps, applied per name.
//!
//! Step order follows paper Table 2: basic cleaning → regex drop →
//! (spelling standardization) → corporate words drop → frequent words drop →
//! geographic words drop → refill names shorter than three characters with
//! the post-corporate-drop form.

use crate::lexicon;

/// The intermediate forms of one name as it moves through the pipeline —
/// one field per Table 2 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CleanTrace {
    /// The raw WHOIS organization name.
    pub original: String,
    /// After case folding and whitespace collapsing (the "Default cluster"
    /// normalization, footnote 4).
    pub basic: String,
    /// After punctuation / encoding / noise-phrase / address scrubbing and
    /// spelling standardization.
    pub regex: String,
    /// After dropping legal entity endings (not in first position).
    pub corporate: String,
    /// After dropping corpus-frequent words (not in first position).
    pub frequent: String,
    /// After dropping geographic terms (not in first position).
    pub geographic: String,
    /// The final base name (after the short-name refill rule).
    pub base: String,
}

impl core::fmt::Display for CleanTrace {
    /// Renders the funnel for one name, one step per line — the debugging
    /// view used when tuning the rules.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "original  : {}", self.original)?;
        writeln!(f, "basic     : {}", self.basic)?;
        writeln!(f, "regex     : {}", self.regex)?;
        writeln!(f, "corporate : {}", self.corporate)?;
        writeln!(f, "frequent  : {}", self.frequent)?;
        writeln!(f, "geographic: {}", self.geographic)?;
        write!(f, "base      : {}", self.base)
    }
}

/// Step 0 (footnote 4): lowercase and collapse whitespace. This alone defines
/// the 𝒲 "Default Clusters".
pub fn basic_clean(name: &str) -> String {
    name.to_lowercase()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Steps (i)+(ii): strip noise phrases, punctuation, mis-encoded bytes, and
/// street-address fragments; then standardize spelling variants.
pub fn regex_clean(basic: &str) -> String {
    let mut s = basic.to_string();
    // Drop generic remark phrases and anything following them.
    for phrase in lexicon::NOISE_PHRASES {
        if let Some(pos) = s.find(phrase) {
            s.truncate(pos);
        }
    }
    // Repair common UTF-8-as-Latin-1 mojibake before tokenizing (the
    // paper's "incorrect encoding" noise): double-encoded accented letters
    // collapse to their base letter, stray encoding artifacts vanish.
    for (bad, good) in MOJIBAKE {
        if s.contains(bad) {
            s = s.replace(bad, good);
        }
    }
    // Drop parentheticals and bracketed content entirely.
    s = strip_delimited(&s, '(', ')');
    s = strip_delimited(&s, '[', ']');
    // Punctuation handling: periods and apostrophes are *deleted* so dotted
    // abbreviations collapse ("S.A.A." -> "saa", matching the legal-ending
    // lexicon); every other non-alphanumeric becomes a space — hyphens
    // included, since WHOIS uses them inconsistently ("T-Systems" vs
    // "T Systems").
    let cleaned: String = s
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() {
                Some(c)
            } else if c == '.' || c == '\'' {
                None
            } else {
                Some(' ')
            }
        })
        .collect();
    // Tokenize; drop street-address fragments (a digit-bearing token next to
    // a street keyword) and pure numbers.
    let tokens: Vec<&str> = cleaned.split_whitespace().collect();
    let street = lexicon::street_tokens();
    let mut keep: Vec<String> = Vec::with_capacity(tokens.len());
    for (i, tok) in tokens.iter().enumerate() {
        let is_number = tok.bytes().all(|b| b.is_ascii_digit());
        let near_street = (i > 0 && street.contains(tokens[i - 1]))
            || (i + 1 < tokens.len() && street.contains(tokens[i + 1]));
        if is_number && (near_street || tok.len() >= 3) {
            continue; // street number or postal code
        }
        if street.contains(tok) && tokens.iter().any(|t| t.bytes().all(|b| b.is_ascii_digit())) {
            continue; // the street keyword itself, in an address context
        }
        // Spelling standardization happens token-wise here.
        let standardized = lexicon::spelling_map()
            .get(tok)
            .map(|t| t.to_string())
            .unwrap_or_else(|| tok.to_string());
        keep.push(standardized);
    }
    keep.join(" ")
}

/// Steps (i)–(iii, first half) from a basic-cleaned name: the
/// post-corporate-drop form that frequent-word counting and the short-name
/// refill rule both start from.
pub fn corporate_form(basic: &str) -> String {
    drop_corporate_words(&regex_clean(basic))
}

/// Common UTF-8-bytes-read-as-Latin-1 sequences and their repairs.
const MOJIBAKE: &[(&str, &str)] = &[
    ("\u{c3}\u{a9}", "e"), // é
    ("\u{c3}\u{a8}", "e"), // è
    ("\u{c3}\u{a1}", "a"), // á
    ("\u{c3}\u{a0}", "a"), // à
    ("\u{c3}\u{b3}", "o"), // ó
    ("\u{c3}\u{b6}", "o"), // ö
    ("\u{c3}\u{ba}", "u"), // ú
    ("\u{c3}\u{bc}", "u"), // ü
    ("\u{c3}\u{b1}", "n"), // ñ
    ("\u{c3}\u{a7}", "c"), // ç
    ("\u{c2}", ""),        // stray continuation artifact (e.g. Â before NBSP)
];

/// Step (iii) first half: drop legal entity endings unless they are the first
/// word.
pub fn drop_corporate_words(name: &str) -> String {
    drop_tokens_except_first(name, |tok| lexicon::legal_endings().contains(tok))
}

/// Step (iii) second half: drop words whose corpus frequency exceeds the
/// threshold, unless they are the first word.
pub fn drop_frequent_words<F>(name: &str, is_frequent: F) -> String
where
    F: Fn(&str) -> bool,
{
    drop_tokens_except_first(name, |tok| is_frequent(tok))
}

/// Step (iv): drop geographic terms unless they are the first word.
pub fn drop_geo_words(name: &str) -> String {
    drop_tokens_except_first(name, |tok| lexicon::geo_terms().contains(tok))
}

/// The refill rule: a base name shorter than three characters reverts to the
/// post-corporate-drop form.
pub fn refill_short(geographic: &str, corporate: &str) -> String {
    if geographic.chars().count() < 3 {
        corporate.to_string()
    } else {
        geographic.to_string()
    }
}

fn drop_tokens_except_first<F>(name: &str, drop: F) -> String
where
    F: Fn(&str) -> bool,
{
    let mut out: Vec<&str> = Vec::new();
    for (i, tok) in name.split_whitespace().enumerate() {
        if i == 0 || !drop(tok) {
            out.push(tok);
        }
    }
    out.join(" ")
}

fn strip_delimited(s: &str, open: char, close: char) -> String {
    let mut out = String::with_capacity(s.len());
    let mut depth = 0usize;
    for c in s.chars() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth = depth.saturating_sub(1);
        } else if depth == 0 {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_clean_normalizes() {
        assert_eq!(basic_clean("  Verizon   Business  "), "verizon business");
        assert_eq!(basic_clean("FASTLY, Inc."), "fastly, inc.");
        assert_eq!(basic_clean(""), "");
    }

    #[test]
    fn regex_clean_strips_punctuation() {
        assert_eq!(regex_clean("fastly, inc."), "fastly inc");
        assert_eq!(regex_clean("c.t.c. corp s.a."), "ctc corp sa");
        assert_eq!(regex_clean("t-systems"), "t systems");
        assert_eq!(
            regex_clean("telefonica del peru s.a.a."),
            "telefonica del peru saa"
        );
    }

    #[test]
    fn regex_clean_drops_parentheticals() {
        assert_eq!(
            regex_clean("ctc corp s.a. (telefonica empresas)"),
            "ctc corp sa"
        );
        assert_eq!(regex_clean("acme [legacy block]"), "acme");
    }

    #[test]
    fn regex_clean_drops_noise_phrases() {
        assert_eq!(regex_clean("ip pool reserved for acme gmbh"), "");
        assert_eq!(regex_clean("acme gmbh reserved for dialup"), "acme gmbh");
    }

    #[test]
    fn regex_clean_drops_street_addresses() {
        assert_eq!(
            regex_clean("acme networks 1600 amphitheatre street"),
            "acme network amphitheatre"
        );
        // Standalone small numbers survive (e.g. "3m", split "level 3").
        assert_eq!(regex_clean("level 3"), "level 3");
        // Long digit runs (postal codes) are dropped.
        assert_eq!(regex_clean("acme 94107"), "acme");
    }

    #[test]
    fn regex_clean_repairs_mojibake() {
        // "Telefónica" whose ó arrived as the UTF-8 bytes read in Latin-1.
        assert_eq!(
            regex_clean("telef\u{c3}\u{b3}nica del peru"),
            "telefonica del peru"
        );
        // A stray Â artifact (UTF-8 NBSP misread) disappears.
        assert_eq!(regex_clean("acme\u{c2} hosting"), "acme hosting");
        // Genuine accented text typed correctly is preserved as letters.
        assert_eq!(regex_clean("café du net"), "café du net");
    }

    #[test]
    fn regex_clean_standardizes_spelling() {
        assert_eq!(regex_clean("data centre"), "data center");
        assert_eq!(regex_clean("british telecommunications"), "british telecom");
    }

    #[test]
    fn corporate_drop_keeps_first_word() {
        assert_eq!(drop_corporate_words("fastly inc"), "fastly");
        assert_eq!(
            drop_corporate_words("verizon business ltd"),
            "verizon business"
        );
        // A legal ending as the *first* word is kept (it may be the name).
        assert_eq!(drop_corporate_words("corp tech inc"), "corp tech");
    }

    #[test]
    fn frequent_drop_uses_predicate() {
        let frequent = |t: &str| t == "network" || t == "solution";
        assert_eq!(
            drop_frequent_words("fastly network solution", frequent),
            "fastly"
        );
        assert_eq!(
            drop_frequent_words("network rail", frequent),
            "network rail"
        );
    }

    #[test]
    fn geo_drop_keeps_first_word() {
        assert_eq!(drop_geo_words("verizon japan"), "verizon");
        assert_eq!(drop_geo_words("telefonica chile"), "telefonica");
        assert_eq!(drop_geo_words("japan telecom"), "japan telecom");
        assert_eq!(
            drop_geo_words("deutsche telekom deutschland"),
            "deutsche telekom"
        );
    }

    #[test]
    fn refill_reverts_short_names() {
        assert_eq!(refill_short("kd", "kd deutschland"), "kd deutschland");
        assert_eq!(refill_short("", "sa chile"), "sa chile");
        assert_eq!(refill_short("ibm", "ibm deutschland"), "ibm");
    }
}
