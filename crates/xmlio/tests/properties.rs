//! Seeded property checks: the XML writer and parser are inverse on
//! generated element trees and attribute contents (entity escaping), and
//! no input makes the parser or the configuration loader panic.

use swa_workload::rng::Rng64;
use swa_xmlio::xml::{escape, parse, Element};

const CASES: u64 = 256;

/// A string of `0..max_len` characters drawn from `alphabet`.
fn string_of(rng: &mut Rng64, alphabet: &[char], max_len: usize) -> String {
    (0..rng.gen_range(max_len))
        .map(|_| alphabet[rng.gen_range(alphabet.len())])
        .collect()
}

fn printable() -> Vec<char> {
    (' '..='~').collect()
}

/// XML name: starts with a letter, continues with word characters.
fn name(rng: &mut Rng64) -> String {
    let letters: Vec<char> = ('a'..='z').chain('A'..='Z').collect();
    let rest: Vec<char> = letters
        .iter()
        .copied()
        .chain('0'..='9')
        .chain(['_', '.', '-'])
        .collect();
    let mut name = letters[rng.gen_range(letters.len())].to_string();
    name.push_str(&string_of(rng, &rest, 9));
    name
}

fn element(rng: &mut Rng64, depth: u32) -> Element {
    let mut attributes: Vec<(String, String)> = (0..rng.gen_range(4))
        .map(|_| (name(rng), string_of(rng, &printable(), 21)))
        .collect();
    // XML attribute names must be unique within an element.
    attributes.sort();
    attributes.dedup_by(|a, b| a.0 == b.0);
    let mut e = Element {
        name: name(rng),
        attributes,
        children: Vec::new(),
        // Parsed text is whitespace-trimmed; generate pre-trimmed text so
        // equality is exact.
        text: string_of(rng, &printable(), 21).trim().to_string(),
    };
    if depth > 0 {
        e.children = (0..rng.gen_range(3))
            .map(|_| element(rng, depth - 1))
            .collect();
        // Mixed content (text + children) round-trips only if the text is
        // attached before the children; keep it element-only or text-only.
        if !e.children.is_empty() {
            e.text.clear();
        }
    }
    e
}

/// `parse(to_xml(e)) == e` for generated trees.
#[test]
fn write_then_parse_is_identity() {
    for seed in 0..CASES {
        let element = element(&mut Rng64::seed_from_u64(seed), 2);
        let xml = element.to_xml();
        let parsed = parse(&xml).unwrap_or_else(|err| panic!("seed {seed}: {err}\n{xml}"));
        assert_eq!(parsed, element, "seed {seed}");
    }
}

/// Escaping is total, leaves no raw markup characters behind, and parsing
/// undoes it inside attribute values.
#[test]
fn escaping_roundtrips_any_printable_value() {
    let mut rng = Rng64::seed_from_u64(1);
    for _ in 0..CASES {
        let value = string_of(&mut rng, &printable(), 41);
        let escaped = escape(&value);
        assert!(
            !escaped.contains(['<', '>', '"']),
            "{value:?} → {escaped:?}"
        );
        let parsed = parse(&Element::new("x").attr("v", &value).to_xml()).unwrap();
        assert_eq!(parsed.attribute("v"), Some(value.as_str()));
    }
}

/// The parser and the configuration loader never panic, whatever text
/// arrives: malformed input is always a structured `Err`.
#[test]
fn parsers_never_panic() {
    let mut rng = Rng64::seed_from_u64(2);
    let xmlish: Vec<char> = "<>&;/abcdefghijklmnopqrstuvwxyz\"'= \n-".chars().collect();
    let config_ish: Vec<char> = xmlish.iter().copied().chain('A'..='Z').collect();
    for _ in 0..CASES {
        // Any non-control characters, from the whole Unicode range.
        let any: String = (0..rng.gen_range(64))
            .filter_map(|_| char::from_u32(u32::try_from(rng.gen_range(0x11_0000)).unwrap()))
            .filter(|c| !c.is_control())
            .collect();
        let _ = parse(&any);

        let junk = string_of(&mut rng, &xmlish, 121);
        let _ = parse(&junk);
        let _ = parse(&format!("<a>{junk}</a>"));
        let _ = parse(&format!("<a {junk}/>"));

        let junk = string_of(&mut rng, &config_ish, 161);
        let _ = swa_xmlio::configuration_from_xml(&junk);
        let _ = swa_xmlio::configuration_with_topology_from_xml(&format!(
            "<configuration>{junk}</configuration>"
        ));
    }
}
