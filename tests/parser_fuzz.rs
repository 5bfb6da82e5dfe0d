//! Fuzz properties for every parser that reads untrusted bytes: protocol
//! request lines, the JSON reader under them, the Bookshelf `.pl`, `.scl`
//! and `.nodes`/`.nets` readers, and the `.pl`-to-placement conversion the
//! server runs on client-registered warm starts. Each is fed arbitrary bytes
//! and mutated valid samples (truncations, byte flips, duplicated tokens,
//! inserted bytes), decoded as lossy UTF-8 the way a transport would hand
//! them over. Every call must return `Ok` or a typed error; a panic fails
//! the property.

use bench::json::Json;
use proptest::prelude::*;
use sime_placement::netlist::bookshelf::{
    parse_bookshelf, parse_pl, parse_scl, write_nets, write_nodes, write_pl, write_scl,
};
use sime_placement::netlist::generator::{CircuitGenerator, GeneratorConfig, MixedSizeSpec};
use sime_placement::netlist::Netlist;
use sime_placement::place::interchange::{placement_from_pl, placement_to_pl, rows_to_scl};
use sime_placement::place::layout::Placement;
use sime_server::Request;

/// Valid request lines covering every op and every optional submit field.
const REQUESTS: [&str; 6] = [
    r#"{"op":"submit","id":"j1","circuit":"s1196","strategy":"type2_random","ranks":3,"iterations":2,"objectives":"wpd","workers":2,"seed":7,"warm_start":null}"#,
    r#"{"op":"submit","id":"j2","circuit":"mix600","strategy":"portfolio_mixed","ranks":4,"iterations":1,"warm_start":"rr"}"#,
    r#"{"op":"cancel","id":"j1"}"#,
    r#"{"op":"register_placement","tag":"rr","pl":"UCLA pl 1.0\n  g0 0 0 : N\n  pi0 4 8 : N /FIXED\n"}"#,
    r#"{"op":"status"}"#,
    r#"{"op":"shutdown"}"#,
];

/// A JSON document with every value kind, escapes and nesting.
const JSON_DOC: &str = r#"{"a": [1, -2.5e3, 0.125, true, false, null], "s": "q\"\\\/\b\f\n\r\té\ud800 ü", "o": {"deep": [[{}], []]}}"#;

/// Row count of the sample placement.
const SAMPLE_ROWS: usize = 6;

/// A small mixed-size circuit with pads, macros and fixed cells.
fn sample_netlist() -> Netlist {
    let cfg = GeneratorConfig::sized("fuzz", 150, 7).with_mixed(MixedSizeSpec {
        num_macros: 2,
        macro_height: 2,
        pad_ring: true,
    });
    CircuitGenerator::new(cfg).generate()
}

/// The Bookshelf sample texts: `(nodes, nets, pl, scl)` of
/// [`sample_netlist`] placed round-robin on [`SAMPLE_ROWS`] rows.
fn bookshelf_samples() -> (String, String, String, String) {
    let netlist = sample_netlist();
    let placement = Placement::round_robin(&netlist, SAMPLE_ROWS);
    (
        write_nodes(&netlist),
        write_nets(&netlist),
        write_pl(&placement_to_pl(&netlist, &placement)),
        write_scl(&rows_to_scl(&placement)),
    )
}

/// Token boundaries of `bytes`: a token is a maximal run of alphanumeric,
/// `_`, `.`, `-` or `+` bytes, or any other single byte.
fn tokens(bytes: &[u8]) -> Vec<(usize, usize)> {
    let word = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-' | b'+');
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let mut j = i + 1;
        if word(bytes[i]) {
            while j < bytes.len() && word(bytes[j]) {
                j += 1;
            }
        }
        out.push((i, j));
        i = j;
    }
    out
}

/// Applies `edits` to `sample`, each `(op, r)` one of: truncate, flip a
/// bit, duplicate a token in place, insert a byte — positions drawn from `r`.
fn mutate(sample: &str, edits: &[(u8, u64)]) -> String {
    let mut bytes = sample.as_bytes().to_vec();
    for &(op, r) in edits {
        let at = |len: usize| (r as usize) % (len + 1);
        match op % 4 {
            0 => bytes.truncate(at(bytes.len())),
            1 if !bytes.is_empty() => {
                let i = at(bytes.len() - 1);
                bytes[i] ^= 1 << ((r >> 40) % 8);
            }
            2 => {
                let toks = tokens(&bytes);
                if let Some(&(s, e)) = toks.get(at(toks.len())) {
                    let copy = bytes[s..e].to_vec();
                    bytes.splice(e..e, copy);
                }
            }
            _ => {
                let i = at(bytes.len());
                bytes.insert(i, (r >> 32) as u8);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn arb_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..512)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

fn arb_edits() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), 1..8)
}

/// One to three edits: light enough that about a quarter of the mutated
/// `.pl` samples still parse and reach the placement conversion.
fn arb_light_edits() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), 1..4)
}

/// Per-line byte limits: the server's usual one and one small enough that
/// mutated lines straddle it.
fn arb_line_limit() -> impl Strategy<Value = usize> {
    (0u8..2).prop_map(|small| if small == 1 { 64 } else { 1 << 20 })
}

#[test]
fn samples_are_valid() {
    for line in REQUESTS {
        Request::parse_line(line, 1 << 20).unwrap();
    }
    Json::parse(JSON_DOC).unwrap();
    let (nodes, nets, pl, scl) = bookshelf_samples();
    parse_bookshelf(&nodes, &nets).unwrap();
    placement_from_pl(&sample_netlist(), SAMPLE_ROWS, &parse_pl(&pl).unwrap()).unwrap();
    parse_scl(&scl).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_lines_never_panic(
        text in arb_bytes(),
        pick in 0usize..REQUESTS.len(),
        edits in arb_edits(),
        max_bytes in arb_line_limit(),
    ) {
        let _ = Request::parse_line(&text, max_bytes);
        let _ = Request::parse_line(&mutate(REQUESTS[pick], &edits), max_bytes);
    }

    #[test]
    fn json_never_panics(text in arb_bytes(), pick in 0usize..REQUESTS.len(), edits in arb_edits()) {
        let _ = Json::parse(&text);
        let _ = Json::parse(&mutate(JSON_DOC, &edits));
        let _ = Json::parse(&mutate(REQUESTS[pick], &edits));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bookshelf_parsers_never_panic(
        text in arb_bytes(),
        which in 0u8..4,
        edits in arb_edits(),
    ) {
        let (nodes, nets, pl, scl) = bookshelf_samples();
        let _ = parse_pl(&text);
        let _ = parse_scl(&text);
        let _ = parse_bookshelf(&text, &nets);
        let _ = parse_bookshelf(&nodes, &text);
        match which {
            0 => drop(parse_pl(&mutate(&pl, &edits))),
            1 => drop(parse_scl(&mutate(&scl, &edits))),
            2 => drop(parse_bookshelf(&mutate(&nodes, &edits), &nets)),
            _ => drop(parse_bookshelf(&nodes, &mutate(&nets, &edits))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutated `.pl` text that still parses goes on through the warm-start
    /// conversion against the sample's netlist, at the sample's row count
    /// and at a drawn one.
    #[test]
    fn pl_conversion_never_panics(edits in arb_light_edits(), num_rows in 1usize..13) {
        let (_, _, pl, _) = bookshelf_samples();
        if let Ok(entries) = parse_pl(&mutate(&pl, &edits)) {
            let netlist = sample_netlist();
            for rows in [SAMPLE_ROWS, num_rows] {
                let _ = placement_from_pl(&netlist, rows, &entries);
            }
        }
    }
}
