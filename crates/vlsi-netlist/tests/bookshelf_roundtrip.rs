//! Round-trip properties of the Bookshelf-style on-disk interchange
//! (`vlsi_netlist::bookshelf`): the `.nodes`/`.nets` circuit pair and the
//! `.pl`/`.scl` layout files.
//!
//! The central property: `parse ∘ write` is the identity on every circuit
//! the generator can produce — same name, bitwise-equal cell table (name,
//! kind, width, switching delay) and net table (name, driver, sinks,
//! switching probability). A second family of properties pins the error
//! contract: parse errors carry correct 1-based line numbers no matter how
//! much padding precedes the offending line.

use proptest::prelude::*;
use vlsi_netlist::bench_suite::SuiteCircuit;
use vlsi_netlist::bookshelf::{
    netlists_identical, parse_bookshelf, parse_pl, parse_scl, write_bookshelf, write_pl, write_scl,
    BookshelfError, BookshelfFile, CoreRow, PlEntry,
};
use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig, MixedSizeSpec};
use vlsi_netlist::{CellId, Netlist};

/// Strategy over generator configurations spanning tiny to mid-size
/// circuits with varied I/O mixes and connectivity.
fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        40usize..300,
        4usize..20,
        4usize..20,
        2usize..30,
        3usize..12,
        any::<u64>(),
    )
        .prop_map(
            |(logic, inputs, outputs, ffs, depth, seed)| GeneratorConfig {
                name: format!("rt_{seed}"),
                num_cells: logic + inputs + outputs + ffs + depth + 2,
                num_inputs: inputs,
                num_outputs: outputs,
                num_flip_flops: ffs,
                logic_depth: depth,
                avg_fanin: 2.2,
                seed,
                mixed: None,
            },
        )
}

/// [`arb_config`] with random mixed-size additions layered on top: a macro
/// block mix (possibly empty), varied footprint heights and an optional pad
/// ring, so every fixed/macro combination the generator can produce is on
/// the round-trip sweep.
fn arb_mixed_config() -> impl Strategy<Value = GeneratorConfig> {
    (arb_config(), 0usize..5, 2u32..6, any::<bool>()).prop_map(
        |(cfg, num_macros, macro_height, pad_ring)| {
            cfg.with_mixed(MixedSizeSpec {
                num_macros,
                macro_height,
                pad_ring,
            })
        },
    )
}

/// Strategy over raw `.pl` entry lists: varied identifier stems, signed
/// coordinates (pads legitimately sit at negative x) and a random `/FIXED`
/// mix. Names are made unique by index so entry-level equality is
/// meaningful.
fn arb_pl_entries() -> impl Strategy<Value = Vec<PlEntry>> {
    const STEMS: [&str; 4] = ["g", "pad_", "mb", "ff"];
    prop::collection::vec(
        (
            0usize..STEMS.len(),
            -100_000i64..100_000,
            -64i64..4096,
            any::<bool>(),
        ),
        0..60,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (stem, x, y, fixed))| PlEntry {
                name: format!("{}{i}", STEMS[stem]),
                x,
                y,
                fixed,
            })
            .collect()
    })
}

/// Strategy over raw `.scl` row lists with varied geometry.
fn arb_scl_rows() -> impl Strategy<Value = Vec<CoreRow>> {
    prop::collection::vec(
        (
            -1_000i64..100_000,
            1i64..64,
            1i64..4,
            -100i64..100,
            1i64..1_000_000,
        ),
        0..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(
                |(coordinate, height, sitewidth, subrow_origin, num_sites)| CoreRow {
                    coordinate,
                    height,
                    sitewidth,
                    subrow_origin,
                    num_sites,
                },
            )
            .collect()
    })
}

fn generate(cfg: &GeneratorConfig) -> Netlist {
    CircuitGenerator::new(cfg.clone()).generate()
}

/// Field-level identity check (stricter failure messages than a bulk
/// equality).
fn assert_identical(original: &Netlist, parsed: &Netlist) {
    assert_eq!(original.name(), parsed.name());
    assert_eq!(original.num_cells(), parsed.num_cells());
    assert_eq!(original.num_nets(), parsed.num_nets());
    for (a, b) in original.cells().iter().zip(parsed.cells().iter()) {
        assert_eq!(a, b, "cell mismatch");
    }
    for (a, b) in original.nets().iter().zip(parsed.nets().iter()) {
        assert_eq!(a, b, "net mismatch");
    }
    for id in original.cell_ids() {
        assert_eq!(original.cell_name(id), parsed.cell_name(id));
    }
    for id in original.net_ids() {
        assert_eq!(original.net_name(id), parsed.net_name(id));
        assert_eq!(original.sinks(id), parsed.sinks(id), "sinks of {id}");
    }
    assert!(netlists_identical(original, parsed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// `parse_bookshelf ∘ write_bookshelf` is the identity on generated
    /// circuits.
    #[test]
    fn bookshelf_roundtrips(cfg in arb_config()) {
        let original = generate(&cfg);
        let pair = write_bookshelf(&original);
        let parsed = parse_bookshelf(&pair.nodes, &pair.nets).unwrap();
        assert_identical(&original, &parsed);
    }

    /// The interchange stays lossless on *mixed-size* circuits: macro kinds,
    /// multi-row footprints and `fixed` flags survive `parse ∘ write` for
    /// every macro-count/height/pad-ring combination.
    #[test]
    fn mixed_size_circuits_roundtrip_through_bookshelf(cfg in arb_mixed_config()) {
        let original = generate(&cfg);
        let pair = write_bookshelf(&original);
        assert_identical(&original, &parse_bookshelf(&pair.nodes, &pair.nets).unwrap());
    }

    /// `parse_pl ∘ write_pl` is the identity on arbitrary placements, and
    /// because coordinates serialise as integers the *text* round-trips
    /// byte-identically too.
    #[test]
    fn pl_roundtrips(entries in arb_pl_entries()) {
        let text = write_pl(&entries);
        let parsed = parse_pl(&text).unwrap();
        prop_assert_eq!(&parsed, &entries);
        prop_assert_eq!(write_pl(&parsed), text);
    }

    /// `parse_scl ∘ write_scl` is the identity on arbitrary row geometries,
    /// byte-identically at the text level.
    #[test]
    fn scl_roundtrips(rows in arb_scl_rows()) {
        let text = write_scl(&rows);
        let parsed = parse_scl(&text).unwrap();
        prop_assert_eq!(&parsed, &rows);
        prop_assert_eq!(write_scl(&parsed), text);
    }

    /// A `.pl` dump of a mixed-size circuit — fixed flags taken from the
    /// actual cell table, movable cells at generator-chosen coordinates —
    /// reloads to the same entries, byte-identically at the text level.
    #[test]
    fn pl_from_mixed_circuits_roundtrips(cfg in arb_mixed_config()) {
        let netlist = generate(&cfg);
        let entries: Vec<PlEntry> = netlist
            .cells()
            .iter()
            .enumerate()
            .map(|(i, cell)| PlEntry {
                name: netlist.cell_name(CellId::from(i)).to_string(),
                // Synthetic but deterministic coordinates: the property under
                // test is serialisation, not placement legality.
                x: (i as i64) * 7 - 40,
                y: ((i as i64) % 12) * 8,
                fixed: cell.fixed,
            })
            .collect();
        let text = write_pl(&entries);
        let parsed = parse_pl(&text).unwrap();
        prop_assert_eq!(&parsed, &entries);
        prop_assert_eq!(write_pl(&parsed), text);
    }

    /// Bookshelf parse errors name the right file and the exact 1-based
    /// line within it.
    #[test]
    fn bookshelf_parse_errors_carry_file_and_line(padding in 0usize..40) {
        let nodes = "UCLA nodes 1.0\n# circuit pad\n    a 1 1 # logic 0.1\n    b 1 1 # logic 0.1\n";
        let mut nets = String::from("UCLA nets 1.0\n");
        for _ in 0..padding {
            nets.push_str("# padding\n");
        }
        nets.push_str("NetDegree : 2 n0 # 0.5\n");
        nets.push_str("    a O\n");
        nets.push_str("    ghost I\n"); // unknown cell
        let expected_line = 1 + padding + 3;
        match parse_bookshelf(nodes, &nets).unwrap_err() {
            BookshelfError::Syntax { file, line, reason } => {
                prop_assert_eq!(file, BookshelfFile::Nets);
                prop_assert_eq!(line, expected_line);
                prop_assert!(reason.contains("ghost"), "{}", reason);
            }
            other => prop_assert!(false, "expected a syntax error, got {:?}", other),
        }
    }
}

/// The acceptance gate of the scenario-matrix PR: every suite circuit (both
/// tiers, s1196 through s15850) dumps to the Bookshelf pair and reloads to
/// an identical in-memory netlist.
#[test]
fn every_suite_circuit_roundtrips_through_bookshelf() {
    for circuit in SuiteCircuit::ALL {
        let original = circuit.generate();
        let pair = write_bookshelf(&original);
        let parsed =
            parse_bookshelf(&pair.nodes, &pair.nets).unwrap_or_else(|e| panic!("{circuit}: {e}"));
        assert!(
            netlists_identical(&original, &parsed),
            "{circuit}: bookshelf round-trip is not the identity"
        );
    }
}

/// The generator and the streaming interchange path scale to 100k+ cells: a
/// mixed-size circuit two orders of magnitude beyond the paper tier is
/// generated, streamed to disk through the `BufWriter`-backed `save_*`
/// functions (the file text is never materialised in memory), streamed back,
/// and must reload to an identical netlist with byte-identical files on a
/// second dump.
#[test]
fn hundred_thousand_cell_circuit_streams_through_the_layout_files() {
    use vlsi_netlist::bookshelf::PlEntry;
    use vlsi_netlist::bookshelf::{layout_paths, load_bookshelf, load_pl, save_bookshelf, save_pl};

    let cfg = GeneratorConfig::sized("synth100k", 100_000, 7).with_mixed(MixedSizeSpec {
        num_macros: 16,
        macro_height: 4,
        pad_ring: true,
    });
    let original = CircuitGenerator::new(cfg).generate();
    assert!(
        original.num_cells() >= 100_000,
        "generator fell short of the 100k tier"
    );
    assert!(
        original.stats().fixed_cells > 0,
        "the mixed spec must pin pads and macros"
    );

    let dir = std::env::temp_dir().join(format!("sime_large_layout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stem = dir.join("synth100k");
    let paths = layout_paths(&stem);

    save_bookshelf(&original, &stem).unwrap();
    let reloaded = load_bookshelf(&stem).unwrap();
    assert!(netlists_identical(&original, &reloaded));

    // A `.pl` for the whole 100k-cell circuit streams the same way.
    let entries: Vec<PlEntry> = original
        .cells()
        .iter()
        .enumerate()
        .map(|(i, cell)| PlEntry {
            name: original.cell_name(CellId::from(i)).to_string(),
            x: (i as i64) % 4096,
            y: ((i as i64) / 4096) * 8,
            fixed: cell.fixed,
        })
        .collect();
    save_pl(&entries, &paths.pl).unwrap();
    assert_eq!(load_pl(&paths.pl).unwrap(), entries);

    // Determinism at the byte level: a second dump of the reloaded netlist
    // produces byte-identical files.
    let stem2 = dir.join("synth100k_redump");
    save_bookshelf(&reloaded, &stem2).unwrap();
    let paths2 = layout_paths(&stem2);
    assert_eq!(
        std::fs::read(&paths.nodes).unwrap(),
        std::fs::read(&paths2.nodes).unwrap(),
        "re-dumped .nodes differs"
    );
    assert_eq!(
        std::fs::read(&paths.nets).unwrap(),
        std::fs::read(&paths2.nets).unwrap(),
        "re-dumped .nets differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}
