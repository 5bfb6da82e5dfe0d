//! Pinned content of every suite circuit.
//!
//! For each `SuiteCircuit` (paper, extended and mixed tiers) this records
//! the Bookshelf content digest — the engine-cache key, which covers every
//! cell and net name, attribute, driver and sink in order — and an FNV-1a
//! fingerprint of the critical paths `extract_paths` returns (cells and
//! nets, in order). Any change to the netlist representation, the generator,
//! the Bookshelf writer or the path extraction that alters a single name,
//! pin or path shows up here as a changed constant.

use sime_parallel::jobs::bookshelf_digest;
use vlsi_netlist::bench_suite::SuiteCircuit;
use vlsi_netlist::paths::{extract_paths, PathExtractionConfig};
use vlsi_netlist::Netlist;

/// `(circuit, bookshelf_digest, path fingerprint)` for every suite circuit.
const PINNED: [(&str, u64, u64); 11] = [
    ("s1196", 0xe64c_ac6e_4a14_dde0, 0xf895_15b8_5b26_d5a3),
    ("s1488", 0x8bbb_1f26_e198_be2f, 0x114d_0534_1e35_9974),
    ("s1494", 0xc05d_a94c_8ff7_3a78, 0x0b02_0916_7259_cdb0),
    ("s1238", 0x63cc_c35e_96c4_4ae7, 0xa481_78a7_ad94_ef73),
    ("s3330", 0xdc1d_3419_6acd_4066, 0x8be0_e39a_6232_ff4f),
    ("s5378", 0xaeac_7dce_12d4_79d0, 0xfef2_ba37_e52f_29e3),
    ("s9234", 0x611e_d3d2_a2d0_0dcf, 0xa561_9d61_b1d5_f6e2),
    ("s13207", 0xd158_9d82_3bba_1e9d, 0x402e_220c_6d2d_9264),
    ("s15850", 0xc21a_157d_a0bf_7015, 0x7d54_4c62_1e90_06fd),
    ("mix600", 0xd8ed_3f9c_6677_bbad, 0xb4d0_20c3_bf26_67f5),
    ("mix2000", 0x72a0_a305_3eda_0070, 0xdcb8_21ce_639b_292d),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over the default path extraction: per path, its cells, a
/// separator, its nets and a second separator.
fn path_fingerprint(netlist: &Netlist) -> u64 {
    let mut hash = FNV_OFFSET;
    for path in extract_paths(netlist, &PathExtractionConfig::default()) {
        for cell in &path.cells {
            hash = fnv(hash, cell.index() as u64);
        }
        hash = fnv(hash, u64::MAX);
        for net in &path.nets {
            hash = fnv(hash, net.index() as u64);
        }
        hash = fnv(hash, u64::MAX - 1);
    }
    hash
}

#[test]
fn suite_circuits_keep_their_digests_and_paths() {
    assert_eq!(PINNED.len(), SuiteCircuit::ALL.len());
    let mut mismatches = Vec::new();
    for (circuit, &(name, digest, paths)) in SuiteCircuit::ALL.iter().zip(PINNED.iter()) {
        assert_eq!(circuit.name(), name, "PINNED follows SuiteCircuit::ALL");
        let netlist = circuit.generate();
        let got = (bookshelf_digest(&netlist), path_fingerprint(&netlist));
        if got != (digest, paths) {
            mismatches.push(format!("{name}: {:#018x}, {:#018x}", got.0, got.1));
        }
    }
    assert!(mismatches.is_empty(), "changed content: {mismatches:?}");
}
