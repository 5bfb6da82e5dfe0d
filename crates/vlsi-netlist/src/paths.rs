//! Extraction of long combinational paths for the delay cost.
//!
//! The paper's delay cost operates on a set of *given critical paths*: the
//! delay of a path is the sum of cell switching delays and interconnect delays
//! along it, and the circuit delay is the maximum over the path set
//! (`Cost_delay = max{T_π}`, Section 2). The original flow obtains those paths
//! from a static timing analysis of the ISCAS-89 circuits; here we extract
//! them directly from the netlist graph.
//!
//! A combinational path starts at a path source (primary input or flip-flop
//! output), traverses logic cells, and ends at a path sink (primary output or
//! flip-flop input). We enumerate, per source, the topologically longest
//! paths measured in *logic depth*, and keep the `max_paths` deepest overall.
//! Logic depth is a placement-independent proxy for criticality, which is
//! exactly the role the "given critical paths" play in the paper.

use crate::{CellId, NetId, Netlist};
use serde::{Deserialize, Serialize};

/// A combinational path: an alternating cell/net chain stored as the ordered
/// list of cells and the nets connecting consecutive cells.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    /// Cells along the path, source first.
    pub cells: Vec<CellId>,
    /// Net `nets[i]` connects `cells[i]` (driver) to `cells[i + 1]` (sink);
    /// `nets.len() == cells.len() - 1`.
    pub nets: Vec<NetId>,
}

impl Path {
    /// Number of nets (edges) on the path.
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// `true` if the path has no edges.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }
}

/// Configuration for [`extract_paths`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathExtractionConfig {
    /// Maximum number of paths to keep (the deepest ones are kept).
    pub max_paths: usize,
    /// Minimum logic depth (number of nets) for a path to be considered.
    pub min_depth: usize,
    /// Safety bound on the DFS workload per source cell, to keep extraction
    /// cheap on reconvergent circuits.
    pub max_expansions_per_source: usize,
}

impl Default for PathExtractionConfig {
    fn default() -> Self {
        PathExtractionConfig {
            max_paths: 64,
            min_depth: 2,
            max_expansions_per_source: 20_000,
        }
    }
}

/// Extracts up to `config.max_paths` deep combinational paths from `netlist`.
///
/// Paths are returned sorted by decreasing depth. The extraction is
/// deterministic: ties are broken by cell id order.
pub fn extract_paths(netlist: &Netlist, config: &PathExtractionConfig) -> Vec<Path> {
    // Longest-depth labels via DFS memoisation on the combinational DAG.
    // depth[c] = max number of nets from c to any path sink, following
    // fanout edges but never passing *through* a sequential/output cell.
    let n = netlist.num_cells();
    let mut depth: Vec<Option<usize>> = vec![None; n];
    let mut on_stack = vec![false; n];

    // Iterative DFS computing the longest remaining depth from a cell, where
    // traversal stops at path-sink cells (their depth is 0). Cycles (possible
    // in a malformed netlist) are cut by treating back edges as depth 0.
    fn longest_depth(
        netlist: &Netlist,
        start: CellId,
        depth: &mut [Option<usize>],
        on_stack: &mut [bool],
    ) -> usize {
        #[derive(Clone, Copy)]
        enum Frame {
            Enter(CellId),
            Exit(CellId),
        }
        let mut stack = vec![Frame::Enter(start)];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(c) => {
                    let ci = c.index();
                    if depth[ci].is_some() || on_stack[ci] {
                        continue;
                    }
                    on_stack[ci] = true;
                    stack.push(Frame::Exit(c));
                    if !netlist.cell(c).kind.is_path_sink() {
                        for &net in netlist.nets_driven_by(c) {
                            for &s in netlist.sinks(net) {
                                if depth[s.index()].is_none() && !on_stack[s.index()] {
                                    stack.push(Frame::Enter(s));
                                }
                            }
                        }
                    }
                }
                Frame::Exit(c) => {
                    let ci = c.index();
                    on_stack[ci] = false;
                    let kind = netlist.cell(c).kind;
                    let mut best = 0usize;
                    // A sink cell terminates the path: depth 0 beyond it.
                    if !kind.is_path_sink() {
                        for &net in netlist.nets_driven_by(c) {
                            for &s in netlist.sinks(net) {
                                let d = depth[s.index()].unwrap_or(0);
                                best = best.max(d + 1);
                            }
                        }
                    }
                    depth[ci] = Some(best);
                }
            }
        }
        depth[start.index()].unwrap_or(0)
    }

    // Depth of a path *starting* at `src`: one net to each successor plus the
    // successor's remaining depth. Computed explicitly so that flip-flops
    // (which are both path sinks and path sources) get the correct source
    // depth even though their memoised "remaining" depth is 0.
    fn source_depth(
        netlist: &Netlist,
        src: CellId,
        depth: &mut [Option<usize>],
        on_stack: &mut [bool],
    ) -> usize {
        let mut best = 0usize;
        for &net in netlist.nets_driven_by(src) {
            for &s in netlist.sinks(net) {
                if s == src {
                    continue;
                }
                let d = longest_depth(netlist, s, depth, on_stack);
                best = best.max(d + 1);
            }
        }
        best
    }

    let mut sources: Vec<CellId> = netlist
        .cell_ids()
        .filter(|&c| netlist.cell(c).kind.is_path_source())
        .collect();
    sources.sort_unstable();

    // The enumeration tree of one source lives in a node arena: node `i`
    // extends its parent's path by one net and one cell. Paths are
    // materialised only for the few kept per source.
    #[derive(Clone, Copy)]
    struct Node {
        cell: CellId,
        net: NetId,
        parent: u32,
        len: u32,
    }
    const ROOT: u32 = u32::MAX;
    let on_path = |nodes: &[Node], mut at: u32, cell: CellId| {
        while at != ROOT {
            let node = nodes[at as usize];
            if node.cell == cell {
                return true;
            }
            at = node.parent;
        }
        false
    };
    let materialise = |nodes: &[Node], leaf: u32| {
        let len = nodes[leaf as usize].len as usize;
        let mut cells = vec![CellId(0); len + 1];
        let mut nets = vec![NetId(0); len];
        let mut at = leaf;
        for i in (0..=len).rev() {
            let node = nodes[at as usize];
            cells[i] = node.cell;
            if i > 0 {
                nets[i - 1] = node.net;
            }
            at = node.parent;
        }
        Path { cells, nets }
    };

    let mut paths: Vec<Path> = Vec::new();
    let mut nodes: Vec<Node> = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut completed: Vec<u32> = Vec::new();
    let mut succ: Vec<(usize, NetId, CellId)> = Vec::new();
    for &src in &sources {
        let d = source_depth(netlist, src, &mut depth, &mut on_stack);
        if d < config.min_depth {
            continue;
        }
        // Walk the critical (deepest) successor chain from the source.
        // Enumerate a handful of deep paths per source by following, at each
        // step, successors in order of decreasing remaining depth.
        let mut expansions = 0usize;
        nodes.clear();
        nodes.push(Node {
            cell: src,
            net: NetId(0),
            parent: ROOT,
            len: 0,
        });
        frontier.clear();
        frontier.push(0);
        completed.clear();
        while let Some(at) = frontier.pop() {
            if expansions >= config.max_expansions_per_source {
                break;
            }
            expansions += 1;
            let Node {
                cell: last, len, ..
            } = nodes[at as usize];
            let len = len as usize;
            let kind = netlist.cell(last).kind;
            let terminal = kind.is_path_sink() && len > 0;
            if terminal {
                if len >= config.min_depth {
                    completed.push(at);
                }
                continue;
            }
            // Collect successors sorted by decreasing remaining depth.
            succ.clear();
            for &net in netlist.nets_driven_by(last) {
                for &s in netlist.sinks(net) {
                    // Avoid revisiting a cell already on this path (cycles).
                    if on_path(&nodes, at, s) {
                        continue;
                    }
                    succ.push((depth[s.index()].unwrap_or(0), net, s));
                }
            }
            if succ.is_empty() {
                if len >= config.min_depth {
                    completed.push(at);
                }
                continue;
            }
            succ.sort_by(|a, b| b.0.cmp(&a.0).then(a.2.cmp(&b.2)));
            // Follow at most the two most critical branches to bound the
            // enumeration while still producing multiple distinct paths.
            for &(_, net, s) in succ.iter().take(2) {
                frontier.push(nodes.len() as u32);
                nodes.push(Node {
                    cell: s,
                    net,
                    parent: at,
                    len: len as u32 + 1,
                });
            }
        }
        completed.sort_by_key(|&leaf| std::cmp::Reverse(nodes[leaf as usize].len));
        paths.extend(
            completed
                .iter()
                .take(4)
                .map(|&leaf| materialise(&nodes, leaf)),
        );
    }

    paths.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cells.cmp(&b.cells)));
    paths.truncate(config.max_paths);
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cell, CellKind, NetlistBuilder};

    /// in -> g1 -> g2 -> g3 -> out  (depth 4)
    /// in -> g4 -> out              (depth 2)
    fn chain() -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let i = b.add_cell("in", Cell::new(CellKind::Input, 1, 0.0));
        let g1 = b.add_cell("g1", Cell::logic(1));
        let g2 = b.add_cell("g2", Cell::logic(1));
        let g3 = b.add_cell("g3", Cell::logic(1));
        let g4 = b.add_cell("g4", Cell::logic(1));
        let o = b.add_cell("out", Cell::new(CellKind::Output, 1, 0.0));
        b.add_net("n_i_g1", i, &[g1, g4], 0.5);
        b.add_net("n_g1_g2", g1, &[g2], 0.5);
        b.add_net("n_g2_g3", g2, &[g3], 0.5);
        b.add_net("n_g3_o", g3, &[o], 0.5);
        b.add_net("n_g4_o", g4, &[o], 0.5);
        b.build().unwrap()
    }

    #[test]
    fn finds_the_longest_path_first() {
        let nl = chain();
        let paths = extract_paths(&nl, &PathExtractionConfig::default());
        assert!(!paths.is_empty());
        let longest = &paths[0];
        assert_eq!(longest.len(), 4);
        assert_eq!(longest.cells.len(), 5);
        assert_eq!(nl.cell_name(longest.cells[0]), "in");
        assert_eq!(nl.cell_name(*longest.cells.last().unwrap()), "out");
    }

    #[test]
    fn paths_alternate_cells_and_nets_consistently() {
        let nl = chain();
        for p in extract_paths(&nl, &PathExtractionConfig::default()) {
            assert_eq!(p.nets.len() + 1, p.cells.len());
            for (i, &net) in p.nets.iter().enumerate() {
                assert_eq!(nl.net(net).driver, p.cells[i]);
                assert!(nl.sinks(net).contains(&p.cells[i + 1]));
            }
        }
    }

    #[test]
    fn min_depth_filters_short_paths() {
        let nl = chain();
        let cfg = PathExtractionConfig {
            min_depth: 3,
            ..Default::default()
        };
        for p in extract_paths(&nl, &cfg) {
            assert!(p.len() >= 3);
        }
    }

    #[test]
    fn flip_flops_terminate_paths() {
        // in -> g1 -> ff -> g2 -> out: two paths of depth 2, none of depth 4.
        let mut b = NetlistBuilder::new("ff");
        let i = b.add_cell("in", Cell::new(CellKind::Input, 1, 0.0));
        let g1 = b.add_cell("g1", Cell::logic(1));
        let ff = b.add_cell("ff", Cell::new(CellKind::FlipFlop, 2, 0.2));
        let g2 = b.add_cell("g2", Cell::logic(1));
        let o = b.add_cell("out", Cell::new(CellKind::Output, 1, 0.0));
        b.add_net("n0", i, &[g1], 0.5);
        b.add_net("n1", g1, &[ff], 0.5);
        b.add_net("n2", ff, &[g2], 0.5);
        b.add_net("n3", g2, &[o], 0.5);
        let nl = b.build().unwrap();
        let paths = extract_paths(&nl, &PathExtractionConfig::default());
        assert!(!paths.is_empty());
        for p in &paths {
            assert!(p.len() <= 2, "path {:?} crosses the flip-flop", p);
        }
        // Both register-bounded segments are found.
        assert!(paths.iter().any(|p| p.cells[0] == i));
        assert!(paths.iter().any(|p| p.cells[0] == ff));
    }

    #[test]
    fn empty_netlist_has_no_paths() {
        let nl = NetlistBuilder::new("empty").build().unwrap();
        assert!(extract_paths(&nl, &PathExtractionConfig::default()).is_empty());
    }

    #[test]
    fn max_paths_truncates() {
        let nl = chain();
        let cfg = PathExtractionConfig {
            max_paths: 1,
            min_depth: 1,
            ..Default::default()
        };
        assert_eq!(extract_paths(&nl, &cfg).len(), 1);
    }
}
