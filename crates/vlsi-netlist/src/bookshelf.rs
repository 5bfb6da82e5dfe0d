//! Bookshelf-style on-disk interchange (`.nodes` / `.nets` / `.pl` / `.scl`).
//!
//! The Bookshelf placement format (UCLA, used by the ISPD placement contests
//! and by benchmark surfaces such as BBOPlace-Bench) splits a layout across
//! one file per concern; this module implements the four files the workspace
//! needs so that whole layouts — circuit, placement and row geometry — can be
//! dumped, shipped and reloaded instead of regenerated:
//!
//! * **`.nodes`** — one line per cell: `name width height [terminal]`, with
//!   `NumNodes` / `NumTerminals` counts up front. I/O pads are `terminal`;
//!   multi-row macros carry their real row-span in the height slot.
//! * **`.nets`** — one `NetDegree : <d> <name>` group per net followed by
//!   `d` pin lines `cellname <I|O>`; the driver carries the `O` direction,
//!   sinks carry `I`.
//! * **`.pl`** — one line per cell: `name x y : N [/FIXED]`. Coordinates are
//!   integers (left edge / row bottom in layout units), so the serialisation
//!   is canonical and `write ∘ parse` is the identity on the text.
//! * **`.scl`** — one `CoreRow Horizontal … End` record per placement row
//!   (`Coordinate`, `Height`, `Sitewidth`, `SubrowOrigin`, `NumSites`).
//!
//! The workspace's netlists carry attributes the plain UCLA format has no
//! field for (cell kind, switching delay, fixed flag, net switching
//! probability), so the writer emits them as `#` *annotations* — a trailing
//! comment on the line they describe. `#` starts a comment in Bookshelf, so
//! tools that read the plain format see a standard file and skip the
//! annotations, while [`parse_bookshelf`] reads them back for a lossless
//! round-trip:
//!
//! ```text
//! UCLA nodes 1.0
//! # circuit mix600
//! NumNodes : 634
//! NumTerminals : 32
//!     pi0 1 1 terminal # in 0 fixed
//!     g14 5 1 # logic 0.0782
//!     mb0 40 3 # macro 0.2 fixed
//! ```
//!
//! Every writer has a streaming `*_to` variant over [`std::io::Write`] and
//! every parser a `*_from` variant over [`std::io::BufRead`], so 100k+-cell
//! synthetic layouts stream to and from disk without materialising the file
//! in memory; the `String`-based functions are thin wrappers.
//!
//! Parse errors carry the offending **file** ([`BookshelfFile`]) and the
//! 1-based line number within it.

use crate::{Cell, CellId, CellKind, Netlist, NetlistBuilder, NetlistError};
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

/// Which of the interchange files an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BookshelfFile {
    /// The `.nodes` file.
    Nodes,
    /// The `.nets` file.
    Nets,
    /// The `.pl` placement file.
    Pl,
    /// The `.scl` row-geometry file.
    Scl,
}

impl std::fmt::Display for BookshelfFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BookshelfFile::Nodes => ".nodes",
            BookshelfFile::Nets => ".nets",
            BookshelfFile::Pl => ".pl",
            BookshelfFile::Scl => ".scl",
        })
    }
}

/// Errors produced by the Bookshelf parsers and file helpers.
#[derive(Debug, Clone, PartialEq)]
pub enum BookshelfError {
    /// A line could not be parsed; carries the file, its 1-based line number
    /// and a human-readable reason.
    Syntax {
        /// Which file the line is in.
        file: BookshelfFile,
        /// 1-based line number within that file.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The files were syntactically valid but the assembled circuit is not.
    Semantic(NetlistError),
    /// A file-level problem: missing header, count mismatch, truncated group.
    Structure {
        /// Which file the problem is in.
        file: BookshelfFile,
        /// Human-readable description.
        reason: String,
    },
    /// An I/O error while reading or writing the files on disk.
    Io(String),
}

impl std::fmt::Display for BookshelfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BookshelfError::Syntax { file, line, reason } => {
                write!(f, "{file} line {line}: {reason}")
            }
            BookshelfError::Semantic(e) => write!(f, "invalid netlist: {e}"),
            BookshelfError::Structure { file, reason } => write!(f, "malformed {file}: {reason}"),
            BookshelfError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for BookshelfError {}

impl From<NetlistError> for BookshelfError {
    fn from(e: NetlistError) -> Self {
        BookshelfError::Semantic(e)
    }
}

/// The two netlist interchange files of one circuit, as in-memory strings.
#[derive(Debug, Clone, PartialEq)]
pub struct BookshelfPair {
    /// Contents of the `.nodes` file.
    pub nodes: String,
    /// Contents of the `.nets` file.
    pub nets: String,
}

/// One `.pl` line: a cell's placed position.
///
/// Coordinates are integers in layout units — the cell's **left edge** (`x`)
/// and the **bottom** of its row (`y`). Integer serialisation makes the `.pl`
/// writer canonical: `write_pl(parse_pl(text)?) == text` for every file this
/// module writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlEntry {
    /// Cell instance name (matches the `.nodes` file).
    pub name: String,
    /// Left edge of the cell, in layout units.
    pub x: i64,
    /// Bottom of the cell's (lowest) row, in layout units.
    pub y: i64,
    /// `true` when the line carries the `/FIXED` attribute (pads, macros).
    pub fixed: bool,
}

/// One `.scl` `CoreRow` record: the geometry of a single placement row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreRow {
    /// Bottom y coordinate of the row, in layout units.
    pub coordinate: i64,
    /// Row height in layout units.
    pub height: i64,
    /// Width of one placement site (1 layout unit per site here).
    pub sitewidth: i64,
    /// Left x coordinate where the row begins.
    pub subrow_origin: i64,
    /// Number of sites in the row (row capacity in layout units).
    pub num_sites: i64,
}

/// Serialises the `.nodes` file to a stream. Cells keep their netlist order,
/// so ids are stable across a dump/reload cycle. Multi-row macros write their
/// real height; fixed cells append `fixed` to the kind/delay annotation.
pub fn write_nodes_to(netlist: &Netlist, out: &mut dyn Write) -> io::Result<()> {
    let stats = netlist.stats();
    writeln!(out, "UCLA nodes 1.0")?;
    writeln!(out, "# circuit {}", netlist.name())?;
    writeln!(
        out,
        "# annotation per node: '# <kind> <switching_delay> [fixed]'"
    )?;
    writeln!(out)?;
    writeln!(out, "NumNodes : {}", netlist.num_cells())?;
    writeln!(out, "NumTerminals : {}", stats.inputs + stats.outputs)?;
    for (id, cell) in netlist.cell_ids().zip(netlist.cells()) {
        let terminal = match cell.kind {
            CellKind::Input | CellKind::Output => " terminal",
            CellKind::Logic | CellKind::FlipFlop | CellKind::Macro => "",
        };
        let fixed = if cell.fixed { " fixed" } else { "" };
        writeln!(
            out,
            "    {} {} {}{} # {} {}{}",
            netlist.cell_name(id),
            cell.width,
            cell.height,
            terminal,
            cell.kind.mnemonic(),
            cell.switching_delay,
            fixed
        )?;
    }
    Ok(())
}

/// Serialises the `.nodes` file ([`write_nodes_to`] into a `String`).
pub fn write_nodes(netlist: &Netlist) -> String {
    into_string(|out| write_nodes_to(netlist, out))
}

/// Serialises the `.nets` file to a stream. Nets keep their netlist order;
/// within each net the driver pin (`O`) comes first, then the sinks (`I`) in
/// netlist order.
pub fn write_nets_to(netlist: &Netlist, out: &mut dyn Write) -> io::Result<()> {
    let stats = netlist.stats();
    writeln!(out, "UCLA nets 1.0")?;
    writeln!(out, "# circuit {}", netlist.name())?;
    writeln!(out, "# annotation per net: '# <switching_prob>'")?;
    writeln!(out)?;
    writeln!(out, "NumNets : {}", netlist.num_nets())?;
    writeln!(out, "NumPins : {}", stats.pins)?;
    for (id, net) in netlist.net_ids().zip(netlist.nets()) {
        writeln!(
            out,
            "NetDegree : {} {} # {}",
            netlist.pin_count(id),
            netlist.net_name(id),
            net.switching_prob
        )?;
        writeln!(out, "    {} O", netlist.cell_name(net.driver))?;
        for &s in netlist.sinks(id) {
            writeln!(out, "    {} I", netlist.cell_name(s))?;
        }
    }
    Ok(())
}

/// Serialises the `.nets` file ([`write_nets_to`] into a `String`).
pub fn write_nets(netlist: &Netlist) -> String {
    into_string(|out| write_nets_to(netlist, out))
}

/// Serialises both netlist interchange files.
pub fn write_bookshelf(netlist: &Netlist) -> BookshelfPair {
    BookshelfPair {
        nodes: write_nodes(netlist),
        nets: write_nets(netlist),
    }
}

/// Serialises a `.pl` placement file to a stream.
pub fn write_pl_to(entries: &[PlEntry], out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "UCLA pl 1.0")?;
    writeln!(out, "# one line per cell: '<name> <x> <y> : N [/FIXED]'")?;
    writeln!(out)?;
    for e in entries {
        let fixed = if e.fixed { " /FIXED" } else { "" };
        writeln!(out, "{} {} {} : N{}", e.name, e.x, e.y, fixed)?;
    }
    Ok(())
}

/// Serialises a `.pl` placement file.
///
/// Round-trips exactly — and, because coordinates are integers, the *text*
/// round-trips byte-identically too:
///
/// ```
/// use vlsi_netlist::bookshelf::{parse_pl, write_pl, PlEntry};
///
/// let cells = vec![
///     PlEntry { name: "g0".into(), x: 0, y: 8, fixed: false },
///     PlEntry { name: "mb0".into(), x: 64, y: 16, fixed: true },
/// ];
/// let text = write_pl(&cells);
/// assert!(text.contains("mb0 64 16 : N /FIXED\n"));
///
/// let parsed = parse_pl(&text).unwrap();
/// assert_eq!(parsed, cells);
/// assert_eq!(write_pl(&parsed), text); // byte-identical round-trip
/// ```
pub fn write_pl(entries: &[PlEntry]) -> String {
    into_string(|out| write_pl_to(entries, out))
}

/// Serialises a `.scl` row-geometry file to a stream.
pub fn write_scl_to(rows: &[CoreRow], out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "UCLA scl 1.0")?;
    writeln!(out)?;
    writeln!(out, "NumRows : {}", rows.len())?;
    writeln!(out)?;
    for r in rows {
        writeln!(out, "CoreRow Horizontal")?;
        writeln!(out, "    Coordinate : {}", r.coordinate)?;
        writeln!(out, "    Height : {}", r.height)?;
        writeln!(out, "    Sitewidth : {}", r.sitewidth)?;
        writeln!(
            out,
            "    SubrowOrigin : {}  NumSites : {}",
            r.subrow_origin, r.num_sites
        )?;
        writeln!(out, "End")?;
    }
    Ok(())
}

/// Serialises a `.scl` row-geometry file.
///
/// ```
/// use vlsi_netlist::bookshelf::{parse_scl, write_scl, CoreRow};
///
/// let rows: Vec<CoreRow> = (0..4)
///     .map(|r| CoreRow {
///         coordinate: r * 8,
///         height: 8,
///         sitewidth: 1,
///         subrow_origin: 0,
///         num_sites: 640,
///     })
///     .collect();
/// let text = write_scl(&rows);
///
/// let parsed = parse_scl(&text).unwrap();
/// assert_eq!(parsed, rows);
/// assert_eq!(write_scl(&parsed), text); // byte-identical round-trip
/// ```
pub fn write_scl(rows: &[CoreRow]) -> String {
    into_string(|out| write_scl_to(rows, out))
}

/// Runs an infallible-in-practice stream writer into a `String`.
fn into_string(f: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> String {
    let mut buf = Vec::new();
    f(&mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("writers emit UTF-8")
}

/// Splits a raw line into its code part and its `#` annotation (both
/// trimmed); a missing annotation yields an empty string.
fn split_annotation(raw: &str) -> (&str, &str) {
    match raw.split_once('#') {
        Some((code, note)) => (code.trim(), note.trim()),
        None => (raw.trim(), ""),
    }
}

/// Parses a `Key : value` count header; returns `None` if the line is not a
/// header for `key`.
fn parse_count(code: &str, key: &str) -> Option<Result<usize, String>> {
    let rest = code.strip_prefix(key)?.trim_start();
    let rest = rest.strip_prefix(':')?.trim();
    Some(
        rest.parse::<usize>()
            .map_err(|_| format!("invalid {key} count `{rest}`")),
    )
}

/// Adapts a `&str` to the line-iterator shape shared with the streaming
/// parsers.
fn str_lines(text: &str) -> impl Iterator<Item = Result<String, BookshelfError>> + '_ {
    text.lines().map(|l| Ok(l.to_string()))
}

/// Adapts a [`BufRead`] to the shared line-iterator shape.
fn io_lines<R: BufRead>(reader: R) -> impl Iterator<Item = Result<String, BookshelfError>> {
    reader
        .lines()
        .map(|r| r.map_err(|e| BookshelfError::Io(e.to_string())))
}

/// Parses a circuit from the two interchange files. The inverse of
/// [`write_bookshelf`]: a write/parse round-trip reproduces the cells and
/// nets (names, kinds, widths, heights, delays, fixed flags, drivers, sinks,
/// switching probabilities) exactly.
pub fn parse_bookshelf(nodes: &str, nets: &str) -> Result<Netlist, BookshelfError> {
    assemble(parse_nodes(nodes)?, str_lines(nets))
}

/// Streaming variant of [`parse_bookshelf`] over buffered readers.
pub fn parse_bookshelf_from(
    nodes: impl BufRead,
    nets: impl BufRead,
) -> Result<Netlist, BookshelfError> {
    assemble(parse_nodes_lines(io_lines(nodes))?, io_lines(nets))
}

/// Builds the netlist from parsed nodes plus the `.nets` line stream.
fn assemble(
    (mut builder, cell_ids): (NetlistBuilder, HashMap<String, CellId>),
    net_lines: impl Iterator<Item = Result<String, BookshelfError>>,
) -> Result<Netlist, BookshelfError> {
    parse_nets_lines(net_lines, &mut builder, &cell_ids)?;
    drop(cell_ids);
    Ok(builder.build()?)
}

/// Parses the `.nodes` file into a builder holding its cells (named after
/// the circuit annotation) and a name → id map for the `.nets` parser.
fn parse_nodes(text: &str) -> Result<(NetlistBuilder, HashMap<String, CellId>), BookshelfError> {
    parse_nodes_lines(str_lines(text))
}

fn parse_nodes_lines(
    lines: impl Iterator<Item = Result<String, BookshelfError>>,
) -> Result<(NetlistBuilder, HashMap<String, CellId>), BookshelfError> {
    let syntax = |line: usize, reason: String| BookshelfError::Syntax {
        file: BookshelfFile::Nodes,
        line,
        reason,
    };
    let structure = |reason: String| BookshelfError::Structure {
        file: BookshelfFile::Nodes,
        reason,
    };

    let mut circuit: Option<String> = None;
    let mut saw_header = false;
    let mut declared_nodes: Option<usize> = None;
    let mut declared_terminals: Option<usize> = None;
    let mut builder = NetlistBuilder::default();
    let mut cell_ids: HashMap<String, CellId> = HashMap::new();
    let mut terminals = 0usize;

    for (idx, raw) in lines.enumerate() {
        let raw = raw?;
        let lineno = idx + 1;
        let (code, note) = split_annotation(&raw);
        if circuit.is_none() {
            if let Some(rest) = note.strip_prefix("circuit ") {
                circuit = Some(rest.trim().to_string());
            }
        }
        if code.is_empty() {
            continue;
        }
        if !saw_header {
            if code.starts_with("UCLA nodes") {
                saw_header = true;
                continue;
            }
            return Err(syntax(lineno, "expected `UCLA nodes` header".into()));
        }
        if let Some(count) = parse_count(code, "NumNodes") {
            declared_nodes = Some(count.map_err(|r| syntax(lineno, r))?);
            continue;
        }
        if let Some(count) = parse_count(code, "NumTerminals") {
            declared_terminals = Some(count.map_err(|r| syntax(lineno, r))?);
            continue;
        }

        // Node line: `<name> <width> <height> [terminal]`, annotated with
        // `<kind> <delay> [fixed]`. Un-annotated lines (files written by
        // other tools) fall back to terminal→input / movable→logic with the
        // default logic delay.
        let mut tokens = code.split_whitespace();
        let node_name = tokens
            .next()
            .ok_or_else(|| syntax(lineno, "missing node name".into()))?;
        let width: u32 = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| syntax(lineno, "missing or invalid node width".into()))?;
        let height: u32 = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .filter(|&h| h >= 1)
            .ok_or_else(|| syntax(lineno, "missing or invalid node height".into()))?;
        let is_terminal = match tokens.next() {
            None => false,
            Some("terminal") => true,
            Some(other) => {
                return Err(syntax(lineno, format!("unexpected token `{other}`")));
            }
        };

        let mut note_tokens = note.split_whitespace();
        let (kind, delay, fixed) = match note_tokens.next() {
            Some(mnemonic) => {
                let kind = CellKind::from_mnemonic(mnemonic).ok_or_else(|| {
                    syntax(lineno, format!("unknown cell kind annotation `{mnemonic}`"))
                })?;
                let delay: f64 = note_tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| syntax(lineno, "missing or invalid delay annotation".into()))?;
                let fixed = match note_tokens.next() {
                    None => false,
                    Some("fixed") => true,
                    Some(other) => {
                        return Err(syntax(
                            lineno,
                            format!("unexpected annotation token `{other}`"),
                        ));
                    }
                };
                (kind, delay, fixed)
            }
            None if is_terminal => (CellKind::Input, 0.0, false),
            None => (CellKind::Logic, 0.1, false),
        };
        let kind_is_terminal = matches!(kind, CellKind::Input | CellKind::Output);
        if kind_is_terminal != is_terminal {
            return Err(syntax(
                lineno,
                format!(
                    "terminal flag disagrees with kind annotation `{}`",
                    kind.mnemonic()
                ),
            ));
        }
        if is_terminal {
            terminals += 1;
        }
        let mut cell = Cell::new(kind, width, delay);
        cell.height = height;
        cell.fixed = fixed;
        let id = builder.add_cell(node_name, cell);
        cell_ids.insert(node_name.to_string(), id);
    }

    if !saw_header {
        return Err(structure("missing `UCLA nodes` header".into()));
    }
    if let Some(n) = declared_nodes {
        if n != builder.num_cells() {
            return Err(structure(format!(
                "NumNodes declares {n} nodes but {} were listed",
                builder.num_cells()
            )));
        }
    }
    if let Some(t) = declared_terminals {
        if t != terminals {
            return Err(structure(format!(
                "NumTerminals declares {t} terminals but {terminals} were listed"
            )));
        }
    }
    builder.name = circuit.unwrap_or_else(|| "bookshelf".to_string());
    Ok((builder, cell_ids))
}

/// Parses the `.nets` file, adding every net to `builder`.
fn parse_nets_lines(
    lines: impl Iterator<Item = Result<String, BookshelfError>>,
    builder: &mut NetlistBuilder,
    cell_ids: &HashMap<String, CellId>,
) -> Result<(), BookshelfError> {
    let syntax = |line: usize, reason: String| BookshelfError::Syntax {
        file: BookshelfFile::Nets,
        line,
        reason,
    };
    let structure = |reason: String| BookshelfError::Structure {
        file: BookshelfFile::Nets,
        reason,
    };

    let mut saw_header = false;
    let mut declared_nets: Option<usize> = None;
    let mut declared_pins: Option<usize> = None;
    let mut pins = 0usize;

    // In-flight net group: (line of the NetDegree header, name, declared
    // degree, switching prob, driver, sinks).
    struct Group {
        header_line: usize,
        name: String,
        degree: usize,
        sprob: f64,
        driver: Option<CellId>,
        sinks: Vec<CellId>,
    }
    let mut group: Option<Group> = None;
    let mut nets = 0usize;

    let finish_group =
        |g: Group, builder: &mut NetlistBuilder, nets: &mut usize| -> Result<(), BookshelfError> {
            let total = g.sinks.len() + usize::from(g.driver.is_some());
            if total != g.degree {
                return Err(BookshelfError::Syntax {
                    file: BookshelfFile::Nets,
                    line: g.header_line,
                    reason: format!(
                        "net `{}` declares degree {} but has {} pins",
                        g.name, g.degree, total
                    ),
                });
            }
            let driver = g.driver.ok_or(BookshelfError::Syntax {
                file: BookshelfFile::Nets,
                line: g.header_line,
                reason: format!("net `{}` has no output (`O`) pin", g.name),
            })?;
            builder.add_net(&g.name, driver, &g.sinks, g.sprob);
            *nets += 1;
            Ok(())
        };

    for (idx, raw) in lines.enumerate() {
        let raw = raw?;
        let lineno = idx + 1;
        let (code, note) = split_annotation(&raw);
        if code.is_empty() {
            continue;
        }
        if !saw_header {
            if code.starts_with("UCLA nets") {
                saw_header = true;
                continue;
            }
            return Err(syntax(lineno, "expected `UCLA nets` header".into()));
        }
        if let Some(count) = parse_count(code, "NumNets") {
            declared_nets = Some(count.map_err(|r| syntax(lineno, r))?);
            continue;
        }
        if let Some(count) = parse_count(code, "NumPins") {
            declared_pins = Some(count.map_err(|r| syntax(lineno, r))?);
            continue;
        }
        if let Some(rest) = code.strip_prefix("NetDegree") {
            if let Some(g) = group.take() {
                finish_group(g, builder, &mut nets)?;
            }
            let rest = rest
                .trim_start()
                .strip_prefix(':')
                .ok_or_else(|| syntax(lineno, "expected `NetDegree : <d> <name>`".into()))?
                .trim();
            let mut tokens = rest.split_whitespace();
            let degree: usize = tokens
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| syntax(lineno, "missing or invalid net degree".into()))?;
            let net_name = tokens
                .next()
                .ok_or_else(|| syntax(lineno, "missing net name".into()))?;
            let sprob: f64 = if note.is_empty() {
                0.5
            } else {
                note.parse().map_err(|_| {
                    syntax(
                        lineno,
                        format!("invalid switching-prob annotation `{note}`"),
                    )
                })?
            };
            group = Some(Group {
                header_line: lineno,
                name: net_name.to_string(),
                degree,
                sprob,
                driver: None,
                sinks: Vec::new(),
            });
            continue;
        }

        // Pin line: `<cellname> <I|O>`.
        let g = group
            .as_mut()
            .ok_or_else(|| syntax(lineno, "pin line before any `NetDegree` header".into()))?;
        let mut tokens = code.split_whitespace();
        let cell_name = tokens
            .next()
            .ok_or_else(|| syntax(lineno, "missing pin cell name".into()))?;
        let id = *cell_ids
            .get(cell_name)
            .ok_or_else(|| syntax(lineno, format!("unknown cell `{cell_name}`")))?;
        match tokens.next() {
            Some("O") => {
                if g.driver.replace(id).is_some() {
                    return Err(syntax(
                        lineno,
                        format!("net `{}` has more than one output (`O`) pin", g.name),
                    ));
                }
            }
            Some("I") => g.sinks.push(id),
            other => {
                return Err(syntax(
                    lineno,
                    format!(
                        "expected pin direction `I` or `O`, got `{}`",
                        other.unwrap_or("")
                    ),
                ));
            }
        }
        pins += 1;
    }

    if !saw_header {
        return Err(structure("missing `UCLA nets` header".into()));
    }
    if let Some(g) = group.take() {
        finish_group(g, builder, &mut nets)?;
    }
    if let Some(n) = declared_nets {
        if n != nets {
            return Err(structure(format!(
                "NumNets declares {n} nets but {nets} were listed"
            )));
        }
    }
    if let Some(p) = declared_pins {
        if p != pins {
            return Err(structure(format!(
                "NumPins declares {p} pins but {pins} were listed"
            )));
        }
    }
    Ok(())
}

/// Parses a `.pl` placement file. The inverse of [`write_pl`]; see there for
/// a round-trip example. Orientation tokens other than `N` are accepted and
/// discarded (the workspace's layouts are unrotated).
pub fn parse_pl(text: &str) -> Result<Vec<PlEntry>, BookshelfError> {
    parse_pl_lines(str_lines(text))
}

/// Streaming variant of [`parse_pl`] over a buffered reader.
pub fn parse_pl_from(reader: impl BufRead) -> Result<Vec<PlEntry>, BookshelfError> {
    parse_pl_lines(io_lines(reader))
}

fn parse_pl_lines(
    lines: impl Iterator<Item = Result<String, BookshelfError>>,
) -> Result<Vec<PlEntry>, BookshelfError> {
    let syntax = |line: usize, reason: String| BookshelfError::Syntax {
        file: BookshelfFile::Pl,
        line,
        reason,
    };

    let mut saw_header = false;
    let mut entries = Vec::new();
    for (idx, raw) in lines.enumerate() {
        let raw = raw?;
        let lineno = idx + 1;
        let (code, _note) = split_annotation(&raw);
        if code.is_empty() {
            continue;
        }
        if !saw_header {
            if code.starts_with("UCLA pl") {
                saw_header = true;
                continue;
            }
            return Err(syntax(lineno, "expected `UCLA pl` header".into()));
        }
        let mut tokens = code.split_whitespace();
        let name = tokens
            .next()
            .ok_or_else(|| syntax(lineno, "missing cell name".into()))?;
        let x: i64 = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| syntax(lineno, "missing or invalid x coordinate".into()))?;
        let y: i64 = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| syntax(lineno, "missing or invalid y coordinate".into()))?;
        match tokens.next() {
            Some(":") => {}
            other => {
                return Err(syntax(
                    lineno,
                    format!(
                        "expected `:` before the orientation, got `{}`",
                        other.unwrap_or("")
                    ),
                ));
            }
        }
        tokens
            .next()
            .ok_or_else(|| syntax(lineno, "missing orientation".into()))?;
        let fixed = match tokens.next() {
            None => false,
            Some("/FIXED") => true,
            Some(other) => {
                return Err(syntax(lineno, format!("unexpected token `{other}`")));
            }
        };
        if let Some(extra) = tokens.next() {
            return Err(syntax(lineno, format!("unexpected token `{extra}`")));
        }
        entries.push(PlEntry {
            name: name.to_string(),
            x,
            y,
            fixed,
        });
    }

    if !saw_header {
        return Err(BookshelfError::Structure {
            file: BookshelfFile::Pl,
            reason: "missing `UCLA pl` header".into(),
        });
    }
    Ok(entries)
}

/// Parses a `.scl` row-geometry file. The inverse of [`write_scl`]; see
/// there for a round-trip example. `Sitewidth` and `SubrowOrigin` default to
/// 1 and 0 when a record omits them.
pub fn parse_scl(text: &str) -> Result<Vec<CoreRow>, BookshelfError> {
    parse_scl_lines(str_lines(text))
}

/// Streaming variant of [`parse_scl`] over a buffered reader.
pub fn parse_scl_from(reader: impl BufRead) -> Result<Vec<CoreRow>, BookshelfError> {
    parse_scl_lines(io_lines(reader))
}

fn parse_scl_lines(
    lines: impl Iterator<Item = Result<String, BookshelfError>>,
) -> Result<Vec<CoreRow>, BookshelfError> {
    let syntax = |line: usize, reason: String| BookshelfError::Syntax {
        file: BookshelfFile::Scl,
        line,
        reason,
    };
    let structure = |reason: String| BookshelfError::Structure {
        file: BookshelfFile::Scl,
        reason,
    };

    // In-flight `CoreRow … End` record.
    #[derive(Default)]
    struct Partial {
        header_line: usize,
        coordinate: Option<i64>,
        height: Option<i64>,
        sitewidth: Option<i64>,
        subrow_origin: Option<i64>,
        num_sites: Option<i64>,
    }

    let mut saw_header = false;
    let mut declared_rows: Option<usize> = None;
    let mut rows: Vec<CoreRow> = Vec::new();
    let mut cur: Option<Partial> = None;

    for (idx, raw) in lines.enumerate() {
        let raw = raw?;
        let lineno = idx + 1;
        let (code, _note) = split_annotation(&raw);
        if code.is_empty() {
            continue;
        }
        if !saw_header {
            if code.starts_with("UCLA scl") {
                saw_header = true;
                continue;
            }
            return Err(syntax(lineno, "expected `UCLA scl` header".into()));
        }
        if cur.is_none() {
            if let Some(count) = parse_count(code, "NumRows") {
                declared_rows = Some(count.map_err(|r| syntax(lineno, r))?);
                continue;
            }
            if code.split_whitespace().next() == Some("CoreRow") {
                cur = Some(Partial {
                    header_line: lineno,
                    ..Partial::default()
                });
                continue;
            }
            return Err(syntax(
                lineno,
                format!("expected `CoreRow` record, got `{code}`"),
            ));
        }
        if code == "End" {
            let p = cur.take().expect("checked above");
            let missing = |field: &str| BookshelfError::Syntax {
                file: BookshelfFile::Scl,
                line: p.header_line,
                reason: format!("CoreRow record is missing `{field}`"),
            };
            rows.push(CoreRow {
                coordinate: p.coordinate.ok_or_else(|| missing("Coordinate"))?,
                height: p.height.ok_or_else(|| missing("Height"))?,
                sitewidth: p.sitewidth.unwrap_or(1),
                subrow_origin: p.subrow_origin.unwrap_or(0),
                num_sites: p.num_sites.ok_or_else(|| missing("NumSites"))?,
            });
            continue;
        }
        // One or more `Key : value` pairs on the line (the canonical writer
        // puts `SubrowOrigin` and `NumSites` on a shared line).
        let p = cur.as_mut().expect("checked above");
        let mut tokens = code.split_whitespace();
        while let Some(key) = tokens.next() {
            if tokens.next() != Some(":") {
                return Err(syntax(lineno, format!("expected `:` after `{key}`")));
            }
            let value: i64 = tokens
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| syntax(lineno, format!("missing or invalid value for `{key}`")))?;
            let slot = match key {
                "Coordinate" => &mut p.coordinate,
                "Height" => &mut p.height,
                "Sitewidth" => &mut p.sitewidth,
                "SubrowOrigin" => &mut p.subrow_origin,
                "NumSites" => &mut p.num_sites,
                other => {
                    return Err(syntax(lineno, format!("unknown CoreRow field `{other}`")));
                }
            };
            if slot.replace(value).is_some() {
                return Err(syntax(lineno, format!("duplicate CoreRow field `{key}`")));
            }
        }
    }

    if !saw_header {
        return Err(structure("missing `UCLA scl` header".into()));
    }
    if cur.is_some() {
        return Err(structure(
            "unterminated CoreRow record (missing `End`)".into(),
        ));
    }
    if let Some(n) = declared_rows {
        if n != rows.len() {
            return Err(structure(format!(
                "NumRows declares {n} rows but {} were listed",
                rows.len()
            )));
        }
    }
    Ok(rows)
}

/// Paths of the two netlist interchange files for a given stem:
/// `<stem>.nodes` and `<stem>.nets`.
pub fn bookshelf_paths(stem: &Path) -> (PathBuf, PathBuf) {
    (stem.with_extension("nodes"), stem.with_extension("nets"))
}

/// Paths of the four layout files for a given stem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutPaths {
    /// `<stem>.nodes`
    pub nodes: PathBuf,
    /// `<stem>.nets`
    pub nets: PathBuf,
    /// `<stem>.pl`
    pub pl: PathBuf,
    /// `<stem>.scl`
    pub scl: PathBuf,
}

/// Paths of the full layout bundle for a given stem: `<stem>.nodes`,
/// `<stem>.nets`, `<stem>.pl` and `<stem>.scl`.
pub fn layout_paths(stem: &Path) -> LayoutPaths {
    LayoutPaths {
        nodes: stem.with_extension("nodes"),
        nets: stem.with_extension("nets"),
        pl: stem.with_extension("pl"),
        scl: stem.with_extension("scl"),
    }
}

/// Creates `path` and streams `f` into it through a [`io::BufWriter`].
fn write_file(
    path: &Path,
    f: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), BookshelfError> {
    let io_err = |e: io::Error| BookshelfError::Io(format!("{}: {e}", path.display()));
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut w = io::BufWriter::new(file);
    f(&mut w).and_then(|()| w.flush()).map_err(io_err)
}

/// Opens `path` as a buffered reader.
fn open_reader(path: &Path) -> Result<io::BufReader<std::fs::File>, BookshelfError> {
    std::fs::File::open(path)
        .map(io::BufReader::new)
        .map_err(|e| BookshelfError::Io(format!("{}: {e}", path.display())))
}

/// Dumps a circuit to `<stem>.nodes` / `<stem>.nets` on disk (streamed, so
/// 100k+-cell circuits never materialise the file text in memory).
pub fn save_bookshelf(netlist: &Netlist, stem: &Path) -> Result<(), BookshelfError> {
    let (nodes_path, nets_path) = bookshelf_paths(stem);
    write_file(&nodes_path, |w| write_nodes_to(netlist, w))?;
    write_file(&nets_path, |w| write_nets_to(netlist, w))
}

/// Reloads a circuit previously dumped with [`save_bookshelf`] (streamed).
pub fn load_bookshelf(stem: &Path) -> Result<Netlist, BookshelfError> {
    let (nodes_path, nets_path) = bookshelf_paths(stem);
    parse_bookshelf_from(open_reader(&nodes_path)?, open_reader(&nets_path)?)
}

/// Writes a `.pl` file to disk (streamed).
pub fn save_pl(entries: &[PlEntry], path: &Path) -> Result<(), BookshelfError> {
    write_file(path, |w| write_pl_to(entries, w))
}

/// Reads a `.pl` file from disk (streamed).
pub fn load_pl(path: &Path) -> Result<Vec<PlEntry>, BookshelfError> {
    parse_pl_from(open_reader(path)?)
}

/// Writes an `.scl` file to disk (streamed).
pub fn save_scl(rows: &[CoreRow], path: &Path) -> Result<(), BookshelfError> {
    write_file(path, |w| write_scl_to(rows, w))
}

/// Reads an `.scl` file from disk (streamed).
pub fn load_scl(path: &Path) -> Result<Vec<CoreRow>, BookshelfError> {
    parse_scl_from(open_reader(path)?)
}

/// `true` when two netlists are identical circuits: same name, equal cell
/// and net tables (including the mixed-size `height`/`fixed` attributes),
/// and the same names and sinks in the same order. The derived CSR
/// adjacency is a pure function of those, so it is covered by the
/// comparison.
pub fn netlists_identical(a: &Netlist, b: &Netlist) -> bool {
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite::{mixed_circuit, paper_circuit, MixedCircuit, PaperCircuit};
    use crate::generator::{CircuitGenerator, GeneratorConfig, MixedSizeSpec};

    fn sample() -> Netlist {
        CircuitGenerator::new(GeneratorConfig::sized("bookshelf_test", 140, 9)).generate()
    }

    fn mixed_sample() -> Netlist {
        let cfg = GeneratorConfig::sized("bookshelf_mixed", 180, 9).with_mixed(MixedSizeSpec {
            num_macros: 3,
            macro_height: 3,
            pad_ring: true,
        });
        CircuitGenerator::new(cfg).generate()
    }

    #[test]
    fn roundtrip_is_identity_on_generated_circuits() {
        let original = sample();
        let pair = write_bookshelf(&original);
        let parsed = parse_bookshelf(&pair.nodes, &pair.nets).unwrap();
        assert!(netlists_identical(&original, &parsed));
    }

    #[test]
    fn roundtrip_is_identity_on_a_paper_circuit() {
        let original = paper_circuit(PaperCircuit::S1238);
        let pair = write_bookshelf(&original);
        let parsed = parse_bookshelf(&pair.nodes, &pair.nets).unwrap();
        assert!(netlists_identical(&original, &parsed));
    }

    #[test]
    fn roundtrip_preserves_heights_and_fixed_flags() {
        let original = mixed_sample();
        assert!(original.has_fixed_cells());
        let pair = write_bookshelf(&original);
        // Macro lines carry the real height and the fixed annotation.
        assert!(
            pair.nodes.contains(" 3 # macro 0.2 fixed\n"),
            "{}",
            pair.nodes
        );
        let parsed = parse_bookshelf(&pair.nodes, &pair.nets).unwrap();
        assert!(netlists_identical(&original, &parsed));
        // And the text itself is a fixpoint of write ∘ parse.
        assert_eq!(write_bookshelf(&parsed), pair);
    }

    #[test]
    fn roundtrip_is_identity_on_a_mixed_suite_circuit() {
        let original = mixed_circuit(MixedCircuit::Mix600);
        let pair = write_bookshelf(&original);
        let parsed = parse_bookshelf(&pair.nodes, &pair.nets).unwrap();
        assert!(netlists_identical(&original, &parsed));
    }

    #[test]
    fn nodes_file_declares_consistent_counts() {
        let nl = sample();
        let nodes = write_nodes(&nl);
        let stats = nl.stats();
        assert!(nodes.starts_with("UCLA nodes 1.0\n"));
        assert!(nodes.contains(&format!("NumNodes : {}", nl.num_cells())));
        assert!(nodes.contains(&format!("NumTerminals : {}", stats.inputs + stats.outputs)));
        assert_eq!(
            nodes.matches(" terminal ").count(),
            stats.inputs + stats.outputs
        );
    }

    #[test]
    fn nets_file_declares_consistent_counts() {
        let nl = sample();
        let nets = write_nets(&nl);
        let stats = nl.stats();
        assert!(nets.starts_with("UCLA nets 1.0\n"));
        assert!(nets.contains(&format!("NumNets : {}", nl.num_nets())));
        assert!(nets.contains(&format!("NumPins : {}", stats.pins)));
        assert_eq!(nets.matches("NetDegree :").count(), nl.num_nets());
    }

    #[test]
    fn save_and_load_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("sime_bookshelf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("sample");
        let original = mixed_sample();
        save_bookshelf(&original, &stem).unwrap();
        let reloaded = load_bookshelf(&stem).unwrap();
        assert!(netlists_identical(&original, &reloaded));
        let (nodes_path, nets_path) = bookshelf_paths(&stem);
        std::fs::remove_file(nodes_path).unwrap();
        std::fs::remove_file(nets_path).unwrap();
    }

    #[test]
    fn pl_roundtrips_in_memory_and_on_disk() {
        let entries = vec![
            PlEntry {
                name: "g0".into(),
                x: 0,
                y: 8,
                fixed: false,
            },
            PlEntry {
                name: "pi0".into(),
                x: -12,
                y: 0,
                fixed: true,
            },
            PlEntry {
                name: "mb0".into(),
                x: 64,
                y: 16,
                fixed: true,
            },
        ];
        let text = write_pl(&entries);
        assert_eq!(parse_pl(&text).unwrap(), entries);
        assert_eq!(write_pl(&parse_pl(&text).unwrap()), text);

        let dir = std::env::temp_dir().join("sime_bookshelf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pl");
        save_pl(&entries, &path).unwrap();
        assert_eq!(load_pl(&path).unwrap(), entries);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn pl_parse_errors_carry_file_and_line() {
        let missing_colon = "UCLA pl 1.0\ng0 0 8 N\n";
        let err = parse_pl(missing_colon).unwrap_err();
        assert!(
            matches!(
                err,
                BookshelfError::Syntax {
                    file: BookshelfFile::Pl,
                    line: 2,
                    ..
                }
            ),
            "{err}"
        );
        let trailing = "UCLA pl 1.0\ng0 0 8 : N /FIXED junk\n";
        assert!(parse_pl(trailing).is_err());
        let headerless = "g0 0 8 : N\n";
        assert!(parse_pl(headerless).is_err());
        // Comments and blank lines are skipped; other orientations accepted.
        let tolerant = "UCLA pl 1.0\n# comment\n\nmb0 4 0 : FS /FIXED\n";
        assert_eq!(
            parse_pl(tolerant).unwrap(),
            vec![PlEntry {
                name: "mb0".into(),
                x: 4,
                y: 0,
                fixed: true
            }]
        );
    }

    #[test]
    fn scl_roundtrips_in_memory_and_on_disk() {
        let rows: Vec<CoreRow> = (0..5)
            .map(|r| CoreRow {
                coordinate: r * 8,
                height: 8,
                sitewidth: 1,
                subrow_origin: 0,
                num_sites: 480,
            })
            .collect();
        let text = write_scl(&rows);
        assert_eq!(parse_scl(&text).unwrap(), rows);
        assert_eq!(write_scl(&parse_scl(&text).unwrap()), text);

        let dir = std::env::temp_dir().join("sime_bookshelf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.scl");
        save_scl(&rows, &path).unwrap();
        assert_eq!(load_scl(&path).unwrap(), rows);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn scl_parser_enforces_structure() {
        // Row count mismatch.
        let bad_count = "UCLA scl 1.0\nNumRows : 2\nCoreRow Horizontal\n\
                         Coordinate : 0\nHeight : 8\nNumSites : 10\nEnd\n";
        assert!(matches!(
            parse_scl(bad_count).unwrap_err(),
            BookshelfError::Structure {
                file: BookshelfFile::Scl,
                ..
            }
        ));
        // Unterminated record.
        let unterminated = "UCLA scl 1.0\nCoreRow Horizontal\nCoordinate : 0\n";
        assert!(matches!(
            parse_scl(unterminated).unwrap_err(),
            BookshelfError::Structure {
                file: BookshelfFile::Scl,
                ..
            }
        ));
        // Missing mandatory field points at the record header line.
        let missing = "UCLA scl 1.0\nCoreRow Horizontal\nCoordinate : 0\nHeight : 8\nEnd\n";
        assert!(matches!(
            parse_scl(missing).unwrap_err(),
            BookshelfError::Syntax {
                file: BookshelfFile::Scl,
                line: 2,
                ..
            }
        ));
        // Duplicate field.
        let dup = "UCLA scl 1.0\nCoreRow Horizontal\nCoordinate : 0\nCoordinate : 8\n";
        assert!(parse_scl(dup).is_err());
        // Defaults apply for Sitewidth / SubrowOrigin.
        let minimal = "UCLA scl 1.0\nCoreRow Horizontal\n\
                       Coordinate : 16\nHeight : 8\nNumSites : 64\nEnd\n";
        assert_eq!(
            parse_scl(minimal).unwrap(),
            vec![CoreRow {
                coordinate: 16,
                height: 8,
                sitewidth: 1,
                subrow_origin: 0,
                num_sites: 64
            }]
        );
    }

    #[test]
    fn layout_paths_cover_all_four_files() {
        let p = layout_paths(Path::new("/tmp/mix600"));
        assert_eq!(p.nodes, Path::new("/tmp/mix600.nodes"));
        assert_eq!(p.nets, Path::new("/tmp/mix600.nets"));
        assert_eq!(p.pl, Path::new("/tmp/mix600.pl"));
        assert_eq!(p.scl, Path::new("/tmp/mix600.scl"));
    }

    #[test]
    fn syntax_errors_carry_file_and_line() {
        // Line 4 of the nodes file has a bogus width.
        let nodes = "UCLA nodes 1.0\n# circuit x\nNumNodes : 1\n    a xx 1 terminal # in 0\n";
        let err = parse_bookshelf(nodes, "UCLA nets 1.0\nNumNets : 0\n").unwrap_err();
        assert_eq!(
            err,
            BookshelfError::Syntax {
                file: BookshelfFile::Nodes,
                line: 4,
                reason: "missing or invalid node width".into()
            }
        );

        // Line 4 of the nets file references an unknown cell.
        let nodes =
            "UCLA nodes 1.0\n# circuit x\n    a 1 1 terminal # in 0\n    b 1 1 # logic 0.1\n";
        let nets = "UCLA nets 1.0\nNumNets : 1\nNetDegree : 2 n0 # 0.5\n    bogus O\n    b I\n";
        let err = parse_bookshelf(nodes, nets).unwrap_err();
        assert!(
            matches!(
                err,
                BookshelfError::Syntax {
                    file: BookshelfFile::Nets,
                    line: 4,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn bad_heights_and_annotations_are_rejected() {
        let zero_height = "UCLA nodes 1.0\n    m 4 0 # macro 0.2 fixed\n";
        assert!(parse_nodes(zero_height).is_err());
        let bad_extra = "UCLA nodes 1.0\n    m 4 3 # macro 0.2 movable\n";
        let err = parse_nodes(bad_extra).unwrap_err();
        assert!(err.to_string().contains("unexpected annotation"), "{err}");
    }

    #[test]
    fn missing_driver_and_degree_mismatch_are_rejected() {
        let nodes = "UCLA nodes 1.0\n# circuit x\n    a 1 1 # logic 0.1\n    b 1 1 # logic 0.1\n";
        let all_inputs = "UCLA nets 1.0\nNetDegree : 2 n0 # 0.5\n    a I\n    b I\n";
        let err = parse_bookshelf(nodes, all_inputs).unwrap_err();
        assert!(err.to_string().contains("no output"), "{err}");

        let wrong_degree = "UCLA nets 1.0\nNetDegree : 3 n0 # 0.5\n    a O\n    b I\n";
        let err = parse_bookshelf(nodes, wrong_degree).unwrap_err();
        assert!(err.to_string().contains("declares degree 3"), "{err}");

        // Faults only the netlist builder sees surface as its typed error.
        let duplicate = "UCLA nodes 1.0\n    a 1 1 # logic 0.1\n    a 1 1 # logic 0.1\n";
        let err = parse_bookshelf(duplicate, "UCLA nets 1.0\n").unwrap_err();
        assert!(
            matches!(
                err,
                BookshelfError::Semantic(NetlistError::DuplicateCellName(_))
            ),
            "{err}"
        );
    }

    #[test]
    fn count_mismatches_are_structure_errors() {
        let nodes = "UCLA nodes 1.0\nNumNodes : 5\n    a 1 1 # logic 0.1\n";
        let err = parse_nodes(nodes).unwrap_err();
        assert!(
            matches!(
                err,
                BookshelfError::Structure {
                    file: BookshelfFile::Nodes,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn plain_ucla_files_without_annotations_still_parse() {
        // Files written by other tools carry no kind/delay/sprob
        // annotations; the parser falls back to sensible defaults.
        let nodes = "UCLA nodes 1.0\nNumNodes : 3\n    p 2 1 terminal\n    g 4 1\n    q 3 1\n";
        let nets = "UCLA nets 1.0\nNumNets : 1\nNetDegree : 2 n\n    p O\n    g I\n";
        let nl = parse_bookshelf(nodes, nets).unwrap();
        assert_eq!(nl.num_cells(), 3);
        assert_eq!(nl.cell(nl.cell_by_name("p").unwrap()).kind, CellKind::Input);
        assert_eq!(nl.cell(nl.cell_by_name("g").unwrap()).kind, CellKind::Logic);
        assert_eq!(nl.net(nl.net_by_name("n").unwrap()).switching_prob, 0.5);
    }

    #[test]
    fn terminal_flag_must_agree_with_annotation() {
        let nodes = "UCLA nodes 1.0\n    a 1 1 terminal # logic 0.1\n";
        let err = parse_nodes(nodes).unwrap_err();
        assert!(err.to_string().contains("terminal flag disagrees"), "{err}");
    }
}
