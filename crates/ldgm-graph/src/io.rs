//! Graph I/O: Matrix Market exchange format and a binary CSR cache.
//!
//! The paper's comparison baselines consume Matrix Market (§IV-D notes
//! SR-OMP "requires graphs to be in Matrix Market native data format"), so
//! we support reading and writing `matrix coordinate
//! {real,integer,pattern} {general,symmetric}` headers. Pattern matrices
//! (no stored values) receive uniform 3-decimal weights, exactly like the
//! paper's preprocessing of weightless datasets.
//!
//! # Reading Matrix Market
//!
//! The header and the size line are read line by line. The body streams
//! through one reused byte block (8 MiB; the file is never read whole).
//! Each fill is cut after its last newline and the partial line is carried
//! to the front of the next fill; a line longer than the block grows it.
//! The complete lines are split at newlines into at most one piece per
//! core, and the pieces parse in parallel on the rayon pool, each into
//! its own canonical-edge vector with its own line and entry counts.
//! Appending the pieces in file order gives the edge list, the entry count
//! and the first error, with its 1-based line number, that one sequential
//! pass would give.
//!
//! Indices parse through an ASCII digit loop with overflow checks. Values
//! go through `std`'s `str::parse::<f64>` on the token, which rounds
//! correctly: a faster hand-written decimal parser would give up exact
//! rounding, move some weights by an ulp and so change matchings. A piece
//! that holds a non-ASCII byte parses line by line, checking UTF-8 and
//! splitting on Unicode whitespace as `BufRead::lines` and
//! `str::split_whitespace` do.
//!
//! Header sizes never drive an allocation by themselves. The edge
//! reservation is capped by what the input's byte length can hold, a row
//! count past the `u32` id space is rejected, and the CSR offsets are
//! reserved fallibly. A hostile header thus ends in an [`IoError`], not an
//! abort.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use rayon::prelude::*;

use crate::builder::{canonical_edge, Edge, GraphBuilder};
use crate::csr::{CsrGraph, VertexId};
use crate::weights::edge_hash_weight;

/// Errors from graph I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the input file (message, 1-based line).
    Parse(String, usize),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(msg, line) => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Value kind of a Matrix Market file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MtxField {
    Real,
    Integer,
    Pattern,
}

/// Bytes of the reused body block.
const BLOCK_BYTES: usize = 8 << 20;

/// Fewest bytes an entry line takes: `i j` and its newline.
const MIN_ENTRY_BYTES: usize = 4;

/// What a body line is parsed against: the header's field, the matrix
/// order, and the seed of pattern and zero-entry weights.
struct Shape {
    field: MtxField,
    rows: u64,
    seed: u64,
}

/// Read a Matrix Market graph from a reader.
///
/// Rectangular matrices are rejected (matching is defined on square
/// adjacency structure); `general` matrices are symmetrized; self loops
/// (diagonal entries) are dropped; pattern files get hash-derived uniform
/// weights seeded by `pattern_weight_seed`.
pub fn read_mtx<R: Read>(reader: R, pattern_weight_seed: u64) -> Result<CsrGraph, IoError> {
    read_mtx_blocks(reader, pattern_weight_seed, None, BLOCK_BYTES, cores())
}

/// Read a Matrix Market graph from a file path.
pub fn read_mtx_file(
    path: impl AsRef<Path>,
    pattern_weight_seed: u64,
) -> Result<CsrGraph, IoError> {
    let file = File::open(path)?;
    let len = file.metadata().ok().filter(|m| m.is_file()).map(|m| m.len());
    read_mtx_blocks(file, pattern_weight_seed, len, BLOCK_BYTES, cores())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// [`read_mtx`] with the body read in `block`-byte fills and parsed in
/// `pieces` pieces per fill. `byte_len`, the input's length when known,
/// caps the block and the edge reservation; without it the edge cap is
/// what one default block holds.
pub(crate) fn read_mtx_blocks<R: Read>(
    reader: R,
    seed: u64,
    byte_len: Option<u64>,
    block: usize,
    pieces: usize,
) -> Result<CsrGraph, IoError> {
    let mut r = BufReader::new(reader);
    let (shape, nnz, lineno) = read_header(&mut r, seed)?;
    let len = byte_len.map(|l| usize::try_from(l).unwrap_or(usize::MAX));
    // A block one byte longer than the input reads it in one fill.
    let block = len.map_or(block, |l| block.min(l.saturating_add(1)));
    let cap = nnz.min(len.unwrap_or(BLOCK_BYTES) / MIN_ENTRY_BYTES + 1);
    let mut edges = Vec::new();
    edges.try_reserve_exact(cap).map_err(|e| out_of_memory(format!("{cap} edges"), e))?;
    let (entries, lineno) = read_body(&mut r, &shape, block, pieces, lineno, &mut edges)?;
    if entries != nnz {
        return Err(IoError::Parse(
            format!("header promised {nnz} entries, found {entries}"),
            lineno,
        ));
    }
    let n = shape.rows as usize;
    GraphBuilder::from_canonical(n, edges)
        .try_build()
        .map_err(|e| out_of_memory(format!("the offsets of {n} vertices"), e))
}

fn out_of_memory(what: String, e: std::collections::TryReserveError) -> IoError {
    IoError::Io(io::Error::new(io::ErrorKind::OutOfMemory, format!("cannot allocate {what}: {e}")))
}

/// Parse the header and size lines: the body's [`Shape`], the promised
/// entry count and the number of lines read.
fn read_header<R: BufRead>(r: R, seed: u64) -> Result<(Shape, usize, usize), IoError> {
    let mut lines = r.lines();
    let mut lineno = 0usize;

    // Header line.
    let header = loop {
        match lines.next() {
            Some(l) => {
                lineno += 1;
                let l = l?;
                if !l.trim().is_empty() {
                    break l;
                }
            }
            None => return Err(IoError::Parse("empty file".into(), lineno)),
        }
    };
    let toks: Vec<String> = header.split_whitespace().map(|t| t.to_ascii_lowercase()).collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(IoError::Parse("expected '%%MatrixMarket matrix ...' header".into(), lineno));
    }
    if toks[2] != "coordinate" {
        return Err(IoError::Parse(format!("unsupported format '{}'", toks[2]), lineno));
    }
    let field = match toks[3].as_str() {
        "real" => MtxField::Real,
        "integer" => MtxField::Integer,
        "pattern" => MtxField::Pattern,
        other => return Err(IoError::Parse(format!("unsupported field '{other}'"), lineno)),
    };
    match toks[4].as_str() {
        "general" | "symmetric" => {}
        other => return Err(IoError::Parse(format!("unsupported symmetry '{other}'"), lineno)),
    }

    // Size line (skip comments).
    let size_line = loop {
        match lines.next() {
            Some(l) => {
                lineno += 1;
                let l = l?;
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break l;
            }
            None => return Err(IoError::Parse("missing size line".into(), lineno)),
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(IoError::Parse("size line must be 'rows cols nnz'".into(), lineno));
    }
    let rows: usize =
        dims[0].parse().map_err(|_| IoError::Parse("bad row count".into(), lineno))?;
    let cols: usize =
        dims[1].parse().map_err(|_| IoError::Parse("bad col count".into(), lineno))?;
    let nnz: usize = dims[2].parse().map_err(|_| IoError::Parse("bad nnz count".into(), lineno))?;
    if rows != cols {
        return Err(IoError::Parse(
            format!("matrix must be square for matching, got {rows}x{cols}"),
            lineno,
        ));
    }
    if rows > VertexId::MAX as usize {
        return Err(IoError::Parse(
            format!("{rows} vertices exceed the 32-bit vertex id space"),
            lineno,
        ));
    }
    Ok((Shape { field, rows: rows as u64, seed }, nnz, lineno))
}

/// One piece's parse: its canonical edges, its entry count, its newline
/// count, and its first error, whose line number counts from the piece's
/// first line.
#[derive(Default)]
struct Piece {
    edges: Vec<Edge>,
    entries: usize,
    newlines: usize,
    error: Option<IoError>,
}

/// Stream the body after line `lineno` into `edges`; returns the entry
/// count and the number of the file's last line.
fn read_body<R: Read>(
    r: &mut R,
    shape: &Shape,
    block: usize,
    pieces: usize,
    mut lineno: usize,
    edges: &mut Vec<Edge>,
) -> Result<(usize, usize), IoError> {
    let mut buf = vec![0u8; block.max(1)];
    let mut filled = 0;
    let mut entries = 0;
    let mut slots: Vec<Piece> = (0..pieces.max(1)).map(|_| Piece::default()).collect();
    loop {
        let eof = loop {
            match r.read(&mut buf[filled..]) {
                Ok(0) => break true,
                Ok(k) => filled += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
            if filled == buf.len() {
                break false;
            }
        };
        let cut = if eof {
            filled
        } else if let Some(p) = buf.iter().rposition(|&b| b == b'\n') {
            p + 1
        } else {
            // One line fills the block: grow it and read on.
            buf.resize(2 * buf.len(), 0);
            continue;
        };
        let parts = split_at_lines(&buf[..cut], slots.len());
        let jobs: Vec<(Piece, &[u8])> = std::mem::take(&mut slots).into_iter().zip(parts).collect();
        slots = jobs
            .into_par_iter()
            .map(|(mut piece, part)| {
                parse_piece(part, shape, &mut piece);
                piece
            })
            .collect();
        for piece in &mut slots {
            match piece.error.take() {
                Some(IoError::Parse(msg, line)) => return Err(IoError::Parse(msg, lineno + line)),
                Some(e) => return Err(e),
                None => {}
            }
            edges.append(&mut piece.edges);
            entries += piece.entries;
            lineno += piece.newlines;
        }
        if eof {
            // A last line without a newline is still a line.
            lineno += usize::from(cut > 0 && buf[cut - 1] != b'\n');
            return Ok((entries, lineno));
        }
        buf.copy_within(cut..filled, 0);
        filled -= cut;
    }
}

/// Split `data` into exactly `pieces` consecutive slices of about equal
/// length, each ending just after a newline (the last one, and any that
/// find no newline, end with `data`).
fn split_at_lines(data: &[u8], pieces: usize) -> Vec<&[u8]> {
    let mut cuts = vec![0];
    for k in 1..pieces {
        let from = (data.len() * k / pieces).max(cuts[k - 1]);
        let cut =
            data[from..].iter().position(|&b| b == b'\n').map_or(data.len(), |i| from + i + 1);
        cuts.push(cut);
    }
    cuts.push(data.len());
    cuts.windows(2).map(|c| &data[c[0]..c[1]]).collect()
}

/// Parse the lines of `data` into `piece`, which starts over.
fn parse_piece(data: &[u8], shape: &Shape, piece: &mut Piece) {
    piece.entries = 0;
    piece.newlines = 0;
    if data.is_ascii() {
        return parse_lines(data, shape, piece);
    }
    for line in data.split_inclusive(|&b| b == b'\n') {
        let Ok(text) = std::str::from_utf8(line) else {
            piece.error = Some(IoError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )));
            return;
        };
        // Unicode whitespace separates tokens as ASCII whitespace does.
        let text: String = text
            .chars()
            .map(|c| if !c.is_ascii() && c.is_whitespace() { ' ' } else { c })
            .collect();
        parse_lines(text.as_bytes(), shape, piece);
        if piece.error.is_some() {
            return;
        }
    }
}

/// Parse the lines of `data` into `piece`'s edges and counts, stopping at
/// the first error.
fn parse_lines(data: &[u8], shape: &Shape, piece: &mut Piece) {
    let mut cur = Cursor { s: data, p: 0 };
    while cur.p < data.len() {
        match parse_entry(&mut cur, shape, &mut piece.edges) {
            Ok(is_entry) => piece.entries += usize::from(is_entry),
            Err(msg) => {
                piece.error = Some(IoError::Parse(msg, piece.newlines + 1));
                return;
            }
        }
        piece.newlines += usize::from(cur.end_line());
    }
}

/// Parse the body line at `cur` up to its last token used, pushing its
/// edge (if canonical) onto `edges`. Returns whether the line is an entry
/// rather than blank or a comment.
fn parse_entry(cur: &mut Cursor, shape: &Shape, edges: &mut Vec<Edge>) -> Result<bool, String> {
    let first = cur.token();
    if first.is_empty() || first[0] == b'%' {
        return Ok(false);
    }
    let i = parse_index(first).ok_or("bad row index")?;
    let j = parse_index(cur.token()).ok_or("bad col index")?;
    if i == 0 || j == 0 || i > shape.rows || j > shape.rows {
        return Err(format!("index ({i},{j}) out of range"));
    }
    let u = (i - 1) as VertexId;
    let v = (j - 1) as VertexId;
    let w = match shape.field {
        MtxField::Pattern => edge_hash_weight(u, v, shape.seed),
        MtxField::Real | MtxField::Integer => {
            let raw: f64 = std::str::from_utf8(cur.token())
                .ok()
                .and_then(|t| t.parse().ok())
                .ok_or("missing value")?;
            // Matching needs positive weights; matrices store signed
            // values, so take magnitudes (the convention used by
            // matching-based pivoting/ordering in numerical LA). Zero
            // entries fall back to a hash weight.
            if raw == 0.0 {
                edge_hash_weight(u, v, shape.seed)
            } else {
                raw.abs()
            }
        }
    };
    edges.extend(canonical_edge(u, v, w));
    Ok(true)
}

/// A Matrix Market index as `str::parse::<u64>` reads it: an optional
/// `+`, then at least one decimal digit, without overflow.
fn parse_index(tok: &[u8]) -> Option<u64> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// Whitespace as `char::is_whitespace` has it within ASCII.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r')
}

/// A position in a run of body lines.
struct Cursor<'a> {
    s: &'a [u8],
    p: usize,
}

impl<'a> Cursor<'a> {
    /// The next whitespace-delimited token of the current line; empty at
    /// the line's end.
    #[inline]
    fn token(&mut self) -> &'a [u8] {
        let s = self.s;
        let mut p = self.p;
        while p < s.len() && s[p] != b'\n' && is_space(s[p]) {
            p += 1;
        }
        let start = p;
        while p < s.len() && !is_space(s[p]) {
            p += 1;
        }
        self.p = p;
        &s[start..p]
    }

    /// Move past the current line's newline; returns whether there was
    /// one (the last line of the input may lack it).
    #[inline]
    fn end_line(&mut self) -> bool {
        match self.s[self.p..].iter().position(|&b| b == b'\n') {
            Some(k) => {
                self.p += k + 1;
                true
            }
            None => {
                self.p = self.s.len();
                false
            }
        }
    }
}

/// Write `g` as a symmetric real coordinate Matrix Market file (lower
/// triangle, 1-indexed).
pub fn write_mtx<W: Write>(g: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real symmetric")?;
    writeln!(w, "% written by ldgm-graph")?;
    writeln!(w, "{} {} {}", g.num_vertices(), g.num_vertices(), g.num_edges())?;
    for (u, v, wt) in g.iter_edges() {
        // Symmetric MM stores the lower triangle: row >= col.
        writeln!(w, "{} {} {}", v + 1, u + 1, wt)?;
    }
    w.flush()
}

/// Write `g` to a file path in Matrix Market format.
pub fn write_mtx_file(g: &CsrGraph, path: impl AsRef<Path>) -> io::Result<()> {
    write_mtx(g, File::create(path)?)
}

const BIN_MAGIC: &[u8; 8] = b"LDGMCSR1";

/// Write `g` in the compact binary CSR cache format (little endian:
/// magic, n, 2m, offsets, adjacency, weights).
pub fn write_bin<W: Write>(g: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(BIN_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_directed_edges() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        w.write_all(&o.to_le_bytes())?;
    }
    for &a in g.adjacency() {
        w.write_all(&a.to_le_bytes())?;
    }
    for &wt in g.weight_array() {
        w.write_all(&wt.to_le_bytes())?;
    }
    w.flush()
}

/// Read a graph from the binary CSR cache format.
pub fn read_bin<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(IoError::Parse("bad magic".into(), 0));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n = u64::from_le_bytes(buf8) as usize;
    r.read_exact(&mut buf8)?;
    let m2 = u64::from_le_bytes(buf8) as usize;
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        r.read_exact(&mut buf8)?;
        offsets.push(u64::from_le_bytes(buf8));
    }
    let mut adj = Vec::with_capacity(m2);
    let mut buf4 = [0u8; 4];
    for _ in 0..m2 {
        r.read_exact(&mut buf4)?;
        adj.push(u32::from_le_bytes(buf4));
    }
    let mut weights = Vec::with_capacity(m2);
    for _ in 0..m2 {
        r.read_exact(&mut buf8)?;
        weights.push(f64::from_le_bytes(buf8));
    }
    let g = CsrGraph::from_raw(offsets, adj, weights);
    g.validate().map_err(|e| IoError::Parse(e, 0))?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen::urand;

    fn sample() -> CsrGraph {
        GraphBuilder::new(4)
            .add_edge(0, 1, 0.5)
            .add_edge(1, 2, 0.25)
            .add_edge(2, 3, 0.75)
            .add_edge(0, 3, 1.0)
            .build()
    }

    #[test]
    fn mtx_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_mtx(&g, &mut buf).unwrap();
        let back = read_mtx(&buf[..], 0).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn mtx_roundtrip_random() {
        let g = urand(200, 1000, 3);
        let mut buf = Vec::new();
        write_mtx(&g, &mut buf).unwrap();
        let back = read_mtx(&buf[..], 0).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn pattern_gets_weights() {
        let s = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n";
        let g = read_mtx(s.as_bytes(), 42).unwrap();
        assert_eq!(g.num_edges(), 2);
        for (_, _, w) in g.iter_edges() {
            assert!(w > 0.0 && w <= 1.0);
        }
    }

    #[test]
    fn general_symmetrizes_and_drops_diagonal() {
        let s = "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 4\n1 2 5.0\n2 1 5.0\n1 1 9.0\n3 1 -2.0\n";
        let g = read_mtx(s.as_bytes(), 0).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(5.0));
        assert_eq!(g.edge_weight(0, 2), Some(2.0)); // magnitude of -2
    }

    #[test]
    fn rejects_rectangular() {
        let s = "%%MatrixMarket matrix coordinate real general\n3 4 0\n";
        assert!(read_mtx(s.as_bytes(), 0).is_err());
    }

    #[test]
    fn rejects_wrong_nnz() {
        let s = "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.0\n";
        assert!(read_mtx(s.as_bytes(), 0).is_err());
    }

    #[test]
    fn rejects_out_of_range_index() {
        let s = "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 7 1.0\n";
        assert!(read_mtx(s.as_bytes(), 0).is_err());
    }

    #[test]
    fn rejects_bad_header() {
        let s = "%%MatrixMarket tensor coordinate real general\n1 1 0\n";
        assert!(read_mtx(s.as_bytes(), 0).is_err());
        let s2 = "%%MatrixMarket matrix array real general\n1 1 0\n";
        assert!(read_mtx(s2.as_bytes(), 0).is_err());
    }

    #[test]
    fn bin_roundtrip() {
        let g = urand(300, 2000, 5);
        let mut buf = Vec::new();
        write_bin(&g, &mut buf).unwrap();
        let back = read_bin(&buf[..]).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn bin_rejects_garbage() {
        assert!(read_bin(&b"NOTAGRAPH"[..]).is_err());
    }

    /// A three-line real general file with `size_line` as its sizes.
    fn with_sizes(size_line: &str) -> String {
        format!("%%MatrixMarket matrix coordinate real general\n{size_line}\n1 2 1.0\n")
    }

    /// Read `text` from memory and, as the CLI does, from a file.
    fn read_both_ways(name: &str, text: &str) -> [Result<CsrGraph, IoError>; 2] {
        let path = std::env::temp_dir().join(format!("ldgm-io-{}-{name}.mtx", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let from_file = read_mtx_file(&path, 0);
        std::fs::remove_file(&path).unwrap();
        [read_mtx(text.as_bytes(), 0), from_file]
    }

    #[test]
    fn vertex_count_too_big_to_allocate_is_an_error() {
        // 4e9 + 1 offsets are 32 GB, which a host with less memory and
        // swap than that refuses to reserve; the reader reports the
        // refusal instead of aborting.
        for r in read_both_ways("huge-n", &with_sizes("4000000000 4000000000 1")) {
            let e = r.unwrap_err();
            assert!(
                matches!(&e, IoError::Io(io) if io.kind() == io::ErrorKind::OutOfMemory),
                "{e}"
            );
        }
    }

    #[test]
    fn vertex_count_past_u32_is_an_error() {
        for r in read_both_ways("past-u32", &with_sizes("5000000000 5000000000 1")) {
            let e = r.unwrap_err();
            assert!(matches!(&e, IoError::Parse(m, 2) if m.contains("32-bit")), "{e}");
        }
    }

    #[test]
    fn entry_count_past_the_input_is_an_error() {
        // The 4e9-entry reservation is capped by what the input can hold.
        for r in read_both_ways("huge-nnz", &with_sizes("3 3 4000000000")) {
            let e = r.unwrap_err();
            let want = "header promised 4000000000 entries, found 1";
            assert!(matches!(&e, IoError::Parse(m, 3) if m == want), "{e}");
        }
    }

    /// The line-by-line reader the block reader replaced, kept as the
    /// reference for the differential test.
    fn read_mtx_lines<R: Read>(reader: R, pattern_weight_seed: u64) -> Result<CsrGraph, IoError> {
        let mut lines = BufReader::new(reader).lines();
        let mut lineno = 0usize;
        let header = loop {
            match lines.next() {
                Some(l) => {
                    lineno += 1;
                    let l = l?;
                    if !l.trim().is_empty() {
                        break l;
                    }
                }
                None => return Err(IoError::Parse("empty file".into(), lineno)),
            }
        };
        let toks: Vec<String> = header.split_whitespace().map(|t| t.to_ascii_lowercase()).collect();
        assert!(toks.len() >= 5 && toks[2] == "coordinate", "generated headers are valid");
        let field = match toks[3].as_str() {
            "real" => MtxField::Real,
            "integer" => MtxField::Integer,
            _ => MtxField::Pattern,
        };
        let size_line = loop {
            match lines.next() {
                Some(l) => {
                    lineno += 1;
                    let l = l?;
                    let t = l.trim();
                    if t.is_empty() || t.starts_with('%') {
                        continue;
                    }
                    break l;
                }
                None => return Err(IoError::Parse("missing size line".into(), lineno)),
            }
        };
        let dims: Vec<usize> = size_line.split_whitespace().map(|d| d.parse().unwrap()).collect();
        let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
        let mut b = GraphBuilder::with_capacity(rows, nnz);
        let mut entries = 0usize;
        for l in lines {
            lineno += 1;
            let l = l?;
            let t = l.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let i: u64 = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| IoError::Parse("bad row index".into(), lineno))?;
            let j: u64 = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| IoError::Parse("bad col index".into(), lineno))?;
            if i == 0 || j == 0 || i > rows as u64 || j > cols as u64 {
                return Err(IoError::Parse(format!("index ({i},{j}) out of range"), lineno));
            }
            let u = (i - 1) as VertexId;
            let v = (j - 1) as VertexId;
            let w = match field {
                MtxField::Pattern => edge_hash_weight(u, v, pattern_weight_seed),
                MtxField::Real | MtxField::Integer => {
                    let raw: f64 = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| IoError::Parse("missing value".into(), lineno))?;
                    if raw == 0.0 {
                        edge_hash_weight(u, v, pattern_weight_seed)
                    } else {
                        raw.abs()
                    }
                }
            };
            entries += 1;
            b.push_edge(u, v, w);
        }
        if entries != nnz {
            return Err(IoError::Parse(
                format!("header promised {nnz} entries, found {entries}"),
                lineno,
            ));
        }
        Ok(b.build())
    }

    const FIELDS: [&str; 3] = ["real", "integer", "pattern"];
    const VALUES: [&str; 20] = [
        "0.5",
        "+0.25",
        "1e-3",
        "2.5E+2",
        "0",
        "-0.0",
        "-3.75",
        "nan",
        "NaN",
        "inf",
        "-inf",
        "7",
        "+12",
        ".5",
        "5.",
        "0.123",
        "1",
        "-1e300",
        "1.0000000000000002",
        "3.14159265358979",
    ];

    /// A token separator: mostly spaces, sometimes tabs, runs, a form
    /// feed, or a no-break space (a non-ASCII piece).
    fn sep(k: u8) -> &'static str {
        match k {
            0..40 => " ",
            40..50 => "\t",
            50..58 => "   ",
            58..62 => " \t ",
            62 => "\x0c",
            _ => "\u{a0}",
        }
    }

    /// One generated body line as `(kind, i, j, value, separator)`, all
    /// small numbers the test maps to text.
    type LineSpec = (u8, u64, u64, u8, u8);

    /// The MTX text for a header choice, a vertex count, flags (CRLF,
    /// final newline, how far off the promised entry count is) and lines.
    fn mtx_text(header: u8, rows: u64, flags: u8, specs: &[LineSpec]) -> Vec<u8> {
        let field = FIELDS[header as usize % 3];
        let symmetry = if header < 3 { "general" } else { "symmetric" };
        let mut body: Vec<Vec<u8>> = Vec::new();
        let mut entries = 0i64;
        for &(kind, i, j, val, k) in specs {
            let (s, value) = (sep(k), VALUES[val as usize % VALUES.len()]);
            let (i, j) = (1 + i % rows.max(1), 1 + j % rows.max(1));
            let mut line = match kind {
                0..4 => {
                    if k % 2 == 0 {
                        String::new()
                    } else {
                        s.to_string()
                    }
                }
                4..7 => format!("{}% comment {i} {j}", if k % 3 == 0 { s } else { "" }),
                7 => "% 1 2 caf\u{e9}".to_string(),
                8 => ["1 x 0.5", "abc", "1", "1 2x 3", "-1 2 0.5", "+ 1 2"][j as usize % 6].into(),
                9 => format!("{}{s}{j}{s}{value}", [0, rows + 1][i as usize % 2]),
                10 => format!("+{i}{s}+{j}{s}{value}"),
                11..14 => format!("{i}{s}{j}{s}{value}{s}extra{s}9"),
                14..16 => format!("{i}{s}{j}"),
                16 => "99999999999999999999 1 1.0".into(),
                _ if field == "pattern" && val % 2 == 0 => format!("{i}{s}{j}"),
                _ => format!("{i}{s}{j}{s}{value}"),
            };
            if k % 7 == 0 {
                line.insert_str(0, s);
            }
            if k % 5 == 0 {
                line.push_str(s);
            }
            entries += i64::from(!(kind < 8 || kind == 17));
            let mut bytes = line.into_bytes();
            if kind == 17 {
                bytes = b"% invalid \xff UTF-8".to_vec();
            }
            body.push(bytes);
        }
        let nnz = (entries + [0, 0, 0, 1, -1][(flags >> 2) as usize % 5]).max(0);
        let eol: &[u8] = if flags & 1 == 1 { b"\r\n" } else { b"\n" };
        let mut text =
            format!("%%MatrixMarket matrix coordinate {field} {symmetry}\n{rows} {rows} {nnz}\n")
                .into_bytes();
        for (n, line) in body.iter().enumerate() {
            text.extend_from_slice(line);
            if n + 1 < body.len() || flags & 2 == 0 {
                text.extend_from_slice(eol);
            }
        }
        text
    }

    /// Same graph bit for bit, or the same error.
    fn same(a: &Result<CsrGraph, IoError>, b: &Result<CsrGraph, IoError>) -> bool {
        let bits = |g: &CsrGraph| g.weight_array().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        match (a, b) {
            (Ok(x), Ok(y)) => x == y && bits(x) == bits(y),
            (Err(IoError::Parse(m, l)), Err(IoError::Parse(n, k))) => m == n && l == k,
            (Err(IoError::Io(x)), Err(IoError::Io(y))) => x.kind() == y.kind(),
            _ => false,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn block_reader_equals_line_reader(
            header in 0u8..6,
            rows in 0u64..10,
            flags in 0u8..20,
            specs in proptest::collection::vec((0u8..200, 0u64..64, 0u64..64, 0u8..64, 0u8..64), 0..48),
        ) {
            let text = mtx_text(header, rows, flags, &specs);
            let want = read_mtx_lines(&text[..], 9);
            let len = Some(text.len() as u64);
            for (block, pieces, len) in
                [(16, 1, None), (16, 3, len), (64, 2, None), (4096, 3, len), (BLOCK_BYTES, cores(), None)]
            {
                let got = read_mtx_blocks(&text[..], 9, len, block, pieces);
                proptest::prop_assert!(
                    same(&got, &want),
                    "block {block}, {pieces} pieces: {got:?} != {want:?}\n{}",
                    String::from_utf8_lossy(&text)
                );
            }
        }
    }
}
