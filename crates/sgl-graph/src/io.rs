//! Graph import/export: Matrix Market coordinate files and plain edge
//! lists.
//!
//! The paper's test cases (`airfoil`, `fe_4elt2`, `crack`, `G2_circuit`)
//! come from sparse-matrix collections distributed in Matrix Market
//! format; this module lets the real files drop into the pipeline when
//! they are available. Two interpretations are supported:
//!
//! * **adjacency**: entries are edge weights `(u, v, w)`, diagonal ignored;
//! * **laplacian**: entries are Laplacian values, an off-diagonal `-w`
//!   becomes an edge of weight `w`, diagonal ignored.

use crate::Graph;
use std::fmt;
use std::io::{BufRead, Write};

/// How to interpret matrix entries when reading a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixKind {
    /// Off-diagonals are edge weights.
    Adjacency,
    /// Off-diagonals are negated edge weights (graph Laplacian).
    Laplacian,
}

/// Error from graph I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file contents.
    Parse { line: usize, message: String },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Read a graph from a Matrix Market coordinate stream.
///
/// Symmetric storage (lower or upper triangle) and general storage are
/// both accepted; duplicate edges merge by weight summation. Entries with
/// value `0` and diagonal entries are skipped. For
/// [`MatrixKind::Laplacian`] inputs, positive off-diagonals are rejected.
///
/// # Errors
/// Returns [`IoError`] on malformed headers, counts, or entries.
pub fn read_matrix_market<R: BufRead>(reader: R, kind: MatrixKind) -> Result<Graph, IoError> {
    let mut lines = reader.lines().enumerate();
    // Header line.
    let (mut lineno, header) = loop {
        match lines.next() {
            Some((i, l)) => {
                let l = l?;
                if !l.trim().is_empty() {
                    break (i + 1, l);
                }
            }
            None => {
                return Err(IoError::Parse {
                    line: 0,
                    message: "empty file".into(),
                })
            }
        }
    };
    if !header.starts_with("%%MatrixMarket") {
        return Err(IoError::Parse {
            line: lineno,
            message: "missing %%MatrixMarket header".into(),
        });
    }
    let lower = header.to_ascii_lowercase();
    if !lower.contains("matrix") || !lower.contains("coordinate") {
        return Err(IoError::Parse {
            line: lineno,
            message: "only coordinate matrices are supported".into(),
        });
    }
    if lower.contains("complex") {
        return Err(IoError::Parse {
            line: lineno,
            message: "complex matrices are not supported".into(),
        });
    }
    let pattern = lower.contains("pattern");

    // Size line (skipping comments).
    let (n, _m, nnz) = loop {
        let (i, l) = lines.next().ok_or(IoError::Parse {
            line: lineno,
            message: "missing size line".into(),
        })?;
        lineno = i + 1;
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(IoError::Parse {
                line: lineno,
                message: "size line must have three fields".into(),
            });
        }
        let parse = |s: &str| -> Result<usize, IoError> {
            s.parse().map_err(|_| IoError::Parse {
                line: lineno,
                message: format!("bad integer `{s}`"),
            })
        };
        break (parse(parts[0])?, parse(parts[1])?, parse(parts[2])?);
    };

    let mut g = Graph::new(n);
    let mut seen = 0usize;
    for (i, l) in lines {
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let lineno = i + 1;
        let parts: Vec<&str> = t.split_whitespace().collect();
        let expect = if pattern { 2 } else { 3 };
        if parts.len() < expect {
            return Err(IoError::Parse {
                line: lineno,
                message: format!("expected {expect} fields, got {}", parts.len()),
            });
        }
        let r: usize = parts[0].parse().map_err(|_| IoError::Parse {
            line: lineno,
            message: format!("bad row index `{}`", parts[0]),
        })?;
        let c: usize = parts[1].parse().map_err(|_| IoError::Parse {
            line: lineno,
            message: format!("bad column index `{}`", parts[1]),
        })?;
        if r == 0 || c == 0 || r > n || c > n {
            return Err(IoError::Parse {
                line: lineno,
                message: format!("index ({r}, {c}) out of bounds for order {n}"),
            });
        }
        let val: f64 = if pattern {
            1.0
        } else {
            parts[2].parse().map_err(|_| IoError::Parse {
                line: lineno,
                message: format!("bad value `{}`", parts[2]),
            })?
        };
        seen += 1;
        if r == c || val == 0.0 {
            continue;
        }
        let w = match kind {
            MatrixKind::Adjacency => {
                if val < 0.0 {
                    return Err(IoError::Parse {
                        line: lineno,
                        message: "negative weight in adjacency input".into(),
                    });
                }
                val
            }
            MatrixKind::Laplacian => {
                if val > 0.0 {
                    return Err(IoError::Parse {
                        line: lineno,
                        message: "positive off-diagonal in Laplacian input".into(),
                    });
                }
                -val
            }
        };
        g.add_edge(r - 1, c - 1, w);
    }
    if seen != nnz {
        return Err(IoError::Parse {
            line: lineno,
            message: format!("expected {nnz} entries, found {seen}"),
        });
    }
    Ok(g)
}

/// Write a graph as a symmetric Matrix Market adjacency file (lower
/// triangle, 1-based). Shorthand for
/// [`write_matrix_market_kind`] with [`MatrixKind::Adjacency`].
///
/// # Errors
/// Propagates write failures.
pub fn write_matrix_market<W: Write>(w: W, g: &Graph) -> Result<(), IoError> {
    write_matrix_market_kind(w, g, MatrixKind::Adjacency)
}

/// Write a graph as a symmetric Matrix Market coordinate file (lower
/// triangle, 1-based) under either interpretation
/// [`read_matrix_market`] accepts:
///
/// * [`MatrixKind::Adjacency`] — one entry per edge, value = weight;
/// * [`MatrixKind::Laplacian`] — the full lower triangle of `L = D − W`:
///   weighted degrees on the diagonal, `−w` off the diagonal.
///
/// Either output reads back to the same graph through the matching
/// `kind` (weights reproduced exactly — values are written with full
/// `f64` precision).
///
/// # Errors
/// Propagates write failures.
pub fn write_matrix_market_kind<W: Write>(
    mut w: W,
    g: &Graph,
    kind: MatrixKind,
) -> Result<(), IoError> {
    writeln!(w, "%%MatrixMarket matrix coordinate real symmetric")?;
    writeln!(w, "% generated by sgl-graph")?;
    match kind {
        MatrixKind::Adjacency => {
            writeln!(w, "{} {} {}", g.num_nodes(), g.num_nodes(), g.num_edges())?;
            for e in g.edges() {
                // lower triangle: row > column, 1-based
                writeln!(w, "{} {} {:.17e}", e.v + 1, e.u + 1, e.weight)?;
            }
        }
        MatrixKind::Laplacian => {
            writeln!(
                w,
                "{} {} {}",
                g.num_nodes(),
                g.num_nodes(),
                g.num_nodes() + g.num_edges()
            )?;
            for (i, d) in g.weighted_degrees().iter().enumerate() {
                writeln!(w, "{} {} {:.17e}", i + 1, i + 1, d)?;
            }
            for e in g.edges() {
                writeln!(w, "{} {} {:.17e}", e.v + 1, e.u + 1, -e.weight)?;
            }
        }
    }
    Ok(())
}

/// Write a plain `u v w` edge list (0-based), one edge per line.
///
/// # Errors
/// Propagates write failures.
pub fn write_edge_list<W: Write>(mut w: W, g: &Graph) -> Result<(), IoError> {
    writeln!(w, "# nodes {}", g.num_nodes())?;
    for e in g.edges() {
        writeln!(w, "{} {} {:.17e}", e.u, e.v, e.weight)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE_ADJ: &str = "\
%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 3
2 1 1.5
3 2 2.5
1 1 9.0
";

    #[test]
    fn reads_symmetric_adjacency() {
        let g = read_matrix_market(Cursor::new(SAMPLE_ADJ), MatrixKind::Adjacency).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2); // diagonal skipped
        assert_eq!(g.edge(g.find_edge(0, 1).unwrap()).weight, 1.5);
        assert_eq!(g.edge(g.find_edge(1, 2).unwrap()).weight, 2.5);
    }

    #[test]
    fn reads_laplacian_signs() {
        let text = "\
%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 2.0
2 1 -1.5
3 2 -2.5
2 2 4.0
";
        let g = read_matrix_market(Cursor::new(text), MatrixKind::Laplacian).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge(g.find_edge(0, 1).unwrap()).weight, 1.5);
    }

    #[test]
    fn rejects_positive_offdiagonal_laplacian() {
        let text = "\
%%MatrixMarket matrix coordinate real symmetric
2 2 1
2 1 3.0
";
        assert!(read_matrix_market(Cursor::new(text), MatrixKind::Laplacian).is_err());
    }

    #[test]
    fn pattern_matrices_get_unit_weights() {
        let text = "\
%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 1
";
        let g = read_matrix_market(Cursor::new(text), MatrixKind::Adjacency).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge(0).weight, 1.0);
    }

    #[test]
    fn roundtrip_write_read() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)]);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &g).unwrap();
        let g2 = read_matrix_market(Cursor::new(buf), MatrixKind::Adjacency).unwrap();
        assert_eq!(g2.num_nodes(), 4);
        assert_eq!(g2.num_edges(), 3);
        for e in g.edges() {
            let i = g2.find_edge(e.u, e.v).unwrap();
            assert!((g2.edge(i).weight - e.weight).abs() < 1e-15);
        }
    }

    #[test]
    fn bad_header_is_error() {
        let r = read_matrix_market(Cursor::new("1 2 3\n"), MatrixKind::Adjacency);
        assert!(matches!(r, Err(IoError::Parse { .. })));
    }

    #[test]
    fn entry_count_mismatch_is_error() {
        let text = "\
%%MatrixMarket matrix coordinate real symmetric
2 2 2
2 1 1.0
";
        assert!(read_matrix_market(Cursor::new(text), MatrixKind::Adjacency).is_err());
    }

    #[test]
    fn out_of_bounds_index_is_error() {
        let text = "\
%%MatrixMarket matrix coordinate real symmetric
2 2 1
3 1 1.0
";
        assert!(read_matrix_market(Cursor::new(text), MatrixKind::Adjacency).is_err());
    }

    #[test]
    fn edge_list_export_contains_all_edges() {
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &g).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("# nodes 3"));
        assert_eq!(s.lines().count(), 3);
    }
}
