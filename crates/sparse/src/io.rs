//! Reading and writing sparse matrices: Matrix Market coordinate files
//! (the format SuiteSparse and most graph repositories distribute) and
//! whitespace-separated edge lists (the format SNAP-style datasets use).
//!
//! These let a user run the kernels on *real* downloads of the paper's
//! graphs when they have them, instead of the synthetic stand-ins.

use crate::coo::Coo;
use crate::error::FormatError;
use crate::graph::Graph;
use std::io::{BufRead, Write};

/// Errors arising while parsing an external matrix file.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed.
    Parse { line: usize, message: String },
    /// Parsed data failed matrix validation.
    Format(FormatError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
            IoError::Format(e) => write!(f, "format error: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<FormatError> for IoError {
    fn from(e: FormatError) -> Self {
        IoError::Format(e)
    }
}

/// Parses a Matrix Market coordinate file (`%%MatrixMarket matrix
/// coordinate real general`, 1-indexed). Pattern files get weight 1.0;
/// `symmetric` files mirror every off-diagonal entry.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Coo, IoError> {
    let mut lines = reader.lines().enumerate();
    let mut symmetric = false;
    let mut pattern = false;
    // Header.
    let (first_no, first) = loop {
        match lines.next() {
            Some((no, line)) => {
                let line = line?;
                if line.starts_with("%%MatrixMarket") {
                    let lower = line.to_ascii_lowercase();
                    symmetric = lower.contains("symmetric");
                    pattern = lower.contains("pattern");
                } else if !line.starts_with('%') && !line.trim().is_empty() {
                    break (no, line);
                }
            }
            None => {
                return Err(IoError::Parse {
                    line: 0,
                    message: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<usize> = first
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| IoError::Parse {
            line: first_no + 1,
            message: e.to_string(),
        })?;
    if dims.len() != 3 {
        return Err(IoError::Parse {
            line: first_no + 1,
            message: format!("expected 'rows cols nnz', found {} fields", dims.len()),
        });
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
    // `nnz` comes from the file: reserve at most this many entries up
    // front and let the vectors grow past it only as real lines arrive.
    const MAX_RESERVE: usize = 1 << 20;
    let mut ri = Vec::with_capacity(nnz.min(MAX_RESERVE));
    let mut ci = Vec::with_capacity(nnz.min(MAX_RESERVE));
    let mut vals = Vec::with_capacity(nnz.min(MAX_RESERVE));
    for (no, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let err = |message: String| IoError::Parse {
            line: no + 1,
            message,
        };
        let mut next = |what: &str| it.next().ok_or_else(|| err(format!("missing {what}")));
        // Indices are 1-based integers that must fit a `u32` row/column
        // id; fractional, negative and oversized values are rejected, never
        // truncated.
        let mut index = |what: &str| -> Result<u32, IoError> {
            match next(what)?.parse::<u32>() {
                Ok(0) => Err(err("Matrix Market indices are 1-based".into())),
                Ok(i) => Ok(i - 1),
                Err(e) => Err(err(format!("{what}: {e}"))),
            }
        };
        let r = index("row index")?;
        let c = index("column index")?;
        let v = if pattern {
            1.0
        } else {
            next("value")?
                .parse::<f64>()
                .map_err(|e| err(e.to_string()))?
        };
        ri.push(r);
        ci.push(c);
        vals.push(v as f32);
        if symmetric && r != c {
            ri.push(c);
            ci.push(r);
            vals.push(v as f32);
        }
    }
    Ok(Coo::new(rows, cols, ri, ci, vals)?)
}

/// Writes a COO matrix as a Matrix Market coordinate file.
pub fn write_matrix_market<W: Write>(mut w: W, coo: &Coo) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", coo.rows(), coo.cols(), coo.nnz())?;
    for (r, c, v) in coo.iter() {
        writeln!(w, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Parses a whitespace-separated edge list (`src dst` per line, 0-indexed,
/// `#`-comments allowed) into a graph on `max_id + 1` nodes.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, IoError> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id = 0u32;
    for (no, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let mut next_id = |what: &str| -> Result<u32, IoError> {
            it.next()
                .ok_or_else(|| IoError::Parse {
                    line: no + 1,
                    message: format!("missing {what}"),
                })?
                .parse::<u32>()
                .map_err(|e| IoError::Parse {
                    line: no + 1,
                    message: e.to_string(),
                })
        };
        let s = next_id("source")?;
        let d = next_id("destination")?;
        max_id = max_id.max(s).max(d);
        edges.push((d, s)); // (dst, src): row = destination
    }
    Ok(Graph::from_edges(max_id as usize + 1, &edges))
}

/// Writes a graph as an edge list (`src dst` per line).
pub fn write_edge_list<W: Write>(mut w: W, g: &Graph) -> std::io::Result<()> {
    for (dst, src, _) in g.adjacency().iter() {
        writeln!(w, "{src} {dst}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn matrix_market_roundtrip() {
        let coo = Coo::new(3, 4, vec![0, 1, 2], vec![3, 0, 2], vec![1.5, -2.0, 0.25]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &coo).unwrap();
        let parsed = read_matrix_market(Cursor::new(buf)).unwrap();
        assert_eq!(parsed.rows(), 3);
        assert_eq!(parsed.cols(), 4);
        let a: Vec<_> = coo.iter().collect();
        let b: Vec<_> = parsed.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_market_symmetric_mirrors() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % a comment\n\
                    3 3 2\n\
                    2 1 5.0\n\
                    3 3 7.0\n";
        let coo = read_matrix_market(Cursor::new(text)).unwrap();
        // (2,1) mirrored to (1,2); diagonal (3,3) not duplicated.
        assert_eq!(coo.nnz(), 3);
        let triplets: Vec<_> = coo.iter().collect();
        assert!(triplets.contains(&(1, 0, 5.0)));
        assert!(triplets.contains(&(0, 1, 5.0)));
        assert!(triplets.contains(&(2, 2, 7.0)));
    }

    #[test]
    fn matrix_market_pattern_defaults_to_one() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n";
        let coo = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(coo.iter().next().unwrap(), (0, 1, 1.0));
    }

    #[test]
    fn matrix_market_rejects_zero_index_and_garbage() {
        let zero = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 3.0\n";
        assert!(matches!(
            read_matrix_market(Cursor::new(zero)),
            Err(IoError::Parse { .. })
        ));
        let garbage = "%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n";
        assert!(read_matrix_market(Cursor::new(garbage)).is_err());
        let missing = "% no header terminator\n";
        assert!(read_matrix_market(Cursor::new(missing)).is_err());
        // Indices are integers in u32 range: no silent truncation of an
        // oversized, fractional or negative index.
        for entry in ["4294967297 1.5 3.0", "1 1.5 3.0", "-1 1 3.0"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n{entry}\n");
            assert!(
                matches!(
                    read_matrix_market(Cursor::new(text)),
                    Err(IoError::Parse { .. })
                ),
                "{entry}"
            );
        }
        // A corrupt header nnz must not size an allocation.
        let huge =
            "%%MatrixMarket matrix coordinate real general\n2 2 18446744073709551615\n1 1 3.0\n";
        let coo = read_matrix_market(Cursor::new(huge)).unwrap();
        assert_eq!(coo.nnz(), 1);
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3), (4, 0)]);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &g).unwrap();
        let parsed = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(parsed.num_nodes(), 5);
        assert_eq!(parsed.num_edges(), 3);
        assert_eq!(parsed.adjacency(), g.adjacency());
    }

    #[test]
    fn edge_list_skips_comments() {
        let text = "# comment\n0 1\n\n% more\n2 0\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        // dst is the row.
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(0), &[2]);
    }
}
