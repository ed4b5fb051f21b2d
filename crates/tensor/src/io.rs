//! FROSTT `.tns` text format I/O.
//!
//! The paper's datasets come from FROSTT (frostt.io). The `.tns` format is one
//! nonzero per line: N whitespace-separated **1-based** indices followed by
//! the value. Comment lines start with `#`.

use crate::{CooTensor, Result, TensorError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parses a tensor from a `.tns` reader. The tensor order is inferred from
/// the first data line and the shape from the maximum index per mode.
pub fn read_tns<R: Read>(reader: R) -> Result<CooTensor> {
    let mut order: Option<usize> = None;
    let mut max_idx: Vec<u32> = Vec::new();
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();

    let mut br = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if br.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut coord: Vec<u32> = Vec::with_capacity(order.unwrap_or(4));
        let all: Vec<&str> = trimmed.split_whitespace().collect();
        if all.len() < 2 {
            return Err(TensorError::Parse(format!(
                "line {lineno}: expected at least one index and a value"
            )));
        }
        for f in &all[..all.len() - 1] {
            let one_based: u64 = f
                .parse()
                .map_err(|_| TensorError::Parse(format!("line {lineno}: bad index {f:?}")))?;
            if one_based == 0 {
                return Err(TensorError::Parse(format!(
                    "line {lineno}: .tns indices are 1-based, got 0"
                )));
            }
            if one_based > u32::MAX as u64 {
                return Err(TensorError::Parse(format!(
                    "line {lineno}: index {one_based} exceeds u32 range"
                )));
            }
            coord.push((one_based - 1) as u32);
        }
        let token = all[all.len() - 1];
        let value: f64 = token
            .parse()
            .map_err(|_| TensorError::Parse(format!("line {lineno}: bad value {token:?}")))?;
        if !value.is_finite() {
            return Err(TensorError::Parse(format!(
                "line {lineno}: non-finite value {token:?}"
            )));
        }

        match order {
            None => {
                order = Some(coord.len());
                max_idx = vec![0; coord.len()];
            }
            Some(n) if n != coord.len() => {
                return Err(TensorError::Parse(format!(
                    "line {lineno}: found {} indices, expected {n}",
                    coord.len()
                )));
            }
            _ => {}
        }
        for (m, &i) in coord.iter().enumerate() {
            max_idx[m] = max_idx[m].max(i);
        }
        indices.extend_from_slice(&coord);
        values.push(value);
    }

    order.ok_or_else(|| TensorError::Parse("no data lines in input".into()))?;
    let shape: Vec<u32> = max_idx.iter().map(|&m| m + 1).collect();
    CooTensor::from_flat(shape, indices, values)
}

/// Reads a `.tns` file from disk.
pub fn read_tns_file<P: AsRef<Path>>(path: P) -> Result<CooTensor> {
    let f = std::fs::File::open(path)?;
    read_tns(f)
}

/// Writes a tensor in `.tns` format (1-based indices).
pub fn write_tns<W: Write>(t: &CooTensor, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    for (coord, v) in t.iter() {
        for &i in coord {
            write!(w, "{} ", i as u64 + 1)?;
        }
        writeln!(w, "{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a tensor to a `.tns` file on disk.
pub fn write_tns_file<P: AsRef<Path>>(t: &CooTensor, path: P) -> Result<()> {
    let f = std::fs::File::create(path)?;
    write_tns(t, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_finite_values() {
        for token in ["nan", "NaN", "inf", "-Infinity", "1e400"] {
            let src = format!("1 1 1 1.5\n2 2 2 {token}\n");
            let err = read_tns(src.as_bytes()).unwrap_err().to_string();
            assert!(err.contains("line 2: non-finite value"), "{token}: {err}");
        }
    }

    #[test]
    fn parse_basic_third_order() {
        let src = "1 1 1 1.5\n2 3 4 -2.0\n";
        let t = read_tns(src.as_bytes()).unwrap();
        assert_eq!(t.order(), 3);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.coord(1), &[1, 2, 3]);
        assert_eq!(t.value(0), 1.5);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let src = "# header\n\n1 1 2.0\n  \n# trailing\n2 2 3.0\n";
        let t = read_tns(src.as_bytes()).unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.order(), 2);
    }

    #[test]
    fn parse_rejects_zero_index() {
        let err = read_tns("0 1 1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TensorError::Parse(m) if m.contains("1-based")));
    }

    #[test]
    fn parse_rejects_mixed_order() {
        assert!(read_tns("1 1 1 1.0\n1 1 2.0\n".as_bytes()).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(read_tns("a b 1.0\n".as_bytes()).is_err());
        assert!(read_tns("1 2 x\n".as_bytes()).is_err());
        assert!(read_tns("1\n".as_bytes()).is_err());
        assert!(read_tns("".as_bytes()).is_err());
    }

    #[test]
    fn roundtrip_preserves_tensor() {
        let t = crate::random::RandomTensor::new(vec![9, 8, 7])
            .nnz(40)
            .seed(5)
            .build();
        let mut buf = Vec::new();
        write_tns(&t, &mut buf).unwrap();
        let back = read_tns(buf.as_slice()).unwrap();
        // Shape may shrink if trailing indices unused; values and coords
        // survive exactly.
        assert_eq!(back.nnz(), t.nnz());
        for (z, (coord, v)) in t.iter().enumerate() {
            assert_eq!(back.coord(z), coord);
            assert_eq!(back.value(z), v);
        }
    }

    #[test]
    fn file_roundtrip() {
        let t = crate::random::RandomTensor::new(vec![5, 5])
            .nnz(10)
            .seed(6)
            .build();
        let dir = std::env::temp_dir().join("cstf_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tns");
        write_tns_file(&t, &path).unwrap();
        let back = read_tns_file(&path).unwrap();
        assert_eq!(back.nnz(), t.nnz());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_tns_file("/nonexistent/definitely/missing.tns"),
            Err(TensorError::Io(_))
        ));
    }
}
