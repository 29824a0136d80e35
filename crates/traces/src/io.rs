//! Trace import/export in a simple CSV format.
//!
//! Format (one request per line, header required):
//!
//! ```csv
//! time_us,obj,size,op
//! 1000,42,4096,r
//! 1250,17,8192,w
//! ```
//!
//! This is the bridge to the *real* CloudPhysics/MSR datasets: users who
//! have them can convert a trace to this CSV, load it with
//! [`read_csv_file`], and hand the [`Trace`] to a study in place of a
//! synthetic one. No experiment binary reads CSV itself.

use crate::model::{OpKind, Request, Trace};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors arising from trace parsing.
#[derive(Debug)]
pub enum TraceIoError {
    Io(std::io::Error),
    /// Malformed line with its 1-based line number.
    Parse {
        line: usize,
        reason: String,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace io error: {e}"),
            TraceIoError::Parse { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Serialize a trace as CSV.
pub fn to_csv(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 24 + 32);
    out.push_str("time_us,obj,size,op\n");
    for r in &trace.requests {
        let op = match r.op {
            OpKind::Read => 'r',
            OpKind::Write => 'w',
        };
        let _ = writeln!(out, "{},{},{},{}", r.time_us, r.obj, r.size, op);
    }
    out
}

/// Write a trace to `path` as CSV.
pub fn write_csv(trace: &Trace, path: &Path) -> Result<(), TraceIoError> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_csv(trace).as_bytes())?;
    Ok(())
}

/// Parse a trace from any reader. `name` becomes the trace name.
pub fn read_csv(name: &str, reader: impl Read) -> Result<Trace, TraceIoError> {
    let reader = BufReader::new(reader);
    let mut requests = Vec::new();
    let mut lines = reader.lines().enumerate();

    // header
    match lines.next() {
        Some((_, Ok(h))) if h.trim() == "time_us,obj,size,op" => {}
        Some((_, Ok(h))) => {
            return Err(TraceIoError::Parse {
                line: 1,
                reason: format!("bad header `{h}`, expected `time_us,obj,size,op`"),
            })
        }
        Some((_, Err(e))) => return Err(e.into()),
        None => return Err(TraceIoError::Parse { line: 1, reason: "empty file".into() }),
    }

    let mut prev_time = 0u64;
    for (i, line) in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let parse = |s: Option<&str>, what: &str| -> Result<String, TraceIoError> {
            s.map(str::to_owned).ok_or_else(|| TraceIoError::Parse {
                line: i + 1,
                reason: format!("missing field `{what}`"),
            })
        };
        let time_us: u64 = parse(parts.next(), "time_us")?
            .parse()
            .map_err(|e| TraceIoError::Parse { line: i + 1, reason: format!("time_us: {e}") })?;
        let obj: u64 = parse(parts.next(), "obj")?
            .parse()
            .map_err(|e| TraceIoError::Parse { line: i + 1, reason: format!("obj: {e}") })?;
        let size: u32 = parse(parts.next(), "size")?
            .parse()
            .map_err(|e| TraceIoError::Parse { line: i + 1, reason: format!("size: {e}") })?;
        let op = match parse(parts.next(), "op")?.as_str() {
            "r" | "R" => OpKind::Read,
            "w" | "W" => OpKind::Write,
            other => {
                return Err(TraceIoError::Parse {
                    line: i + 1,
                    reason: format!("op must be r/w, got `{other}`"),
                })
            }
        };
        if parts.next().is_some() {
            return Err(TraceIoError::Parse {
                line: i + 1,
                reason: "more than four fields".into(),
            });
        }
        if time_us < prev_time {
            return Err(TraceIoError::Parse {
                line: i + 1,
                reason: format!("time goes backwards ({time_us} < {prev_time})"),
            });
        }
        prev_time = time_us;
        requests.push(Request { time_us, obj, size, op });
    }
    Ok(Trace::new(name, requests))
}

/// Read a trace from a CSV file; the file stem becomes the trace name.
pub fn read_csv_file(path: &Path) -> Result<Trace, TraceIoError> {
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace").to_string();
    let f = std::fs::File::open(path)?;
    read_csv(&name, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, WorkloadParams};

    #[test]
    fn roundtrip() {
        let t = generate("rt", &WorkloadParams::default(), 9, 2_000);
        let csv = to_csv(&t);
        let back = read_csv("rt", csv.as_bytes()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_csv("x", "time,obj\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad header"));
    }

    #[test]
    fn rejects_bad_fields() {
        let err = read_csv("x", "time_us,obj,size,op\nabc,1,2,r\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("time_us"));
        let err = read_csv("x", "time_us,obj,size,op\n1,1,2,x\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("op must be r/w"));
        let err = read_csv("x", "time_us,obj,size,op\n1,1,2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing field"));
        let err = read_csv("x", "time_us,obj,size,op\n1,2,3,r,junk\n".as_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "trace parse error at line 2: more than four fields");
    }

    #[test]
    fn rejects_time_regression() {
        let err = read_csv("x", "time_us,obj,size,op\n10,1,2,r\n5,1,2,r\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("backwards"));
    }

    #[test]
    fn skips_blank_lines_and_empty_file_is_error() {
        let t = read_csv("x", "time_us,obj,size,op\n\n1,2,3,r\n\n".as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
        assert!(read_csv("x", "".as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("policysmith_trace_io_test.csv");
        let t = generate("policysmith_trace_io_test", &WorkloadParams::default(), 10, 500);
        write_csv(&t, &path).unwrap();
        let back = read_csv_file(&path).unwrap();
        assert_eq!(t, back);
        let _ = std::fs::remove_file(&path);
    }
}
