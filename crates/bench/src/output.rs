//! Result output: CSV files plus human-readable summaries under a results
//! directory. Hand-rolled (no serde) to stay within the workspace's allowed
//! dependency set.

use std::fs;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write to stdout has failed; nothing is printed after it.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Prints one line to stdout through its locked handle and never panics.
/// A reader that went away (`BrokenPipe`, as under `repro all | head -1`)
/// wanted no more output, so printing stops and the caller carries on: the
/// files an experiment writes are its result. Any other write error is
/// reported once on stderr and stops printing too. [`say!`](crate::say)
/// is the `println!`-style front end.
pub fn say(line: std::fmt::Arguments<'_>) {
    // The unit tests' harness captures `println!` only.
    if cfg!(test) {
        println!("{line}");
        return;
    }
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(line).and_then(|()| out.write_all(b"\n")) {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("cannot write stdout: {e}");
        }
    }
}

/// `println!` that stops printing, instead of panicking, once stdout's
/// reader has gone; see [`output::say`](crate::output::say).
#[macro_export]
macro_rules! say {
    ($($arg:tt)*) => {
        $crate::output::say(format_args!($($arg)*))
    };
}

/// Where experiment outputs land (override with `MVASD_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("MVASD_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// A simple rectangular CSV table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same arity as `headers`).
    pub rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(row);
    }

    /// Serializes to CSV text.
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV into `dir/name`.
    pub fn write(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(name);
        let mut f = fs::File::create(&path)?;
        f.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }
}

/// Writes a free-form text artifact (summaries, rendered tables).
pub fn write_text(dir: &Path, name: &str, content: &str) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new(vec!["n", "x"]);
        t.push(vec![1.0, 2.5]);
        t.push(vec![2.0, 3.5]);
        let csv = t.to_csv();
        assert!(csv.starts_with("n,x\n"));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("2.500000"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push(vec![1.0]);
    }

    #[test]
    fn write_to_temp_dir() {
        let dir = std::env::temp_dir().join("mvasd_bench_test_out");
        let mut t = Table::new(vec!["a"]);
        t.push(vec![1.0]);
        let p = t.write(&dir, "t.csv").unwrap();
        assert!(p.exists());
        let p2 = write_text(&dir, "s.txt", "hello").unwrap();
        assert_eq!(std::fs::read_to_string(p2).unwrap(), "hello");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
