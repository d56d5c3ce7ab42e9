//! The `repro` binary as a user runs it.

use std::process::{ChildStdin, Command, Stdio};

/// The write end of a pipe whose reader has already exited, so every write
/// fails with `EPIPE`, as when `repro … | head -1` stops reading.
fn pipe_without_reader() -> ChildStdin {
    let mut reader = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .stdin(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("reader process starts");
    let writer = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("reader exits");
    writer
}

#[test]
fn closed_stdout_still_regenerates_the_requested_files() {
    let dir =
        std::env::temp_dir().join(format!("mvasd_repro_closed_stdout_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("results dir is creatable");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig3")
        .env("MVASD_RESULTS_DIR", &dir)
        .stdout(Stdio::from(pipe_without_reader()))
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let csv = std::fs::read_to_string(dir.join("fig3_core_busy_marginals.csv"))
        .expect("fig3 file written");
    assert!(csv.starts_with("n,"), "{csv}");
    let _ = std::fs::remove_dir_all(&dir);
}
