//! The `vsync` binary as a process: what a reader of its stdout sees.

use std::process::Command;

/// A reader that stops early (`vsync locks | head -1`) ends the output
/// quietly: no panic message and no exit 101, which is outside the
/// documented exit codes. The read end is closed before the binary
/// starts, so its first write already fails.
#[test]
fn closed_stdout_is_a_quiet_exit() {
    for args in [&["locks"][..], &["optimize", "caslock", "--json"]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_vsync"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("vsync runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        // Not 101: the verdict's own code, as with an open stdout.
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
