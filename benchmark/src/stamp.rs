//! The machine stamp written into every output file: a number nobody can
//! place on a machine is not a result.

use std::process::Command;

use crate::json::Json;

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and how this run was taken. `run` holds the run's own settings
/// (seed, seconds, workload, passes, ...).
pub fn stamp(run: Vec<(String, Json)>) -> Json {
    let mut members = vec![
        (
            "nproc".to_owned(),
            Json::Int(std::thread::available_parallelism().map_or(1, usize::from) as u64),
        ),
        ("cpu".to_owned(), Json::str(cpu_model())),
        ("rustc".to_owned(), Json::str(first_line("rustc", &["-V"]))),
        // "unknown" in a checkout that is not a git repository.
        ("commit".to_owned(), Json::str(first_line("git", &["rev-parse", "HEAD"]))),
        (
            "profile".to_owned(),
            Json::str(if cfg!(debug_assertions) {
                "debug (NOT a measurement build)"
            } else {
                "release: opt-level=3 lto=thin debug=false"
            }),
        ),
    ];
    members.extend(run);
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_the_machine_and_keeps_the_run_settings() {
        let s = stamp(vec![("seed".to_owned(), Json::Int(7))]);
        assert!(s.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
        for key in ["cpu", "rustc", "commit", "profile"] {
            assert!(!s.get(key).and_then(Json::as_str).unwrap().is_empty(), "{key}");
        }
        assert_eq!(s.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(first_line("definitely-not-a-program", &[]), "unknown");
    }
}
