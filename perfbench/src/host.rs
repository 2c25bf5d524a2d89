//! Host and provenance block printed with every result, so each number
//! records the machine, toolchain and source that produced it.

use crate::json_string;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where and from what a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Available parallelism (`nproc`).
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain in the working directory.
    pub rustc: String,
    /// `git rev-parse HEAD`, when the working directory is a git checkout.
    pub git_rev: String,
    /// FNV-1a 64 of the benchmarked sources (present with or without git).
    pub source_fnv64: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Executor workers the run used.
    pub workers: usize,
    /// The workload run.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
}

impl Host {
    /// Probes the host for a run of `workload` at `seed` on `workers`.
    pub fn probe(workload: &str, seed: u64, workers: usize) -> Self {
        Host {
            nproc: crate::workload::nproc(),
            cpu_model: cpu_model().unwrap_or_else(|| "unavailable".to_string()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unavailable".to_string()),
            git_rev: if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                None
            }
            .unwrap_or_else(|| "unavailable".to_string()),
            source_fnv64: format!("{:016x}", source_fingerprint()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            workers,
            workload: workload.to_string(),
            seed,
        }
    }

    /// The block as one JSON line: `{"host": {...}}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}, \
             \"source_fnv64\": {}, \"profile\": {}, \"workers\": {}, \"workload\": {}, \
             \"seed\": {}}}}}",
            self.nproc,
            json_string(&self.cpu_model),
            json_string(&self.rustc),
            json_string(&self.git_rev),
            json_string(&self.source_fnv64),
            json_string(self.profile),
            self.workers,
            json_string(&self.workload),
            self.seed
        )
    }
}

fn cpu_model() -> Option<String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// The first line a command prints, when it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    String::from_utf8(output.stdout)
        .ok()?
        .lines()
        .next()
        .map(|line| line.trim().to_string())
}

/// FNV-1a 64 over the path and bytes of every Rust source and manifest the
/// benchmark builds from — the repository's crates and this package — in
/// sorted path order, so two checkouts of the same source agree.
fn source_fingerprint() -> u64 {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().unwrap_or(manifest);
    let mut files = Vec::new();
    for dir in ["crates", "src", "perfbench"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            let relative = file.strip_prefix(root).unwrap_or(&file);
            fold(relative.to_string_lossy().as_bytes());
            fold(&bytes);
        }
    }
    hash
}

fn collect_sources(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Build output never feeds the fingerprint.
            if name != "target" && !name.starts_with('.') {
                collect_sources(&path, files);
            }
        } else if name.ends_with(".rs") || name.ends_with(".toml") {
            files.push(path);
        }
    }
}
