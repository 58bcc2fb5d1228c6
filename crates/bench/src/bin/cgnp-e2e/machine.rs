//! The machine descriptor carried by every result: numbers from one box
//! are only comparable with numbers from the same kind of box.

use std::process::Command;

use crate::report::{json_object, json_string};

#[derive(Clone, Debug)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub memory_mb: u64,
    pub rustc: String,
    pub fast_math_compiled: bool,
    pub rayon_threads: usize,
    pub git_commit: String,
    pub seed: u64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim_start_matches([':', ' ', '\t']).trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl Machine {
    pub fn describe(seed: u64) -> Self {
        Self {
            nproc: nproc(),
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into()),
            memory_mb: proc_field("/proc/meminfo", "MemTotal")
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
                .map_or(0, |kb| kb / 1024),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            fast_math_compiled: cgnp_tensor::fast_math_compiled(),
            rayon_threads: rayon::current_num_threads(),
            // A source archive has no `.git`; the descriptor says so.
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            seed,
        }
    }

    pub fn to_json(&self) -> String {
        json_object(&[
            ("nproc", self.nproc.to_string()),
            ("cpu_model", json_string(&self.cpu_model)),
            ("memory_mb", self.memory_mb.to_string()),
            ("rustc", json_string(&self.rustc)),
            ("fast_math_compiled", self.fast_math_compiled.to_string()),
            ("rayon_threads", self.rayon_threads.to_string()),
            ("git_commit", json_string(&self.git_commit)),
            ("seed", self.seed.to_string()),
        ])
    }
}
