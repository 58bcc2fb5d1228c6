//! The program under test: finding the released `cgnp` binary beside this
//! executable, training the shared checkpoint with it, and running `cgnp
//! serve` as a child that is always reaped.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

/// Dataset every workload runs on: the Citeseer surrogate at `--scale
/// full` (3 200 nodes, hidden width 64), 5 shots, and the CLI's default
/// seed — which is also what `cgnp serve` assumes when given no `--seed`.
pub const DATASET: &str = "citeseer";
pub const SCALE: &str = "full";
pub const SHOTS: usize = 5;
pub const PROGRAM_SEED: u64 = 42;

/// The directory cargo built this executable into (`…/release`), after
/// checking that it is a release build: `cgnp` is looked for beside it,
/// and the in-process workloads must be compiled the way `cgnp` is.
fn release_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating cgnp-e2e: {e}"))?;
    let dir = exe.parent().unwrap_or(Path::new(".")).to_path_buf();
    if dir.file_name().and_then(|n| n.to_str()) != Some("release") {
        return Err(format!(
            "{} is not a release build: run cgnp-e2e with `cargo run --release`",
            exe.display()
        ));
    }
    Ok(dir)
}

/// `<target>/cgnp-e2e`, created on demand: the shared checkpoint, the
/// traces and the scratch space live beside the build.
pub fn bench_dir() -> Result<PathBuf, String> {
    let release = release_dir()?;
    let dir = release.parent().unwrap_or(&release).join("cgnp-e2e");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A per-process scratch directory under [`bench_dir`], removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Result<Self, String> {
        let parent = bench_dir()?;
        // A run that was killed could not clean up after itself; do it
        // for every `run-<pid>` whose process is gone.
        for entry in std::fs::read_dir(&parent).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let stale = name
                .to_str()
                .and_then(|n| n.strip_prefix("run-"))
                .is_some_and(|pid| !Path::new("/proc").join(pid).exists());
            if stale {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let dir = parent.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// A fresh, not yet existing path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The released `cgnp` binary, beside this executable. Cargo is asked to
/// build it — at most once per process — only when it is missing or older
/// than this executable, which every library crate it shares relinks: the
/// numbers are never those of a binary staler than the benchmark.
pub fn released_binary() -> Result<PathBuf, String> {
    static BINARY: OnceLock<Result<PathBuf, String>> = OnceLock::new();
    BINARY.get_or_init(locate_or_build).clone()
}

fn locate_or_build() -> Result<PathBuf, String> {
    let release = release_dir()?;
    let binary = release.join("cgnp");
    let modified = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let own = std::env::current_exe().ok().and_then(|exe| modified(&exe));
    if modified(&binary).is_some_and(|built| Some(built) >= own) {
        return Ok(binary);
    }
    if !Path::new("src/bin/cgnp.rs").is_file() {
        return Err(format!(
            "{} is missing or stale, and this is not the repository root (no src/bin/cgnp.rs) to build it from",
            binary.display()
        ));
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "cgnp", "--bin", "cgnp", "--target-dir"])
        .arg(release.parent().unwrap_or(&release))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() || !binary.is_file() {
        return Err(format!(
            "cargo build of {} failed ({status})",
            binary.display()
        ));
    }
    Ok(binary)
}

/// The checkpoint every serve workload restores: what `cgnp train` writes
/// for the common inputs. Trained once per target directory (≈ 20 s) and
/// reused; training time is never part of a workload's set-up time.
pub fn ensure_checkpoint(binary: &Path) -> Result<PathBuf, String> {
    let path = bench_dir()?.join(format!("model-{DATASET}-{SCALE}-seed{PROGRAM_SEED}.json"));
    if path.is_file() {
        return Ok(path);
    }
    eprintln!(
        "cgnp-e2e: training the shared checkpoint {}",
        path.display()
    );
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let status = Command::new(binary)
        .args(["train", "--dataset", DATASET, "--scale", SCALE])
        .args(["--shots", &SHOTS.to_string()])
        .args(["--seed", &PROGRAM_SEED.to_string()])
        .arg("--out")
        .arg(&tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running {}: {e}", binary.display()))?;
    if !status.success() {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("cgnp train failed ({status})"));
    }
    std::fs::rename(&tmp, &path).map_err(|e| format!("installing checkpoint: {e}"))?;
    Ok(path)
}

/// A running `cgnp serve --listen 127.0.0.1:0`. Dropping it kills and
/// reaps the child, so a panic or an early return leaves nothing behind.
pub struct ServerChild {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
    /// Spawn → the "gateway listening" line.
    pub listening_after_s: f64,
    /// Lines the child wrote to stderr before it listened (recovery and
    /// sharding banners).
    pub banner: Vec<String>,
}

impl ServerChild {
    /// Spawns the server with default flags plus `extra`, and waits for
    /// the line that carries the ephemeral port.
    pub fn spawn(binary: &Path, checkpoint: &Path, extra: &[String]) -> Result<Self, String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .arg("serve")
            .arg("--checkpoint")
            .arg(checkpoint)
            .args(["--dataset", DATASET, "--scale", SCALE])
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut banner = Vec::new();
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "cgnp serve exited before listening: {}",
                        banner.join(" | ")
                    ));
                }
            }
            if let Some(addr) = line.trim().strip_prefix("gateway listening on ") {
                break addr.parse::<SocketAddr>().map_err(|e| {
                    let _ = child.kill();
                    let _ = child.wait();
                    format!("bad listen address {addr:?}: {e}")
                })?;
            }
            banner.push(line.trim().to_string());
        };
        Ok(Self {
            child,
            stderr,
            addr,
            listening_after_s: started.elapsed().as_secs_f64(),
            banner,
        })
    }

    /// Peak resident set of the child so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb_of(&format!("/proc/{}/status", self.child.id()))
    }

    /// Graceful drain: returns what the child wrote to stderr on the way
    /// out, which ends with its `gateway report: {json}` line.
    pub fn drain(mut self) -> Result<String, String> {
        if let Some(mut stdin) = self.child.stdin.take() {
            let _ = stdin.write_all(b"drain\n");
        }
        let mut rest = String::new();
        self.stderr
            .read_to_string(&mut rest)
            .map_err(|e| format!("reading the server's report: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("cgnp serve exited with {status}: {rest}"));
        }
        Ok(rest)
    }

    /// `SIGKILL`, then reap: the crash the recovery phase recovers from.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // After `drain`/`kill` the child is already reaped and both calls
        // fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn peak_rss_mb_of(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}

/// The number after `"key":` in a flat stretch of JSON text. The child's
/// report is two small flat objects; this is all the parsing it needs.
pub fn report_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The gateway and session halves of a `gateway report:` line.
pub fn split_report(stderr_text: &str) -> Option<(&str, &str)> {
    let report = stderr_text
        .lines()
        .find_map(|l| l.strip_prefix("gateway report: "))?;
    let at = report.find("\"session\":")?;
    Some(report.split_at(at))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_numbers_are_found_in_the_right_half() {
        let text = "draining…\ngateway report: {\"gateway\":{\"accepted\":3,\"requests\":100,\
                    \"peak_buffered_bytes\":4096},\"session\":{\"requests\":98,\"batches\":20,\
                    \"mean_batch_occupancy\":4.9,\"context_builds\":2}}\n";
        let (gateway, session) = split_report(text).unwrap();
        assert_eq!(report_number(gateway, "requests"), Some(100.0));
        assert_eq!(report_number(session, "requests"), Some(98.0));
        assert_eq!(report_number(session, "mean_batch_occupancy"), Some(4.9));
        assert_eq!(report_number(gateway, "batches"), None);
        assert_eq!(split_report("no report here"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb_of("/proc/self/status").unwrap() > 0.0);
    }
}
