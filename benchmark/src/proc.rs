//! Processes: peak memory from `/proc`, the shipped binaries next to the
//! harness, and children that are always waited for.

use std::path::{Path, PathBuf};
use std::process::Child;

/// Peak resident set (`VmHWM`) of a process in MiB; `None` once it is gone.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Where the harness and the shipped binaries were built
/// (`<target>/release`), and where results go (`<target>/benchmark`).
#[derive(Debug, Clone)]
pub struct Dirs {
    bin_dir: PathBuf,
}

impl Dirs {
    /// Locates the directories from the running executable.
    ///
    /// # Errors
    ///
    /// The executable's path cannot be read or has no parent.
    pub fn locate() -> Result<Dirs, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin_dir = exe
            .parent()
            .ok_or_else(|| format!("{} has no parent directory", exe.display()))?;
        Ok(Dirs::at(bin_dir))
    }

    /// The directories around a given `<target>/<profile>` directory.
    pub fn at(bin_dir: &Path) -> Dirs {
        Dirs {
            bin_dir: bin_dir.to_path_buf(),
        }
    }

    /// Path of a shipped binary built by the root workspace.
    ///
    /// # Errors
    ///
    /// The binary is not there (run through `benchmark/run.sh`, which builds
    /// it).
    pub fn binary(&self, name: &str) -> Result<PathBuf, String> {
        let path = self.bin_dir.join(name);
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "{} not found: run benchmark/run.sh, which builds the root binaries first",
                path.display()
            ))
        }
    }

    /// The output directory (`<target>/benchmark`), created on demand.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn out_dir(&self) -> Result<PathBuf, String> {
        let dir = self
            .bin_dir
            .parent()
            .unwrap_or(Path::new("."))
            .join("benchmark");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// A child process that is killed (if still running) and waited for when
/// dropped, so no run leaves a process behind — not even on an error path.
#[derive(Debug)]
pub struct Reaped(pub Child);

impl Reaped {
    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.0.id()
    }

    /// Waits for the child to exit by itself.
    ///
    /// # Errors
    ///
    /// The wait failed or the exit status was not success.
    pub fn wait_success(&mut self) -> Result<(), String> {
        let status = self.0.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("child exited with {status}"))
        }
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable_and_positive() {
        let mib = peak_rss_mib(None).unwrap();
        assert!(mib > 0.5 && mib < 1e6, "{mib}");
        assert_eq!(peak_rss_mib(Some(u32::MAX - 7)), None);
    }

    #[test]
    fn a_dropped_child_is_gone() {
        let child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .unwrap();
        let reaped = Reaped(child);
        let pid = reaped.pid();
        drop(reaped);
        assert!(!Path::new(&format!("/proc/{pid}/status")).exists());
    }
}
