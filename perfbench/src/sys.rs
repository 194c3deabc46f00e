//! Facts about the host a result depends on, and process memory.

use crate::Args;
use std::path::Path;

/// What every result is stamped with.
#[derive(Debug)]
pub struct Stamp {
    workload: String,
    trace: bool,
    seed: u64,
    seconds: u64,
    nproc: usize,
    git_rev: String,
    spool_fs: String,
}

impl Stamp {
    /// Reads the stamp for a run of `args`, whose work directory exists.
    #[must_use]
    pub fn take(args: &Args) -> Self {
        Self {
            workload: args.workload.clone(),
            trace: args.trace,
            seed: args.seed,
            seconds: args.seconds.as_secs(),
            nproc: nproc(),
            git_rev: git_revision(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
            spool_fs: filesystem_of(&args.work_dir).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One report line.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "perfbench workload={} trace={} seed={} seconds={} nproc={} git_rev={} spool_fs={} \
             profile=release",
            self.workload,
            u8::from(self.trace),
            self.seed,
            self.seconds,
            self.nproc,
            self.git_rev,
            self.spool_fs
        )
    }
}

/// Cores this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `None` outside a git checkout.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|line| line.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

/// The filesystem type `path` lives on, from this process's mount table
/// (the longest mount point that prefixes the canonical path).
fn filesystem_of(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let table = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    table
        .lines()
        .filter_map(|line| {
            // `id parent major:minor root mount-point options... - fstype source opts`
            let mut fields = line.split(' ');
            let mount_point = fields.nth(4)?;
            let fstype = line.split(" - ").nth(1)?.split(' ').next()?;
            Some((mount_point.to_string(), fstype.to_string()))
        })
        .filter(|(mount_point, _)| path.starts_with(mount_point))
        .max_by_key(|(mount_point, _)| mount_point.len())
        .map(|(_, fstype)| fstype)
}

/// CPU time all threads of this process have used so far, exited threads
/// included, in milliseconds (64-bit Linux).
///
/// The kernel accounts time the hypervisor gave to other guests (steal) and
/// time spent waiting for a core apart, so unlike wall time this does not
/// grow when neighbours on a shared host take the CPU away.
///
/// # Panics
/// If the kernel has no process CPU clock.
#[must_use]
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const PROCESS_CPU_CLOCK: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` for the duration
    // of the call; the clock id is a constant the kernel defines.
    let status = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut now) };
    assert_eq!(status, 0, "no process CPU clock");
    now.tv_sec as f64 * 1e3 + now.tv_nsec as f64 / 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
/// When the kernel does not report it.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .ok_or("no VmHWM in process status")?;
    Ok(kib / 1024.0)
}
