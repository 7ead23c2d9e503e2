//! The machine the benchmark ran on: CPU pinning, the `host` block every
//! report carries, and the `/proc` counters the traced run reads.

use std::fmt::Write as _;
use std::fs;
use std::process::Command;

extern "C" {
    // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// Words of the CPU mask handed to the kernel (1 024 CPUs).
const MASK_WORDS: usize = 16;

type CpuMask = [u64; MASK_WORDS];

fn set_affinity(tid: i32, mask: &CpuMask) -> bool {
    // SAFETY: `mask` points at MASK_WORDS initialised u64s and the size
    // passed is exactly their byte length; the kernel only reads them.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

fn allowed_mask() -> CpuMask {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most `size_of::<CpuMask>()` bytes into
    // `mask`, which is exactly that large.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    assert!(rc >= 0, "sched_getaffinity failed");
    mask
}

fn single(cpu: usize) -> CpuMask {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// How the process is placed: the CPUs it was allowed when it started
/// and the one CPU everything it spawns inherits.
#[derive(Debug, Clone)]
pub struct Placement {
    allowed: CpuMask,
    /// `None` if the kernel refused the pin (the run goes on, unpinned
    /// and noisier, and says so in its `host` block).
    pub pinned_cpu: Option<usize>,
}

impl Placement {
    /// Pin the calling thread — and so every thread spawned after it —
    /// to the highest-numbered allowed CPU (CPU 0 takes most interrupts).
    /// Must run before anything is spawned.
    pub fn pin_process() -> Placement {
        let allowed = allowed_mask();
        let pinned_cpu = (0..MASK_WORDS * 64)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .filter(|&c| set_affinity(0, &single(c)));
        if pinned_cpu.is_none() {
            eprintln!("envy-benchmark: could not pin to one CPU; running unpinned");
        }
        Placement {
            allowed,
            pinned_cpu,
        }
    }

    /// Let every thread of the process run on all allowed CPUs (the
    /// cross-CPU diagnostic round) or put them all back on the pinned one.
    pub fn set_all_threads(&self, pinned: bool) {
        let mask = match self.pinned_cpu {
            Some(cpu) if pinned => single(cpu),
            _ => self.allowed,
        };
        for tid in task_ids() {
            // A thread that exited between listing and here is fine.
            set_affinity(tid, &mask);
        }
    }

    pub fn allowed_cpus(&self) -> usize {
        self.allowed.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn allowed_hex(&self) -> String {
        let top = self.allowed.iter().rposition(|&w| w != 0).unwrap_or(0);
        let mut s = format!("{:x}", self.allowed[top]);
        for w in self.allowed[..top].iter().rev() {
            write!(s, "{w:016x}").expect("write to string");
        }
        s
    }
}

fn task_ids() -> Vec<i32> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// Scheduler accounting of one thread, from
/// `/proc/self/task/<tid>/schedstat` and `status`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadTimes {
    pub cpu_ns: u64,
    pub wait_ns: u64,
    pub slices: u64,
    pub ctx_switches: u64,
}

impl ThreadTimes {
    pub fn since(&self, earlier: &ThreadTimes) -> ThreadTimes {
        ThreadTimes {
            cpu_ns: self.cpu_ns - earlier.cpu_ns,
            wait_ns: self.wait_ns - earlier.wait_ns,
            slices: self.slices - earlier.slices,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    pub fn add(&mut self, other: &ThreadTimes) {
        self.cpu_ns += other.cpu_ns;
        self.wait_ns += other.wait_ns;
        self.slices += other.slices;
        self.ctx_switches += other.ctx_switches;
    }
}

/// Every live thread of the process as `(tid, comm, times)`.
pub fn thread_times() -> Vec<(i32, String, ThreadTimes)> {
    let mut out = Vec::new();
    for tid in task_ids() {
        let base = format!("/proc/self/task/{tid}");
        let (Ok(comm), Ok(sched), Ok(status)) = (
            fs::read_to_string(format!("{base}/comm")),
            fs::read_to_string(format!("{base}/schedstat")),
            fs::read_to_string(format!("{base}/status")),
        ) else {
            continue;
        };
        let mut f = sched
            .split_whitespace()
            .map(|x| x.parse::<u64>().unwrap_or(0));
        let mut t = ThreadTimes {
            cpu_ns: f.next().unwrap_or(0),
            wait_ns: f.next().unwrap_or(0),
            slices: f.next().unwrap_or(0),
            ctx_switches: 0,
        };
        t.ctx_switches = status_field(&status, "voluntary_ctxt_switches:")
            + status_field(&status, "nonvoluntary_ctxt_switches:");
        out.push((tid, comm.trim().to_string(), t));
    }
    out
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Read and write system calls issued by the process so far
/// (`/proc/self/io` `syscr + syscw`).
pub fn rw_syscalls() -> u64 {
    let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
    status_field(&io, "syscr:") + status_field(&io, "syscw:")
}

/// Peak resident set of the process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `host` block: what a reader needs to know before comparing this
/// report with another one.
pub fn host_json(placement: &Placement) -> String {
    // Not `available_parallelism`, which after pinning reports 1.
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "{{\"nproc\":{},\"allowed_cpus\":{},\"allowed_mask\":\"{}\",\"pinned_cpu\":{},\
         \"kernel\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\"probe_ref_ms\":{},\"probe_iters\":{}}}",
        nproc,
        placement.allowed_cpus(),
        placement.allowed_hex(),
        placement.pinned_cpu.map_or(-1, |c| c as i64),
        kernel.trim(),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        crate::probe::REF_MS,
        crate::probe::PROBE_ITERS,
    )
}
