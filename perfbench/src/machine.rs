//! Host diagnostics recorded with every run, so a disagreement between
//! two sets of runs can be traced to the host or to the code: a fixed
//! CPU calibration kernel, on-CPU time, core count, and the filesystem
//! the stores live on.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Iterations of the calibration kernel: about 20 ms on a 2020s core.
const CALIB_ITERS: u64 = 1 << 23;

/// Times a fixed, allocation-free integer kernel (xorshift feeding a
/// small table walk) in milliseconds. The work never changes, so a
/// change in this number between runs is the host's speed changing.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut table = [0u64; 256];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..black_box(CALIB_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & 255;
        table[slot] = table[slot].wrapping_add(x ^ i);
    }
    black_box(table);
    start.elapsed().as_secs_f64() * 1e3
}

/// Entries in the memory kernel's pointer-chasing table (16 MiB of
/// `u32`), well past the last-level cache of the reference host.
const CHASE_LEN: usize = 1 << 22;

/// Dependent loads per memory-kernel timing.
const CHASE_STEPS: usize = 500_000;

/// Times a fixed walk of dependent loads through a random cyclic
/// permutation of [`CHASE_LEN`] entries, in milliseconds. Each load
/// misses the caches, so this tracks memory latency — which neighbours
/// on a shared host move far more than they move [`calib_ms`], and which
/// the hash- and bitset-heavy workloads feel.
pub fn calib_mem_ms() -> f64 {
    static TABLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        // Sattolo's shuffle: one cycle through every entry.
        let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for i in (1..CHASE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        next
    });
    let start = Instant::now();
    let mut p = 0usize;
    for _ in 0..black_box(CHASE_STEPS) {
        p = table[p] as usize;
    }
    black_box(p);
    start.elapsed().as_secs_f64() * 1e3
}

/// On-CPU time of every thread of this process so far, in nanoseconds,
/// from `/proc/self/task/*/schedstat` (Linux). `None` where unavailable.
pub fn on_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("schedstat");
        // A thread may exit between listing and reading: skip it.
        if let Ok(text) = std::fs::read_to_string(path) {
            total += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(total)
}

/// On-CPU time of the calling thread so far, in nanoseconds, from
/// `/proc/thread-self/schedstat` (Linux). `None` where unavailable. A
/// thread's time leaves [`on_cpu_ns`] when the thread exits, so a
/// worker reads its own before it ends.
pub fn thread_on_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/mounts`; `"unknown"` where unavailable.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = fields.next()?;
            let fstype = fields.next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// The total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
