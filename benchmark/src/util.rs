//! Seeded input generation, checksums, the scratch directory and thread
//! affinity.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

pub fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv(h, &v.to_le_bytes())
}

/// A 64-bit mix of the benchmark seed with up to three coordinates — the
/// value every payload word, stamp and expected result is derived from.
pub fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut r = SplitMix64::new(
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ c.wrapping_mul(0x1656_67B1_9E37_79F9),
    );
    r.next_u64()
}

/// SplitMix64 (Steele, Lea, Flood): the benchmark's only random source. Its
/// own copy rather than `dcuda_des::SplitMix64`, so that a change to the
/// simulator's generator cannot change the benchmark's inputs between the
/// two commits a comparison runs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is irrelevant
    /// for the bounds used here (all far below 2^32).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn fill(&mut self, bytes: &mut [u8]) {
        for chunk in bytes.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The directory of the benchmark executable, i.e. inside the build
/// directory of the checkout the benchmark runs from. Everything the
/// benchmark writes goes here: it must not write outside its checkout, which
/// rules out the system temp dir.
pub fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Per-process scratch tree (shm pair files), removed on every exit path.
pub fn scratch_root() -> PathBuf {
    exe_dir().join(format!("dcuda-benchmark-{}", std::process::id()))
}

/// The scratch directory of one run (a subdirectory of [`scratch_root`],
/// so concurrent runs in one process — the unit tests — stay apart);
/// removed when dropped. `main` and the watchdog call [`remove_scratch`] for
/// the root, since `process::exit` skips destructors.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the counter only hands out distinct numbers.
        let dir = scratch_root().join(format!("run-{}", RUNS.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory sits in the ignored build tree.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Remove the whole per-process scratch tree (best effort, as above).
pub fn remove_scratch() {
    let _ = std::fs::remove_dir_all(scratch_root());
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU affinity of the calling thread: thin wrappers over the two libc calls
/// (std links libc; the benchmark takes no crate for it). Threads inherit the
/// mask of the thread that spawns them. Off Linux there is no affinity to
/// read, and callers run unpinned.
pub mod affinity {
    /// Bit `c` of the mask is CPU `c`; 1024 CPUs, as glibc's `cpu_set_t`.
    pub type Mask = [u64; 16];

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, `None` if unknown.
    #[cfg(target_os = "linux")]
    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is writable for the `size_of::<Mask>()` bytes the
        // call is told it may fill; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Restrict the calling thread to `mask`; false if the kernel refused.
    #[cfg(target_os = "linux")]
    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is readable for the `size_of::<Mask>()` bytes the
        // call is told to read; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn get() -> Option<Mask> {
        None
    }

    #[cfg(not(target_os = "linux"))]
    pub fn set(_mask: &Mask) -> bool {
        false
    }

    /// The CPU numbers in `mask`, ascending.
    pub fn cpus(mask: &Mask) -> Vec<usize> {
        (0..64 * mask.len())
            .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// The mask holding `cpu` alone (`cpu` taken from [`cpus`]).
    pub fn only(cpu: usize) -> Mask {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seed_deterministic() {
        let mut a = [0u8; 37];
        let mut b = [0u8; 37];
        SplitMix64::new(5).fill(&mut a);
        SplitMix64::new(5).fill(&mut b);
        assert_eq!(a, b);
        SplitMix64::new(6).fill(&mut b);
        assert_ne!(a, b);
        assert_eq!(mix(1, 2, 3, 4), mix(1, 2, 3, 4));
        assert_ne!(mix(1, 2, 3, 4), mix(1, 2, 4, 3));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        SplitMix64::new(9).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn affinity_masks_round_trip() {
        assert_eq!(affinity::cpus(&affinity::only(0)), [0]);
        assert_eq!(affinity::cpus(&affinity::only(70)), [70]);
        // Pinning to one allowed CPU and restoring leaves the thread as found.
        if let Some(before) = affinity::get() {
            let first = affinity::cpus(&before)[0];
            assert!(affinity::set(&affinity::only(first)));
            assert_eq!(
                affinity::get().map(|m| affinity::cpus(&m)),
                Some(vec![first])
            );
            assert!(affinity::set(&before));
            assert_eq!(affinity::get(), Some(before));
        }
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(fnv(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
