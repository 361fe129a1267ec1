//! The one module that calls the C library: read-only file mapping, CPU
//! affinity, the per-thread CPU clock and the shutdown signals.
//!
//! The build is offline and vendored-only, so instead of the `libc`,
//! `core_affinity` and `ctrlc` crates this declares the seven libc symbols
//! it needs, which Rust's std already links on Linux.
//!
//! Every call here keeps one contract, **degrade, never fail** (DESIGN.md
//! §9). Each has one Linux body and one stub for every other OS, and each
//! reports failure — an unsupported OS, a cgroup-restricted mask, a raced
//! CPU hotplug, any syscall error — as a plain `None`, `false` or empty
//! vector. Callers treat that as slower or coarser, never as broken: a
//! file that cannot be mapped is read onto the heap, an unpinned worker
//! runs wherever the scheduler puts it, a missing thread clock falls back
//! to wall time, and a handler that cannot be installed leaves the default
//! kill-on-signal disposition.

use std::fs::File;

/// Maximum CPUs representable in an affinity mask (16 × 64 = 1024,
/// glibc's `CPU_SETSIZE`).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod libc {
    /// glibc's `cpu_set_t`: a 1024-bit CPU mask.
    #[repr(C)]
    pub struct CpuSet {
        pub bits: [u64; super::MASK_WORDS],
    }

    /// glibc's `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// glibc's `struct sigaction`: the handler pointer, a 1024-bit signal
    /// mask (`sigset_t`), the flags word and the legacy restorer pointer.
    /// Field order mirrors the glibc definition, not the raw kernel one.
    #[repr(C)]
    pub struct SigAction {
        pub handler: usize,
        pub mask: [u64; 16],
        pub flags: i32,
        pub restorer: usize,
    }

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    /// Linux UAPI value: the CPU-time clock of the calling thread.
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, length: usize) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        pub fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        pub fn sigaction(signum: i32, act: *const SigAction, oldact: *mut SigAction) -> i32;
        #[cfg(test)]
        pub fn raise(signum: i32) -> i32;
    }
}

/// A read-only, private mapping of a file; unmapped on drop.
pub(crate) struct Mapping {
    ptr: *const u8,
    len: usize,
}

impl Mapping {
    /// The first mapped byte.
    pub(crate) fn ptr(&self) -> *const u8 {
        self.ptr
    }
}

/// Map the first `len > 0` bytes of `file` read-only and private, or
/// `None` (the caller reads the file onto the heap instead).
///
/// A mapping is only as stable as its file. If another program truncates
/// a mapped `.lrwpak`, the next touch of a page past the new end raises
/// SIGBUS, which kills the process; nothing here can see it coming. The
/// crate's own writers never do this to a live reader: `graph pack` and
/// every other `.lrwpak` writer write `<out>.partial` and rename it over
/// the target, so a reader keeps the old file's pages. Operators should
/// replace a graph file the same way — by rename, never by rewriting it
/// in place.
#[cfg(target_os = "linux")]
pub(crate) fn map_readonly(file: &File, len: usize) -> Option<Mapping> {
    use std::os::unix::io::AsRawFd;
    // SAFETY: fd is a live open file and the caller checked len > 0; a
    // NULL addr lets the kernel pick the placement.
    let ptr = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            len,
            libc::PROT_READ,
            libc::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    // MAP_FAILED is (void*)-1.
    (!ptr.is_null() && ptr as isize != -1).then_some(Mapping { ptr, len })
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn map_readonly(_file: &File, _len: usize) -> Option<Mapping> {
    None
}

#[cfg(target_os = "linux")]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what `mmap` returned, and the
        // owning `Region` drops its mapping only after the last `Section`
        // borrowing it. A failure leaks the mapping, which is harmless.
        unsafe { libc::munmap(self.ptr as *mut u8, self.len) };
    }
}

/// CPU ids the calling thread may run on, ascending; empty where affinity
/// is unsupported.
#[cfg(target_os = "linux")]
pub fn allowed_cores() -> Vec<usize> {
    let mut set = libc::CpuSet {
        bits: [0; MASK_WORDS],
    };
    // SAFETY: `set` is a properly sized, writable cpu_set_t; pid 0 means
    // the calling thread.
    let rc = unsafe { libc::sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    let mut cpus = Vec::new();
    for (w, &word) in set.bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            cpus.push(w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
    cpus
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cores() -> Vec<usize> {
    Vec::new()
}

/// Pin the calling thread to CPU `cpu` alone; false on failure.
#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut set = libc::CpuSet {
        bits: [0; MASK_WORDS],
    };
    set.bits[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `set` is a properly sized cpu_set_t with one bit set; pid 0
    // means the calling thread.
    unsafe { libc::sched_setaffinity(0, std::mem::size_of_val(&set), &set) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_cpu: usize) -> bool {
    false
}

/// Pin the calling thread to the `index % n`-th of its `n` allowed CPUs,
/// and say whether the pin took effect.
///
/// Pinning is mask-relative, so a container cpuset (a 2-core quota on a
/// 64-core host) spreads lanes over the granted cores instead of asking
/// for forbidden ones. Callers pass a stable lane index so that workers
/// re-spawned every round land on the same core each time.
pub fn pin_current_thread(index: usize) -> bool {
    let allowed = allowed_cores();
    !allowed.is_empty() && pin_to(allowed[index % allowed.len()])
}

/// CPU seconds the calling thread has executed so far
/// (`CLOCK_THREAD_CPUTIME_ID`), or `None` where that clock is missing.
/// Only differences between two calls on the same thread mean anything.
///
/// Unlike a wall clock, it does not run while the thread is descheduled,
/// so on a host with fewer cores than threads each thread still measures
/// its own share of the work.
#[cfg(target_os = "linux")]
pub fn thread_cpu_seconds() -> Option<f64> {
    let mut ts = libc::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a properly sized, writable timespec.
    if unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return None;
    }
    Some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_seconds() -> Option<f64> {
    None
}

/// The graceful-shutdown latch for serving loops.
///
/// The network front door (DESIGN.md §13) and the trace-replay `serve`
/// mode need one bit — *the operator asked us to stop* — delivered by
/// SIGINT (Ctrl-C) or SIGTERM (systemd, `kill`, CI teardown). The handler
/// only stores a relaxed atomic flag, the one async-signal-safe thing
/// worth doing; all draining runs in ordinary threads that poll
/// [`signal::shutdown_requested`]. [`signal::request_shutdown`] sets the
/// same flag from code (tests, drain watchdogs), and
/// [`signal::clear_shutdown`] re-arms it for the next serve loop in one
/// process.
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// The one-way "stop serving" latch. Process-global by design: a
    /// signal names no recipient, so every serve loop in the process
    /// drains together.
    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Install the shutdown handler for SIGINT and SIGTERM, and say
    /// whether *both* took effect; `false` leaves the default
    /// kill-on-signal disposition, so callers serve exactly as before,
    /// without graceful drains.
    ///
    /// Idempotent: re-installing is harmless and keeps the flag's value.
    pub fn install_shutdown_handler() -> bool {
        let int_ok = install(SIGINT);
        let term_ok = install(SIGTERM);
        int_ok && term_ok
    }

    /// True once a shutdown was requested, by signal or by
    /// [`request_shutdown`]. Serve loops poll this between accepts/ticks.
    pub fn shutdown_requested() -> bool {
        SHUTDOWN.load(Ordering::Relaxed)
    }

    /// Request a shutdown from code: the same latch the signal handler
    /// sets, so tests, drain watchdogs and embedding code share the
    /// signal path's drain logic.
    pub fn request_shutdown() {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }

    /// Re-arm the latch for a later serve loop in the same process. Only
    /// meaningful once the previous loop has fully drained; the CLI calls
    /// it before entering a serve loop so that a stale flag from an
    /// earlier in-process run (tests run many) cannot pre-empt a fresh
    /// one.
    pub fn clear_shutdown() {
        SHUTDOWN.store(false, Ordering::Relaxed);
    }

    /// The installed handler: stores the flag and nothing else. No
    /// `SA_RESTART`, so a blocking `accept(2)` on the signalled thread
    /// returns `EINTR` and its loop sees the flag promptly.
    #[cfg(target_os = "linux")]
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }

    /// Install [`on_signal`] for `signum`; false on syscall failure.
    #[cfg(target_os = "linux")]
    fn install(signum: i32) -> bool {
        let act = super::libc::SigAction {
            handler: on_signal as *const () as usize,
            mask: [0; 16],
            flags: 0,
            restorer: 0,
        };
        // SAFETY: `act` is a properly laid out glibc sigaction whose
        // handler only touches an atomic; the old action is discarded.
        unsafe { super::libc::sigaction(signum, &act, std::ptr::null_mut()) == 0 }
    }

    #[cfg(not(target_os = "linux"))]
    fn install(_signum: i32) -> bool {
        false
    }

    /// Deliver `signum` to the calling thread.
    #[cfg(all(test, target_os = "linux"))]
    fn raise(signum: i32) -> bool {
        // SAFETY: plain libc call; the installed handler is
        // async-signal-safe.
        unsafe { super::libc::raise(signum) == 0 }
    }

    #[cfg(all(test, not(target_os = "linux")))]
    fn raise(_signum: i32) -> bool {
        false
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        // One test drives the whole lifecycle: the latch is
        // process-global, so separate #[test]s would race each other
        // under the parallel harness.
        #[test]
        fn signal_lifecycle_sets_and_clears_the_latch() {
            clear_shutdown();
            assert!(!shutdown_requested());

            // The programmatic path works everywhere.
            request_shutdown();
            assert!(shutdown_requested());
            clear_shutdown();
            assert!(!shutdown_requested());

            // The signal path: install, deliver a real SIGTERM, observe
            // the latch. Where installation degrades there is nothing
            // further to assert (the default disposition would kill us,
            // so we must not raise).
            if install_shutdown_handler() {
                assert!(raise(SIGTERM));
                assert!(shutdown_requested(), "SIGTERM must set the latch");
                clear_shutdown();
                assert!(raise(SIGINT));
                assert!(shutdown_requested(), "SIGINT must set the latch");
                clear_shutdown();
            } else if cfg!(target_os = "linux") {
                panic!("linux must install the handler");
            }

            // Idempotent re-install preserves the flag value.
            request_shutdown();
            install_shutdown_handler();
            assert!(shutdown_requested());
            clear_shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_cores_are_sorted_and_bounded() {
        let cores = allowed_cores();
        assert!(cores.windows(2).all(|w| w[0] < w[1]));
        assert!(cores.iter().all(|&c| c < MASK_WORDS * 64));
        if cfg!(target_os = "linux") {
            assert!(!cores.is_empty(), "linux must report at least one cpu");
        }
    }

    #[test]
    fn pinning_restricts_a_spawned_worker_to_one_core() {
        // Pin inside a dedicated thread so the test harness thread keeps
        // its full mask.
        let pinned = std::thread::spawn(|| {
            if !pin_current_thread(0) {
                return None; // degraded environment: nothing to assert
            }
            Some(allowed_cores())
        })
        .join()
        .unwrap();
        if let Some(cores) = pinned {
            assert_eq!(cores.len(), 1, "pinned thread sees one allowed cpu");
        }
    }

    #[test]
    fn lane_indices_wrap_around_the_allowed_mask() {
        // Any huge lane index maps back into the mask instead of failing.
        let outcome = std::thread::spawn(|| pin_current_thread(usize::MAX))
            .join()
            .unwrap();
        if cfg!(target_os = "linux") {
            assert!(outcome, "wrapping pin must succeed on linux");
        } else {
            assert!(!outcome);
        }
    }

    #[test]
    fn out_of_range_cpu_is_rejected_not_panicked() {
        assert!(!pin_to(MASK_WORDS * 64 + 7));
    }

    #[test]
    fn thread_cpu_time_is_monotonic_and_advances_under_load() {
        let Some(t0) = thread_cpu_seconds() else {
            if cfg!(target_os = "linux") {
                panic!("linux must have the per-thread CPU clock");
            }
            return;
        };
        // Burn a little CPU; volatile-ish accumulation defeats const-fold.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        assert!(acc != 1, "keep the loop alive");
        let t1 = thread_cpu_seconds().expect("clock stays available");
        assert!(t1 >= t0, "thread CPU clock went backwards");
        assert!(t1 > t0, "2M multiplies took no measurable CPU time");
    }

    #[test]
    fn sibling_thread_work_does_not_charge_this_thread() {
        let Some(t0) = thread_cpu_seconds() else {
            return;
        };
        std::thread::spawn(|| {
            let mut acc = 1u64;
            for i in 0..2_000_000u64 {
                acc = acc.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i);
            }
            acc
        })
        .join()
        .unwrap();
        let t1 = thread_cpu_seconds().expect("clock stays available");
        // The sibling burned real CPU; almost none of it lands here. The
        // bound is loose (scheduler noise) but far below the sibling's.
        assert!(t1 - t0 < 0.5, "sibling work charged to this thread");
    }
}
