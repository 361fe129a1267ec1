//! What the host is and what the process has used: core count, cache sizes,
//! affinity, resident memory, CPU time, and a canary loop.
//!
//! Everything here reads `/proc` and `/sys` directly. The repository has an
//! RSS shim of its own (`lightrw_bench::rss`), but ROADMAP item 4 moves it,
//! and a change that claims a gain may not edit the benchmark — so the
//! benchmark must not stop compiling when it moves. Off Linux every probe
//! degrades to `None`, and the run reports the fact instead of a number.

use std::time::Instant;

use crate::json::{obj, Value};

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn status_field(field: &str) -> Option<String> {
    read("/proc/self/status")?
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .map(|rest| rest.trim().to_string())
}

fn status_kib(field: &str) -> Option<u64> {
    status_field(field)?.split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MB since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Current resident set (`VmRSS`) in MB.
pub fn current_rss_mb() -> Option<f64> {
    status_kib("VmRSS:").map(|kib| kib as f64 / 1024.0)
}

/// Lower the `VmHWM` water mark to the current RSS. Returns whether the
/// kernel accepted it; when it did not, the peak also covers whatever ran
/// before (which only ever over-reports).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User + system CPU seconds of the whole process, every thread included,
/// dead ones too: `utime + stime` of `/proc/self/stat`, in the kernel's
/// 10 ms ticks (`USER_HZ` is 100 on every Linux ABI), which is fine over a
/// window of seconds and too coarse for anything shorter.
pub fn process_cpu_s() -> Option<f64> {
    let stat = read("/proc/self/stat")?;
    // The command name (field 2) may hold spaces; fields count from its ')'.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// A fixed ALU-only loop (no memory traffic beyond registers). It runs
/// before and after every timed window; a run whose two readings differ,
/// or differ from the host's usual figure, measured a disturbed host. The
/// figure is printed and never used to adjust a metric.
pub fn canary_ns_per_iter() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    let t = Instant::now();
    for i in 0..ITERS {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(x);
    ns / ITERS as f64
}

/// Size in bytes of cpu0's unified cache at `level`, from sysfs.
fn cache_bytes(level: u32) -> Option<u64> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let lvl: u32 = read(&format!("{dir}/level"))?.trim().parse().ok()?;
        let kind = read(&format!("{dir}/type"))?;
        if lvl != level || kind.trim() != "Unified" {
            return None;
        }
        let size = read(&format!("{dir}/size"))?;
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last()? {
            b'K' => (&size[..size.len() - 1], 1u64 << 10),
            b'M' => (&size[..size.len() - 1], 1 << 20),
            b'G' => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        Some(digits.parse::<u64>().ok()? * mult)
    })
}

/// The facts every result records beside its numbers.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub l2_bytes: Option<u64>,
    pub l3_bytes: Option<u64>,
    pub cpus_allowed: Option<String>,
}

impl HostFacts {
    pub fn read() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
            cpus_allowed: status_field("Cpus_allowed_list:"),
        }
    }

    pub fn to_json(&self) -> Value {
        let opt_num = |v: Option<u64>| v.map_or(Value::Null, |b| Value::Num(b as f64));
        obj(vec![
            ("nproc", Value::Num(self.nproc as f64)),
            ("l2_bytes", opt_num(self.l2_bytes)),
            ("l3_bytes", opt_num(self.l3_bytes)),
            (
                "cpus_allowed",
                self.cpus_allowed.clone().map_or(Value::Null, Value::Str),
            ),
        ])
    }

    /// `graph 279.1 MB = 66.5x L2 (4 MiB), 1.0x L3 (260 MiB)`.
    pub fn describe_bytes(&self, what: &str, bytes: u64) -> String {
        let against = |name: &str, cache: Option<u64>| match cache {
            Some(c) => format!(
                "{:.1}x {name} ({} MiB)",
                bytes as f64 / c as f64,
                c as f64 / (1u64 << 20) as f64
            ),
            None => format!("{name} size unknown"),
        };
        format!(
            "{what} {:.1} MB = {}, {}",
            bytes as f64 / 1e6,
            against("L2", self.l2_bytes),
            against("L3", self.l3_bytes)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(not(target_os = "linux"), ignore = "procfs probes are linux-only")]
    fn probes_report_plausible_values() {
        assert!(current_rss_mb().unwrap() > 0.5);
        assert!(peak_rss_mb().unwrap() >= current_rss_mb().unwrap() * 0.5);
        let before = process_cpu_s().unwrap();
        let ns = canary_ns_per_iter();
        assert!(ns > 0.0);
        assert!(process_cpu_s().unwrap() >= before);
    }
}
