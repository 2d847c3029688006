//! What the machine gave the run: cores, host speed, and process CPU time
//! and peak memory read from `/proc`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Normalised times are seconds on a host where one [`calibrate`] round
/// takes this long (about an idle 2-vCPU cloud VM).
pub const CALIBRATION_REF_S: f64 = 0.010;

/// One host-speed calibration round: a fixed mix of hash-map inserts and
/// ordered-map inserts and range lookups over about 2 MiB, cache-bound
/// like the flow's own work, in code the program under test cannot
/// change. Returns its wall time in seconds.
///
/// Other tenants of a shared host slow cache-bound work by up to 1.9x in
/// phases that last seconds; a unit's wall time divided by the rounds
/// measured next to it cancels much of that.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut hashed: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut ordered = BTreeMap::new();
    let mut x = black_box(1u64);
    for i in 0..40_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        hashed.insert(x >> 40, i);
        ordered.insert(x >> 44, i);
        black_box(ordered.range(x >> 45..).next());
    }
    black_box((hashed.len(), ordered.len()));
    t.elapsed().as_secs_f64()
}

/// The environment header printed with every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvHeader {
    /// `std::thread::available_parallelism` (affinity and cgroup quota).
    pub available_parallelism: usize,
    /// What the `nproc` command reports, when it is installed.
    pub nproc: Option<usize>,
    /// Two-thread overlap probe: the time of one spin loop run alone,
    /// times two, over the time of two copies run concurrently. 2.0 means
    /// two cores really ran in parallel; 1.0 means they took turns.
    pub overlap_ratio: f64,
}

impl EnvHeader {
    /// Probes the machine; takes a few tens of milliseconds.
    pub fn probe() -> EnvHeader {
        EnvHeader {
            available_parallelism: thread::available_parallelism().map_or(1, |n| n.get()),
            nproc: nproc(),
            overlap_ratio: overlap_ratio(),
        }
    }

    /// Worker threads for the sweeps: two, unless fewer cores are there.
    pub fn jobs(&self) -> usize {
        2.min(self.available_parallelism)
            .min(self.nproc.unwrap_or(usize::MAX))
            .max(1)
    }

    /// The header as one JSON line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"env\":{{\"available_parallelism\":{},\"nproc\":{},\"overlap_ratio\":{:.3}}}}}",
            self.available_parallelism,
            self.nproc.map_or("null".to_string(), |n| n.to_string()),
            self.overlap_ratio
        )
    }
}

fn nproc() -> Option<usize> {
    let out = std::process::Command::new("nproc")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

/// A fixed amount of integer work that the optimizer cannot remove.
fn spin() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

fn overlap_ratio() -> f64 {
    let t = Instant::now();
    thread::scope(|s| {
        s.spawn(spin);
    });
    let alone = t.elapsed().as_secs_f64();
    let t = Instant::now();
    thread::scope(|s| {
        s.spawn(spin);
        s.spawn(spin);
    });
    2.0 * alone / t.elapsed().as_secs_f64()
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of this process (all threads), in seconds,
/// at the kernel's clock-tick resolution (10 ms at the usual 100 Hz).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, that is 12
    // and 13 after the state field that starts `rest`.
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_report_plausible_values() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        let before = cpu_seconds().expect("linux /proc/self/stat");
        black_box(spin());
        assert!(cpu_seconds().unwrap() >= before);
        assert!(calibrate() > 0.0);
    }
}
