//! Which machine and build produced a result, the process's peak memory,
//! and the comparison of two saved results that refuses to compare
//! across machines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::{self, Better};

/// Everything about the host and build that moves host-time metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub logical_cores: usize,
    pub rustc: String,
    pub profile: &'static str,
    pub git_rev: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this process's host and build.
    pub fn current() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        Fingerprint {
            cpu_model,
            logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// `key=value` lines, as stored in a result file.
    pub fn lines(&self) -> String {
        format!(
            "host.cpu_model={}\nhost.logical_cores={}\nhost.rustc={}\nhost.profile={}\n\
             host.git_rev={}\n",
            self.cpu_model, self.logical_cores, self.rustc, self.profile, self.git_rev
        )
    }
}

/// The commit checked out in the repository whose `.git` is `git_dir`,
/// read from its files; `None` outside a git checkout.
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Probe time, in ms, of the host the benchmark was sized on. Host-time
/// end-to-end metrics are reported at this speed.
pub const REFERENCE_PROBE_MS: f64 = 1.3;

static PROBES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Times a fixed, L1-resident compute kernel of the benchmark's own and
/// records the milliseconds. Shared hosts drift in speed by ±10–15 % over
/// tens of seconds; probes taken between cells and set-up steps sample
/// that drift during the run. The kernel calls no repository code, so no
/// change to the repository can move it.
pub fn probe() {
    let start = Instant::now();
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15_u64, 0u64);
    let mut table = [0u64; 4096];
    for i in 0..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x & 4095) as usize;
        table[j] = table[j].wrapping_add(x);
        acc = acc.wrapping_add(table[(acc & 4095) as usize]) ^ i;
    }
    std::hint::black_box(acc);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    PROBES.lock().expect("probe list poisoned").push(ms);
}

/// Removes and returns the probe times recorded so far.
pub fn take_probes() -> Vec<f64> {
    std::mem::take(&mut *PROBES.lock().expect("probe list poisoned"))
}

/// Peak resident set of this process in MB (`VmHWM`), if the OS says.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A saved result: host fingerprint lines plus `metric.<name>=<value>`.
pub fn result_file(host: &Fingerprint, header: &str, metrics: &BTreeMap<&str, f64>) -> String {
    let mut out = host.lines();
    out.push_str(header);
    for (name, value) in metrics {
        let _ = writeln!(out, "metric.{name}={value}");
    }
    out
}

/// Outcome of [`compare`].
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Same host; no metric worsened beyond its bound.
    Clean,
    /// Same host; these metrics worsened beyond their bounds.
    Regressed(Vec<String>),
    /// Different host or build: no verdict is given.
    Incomparable(Vec<String>),
}

fn parse(text: &str) -> BTreeMap<&str, &str> {
    text.lines().filter_map(|l| l.split_once('=')).collect()
}

/// Compares a result against a baseline result. Results from different
/// hosts or builds are refused rather than judged. Returns the report
/// text and the verdict.
pub fn compare(baseline: &str, current: &str) -> (String, Verdict) {
    let (old, new) = (parse(baseline), parse(current));
    let mismatched: Vec<String> = ["workload", "trace"]
        .iter()
        .map(|k| k.to_string())
        .chain(old.keys().filter(|k| k.starts_with("host.")).map(|k| k.to_string()))
        .filter(|k| old.get(k.as_str()) != new.get(k.as_str()))
        .collect();
    if !mismatched.is_empty() {
        let mut text = String::from("incomparable results: fingerprints differ\n");
        for k in &mismatched {
            let _ = writeln!(
                text,
                "  {k}: {} vs {}",
                old.get(k.as_str()).unwrap_or(&"-"),
                new.get(k.as_str()).unwrap_or(&"-")
            );
        }
        return (text, Verdict::Incomparable(mismatched));
    }
    let mut text =
        format!("{:<36} {:>14} {:>14} {:>8}\n", "metric", "baseline", "current", "ratio");
    let mut worse = Vec::new();
    for (key, old_value) in &old {
        let Some(name) = key.strip_prefix("metric.") else { continue };
        let (Ok(a), Some(Ok(b))) =
            (old_value.parse::<f64>(), new.get(key).map(|v| v.parse::<f64>()))
        else {
            continue;
        };
        let ratio = if a == 0.0 { f64::NAN } else { b / a };
        let def = metrics::find(name);
        let flag = match def.and_then(|d| d.bound.map(|bound| (d.better, bound))) {
            Some((Better::Lower, bound)) if b > a * (1.0 + bound) => "WORSE",
            Some((Better::Higher, bound)) if b < a * (1.0 - bound) => "WORSE",
            _ => "",
        };
        if !flag.is_empty() {
            worse.push(name.to_string());
        }
        let _ = writeln!(text, "{name:<36} {a:>14.6} {b:>14.6} {ratio:>8.3} {flag}");
    }
    let verdict = if worse.is_empty() { Verdict::Clean } else { Verdict::Regressed(worse) };
    (text, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saved(cpu: &str, run_s: f64) -> String {
        let host = Fingerprint {
            cpu_model: cpu.to_string(),
            logical_cores: 2,
            rustc: "rustc 1.0".to_string(),
            profile: "release",
            git_rev: "abc".to_string(),
        };
        let mut m = BTreeMap::new();
        m.insert("run_s", run_s);
        result_file(&host, "workload=fig10-full\ntrace=0\n", &m)
    }

    #[test]
    fn refuses_to_compare_across_hosts() {
        let (text, verdict) = compare(&saved("cpu A", 1.0), &saved("cpu B", 1.0));
        assert_eq!(verdict, Verdict::Incomparable(vec!["host.cpu_model".to_string()]));
        assert!(text.contains("incomparable"));
    }

    #[test]
    fn judges_same_host_results_against_bounds() {
        assert_eq!(compare(&saved("cpu", 1.0), &saved("cpu", 1.05)).1, Verdict::Clean);
        assert_eq!(
            compare(&saved("cpu", 1.0), &saved("cpu", 1.5)).1,
            Verdict::Regressed(vec!["run_s".to_string()])
        );
    }

    #[test]
    fn fingerprint_describes_this_host() {
        let fp = Fingerprint::current();
        assert!(fp.logical_cores >= 1);
        assert!(fp.rustc.starts_with("rustc"), "{}", fp.rustc);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
