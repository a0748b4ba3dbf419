//! Process measurements from `/proc/self`: peak RSS (with a reset, so each
//! timed phase gets its own high-water mark), process CPU time, and
//! per-thread CPU time and context switches.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times (USER_HZ, fixed
/// at 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// A numeric field of a `status` file (`VmHWM:` in kB, context-switch
/// counts as plain numbers).
fn status_value(path: &str, key: &str) -> Option<f64> {
    let status = fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Reset the process's peak-RSS mark to its current RSS, so the next
/// [`peak_rss_mib`] covers only what runs after this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_value("/proc/self/status", "VmHWM:").map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The fields after the parenthesised command name of a `stat` file.
fn stat_fields(stat: &str) -> Option<(String, Vec<&str>)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let comm = stat[open + 1..close].to_string();
    Some((comm, stat[close + 2..].split_whitespace().collect()))
}

/// User + system CPU seconds from a `stat` file (fields 14 and 15).
fn stat_cpu_secs(fields: &[&str]) -> f64 {
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // Field numbering starts at 1 with the pid; `fields` starts at field 3.
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC
}

/// Process CPU seconds (user + system, all threads, live and exited).
pub fn process_cpu_secs() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_fields(&s).map(|(_, f)| stat_cpu_secs(&f)))
        .unwrap_or(f64::NAN)
}

/// One live thread's counters.
#[derive(Debug, Clone)]
pub struct ThreadSample {
    pub tid: u64,
    pub comm: String,
    pub cpu_secs: f64,
    pub ctx_switches: u64,
}

/// Every live thread of this process.
pub fn threads() -> Vec<ThreadSample> {
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else { continue };
        let base = entry.path();
        let Ok(stat) = fs::read_to_string(base.join("stat")) else { continue };
        let Some((comm, fields)) = stat_fields(&stat) else { continue };
        let status = base.join("status");
        let status = status.to_string_lossy();
        let vol = status_value(&status, "voluntary_ctxt_switches:").unwrap_or(0.0);
        let invol = status_value(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0.0);
        out.push(ThreadSample {
            tid,
            comm,
            cpu_secs: stat_cpu_secs(&fields),
            ctx_switches: (vol + invol) as u64,
        });
    }
    out
}

/// Thread group index (master, master_conn, worker_link, worker_slot,
/// bench) by kernel thread name (cut to 15 bytes, so a connection's
/// reader and writer share a group).
fn group_of(comm: &str) -> usize {
    if comm == "dewe-master" {
        0
    } else if comm.starts_with("dewe-master-") {
        1
    } else if comm.starts_with("dewe-worker-lin") {
        2
    } else if comm.starts_with("dewe-worker-") {
        3
    } else {
        4
    }
}

/// CPU seconds and context switches per thread group between two samples.
/// Threads that started after `before` count from zero; threads that
/// ended before `after` are not seen.
pub fn thread_groups(before: &[ThreadSample], after: &[ThreadSample]) -> [(f64, u64); 5] {
    let mut groups = [(0.0, 0u64); 5];
    for t in after {
        let (cpu0, ctx0) = before
            .iter()
            .find(|b| b.tid == t.tid)
            .map_or((0.0, 0), |b| (b.cpu_secs, b.ctx_switches));
        let g = &mut groups[group_of(&t.comm)];
        g.0 += t.cpu_secs - cpu0;
        g.1 += t.ctx_switches.saturating_sub(ctx0);
    }
    groups
}

/// Fold a fresh sample into `seen`, keeping the latest reading per thread
/// (and the last reading of threads that have since exited).
pub fn merge_threads(seen: &mut Vec<ThreadSample>, fresh: Vec<ThreadSample>) {
    for t in fresh {
        match seen.iter_mut().find(|s| s.tid == t.tid) {
            Some(s) => *s = t,
            None => seen.push(t),
        }
    }
}
