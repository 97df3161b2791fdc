//! Per-thread CPU, run-queue and context-switch counters read from
//! `/proc/self/task/*`, keyed by thread name.
//!
//! The system's threads vanish from `/proc/self/task` once `finish()`
//! joins them, so a background thread samples every few milliseconds
//! and keeps the last value seen per tid; callers also sample once
//! more just before each `finish()`. Read-syscall counts are not
//! reported: `/proc/<tid>/io` `syscr` stays 0 for socket `recv`.

use std::collections::BTreeMap;
use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cumulative counters of one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskCounters {
    /// Time on CPU (schedstat field 1).
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU (schedstat field 2).
    pub runq_ns: u64,
    /// Voluntary context switches: each one is a sleep and a wake-up.
    pub wakeups: u64,
}

impl TaskCounters {
    /// Adds another thread's counters to these.
    pub fn add(&mut self, other: &TaskCounters) {
        self.cpu_ns += other.cpu_ns;
        self.runq_ns += other.runq_ns;
        self.wakeups += other.wakeups;
    }
}

/// The thread-name groups the system's own threads fall into.
pub const SYSTEM_GROUPS: [&str; 4] = [
    "edge-reactor",
    "shard-worker",
    "flight-recorder",
    "serve-ops",
];

/// Which system group a thread name belongs to, if any.
pub fn group_of(name: &str) -> Option<&'static str> {
    SYSTEM_GROUPS.iter().copied().find(|g| {
        name == *g
            || name
                .strip_prefix(g)
                .and_then(|rest| rest.strip_prefix('-'))
                .is_some_and(|n| n.chars().all(|c| c.is_ascii_digit()))
    })
}

fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace();
    let cpu = it.next()?.parse().ok()?;
    let runq = it.next()?.parse().ok()?;
    Some((cpu, runq))
}

fn parse_voluntary_switches(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
}

fn read_task(tid: &str) -> Option<TaskCounters> {
    let dir = format!("/proc/self/task/{tid}");
    let (cpu_ns, runq_ns) = parse_schedstat(&fs::read_to_string(format!("{dir}/schedstat")).ok()?)?;
    let wakeups = parse_voluntary_switches(&fs::read_to_string(format!("{dir}/status")).ok()?)?;
    Some(TaskCounters {
        cpu_ns,
        runq_ns,
        wakeups,
    })
}

/// Resident set size of the whole process, bytes.
pub fn rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// The kernel's RSS high-water mark of the process, bytes.
fn hwm_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Cumulative CPU time of the whole process, exited threads included
/// (`/proc/self/stat` utime + stime, clock ticks of 10 ms).
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * 10_000_000
}

/// Host-wide CPU ticks from the first line of `/proc/stat`: (all,
/// steal). Steal is time the hypervisor ran someone else while this
/// machine's CPUs wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

#[derive(Default)]
struct Seen {
    /// tid -> (group, epoch first seen in, last counters)
    tasks: BTreeMap<u64, (&'static str, u64, TaskCounters)>,
    rss_peak: u64,
    /// Whether the last reset also reset the kernel's `VmHWM`.
    hwm_reset: bool,
}

/// Background sampler of the system threads' counters and process RSS.
pub struct Sampler {
    seen: Arc<Mutex<Seen>>,
    epoch: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

fn sample_into(seen: &Mutex<Seen>, epoch: u64) {
    let rss = rss_bytes();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return;
    };
    let mut fresh = Vec::new();
    for entry in dir.flatten() {
        let name = entry.file_name();
        let Some(tid) = name.to_str() else { continue };
        let Ok(tid_n) = tid.parse::<u64>() else {
            continue;
        };
        let known = seen
            .lock()
            .expect("sampler lock")
            .tasks
            .get(&tid_n)
            .map(|(g, e, _)| (*g, *e));
        let (group, first_epoch) = match known {
            Some(k) => k,
            None => {
                let comm =
                    fs::read_to_string(format!("/proc/self/task/{tid}/comm")).unwrap_or_default();
                match group_of(comm.trim()) {
                    Some(g) => (g, epoch),
                    None => continue,
                }
            }
        };
        if let Some(c) = read_task(tid) {
            fresh.push((tid_n, group, first_epoch, c));
        }
    }
    let mut s = seen.lock().expect("sampler lock");
    s.rss_peak = s.rss_peak.max(rss);
    for (tid, group, first_epoch, c) in fresh {
        s.tasks.insert(tid, (group, first_epoch, c));
    }
}

impl Sampler {
    /// Starts sampling every `period`.
    pub fn start(period: Duration) -> Sampler {
        let seen = Arc::new(Mutex::new(Seen::default()));
        let epoch = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (seen, epoch, stop) = (Arc::clone(&seen), Arc::clone(&epoch), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("bench-sampler".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        sample_into(&seen, epoch.load(Ordering::Relaxed));
                        std::thread::sleep(period);
                    }
                })
                .expect("spawn sampler thread")
        };
        Sampler {
            seen,
            epoch,
            stop,
            thread: Some(thread),
        }
    }

    /// Tags threads first seen from now on with `epoch` (0 = ignore).
    /// Set it before spawning a system whose threads should count.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Samples synchronously (call just before `finish()`).
    pub fn sample_now(&self) {
        sample_into(&self.seen, self.epoch.load(Ordering::Relaxed));
    }

    /// Restarts the RSS peak from the current RSS. Also resets the
    /// kernel's exact high-water mark (`VmHWM`) where that is allowed.
    pub fn reset_rss_peak(&self) {
        let hwm_reset = fs::write("/proc/self/clear_refs", "5").is_ok();
        let rss = rss_bytes();
        let mut s = self.seen.lock().expect("sampler lock");
        s.rss_peak = rss;
        s.hwm_reset = hwm_reset;
    }

    /// Peak RSS since the last reset, bytes: the kernel's `VmHWM` when
    /// the reset reached it, else the highest sampled RSS.
    pub fn rss_peak(&self) -> u64 {
        let s = self.seen.lock().expect("sampler lock");
        match hwm_bytes() {
            Some(hwm) if s.hwm_reset => hwm.max(s.rss_peak),
            _ => s.rss_peak,
        }
    }

    /// Counters summed per system group over threads first seen in
    /// `epoch`.
    pub fn groups(&self, epoch: u64) -> BTreeMap<&'static str, TaskCounters> {
        let s = self.seen.lock().expect("sampler lock");
        let mut out: BTreeMap<&'static str, TaskCounters> = BTreeMap::new();
        for (group, e, c) in s.tasks.values() {
            if *e == epoch {
                out.entry(group).or_default().add(c);
            }
        }
        out
    }

    /// Stops and joins the sampler thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("sampler thread panicked");
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            // A panic here would abort during unwinding; the sampler
            // holds no state anyone reads after a drop.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_match_system_thread_names_only() {
        assert_eq!(group_of("edge-reactor"), Some("edge-reactor"));
        assert_eq!(group_of("shard-worker-0"), Some("shard-worker"));
        assert_eq!(group_of("shard-worker-12"), Some("shard-worker"));
        assert_eq!(group_of("shard-worker-x"), None);
        assert_eq!(group_of("flight-recorder"), Some("flight-recorder"));
        assert_eq!(group_of("serve-ops"), Some("serve-ops"));
        assert_eq!(group_of("bench-sampler"), None);
        assert_eq!(group_of("loadgen-0"), None);
    }

    #[test]
    fn parses_proc_formats() {
        assert_eq!(parse_schedstat("123 456 7\n"), Some((123, 456)));
        let status = "Name:\tx\nvoluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_voluntary_switches(status), Some(42));
    }

    #[test]
    fn sampler_sees_a_named_thread_and_keeps_it_after_exit() {
        let sampler = Sampler::start(Duration::from_millis(1));
        sampler.set_epoch(3);
        std::thread::Builder::new()
            .name("serve-ops".into())
            .spawn(|| {
                let t = std::time::Instant::now();
                let mut x = 0u64;
                while t.elapsed() < Duration::from_millis(30) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
            })
            .unwrap()
            .join()
            .unwrap();
        let groups = sampler.groups(3);
        sampler.stop();
        assert!(groups.get("serve-ops").is_some_and(|c| c.cpu_ns > 0));
        assert!(rss_bytes() > 0);
    }
}
