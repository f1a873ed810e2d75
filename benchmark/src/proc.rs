//! What the kernel says about this process: peak memory and CPU time.

use std::fs;

/// Clock ticks per second of `/proc/self/stat` times. The Linux user-space
/// ABI fixes `USER_HZ` at 100 on every architecture the repo builds for.
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in MB.
///
/// # Errors
///
/// When `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// `(user, system)` CPU seconds of the whole process so far.
///
/// # Errors
///
/// When `/proc/self/stat` cannot be read or parsed.
pub fn cpu_seconds() -> Result<(f64, f64), String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|(u, s)| (u / USER_HZ, s / USER_HZ))
        .ok_or_else(|| "cannot parse /proc/self/stat".to_string())
}

fn parse_cpu_ticks(stat: &str) -> Option<(f64, f64)> {
    // The command name (field 2) is in parentheses and may hold spaces:
    // count fields after the last ')'. utime and stime are fields 14, 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

// ---------------------------------------------------------------------
// Thread placement
// ---------------------------------------------------------------------

/// `cpu_set_t` of glibc: 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

fn set_of(cpus: &[usize]) -> CpuSet {
    let mut set = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    set
}

/// Where the threads of a run live: the driving thread alone on the first
/// CPU this process may use, pool workers on the others.
///
/// Left to the scheduler, a driving thread and a pool worker that hand each
/// other microsecond-sized jobs sometimes share a core (a hand-over is a
/// context switch) and sometimes sit on two (a hand-over wakes a sleeping
/// CPU), and `serve_seq` runs four times faster in the first case than in
/// the second. Which one a run gets would be the largest term in its
/// result. The benchmark fixes the answer to the one a service with a core
/// per thread gets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    driver: Vec<usize>,
    workers: Vec<usize>,
}

impl Placement {
    /// Split the CPUs this process is allowed on. With one CPU, everything
    /// shares it.
    ///
    /// # Errors
    ///
    /// When the kernel refuses to say which CPUs those are.
    pub fn of_this_process() -> Result<Self, String> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable, properly aligned buffer of
        // exactly the `cpusetsize` bytes passed; pid 0 names the calling
        // thread; the call writes nothing else.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let allowed: Vec<usize> = (0..1024)
            .filter(|c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        Ok(Self::split(&allowed))
    }

    fn split(allowed: &[usize]) -> Self {
        let driver: Vec<usize> = allowed.iter().copied().take(1).collect();
        let workers = if allowed.len() > 1 {
            allowed[1..].to_vec()
        } else {
            driver.clone()
        };
        Placement { driver, workers }
    }

    /// CPUs this process may use: what `available_parallelism` said before
    /// any thread was pinned.
    pub fn cpus(&self) -> usize {
        if self.driver == self.workers {
            self.driver.len()
        } else {
            self.driver.len() + self.workers.len()
        }
    }

    /// Pool workers beside the driving thread: `max(1, cpus − 1)`.
    pub fn pool_workers(&self) -> usize {
        self.cpus().saturating_sub(1).max(1)
    }

    fn pin(cpus: &[usize]) -> Result<(), String> {
        let set = set_of(cpus);
        // SAFETY: `set` is a live buffer of exactly the `cpusetsize` bytes
        // passed, only read by the call; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        if rc != 0 {
            return Err(format!(
                "sched_setaffinity{cpus:?}: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }

    /// Put the calling (driving) thread on its CPU.
    ///
    /// # Errors
    ///
    /// When the kernel refuses the mask.
    pub fn pin_driver(&self) -> Result<(), String> {
        Self::pin(&self.driver)
    }

    /// Run `build`, which spawns pool threads, with the calling thread on
    /// the workers' CPUs — new threads inherit the mask of the thread that
    /// spawns them — then put the calling thread back on the driver's CPU.
    ///
    /// # Errors
    ///
    /// When the kernel refuses a mask.
    pub fn spawn_workers<T>(&self, build: impl FnOnce() -> T) -> Result<T, String> {
        Self::pin(&self.workers)?;
        let built = build();
        self.pin_driver()?;
        Ok(built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat_lines() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_cpu_ticks(stat), Some((250.0, 75.0)));
        assert_eq!(parse_cpu_ticks("42 (x) S 1"), None);
    }

    #[test]
    fn placement_keeps_the_driver_alone_when_it_can() {
        let two = Placement::split(&[2, 5, 7]);
        assert_eq!(
            (two.driver.as_slice(), two.workers.as_slice()),
            (&[2][..], &[5, 7][..])
        );
        assert_eq!((two.cpus(), two.pool_workers()), (3, 2));
        let one = Placement::split(&[3]);
        assert_eq!(one.driver, one.workers);
        assert_eq!((one.cpus(), one.pool_workers()), (1, 1));
        assert_eq!(set_of(&[0, 65])[0], 1);
        assert_eq!(set_of(&[0, 65])[1], 2);
    }

    #[test]
    fn workers_inherit_the_mask_and_the_driver_returns_home() {
        // Run on a thread of its own: the mask is per thread, and the test
        // harness's threads must keep theirs.
        std::thread::spawn(|| {
            let placement = Placement::of_this_process().unwrap();
            let seen = placement
                .spawn_workers(|| {
                    std::thread::spawn(|| Placement::of_this_process().unwrap())
                        .join()
                        .unwrap()
                })
                .unwrap();
            // The child saw exactly the workers' CPUs as its whole world.
            assert_eq!(seen, Placement::split(&placement.workers));
            assert_eq!(
                Placement::of_this_process().unwrap(),
                Placement::split(&placement.driver)
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        let (user, system) = cpu_seconds().unwrap();
        assert!(user >= 0.0 && system >= 0.0);
    }
}
