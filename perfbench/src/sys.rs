//! Process resource usage: CPU time and context switches from
//! `getrusage(2)`, covering every node thread of an in-process cluster,
//! and peak RSS from `/proc/self/status`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage with the 64-bit Linux struct layout");

mod ffi {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub ru_maxrss: i64,
        pub ru_ixrss: i64,
        pub ru_idrss: i64,
        pub ru_isrss: i64,
        pub ru_minflt: i64,
        pub ru_majflt: i64,
        pub ru_nswap: i64,
        pub ru_inblock: i64,
        pub ru_oublock: i64,
        pub ru_msgsnd: i64,
        pub ru_msgrcv: i64,
        pub ru_nsignals: i64,
        pub ru_nvcsw: i64,
        pub ru_nivcsw: i64,
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// One snapshot of the process's resource usage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// The process's usage so far.
    pub fn now() -> Usage {
        let mut ru = ffi::Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
        // Linux layout (checked by the cfg gate above); getrusage writes
        // exactly one such struct and keeps no pointer to it.
        let rc = unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut ru) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail on a valid pointer"
        );
        let secs = |t: ffi::Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            user_s: secs(ru.ru_utime),
            sys_s: secs(ru.ru_stime),
            ctx_switches: (ru.ru_nvcsw + ru.ru_nivcsw) as u64,
        }
    }

    /// Usage accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Peak resident set size of this process image, MiB (`VmHWM`). Not
/// `ru_maxrss`: that survives `execve`, so under `cargo run` it reports
/// cargo's own peak.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_is_monotone_and_counts_work() {
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let d = Usage::now().since(&a);
        assert!(d.cpu_s() > 0.0, "a busy loop must cost CPU time");
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
