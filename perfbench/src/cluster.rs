//! Timed `run_cluster` calls and the end-to-end metrics of a run.

use crate::stats::{interquartile_mean, mean, median, quantile};
use crate::sys::Usage;
use crate::workloads::{audit, call_seed, Audit, Workload};
use ssmfp_cluster::{run_cluster, ClientMutation, LogHistogram, RunReport};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One `run_cluster` call with what was measured around it.
#[derive(Debug)]
pub struct Call {
    /// The report, when the call returned one.
    pub report: Option<RunReport>,
    /// The gate's finding.
    pub audit: Audit,
    /// Wall seconds of the whole `run_cluster` call.
    pub total_s: f64,
    /// Process resource usage accrued during the call.
    pub used: Usage,
    /// Requests the call completed (0 unless clean).
    pub requests: u64,
}

impl Call {
    /// The clean report, if the gate passed.
    pub fn clean_report(&self) -> Option<&RunReport> {
        self.report.as_ref().filter(|_| self.audit.clean())
    }

    /// Completed requests per second of the data-plane window.
    pub fn msgs_per_s(&self, r: &RunReport) -> f64 {
        self.requests as f64 / r.wall_s
    }

    /// Process CPU µs per completed request.
    pub fn cpu_us_per_msg(&self) -> f64 {
        self.used.cpu_s() * 1e6 / self.requests as f64
    }

    /// Wall time of the call outside the data-plane window: bring-up,
    /// stop, report shipping and reconcile.
    pub fn setup_s(&self, r: &RunReport) -> f64 {
        self.total_s - r.wall_s
    }
}

/// A socket directory no other call in this process uses, relative to
/// the working directory so socket paths stay short.
fn socket_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!("out/uds-{}-{k}", std::process::id()))
}

/// Runs call `i` of a run seeded with `seed`, audits it, and measures it.
pub fn call(
    w: &Workload,
    seed: u64,
    i: u64,
    messages: u64,
    mutation: Option<ClientMutation>,
) -> Call {
    let dir = socket_dir();
    let spec = w.spec(call_seed(seed, i), messages, &dir, mutation);
    let attempted = 2 * w.requests(messages);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return Call {
            report: None,
            audit: Audit::errored(attempted, &e),
            total_s: 0.0,
            used: Usage::default(),
            requests: 0,
        };
    }
    let before = Usage::now();
    let t0 = Instant::now();
    let res = run_cluster(&spec);
    let total_s = t0.elapsed().as_secs_f64();
    let used = Usage::now().since(&before);
    let _ = std::fs::remove_dir_all(&dir);
    match res {
        Ok(report) => {
            let audit = audit(w, messages, &report);
            let requests = if audit.clean() {
                w.completed(&report)
            } else {
                0
            };
            Call {
                report: Some(report),
                audit,
                total_s,
                used,
                requests,
            }
        }
        Err(e) => Call {
            report: None,
            audit: Audit::errored(attempted, &e),
            total_s,
            used,
            requests: 0,
        },
    }
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run of repeated calls adds up to.
#[derive(Debug, Default)]
pub struct Tally {
    /// SSMFP messages attempted over all calls.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Problems of unclean calls, one line each.
    pub problems: Vec<String>,
    /// Calls made.
    pub calls: u64,
}

impl Tally {
    /// Adds one call's audit.
    pub fn add(&mut self, c: &Call) {
        self.calls += 1;
        self.attempted += c.audit.attempted;
        self.failed += c.audit.failed;
        for p in &c.audit.problems {
            self.problems.push(format!("call {}: {p}", self.calls));
        }
    }

    /// Adds one ladder replay of `attempted` messages.
    pub fn add_replay(&mut self, rung: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems.push(format!(
                "{rung}: {failed} messages not delivered exactly once"
            ));
        }
    }

    /// `failed / attempted`.
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A latency quantile of a run: the interquartile mean, over the run's
/// calls, of each call's own quantile. One call's tail swings 3x on
/// `clients-grid3x3` with how long its most delayed messages wait, so
/// many calls are averaged; a host stall inflates the calls it hits, so
/// the highest and lowest quarter of calls are dropped first.
pub fn call_quantile(calls: &[LogHistogram], q: f64) -> f64 {
    let per_call: Vec<f64> = calls.iter().map(|h| quantile(h, q)).collect();
    interquartile_mean(&per_call)
}

/// Per-call samples of the clean calls of a run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Completed requests per second of the data-plane window.
    pub msgs_per_s: Vec<f64>,
    /// Process CPU µs per completed request.
    pub cpu_us_per_msg: Vec<f64>,
    /// Call wall time outside the data-plane window.
    pub setup_s: Vec<f64>,
    /// One-way primary latency histogram of each call, µs.
    pub latency: Vec<LogHistogram>,
    /// Client request→ack round-trip histogram of each call, µs.
    pub rtt: Vec<LogHistogram>,
}

impl Samples {
    /// Adds one clean call's samples; unclean calls supply no timing.
    pub fn add(&mut self, c: &Call) {
        let Some(r) = c.clean_report() else { return };
        self.msgs_per_s.push(c.msgs_per_s(r));
        self.cpu_us_per_msg.push(c.cpu_us_per_msg());
        self.setup_s.push(c.setup_s(r));
        self.latency.push(r.latency.clone());
        self.rtt.push(r.client_rtt.clone());
    }
}

/// The untraced run: repeated calls until `seconds` have passed (at
/// least one), every one audited.
pub struct Run {
    /// Failure accounting.
    pub tally: Tally,
    /// Timings of the clean calls.
    pub samples: Samples,
}

/// Calls a workload repeatedly for `seconds`.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    messages: u64,
    mutation: Option<ClientMutation>,
) -> Run {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let c = call(w, seed, i, messages, mutation);
        tally.add(&c);
        samples.add(&c);
        i += 1;
    }
    Run { tally, samples }
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub fn end_to_end(s: &Samples) -> Vec<Metric> {
    vec![
        metric("msgs_per_s", mean(&s.msgs_per_s), "1/s"),
        metric("latency_p50_us", call_quantile(&s.latency, 0.50), "us"),
        metric("latency_p99_us", call_quantile(&s.latency, 0.99), "us"),
        metric("cpu_us_per_msg", median(&s.cpu_us_per_msg), "us"),
        metric("setup_s", median(&s.setup_s), "s"),
        metric(
            "peak_rss_mb",
            crate::sys::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
        ),
    ]
}

/// Samples over all calls' histograms.
fn count(calls: &[LogHistogram]) -> f64 {
    calls.iter().map(LogHistogram::count).sum::<u64>() as f64
}

/// End-to-end figures that do not apply to every workload, so they are
/// printed but not gated: the failure rate (0 on every clean run), the
/// sample counts, client round trips and open-loop lateness.
pub fn reported_only(w: &Workload, run: &Run) -> Vec<Metric> {
    let s = &run.samples;
    let mut out = vec![
        metric("fail_rate", run.tally.fail_rate(), "ratio"),
        metric("calls", run.tally.calls as f64, "count"),
        metric("latency_samples", count(&s.latency), "count"),
    ];
    if w.is_clients() {
        out.push(metric("rtt_p50_us", call_quantile(&s.rtt, 0.50), "us"));
        out.push(metric("rtt_p99_us", call_quantile(&s.rtt, 0.99), "us"));
        out.push(metric("rtt_samples", count(&s.rtt), "count"));
    }
    if let Some(offered) = w.offered_per_s() {
        out.push(metric(
            "offered_frac",
            mean(&s.msgs_per_s) / offered,
            "ratio",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_quantile_ignores_a_quarter_of_stalled_calls() {
        let calls: Vec<LogHistogram> = (0..12u64)
            .map(|i| {
                let mut h = LogHistogram::new();
                // Calls 4..7, a quarter of them, are hit by a 100x stall.
                let scale = if (4..7).contains(&i) { 100 } else { 1 };
                for v in 1..=1_000u64 {
                    h.record(v * scale);
                }
                h
            })
            .collect();
        let p99 = call_quantile(&calls, 0.99);
        assert!((900.0..1_100.0).contains(&p99), "p99 {p99}");
        let p50 = call_quantile(&calls[..1], 0.5);
        assert!((490.0..510.0).contains(&p50), "p50 {p50}");
        assert_eq!(call_quantile(&[], 0.5), 0.0);
    }
}
