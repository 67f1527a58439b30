//! The repository benchmark for the SSMFP cluster.
//!
//! `run(&Opts)` runs one named workload (see [`workloads`]) through
//! `ssmfp_cluster::run_cluster` for a fixed time and returns the metric
//! lines and the one-line JSON result the binary prints. With tracing
//! off it measures the end-to-end metrics ([`cluster`]); with tracing on
//! it measures the per-layer metrics down the layer ladder ([`ladder`]).
//! Every cluster call and every ladder replay passes the correctness
//! gate; an unclean one counts as failed and supplies no timing.
//! `perfbench/README.md` documents the workloads, metrics and the known
//! defects the numbers show.

pub mod cluster;
pub mod ladder;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use cluster::Metric;
use ssmfp_cluster::ClientMutation;

/// What one benchmark invocation runs.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Messages per node or per client in one cluster call; `None` for
    /// the workload's full size.
    pub messages: Option<u64>,
    /// Seeded client-layer bug, to see the gate go red.
    pub mutation: Option<ClientMutation>,
}

/// What one invocation produced.
#[derive(Debug)]
pub struct Output {
    /// Human-readable lines, printed before the result.
    pub lines: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Whether every call and replay was correct.
    pub correct: bool,
    /// SSMFP messages attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
}

impl Output {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric_line(m: &Metric) -> String {
    format!("metric {:<32} {:>16.4} {}", m.name, m.value, m.unit)
}

/// Runs the benchmark. Writes only under `out/` of the working
/// directory: socket directories while a call runs, and the span file of
/// a traced run.
pub fn run(opts: &Opts) -> Result<Output, String> {
    let w = workloads::by_name(&opts.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; known: {}",
            opts.workload,
            workloads::NAMES.join(", ")
        )
    })?;
    if opts.mutation.is_some() && !w.is_clients() {
        return Err("--mutation needs a client workload".into());
    }
    let messages = opts.messages.unwrap_or(w.messages);
    std::fs::create_dir_all("out").map_err(|e| format!("cannot create out/: {e}"))?;
    let mut lines = vec![format!(
        "workload {} topology {} seed {} seconds {} messages {} trace {}",
        w.name, w.topology, opts.seed, opts.seconds, messages, opts.trace as u8
    )];
    let (tally, mut metrics) = if opts.trace {
        let traced = ladder::run_traced(&w, opts.seed, opts.seconds, messages);
        for (name, ns) in traced.tracer.self_ns() {
            lines.push(format!("self_time {name:<24} {:>12.3} ms", ns as f64 / 1e6));
        }
        let path = format!("out/trace-{}-seed{}.jsonl", w.name, opts.seed);
        std::fs::write(&path, traced.tracer.to_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        lines.push(format!(
            "spans {} written to {path}",
            traced.tracer.spans().len()
        ));
        (traced.tally, traced.metrics)
    } else {
        let run = cluster::run(&w, opts.seed, opts.seconds, messages, opts.mutation);
        for m in cluster::reported_only(&w, &run) {
            lines.push(metric_line(&m));
        }
        (run.tally, cluster::end_to_end(&run.samples))
    };
    let mut problems = tally.problems;
    for m in &mut metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    for m in &metrics {
        lines.push(metric_line(m));
    }
    for p in &problems {
        lines.push(format!("FAILED {p}"));
    }
    let failed = if problems.is_empty() {
        tally.failed
    } else {
        tally.failed.max(1)
    };
    Ok(Output {
        lines,
        metrics,
        correct: problems.is_empty() && failed == 0,
        attempted: tally.attempted.max(1),
        failed,
    })
}
