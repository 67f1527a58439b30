//! The named workloads and the correctness gate every cluster call
//! passes through.
//!
//! Each workload is one `ClusterSpec` shape: in-process nodes
//! (`RunMode::Inproc`) over Unix-domain sockets, one orchestrator shard,
//! no chaos. A call's message set is a pure function of the spec's seed,
//! which the benchmark derives from its `--seed` argument.

use ssmfp_cluster::{
    ChaosSpec, ClientMutation, ClientSpec, ClusterSpec, ListenSpec, RunMode, RunReport,
    WorkloadKind, WorkloadSpec,
};
use ssmfp_topology::{gen, Graph};
use std::path::Path;
use std::time::Duration;

/// Names of the workloads, in the order the benchmark documents them.
/// `BENCHMARK.json` gates all but `caterpillar-open`, whose tail latency
/// moves 2-3x with host noise (see `README.md`).
pub const NAMES: [&str; 3] = ["line5-closed", "caterpillar-open", "clients-grid3x3"];

/// Who issues the messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Every node runs the node-level generator.
    Node(WorkloadKind),
    /// `clients` logical clients spread over the nodes' `ClientMux`es.
    Clients {
        /// Logical clients across the cluster.
        clients: u64,
        /// Per-client arrival discipline.
        kind: WorkloadKind,
    },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in later issues.
    pub name: &'static str,
    /// Topology label, in the cluster CLI's syntax.
    pub topology: &'static str,
    graph: fn() -> Graph,
    /// Who issues what.
    pub load: Load,
    /// Messages per node (node load) or per client (client load) in one
    /// full-size cluster call.
    pub messages: u64,
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    let w = match name {
        // The per-message hot path: no mux, small ledgers, syscall-bound.
        "line5-closed" => Workload {
            name: "line5-closed",
            topology: "line:5",
            graph: || gen::line(5),
            load: Load::Node(WorkloadKind::Closed { outstanding: 4 }),
            messages: 2_000,
        },
        // Multi-hop leg-to-leg paths at a fixed rate below closed-loop
        // capacity: the loop mostly waits, so CPU per message and latency
        // are measured apart from throughput.
        "caterpillar-open" => Workload {
            name: "caterpillar-open",
            topology: "caterpillar:3:2",
            graph: || gen::caterpillar(3, 2),
            load: Load::Node(WorkloadKind::Open {
                rate_per_sec: 400.0,
            }),
            messages: 400,
        },
        // The same data plane as many concurrent stop-and-wait flows:
        // stamp codec, per-client reconcile, report shipping, mux. A call
        // ends when its most delayed message lands, and that delay swings
        // 2x from call to call even at a fixed seed, so two requests per
        // session keep calls short and a run holds about 40 of them.
        "clients-grid3x3" => Workload {
            name: "clients-grid3x3",
            topology: "grid:3x3",
            graph: || gen::grid(3, 3),
            load: Load::Clients {
                clients: 1_008,
                kind: WorkloadKind::Closed { outstanding: 1 },
            },
            messages: 2,
        },
        _ => return None,
    };
    Some(w)
}

/// Seed of the `i`-th cluster call of a run started with `seed`.
pub fn call_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

impl Workload {
    /// The topology.
    pub fn graph(&self) -> Graph {
        (self.graph)()
    }

    /// Whether the workload runs the client layer.
    pub fn is_clients(&self) -> bool {
        matches!(self.load, Load::Clients { .. })
    }

    /// The cluster spec of one call.
    pub fn spec(
        &self,
        seed: u64,
        messages: u64,
        dir: &Path,
        mutation: Option<ClientMutation>,
    ) -> ClusterSpec {
        let (workload, clients) = match self.load {
            Load::Node(kind) => (WorkloadSpec { kind, messages }, None),
            Load::Clients { clients, kind } => (
                // Inert in client mode: the mux replaces the node workload.
                WorkloadSpec { kind, messages: 0 },
                Some(ClientSpec {
                    clients,
                    load: WorkloadSpec { kind, messages },
                    mutation,
                }),
            ),
        };
        ClusterSpec {
            topology: self.topology.to_string(),
            graph: self.graph(),
            seed,
            workload,
            chaos: ChaosSpec::none(),
            listen: ListenSpec::Uds {
                dir: dir.to_path_buf(),
            },
            clients,
            shards: 1,
            mode: RunMode::Inproc,
            timeout: Duration::from_secs(60),
        }
    }

    /// Requests (primaries, each answered by an ack) one call issues.
    pub fn requests(&self, messages: u64) -> u64 {
        match self.load {
            Load::Node(_) => self.graph().n() as u64 * messages,
            Load::Clients { clients, .. } => clients * messages,
        }
    }

    /// Offered request rate of the whole cluster, for open-loop loads.
    pub fn offered_per_s(&self) -> Option<f64> {
        match self.load {
            Load::Node(WorkloadKind::Open { rate_per_sec }) => {
                Some(rate_per_sec * self.graph().n() as f64)
            }
            _ => None,
        }
    }

    /// Completed requests a report shows. In client mode this is
    /// `clients_completed`: `primaries_delivered` also counts client acks,
    /// because the orchestrator filters acks with the node workload's ghost
    /// bit, which the client ghost layout does not use.
    pub fn completed(&self, report: &RunReport) -> u64 {
        if self.is_clients() {
            report.clients_completed
        } else {
            report.primaries_delivered
        }
    }
}

/// The gate's finding on one cluster call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Audit {
    /// SSMFP messages the call should deliver: every request and its ack.
    pub attempted: u64,
    /// Messages not delivered exactly once, plus per-client violations, at
    /// most `attempted`.
    pub failed: u64,
    /// What went wrong, empty for a clean call.
    pub problems: Vec<String>,
}

impl Audit {
    /// True when the call may supply timings.
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
    }

    /// The audit of a call that returned no report at all.
    pub fn errored(attempted: u64, err: &std::io::Error) -> Audit {
        Audit {
            attempted,
            failed: attempted,
            problems: vec![format!("run_cluster failed: {err}")],
        }
    }
}

/// Checks one call: `RunReport::clean()` (convergence, SP verdict,
/// client verdict), the message counts, and the completed-request count.
pub fn audit(w: &Workload, messages: u64, report: &RunReport) -> Audit {
    let requests = w.requests(messages);
    let attempted = 2 * requests;
    let v = &report.verdict;
    let client_violations = report
        .client_verdict
        .as_ref()
        .map_or(0, |c| c.violations.len() as u64);
    let mut problems = Vec::new();
    if !report.clean() {
        let cv = report.client_verdict.as_ref();
        problems.push(format!(
            "RunReport::clean() is false: converged {}, {} SP violations (first {:?}), \
             {client_violations} client violations (first {:?})",
            report.converged,
            v.violations.len(),
            v.violations.first(),
            cv.and_then(|c| c.violations.first()),
        ));
    }
    if w.is_clients() && report.client_verdict.is_none() {
        problems.push("client mode returned no client verdict".to_string());
    }
    if v.generated != attempted || v.exactly_once != attempted {
        problems.push(format!(
            "expected {attempted} messages generated and delivered exactly once, got {} and {}",
            v.generated, v.exactly_once
        ));
    }
    let completed = w.completed(report);
    if completed != requests {
        problems.push(format!(
            "expected {requests} completed requests, got {completed}"
        ));
    }
    // A duplicated stamp can break both a message and its client's order,
    // so the sum may exceed the messages attempted; a rate stays <= 1.
    let mut failed = (attempted.saturating_sub(v.exactly_once) + client_violations).min(attempted);
    if !problems.is_empty() {
        failed = failed.max(1);
    }
    Audit {
        attempted,
        failed,
        problems,
    }
}
