//! Declared **concurrency footprints** for the runtime layers, plus the
//! debug-build thread registry that keeps the declarations honest.
//!
//! The protocol rules declare their read/write footprints and
//! `ssmfp-lint` gates them; this module applies the same pattern to
//! runtime concurrency. The one component with real threads
//! (`crates/cluster`) publishes a [`ConcModel`]:
//!
//! * its **thread roles** ([`ThreadDecl`]) — every kind of thread it may
//!   spawn, with multiplicity and spawner;
//! * its **channels** ([`ChannelDecl`]) — each cross-thread queue with its
//!   bound (a full queue blocks the sender);
//! * its **blocking edges** ([`BlockingEdge`]) — every point where a
//!   thread role can block, on what, and whether the wait has a deadline.
//!
//! `ssmfp-lint`'s `conc-*` passes analyze these declarations statically
//! (referential coverage, circular untimed waits) and scan the runtime
//! crates' source for thread/lock/channel primitives outside the declared
//! sites. The runtime side lives here: the thread
//! [`registry`](register_thread) records every role that actually ran so
//! tests can confront observed spawns with the declaration
//! ([`ConcModel::undeclared_observed`]). Recording is
//! `debug_assertions`-gated; release builds record nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Spawner name for threads created by the embedding harness (test
/// runner, `main`), outside any declared role.
pub const EXTERN_ROLE: &str = "extern";

/// How many instances of a thread role can exist at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Multiplicity {
    /// Exactly one per component instance.
    One,
    /// One per node of the topology.
    PerNode,
    /// One per orchestrator shard (a supervised group of nodes).
    PerShard,
}

/// One declared thread role.
#[derive(Debug, Clone)]
pub struct ThreadDecl {
    /// Role name, e.g. `"node.main"`. Unique within a component.
    pub role: &'static str,
    /// Instance count discipline.
    pub multiplicity: Multiplicity,
    /// Role that spawns it ([`EXTERN_ROLE`] for harness-created threads).
    pub spawned_by: &'static str,
    /// One-line description for reports.
    pub doc: &'static str,
}

/// One declared cross-thread channel. Every channel is bounded and a
/// full queue blocks its sender, so a send is a blocking edge.
#[derive(Debug, Clone)]
pub struct ChannelDecl {
    /// Channel name, unique within a component.
    pub name: &'static str,
    /// Roles that may send on it.
    pub senders: Vec<&'static str>,
    /// The single role that receives from it.
    pub receiver: &'static str,
    /// Queue bound: the capacity the runtime builds the channel with.
    pub bound: usize,
    /// One-line description for reports.
    pub doc: &'static str,
}

/// What a blocking edge waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPoint {
    /// Blocked sending on the named full channel.
    ChanSend(&'static str),
    /// Blocked receiving on the named empty channel.
    ChanRecv(&'static str),
    /// Blocked reading a socket; the operand names the *peer* role whose
    /// writes unblock it.
    SockRead(&'static str),
    /// Blocked writing a socket (kernel buffer full); the operand names
    /// the peer role whose reads unblock it.
    SockWrite(&'static str),
    /// Blocked in `accept()`; the operand names the dialing peer role.
    Accept(&'static str),
}

impl WaitPoint {
    /// Short label for findings.
    pub fn describe(&self) -> String {
        match self {
            WaitPoint::ChanSend(c) => format!("send on full channel `{c}`"),
            WaitPoint::ChanRecv(c) => format!("recv on empty channel `{c}`"),
            WaitPoint::SockRead(p) => format!("socket read (fed by `{p}`)"),
            WaitPoint::SockWrite(p) => format!("socket write (drained by `{p}`)"),
            WaitPoint::Accept(p) => format!("accept (dialed by `{p}`)"),
        }
    }
}

/// One declared blocking edge: *thread X can block on Y*.
#[derive(Debug, Clone)]
pub struct BlockingEdge {
    /// The blocking thread role.
    pub thread: &'static str,
    /// What it waits on.
    pub waits: WaitPoint,
    /// Whether the wait has a deadline (`recv_timeout`, polling sleeps).
    /// Timed waits cannot wedge and are excluded from deadlock cycles.
    pub timed: bool,
}

/// The full declared concurrency model of one component.
#[derive(Debug, Clone, Default)]
pub struct ConcModel {
    /// Component name (`"cluster"`).
    pub component: &'static str,
    /// Declared thread roles.
    pub threads: Vec<ThreadDecl>,
    /// Declared channels.
    pub channels: Vec<ChannelDecl>,
    /// Declared blocking edges.
    pub edges: Vec<BlockingEdge>,
}

impl ConcModel {
    /// The declaration of a thread role, if present.
    pub fn thread(&self, role: &str) -> Option<&ThreadDecl> {
        self.threads.iter().find(|t| t.role == role)
    }

    /// The declaration of a channel, if present.
    pub fn channel(&self, name: &str) -> Option<&ChannelDecl> {
        self.channels.iter().find(|c| c.name == name)
    }

    /// The declaration of a channel, or a panic: runtime construction
    /// must go through a declaration, so a missing one is a model bug.
    pub fn channel_decl(&self, name: &str) -> &ChannelDecl {
        self.channel(name)
            .unwrap_or_else(|| panic!("channel `{name}` is not declared in `{}`", self.component))
    }

    /// Confronts the runtime thread registry with the declaration:
    /// returns every observed role of this component that the model does
    /// not declare (empty in a correct build). Debug-build tests call
    /// this after exercising the component.
    pub fn undeclared_observed(&self, observed: &[String]) -> Vec<String> {
        observed
            .iter()
            .filter(|r| self.thread(r).is_none())
            .cloned()
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Runtime thread registry (debug builds).
// ---------------------------------------------------------------------------

fn registry() -> &'static Mutex<BTreeMap<(String, String), u64>> {
    static REG: OnceLock<Mutex<BTreeMap<(String, String), u64>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    /// The declared role of the current thread, so re-registering the
    /// same role is a no-op. `None` for harness threads outside any model.
    static CURRENT_ROLE: RefCell<Option<(String, String)>> = const { RefCell::new(None) };
}

/// Declares the current thread to be an instance of `role` within
/// `component`. Debug builds record it in the global registry (for
/// [`ConcModel::undeclared_observed`]). A release no-op.
///
/// Each registration that actually *changes* the calling thread's role
/// bumps the component's registration counter (see
/// [`registered_thread_count`]); re-registering the same role on the same
/// thread is idempotent, so a long-lived supervisor thread re-entering
/// the same role across runs does not inflate the count.
pub fn register_thread(component: &str, role: &str) {
    if cfg!(debug_assertions) {
        let pair = (component.to_string(), role.to_string());
        let already = CURRENT_ROLE.with(|r| r.borrow().as_ref() == Some(&pair));
        if !already {
            *registry()
                .lock()
                .expect("conc registry")
                .entry(pair.clone())
                .or_insert(0) += 1;
            CURRENT_ROLE.with(|r| *r.borrow_mut() = Some(pair));
        }
    }
}

/// Every role observed so far for `component`, sorted. Empty in release
/// builds (nothing is recorded there).
pub fn observed_threads(component: &str) -> Vec<String> {
    registry()
        .lock()
        .expect("conc registry")
        .keys()
        .filter(|(c, _)| c == component)
        .map(|(_, r)| r.clone())
        .collect()
}

/// Total number of thread-role registrations recorded for `component` so
/// far (cumulative across the process lifetime; zero in release builds).
/// Tests bound a run's thread footprint by measuring the delta across the
/// run: an inproc cluster run must register at most
/// `nodes + shards + O(1)` new roles.
pub fn registered_thread_count(component: &str) -> u64 {
    registry()
        .lock()
        .expect("conc registry")
        .iter()
        .filter(|((c, _), _)| c == component)
        .map(|(_, n)| *n)
        .sum()
}

/// Spawns a thread pre-registered as `role` of `component`. The one
/// way for a modeled component to create a thread: a bare
/// `thread::spawn` in `cluster`/`mp` fails `ssmfp-lint`'s `conc-sites`
/// pass, and a role that drifts from the declaration fails the
/// debug-build coverage check.
pub fn spawn_registered<F, T>(
    component: &'static str,
    role: &'static str,
    f: F,
) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::spawn(move || {
        register_thread(component, role);
        f()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "registry is debug-only")]
    fn registry_records_roles_and_model_confronts_them() {
        spawn_registered("conc-test", "t.writer", || {})
            .join()
            .unwrap();
        spawn_registered("conc-test", "t.rogue", || {})
            .join()
            .unwrap();
        let observed = observed_threads("conc-test");
        assert!(observed.contains(&"t.writer".to_string()));
        let model = ConcModel {
            component: "conc-test",
            threads: vec![ThreadDecl {
                role: "t.writer",
                multiplicity: Multiplicity::One,
                spawned_by: EXTERN_ROLE,
                doc: "",
            }],
            ..Default::default()
        };
        assert_eq!(model.undeclared_observed(&observed), vec!["t.rogue"]);
    }
}
