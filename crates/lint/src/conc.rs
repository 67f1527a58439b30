//! The `conc-*` lint family: checks over the cluster's declared
//! concurrency model ([`ssmfp_core::conc::ConcModel`]) and over the
//! runtime crates' source.
//!
//! * **`conc-coverage`** — referential integrity: every name an edge or
//!   channel mentions is declared, no duplicates, every spawner is a
//!   declared role (or `extern`). The *runtime* half — every observed
//!   thread appears in the model — runs in the debug-build test suites
//!   via [`ssmfp_core::conc::ConcModel::undeclared_observed`].
//! * **`conc-deadlock`** — circular waits: a wait-for graph is built from
//!   the *untimed* edges (a timed wait cannot wedge), resolving each wait
//!   to the roles that can unblock it — a full-channel send waits for the
//!   receiver, an empty-channel receive waits for the senders, a socket
//!   operation waits for the peer role. Every elementary cycle is a
//!   violation.
//! * **`conc-sites`** — the model can only vouch for the concurrency the
//!   source actually has. This pass reads every `.rs` under
//!   [`SCANNED_DIRS`] and fails on each thread/lock/channel primitive
//!   ([`SYNC_TOKENS`]) outside the sites the cluster declares
//!   (`ssmfp_cluster::conc::SYNC_SITES`). `//` comments and the contents
//!   of string and char literals are not code and are skipped. A missing
//!   source directory, or a declared site that matches nothing, is a
//!   violation too: the pass never passes by not looking.

use crate::{push, LintReport, Severity};
use ssmfp_core::conc::{ConcModel, WaitPoint, EXTERN_ROLE};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The workspace's `crates/` directory, which [`SCANNED_DIRS`] and the
/// declared sites are relative to.
pub const CRATES_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Source directories `conc-sites` scans, relative to `crates/`.
pub const SCANNED_DIRS: &[&str] = &["cluster/src", "mp/src"];

/// The primitives `conc-sites` looks for (substring match on code).
pub const SYNC_TOKENS: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "mpsc",
    "sync_channel",
    "thread::spawn",
    "thread::Builder",
    "thread::scope",
];

/// Summary of one analyzed component, carried in the JSON report.
#[derive(Debug, Clone)]
pub struct ConcComponentSummary {
    /// Component name.
    pub component: String,
    /// Declared thread roles.
    pub threads: usize,
    /// Declared channels.
    pub channels: usize,
    /// Declared blocking edges.
    pub edges: usize,
    /// Edges without a deadline (the deadlock-relevant ones).
    pub untimed_edges: usize,
}

/// Runs the model passes (`conc-coverage`, `conc-deadlock`) over one model.
pub fn lint_conc_model(model: &ConcModel, report: &mut LintReport) {
    report.conc.push(ConcComponentSummary {
        component: model.component.to_string(),
        threads: model.threads.len(),
        channels: model.channels.len(),
        edges: model.edges.len(),
        untimed_edges: model.edges.iter().filter(|e| !e.timed).count(),
    });
    lint_conc_coverage(model, report);
    lint_conc_deadlock(model, report);
}

fn violation(report: &mut LintReport, code: &'static str, message: String) {
    push(report, Severity::Violation, code, message);
}

/// `conc-coverage`: the declaration is internally closed.
pub fn lint_conc_coverage(model: &ConcModel, report: &mut LintReport) {
    let comp = model.component;
    let mut seen = BTreeSet::new();
    for t in &model.threads {
        if !seen.insert(t.role) {
            violation(
                report,
                "conc-coverage",
                format!("{comp}: thread role `{}` is declared twice", t.role),
            );
        }
        if t.spawned_by != EXTERN_ROLE && model.thread(t.spawned_by).is_none() {
            violation(
                report,
                "conc-coverage",
                format!(
                    "{comp}: thread role `{}` is spawned by `{}`, which is not a declared role \
                     (use `{EXTERN_ROLE}` for harness threads)",
                    t.role, t.spawned_by
                ),
            );
        }
    }
    let mut seen = BTreeSet::new();
    for c in &model.channels {
        if !seen.insert(c.name) {
            violation(
                report,
                "conc-coverage",
                format!("{comp}: channel `{}` is declared twice", c.name),
            );
        }
        for role in c.senders.iter().chain(std::iter::once(&c.receiver)) {
            if model.thread(role).is_none() {
                violation(
                    report,
                    "conc-coverage",
                    format!(
                        "{comp}: channel `{}` names role `{role}`, which is not declared",
                        c.name
                    ),
                );
            }
        }
    }
    for e in &model.edges {
        if model.thread(e.thread).is_none() {
            violation(
                report,
                "conc-coverage",
                format!(
                    "{comp}: a blocking edge belongs to `{}`, which is not a declared role",
                    e.thread
                ),
            );
        }
        match e.waits {
            WaitPoint::ChanSend(c) | WaitPoint::ChanRecv(c) => {
                if model.channel(c).is_none() {
                    violation(
                        report,
                        "conc-coverage",
                        format!("{comp}: `{}` blocks on undeclared channel `{c}`", e.thread),
                    );
                }
            }
            WaitPoint::SockRead(p) | WaitPoint::SockWrite(p) | WaitPoint::Accept(p) => {
                if model.thread(p).is_none() {
                    violation(
                        report,
                        "conc-coverage",
                        format!(
                            "{comp}: `{}` waits on peer role `{p}`, which is not declared",
                            e.thread
                        ),
                    );
                }
            }
        }
    }
}

/// One wait-for arc: role `from` is blocked until role `to` acts.
struct WaitArc {
    from: &'static str,
    to: &'static str,
    label: String,
}

/// `conc-deadlock`: circular waits over the untimed edges.
pub fn lint_conc_deadlock(model: &ConcModel, report: &mut LintReport) {
    let mut arcs: Vec<WaitArc> = Vec::new();
    for e in model.edges.iter().filter(|e| !e.timed) {
        let label = format!("{} {}", e.thread, e.waits.describe());
        let unblockers: Vec<&'static str> = match e.waits {
            WaitPoint::ChanSend(c) => model.channel(c).map(|d| d.receiver).into_iter().collect(),
            WaitPoint::ChanRecv(c) => model
                .channel(c)
                .map(|d| d.senders.clone())
                .unwrap_or_default(),
            WaitPoint::SockRead(p) | WaitPoint::SockWrite(p) | WaitPoint::Accept(p) => vec![p],
        };
        for to in unblockers {
            arcs.push(WaitArc {
                from: e.thread,
                to,
                label: label.clone(),
            });
        }
    }

    // Enumerate elementary cycles (tiny role graphs: DFS with the
    // smallest-role-starts-the-cycle convention to dedupe rotations).
    let mut by_from: BTreeMap<&str, Vec<&WaitArc>> = BTreeMap::new();
    for a in &arcs {
        by_from.entry(a.from).or_default().push(a);
    }
    let roles: Vec<&str> = by_from.keys().copied().collect();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for &start in &roles {
        let mut path: Vec<&WaitArc> = Vec::new();
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        dfs_cycles(
            start,
            start,
            &by_from,
            &mut path,
            &mut on_path,
            &mut |cycle: &[&WaitArc]| {
                let desc = cycle
                    .iter()
                    .map(|a| a.label.as_str())
                    .collect::<Vec<_>>()
                    .join("; ");
                if reported.insert(desc.clone()) {
                    violation(
                        report,
                        "conc-deadlock",
                        format!(
                            "{}: circular wait — {desc} — every thread in the cycle waits on \
                             the next with no deadline; break the cycle with a timeout or a \
                             re-layered resource",
                            model.component
                        ),
                    );
                }
            },
        );
    }
}

fn dfs_cycles<'a>(
    start: &'a str,
    at: &'a str,
    by_from: &BTreeMap<&str, Vec<&'a WaitArc>>,
    path: &mut Vec<&'a WaitArc>,
    on_path: &mut BTreeSet<&'a str>,
    found: &mut impl FnMut(&[&'a WaitArc]),
) {
    on_path.insert(at);
    for &arc in by_from.get(at).into_iter().flatten() {
        if arc.to == start {
            path.push(arc);
            found(path);
            path.pop();
        } else if arc.to > start && !on_path.contains(arc.to) {
            // Only roles lexicographically above the start extend the
            // path: every cycle is found exactly once, rooted at its
            // smallest role.
            path.push(arc);
            dfs_cycles(start, arc.to, by_from, path, on_path, found);
            path.pop();
        }
    }
    on_path.remove(at);
}

/// `conc-sites` over the tree rooted at `crates_dir`: loads every `.rs`
/// under [`SCANNED_DIRS`] and runs [`scan_sync_sites`]. A missing or
/// empty directory is a violation. Returns the number of files scanned.
pub fn lint_conc_sites(
    crates_dir: &Path,
    sites: &[(&str, &str)],
    report: &mut LintReport,
) -> usize {
    let mut files: Vec<(String, String)> = Vec::new();
    for dir in SCANNED_DIRS {
        let before = files.len();
        if let Err(e) = collect_rs(crates_dir, dir, &mut files) {
            violation(
                report,
                "conc-sites",
                format!("cannot read source directory `{dir}`: {e}"),
            );
        } else if files.len() == before {
            violation(
                report,
                "conc-sites",
                format!("source directory `{dir}` holds no `.rs` files"),
            );
        }
    }
    scan_sync_sites(&files, sites, report);
    files.len()
}

/// Appends `(path relative to root, text)` for every `.rs` under
/// `root/rel`, recursively, in sorted order.
fn collect_rs(root: &Path, rel: &str, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(root.join(rel))?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    for name in entries {
        let child = format!("{rel}/{name}");
        let path = root.join(&child);
        if path.is_dir() {
            collect_rs(root, &child, out)?;
        } else if name.ends_with(".rs") {
            out.push((child, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// The scanner behind `conc-sites`, over `(path, text)` pairs: every
/// [`SYNC_TOKENS`] occurrence in code that `sites` does not allow for its
/// file is a violation, and so is every site that matches no line.
pub fn scan_sync_sites(
    files: &[(String, String)],
    sites: &[(&str, &str)],
    report: &mut LintReport,
) {
    let mut used: BTreeSet<(&str, &str)> = BTreeSet::new();
    for (file, text) in files {
        for (n, line) in code_lines(text).iter().enumerate() {
            for &token in SYNC_TOKENS.iter().filter(|t| line.contains(*t)) {
                match sites.iter().find(|&&(f, t)| f == file && t == token) {
                    Some(&site) => {
                        used.insert(site);
                    }
                    None => violation(
                        report,
                        "conc-sites",
                        format!(
                            "{file}:{}: `{token}` outside the declared sync sites — the \
                             runtime crates are lock-free with one declared channel; declare \
                             a new site in `cluster::conc::SYNC_SITES` (and the model) first",
                            n + 1
                        ),
                    ),
                }
            }
        }
    }
    for &(file, token) in sites {
        if !used.contains(&(file, token)) {
            violation(
                report,
                "conc-sites",
                format!("declared sync site `{token}` in {file} matches no line — stale entry"),
            );
        }
    }
}

/// Where the scanner is inside a literal that spans lines.
#[derive(Clone, Copy)]
enum Lit {
    Code,
    Str,
    /// A raw string closed by `"` plus this many `#`.
    Raw(usize),
}

/// The code of each line of `text`: `//` comments dropped and the
/// contents of string and char literals removed, so a primitive named in
/// prose or in a message does not count as a use. Block comments are not
/// special-cased (a token in one fails loudly rather than hiding).
fn code_lines(text: &str) -> Vec<String> {
    let mut state = Lit::Code;
    let mut out = Vec::new();
    for line in text.lines() {
        let c: Vec<char> = line.chars().collect();
        let at = |i: usize| c.get(i).copied().unwrap_or('\0');
        let mut code = String::new();
        let mut i = 0;
        while i < c.len() {
            match state {
                Lit::Str => {
                    match c[i] {
                        '\\' => i += 1,
                        '"' => state = Lit::Code,
                        _ => {}
                    }
                    i += 1;
                }
                Lit::Raw(hashes) => {
                    if c[i] == '"' && (1..=hashes).all(|k| at(i + k) == '#') {
                        state = Lit::Code;
                        i += hashes;
                    }
                    i += 1;
                }
                Lit::Code => {
                    let ident_before = i > 0 && (c[i - 1].is_alphanumeric() || c[i - 1] == '_');
                    match c[i] {
                        '/' if at(i + 1) == '/' => break,
                        '"' => state = Lit::Str,
                        'r' if !ident_before || c[i - 1] == 'b' => {
                            let hashes = c[i + 1..].iter().take_while(|&&h| h == '#').count();
                            if at(i + 1 + hashes) == '"' {
                                state = Lit::Raw(hashes);
                                i += 1 + hashes;
                            } else {
                                code.push('r');
                            }
                        }
                        // A char literal (`'x'`, `'\n'`, `'"'`); any other
                        // quote is a lifetime and stays code.
                        '\'' if at(i + 1) == '\\' => {
                            i += 3;
                            while i < c.len() && c[i] != '\'' {
                                i += 1;
                            }
                        }
                        '\'' if at(i + 2) == '\'' => i += 2,
                        ch => code.push(ch),
                    }
                    i += 1;
                }
            }
        }
        out.push(code);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_core::conc::{BlockingEdge, ChannelDecl, ConcModel, Multiplicity, ThreadDecl};

    fn thread(role: &'static str) -> ThreadDecl {
        ThreadDecl {
            role,
            multiplicity: Multiplicity::One,
            spawned_by: EXTERN_ROLE,
            doc: "test",
        }
    }

    fn scan(files: &[(&str, &str)], sites: &[(&str, &str)]) -> LintReport {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|&(f, t)| (f.to_string(), t.to_string()))
            .collect();
        let mut report = LintReport::default();
        scan_sync_sites(&files, sites, &mut report);
        report
    }

    #[test]
    fn shipped_conc_models_are_clean() {
        let model = ssmfp_cluster::conc::default_model();
        let mut report = LintReport::default();
        lint_conc_model(&model, &mut report);
        let scanned = lint_conc_sites(
            Path::new(CRATES_DIR),
            ssmfp_cluster::conc::SYNC_SITES,
            &mut report,
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(scanned >= 10, "only {scanned} source files scanned");
        let summary = &report.conc[0];
        assert_eq!(
            (summary.threads, summary.channels, summary.untimed_edges),
            (3, 1, 2)
        );
    }

    #[test]
    fn planted_mutex_in_a_cluster_file_fails_conc_sites() {
        let report = scan(
            &[(
                "cluster/src/node.rs",
                "use std::io;\nstatic STATS: std::sync::Mutex<u64> = std::sync::Mutex::new(0);\n",
            )],
            &[],
        );
        assert!(
            report.violations().any(|f| f.code == "conc-sites"
                && f.message.contains("cluster/src/node.rs:2")
                && f.message.contains("`Mutex`")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn undeclared_mpsc_in_an_mp_file_fails_conc_sites() {
        // The orchestrator's declared channel does not license one in mp.
        let report = scan(
            &[
                (
                    "cluster/src/orchestrator.rs",
                    "use std::sync::mpsc::Receiver;\n",
                ),
                (
                    "mp/src/net.rs",
                    "let (tx, rx) = std::sync::mpsc::channel();\n",
                ),
            ],
            &[("cluster/src/orchestrator.rs", "mpsc")],
        );
        let msgs: Vec<&str> = report.violations().map(|f| f.message.as_str()).collect();
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].starts_with("mp/src/net.rs:1: `mpsc`"), "{msgs:?}");
    }

    #[test]
    fn tokens_in_comments_and_literals_do_not_fail_conc_sites() {
        let report = scan(
            &[(
                "cluster/src/node.rs",
                "// a Mutex here would be wrong\n\
                 //! thread::spawn, mpsc, RwLock, Condvar\n\
                 let x = 1; // sync_channel\n\
                 let s = \"no Mutex, \\\" no mpsc\";\n\
                 let q = '\"'; let r = r#\"sync_channel \"# ;\n\
                 fn f<'a>(x: &'a str) {}\n",
            )],
            &[],
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        // …while code right after a char literal is still code.
        let report = scan(
            &[(
                "cluster/src/node.rs",
                "let q = s.replace('\"', \"'\"); let m = Mutex::new(q);\n",
            )],
            &[],
        );
        assert_eq!(report.violations().count(), 1, "{:?}", report.findings);
    }

    #[test]
    fn missing_source_directory_fails_conc_sites() {
        let mut report = LintReport::default();
        let scanned = lint_conc_sites(&Path::new(CRATES_DIR).join("no-such-dir"), &[], &mut report);
        assert_eq!(scanned, 0);
        for dir in SCANNED_DIRS {
            assert!(
                report
                    .violations()
                    .any(|f| f.code == "conc-sites" && f.message.contains(dir)),
                "{dir}: {:?}",
                report.findings
            );
        }
    }

    #[test]
    fn stale_sync_site_fails_conc_sites() {
        let report = scan(
            &[("cluster/src/orchestrator.rs", "fn main() {}\n")],
            &[("cluster/src/orchestrator.rs", "mpsc")],
        );
        assert!(
            report
                .violations()
                .any(|f| f.code == "conc-sites" && f.message.contains("stale entry")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn planted_channel_send_cycle_is_caught() {
        // Two bounded channels in a ring: both senders can be stuck on a
        // full queue whose receiver is the other stuck sender.
        let chan = |name, from, to| ChannelDecl {
            name,
            senders: vec![from],
            receiver: to,
            bound: 8,
            doc: "test",
        };
        let model = ConcModel {
            component: "red",
            threads: vec![thread("t1"), thread("t2")],
            channels: vec![chan("x", "t1", "t2"), chan("y", "t2", "t1")],
            edges: vec![
                BlockingEdge {
                    thread: "t1",
                    waits: WaitPoint::ChanSend("x"),
                    timed: false,
                },
                BlockingEdge {
                    thread: "t2",
                    waits: WaitPoint::ChanSend("y"),
                    timed: false,
                },
            ],
        };
        let mut report = LintReport::default();
        lint_conc_deadlock(&model, &mut report);
        assert!(
            report
                .violations()
                .any(|f| f.code == "conc-deadlock" && f.message.contains("circular wait")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn dangling_names_are_caught_by_coverage() {
        let model = ConcModel {
            component: "red",
            threads: vec![ThreadDecl {
                role: "t1",
                multiplicity: Multiplicity::One,
                spawned_by: "ghost-spawner",
                doc: "test",
            }],
            channels: vec![ChannelDecl {
                name: "c",
                senders: vec!["nobody"],
                receiver: "t1",
                bound: 4,
                doc: "test",
            }],
            edges: vec![BlockingEdge {
                thread: "phantom",
                waits: WaitPoint::ChanRecv("missing-chan"),
                timed: false,
            }],
        };
        let mut report = LintReport::default();
        lint_conc_coverage(&model, &mut report);
        let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
        assert!(report.findings.iter().all(|f| f.code == "conc-coverage"));
        assert!(msgs.iter().any(|m| m.contains("ghost-spawner")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("nobody")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("phantom")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("missing-chan")), "{msgs:?}");
    }

    #[test]
    fn untimed_downward_ctrl_write_reintroduces_the_shard_cycle() {
        // Documents WHY the shard's downward control writes are staged and
        // POLLOUT-gated (a *timed* edge): `node.main` already blocks
        // untimed writing status/reports up to its shard. If the shard
        // also blocked untimed writing control lines down to a node —
        // e.g. a naive `write_all` of `peers`/`stop` while that node is
        // itself stuck pushing status into a full pipe — both sides wait
        // for buffer space on the same socketpair and the control tree
        // wedges. The lint must refuse that flip.
        let mut model = ssmfp_cluster::conc::default_model();
        let edge = model
            .edges
            .iter_mut()
            .find(|e| e.thread == "shard.super" && e.waits == WaitPoint::SockWrite("node.main"))
            .expect("shard.super declares its downward ctrl write");
        assert!(edge.timed, "shipped model gates this write with POLLOUT");
        edge.timed = false;
        let mut report = LintReport::default();
        lint_conc_deadlock(&model, &mut report);
        assert!(
            report.violations().any(|f| {
                f.code == "conc-deadlock"
                    && f.message.contains("circular wait")
                    && f.message.contains("shard.super")
                    && f.message.contains("node.main")
            }),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn stale_pr7_names_fail_conc_coverage() {
        // The single-thread refactor deleted the `node.io` role and the
        // `node.ioq` channel (with four other roles and channels). An edge
        // that still references either must be a coverage violation —
        // i.e., the names are really gone from the shipped model, and a
        // half-reverted declaration cannot sneak through the lint gate.
        let model = ssmfp_cluster::conc::default_model();
        assert!(model.thread("node.io").is_none(), "node.io role lives on");
        assert!(model.channel("node.ioq").is_none(), "node.ioq lives on");

        let mut stale = model.clone();
        stale.edges.push(BlockingEdge {
            thread: "node.io",
            waits: WaitPoint::SockRead("node.main"),
            timed: true,
        });
        stale.edges.push(BlockingEdge {
            thread: "node.main",
            waits: WaitPoint::ChanSend("node.ioq"),
            timed: false,
        });
        let mut report = LintReport::default();
        lint_conc_coverage(&stale, &mut report);
        let msgs: Vec<&str> = report.violations().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("node.io")),
            "stale role not caught: {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("node.ioq")),
            "stale channel not caught: {msgs:?}"
        );
    }

    #[test]
    fn undeclared_client_mux_channel_fails_conc_coverage() {
        // The client layer's design claim: `ClientMux` lives *inside*
        // `node.main` — no new threads or channels. If a future refactor
        // gave it a queue (say a `client.mux` channel feeding sessions
        // from another thread) without declaring it, the edge must fail
        // conc-coverage rather than ship silently.
        let model = ssmfp_cluster::conc::default_model();
        assert!(
            model.channel("client.mux").is_none(),
            "the mux is declared queue-free; a client.mux channel would be a new design"
        );
        let mut stale = model.clone();
        stale.edges.push(BlockingEdge {
            thread: "node.main",
            waits: WaitPoint::ChanSend("client.mux"),
            timed: false,
        });
        let mut report = LintReport::default();
        lint_conc_coverage(&stale, &mut report);
        assert!(
            report.violations().any(|f| f.code == "conc-coverage"
                && f.message.contains("client.mux")
                && f.message.contains("undeclared channel")),
            "{:?}",
            report.findings
        );
    }
}
