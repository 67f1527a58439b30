//! Self-tests of the benchmark: the metric table in `BENCHMARK.json`
//! matches what every workload prints, tiny runs of every workload pass
//! the correctness gate, and a seeded client-layer bug turns it red.

use ssmfp_cluster::ClientMutation;
use ssmfp_perfbench::{run, workloads, Opts, Output};

/// `(name, unit)` of every metric listed in one section of
/// `BENCHMARK.json` (one metric object per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body[1..].find("\n  \"").map_or(body.len(), |e| e + 1);
    let field = |line: &str, key: &str| -> Option<String> {
        let tag = format!("\"{key}\": \"");
        let from = line.find(&tag)? + tag.len();
        line[from..].split('"').next().map(str::to_string)
    };
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit").unwrap_or_default())))
        .collect()
}

fn tiny(workload: &str, trace: bool, mutation: Option<ClientMutation>) -> Output {
    let w = workloads::by_name(workload).expect("known workload");
    let messages = if w.is_clients() { 2 } else { 20 };
    run(&Opts {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        messages: Some(messages),
        mutation,
    })
    .expect("valid options")
}

fn printed(out: &Output) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_use_the_allowed_characters() {
    for section in ["workloads", "end_to_end", "per_layer"] {
        let names = declared(section);
        assert!(!names.is_empty(), "{section} lists something");
        for (name, _) in names {
            assert!(well_formed(&name), "{section}: bad name {name:?}");
        }
    }
    for (name, _) in declared("workloads") {
        assert!(
            workloads::by_name(&name).is_some(),
            "unknown workload {name}"
        );
    }
}

#[test]
fn tiny_runs_of_every_workload_are_clean_and_print_every_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for name in workloads::NAMES {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let out = tiny(name, trace, None);
            assert!(
                out.correct && out.failed == 0 && out.attempted > 0,
                "{name} trace={trace} not clean: {:?}",
                out.lines
            );
            assert_eq!(&printed(&out), want, "{name} trace={trace}");
            for line in &out.lines {
                if let Some(rest) = line.strip_prefix("metric ") {
                    let name = rest.split_whitespace().next().expect("a name");
                    assert!(well_formed(name), "bad printed name {name:?}");
                }
            }
            let json = out.json();
            assert!(json.starts_with("{\"correct\": true, ") && !json.contains('\n'));
        }
    }
}

#[test]
fn duplicate_stamp_turns_the_gate_red() {
    let out = tiny(
        "clients-grid3x3",
        false,
        Some(ClientMutation::DuplicateStamp),
    );
    assert!(!out.correct, "the mutation must fail the gate");
    assert!(out.failed > 0 && out.failed <= out.attempted);
    assert!(out.lines.iter().any(|l| l.starts_with("FAILED")));
    let fail_rate: f64 = out
        .lines
        .iter()
        .find_map(|l| l.strip_prefix("metric fail_rate"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("fail_rate is printed");
    assert!(fail_rate > 0.0 && fail_rate <= 1.0);
    assert!(out.json().starts_with("{\"correct\": false, "));
}
