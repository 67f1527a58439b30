//! `ssmfp-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <line5-closed|caterpillar-open|clients-grid3x3> \
//!     --seed <n> --seconds <s> --trace <0|1> \
//!     [--mutation duplicate-stamp]
//! ```
//!
//! Prints metric lines, then one JSON result line last. Exits 0 only if
//! every cluster call and ladder replay passed the correctness gate.

use ssmfp_cluster::ClientMutation;
use ssmfp_perfbench::{run, Opts};

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        messages: None,
        mutation: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value.parse::<u64>().map_err(bad)? as f64;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--mutation" => {
                opts.mutation = match value.as_str() {
                    "duplicate-stamp" => Some(ClientMutation::DuplicateStamp),
                    _ => return Err(format!("unknown mutation {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    // Sockets and spans go under the package's `out/`, with short
    // relative socket paths.
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")) {
        eprintln!("perfbench: cannot enter the benchmark directory: {e}");
        std::process::exit(2);
    }
    let out = run(&opts).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", out.json());
    if !out.correct {
        std::process::exit(1);
    }
}
