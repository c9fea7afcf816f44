//! The repository's benchmark (see `BENCHMARK.json`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oneshot|serve --seed N --seconds S --trace 0|1 \
//!     [--offered-rate R]
//! ```
//!
//! Each run prints a header (`# key=value` lines: machine, compiler,
//! source revision, seed, workload settings), one `metric name = value
//! unit` line per metric, and as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.  `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same workload and
//! then a traced pass that times the calls into each layer, reports the
//! per-layer metrics, and writes the spans to `perfbench/out/`.

mod check;
mod common;
mod emit;
mod layers;
mod oneshot;
mod rng;
mod schedule;
mod serve;
mod stats;
mod systems;
mod trace;

use common::Config;
use emit::Outcome;
use std::path::{Path, PathBuf};

/// Offered rate of the `serve` open-loop phase when the command line
/// gives none (requests per second; `BENCHMARK.json` passes the same).
const DEFAULT_OFFERED_RATE: f64 = 6.0;

const USAGE: &str = "usage: perfbench --workload oneshot|serve --seed N \
                     --seconds S --trace 0|1 [--offered-rate R]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut offered_rate = DEFAULT_OFFERED_RATE;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--offered-rate" => {
                offered_rate = value()?
                    .parse()
                    .map_err(|e| format!("--offered-rate: {e}"))?;
                if !(offered_rate > 0.0 && offered_rate.is_finite()) {
                    return Err("--offered-rate must be positive".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["oneshot", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Config {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        offered_rate,
        nproc,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

/// The CPU model named in `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git revision of the source tree, read from `.git` when the
/// checkout has one (no process is started and nothing outside the
/// checkout is read).
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a fingerprint of the program's sources (every `.rs` and `.toml`
/// file under `src/` and `crates/`, plus the root manifest and lock
/// file), so that runs of checkouts without git history still name the
/// code they measured.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    format!("{h:016x}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root");
    let mut header: Vec<(String, String)> = vec![
        ("workload".into(), cfg.workload.clone()),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("trace".into(), u8::from(cfg.trace).to_string()),
        ("rev".into(), git_rev(root)),
        ("source_fnv".into(), source_fingerprint(root)),
        ("nproc".into(), cfg.nproc.to_string()),
        ("bfs_threads".into(), common::BFS_THREADS.to_string()),
        ("cpu".into(), cpu_model()),
        ("rustc".into(), env!("PERFBENCH_RUSTC").to_string()),
        ("offered_rate".into(), format!("{} req/s", cfg.offered_rate)),
    ];
    let mut out = Outcome::default();
    match cfg.workload.as_str() {
        "oneshot" => oneshot::run(&cfg, &mut out, &mut header),
        "serve" => serve::run(&cfg, &mut out, &mut header),
        _ => unreachable!("workload validated by parse_args"),
    }
    for (k, v) in &header {
        println!("# {k}={v}");
    }
    print!("{}", out.metric_lines());
    println!("{}", out.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let c = parse_args(&args(
            "--workload serve --seed 7 --seconds 10 --trace 1 --offered-rate 5",
        ))
        .unwrap();
        assert_eq!(
            (c.workload.as_str(), c.seed, c.seconds, c.trace),
            ("serve", 7, 10.0, true)
        );
        assert_eq!(c.offered_rate, 5.0);
        let c = parse_args(&args("--workload oneshot --seed 1 --seconds 3 --trace 0")).unwrap();
        assert_eq!(c.offered_rate, DEFAULT_OFFERED_RATE);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload scale --seed 1 --seconds 1 --trace 0",
            "--workload oneshot --seed -1 --seconds 1 --trace 0",
            "--workload oneshot --seed 1 --seconds 0 --trace 0",
            "--workload oneshot --seed 1 --seconds 1 --trace 2",
            "--workload oneshot --seed 1 --seconds 1",
            "--workload oneshot --seed 1 --seconds 1 --trace 0 --bogus",
            "--workload oneshot --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
