//! What every workload shares: the run configuration, the end-to-end and
//! per-layer metric sets, the wire round-trip of the traced run, and the
//! process's peak memory.

use crate::emit::Outcome;
use crate::stats::{self, Tail};
use crate::trace::Tracer;
use repstream::core::model::System;
use repstream::core::report::ReportStatus;
use repstream::core::wire::{AnalyzeRequest, AnalyzeResponse, Request, Response, WireOptions};
use std::path::PathBuf;
use std::time::Instant;

/// Command-line configuration of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Offered rate of the `serve` open-loop phase, requests per second.
    pub offered_rate: f64,
    /// The machine's parallelism: the thread count of the traced run's
    /// parallel BFS rebuild (`marking.t1_over_tn`).
    pub nproc: usize,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// BFS threads of every timed analysis, one-shot and served.  On a
/// machine of a few shared cores a second BFS thread mostly measures the
/// scheduler: it added about 5 ms of thread start-up and wake-up to
/// every small analysis, and whenever the host took time from the second
/// core it doubled the population's median.  The traced run times the
/// parallel BFS separately.
pub const BFS_THREADS: usize = 1;

/// Time `f` `reps` times; the median seconds and the last result.  Each
/// repetition's result is dropped before the next one runs, so at most
/// one set-up's state is alive at a time.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// The end-to-end metrics of one run (see `BENCHMARK.json`).
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Operations completed per second of the timed phase.
    pub ops_per_s: f64,
    /// Latencies of the timed operations, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Percentiles of `tail_ms` and `warm_tail_ms` (see [`stats::tail_at`]).
    pub tail_pcts: [f64; 2],
    /// Latencies of warm operations (structure reused), milliseconds.
    pub warm_ms: Vec<f64>,
    /// Latencies of cold operations (structure built), milliseconds.
    pub cold_ms: Vec<f64>,
    /// Peak resident memory of the timed phases (`serve`: of its open
    /// loop), MiB.
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    /// Push every end-to-end metric into `out` (whose counts [`finish`]
    /// has set), and the tail provenance into `header`.
    pub fn emit(&self, out: &mut Outcome, header: &mut Vec<(String, String)>) {
        let tail = stats::tail_at(&self.latencies_ms, self.tail_pcts[0]);
        let warm_tail = stats::tail_at(&self.warm_ms, self.tail_pcts[1]);
        let ok = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
        out.push("setup_s", self.setup_s, "s");
        out.push("ops_per_s", self.ops_per_s, "1/s");
        out.push("p50_ms", stats::median(&self.latencies_ms), "ms");
        out.push("tail_ms", tail.value, "ms");
        out.push("warm_p50_ms", stats::median(&self.warm_ms), "ms");
        out.push("warm_tail_ms", warm_tail.value, "ms");
        out.push("cold_p50_ms", stats::median(&self.cold_ms), "ms");
        out.push("peak_rss_mib", self.peak_rss_mib, "MiB");
        out.push("ok_ratio", ok, "ratio");
        header.push(("tail".into(), tail_label(&tail)));
        header.push(("warm_tail".into(), tail_label(&warm_tail)));
        header.push((
            "samples".into(),
            format!(
                "all={} warm={} cold={}",
                self.latencies_ms.len(),
                self.warm_ms.len(),
                self.cold_ms.len()
            ),
        ));
    }
}

/// Close a run: set its counts and list its failures in the header.
pub fn finish(
    out: &mut Outcome,
    header: &mut Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
) {
    out.attempted = attempted;
    out.failed = failed;
    out.correct = failed == 0;
    header.extend(failures.into_iter().map(|f| ("failure".to_string(), f)));
}

/// Write a traced run's spans to the output directory and name the file
/// in the header.
pub fn write_spans(tr: &Tracer, cfg: &Config, header: &mut Vec<(String, String)>) {
    let path = cfg
        .out_dir
        .join(format!("{}-seed{}-spans.jsonl", cfg.workload, cfg.seed));
    let note = match tr.write_jsonl(&path) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    };
    header.push(("spans".into(), note));
}

fn tail_label(t: &Tail) -> String {
    format!("p{} n={} beyond={}", t.pct, t.n, t.beyond)
}

/// Peak resident memory (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Encode and decode the analyze request and response of `system` under
/// spans `wire.encode` / `wire.decode`, counting the bytes; an error if
/// either does not survive the round trip.
pub fn wire_roundtrip(
    tr: &mut Tracer,
    req: u64,
    system: &System,
    text: &str,
    status: ReportStatus,
) -> Result<(), String> {
    let request = Request::Analyze(AnalyzeRequest {
        system: system.clone(),
        options: WireOptions::default(),
    });
    let response = Response::Analyze(AnalyzeResponse {
        text: text.to_string(),
        status,
    });
    let (req_bytes, resp_bytes) =
        tr.span("wire.encode", req, || (request.encode(), response.encode()));
    tr.count("wire.pairs", 1.0);
    tr.count("wire.request_bytes", req_bytes.len() as f64);
    tr.count("wire.response_bytes", resp_bytes.len() as f64);
    let (r, s) = tr.span("wire.decode", req, || {
        (Request::decode(&req_bytes), Response::decode(&resp_bytes))
    });
    match (r, s) {
        (Ok(Request::Analyze(_)), Ok(Response::Analyze(a))) if a.text == text => Ok(()),
        _ => Err("analyze request/response did not survive the wire".to_string()),
    }
}

/// Layer measurements that do not come from the analysis spans.
#[derive(Debug, Clone, Default)]
pub struct LayerExtras {
    /// Chain-cache structure hits and misses (`markov::cache`).
    pub cache_hits: f64,
    /// See `cache_hits`.
    pub cache_misses: f64,
    /// Median served-minus-uncontended latency per class, ms (serve only).
    pub wait_ms: [f64; 4],
    /// Mean in-process search time, ms (serve only).
    pub search_ms: f64,
    /// Mean evaluations per search (serve only).
    pub search_evaluations: f64,
    /// Share of deadline-class requests that came back degraded.
    pub degraded_ratio: f64,
    /// Mean untraced report time of the traced inputs, ms.
    pub untraced_report_ms: f64,
}

/// Layers whose per-operation means add up to an analysis.
const SUMMED: [&str; 9] = [
    "timing",
    "deterministic",
    "overlap",
    "bounds",
    "tpn",
    "marking",
    "ctmc.refill",
    "ctmc.solve",
    "aggregate",
];

/// Push every per-layer metric: span means per traced operation (`op`
/// spans), counters, and `extras`.
pub fn emit_layers(tr: &Tracer, extras: &LayerExtras, out: &mut Outcome) {
    let ops = tr.span_count("op").max(1) as f64;
    let per_op = |name: &str| tr.total_ms(name) / ops;
    out.push("timing.ms", per_op("timing"), "ms");
    out.push("deterministic.ms", per_op("deterministic"), "ms");
    out.push("overlap.ms", per_op("overlap"), "ms");
    out.push("bounds.ms", per_op("bounds"), "ms");
    out.push("tpn.ms", per_op("tpn"), "ms");

    let builds = tr.counter("marking.builds").max(1.0);
    let marking_ms = tr.total_ms("marking");
    out.push("marking.ms", per_op("marking"), "ms");
    out.push(
        "marking.states",
        tr.counter("marking.states") / builds,
        "count",
    );
    out.push(
        "marking.states_per_s",
        tr.counter("marking.states") / (marking_ms / 1e3).max(1e-9),
        "1/s",
    );
    out.push(
        "marking.arena_mib",
        tr.counter("marking.arena_bytes") / builds / MIB,
        "MiB",
    );
    // The analyses build with one BFS thread; their parallel rebuilds
    // (`marking.tn`, nproc threads) give the speedup.
    let tn = tr.total_ms("marking.tn");
    out.push(
        "marking.t1_over_tn",
        if tn > 0.0 { marking_ms / tn } else { 0.0 },
        "ratio",
    );

    let solves = tr.counter("ctmc.solves").max(1.0);
    let nnz = tr.counter("ctmc.nnz") / solves;
    let states = tr.counter("ctmc.states") / solves;
    out.push("ctmc.refill_ms", per_op("ctmc.refill"), "ms");
    out.push("ctmc.nnz", nnz, "count");
    out.push(
        "ctmc.refill_mib_computed",
        refill_bytes(nnz, states) / MIB,
        "MiB",
    );
    out.push("ctmc.solve_ms", per_op("ctmc.solve"), "ms");
    out.push(
        "ctmc.iterations",
        tr.counter("ctmc.iterations") / solves,
        "count",
    );
    out.push("ctmc.fallbacks", tr.counter("ctmc.fallbacks"), "count");
    out.push("aggregate.ms", per_op("aggregate"), "ms");

    let lookups = extras.cache_hits + extras.cache_misses;
    out.push("cache.hits", extras.cache_hits, "count");
    out.push("cache.misses", extras.cache_misses, "count");
    out.push(
        "cache.hit_ratio",
        if lookups > 0.0 {
            extras.cache_hits / lookups
        } else {
            0.0
        },
        "ratio",
    );

    let pairs = tr.counter("wire.pairs").max(1.0);
    out.push(
        "wire.encode_us",
        tr.total_ms("wire.encode") * 1e3 / pairs,
        "us",
    );
    out.push(
        "wire.decode_us",
        tr.total_ms("wire.decode") * 1e3 / pairs,
        "us",
    );
    out.push(
        "wire.request_bytes",
        tr.counter("wire.request_bytes") / pairs,
        "B",
    );
    out.push(
        "wire.response_bytes",
        tr.counter("wire.response_bytes") / pairs,
        "B",
    );

    for (class, wait) in crate::schedule::Class::ALL.iter().zip(extras.wait_ms) {
        out.push(format!("serve.wait_ms.{}", class.label()), wait, "ms");
    }
    out.push("engine.search_ms", extras.search_ms, "ms");
    out.push("engine.evaluations", extras.search_evaluations, "count");
    out.push("govern.degraded_ratio", extras.degraded_ratio, "ratio");

    let summed: f64 = SUMMED.iter().map(|n| per_op(n)).sum();
    out.push(
        "report.unaccounted_ms",
        extras.untraced_report_ms - summed,
        "ms",
    );
    let traced = per_op("op");
    out.push(
        "trace.overhead_ms",
        traced - extras.untraced_report_ms,
        "ms",
    );
    out.push(
        "trace.overhead_pct",
        100.0 * (traced - extras.untraced_report_ms) / extras.untraced_report_ms.max(1e-9),
        "%",
    );
}

const MIB: f64 = 1024.0 * 1024.0;

/// Bytes a CSR refill writes, computed from its size: per edge the new
/// rate, the copied column index, and the transposed source, rate and
/// uniformized probability (8 + 4 + 4 + 8 + 8); per state the copied row
/// pointer, the transposed pointer and the exit rate (4 + 4 + 8).
pub fn refill_bytes(nnz: f64, states: f64) -> f64 {
    32.0 * nnz + 16.0 * states
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_reports_the_median_of_its_repetitions() {
        let mut calls = 0;
        let (s, last) = median_setup(3, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (3, 3));
        assert!(s >= 0.0);
    }

    #[test]
    fn every_per_layer_metric_is_emitted_once() {
        let mut tr = Tracer::new();
        let op = tr.begin("op", 0);
        tr.span("marking", 0, || ());
        tr.end(op);
        tr.count("marking.builds", 1.0);
        let mut out = Outcome::default();
        emit_layers(&tr, &LayerExtras::default(), &mut out);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert_eq!(names.len(), 34);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
    }

    #[test]
    fn end_to_end_metrics_are_the_contract_set() {
        let e = EndToEnd {
            setup_s: 0.5,
            ops_per_s: 10.0,
            latencies_ms: vec![1.0, 2.0, 3.0],
            tail_pcts: [95.0, 90.0],
            warm_ms: vec![1.0],
            cold_ms: vec![3.0],
            peak_rss_mib: 100.0,
        };
        let mut out = Outcome::default();
        let mut header = Vec::new();
        finish(&mut out, &mut header, 4, 1, vec!["x".into()]);
        e.emit(&mut out, &mut header);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "ops_per_s",
                "p50_ms",
                "tail_ms",
                "warm_p50_ms",
                "warm_tail_ms",
                "cold_p50_ms",
                "peak_rss_mib",
                "ok_ratio"
            ]
        );
        assert_eq!(out.metrics[8].value, 0.75);
        // Three samples resolve no tail percentile: the median stands in.
        assert_eq!(out.metrics[3].value, 2.0);
    }

    #[test]
    fn refill_bytes_scale_with_edges_and_states() {
        assert_eq!(refill_bytes(0.0, 0.0), 0.0);
        assert_eq!(refill_bytes(10.0, 2.0), 352.0);
    }
}
