//! Output checks on rendered analysis reports.
//!
//! Every report must carry the expected status, every printed solver
//! residual must meet the `1e-10` rate-relative contract, and the
//! Overlap exponential throughput may not exceed the Overlap
//! deterministic one (Theorem 7).

use repstream::core::model::System;
use repstream::core::report::ReportStatus;
use repstream::core::timing;

/// Residual contract of the stationary solvers, relative to the largest
/// rate of the chain.
pub const RESIDUAL_CONTRACT: f64 = 1e-10;

/// Largest exponential service rate of `system`.  Every chain edge rate
/// is a sum of one or more of these, so `RESIDUAL_CONTRACT` times this
/// value is at most the solvers' own acceptance threshold.
pub fn max_rate(system: &System) -> f64 {
    timing::exponential_rates(system)
        .iter()
        .fold(0.0f64, |m, (_, &r)| m.max(r))
}

/// The status a report must come back with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every analysis completes exactly.
    Ok,
    /// The governor fires and the report degrades to bounds.
    Degraded,
}

/// The value after `key` on the first line of section `section` that
/// contains it.
fn section_value(text: &str, section: &str, key: &str) -> Option<f64> {
    let start = text.find(section)?;
    let rest = &text[start + section.len()..];
    let end = rest.find("\n[").unwrap_or(rest.len());
    let line = rest[..end].lines().find(|l| l.contains(key))?;
    let after = &line[line.find(key)? + key.len()..];
    after.split_whitespace().next()?.parse().ok()
}

/// Every `residual=` value printed in `text`.
pub fn residuals(text: &str) -> Vec<f64> {
    text.match_indices("residual=")
        .filter_map(|(i, key)| {
            text[i + key.len()..]
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
        })
        .collect()
}

/// The Strict (Theorem 2) throughput as printed.
pub fn strict_throughput(text: &str) -> Option<f64> {
    section_value(text, "[strict/exponential", "throughput = ")
}

/// Check one report; returns the failed checks (empty when it passes).
pub fn report(text: &str, status: ReportStatus, expect: Expect, max_rate: f64) -> Vec<String> {
    let mut bad = Vec::new();
    let status_ok = match expect {
        Expect::Ok => status == ReportStatus::Ok,
        Expect::Degraded => matches!(status, ReportStatus::Degraded(_)),
    };
    if !status_ok {
        bad.push(format!("status {status:?}, expected {expect:?}"));
    }
    for r in residuals(text) {
        if r.is_nan() || r > RESIDUAL_CONTRACT * max_rate {
            bad.push(format!(
                "residual {r:e} above {RESIDUAL_CONTRACT:e} x {max_rate}"
            ));
        }
    }
    if expect == Expect::Ok && strict_throughput(text).is_none() {
        bad.push("no Strict throughput".to_string());
    }
    let det = section_value(text, "[overlap/deterministic]", "throughput (Theorem 1) = ");
    let exp = section_value(text, "[overlap/exponential", "throughput = ");
    match (det, exp) {
        // Six printed decimals: allow one unit of the last place.
        (Some(d), Some(e)) if e <= d + 1e-6 => {}
        (Some(d), Some(e)) => bad.push(format!("Theorem 7: exponential {e} > deterministic {d}")),
        _ => bad.push("missing overlap throughput".to_string()),
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use repstream::markov::govern::InterruptReason;

    const TEXT: &str = "system: 2 stages\n\n[overlap/deterministic]\n  \
        throughput (Theorem 1) = 0.500000\n  period P = 2.0\n\n\
        [overlap/exponential — Theorems 3/4]\n  throughput = 0.400000\n\n\
        [strict/exponential — Theorem 2]\n  throughput = 0.300000\n  \
        solver=gs precond=none iterations=12 residual=1.5e-17\n";

    #[test]
    fn parses_the_report_sections() {
        assert_eq!(strict_throughput(TEXT), Some(0.3));
        assert_eq!(residuals(TEXT), vec![1.5e-17]);
        assert_eq!(
            section_value(TEXT, "[overlap/exponential", "throughput = "),
            Some(0.4)
        );
    }

    #[test]
    fn a_good_report_passes() {
        assert!(report(TEXT, ReportStatus::Ok, Expect::Ok, 2.0).is_empty());
    }

    #[test]
    fn each_violation_is_reported() {
        let bad = report(
            TEXT,
            ReportStatus::Degraded(InterruptReason::Deadline),
            Expect::Ok,
            2.0,
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        let big = TEXT.replace("1.5e-17", "3e-9");
        assert_eq!(report(&big, ReportStatus::Ok, Expect::Ok, 2.0).len(), 1);
        let thm7 = TEXT.replace("throughput = 0.400000", "throughput = 0.600000");
        let bad = report(&thm7, ReportStatus::Ok, Expect::Ok, 2.0);
        assert!(bad[0].starts_with("Theorem 7"), "{bad:?}");
        assert!(!report(TEXT, ReportStatus::Ok, Expect::Degraded, 2.0).is_empty());
    }
}
