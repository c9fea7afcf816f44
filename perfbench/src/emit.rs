//! Result emission: one `metric` line per metric (name, value, unit) for
//! people, and the final one-line JSON object for tools.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, printed with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Human-readable lines, one per metric.
    pub fn metric_lines(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            writeln!(s, "metric {} = {} {}", m.name, json_number(m.value), m.unit)
                .expect("writing to a String cannot fail");
        }
        s
    }

    /// The final result line: a JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"correct\": ");
        s.push_str(if self.correct { "true" } else { "false" });
        write!(
            s,
            ", \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// A finite `f64` in shortest round-trip form (all its digits); JSON has
/// no non-finite numbers, so those become `null`.
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    // `Display` never uses an exponent for `f64`; integers need a `.0`.
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: Vec::new(),
        };
        o.push("p50_ms", 1.25, "ms");
        o.push("setup_s", 0.5, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            o.metric_lines(),
            "metric p50_ms = 1.25 ms\nmetric setup_s = 0.5 s\n"
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "0.0000001");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        let v = 123.456_789_012_345_68;
        assert_eq!(json_number(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn failed_run_says_so() {
        let o = Outcome {
            correct: false,
            attempted: 3,
            failed: 1,
            metrics: Vec::new(),
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}"
        );
    }
}
