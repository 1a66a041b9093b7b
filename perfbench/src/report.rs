//! Named metrics and the benchmark's output: one human-readable line
//! per metric, then the result object as the last line of stdout.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// JSON number for `x`: shortest round-trip decimal; non-finite values
/// (a percentile over failed requests) become the largest finite `f64`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else if x > 0.0 {
        format!("{:?}", f64::MAX)
    } else {
        format!("{:?}", -f64::MAX)
    }
}

/// JSON string literal for `s`.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print every metric as `name value unit`, then the result object
/// `{"correct", "attempted", "failed", "metrics"}` as the final line.
pub fn emit(metrics: &Metrics, correct: bool, attempted: u64, failed: u64) {
    for m in &metrics.0 {
        println!("metric {:<34} {:>16} {}", m.name, num(m.value), m.unit);
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit_and_stay_valid_json() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(f64::INFINITY), "1.7976931348623157e308");
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
