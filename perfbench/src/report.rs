//! Named metrics with units, ratio bases, and the JSON the run prints.

use std::collections::BTreeMap;

/// Named metric values with their units. Every ratio is entered together
/// with its base (see [`Metrics::ratio`]), so no ratio is printed alone.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
    bases: BTreeMap<String, String>,
}

impl Metrics {
    /// Record `name = value` in `unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    /// Record `name = num / base` together with its base
    /// `base_name = base` (in `base_unit`); an empty base gives 0.
    pub fn ratio(
        &mut self,
        name: &str,
        unit: &'static str,
        num: f64,
        base_name: &str,
        base: f64,
        base_unit: &'static str,
    ) {
        self.with_base(name, crate::stats::ratio(num, base), unit, base_name, base, base_unit);
    }

    /// Record `name = value`, a quantity relative to `base_name = base`.
    pub fn with_base(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        base_name: &str,
        base: f64,
        base_unit: &'static str,
    ) {
        self.put(name, value, unit);
        self.put(base_name, base, base_unit);
        self.bases.insert(name.to_string(), base_name.to_string());
    }

    /// The value of a metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Metric names, sorted.
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// The base a ratio metric was recorded with.
    #[cfg(test)]
    pub fn base_of(&self, name: &str) -> Option<&str> {
        self.bases.get(name).map(String::as_str)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; fails on a value that
    /// JSON cannot carry.
    pub fn to_json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.values.len());
        for (name, (value, unit)) in &self.values {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            parts.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// Aligned `name value unit` lines, with each ratio's base.
    pub fn render(&self) -> String {
        let width = self.values.keys().map(String::len).max().unwrap_or(0);
        let mut out = String::new();
        for (name, (value, unit)) in &self.values {
            let base = self.bases.get(name).map(|b| format!("  (base: {b})")).unwrap_or_default();
            out.push_str(&format!("  {name:<width$}  {value:>14.6} {unit}{base}\n"));
        }
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run's final line: correctness, operation counts and metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()?
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_and_ratio_bases() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.ratio("hit_ratio", "ratio", 3.0, "lookups", 4.0, "count");
        assert_eq!(m.base_of("hit_ratio"), Some("lookups"));
        let line = result_line(true, 10, 0, &m).unwrap();
        let parsed = serde_json::parse(&line).expect("valid JSON");
        let top = parsed.as_object().unwrap();
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"hit_ratio\": {\"value\": 0.75, \"unit\": \"ratio\"}"), "{line}");
        m.put("bad", f64::NAN, "s");
        assert!(m.to_json().is_err());
    }
}
