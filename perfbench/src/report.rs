//! The printed report: a readable table, then the result line the
//! benchmark contract reads — the last line of standard output.

use crate::host::json_str;
use crate::measure::Tally;

/// JSON number for `v`: shortest round-trip decimal, 0 for non-finite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Pair each `(name, unit)` of `wanted` with its value in `metrics`;
/// `Err` names the first metric the measurement did not produce.
pub fn select(
    wanted: &[(String, &'static str)],
    metrics: &[(String, f64)],
) -> Result<Vec<(String, &'static str, f64)>, String> {
    wanted
        .iter()
        .map(|(name, unit)| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| (name.clone(), *unit, v))
                .ok_or_else(|| format!("metric `{name}` was not measured"))
        })
        .collect()
}

/// Human-readable lines, one metric per line with its unit.
pub fn table(metrics: &[(String, &'static str, f64)]) -> String {
    metrics
        .iter()
        .map(|(name, unit, v)| format!("{name:<34} {:>24} {unit}\n", num(*v)))
        .collect()
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
pub fn result_line(tally: &Tally, metrics: &[(String, &'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    )
}
