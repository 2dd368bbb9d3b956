//! `benchmark compare <a/results.json> <b/results.json>`: one row per
//! (workload, end-to-end metric) with both values, the ratio and its base,
//! the bound, and a verdict.

use obskit::Json;

use crate::json::{as_f64, as_str, fields, get, items};

/// How `b` stands against `a` on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is better than `a` by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// One side's own min..max spread exceeds the bound, so the bound
    /// cannot resolve a difference.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's numbers for one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Reported value.
    pub value: f64,
    /// Smallest repeat.
    pub min: f64,
    /// Largest repeat.
    pub max: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            ((self.max - self.min) / self.value).abs()
        }
    }
}

/// The verdict for `b` against base `a` under a relative `bound`.
pub fn verdict(a: Side, b: Side, higher_is_better: bool, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    if a.value == b.value {
        return Verdict::Same;
    }
    if a.value == 0.0 {
        // No base to take a share of: any move off zero counts in full.
        let improved = (b.value > 0.0) == higher_is_better;
        return if improved {
            Verdict::Better
        } else {
            Verdict::Worse
        };
    }
    let gain = (b.value - a.value) / a.value.abs() * if higher_is_better { 1.0 } else { -1.0 };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One compared row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base side.
    pub a: Side,
    /// Compared side.
    pub b: Side,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn side(m: &Json) -> Option<Side> {
    Some(Side {
        value: as_f64(get(m, "value")?)?,
        min: as_f64(get(m, "min")?)?,
        max: as_f64(get(m, "max")?)?,
    })
}

/// Compares two parsed `results.json` documents, `a` being the base.
///
/// # Errors
///
/// Names the first workload or metric present in `a` and missing from `b`.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = |doc| get(doc, "workloads").map(items).unwrap_or_default();
    let mut rows = Vec::new();
    for wa in workloads(a) {
        let name = get(wa, "name").and_then(as_str).unwrap_or("");
        let wb = workloads(b)
            .iter()
            .find(|w| get(w, "name").and_then(as_str) == Some(name))
            .ok_or_else(|| format!("workload {name} missing from the second file"))?;
        let digest = |w| get(w, "sim_digest").and_then(as_str).map(str::to_string);
        if digest(wa) != digest(wb) {
            println!(
                "note: {name}: sim_digest differs ({:?} vs {:?}) — the simulated \
                 behaviour changed, not only the host time",
                digest(wa).unwrap_or_default(),
                digest(wb).unwrap_or_default()
            );
        }
        for (metric, ma) in get(wa, "end_to_end").map(fields).unwrap_or_default() {
            let mb = get(wb, "end_to_end")
                .and_then(|e| get(e, metric))
                .ok_or_else(|| format!("{name}.{metric} missing from the second file"))?;
            let (Some(sa), Some(sb)) = (side(ma), side(mb)) else {
                return Err(format!("{name}.{metric} lacks value/min/max"));
            };
            let bound = get(ma, "bound").and_then(as_f64).unwrap_or(0.0);
            let higher = get(ma, "better").and_then(as_str) == Some("higher");
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.clone(),
                a: sa,
                b: sb,
                bound,
                verdict: verdict(sa, sb, higher, bound),
            });
        }
    }
    Ok(rows)
}

/// Prints the rows; returns whether any is `worse`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)", "bound"
    );
    for r in rows {
        let ratio = if r.a.value == 0.0 {
            "n/a (a = 0)".to_string()
        } else {
            format!("{:.4} of {:.4}", r.b.value / r.a.value, r.a.value)
        };
        println!(
            "{:<18} {:<22} {:>14.4} {:>14.4} {:>22} {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a.value,
            r.b.value,
            ratio,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}
