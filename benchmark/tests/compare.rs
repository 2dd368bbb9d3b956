//! `compare` verdicts on hand-built inputs.

use benchmark::compare::{compare, verdict, Side, Verdict};
use benchmark::json::parse;

fn exact(value: f64) -> Side {
    Side {
        value,
        min: value,
        max: value,
    }
}

fn spread(value: f64, min: f64, max: f64) -> Side {
    Side { value, min, max }
}

#[test]
fn higher_is_better() {
    let a = exact(1000.0);
    assert_eq!(verdict(a, exact(1000.0), true, 0.05), Verdict::Same);
    assert_eq!(verdict(a, exact(1040.0), true, 0.05), Verdict::Same);
    assert_eq!(verdict(a, exact(960.0), true, 0.05), Verdict::Same);
    assert_eq!(verdict(a, exact(1060.0), true, 0.05), Verdict::Better);
    assert_eq!(verdict(a, exact(940.0), true, 0.05), Verdict::Worse);
}

#[test]
fn lower_is_better() {
    let a = exact(200.0);
    assert_eq!(verdict(a, exact(230.0), false, 0.10), Verdict::Worse);
    assert_eq!(verdict(a, exact(170.0), false, 0.10), Verdict::Better);
    assert_eq!(verdict(a, exact(215.0), false, 0.10), Verdict::Same);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    // Either side's own min..max beyond the bound hides any difference.
    let noisy = spread(100.0, 90.0, 115.0);
    assert_eq!(
        verdict(noisy, exact(150.0), true, 0.20),
        Verdict::Unresolved
    );
    assert_eq!(
        verdict(exact(100.0), noisy, true, 0.20),
        Verdict::Unresolved
    );
    // The same spread under a looser bound resolves.
    assert_eq!(verdict(noisy, exact(150.0), true, 0.30), Verdict::Better);
}

#[test]
fn a_zero_base_has_no_share_to_take() {
    assert_eq!(verdict(exact(0.0), exact(0.0), false, 0.1), Verdict::Same);
    assert_eq!(verdict(exact(0.0), exact(3.0), false, 0.1), Verdict::Worse);
    assert_eq!(verdict(exact(0.0), exact(3.0), true, 0.1), Verdict::Better);
}

fn results(goodput: f64, p99: (f64, f64, f64), digest: &str) -> String {
    format!(
        r#"{{"seed":42,"workloads":[{{"name":"w1","sim_digest":"{digest}","end_to_end":{{
            "goodput_tps":{{"value":{goodput},"min":{goodput},"max":{goodput},
                           "unit":"1/s","clock":"virtual","better":"higher","bound":0.05}},
            "ro_commit_p99_us":{{"value":{},"min":{},"max":{},
                           "unit":"us","clock":"virtual","better":"lower","bound":0.1}}
        }}}}]}}"#,
        p99.0, p99.1, p99.2
    )
}

#[test]
fn one_row_per_workload_and_metric() {
    let a = parse(&results(1000.0, (500.0, 500.0, 500.0), "aa")).unwrap();
    let b = parse(&results(900.0, (400.0, 400.0, 400.0), "bb")).unwrap();
    let rows = compare(&a, &b).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(
        (rows[0].workload.as_str(), rows[0].metric.as_str()),
        ("w1", "goodput_tps")
    );
    assert_eq!(rows[0].verdict, Verdict::Worse);
    assert_eq!(rows[0].bound, 0.05);
    assert_eq!((rows[0].a.value, rows[0].b.value), (1000.0, 900.0));
    assert_eq!(rows[1].metric, "ro_commit_p99_us");
    assert_eq!(rows[1].verdict, Verdict::Better);

    let same = compare(&a, &a).unwrap();
    assert!(same.iter().all(|r| r.verdict == Verdict::Same));

    let noisy = parse(&results(1000.0, (500.0, 430.0, 560.0), "aa")).unwrap();
    assert_eq!(compare(&a, &noisy).unwrap()[1].verdict, Verdict::Unresolved);
}

#[test]
fn a_missing_workload_or_metric_is_an_error() {
    let a = parse(&results(1000.0, (500.0, 500.0, 500.0), "aa")).unwrap();
    let none = parse(r#"{"workloads":[]}"#).unwrap();
    assert!(compare(&a, &none).unwrap_err().contains("w1"));
    let partial = parse(
        r#"{"workloads":[{"name":"w1","end_to_end":{
            "goodput_tps":{"value":1,"min":1,"max":1,"better":"higher","bound":0.05}}}]}"#,
    )
    .unwrap();
    assert!(compare(&a, &partial)
        .unwrap_err()
        .contains("ro_commit_p99_us"));
}
