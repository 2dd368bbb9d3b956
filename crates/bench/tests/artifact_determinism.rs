//! End-to-end artifact determinism: same seed, same config → byte-identical
//! JSON. This is the contract `obskit::Json` documents (insertion-ordered
//! fields, shortest-roundtrip floats, no wall-clock reads), checked here
//! through a real — tiny — Figure 7 run so a regression anywhere in the
//! stack (sim scheduling, RNG forking, stat accumulation, serialization)
//! fails loudly.

use std::time::Duration;

use bench::artifact;
use bench::common::Scale;
use bench::fig7::{self, Fig7Config};
use faultkit::{run_campaign, CampaignConfig, PlanKind};
use flashsim::BackendKind;

fn tiny_cfg() -> Fig7Config {
    Fig7Config {
        alphas: vec![0.8],
        backends: vec![BackendKind::Mftl],
        client_vms: 2,
        instances_per_vm: 2,
        keyspace: 2_000,
        warmup: Duration::from_millis(50),
        measure: Duration::from_millis(150),
    }
}

#[test]
fn same_seed_fig7_artifacts_are_byte_identical() {
    let cfg = tiny_cfg();
    let render = || {
        let points = fig7::run(&cfg);
        artifact::envelope("fig7", Scale::Quick, fig7::to_json(&cfg, &points)).to_pretty_string()
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "same-seed artifacts must match byte for byte");
    assert!(a.ends_with('\n'), "artifact files end with a newline");
}

#[test]
fn fig7_artifact_reports_reasons_and_percentiles_per_clock() {
    let cfg = tiny_cfg();
    let points = fig7::run(&cfg);
    let doc = fig7::to_json(&cfg, &points).to_string();
    for key in [
        r#""by_clock""#,
        r#""PTP""#,
        r#""NTP""#,
        r#""abort_reasons""#,
        r#""validation""#,
        r#""latency_ns""#,
        r#""p99""#,
    ] {
        assert!(doc.contains(key), "artifact is missing {key}: {doc}");
    }
    // The tiny run still commits transactions under both disciplines.
    for p in &points {
        assert!(
            p.stats.commits > 0,
            "{}/{} committed nothing",
            p.sync,
            p.backend
        );
    }
}

#[test]
fn overload_campaign_artifacts_are_byte_identical_and_report_sheds() {
    let cfg = CampaignConfig {
        seeds: vec![5],
        faults: 10,
        shards: 1,
        plan: PlanKind::Overload,
        ..CampaignConfig::default()
    };
    let render = || {
        let report = run_campaign(&cfg);
        assert!(report.offending_seeds().is_empty(), "{report:?}");
        artifact::envelope("chaos", Scale::Quick, report.to_json()).to_pretty_string()
    };
    let a = render();
    let b = render();
    assert_eq!(
        a, b,
        "same-seed campaign artifacts must match byte for byte"
    );
    // The admission plane is visible in the artifact, and the overload
    // bursts actually drove it into shedding.
    for key in [r#""server_sheds""#, r#""client_retries""#, r#""overload""#] {
        assert!(a.contains(key), "artifact is missing {key}: {a}");
    }
    let report = run_campaign(&cfg);
    assert!(
        report.outcomes[0].server_sheds > 0,
        "overload bursts never hit the admission gate: {:?}",
        report.outcomes[0]
    );
}
