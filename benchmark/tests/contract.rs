//! `BENCHMARK.json` at the repository root must say what the code does:
//! same command, workloads, metric names, units, directions and bounds.

use benchmark::json::{as_f64, as_str, get, items, parse};
use benchmark::metrics::{per_layer, END_TO_END};
use benchmark::workloads::{Workload, NAMES};
use obskit::Json;

fn better(higher: bool) -> Json {
    Json::str(if higher { "higher" } else { "lower" })
}

/// The document the catalogue implies.
fn expected() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = NAMES.iter().map(|name| {
        let w = Workload::by_name(name).unwrap();
        Json::obj()
            .field("name", Json::str(w.name))
            .field("why", Json::str(w.why))
    });
    let end_to_end = END_TO_END.iter().filter(|m| m.in_contract).map(|m| {
        Json::obj()
            .field("name", Json::str(m.name))
            .field("unit", Json::str(m.unit))
            .field("better", better(m.higher_is_better))
            .field("bound", Json::F64(m.bound))
    });
    let layers = per_layer().into_iter().map(|(name, unit, higher)| {
        Json::obj()
            .field("name", Json::str(name))
            .field("unit", Json::str(unit))
            .field("better", better(higher))
    });
    Json::obj()
        .field("command", Json::arr(command.map(Json::str)))
        .field("paths", Json::arr([Json::str("benchmark")]))
        .field("run_seconds", Json::U64(10))
        .field("workloads", Json::arr(workloads))
        .field("end_to_end", Json::arr(end_to_end))
        .field("per_layer", Json::arr(layers))
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let on_disk = parse(&text).expect("BENCHMARK.json parses");
    let want = expected();
    // Compare through the serializer so 10 and 10.0 style differences in
    // number spelling do not matter, only values.
    let normal = |doc: &Json| parse(&doc.to_string()).unwrap().to_pretty_string();
    assert!(
        normal(&on_disk) == normal(&want),
        "BENCHMARK.json is out of step with benchmark/src/metrics.rs and workloads.rs; \
         it should read:\n{}",
        want.to_pretty_string()
    );
}

#[test]
fn the_contracts_limits_hold() {
    let doc = expected();
    let names = |key| -> Vec<String> {
        items(get(&doc, key).unwrap())
            .iter()
            .map(|m| as_str(get(m, "name").unwrap()).unwrap().to_string())
            .collect()
    };
    let ok_name = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut all: Vec<String> = ["workloads", "end_to_end", "per_layer"]
        .into_iter()
        .flat_map(names)
        .collect();
    assert!(
        all.iter().all(|n| ok_name(n)),
        "a name breaks the name rule"
    );
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n, "a name is used twice");
    assert!((2..=8).contains(&names("workloads").len()));
    assert!((1..=16).contains(&names("end_to_end").len()));
    assert!((1..=128).contains(&names("per_layer").len()));
    for m in items(get(&doc, "end_to_end").unwrap()) {
        let bound = as_f64(get(m, "bound").unwrap()).unwrap();
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound {bound} outside (0, 0.25]"
        );
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(setup.in_contract && setup.unit == "s" && !setup.higher_is_better);
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    for w in items(get(&doc, "workloads").unwrap()) {
        let why = as_str(get(w, "why").unwrap()).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    for (_, unit, _) in per_layer() {
        assert!(unit.len() <= 16);
    }
    assert!(doc.to_string().len() < 64 * 1024);
}
