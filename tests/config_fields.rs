//! Every option a config struct offers is a decision two callers disagree
//! on. This test reads each `pub struct *Config`, `*Tuning` and `*Spec`
//! under `crates/*/src` and holds its `pub` fields to the table below, so
//! an option cannot be added (or removed) without the table saying so. A
//! value nobody varies is a `const` beside the code that reads it; a value
//! the cluster always sets is an argument it passes (ROADMAP item 13(b)).

use std::collections::BTreeMap;
use std::path::Path;

/// `("crate::Struct", its pub fields)`.
const FIELDS: &[(&str, &str)] = &[
    ("batchkit::BatchConfig", "batch_max batch_deadline"),
    ("bench::BatchSweepConfig", "batch_maxes keyspace warmup measure"),
    ("bench::ClockFaultConfig", "seed campaign_faults measure fraud"),
    ("bench::Fig6Config", "client_counts alphas keyspace warmup measure"),
    ("bench::Fig7Config", "alphas backends client_vms instances_per_vm keyspace warmup measure"),
    ("bench::Fig8Config", "client_counts backends alpha keyspace warmup measure"),
    ("bench::Fig9Config", "alphas client_vms instances_per_vm keyspace report_every warmup measure"),
    ("bench::ReadScaleConfig", "keyspace warmup measure campaign_seeds"),
    ("bench::RecoverySpec", "seed store_sizes store_keys clients hot_keys warm_commits outage_commits catchup_batch mount_scan_rate campaign_faults fraud"),
    ("bench::Table1Config", "keys workers channels utilization warmup measure"),
    ("clockkit::ClockHealthConfig", "max_future_ns"),
    ("faultkit::CampaignConfig", "seeds faults shards replicas clients keys trace_capacity fraud plan clock_health clock_epsilon_ns backup_reads"),
    ("faultkit::RebalanceCampaignConfig", "seeds replicas clients keys inject trace_capacity"),
    ("flashsim::NandConfig", "page_size pages_per_block blocks channels queue_depth mount_scan_rate"),
    ("flashsim::MediaFaultConfig", "read_error_prob program_error_prob recovery_latency retire_next_erases"),
    ("loadkit::AdmissionConfig", "capacity"),
    ("milana::CentimanConfig", "report_every obs"),
    ("milana::TxnClientConfig", "validation watermark_interval batch read_route snapshot_lag"),
    ("milana::MilanaClusterConfig", "shards replicas clients backend nand clock preload_keys value_size client_cfg tuning net auto_failover"),
    ("milana::ServerTuning", "history_window obs fraud admission batch gossip_every catchup_batch clock_health"),
    ("milana::TxnServerConfig", "shard addr start clients master tuning"),
    ("retwis::WorkloadConfig", "mix keyspace zipf_alpha value_size max_retries"),
    ("semel::ClusterConfig", "shards replicas clients backend nand clock preload_keys value_size net replication batch obs"),
    ("semel::MasterConfig", "addr obs"),
    ("semel::ServerConfig", "shard addr backups is_primary clients replication batch obs map"),
    ("simkit::LatencyConfig", "one_way jitter_std"),
    ("simkit::NetFaultConfig", "drop_prob dup_prob delay_spike_prob delay_spike"),
    ("timesync::ClockSpec", "discipline drift_ns_per_s"),
];

/// Every `.rs` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read_dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The struct a line declares, if it is a `pub struct` named `*Config`,
/// `*Tuning` or `*Spec` with a braced body.
fn config_struct(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub struct ")?;
    let name = rest
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .next()?;
    let named = ["Config", "Tuning", "Spec"]
        .iter()
        .any(|s| name.ends_with(s));
    (named && rest.trim_end().ends_with('{')).then_some(name)
}

/// `crate::Struct -> pub fields`, read from `crates/*/src`. Comment lines
/// are skipped, so a brace in a doc comment does not end a body.
fn declared() -> BTreeMap<String, Vec<String>> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut found = BTreeMap::new();
    for krate in std::fs::read_dir(&crates).expect("crates").flatten() {
        let name = krate.file_name().to_string_lossy().into_owned();
        let mut files = Vec::new();
        sources(&krate.path().join("src"), &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).expect("source");
            let mut lines = text.lines();
            while let Some(line) = lines.next() {
                let Some(strukt) = config_struct(line) else {
                    continue;
                };
                let mut fields = Vec::new();
                let mut depth = 1;
                for line in lines.by_ref() {
                    let code = line.trim_start();
                    if code.starts_with("//") {
                        continue;
                    }
                    if depth == 1 {
                        if let Some((field, _)) = code
                            .strip_prefix("pub ")
                            .and_then(|rest| rest.split_once(':'))
                        {
                            fields.push(field.trim().to_string());
                        }
                    }
                    depth += code.matches('{').count();
                    depth -= code.matches('}').count();
                    if depth == 0 {
                        break;
                    }
                }
                let path = format!("{name}::{strukt}");
                assert!(
                    found.insert(path, fields).is_none(),
                    "{name}: two {strukt}s"
                );
            }
        }
    }
    found
}

#[test]
fn config_structs_offer_only_the_options_the_table_lists() {
    let declared = declared();
    let mut wrong = Vec::new();
    for (path, fields) in &declared {
        let Some(&(_, listed)) = FIELDS.iter().find(|(p, _)| p == path) else {
            wrong.push(format!(
                "{path} is not in the table; its fields: {fields:?}"
            ));
            continue;
        };
        let listed: Vec<&str> = listed.split_whitespace().collect();
        for field in fields.iter().filter(|f| !listed.contains(&f.as_str())) {
            wrong.push(format!(
                "{path}::{field} is a new option: it needs two non-test callers that \
                 set different values (ROADMAP 13(b)); otherwise make it a `const` \
                 beside its use, or an argument the cluster passes"
            ));
        }
        for field in listed.iter().filter(|f| !fields.iter().any(|g| g == *f)) {
            wrong.push(format!("{path}::{field} is gone: drop it from the table"));
        }
    }
    for (path, _) in FIELDS.iter().filter(|(p, _)| !declared.contains_key(*p)) {
        wrong.push(format!("{path} is gone: drop it from the table"));
    }
    assert!(wrong.is_empty(), "config fields:\n{}", wrong.join("\n"));
}
