//! Artifact export for `repro`.
//!
//! Every experiment accepts `--json <path>` (or `--json=<path>`) and, when
//! given, writes its measured points as a deterministic JSON document next
//! to the human-readable table it prints. Same seed, same
//! scale → byte-identical file (see [`obskit::Json`] for the stability
//! rules), so CI and downstream plotting can diff artifacts across runs.
//!
//! The document shape is a fixed envelope around a per-experiment payload:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "experiment": "fig7",
//!   "scale": "quick",
//!   "data": { ... }
//! }
//! ```
//!
//! By convention artifacts land in `artifacts/` at the workspace root
//! (gitignored); the path is the caller's choice.

use std::path::Path;

use obskit::Json;

use crate::common::Scale;

/// Current artifact schema version. Bump when an experiment's payload
/// shape changes incompatibly.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// Wraps an experiment payload in the standard envelope.
pub fn envelope(experiment: &str, scale: Scale, payload: Json) -> Json {
    Json::obj()
        .field("schema", Json::U64(SCHEMA_VERSION))
        .field("experiment", Json::str(experiment))
        .field(
            "scale",
            Json::str(match scale {
                Scale::Quick => "quick",
                Scale::Full => "full",
            }),
        )
        .field("data", payload)
}

/// Writes the enveloped artifact to `path` in the pretty byte-stable
/// format; a failed write aborts the binary so CI never mistakes a missing
/// artifact for success.
pub fn write(path: &Path, experiment: &str, scale: Scale, payload: Json) {
    let doc = envelope(experiment, scale, payload);
    match std::fs::write(path, doc.to_pretty_string()) {
        Ok(()) => eprintln!("wrote {experiment} artifact to {}", path.display()),
        Err(e) => {
            eprintln!("failed to write artifact {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_has_fixed_field_order() {
        let doc = envelope("fig7", Scale::Quick, Json::obj());
        let s = doc.to_string();
        assert_eq!(
            s,
            r#"{"schema":1,"experiment":"fig7","scale":"quick","data":{}}"#
        );
    }
}
