//! Machine-readable bench artifacts.
//!
//! The JSON value type, printer, and parser live in
//! [`qmldb_math::json`] (shared with the `qmldb-serve` wire protocol);
//! this module re-exports [`Json`] and keeps the bench-specific pieces:
//! timing records and the section merger that lets several bench binaries
//! share one `BENCH_*.json` file.
//!
//! The artifact schema is
//! `{"sections": {"<bench>": [{"name": …, "median_s": …, …}, …]}}` —
//! one array of records per bench binary, each record carrying wall times
//! in seconds plus an optional throughput figure.

use crate::timing::Timing;
use std::path::Path;

pub use qmldb_math::json::{write_atomic, Json};

/// A bench record: wall times from one [`Timing`], plus throughput when
/// the bench has a natural op count (`ops_per_iter / median`).
pub fn timing_record(name: &str, t: &Timing, ops_per_iter: Option<f64>) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("min_s".to_string(), Json::Num(t.min)),
        ("median_s".to_string(), Json::Num(t.median)),
        ("mean_s".to_string(), Json::Num(t.mean)),
    ];
    if let Some(ops) = ops_per_iter {
        fields.push(("ops_per_s".to_string(), Json::Num(ops / t.median)));
    }
    Json::Obj(fields)
}

/// The host a section's timings ran on: its available parallelism and
/// the `par` width the bench used by default.
pub fn host_record() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("name".to_string(), Json::Str("host".to_string())),
        ("available_parallelism".to_string(), Json::Num(cores as f64)),
        (
            "par_threads".to_string(),
            Json::Num(qmldb_math::par::thread_count() as f64),
        ),
    ])
}

/// Merges `records` into `path` under `sections.<section>`, creating the
/// file if absent and replacing only that section otherwise — so each
/// bench binary owns one section of the shared artifact.
///
/// The merged document is written to a sibling temp file and renamed into
/// place, never rewritten in place: several bench binaries append to one
/// shared `BENCH_*.json`, and an in-place write that dies mid-stream
/// (panic, ^C, full disk) would truncate every section already collected.
/// With the rename, a failed merge leaves the previous contents intact.
pub fn merge_section(path: &Path, section: &str, records: Vec<Json>) {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .filter(|v| matches!(v, Json::Obj(_)))
        .unwrap_or_else(|| Json::Obj(vec![]));
    let mut sections = match doc.get("sections") {
        Some(s @ Json::Obj(_)) => s.clone(),
        _ => Json::Obj(vec![]),
    };
    sections.set(section, Json::Arr(records));
    doc.set("sections", sections);
    if let Err(e) = write_atomic(path, &doc.pretty()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_record_computes_throughput() {
        let t = Timing {
            min: 0.5,
            median: 2.0,
            mean: 2.1,
        };
        let rec = timing_record("case", &t, Some(10.0));
        assert_eq!(rec.get("ops_per_s"), Some(&Json::Num(5.0)));
        assert_eq!(rec.get("median_s"), Some(&Json::Num(2.0)));
        let plain = timing_record("case", &t, None);
        assert_eq!(plain.get("ops_per_s"), None);
    }

    #[test]
    fn merge_section_replaces_only_its_own_section() {
        let dir = std::env::temp_dir().join("qmldb_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("merge.json");
        let _ = std::fs::remove_file(&path);
        merge_section(&path, "a", vec![Json::Num(1.0)]);
        merge_section(&path, "b", vec![Json::Num(2.0)]);
        merge_section(&path, "a", vec![Json::Num(3.0)]);
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let sections = doc.get("sections").unwrap();
        assert_eq!(sections.get("a"), Some(&Json::Arr(vec![Json::Num(3.0)])));
        assert_eq!(sections.get("b"), Some(&Json::Arr(vec![Json::Num(2.0)])));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_merge_leaves_previous_contents_intact() {
        let dir = std::env::temp_dir().join("qmldb_json_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let _ = std::fs::remove_file(&path);
        merge_section(&path, "good", vec![Json::Num(7.0)]);
        let before = std::fs::read_to_string(&path).unwrap();

        // Sabotage the staging step: a directory squats on the exact temp
        // path `write_atomic` will use, so the temp write fails before the
        // rename. The artifact itself must never be touched — with the old
        // in-place `fs::write`, this scenario (or any mid-write death)
        // truncated it instead.
        let tmp = dir.join(format!("artifact.json.tmp.{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        merge_section(&path, "bad", vec![Json::Num(8.0)]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);

        std::fs::remove_dir(&tmp).unwrap();
        // And once the obstruction clears, merging works again.
        merge_section(&path, "bad", vec![Json::Num(8.0)]);
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let sections = doc.get("sections").unwrap();
        assert_eq!(sections.get("good"), Some(&Json::Arr(vec![Json::Num(7.0)])));
        assert_eq!(sections.get("bad"), Some(&Json::Arr(vec![Json::Num(8.0)])));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
