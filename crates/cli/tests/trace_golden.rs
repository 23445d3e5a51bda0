//! Golden tests for the machine-readable surfaces:
//!
//! * the JSONL trace schema is stable across `--jobs` values (field names,
//!   field types, the set of span names, and every deterministic counter
//!   are identical for 1 worker and N workers — only wall-clock gauges and
//!   per-worker task splits may differ), and
//! * the `--format json` output shapes are pinned by field name.
//!
//! The observability recorder is process-global, so every test here
//! serialises on [`obs_lock`]: a `plan` run on another test thread would
//! open its spans inside a `profile` trace and leave them unclosed there.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use tiling3d_cli::run_argv;
use tiling3d_obs::json::{self, Json};
use tiling3d_obs::validate::{check_trace_str, parse_schema, TraceReport};
use tiling3d_obs::GOLDEN_SCHEMA;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn run(args: &[&str]) -> Result<String, String> {
    let raw: Vec<String> = args.iter().map(ToString::to_string).collect();
    run_argv(&raw)
}

/// Runs `profile` with a JSONL trace file and returns (stdout rendering,
/// trace text, validation report).
fn profile_trace(jobs: usize) -> (String, String, TraceReport) {
    let path =
        std::env::temp_dir().join(format!("t3d-golden-{}-j{jobs}.jsonl", std::process::id()));
    let out = run(&[
        "profile",
        "--kernel",
        "jacobi",
        "--n",
        "48",
        "--nk",
        "6",
        "--jobs",
        &jobs.to_string(),
        "--trace-out",
        path.to_str().unwrap(),
    ])
    .expect("profile succeeds");
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let golden = parse_schema(GOLDEN_SCHEMA).expect("golden schema parses");
    let report = check_trace_str(&trace, &golden);
    (out, trace, report)
}

/// Deterministic counters from the trace's shutdown `metric` events
/// (gauges are wall-clock and excluded by design).
fn counters(trace: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in trace.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).expect("trace line parses");
        if v.get("ev").and_then(Json::as_str) == Some("metric")
            && v.get("kind").and_then(Json::as_str) == Some("counter")
        {
            out.insert(
                v.get("name").and_then(Json::as_str).unwrap().to_string(),
                v.get("value").and_then(Json::as_f64).unwrap(),
            );
        }
    }
    out
}

#[test]
fn profile_trace_is_valid_and_jobs_invariant() {
    let _g = obs_lock();
    let (out1, trace1, report1) = profile_trace(1);
    let (out4, trace4, report4) = profile_trace(4);

    // Both traces parse, balance their spans, and match the golden schema.
    assert!(report1.is_ok(), "jobs=1: {}", report1.summary());
    assert!(report4.is_ok(), "jobs=4: {}", report4.summary());

    // Field names and types are identical across worker counts.
    assert_eq!(report1.schema, report4.schema, "schema drift across --jobs");

    // The *set* of span names is jobs-invariant (workers are all named
    // "worker", never worker-N).
    assert_eq!(report1.span_names, report4.span_names);
    for name in [
        "pool",
        "worker",
        "sweep:JACOBI",
        "plan:GcdPad",
        "compute:JACOBI:row",
        "compute:JACOBI:lane",
    ] {
        assert!(
            report1.span_names.contains(name),
            "missing span '{name}' in {:?}",
            report1.span_names
        );
    }
    assert!(
        report1
            .span_names
            .iter()
            .any(|n| n.starts_with("simulate:JACOBI:")),
        "{:?}",
        report1.span_names
    );

    // Deterministic counters are bit-identical; the simulation itself is
    // jobs-invariant, so the folded cache statistics must be too.
    let (c1, c4) = (counters(&trace1), counters(&trace4));
    assert!(!c1.is_empty(), "no counter metrics in trace");
    assert_eq!(c1, c4, "counter snapshot differs across --jobs");
    for key in [
        "plan.calls",
        "cachesim.l1.accesses",
        "cachesim.row.points",
        "cachesim.row.points_exact",
        "sim.accesses",
    ] {
        assert!(c1.contains_key(key), "missing counter {key} in {c1:?}");
    }

    // The human rendering shows the tree with per-phase percentages and
    // per-worker spans under the pool.
    for out in [&out1, &out4] {
        assert!(out.contains("span tree"), "{out}");
        assert!(out.contains('%'), "{out}");
        assert!(out.contains("worker"), "{out}");
        assert!(out.contains("metrics:"), "{out}");
    }
}

#[test]
fn profile_steps_emits_the_timetile_span_tree() {
    let _g = obs_lock();
    let path = std::env::temp_dir().join(format!("t3d-timetile-{}.jsonl", std::process::id()));
    // --jobs 2 forces the wavefront-parallel path; the sequential path
    // runs time blocks inline and never opens a "wavefront" span.
    let out = run(&[
        "profile",
        "--kernel",
        "jacobi",
        "--n",
        "16",
        "--nk",
        "8",
        "--steps",
        "4",
        "--jobs",
        "2",
        "--trace-out",
        path.to_str().unwrap(),
    ])
    .expect("profile --steps succeeds");
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();

    for name in ["timetile:jacobi", "wavefront", "timeblock"] {
        assert!(out.contains(name), "missing span '{name}' in:\n{out}");
    }
    let golden = parse_schema(GOLDEN_SCHEMA).expect("golden schema parses");
    let report = check_trace_str(&trace, &golden);
    assert!(report.is_ok(), "{}", report.summary());
    // The wavefront spans nest under the temporal root, and the engine
    // records its configured step count.
    for name in ["timetile:jacobi", "wavefront", "timeblock"] {
        assert!(report.span_names.contains(name), "{:?}", report.span_names);
    }
    // The engine annotates the root span with its configured step count.
    assert!(out.contains("steps=4"), "{out}");
}

#[test]
fn trace_check_accepts_a_fresh_profile_trace() {
    let _g = obs_lock();
    let path = std::env::temp_dir().join(format!("t3d-check-{}.jsonl", std::process::id()));
    run(&[
        "profile",
        "--kernel",
        "jacobi",
        "--n",
        "32",
        "--nk",
        "4",
        "--jobs",
        "2",
        "--trace-out",
        path.to_str().unwrap(),
    ])
    .expect("profile succeeds");
    let ok = run(&["trace-check", path.to_str().unwrap()]).expect("trace validates");
    assert!(ok.contains("span_open"), "{ok}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn plan_json_shape_is_pinned() {
    let _g = obs_lock();
    let out = run(&["plan", "--dims", "200x200", "--format", "json"]).unwrap();
    let doc = json::parse(&out).unwrap();
    let keys: Vec<&str> = match &doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected object, got {other:?}"),
    };
    assert_eq!(
        keys,
        ["ev", "stencil", "di", "dj", "cache_elements", "plans"]
    );
    let Some(Json::Arr(plans)) = doc.get("plans") else {
        panic!("plans must be an array");
    };
    for p in plans {
        let keys: Vec<&str> = match p {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected object, got {other:?}"),
        };
        assert_eq!(
            keys,
            ["transform", "tile", "padded_di", "padded_dj", "cost"]
        );
    }
}

/// One schema, two transports: every `--format json` payload the CLI can
/// emit must validate against the same golden wire schema that governs the
/// `tiling3d serve` protocol (`crates/core/api.schema.golden`).
#[test]
fn cli_json_outputs_match_the_api_golden_schema() {
    let _g = obs_lock();
    let outputs = [
        run(&["plan", "--dims", "96x96", "--format", "json"]).unwrap(),
        run(&[
            "plan", "--dims", "96x96", "--steps", "4", "--format", "json",
        ])
        .unwrap(),
        run(&[
            "advise",
            "--stencil",
            "jacobi3d",
            "--n",
            "300",
            "--format",
            "json",
        ])
        .unwrap(),
        run(&[
            "advise",
            "--stencil",
            "jacobi2d",
            "--n",
            "100",
            "--format",
            "json",
        ])
        .unwrap(),
        run(&["analyze", "--kernel", "jacobi", "--format", "json"]).unwrap(),
        run(&[
            "analyze",
            "--kernel",
            "jacobi",
            "--temporal",
            "--format",
            "json",
        ])
        .unwrap(),
        run(&[
            "analyze",
            "--kernel",
            "jacobi",
            "--locality",
            "--n",
            "64",
            "--nk",
            "8",
            "--format",
            "json",
        ])
        .unwrap(),
    ];
    // Each output is one newline-terminated JSON object, so the
    // concatenation is a valid JSONL trace for the schema engine.
    let trace: String = outputs.concat();
    let golden = parse_schema(tiling3d_core::api::GOLDEN_SCHEMA).expect("api golden schema parses");
    let report = check_trace_str(&trace, &golden);
    assert!(report.is_ok(), "{}", report.summary());
    for kind in [
        "plan_response",
        "advise_response",
        "legality_response",
        "temporal_legality_response",
        "locality_response",
    ] {
        assert!(
            report.events_by_kind.contains_key(kind),
            "missing payload kind {kind}: {:?}",
            report.events_by_kind
        );
    }
}

#[test]
fn tiles_and_advise_json_shapes_are_pinned() {
    let _g = obs_lock();
    let out = run(&["tiles", "--format", "json"]).unwrap();
    let doc = json::parse(&out).unwrap();
    for key in ["di", "dj", "cache_elements", "tiles"] {
        assert!(doc.get(key).is_some(), "tiles json missing {key}: {out}");
    }
    let out = run(&[
        "advise",
        "--stencil",
        "jacobi3d",
        "--n",
        "300",
        "--format",
        "json",
    ])
    .unwrap();
    let doc = json::parse(&out).unwrap();
    for key in [
        "stencil",
        "n",
        "reuse_bound",
        "verdict",
        "reuse_distance_elements",
    ] {
        assert!(doc.get(key).is_some(), "advise json missing {key}: {out}");
    }
    let out = run(&["analyze", "--kernel", "jacobi", "--format", "json"]).unwrap();
    let doc = json::parse(&out).unwrap();
    assert!(
        matches!(doc.get("all_legal"), Some(Json::Bool(true))),
        "{out}"
    );
    let Some(Json::Arr(schedules)) = doc.get("schedules") else {
        panic!("schedules must be an array: {out}");
    };
    assert_eq!(schedules.len(), 6);
    for s in schedules {
        for key in ["transform", "tile", "skewed", "legal"] {
            assert!(s.get(key).is_some(), "schedule missing {key}: {out}");
        }
    }
}
