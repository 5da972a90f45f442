//! End-to-end test of `reproduce --json-out`: the emitted JSONL must be
//! valid, its per-spec concept counts must agree with what cable-fca
//! computes directly on the same prepared contexts, and its profile must
//! count every span its histograms count.

use cable_fca::ConceptLattice;
use cable_obs::json::Value;
use cable_obs::parse_jsonl;
use std::collections::BTreeMap;
use std::process::Command;

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::Number(n) => *n as u64,
        other => panic!("expected a number, got {other:?}"),
    }
}

#[test]
fn reproduce_table2_json_matches_direct_fca() {
    let seed = 2003u64;
    let out = std::env::temp_dir().join(format!("cable-bench-json-{}.jsonl", std::process::id()));
    // One worker: every span lands on the main thread's lane, the one
    // that fills first. The concept counts hold at any pool size.
    let status = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["table2", "--seed", "2003", "--json-out"])
        .arg(&out)
        .env("CABLE_PAR", "1")
        .output()
        .expect("running reproduce");
    assert!(
        status.status.success(),
        "reproduce failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("reading the JSONL output");
    let _ = std::fs::remove_file(&out);

    let records = parse_jsonl(&text).expect("every line parses as JSON");
    assert!(!records.is_empty());

    // Split the stream: per-spec records, then the final whole-registry
    // snapshot.
    let mut per_spec: BTreeMap<String, &Value> = BTreeMap::new();
    let mut snapshots = Vec::new();
    for r in &records {
        match r.get("record").expect("tagged record") {
            Value::String(s) if s == "table2_spec" => {
                let name = match r.get("spec").expect("spec name") {
                    Value::String(n) => n.clone(),
                    other => panic!("spec name not a string: {other:?}"),
                };
                per_spec.insert(name, r);
            }
            Value::String(s) if s == "pipeline_snapshot" => snapshots.push(r),
            other => panic!("unknown record tag {other:?}"),
        }
    }
    assert_eq!(snapshots.len(), 1, "exactly one final snapshot record");

    // The flight recorder kept the whole run: nothing was overwritten,
    // and the profile counts every lattice build the histogram counts.
    let snapshot = snapshots[0];
    let counters = snapshot.get("snapshot").and_then(|s| s.get("counters"));
    assert_eq!(
        counters.and_then(|c| c.get("obs.recorder.dropped")),
        None,
        "the recorder dropped records"
    );
    let histogram_builds = snapshot
        .get("snapshot")
        .and_then(|s| s.get("histograms"))
        .and_then(|h| h.get("fca.lattice.build_ns"))
        .and_then(|h| h.get("count"))
        .map(as_u64)
        .expect("fca.lattice.build_ns histogram");
    let profile_builds = snapshot
        .get("profile")
        .and_then(Value::as_array)
        .expect("profile array")
        .iter()
        .find(|row| row.get("name").and_then(Value::as_str) == Some("fca.lattice.build"))
        .and_then(|row| row.get("count"))
        .map(as_u64)
        .expect("fca.lattice.build profile row");
    assert_eq!(profile_builds, histogram_builds);

    // Every registered spec appears, and its reported concept count is
    // what building the lattice with cable-fca gives on the same
    // prepared context.
    let registry = cable_specs::registry();
    for spec in registry.iter() {
        let record = per_spec
            .get(spec.name())
            .unwrap_or_else(|| panic!("missing record for {}", spec.name()));
        let reported = as_u64(record.get("concepts").expect("concepts field"));
        let prepared = cable_bench::prepare(spec, seed);
        let direct = ConceptLattice::build(prepared.session.context()).len() as u64;
        assert_eq!(
            reported,
            direct,
            "{}: JSON says {reported} concepts, cable-fca builds {direct}",
            spec.name()
        );
        // The embedded obs delta is a snapshot object with counters.
        let obs = record.get("obs").expect("obs delta");
        assert!(obs.get("counters").is_some());
        // Preparing a spec inserts its trace classes into the lattice, so
        // the Godin insertion counter must be at least the class count.
        let inserted = obs
            .get("counters")
            .and_then(|c| c.get("fca.godin.objects_inserted"))
            .map(as_u64)
            .unwrap_or(0);
        assert!(
            inserted >= prepared.session.classes().len() as u64,
            "{}: {} insertions for {} classes",
            spec.name(),
            inserted,
            prepared.session.classes().len()
        );
    }
}
