//! Nearest-rank percentiles, the "ten samples beyond" reporting rule,
//! and `failed_ratio` / `ok_ratio` counting.

use perfbench::report::{self, Report, END_TO_END};
use perfbench::stats::{self, Tally};

#[test]
fn nearest_rank_picks_the_smallest_sample_covering_p() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::nearest_rank(&v, 50.0), Some(5.0));
    assert_eq!(stats::nearest_rank(&v, 51.0), Some(6.0));
    assert_eq!(stats::nearest_rank(&v, 90.0), Some(9.0));
    assert_eq!(stats::nearest_rank(&v, 100.0), Some(10.0));
    assert_eq!(stats::nearest_rank(&v, 1.0), Some(1.0));
    assert_eq!(stats::nearest_rank(&[], 50.0), None);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_its_rank() {
    // p99 of 1000 samples is rank 990: exactly 10 beyond.
    assert!(stats::reportable(1000, 99.0));
    assert!(!stats::reportable(999, 99.0));
    // p90 of 100 samples is rank 90: 10 beyond.
    assert!(stats::reportable(100, 90.0));
    assert!(!stats::reportable(99, 90.0));
    assert!(!stats::reportable(0, 50.0));
    assert_eq!(
        stats::highest_reportable(500, &[90.0, 99.0, 99.9]),
        Some(90.0)
    );
    assert_eq!(
        stats::highest_reportable(20_000, &[90.0, 99.0, 99.9]),
        Some(99.9)
    );
    assert_eq!(stats::highest_reportable(50, &[90.0, 99.0]), None);
}

#[test]
fn loglog_slope_recovers_a_power_law() {
    let points: Vec<(f64, f64)> = (1..=8)
        .map(|i| (f64::from(i) * 100.0, (f64::from(i) * 100.0).powf(1.5)))
        .collect();
    assert!((stats::loglog_slope(&points) - 1.5).abs() < 1e-9);
    assert_eq!(stats::loglog_slope(&[(1.0, 1.0)]), 0.0);
}

#[test]
fn failed_ratio_counts_failed_ops_and_checks_against_attempts() {
    let mut t = Tally::default();
    assert_eq!((t.failed_ratio(), t.ok_ratio()), (0.0, 1.0));
    for i in 0..8 {
        t.record(i != 3, || format!("op {i}"));
    }
    t.check_eq("digest", "a", "a");
    t.check_eq("digest", "a", "b");
    assert_eq!((t.attempted, t.failed), (10, 2));
    assert!((t.failed_ratio() - 0.2).abs() < 1e-12);
    assert!((t.ok_ratio() - 0.8).abs() < 1e-12);
    assert_eq!(t.failures[0], "op 3");
    assert!(t.failures[1].contains("\"a\"") && t.failures[1].contains("\"b\""));

    let mut total = Tally::default();
    total.record(true, String::new);
    total.merge(t);
    assert_eq!((total.attempted, total.failed), (11, 2));
}

#[test]
fn the_result_line_carries_exactly_the_contract_keys() {
    let mut tally = Tally::default();
    tally.record(false, || "boom".into());
    tally.record(true, String::new);
    let mut r = Report::default();
    r.set("wall_s", 1.25, 40);
    r.set("ok_ratio", tally.ok_ratio(), 2);
    let out = report::render(&r, END_TO_END, &tally);
    let last = out.lines().last().unwrap();
    let v = cable_obs::json::Value::parse(last).unwrap();
    assert_eq!(v.get("correct"), Some(&cable_obs::json::Value::Bool(false)));
    assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(2));
    assert_eq!(v.get("failed").and_then(|x| x.as_u64()), Some(1));
    let metrics = v.get("metrics").unwrap();
    for (name, unit) in END_TO_END {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
    }
    assert_eq!(
        metrics
            .get("wall_s")
            .and_then(|m| m.get("value"))
            .and_then(|x| x.as_f64()),
        Some(1.25)
    );
    assert!(out.contains("# metric wall_s = 1.25 s (n=40)"));
    assert!(out.contains("# failure boom"));
}
