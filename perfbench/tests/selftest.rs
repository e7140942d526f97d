//! Self-tests of the benchmark at tiny sizes: the estimator's inputs
//! are sound (steps tile each replay, replays are bit-identical), the
//! printed metrics match `BENCHMARK.json`, and the serial engine never
//! spawns threads.

use perfbench::run::{self, Metric};
use perfbench::{Meter, Scale, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use std::time::Duration;

fn tiny_replay(w: Workload, seed: u64) -> (Meter, perfbench::Outcome) {
    let mut m = Meter::new(false);
    let out = w
        .replay(Scale::Tiny, seed, &mut m, false)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    (m, out)
}

#[test]
fn steps_tile_each_replay() {
    for w in Workload::ALL {
        assert!(
            w.steps(Scale::Full) >= 1000,
            "{}: p99 needs at least 10 steps beyond it",
            w.name()
        );
        let (m, _) = tiny_replay(w, DEFAULT_SEED);
        let steps = m.step_ns();
        assert_eq!(steps.len(), w.steps(Scale::Tiny), "{}", w.name());
        assert_eq!(steps.iter().sum::<u64>(), m.replay_ns(), "{}", w.name());
        assert!(steps.iter().all(|&s| s > 0), "{}: empty step", w.name());
        assert!(m.attempted() > 0 && m.unexpected() == 0, "{}", w.name());
    }
}

#[test]
fn replay_digests_are_equal() {
    for w in Workload::ALL {
        let (a, _) = tiny_replay(w, DEFAULT_SEED);
        let (b, _) = tiny_replay(w, DEFAULT_SEED);
        let (c, _) = tiny_replay(w, HELD_OUT_SEED);
        assert_eq!(a.digest(), b.digest(), "{}: same seed diverged", w.name());
        assert_eq!(a.ok(), b.ok(), "{}", w.name());
        assert_ne!(a.digest(), c.digest(), "{}: seed ignored", w.name());
    }
}

#[test]
fn serial_engine_spawns_no_threads() {
    let (_, out) = tiny_replay(Workload::NsChurn, DEFAULT_SEED);
    let stats = out.counters.pdes.expect("ns_churn runs on the engine");
    assert_eq!(stats.threaded_windows, 0);
    assert!(stats.events > 0);
    for w in [Workload::AttachStream, Workload::PoolTier] {
        assert!(tiny_replay(w, DEFAULT_SEED).1.counters.pdes.is_none());
    }
}

/// `(name, unit)` of every metric entry in one section of
/// `BENCHMARK.json` (one entry per line there).
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
        line[at..at + line[at..].find('"').expect("closing quote")].to_string()
    };
    body[..end]
        .lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    for w in Workload::ALL {
        let r = run::replays(w, Scale::Tiny, DEFAULT_SEED, Duration::ZERO, 2).expect("replays");
        assert_eq!(
            printed(&run::end_to_end(&r, run::peak_rss_mib())),
            declared("end_to_end"),
            "{}",
            w.name()
        );
        let spans = run::span_replay(w, Scale::Tiny, DEFAULT_SEED, &r, Duration::ZERO)
            .expect("span replay");
        let tr = run::tracer_replays(w, Scale::Tiny, DEFAULT_SEED, &r, Duration::ZERO)
            .expect("tracer replays");
        assert_eq!(tr.lost, 0, "{}: trace ring wrapped", w.name());
        assert_eq!(
            printed(&run::per_layer(w, &r, &spans, &tr)),
            declared("per_layer"),
            "{}",
            w.name()
        );
    }
}
