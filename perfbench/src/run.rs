//! The measurement driver: repeated replays, the per-step-minimum
//! estimator, and the end-to-end and per-layer metrics.

use crate::{Layer, Meter, Outcome, Scale, Site, Workload};
use std::time::{Duration, Instant};

const MIB: f64 = (1u64 << 20) as f64;

/// Timed replays of one seed.
#[derive(Debug, Clone)]
pub struct Replays {
    /// The schedule size replayed.
    pub scale: Scale,
    /// Replays run.
    pub replays: usize,
    /// Per-step minimum host nanoseconds across the replays.
    pub minima: Vec<u64>,
    /// Shortest timed region of any replay (sum of its steps).
    pub min_replay_ns: u64,
    /// Shortest set-up of any replay.
    pub setup_min_ns: u64,
    /// Shortest `SystemBuilder::build` of any replay.
    pub build_min_ns: u64,
    /// Shortest mean set-up spawn of any replay.
    pub spawn_min_ns: u64,
    /// Ops attempted per replay, inside the timed region.
    pub attempted: u64,
    /// Ops that succeeded per replay.
    pub ok: u64,
    /// The replay digest (equal across replays, or this is an error).
    pub digest: u64,
    /// The first replay's program counters.
    pub outcome: Outcome,
}

/// Run plain replays of `seed` until `budget` has passed and at least
/// `min_replays` are done, keeping each step's minimum. Fails on an
/// oracle failure, an unexpected op failure, or replays that differ
/// (digest, step count, op counts).
pub fn replays(
    w: Workload,
    scale: Scale,
    seed: u64,
    budget: Duration,
    min_replays: usize,
) -> Result<Replays, String> {
    let start = Instant::now();
    let mut acc: Option<Replays> = None;
    while acc
        .as_ref()
        .is_none_or(|r| r.replays < min_replays || start.elapsed() < budget)
    {
        let mut m = Meter::new(false);
        let outcome = w.replay(scale, seed, &mut m, false)?;
        check_clean(&m)?;
        let steps = m.step_ns();
        let setup = outcome.setup;
        let spawn_mean = setup.spawn_ns / setup.spawns.max(1);
        match acc.as_mut() {
            None => {
                acc = Some(Replays {
                    scale,
                    replays: 1,
                    minima: steps,
                    min_replay_ns: m.replay_ns(),
                    setup_min_ns: setup.total_ns,
                    build_min_ns: setup.build_ns,
                    spawn_min_ns: spawn_mean,
                    attempted: m.attempted(),
                    ok: m.ok(),
                    digest: m.digest(),
                    outcome,
                })
            }
            Some(r) => {
                if m.digest() != r.digest
                    || steps.len() != r.minima.len()
                    || m.attempted() != r.attempted
                    || m.ok() != r.ok
                {
                    return Err(format!(
                        "replay {} diverged: digest {:016x} vs {:016x}, {} vs {} steps",
                        r.replays,
                        m.digest(),
                        r.digest,
                        steps.len(),
                        r.minima.len()
                    ));
                }
                for (min, s) in r.minima.iter_mut().zip(steps) {
                    *min = (*min).min(s);
                }
                r.replays += 1;
                r.min_replay_ns = r.min_replay_ns.min(m.replay_ns());
                r.setup_min_ns = r.setup_min_ns.min(setup.total_ns);
                r.build_min_ns = r.build_min_ns.min(setup.build_ns);
                r.spawn_min_ns = r.spawn_min_ns.min(spawn_mean);
            }
        }
    }
    Ok(acc.expect("at least one replay"))
}

fn check_clean(m: &Meter) -> Result<(), String> {
    if m.unexpected() > 0 {
        return Err(format!(
            "{} unexpected op failures, first: {}",
            m.unexpected(),
            m.first_unexpected().unwrap_or("?")
        ));
    }
    if !m.balanced() {
        return Err("unbalanced spans".into());
    }
    Ok(())
}

/// Linear-interpolation quantile of an unsorted sample, `q` in [0, 1].
pub fn quantile(xs: &[u64], q: f64) -> f64 {
    let mut v: Vec<u64> = xs.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] as f64 + (v[hi] as f64 - v[lo] as f64) * (pos - lo as f64)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The six end-to-end metrics, from the per-step minima.
pub fn end_to_end(r: &Replays, peak_rss_mib: f64) -> Vec<Metric> {
    let sum_s = r.minima.iter().sum::<u64>() as f64 / 1e9;
    vec![
        metric("ops_per_s", r.attempted as f64 / sum_s, "1/s"),
        metric("step_p50_ms", quantile(&r.minima, 0.50) / 1e6, "ms"),
        metric("step_p99_ms", quantile(&r.minima, 0.99) / 1e6, "ms"),
        metric("setup_s", r.setup_min_ns as f64 / 1e9, "s"),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
        metric(
            "ok_op_ratio",
            r.ok as f64 / r.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Within each of `units` equal runs of `xs`, the last tenth's steps
/// over its first tenth's, summed across units.
fn growth(xs: &[u64], units: usize) -> f64 {
    let per = xs.len() / units.max(1);
    let k = (per / 10).max(1);
    let (mut first, mut last) = (0u64, 0u64);
    for u in xs.chunks(per.max(1)) {
        first += u[..k.min(u.len())].iter().sum::<u64>();
        last += u[u.len().saturating_sub(k)..].iter().sum::<u64>();
    }
    last as f64 / first as f64
}

/// What the program's own tracer reported over enabled replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracerRun {
    /// Shortest timed region with the tracer enabled.
    pub min_replay_ns: u64,
    /// Shortest conservation-audit time of a replay.
    pub audit_ns: u64,
    /// Most spans and edges any replay lost to ring wrap-around.
    pub lost: u64,
}

/// Replays with the program's tracer enabled until `budget` has passed
/// (at least two): each must reproduce the plain digest and pass the
/// conservation audit.
pub fn tracer_replays(
    w: Workload,
    scale: Scale,
    seed: u64,
    plain: &Replays,
    budget: Duration,
) -> Result<TracerRun, String> {
    let start = Instant::now();
    let mut out = TracerRun {
        min_replay_ns: u64::MAX,
        audit_ns: u64::MAX,
        lost: 0,
    };
    let mut n = 0;
    while n < 2 || start.elapsed() < budget {
        let mut m = Meter::new(false);
        let o = w.replay(scale, seed, &mut m, true)?;
        check_clean(&m)?;
        if m.digest() != plain.digest {
            return Err(format!(
                "enabling the tracer changed the simulation: digest {:016x} vs {:016x}",
                m.digest(),
                plain.digest
            ));
        }
        out.min_replay_ns = out.min_replay_ns.min(m.replay_ns());
        out.audit_ns = out.audit_ns.min(o.trace.audit_ns);
        out.lost = out.lost.max(o.trace.lost);
        n += 1;
    }
    Ok(out)
}

/// Replays with benchmark-side spans around every public call until
/// `budget` has passed (at least one). Returns the fastest, the one
/// the host disturbed least.
pub fn span_replay(
    w: Workload,
    scale: Scale,
    seed: u64,
    plain: &Replays,
    budget: Duration,
) -> Result<Meter, String> {
    let start = Instant::now();
    let mut best: Option<Meter> = None;
    while best.is_none() || start.elapsed() < budget {
        let mut m = Meter::new(true);
        w.replay(scale, seed, &mut m, false)?;
        check_clean(&m)?;
        if m.digest() != plain.digest {
            return Err("a span replay diverged from the plain replays".into());
        }
        if best
            .as_ref()
            .is_none_or(|b| m.corrected_replay_ns() < b.corrected_replay_ns())
        {
            best = Some(m);
        }
    }
    Ok(best.expect("at least one span replay"))
}

/// Share of the span replay's timed region that program layers' self
/// times cover (the benchmark's own driver code is the rest), both with
/// the probe cost taken out.
fn coverage(m: &Meter) -> f64 {
    let covered: u64 = Site::ALL
        .iter()
        .filter(|s| s.layer() != Layer::Bench)
        .map(|&s| m.corrected(s).self_ns)
        .sum();
    covered as f64 / m.corrected_replay_ns() as f64
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// bypasses read 0.
pub fn per_layer(w: Workload, plain: &Replays, spans: &Meter, tr: &TracerRun) -> Vec<Metric> {
    let s = |site: Site| spans.corrected(site);
    let per_mib = |site: Site| {
        let st = s(site);
        st.ns as f64 / 1e3 / (st.units as f64 / MIB)
    };
    let mean_ns = |site: Site| {
        let st = s(site);
        st.ns as f64 / st.calls as f64
    };
    let per_kib = |site: Site| {
        let st = s(site);
        st.ns as f64 / (st.units as f64 / 1024.0)
    };
    let c = plain.outcome.counters;
    let pdes = c.pdes.unwrap_or_default();
    let pdes_self = s(Site::Pdes).self_ns as f64 / spans.corrected_replay_ns() as f64;
    let growth = if w == Workload::NsChurn {
        growth(&plain.minima, w.units(plain.scale))
    } else {
        0.0
    };
    vec![
        metric("fwk.attach_us_per_mib", per_mib(Site::AttachFwk), "us/MiB"),
        metric(
            "kitten.attach_us_per_mib",
            per_mib(Site::AttachKitten),
            "us/MiB",
        ),
        metric(
            "palacios.attach_us_per_mib",
            per_mib(Site::AttachVm),
            "us/MiB",
        ),
        metric("fwk.detach_us_per_mib", per_mib(Site::DetachFwk), "us/MiB"),
        metric(
            "kitten.detach_us_per_mib",
            per_mib(Site::DetachKitten),
            "us/MiB",
        ),
        metric(
            "palacios.detach_us_per_mib",
            per_mib(Site::DetachVm),
            "us/MiB",
        ),
        metric("fwk.make_us_per_mib", per_mib(Site::MakeFwk), "us/MiB"),
        metric("core.get_us", mean_ns(Site::Get) / 1e3, "us"),
        metric("core.release_us", mean_ns(Site::Release) / 1e3, "us"),
        metric("core.remove_us", mean_ns(Site::Remove) / 1e3, "us"),
        metric("core.crash_us", mean_ns(Site::Crash) / 1e3, "us"),
        metric("mem.read_ns_per_kib", per_kib(Site::Read), "ns/KiB"),
        metric("mem.write_ns_per_kib", per_kib(Site::Write), "ns/KiB"),
        metric("ns.search_us", mean_ns(Site::Search) / 1e3, "us"),
        metric("ns.get_us", mean_ns(Site::NsGet) / 1e3, "us"),
        metric("ns.make_us", mean_ns(Site::NsMake) / 1e3, "us"),
        metric("ns.remove_us", mean_ns(Site::NsRemove) / 1e3, "us"),
        metric("ns.failed_ops", c.ns_failed as f64, "count"),
        metric("ns.failovers", c.failovers as f64, "count"),
        metric("ns.step_growth", growth, "ratio"),
        metric("pdes.windows", pdes.windows as f64, "count"),
        metric("pdes.events", pdes.events as f64, "count"),
        metric("pdes.self_share", pdes_self, "ratio"),
        metric("pool.acquire_ns", mean_ns(Site::PoolAcquire), "ns"),
        metric("pool.publish_ns", mean_ns(Site::PoolPublish), "ns"),
        metric("pool.consume_ns", mean_ns(Site::PoolConsume), "ns"),
        metric("pool.release_ns", mean_ns(Site::PoolRelease), "ns"),
        metric("pool.sweep_us", mean_ns(Site::PoolSweep) / 1e3, "us"),
        metric(
            "pool.useful_ratio",
            c.consumes as f64 / c.publish_attempts as f64,
            "ratio",
        ),
        metric("tier.tick_us", mean_ns(Site::TierTick) / 1e3, "us"),
        metric("tier.migrate_us_per_mib", per_mib(Site::TierTick), "us/MiB"),
        metric("tier.moves", c.tier_moves as f64, "count"),
        metric("tier.deferred", c.tier_deferred as f64, "count"),
        metric("setup.build_ms", plain.build_min_ns as f64 / 1e6, "ms"),
        metric("setup.spawn_us", plain.spawn_min_ns as f64 / 1e3, "us"),
        metric(
            "trace.overhead_ratio",
            tr.min_replay_ns as f64 / plain.min_replay_ns as f64,
            "ratio",
        ),
        metric("trace.audit_ms", tr.audit_ns as f64 / 1e6, "ms"),
        metric("trace.ring_lost", tr.lost as f64, "count"),
        metric("layers.self_coverage", coverage(spans), "ratio"),
    ]
}
