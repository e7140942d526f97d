//! `perfbench`: run one workload and print its metrics.
//!
//! ```text
//! perfbench --workload <attach_stream|ns_churn|pool_tier> [--seed N]
//!           [--seconds S] [--trace 0|1] [--steadiness K]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of timed replays;
//! with `--trace 1` the per-layer metrics of a traced run. The last
//! line of standard output is one JSON object. With `--steadiness K`
//! it runs itself K times on seeds `N, N+1, …` and prints each metric's
//! median, quartiles and max/min ratio, with the host recorded.
//! Any oracle or digest failure exits with a non-zero code.

use perfbench::run::{self, Metric};
use perfbench::{Layer, Scale, Site, Workload, DEFAULT_SEED};
use std::process::{Command, ExitCode};
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    steadiness: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut steadiness = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            "--steadiness" => steadiness = Some(num()? as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        steadiness,
    })
}

/// Plain run: timed replays for the whole budget.
fn plain(a: &Args) -> Result<(run::Replays, Vec<Metric>), String> {
    let r = run::replays(
        a.workload,
        Scale::Full,
        a.seed,
        Duration::from_secs(a.seconds),
        3,
    )?;
    let metrics = run::end_to_end(&r, run::peak_rss_mib());
    Ok((r, metrics))
}

/// Traced run: plain replays (the baseline and `ns.step_growth`), span
/// replays, then replays with the program's tracer enabled.
fn traced(a: &Args) -> Result<(run::Replays, Vec<Metric>), String> {
    let share = |f: f64| Duration::from_secs_f64(a.seconds as f64 * f);
    let (w, seed) = (a.workload, a.seed);
    let r = run::replays(w, Scale::Full, seed, share(0.45), 3)?;
    let spans = run::span_replay(w, Scale::Full, seed, &r, share(0.2))?;
    let tr = run::tracer_replays(w, Scale::Full, seed, &r, share(0.25))?;
    let probe = spans.probe();
    println!(
        "plain replay (min) {:.3} ms; span replay {:.3} ms ({:.3} ms without probes; probe {:.1} ns inside, {:.1} ns per span)",
        r.min_replay_ns as f64 / 1e6,
        spans.replay_ns() as f64 / 1e6,
        spans.corrected_replay_ns() as f64 / 1e6,
        probe.inside_ns,
        probe.total_ns
    );
    let total = spans.corrected_replay_ns() as f64;
    let mut by_layer: Vec<(Layer, u64)> = Vec::new();
    for &site in Site::ALL {
        let st = spans.corrected(site);
        if st.calls > 0 {
            println!(
                "  {:<20} {:>9} calls {:>10.3} ms self {:>6.2}%",
                site.name(),
                st.calls,
                st.self_ns as f64 / 1e6,
                100.0 * st.self_ns as f64 / total
            );
            match by_layer.iter_mut().find(|(l, _)| *l == site.layer()) {
                Some((_, ns)) => *ns += st.self_ns,
                None => by_layer.push((site.layer(), st.self_ns)),
            }
        }
    }
    for (layer, ns) in by_layer {
        println!(
            "  layer {:<14} {:>10.3} ms self {:>6.2}%",
            format!("{layer:?}"),
            ns as f64 / 1e6,
            100.0 * ns as f64 / total
        );
    }
    Ok((r.clone(), run::per_layer(a.workload, &r, &spans, &tr)))
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn host() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={} cpu=\"{cpu}\"",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )
}

/// Run this program `k` times and summarise each metric's spread.
fn steadiness(a: &Args, k: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples: Vec<(String, String, Vec<f64>)> = Vec::new();
    println!("host: {}", host());
    for i in 0..k {
        let seed = a.seed + i as u64;
        let out = Command::new(&exe)
            .args(["--workload", a.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("run {i} (seed {seed}) failed: {}", out.status));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() == 4 && f[0] == "metric" {
                let v: f64 = f[2].parse().map_err(|_| format!("bad line {line}"))?;
                match samples.iter_mut().find(|s| s.0 == f[1]) {
                    Some(s) => s.2.push(v),
                    None => samples.push((f[1].into(), f[3].into(), vec![v])),
                }
            }
        }
        println!("run {i} seed {seed} done");
    }
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>9} {:>9}  unit",
        "metric", "q1", "median", "q3", "iqr/med", "max/min"
    );
    for (name, unit, v) in &samples {
        let scaled: Vec<u64> = v.iter().map(|x| (x * 1e6).round() as u64).collect();
        let q = |p| run::quantile(&scaled, p) / 1e6;
        let (q1, med, q3) = (q(0.25), q(0.5), q(0.75));
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        println!(
            "{name:<28} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>9.4} {:>9.4}  {unit}",
            (q3 - q1) / med,
            hi / lo
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = a.steadiness {
        return match steadiness(&a, k) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if a.trace { traced(&a) } else { plain(&a) };
    match result {
        Ok((r, metrics)) => {
            println!(
                "workload {} seed {} replays {} steps/replay {} ops/replay {} digest {:016x}",
                a.workload.name(),
                a.seed,
                r.replays,
                r.minima.len(),
                r.attempted,
                r.digest
            );
            println!("host: {}", host());
            for m in &metrics {
                println!("metric {} {} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                json(true, r.attempted * r.replays as u64, 0, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", a.workload.name(), a.seed);
            ExitCode::FAILURE
        }
    }
}
