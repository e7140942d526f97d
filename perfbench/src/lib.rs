//! Host-time benchmark of the XEMEM simulator.
//!
//! Each workload replays one seeded op schedule several times through
//! the public `xemem`, `xemem-pool` and `xemem_sim::pdes` APIs, on one
//! thread. [`Meter`] stamps every step boundary, so the steps tile the
//! replay; the end-to-end metrics come from the per-step minimum across
//! replays ([`run::replays`]). See `README.md` for why.

mod attach_stream;
mod meter;
mod ns_churn;
mod pool_tier;
pub mod run;

pub use meter::{outcome_code, span_clock, Layer, Meter, Probe, Site, SiteStat};

use std::time::Instant;
use xemem::{System, TraceHandle, XememError};
use xemem_sim::PdesStats;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x5EED_0001;
/// Seed kept out of tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 0x5EED_0B0E;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full attach lifecycles across Linux, Kitten and Palacios.
    AttachStream,
    /// Sharded name-service churn under faults, on the PDES grid.
    NsChurn,
    /// Buffer-pool exchange over in-place mappings, with tier moves.
    PoolTier,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AttachStream,
        Workload::NsChurn,
        Workload::PoolTier,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AttachStream => "attach_stream",
            Workload::NsChurn => "ns_churn",
            Workload::PoolTier => "pool_tier",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Steps per replay at `scale`.
    pub fn steps(self, scale: Scale) -> usize {
        match self {
            Workload::AttachStream => attach_stream::steps(scale),
            Workload::NsChurn => ns_churn::steps(scale),
            Workload::PoolTier => pool_tier::steps(scale),
        }
    }

    /// Independent units a replay runs one after another; each unit's
    /// steps are contiguous in the step vector.
    pub fn units(self, scale: Scale) -> usize {
        match self {
            Workload::NsChurn => ns_churn::units(scale),
            _ => 1,
        }
    }

    /// Run one replay of the schedule `seed` generates, with the
    /// program's tracer enabled in every simulated system if `tracing`
    /// (timed replays run with it disabled). Returns the set-up timings
    /// and the program counters; an `Err` is a failed oracle.
    pub fn replay(
        self,
        scale: Scale,
        seed: u64,
        m: &mut Meter,
        tracing: bool,
    ) -> Result<Outcome, String> {
        match self {
            Workload::AttachStream => attach_stream::replay(scale, seed, m, tracing),
            Workload::NsChurn => ns_churn::replay(scale, seed, m, tracing),
            Workload::PoolTier => pool_tier::replay(scale, seed, m, tracing),
        }
    }
}

/// Schedule size: `Full` for measurement, `Tiny` for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured geometry (≥ 1000 steps per replay).
    Full,
    /// A few dozen steps, for the self-tests.
    Tiny,
}

/// Host time of one replay's set-up: `SystemBuilder::build`, spawns,
/// initial exports, pool create and joins.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Whole set-up, nanoseconds.
    pub total_ns: u64,
    /// `SystemBuilder::build` alone.
    pub build_ns: u64,
    /// All set-up spawns together.
    pub spawn_ns: u64,
    /// Number of set-up spawns.
    pub spawns: u64,
}

impl Setup {
    /// Fold another unit's set-up into this one.
    pub fn add(&mut self, o: Setup) {
        self.total_ns += o.total_ns;
        self.build_ns += o.build_ns;
        self.spawn_ns += o.spawn_ns;
        self.spawns += o.spawns;
    }
}

/// Set-up stopwatch: the workload brackets `build` and each spawn.
pub(crate) struct SetupClock {
    start: Instant,
    setup: Setup,
}

impl SetupClock {
    /// Start timing set-up.
    pub(crate) fn start() -> SetupClock {
        SetupClock {
            start: Instant::now(),
            setup: Setup::default(),
        }
    }

    /// Time `SystemBuilder::build`.
    pub(crate) fn build<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.setup.build_ns += t.elapsed().as_nanos() as u64;
        out
    }

    /// Time one set-up spawn.
    pub(crate) fn spawn<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.setup.spawn_ns += t.elapsed().as_nanos() as u64;
        self.setup.spawns += 1;
        out
    }

    /// Stop timing.
    pub(crate) fn finish(mut self) -> Setup {
        self.setup.total_ns = self.start.elapsed().as_nanos() as u64;
        self.setup
    }
}

/// Counters the program exposes publicly, read back after a replay.
/// Workloads fill the ones their layers have; the rest stay zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Engine statistics (`ns_churn` only).
    pub pdes: Option<PdesStats>,
    /// `NameService::failover_count` summed over shards.
    pub failovers: u64,
    /// Name-service ops that failed under the fault schedule.
    pub ns_failed: u64,
    /// `TierMove`s returned by policy ticks.
    pub tier_moves: u64,
    /// Pages those moves carried.
    pub tier_pages: u64,
    /// Moves the policy deferred (tier outage or full tier).
    pub tier_deferred: u64,
    /// Pool publish attempts (successful or refused).
    pub publish_attempts: u64,
    /// Pool consumes that returned a slot.
    pub consumes: u64,
    /// Slot references reclaimed by crash sweeps.
    pub swept: u64,
}

/// What the program's own tracer reported over one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStats {
    /// Host time of the conservation audits.
    pub audit_ns: u64,
    /// Spans and edges lost to ring wrap-around.
    pub lost: u64,
}

/// What one replay reports besides the meter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Set-up timings.
    pub setup: Setup,
    /// Program counters.
    pub counters: Counters,
    /// Audit results when the replay ran with tracing.
    pub trace: TraceStats,
}

/// The tracer handed to one simulated system: disabled, or enabled with
/// rings that hold a whole system's run of any workload without
/// wrapping (the management enclave's ring, the hottest, takes ~34k
/// spans in `pool_tier`; enclaves from 8 up share one ring).
pub(crate) fn system_tracer(tracing: bool) -> TraceHandle {
    if tracing {
        TraceHandle::with_capacity(1 << 16, 8)
    } else {
        TraceHandle::disabled()
    }
}

/// After a system's run: if its tracer is enabled, run the
/// conservation audit (timed) and count records lost to wrap-around.
pub(crate) fn audit_system(tracer: &TraceHandle, stats: &mut TraceStats) -> Result<(), String> {
    if !tracer.is_enabled() {
        return Ok(());
    }
    let t = Instant::now();
    tracer
        .audit()
        .map_err(|e| format!("conservation audit failed: {e}"))?;
    stats.audit_ns += t.elapsed().as_nanos() as u64;
    stats.lost += tracer.lost_spans() + tracer.lost_edges();
    Ok(())
}

/// Run one clock-based call inside a span and record its outcome,
/// treating any error as unexpected. The virtual end time is the
/// system clock after the call (errors leave it unchanged).
pub(crate) fn clocked<T>(
    m: &mut Meter,
    sys: &mut System,
    site: Site,
    units: u64,
    f: impl FnOnce(&mut System) -> Result<T, XememError>,
) -> Result<T, String> {
    let r = m.timed(site, units, || f(sys));
    let end = sys.clock().now().as_nanos();
    m.strict(site, r, end)
}

/// A payload drawn once per replay from the seed. Each op gets its own
/// variant by stamping its tag into the first word, so making and
/// checking a payload costs the driver a copy, not a generator run.
pub(crate) struct Payload(Vec<u8>);

impl Payload {
    /// `len` bytes (at least 8) for `seed`.
    pub(crate) fn new(seed: u64, len: usize) -> Payload {
        let mut x = seed;
        let mut out = Vec::with_capacity(len.next_multiple_of(8));
        while out.len() < len.max(8) {
            x = xemem_sim::mix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15));
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.truncate(len.max(8));
        Payload(out)
    }

    /// The variant for `tag`.
    pub(crate) fn stamp(&mut self, tag: u64) -> &[u8] {
        self.0[..8].copy_from_slice(&tag.to_le_bytes());
        &self.0
    }
}
