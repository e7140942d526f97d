//! Host-time instrumentation of one replay, kept on the benchmark's
//! side of every call into the program.
//!
//! A [`Meter`] does three jobs:
//!
//! * **Step boundaries.** [`Meter::begin_steps`] stamps the replay's
//!   start and every [`Meter::step`] stamps the end of one step, so the
//!   steps tile the timed region exactly: whatever runs between two
//!   stamps (engine bookkeeping, driver code) lands in the next step.
//! * **Op outcomes.** Every public call the workload makes is recorded
//!   with its kind, outcome and virtual end time. The fold of those
//!   triples is the replay digest, which must be bit-identical across
//!   replays of one seed.
//! * **Spans (traced replays only).** [`Meter::enter`]/[`Meter::exit`]
//!   bracket each call with [`span_clock`] stamps, grouped per [`Site`];
//!   nesting is tracked so a span's self time excludes its children.
//!   Plain replays skip all of it behind one branch.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Program layer a [`Site`] belongs to. `Bench` is the benchmark's own
/// driver code and is excluded from layer coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's actor callbacks (driver code).
    Bench,
    /// `xemem` core protocol: grants, removal, crashes, process control.
    Core,
    /// Kernel simulators: the export and attach/detach paths.
    Kernel,
    /// `xemem-mem` data path (reads and writes through mappings).
    Mem,
    /// The sharded name service (lookups and registrations).
    Ns,
    /// `xemem_sim::pdes` engine self time.
    Pdes,
    /// `xemem-pool` slot protocol.
    Pool,
    /// Tier policy and migration.
    Tier,
}

macro_rules! sites {
    ($($v:ident => ($name:literal, $layer:ident)),* $(,)?) => {
        /// One kind of public call the workloads make; the digest's op
        /// kind and the traced run's span key.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Site { $($v),* }

        impl Site {
            /// Every site, in discriminant order.
            pub const ALL: &'static [Site] = &[$(Site::$v),*];

            /// Stable short name.
            pub fn name(self) -> &'static str {
                match self { $(Site::$v => $name),* }
            }

            /// The layer the call's time is attributed to.
            pub fn layer(self) -> Layer {
                match self { $(Site::$v => Layer::$layer),* }
            }
        }
    };
}

sites! {
    MakeFwk => ("make.fwk", Kernel),
    MakeKitten => ("make.kitten", Kernel),
    MakeVm => ("make.palacios", Kernel),
    AttachFwk => ("attach.fwk", Kernel),
    AttachKitten => ("attach.kitten", Kernel),
    AttachVm => ("attach.palacios", Kernel),
    DetachFwk => ("detach.fwk", Kernel),
    DetachKitten => ("detach.kitten", Kernel),
    DetachVm => ("detach.palacios", Kernel),
    Get => ("core.get", Core),
    Release => ("core.release", Core),
    Remove => ("core.remove", Core),
    Crash => ("core.crash", Core),
    Spawn => ("core.spawn", Core),
    Exit => ("core.exit", Core),
    Alloc => ("core.alloc", Core),
    WindowHook => ("core.window_hook", Core),
    Read => ("mem.read", Mem),
    Write => ("mem.write", Mem),
    Search => ("ns.search", Ns),
    NsGet => ("ns.get", Ns),
    NsRelease => ("ns.release", Ns),
    NsMake => ("ns.make", Ns),
    NsRemove => ("ns.remove", Ns),
    Pdes => ("pdes.run_lanes", Pdes),
    Actor => ("bench.actor", Bench),
    PoolAcquire => ("pool.acquire", Pool),
    PoolPublish => ("pool.publish", Pool),
    PoolConsume => ("pool.consume", Pool),
    PoolRelease => ("pool.release", Pool),
    PoolSweep => ("pool.sweep", Pool),
    TierTick => ("tier.tick", Tier),
}

/// Accumulated spans of one site.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteStat {
    /// Calls timed.
    pub calls: u64,
    /// Host nanoseconds inside the calls, children included.
    pub ns: u64,
    /// Host nanoseconds inside the calls, children excluded.
    pub self_ns: u64,
    /// Work units the caller attributed (bytes, pages), site-specific.
    pub units: u64,
    /// Spans opened directly inside this site's spans.
    pub child_calls: u64,
}

/// The span clock: the CPU's time-stamp counter on x86-64, where a read
/// costs about half an `Instant::now` (~20 vs ~40 ns on a 2-vCPU KVM
/// guest, more than a pool op); nanoseconds since first use elsewhere.
/// The meter converts ticks to nanoseconds against `Instant`.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn span_clock() -> u64 {
    // SAFETY: RDTSC only reads the time-stamp counter; it touches no
    // memory and has no preconditions.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// The span clock: nanoseconds since first use.
#[cfg(not(target_arch = "x86_64"))]
pub fn span_clock() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Frame {
    site: Site,
    start: u64,
    child_ticks: u64,
    child_calls: u64,
}

/// What one span's own stamps cost: `inside_ns` of it lands between a
/// span's stamps (inflating the span), `total_ns` is the whole cost per
/// span (inflating the replay). Measured, not assumed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Mean host ns an empty span records.
    pub inside_ns: f64,
    /// Mean host ns one empty span costs its caller.
    pub total_ns: f64,
}

/// Per-replay instrumentation; see the module docs.
pub struct Meter {
    spans: bool,
    origin: Instant,
    origin_ticks: u64,
    /// Step stamps of each timed region (a replay may pause between
    /// regions for set-up and teardown).
    regions: Vec<Vec<u64>>,
    in_steps: bool,
    stack: Vec<Frame>,
    /// Per-site totals with times in span-clock ticks.
    stats: Vec<SiteStat>,
    spans_taken: u64,
    probe: Probe,
    digest: u64,
    attempted: u64,
    ok: u64,
    unexpected: u64,
    first_unexpected: Option<String>,
}

/// FNV-1a over 64-bit words: cheap, order-sensitive, stable.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Stable code of an error's variant (0 is reserved for success).
pub fn outcome_code<E>(e: &E) -> u64 {
    let mut h = DefaultHasher::new();
    std::mem::discriminant(e).hash(&mut h);
    h.finish() | 1
}

impl Meter {
    /// A meter for a plain (timing-only) or span-traced replay. A
    /// traced meter first measures its own probe cost.
    pub fn new(spans: bool) -> Meter {
        let mut m = Meter::bare(spans);
        if spans {
            m.probe = Meter::calibrate();
        }
        m
    }

    fn bare(spans: bool) -> Meter {
        Meter {
            spans,
            origin: Instant::now(),
            origin_ticks: span_clock(),
            regions: Vec::new(),
            in_steps: false,
            stack: Vec::new(),
            stats: vec![SiteStat::default(); Site::ALL.len()],
            spans_taken: 0,
            probe: Probe::default(),
            digest: 0xcbf2_9ce4_8422_2325,
            attempted: 0,
            ok: 0,
            unexpected: 0,
            first_unexpected: None,
        }
    }

    /// Time empty spans through the real enter/exit path; the best of
    /// a few rounds, so a preempted round does not inflate the cost.
    fn calibrate() -> Probe {
        const K: u64 = 4000;
        let mut best = Probe {
            inside_ns: f64::MAX,
            total_ns: f64::MAX,
        };
        for _ in 0..8 {
            let mut m = Meter::bare(true);
            m.in_steps = true;
            let t = Instant::now();
            for _ in 0..K {
                m.enter(Site::Actor);
                m.exit(0);
            }
            let total = t.elapsed().as_nanos() as f64 / K as f64;
            let inside = m.stat(Site::Actor).ns as f64 / K as f64;
            best.inside_ns = best.inside_ns.min(inside);
            best.total_ns = best.total_ns.min(total);
        }
        best
    }

    /// Nanoseconds per span-clock tick, measured against `Instant` over
    /// the meter's lifetime so far.
    fn ns_per_tick(&self) -> f64 {
        let ticks = span_clock().wrapping_sub(self.origin_ticks).max(1);
        self.origin.elapsed().as_nanos() as f64 / ticks as f64
    }

    /// The measured probe cost (zero on plain meters).
    pub fn probe(&self) -> Probe {
        self.probe
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a timed region (set-up has ended).
    pub fn begin_steps(&mut self) {
        assert!(!self.in_steps, "begin_steps inside a timed region");
        assert!(self.stack.is_empty(), "begin_steps inside a span");
        let t = self.now_ns();
        self.regions.push(vec![t]);
        self.in_steps = true;
    }

    /// Stamp the end of one step.
    pub fn step(&mut self) {
        debug_assert!(self.in_steps, "step outside a timed region");
        let t = self.now_ns();
        self.regions.last_mut().expect("inside a region").push(t);
    }

    /// Close the timed region: anything that ran after the last step
    /// stamp (an engine's final empty scan) joins the last step.
    pub fn end_steps(&mut self) {
        assert!(self.stack.is_empty(), "end_steps inside a span");
        let t = self.now_ns();
        let marks = self.regions.last_mut().expect("inside a region");
        assert!(marks.len() >= 2, "a timed region needs at least one step");
        *marks.last_mut().expect("checked") = t;
        self.in_steps = false;
    }

    /// Host nanoseconds of each step, in order across regions.
    pub fn step_ns(&self) -> Vec<u64> {
        self.regions
            .iter()
            .flat_map(|r| r.windows(2).map(|w| w[1] - w[0]))
            .collect()
    }

    /// Host nanoseconds inside the timed regions.
    pub fn replay_ns(&self) -> u64 {
        self.regions.iter().map(|r| r[r.len() - 1] - r[0]).sum()
    }

    /// Whether this meter records spans.
    pub fn traced(&self) -> bool {
        self.spans
    }

    /// Open a span on `site`. Spans are kept only inside the timed
    /// region of a traced replay; elsewhere this is a no-op.
    #[inline]
    pub fn enter(&mut self, site: Site) {
        if self.spans && self.in_steps {
            self.stack.push(Frame {
                site,
                start: span_clock(),
                child_ticks: 0,
                child_calls: 0,
            });
        }
    }

    /// Close the innermost span, crediting `units` of work to it.
    #[inline]
    pub fn exit(&mut self, units: u64) {
        if !(self.spans && self.in_steps) {
            return;
        }
        let f = self.stack.pop().expect("exit without enter");
        let ticks = span_clock().wrapping_sub(f.start);
        let s = &mut self.stats[f.site as usize];
        s.calls += 1;
        s.ns += ticks;
        s.self_ns += ticks.saturating_sub(f.child_ticks);
        s.units += units;
        s.child_calls += f.child_calls;
        self.spans_taken += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ticks += ticks;
            parent.child_calls += 1;
        }
    }

    /// Add a span timed elsewhere in [`span_clock`] ticks (the PDES lane
    /// phase, which cannot reach the meter) as a child of the innermost
    /// open span.
    pub fn credit(&mut self, site: Site, ticks: u64, units: u64) {
        if !(self.spans && self.in_steps) {
            return;
        }
        let s = &mut self.stats[site as usize];
        s.calls += 1;
        s.ns += ticks;
        s.self_ns += ticks;
        s.units += units;
        self.spans_taken += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ticks += ticks;
            parent.child_calls += 1;
        }
    }

    /// Attribute work units to `site` that are known only after its
    /// span closed (pages a policy tick moved).
    pub fn add_units(&mut self, site: Site, units: u64) {
        if self.spans && self.in_steps {
            self.stats[site as usize].units += units;
        }
    }

    /// Run `f` inside a span on `site`.
    #[inline]
    pub fn timed<T>(&mut self, site: Site, units: u64, f: impl FnOnce() -> T) -> T {
        self.enter(site);
        let out = f();
        self.exit(units);
        out
    }

    /// Record one op's outcome. `code` is 0 on success, otherwise
    /// [`outcome_code`] of the error; `expected` says whether a failure
    /// is one the workload's fault schedule explains (an unexpected one
    /// fails the run). Ops inside the timed region are counted toward
    /// `attempted`; set-up and teardown ops only enter the digest.
    pub fn record(&mut self, site: Site, code: u64, vt_end_ns: u64, expected: bool) {
        self.digest = fold(fold(fold(self.digest, site as u64), code), vt_end_ns);
        if self.in_steps {
            self.attempted += 1;
            if code == 0 {
                self.ok += 1;
            }
        }
        if code != 0 && !expected {
            self.unexpected += 1;
            if self.first_unexpected.is_none() {
                self.first_unexpected = Some(format!("{} failed at {vt_end_ns} ns", site.name()));
            }
        }
    }

    /// Record a `Result`, treating every error as unexpected.
    pub fn strict<T, E: std::fmt::Debug>(
        &mut self,
        site: Site,
        r: Result<T, E>,
        vt_end_ns: u64,
    ) -> Result<T, String> {
        match r {
            Ok(v) => {
                self.record(site, 0, vt_end_ns, true);
                Ok(v)
            }
            Err(e) => {
                self.record(site, outcome_code(&e), vt_end_ns, false);
                Err(format!("{} failed: {e:?}", site.name()))
            }
        }
    }

    /// The replay digest so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Ops attempted inside the timed region.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Ops that succeeded inside the timed region.
    pub fn ok(&self) -> u64 {
        self.ok
    }

    /// Failures no fault in the schedule explains.
    pub fn unexpected(&self) -> u64 {
        self.unexpected
    }

    /// Description of the first unexpected failure, if any.
    pub fn first_unexpected(&self) -> Option<&str> {
        self.first_unexpected.as_deref()
    }

    /// Span totals of one site, as recorded.
    pub fn stat(&self, site: Site) -> SiteStat {
        let s = self.stats[site as usize];
        let r = self.ns_per_tick();
        SiteStat {
            ns: (s.ns as f64 * r) as u64,
            self_ns: (s.self_ns as f64 * r) as u64,
            ..s
        }
    }

    /// Span totals of one site with the probe cost taken out: each of
    /// its spans loses the inside part, and its self time also loses
    /// the outside part of every direct child's stamps. `ns` is exact
    /// for leaf sites; a parent's keeps its grandchildren's probe cost.
    pub fn corrected(&self, site: Site) -> SiteStat {
        let s = self.stat(site);
        let p = self.probe;
        let own = s.calls as f64 * p.inside_ns;
        let children = s.child_calls as f64 * (p.total_ns - p.inside_ns);
        let sub = |x: u64| (x as f64 - own - children).max(0.0) as u64;
        SiteStat {
            ns: sub(s.ns),
            self_ns: sub(s.self_ns),
            ..s
        }
    }

    /// Timed region with every span's probe cost taken out.
    pub fn corrected_replay_ns(&self) -> u64 {
        (self.replay_ns() as f64 - self.spans_taken as f64 * self.probe.total_ns).max(1.0) as u64
    }

    /// Whether every opened span was closed.
    pub fn balanced(&self) -> bool {
        self.stack.is_empty()
    }
}
