//! `ns_churn`: the sharded name service under churn and faults.
//!
//! A replay runs several chaos-style units one after another. Each —
//! tens of Kitten enclaves, 8 shards × 2 replicas, 64 KiB segments,
//! shard outages plus leader and worker crashes — runs on the PDES
//! round grid with `PdesConfig::serial` (one lane, one worker). Each
//! round every consumer does 16 searches, 8
//! get/release pairs and one probe for a removed name, and touches a
//! scratch line in its lane phase; the churn actor removes two names
//! and exports two. Leases, failover, retry and backoff, routing and
//! the engine do the work: there are no large mappings and no pool.
//!
//! Each barrier event is one step. The lane phase of a window runs
//! before its first barrier, so it is counted in that step. The host
//! cost of a round grows with the run's history; `ns.step_growth`
//! tracks it.

use crate::{
    audit_system, outcome_code, span_clock, system_tracer, Counters, Meter, Outcome, Payload,
    Scale, Setup, SetupClock, Site,
};
use xemem::{
    EnclaveRef, FaultPlan, LanePart, ProcessRef, Segid, SimDuration, SimTime, System,
    SystemBuilder, TraceHandle, VirtAddr, XememError,
};
use xemem_sim::pdes::{run_lanes, LaneShared, PdesActor, PdesConfig};
use xemem_sim::{PdesStats, SimRng};

const MIB: u64 = 1 << 20;
const SEG: u64 = 64 * 1024;
const SHARDS: usize = 8;
const REPLICAS: usize = 2;
/// Virtual time between rounds: the chaos suite's 20 ms over 64 rounds.
/// The consumers queue more virtual work per round than this, so the
/// backlog — and the host cost of a step — grows round by round.
const STRIDE_NS: u64 = 312_500;

/// Geometry for a scale: (Kitten enclaves, workers, rounds, units per
/// replay). A replay is several independent 16-round units rather than
/// one long one: the host cost of a unit is a chaotic function of its
/// schedule (one 64-round unit read p50 ±25 % across seeds), and eight
/// short units average that out. Eight consumers rather than sixteen
/// keep a replay at ~0.16 s, so a run holds enough replays for every
/// step to meet a fast stretch of the host, while the
/// history-proportional growth still shows (~3× per unit).
fn geometry(scale: Scale) -> (usize, usize, u64, usize) {
    match scale {
        Scale::Full => (31, 8, 16, 8),
        Scale::Tiny => (19, 3, 6, 2),
    }
}

/// Root of the units' fault schedules. They are part of the workload's
/// definition, not of `--seed`: which shards and enclaves a schedule
/// hits moved p99 by ±20 % between seeds, more than any bound, while
/// the seeded churn moves it by ±4 %.
const FAULT_SEED: u64 = 0xFA17_5EED;

/// Steps per replay: one per actor per round (the consumers and the
/// churn actor) of every unit, unit after unit.
pub(crate) fn steps(scale: Scale) -> usize {
    units(scale) * unit_steps(scale)
}

/// Independent units per replay.
pub(crate) fn units(scale: Scale) -> usize {
    geometry(scale).3
}

fn unit_steps(scale: Scale) -> usize {
    let (_, workers, rounds, _) = geometry(scale);
    (workers + 1) * rounds as usize
}

/// Failures the fault schedule explains: outages exhaust the retry
/// budget, crashed enclaves and their exports vanish, and a registration
/// lost in a failover no longer resolves.
fn expected(e: &XememError) -> bool {
    matches!(
        e,
        XememError::NameServerUnavailable { .. }
            | XememError::EnclaveDead(_)
            | XememError::UnknownName(_)
            | XememError::UnknownSegid(_)
            | XememError::SourceGone
    )
}

/// Shared state of the actors: the system, the key books and the meter.
struct Ctx<'m> {
    sys: System,
    m: &'m mut Meter,
    live: Vec<(ProcessRef, Segid, String)>,
    /// Removed names with the virtual time their revocation completed.
    removed: Vec<(String, Segid, SimTime)>,
    stale_reads: u64,
    ns_failed: u64,
    max_end: SimTime,
}

impl Ctx<'_> {
    /// One timeline op inside a span, with its outcome recorded.
    fn op<T>(
        &mut self,
        site: Site,
        at: SimTime,
        f: impl FnOnce(&mut System, SimTime) -> Result<(T, SimTime), XememError>,
    ) -> Option<(T, SimTime)> {
        let sys = &mut self.sys;
        let r = self.m.timed(site, 0, || f(sys, at));
        match r {
            Ok((v, end)) => {
                self.m.record(site, 0, end.as_nanos(), true);
                self.max_end = self.max_end.max(end);
                Some((v, end))
            }
            Err(e) => {
                self.m
                    .record(site, outcome_code(&e), at.as_nanos(), expected(&e));
                if site != Site::Alloc {
                    self.ns_failed += 1;
                }
                None
            }
        }
    }
}

impl LaneShared for Ctx<'_> {
    type Part<'a>
        = LanePart<'a>
    where
        Self: 'a;

    fn lane_parts(&mut self, lanes: usize) -> Vec<LanePart<'_>> {
        self.m.enter(Site::WindowHook);
        let parts = self.sys.lane_parts(lanes);
        self.m.exit(0);
        parts
    }

    fn on_window(&mut self, start: SimTime) {
        let sys = &mut self.sys;
        self.m.timed(Site::WindowHook, 0, || {
            <System as LaneShared>::on_window(sys, start)
        });
    }

    fn on_barrier_resume(&mut self, barrier: SimTime, resume: SimTime) {
        let sys = &mut self.sys;
        self.m.timed(Site::WindowHook, 0, || {
            <System as LaneShared>::on_barrier_resume(sys, barrier, resume)
        });
    }
}

#[derive(Clone, Copy)]
struct Grid {
    t0_ns: u64,
    stride_ns: u64,
    rounds: u64,
}

impl Grid {
    fn next(&self, round: u64) -> Option<SimTime> {
        (round < self.rounds).then(|| SimTime::from_nanos(self.t0_ns + round * self.stride_ns))
    }
}

/// A lane-phase access, folded into the meter at the actor's next
/// barrier (the lane phase cannot reach shared state).
struct LocalOp {
    site: Site,
    code: u64,
    end_ns: u64,
    host_ticks: u64,
    expected: bool,
}

struct Consumer {
    c: usize,
    p: ProcessRef,
    scratch: VirtAddr,
    line: Vec<u8>,
    round: u64,
    grid: Grid,
    traced: bool,
    pending: Vec<LocalOp>,
}

impl Consumer {
    fn local_touch(&mut self, now: SimTime, part: &mut LanePart<'_>) {
        let va = self.scratch;
        let traced = self.traced;
        let stamp = || if traced { span_clock() } else { 0 };
        let t = stamp();
        let w = part.write_at(self.p, va, &self.line, now);
        let host_ticks = stamp() - t;
        let end = match &w {
            Ok(end) => *end,
            Err(_) => now,
        };
        self.pending.push(LocalOp {
            site: Site::Write,
            code: w.as_ref().err().map_or(0, outcome_code),
            end_ns: end.as_nanos(),
            host_ticks,
            expected: w.as_ref().err().is_none_or(expected),
        });
        if w.is_err() {
            return;
        }
        let mut back = vec![0u8; self.line.len()];
        let t = stamp();
        let r = part.read_at(self.p, va, &mut back, end);
        let host_ticks = stamp() - t;
        // A readback that differs from what was written gets its own
        // (even, so never an error's) code and is never explained by a
        // fault.
        let (code, ok) = match &r {
            Err(e) => (outcome_code(e), expected(e)),
            Ok(_) if back != self.line => (2, false),
            Ok(_) => (0, true),
        };
        self.pending.push(LocalOp {
            site: Site::Read,
            code,
            end_ns: r.as_ref().map_or(end, |e| *e).as_nanos(),
            host_ticks,
            expected: ok,
        });
    }

    /// Fold the lane phase's accesses into the meter. Called before the
    /// barrier's own span opens, so their time stays a child of the
    /// engine span, where it ran.
    fn fold_local(&mut self, m: &mut Meter) {
        for op in self.pending.drain(..) {
            m.credit(op.site, op.host_ticks, self.line.len() as u64);
            m.record(op.site, op.code, op.end_ns, op.expected);
        }
    }

    fn round(&mut self, at: SimTime, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        let p = self.p;
        let mut t = at;
        for k in 0..16usize {
            if ctx.live.is_empty() {
                break;
            }
            let idx = (self.c * 16 + k + self.round as usize) % ctx.live.len();
            let (segid, name) = (ctx.live[idx].1, ctx.live[idx].2.clone());
            if let Some((found, end)) = ctx.op(Site::Search, t, |s, at| s.search_at(p, &name, at)) {
                if found != segid {
                    ctx.stale_reads += 1;
                }
                t = end;
            }
            if k % 2 == 0 {
                if let Some((apid, end)) = ctx.op(Site::NsGet, t, |s, at| s.get_at(p, segid, at)) {
                    t = end;
                    if let Some(((), end)) = ctx.op(Site::NsRelease, t, |s, at| {
                        s.release_at(p, apid, at).map(|e| ((), e))
                    }) {
                        t = end;
                    }
                }
            }
        }
        // Once a removal completed at T, no lookup at or after T may
        // resolve the old segid; earlier probes read history legally.
        if let Some((name, segid, gone_at)) =
            ctx.removed.get(self.c % ctx.removed.len().max(1)).cloned()
        {
            if let Some((found, _)) = ctx.op(Site::Search, t, |s, at| s.search_at(p, &name, at)) {
                if found == segid && t >= gone_at {
                    ctx.stale_reads += 1;
                }
            }
        }
        self.round += 1;
        self.grid.next(self.round)
    }
}

/// Removes two live names and exports two fresh ones per round, from
/// the seeded stream.
struct Churn {
    rng: SimRng,
    exporters: Vec<ProcessRef>,
    gen: u64,
    order: u64,
    round: u64,
    grid: Grid,
}

impl Churn {
    fn round(&mut self, at: SimTime, ctx: &mut Ctx<'_>) -> Option<SimTime> {
        let mut t = at;
        for _ in 0..2 {
            if ctx.live.len() > 4 {
                let idx = self.rng.uniform_u64(0, ctx.live.len() as u64) as usize;
                let (owner, segid, name) = ctx.live.swap_remove(idx);
                if let Some(((), end)) = ctx.op(Site::NsRemove, t, |s, at| {
                    s.remove_at(owner, segid, at).map(|e| ((), e))
                }) {
                    t = end;
                    ctx.removed.push((name, segid, end));
                }
            }
        }
        for _ in 0..2 {
            let w = self.rng.uniform_u64(0, self.exporters.len() as u64) as usize;
            let exporter = self.exporters[w];
            if let Some((buf, end)) =
                ctx.op(Site::Alloc, t, |s, at| s.alloc_buffer_at(exporter, SEG, at))
            {
                t = end;
                let name = format!("n{w}:{}", self.gen);
                self.gen += 1;
                if let Some((segid, end)) = ctx.op(Site::NsMake, t, |s, at| {
                    s.make_at(exporter, buf, SEG, Some(&name), at)
                }) {
                    t = end;
                    ctx.live.push((exporter, segid, name));
                }
            }
        }
        self.round += 1;
        self.grid.next(self.round)
    }
}

enum Actor {
    Consumer(Consumer),
    Churn(Churn),
}

impl<'m> PdesActor<Ctx<'m>> for Actor {
    fn lane_key(&self) -> u64 {
        match self {
            Actor::Consumer(c) => c.p.enclave.0 as u64,
            Actor::Churn(_) => 0,
        }
    }

    fn order_key(&self) -> u64 {
        match self {
            Actor::Consumer(c) => c.c as u64,
            Actor::Churn(ch) => ch.order,
        }
    }

    fn first_event(&self) -> Option<SimTime> {
        match self {
            Actor::Consumer(c) => c.grid.next(0),
            Actor::Churn(ch) => ch.grid.next(0),
        }
    }

    fn has_local(&self) -> bool {
        matches!(self, Actor::Consumer(_))
    }

    fn local(&mut self, now: SimTime, part: &mut LanePart<'_>) {
        if let Actor::Consumer(c) = self {
            c.local_touch(now, part);
        }
    }

    fn barrier(&mut self, now: SimTime, ctx: &mut Ctx<'m>) -> Option<SimTime> {
        if let Actor::Consumer(c) = self {
            c.fold_local(ctx.m);
        }
        ctx.m.enter(Site::Actor);
        let next = match self {
            Actor::Consumer(c) => c.round(now, ctx),
            Actor::Churn(ch) => ch.round(now, ctx),
        };
        ctx.m.exit(0);
        ctx.m.step();
        next
    }
}

/// Virtual time by which set-up has ended (it takes about 9 ms): faults
/// are placed after it, so every seed runs the same set-up.
const SETUP_VT_NS: u64 = 10_000_000;

/// The fault schedule of one unit, on its round grid after set-up: per
/// 16 rounds, three 80 µs shard outages and one replica crash (never
/// the topology root), plus one worker-enclave crash at mid-run. `rng`
/// picks the shards and enclaves.
fn fault_plan(scale: Scale, rng: &mut SimRng) -> FaultPlan {
    let (_, workers, rounds, _) = geometry(scale);
    let horizon = rounds * STRIDE_NS;
    let at = |permille: u64| SimTime::from_nanos(SETUP_VT_NS + horizon * permille / 1000);
    let outages = (3 * rounds / 16).max(1);
    let mut plan = FaultPlan::new();
    for i in 0..outages {
        let shard = rng.uniform_u64(0, SHARDS as u64) as usize;
        plan = plan.name_server_shard_outage(
            at(100 + 900 * i / outages),
            shard,
            SimDuration::from_nanos(80_000),
        );
    }
    let crashes = (rounds / 16).max(1);
    for i in 0..crashes {
        let slot = rng.uniform_u64(1, (SHARDS * REPLICAS) as u64) as usize;
        plan = plan.crash_enclave(at(250 + 700 * i / crashes), slot);
    }
    let worker = rng.uniform_u64(0, workers as u64) as usize;
    plan.crash_enclave(at(500), SHARDS * REPLICAS + worker)
}

/// One replay; see the module docs.
pub(crate) fn replay(
    scale: Scale,
    seed: u64,
    m: &mut Meter,
    tracing: bool,
) -> Result<Outcome, String> {
    let units = geometry(scale).3;
    let mut out = Outcome::default();
    let mut pdes = PdesStats::default();
    for u in 0..units {
        let tracer = system_tracer(tracing);
        let (setup, c) = unit(scale, u, xemem_sim::split_seed(seed, u as u64), m, &tracer)?;
        audit_system(&tracer, &mut out.trace)?;
        out.setup.add(setup);
        let s = c.pdes.expect("units run on the engine");
        pdes.windows += s.windows;
        pdes.events += s.events;
        pdes.peak_window_events = pdes.peak_window_events.max(s.peak_window_events);
        pdes.threaded_windows += s.threaded_windows;
        out.counters.failovers += c.failovers;
        out.counters.ns_failed += c.ns_failed;
    }
    out.counters.pdes = Some(pdes);
    Ok(out)
}

/// One independent unit: its own system, fault plan (unit `u` of the
/// workload's fixed set) and churn stream (from `seed`).
fn unit(
    scale: Scale,
    u: usize,
    seed: u64,
    m: &mut Meter,
    tracer: &TraceHandle,
) -> Result<(Setup, Counters), String> {
    let (kittens, workers, rounds, _) = geometry(scale);
    let plan = fault_plan(
        scale,
        &mut SimRng::seed_from_u64(xemem_sim::split_seed(FAULT_SEED, u as u64)),
    );
    let rng = SimRng::seed_from_u64(seed);

    let mut sc = SetupClock::start();
    let mut sys = sc
        .build(|| {
            let mut b = SystemBuilder::new().linux_management("linux", 4, 128 * MIB);
            for i in 0..kittens {
                b = b.kitten_cokernel(&format!("k{i}"), 1, 36 * MIB);
            }
            b.name_service_shards(SHARDS, REPLICAS)
                .with_fault_plan(plan, FAULT_SEED)
                .with_tracer(tracer.clone())
                .build()
        })
        .map_err(|e| format!("build: {e:?}"))?;
    let enclaves = kittens + 1;
    let baselines: Vec<Option<u64>> = (0..enclaves)
        .map(|i| sys.free_frames_of(EnclaveRef(i)))
        .collect();

    // Every fault lands after set-up, so set-up ops must all succeed.
    let first_free = SHARDS * REPLICAS;
    let mut exporters = Vec::new();
    let mut consumers = Vec::new();
    for w in 0..workers {
        let enc = EnclaveRef(first_free + w);
        for (mem, list) in [(2 * MIB, &mut exporters), (MIB, &mut consumers)] {
            let r = sc.spawn(|| sys.spawn_process(enc, mem));
            let now = sys.clock().now().as_nanos();
            list.push(m.strict(Site::Spawn, r, now)?);
        }
    }
    let mut gen = 0u64;
    let mut live = Vec::new();
    for (w, &exporter) in exporters.iter().enumerate() {
        for _ in 0..4 {
            let buf = sys.alloc_buffer(exporter, SEG);
            let now = sys.clock().now().as_nanos();
            let buf = m.strict(Site::Alloc, buf, now)?;
            let name = format!("n{w}:{gen}");
            gen += 1;
            let segid = sys.xpmem_make(exporter, buf, SEG, Some(&name));
            let now = sys.clock().now().as_nanos();
            live.push((exporter, m.strict(Site::NsMake, segid, now)?, name));
        }
    }
    let grid = Grid {
        t0_ns: sys.clock().now().as_nanos(),
        stride_ns: STRIDE_NS,
        rounds,
    };
    let mut actors = Vec::new();
    for (c, &p) in consumers.iter().enumerate() {
        let scratch = sys.alloc_buffer(p, 4096);
        let now = sys.clock().now().as_nanos();
        actors.push(Actor::Consumer(Consumer {
            c,
            p,
            scratch: m.strict(Site::Alloc, scratch, now)?,
            line: Payload::new(seed, 64).stamp(c as u64).to_vec(),
            round: 0,
            grid,
            traced: m.traced(),
            pending: Vec::new(),
        }));
    }
    actors.push(Actor::Churn(Churn {
        rng,
        exporters: exporters.clone(),
        gen,
        order: consumers.len() as u64,
        round: 0,
        grid,
    }));
    let setup = sc.finish();

    let lookahead = sys.pdes_lookahead();
    let mut ctx = Ctx {
        sys,
        m,
        live,
        removed: Vec::new(),
        stale_reads: 0,
        ns_failed: 0,
        max_end: SimTime::from_nanos(grid.t0_ns),
    };
    ctx.m.begin_steps();
    ctx.m.enter(Site::Pdes);
    let (_, stats) = run_lanes(&PdesConfig::serial(lookahead), &mut actors, &mut ctx);
    ctx.m.exit(0);
    ctx.m.end_steps();
    let Ctx {
        mut sys,
        m,
        stale_reads,
        ns_failed,
        max_end,
        ..
    } = ctx;

    // Teardown: march past everything the grid booked, exit every
    // worker process, then the leak oracles.
    let target = SimTime::from_nanos(grid.t0_ns + grid.stride_ns * rounds).max(max_end);
    if sys.clock().now() < target {
        sys.clock().advance_to(target);
    }
    for &p in exporters.iter().chain(&consumers) {
        let r = sys.exit_process(p);
        let now = sys.clock().now().as_nanos();
        m.record(
            Site::Exit,
            r.as_ref().err().map_or(0, outcome_code),
            now,
            r.as_ref().err().is_none_or(expected),
        );
    }
    for (i, base) in baselines.iter().enumerate() {
        let e = EnclaveRef(i);
        if let (Some(base), true) = (base, sys.enclave_alive(e)) {
            let now = sys.free_frames_of(e).unwrap_or(0);
            if now != *base {
                return Err(format!(
                    "enclave {i} ends at {now} free frames, baseline {base}"
                ));
            }
        }
    }
    if sys.outstanding_loans() != 0 {
        return Err("frame loans still open after teardown".into());
    }
    if stale_reads != 0 {
        return Err(format!(
            "{stale_reads} stale reads after completed removals"
        ));
    }
    if stats.threaded_windows != 0 {
        return Err("the serial engine spawned worker threads".into());
    }
    let ns = sys.name_service();
    let counters = Counters {
        pdes: Some(stats),
        failovers: (0..ns.shard_count()).map(|s| ns.failover_count(s)).sum(),
        ns_failed,
        ..Counters::default()
    };
    Ok((setup, counters))
}
