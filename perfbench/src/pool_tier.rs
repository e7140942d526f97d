//! `pool_tier`: the buffer pool and memory tiers over mappings that are
//! already in place.
//!
//! One `BufferPool` is exported from a Linux enclave that has DRAM and
//! NVM tier reserves and an armed `TierPolicy`; Kitten consumers join
//! it, and also attach a set of tier segments parked on NVM. After the
//! joins there is no mapping work and no name-service lookup: each step
//! the producer acquires, writes and publishes one slot per consumer,
//! and each consumer consumes, reads, verifies and releases it, then
//! reads 8 KiB of each of the two segments hot in the current phase.
//! Every `TICK_EVERY` steps a policy tick promotes the hot segments and
//! demotes the cooled ones. One seeded consumer crash lands while it
//! holds a slot; the next step's sweep reclaims it. A seeded outage of
//! the DRAM tier defers the promotions that fall inside it.
//!
//! It is a plain loop on the system clock: no PDES.

use crate::{
    audit_system, clocked, system_tracer, Counters, Meter, Outcome, Payload, Scale, SetupClock,
    Site,
};
use xemem::trace_layer::Counter;
use xemem::{
    EnclaveRef, FaultPlan, MemTier, ProcessRef, Segid, SimDuration, SimTime, System, SystemBuilder,
    TierPolicy, VirtAddr,
};
use xemem_pool::{BufferPool, ConsumerId, Holder, PoolError};
use xemem_sim::{Clock, SimRng};

const MIB: u64 = 1 << 20;
const KIB: u64 = 1 << 10;
/// Payload written and verified per slot.
const PAYLOAD: usize = 1024;
/// Bytes each consumer reads from each hot tier segment per step.
const HOT_READ: usize = 8192;
const SLOT_BYTES: u64 = 64 * KIB;
const RING_CAP: usize = 2;
/// Tier segments; two are hot in each phase.
const TIER_SEGS: usize = 8;
const TIER_SEG_BYTES: u64 = 256 * KIB;
/// Policy chunk: one whole tier segment.
const CHUNK_PAGES: u64 = TIER_SEG_BYTES / 4096;
/// Steps between policy ticks.
const TICK_EVERY: usize = 8;
/// Virtual time the policy's counting window spans: about four steps.
const WINDOW_NS: u64 = 100_000;

/// Geometry for a scale: (consumers, steps, steps per hot-set phase).
fn geometry(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Full => (4, 1000, 100),
        Scale::Tiny => (2, 48, 16),
    }
}

/// Steps per replay.
pub(crate) fn steps(scale: Scale) -> usize {
    geometry(scale).1
}

/// The generated schedule. The program sees only this.
struct Schedule {
    /// Step after whose consume the crashing consumer dies.
    crash_step: usize,
    /// Consumer that crashes.
    crash_consumer: usize,
    /// DRAM-tier outage: (start, duration), virtual ns.
    outage: (u64, u64),
}

/// Virtual time set-up ends at (about 6 ms) and virtual time per step
/// (about 27 µs): the outage is placed on this nominal timeline, so it
/// lands inside the timed region without knowing it in advance.
const SETUP_VT_NS: u64 = 6_000_000;
const STEP_VT_NS: u64 = 27_000;

/// Generate the schedule for `seed`.
fn schedule(scale: Scale, seed: u64) -> Schedule {
    let (consumers, steps, _) = geometry(scale);
    let mut rng = SimRng::seed_from_u64(seed);
    // The crash lands in the run's eighth tenth: a step before it serves
    // four consumers and one after it three, so a wider window would let
    // the seed move the median step between those two costs.
    let crash_step = rng.uniform_u64(7 * steps as u64 / 10, 8 * steps as u64 / 10) as usize;
    let crash_consumer = rng.uniform_u64(0, consumers as u64) as usize;
    let span = steps as u64 * STEP_VT_NS;
    let start = SETUP_VT_NS + rng.uniform_u64(span / 5, span / 2);
    Schedule {
        crash_step,
        crash_consumer,
        outage: (start, span / 10),
    }
}

/// The armed policy: a hot segment is read once per consumer per step,
/// about 16 times a window, and counts as hot from 8; an unread one is
/// cold; two windows in a row move it.
fn policy() -> TierPolicy {
    TierPolicy {
        window: SimDuration::from_nanos(WINDOW_NS),
        hot_threshold: 8,
        cold_threshold: 0,
        hysteresis: 2,
        chunk_pages: CHUNK_PAGES,
        fast_tier: MemTier::LocalDram,
    }
}

fn pool_err(e: PoolError) -> String {
    format!("pool: {e:?}")
}

/// Run one pool op at the system clock's time inside a span, advance
/// the clock to its completion, and record the outcome. The clock
/// advance is program work, so it stays inside the span.
fn on_clock<T>(
    m: &mut Meter,
    clock: &Clock,
    site: Site,
    f: impl FnOnce(SimTime) -> Result<(T, SimTime), PoolError>,
) -> Result<T, String> {
    let now = clock.now();
    let r = m.timed(site, 0, || {
        let r = f(now);
        if let Ok((_, end)) = &r {
            clock.advance_to(*end);
        }
        r
    });
    let end = r.as_ref().map_or(now, |(_, end)| *end);
    m.strict(site, r.map(|(v, _)| v), end.as_nanos())
}

struct Consumer {
    p: ProcessRef,
    id: ConsumerId,
    tier_vas: Vec<VirtAddr>,
    alive: bool,
}

/// One replay; see the module docs.
pub(crate) fn replay(
    scale: Scale,
    seed: u64,
    m: &mut Meter,
    tracing: bool,
) -> Result<Outcome, String> {
    let (n_consumers, steps, phase) = geometry(scale);
    let sched = schedule(scale, seed);
    let tracer = system_tracer(tracing);

    let mut sc = SetupClock::start();
    let tiers = [MemTier::LocalDram, MemTier::Nvm];
    let (at, dur) = sched.outage;
    let plan = FaultPlan::new().tiers_configured(&tiers).tier_outage(
        SimTime::from_nanos(at),
        0,
        MemTier::LocalDram,
        SimDuration::from_nanos(dur),
    );
    let mut sys = sc
        .build(|| {
            let mut b = SystemBuilder::new()
                .with_tracer(tracer.clone())
                .with_fault_plan(plan, seed)
                .with_tier_policy(policy())
                .tier_reserve(MemTier::LocalDram, 16 * MIB)
                .tier_reserve(MemTier::Nvm, 32 * MIB)
                .linux_management("linux", 4, 128 * MIB);
            for i in 0..n_consumers {
                b = b.kitten_cokernel(&format!("k{i}"), 1, 32 * MIB);
            }
            b.build()
        })
        .map_err(|e| format!("build: {e:?}"))?;
    let linux = EnclaveRef(0);
    let books = |sys: &System| tiers.map(|t| sys.tier_free_frames(linux, t));
    let baseline_books = books(&sys);
    let baseline_frames: Vec<Option<u64>> = (0..=n_consumers)
        .map(|i| sys.free_frames_of(EnclaveRef(i)))
        .collect();

    let exporter = sc.spawn(|| {
        clocked(m, &mut sys, Site::Spawn, 0, |s| {
            s.spawn_process(linux, 16 * MIB)
        })
    })?;
    let now = sys.clock().now();
    let (mut pool, end) = BufferPool::create_at(
        &mut sys,
        exporter,
        (4 * n_consumers) as u32,
        SLOT_BYTES,
        None,
        RING_CAP,
        now,
    )
    .map_err(pool_err)?;
    sys.clock().advance_to(end);
    let mut tier_segs: Vec<Segid> = Vec::new();
    for _ in 0..TIER_SEGS {
        let buf = clocked(m, &mut sys, Site::Alloc, 0, |s| {
            s.alloc_buffer(exporter, TIER_SEG_BYTES)
        })?;
        sys.prepare_buffer(exporter, buf, TIER_SEG_BYTES)
            .map_err(|e| format!("prepare: {e:?}"))?;
        let segid = clocked(m, &mut sys, Site::MakeFwk, 0, |s| {
            s.xpmem_make(exporter, buf, TIER_SEG_BYTES, None)
        })?;
        // Capacity placement: segments start on NVM, their home.
        clocked(m, &mut sys, Site::TierTick, 0, |s| {
            s.migrate_extent(exporter, segid, MemTier::Nvm)
        })?;
        tier_segs.push(segid);
    }
    let mut consumers = Vec::new();
    for i in 0..n_consumers {
        let enc = EnclaveRef(1 + i);
        let p = sc.spawn(|| {
            clocked(m, &mut sys, Site::Spawn, 0, |s| {
                s.spawn_process(enc, 4 * MIB)
            })
        })?;
        let now = sys.clock().now();
        let (id, end) = pool.join_at(&mut sys, p, now).map_err(pool_err)?;
        sys.clock().advance_to(end);
        let mut tier_vas = Vec::new();
        for &segid in &tier_segs {
            let apid = clocked(m, &mut sys, Site::Get, 0, |s| s.xpmem_get(p, segid))?;
            tier_vas.push(clocked(m, &mut sys, Site::AttachKitten, 0, |s| {
                s.xpmem_attach(p, apid, 0, TIER_SEG_BYTES)
            })?);
        }
        consumers.push(Consumer {
            p,
            id,
            tier_vas,
            alive: true,
        });
    }
    let setup = sc.finish();

    // With the program's tracer enabled, its registry must count the
    // same moves, pages and sweeps the public API reported.
    let registry = [
        Counter::TierMigrations,
        Counter::TierPagesMigrated,
        Counter::PoolSlotsSwept,
    ];
    let registry_base = registry.map(|c| tracer.counter(c));
    let clock = sys.clock().clone();
    let mut counters = Counters::default();
    let mut back = vec![0u8; PAYLOAD];
    let mut payload = Payload::new(seed, PAYLOAD);
    let mut hot_buf = vec![0u8; HOT_READ];
    m.begin_steps();
    for step in 0..steps {
        if step == sched.crash_step + 1 {
            let now = clock.now();
            let (n, end) = m.timed(Site::PoolSweep, 0, || {
                let (n, end) = pool.sweep_at(&mut sys, now);
                clock.advance_to(end);
                (n, end)
            });
            m.record(Site::PoolSweep, 0, end.as_nanos(), true);
            counters.swept += n;
            if n == 0 {
                return Err("the crash sweep reclaimed nothing".into());
            }
        }
        let n = consumers.len();
        for (c, con) in consumers.iter().enumerate() {
            if !con.alive {
                continue;
            }
            let guard = on_clock(m, &clock, Site::PoolAcquire, |now| pool.acquire_at(now))?;
            let pat = payload.stamp((step * n + c) as u64);
            let va = pool
                .slab_va(Holder::Exporter, guard.slot())
                .ok_or("exporter slab address")?;
            clocked(m, &mut sys, Site::Write, PAYLOAD as u64, |s| {
                s.write(exporter, va, pat)
            })?;
            counters.publish_attempts += 1;
            on_clock(m, &clock, Site::PoolPublish, |now| {
                pool.publish_at(con.id, guard, now)
                    .map(|end| ((), end))
                    .map_err(|(_, e)| e)
            })?;
        }
        for (c, con) in consumers.iter_mut().enumerate() {
            if !con.alive {
                continue;
            }
            let guard = on_clock(m, &clock, Site::PoolConsume, |now| {
                pool.consume_at(con.id, now)
            })?
            .ok_or("a published slot was not visible to its consumer")?;
            counters.consumes += 1;
            let va = pool
                .slab_va(Holder::Consumer(con.id.0), guard.slot())
                .ok_or("consumer slab address")?;
            clocked(m, &mut sys, Site::Read, PAYLOAD as u64, |s| {
                s.read(con.p, va, &mut back)
            })?;
            if back != payload.stamp((step * n + c) as u64) {
                return Err(format!(
                    "step {step}: consumer {c} read a corrupted payload"
                ));
            }
            let hot = (step / phase) * 2;
            for h in [hot % TIER_SEGS, (hot + 1) % TIER_SEGS] {
                let va = con.tier_vas[h];
                clocked(m, &mut sys, Site::Read, HOT_READ as u64, |s| {
                    s.read(con.p, va, &mut hot_buf)
                })?;
            }
            if step == sched.crash_step && c == sched.crash_consumer {
                let p = con.p;
                clocked(m, &mut sys, Site::Crash, 0, |s| s.crash_process(p))?;
                con.alive = false;
                continue;
            }
            on_clock(m, &clock, Site::PoolRelease, |now| {
                pool.release_at(Holder::Consumer(con.id.0), guard, now)
                    .map(|end| ((), end))
            })?;
        }
        if step % TICK_EVERY == TICK_EVERY - 1 {
            let moves = clocked(m, &mut sys, Site::TierTick, 0, |s| {
                s.tier_policy_tick(exporter)
            })?;
            let pages: u64 = moves.iter().map(|mv| mv.pages).sum();
            m.add_units(Site::TierTick, pages * 4096);
            counters.tier_moves += moves.len() as u64;
            counters.tier_pages += pages;
        }
        m.step();
    }
    m.end_steps();
    if tracer.is_enabled() {
        let api = [counters.tier_moves, counters.tier_pages, counters.swept];
        for ((c, base), api) in registry.iter().zip(registry_base).zip(api) {
            let counted = tracer.counter(*c) - base;
            if counted != api {
                return Err(format!(
                    "registry counts {counted} {c:?}, the API reported {api}"
                ));
            }
        }
    }

    // Teardown and the oracles: the pool leaks nothing, and every
    // frame book — per enclave and per tier — is back at its baseline.
    pool.leak_check()
        .map_err(|e| format!("pool leak check: {e}"))?;
    for con in consumers.iter().filter(|c| c.alive) {
        let p = con.p;
        clocked(m, &mut sys, Site::Exit, 0, |s| s.exit_process(p))?;
    }
    clocked(m, &mut sys, Site::Exit, 0, |s| s.exit_process(exporter))?;
    if books(&sys) != baseline_books {
        return Err(format!(
            "tier frame books {:?}, baseline {baseline_books:?}",
            books(&sys)
        ));
    }
    for (i, base) in baseline_frames.iter().enumerate() {
        let now = sys.free_frames_of(EnclaveRef(i));
        if now != *base {
            return Err(format!(
                "enclave {i} ends at {now:?} free frames, baseline {base:?}"
            ));
        }
    }
    counters.tier_deferred = sys.events().with_prefix("tier:migrate-deferred").count() as u64
        + sys.events().with_prefix("tier:migrate-nospace").count() as u64;
    let mut out = Outcome {
        setup,
        counters,
        ..Outcome::default()
    };
    audit_system(&tracer, &mut out.trace)?;
    Ok(out)
}
