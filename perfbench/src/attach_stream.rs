//! `attach_stream`: full attach lifecycles across every enclave kind.
//!
//! The mapping and kernel-simulator layers (`xemem-mem`, Kitten, the
//! Linux-like FWK, Palacios) and core teardown do nearly all the work:
//! one unsharded name server, no PDES, no pool. Each step is one
//! lifecycle — make, get, attach, a 64 B read per 2 MiB plus a 4 KiB
//! pattern readback, detach, release, remove — over a pair that
//! rotates Kitten→Linux, Linux→Kitten, Kitten→Kitten, Kitten→VM,
//! VM→Kitten, with sizes of 1–64 MiB in seeded order. Every `crash_every`-th
//! step crashes the attacher while its mapping is live and respawns
//! it. The VM steps form the tail: Palacios inserts guest mappings
//! page by page into its RB-tree memory map, native attachers map
//! whole extents.

use crate::{
    audit_system, clocked, system_tracer, Meter, Outcome, Payload, Scale, SetupClock, Site,
};
use xemem::{EnclaveRef, GuestOs, MemoryMapKind, ProcessRef, SystemBuilder, VirtAddr};
use xemem_sim::SimRng;

const MIB: u64 = 1 << 20;
/// Exporter buffer: the largest segment any step exports.
const BUF: u64 = 64 * MIB;
/// Private memory of an attaching process.
const ATT_MEM: u64 = 8 * MIB;
/// Spacing of the one-line reads through each mapping.
const LINE_STRIDE: u64 = 2 * MIB;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Linux,
    Kitten,
    Vm,
}

struct Node {
    enc: EnclaveRef,
    kind: Kind,
    exporter: ProcessRef,
    buf: VirtAddr,
    attacher: ProcessRef,
}

/// Exporter → attacher node indices (0 linux, 1 kitten0, 2 kitten1,
/// 3 vm), in rotation order.
const PAIRS: [(usize, usize); 5] = [(1, 0), (0, 1), (1, 2), (2, 3), (3, 2)];

/// The generated schedule: a segment size per step and the crash
/// cadence. The program sees only this.
struct Schedule {
    /// Exported bytes per step.
    sizes: Vec<u64>,
    /// Every `crash_every`-th step crashes its attacher.
    crash_every: usize,
}

/// Steps per replay: one lifecycle each.
pub(crate) fn steps(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1000,
        Scale::Tiny => 20,
    }
}

/// Generate the schedule for `seed`. Each pair's steps draw their
/// sizes from the same fixed multiset (every whole MiB from 1 to the
/// maximum, round-robin) and the seed shuffles which step gets which,
/// so every seed exports the same bytes per pair and only the order
/// changes.
fn schedule(scale: Scale, seed: u64) -> Schedule {
    let (max_mib, crash_every) = match scale {
        Scale::Full => (64, 50),
        Scale::Tiny => (4, 7),
    };
    let mut rng = SimRng::seed_from_u64(seed);
    let per_pair = steps(scale) / PAIRS.len();
    let by_pair: Vec<Vec<u64>> = (0..PAIRS.len())
        .map(|_| {
            let mut sizes: Vec<u64> = (0..per_pair as u64)
                .map(|i| (i % max_mib + 1) * MIB)
                .collect();
            for i in (1..sizes.len()).rev() {
                sizes.swap(i, rng.uniform_u64(0, i as u64 + 1) as usize);
            }
            sizes
        })
        .collect();
    Schedule {
        sizes: (0..steps(scale))
            .map(|i| by_pair[i % PAIRS.len()][i / PAIRS.len()])
            .collect(),
        crash_every,
    }
}

fn make_site(k: Kind) -> Site {
    match k {
        Kind::Linux => Site::MakeFwk,
        Kind::Kitten => Site::MakeKitten,
        Kind::Vm => Site::MakeVm,
    }
}

fn attach_site(k: Kind) -> Site {
    match k {
        Kind::Linux => Site::AttachFwk,
        Kind::Kitten => Site::AttachKitten,
        Kind::Vm => Site::AttachVm,
    }
}

fn detach_site(k: Kind) -> Site {
    match k {
        Kind::Linux => Site::DetachFwk,
        Kind::Kitten => Site::DetachKitten,
        Kind::Vm => Site::DetachVm,
    }
}

/// One replay; see the module docs.
pub(crate) fn replay(
    scale: Scale,
    seed: u64,
    m: &mut Meter,
    tracing: bool,
) -> Result<Outcome, String> {
    let sched = schedule(scale, seed);
    let tracer = system_tracer(tracing);
    let mut sc = SetupClock::start();
    let mut sys = sc
        .build(|| {
            SystemBuilder::new()
                .with_tracer(tracer.clone())
                .linux_management("linux", 4, 512 * MIB)
                .kitten_cokernel("kitten0", 1, 192 * MIB)
                .kitten_cokernel("kitten1", 1, 192 * MIB)
                .palacios_vm(
                    "vm",
                    "linux",
                    256 * MIB,
                    MemoryMapKind::RbTree,
                    GuestOs::Fwk,
                )
                .build()
        })
        .map_err(|e| format!("build: {e:?}"))?;
    let mut nodes = Vec::new();
    for (name, kind) in [
        ("linux", Kind::Linux),
        ("kitten0", Kind::Kitten),
        ("kitten1", Kind::Kitten),
        ("vm", Kind::Vm),
    ] {
        let enc = sys.enclave_by_name(name).ok_or("missing enclave")?;
        let mem = BUF + 16 * MIB;
        let exporter =
            sc.spawn(|| clocked(m, &mut sys, Site::Spawn, 0, |s| s.spawn_process(enc, mem)))?;
        let attacher = sc.spawn(|| {
            clocked(m, &mut sys, Site::Spawn, 0, |s| {
                s.spawn_process(enc, ATT_MEM)
            })
        })?;
        let buf = clocked(m, &mut sys, Site::Alloc, 0, |s| {
            s.alloc_buffer(exporter, BUF)
        })?;
        sys.prepare_buffer(exporter, buf, BUF)
            .map_err(|e| format!("prepare: {e:?}"))?;
        nodes.push(Node {
            enc,
            kind,
            exporter,
            buf,
            attacher,
        });
    }
    let setup = sc.finish();
    let baseline: Vec<u64> = nodes
        .iter()
        .map(|n| sys.free_frames_of(n.enc).unwrap_or(0))
        .collect();

    let mut line = [0u8; 64];
    let mut page = vec![0u8; 4096];
    let mut payload = Payload::new(seed, 4096);
    m.begin_steps();
    for (i, &len) in sched.sizes.iter().enumerate() {
        let (xi, ai) = PAIRS[i % PAIRS.len()];
        let (ex, ex_kind, buf) = (nodes[xi].exporter, nodes[xi].kind, nodes[xi].buf);
        let (att, att_kind) = (nodes[ai].attacher, nodes[ai].kind);
        let pat = payload.stamp(i as u64);
        clocked(m, &mut sys, Site::Write, 4096, |s| s.write(ex, buf, pat))?;
        let segid = clocked(m, &mut sys, make_site(ex_kind), len, |s| {
            s.xpmem_make(ex, buf, len, None)
        })?;
        let apid = clocked(m, &mut sys, Site::Get, 0, |s| s.xpmem_get(att, segid))?;
        let va = clocked(m, &mut sys, attach_site(att_kind), len, |s| {
            s.xpmem_attach(att, apid, 0, len)
        })?;
        for off in (0..len).step_by(LINE_STRIDE as usize) {
            // Sizes are whole MiB, so every line lies inside the window.
            let at = VirtAddr(va.0 + off + 4096);
            clocked(m, &mut sys, Site::Read, 64, |s| s.read(att, at, &mut line))?;
        }
        clocked(m, &mut sys, Site::Read, 4096, |s| {
            s.read(att, va, &mut page)
        })?;
        if page != payload.stamp(i as u64) {
            return Err(format!(
                "step {i}: readback differs from the exported pattern"
            ));
        }
        if i % sched.crash_every == sched.crash_every - 1 {
            clocked(m, &mut sys, Site::Crash, 0, |s| s.crash_process(att))?;
            let enc = nodes[ai].enc;
            nodes[ai].attacher = clocked(m, &mut sys, Site::Spawn, 0, |s| {
                s.spawn_process(enc, ATT_MEM)
            })?;
        } else {
            clocked(m, &mut sys, detach_site(att_kind), len, |s| {
                s.xpmem_detach(att, va)
            })?;
            clocked(m, &mut sys, Site::Release, 0, |s| {
                s.xpmem_release(att, apid)
            })?;
        }
        clocked(m, &mut sys, Site::Remove, 0, |s| s.xpmem_remove(ex, segid))?;
        for (n, base) in nodes.iter().zip(&baseline) {
            let now = sys.free_frames_of(n.enc).unwrap_or(0);
            if now != *base {
                return Err(format!(
                    "step {i}: enclave {:?} holds {now} free frames, baseline {base}",
                    n.enc
                ));
            }
        }
        if sys.outstanding_loans() != 0 {
            return Err(format!("step {i}: frame loans still open"));
        }
        m.step();
    }
    m.end_steps();

    for n in &nodes {
        clocked(m, &mut sys, Site::Exit, 0, |s| s.exit_process(n.attacher))?;
        clocked(m, &mut sys, Site::Exit, 0, |s| s.exit_process(n.exporter))?;
    }
    let mut out = Outcome {
        setup,
        ..Outcome::default()
    };
    audit_system(&tracer, &mut out.trace)?;
    Ok(out)
}
