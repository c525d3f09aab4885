//! The part every workload shares: set-up repetition, the block loop,
//! the untraced and traced phases, and turning samples into metrics.
//!
//! One thread, closed loop, one client: the next op starts when the
//! previous one (and the harness's check of it) has finished. Block
//! throughput counts op time only, so the oracle's work between ops is
//! think time, not load.
//!
//! Every timing is a median over blocks — throughput, and the 50th and
//! 99th percentile of each block's op times alike — after each block's
//! times have been scaled to a reference host speed. The sandbox shares
//! its cores: for seconds or minutes at a time a neighbour on the
//! sibling hardware thread takes half the issue slots, or leaves and the
//! clock rises, and a block runs a quarter slower or faster with no
//! change to the program. `HostProbe`, a fixed kernel run beside every
//! block, reads that speed; a block's times are multiplied by the
//! reference reading over the readings around it.

use crate::metrics::{self, Json, END_TO_END, LAYER_SCALARS, SPAN_METRICS};
use crate::oracle::Tally;
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use up2p_net::{MsgKind, NetStats};

/// How long a phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// A fixed number of blocks: counts repeat exactly for a seed.
    Blocks(u32),
    /// Whole blocks until this many seconds have passed.
    Seconds(f64),
}

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Multiplies op counts, corpus sizes and peer counts.
    pub scale: f64,
    pub budget: Budget,
    pub trace: bool,
    /// Directory for stores, traces and results (inside the build tree).
    pub scratch: PathBuf,
}

impl Config {
    /// `n` scaled, at least `floor`.
    pub fn scaled(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(floor)
    }
}

/// Where stores, traces and results go: beside the executable, so
/// always inside the build tree of the checkout that built it.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("target/up2p_bench"));
    exe.parent()
        .unwrap_or(std::path::Path::new("."))
        .join("bench")
}

/// Set-up is repeated so `setup_s` is a median, not one draw: at least
/// `MIN` times, then until `SECONDS` have gone into it, at most `MAX`
/// times. A set-up of tens of milliseconds needs the many repetitions.
const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 25;
const SETUP_REPS_SECONDS: f64 = 2.0;
/// Blocks of a run without `--seconds`.
pub const DEFAULT_BLOCKS: u32 = 5;
/// What `HostProbe::read` gives on the sandbox in its usual state, in
/// nanoseconds: the host speed every wall-clock timing is reported at.
const HOST_REFERENCE_NS: f64 = 3_500_000.0;
/// How a program's time answers to the probe's: where the probe reads
/// 10 % above the reference, blocks of the same ops take 15 % longer
/// (fitted over 30 runs of each workload at seeds and hours of their own:
/// 1.3–2.0 on four workloads, 0.7–0.9 on `search_guided` and
/// `des_guided`). Real code leans harder on what a busy neighbour takes
/// — decode, cache ways, the TLB — than the probe's two tight loops do.
const HOST_RESPONSE: f64 = 1.5;
/// Size of the probe's ring; `peak_rss_mb` is reported without it.
const PROBE_RING_MIB: usize = 32;

/// A fixed kernel that reads how fast the host runs this process right
/// now, half compute and half memory as the workloads are.
struct HostProbe {
    /// One cycle through `PROBE_RING_MIB` of memory in scattered order,
    /// so a walk along it misses every cache.
    ring: Vec<u32>,
    /// Where the last walk stopped; the next goes on from there, over
    /// lines no earlier walk has brought into cache.
    at: u32,
}

/// `slots` (a power of two) indices, each naming the next: a linear
/// congruential step with an odd increment and a multiplier of the form
/// 4k + 1 visits every slot once before it repeats.
fn scattered_cycle(slots: u32) -> Vec<u32> {
    (0..slots)
        .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) & (slots - 1))
        .collect()
}

impl HostProbe {
    fn new() -> HostProbe {
        HostProbe {
            ring: scattered_cycle((PROBE_RING_MIB << 18) as u32),
            at: 0,
        }
    }

    /// The geometric mean of two durations, in nanoseconds. Eight
    /// independent multiply chains fill the core's issue slots, so they
    /// slow when the sibling hardware thread is busy and speed up with
    /// the clock; a dependent walk along the ring waits on memory, so it
    /// slows when a neighbour takes cache and bandwidth.
    fn read(&mut self) -> f64 {
        let started = Instant::now();
        let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for i in 0..600_000u64 {
            for (k, x) in lanes.iter_mut().enumerate() {
                *x = (*x ^ (*x >> 7))
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i + k as u64);
            }
        }
        std::hint::black_box(lanes);
        let compute_ns = started.elapsed().as_nanos() as f64;
        let started = Instant::now();
        for _ in 0..30_000 {
            self.at = self.ring[self.at as usize];
        }
        let memory_ns = started.elapsed().as_nanos() as f64;
        (compute_ns * memory_ns).sqrt()
    }
}

/// Message counters of one block's timed ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct MsgCount {
    pub total: u64,
    pub by_kind: [u64; MsgKind::ALL.len()],
}

impl MsgCount {
    /// What `after` counted beyond `before`.
    pub fn delta(before: &NetStats, after: &NetStats) -> MsgCount {
        let mut by_kind = [0; MsgKind::ALL.len()];
        for (slot, kind) in by_kind.iter_mut().zip(MsgKind::ALL) {
            *slot = after.count(kind) - before.count(kind);
        }
        MsgCount {
            total: after.messages - before.messages,
            by_kind,
        }
    }

    fn add(&mut self, other: &MsgCount) {
        self.total += other.total;
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
    }
}

/// What one block hands back.
#[derive(Debug, Default)]
pub struct BlockStats {
    /// One latency sample per op, in nanoseconds.
    pub op_ns: Vec<u64>,
    /// Time the throughput is taken over; the sum of `op_ns` unless the
    /// workload drains all ops in one call (the DES).
    pub busy_ns: u64,
    pub msgs: MsgCount,
}

impl BlockStats {
    /// Stats of a block whose ops were timed one by one.
    pub fn per_op(op_ns: Vec<u64>, msgs: MsgCount) -> BlockStats {
        let busy_ns = op_ns.iter().sum();
        BlockStats {
            op_ns,
            busy_ns,
            msgs,
        }
    }
}

/// Named layer values a workload contributes beyond its spans.
pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload: Sized {
    const NAME: &'static str;
    /// The latency samples are simulated time (the DES), which no host
    /// speed moves; only the throughput is scaled.
    const SIMULATED_LATENCY: bool = false;

    /// Corpus generation, network build, pre-load, digest build and one
    /// warm-up pass. With `cfg.trace` it also builds what the traced
    /// phase needs (replicas, probe indexes).
    fn setup(cfg: &Config) -> Self;

    /// Runs block number `block`. With a tracer the ops are replayed
    /// with spans (decomposed where the servent call is monolithic).
    fn block(
        &mut self,
        cfg: &Config,
        block: u32,
        tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> BlockStats;

    /// One-off measurements and counters for the per-layer report.
    fn layers(&mut self, cfg: &Config, tracer: &mut Tracer, tally: &mut Tally, out: &mut Layers);

    /// Facts about the run worth keeping beside the numbers.
    fn info(&self) -> Json;
}

/// One timed block before scaling.
#[derive(Debug)]
struct Block {
    ops: usize,
    busy_s: f64,
    p50_us: f64,
    p99_us: f64,
}

#[derive(Debug, Default)]
struct Phase {
    blocks: Vec<Block>,
    /// Host probe readings: one before the first block, one after each.
    probes: Vec<f64>,
    msgs: MsgCount,
    tally: Tally,
}

/// The timings of a phase at the reference host speed.
#[derive(Debug)]
struct Timings {
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    block_ops_per_s: Vec<f64>,
}

/// The factor that takes a time measured where the probe read
/// `probe_ns` to the reference host speed.
fn host_scale(probe_ns: f64) -> f64 {
    (HOST_REFERENCE_NS / probe_ns.max(1.0)).powf(HOST_RESPONSE)
}

impl Phase {
    /// By how much block `i`'s times are multiplied: what the program
    /// gains where the probe reads the reference instead of the median
    /// of the six readings from two blocks before to two blocks after. A
    /// single reading lasts milliseconds and can miss the state the
    /// block ran in.
    fn host_scale(&self, i: usize) -> f64 {
        let near = &self.probes[i.saturating_sub(2)..(i + 4).min(self.probes.len())];
        host_scale(metrics::median(near))
    }

    fn timings(&self, scale_latency: bool) -> Timings {
        let (mut ops_per_s, mut p50_us, mut p99_us) = (Vec::new(), Vec::new(), Vec::new());
        for (i, b) in self.blocks.iter().enumerate() {
            let host = self.host_scale(i);
            let latency = if scale_latency { host } else { 1.0 };
            ops_per_s.push(b.ops as f64 / (b.busy_s * host).max(1e-9));
            p50_us.push(b.p50_us * latency);
            p99_us.push(b.p99_us * latency);
        }
        Timings {
            ops_per_s: metrics::median(&ops_per_s),
            p50_us: metrics::median(&p50_us),
            p99_us: metrics::median(&p99_us),
            block_ops_per_s: ops_per_s,
        }
    }
}

fn run_phase<W: Workload>(
    world: &mut W,
    cfg: &Config,
    budget: Budget,
    first_block: u32,
    probe: &mut HostProbe,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut phase = Phase {
        probes: vec![probe.read()],
        ..Phase::default()
    };
    let started = Instant::now();
    loop {
        let stats = world.block(
            cfg,
            first_block + phase.blocks.len() as u32,
            tracer.as_deref_mut(),
            &mut phase.tally,
        );
        phase.probes.push(probe.read());
        let mut op_ns = stats.op_ns;
        op_ns.sort_unstable();
        phase.blocks.push(Block {
            ops: op_ns.len(),
            busy_s: stats.busy_ns as f64 / 1e9,
            p50_us: metrics::percentile_sorted(&op_ns, 50.0) as f64 / 1e3,
            p99_us: metrics::percentile_sorted(&op_ns, 99.0) as f64 / 1e3,
        });
        phase.msgs.add(&stats.msgs);
        let done = match budget {
            Budget::Blocks(n) => phase.blocks.len() as u32 >= n,
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
    }
    phase
}

fn series(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Present on a traced run.
    pub per_layer: Option<BTreeMap<String, f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub info: Json,
}

pub fn run<W: Workload>(cfg: &Config) -> Report {
    // set-up time is scaled to the reference host speed like a block's,
    // by the probe readings either side of it
    let (mut setup_s, mut setup_raw_s): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut world = None;
    let mut probe = HostProbe::new();
    let mut before = probe.read();
    loop {
        drop(world.take()); // so two worlds never count toward peak RSS
        let started = Instant::now();
        world = Some(W::setup(cfg));
        let raw_s = started.elapsed().as_secs_f64();
        let after = probe.read();
        setup_raw_s.push(raw_s);
        setup_s.push(raw_s * host_scale((before + after) / 2.0));
        before = after;
        // a traced run reports no `setup_s`, so it sets up once
        let enough = setup_s.len() >= SETUP_REPS_MIN
            && (setup_raw_s.iter().sum::<f64>() >= SETUP_REPS_SECONDS
                || setup_s.len() >= SETUP_REPS_MAX);
        if cfg.trace || enough {
            break;
        }
    }
    let mut world = world.expect("the loop sets up at least once");

    // a traced run splits its budget between an untraced phase (the
    // base of `trace.overhead_ratio`) and the traced one
    let untraced_budget = match (cfg.trace, cfg.budget) {
        (false, budget) => budget,
        (true, Budget::Blocks(_)) => Budget::Blocks(2),
        (true, Budget::Seconds(s)) => Budget::Seconds(s / 2.0),
    };
    let untraced = run_phase(&mut world, cfg, untraced_budget, 0, &mut probe, None);
    let timings = untraced.timings(!W::SIMULATED_LATENCY);
    let ops = untraced.tally.attempted.max(1) as f64;
    let end_to_end: BTreeMap<&'static str, f64> = [
        ("ops_per_s", timings.ops_per_s),
        ("op_p50_us", timings.p50_us),
        ("op_p99_us", timings.p99_us),
        ("ok_ops_ratio", untraced.tally.ok_ratio()),
        ("answerable_recall", untraced.tally.recall()),
        ("msgs_per_op", untraced.msgs.total as f64 / ops),
        (
            "peak_rss_mb",
            metrics::peak_rss_mb() - PROBE_RING_MIB as f64,
        ),
        ("setup_s", metrics::median(&setup_s)),
    ]
    .into_iter()
    .collect();
    assert_eq!(end_to_end.len(), END_TO_END.len());

    let mut attempted = untraced.tally.attempted;
    let mut failed = untraced.tally.failed;
    let shortest_block_s = untraced
        .blocks
        .iter()
        .map(|b| b.busy_s)
        .fold(f64::INFINITY, f64::min);
    let mut info = vec![
        ("blocks", Json::Num(untraced.blocks.len() as f64)),
        (
            "samples",
            Json::Num(untraced.blocks.iter().map(|b| b.ops).sum::<usize>() as f64),
        ),
        ("shortest_block_s", Json::Num(shortest_block_s)),
        ("block_ops_per_s", series(timings.block_ops_per_s)),
        ("host_probe_ns", series(untraced.probes.iter().copied())),
        ("setup_runs_s", series(setup_s)),
        ("setup_runs_unscaled_s", series(setup_raw_s)),
        ("workload", world.info()),
    ];

    let per_layer = cfg.trace.then(|| {
        let traced_budget = match cfg.budget {
            Budget::Blocks(_) => Budget::Blocks(1),
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
        };
        let mut tracer = Tracer::new();
        let mut traced = run_phase(
            &mut world,
            cfg,
            traced_budget,
            untraced.blocks.len() as u32,
            &mut probe,
            Some(&mut tracer),
        );
        let mut layers = Layers::new();
        world.layers(cfg, &mut tracer, &mut traced.tally, &mut layers);
        attempted += traced.tally.attempted;
        failed += traced.tally.failed;

        let stats = tracer.stats();
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for name in SPAN_METRICS {
            let s = stats.get(name).copied().unwrap_or_default();
            out.insert(format!("{name}_us"), s.mean_us());
            out.insert(format!("{name}_calls"), s.calls as f64);
        }
        for (k, kind) in MsgKind::ALL.into_iter().enumerate() {
            out.insert(
                format!("net.msgs.{}", kind.name()),
                untraced.msgs.by_kind[k] as f64 / ops,
            );
        }
        out.insert(
            "oracle.unanswerable_ops".into(),
            untraced.tally.unanswerable as f64,
        );
        out.insert(
            "oracle.false_positive_hits".into(),
            untraced.tally.false_positive_hits as f64,
        );

        // coverage: the self times of the spans inside ops, over the
        // ops' own durations; the op span's self time is what no layer
        // span accounts for
        let op_total = stats.get(trace::OP).map_or(0, |s| s.total_ns).max(1) as f64;
        let share = |layers: &[&str]| {
            stats
                .iter()
                .filter(|(name, _)| layers.contains(&trace::layer_of(name)))
                .map(|(_, s)| s.op_self_ns)
                .sum::<u64>() as f64
                / op_total
        };
        let upper = share(&["xml", "schema", "xslt", "core"]);
        let lower = share(&["store", "net"]);
        out.insert("trace.share.xml_schema_xslt_core".into(), upper);
        out.insert("trace.share.store_net".into(), lower);
        out.insert("trace.coverage_ratio".into(), upper + lower);
        out.insert(
            "trace.overhead_ratio".into(),
            traced.timings(!W::SIMULATED_LATENCY).p50_us / timings.p50_us.max(1e-9),
        );
        for (name, value) in layers {
            out.insert(name.to_string(), value);
        }
        for m in LAYER_SCALARS {
            out.entry(m.name.to_string()).or_insert(0.0);
        }

        let path = cfg.scratch.join(format!("trace-{}.json", W::NAME));
        if let Err(e) = tracer.write_json(&path) {
            eprintln!("up2p_bench: cannot write {}: {e}", path.display());
        }
        info.push(("traced_blocks", Json::Num(traced.blocks.len() as f64)));
        info.push(("trace_file", Json::Str(path.display().to_string())));
        out
    });

    Report {
        workload: W::NAME,
        end_to_end,
        per_layer,
        attempted,
        failed,
        info: Json::obj(info),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_ring_is_one_cycle() {
        let ring = scattered_cycle(1 << 12);
        let (mut at, mut steps) = (0u32, 0);
        loop {
            at = ring[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, 1 << 12);
    }

    #[test]
    fn timings_are_scaled_to_the_reference_host_speed() {
        let block = |busy_s: f64| Block {
            ops: 1000,
            busy_s,
            p50_us: busy_s * 1e3,
            p99_us: busy_s * 4e3,
        };
        // the same work on a host at reference speed and on one where
        // the probe takes twice as long and the program 2^1.5 times
        let slow = 2f64.powf(HOST_RESPONSE);
        let calm = Phase {
            blocks: vec![block(0.5), block(0.5), block(0.5)],
            probes: vec![HOST_REFERENCE_NS; 4],
            ..Phase::default()
        };
        let loud = Phase {
            blocks: vec![block(0.5 * slow), block(0.5 * slow), block(0.5 * slow)],
            probes: vec![2.0 * HOST_REFERENCE_NS; 4],
            ..Phase::default()
        };
        let (a, b) = (calm.timings(true), loud.timings(true));
        assert_eq!(a.ops_per_s, 2000.0);
        let close = |x: f64, y: f64| (x / y - 1.0).abs() < 1e-12;
        assert!(close(a.ops_per_s, b.ops_per_s) && close(a.p50_us, b.p50_us));
        assert!(close(a.p99_us, b.p99_us));
        // simulated latencies are left as they are
        let simulated = loud.timings(false);
        assert_eq!(simulated.p50_us, 500.0 * slow);
        assert!(close(simulated.ops_per_s, 2000.0));
    }

    #[test]
    fn one_stray_probe_reading_does_not_move_a_block() {
        let phase = Phase {
            probes: vec![
                HOST_REFERENCE_NS,
                9.0 * HOST_REFERENCE_NS,
                HOST_REFERENCE_NS,
                HOST_REFERENCE_NS,
                HOST_REFERENCE_NS,
            ],
            ..Phase::default()
        };
        assert_eq!(phase.host_scale(1), 1.0);
    }
}
