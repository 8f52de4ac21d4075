//! The RAFDA benchmark binary: runs one workload for a fixed wall time
//! and prints every metric it measured as one JSON line.
//!
//! ```text
//! rafda-perfbench --workload <soak|rpc|local> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! rafda-perfbench --selfcheck [--seed <n>]
//! ```
//!
//! A run times repeated set-ups (`setup_s`), then replays the seeded
//! episode until `--seconds` have passed. Wall-clock metrics are medians
//! over episodes; counters come from the first episode and must repeat
//! exactly in every later one. With `--trace 1` episodes 1 and 3 record spans
//! around every call into a layer, the per-layer self times are reported
//! and the spans are written to `<out>/trace-<workload>.tsv`.
//!
//! The last stdout line is `{"correct", "attempted", "failed", "metrics"}`
//! with every metric by name; the exit code is 1 when any returned value
//! disagreed with the oracle, a monitor fired or a counter failed to
//! repeat.

mod alloc;
mod calib;
mod trace;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::{name, Tracer};
use workload::{rss_mb, run_episode, time_setups, Episode, PhaseSample, Plan, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Traced episodes per traced run; later episodes run untraced, which
/// bounds the span buffer and the written trace.
const TRACED_EPISODES: usize = 2;

/// Set-up timing: batches × set-ups per batch.
const SETUP_BATCHES: usize = 9;
const SETUPS_PER_BATCH: usize = 6;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::from_name(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rafda-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.selfcheck {
        std::process::exit(if selfcheck(args.seed) { 0 } else { 1 });
    }
    let Some(workload) = args.workload else {
        eprintln!("rafda-perfbench: --workload is required");
        std::process::exit(2);
    };
    let result = run(workload, &args);
    println!("{}", result.json());
    if !result.correct {
        std::process::exit(1);
    }
}

/// The outcome of a run: the verdict plus every metric it measured.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", if v.is_finite() { *v } else { 0.0 }))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Metric name → value, as printed.
type Metrics = BTreeMap<String, f64>;

fn put(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_owned(), value);
}

fn run(workload: Workload, args: &Args) -> RunResult {
    let plan = Plan::new(workload, args.seed, workload.episode_ops());
    let mut tr = Tracer::new();
    tr.set_on(args.trace);
    let setup_s = time_setup(&plan, &mut tr);
    tr.set_on(false);
    let eps = run_episodes(&plan, &mut tr, args);

    let all = eps.untraced.iter().chain(&eps.traced);
    let attempted = all.clone().map(|e| e.ops).sum::<u64>().max(1);
    let failed = all.map(|e| e.failed).sum::<u64>();
    let mut m = Metrics::new();
    put(&mut m, "setup_s", setup_s);
    put(&mut m, "peak_rss_mb", eps.peak_rss_mb);
    put(&mut m, "failed_ops_frac", ratio(failed, attempted));
    wall_clock(&mut m, &eps.untraced);
    counters(&mut m, &eps.untraced[0]);
    if args.trace {
        layers(&mut m, &tr, &eps.traced);
        if let Some(dir) = &args.out {
            let path = dir.join(format!("trace-{}.tsv", workload.name()));
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| tr.write_tsv(&path)) {
                eprintln!("rafda-perfbench: writing {}: {e}", path.display());
            }
        }
    }
    if let Some(e) = &eps.error {
        eprintln!(
            "rafda-perfbench: {} seed {}: {e}",
            workload.name(),
            args.seed
        );
    }
    RunResult {
        correct: eps.error.is_none(),
        attempted,
        failed,
        metrics: m,
    }
}

/// Seconds per set-up at the nominal host speed: the median of
/// [`SETUP_BATCHES`] batches, each between two host-speed calibrations.
fn time_setup(plan: &Plan, tr: &mut Tracer) -> f64 {
    let mut cal = calib::Calibrator::new();
    let batches = (0..SETUP_BATCHES)
        .map(|_| {
            let before = cal.slowdown();
            let per_setup = time_setups(plan, tr, SETUPS_PER_BATCH);
            per_setup / ((before + cal.slowdown()) / 2.0)
        })
        .collect();
    median(batches)
}

/// The episodes of a run and the first failure among them.
struct Episodes {
    untraced: Vec<Episode>,
    traced: Vec<Episode>,
    error: Option<String>,
    /// Peak resident memory once episode 0 ended. Later episodes reuse a
    /// heap that fragments a little more each time, so the peak of the
    /// whole run would grow with the number of episodes the host's speed
    /// allowed.
    peak_rss_mb: f64,
}

/// Replay the plan until `args.seconds` have passed (and, when tracing,
/// until the traced episodes ran), stopping at the first failure.
fn run_episodes(plan: &Plan, tr: &mut Tracer, args: &Args) -> Episodes {
    // Room for the traced episodes' spans (an op span and a layer span
    // per op, plus phases and checks), so recording never reallocates.
    if args.trace {
        tr.reserve(TRACED_EPISODES * (plan.ops() * 2 + 4096));
    }
    let mut eps = Episodes {
        untraced: Vec::new(),
        traced: Vec::new(),
        error: None,
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();
    for i in 0.. {
        let on = args.trace && i % 2 == 1 && eps.traced.len() < TRACED_EPISODES;
        tr.set_on(on);
        let ep = run_episode(plan, tr, i == 0 && args.trace);
        tr.set_on(false);
        if i == 0 {
            eps.peak_rss_mb = rss_mb().1;
        }
        if let Some(e) = &ep.error {
            eps.error = Some(format!("episode {i}: {e}"));
        } else if let Some(first) = eps.untraced.first() {
            // Only episode 0 counts retained spans (a copy of the span log).
            let expected = workload::Counters {
                spans_retained: 0,
                ..first.counters.clone()
            };
            if ep.counters != expected {
                eps.error = Some(format!(
                    "episode {i}: counters differ from episode 0 on the same seed:\n  {:?}\n  {:?}",
                    ep.counters, first.counters
                ));
            }
        }
        if on {
            eps.traced.push(ep);
        } else {
            eps.untraced.push(ep);
        }
        let traced_enough = eps.traced.len() == TRACED_EPISODES || !args.trace;
        if eps.error.is_some() || (start.elapsed().as_secs_f64() >= args.seconds && traced_enough) {
            break;
        }
    }
    eps
}

/// Wall-clock metrics: medians over untraced episodes at the nominal host
/// speed.
fn wall_clock(m: &mut Metrics, untraced: &[Episode]) {
    let med = |f: &dyn Fn(&Episode) -> f64| median(untraced.iter().map(f).collect());
    put(m, "ops_per_s", med(&Episode::ops_per_nominal_s));
    put(m, "read_p50_us", med(&|e| e.pct.read_p50 as f64 / 1e3));
    put(m, "read_p99_us", med(&|e| e.pct.read_p99 as f64 / 1e3));
    put(m, "write_p50_us", med(&|e| e.pct.write_p50 as f64 / 1e3));
    put(m, "write_p99_us", med(&|e| e.pct.write_p99 as f64 / 1e3));
    put(m, "bench.episodes", untraced.len() as f64);
    put(m, "bench.raw_ops_per_s", med(&|e| e.ops as f64 / e.wall_s));
    put(
        m,
        "bench.ref_us",
        med(&Episode::slowdown) * calib::NOMINAL_REF_US,
    );
    for phase in ["warmup", "steady", "churn", "quiesce"] {
        let of_phase = |f: fn(&PhaseSample) -> f64| {
            let per_episode = untraced
                .iter()
                .filter_map(|e| e.phases.iter().find(|p| p.name == phase).map(f));
            median(per_episode.collect())
        };
        put(
            m,
            &format!("soak.{phase}.ops_per_s"),
            of_phase(|p| p.ops as f64 / p.nominal_s),
        );
        // Like `peak_rss_mb`, memory is read from episode 0 only.
        let rss = untraced[0].phases.iter().find(|p| p.name == phase);
        put(
            m,
            &format!("soak.{phase}.rss_mb"),
            rss.map_or(0.0, |p| p.rss_mb),
        );
    }
}

/// Counter metrics of one episode, each over its stated base.
fn counters(m: &mut Metrics, e0: &Episode) {
    let c = &e0.counters;
    let s = &c.stats;
    let ops = e0.ops.max(1);
    let ex = s.exchanges();
    for (name, value) in [
        ("bench.read_samples", e0.pct.reads as f64),
        ("bench.write_samples", e0.pct.writes as f64),
        ("sim_us_per_op", c.sim_ns as f64 / 1e3 / ops as f64),
        ("sim_read_p99_us", e0.pct.sim_read_p99 as f64 / 1e3),
        ("sim_write_p99_us", e0.pct.sim_write_p99 as f64 / 1e3),
        ("msgs_per_op", ratio(c.messages, ops)),
        ("wire_bytes_per_op", ratio(c.bytes, ops)),
        ("runtime.exchanges_per_op", ratio(ex, ops)),
        ("runtime.retries_per_exchange", ratio(s.retries, ex)),
        (
            "runtime.dedup_hits_per_retransmit",
            ratio(s.dedup_hits, s.retransmits),
        ),
        (
            "runtime.cache_hit_ratio",
            ratio(s.cache_hits, s.cache_hits + s.cache_misses),
        ),
        (
            "runtime.replica_reads_per_read",
            ratio(s.replica_reads, e0.reads),
        ),
        (
            "runtime.batched_ops_per_flush",
            ratio(s.batched_ops, s.flushes),
        ),
        (
            "runtime.sweep_probes_per_op",
            ratio(s.replica_sweep_probes, ops),
        ),
        (
            "runtime.syncs_per_probe",
            ratio(s.replica_syncs, s.replica_sweep_probes),
        ),
        ("runtime.dirty_marks_per_op", ratio(s.dirty_marks, ops)),
        (
            "runtime.failovers_per_crash",
            ratio(s.failovers, e0.crashes),
        ),
        ("telemetry.spans_per_op", ratio(c.spans_retained, ops)),
        ("telemetry.spans_retained", c.spans_retained as f64),
        ("vm.steps_per_op", ratio(c.steps, ops)),
        ("vm.native_calls_per_op", ratio(c.native_calls, ops)),
        (
            "vm.objects_allocated_per_op",
            ratio(c.objects_allocated, ops),
        ),
        ("vm.heap_live", c.heap_live as f64),
        ("wire.bytes_per_msg", ratio(c.bytes, c.messages)),
        (
            "wire.sig_ref_ratio",
            ratio(s.sig_refs, s.sig_refs + s.sig_defs),
        ),
        (
            "wire.buf_reuses_per_msg",
            ratio(s.wire_buf_reuses, c.messages),
        ),
        ("net.drops_per_msg", ratio(c.drops, c.messages)),
        (
            "net.busiest_link_share",
            ratio(c.busiest_link_bytes, c.bytes),
        ),
        ("alloc.count_per_op", ratio(e0.alloc.calls, ops)),
        ("alloc.bytes_per_op", ratio(e0.alloc.bytes, ops)),
        ("alloc.live_bytes_per_op", e0.alloc.live as f64 / ops as f64),
    ] {
        put(m, name, value);
    }
}

/// Per-layer self times of the traced run, the tracing overhead and the
/// codec timings.
fn layers(m: &mut Metrics, tr: &Tracer, traced: &[Episode]) {
    let selfs = tr.self_times();
    let wall = tr.root_ns();
    let mut layered = 0;
    for layer in name::LAYERS {
        let ns = selfs.get(layer).copied().unwrap_or(0);
        layered += ns;
        put(m, &format!("{layer}_s"), ns as f64 / 1e9);
    }
    put(m, "bench.self_s", (wall - layered) as f64 / 1e9);
    put(m, "trace.wall_s", wall as f64 / 1e9);
    let traced_ops_per_s = median(traced.iter().map(Episode::ops_per_nominal_s).collect());
    put(
        m,
        "trace.overhead_frac",
        1.0 - traced_ops_per_s / m["ops_per_s"],
    );
    for (codec, enc, dec) in wire::codec_timings() {
        put(m, &format!("wire.{codec}.encode_ns"), enc);
        put(m, &format!("wire.{codec}.decode_ns"), dec);
    }
}

/// The counters that must repeat exactly for a seed and move with it.
fn deterministic(ep: &Episode) -> BTreeMap<&'static str, f64> {
    let c = &ep.counters;
    let s = &c.stats;
    let ops = ep.ops.max(1);
    BTreeMap::from([
        ("msgs_per_op", ratio(c.messages, ops)),
        ("wire_bytes_per_op", ratio(c.bytes, ops)),
        ("sim_us_per_op", c.sim_ns as f64 / 1e3 / ops as f64),
        ("sim_read_p99_us", ep.pct.sim_read_p99 as f64 / 1e3),
        ("sim_write_p99_us", ep.pct.sim_write_p99 as f64 / 1e3),
        ("runtime.exchanges", s.exchanges() as f64),
        ("runtime.retries", s.retries as f64),
        ("runtime.dedup_hits", s.dedup_hits as f64),
        ("runtime.cache_hits", s.cache_hits as f64),
        ("runtime.replica_reads", s.replica_reads as f64),
        ("runtime.batched_ops", s.batched_ops as f64),
        ("runtime.sweep_probes", s.replica_sweep_probes as f64),
        ("runtime.replica_syncs", s.replica_syncs as f64),
        ("runtime.dirty_marks", s.dirty_marks as f64),
        ("runtime.failovers", s.failovers as f64),
        ("telemetry.spans_retained", c.spans_retained as f64),
        ("vm.steps_per_op", ratio(c.steps, ops)),
        (
            "vm.objects_allocated_per_op",
            ratio(c.objects_allocated, ops),
        ),
        ("alloc.count_per_op", ratio(ep.alloc.calls, ops)),
        ("alloc.bytes_per_op", ratio(ep.alloc.bytes, ops)),
    ])
}

/// Counters the workload's shape fixes for every seed: each `rpc` op is
/// one exchange of two messages that leaves three spans.
fn structural(workload: Workload, key: &str) -> bool {
    workload == Workload::Rpc
        && matches!(
            key,
            "msgs_per_op" | "runtime.exchanges" | "telemetry.spans_retained"
        )
}

/// Seed-determinism self-check at a small op count: per workload, two
/// same-seed episodes must agree on every deterministic counter, and an
/// episode on another seed must differ on each counter that is neither
/// zero on both (a layer the workload bypasses) nor [`structural`].
fn selfcheck(seed: u64) -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        let ops = match workload {
            Workload::Soak => 10_000,
            Workload::Rpc => 5_000,
            Workload::Local => 20_000,
        };
        let same = Plan::new(workload, seed, ops);
        let other = Plan::new(workload, seed + 1, ops);
        let mut tr = Tracer::new();
        // The first episode pays one-off lazy allocations; compare later ones.
        let _warm = run_episode(&same, &mut tr, true);
        let a = run_episode(&same, &mut tr, true);
        let b = run_episode(&other, &mut tr, true);
        let a2 = run_episode(&same, &mut tr, true);
        for ep in [&a, &b, &a2] {
            if let Some(e) = &ep.error {
                println!("{}: episode failed: {e}", workload.name());
                ok = false;
            }
        }
        let (da, db, da2) = (deterministic(&a), deterministic(&b), deterministic(&a2));
        for (k, va) in &da {
            let (vb, va2) = (db[k], da2[k]);
            let verdict = if *va != va2 {
                ok = false;
                "FAIL: differs on the same seed"
            } else if *va == 0.0 && vb == 0.0 {
                "zero on both seeds"
            } else if *va == vb && structural(workload, k) {
                "fixed by the workload's shape"
            } else if *va == vb {
                ok = false;
                "FAIL: same on another seed"
            } else {
                "ok"
            };
            println!(
                "{:<6} {k:<30} seed {seed}: {va:<12} {va2:<12} seed {}: {vb:<12} {verdict}",
                workload.name(),
                seed + 1
            );
        }
    }
    println!("selfcheck: {}", if ok { "pass" } else { "FAIL" });
    ok
}
