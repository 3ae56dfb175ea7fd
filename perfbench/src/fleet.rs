//! `fleet-rerun`: a 2-process supervised fleet over the 104-cell grid, run
//! twice per iteration — cold into an empty shared cell cache, then warm
//! against that cache with a fresh journal directory.
//!
//! This is the cell cache's own use case. Most of its time goes to
//! process spawn, supervisor polling, journal and cache fsyncs, heartbeat
//! and sidecar rewrites, and the merge; the simulators run only in the
//! cold half. Every iteration starts from fresh directories, so nothing
//! grows with run length.
//!
//! Workers are this binary re-executed through the shard crate's
//! `self_launcher`, running `run_worker` with the production
//! `WorkerConfig` (heartbeats and metrics sidecars on).

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mpdp_bench::experiment::bench104_spec;
use mpdp_shard::{
    metrics_path, parse_worker_invocation, run_worker, self_launcher, supervise_observed,
    SuperviseConfig, SupervisedSweep, WorkerConfig,
};
use mpdp_sweep::{
    merge_journal_files, plan_spec_shards, run_sweep, CellCache, Journal, SweepReport, SweepSpec,
};
use mpdp_telemetry::{
    snapshot_from_text, FleetEvent, FleetEventKind, FleetObserver, NullFleetObserver,
};

use crate::fig4::{corrupt, exports};
use crate::host::{allowed_cpus, pinned_wall, NormCpu};
use crate::measure::{
    cpu_self_and_children, fresh_dir, median, median_us, own_peak_rss_kib, proc_io, report_host,
    report_wall, setup_metric, timed, us, Ledger, Outcome, SLICES,
};
use crate::RunConfig;

/// Worker processes per fleet.
const SHARDS: usize = 2;
/// Seed axis of the tiny grid (the full grid has 26 seeds, 104 cells).
const TINY_SEEDS: u64 = 2;

/// The workload's input: the 104-cell grid, its seeds drawn from `seed`
/// through the spec's master seed.
pub fn spec(seed: u64, tiny: bool) -> SweepSpec {
    let mut spec = bench104_spec().with_master_seed(seed);
    if tiny {
        spec.seeds = (0..TINY_SEEDS).collect();
    }
    spec
}

const SEED_FLAG: &str = "--fleet-seed";
const CACHE_FLAG: &str = "--fleet-cache";
const TINY_FLAG: &str = "--fleet-tiny";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

/// Shard-worker mode: rebuild the spec from the passthrough flags, run the
/// assigned range with the production worker configuration, exit.
pub fn worker_main(args: &[String]) -> ! {
    let inv = match parse_worker_invocation(args) {
        Some(Ok(inv)) => inv,
        _ => std::process::exit(2),
    };
    let Some(seed) = flag(args, SEED_FLAG).and_then(|s| s.parse().ok()) else {
        std::process::exit(2)
    };
    let spec = spec(seed, args.iter().any(|a| a == TINY_FLAG));
    let cfg = WorkerConfig {
        threads: inv.threads,
        throttle: inv.throttle,
        cache_dir: flag(args, CACHE_FLAG).map(PathBuf::from),
        ..WorkerConfig::default()
    };
    match run_worker(
        &spec,
        inv.start..inv.end,
        &inv.journal,
        &inv.heartbeat,
        &cfg,
    ) {
        Ok(_) => {
            // The worker's own peak RSS, read back by the benchmark.
            let kib = own_peak_rss_kib().unwrap_or(0);
            match std::fs::write(peak_rss_path(&inv.journal), kib.to_string()) {
                Ok(()) => std::process::exit(0),
                Err(_) => std::process::exit(1),
            }
        }
        Err(e) => {
            eprintln!("perfbench shard worker: {e}");
            std::process::exit(1)
        }
    }
}

/// Where a shard worker leaves its peak RSS in KiB: beside its journal.
fn peak_rss_path(journal: &Path) -> PathBuf {
    let mut path = journal.as_os_str().to_owned();
    path.push(".peak-rss");
    path.into()
}

/// Records every supervision event with the bench's own clock.
#[derive(Default)]
struct Timeline {
    events: Mutex<Vec<(Instant, Option<usize>, FleetEventKind)>>,
}

impl FleetObserver for Timeline {
    fn event(&self, event: &FleetEvent) {
        self.events.lock().expect("timeline lock").push((
            Instant::now(),
            event.shard,
            event.kind.clone(),
        ));
    }
}

impl Timeline {
    fn take(&self) -> Vec<(Instant, Option<usize>, FleetEventKind)> {
        std::mem::take(&mut *self.events.lock().expect("timeline lock"))
    }
}

struct Ctx<'a> {
    cfg: &'a RunConfig,
    spec: SweepSpec,
    reference: String,
}

/// One supervised fleet, timed, with its output checks applied.
struct Fleet {
    /// When the supervisor was called, and how long it took.
    start: Instant,
    wall: Duration,
    /// Time spent reading the shard sidecars afterwards.
    sidecars: Duration,
    sup: Option<SupervisedSweep>,
    /// Cache hits and misses the shard sidecars recorded.
    hits: u64,
    misses: u64,
    /// Peak RSS in KiB of the largest worker; 0 if one did not report.
    peak_rss_kib: u64,
}

fn fleet<O: FleetObserver>(ctx: &Ctx, journals: &Path, cache: &Path, observer: &O) -> Fleet {
    let mut passthrough = vec![
        SEED_FLAG.to_string(),
        ctx.cfg.seed.to_string(),
        CACHE_FLAG.to_string(),
        cache.display().to_string(),
    ];
    if ctx.cfg.tiny {
        passthrough.push(TINY_FLAG.to_string());
    }
    let start = Instant::now();
    let launch = self_launcher(passthrough, 1, Duration::ZERO).expect("own executable resolves");
    let sup_cfg = SuperviseConfig::default()
        .with_shards(SHARDS)
        .with_dir(journals);
    let sup = supervise_observed(&ctx.spec, &sup_cfg, launch, observer);
    let wall = start.elapsed();
    let mut f = Fleet {
        start,
        wall,
        sidecars: Duration::ZERO,
        sup: sup.ok(),
        hits: 0,
        misses: 0,
        peak_rss_kib: 0,
    };
    let t = Instant::now();
    let mut rss = Vec::new();
    for shard in f.sup.iter().flat_map(|s| &s.shards) {
        let text = std::fs::read_to_string(metrics_path(&shard.journal)).unwrap_or_default();
        if let Ok(snap) = snapshot_from_text(&text) {
            f.hits += snap.cache_hits;
            f.misses += snap.cache_misses;
        }
        let kib = std::fs::read_to_string(peak_rss_path(&shard.journal));
        rss.push(kib.ok().and_then(|k| k.parse::<u64>().ok()).unwrap_or(0));
    }
    if rss.len() == SHARDS && !rss.contains(&0) {
        f.peak_rss_kib = rss.into_iter().max().unwrap_or(0);
    }
    f.sidecars = t.elapsed();
    f
}

/// Applies the fleet's output checks; returns the cells that failed: all
/// of them when the merge differs, a shard was retried, or the cache was
/// not used as the half requires (all misses cold, all hits warm).
fn check_fleet(ctx: &Ctx, f: &Fleet, warm: bool, out: &mut Outcome) -> u64 {
    let n = ctx.spec.cell_count() as u64;
    let half = if warm { "warm" } else { "cold" };
    let Some(sup) = &f.sup else {
        out.check(false, || format!("{half} fleet failed"));
        return n;
    };
    let ok = exports(&sup.report) == ctx.reference;
    out.check(ok, || format!("{half} fleet merge differs from run_sweep"));
    let clean = sup
        .shards
        .iter()
        .all(|s| s.launches == 1 && s.failures.is_empty());
    out.check(clean, || format!("{half} fleet retried a shard"));
    out.check(f.peak_rss_kib > 0, || {
        format!("a {half} fleet worker did not report its peak RSS")
    });
    let want = if warm { (n, 0) } else { (0, n) };
    let cached = (f.hits, f.misses) == want;
    out.check(cached, || {
        format!(
            "{half} fleet cache hits/misses {:?}, want {want:?}",
            (f.hits, f.misses)
        )
    });
    if ok && clean && cached {
        0
    } else {
        n
    }
}

fn segment_files(cache: &Path) -> usize {
    std::fs::read_dir(cache).map_or(0, |d| {
        d.flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "mpdpc"))
            .count()
    })
}

/// One rerun iteration in fresh directories: cold fleet, warm fleet.
struct Iteration {
    wall: Duration,
    cold: Fleet,
    warm: Fleet,
    segments: usize,
    dirs: Duration,
    checks: Duration,
}

fn iteration<O: FleetObserver>(
    ctx: &Ctx,
    dir: &Path,
    observer: &O,
    out: &mut Outcome,
) -> Iteration {
    let t0 = Instant::now();
    let (cache, cold_j, warm_j) = (dir.join("cache"), dir.join("cold"), dir.join("warm"));
    for d in [&cache, &cold_j, &warm_j] {
        fresh_dir(d).expect("work directory is writable");
    }
    let dirs = t0.elapsed();
    let cold = fleet(ctx, &cold_j, &cache, observer);
    let t = Instant::now();
    let failed_cold = check_fleet(ctx, &cold, false, out);
    let mut checks = t.elapsed() + cold.sidecars;
    let warm = fleet(ctx, &warm_j, &cache, observer);
    let t = Instant::now();
    let failed_warm = check_fleet(ctx, &warm, true, out);
    let segments = segment_files(&cache);
    checks += t.elapsed() + warm.sidecars;
    let wall = t0.elapsed();
    out.attempted += 2 * ctx.spec.cell_count() as u64;
    out.failed += failed_cold + failed_warm;
    let _ = std::fs::remove_dir_all(dir);
    Iteration {
        wall,
        cold,
        warm,
        segments,
        dirs,
        checks,
    }
}

/// The set-up: build the spec and compute the reference exports with an
/// in-process `run_sweep`. Timed pinned to `cpu`, in nominal-host seconds.
fn setup_once(cfg: &RunConfig, cpu: usize) -> Result<(String, f64), String> {
    let (report, s) = pinned_wall(cpu, || run_sweep(&spec(cfg.seed, cfg.tiny), 1));
    let report: SweepReport = report.map_err(|e| format!("reference sweep: {e}"))?;
    Ok((exports(&report), s))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    // Set-ups take turns on each CPU, pinned (see `fig4::run`); the fleets
    // float, so their CPU time is normalized by every CPU's speed.
    let cpus = allowed_cpus();
    let cpu = |k: usize| cpus.get(k % cpus.len().max(1)).copied().unwrap_or(0);
    let (clean, first_setup) = setup_once(cfg, cpu(0))?;
    let mut reference = clean.clone();
    if cfg.corrupt {
        corrupt(&mut reference);
    }
    let ctx = Ctx {
        cfg,
        spec: spec(cfg.seed, cfg.tiny),
        reference,
    };
    if cfg.trace {
        traced(&ctx, &mut out)?;
        return Ok(out);
    }
    let mut setups = vec![first_setup];
    // Shard workers are reaped before each checkpoint, so their CPU time
    // is in the children's total by then.
    let mut norm = NormCpu::start(cpu_self_and_children);
    let mut busy = Duration::ZERO;
    let mut walls = Vec::new();
    let mut rss_kib = Vec::new();
    let mut cells = 0usize;
    let mut n = 0;
    for slice in 0..SLICES as usize {
        if slice > 0 {
            let (again, d) = norm.outside(|| setup_once(cfg, cpu(slice)))?;
            out.check(again == clean, || "set-up sweeps disagree".into());
            setups.push(d);
        }
        let t0 = Instant::now();
        while t0.elapsed() < cfg.seconds / SLICES {
            let it = iteration(
                &ctx,
                &cfg.work.join(format!("it{n}")),
                &NullFleetObserver,
                &mut out,
            );
            norm.checkpoint();
            n += 1;
            cells += 2 * ctx.spec.cell_count();
            busy += it.wall;
            walls.push(us(it.wall));
            rss_kib.push(it.cold.peak_rss_kib.max(it.warm.peak_rss_kib) as f64);
        }
    }
    setup_metric(&mut out, &setups);
    out.metric("ops_per_cpu_s", cells as f64 / norm.total.nominal_s, "1/s");
    // The largest worker of each iteration; the median over iterations,
    // so the figure does not creep up with the number of workers run.
    out.metric("peak_rss_mib", median(&mut rss_kib) / 1024.0, "MiB");
    report_wall("fleet-rerun", cells, busy, "iteration", &mut walls);
    report_host("fleet-rerun", cells, &norm.total);
    Ok(out)
}

/// Splits one fleet's supervision timeline into ledger rows; returns the
/// per-shard lifetimes (launch to done) and the merge time.
fn fleet_rows(
    f: &Fleet,
    events: &[(Instant, Option<usize>, FleetEventKind)],
    ledger: &mut Ledger,
) -> (Vec<Duration>, Duration) {
    let at = |pred: &dyn Fn(&FleetEventKind) -> bool| -> Vec<(Instant, Option<usize>)> {
        events
            .iter()
            .filter(|(_, _, k)| pred(k))
            .map(|(t, s, _)| (*t, *s))
            .collect()
    };
    let launched = at(&|k| matches!(k, FleetEventKind::ShardLaunched { .. }));
    let done = at(&|k| matches!(k, FleetEventKind::ShardDone { .. }));
    let merge_started = at(&|k| matches!(k, FleetEventKind::MergeStarted { .. }));
    let merge_done = at(&|k| matches!(k, FleetEventKind::MergeDone { .. }));
    let start = f.start;
    let last = |v: &[(Instant, Option<usize>)]| v.iter().map(|e| e.0).max().unwrap_or(start);
    let (l, d) = (last(&launched), last(&done));
    let (ms, md) = (last(&merge_started).max(d), last(&merge_done).max(d));
    let end = start + f.wall;
    ledger.add("shard.spawn", l - start);
    ledger.add("shard.run", d - l);
    ledger.add("shard.reap", ms - d);
    ledger.add("sweep.merge", md - ms);
    ledger.add("shard.return", end.max(md) - md);
    let lifetimes = launched
        .iter()
        .filter_map(|(t, s)| {
            let (done_at, _) = done.iter().find(|(_, ds)| ds == s)?;
            Some(*done_at - *t)
        })
        .collect();
    (lifetimes, md - ms)
}

fn traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let timeline = Timeline::default();
    let cfg = ctx.cfg;
    let mut untraced = Vec::new();
    let mut traced_t = Vec::new();
    let (mut cold_us, mut warm_us, mut lifetime_us, mut overhead_us, mut merge_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut unattributed = Vec::new();
    let mut counts: Option<[u64; 7]> = None;
    let mut all = Ledger::new("fleet-rerun, all traced iterations");
    let window = Instant::now();
    let mut n = 0;
    while n == 0 || window.elapsed() < cfg.seconds {
        let it = iteration(
            ctx,
            &cfg.work.join(format!("u{n}")),
            &NullFleetObserver,
            out,
        );
        untraced.push(us(it.wall));

        let it = iteration(ctx, &cfg.work.join(format!("t{n}")), &timeline, out);
        n += 1;
        let events = timeline.take();
        let mut ledger = Ledger::new("fleet-rerun traced iteration");
        ledger.total = it.wall;
        ledger.add("fleet.fresh_dirs", it.dirs);
        ledger.add("fleet.checks", it.checks);
        let (cold_ev, warm_ev): (Vec<_>, Vec<_>) =
            events.into_iter().partition(|(t, _, _)| *t < it.warm.start);
        let (cold_life, cold_merge) = fleet_rows(&it.cold, &cold_ev, &mut ledger);
        let (warm_life, warm_merge) = fleet_rows(&it.warm, &warm_ev, &mut ledger);
        traced_t.push(us(it.wall));
        cold_us.push(us(it.cold.wall));
        warm_us.push(us(it.warm.wall));
        let lifetimes: Vec<Duration> = cold_life.iter().chain(&warm_life).copied().collect();
        lifetime_us
            .push(lifetimes.iter().map(|d| us(*d)).sum::<f64>() / lifetimes.len().max(1) as f64);
        // Supervision overhead: the fleet's wall time not covered by its
        // longest shard or its merge — spawning, polling and reaping.
        overhead_us.push(
            (us(it.cold.wall) - us(cold_merge) - longest(&cold_life) + us(it.warm.wall)
                - us(warm_merge)
                - longest(&warm_life))
                / 2.0,
        );
        merge_us.push((us(cold_merge) + us(warm_merge)) / 2.0);
        unattributed.push(ledger.unattributed_us());
        all.absorb(&ledger);

        let shards: Vec<_> = [&it.cold, &it.warm]
            .iter()
            .flat_map(|f| f.sup.iter().flat_map(|s| &s.shards))
            .collect();
        let now = [
            shards.iter().map(|s| u64::from(s.launches)).sum(),
            shards.iter().map(|s| s.failures.len() as u64).sum(),
            it.cold.hits + it.warm.hits,
            it.cold.misses + it.warm.misses,
            it.warm.hits,
            it.warm.misses,
            it.segments as u64,
        ];
        if let Some(prev) = counts {
            out.check(prev == now, || {
                "exact fleet counters changed between iterations".into()
            });
        }
        counts = Some(now);
    }
    eprint!("{}", all.render());
    out.check(all.conserved(), || all.render());
    let [launches, retries, hits, misses, warm_hits, warm_misses, segments] =
        counts.expect("counted");
    let warm_ratio = warm_hits as f64 / (warm_hits + warm_misses).max(1) as f64;
    let untraced = median(&mut untraced);
    let traced_total = median(&mut traced_t);
    eprintln!(
        "fleet-rerun: untraced iteration {untraced:.0} us, traced iteration {traced_total:.0} us, \
         tracing overhead {:.0} us",
        traced_total - untraced
    );
    let layers = in_process_layers(ctx, out)?;
    let mut values = vec![
        ("shard.fleet_us.cold", median(&mut cold_us)),
        ("shard.fleet_us.warm", median(&mut warm_us)),
        ("shard.shard_lifetime_us", median(&mut lifetime_us)),
        ("shard.supervise_overhead_us", median(&mut overhead_us)),
        ("shard.launches", launches as f64),
        ("shard.retries", retries as f64),
        ("cache.hits", hits as f64),
        ("cache.misses", misses as f64),
        ("cache.hit_ratio.warm", warm_ratio),
        ("cache.segment_files", segments as f64),
        ("sweep.merge_us", median(&mut merge_us)),
        ("sweep.unattributed_us", median(&mut unattributed)),
        ("trace.untraced_total_us", untraced),
        ("trace.traced_total_us", traced_total),
        ("trace.overhead_us", traced_total - untraced),
    ];
    values.extend(layers);
    crate::emit_layers(&values, out);
    Ok(())
}

fn longest(v: &[Duration]) -> f64 {
    v.iter().map(|d| us(*d)).fold(0.0, f64::max)
}

/// Per-layer costs measured in-process, call by call: the shard workers'
/// `run_worker` re-run over both halves (with `/proc/self/io` write
/// accounting), then the cache, journal and merge calls one at a time.
fn in_process_layers(ctx: &Ctx, out: &mut Outcome) -> Result<Vec<(&'static str, f64)>, String> {
    let spec = &ctx.spec;
    let dir = ctx.cfg.work.join("inproc");
    let (cache_dir, cold, warm) = (dir.join("cache"), dir.join("cold"), dir.join("warm"));
    for d in [&cache_dir, &cold, &warm] {
        fresh_dir(d).map_err(|e| format!("work dir: {e}"))?;
    }
    let plans = plan_spec_shards(spec, SHARDS).map_err(|e| e.to_string())?;
    let worker_cfg = WorkerConfig {
        cache_dir: Some(cache_dir.clone()),
        ..WorkerConfig::default()
    };
    let io0 = proc_io("self").ok_or("cannot read /proc/self/io")?;
    let mut journals: [Vec<PathBuf>; 2] = Default::default();
    for (half, jdir) in [&cold, &warm].into_iter().enumerate() {
        for plan in &plans {
            let journal = jdir.join(format!("shard-{}.mpdpj", plan.index));
            let heartbeat = jdir.join(format!("shard-{}.hb", plan.index));
            run_worker(spec, plan.range(), &journal, &heartbeat, &worker_cfg)
                .map_err(|e| format!("in-process worker: {e}"))?;
            journals[half].push(journal);
        }
    }
    let io1 = proc_io("self").ok_or("cannot read /proc/self/io")?;
    let cells = 2.0 * spec.cell_count() as f64;
    for paths in &journals {
        let ok = merge_journal_files(spec, paths).is_ok_and(|r| exports(&r) == ctx.reference);
        out.check(ok, || "in-process worker journals merge differently".into());
    }

    let reference = run_sweep(spec, 1).map_err(|e| e.to_string())?;
    let cells_spec = spec.cells();
    let mut open_t = Vec::new();
    for _ in 0..5 {
        let (cache, d) = timed(|| CellCache::open(&cache_dir));
        cache.map_err(|e| format!("cache open: {e}"))?;
        open_t.push(d);
    }
    let cache = CellCache::open(&cache_dir).map_err(|e| e.to_string())?;
    let mut lookup_t = Vec::new();
    for (cell, want) in cells_spec.iter().zip(&reference.cells) {
        let (got, d) = timed(|| cache.lookup(spec, cell));
        out.check(got.as_ref() == Some(want), || "cache lookup differs".into());
        lookup_t.push(d);
    }
    let fresh_cache = dir.join("insert-cache");
    fresh_dir(&fresh_cache).map_err(|e| e.to_string())?;
    let insert_cache = CellCache::open(&fresh_cache).map_err(|e| e.to_string())?;
    let journal = Journal::open(&dir.join("append.mpdpj"), spec).map_err(|e| e.to_string())?;
    let (mut insert_t, mut append_t) = (Vec::new(), Vec::new());
    for (cell, result) in cells_spec.iter().zip(&reference.cells) {
        insert_t.push(timed(|| insert_cache.insert(spec, cell, result)).1);
        let (r, d) = timed(|| journal.append(spec.cell_stream(cell), result));
        r.map_err(|e| e.to_string())?;
        append_t.push(d);
    }
    drop((cache, insert_cache, journal));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(vec![
        ("cache.open_us", median_us(&open_t)),
        ("cache.lookup_us", median_us(&lookup_t)),
        ("cache.insert_us", median_us(&insert_t)),
        ("journal.append_us", median_us(&append_t)),
        (
            "worker.write_syscalls_per_cell",
            (io1.0 - io0.0) as f64 / cells,
        ),
        (
            "worker.bytes_written_per_cell",
            (io1.1 - io0.1) as f64 / cells,
        ),
    ])
}
