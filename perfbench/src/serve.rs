//! `serve-mix`: the `mpdpd` admission daemon (two workers, Unix socket)
//! driven by two closed-loop connections from this process.
//!
//! - The writer connection cycles short-lived sessions: open, 8 admits,
//!   close. Every op is fsynced to the write-ahead journal.
//! - The reader connection repeats verdict, at(1.1), verdict, ping against
//!   two long-lived sessions that each hold a fixed set of admitted tasks,
//!   rebuilt at daemon start from a fixture journal this benchmark writes
//!   through `SessionStore`.
//! - The two run in lockstep rounds (one writer cycle, three reader
//!   cycles, then a barrier), so the mix of writes and reads is fixed.
//!
//! No session grows with run length and each run starts its own daemons.
//! `setup_s` is daemon launch plus journal replay up to the first answered
//! request — crash-recovery time — timed on extra daemons pinned to one
//! CPU at a time. The client waits for the socket by retrying `connect`
//! without sleeping, so set-up measures work, not a poll interval.
//! Simulator work is zero here: `fig4-cold` owns that layer.

use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mpdp_analysis::{is_schedulable_at, AdmissionSession, PartitionHeuristic};
use mpdp_core::ids::TaskId;
use mpdp_core::task::AperiodicTask;
use mpdp_core::time::{Cycles, DEFAULT_TICK};
use mpdp_mpdpd::protocol::ok_response;
use mpdp_mpdpd::{parse_request, run as run_daemon, Bind, Client, ServerConfig, SessionStore};
use mpdp_sweep::LineJournal;
use mpdp_workload::automotive_task_set;

use crate::host::{allowed_cpus, pin_to, slowness_on, NormCpu};
use crate::measure::{
    cpu_self, median, median_us, proc_cpu, proc_ctx_switches, proc_io, proc_status_field, quantile,
    report_host, report_wall, setup_metric, timed, us, Ledger, Outcome, SLICES,
};
use crate::RunConfig;

/// Marks this binary's daemon mode: `--daemon <socket> <journal>`.
pub const DAEMON_FLAG: &str = "--daemon";
/// Daemon worker threads; the host has two CPUs.
const WORKERS: usize = 2;
/// Admitted tasks per long-lived session.
const ADMITTED: u64 = 1000;
const TINY_ADMITTED: u64 = 20;
/// Admits per writer cycle (between its open and its close).
const ADMITS_PER_CYCLE: u64 = 8;
/// Reader cycles per round. The writer does one cycle per round and both
/// connections meet at a barrier after it, so the mix is fixed at 10
/// writes to 12 reads however fast the disk or the analysis runs.
const READER_CYCLES_PER_ROUND: u64 = 3;
/// Rounds per window: about a quarter second, between host checkpoints.
const ROUNDS_PER_WINDOW: u64 = 100;
/// Rounds in the traced run's fixed-size phase, whose counters must
/// repeat exactly.
const FIXED_ROUNDS: u64 = 40;
const LONG_LIVED: [&str; 2] = ["L0", "L1"];

/// Daemon mode: serve until the drain file appears.
pub fn daemon_main(args: &[String]) -> ! {
    let (Some(socket), Some(journal)) = (args.first(), args.get(1)) else {
        std::process::exit(2)
    };
    let mut cfg = ServerConfig::new(Bind::Unix(socket.into()), journal.into());
    cfg.workers = WORKERS;
    let _ = std::fs::remove_file(&cfg.drain_file);
    // A benchmark killed before it could drain its daemon must not leave
    // the daemon running: exit once reparented.
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(137);
        }
        std::thread::sleep(Duration::from_millis(100));
    });
    match run_daemon(cfg) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            std::process::exit(1)
        }
    }
}

/// SplitMix64 over `(seed, lane)`: every generated input comes from here.
fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated inputs of one run.
struct Inputs {
    /// `(util, procs)` of each long-lived session. Fixed, like the
    /// writer's: the grid coordinate sets the analysis cost, so the seed
    /// varies only the admitted tasks.
    long_lived: [(f64, usize); 2],
    /// `(util, procs)` of every writer session.
    writer: (f64, usize),
    admitted: u64,
    seed: u64,
}

impl Inputs {
    fn new(seed: u64, tiny: bool) -> Self {
        Inputs {
            long_lived: [(0.5, 3), (0.4, 2)],
            writer: (0.5, 3),
            admitted: if tiny { TINY_ADMITTED } else { ADMITTED },
            seed,
        }
    }

    /// `(task, exec_us, window_us)` of the `k`-th admit into long-lived
    /// session `s`: tiny bandwidth, so every one is admitted.
    fn fixture_admit(&self, s: u64, k: u64) -> (u32, u64, u64) {
        let r = mix(self.seed, 0x1000 + s * 100_000 + k);
        (
            1000 + k as u32,
            1 + r % 8,
            1_000_000 + (r >> 16) % 1_000_000,
        )
    }

    /// `(task, exec_us, window_us)` of admit `k` in writer cycle `c`.
    fn writer_admit(&self, c: u64, k: u64) -> (u32, u64, u64) {
        let r = mix(self.seed, 0x2000_0000 + c * 16 + k);
        (100 + k as u32, 50 + r % 200, 100_000 + (r >> 16) % 100_000)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Open,
    Admit,
    Close,
    Verdict,
    At,
    Ping,
}

const KINDS: [Kind; 6] = [
    Kind::Open,
    Kind::Admit,
    Kind::Close,
    Kind::Verdict,
    Kind::At,
    Kind::Ping,
];

impl Kind {
    /// The per-layer metric of this kind's client-side p50.
    fn metric(self) -> &'static str {
        match self {
            Kind::Open => "mpdpd.open_us",
            Kind::Admit => "mpdpd.admit_us",
            Kind::Close => "mpdpd.close_us",
            Kind::Verdict => "mpdpd.verdict_us",
            Kind::At => "mpdpd.at_us",
            Kind::Ping => "mpdpd.ping_us",
        }
    }

    fn write(self) -> bool {
        matches!(self, Kind::Open | Kind::Admit | Kind::Close)
    }
}

/// A request line without its `id` field; [`with_id`] adds it.
type Req = (Kind, String);

fn with_id(body: &str, id: u64) -> String {
    format!("{{\"id\":{id},{}", &body[1..])
}

fn writer_cycle(inputs: &Inputs, c: u64) -> Vec<Req> {
    let name = format!("w{c}");
    let (util, procs) = inputs.writer;
    let mut reqs = vec![(
        Kind::Open,
        format!("{{\"op\":\"open\",\"session\":\"{name}\",\"util\":{util},\"procs\":{procs}}}"),
    )];
    for k in 0..ADMITS_PER_CYCLE {
        let (task, exec_us, window_us) = inputs.writer_admit(c, k);
        reqs.push((
            Kind::Admit,
            format!(
                "{{\"op\":\"admit\",\"session\":\"{name}\",\"task\":{task},\
                 \"exec_us\":{exec_us},\"window_us\":{window_us}}}"
            ),
        ));
    }
    reqs.push((
        Kind::Close,
        format!("{{\"op\":\"close\",\"session\":\"{name}\"}}"),
    ));
    reqs
}

fn verdict(session: &str) -> Req {
    (
        Kind::Verdict,
        format!("{{\"op\":\"query\",\"session\":\"{session}\",\"kind\":\"verdict\"}}"),
    )
}

/// The reader's requests in round `r`.
fn reader_round(r: u64) -> Vec<Req> {
    (0..READER_CYCLES_PER_ROUND)
        .flat_map(|i| reader_cycle(r * READER_CYCLES_PER_ROUND + i))
        .collect()
}

fn reader_cycle(c: u64) -> Vec<Req> {
    let (a, b) = (
        LONG_LIVED[(c % 2) as usize],
        LONG_LIVED[((c + 1) % 2) as usize],
    );
    vec![
        verdict(a),
        (
            Kind::At,
            format!("{{\"op\":\"query\",\"session\":\"{b}\",\"kind\":\"at\",\"factor\":1.1}}"),
        ),
        verdict(b),
        (Kind::Ping, "{\"op\":\"ping\"}".to_string()),
    ]
}

/// What one connection did.
#[derive(Default)]
struct ConnLog {
    /// `(kind, latency in µs)`; a failed request has infinite latency.
    samples: Vec<(Kind, f64)>,
    /// Replies with their request kind (kept only when asked).
    replies: Vec<(Kind, String)>,
    failed: u64,
    wall: Duration,
    /// Client time between a reply and the next request, waits at the
    /// round barrier included.
    gaps: Duration,
}

impl ConnLog {
    fn absorb(&mut self, other: ConnLog) {
        self.samples.extend(other.samples);
        self.replies.extend(other.replies);
        self.failed += other.failed;
        self.wall += other.wall;
        self.gaps += other.gaps;
    }
}

/// Runs `rounds` rounds of `gen` on `client`, closed loop, meeting the
/// other connection at `barrier` after each round.
fn drive(
    client: &mut Client,
    gen: impl Fn(u64) -> Vec<Req>,
    rounds: u64,
    barrier: &Barrier,
    keep_replies: bool,
) -> ConnLog {
    let mut log = ConnLog::default();
    let t0 = Instant::now();
    let mut id = 0u64;
    let mut ready = Instant::now();
    for round in 0..rounds {
        for (kind, body) in gen(round) {
            id += 1;
            let line = with_id(&body, id);
            let sent = Instant::now();
            log.gaps += sent - ready;
            let reply = client.call(&line);
            ready = Instant::now();
            let latency = us(ready - sent);
            let ok = reply
                .as_ref()
                .is_ok_and(|r| r.starts_with(&format!("{{\"id\":{id},\"ok\":true")));
            if ok {
                log.samples.push((kind, latency));
            } else {
                log.samples.push((kind, f64::INFINITY));
                log.failed += 1;
            }
            if keep_replies {
                log.replies.push((kind, reply.unwrap_or_default()));
            }
        }
        barrier.wait();
    }
    log.gaps += ready.elapsed();
    log.wall = t0.elapsed();
    log
}

/// A daemon child process, stopped and reaped on drop.
struct Daemon {
    child: Child,
    drain: PathBuf,
}

impl Daemon {
    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful drain: touch the drain file, then reap.
    fn stop(mut self) -> Result<(), String> {
        std::fs::write(&self.drain, b"").map_err(|e| format!("drain file: {e}"))?;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(20) {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("daemon did not drain".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Launches a daemon over a copy of the fixture journal; returns it with a
/// connected client and the time to the first answered request.
fn launch(
    work: &Path,
    k: usize,
    fixture: &Path,
    cpu: Option<usize>,
) -> Result<(Daemon, Client, Duration), String> {
    let journal = work.join(format!("d{k}.mpdpd"));
    std::fs::copy(fixture, &journal).map_err(|e| format!("fixture copy: {e}"))?;
    let socket = work.join(format!("d{k}.sock"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut drain = journal.clone().into_os_string();
    drain.push(".drain");
    let mut command = Command::new(exe);
    command
        .arg(DAEMON_FLAG)
        .arg(&socket)
        .arg(&journal)
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if let Some(cpu) = cpu {
        // SAFETY: the hook runs in the forked child before `exec` and only
        // makes the `sched_setaffinity` system call, which is
        // async-signal-safe; it allocates nothing.
        unsafe {
            command.pre_exec(move || {
                pin_to(cpu);
                Ok(())
            });
        }
    }
    let t0 = Instant::now();
    let child = command.spawn().map_err(|e| format!("daemon spawn: {e}"))?;
    let mut daemon = Daemon {
        child,
        drain: drain.into(),
    };
    let mut client = loop {
        match Client::connect_unix(&socket) {
            Ok(c) => break c,
            Err(_) if t0.elapsed() < Duration::from_secs(60) => {
                if let Ok(Some(status)) = daemon.child.try_wait() {
                    return Err(format!("daemon exited at start: {status}"));
                }
                std::thread::yield_now();
            }
            Err(e) => return Err(format!("daemon never listened: {e}")),
        }
    };
    let reply = client
        .call("{\"op\":\"ping\",\"id\":1}")
        .map_err(|e| e.to_string())?;
    let setup = t0.elapsed();
    if !reply.starts_with("{\"id\":1,\"ok\":true") {
        return Err(format!("first ping answered {reply}"));
    }
    Ok((daemon, client, setup))
}

/// Writes the fixture journal: both long-lived sessions with all their
/// admits, through the daemon's own `SessionStore`.
fn write_fixture(inputs: &Inputs, path: &Path) -> Result<(), String> {
    let mut store = SessionStore::open(path).map_err(|e| e.to_string())?;
    for (s, name) in LONG_LIVED.iter().enumerate() {
        let (util, procs) = inputs.long_lived[s];
        store
            .open_session(name, util, procs)
            .map_err(|e| format!("fixture open: {e:?}"))?;
        for k in 0..inputs.admitted {
            let (task, exec_us, window_us) = inputs.fixture_admit(s as u64, k);
            let body = store
                .admit(name, task, exec_us, window_us)
                .map_err(|e| format!("fixture admit: {e:?}"))?;
            if !body.starts_with("\"admitted\":true") {
                return Err(format!("fixture admit was rejected: {body}"));
            }
        }
    }
    Ok(())
}

/// A stats reply as `(counter, value)` pairs.
fn stats(client: &mut Client) -> Result<Vec<(String, u64)>, String> {
    let reply = client
        .call("{\"op\":\"stats\",\"id\":1}")
        .map_err(|e| e.to_string())?;
    Ok(reply
        .trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((k.trim_matches('"').to_string(), v.parse().ok()?))
        })
        .collect())
}

fn counter(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
}

/// Both connections over one window of `rounds` lockstep rounds.
fn window(
    inputs: &Inputs,
    writer: &mut Client,
    reader: &mut Client,
    rounds: u64,
    keep_replies: bool,
) -> (ConnLog, ConnLog) {
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        let w = s.spawn(|| {
            drive(
                writer,
                |c| writer_cycle(inputs, c),
                rounds,
                &barrier,
                keep_replies,
            )
        });
        let r = drive(reader, reader_round, rounds, &barrier, keep_replies);
        (w.join().expect("writer thread"), r)
    })
}

/// Windows back to back for at least `d`; `each` runs after every window.
fn windows_for(
    inputs: &Inputs,
    served: &mut Served,
    d: Duration,
    mut each: impl FnMut(),
) -> (ConnLog, ConnLog) {
    let (mut w, mut r) = (ConnLog::default(), ConnLog::default());
    let t0 = Instant::now();
    while t0.elapsed() < d {
        let (w1, r1) = window(
            inputs,
            &mut served.writer,
            &mut served.reader,
            ROUNDS_PER_WINDOW,
            false,
        );
        each();
        w.absorb(w1);
        r.absorb(r1);
    }
    (w, r)
}

struct Served {
    daemon: Daemon,
    writer: Client,
    reader: Client,
    fixture: PathBuf,
}

/// Writes the fixture, then launches the daemon that serves the run. It
/// floats over every CPU, like a production daemon.
fn setup(cfg: &RunConfig, inputs: &Inputs) -> Result<Served, String> {
    let fixture = cfg.work.join("fixture.mpdpd");
    write_fixture(inputs, &fixture)?;
    let (daemon, writer, _) = launch(&cfg.work, 0, &fixture, None)?;
    let reader = Client::connect_unix(&cfg.work.join("d0.sock")).map_err(|e| e.to_string())?;
    let served = Served {
        daemon,
        writer,
        reader,
        fixture,
    };
    Ok(served)
}

/// One timed set-up: launch a daemon pinned to `cpu` over the fixture,
/// answer one request, drain it. The time to the first answer, in
/// nominal-host seconds: divided by the speed of the CPU the daemon ran
/// on (the client's connect loop spins on the other one).
fn timed_setup(cfg: &RunConfig, served: &Served, k: usize, cpu: usize) -> Result<f64, String> {
    let before = slowness_on(cpu);
    let (daemon, client, d) = launch(&cfg.work, k, &served.fixture, Some(cpu))?;
    let after = slowness_on(cpu);
    drop(client);
    daemon.stop()?;
    Ok(d.as_secs_f64() / ((before + after) / 2.0))
}

/// Output checks every run makes at the end: the long-lived sessions
/// still hold exactly their admitted tasks, and nothing was shed or
/// timed out.
fn final_checks(served: &mut Served, inputs: &Inputs, corrupt: bool, out: &mut Outcome) {
    let want = inputs.admitted + u64::from(corrupt);
    for name in LONG_LIVED {
        let reply = served.reader.call(&with_id(&verdict(name).1, 1));
        let ok = reply
            .as_ref()
            .is_ok_and(|r| r.contains(&format!("\"admitted\":{want}}}")));
        out.check(ok, || format!("{name} verdict changed: {reply:?}"));
    }
    match stats(&mut served.reader) {
        Ok(s) => {
            let shed = counter(&s, "shed_best_effort") + counter(&s, "rejected_guaranteed");
            let timeouts = counter(&s, "timeouts");
            out.check(shed == 0 && timeouts == 0, || {
                format!("daemon shed {shed} and timed out {timeouts} requests")
            });
        }
        Err(e) => out.check(false, || format!("stats: {e}")),
    }
}

fn account(out: &mut Outcome, logs: &[&ConnLog]) {
    for log in logs {
        out.attempted += log.samples.len() as u64;
        out.failed += log.failed;
    }
    out.check(logs.iter().all(|l| l.failed == 0), || {
        "a request was refused or failed".into()
    });
}

fn latencies(logs: &[&ConnLog], pick: impl Fn(Kind) -> bool) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| &l.samples)
        .filter(|(k, _)| pick(*k))
        .map(|(_, v)| *v)
        .collect()
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let inputs = Inputs::new(cfg.seed, cfg.tiny);
    let mut served = setup(cfg, &inputs)?;
    if cfg.trace {
        traced(cfg, &inputs, &mut served, &mut out)?;
    } else {
        let pid = served.daemon.pid();
        let cpus = allowed_cpus();
        let mut setups = Vec::new();
        let (mut w, mut r) = (ConnLog::default(), ConnLog::default());
        // The load generator plus the serving daemon; set-up daemons are
        // other processes and stay out.
        let mut norm = NormCpu::start(|| cpu_self() + proc_cpu(pid).unwrap_or_default());
        for slice in 0..SLICES as usize {
            let cpu = cpus.get(slice % cpus.len().max(1)).copied().unwrap_or(0);
            setups.push(norm.outside(|| timed_setup(cfg, &served, slice + 1, cpu))?);
            let (w1, r1) = windows_for(&inputs, &mut served, cfg.seconds / SLICES, || {
                norm.checkpoint()
            });
            w.absorb(w1);
            r.absorb(r1);
        }
        let rss = proc_status_field(pid, "VmHWM").ok_or("daemon /proc")?;
        let logs = [&w, &r];
        account(&mut out, &logs);
        let answered: u64 = logs.iter().map(|l| l.samples.len() as u64 - l.failed).sum();
        // The two connections run side by side in lockstep.
        let wall = w.wall.max(r.wall);
        let mut all = latencies(&logs, |_| true);
        setup_metric(&mut out, &setups);
        out.metric(
            "ops_per_cpu_s",
            answered as f64 / norm.total.nominal_s,
            "1/s",
        );
        out.metric("peak_rss_mib", rss as f64 / 1024.0, "MiB");
        report_wall("serve-mix", answered as usize, wall, "request", &mut all);
        report_host("serve-mix", answered as usize, &norm.total);
    }
    final_checks(&mut served, &inputs, cfg.corrupt, &mut out);
    let Served {
        daemon,
        writer,
        reader,
        ..
    } = served;
    drop((writer, reader));
    daemon.stop()?;
    Ok(out)
}

/// Median of `f` over `n` timed calls, in microseconds.
fn median_call(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<Duration> = (0..n).map(|_| timed(&mut f).1).collect();
    median_us(&times)
}

/// Per-layer costs measured in-process on the same inputs.
fn in_process(
    cfg: &RunConfig,
    inputs: &Inputs,
    fixture: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    // Parse: every line of a writer and a reader cycle, many times over.
    let lines: Vec<String> = (0..50)
        .flat_map(|c| writer_cycle(inputs, c).into_iter().chain(reader_cycle(c)))
        .enumerate()
        .map(|(i, (_, body))| with_id(&body, i as u64))
        .collect();
    let parse_t: Vec<Duration> = lines
        .iter()
        .map(|l| {
            let (env, d) = timed(|| parse_request(l));
            assert!(env.is_ok(), "generated request parses: {l}");
            d
        })
        .collect();

    let journal = LineJournal::open(&cfg.work.join("append.ljnl"), "PERFBENCH", 1)
        .map_err(|e| e.to_string())?;
    let append = median_call(100, || {
        journal
            .append("admit w0 100 200 100000")
            .expect("line journal append succeeds");
    });

    let (util, procs) = inputs.writer;
    let open_session = || {
        let set = automotive_task_set(util, procs, DEFAULT_TICK);
        AdmissionSession::new(set.periodic, procs, PartitionHeuristic::WorstFitDecreasing)
            .expect("writer sessions have a schedulable base")
    };
    let session_open = median_call(20, || {
        std::hint::black_box(open_session());
    });
    let mut admit_t = Vec::new();
    for c in 0..20 {
        let mut session = open_session();
        for k in 0..ADMITS_PER_CYCLE {
            let (task, exec_us, window_us) = inputs.writer_admit(c, k);
            let req = AperiodicTask::new(
                TaskId::new(task),
                format!("ap{task}"),
                Cycles::from_micros(exec_us),
            );
            admit_t.push(timed(|| session.try_admit(req, Cycles::from_micros(window_us))).1);
        }
    }

    let copy = cfg.work.join("replay.mpdpd");
    let records = 2 * (inputs.admitted + 1);
    let mut replay_t = Vec::new();
    let mut store = None;
    for _ in 0..3 {
        std::fs::copy(fixture, &copy).map_err(|e| e.to_string())?;
        let (s, d) = timed(|| SessionStore::open(&copy));
        replay_t.push(d);
        store = Some(s.map_err(|e| e.to_string())?);
    }
    let store = store.expect("replayed");
    let session = store.get(LONG_LIVED[0]).ok_or("L0 not rebuilt")?;
    let clone = median_call(50, || {
        std::hint::black_box(session.clone());
    });
    let at = median_call(50, || {
        std::hint::black_box(is_schedulable_at(
            session.admission.periodic(),
            session.procs,
            1.1,
            PartitionHeuristic::WorstFitDecreasing,
        ));
    });
    Ok(vec![
        ("mpdpd.parse_us", median_us(&parse_t)),
        ("linejournal.append_us", append),
        ("analysis.session_open_us", session_open),
        ("analysis.try_admit_us", median_us(&admit_t)),
        ("analysis.at_us", at),
        ("mpdpd.session_clone_us", clone),
        (
            "mpdpd.replay_us_per_record",
            median_us(&replay_t) / records as f64,
        ),
    ])
}

/// Replays the writer's fixed phase through an in-process `SessionStore`
/// and renders the replies the daemon must have sent, byte for byte.
fn expected_writer_replies(
    inputs: &Inputs,
    path: &Path,
    cycles: u64,
) -> Result<Vec<String>, String> {
    let mut store = SessionStore::open(path).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let mut id = 0;
    for c in 0..cycles {
        let name = format!("w{c}");
        let (util, procs) = inputs.writer;
        let mut bodies = vec![store.open_session(&name, util, procs)];
        for k in 0..ADMITS_PER_CYCLE {
            let (task, exec_us, window_us) = inputs.writer_admit(c, k);
            bodies.push(store.admit(&name, task, exec_us, window_us));
        }
        bodies.push(store.close(&name));
        for body in bodies {
            id += 1;
            out.push(ok_response(id, &body.map_err(|e| format!("{e:?}"))?));
        }
    }
    Ok(out)
}

fn traced(
    cfg: &RunConfig,
    inputs: &Inputs,
    served: &mut Served,
    out: &mut Outcome,
) -> Result<(), String> {
    let pid = served.daemon.pid();
    let half = cfg.seconds / 2;
    // Untraced half, then the traced half with its ledger.
    let (w0, r0) = windows_for(inputs, served, half, || ());
    let ctx0 = proc_ctx_switches(pid);
    let (w, r) = windows_for(inputs, served, half, || ());
    let ctx1 = proc_ctx_switches(pid);
    account(out, &[&w0, &r0, &w, &r]);
    let per_request = |logs: [&ConnLog; 2]| {
        let wall: f64 = logs.iter().map(|l| us(l.wall)).sum();
        wall / logs.iter().map(|l| l.samples.len()).sum::<usize>().max(1) as f64
    };
    let untraced = per_request([&w0, &r0]);
    let traced_total = per_request([&w, &r]);

    let mut ledger = Ledger::new("serve-mix traced window, both connections");
    ledger.total = w.wall + r.wall;
    let mut kind_p50 = Vec::new();
    for kind in KINDS {
        let mut v = latencies(&[&w, &r], |k| k == kind);
        let sum: f64 = v.iter().filter(|x| x.is_finite()).sum();
        ledger.add(
            kind.metric().trim_end_matches("_us"),
            Duration::from_secs_f64(sum / 1e6),
        );
        kind_p50.push((kind, if v.is_empty() { 0.0 } else { median(&mut v) }));
    }
    ledger.add("client.gap", w.gaps + r.gaps);
    eprint!("{}", ledger.render());
    out.check(ledger.conserved(), || ledger.render());
    eprintln!(
        "serve-mix: untraced {untraced:.1} us/request, traced {traced_total:.1} us/request, \
         tracing overhead {:.1} us/request",
        traced_total - untraced
    );

    // Fixed-size phase: exact counters and byte-exact replies.
    let io0 = proc_io(&pid.to_string()).ok_or("daemon /proc io")?;
    let s0 = stats(&mut served.reader)?;
    let (fw, fr) = window(
        inputs,
        &mut served.writer,
        &mut served.reader,
        FIXED_ROUNDS,
        true,
    );
    let s1 = stats(&mut served.reader)?;
    // Let the daemon's last reply write finish its accounting.
    std::thread::sleep(Duration::from_millis(50));
    let io1 = proc_io(&pid.to_string()).ok_or("daemon /proc io")?;
    account(out, &[&fw, &fr]);
    let writes = FIXED_ROUNDS * (ADMITS_PER_CYCLE + 2);
    let expected = expected_writer_replies(inputs, &cfg.work.join("expect.mpdpd"), FIXED_ROUNDS)?;
    let got: Vec<&String> = fw.replies.iter().map(|(_, r)| r).collect();
    out.check(got.iter().copied().eq(expected.iter()), || {
        "daemon writer replies differ from the in-process SessionStore replay".into()
    });
    for kind in [Kind::Verdict, Kind::At] {
        let strip = |r: &str| {
            r.split_once(',')
                .map(|x| x.1.to_string())
                .unwrap_or_default()
        };
        let mut distinct: Vec<String> = fr
            .replies
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, r)| strip(r))
            .collect();
        distinct.sort();
        distinct.dedup();
        out.check(distinct.len() <= LONG_LIVED.len(), || {
            format!("{kind:?} replies vary: {distinct:?}")
        });
    }

    let mut layers = in_process(cfg, inputs, &served.fixture)?;
    let lookup = |name: &str| layers.iter().find(|(n, _)| *n == name).map_or(0.0, |x| x.1);
    let (open, admit, append) = (
        lookup("analysis.session_open_us"),
        lookup("analysis.try_admit_us"),
        lookup("linejournal.append_us"),
    );
    let (clone, at) = (lookup("mpdpd.session_clone_us"), lookup("analysis.at_us"));
    let execute = |kind: Kind| match kind {
        Kind::Open => open + append,
        Kind::Admit => admit + append,
        Kind::Close => append,
        Kind::Verdict => clone,
        Kind::At => clone + at,
        Kind::Ping => 0.0,
    };
    let transport = kind_p50.iter().map(|(k, p)| p - execute(*k)).sum::<f64>() / KINDS.len() as f64;
    let requests = (w.samples.len() + r.samples.len()) as f64;
    let mut writes_v = latencies(&[&w], Kind::write);
    let mut reads_v = latencies(&[&r], |k| !k.write());
    let shed = counter(&s1, "shed_best_effort") + counter(&s1, "rejected_guaranteed");
    layers.extend(kind_p50.iter().map(|(kind, p50)| (kind.metric(), *p50)));
    layers.extend([
        ("write_p50_us", quantile(&mut writes_v, 0.5)),
        ("write_p99_us", quantile(&mut writes_v, 0.99)),
        ("read_p50_us", quantile(&mut reads_v, 0.5)),
        ("read_p99_us", quantile(&mut reads_v, 0.99)),
        ("mpdpd.queue_transport_us", transport),
        (
            "mpdpd.ctx_switches_per_request",
            (ctx1 - ctx0) as f64 / requests,
        ),
        (
            "mpdpd.write_syscalls_per_write",
            (io1.0 - io0.0) as f64 / writes as f64,
        ),
        (
            "mpdpd.journal_appends",
            (counter(&s1, "journal_appends") - counter(&s0, "journal_appends")) as f64,
        ),
        ("mpdpd.shed", shed as f64),
        ("mpdpd.timeouts", counter(&s1, "timeouts") as f64),
        ("trace.untraced_total_us", untraced),
        ("trace.traced_total_us", traced_total),
        ("trace.overhead_us", traced_total - untraced),
    ]);
    crate::emit_layers(&layers, out);
    Ok(())
}
