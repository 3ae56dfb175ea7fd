//! End-to-end tests against the real `mpdpd` binary: protocol round
//! trips, SIGKILL crash recovery, overload shedding, typed timeouts, and
//! the SIGTERM graceful drain through the sh trampoline.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mpdp_mpdpd::Client;

struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns the server in inner mode (no trampoline): `Child::kill` is
    /// then a true SIGKILL of the serving process.
    fn spawn_inner(tag: &str, extra: &[&str]) -> Daemon {
        Daemon::spawn(tag, extra, true, None)
    }

    fn spawn(tag: &str, extra: &[&str], inner: bool, dir: Option<PathBuf>) -> Daemon {
        let dir = dir.unwrap_or_else(|| {
            let d = std::env::temp_dir().join(format!("mpdpd-it-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            std::fs::create_dir_all(&d).expect("temp dir");
            d
        });
        let socket = dir.join("mpdpd.sock");
        let _ = std::fs::remove_file(&socket);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mpdpd"));
        cmd.arg("--socket")
            .arg(&socket)
            .arg("--journal")
            .arg(dir.join("sessions.mpdpd"))
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if inner {
            cmd.env("MPDPD_INNER", "1");
        } else {
            cmd.env_remove("MPDPD_INNER").env_remove("MPDPD_WRAPPED");
        }
        let child = cmd.spawn().expect("spawn mpdpd");
        let daemon = Daemon { child, socket, dir };
        daemon.await_ready();
        daemon
    }

    fn await_ready(&self) {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            if Client::connect_unix(&self.socket).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon did not start listening on {:?}", self.socket);
    }

    fn connect(&self) -> Client {
        Client::connect_unix(&self.socket).expect("connect")
    }

    fn journal(&self) -> PathBuf {
        self.dir.join("sessions.mpdpd")
    }

    fn cleanup(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn sigterm(pid: u32) {
    let status = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed");
}

#[test]
fn protocol_round_trip_over_a_unix_socket() {
    let d = Daemon::spawn_inner("roundtrip", &[]);
    let mut c = d.connect();
    let open = c
        .call(r#"{"op":"open","id":1,"session":"s1","util":0.4,"procs":2}"#)
        .expect("open");
    assert!(open.starts_with(r#"{"id":1,"ok":true"#), "{open}");
    assert!(open.contains("\"tasks\":18"), "{open}");

    let admit = c
        .call(r#"{"op":"admit","id":2,"session":"s1","task":100,"exec_us":2000,"window_us":10000000}"#)
        .expect("admit");
    assert!(admit.contains("\"admitted\":true"), "{admit}");

    let verdict = c
        .call(r#"{"op":"query","id":3,"session":"s1"}"#)
        .expect("verdict");
    assert!(verdict.contains("\"admitted\":1"), "{verdict}");

    let at = c
        .call(r#"{"op":"query","id":4,"session":"s1","kind":"at","factor":1.1}"#)
        .expect("at");
    assert!(at.contains("\"schedulable\":true"), "{at}");

    let ghost = c
        .call(r#"{"op":"query","id":5,"session":"ghost"}"#)
        .expect("ghost");
    assert!(ghost.contains("\"error\":\"unknown_session\""), "{ghost}");

    let stats = c.call(r#"{"op":"stats","id":6}"#).expect("stats");
    assert!(stats.contains("\"sessions\":1"), "{stats}");
    assert!(
        stats.contains("\"serve_completed\":") || stats.contains("\"completed\":"),
        "{stats}"
    );

    let metrics = c.call(r#"{"op":"metrics","id":7}"#).expect("metrics");
    assert!(metrics.contains("mpdp_serve_"), "{metrics}");

    let close = c
        .call(r#"{"op":"close","id":8,"session":"s1"}"#)
        .expect("close");
    assert!(close.contains("\"closed\":\"s1\""), "{close}");
    d.cleanup();
}

#[test]
fn sigkill_recovery_rebuilds_sessions_byte_identically() {
    let d = Daemon::spawn_inner("sigkill", &[]);
    let mut c = d.connect();
    for (name, util, procs) in [("alpha", "0.4", "3"), ("beta", "0.5", "2")] {
        let open = c
            .call(&format!(
                r#"{{"op":"open","id":1,"session":"{name}","util":{util},"procs":{procs}}}"#
            ))
            .expect("open");
        assert!(open.contains("\"ok\":true"), "{open}");
    }
    for task in [100, 101, 102] {
        let admit = c
            .call(&format!(
                r#"{{"op":"admit","id":2,"session":"alpha","task":{task},"exec_us":3000,"window_us":5000000}}"#
            ))
            .expect("admit");
        assert!(admit.contains("\"ok\":true"), "{admit}");
    }
    let verdict_alpha = c
        .call(r#"{"op":"query","id":9,"session":"alpha"}"#)
        .expect("verdict");
    let verdict_beta = c
        .call(r#"{"op":"query","id":9,"session":"beta"}"#)
        .expect("verdict");

    // SIGKILL: no drain, no flush beyond the per-append fsync.
    let mut child = d.child;
    child.kill().expect("sigkill");
    let _ = child.wait();

    let d2 = Daemon::spawn("sigkill-relaunch", &[], true, Some(d.dir.clone()));
    let mut c2 = d2.connect();
    let after_alpha = c2
        .call(r#"{"op":"query","id":9,"session":"alpha"}"#)
        .expect("verdict after relaunch");
    let after_beta = c2
        .call(r#"{"op":"query","id":9,"session":"beta"}"#)
        .expect("verdict after relaunch");
    assert_eq!(after_alpha, verdict_alpha, "alpha state is byte-identical");
    assert_eq!(after_beta, verdict_beta, "beta state is byte-identical");
    let stats = c2.call(r#"{"op":"stats","id":1}"#).expect("stats");
    assert!(
        stats.contains("\"serve_sessions_rebuilt\":2") || stats.contains("\"sessions_rebuilt\":2"),
        "{stats}"
    );
    d2.cleanup();
}

/// Requests the wedge connection sends without reading a reply: their
/// replies (≥ 30 bytes each) far exceed what a Unix socket buffers.
const WEDGE_PINGS: usize = 20_000;

/// Reads one reply line if one arrives within the stream's read timeout;
/// a partial line stays in `buf` for the next call.
fn poll_line(reader: &mut BufReader<UnixStream>, buf: &mut String) -> Option<String> {
    match reader.read_line(buf) {
        Ok(0) => panic!("daemon closed the connection"),
        Ok(_) if buf.ends_with('\n') => {
            let line = buf.trim_end().to_string();
            buf.clear();
            Some(line)
        }
        Ok(_) => None,
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => None,
        Err(e) => panic!("probe read failed: {e}"),
    }
}

#[test]
fn overload_sheds_best_effort_but_never_guaranteed() {
    // One worker and a tiny queue so the burst actually overloads it.
    let d = Daemon::spawn_inner(
        "overload",
        &[
            "--workers",
            "1",
            "--queue-cap",
            "4",
            "--deadline-ms",
            "60000",
        ],
    );
    let mut setup = d.connect();
    let open = setup
        .call(r#"{"op":"open","id":1,"session":"s","util":0.4,"procs":2}"#)
        .expect("open");
    assert!(open.contains("\"ok\":true"), "{open}");

    let mut slow = d.connect();
    slow.send(r#"{"op":"query","id":2,"session":"s","kind":"simulate"}"#)
        .expect("send simulate");

    // Wedge the single worker: a connection that sends pings and reads
    // none of the replies until the end. Once they fill its socket, the
    // worker blocks writing one (or waiting for the connection's writer,
    // held by a reader thread blocked writing a shed reply) and stays
    // blocked until the test reads — however fast the simulator is.
    let wedge = UnixStream::connect(&d.socket).expect("connect wedge");
    let mut wedge_tx = wedge.try_clone().expect("clone wedge");
    let sender = std::thread::spawn(move || {
        for i in 0..WEDGE_PINGS {
            let line = format!("{{\"op\":\"ping\",\"id\":{}}}\n", 10_000 + i);
            wedge_tx
                .write_all(line.as_bytes())
                .expect("send wedge ping");
        }
    });

    // Observe the wedge: a wedged worker leaves the queue full, and a
    // best-effort request against a full queue is answered "overloaded"
    // at once by its reader thread. Probe until that answer arrives.
    let probe = UnixStream::connect(&d.socket).expect("connect probe");
    probe
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("probe timeout");
    let mut probe_tx = probe.try_clone().expect("clone probe");
    let mut probe_rx = BufReader::new(probe);
    let (mut probe_sent, mut probe_got, mut partial) = (0usize, 0usize, String::new());
    let t0 = Instant::now();
    'observe: loop {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "the queue never saturated"
        );
        probe_tx
            .write_all(format!("{{\"op\":\"ping\",\"id\":{}}}\n", 50_000 + probe_sent).as_bytes())
            .expect("send probe");
        probe_sent += 1;
        while let Some(reply) = poll_line(&mut probe_rx, &mut partial) {
            probe_got += 1;
            if reply.contains("\"error\":\"overloaded\"") {
                break 'observe;
            }
            assert!(reply.contains("\"pong\":true"), "{reply}");
        }
    }

    // A 10x best-effort burst against the saturated queue of 4.
    let mut burst = d.connect();
    let n_burst = 40;
    for i in 0..n_burst {
        burst
            .send(&format!(r#"{{"op":"ping","id":{}}}"#, 100 + i))
            .expect("send ping");
    }

    // Guaranteed admissions arrive while the queue is saturated.
    let mut guaranteed = d.connect();
    let n_admits = 3;
    for i in 0..n_admits {
        guaranteed
            .send(&format!(
                r#"{{"op":"admit","id":{},"session":"s","task":{},"exec_us":1000,"window_us":10000000}}"#,
                200 + i,
                300 + i
            ))
            .expect("send admit");
    }

    // Release the worker: read every wedge reply.
    wedge
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("wedge timeout");
    let mut wedge_rx = BufReader::new(wedge);
    for _ in 0..WEDGE_PINGS {
        let mut reply = String::new();
        wedge_rx.read_line(&mut reply).expect("wedge reply");
        assert!(
            reply.contains("\"pong\":true") || reply.contains("\"error\":\"overloaded\""),
            "{reply}"
        );
    }
    sender.join().expect("wedge sender");

    for _ in 0..n_admits {
        let reply = guaranteed.recv().expect("admit answered");
        assert!(
            reply.contains("\"ok\":true") && reply.contains("\"admitted\":true"),
            "guaranteed request was not honored: {reply}"
        );
    }

    let mut shed = 0;
    let mut answered = 0;
    for _ in 0..n_burst {
        let reply = burst.recv().expect("ping response");
        if reply.contains("\"error\":\"overloaded\"") {
            shed += 1;
        } else {
            assert!(reply.contains("\"pong\":true"), "{reply}");
            answered += 1;
        }
    }
    assert!(shed > 0, "burst never overloaded the queue");
    assert_eq!(shed + answered, n_burst);

    probe_rx
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("probe timeout");
    while probe_got < probe_sent {
        let mut reply = std::mem::take(&mut partial);
        probe_rx.read_line(&mut reply).expect("probe reply");
        assert!(
            reply.contains("\"pong\":true") || reply.contains("\"error\":\"overloaded\""),
            "{reply}"
        );
        probe_got += 1;
    }

    let _ = slow.recv().expect("simulate eventually answers");
    let stats = setup.call(r#"{"op":"stats","id":3}"#).expect("stats");
    let rejected: u64 = field(&stats, "rejected_guaranteed");
    let shed_counter: u64 = field(&stats, "shed_best_effort");
    assert_eq!(rejected, 0, "no guaranteed request may be shed: {stats}");
    assert!(shed_counter >= shed, "{stats}");

    // The sheds are visible in the Prometheus export too.
    let metrics = setup.call(r#"{"op":"metrics","id":4}"#).expect("metrics");
    assert!(
        metrics.contains("mpdp_serve_shed_best_effort_total"),
        "{metrics}"
    );
    d.cleanup();
}

/// Extracts `"...<name>":<value>` from a flat JSON stats line, tolerating
/// a `serve_` prefix on the counter name.
fn field(stats: &str, name: &str) -> u64 {
    for key in [format!("\"serve_{name}\":"), format!("\"{name}\":")] {
        if let Some(pos) = stats.find(&key) {
            let rest = &stats[pos + key.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            return rest[..end].parse().unwrap_or_else(|_| panic!("{stats}"));
        }
    }
    panic!("counter {name} not in {stats}");
}

#[test]
fn an_expired_deadline_is_a_typed_timeout() {
    let d = Daemon::spawn_inner("timeout", &["--workers", "1"]);
    let mut c = d.connect();
    // deadline_ms: 0 — expired the moment it is dequeued.
    let reply = c
        .call(r#"{"op":"ping","id":5,"deadline_ms":0}"#)
        .expect("ping");
    assert!(
        reply.contains("\"error\":\"timeout\"") && reply.contains("\"id\":5"),
        "{reply}"
    );
    let stats = c.call(r#"{"op":"stats","id":6}"#).expect("stats");
    assert!(field(&stats, "timeouts") >= 1, "{stats}");
    d.cleanup();
}

#[test]
fn sigterm_through_the_trampoline_drains_and_exits_zero() {
    let d = Daemon::spawn("drain", &[], false, None);
    let mut c = d.connect();
    let open = c
        .call(r#"{"op":"open","id":1,"session":"drain-s","util":0.4,"procs":2}"#)
        .expect("open");
    assert!(open.contains("\"ok\":true"), "{open}");

    // Pipeline a batch, prove the server is reading it, then SIGTERM.
    let n = 5;
    for i in 0..n {
        c.send(&format!(
            r#"{{"op":"query","id":{},"session":"drain-s","deadline_ms":30000}}"#,
            10 + i
        ))
        .expect("send query");
    }
    let first = c.recv().expect("first response before drain");
    assert!(first.contains("\"ok\":true"), "{first}");

    let journal = d.journal();
    let dir = d.dir.clone();
    sigterm(d.child.id());

    // Every remaining in-flight request is still answered.
    for _ in 1..n {
        let reply = c.recv().expect("in-flight request answered during drain");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }

    let mut child = d.child;
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "daemon did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");

    // The journal survived the drain: a relaunch rebuilds the session.
    assert!(journal_nonempty(&journal));
    let d2 = Daemon::spawn("drain-relaunch", &[], true, Some(dir));
    let mut c2 = d2.connect();
    let verdict = c2
        .call(r#"{"op":"query","id":1,"session":"drain-s"}"#)
        .expect("verdict");
    assert!(verdict.contains("\"ok\":true"), "{verdict}");
    d2.cleanup();
}

fn journal_nonempty(path: &Path) -> bool {
    std::fs::metadata(path)
        .map(|m| m.len() > 0)
        .unwrap_or(false)
}
