//! The live-server workload, `wire_pair`: the server runs in-process via
//! `specdb_serve::serve`, and one client thread per connection replays a
//! trace over loopback TCP in a closed loop, sleeping through each think
//! gap (scaled from virtual seconds to wall milliseconds) before sending
//! the next edit.

use crate::layers::ServeCounts;
use crate::wire::{render_edit, Client, Reply};
use crate::workload::Prepared;
use specdb_core::SpeculatorConfig;
use specdb_obs::{Observer, SpanKind, Tracer};
use specdb_serve::{serve, GovernorConfig, ServeConfig, SessionManager};
use specdb_sim::PairedRun;
use specdb_storage::VirtualTime;
use specdb_trace::Trace;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall milliseconds slept per virtual second of user think time.
pub const THINK_MS_PER_VIRTUAL_S: f64 = 1.0;

/// What one connection saw.
#[derive(Default)]
pub struct ConnectionLog {
    pub go_rtt_ms: Vec<f64>,
    pub edit_rtt_ms: Vec<f64>,
    /// Virtual execution time the server reported for each GO.
    pub go_virt_s: Vec<f64>,
    pub pairs: Vec<PairedRun>,
    /// Wall seconds spent waiting on EDIT and GO replies.
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub rows_returned: u64,
    pub lock_wait_us: Vec<f64>,
    pub stats_rtt_us: Vec<f64>,
    /// The session's final `STATS`: builds issued and completed.
    pub builds: (u64, u64),
    /// The session's final `STATS`: builds cancelled.
    pub cancelled: u64,
}

/// One pass: a fresh server, every connection replaying its trace.
pub struct LivePass {
    pub connections: Vec<ConnectionLog>,
    pub serve: ServeCounts,
    pub plan_cache: (u64, u64),
}

impl LivePass {
    pub fn gos(&self) -> u64 {
        self.connections.iter().map(|c| c.go_rtt_ms.len() as u64).sum()
    }

    /// Final queries answered per second of waiting on the server, summed
    /// over connections (think-time sleeps excluded).
    pub fn gos_per_busy_s(&self) -> f64 {
        self.connections.iter().map(|c| c.go_rtt_ms.len() as f64 / c.busy_s).sum()
    }
}

/// Run one pass. With `sample`, each client also times the database
/// lock and a `STATS` round trip once per think gap.
pub fn run_pass(
    prep: &Prepared,
    observer: Option<&Observer>,
    tracer: &Tracer,
    sample: bool,
) -> Result<LivePass, String> {
    let mut db = prep.base.clone();
    if let Some(o) = observer {
        db.set_observer(o.clone());
    }
    let before = db.plan_cache_stats();
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        speculator: SpeculatorConfig::default(),
        governor: GovernorConfig::default(),
    };
    let handle = serve(db, config).map_err(|e| format!("start server: {e}"))?;
    let addr = handle.addr();
    let manager = Arc::clone(handle.manager());
    let connections: Vec<ConnectionLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = prep
            .traces
            .iter()
            .zip(&prep.oracle)
            .map(|(trace, oracle)| {
                let manager = Arc::clone(&manager);
                scope.spawn(move || {
                    let mut log = ConnectionLog::default();
                    if let Err(e) = drive(addr, trace, oracle, &manager, tracer, sample, &mut log) {
                        eprintln!("perfbench: connection {} aborted: {e}", trace.user);
                        let sent = log.attempted;
                        log.attempted = trace.edits.len() as u64;
                        log.failed += log.attempted - sent;
                    }
                    log
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    // Handler threads close their sessions after QUIT; wait for that
    // before reading fleet counters and stopping the server.
    let deadline = Instant::now() + Duration::from_secs(30);
    while manager.session_count() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let fleet = manager.fleet_stats();
    let after = manager.with_db(|db| db.plan_cache_stats());
    handle.shutdown();
    let hits = after.hits - before.hits;
    let builds: (u64, u64) =
        connections.iter().fold((0, 0), |(i, c), l| (i + l.builds.0, c + l.builds.1));
    Ok(LivePass {
        serve: ServeCounts {
            admitted: fleet.governor.admitted,
            denied: fleet.governor.denied,
            preempted: fleet.governor.preempted,
            shared_hits: fleet.cache.shared_hits,
            deduped: fleet.cache.deduped,
            collected: fleet.cache.collected,
            artifact_uses: fleet.cache.uses,
            builds_issued: builds.0,
            builds_completed: builds.1,
        },
        connections,
        plan_cache: (hits, hits + after.misses - before.misses),
    })
}

/// Send a request inside a benchmark span named after its verb.
fn timed(
    client: &mut Client,
    tracer: &Tracer,
    verb: &'static str,
    line: &str,
) -> Result<(Reply, f64), String> {
    let span = tracer.begin_at(None, SpanKind::Session, verb, 0);
    let t = Instant::now();
    let reply = client.request(line);
    let secs = t.elapsed().as_secs_f64();
    span.finish(0);
    Ok((reply?, secs))
}

/// Replay one trace over one connection.
fn drive(
    addr: std::net::SocketAddr,
    trace: &Trace,
    oracle: &[specdb_sim::QueryMeasurement],
    manager: &SessionManager,
    tracer: &Tracer,
    sample: bool,
    log: &mut ConnectionLog,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let hello = client.request(&format!("CONNECT {}", trace.user))?;
    if !hello.ok() {
        return Err("CONNECT refused".into());
    }
    let mut prev = VirtualTime::ZERO;
    let mut query = 0usize;
    for te in &trace.edits {
        let think = Duration::from_secs_f64(
            te.at.saturating_sub(prev).as_secs_f64() * THINK_MS_PER_VIRTUAL_S / 1e3,
        );
        prev = te.at;
        let thinking = Instant::now();
        if sample && !think.is_zero() {
            let t = Instant::now();
            manager.with_db(|_| ());
            log.lock_wait_us.push(t.elapsed().as_secs_f64() * 1e6);
            let (_, rtt) = timed(&mut client, tracer, "wire.stats", "STATS")?;
            log.stats_rtt_us.push(rtt * 1e6);
        }
        std::thread::sleep(think.saturating_sub(thinking.elapsed()));
        log.attempted += 1;
        let lines = match render_edit(&te.op) {
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", trace.user);
                log.failed += 1;
                continue;
            }
        };
        let is_go = te.op.is_go();
        let mut ok = true;
        for line in &lines {
            let verb = if is_go { "wire.go" } else { "wire.edit" };
            let (reply, rtt) = timed(&mut client, tracer, verb, line)?;
            log.busy_s += rtt;
            ok &= reply.ok();
            if !is_go {
                log.edit_rtt_ms.push(rtt * 1e3);
                continue;
            }
            log.go_rtt_ms.push(rtt * 1e3);
            let (Some(rows), Some(elapsed), Some(expected)) =
                (reply.num("rows"), reply.num("elapsed_secs"), oracle.get(query))
            else {
                ok = false;
                continue;
            };
            ok &= rows as u64 == expected.rows;
            log.rows_returned += rows as u64;
            log.go_virt_s.push(elapsed);
            log.pairs.push(PairedRun {
                normal: expected.elapsed,
                spec: VirtualTime::from_secs_f64(elapsed),
            });
        }
        if is_go {
            query += 1;
        }
        if !ok {
            log.failed += 1;
        }
    }
    let stats = client.request("STATS")?;
    let count = |k: &str| stats.num(k).unwrap_or(0.0) as u64;
    log.builds = (count("session.issued"), count("session.completed"));
    log.cancelled = count("session.cancelled");
    client.request("QUIT")?;
    Ok(())
}
