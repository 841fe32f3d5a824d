//! Serving-layer integration: the fleet registry under real
//! concurrency, the TCP wire protocol end to end with two sessions
//! sharing one speculative artifact, and the live session manager
//! agreeing with the replay on one scripted trace.

use serde_json::{parse, Value};
use specdb::core::SpeculatorConfig;
use specdb::query::{CompareOp, EditOp, Predicate, Selection};
use specdb::serve::{serve, GovernorConfig, ServeConfig, SessionId, SessionManager};
use specdb::sim::{build_base_db, replay_multi_session, DatasetSpec, MultiSessionConfig};
use specdb::storage::VirtualTime;
use specdb::trace::{TimedEdit, Trace};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn quantity(at_most: i64) -> Selection {
    Selection::new("lineitem", Predicate::new("l_quantity", CompareOp::Le, at_most))
}

/// The registry's bookkeeping must stay coherent when many sessions
/// build, read, and collect shared artifacts concurrently: no lost
/// entries, no double installs, and nothing left once every session
/// has disconnected.
#[test]
fn artifact_cache_consistent_under_concurrent_register_lookup_drop() {
    const SESSIONS: SessionId = 8;
    const ROUNDS: i64 = 6;
    let db = build_base_db(&DatasetSpec::tiny()).unwrap();
    let manager = SessionManager::new(db, SpeculatorConfig::default(), GovernorConfig::default());
    std::thread::scope(|scope| {
        for sid in 0..SESSIONS {
            let manager = &manager;
            scope.spawn(move || {
                let (id, session) = manager.connect(&format!("s{sid}"));
                session.lock().edit(EditOp::AddRelation("lineitem".into()));
                for round in 0..ROUNDS {
                    // Four questions shared round-robin across the fleet.
                    let sel = quantity(1 + (round + sid as i64) % 4);
                    session.lock().edit(EditOp::AddSelection(sel.clone()));
                    std::thread::sleep(Duration::from_millis(5));
                    let rows = session.lock().go().expect("GO under churn").output.row_count;
                    assert!(rows > 0);
                    session.lock().edit(EditOp::RemoveSelection(sel));
                }
                let mut session = session.lock();
                session.cancel();
                let st = session.stats();
                assert_eq!(st.issued, st.completed + st.cancelled, "bookkeeping must balance");
                drop(session);
                assert!(manager.disconnect(id));
            });
        }
    });
    let fleet = manager.fleet_stats();
    let cache = fleet.cache;
    assert_eq!((cache.ready, cache.building), (0, 0), "{cache:?}");
    assert_eq!(fleet.governor.outstanding, 0, "no build survives disconnect");
    // Installed artifacts leave the registry only through the GC sweep,
    // so once every session has gone the two tallies balance exactly.
    assert_eq!(cache.installed, cache.collected, "{cache:?}");
    assert!(cache.used + cache.wasted <= cache.installed, "{cache:?}");
    manager.with_db(|db| assert!(db.views().is_empty(), "no view outlives the fleet"));
}

/// One scripted two-session trace, driven through the live session
/// manager on a substituted virtual clock and through the replay, must
/// make the same speculative decisions and return the same answers.
/// Think gaps are longer than any build, so each live build finishes
/// before the script's next event, as it drains in the replay.
#[test]
fn scripted_trace_agrees_between_manager_and_replay() {
    let secs = VirtualTime::from_secs;
    // Each user asks one question, then detours through a selection
    // they take back before asking a second.
    let script = |user: &str, start: u64, [first, detour, second]: [i64; 3]| {
        let edits = [
            EditOp::AddRelation("lineitem".into()),
            EditOp::AddSelection(quantity(first)),
            EditOp::Go,
            EditOp::AddSelection(quantity(detour)),
            EditOp::RemoveSelection(quantity(detour)),
            EditOp::RemoveSelection(quantity(first)),
            EditOp::AddSelection(quantity(second)),
            EditOp::Go,
        ];
        let edits = edits.into_iter().enumerate();
        let edits = edits.map(|(i, op)| TimedEdit { at: secs(start + 10 * i as u64), op });
        Trace { user: user.into(), seed: 0, edits: edits.collect() }
    };
    let traces = [script("a", 0, [2, 6, 3]), script("b", 5, [2, 7, 4])];
    let mut base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let replayed =
        replay_multi_session(&mut base.clone(), &traces, &MultiSessionConfig::speculative())
            .unwrap();

    // The replay starts from a cold buffer; so does the live run.
    base.clear_buffer();
    let now = Arc::new(AtomicU64::new(0));
    let clock = Arc::clone(&now);
    let manager = SessionManager::with_clock(
        base,
        SpeculatorConfig::default(),
        GovernorConfig::default(),
        Arc::new(move || VirtualTime::from_micros(clock.load(Ordering::SeqCst))),
    );
    let sessions: Vec<_> = traces.iter().map(|t| manager.connect(&t.user)).collect();
    // The replay's schedule: the earliest next edit (ties to the lower
    // session), with each trace shifted so that its post-GO think gap
    // starts at the answer.
    let mut next = [0usize; 2];
    let mut offset = [VirtualTime::ZERO; 2];
    let mut rows: Vec<Vec<u64>> = vec![Vec::new(); 2];
    while let Some((at, si)) = (0..2)
        .filter_map(|si| traces[si].edits.get(next[si]).map(|te| (te.at + offset[si], si)))
        .min()
    {
        for (_, s) in &sessions {
            while s.lock().building() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        now.store(at.as_micros(), Ordering::SeqCst);
        let te = &traces[si].edits[next[si]];
        let (id, session) = &sessions[si];
        if te.op.is_go() {
            let out = session.lock().go().unwrap().output;
            rows[si].push(out.row_count);
            offset[si] = at + out.elapsed - te.at;
        } else {
            session.lock().edit(te.op.clone());
        }
        next[si] += 1;
        if next[si] == traces[si].edits.len() {
            assert!(manager.disconnect(*id));
        }
    }

    let fleet = manager.fleet_stats();
    let sum = |f: fn(&specdb::sim::ReplayOutcome) -> u64| -> u64 {
        replayed.per_session.iter().map(f).sum()
    };
    let live = (
        fleet.governor.admitted,
        fleet.governor.denied,
        fleet.cache.deduped,
        fleet.cache.used,
        fleet.cache.wasted,
    );
    let twin =
        (replayed.admitted, replayed.denied, replayed.deduped, sum(|o| o.used), sum(|o| o.wasted));
    assert_eq!(live, twin, "(admitted, denied, deduped, used, wasted): live vs replay");
    assert!(twin.0 > 0 && twin.3 > 0 && twin.4 > 0, "the script must bet, win and lose: {twin:?}");
    let replay_rows: Vec<Vec<u64>> = replayed
        .per_session
        .iter()
        .map(|o| o.queries.iter().map(|q| q.rows).collect())
        .collect();
    assert_eq!(rows, replay_rows, "GO row counts");
}

/// A tiny line-protocol client for the end-to-end test.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to serve()");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { writer: stream, reader }
    }

    fn send(&mut self, line: &str) -> Value {
        writeln!(self.writer, "{line}").expect("write request");
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read response");
        let v = parse(reply.trim()).unwrap_or_else(|e| panic!("bad JSON for {line:?}: {e}"));
        assert_eq!(field(&v, "ok"), &Value::Bool(true), "{line} -> {reply}");
        v
    }
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    match v {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name:?} in {v:?}")),
        other => panic!("expected object with {name:?}, got {other:?}"),
    }
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::U64(u) => *u,
        Value::I64(i) => *i as u64,
        other => panic!("expected integer, got {other:?}"),
    }
}

/// Full wire-protocol round trip with two concurrent sessions: the
/// first session's speculative build serves the second session's GO as
/// a cross-session shared hit (the transcript in `docs/serving.md`).
#[test]
fn wire_protocol_serves_concurrent_sessions_with_shared_artifacts() {
    let db = build_base_db(&DatasetSpec::tiny()).unwrap();
    let handle = serve(db, ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    let mut alice = Client::connect(addr);
    let connected = alice.send("CONNECT alice");
    assert_eq!(field(&connected, "name"), &Value::Str("alice".into()));
    alice.send("EDIT ADD_RELATION lineitem");
    let edited = alice.send("EDIT ADD_SELECTION lineitem l_quantity <= 2");
    assert_eq!(as_u64(field(&edited, "relations")), 1);
    assert_eq!(as_u64(field(&edited, "selections")), 1);

    // Think time: the speculative materialization runs on a background
    // thread. Pump benign no-op edits (re-adding the same relation) to
    // give the speculator decision points until the artifact is ready.
    let mut ready = 0;
    for _ in 0..500 {
        let stats = alice.send("STATS");
        ready = as_u64(field(field(&stats, "cache"), "ready"));
        if ready >= 1 {
            break;
        }
        alice.send("EDIT ADD_RELATION lineitem");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(ready >= 1, "alice's speculative build never installed");

    let go1 = alice.send("GO");
    let rows = as_u64(field(&go1, "rows"));
    assert!(rows > 0, "the crafted predicate must match rows");
    assert_eq!(field(&go1, "shared_hit"), &Value::Bool(false), "own build is not a shared hit");

    // Bob converges on the same question; his GO reads alice's artifact.
    let mut bob = Client::connect(addr);
    bob.send("CONNECT bob");
    bob.send("EDIT ADD_RELATION lineitem");
    bob.send("EDIT ADD_SELECTION lineitem l_quantity <= 2");
    let go2 = bob.send("GO");
    assert_eq!(as_u64(field(&go2, "rows")), rows, "same query, same answer");
    assert_eq!(
        field(&go2, "shared_hit"),
        &Value::Bool(true),
        "bob's plan must read alice's artifact: {go2:?}"
    );

    let stats = bob.send("STATS");
    assert_eq!(as_u64(field(&stats, "sessions")), 2);
    let cache = field(&stats, "cache");
    assert!(as_u64(field(cache, "shared_hits")) >= 1, "{stats:?}");
    assert!(as_u64(field(field(&stats, "session"), "queries")) >= 1);
    // Each session's bets settle at most once: every verdict is on a
    // completed build.
    for client in [&mut alice, &mut bob] {
        let stats = client.send("STATS");
        let count = |name: &str| as_u64(field(field(&stats, "session"), name));
        assert!(count("used") + count("wasted") <= count("completed"), "{stats:?}");
    }

    bob.send("QUIT");
    alice.send("QUIT");
    handle.shutdown();
}
