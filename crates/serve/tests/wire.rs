//! The TCP front end against the embedded session API: the wire GO
//! reports what an embedded GO reports, and request round trips are not
//! held back by TCP acknowledgement timers.

use serde_json::{parse, Value};
use specdb_core::{SpaceConfig, SpeculatorConfig};
use specdb_exec::{CancelToken, Database, DatabaseConfig};
use specdb_query::{CompareOp, Predicate, QueryGraph, Selection};
use specdb_serve::{parse_request, serve, GovernorConfig, Request, ServeConfig, SessionManager};
use specdb_tpch::{generate_into, TpchConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A cold TPC-H database holding one view over French customers, so
/// some GOs below read a view.
fn db() -> Database {
    let mut db = Database::new(DatabaseConfig::with_buffer_pages(2048));
    generate_into(&mut db, &TpchConfig::new(1).build_aux(false)).unwrap();
    let mut french = QueryGraph::new();
    french.add_selection(Selection::new(
        "customer",
        Predicate::new("c_nation", CompareOp::Eq, "FRANCE"),
    ));
    db.materialize(&french, CancelToken::new()).unwrap();
    db.clear_buffer();
    db
}

/// A speculator that never builds, so both runs see the same database
/// at every GO whatever the wall-clock timing.
fn idle_speculator() -> SpeculatorConfig {
    SpeculatorConfig {
        space: SpaceConfig { materializations: false, ..Default::default() },
        predict: false,
        ..Default::default()
    }
}

/// One line-protocol connection; every request is sent in one write.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { writer: stream, reader }
    }

    fn send(&mut self, line: &str) -> Vec<(String, Value)> {
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        match parse(reply.trim()) {
            Ok(Value::Object(fields)) => {
                assert!(matches!(field(&fields, "ok"), Value::Bool(true)), "{line} -> {reply}");
                fields
            }
            other => panic!("{line} -> {other:?}"),
        }
    }
}

fn field<'a>(fields: &'a [(String, Value)], name: &str) -> &'a Value {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v).unwrap()
}

/// What a GO reports: rows, virtual elapsed seconds, views used.
type GoReport = (u64, f64, Vec<String>);

const SCRIPT: &[&str] = &[
    "EDIT ADD_RELATION customer",
    "EDIT ADD_SELECTION customer c_nation = 'FRANCE'",
    "GO",
    "EDIT ADD_RELATION orders",
    "EDIT ADD_JOIN orders o_custkey customer c_custkey",
    "GO",
    "EDIT REMOVE_SELECTION customer c_nation = 'FRANCE'",
    "GO",
    "GO",
];

#[test]
fn wire_go_reports_what_an_embedded_go_reports() {
    let manager = SessionManager::new(db(), idle_speculator(), GovernorConfig::default());
    let (_, session) = manager.connect("embedded");
    let mut embedded: Vec<GoReport> = Vec::new();
    for line in SCRIPT {
        let mut s = session.lock();
        match parse_request(line).unwrap() {
            Request::Edit(op) => s.edit(op),
            Request::Go => {
                let out = s.go().unwrap().output;
                assert_eq!(out.rows.len() as u64, out.row_count, "embedders receive the rows");
                embedded.push((out.row_count, out.elapsed.as_secs_f64(), out.used_views));
            }
            other => panic!("unscripted request {other:?}"),
        }
    }

    let config = ServeConfig { speculator: idle_speculator(), ..Default::default() };
    let handle = serve(db(), config).unwrap();
    let mut client = Client::connect(handle.addr());
    client.send("CONNECT wire");
    let mut wire: Vec<GoReport> = Vec::new();
    for line in SCRIPT {
        let reply = client.send(line);
        if *line == "GO" {
            let Value::I64(rows) = field(&reply, "rows") else { panic!("{reply:?}") };
            let Value::F64(elapsed) = field(&reply, "elapsed_secs") else { panic!("{reply:?}") };
            let Value::Array(views) = field(&reply, "used_views") else { panic!("{reply:?}") };
            let views = views
                .iter()
                .map(|v| match v {
                    Value::Str(s) => s.clone(),
                    other => panic!("view name {other:?}"),
                })
                .collect();
            wire.push((*rows as u64, *elapsed, views));
        }
    }
    client.send("QUIT");
    handle.shutdown();

    assert_eq!(wire, embedded);
    assert!(embedded.iter().any(|(_, _, views)| !views.is_empty()), "a GO must read the view");
    assert!(embedded.iter().any(|(_, _, views)| views.is_empty()), "a GO must read base tables");
}

#[test]
fn sequential_round_trips_do_not_wait_on_delayed_acks() {
    let handle = serve(db(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr());
    client.send("CONNECT pinger");
    let start = Instant::now();
    for _ in 0..50 {
        client.send("STATS");
    }
    let took = start.elapsed();
    let stats = client.send("STATS");
    let Value::Object(governor) = field(&stats, "governor") else { panic!("{stats:?}") };
    let keys: Vec<&str> = governor.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["admitted", "denied", "preempted", "outstanding"], "wire key order");
    client.send("QUIT");
    handle.shutdown();
    assert!(took < Duration::from_secs(1), "50 STATS round trips took {took:?}");
}

#[test]
fn an_unbounded_request_is_refused_and_the_server_keeps_serving() {
    let handle = serve(db(), ServeConfig::default()).unwrap();
    let mut flood = Client::connect(handle.addr());
    // The server stops reading at its cap and closes the socket, so the
    // tail of this write may fail; only the reply matters.
    let _ = flood.writer.write_all(&vec![b'x'; 1 << 20]);
    let mut reply = String::new();
    flood.reader.read_line(&mut reply).unwrap();
    let Ok(Value::Object(fields)) = parse(reply.trim()) else { panic!("reply {reply:?}") };
    assert!(matches!(field(&fields, "ok"), Value::Bool(false)), "{reply}");
    let mut rest = String::new();
    let closed = matches!(flood.reader.read_line(&mut rest), Ok(0) | Err(_));
    assert!(closed, "the connection must close after the error, read {rest:?}");

    let mut client = Client::connect(handle.addr());
    client.send("CONNECT after-flood");
    client.send("STATS");
    client.send("QUIT");
    handle.shutdown();
}
