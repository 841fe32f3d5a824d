//! Zone-map and columnar scan correctness against the row oracle.
//!
//! The columnar pipeline (segment cache, filter kernels over selection
//! vectors, zone-map page skipping) promises bit-identical rows, order,
//! AND virtual-time accounting against the row-at-a-time executor for
//! any scan. The cases that break scans in practice are NULL-heavy
//! columns (NULL must stay out of zone bounds and never match),
//! low-cardinality columns, sorted columns (zone maps that actually
//! exclude pages), mixed Int/Float columns (cross-representation
//! equality must not be conflated at decode), and table sizes straddling
//! the k·1024 batch boundary. This property generates exactly those and
//! cross-checks the columnar pipeline, cold and warm, against the row
//! oracle.

use proptest::prelude::*;
use specdb::catalog::{ColumnDef, DataType, Schema};
use specdb::exec::{Database, DatabaseConfig, ExecMode};
use specdb::prelude::*;
use specdb::query::Query;
use specdb::storage::Value;

const TAGS: [&str; 4] = ["red", "green", "blue", "red "];

/// One-table database stressing every scan path at once:
/// w(id: Int sorted unique, dept: Int? low-cardinality, run: Int long
/// runs, mix: Float? mixed Int/Float/NULL, tag: Str? tiny domain).
#[derive(Debug, Clone)]
struct ScanDb {
    n: usize,
    seed: u64,
}

impl ScanDb {
    /// Deterministic row stream from the seed (xorshift, like the
    /// executor oracle) — keeps proptest shrinking tractable at 2049 rows.
    fn rows(&self) -> Vec<Tuple> {
        let mut x = self.seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..self.n)
            .map(|i| {
                let dept =
                    if next() % 10 < 3 { Value::Null } else { Value::Int((next() % 8) as i64) };
                // Mixed representations sharing numeric values: Int(6)
                // and Float(3.0) both appear, and so does Float(6.0) via
                // x=12 — decode must not merge Int(6) with Float(6.0).
                let mix = match next() % 10 {
                    0..=2 => Value::Null,
                    m if m % 2 == 0 => Value::Float((next() % 12) as f64 / 2.0),
                    _ => Value::Int((next() % 12) as i64),
                };
                let tag = if next() % 10 < 2 {
                    Value::Null
                } else {
                    Value::from(TAGS[(next() % 4) as usize])
                };
                Tuple::new(vec![Value::Int(i as i64), dept, Value::Int((i / 64) as i64), mix, tag])
            })
            .collect()
    }
}

fn arb_db() -> impl Strategy<Value = ScanDb> {
    (
        prop_oneof![Just(1023usize), Just(1024), Just(1025), Just(2047), Just(2048), Just(2049)],
        any::<u64>(),
    )
        .prop_map(|(n, seed)| ScanDb { n, seed })
}

#[derive(Debug, Clone)]
struct ScanQuery {
    /// `id < c` — sorted column: zone maps genuinely exclude pages.
    id_lt: Option<i64>,
    /// `dept = c` — low-cardinality equality with NULLs in the column.
    dept_eq: Option<i64>,
    /// `run >= c` — long runs spanning whole pages.
    run_ge: Option<i64>,
    /// `mix <= c` — mixed Int/Float representations.
    mix_le: Option<i64>,
    /// `tag = TAGS[i]` — tiny string domain.
    tag_eq: Option<u8>,
}

fn arb_query() -> impl Strategy<Value = ScanQuery> {
    (
        prop::option::of(0i64..2100),
        prop::option::of(0i64..9),
        prop::option::of(0i64..34),
        prop::option::of(0i64..7),
        prop::option::of(0u8..4),
    )
        .prop_map(|(id_lt, dept_eq, run_ge, mix_le, tag_eq)| ScanQuery {
            id_lt,
            dept_eq,
            run_ge,
            mix_le,
            tag_eq,
        })
}

fn build_engine(db: &ScanDb) -> Database {
    let mut engine = Database::new(DatabaseConfig::with_buffer_pages(256));
    engine
        .create_table(
            "w",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("dept", DataType::Int),
                ColumnDef::new("run", DataType::Int),
                ColumnDef::new("mix", DataType::Float),
                ColumnDef::new("tag", DataType::Str),
            ]),
        )
        .unwrap();
    engine.load("w", db.rows()).unwrap();
    engine
}

fn to_query(q: &ScanQuery) -> Query {
    let mut g = QueryGraph::new();
    g.add_relation("w");
    if let Some(c) = q.id_lt {
        g.add_selection(Selection::new("w", Predicate::new("id", CompareOp::Lt, c)));
    }
    if let Some(c) = q.dept_eq {
        g.add_selection(Selection::new("w", Predicate::new("dept", CompareOp::Eq, c)));
    }
    if let Some(c) = q.run_ge {
        g.add_selection(Selection::new("w", Predicate::new("run", CompareOp::Ge, c)));
    }
    if let Some(c) = q.mix_le {
        g.add_selection(Selection::new("w", Predicate::new("mix", CompareOp::Le, c)));
    }
    if let Some(t) = q.tag_eq {
        g.add_selection(Selection::new(
            "w",
            Predicate::new("tag", CompareOp::Eq, TAGS[t as usize]),
        ));
    }
    Query::star(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scans_match_row_oracle(db in arb_db(), q in arb_query()) {
        let query = to_query(&q);
        // Oracle: the row executor — no segments and no zone maps
        // anywhere near the result.
        let mut oracle = build_engine(&db);
        oracle.set_exec_mode(ExecMode::Row);
        let expected = oracle.execute(&query).unwrap();
        let mut engine = build_engine(&db);
        engine.set_exec_mode(ExecMode::Columnar);
        // Twice: cold (decodes every page) then warm (segment-cache
        // hits + zone-map skips) must be indistinguishable.
        for pass in ["cold", "warm"] {
            let got = engine.execute(&query).unwrap();
            prop_assert_eq!(&got.rows, &expected.rows,
                "{} rows diverged; plan:\n{}", pass, got.plan);
            prop_assert_eq!(got.row_count, expected.row_count, "{} row_count", pass);
            prop_assert_eq!(got.demand, expected.demand,
                "{} accounting diverged; plan:\n{}", pass, got.plan);
        }
    }
}
