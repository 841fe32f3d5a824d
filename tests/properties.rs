//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use specdb::catalog::Histogram;
use specdb::prelude::*;
use specdb::query::Join;
use specdb::storage::{BufferPool, HeapFile};

// ---------- generators ----------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-z]{0,12}".prop_map(Value::Str),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(arb_value(), 0..8).prop_map(Tuple::new)
}

fn arb_selection() -> impl Strategy<Value = Selection> {
    (
        prop_oneof![Just("R"), Just("S"), Just("T")],
        prop_oneof![Just("a"), Just("b"), Just("c")],
        prop_oneof![
            Just(CompareOp::Eq),
            Just(CompareOp::Lt),
            Just(CompareOp::Gt),
            Just(CompareOp::Le),
            Just(CompareOp::Ge),
            Just(CompareOp::Ne)
        ],
        -100i64..100,
    )
        .prop_map(|(r, c, op, v)| Selection::new(r, Predicate::new(c, op, v)))
}

fn arb_join() -> impl Strategy<Value = Join> {
    (
        prop_oneof![Just("R"), Just("S"), Just("T"), Just("U")],
        prop_oneof![Just("x"), Just("y")],
        prop_oneof![Just("R"), Just("S"), Just("T"), Just("U")],
        prop_oneof![Just("x"), Just("y")],
    )
        .prop_filter("self-joins excluded", |(a, _, b, _)| a != b)
        .prop_map(|(ra, ca, rb, cb)| Join::new(ra, ca, rb, cb))
}

fn arb_graph() -> impl Strategy<Value = QueryGraph> {
    (prop::collection::vec(arb_selection(), 0..4), prop::collection::vec(arb_join(), 0..3))
        .prop_map(|(sels, joins)| {
            let mut g = QueryGraph::new();
            for s in sels {
                g.add_selection(s);
            }
            for j in joins {
                g.add_join(j);
            }
            g
        })
}

// ---------- storage ----------

proptest! {
    #[test]
    fn tuple_codec_round_trips(t in arb_tuple()) {
        let decoded = Tuple::decode(&t.encode()).unwrap();
        prop_assert_eq!(&decoded, &t);
        prop_assert_eq!(t.encode().len(), t.encoded_len());
    }

    #[test]
    fn heap_file_preserves_tuples(rows in prop::collection::vec(arb_tuple(), 1..200)) {
        let mut pool = BufferPool::new(64);
        let heap = HeapFile::create(&mut pool);
        let mut loader = specdb::storage::heap::BulkLoader::new();
        for r in &rows {
            loader.push(r).unwrap();
        }
        loader.finish(&mut pool, heap).unwrap();
        let mut tids = Vec::new();
        heap.for_each(&mut pool, |tid, _| {
            tids.push(tid);
            true
        })
        .unwrap();
        // Scan order equals insertion order.
        let all = heap.collect_all(&mut pool).unwrap();
        prop_assert_eq!(&all, &rows);
        // Point fetch agrees for a sample.
        for (i, tid) in tids.iter().enumerate().step_by(17) {
            prop_assert_eq!(&heap.get(&mut pool, *tid).unwrap(), &rows[i]);
        }
    }

    #[test]
    fn buffer_accounting_is_consistent(reads in prop::collection::vec(0u32..32, 1..100)) {
        let mut pool = BufferPool::new(8);
        let f = pool.create_file();
        for i in 0..32u32 {
            let mut p = specdb::storage::Page::new();
            p.insert(&[1u8; 8]).unwrap();
            pool.put_page(specdb::storage::PageId::new(f, i), p).unwrap();
        }
        pool.clear();
        let snap = pool.snapshot();
        for &r in &reads {
            pool.read_page(specdb::storage::PageId::new(f, r), specdb::storage::AccessKind::Random)
                .unwrap();
        }
        let d = pool.demand_since(snap);
        // Every read is either a hit or a miss; never more misses than reads.
        prop_assert_eq!(d.hits + d.rand_reads, reads.len() as u64);
        prop_assert!(pool.resident() <= 8);
    }
}

// ---------- histogram ----------

proptest! {
    #[test]
    fn histogram_fractions_are_probabilities(
        vals in prop::collection::vec(-1000i64..1000, 1..500),
        probe in -1500i64..1500,
    ) {
        let values: Vec<Value> = vals.iter().copied().map(Value::Int).collect();
        let h = Histogram::build(&values);
        let p = Value::Int(probe);
        for frac in [h.fraction_lt(&p), h.fraction_le(&p), h.fraction_eq(&p)] {
            prop_assert!((0.0..=1.0).contains(&frac), "fraction {frac} out of range");
        }
        prop_assert!(h.fraction_le(&p) + 1e-9 >= h.fraction_lt(&p));
    }

    #[test]
    fn histogram_lt_is_monotone(
        vals in prop::collection::vec(-1000i64..1000, 10..300),
        a in -1200i64..1200,
        b in -1200i64..1200,
    ) {
        let values: Vec<Value> = vals.iter().copied().map(Value::Int).collect();
        let h = Histogram::build(&values);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            h.fraction_lt(&Value::Int(lo)) <= h.fraction_lt(&Value::Int(hi)) + 1e-9
        );
    }

    #[test]
    fn histogram_eq_matches_exact_counts_on_small_domains(
        vals in prop::collection::vec(0i64..8, 50..400),
    ) {
        // With ≤ 8 distinct values and ≥ 50 rows, every value is a "heavy
        // hitter" getting its own bucket: estimates should be near-exact.
        let values: Vec<Value> = vals.iter().copied().map(Value::Int).collect();
        let h = Histogram::build(&values);
        for v in 0..8 {
            let actual = vals.iter().filter(|&&x| x == v).count() as f64 / vals.len() as f64;
            let est = h.fraction_eq(&Value::Int(v));
            prop_assert!((est - actual).abs() < 0.02, "v={v}: est {est} vs actual {actual}");
        }
    }
}

// ---------- query graph algebra ----------

proptest! {
    #[test]
    fn containment_is_reflexive_and_antisymmetric(g in arb_graph(), h in arb_graph()) {
        prop_assert!(g.contains(&g));
        if g.contains(&h) && h.contains(&g) {
            prop_assert_eq!(&g, &h);
        }
    }

    #[test]
    fn union_intersection_laws(a in arb_graph(), b in arb_graph()) {
        let u = a.union(&b);
        let i = a.intersection(&b);
        prop_assert!(u.contains(&a) && u.contains(&b));
        prop_assert!(a.contains(&i) && b.contains(&i));
        // Commutativity.
        prop_assert_eq!(&u, &b.union(&a));
        prop_assert_eq!(&i, &b.intersection(&a));
        // Absorption: a ∪ (a ∩ b) = a.
        prop_assert_eq!(&a.union(&i), &a);
        // Disjointness definition.
        prop_assert_eq!(a.is_disjoint(&b), i.is_empty());
    }

    #[test]
    fn difference_partitions(a in arb_graph(), b in arb_graph()) {
        let d = a.difference(&b);
        let i = a.intersection(&b);
        prop_assert_eq!(&d.union(&i), &a);
    }

    #[test]
    fn components_partition_the_graph(g in arb_graph()) {
        let comps = g.connected_components();
        let reunited = comps.iter().fold(QueryGraph::new(), |acc, c| acc.union(c));
        prop_assert_eq!(&reunited, &g);
        for c in &comps {
            prop_assert!(c.is_connected());
        }
        // Components are pairwise disjoint on relations.
        for (i, a) in comps.iter().enumerate() {
            for b in comps.iter().skip(i + 1) {
                for r in a.relations() {
                    prop_assert!(!b.has_relation(r));
                }
            }
        }
    }

    #[test]
    fn canonical_key_agrees_with_equality(a in arb_graph(), b in arb_graph()) {
        use specdb::query::canonical_key;
        prop_assert_eq!(a == b, canonical_key(&a) == canonical_key(&b));
    }

    #[test]
    fn enumerated_subgraphs_are_contained(g in arb_graph()) {
        for s in g.selections() {
            prop_assert!(g.contains(&g.selection_subgraph(s)));
        }
        for j in g.joins() {
            let sub = g.join_subgraph(j);
            prop_assert!(g.contains(&sub));
            // Attached selections are exactly those on the endpoints.
            for s in sub.selections() {
                prop_assert!(s.rel == j.left || s.rel == j.right);
            }
        }
    }
}

// ---------- partial-query edits ----------

proptest! {
    #[test]
    fn apply_then_invert_restores_graph(g in arb_graph(), s in arb_selection(), j in arb_join()) {
        use specdb::query::{EditOp, PartialQuery};
        let mut pq = PartialQuery::from_query(specdb::query::Query::star(g.clone()));
        let had_sel = g.selections().any(|e| e == &s);
        let had_join = g.joins().any(|e| e == &j);
        let had_sel_rel = g.has_relation(&s.rel);
        let had_join_rels = (g.has_relation(&j.left), g.has_relation(&j.right));
        pq.apply(&EditOp::AddSelection(s.clone()));
        pq.apply(&EditOp::AddJoin(j.clone()));
        if !had_join {
            pq.apply(&EditOp::RemoveJoin(j.clone()));
        }
        if !had_sel {
            pq.apply(&EditOp::RemoveSelection(s.clone()));
        }
        // Relations implicitly added must be removed to restore exactly.
        if !had_sel_rel && !pq.graph().selections_on(&s.rel).any(|_| true)
            && !pq.graph().joins_on(&s.rel).any(|_| true) && !g.has_relation(&s.rel) {
            pq.apply(&EditOp::RemoveRelation(s.rel.clone()));
        }
        for (rel, had) in [(&j.left, had_join_rels.0), (&j.right, had_join_rels.1)] {
            if !had && !pq.graph().selections_on(rel).any(|_| true)
                && !pq.graph().joins_on(rel).any(|_| true) && !g.has_relation(rel) {
                pq.apply(&EditOp::RemoveRelation(rel.clone()));
            }
        }
        prop_assert_eq!(pq.graph(), &g);
    }
}

// ---------- wire protocol ----------

/// Each `EDIT` sub-command of the wire protocol and its argument count.
const EDIT_ARITY: &[(&str, usize)] = &[
    ("ADD_RELATION", 1),
    ("REMOVE_RELATION", 1),
    ("ADD_SELECTION", 4),
    ("REMOVE_SELECTION", 4),
    ("UPDATE_SELECTION", 5),
    ("ADD_JOIN", 4),
    ("REMOVE_JOIN", 4),
    ("ADD_PROJECTION", 2),
    ("REMOVE_PROJECTION", 2),
    ("GO", 0),
];

/// One whitespace-free token: a verb, an `EDIT` sub-command, a
/// comparison operator, or a free string.
fn arb_wire_token() -> impl Strategy<Value = String> {
    let pick =
        |words: &'static [&'static str]| (0..words.len()).prop_map(move |i| words[i].to_string());
    prop_oneof![
        pick(&["CONNECT", "EDIT", "GO", "go", "CANCEL", "STATS", "QUIT", "exit"]),
        (0..EDIT_ARITY.len()).prop_map(|i| EDIT_ARITY[i].0.to_ascii_lowercase()),
        pick(&["=", "==", "!=", "<>", "<", "<=", ">", ">=", "EQ", "ne", "LT", "le"]),
        "[a-zA-Z0-9_'=<>!.-]{1,8}",
    ]
}

/// A request line: free tokens, or an `EDIT` with a sub-command first.
fn arb_request_line() -> impl Strategy<Value = String> {
    (any::<bool>(), prop::collection::vec(arb_wire_token(), 0..9)).prop_map(|(edit, tokens)| {
        let line = tokens.join(" ");
        if edit {
            format!("EDIT {line}")
        } else {
            line
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn wire_parser_never_panics(line in arb_request_line()) {
        let _ = specdb::serve::parse_request(&line);
    }

    #[test]
    fn edit_with_the_wrong_argument_count_is_refused(
        (sub, n, args) in (
            0..EDIT_ARITY.len(),
            0usize..8,
            prop::collection::vec(arb_wire_token(), 8),
        )
            .prop_filter("wrong count", |(sub, n, _)| *n != EDIT_ARITY[*sub].1)
    ) {
        let (name, arity) = EDIT_ARITY[sub];
        let line = format!("EDIT {name} {}", args[..n].join(" "));
        prop_assert!(
            specdb::serve::parse_request(&line).is_err(),
            "{name} takes {arity} argument(s) but accepted {line:?}"
        );
    }
}

// ---------- replay protocol ----------

/// A tiny TPC-H database with every join of at most `max_subset`
/// relations pre-materialized (none below 2).
fn replay_base(max_subset: usize) -> Database {
    use specdb::sim::{build_base_db, materialize_subset_joins_up_to, DatasetSpec};
    let mut db = build_base_db(&DatasetSpec::tiny()).unwrap();
    materialize_subset_joins_up_to(&mut db, max_subset).unwrap();
    db
}

fn sorted<'a>(names: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut v: Vec<String> = names.map(str::to_string).collect();
    v.sort();
    v
}

fn view_names(db: &Database) -> Vec<String> {
    sorted(db.views().iter().map(|v| v.name.as_str()))
}

// Speculation's bookkeeping settles on any cohort: every issued build
// completes or is cancelled, every GO answers as normal processing does,
// and neither replay drops a view it did not build.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn replay_bookkeeping_holds_on_random_cohorts(
        seed in any::<u64>(),
        queries in prop::collection::vec(2usize..5, 1..=3),
        budget in 1usize..=2,
        predict in any::<bool>(),
        max_subset in 0usize..=2,
    ) {
        use specdb::serve::GovernorConfig;
        use specdb::sim::{replay_multi_session, replay_trace, MultiSessionConfig, ReplayConfig};
        use specdb::trace::{UserModel, UserModelConfig};
        let base = replay_base(max_subset);
        let (tables, views) = (sorted(base.catalog().table_names()), view_names(&base));
        let traces: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(s, &queries)| {
                let cfg = UserModelConfig { queries, questions: 2, ..Default::default() };
                UserModel::new(cfg, specdb::tpch::ExploreDomain::tpch())
                    .generate("u", seed.wrapping_add(s as u64))
            })
            .collect();

        let mut normal_rows = Vec::new();
        for trace in &traces {
            let mut db = base.clone();
            let out = replay_trace(&mut db, trace, &ReplayConfig::normal()).unwrap();
            prop_assert_eq!(sorted(db.catalog().table_names()), tables.clone());
            prop_assert_eq!(view_names(&db), views.clone());
            normal_rows.push(out.queries.iter().map(|q| q.rows).collect::<Vec<_>>());
        }

        let mut replay = ReplayConfig::speculative();
        replay.speculator.predict = predict;
        let cfg = MultiSessionConfig {
            replay,
            governor: GovernorConfig { max_outstanding: budget, ..Default::default() },
        };
        let mut db = base.clone();
        let out = replay_multi_session(&mut db, &traces, &cfg).unwrap();
        for (s, rows) in out.per_session.iter().zip(&normal_rows) {
            prop_assert_eq!(s.issued, s.completed + s.cancelled);
            prop_assert_eq!(s.manipulation_times.len() as u64, s.completed);
            prop_assert!(s.used + s.wasted <= s.completed, "{s:?}");
            prop_assert_eq!(&s.queries.iter().map(|q| q.rows).collect::<Vec<_>>(), rows);
        }
        prop_assert_eq!(out.per_session.iter().map(|s| s.issued).sum::<u64>(), out.admitted);
        prop_assert!(out.shared_hits <= out.artifact_uses, "{out:?}");
        let left = view_names(&db);
        for name in &views {
            prop_assert!(left.contains(name), "{name} was dropped");
        }
    }
}
