//! The workloads: what each one generates from the seed, and the shared
//! set-up (data, traces, and the normal-processing oracle).
//!
//! Like the paper, which replays one fixed set of recorded user traces,
//! each workload replays a fixed population of generated users on fixed
//! data. The run seed draws how the users pace themselves: every think
//! gap is stretched or shrunk by a log-normal factor. Pacing decides which
//! builds finish before GO, so every measurement moves with the seed,
//! while one run stays comparable with the next; a fresh population per
//! seed would swamp any change under the spread between populations.

use crate::layers::SetupTimes;
use specdb_exec::Database;
use specdb_obs::{SpanKind, Tracer};
use specdb_sim::{build_base_db, replay_trace, DatasetSpec, QueryMeasurement, ReplayConfig};
use specdb_storage::VirtualTime;
use specdb_tpch::explore::Domain;
use specdb_tpch::ExploreDomain;
use specdb_trace::{Trace, UserModel, UserModelConfig};
use std::time::Instant;

/// Seed of the fixed user population.
const POPULATION_SEED: u64 = 0x0005_ECDB;
/// Log-normal sigma of the per-run think-gap factor.
const THINK_JITTER: f64 = 0.05;

/// The paper's scale divisor: the "100MB" spec generates 2 MB of data.
const DIVISOR: u64 = 50;

/// Think-heavy single-question traces replayed by `solo_think`.
pub const SOLO_TRACES: usize = 4;
/// Queries per `solo_think` trace: enough to clear the predictor's cold
/// start (~15 GOs) with warm GOs left over, and 200 GOs per run, so that
/// ten lie beyond p95.
pub const SOLO_QUERIES: usize = 50;
/// Sessions in the `fleet_twins` fleet (look-alike pairs).
pub const FLEET_SESSIONS: usize = 32;
/// Queries per `fleet_twins` session.
pub const FLEET_QUERIES: usize = 8;
/// Live connections in `wire_pair`.
pub const WIRE_CONNECTIONS: usize = 2;
/// Queries per `wire_pair` connection.
pub const WIRE_QUERIES: usize = 100;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Speculative single-user replay with prediction, the paper's setting.
    SoloThink,
    /// A governed fleet of look-alike sessions on one shared engine.
    FleetTwins,
    /// Two live TCP connections against the in-process server.
    WirePair,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "solo_think" => Ok(Workload::SoloThink),
            "fleet_twins" => Ok(Workload::FleetTwins),
            "wire_pair" => Ok(Workload::WirePair),
            other => {
                Err(format!("unknown workload {other:?} (solo_think, fleet_twins, wire_pair)"))
            }
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloThink => "solo_think",
            Workload::FleetTwins => "fleet_twins",
            Workload::WirePair => "wire_pair",
        }
    }

    /// The dataset: the paper's 100 MB spec. `solo_think` runs it at
    /// divisor 50 with the 32 MB pool (2 MB of data, 81 pages). Where
    /// several sessions share the engine it gets the multi-user 96 MB pool
    /// at divisor 100 (1 MB of data, 120 pages: the data nearly fits), so
    /// that a fleet's or a live pair's GOs fit in one run.
    ///
    /// On `wire_pair` every request takes longer than most think gaps, so
    /// pacing cannot change the live outcome; there the seed also draws
    /// the generated rows (sizes and skew stay the spec's).
    pub fn spec(self, seed: u64) -> DatasetSpec {
        match self {
            Workload::SoloThink => DatasetSpec::paper_trio(DIVISOR).remove(0),
            Workload::FleetTwins => DatasetSpec::paper_trio(2 * DIVISOR).remove(0).multi_user(),
            Workload::WirePair => {
                let mut spec = DatasetSpec::paper_trio(2 * DIVISOR).remove(0).multi_user();
                spec.seed = mix(seed, usize::MAX);
                spec
            }
        }
    }

    /// The workload's traces for run seed `seed`: the fixed population,
    /// each user's think gaps jittered by a stream drawn from the seed.
    pub fn traces(self, seed: u64) -> Vec<Trace> {
        let mut traces = self.population();
        for (i, t) in traces.iter_mut().enumerate() {
            jitter_think(t, mix(seed, i));
        }
        traces
    }

    /// The fixed user population.
    fn population(self) -> Vec<Trace> {
        let seed = POPULATION_SEED;
        match self {
            Workload::SoloThink => {
                // The `prediction` bench's user: one exploration question
                // with a 30 s median formulation time.
                let cfg = UserModelConfig {
                    queries: SOLO_QUERIES,
                    questions: 1,
                    think_median_secs: 30.0,
                    ..Default::default()
                };
                let model = UserModel::new(cfg, ExploreDomain::tpch());
                (0..SOLO_TRACES)
                    .map(|i| model.generate(&format!("p{i}"), mix(seed, i)))
                    .collect()
            }
            Workload::FleetTwins => {
                // Sessions 2k and 2k+1 share a trace seed: half the fleet
                // re-asks a question its twin is already speculating on.
                let cfg = UserModelConfig { queries: FLEET_QUERIES, ..Default::default() };
                let model = UserModel::new(cfg, ExploreDomain::tpch());
                (0..FLEET_SESSIONS)
                    .map(|i| model.generate(&format!("s{i}"), mix(seed, i / 2)))
                    .collect()
            }
            Workload::WirePair => {
                // The wire protocol carries integer and string constants
                // only, so the live users never filter on float columns.
                let mut domain = ExploreDomain::tpch();
                domain.selections.retain(|t| !matches!(t.domain, Domain::FloatRange(..)));
                let cfg = UserModelConfig { queries: WIRE_QUERIES, ..Default::default() };
                let model = UserModel::new(cfg, domain);
                (0..WIRE_CONNECTIONS)
                    .map(|i| model.generate(&format!("w{i}"), mix(seed, 0)))
                    .collect()
            }
        }
    }
}

/// Scale every think gap of `trace` by `exp(THINK_JITTER * z)`, with
/// `z` standard normal from a stream seeded by `seed`.
fn jitter_think(trace: &mut Trace, seed: u64) {
    let mut state = seed;
    let mut uniform = || {
        state = mix(state, 0);
        ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    };
    let mut prev_old = 0u64;
    let mut prev_new = 0u64;
    for te in &mut trace.edits {
        let at = te.at.as_micros();
        let z = (-2.0 * uniform().ln()).sqrt() * (std::f64::consts::TAU * uniform()).cos();
        let gap = (at - prev_old) as f64 * (THINK_JITTER * z).exp();
        prev_old = at;
        prev_new += gap.round() as u64;
        te.at = VirtualTime::from_micros(prev_new);
    }
}

/// A per-trace seed from the run seed (SplitMix64 finalizer).
fn mix(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload ready to run: the base database, its traces, and what
/// normal processing answers for every query of every trace.
pub struct Prepared {
    pub workload: Workload,
    pub spec: DatasetSpec,
    pub base: Database,
    pub traces: Vec<Trace>,
    /// Normal-processing measurements, index-aligned with `traces`.
    pub oracle: Vec<Vec<QueryMeasurement>>,
    pub times: SetupTimes,
}

impl Prepared {
    /// Final queries across all traces.
    pub fn gos(&self) -> u64 {
        self.oracle.iter().map(|o| o.len() as u64).sum()
    }
}

/// Generate data and traces and replay every trace under normal
/// processing. Each phase is timed and recorded as a span of `tracer`.
pub fn prepare(workload: Workload, seed: u64, tracer: &Tracer) -> Result<Prepared, String> {
    let spec = workload.spec(seed);
    let phase = |name: &'static str| (tracer.begin(SpanKind::Session, name, 0), Instant::now());

    let (span, t) = phase("setup.datagen");
    let base = build_base_db(&spec).map_err(|e| format!("generate {}: {e}", spec.label))?;
    let datagen_s = t.elapsed().as_secs_f64();
    span.finish(0);

    let (span, t) = phase("setup.tracegen");
    let traces = workload.traces(seed);
    let tracegen_s = t.elapsed().as_secs_f64();
    span.finish(0);

    let (span, t) = phase("setup.oracle");
    let mut oracle: Vec<Vec<QueryMeasurement>> = Vec::with_capacity(traces.len());
    for (i, trace) in traces.iter().enumerate() {
        // Look-alike sessions make identical edits: answer them once.
        let same_ops =
            |t: &Trace| t.edits.iter().map(|e| &e.op).eq(trace.edits.iter().map(|e| &e.op));
        if let Some(j) = traces[..i].iter().position(same_ops) {
            oracle.push(oracle[j].clone());
            continue;
        }
        let mut db = base.clone();
        let out = replay_trace(&mut db, trace, &ReplayConfig::normal())
            .map_err(|e| format!("normal replay of {}: {e}", trace.user))?;
        oracle.push(out.queries);
    }
    let oracle_s = t.elapsed().as_secs_f64();
    span.finish(0);

    Ok(Prepared {
        workload,
        spec,
        base,
        traces,
        oracle,
        times: SetupTimes { datagen_s, tracegen_s, oracle_s },
    })
}

/// Final queries in `got` whose row count differs from the oracle's, or
/// that are missing.
pub fn wrong_answers(oracle: &[QueryMeasurement], got: &[QueryMeasurement]) -> u64 {
    let mismatched = oracle
        .iter()
        .zip(got)
        .filter(|(o, g)| o.index != g.index || o.rows != g.rows)
        .count();
    (mismatched + oracle.len().saturating_sub(got.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(t: &Trace) -> Vec<&specdb_query::EditOp> {
        t.edits.iter().map(|e| &e.op).collect()
    }

    #[test]
    fn the_seed_paces_a_fixed_population() {
        for w in [Workload::SoloThink, Workload::FleetTwins, Workload::WirePair] {
            let (a, b) = (w.traces(7), w.traces(8));
            assert_eq!(a, w.traces(7), "{}", w.name());
            assert_eq!(ops(&a[0]), ops(&b[0]), "{}", w.name());
            assert_ne!(a[0].edits, b[0].edits, "{}", w.name());
            for t in &a {
                assert!(t.edits.windows(2).all(|p| p[0].at <= p[1].at), "time runs forward");
            }
        }
    }

    #[test]
    fn fleet_and_wire_sessions_come_in_look_alike_pairs() {
        let fleet = Workload::FleetTwins.traces(3);
        assert_eq!(fleet.len(), FLEET_SESSIONS);
        assert_eq!(ops(&fleet[0]), ops(&fleet[1]));
        assert_ne!(fleet[0].edits, fleet[1].edits, "twins keep their own pace");
        assert_ne!(ops(&fleet[1]), ops(&fleet[2]));
        let wire = Workload::WirePair.traces(3);
        assert_eq!(ops(&wire[0]), ops(&wire[1]));
        for te in &wire[0].edits {
            crate::wire::render_edit(&te.op).expect("every live edit is sendable");
        }
    }
}
