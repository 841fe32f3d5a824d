//! specdb benchmark: end-to-end metrics with tracing off, or a traced
//! run that splits each workload's wall time into the program's layers.
//!
//! ```text
//! perfbench --workload <solo_think|fleet_twins|wire_pair> --seed <n>
//!           --seconds <s> --trace <0|1> [--commit <id>]
//!           [--source-digest <hex>] [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md for the
//! workloads, every metric, and the layer → metric → workload mapping.

mod layers;
mod live;
mod replay;
mod report;
mod spans;
mod stats;
mod wire;
mod workload;

use layers::{per_layer, render_breakdown, CoreCounts, LayerInputs};
use report::{json_str, result_line, Metrics};
use specdb_obs::{Observer, Tracer};
use specdb_sim::report::{improvement, pair_runs};
use specdb_sim::PairedRun;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{prepare, wrong_answers, Prepared, Workload};

/// End-to-end metric names, in the order README.md lists them.
pub const END_TO_END: [&str; 5] =
    ["go_virt_p50_s", "go_virt_p95_s", "improvement_pct", "setup_s", "peak_rss_mb"];

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
    source_digest: String,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut commit = "unknown".to_string();
    let mut source_digest = "unknown".to_string();
    let mut out_dir = PathBuf::from("perfbench/out");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--commit" => commit = value,
            "--source-digest" => source_digest = value,
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        commit,
        source_digest,
        out_dir,
    })
}

/// Engine and governor defaults read `SPECDB_*` variables, so a stray
/// one would silently change a workload: refuse to run under any.
fn refuse_specdb_env() -> Result<(), String> {
    let set: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("SPECDB_")).collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("unset {} first: workloads are fixed in code", set.join(", ")))
    }
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("{e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Where and how the numbers were made.
fn provenance(args: &Args, prep: &Prepared) -> String {
    let db = &prep.base;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fields = [
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("commit", json_str(&args.commit)),
        ("source_digest", json_str(&args.source_digest)),
        ("host_cores", cores.to_string()),
        ("profile", json_str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("dataset", json_str(prep.spec.label)),
        ("dataset_actual_mb", prep.spec.actual_mb().to_string()),
        ("pool_pages", prep.spec.buffer_pages().to_string()),
        ("threads", db.threads().to_string()),
        ("encoding", db.encoding().to_string()),
        ("exec_mode", json_str(db.exec_mode().as_str())),
        ("plan_cache", db.plan_cache_enabled().to_string()),
        ("traces", prep.traces.len().to_string()),
        ("gos_per_pass", prep.gos().to_string()),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// Operations attempted and operations failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Check replayed traces against the oracle (and, when given, against an
/// earlier replay of the same traces in this process, which must agree
/// exactly: replay is deterministic).
fn check_replay(
    prep: &Prepared,
    pass: &replay::ReplayPass,
    first: Option<&replay::ReplayPass>,
    tally: &mut Tally,
) {
    for (k, out) in pass.outcomes.iter().enumerate() {
        let i = pass.first_trace + k;
        tally.attempted += prep.oracle[i].len() as u64;
        let mut wrong = wrong_answers(&prep.oracle[i], &out.queries);
        if first.is_some_and(|f| f.outcomes[k].queries != out.queries) {
            eprintln!("perfbench: {} replayed differently on a repeat", prep.traces[i].user);
            wrong = wrong.max(1);
        }
        tally.failed += wrong;
    }
}

/// Pair each replayed GO with the oracle's normal-processing time.
fn replay_pairs(prep: &Prepared, passes: &[replay::ReplayPass]) -> Result<Vec<PairedRun>, String> {
    let mut pairs = Vec::new();
    for pass in passes {
        for (k, out) in pass.outcomes.iter().enumerate() {
            let oracle = &prep.oracle[pass.first_trace + k];
            pairs.extend(pair_runs(oracle, &out.queries).map_err(|e| e.to_string())?);
        }
    }
    Ok(pairs)
}

fn check_live(pass: &live::LivePass, tally: &mut Tally) {
    for c in &pass.connections {
        tally.attempted += c.attempted;
        tally.failed += c.failed;
    }
}

/// Untraced run: time `SETUP_REPEATS` set-ups, then run timing units
/// (one `solo_think` trace, the `fleet_twins` fleet, one `wire_pair` pass)
/// round-robin until every unit ran once and `seconds` have elapsed, and
/// report the end-to-end metrics. A replay unit's repeats must agree with
/// its first run; a live pass is never the same twice, so every pass adds
/// samples.
fn run_untraced(args: &Args) -> Result<(String, Tally, Metrics), String> {
    let off = Tracer::disabled();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prep = prepare(args.workload, args.seed, &off)?;
    setups.push(prep.times.total());
    for _ in 1..SETUP_REPEATS {
        let oracle = std::mem::take(&mut prep.oracle);
        drop(prep);
        prep = prepare(args.workload, args.seed, &off)?;
        setups.push(prep.times.total());
        if prep.oracle != oracle {
            return Err("two set-ups of one seed disagree".into());
        }
    }
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (go_virt, pairs) = if args.workload == Workload::WirePair {
        let (mut virt, mut pairs) = (Vec::new(), Vec::new());
        loop {
            let pass = live::run_pass(&prep, None, &off, false)?;
            check_live(&pass, &mut tally);
            for c in pass.connections {
                virt.extend(c.go_virt_s);
                pairs.extend(c.pairs);
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        (virt, pairs)
    } else {
        let n = replay::units(&prep);
        let mut first: Vec<replay::ReplayPass> = Vec::with_capacity(n);
        let mut done = 0;
        while done < n || Instant::now() < deadline {
            let unit = done % n;
            let pass = replay::run_unit(&prep, unit, None, &off);
            check_replay(&prep, &pass, first.get(unit), &mut tally);
            if done < n {
                first.push(pass);
            }
            done += 1;
        }
        let virt: Vec<f64> = first
            .iter()
            .flat_map(|p| &p.outcomes)
            .flat_map(|o| o.queries.iter().map(|q| q.elapsed.as_secs_f64()))
            .collect();
        (virt, replay_pairs(&prep, &first)?)
    };
    stats::require_tail("GO latency", go_virt.len(), 0.95)?;
    m.put("go_virt_p50_s", stats::quantile(&go_virt, 0.50), "s");
    m.put("go_virt_p95_s", stats::quantile(&go_virt, 0.95), "s");
    m.put("improvement_pct", improvement(&pairs) * 100.0, "%");
    m.put("setup_s", stats::median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb()?, "MB");
    eprintln!("{}", m.render());
    Ok((provenance(args, &prep), tally, m))
}

/// Traced run: one untraced pass for reference, then the same pass with
/// the observer and tracer on; report every per-layer metric.
fn run_traced(args: &Args) -> Result<(String, Tally, Metrics), String> {
    let tracer = Tracer::enabled();
    let off = Tracer::disabled();
    let prep = prepare(args.workload, args.seed, &tracer)?;
    let observer = Observer::enabled().with_tracer(tracer.clone());
    let mut tally = Tally::default();
    let mut inputs = LayerInputs { setup: prep.times, ..Default::default() };
    if args.workload == Workload::WirePair {
        let reference = live::run_pass(&prep, None, &off, false)?;
        check_live(&reference, &mut tally);
        let edits = reference.connections.iter().map(|c| c.edit_rtt_ms.len()).sum();
        stats::require_tail("EDIT round trips", edits, 0.95)?;
        inputs.gos_per_s = reference.gos_per_busy_s();
        let traced = live::run_pass(&prep, Some(&observer), &tracer, true)?;
        check_live(&traced, &mut tally);
        let busy = |p: &live::LivePass| p.connections.iter().map(|c| c.busy_s).sum::<f64>();
        inputs.untraced_wall_us = busy(&reference) * 1e6;
        inputs.traced_wall_us = busy(&traced) * 1e6;
        for c in &reference.connections {
            inputs.go_rtt_ms.extend(&c.go_rtt_ms);
            inputs.edit_rtt_ms.extend(&c.edit_rtt_ms);
        }
        for c in &traced.connections {
            inputs.lock_wait_us.extend(&c.lock_wait_us);
            inputs.stats_rtt_us.extend(&c.stats_rtt_us);
            inputs.rows_returned += c.rows_returned;
            inputs.core.issued += c.builds.0;
            inputs.core.completed += c.builds.1;
            inputs.core.cancelled += c.cancelled;
        }
        inputs.gos = traced.gos();
        inputs.serve = traced.serve;
        inputs.plan_cache = traced.plan_cache;
    } else {
        let reference = replay::run_pass(&prep, None, &off);
        check_replay(&prep, &reference, None, &mut tally);
        let traced = replay::run_pass(&prep, Some(&observer), &tracer);
        // Observation must not change a replay: the traced pass has to
        // agree exactly with the untraced one.
        check_replay(&prep, &traced, Some(&reference), &mut tally);
        inputs.untraced_wall_us = reference.wall_s * 1e6;
        inputs.gos_per_s = prep.gos() as f64 / reference.wall_s;
        inputs.traced_wall_us = traced.wall_s * 1e6;
        inputs.core = CoreCounts::of(&traced.outcomes);
        inputs.gos = prep.gos();
        inputs.rows_returned =
            traced.outcomes.iter().flat_map(|o| &o.queries).map(|q| q.rows).sum();
        inputs.serve = traced.serve;
        inputs.plan_cache = traced.plan_cache;
    }
    inputs.counters = observer.metrics().snapshot();
    inputs.build_est = observer.calibration().build_report().map(|r| (r.mean_abs_rel_err, r.count));
    inputs.spans_dropped = tracer.dropped();
    inputs.spans = tracer.take_spans();
    let m = per_layer(&inputs);
    if inputs.spans_dropped > 0 {
        return Err(format!("the tracer dropped {} spans", inputs.spans_dropped));
    }
    let breakdown = render_breakdown(&m);
    if args.workload != Workload::WirePair {
        // For a replay, layers and bookkeeping must account for the
        // traced wall time: self times partition the replay spans.
        let accounted: f64 = [
            "core.decide_share",
            "core.build_share.manip",
            "core.build_share.predict",
            "exec.go_share",
            "sim.self_share",
        ]
        .iter()
        .map(|k| m.get(k).unwrap_or(0.0))
        .sum();
        if (accounted - 1.0).abs() > 0.02 {
            return Err(format!(
                "layer shares account for {:.1}% of traced wall time",
                accounted * 100.0
            ));
        }
        println!(
            "where {} replay wall time goes ({}):\n{breakdown}",
            args.workload.name(),
            prep.spec.label
        );
    }
    let prov = provenance(args, &prep);
    write_artifacts(args, &prov, &m, &inputs.spans)?;
    eprintln!("{}", m.render());
    Ok((prov, tally, m))
}

/// Write the Chrome trace and the per-layer numbers beside each other.
fn write_artifacts(
    args: &Args,
    prov: &str,
    m: &Metrics,
    spans: &[specdb_obs::SpanRecord],
) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let trace_path = args.out_dir.join(format!("{stem}.trace.json"));
    std::fs::write(&trace_path, specdb_obs::span::chrome_trace(spans))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let layers_path = args.out_dir.join(format!("{stem}.layers.json"));
    let body = format!("{{\"provenance\": {prov}, \"per_layer\": {}}}\n", m.to_json()?);
    std::fs::write(&layers_path, body)
        .map_err(|e| format!("write {}: {e}", layers_path.display()))?;
    eprintln!("perfbench: wrote {} and {}", trace_path.display(), layers_path.display());
    Ok(())
}

fn run() -> Result<String, String> {
    refuse_specdb_env()?;
    let args = parse_args()?;
    let (prov, tally, m) = if args.trace { run_traced(&args)? } else { run_untraced(&args)? };
    println!("provenance {prov}");
    result_line(tally.failed == 0, tally.attempted, tally.failed, &m)
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
