//! `tsens-perfbench`: one run of one workload.
//!
//! ```text
//! tsens-perfbench --workload <hot-serve|social-lookup|social-write|tpch-analyst>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` serves the workload over loopback HTTP and reports the
//! end-to-end metrics. `--trace 1` takes an op list a quarter as long,
//! replays it in-process, serves it, replays it with spans around every
//! layer call and once more without, and reports the per-layer metrics;
//! the spans go to `.bench_out/`. Either way every answer is checked,
//! and the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod check;
mod replay;
mod serve;
mod stats;
mod sys;
mod workload;

use check::Answer;
use replay::{Replay, NO_PARENT};
use stats::{median, percentile, ratio};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use tsens_data::Database;
use tsens_engine::{Pool, THREADS_ENV};
use tsens_query::ConjunctiveQuery;
use workload::{Op, Plan, Workload};

/// Scratch directories (durable stores) and trace output, relative to
/// the directory the benchmark runs in.
const TMP_ROOT: &str = ".bench_tmp";
const OUT_ROOT: &str = ".bench_out";
/// Share of `--seconds` each of the traced run's passes gets.
const TRACE_SHARE: f64 = 0.25;
/// Requests whose spans are written out in full.
const SPANS_WRITTEN: u32 = 2000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tsens-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The run's outcome: what the last stdout line reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn run(args: Args) -> Result<(), String> {
    let w = args.workload;
    if w.pinned() {
        let cpus = sys::allowed_cpus().map_err(|e| format!("sched_getaffinity: {e}"))?;
        let cpu = *cpus.last().ok_or("empty CPU set")?;
        sys::pin_to(cpu).map_err(|e| format!("sched_setaffinity: {e}"))?;
        std::env::set_var(THREADS_ENV, "1");
    }
    let cpus = sys::allowed_cpus().map_err(|e| format!("sched_getaffinity: {e}"))?;
    println!(
        "workload={} seed={} trace={} cpuset={cpus:?} engine_pool_threads={}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        Pool::default().size()
    );

    let share = if args.trace { TRACE_SHARE } else { 1.0 };
    let plan = workload::plan(w, args.seed, w.ops_for(args.seconds * share));
    let mut tmp = TmpDirs::new()?;
    let outcome = if args.trace {
        traced_run(w, &args, &plan, &mut tmp)
    } else {
        served_run(w, &plan, &mut tmp)
    };
    drop(tmp);
    let o = outcome?;

    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics_json(&o.metrics)
    );
    Ok(())
}

/// `{"name":{"value":v,"unit":"u"},…}`; a non-finite value prints as 0.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Fresh per-process scratch directories, removed on drop.
struct TmpDirs {
    root: PathBuf,
    next: usize,
}

impl TmpDirs {
    fn new() -> Result<TmpDirs, String> {
        let root = PathBuf::from(TMP_ROOT).join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(TmpDirs { root, next: 0 })
    }

    /// A new durable-store directory for workloads that need one.
    fn wal_dir(&mut self, w: Workload) -> Option<PathBuf> {
        self.next += 1;
        w.durable()
            .then(|| self.root.join(format!("store{}", self.next)))
    }
}

impl Drop for TmpDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        let _ = std::fs::remove_dir(TMP_ROOT);
    }
}

/// The end-to-end run: set up `setup_reps` times, serve the op list on
/// the last server, then check any answers that needed a reference.
fn served_run(w: Workload, plan: &Plan, tmp: &mut TmpDirs) -> Result<Outcome, String> {
    let (mut setups, mut wrong, mut attempted) = (Vec::new(), 0, 0);
    let mut live: Option<serve::Served> = None;
    for _ in 0..w.setup_reps() {
        if let Some(s) = live.take() {
            s.stop();
        }
        let (s, took, bad) =
            serve::setup(plan.db.clone(), tmp.wal_dir(w).as_deref(), &plan.warmup)?;
        setups.push(took.as_secs_f64());
        wrong += bad;
        attempted += plan.warmup.len();
        live = Some(s);
    }
    let mut s = live.ok_or("no set-up ran")?;
    let bounds = w.chunk_bounds(plan.ops.len());
    let timed = serve::run_ops(&mut s.client, &plan.ops, &bounds);
    s.stop();
    let peak = sys::peak_rss_mb().map_err(|e| format!("VmHWM: {e}"))?;
    wrong += timed.wrong;
    attempted += plan.ops.len();
    if !timed.unchecked.is_empty() {
        let reference = reference_answers(plan)?;
        wrong += reference.wrong;
        wrong += wrong_against(&timed.unchecked, &plan.ops, &reference.answers);
    }

    // Throughput and CPU cost per chunk of the phase, then the median
    // chunk: a few seconds of interference from outside the process
    // moves one or two chunks, not the figure.
    let (mut rates, mut cpu_per_op) = (Vec::new(), Vec::new());
    for (m, b) in timed.marks.windows(2).zip(bounds.windows(2)) {
        let done = (b[1] - b[0]) as f64;
        rates.push(done / (m[1].0 - m[0].0).as_secs_f64());
        cpu_per_op.push((m[1].1 - m[0].1) as f64 / 1e3 / done);
    }
    println!(
        "setup_s = {:.3} s (median of {})",
        median(&setups),
        setups.len()
    );
    println!(
        "ops_per_s = {:.3} 1/s (median of {} chunks)",
        median(&rates),
        rates.len()
    );
    println!(
        "cpu_us_per_op = {:.3} us (median of {} chunks)",
        median(&cpu_per_op),
        cpu_per_op.len()
    );
    println!("peak_rss_mb = {peak:.3} MB");
    println!(
        "error_rate = {} ({wrong} of {attempted})",
        wrong as f64 / attempted as f64
    );

    // Latencies, reported but not gated: read types differ up to a
    // thousandfold and some are bimodal (hit or miss, maintained or
    // rebuilt), so a pooled percentile mostly says which type sits at
    // that rank.
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut read_types: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (op, &ns) in plan.ops.iter().zip(&timed.lat_ns) {
        if op.write {
            writes.push(ns);
        } else {
            reads.push(ns);
            read_types
                .entry(op.label)
                .or_default()
                .push(ns as f64 / 1e3);
        }
    }
    reads.sort_unstable();
    writes.sort_unstable();
    for (label, v) in &read_types {
        println!("read_p50_us[{label}] = {:.3} us (n={})", median(v), v.len());
    }
    let tails = [
        ("read_p50_us", &reads, 0.5),
        ("read_p90_us", &reads, 0.9),
        ("read_p99_us", &reads, 0.99),
        ("write_p50_us", &writes, 0.5),
        ("write_p90_us", &writes, 0.9),
    ];
    for (name, sorted, p) in tails {
        match percentile(sorted, p) {
            Some(ns) => println!("{name} = {:.3} us (n={})", ns as f64 / 1e3, sorted.len()),
            None => println!("{name} = - (n={}: too few samples)", sorted.len()),
        }
    }
    Ok(Outcome {
        attempted,
        failed: wrong,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("ops_per_s", median(&rates), "1/s"),
            ("cpu_us_per_op", median(&cpu_per_op), "us"),
            ("peak_rss_mb", peak, "MB"),
        ],
    })
}

/// Answers from a separate in-process session, plus how many of its own
/// cross-checks failed.
struct Reference {
    answers: Vec<Option<Answer>>,
    wrong: usize,
}

/// The reference for ops without a precomputed answer (TPC-H): a
/// separate in-process session's answers, with every q1 LS cross-checked
/// against the path-query algorithm.
fn reference_answers(plan: &Plan) -> Result<Reference, String> {
    let replayed = replay::replay(plan.db.clone(), None, &plan.warmup, &plan.ops, false)?;
    reference_from(plan, &replayed)
}

fn reference_from(plan: &Plan, replayed: &Replay) -> Result<Reference, String> {
    let answers: Vec<Option<Answer>> = replayed.answers.iter().map(|a| a.clone().ok()).collect();
    let mut wrong = answers.iter().filter(|a| a.is_none()).count();
    for (op, answer) in plan.ops.iter().zip(&answers) {
        if op.label == "q1.tsens" {
            let path = q1_path_ls(&plan.db, &op.body)?;
            if answer != &Some(Answer::Ls(path)) {
                eprintln!(
                    "q1 tsens {answer:?} disagrees with tsens_path {path} on {:?}",
                    op.body
                );
                wrong += 1;
            }
        }
    }
    Ok(Reference { answers, wrong })
}

/// LS of `q1` selected on `Customer.NK = k` by `tsens_path`, which
/// handles only predicate-free path queries: the selection is applied
/// to Customer up front. Every nation and region has exactly one row,
/// so a customer of another nation would be exactly as sensitive, and
/// the LS is unchanged.
fn q1_path_ls(db: &Database, body: &str) -> Result<u128, String> {
    let q = tsens_server::parse_query(body)?;
    let k = q
        .predicates
        .first()
        .ok_or("q1 without where=")?
        .value
        .clone();
    let mut only = Database::new();
    only.attrs(["RK", "NK", "CK", "OK", "SK", "PK"]);
    let names = ["Region", "Nation", "Customer", "Orders", "L_ok"];
    for name in names {
        let rel = db.relation_by_name(name).ok_or("tpch catalog")?;
        let rel = if name == "Customer" {
            let nk = db
                .attr_id("NK")
                .and_then(|a| rel.schema().position(a))
                .ok_or("Customer.NK")?;
            rel.filtered(|row| row[nk] == k)
        } else {
            rel.clone()
        };
        only.add_relation(name, rel).map_err(|e| e.to_string())?;
    }
    let cq = ConjunctiveQuery::over(&only, "q1", &names).map_err(|e| e.to_string())?;
    tsens_core::tsens_path(&only, &cq)
        .map(|r| r.local_sensitivity)
        .ok_or_else(|| "q1 is not a path query".into())
}

/// How many served responses disagree with the reference answers.
fn wrong_against(responses: &[(u16, String)], ops: &[Op], reference: &[Option<Answer>]) -> usize {
    let pending = ops
        .iter()
        .zip(reference)
        .filter(|(op, _)| op.expect.is_none());
    responses
        .iter()
        .zip(pending)
        .filter(|((status, body), (_, want))| {
            !want
                .as_ref()
                .is_some_and(|a| check::check(*status, body, a))
        })
        .count()
}

/// The traced run: replay the op list in-process, serve it untraced
/// (reading `/stats` before and after for the layers' counters), replay
/// it with spans on and once more with spans off, and report each
/// layer's median self time.
fn traced_run(w: Workload, args: &Args, plan: &Plan, tmp: &mut TmpDirs) -> Result<Outcome, String> {
    let replay = |tmp: &mut TmpDirs, trace| {
        replay::replay(
            plan.db.clone(),
            tmp.wal_dir(w).as_deref(),
            &plan.warmup,
            &plan.ops,
            trace,
        )
    };
    // Pass order: a spans-off replay first (the reference, and it leaves
    // the heap as warm as the later passes will find it), then the
    // served pass, the traced replay, and a second spans-off replay as
    // the overhead baseline.
    let first = replay(tmp, false)?;
    let (mut s, _, mut wrong) =
        serve::setup(plan.db.clone(), tmp.wal_dir(w).as_deref(), &plan.warmup)?;
    let before = serve::stats(&mut s.client)?;
    let http = serve::run_ops(&mut s.client, &plan.ops, &[]);
    let after = serve::stats(&mut s.client)?;
    s.stop();
    wrong += http.wrong;
    let traced = replay(tmp, true)?;
    let plain = replay(tmp, false)?;

    let reference = reference_from(plan, &first)?;
    wrong += reference.wrong;
    wrong += wrong_against(&http.unchecked, &plan.ops, &reference.answers);
    for (i, op) in plan.ops.iter().enumerate() {
        let want = op.expect.or(reference.answers[i]);
        if want.is_none() || traced.answers[i].as_ref().ok() != want.as_ref() {
            wrong += 1;
        }
    }
    let attempted = plan.warmup.len() + 2 * plan.ops.len();

    // Per-layer self times.
    let spans = &traced.tracer.spans;
    let own = traced.tracer.self_times();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut request_ns = vec![0u64; plan.ops.len()];
    for (span, &ns) in spans.iter().zip(&own) {
        if span.parent == NO_PARENT {
            request_ns[span.req as usize] = span.end_ns - span.start_ns;
        } else {
            layers.entry(span.name).or_default().push(ns as f64 / 1e3);
        }
    }
    let http_self: Vec<f64> = http
        .lat_ns
        .iter()
        .zip(&request_ns)
        .map(|(&h, &r)| (h as f64 - r as f64) / 1e3)
        .collect();
    let layer_us = |name: &str| layers.get(name).map_or(0.0, |v| median(v));
    let overhead = ratio(
        traced.wall.as_secs_f64() - plain.wall.as_secs_f64(),
        plain.wall.as_secs_f64(),
    );

    // Cache and write-path counters, as the server saw them.
    let delta = |key: &str| -> f64 {
        let read = |body: &str| {
            check::field(body, key)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        read(&after) - read(&before)
    };
    let hit_ratio = |hits: &str, misses: &str| ratio(delta(hits), delta(hits) + delta(misses));
    let ops = plan.ops.len() as f64;
    let metrics = vec![
        ("server.http.self_us", median(&http_self), "us"),
        ("server.wire.parse_us", layer_us("server.wire.parse"), "us"),
        ("query.build_us", layer_us("query.build"), "us"),
        (
            "engine.snapshot.pin_us",
            layer_us("engine.snapshot.pin"),
            "us",
        ),
        ("engine.lift_us", layer_us("engine.lift"), "us"),
        (
            "engine.lift.atom_hit_ratio",
            hit_ratio("atom_hits", "atom_misses"),
            "ratio",
        ),
        ("engine.passes_us", layer_us("engine.passes"), "us"),
        (
            "engine.passes.hit_ratio",
            hit_ratio("pass_hits", "pass_misses"),
            "ratio",
        ),
        ("engine.count_us", layer_us("engine.count"), "us"),
        ("core.tsens_us", layer_us("core.tsens"), "us"),
        ("core.elastic_us", layer_us("core.elastic"), "us"),
        (
            "engine.mf_hit_ratio",
            hit_ratio("mf_hits", "mf_misses"),
            "ratio",
        ),
        ("dp.tsensdp_us", layer_us("dp.tsensdp"), "us"),
        (
            "engine.pool.parallel_tasks",
            (delta("pass_tasks") + delta("join_tasks")) / ops,
            "1/op",
        ),
        ("data.apply_us", layer_us("data.apply"), "us"),
        (
            "engine.snapshot.fork_publish_us",
            layer_us("engine.snapshot.fork_publish"),
            "us",
        ),
        (
            "server.durability.wal_append_us",
            layer_us("server.durability.wal_append"),
            "us",
        ),
        (
            "engine.maintain.maintained_ratio",
            hit_ratio("passes_maintained", "passes_invalidated"),
            "ratio",
        ),
        ("data.dict_epochs", delta("dict_epochs"), "count"),
        ("engine.snapshot.forks", delta("forks"), "count"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ];
    write_trace(
        w,
        args,
        plan,
        &traced,
        &own,
        &layers,
        &http.lat_ns,
        &request_ns,
        &metrics,
    )?;
    for (name, value, unit) in &metrics {
        println!("{name} = {value:.3} {unit}");
    }
    Ok(Outcome {
        attempted,
        failed: wrong,
        metrics,
    })
}

/// Write the traced run to `.bench_out/<workload>-seed<seed>.trace.json`:
/// the per-layer table, a per-op-type split of HTTP against in-process
/// time, the counters, and the spans of the first [`SPANS_WRITTEN`]
/// requests.
#[allow(clippy::too_many_arguments)]
fn write_trace(
    w: Workload,
    args: &Args,
    plan: &Plan,
    traced: &Replay,
    own: &[u64],
    layers: &BTreeMap<&'static str, Vec<f64>>,
    http_ns: &[u64],
    request_ns: &[u64],
    metrics: &[(&'static str, f64, &'static str)],
) -> Result<(), String> {
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"ops\":{},\"layers\":[",
        w.name(),
        args.seed,
        plan.ops.len()
    );
    for (i, (name, v)) in layers.iter().enumerate() {
        let total: f64 = v.iter().sum();
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{name}\",\"calls\":{},\"self_us_median\":{},\"self_us_total\":{total}}}",
            v.len(),
            median(v)
        );
    }
    out.push_str("],\"op_types\":[");
    let mut by_label: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (i, op) in plan.ops.iter().enumerate() {
        let e = by_label.entry(op.label).or_default();
        e.0.push(http_ns[i] as f64 / 1e3);
        e.1.push(request_ns[i] as f64 / 1e3);
    }
    for (i, (label, (h, r))) in by_label.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"op\":\"{label}\",\"ops\":{},\"http_us_median\":{},\"inproc_us_median\":{}}}",
            h.len(),
            median(h),
            median(r)
        );
    }
    let _ = write!(out, "],\"metrics\":{},\"spans\":[", metrics_json(metrics));
    let mut first = true;
    for (span, &ns) in traced.tracer.spans.iter().zip(own) {
        if span.req >= SPANS_WRITTEN {
            break;
        }
        let parent = if span.parent == NO_PARENT {
            -1
        } else {
            i64::from(span.parent)
        };
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{ns}}}",
            if first { "" } else { "," },
            span.name,
            span.req,
            span.start_ns,
            span.end_ns
        );
        first = false;
    }
    out.push_str("]}\n");
    std::fs::create_dir_all(OUT_ROOT).map_err(|e| format!("{OUT_ROOT}: {e}"))?;
    let path = PathBuf::from(OUT_ROOT).join(format!("{}-seed{}.trace.json", w.name(), args.seed));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());
    Ok(())
}
