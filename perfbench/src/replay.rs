//! The in-process replay: the same op list, run against a
//! [`SnapshotCell`] built the way the server builds one, calling each
//! layer's public function in the server's order — parse → pin → build
//! → lift → passes → op for a read, parse → fork/apply/WAL/publish for a
//! write. Each call finds the caches the previous one filled, so a
//! span around it times that layer alone.
//!
//! With spans off the same replay is the TPC-H reference: a separate
//! session whose answers the served ones must match.

use crate::check::Answer;
use crate::workload::Op;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsens_core::elastic::plan_order_from_tree;
use tsens_core::SessionExt;
use tsens_data::io::parse_ops_indexed;
use tsens_data::store::FsyncPolicy;
use tsens_data::{Database, TsensError, Update};
use tsens_dp::truncation::TruncationProfile;
use tsens_dp::tsensdp::tsensdp_answer_from_profile;
use tsens_engine::{EngineSession, Pool, SnapshotCell};
use tsens_query::{auto_decompose, classify, ConjunctiveQuery, DecompositionTree, Predicate};
use tsens_server::{parse_query, Durability, DurabilityConfig, QueryOp, QueryRequest};

/// Parent of a request span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call: a layer name, its interval (ns since the tracer
/// started), the span that caused it, and the request (op index) it
/// served.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u32,
}

/// Spans kept in memory until the run ends. A disabled tracer records
/// nothing, so the same replay measures tracing overhead.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        if self.on {
            let now = self.now();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Each span's duration minus the time its children cover, ns.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }
}

/// Open the session a server would serve `db` from, and the durable
/// handle when `wal_dir` is given (fresh directory, `fsync=batch`).
pub fn open_session(
    db: Database,
    wal_dir: Option<&Path>,
) -> Result<(EngineSession<'static>, Option<Durability>), String> {
    match wal_dir {
        None => Ok((EngineSession::owned_with_pool(db, Pool::default()), None)),
        Some(dir) => {
            let config = DurabilityConfig::new(dir, FsyncPolicy::Batch);
            let (session, durability) =
                Durability::boot(&config, || db).map_err(|e| format!("durable boot: {e}"))?;
            Ok((session, Some(durability)))
        }
    }
}

/// The server's query build: `ConjunctiveQuery::over` the joined
/// relations, one equality predicate per `where=`, then the GYO tree or,
/// for a cyclic query, the automatic GHD.
fn build_query(
    db: &Database,
    q: &QueryRequest,
) -> Result<(ConjunctiveQuery, DecompositionTree), String> {
    let names: Vec<&str> = q.join.iter().map(String::as_str).collect();
    let mut cq = ConjunctiveQuery::over(db, "serve", &names).map_err(|e| e.to_string())?;
    for w in &q.predicates {
        let attr = db
            .attr_id(&w.attr)
            .ok_or_else(|| format!("no attribute {:?}", w.attr))?;
        cq = cq.with_predicate(db, &w.relation, Predicate::eq(attr, w.value.clone()));
    }
    let (_, tree) = classify(&cq).map_err(|e| e.to_string())?;
    let tree = match tree {
        Some(t) => t,
        None => auto_decompose(&cq).map_err(|e| e.to_string())?,
    };
    Ok((cq, tree))
}

/// `tsensdp` exactly as the server releases it: the truncation profile
/// of the private atom, the server's default ℓ, and the request's seed.
fn tsensdp(
    session: &EngineSession<'_>,
    cq: &ConjunctiveQuery,
    tree: &DecompositionTree,
    q: &QueryRequest,
) -> Result<Answer, String> {
    let db = session.database();
    let private = q.private.as_deref().ok_or("tsensdp without private=")?;
    let rel = db
        .relation_index(private)
        .ok_or("unknown private relation")?;
    let atom = cq
        .atoms()
        .iter()
        .position(|a| a.relation == rel)
        .ok_or("private relation not in the query")?;
    let profile =
        TruncationProfile::build_session(session, cq, tree, atom).map_err(|e| e.to_string())?;
    let ell = q.ell.unwrap_or(((profile.max_delta() * 3) / 2).max(10));
    let mut rng = StdRng::seed_from_u64(q.seed.ok_or("tsensdp without seed=")?);
    let r = tsensdp_answer_from_profile(&profile, ell, q.epsilon, &mut rng);
    Ok(Answer::Dp {
        noisy_bits: r.noisy_answer.to_bits(),
        threshold: r.threshold,
    })
}

/// What a replay produced: one answer (or error) per op, the wall time
/// of the op loop, and the spans.
pub struct Replay {
    pub answers: Vec<Result<Answer, String>>,
    pub wall: Duration,
    pub tracer: Tracer,
}

/// Replay `ops` against a fresh cell over `db`, after issuing `warmup`
/// untimed, as each server set-up does.
pub fn replay(
    db: Database,
    wal_dir: Option<&Path>,
    warmup: &[Op],
    ops: &[Op],
    trace: bool,
) -> Result<Replay, String> {
    let (session, durability) = open_session(db, wal_dir)?;
    let cell = SnapshotCell::new(session);
    let durability = durability.map(Arc::new);
    if let Some(d) = &durability {
        let hook = Arc::clone(d);
        cell.set_publish_hook(Box::new(move |_, s| hook.maybe_checkpoint(s)));
    }
    let mut off = Tracer::new(false);
    for op in warmup {
        run_op(&cell, durability.as_deref(), op, &mut off, 0)?;
    }
    let mut tr = Tracer::new(trace);
    let t0 = Instant::now();
    let answers = ops
        .iter()
        .enumerate()
        .map(|(i, op)| run_op(&cell, durability.as_deref(), op, &mut tr, i as u32))
        .collect();
    let wall = t0.elapsed();
    if let Some(d) = &durability {
        d.sync().map_err(|e| format!("WAL sync: {e}"))?;
    }
    Ok(Replay {
        answers,
        wall,
        tracer: tr,
    })
}

/// One op under a `request` span.
fn run_op(
    cell: &SnapshotCell,
    durability: Option<&Durability>,
    op: &Op,
    tr: &mut Tracer,
    req: u32,
) -> Result<Answer, String> {
    let span = tr.begin("request", NO_PARENT, req);
    let out = if op.write {
        write_op(cell, durability, &op.body, tr, span, req)
    } else {
        read_op(cell, &op.body, tr, span, req)
    };
    tr.end(span);
    out
}

fn read_op(
    cell: &SnapshotCell,
    body: &str,
    tr: &mut Tracer,
    parent: u32,
    req: u32,
) -> Result<Answer, String> {
    let id = tr.begin("server.wire.parse", parent, req);
    let q = parse_query(body);
    tr.end(id);
    let q = q?;

    let id = tr.begin("engine.snapshot.pin", parent, req);
    let session = cell.load();
    tr.end(id);

    let id = tr.begin("query.build", parent, req);
    let built = build_query(session.database(), &q);
    tr.end(id);
    let (cq, tree) = built?;

    let err = |e: TsensError| e.to_string();
    let id = tr.begin("engine.lift", parent, req);
    let lifted = session.lift_query(&cq);
    tr.end(id);
    lifted.map_err(err)?;

    // Elastic reads per-relation statistics, never the pass state; the
    // server does not build passes for it, so neither does the replay.
    if q.op != QueryOp::Elastic {
        let id = tr.begin("engine.passes", parent, req);
        let passes = session.passes(&cq, &tree);
        tr.end(id);
        passes.map_err(err)?;
    }

    let (name, out) = match q.op {
        QueryOp::Count => {
            let id = tr.begin("engine.count", parent, req);
            let r = session.count_query(&cq, &tree).map(Answer::Count);
            (id, r.map_err(err))
        }
        QueryOp::Tsens => {
            let id = tr.begin("core.tsens", parent, req);
            let r = session
                .tsens(&cq, &tree)
                .map(|r| Answer::Ls(r.local_sensitivity));
            (id, r.map_err(err))
        }
        QueryOp::Elastic => {
            let id = tr.begin("core.elastic", parent, req);
            let plan = plan_order_from_tree(&tree);
            let r = session
                .elastic_sensitivity(&cq, &plan, 0)
                .map(|r| Answer::Elastic(r.overall));
            (id, r.map_err(err))
        }
        QueryOp::TsensDp => {
            let id = tr.begin("dp.tsensdp", parent, req);
            (id, tsensdp(&session, &cq, &tree, &q))
        }
        QueryOp::TsensTopk => return Err("tsens_topk is not in any workload".into()),
    };
    tr.end(name);
    out
}

fn write_op(
    cell: &SnapshotCell,
    durability: Option<&Durability>,
    body: &str,
    tr: &mut Tracer,
    parent: u32,
    req: u32,
) -> Result<Answer, String> {
    let id = tr.begin("server.wire.parse", parent, req);
    let parsed = parse_ops_indexed(cell.load().database(), body);
    tr.end(id);
    let updates: Vec<Update> = parsed
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|o| o.update)
        .collect();

    // The publish span's self time is fork + publish: apply and the WAL
    // append are its children.
    let publish = tr.begin("engine.snapshot.fork_publish", parent, req);
    let result = cell.update(|fork| {
        let id = tr.begin("data.apply", publish, req);
        let applied = fork.apply_all_diagnosed(updates);
        tr.end(id);
        let applied = applied.map_err(|(_, e)| e)?;
        if let Some(d) = durability {
            let id = tr.begin("server.durability.wal_append", publish, req);
            let logged = d.append_batch(body);
            tr.end(id);
            logged.map_err(|e| tsens_data::DataError::Malformed(format!("WAL append: {e}")))?;
        }
        Ok(applied)
    });
    tr.end(publish);
    result
        .map(|n| Answer::Applied(n as u64))
        .map_err(|e| e.to_string())
}
