//! The four workloads. Each run's inputs — the database and the op
//! list — are a pure function of `(workload, seed)`, generated before
//! any timing starts; a run of `n` ops takes the first `n` of that list.
//!
//! The social workloads also carry their own expected answers: the
//! generator keeps degree maps `deg_F`/`deg_L` of the graph, updates them
//! on every write it emits, and derives each read's answer from them.
//! TPC-H answers come from a reference session after the run instead
//! (see `replay`).

use crate::check::Answer;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tsens_data::{Count, Database};
use tsens_workloads::social::{social_database, SocialParams};
use tsens_workloads::tpch::tpch_database;

/// TPC-H scale factor of `tpch-analyst`.
const TPCH_SCALE: f64 = 0.02;
/// How many chunks a run's throughput is taken over.
const CHUNKS: usize = 10;
/// Writes per block of `social-write`'s write mix.
const WRITE_BLOCK: u32 = 20;
/// How many of the highest-weight users `hot-serve` keeps hot.
const HOT_USERS: i64 = 32;
/// Keeps the op-list stream independent of the data generator's.
const OPS_SALT: u64 = 0x6f70_5f6c_6973_7473;

const FOLLOW_LIKE: &str = "join=Follow,Like";
const Q1: &str = "join=Region,Nation,Customer,Orders,L_ok";
const Q2: &str = "join=Partsupp,S_sk,Part,L_skpk";
const Q3: &str = "join=Region,Nation,Customer,Orders,Supplier,Part,Partsupp,Lineitem";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotServe,
    SocialLookup,
    SocialWrite,
    TpchAnalyst,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotServe,
        Workload::SocialLookup,
        Workload::SocialWrite,
        Workload::TpchAnalyst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotServe => "hot-serve",
            Workload::SocialLookup => "social-lookup",
            Workload::SocialWrite => "social-write",
            Workload::TpchAnalyst => "tpch-analyst",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the whole process — client, server worker and engine
    /// pool — is confined to one CPU. Only `tpch-analyst` keeps every
    /// core, so the engine's parallel paths stay measured.
    pub fn pinned(self) -> bool {
        self != Workload::TpchAnalyst
    }

    /// Whether the server boots durable (snapshot + WAL, `fsync=batch`).
    pub fn durable(self) -> bool {
        self == Workload::SocialWrite
    }

    /// How many times a run sets up, to report the median set-up time.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::HotServe | Workload::SocialWrite => 3,
            Workload::SocialLookup => 5,
            Workload::TpchAnalyst => 11,
        }
    }

    /// Ops that belong together: a pair (count, tsens of one user), a
    /// write group, a TPC-H step.
    fn unit(self) -> usize {
        match self {
            Workload::HotServe => 1,
            Workload::SocialLookup => 2,
            Workload::SocialWrite => 5,
            Workload::TpchAnalyst => 10,
        }
    }

    /// Op indices splitting `n` ops into at most [`CHUNKS`] runs of whole
    /// units, first index 0 and last `n`. Throughput is taken per chunk.
    pub fn chunk_bounds(self, n: usize) -> Vec<usize> {
        let units = n / self.unit();
        let k = CHUNKS.min(units).max(1);
        (0..=k).map(|j| (j * units / k) * self.unit()).collect()
    }

    /// The op count of a run meant to last about `seconds` on a 2-core
    /// x86-64 VM. It is fixed per workload, never a deadline: a faster
    /// program finishes the same ops sooner.
    pub fn ops_for(self, seconds: f64) -> usize {
        let per_s = match self {
            Workload::HotServe => 35_000.0,
            Workload::SocialLookup => 85.0,
            Workload::SocialWrite => 3.5,
            Workload::TpchAnalyst => 0.8,
        };
        self.unit() * ((per_s * seconds).ceil() as usize).max(1)
    }
}

/// One request of a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Op type, for per-type breakdowns (`fl.count`, `q3.tsens`, …).
    pub label: &'static str,
    /// `/update` (true) or `/query` (false).
    pub write: bool,
    /// The request body.
    pub body: String,
    /// The expected answer; `None` until a reference fills it in.
    pub expect: Option<Answer>,
}

impl Op {
    fn read(label: &'static str, body: String, expect: Option<Answer>) -> Op {
        Op {
            label,
            write: false,
            body,
            expect,
        }
    }
}

/// A run's generated inputs.
pub struct Plan {
    pub db: Database,
    /// Requests issued during every set-up (the hot set, the requery set).
    pub warmup: Vec<Op>,
    pub ops: Vec<Op>,
}

/// Generate the database and the first `n` ops of `workload` under `seed`.
pub fn plan(workload: Workload, seed: u64, n: usize) -> Plan {
    if workload == Workload::TpchAnalyst {
        let (db, _) = tpch_database(TPCH_SCALE, seed);
        let ops = tpch_ops(&db, seed, n);
        return Plan {
            db,
            warmup: Vec::new(),
            ops,
        };
    }
    let params = SocialParams::default();
    let db = social_database(params, seed);
    let (warmup, ops) = social_ops(workload, &db, params, seed, n);
    Plan { db, warmup, ops }
}

/// Zipf sampler over `0..n` with rank `r` weighted `1/(r+1)^s` — the
/// generator's own user distribution.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> i64 {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let u = rng.random::<f64>() * total;
        self.cumulative.partition_point(|&c| c < u) as i64
    }
}

/// The benchmark's model of the social graph: per-user degrees, the
/// Follow edge list (so deletes name existing edges), and the join size
/// `Σ_u deg_F(u)·deg_L(u)`, all kept current across emitted writes.
struct Degrees {
    deg_f: Vec<Count>,
    deg_l: Vec<Count>,
    follow: Vec<(i64, i64)>,
    join: Count,
}

impl Degrees {
    fn of(db: &Database) -> Degrees {
        let mut d = Degrees {
            deg_f: Vec::new(),
            deg_l: Vec::new(),
            follow: Vec::new(),
            join: 0,
        };
        let ints = |row: &[tsens_data::Value]| {
            (
                row[0].as_int().expect("social ids are ints"),
                row[1].as_int().expect("social ids are ints"),
            )
        };
        for row in db
            .relation_by_name("Follow")
            .expect("social catalog")
            .rows()
        {
            let (u, v) = ints(row);
            d.follow.push((u, v));
            *Self::slot(&mut d.deg_f, u) += 1;
        }
        for row in db.relation_by_name("Like").expect("social catalog").rows() {
            *Self::slot(&mut d.deg_l, ints(row).0) += 1;
        }
        d.join = (0..d.deg_f.len().min(d.deg_l.len()))
            .map(|u| d.deg_f[u] * d.deg_l[u])
            .sum();
        d
    }

    fn slot(v: &mut Vec<Count>, u: i64) -> &mut Count {
        let u = usize::try_from(u).expect("user ids are non-negative");
        if v.len() <= u {
            v.resize(u + 1, 0);
        }
        &mut v[u]
    }

    fn get(v: &[Count], u: i64) -> Count {
        v.get(u as usize).copied().unwrap_or(0)
    }

    /// Largest out-degree in either relation: the LS and the elastic
    /// bound of `Follow ⋈ Like` (a new Follow edge of `u` adds
    /// `deg_L(u)` outputs, a new Like edge `deg_F(u)`).
    fn max_degree(&self) -> Count {
        self.deg_f
            .iter()
            .chain(&self.deg_l)
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// `Follow ⋈ Like` count, tsens and elastic, answered from the model.
    fn join_ops(&self) -> [Op; 3] {
        let max = self.max_degree();
        [
            Op::read(
                "fl.count",
                format!("op=count\n{FOLLOW_LIKE}"),
                Some(Answer::Count(self.join)),
            ),
            Op::read(
                "fl.tsens",
                format!("op=tsens\n{FOLLOW_LIKE}"),
                Some(Answer::Ls(max)),
            ),
            Op::read(
                "fl.elastic",
                format!("op=elastic\n{FOLLOW_LIKE}"),
                Some(Answer::Elastic(max)),
            ),
        ]
    }

    /// `assoc_count(u)`: count is `deg_F(u)`; the tsens of a predicated
    /// single atom is 1 (one inserted matching edge adds one output).
    fn assoc_ops(&self, u: i64) -> [Op; 2] {
        let body = |op| format!("op={op}\njoin=Follow\nwhere=Follow.U={u}");
        [
            Op::read(
                "assoc.count",
                body("count"),
                Some(Answer::Count(Self::get(&self.deg_f, u))),
            ),
            Op::read("assoc.tsens", body("tsens"), Some(Answer::Ls(1))),
        ]
    }

    fn add_follow(&mut self, u: i64, v: i64) {
        *Self::slot(&mut self.deg_f, u) += 1;
        self.join += Self::get(&self.deg_l, u);
        self.follow.push((u, v));
    }

    /// Emit one single-line write of kind `slot` (in `0..WRITE_BLOCK`)
    /// and apply it to the model. Returns the op and the user it
    /// touched. Per block of [`WRITE_BLOCK`] slots: 6 deletes of an
    /// existing Follow edge at a uniformly random position, 2 Zipf-user
    /// Like inserts, 1 Follow insert from a user id the dictionary has
    /// never seen, 11 Zipf-user Follow inserts.
    fn write(
        &mut self,
        slot: u32,
        rng: &mut StdRng,
        zipf: &Zipf,
        p: SocialParams,
        fresh: &mut i64,
    ) -> (Op, i64) {
        let (body, u) = if slot < 6 {
            let pos = rng.random_range(0..self.follow.len());
            let (u, v) = self.follow.swap_remove(pos);
            *Self::slot(&mut self.deg_f, u) -= 1;
            self.join -= Self::get(&self.deg_l, u);
            (format!("-,Follow,{u},{v}"), u)
        } else if slot < 8 {
            let (u, page) = (zipf.sample(rng), rng.random_range(0..p.pages) as i64);
            *Self::slot(&mut self.deg_l, u) += 1;
            self.join += Self::get(&self.deg_f, u);
            (format!("+,Like,{u},{page}"), u)
        } else {
            let u = if slot < 9 {
                *fresh += 1;
                p.users as i64 + *fresh
            } else {
                zipf.sample(rng)
            };
            let v = rng.random_range(0..p.users) as i64;
            self.add_follow(u, v);
            (format!("+,Follow,{u},{v}"), u)
        };
        let op = Op {
            label: "write",
            write: true,
            body,
            expect: Some(Answer::Applied(1)),
        };
        (op, u)
    }
}

/// Warm-up and timed ops of a social workload over `db` (generated with
/// `params`).
pub fn social_ops(
    workload: Workload,
    db: &Database,
    params: SocialParams,
    seed: u64,
    n: usize,
) -> (Vec<Op>, Vec<Op>) {
    let mut deg = Degrees::of(db);
    let zipf = Zipf::new(params.users, params.zipf_s);
    let mut rng = StdRng::seed_from_u64(seed ^ OPS_SALT);
    let mut ops = Vec::with_capacity(n + 5);
    let warmup = match workload {
        Workload::HotServe => {
            let mut hot: Vec<Op> = deg.join_ops().into();
            for u in 0..HOT_USERS {
                hot.extend(deg.assoc_ops(u));
            }
            let mut order: Vec<usize> = (0..hot.len()).collect();
            shuffle(&mut order, &mut rng);
            ops.extend((0..n).map(|i| hot[order[i % hot.len()]].clone()));
            hot
        }
        Workload::SocialLookup => {
            while ops.len() < n {
                ops.extend(deg.assoc_ops(zipf.sample(&mut rng)));
            }
            Vec::new()
        }
        Workload::SocialWrite => {
            let warmup = deg.join_ops().into();
            // Write kinds are dealt from shuffled blocks, so every run
            // carries the mix in the same proportions.
            let (mut fresh, mut block) = (0, Vec::new());
            while ops.len() < n {
                if block.is_empty() {
                    block = (0..WRITE_BLOCK).collect();
                    shuffle(&mut block, &mut rng);
                }
                let slot = block.pop().expect("refilled above");
                let (write, u) = deg.write(slot, &mut rng, &zipf, params, &mut fresh);
                ops.push(write);
                ops.push(deg.assoc_ops(u)[0].clone());
                ops.extend(deg.join_ops());
            }
            warmup
        }
        Workload::TpchAnalyst => unreachable!("not a social workload"),
    };
    ops.truncate(n);
    (warmup, ops)
}

/// `tpch-analyst` ops: steps of q1 (count, tsens, elastic, tsensdp), q2
/// (count, tsens, elastic) and q3 (count, tsens, elastic), each query
/// selected on a key no earlier step used, so every op misses the
/// caches. Answers are left for the reference session.
pub fn tpch_ops(db: &Database, seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ OPS_SALT);
    let steps = n.div_ceil(10);
    let customer_nk = stratified_keys(db, "Customer", "NK", steps, &mut rng);
    let supplier_sk = stratified_keys(db, "Partsupp", "SK", steps, &mut rng);
    let supplier_nk = stratified_keys(db, "Supplier", "NK", steps, &mut rng);
    let mut ops = Vec::with_capacity(steps * 10);
    for step in 0..steps {
        let k1 = format!("where=Customer.NK={}", customer_nk[step]);
        let k2 = format!("where=Partsupp.SK={}", supplier_sk[step]);
        let k3 = format!("where=Supplier.NK={}", supplier_nk[step]);
        let dp_seed = seed.wrapping_add(step as u64);
        let step_ops = [
            ("q1.count", format!("op=count\n{Q1}\n{k1}")),
            ("q1.tsens", format!("op=tsens\n{Q1}\n{k1}")),
            ("q1.elastic", format!("op=elastic\n{Q1}\n{k1}")),
            (
                "q1.tsensdp",
                format!("op=tsensdp\n{Q1}\n{k1}\nprivate=Customer\nseed={dp_seed}"),
            ),
            ("q2.count", format!("op=count\n{Q2}\n{k2}")),
            ("q2.tsens", format!("op=tsens\n{Q2}\n{k2}")),
            ("q2.elastic", format!("op=elastic\n{Q2}\n{k2}")),
            ("q3.count", format!("op=count\n{Q3}\n{k3}")),
            ("q3.tsens", format!("op=tsens\n{Q3}\n{k3}")),
            ("q3.elastic", format!("op=elastic\n{Q3}\n{k3}")),
        ];
        ops.extend(
            step_ops
                .into_iter()
                .map(|(label, body)| Op::read(label, body, None)),
        );
    }
    ops.truncate(n);
    ops
}

/// `steps` values of `relation.attr` for the steps' selections, in a
/// seeded order. The values are ranked by how many rows they select and
/// taken at evenly spaced ranks from a seeded offset, so every run mixes
/// light and heavy keys in the same proportions and runs under different
/// seeds cost alike. Distinct while `steps` is at most the number of
/// values; beyond that they repeat.
fn stratified_keys(
    db: &Database,
    relation: &str,
    attr: &str,
    steps: usize,
    rng: &mut StdRng,
) -> Vec<i64> {
    let rel = db.relation_by_name(relation).expect("tpch catalog");
    let pos = db
        .attr_id(attr)
        .and_then(|a| rel.schema().position(a))
        .expect("tpch catalog");
    let mut rows_per_key: std::collections::BTreeMap<i64, usize> = Default::default();
    for row in rel.rows() {
        *rows_per_key
            .entry(row[pos].as_int().expect("tpch keys are ints"))
            .or_default() += 1;
    }
    let mut ranked: Vec<(usize, i64)> = rows_per_key.into_iter().map(|(k, c)| (c, k)).collect();
    ranked.sort_unstable();
    let m = ranked.len();
    let offset = rng.random::<f64>();
    let mut keys: Vec<i64> = (0..steps)
        .map(|j| ranked[((j as f64 + offset) * m as f64 / steps as f64) as usize % m].1)
        .collect();
    shuffle(&mut keys, rng);
    keys
}

/// Fisher–Yates.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsens_workloads::social::small_params;

    fn bodies(ops: &[Op]) -> String {
        ops.iter()
            .map(|o| o.body.as_str())
            .collect::<Vec<_>>()
            .join("\n--\n")
    }

    #[test]
    fn op_lists_are_a_function_of_the_seed() {
        let p = small_params();
        for w in [
            Workload::HotServe,
            Workload::SocialLookup,
            Workload::SocialWrite,
        ] {
            let db = social_database(p, 11);
            let (_, a) = social_ops(w, &db, p, 11, 400);
            let (_, b) = social_ops(w, &social_database(p, 11), p, 11, 400);
            assert_eq!(a.len(), 400);
            assert_eq!(bodies(&a), bodies(&b), "{}: same seed, same list", w.name());
            assert_eq!(a, b);
            let (_, c) = social_ops(w, &social_database(p, 12), p, 12, 400);
            assert_ne!(
                bodies(&a),
                bodies(&c),
                "{}: another seed, another list",
                w.name()
            );
        }
        let (db, _) = tpch_database(0.001, 5);
        let a = tpch_ops(&db, 5, 40);
        assert_eq!(
            bodies(&a),
            bodies(&tpch_ops(&tpch_database(0.001, 5).0, 5, 40))
        );
        assert_ne!(
            bodies(&a),
            bodies(&tpch_ops(&tpch_database(0.001, 6).0, 6, 40))
        );
    }

    #[test]
    fn social_write_groups_one_write_with_four_requeries() {
        let p = small_params();
        let db = social_database(p, 3);
        let (warmup, ops) = social_ops(Workload::SocialWrite, &db, p, 3, 500);
        assert_eq!(warmup.len(), 3);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.write, i % 5 == 0, "op {i}");
        }
        let unseen = ops
            .iter()
            .filter(|o| {
                o.body.starts_with("+,Follow,")
                    && o.body[9..]
                        .split(',')
                        .next()
                        .unwrap()
                        .parse::<usize>()
                        .unwrap()
                        >= p.users
            })
            .count();
        let deletes = ops.iter().filter(|o| o.body.starts_with('-')).count();
        assert!(
            unseen > 0 && deletes > 0,
            "unseen {unseen}, deletes {deletes}"
        );
    }
}
