//! # tsens-engine
//!
//! Multiplicity-propagating execution engine for the `tsens` workspace.
//!
//! There is one join algebra: every operator works on dictionary-encoded
//! [`tsens_data::EncodedRelation`]s — flat `u32` rows with a count per
//! row — and implements the paper's `r⋈` / `γ` machinery (§4.2): joins
//! multiply counts, group-bys sum them.
//!
//! * [`ops`] — natural hash join (plus its partitioned parallel form),
//!   keyed lookup join, semijoin, multiway join with cost-based ordering;
//! * [`passes`] — the botjoin (`⊥`, post-order) and topjoin (`⊤`,
//!   pre-order) passes over a decomposition tree (Eqns 4–8), shared by
//!   Yannakakis evaluation and the TSens sensitivity algorithms;
//! * [`session`] — [`EngineSession`], the cross-query serving layer: a
//!   database-resident encoding plus memoized lifted atoms, pass states,
//!   max-frequency statistics and higher-layer query results. The free
//!   functions below are thin one-shot wrappers over a fresh session;
//!   long-lived callers should hold a session and reuse it;
//! * [`snapshot`] — [`SnapshotCell`], atomically-published session
//!   snapshots: readers pin an `Arc` and never block, writers fork
//!   copy-on-write and publish with a pointer swap;
//! * [`yannakakis`] — near-linear count evaluation of acyclic (and, via
//!   GHDs, certain cyclic) counting queries: the paper's "query
//!   evaluation" runtime baseline;
//! * [`naive_eval`] — the workspace's single test oracle: brute-force
//!   full-join evaluation over `Value` rows with its own nested-loop
//!   join, sharing no code with [`ops`].

pub(crate) mod maintain;
pub mod naive_eval;
pub mod ops;
pub mod passes;
pub mod pool;
pub mod session;
pub mod shard;
pub mod snapshot;
pub mod yannakakis;

pub use naive_eval::{full_join, join_atoms, naive_count};
pub use ops::{
    hash_join_enc, lookup_join_enc, multiway_join_enc, multiway_join_enc_pooled,
    partitioned_hash_join_enc, semijoin_enc, PAR_JOIN_THRESHOLD,
};
pub use passes::{
    botjoin_pass_enc_pooled, botjoin_pass_enc_refs, topjoin_pass_enc_pooled, topjoin_pass_enc_refs,
};
pub use pool::{Pool, THREADS_ENV};
pub use session::{EngineSession, QueryKey, QueryPasses, SessionStats};
pub use shard::{check_co_partitioned, sharded_count, ShardedDelta, ShardedEngine};
pub use snapshot::{PublishHook, SnapshotCell};
pub use tsens_data::Update;
pub use yannakakis::count_query;
