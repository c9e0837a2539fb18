//! The served side of a run: an in-process `tsens_server::Server` with
//! one worker thread, driven closed-loop over one loopback keep-alive
//! connection by `tsens_server::Client`.

use crate::check::check;
use crate::replay::open_session;
use crate::sys;
use crate::workload::Op;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};
use tsens_data::Database;
use tsens_server::{Client, Server, ServerState};

/// How long set-up may wait for the first `/healthz` 200.
const HEALTH_DEADLINE: Duration = Duration::from_secs(60);

/// A live server and the one connection that drives it.
pub struct Served {
    server: Server,
    pub client: Client,
}

impl Served {
    /// Close the connection, then stop and join the server.
    pub fn stop(self) {
        drop(self.client);
        self.server.stop();
    }
}

fn send(client: &mut Client, op: &Op) -> (u16, String) {
    let path = if op.write { "/update" } else { "/query" };
    client
        .request("POST", path, &op.body)
        .unwrap_or_else(|e| (0, format!("transport error: {e}")))
}

fn is_wrong(status: u16, body: &str, op: &Op) -> bool {
    op.expect.as_ref().is_some_and(|e| !check(status, body, e))
}

/// One set-up: hand `db` to a fresh server (durable under `wal_dir`),
/// wait for the first `/healthz` 200, then issue `warmup`. Returns the
/// server, the time all that took, and how many warm-up answers were
/// wrong.
pub fn setup(
    db: Database,
    wal_dir: Option<&Path>,
    warmup: &[Op],
) -> Result<(Served, Duration, usize), String> {
    let t0 = Instant::now();
    let state = match wal_dir {
        None => ServerState::new(vec![("main".into(), db)]),
        Some(_) => {
            let (session, durability) = open_session(db, wal_dir)?;
            ServerState::from_sessions(vec![("main".into(), session, durability)])
        }
    };
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let server = Server::start(listener, state, 1).map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::new(server.addr()).map_err(|e| format!("client: {e}"))?;
    while !matches!(client.request("GET", "/healthz", ""), Ok((200, _))) {
        if t0.elapsed() > HEALTH_DEADLINE {
            server.stop();
            return Err("server never reported healthy".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let wrong = warmup
        .iter()
        .filter(|op| {
            let (status, body) = send(&mut client, op);
            is_wrong(status, &body, op)
        })
        .count();
    Ok((Served { server, client }, t0.elapsed(), wrong))
}

/// The timed phase's record.
pub struct Timed {
    /// Per-op latency, ns, in op order.
    pub lat_ns: Vec<u64>,
    /// Wall time and process CPU time (user + system, ns) since the
    /// phase began, taken at each chunk bound.
    pub marks: Vec<(Duration, u64)>,
    /// Ops answered non-200 or with a wrong answer.
    pub wrong: usize,
    /// Responses to ops whose answer was not known in advance, in op
    /// order, for checking against a reference afterwards.
    pub unchecked: Vec<(u16, String)>,
}

/// Issue `ops` in order, each after the previous response (closed
/// loop), marking the clocks at every op index in `bounds`.
pub fn run_ops(client: &mut Client, ops: &[Op], bounds: &[usize]) -> Timed {
    let mut lat_ns = Vec::with_capacity(ops.len());
    let mut marks = Vec::with_capacity(bounds.len());
    let mut wrong = 0;
    let mut unchecked = Vec::new();
    let cpu0 = sys::process_cpu_ns();
    let t0 = Instant::now();
    let mut next = bounds.iter().peekable();
    for (i, op) in ops.iter().enumerate() {
        if next.next_if(|&&b| b == i).is_some() {
            marks.push((t0.elapsed(), sys::process_cpu_ns() - cpu0));
        }
        let start = Instant::now();
        let (status, body) = send(client, op);
        lat_ns.push(start.elapsed().as_nanos() as u64);
        if op.expect.is_none() {
            unchecked.push((status, body));
        } else if is_wrong(status, &body, op) {
            wrong += 1;
        }
    }
    if next.next_if(|&&b| b == ops.len()).is_some() {
        marks.push((t0.elapsed(), sys::process_cpu_ns() - cpu0));
    }
    Timed {
        lat_ns,
        marks,
        wrong,
        unchecked,
    }
}

/// `GET /stats` of the served database.
pub fn stats(client: &mut Client) -> Result<String, String> {
    match client.request("GET", "/stats", "") {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("/stats answered {status}: {body}")),
        Err(e) => Err(format!("/stats: {e}")),
    }
}
