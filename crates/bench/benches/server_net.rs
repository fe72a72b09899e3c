//! **A11** — the cost of the network tier: SmallBank throughput when the
//! same engine is driven in-process, over the deterministic simulated
//! network, and over real TCP loopback.
//!
//! The paper ran its measurements client/server: every statement pays a
//! round trip, so chatty codings (and the retry loops serialization
//! failures force) are amplified by the network. This harness quantifies
//! that amplification on this platform for Base SI and SSI:
//!
//! * **in-process** — the closed-system driver calling the procedures
//!   directly (the repo's default measurement path);
//! * **tcp-loopback** — the same driver pushing every statement through
//!   `sicost-server`'s wire protocol over 127.0.0.1 (real syscalls, real
//!   framing, pipelined trailing writes);
//! * **sim-net** — the same protocol under the `sicost-sim` cooperative
//!   scheduler with a seeded latency model, where "time" is virtual: the
//!   reported per-transaction cost is the deterministic protocol cost in
//!   model time, byte-identical across same-seed runs.

use sicost_bench::{summarize, BenchMode, BenchReport, ReportSeries};
use sicost_common::sync::{sim_spawn, SimJoinHandle};
use sicost_common::Xoshiro256;
use sicost_driver::{run, Outcome, RunConfig};
use sicost_engine::{CcMode, EngineConfig};
use sicost_server::{
    classify_remote, serve_connection, Client, ClientError, ClientPool, NetError, RemoteBank,
    RemoteWorkload, SimNet, SimNetConfig, TcpServer, TcpTransport,
};
use sicost_sim::Sim;
use sicost_smallbank::schema::build_database;
use sicost_smallbank::{
    SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy, WorkloadParams,
};
use std::sync::{Arc, Mutex as StdMutex};

/// Closed-system MPL for the wall-clock tiers, and the TCP pool size.
const MPL: usize = 4;

fn sb_config(customers: u64) -> SmallBankConfig {
    let mut c = SmallBankConfig::paper();
    c.customers = customers;
    c
}

fn params(customers: u64, hotspot: u64) -> WorkloadParams {
    WorkloadParams::paper_default().scaled(customers, hotspot)
}

struct TierStats {
    tps: f64,
    commit_pct: f64,
    ser_fail_pct: f64,
    runs: Vec<f64>,
}

/// In-process closed run.
fn run_inproc(cc: CcMode, customers: u64, hotspot: u64, mode: BenchMode) -> TierStats {
    let mut runs = Vec::new();
    let mut commit_pct = 0.0;
    let mut ser_pct = 0.0;
    for r in 0..mode.repeats() {
        let bank = Arc::new(SmallBank::new(
            &sb_config(customers),
            EngineConfig::postgres_like().with_cc(cc),
            Strategy::BaseSI,
        ));
        let driver = SmallBankDriver::new(bank, SmallBankWorkload::new(params(customers, hotspot)));
        let cfg = RunConfig::new(MPL)
            .with_ramp_up(mode.ramp_up() / 2)
            .with_measure(mode.measure() / 2)
            .with_seed(0xA11_0000 + r);
        let m = run(&driver, &cfg);
        runs.push(m.tps());
        let attempts = m.attempts().max(1);
        commit_pct = 100.0 * m.commits() as f64 / attempts as f64;
        ser_pct = 100.0 * m.serialization_failures() as f64 / attempts as f64;
    }
    TierStats {
        tps: runs.iter().sum::<f64>() / runs.len() as f64,
        commit_pct,
        ser_fail_pct: ser_pct,
        runs,
    }
}

fn tcp_dial(addr: std::net::SocketAddr) -> impl Fn() -> Result<Client<TcpTransport>, ClientError> {
    move || {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| ClientError::Net(NetError::Io(e.to_string())))?;
        Client::connect(TcpTransport::new(stream))
    }
}

/// The same closed run, but through the wire protocol over loopback.
fn run_tcp(cc: CcMode, customers: u64, hotspot: u64, mode: BenchMode) -> TierStats {
    let mut runs = Vec::new();
    let mut commit_pct = 0.0;
    let mut ser_pct = 0.0;
    for r in 0..mode.repeats() {
        let (db, _tables) = build_database(
            &sb_config(customers),
            EngineConfig::postgres_like().with_cc(cc),
            None,
        );
        let db = Arc::new(db);
        let server = TcpServer::bind(Arc::clone(&db), "127.0.0.1:0").expect("bind loopback");
        let remote = RemoteBank::new(ClientPool::new(MPL, tcp_dial(server.local_addr())))
            .expect("handshake");
        let workload =
            RemoteWorkload::new(remote, SmallBankWorkload::new(params(customers, hotspot)));
        let cfg = RunConfig::new(MPL)
            .with_ramp_up(mode.ramp_up() / 2)
            .with_measure(mode.measure() / 2)
            .with_seed(0xA11_0000 + r);
        let m = run(&workload, &cfg);
        runs.push(m.tps());
        let attempts = m.attempts().max(1);
        commit_pct = 100.0 * m.commits() as f64 / attempts as f64;
        ser_pct = 100.0 * m.serialization_failures() as f64 / attempts as f64;
        drop(workload);
        server.shutdown();
    }
    TierStats {
        tps: runs.iter().sum::<f64>() / runs.len() as f64,
        commit_pct,
        ser_fail_pct: ser_pct,
        runs,
    }
}

type ServeHandles = Arc<StdMutex<Vec<SimJoinHandle<()>>>>;

/// Deterministic virtual-time run: `n` transactions sequentially over
/// one simulated connection. Returns (virtual µs/txn, commit %, ser %,
/// trace hash).
fn run_simnet(
    cc: CcMode,
    customers: u64,
    hotspot: u64,
    n: usize,
    seed: u64,
) -> (f64, f64, f64, u64) {
    let ((commits, ser_fails), report) = Sim::new(seed).run(|| {
        let (db, _tables) = build_database(
            &sb_config(customers),
            EngineConfig::postgres_like().with_cc(cc),
            None,
        );
        let db = Arc::new(db);
        let net = SimNet::new(SimNetConfig::clean(seed));
        let handles: ServeHandles = Arc::default();
        let pool = {
            let db = Arc::clone(&db);
            let net = Arc::clone(&net);
            let handles = Arc::clone(&handles);
            ClientPool::new(1, move || {
                let (client_end, mut server_end) = net.connect();
                let db = Arc::clone(&db);
                let h = sim_spawn("server-conn", move || {
                    let _ = serve_connection(&db, &mut server_end);
                });
                handles.lock().expect("handles lock").push(h);
                Client::connect(client_end)
            })
        };
        let remote = RemoteBank::new(pool).expect("handshake");
        let workload = SmallBankWorkload::new(params(customers, hotspot));
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut commits = 0u64;
        let mut ser_fails = 0u64;
        for _ in 0..n {
            match classify_remote(remote.execute(&workload.sample(&mut rng))) {
                Outcome::Committed => commits += 1,
                Outcome::SerializationFailure => ser_fails += 1,
                _ => {}
            }
        }
        drop(remote);
        let handles = std::mem::take(&mut *handles.lock().expect("handles lock"));
        for h in handles {
            h.join().expect("server task");
        }
        (commits, ser_fails)
    });
    let us_per_txn = report.virtual_time.as_secs_f64() * 1e6 / n as f64;
    (
        us_per_txn,
        100.0 * commits as f64 / n as f64,
        100.0 * ser_fails as f64 / n as f64,
        report.trace_hash,
    )
}

fn main() {
    let mode = BenchMode::from_env();
    let (customers, hotspot, sim_n): (u64, u64, usize) = match mode {
        BenchMode::Smoke => (400, 40, 150),
        BenchMode::Quick => (2_000, 200, 600),
        BenchMode::Full => (2_000, 200, 2_000),
    };

    let mut report = BenchReport::new(
        "server_net",
        "A11 — SmallBank throughput in-process vs simulated network vs TCP loopback",
        mode,
    );
    let mut series = Vec::new();
    let mut rows = Vec::new();

    for (cc_name, cc) in [("BaseSI", CcMode::SiFirstUpdaterWins), ("SSI", CcMode::Ssi)] {
        let inproc = run_inproc(cc, customers, hotspot, mode);
        let tcp = run_tcp(cc, customers, hotspot, mode);
        let (sim_us, sim_commit, sim_ser, hash_a) =
            run_simnet(cc, customers, hotspot, sim_n, 0xA11);
        let (_, _, _, hash_b) = run_simnet(cc, customers, hotspot, sim_n, 0xA11);
        assert_eq!(
            hash_a, hash_b,
            "{cc_name}: same-seed sim-net runs must replay byte-identically"
        );
        assert!(inproc.tps > 0.0 && tcp.tps > 0.0, "{cc_name}: no progress");
        let sim_virtual_tps = 1e6 / sim_us;

        for (tier, tps, commit_pct, ser_pct, note, runs) in [
            (
                "in-process",
                inproc.tps,
                inproc.commit_pct,
                inproc.ser_fail_pct,
                String::new(),
                Some(&inproc.runs),
            ),
            (
                "tcp-loopback",
                tcp.tps,
                tcp.commit_pct,
                tcp.ser_fail_pct,
                format!("{:.2}× in-process", tcp.tps / inproc.tps),
                Some(&tcp.runs),
            ),
            (
                "sim-net",
                sim_virtual_tps,
                sim_commit,
                sim_ser,
                format!("virtual time, {sim_us:.0} µs/txn"),
                None,
            ),
        ] {
            rows.push(vec![
                cc_name.to_string(),
                tier.to_string(),
                format!("{tps:.0}"),
                format!("{commit_pct:.1}"),
                format!("{ser_pct:.2}"),
                note,
            ]);
            if let Some(runs) = runs {
                let mut s = ReportSeries::new(format!("{cc_name}/{tier} tps"));
                s.push(1.0, summarize(runs));
                series.push(s);
            }
        }
    }
    report.push_series("tier", series);
    report.push_table(
        "network-tier cost",
        vec![
            "cc".into(),
            "tier".into(),
            "tps".into(),
            "commit %".into(),
            "serfail %".into(),
            "note".into(),
        ],
        rows,
    );
    let expectation = "The wire protocol costs throughput: TCP loopback pays \
         per-statement syscall round trips, so its tps trails the in-process \
         driver (the gap is the price the paper's client/server measurements \
         paid everywhere). The simulated-network tier reports deterministic \
         virtual-time cost per transaction and must replay byte-identically \
         at a fixed seed; its serialization-failure profile matches the \
         in-process coding because the engine underneath is identical.";
    report.expectation = expectation.into();
    report.notes.push(format!(
        "postgres-like engine, {customers} customers (hotspot {hotspot}), MPL {MPL}, \
         sim tier {sim_n} sequential txns over 1 connection at 50µs±50µs model latency"
    ));
    report.emit();
}
