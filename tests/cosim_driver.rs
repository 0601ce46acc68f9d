//! Properties of the co-simulation driver (`ib_transport::cosim`) through
//! its two figure mappings, over random seeds rather than the fixed ones
//! the unit tests pin:
//!
//! * `run_fabric_sim` over seed × verb × loss {0, 1, 2 %} × retransmit
//!   mode;
//! * `run_rekey_sim` over seed × 2–6 flows × grace {0, 100 µs} × leader
//!   kill on/off.
//!
//! Every run must deliver 100 % (neither failed nor timed out), with no
//! payload mismatch, no replay or stale-epoch packet admitted, no
//! duplicate surfaced to the application, and a same-seed rerun must
//! produce a byte-identical report. Message counts stay small to bound
//! test time.
//!
//! Driven by `ib_runtime::check` (override with `CHECK_SEED=<u64>`);
//! counterexamples persist to `tests/corpus/`.

use ib_runtime::check;
use ib_sim::time::{MS, US};
use ib_sim::FaultConfig;
use ib_sm::{run_rekey_sim, RekeyConfig};
use ib_transport::{run_fabric_sim, FabricSimConfig, RdmaOp, RetransmitMode};

#[derive(Debug, Clone, Copy)]
struct FabricCase {
    seed: u64,
    op: RdmaOp,
    loss_pct: u64,
    mode: RetransmitMode,
}

fn fabric_config(c: &FabricCase) -> FabricSimConfig {
    let mut cfg = FabricSimConfig {
        seed: c.seed,
        op: c.op,
        messages: 12,
        payload_len: 96,
        ..FabricSimConfig::default()
    };
    cfg.rc.retransmit = c.mode;
    cfg.sim.duration = 2 * MS;
    cfg.sim.warmup = 200 * US;
    cfg.sim.fault = FaultConfig::lossy(c.loss_pct as f64 / 100.0, 50_000);
    cfg
}

#[test]
fn fabric_sim_delivers_everything_and_admits_no_replay() {
    check::run(
        "cosim fabric: full delivery, no replay admitted, deterministic",
        6,
        |g| FabricCase {
            seed: g.u64(),
            op: RdmaOp::ALL[g.usize_in(0..3)],
            loss_pct: g.u64_in(0..3),
            mode: if g.bool() {
                RetransmitMode::SelectiveRepeat
            } else {
                RetransmitMode::GoBackN
            },
        },
        |c| {
            check::shrink_uint(c.seed)
                .into_iter()
                .map(|seed| FabricCase { seed, ..*c })
                .collect()
        },
        |c| {
            let cfg = fabric_config(c);
            let r = run_fabric_sim(&cfg);
            assert_eq!(r.delivered, r.expected, "100% delivery");
            assert!(!r.failed && !r.timed_out);
            assert_eq!(r.payload_mismatches, 0);
            assert_eq!(r.replays_admitted, 0, "the window admits no replay");
            assert_eq!(r.duplicates_delivered, 0);
            let again = run_fabric_sim(&cfg);
            assert_eq!(
                r.to_json().to_string(),
                again.to_json().to_string(),
                "same seed, same report"
            );
        },
    );
}

#[derive(Debug, Clone, Copy)]
struct RekeyCase {
    seed: u64,
    flows: usize,
    grace_us: u64,
    kill: bool,
}

fn rekey_config(c: &RekeyCase) -> RekeyConfig {
    let mut cfg = RekeyConfig {
        seed: c.seed,
        flows: c.flows,
        messages: 8,
        payload_len: 128,
        post_interval: 20 * US,
        rotation_period: 120 * US,
        grace: c.grace_us * US,
        kill_leader_at: if c.kill { 200 * US } else { 0 },
        stale_every: 3,
        stale_delay: 400 * US,
        ..RekeyConfig::default()
    };
    cfg.sim.duration = 2 * MS;
    cfg.sim.warmup = 200 * US;
    cfg
}

#[test]
fn rekey_sim_delivers_everything_and_admits_no_stale_epoch() {
    check::run(
        "cosim rekey: full delivery, no stale epoch admitted, deterministic",
        6,
        |g| RekeyCase {
            seed: g.u64(),
            flows: g.usize_in(2..7),
            grace_us: if g.bool() { 100 } else { 0 },
            kill: g.bool(),
        },
        |c| {
            check::shrink_uint(c.seed)
                .into_iter()
                .map(|seed| RekeyCase { seed, ..*c })
                .collect()
        },
        |c| {
            let cfg = rekey_config(c);
            let r = run_rekey_sim(&cfg);
            assert_eq!(r.delivered, r.expected, "100% eventual delivery");
            assert!(!r.failed && !r.timed_out);
            assert_eq!(r.payload_mismatches, 0);
            assert_eq!(r.stale_admitted, 0, "no replay or stale epoch admitted");
            assert_eq!(r.duplicates_delivered, 0);
            if c.kill {
                assert_eq!(r.leader_kills, 1);
                assert!(r.time_to_recover_us > 0.0, "the successor re-keyed");
            }
            let again = run_rekey_sim(&cfg);
            assert_eq!(
                r.to_json().to_string(),
                again.to_json().to_string(),
                "same seed, same report"
            );
        },
    );
}
