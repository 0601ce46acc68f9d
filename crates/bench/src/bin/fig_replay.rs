//! Replay-defense experiment — goodput and delivery latency vs link loss
//! for {no-auth, auth, auth+replay-window}, over the reliable-connection
//! transport with fault injection and an active replay attacker.
//!
//! The point of the figure: reliability and the §7 replay defense are
//! *not* in tension. Every arm achieves 100% eventual delivery under
//! loss (the RC layer retransmits with the original PSN), but only the
//! replay-window arm admits zero attacker replays — the other two
//! deliver the attacker's byte-identical duplicates to the application.
//!
//! Two transports run the same sweep:
//!
//! * **p2p** — the original point-to-point harness
//!   ([`ib_transport::sim`]), kept as the determinism oracle: its
//!   per-point reports are part of the `--smoke` output that
//!   `tests/golden/fig_replay_smoke.json` pins byte for byte.
//! * **mesh** — the same endpoints attached to HCAs of the 16-node
//!   [`ib_sim`] fabric ([`ib_transport::fabric`]), where replays ride
//!   real VL arbitration and per-link faults.
//!
//! Usage: `fig_replay [--smoke] [--messages N] [--seed S]`

use bench::{bench_doc, parse_arg, render_table, seed_arg, write_bench_json};
use ib_runtime::{Json, ToJson};
use ib_security::ChannelSecurity;
use ib_sim::time::MS;
use ib_sim::FaultConfig;
use ib_transport::{
    run_fabric_sim, run_replay_sim, FabricReport, FabricSimConfig, RdmaOp, ReplayReport,
    ReplaySimConfig,
};

/// Link loss probabilities swept on the x-axis (0–5%).
const LOSSES: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.05];

fn config_for(seed: u64, messages: usize, loss: f64, security: ChannelSecurity) -> ReplaySimConfig {
    ReplaySimConfig {
        seed,
        security,
        messages,
        fault: FaultConfig::lossy(loss, 50_000),
        ..ReplaySimConfig::default()
    }
}

fn mesh_config_for(
    seed: u64,
    messages: usize,
    loss: f64,
    security: ChannelSecurity,
) -> FabricSimConfig {
    let mut cfg = FabricSimConfig {
        seed,
        security,
        op: RdmaOp::Send,
        messages,
        payload_len: 256,
        ..FabricSimConfig::default()
    };
    cfg.sim.duration = 5 * MS;
    cfg.sim.fault = FaultConfig::lossy(loss, 50_000);
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--quick");
    let messages: usize = parse_arg(&args, "--messages").unwrap_or(if smoke { 60 } else { 300 });
    let seed = seed_arg(&args);

    let mut points: Vec<(f64, ChannelSecurity, ReplayReport)> = Vec::new();
    let mut mesh_points: Vec<(f64, ChannelSecurity, FabricReport)> = Vec::new();
    for &loss in &LOSSES {
        for &arm in &ChannelSecurity::ALL {
            let cfg = config_for(seed.0, messages, loss, arm);
            points.push((loss, arm, run_replay_sim(&cfg)));
            let mesh = mesh_config_for(seed.0, messages, loss, arm);
            mesh_points.push((loss, arm, run_fabric_sim(&mesh)));
        }
    }

    println!(
        "Replay defense under loss: goodput / latency / attacker outcome \
         (seed {seed}, {messages} messages/point)"
    );
    let header = [
        "transport",
        "loss",
        "arm",
        "delivered",
        "goodput (Gb/s)",
        "latency (us)",
        "retrans",
        "replays inj",
        "replays admitted",
        "dups delivered",
        "dups suppressed",
    ];
    let mut table: Vec<Vec<String>> = points
        .iter()
        .map(|(loss, arm, r)| {
            vec![
                "p2p".to_string(),
                format!("{:.1}%", loss * 100.0),
                arm.label().to_string(),
                format!("{}/{}", r.delivered, r.expected),
                format!("{:.3}", r.goodput_gbps),
                format!("{:.2}", r.latency_us.mean()),
                r.retransmits.to_string(),
                r.replays_injected.to_string(),
                r.replays_admitted.to_string(),
                r.duplicates_delivered.to_string(),
                r.dup_suppressed.to_string(),
            ]
        })
        .collect();
    table.extend(mesh_points.iter().map(|(loss, arm, r)| {
        vec![
            "mesh".to_string(),
            format!("{:.1}%", loss * 100.0),
            arm.label().to_string(),
            format!("{}/{}", r.delivered, r.expected),
            format!("{:.3}", r.goodput_gbps),
            format!("{:.2}", r.latency_us.mean()),
            r.retransmits.to_string(),
            r.replays_injected.to_string(),
            r.replays_admitted.to_string(),
            r.duplicates_delivered.to_string(),
            r.dup_suppressed.to_string(),
        ]
    }));
    println!("{}", render_table(&header, &table));

    // ---- acceptance assertions (both transports) ----
    for (loss, arm, r) in &points {
        assert!(
            r.delivered == r.expected && !r.failed && !r.timed_out,
            "p2p {}% / {}: 100% eventual delivery required, got {}/{}",
            loss * 100.0,
            arm.label(),
            r.delivered,
            r.expected
        );
        if *arm == ChannelSecurity::AuthReplay {
            assert_eq!(
                r.replays_admitted,
                0,
                "p2p {}%: replay window must admit zero attacker replays",
                loss * 100.0
            );
            assert_eq!(
                r.duplicates_delivered,
                0,
                "p2p {}%: no duplicate ever reaches the application",
                loss * 100.0
            );
        } else if *loss > 0.0 || r.replays_injected > 0 {
            assert!(
                r.replays_admitted > 0,
                "p2p {}% / {}: without the window the attack must succeed",
                loss * 100.0,
                arm.label()
            );
        }
    }
    for (loss, arm, r) in &mesh_points {
        assert!(
            r.delivered == r.expected && !r.failed && !r.timed_out,
            "mesh {}% / {}: 100% eventual delivery required, got {}/{}",
            loss * 100.0,
            arm.label(),
            r.delivered,
            r.expected
        );
        if *arm == ChannelSecurity::AuthReplay {
            assert_eq!(
                r.replays_admitted,
                0,
                "mesh {}%: replay window must admit zero attacker replays",
                loss * 100.0
            );
            assert_eq!(
                r.duplicates_delivered,
                0,
                "mesh {}%: no duplicate ever reaches the application",
                loss * 100.0
            );
        } else if r.replays_injected > 0 {
            assert!(
                r.replays_admitted > 0,
                "mesh {}% / {}: without the window the attack must succeed",
                loss * 100.0,
                arm.label()
            );
        }
    }
    // Loss forces retransmission; retransmits reuse their original PSN and
    // still get through the window (the issue's headline scenario, at 2%).
    let headline = points
        .iter()
        .find(|(l, a, _)| *l == 0.02 && *a == ChannelSecurity::AuthReplay)
        .expect("2% auth+replay point exists");
    assert!(headline.2.retransmits > 0, "2% loss must force retransmits");

    // Determinism: the same seed reproduces the headline point bit-for-bit.
    let again = run_replay_sim(&config_for(
        seed.0,
        messages,
        0.02,
        ChannelSecurity::AuthReplay,
    ));
    assert_eq!(
        headline.2.to_json().to_string(),
        again.to_json().to_string(),
        "identical output across two same-seed runs"
    );

    println!("OK: 100% delivery on every arm; zero admitted replays with the window.");

    let doc = bench_doc(
        "fig_replay",
        seed,
        Json::obj([
            ("losses", Json::arr(LOSSES.iter().map(|l| l.to_json()))),
            ("messages", (messages as u64).to_json()),
            (
                "base",
                config_for(seed.0, messages, 0.0, ChannelSecurity::AuthReplay).to_json(),
            ),
            (
                "mesh_base",
                mesh_config_for(seed.0, messages, 0.0, ChannelSecurity::AuthReplay).to_json(),
            ),
            ("smoke", smoke.to_json()),
        ]),
        points
            .iter()
            .map(|(loss, arm, r)| {
                Json::obj([
                    ("transport", "p2p".to_json()),
                    ("loss", loss.to_json()),
                    ("security", arm.label().to_json()),
                    ("report", r.to_json()),
                ])
            })
            .chain(mesh_points.iter().map(|(loss, arm, r)| {
                Json::obj([
                    ("transport", "mesh".to_json()),
                    ("loss", loss.to_json()),
                    ("security", arm.label().to_json()),
                    ("report", r.to_json()),
                ])
            }))
            .collect(),
    );
    let path = write_bench_json("fig_replay", &doc).expect("write BENCH_fig_replay.json");
    println!("wrote {}", path.display());
}
