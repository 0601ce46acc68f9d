//! The secure co-simulation on the paper's Table-1 4×4 mesh, in three
//! phases:
//!
//! 1. `Simulator::run_counted` on `fig5_config(0.7, Sif)` with attack
//!    probability 1: Figure 5's P_Key flood under SIF.
//! 2. `run_fabric_sim`: RDMA WRITE, then RDMA READ, 1536 B messages,
//!    selective repeat, 1% link loss and a replay attacker, all under the
//!    phase-1 flood.
//! 3. `run_rekey_sim`: many RC flows, epoch rotation, a leader kill that
//!    fires before the flows complete, and a stale-epoch attacker.
//!
//! Simulated work varies with the seed (loss and retransmission tails,
//! attacker placement), so a unit of this path is a round over
//! [`SCENARIOS`] seeded scenarios, and rates are taken per round.
//!
//! Every message must be delivered with its payload intact, and no
//! replayed or stale-epoch packet may be admitted.

use std::time::Instant;

use ib_mgmt::enforcement::EnforcementKind;
use ib_runtime::Seed;
use ib_security::experiments::fig5_config;
use ib_security::ChannelSecurity;
use ib_sim::time::{MS, US};
use ib_sim::{FaultConfig, SimConfig, SimReport, Simulator};
use ib_sm::{run_rekey_sim, RekeyConfig, RekeyReport};
use ib_transport::{run_fabric_sim, FabricReport, FabricSimConfig, RdmaOp, RetransmitMode};

use crate::trace::Tracer;
use crate::Outcome;

/// Scenarios per round.
pub const SCENARIOS: usize = 4;
/// Messages per RDMA op in phase 2.
const RDMA_MESSAGES: usize = 48;
const RDMA_PAYLOAD: usize = 1536;
/// Phase 3: flows × messages.
const REKEY_FLOWS: usize = 48;
const REKEY_MESSAGES: usize = 8;
/// Phase 3's leader kill, well before the flows complete.
const KILL_AT: u64 = 100 * US;

/// Host timings and reports of one three-phase iteration.
pub struct Iteration {
    pub dos_new_s: f64,
    pub dos_run_s: f64,
    pub dos_events: u64,
    pub dos: SimReport,
    pub rdma_s: f64,
    pub rdma: Vec<FabricReport>,
    pub rekey_s: f64,
    pub rekey: RekeyReport,
}

impl Iteration {
    pub fn rdma_messages(&self) -> u64 {
        self.rdma.iter().map(|r| r.expected).sum()
    }

    pub fn rc_messages(&self) -> u64 {
        self.rdma_messages() + self.rekey.expected
    }

    /// Every simulated count the iteration must repeat exactly.
    fn fingerprint(&self) -> Vec<u64> {
        let d = &self.dos;
        let mut v = vec![
            self.dos_events,
            d.filter_drops,
            d.hca_blocked,
            d.traps,
            d.lookup_cycles,
            d.generated,
        ];
        for r in &self.rdma {
            v.extend([
                r.delivered,
                r.completion_us.to_bits(),
                r.retransmits,
                r.dup_suppressed,
                r.rejected_auth,
                r.replays_injected,
                r.fabric_generated,
            ]);
        }
        let k = &self.rekey;
        v.extend([
            k.delivered,
            k.completion_us.to_bits(),
            k.rotations,
            k.key_updates_tx,
            k.takeovers,
            k.rejected_stale_epoch,
            k.time_to_recover_us.to_bits(),
            k.fabric_generated,
        ]);
        v
    }
}

/// One round: every scenario once.
pub struct Round {
    pub iters: Vec<Iteration>,
}

impl Round {
    pub fn sum(&self, f: impl Fn(&Iteration) -> f64) -> f64 {
        self.iters.iter().map(f).sum()
    }

    pub fn sum_u(&self, f: impl Fn(&Iteration) -> u64) -> u64 {
        self.iters.iter().map(f).sum()
    }
}

pub struct Cosim {
    scenarios: Vec<Scenario>,
}

impl Cosim {
    pub fn new(seed: Seed) -> Cosim {
        Cosim {
            scenarios: (0..SCENARIOS as u64)
                .map(|i| Scenario::new(seed.stream(i)))
                .collect(),
        }
    }

    pub fn round(&mut self, tr: &mut Tracer, out: &mut Outcome, id: u64) -> Round {
        let envelope = tr.begin("bench", "cosim.round", id);
        let iters = self
            .scenarios
            .iter_mut()
            .map(|sc| sc.iteration(tr, out, id))
            .collect();
        tr.end(envelope);
        Round { iters }
    }
}

/// One seeded set of the three phases' inputs.
struct Scenario {
    dos: SimConfig,
    rdma: Vec<FabricSimConfig>,
    rekey: RekeyConfig,
    first: Option<Vec<u64>>,
}

impl Scenario {
    fn new(seed: Seed) -> Scenario {
        let mut dos = fig5_config(0.7, EnforcementKind::Sif);
        dos.attack_probability = 1.0;
        dos.seed = seed.stream(20);

        // The RDMA flow and the replay tap sit on hosts that are not
        // flooding: an attacker's own HCA is not a victim.
        let rdma_seed = seed.stream(21).0;
        let mut rdma_sim = dos.clone();
        rdma_sim.seed = Seed(rdma_seed);
        rdma_sim.fault = FaultConfig::lossy(0.01, 50_000);
        let attackers = Simulator::new(rdma_sim.clone()).attacker_nodes().to_vec();
        let mut hosts = (0..rdma_sim.num_nodes()).filter(|n| !attackers.contains(n));
        let (src, replay_node) = (hosts.next(), hosts.next());
        let dst = hosts.next_back();
        let rdma = [RdmaOp::Write, RdmaOp::Read]
            .into_iter()
            .map(|op| {
                let mut cfg = FabricSimConfig {
                    seed: rdma_seed,
                    security: ChannelSecurity::AuthReplay,
                    op,
                    messages: RDMA_MESSAGES,
                    payload_len: RDMA_PAYLOAD,
                    src: src.expect("mesh has free hosts"),
                    dst: dst.expect("mesh has free hosts"),
                    replay_node: replay_node.expect("mesh has free hosts"),
                    sim: rdma_sim.clone(),
                    ..FabricSimConfig::default()
                };
                cfg.rc.retransmit = RetransmitMode::SelectiveRepeat;
                cfg
            })
            .collect();

        let mut rekey = RekeyConfig {
            seed: seed.stream(22).0,
            flows: REKEY_FLOWS,
            messages: REKEY_MESSAGES,
            payload_len: 256,
            post_interval: 25 * US,
            replicas: 3,
            rotation_period: 60 * US,
            grace: 80 * US,
            kill_leader_at: KILL_AT,
            stale_every: 2,
            stale_delay: 300 * US,
            ..RekeyConfig::default()
        };
        rekey.sim.duration = 2 * MS;
        rekey.sim.warmup = 200 * US;
        Scenario {
            dos,
            rdma,
            rekey,
            first: None,
        }
    }

    fn iteration(&mut self, tr: &mut Tracer, out: &mut Outcome, id: u64) -> Iteration {
        let t = Instant::now();
        let sim = tr.span("ib-sim", "ib-sim.dos.new", id, || {
            Simulator::new(self.dos.clone())
        });
        let dos_new_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (dos, dos_events) = tr.span("ib-sim", "ib-sim.dos.run", id, || sim.run_counted());
        let dos_run_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let rdma: Vec<FabricReport> = self
            .rdma
            .iter()
            .map(|cfg| {
                tr.span("ib-transport", "ib-transport.run_fabric_sim", id, || {
                    run_fabric_sim(cfg)
                })
            })
            .collect();
        let rdma_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let rekey = tr.span("ib-sm", "ib-sm.run_rekey_sim", id, || {
            run_rekey_sim(&self.rekey)
        });
        let rekey_s = t.elapsed().as_secs_f64();

        let it = Iteration {
            dos_new_s,
            dos_run_s,
            dos_events,
            dos,
            rdma_s,
            rdma,
            rekey_s,
            rekey,
        };
        self.check(&it, out);
        it
    }

    /// One operation per RC message: it fails if undelivered or its
    /// payload mismatches; every admitted replay or stale-epoch packet
    /// is a failure too. Simulated counts must repeat the scenario's first
    /// iteration exactly.
    fn check(&mut self, it: &Iteration, out: &mut Outcome) {
        for r in &it.rdma {
            out.attempted += r.expected;
            let bad = r.expected.saturating_sub(r.delivered)
                + r.payload_mismatches
                + r.replays_admitted
                + r.duplicates_delivered;
            out.fail_n(bad, || {
                format!(
                    "cosim rdma: delivered {}/{}, mismatches {}, replays admitted {}, \
                     duplicates delivered {}, failed {}, timed out {}",
                    r.delivered,
                    r.expected,
                    r.payload_mismatches,
                    r.replays_admitted,
                    r.duplicates_delivered,
                    r.failed,
                    r.timed_out
                )
            });
        }
        let k = &it.rekey;
        out.attempted += k.expected;
        let bad = k.expected.saturating_sub(k.delivered)
            + k.payload_mismatches
            + k.stale_admitted
            + k.duplicates_delivered;
        out.fail_n(bad, || {
            format!(
                "cosim rekey: delivered {}/{}, mismatches {}, stale admitted {}, \
                 duplicates delivered {}",
                k.delivered,
                k.expected,
                k.payload_mismatches,
                k.stale_admitted,
                k.duplicates_delivered
            )
        });
        // The workload's premise: the leader dies mid-run and a successor
        // takes over before the flows complete.
        let kill_us = KILL_AT as f64 / 1e6;
        let premise = k.leader_kills == 1 && k.takeovers >= 1 && k.completion_us > kill_us;
        out.fail_n(u64::from(!premise), || {
            format!(
                "cosim rekey: leader kills {}, takeovers {}, completion {} us",
                k.leader_kills, k.takeovers, k.completion_us
            )
        });
        let fp = it.fingerprint();
        match &self.first {
            None => self.first = Some(fp),
            Some(first) => {
                let same = *first == fp;
                out.fail_n(u64::from(!same), || {
                    "cosim: simulated counts differ from the scenario's first iteration".to_string()
                });
            }
        }
    }
}
