//! Two-endpoint discrete-event harness: a reliable connection over lossy
//! links with an on-path replay attacker — the fig_replay experiment.
//!
//! Endpoint 0 posts `messages` payloads to endpoint 1 across a
//! full-duplex link whose two directions each run an independent
//! [`FaultInjector`] stream (drop / corrupt / reorder). An attacker taps
//! the data direction, captures every clean data packet, and re-injects
//! every `replay_every`-th one verbatim after `replay_delay` — the §7
//! threat model. Captured bytes are perfectly valid (correct MAC,
//! plausible PSN), so only the replay window can tell them from the
//! sender's own retransmits.
//!
//! Everything is deterministic in `seed`: the two fault streams are
//! `Seed::stream(0)`/`stream(1)` of it, event ties break by insertion
//! order, and the report is bit-identical across same-seed runs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ib_mgmt::keymgmt::SecretKey;
use ib_packet::types::{Lid, PKey, Qpn};
use ib_packet::Packet;
use ib_runtime::{Json, Seed, ToJson};
use ib_security::ChannelSecurity;
use ib_sim::time::{ps_to_us, tx_time_ps, MS, NS, US};
use ib_sim::{FaultConfig, FaultInjector, OnlineStats, SimTime};

use crate::config::RcConfig;
use crate::cosim::{payload_for, Ledger};
use crate::endpoint::SecureRcEndpoint;

/// Everything one fig_replay point needs to reproduce itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySimConfig {
    /// Master seed; fault streams derive from it.
    pub seed: u64,
    /// Security arm under test.
    pub security: ChannelSecurity,
    /// Messages endpoint 0 posts.
    pub messages: usize,
    /// Payload bytes per message (≥ 8; the first 8 carry the index).
    pub payload_len: usize,
    /// Per-direction link fault profile.
    pub fault: FaultConfig,
    /// Attacker replays every n-th captured data packet (0 = no attacker).
    pub replay_every: u64,
    /// Delay between capture and re-injection.
    pub replay_delay: SimTime,
    /// One-way link propagation delay.
    pub link_delay: SimTime,
    /// Link rate.
    pub gbps: f64,
    /// Transport knobs.
    pub rc: RcConfig,
    /// Replay-window depth for the auth+replay-window arm.
    pub replay_window: u32,
    /// Safety valve: give up past this simulated instant.
    pub max_sim_time: SimTime,
}

impl Default for ReplaySimConfig {
    fn default() -> Self {
        ReplaySimConfig {
            seed: 1,
            security: ChannelSecurity::AuthReplay,
            messages: 200,
            payload_len: 256,
            fault: FaultConfig::default(),
            replay_every: 3,
            replay_delay: 5 * US,
            link_delay: 100 * NS,
            gbps: 2.5,
            rc: RcConfig::default(),
            replay_window: 64,
            max_sim_time: 500 * MS,
        }
    }
}

impl ReplaySimConfig {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            ("security", self.security.label().to_json()),
            ("messages", (self.messages as u64).to_json()),
            ("payload_len", (self.payload_len as u64).to_json()),
            ("fault", self.fault.to_json()),
            ("replay_every", self.replay_every.to_json()),
            ("replay_delay_ps", self.replay_delay.to_json()),
            ("link_delay_ps", self.link_delay.to_json()),
            ("gbps", self.gbps.to_json()),
            ("rc", self.rc.to_json()),
            ("replay_window", self.replay_window.to_json()),
            ("max_sim_time_ps", self.max_sim_time.to_json()),
        ])
    }
}

/// One fig_replay data point.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Unique messages that reached the application.
    pub delivered: u64,
    /// Messages posted.
    pub expected: u64,
    /// Sender exhausted its retries (QP error state).
    pub failed: bool,
    /// Run hit `max_sim_time` before completing.
    pub timed_out: bool,
    /// Instant the run ended, µs.
    pub completion_us: f64,
    /// Unique delivered payload bits over the completion time.
    pub goodput_gbps: f64,
    /// Post-to-first-delivery latency per unique message, µs.
    pub latency_us: OnlineStats,
    /// Sender retransmissions (timeouts + go-back-N).
    pub retransmits: u64,
    /// Attacker packets injected.
    pub replays_injected: u64,
    /// Attacker packets the receive path admitted as fresh — the §7
    /// security failure count. Always 0 under auth+replay-window.
    pub replays_admitted: u64,
    /// Already-received payloads delivered again to the application
    /// (attacker-caused *and* lost-ACK-retransmit-caused, no window).
    pub duplicates_delivered: u64,
    /// Duplicates the channel suppressed.
    pub dup_suppressed: u64,
    /// Packets the fault layer dropped on the wire.
    pub link_drops: u64,
    /// Wire buffers discarded at parse (fault-layer corruption).
    pub corrupt_drops: u64,
    /// Packets failing MAC/ICRC at either endpoint.
    pub rejected_auth: u64,
    /// Packets rejected as older than the replay window.
    pub rejected_stale: u64,
}

impl ReplayReport {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("delivered", self.delivered.to_json()),
            ("expected", self.expected.to_json()),
            ("failed", self.failed.to_json()),
            ("timed_out", self.timed_out.to_json()),
            ("completion_us", self.completion_us.to_json()),
            ("goodput_gbps", self.goodput_gbps.to_json()),
            ("latency_us", self.latency_us.to_json()),
            ("retransmits", self.retransmits.to_json()),
            ("replays_injected", self.replays_injected.to_json()),
            ("replays_admitted", self.replays_admitted.to_json()),
            ("duplicates_delivered", self.duplicates_delivered.to_json()),
            ("dup_suppressed", self.dup_suppressed.to_json()),
            ("link_drops", self.link_drops.to_json()),
            ("corrupt_drops", self.corrupt_drops.to_json()),
            ("rejected_auth", self.rejected_auth.to_json()),
            ("rejected_stale", self.rejected_stale.to_json()),
        ])
    }
}

enum Ev {
    /// Bytes arrive at endpoint `dst`.
    Wire { dst: usize, bytes: Vec<u8> },
    /// Timer wake-up for endpoint `dst`.
    Wake { dst: usize },
    /// Attacker re-injects captured bytes at endpoint 1.
    Inject { bytes: Vec<u8> },
}

struct HeapItem {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    /// Min-heap by (time, insertion order): BinaryHeap is a max-heap, so
    /// invert.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Sim<'a> {
    cfg: &'a ReplaySimConfig,
    eps: [SecureRcEndpoint; 2],
    /// Per-direction fault streams: 0 = data direction (0→1), 1 = ACKs.
    faults: [FaultInjector; 2],
    /// Per-direction link serialization horizon.
    busy: [SimTime; 2],
    heap: BinaryHeap<HeapItem>,
    seq: u64,
    /// Earliest Wake already queued per endpoint (dedup).
    next_wake: [Option<SimTime>; 2],
    captured: u64,
    /// Reused scratch for each pump's wire buffers (the buffers inside
    /// cycle through the endpoints' recycle pools).
    wire_out: Vec<Vec<u8>>,
    /// Endpoint 1's completions.
    ledger: Ledger,
    replays_injected: u64,
    replays_admitted: u64,
    link_drops: u64,
}

impl Sim<'_> {
    fn push(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapItem { at, seq, ev });
    }

    /// Transmit everything endpoint `src` has ready, through the fault
    /// layer, onto its directed link.
    fn pump(&mut self, now: SimTime, src: usize) {
        let mut out = std::mem::take(&mut self.wire_out);
        self.eps[src].poll_into(now, &mut out);
        for bytes in out.drain(..) {
            let start = self.busy[src].max(now);
            let tx_end = start + tx_time_ps(bytes.len(), self.cfg.gbps);
            self.busy[src] = tx_end;
            match self.faults[src].decide() {
                ib_sim::FaultOutcome::Drop => {
                    self.link_drops += 1;
                    // The buffer never left this endpoint: give it back.
                    self.eps[src].recycle(bytes);
                }
                ib_sim::FaultOutcome::Deliver {
                    corrupt,
                    extra_delay_ps,
                } => {
                    let mut bytes = bytes;
                    if corrupt {
                        let mid = bytes.len() / 2;
                        bytes[mid] ^= 0xFF;
                    }
                    let arrival = tx_end + self.cfg.link_delay + extra_delay_ps;
                    // The attacker taps the data direction and captures
                    // clean data packets as they arrive at endpoint 1.
                    if src == 0 && !corrupt && self.cfg.replay_every > 0 {
                        let is_data = Packet::parse(&bytes)
                            .map(|p| p.aeth.is_none())
                            .unwrap_or(false);
                        if is_data {
                            self.captured += 1;
                            if self.captured.is_multiple_of(self.cfg.replay_every) {
                                self.replays_injected += 1;
                                self.push(
                                    arrival + self.cfg.replay_delay,
                                    Ev::Inject {
                                        bytes: bytes.clone(),
                                    },
                                );
                            }
                        }
                    }
                    self.push(
                        arrival,
                        Ev::Wire {
                            dst: 1 - src,
                            bytes,
                        },
                    );
                }
            }
        }
        self.wire_out = out;
        self.schedule_wake(now, src);
    }

    fn schedule_wake(&mut self, now: SimTime, i: usize) {
        if let Some(deadline) = self.eps[i].next_deadline() {
            let deadline = deadline.max(now);
            let stale = match self.next_wake[i] {
                Some(queued) => queued > deadline || queued < now,
                None => true,
            };
            if stale {
                self.next_wake[i] = Some(deadline);
                self.push(deadline, Ev::Wake { dst: i });
            }
        }
    }

    /// Drain endpoint 1's delivered messages into the ledger.
    fn drain_rx(&mut self, now: SimTime) {
        self.ledger.drain(&mut self.eps[1], now);
    }
}

/// Run one fig_replay point to completion (all messages delivered and
/// acknowledged), sender failure, or the time limit.
pub fn run_replay_sim(cfg: &ReplaySimConfig) -> ReplayReport {
    assert!(cfg.payload_len >= 8, "payload must hold the 8-byte index");
    let secret = SecretKey::from_seed(cfg.seed ^ 0x005E_C2E7);
    let pkey = PKey(0x8001);
    let make = |lid, peer, sec| {
        SecureRcEndpoint::new(
            sec,
            pkey,
            secret,
            cfg.replay_window,
            cfg.rc,
            lid,
            peer,
            Qpn(7),
        )
    };
    let fseed = Seed(cfg.seed ^ 0xFA17_FA17);
    let mut sim = Sim {
        cfg,
        eps: [
            make(Lid(1), Lid(2), cfg.security),
            make(Lid(2), Lid(1), cfg.security),
        ],
        faults: [
            FaultInjector::new(cfg.fault, fseed.stream(0)),
            FaultInjector::new(cfg.fault, fseed.stream(1)),
        ],
        busy: [0; 2],
        heap: BinaryHeap::new(),
        seq: 0,
        next_wake: [None; 2],
        captured: 0,
        wire_out: Vec::new(),
        ledger: Ledger::new(cfg.messages, cfg.payload_len),
        replays_injected: 0,
        replays_admitted: 0,
        link_drops: 0,
    };
    for i in 0..cfg.messages {
        sim.eps[0].post(payload_for(i, cfg.payload_len));
    }
    sim.push(0, Ev::Wake { dst: 0 });

    let mut now = 0;
    let mut timed_out = false;
    while let Some(item) = sim.heap.pop() {
        now = item.at;
        if now > cfg.max_sim_time {
            timed_out = true;
            break;
        }
        match item.ev {
            Ev::Wire { dst, bytes } => {
                sim.eps[dst].handle_wire(now, &bytes);
                sim.eps[dst].recycle(bytes);
                sim.drain_rx(now);
                sim.pump(now, dst);
            }
            Ev::Wake { dst } => {
                if sim.next_wake[dst] == Some(now) {
                    sim.next_wake[dst] = None;
                }
                sim.pump(now, dst);
            }
            Ev::Inject { bytes } => {
                // Delta-count admissions around exactly this injection so
                // the attacker's successes are not conflated with the
                // sender's own lost-ACK retransmits.
                let before = sim.eps[1].stats.dup_admitted_fresh;
                sim.eps[1].handle_wire(now, &bytes);
                sim.eps[1].recycle(bytes);
                sim.replays_admitted += sim.eps[1].stats.dup_admitted_fresh - before;
                sim.drain_rx(now);
                sim.pump(now, 1);
            }
        }
        if sim.eps[0].failed() {
            break;
        }
        if sim.ledger.delivered == cfg.messages as u64 && sim.eps[0].tx_idle() {
            break;
        }
    }

    // The attacker keeps replaying after the transfer completes; the
    // window's delivery state persists, so these must still be judged
    // (and, with the window, still rejected).
    if !timed_out && !sim.eps[0].failed() {
        while let Some(item) = sim.heap.pop() {
            if let Ev::Inject { bytes } = item.ev {
                let before = sim.eps[1].stats.dup_admitted_fresh;
                sim.eps[1].handle_wire(item.at, &bytes);
                sim.eps[1].recycle(bytes);
                sim.replays_admitted += sim.eps[1].stats.dup_admitted_fresh - before;
                sim.drain_rx(item.at);
            }
        }
    }

    let completion_ps = now.max(1);
    let bits = (sim.ledger.delivered * cfg.payload_len as u64 * 8) as f64;
    let rx_channel = sim.eps[1].channel().stats;
    let tx_channel = sim.eps[0].channel().stats;
    ReplayReport {
        delivered: sim.ledger.delivered,
        expected: cfg.messages as u64,
        failed: sim.eps[0].failed(),
        timed_out,
        completion_us: ps_to_us(completion_ps),
        goodput_gbps: bits / (completion_ps as f64 * 1e-12) / 1e9,
        latency_us: sim.ledger.latency,
        retransmits: sim.eps[0].retransmits(),
        replays_injected: sim.replays_injected,
        replays_admitted: sim.replays_admitted,
        duplicates_delivered: sim.ledger.duplicates,
        dup_suppressed: sim.eps[1].stats.dup_suppressed,
        link_drops: sim.link_drops,
        corrupt_drops: sim.eps[0].stats.parse_drops + sim.eps[1].stats.parse_drops,
        rejected_auth: rx_channel.rejected_auth + tx_channel.rejected_auth,
        rejected_stale: rx_channel.rejected_stale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(security: ChannelSecurity) -> ReplaySimConfig {
        ReplaySimConfig {
            security,
            messages: 60,
            payload_len: 64,
            ..ReplaySimConfig::default()
        }
    }

    #[test]
    fn clean_link_no_attacker_delivers_everything() {
        for arm in ChannelSecurity::ALL {
            let cfg = ReplaySimConfig {
                replay_every: 0,
                ..base(arm)
            };
            let r = run_replay_sim(&cfg);
            assert_eq!(r.delivered, 60, "{arm:?}");
            assert!(!r.failed && !r.timed_out);
            assert_eq!(r.retransmits, 0, "{arm:?}: nothing to recover");
            assert_eq!(r.duplicates_delivered, 0);
            assert!(r.goodput_gbps > 0.0);
            assert_eq!(r.latency_us.count(), 60);
        }
    }

    #[test]
    fn replay_attack_defeated_only_by_window() {
        for arm in ChannelSecurity::ALL {
            let cfg = ReplaySimConfig {
                replay_every: 2,
                ..base(arm)
            };
            let r = run_replay_sim(&cfg);
            assert_eq!(r.delivered, 60, "{arm:?}: attack must not block delivery");
            assert!(r.replays_injected >= 20, "{arm:?}: attacker was active");
            match arm {
                ChannelSecurity::AuthReplay => {
                    assert_eq!(r.replays_admitted, 0, "window stops every replay");
                    assert_eq!(r.duplicates_delivered, 0);
                    // Every injected replay was either suppressed as a
                    // duplicate or aged past the window and rejected.
                    assert!(r.dup_suppressed + r.rejected_stale >= r.replays_injected);
                }
                ChannelSecurity::NoAuth | ChannelSecurity::Auth => {
                    assert!(
                        r.replays_admitted > 0,
                        "{arm:?}: without the window, replays land"
                    );
                    assert!(r.duplicates_delivered >= r.replays_admitted);
                }
            }
        }
    }

    #[test]
    fn lossy_link_still_delivers_every_message() {
        for arm in ChannelSecurity::ALL {
            let cfg = ReplaySimConfig {
                fault: FaultConfig::lossy(0.02, 50_000),
                replay_every: 3,
                ..base(arm)
            };
            let r = run_replay_sim(&cfg);
            assert_eq!(r.delivered, 60, "{arm:?}: reliable despite 2% loss");
            assert!(!r.failed && !r.timed_out, "{arm:?}");
            assert!(r.retransmits > 0, "{arm:?}: loss forces retransmission");
            if arm == ChannelSecurity::AuthReplay {
                assert_eq!(r.replays_admitted, 0, "retransmits don't open the door");
            }
        }
    }

    #[test]
    fn same_seed_same_report_different_seed_different() {
        let cfg = ReplaySimConfig {
            fault: FaultConfig::lossy(0.05, 50_000),
            seed: 42,
            ..base(ChannelSecurity::AuthReplay)
        };
        let a = run_replay_sim(&cfg).to_json().to_string();
        let b = run_replay_sim(&cfg).to_json().to_string();
        assert_eq!(a, b, "bit-identical across same-seed runs");
        let c = run_replay_sim(&ReplaySimConfig { seed: 43, ..cfg })
            .to_json()
            .to_string();
        assert_ne!(a, c, "seed actually steers the faults");
    }

    #[test]
    fn config_and_report_json_round_trip() {
        let cfg = ReplaySimConfig {
            fault: FaultConfig::lossy(0.01, 25_000),
            security: ChannelSecurity::Auth,
            ..ReplaySimConfig::default()
        };
        let j = cfg.to_json();
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
        assert_eq!(j.get("security").unwrap().as_str(), Some("auth"));
        assert_eq!(j.get("fault"), Some(&cfg.fault.to_json()));
        assert_eq!(j.get("rc"), Some(&cfg.rc.to_json()));

        let small = ReplaySimConfig {
            messages: 10,
            payload_len: 32,
            ..cfg
        };
        let report = run_replay_sim(&small);
        let text = report.to_json().to_string();
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
        assert_eq!(
            Json::parse(&text).unwrap().get("latency_us"),
            Some(&report.latency_us.to_json())
        );
    }
}
