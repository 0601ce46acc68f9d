//! The co-simulation driver: the one stepping loop that runs a fleet of
//! RC flows, a capture-and-replay tap and an optional control plane over
//! an [`ib_sim::Simulator`] fabric. fig_rdma
//! ([`crate::fabric::run_fabric_sim`]) and fig_rekey
//! (`ib_sm::run_rekey_sim`) are config → fleet → report mappings over it.
//!
//! Every step runs at the fabric's instant `now` and calls
//! [`Simulator::post_host`] in a fixed order: due re-injections, paced
//! posts, the control plane, then each flow's requester and responder in
//! flow order. The fabric then runs to the earliest of the next host
//! delivery, an endpoint or control-plane deadline, a flow's next post, a
//! due re-injection, or the drain horizon while it still lies ahead (a
//! passed horizon is never a target, so waiting on the control plane
//! never collapses the step to 1 ps). Each delivery is parsed once into a
//! reused shell: one that fails to parse is counted and dropped;
//! otherwise the control plane may consume it, the tap may capture it,
//! and the endpoint its (node, QPN) names handles it. The run ends when
//! an endpoint fails, at `max_sim_time`, or once every flow is complete,
//! the drain horizon (tap delay + 1 ms) has passed, no re-injection is
//! pending and the control plane has settled.

use std::collections::VecDeque;

use ib_mgmt::keymgmt::SecretKey;
use ib_packet::types::{Lid, PKey, Qpn, RKey};
use ib_packet::{OpCode, Operation, Packet, PacketBuilder};
use ib_security::ChannelSecurity;
use ib_sim::time::{ps_to_us, MS};
use ib_sim::{OnlineStats, SimReport, SimTime, Simulator};

use crate::config::RcConfig;
use crate::endpoint::SecureRcEndpoint;
use crate::fabric::RdmaOp;

/// After the fleet completes, keep the fabric running this long (past
/// the tap delay) so captured packets still in flight get judged.
const DRAIN_GRACE: SimTime = MS;

/// R_Key the responders register for RDMA WRITE / READ flows.
const RDMA_RKEY: RKey = RKey(0x0DA7_A001);

/// Deterministic payload for message `i`: the 8-byte LE index, then a
/// pattern derived from it.
pub(crate) fn payload_for(i: usize, len: usize) -> Vec<u8> {
    let mut p = vec![0u8; len.max(8)];
    p[..8].copy_from_slice(&(i as u64).to_le_bytes());
    for (k, b) in p.iter_mut().enumerate().skip(8) {
        *b = (i as u8).wrapping_mul(31).wrapping_add(k as u8);
    }
    p
}

/// Completion accounting for one flow's messages, shared by the three
/// verbs.
#[derive(Default)]
pub struct Ledger {
    seen: Vec<bool>,
    payload_len: usize,
    offset: SimTime,
    interval: SimTime,
    /// READ completions FIFO-match requests: index of the next expected.
    next_read: usize,
    /// Unique messages completed.
    pub delivered: u64,
    /// Already-completed messages surfaced again.
    pub duplicates: u64,
    /// Completions whose payload or addressing failed verification.
    pub mismatches: u64,
    /// Scheduled-post-to-completion latency per unique message, µs.
    pub latency: OnlineStats,
}

impl Ledger {
    /// A ledger for messages all posted at t = 0.
    pub(crate) fn new(messages: usize, payload_len: usize) -> Self {
        Ledger {
            seen: vec![false; messages],
            payload_len,
            ..Ledger::default()
        }
    }

    /// Scheduled post instant of message `k`.
    fn post_at(&self, k: usize) -> SimTime {
        self.offset + self.interval * k as SimTime
    }

    /// Judge a payload claiming to be message `idx`; true if it is a
    /// first, correct completion.
    fn complete(&mut self, idx: usize, payload: &[u8], now: SimTime) -> bool {
        if idx >= self.seen.len() || payload != payload_for(idx, self.payload_len) {
            self.mismatches += 1;
            false
        } else if self.seen[idx] {
            self.duplicates += 1;
            false
        } else {
            self.seen[idx] = true;
            self.delivered += 1;
            self.latency
                .push(ps_to_us(now.saturating_sub(self.post_at(idx))));
            true
        }
    }

    /// Drain every completion `ep` surfaced — SEND deliveries and WRITE
    /// events at a responder, READ payloads at a requester; an endpoint
    /// only ever holds those of its role. Returns the first completions.
    pub(crate) fn drain(&mut self, ep: &mut SecureRcEndpoint, now: SimTime) -> u64 {
        let mut fresh = 0;
        for payload in ep.take_delivered() {
            let idx = payload.get(..8).map_or(usize::MAX, |h| {
                u64::from_le_bytes(h.try_into().unwrap()) as usize
            });
            fresh += u64::from(self.complete(idx, &payload, now));
        }
        let len = self.payload_len as u64;
        for (addr, wlen) in ep.take_write_events() {
            let idx = (addr / len) as usize;
            if addr % len != 0 || u64::from(wlen) != len || idx >= self.seen.len() {
                self.mismatches += 1;
                continue;
            }
            let lo = addr as usize;
            fresh += u64::from(self.complete(idx, &ep.memory()[lo..lo + wlen as usize], now));
        }
        for payload in ep.take_read_completions() {
            self.next_read += 1;
            fresh += u64::from(self.complete(self.next_read - 1, &payload, now));
        }
        fresh
    }
}

/// What one RC flow moves: `messages` verbs of `payload_len` bytes from
/// requester node `src` to responder node `dst`, paced.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Requester's node index.
    pub src: usize,
    /// Responder's node index.
    pub dst: usize,
    /// Queue pair both halves use; deliveries dispatch on (node, QPN).
    pub qpn: Qpn,
    /// Verb every message uses.
    pub op: RdmaOp,
    /// Messages (or RDMA ops) the requester posts.
    pub messages: usize,
    /// Payload bytes per message (≥ 8; the first 8 carry the index).
    pub payload_len: usize,
    /// Post instant of the first message.
    pub offset: SimTime,
    /// Spacing between posts (0 = all at `offset`).
    pub interval: SimTime,
}

/// One RC flow: requester `a` on `spec.src`, responder `b` on `spec.dst`.
pub struct Flow {
    /// Where the flow runs and what it posts.
    pub spec: FlowSpec,
    /// Requester half.
    pub a: SecureRcEndpoint,
    /// Responder half.
    pub b: SecureRcEndpoint,
    /// This flow's completions.
    pub ledger: Ledger,
    posted: usize,
}

impl Flow {
    /// Build both halves on one channel configuration (LID = node + 1;
    /// see [`SecureRcEndpoint::new`]). RDMA flows register the responder's
    /// memory region; READ flows pre-fill it with every message's payload.
    pub fn new(
        spec: FlowSpec,
        security: ChannelSecurity,
        pkey: PKey,
        secret: SecretKey,
        replay_window: u32,
        rc: RcConfig,
    ) -> Flow {
        assert!(spec.payload_len >= 8, "payload must hold the 8-byte index");
        assert_ne!(spec.src, spec.dst, "a flow needs two distinct HCAs");
        let (sl, dl) = (Lid(spec.src as u16 + 1), Lid(spec.dst as u16 + 1));
        let make = |lid, peer| {
            SecureRcEndpoint::new(
                security,
                pkey,
                secret,
                replay_window,
                rc,
                lid,
                peer,
                spec.qpn,
            )
        };
        let mut b = make(dl, sl);
        if spec.op != RdmaOp::Send {
            b.configure_memory(spec.messages * spec.payload_len, RDMA_RKEY);
        }
        if spec.op == RdmaOp::Read {
            for (i, slot) in b
                .memory_mut()
                .chunks_exact_mut(spec.payload_len)
                .enumerate()
            {
                slot.copy_from_slice(&payload_for(i, spec.payload_len));
            }
        }
        Flow {
            spec,
            a: make(sl, dl),
            b,
            ledger: Ledger {
                offset: spec.offset,
                interval: spec.interval,
                ..Ledger::new(spec.messages, spec.payload_len)
            },
            posted: 0,
        }
    }

    /// Post every message whose scheduled instant has come.
    fn post_due(&mut self, now: SimTime) {
        let len = self.spec.payload_len;
        while self.posted < self.spec.messages && now >= self.ledger.post_at(self.posted) {
            let (k, addr) = (self.posted, (self.posted * len) as u64);
            match self.spec.op {
                RdmaOp::Send => self.a.post(payload_for(k, len)),
                RdmaOp::Write => self.a.post_write(addr, RDMA_RKEY, payload_for(k, len)),
                RdmaOp::Read => self.a.post_read(addr, RDMA_RKEY, len as u32),
            }
            self.posted += 1;
        }
    }

    /// Endpoint timers and the next paced post.
    fn deadlines(&self) -> impl Iterator<Item = SimTime> {
        let post = (self.posted < self.spec.messages).then(|| self.ledger.post_at(self.posted));
        [self.a.next_deadline(), self.b.next_deadline(), post]
            .into_iter()
            .flatten()
    }

    /// Hand a delivery at `node` to the half living there; returns how
    /// many first completions it surfaced.
    fn deliver(&mut self, node: usize, at: SimTime, packet: &Packet) -> u64 {
        let ep = match node {
            n if n == self.spec.dst => &mut self.b,
            n if n == self.spec.src => &mut self.a,
            _ => return 0,
        };
        ep.handle_packet(at, packet);
        self.ledger.drain(ep, at)
    }

    /// Everything posted, completed once, and acknowledged.
    fn complete(&self) -> bool {
        self.posted == self.spec.messages
            && self.ledger.delivered == self.spec.messages as u64
            && self.a.tx_idle()
    }

    /// Either half exhausted its retries.
    pub fn failed(&self) -> bool {
        self.a.failed() || self.b.failed()
    }
}

/// The capture-and-replay attacker: it taps data packets (not ACKs)
/// delivered to the first flow's responder (its node and QPN), and
/// re-posts every `every`-th one, byte-identical, from node `from` after
/// `delay`.
#[derive(Debug, Clone, Copy)]
pub struct Tap {
    /// Node the captures are re-injected from.
    pub from: usize,
    /// Replay every n-th capture (0 = off; `delay` still sets the drain).
    pub every: u64,
    /// Capture-to-reinjection delay.
    pub delay: SimTime,
}

/// The one hook a control plane (e.g. a replicated subnet manager) needs
/// to ride the driver. `()` is the empty control plane.
pub trait ControlPlane {
    /// Speak at `now`, after the paced posts and before the data plane;
    /// returns the earliest instant after `now` it next needs a step.
    fn poll(&mut self, _now: SimTime, _sim: &mut Simulator) -> Option<SimTime> {
        None
    }

    /// Offered every parsed delivery before the data plane; return true
    /// to consume it. `flows` reaches the endpoints resident on `node`
    /// (e.g. to install a key epoch).
    fn consume(
        &mut self,
        _at: SimTime,
        _node: usize,
        _packet: &Packet,
        _sim: &mut Simulator,
        _flows: &mut [Flow],
    ) -> bool {
        false
    }

    /// False while the control plane must keep the run going after the
    /// data plane has drained.
    fn settled(&self) -> bool {
        true
    }
}

impl ControlPlane for () {}

/// A fleet of flows over one fabric, ready to run.
pub struct CoSim {
    /// The fabric (its seed steers traffic, attackers and faults).
    pub sim: Simulator,
    /// The data plane, in post order (at least one; the tap sits on the
    /// first).
    pub flows: Vec<Flow>,
    /// Virtual lane the data flows and re-injections ride.
    pub vl: u8,
    /// The capture-and-replay attacker.
    pub tap: Tap,
    /// Width of the completion-timeline buckets (0 = none kept).
    pub bucket: SimTime,
    /// Safety valve: give up past this simulated instant.
    pub max_sim_time: SimTime,
}

/// The outcome of one [`CoSim::run`]. Flow and endpoint counters roll up
/// through [`Self::sum`] and [`Self::both`].
pub struct CoSimReport {
    /// The flows as the run left them.
    pub flows: Vec<Flow>,
    /// Run hit `max_sim_time` before the fleet completed.
    pub timed_out: bool,
    /// Instant the fleet completed (the end of the run if it never did).
    pub completion_ps: SimTime,
    /// Unique completed payload bits over the completion time.
    pub goodput_gbps: f64,
    /// First completions per `bucket`-wide slot of delivery time.
    pub buckets: Vec<u64>,
    /// Packets the tap re-injected.
    pub injected: u64,
    /// Deliveries that failed to parse (dropped before any endpoint).
    pub unparseable: u64,
    /// The fabric's own counters at the end of the run.
    pub fabric: SimReport,
}

impl CoSimReport {
    /// Sum `stat` over every flow.
    pub fn sum(&self, stat: impl Fn(&Flow) -> u64) -> u64 {
        self.flows.iter().map(stat).sum()
    }

    /// Sum `stat` over both halves of every flow.
    pub fn both(&self, stat: impl Fn(&SecureRcEndpoint) -> u64) -> u64 {
        self.sum(|f| stat(&f.a) + stat(&f.b))
    }
}

impl CoSim {
    /// Run the fleet to completion (plus the drain), an endpoint failure,
    /// or `max_sim_time` (see the module docs for the step order).
    pub fn run<C: ControlPlane>(self, control: &mut C) -> CoSimReport {
        let CoSim {
            mut sim,
            mut flows,
            vl,
            tap,
            bucket,
            max_sim_time,
        } = self;
        // Captured-and-due-later re-injections: (injection time, bytes).
        let mut pending: VecDeque<(SimTime, Vec<u8>)> = VecDeque::new();
        let (mut captured, mut injected, mut unparseable) = (0u64, 0u64, 0u64);
        let mut buckets: Vec<u64> = Vec::new();
        let mut wire: Vec<Vec<u8>> = Vec::new();
        let mut shell = PacketBuilder::new(OpCode::RC_ACKNOWLEDGE).ack(0, 0).build();
        let (mut now, mut done_at, mut timed_out) = (0, None, false);
        let victim = flows[0].spec;

        loop {
            while pending.front().is_some_and(|(t, _)| *t <= now) {
                let (_, bytes) = pending.pop_front().unwrap();
                injected += 1;
                sim.post_host(tap.from, victim.dst, vl, bytes);
            }
            flows.iter_mut().for_each(|f| f.post_due(now));
            let control_due = control.poll(now, &mut sim);
            for f in flows.iter_mut() {
                let (src, dst) = (f.spec.src, f.spec.dst);
                for (ep, from, to) in [(&mut f.a, src, dst), (&mut f.b, dst, src)] {
                    ep.poll_into(now, &mut wire);
                    for bytes in wire.drain(..) {
                        sim.post_host(from, to, vl, bytes);
                    }
                }
            }

            if done_at.is_none() && flows.iter().all(Flow::complete) {
                done_at = Some(now);
            }
            if flows.iter().any(Flow::failed) {
                break;
            }
            if now >= max_sim_time {
                timed_out = done_at.is_none();
                break;
            }
            let horizon = done_at.map(|done| done + tap.delay + DRAIN_GRACE);
            if horizon.is_some_and(|h| now >= h) && pending.is_empty() && control.settled() {
                break;
            }

            let target = flows
                .iter()
                .flat_map(Flow::deadlines)
                .chain(control_due)
                .chain(pending.front().map(|(t, _)| *t))
                .chain(horizon.filter(|&h| h > now))
                .fold(max_sim_time, SimTime::min);
            let t = sim.run_hosts_until(target.max(now + 1));
            while let Some(d) = sim.take_host_delivery() {
                if shell.parse_into(&d.bytes).is_err() {
                    unparseable += 1;
                    continue;
                }
                if control.consume(d.at, d.node, &shell, &mut sim, &mut flows) {
                    continue;
                }
                let qpn = shell.bth.dest_qp;
                if tap.every > 0
                    && (d.node, qpn) == (victim.dst, victim.qpn)
                    && shell.bth.opcode.operation != Operation::Acknowledge
                {
                    captured += 1;
                    if captured.is_multiple_of(tap.every) {
                        pending.push_back((d.at + tap.delay, d.bytes));
                    }
                }
                let fresh = flows
                    .iter_mut()
                    .find(|f| f.spec.qpn == qpn)
                    .map_or(0, |f| f.deliver(d.node, d.at, &shell));
                if bucket > 0 && fresh > 0 {
                    let slot = (d.at / bucket) as usize;
                    if buckets.len() <= slot {
                        buckets.resize(slot + 1, 0);
                    }
                    buckets[slot] += fresh;
                }
            }
            now = t;
        }

        let completion_ps = done_at.unwrap_or(now).max(1);
        let bits: u64 = flows
            .iter()
            .map(|f| f.ledger.delivered * f.spec.payload_len as u64 * 8)
            .sum();
        CoSimReport {
            flows,
            timed_out,
            completion_ps,
            goodput_gbps: bits as f64 / (completion_ps as f64 * 1e-12) / 1e9,
            buckets,
            injected,
            unparseable,
            fabric: sim.stats(),
        }
    }
}
