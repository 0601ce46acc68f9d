//! The authenticated datapath: seal → `write_into` → `parse_into` →
//! `admit_many`, one thread, two `SecureChannel`s (AuthReplay, UMAC-32,
//! replay window 64), batches of 16 packets.
//!
//! Inputs come from a seeded plan of [`CYCLE_BATCHES`] batches that
//! repeats with identical composition, so every cycle carries the same
//! bytes and the same adversarial mix and per-cycle rates compare. Each
//! batch carries one payload size, drawn so that exactly 40% of batches
//! are 0 B, 20% 256 B, 30% 1024 B and 10% 4096 B. One packet in every 32
//! is adversarial; the kinds rotate through a replay of a recently
//! admitted wire image (expected `Duplicate`), a tag with one bit flipped
//! (expected `BadTag`), a corrupted VCRC (expected to fail `parse_into`),
//! and a replay of a wire image older than the window (expected
//! `StalePsn`).

use std::time::Instant;

use ib_crypto::mac::AuthAlgorithm;
use ib_crypto::Umac;
use ib_mgmt::keymgmt::SecretKey;
use ib_packet::{Lid, OpCode, PKey, Packet, PacketBuilder, ParseError, Psn, Qpn};
use ib_runtime::{Rng, Seed};
use ib_security::channel::ChannelStats;
use ib_security::{
    Admit, AuthError, Authenticator, ChannelError, ChannelSecurity, KeyScope, SecureChannel,
};

use crate::trace::Tracer;
use crate::Outcome;

pub const BATCH: usize = 16;
pub const SIZES: [usize; 4] = [0, 256, 1024, 4096];
pub const SIZE_LABELS: [&str; 4] = ["s0", "s256", "s1024", "s4096"];
/// Share of batches per size class, percent.
const SHARE_PCT: [usize; 4] = [40, 20, 30, 10];
/// Batches per plan cycle (8000 packets).
pub const CYCLE_BATCHES: usize = 500;
/// One adversarial packet per this many.
const ADV_EVERY: usize = 32;
const WINDOW: u32 = 64;
/// Batches of wire history kept for the replay adversary. A replay from
/// `HISTORY - 1` batches back is at least 96 PSNs behind: past the window.
const HISTORY: usize = 8;
const PKEY: PKey = PKey(0x8001);
/// Standalone-call samples kept per size class, and repeats over them.
const SAMPLES: usize = 32;
const SAMPLE_REPS: usize = 16;

const SEAL: [&str; 4] = [
    "core.channel.seal.s0",
    "core.channel.seal.s256",
    "core.channel.seal.s1024",
    "core.channel.seal.s4096",
];
const WRITE: [&str; 4] = [
    "ib-packet.write_into.s0",
    "ib-packet.write_into.s256",
    "ib-packet.write_into.s1024",
    "ib-packet.write_into.s4096",
];
const PARSE: [&str; 4] = [
    "ib-packet.parse_into.s0",
    "ib-packet.parse_into.s256",
    "ib-packet.parse_into.s1024",
    "ib-packet.parse_into.s4096",
];
const ADMIT: [&str; 4] = [
    "core.channel.admit_many.s0",
    "core.channel.admit_many.s256",
    "core.channel.admit_many.s1024",
    "core.channel.admit_many.s4096",
];
const VCRC: [&str; 4] = [
    "ib-packet.compute_vcrc.s0",
    "ib-packet.compute_vcrc.s256",
    "ib-packet.compute_vcrc.s1024",
    "ib-packet.compute_vcrc.s4096",
];
const TAG: [&str; 4] = [
    "core.auth.compute_tag.s0",
    "core.auth.compute_tag.s256",
    "core.auth.compute_tag.s1024",
    "core.auth.compute_tag.s4096",
];
const UMAC: [&str; 4] = [
    "ib-crypto.umac_tag32.s0",
    "ib-crypto.umac_tag32.s256",
    "ib-crypto.umac_tag32.s1024",
    "ib-crypto.umac_tag32.s4096",
];
pub const REJECT: &str = "core.channel.reject";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Honest,
    ReplayRecent,
    FlipTag,
    BadVcrc,
    ReplayOld,
}

/// Adversarial kinds in rotation order: replay, flipped tag, corrupted
/// VCRC, with the replay alternating between recent and stale images.
const ROTATION: [Kind; 6] = [
    Kind::ReplayRecent,
    Kind::FlipTag,
    Kind::BadVcrc,
    Kind::ReplayOld,
    Kind::FlipTag,
    Kind::BadVcrc,
];

struct BatchPlan {
    class: usize,
    /// `(slot, kind)` of the batch's adversarial packet, if any.
    adv: Option<(usize, Kind)>,
}

/// Measurements of one cycle.
pub struct Cycle {
    pub packets: u64,
    pub payload_bytes: u64,
    pub wall_s: f64,
}

pub struct Datapath {
    tx: SecureChannel,
    rx: SecureChannel,
    templates: [Packet; 4],
    plan: Vec<BatchPlan>,
    wires: Vec<Vec<u8>>,
    kinds: [Kind; BATCH],
    /// Size class of each slot's wire image (a replay may differ from
    /// its batch's class).
    img_class: [usize; BATCH],
    /// Packet id (stream index) of each slot, for span ids.
    ids: [u64; BATCH],
    shells: Vec<Packet>,
    slot_of: [usize; BATCH],
    verdicts: Vec<Result<Admit, ChannelError>>,
    /// Ring of `(class, wire image)` of one honest packet per batch.
    history: Vec<(usize, Vec<u8>)>,
    batches: u64,
    packets: u64,
    psn: u32,
    /// Every batch's first-seal-to-last-verdict time, ns.
    pub batch_ns: Vec<u64>,
    /// Wire images `parse_into` refused for a bad VCRC.
    pub parse_rejects: u64,
    /// Sealed honest packets and tag-flipped packets, per class, kept for
    /// the standalone calls of the traced run.
    honest_samples: [Vec<Packet>; 4],
    flipped_samples: Vec<Packet>,
    secret: SecretKey,
}

fn template(class: usize, rng: &mut Rng) -> Packet {
    let mut payload = vec![0u8; SIZES[class]];
    rng.fill_bytes(&mut payload);
    PacketBuilder::new(OpCode::RC_SEND_ONLY)
        .slid(Lid(1))
        .dlid(Lid(2))
        .pkey(PKEY)
        .dest_qp(Qpn(9))
        .psn(Psn(0))
        .payload(payload)
        .build()
}

fn plan(seed: Seed) -> Vec<BatchPlan> {
    let mut rng = Rng::from_seed(seed);
    let mut classes: Vec<usize> = (0..4)
        .flat_map(|c| std::iter::repeat_n(c, CYCLE_BATCHES * SHARE_PCT[c] / 100))
        .collect();
    assert_eq!(classes.len(), CYCLE_BATCHES, "shares sum to 100%");
    rng.shuffle(&mut classes);
    let mut plan: Vec<BatchPlan> = classes
        .into_iter()
        .map(|class| BatchPlan { class, adv: None })
        .collect();
    let per_group = ADV_EVERY / BATCH;
    for (g, kind) in (0..CYCLE_BATCHES / per_group).zip(ROTATION.iter().cycle()) {
        let pos = rng.gen_range(0..ADV_EVERY);
        plan[g * per_group + pos / BATCH].adv = Some((pos % BATCH, *kind));
    }
    plan
}

impl Datapath {
    pub fn new(seed: Seed) -> Datapath {
        let secret = SecretKey::from_seed(seed.stream(1).0);
        let mut rng = Rng::from_seed(seed.stream(2));
        let templates = std::array::from_fn(|c| template(c, &mut rng));
        Datapath {
            tx: SecureChannel::new(ChannelSecurity::AuthReplay, PKEY, secret, WINDOW),
            rx: SecureChannel::new(ChannelSecurity::AuthReplay, PKEY, secret, WINDOW),
            templates,
            plan: plan(seed.stream(3)),
            wires: (0..BATCH).map(|_| Vec::with_capacity(4200)).collect(),
            kinds: [Kind::Honest; BATCH],
            img_class: [0; BATCH],
            ids: [0; BATCH],
            shells: (0..BATCH).map(|_| template(0, &mut rng)).collect(),
            slot_of: [0; BATCH],
            verdicts: Vec::with_capacity(BATCH),
            history: (0..HISTORY)
                .map(|_| (0, Vec::with_capacity(4200)))
                .collect(),
            batches: 0,
            packets: 0,
            psn: 0,
            batch_ns: Vec::new(),
            parse_rejects: 0,
            honest_samples: Default::default(),
            flipped_samples: Vec::new(),
            secret,
        }
    }

    pub fn stats(&self) -> ChannelStats {
        self.rx.stats
    }

    /// Run one plan cycle, checking every verdict into `out`.
    pub fn cycle(&mut self, tr: &mut Tracer, out: &mut Outcome) -> Cycle {
        let start = Instant::now();
        let mut payload_bytes = 0;
        for b in 0..CYCLE_BATCHES {
            payload_bytes += self.batch(b, tr, out);
        }
        Cycle {
            packets: (CYCLE_BATCHES * BATCH) as u64,
            payload_bytes,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    fn batch(&mut self, b: usize, tr: &mut Tracer, out: &mut Outcome) -> u64 {
        let class = self.plan[b].class;
        let adv = self.plan[b].adv;
        // Replays need wire history; the stream's first batches have none.
        let history_ready = self.batches >= HISTORY as u64;
        let ring = (self.batches % HISTORY as u64) as usize;
        let mut payload_bytes = 0u64;
        let envelope = tr.begin("bench", "datapath.batch", self.batches);
        let start = Instant::now();

        // Send side (and the adversary's edits to the wire).
        let mut saved = false;
        for i in 0..BATCH {
            let kind = match adv {
                Some((slot, k)) if slot == i && history_ready => k,
                _ => Kind::Honest,
            };
            self.kinds[i] = kind;
            self.ids[i] = self.packets;
            self.packets += 1;
            if let Kind::ReplayRecent | Kind::ReplayOld = kind {
                let back = if kind == Kind::ReplayRecent {
                    1
                } else {
                    HISTORY - 1
                };
                let (c, img) = &self.history[(ring + HISTORY - back) % HISTORY];
                self.wires[i].clear();
                self.wires[i].extend_from_slice(img);
                self.img_class[i] = *c;
                payload_bytes += SIZES[*c] as u64;
                continue;
            }
            self.img_class[i] = class;
            let pkt = &mut self.templates[class];
            pkt.bth.psn = Psn(self.psn);
            self.psn = (self.psn + 1) & 0x00FF_FFFF;
            let t = tr.begin("core", SEAL[class], self.ids[i]);
            self.tx.seal(pkt).expect("partition key installed");
            tr.end(t);
            if kind == Kind::FlipTag {
                pkt.icrc ^= 1 << (self.ids[i] % 32);
                pkt.vcrc = pkt.compute_vcrc();
            }
            let t = tr.begin("ib-packet", WRITE[class], self.ids[i]);
            pkt.write_into(&mut self.wires[i]);
            tr.end(t);
            payload_bytes += SIZES[class] as u64;
            if kind == Kind::BadVcrc {
                let n = self.wires[i].len();
                self.wires[i][n - 1] ^= 0x01;
            }
            if kind == Kind::Honest && !saved {
                saved = true;
                let h = &mut self.history[ring];
                h.0 = class;
                h.1.clear();
                h.1.extend_from_slice(&self.wires[i]);
            }
        }

        // Receive side.
        let mut parsed = 0;
        let mut parse_errs: [Option<ParseError>; BATCH] = std::array::from_fn(|_| None);
        for i in 0..BATCH {
            let t = tr.begin("ib-packet", PARSE[self.img_class[i]], self.ids[i]);
            let r = self.shells[parsed].parse_into(&self.wires[i]);
            tr.end(t);
            match r {
                Ok(()) => {
                    self.slot_of[parsed] = i;
                    parsed += 1;
                }
                Err(e) => {
                    self.parse_rejects += u64::from(matches!(e, ParseError::BadVcrc { .. }));
                    parse_errs[i] = Some(e);
                }
            }
        }
        let t = tr.begin("core", ADMIT[class], self.batches);
        self.rx
            .admit_many(&self.shells[..parsed], &mut self.verdicts);
        tr.end(t);
        self.batch_ns.push(start.elapsed().as_nanos() as u64);
        tr.end(envelope);

        // Verdicts.
        for (i, err) in parse_errs.iter().enumerate() {
            if let Some(e) = err {
                out.attempt();
                let ok = self.kinds[i] == Kind::BadVcrc && matches!(e, ParseError::BadVcrc { .. });
                out.check(ok, || {
                    format!("datapath: slot {i} {:?} parse {e:?}", self.kinds[i])
                });
            }
        }
        for j in 0..parsed {
            let i = self.slot_of[j];
            let kind = self.kinds[i];
            let v = self.verdicts[j];
            let ok = matches!(
                (kind, v),
                (Kind::Honest, Ok(Admit::Fresh))
                    | (Kind::ReplayRecent, Ok(Admit::Duplicate))
                    | (Kind::ReplayOld, Err(ChannelError::StalePsn))
                    | (Kind::FlipTag, Err(ChannelError::Auth(AuthError::BadTag)))
            );
            out.attempt();
            out.check(ok, || format!("datapath: slot {i} {kind:?} verdict {v:?}"));
            if tr.on() {
                let shell = &self.shells[j];
                if kind == Kind::Honest && self.honest_samples[class].len() < SAMPLES {
                    self.honest_samples[class].push(shell.clone());
                } else if kind == Kind::FlipTag && self.flipped_samples.len() < SAMPLES {
                    self.flipped_samples.push(shell.clone());
                }
            }
        }
        self.batches += 1;
        payload_bytes
    }

    /// The traced run's standalone calls on the sampled packets: VCRC,
    /// tag and raw UMAC per size class, and the channel's rejection of a
    /// flipped tag. Results are checked against the values on the wire.
    pub fn standalone(&self, tr: &mut Tracer, out: &mut Outcome) {
        let mut auth = Authenticator::new(AuthAlgorithm::Umac32, KeyScope::Partition);
        auth.keys.install_partition_secret(PKEY, self.secret);
        let umac = Umac::new(&self.secret.0);
        let mut msg = Vec::new();
        for (class, samples) in self.honest_samples.iter().enumerate() {
            for _ in 0..SAMPLE_REPS {
                for (k, p) in samples.iter().enumerate() {
                    let id = k as u64;
                    let v = tr.span("ib-packet", VCRC[class], id, || p.compute_vcrc());
                    let tag = tr.span("core", TAG[class], id, || auth.compute_tag(p));
                    p.icrc_message_into(&mut msg);
                    let nonce = Authenticator::nonce(p);
                    let raw = tr.span("ib-crypto", UMAC[class], id, || umac.tag32(nonce, &msg));
                    out.attempt();
                    out.check(v == p.vcrc && tag == Ok(p.icrc) && raw == p.icrc, || {
                        format!("datapath: standalone mismatch on class {class}")
                    });
                }
            }
        }
        let mut probe = SecureChannel::new(ChannelSecurity::AuthReplay, PKEY, self.secret, WINDOW);
        let mut verdicts = Vec::new();
        for _ in 0..SAMPLE_REPS {
            for (k, p) in self.flipped_samples.iter().enumerate() {
                tr.span("core", REJECT, k as u64, || {
                    probe.admit_many(std::slice::from_ref(p), &mut verdicts)
                });
                out.attempt();
                let ok = verdicts[..] == [Err(ChannelError::Auth(AuthError::BadTag))];
                out.check(ok, || format!("datapath: probe verdict {verdicts:?}"));
            }
        }
    }
}

/// A datapath stage: its per-layer metric, its span name per size class,
/// whether it is part of the sealed-to-admitted loop (the others are the
/// traced run's standalone calls), and whether one span covers a whole
/// batch rather than one packet.
pub struct Stage {
    pub metric: &'static str,
    pub spans: [&'static str; 4],
    pub in_loop: bool,
    pub per_batch: bool,
}

pub const STAGES: [Stage; 7] = [
    Stage {
        metric: "core.channel.seal_ns",
        spans: SEAL,
        in_loop: true,
        per_batch: false,
    },
    Stage {
        metric: "ib-packet.write_into_ns",
        spans: WRITE,
        in_loop: true,
        per_batch: false,
    },
    Stage {
        metric: "ib-packet.parse_into_ns",
        spans: PARSE,
        in_loop: true,
        per_batch: false,
    },
    Stage {
        metric: "core.channel.admit_many_ns",
        spans: ADMIT,
        in_loop: true,
        per_batch: true,
    },
    Stage {
        metric: "ib-packet.compute_vcrc_ns",
        spans: VCRC,
        in_loop: false,
        per_batch: false,
    },
    Stage {
        metric: "core.auth.compute_tag_ns",
        spans: TAG,
        in_loop: false,
        per_batch: false,
    },
    Stage {
        metric: "ib-crypto.umac_tag32_ns",
        spans: UMAC,
        in_loop: false,
        per_batch: false,
    },
];
