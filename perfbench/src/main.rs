//! The repository benchmark. Usage:
//!
//! ```text
//! perfbench --workload <auth_datapath|fabric_bulk|secure_cosim>
//!           --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Every workload runs all three paths of the repository from one
//! process, as a closed loop on at most `min(2, nproc)` threads: the
//! authenticated datapath, the fat-tree fabric on both engines, and the
//! secure co-simulation. The workload's own path is measured for
//! `--seconds`; the other two run a fixed, smaller amount of work so
//! that every end-to-end metric exists on every workload. See README.md
//! for the metric definitions.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). The line before it
//! records the host signature. A traced run also writes Chrome
//! trace-event JSON under `perfbench/out/`.

mod cosim;
mod datapath;
mod fabric;
mod stats;
mod trace;

use std::time::{Duration, Instant};

use ib_runtime::Seed;

use datapath::Datapath;
use fabric::Fabric;
use stats::{median, nearest_rank, quartiles, Metrics};
use trace::Tracer;

/// Fat-tree radix: 1024 HCAs, 320 switches.
const FAT_TREE_K: usize = 16;
/// Fixed work of a path run alongside another workload's own path. The
/// fabric's side iterations run the sharded engine only.
const SIDE_DATAPATH_CYCLES: usize = 24;
const SIDE_FABRIC_ITERS: usize = 6;
const SIDE_COSIM_ROUNDS: usize = 8;
/// Fewest timed repetitions of a workload's own path.
const MIN_DATAPATH_CYCLES: usize = 5;
const MIN_FABRIC_ITERS: usize = 3;
const MIN_COSIM_ROUNDS: usize = 3;
/// Fixed work of each half (untraced, traced) of a traced run.
const TRACE_DATAPATH_CYCLES: usize = 6;
const TRACE_FABRIC_ITERS: usize = 1;
const TRACE_COSIM_ROUNDS: usize = 1;
/// The datapath ledger closes when the stage spans cover this share of
/// the traced loop's wall time.
const CLOSURE_TOLERANCE: (f64, f64) = (0.75, 1.02);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AuthDatapath,
    FabricBulk,
    SecureCosim,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "auth_datapath" => Some(Workload::AuthDatapath),
            "fabric_bulk" => Some(Workload::FabricBulk),
            "secure_cosim" => Some(Workload::SecureCosim),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::AuthDatapath => "auth_datapath",
            Workload::FabricBulk => "fabric_bulk",
            Workload::SecureCosim => "secure_cosim",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and failed. A failure's message goes to standard
/// error (the first few only).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    reported: u32,
}

impl Outcome {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.fail_n(u64::from(!ok), msg);
    }

    pub fn fail_n(&mut self, n: u64, msg: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.reported < 20 {
            self.reported += 1;
            eprintln!("FAILED: {}", msg());
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checkout's commit, read from `.git` in the working directory when
/// there is one.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_json(args: &Args, threads: usize) -> String {
    let caps = ib_crypto::simd::caps();
    let ib_simd = std::env::var("IB_SIMD").unwrap_or_else(|_| "unset".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {nproc}, \"threads\": {threads}, \
         \"simd\": {{\"sse2\": {}, \"pclmul\": {}, \"avx2\": {}, \"aesni\": {}}}, \
         \"IB_SIMD\": \"{}\", \"git_rev\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        caps.sse2,
        caps.pclmul,
        caps.avx2,
        caps.aesni,
        ib_simd.escape_default(),
        git_rev().escape_default()
    )
}

/// Set-up of every path: construction and one untimed warm-up unit each.
/// The fabric's warm-up runs the serial engine only where its rate is
/// measured (`fabric_bulk`); elsewhere it runs the sharded engine, the
/// one whose first run in a process is slow.
struct Paths {
    dp: Datapath,
    fab: Fabric,
    cos: cosim::Cosim,
    /// Wall time of construction plus warm-up, all paths.
    setup_s: f64,
}

fn set_up(w: Workload, seed: Seed, threads: usize, out: &mut Outcome) -> Paths {
    let mut off = Tracer::new(false);
    let t = Instant::now();
    let mut dp = Datapath::new(seed.stream(1));
    dp.cycle(&mut off, out);
    let mut fab = Fabric::new(FAT_TREE_K, seed.stream(2), threads);
    fab.iteration(w == Workload::FabricBulk, &mut off, out, 0);
    let mut cos = cosim::Cosim::new(seed.stream(3));
    cos.round(&mut off, out, 0);
    dp.batch_ns.clear();
    Paths {
        dp,
        fab,
        cos,
        setup_s: t.elapsed().as_secs_f64(),
    }
}

/// Every workload runs all three paths; each is named after the path
/// it measures for `--seconds`.
const PATHS: [Workload; 3] = [
    Workload::AuthDatapath,
    Workload::FabricBulk,
    Workload::SecureCosim,
];

/// Timed units of every path.
struct Samples {
    /// Fabric iterations run the serial engine too (else sharded only).
    fabric_serial: bool,
    dp: Vec<datapath::Cycle>,
    fab: Vec<fabric::Iteration>,
    cos: Vec<cosim::Round>,
}

impl Samples {
    fn new(fabric_serial: bool) -> Samples {
        Samples {
            fabric_serial,
            dp: Vec::new(),
            fab: Vec::new(),
            cos: Vec::new(),
        }
    }

    fn count(&self, path: Workload) -> usize {
        match path {
            Workload::AuthDatapath => self.dp.len(),
            Workload::FabricBulk => self.fab.len(),
            Workload::SecureCosim => self.cos.len(),
        }
    }

    fn run(&mut self, path: Workload, p: &mut Paths, tr: &mut Tracer, out: &mut Outcome) {
        let id = self.count(path) as u64;
        match path {
            Workload::AuthDatapath => self.dp.push(p.dp.cycle(tr, out)),
            Workload::FabricBulk => {
                let it = p.fab.iteration(self.fabric_serial, tr, out, id);
                self.fab.push(it)
            }
            Workload::SecureCosim => self.cos.push(p.cos.round(tr, out, id)),
        }
    }
}

/// End-to-end metrics (`--trace 0`). The workload's own path repeats
/// until `--seconds` have passed (and at least its minimum count); the
/// fixed work of the other two paths is spread evenly over that time, so
/// every path samples the whole run.
fn measure(args: &Args, threads: usize, out: &mut Outcome) -> (Metrics, String) {
    let seed = Seed(args.seed);
    let budget = Duration::from_secs(args.seconds);
    let mut p = set_up(args.workload, seed, threads, out);
    let mut tr = Tracer::new(false);
    let own = args.workload;
    let target = |path: Workload| match path {
        Workload::AuthDatapath => SIDE_DATAPATH_CYCLES,
        Workload::FabricBulk => SIDE_FABRIC_ITERS,
        Workload::SecureCosim => SIDE_COSIM_ROUNDS,
    };
    let min_own = match own {
        Workload::AuthDatapath => MIN_DATAPATH_CYCLES,
        Workload::FabricBulk => MIN_FABRIC_ITERS,
        Workload::SecureCosim => MIN_COSIM_ROUNDS,
    };
    let mut s = Samples::new(own == Workload::FabricBulk);
    let start = Instant::now();
    loop {
        let frac = (start.elapsed().as_secs_f64() / budget.as_secs_f64()).min(1.0);
        let own_done = frac >= 1.0 && s.count(own) >= min_own;
        if !own_done {
            s.run(own, &mut p, &mut tr, out);
        }
        for path in PATHS.into_iter().filter(|&q| q != own) {
            let due = (target(path) as f64 * frac).ceil() as usize;
            while s.count(path) < due {
                s.run(path, &mut p, &mut tr, out);
            }
        }
        if own_done {
            break;
        }
    }
    let Samples {
        dp: dp_cycles,
        fab: fab_iters,
        cos: cos_rounds,
        ..
    } = s;

    // Each rate is the median over the run's units; the info line gives
    // its quartiles and sample count too.
    let mut m = Metrics::default();
    let mut spread = Vec::new();
    let mut rate = |m: &mut Metrics, name: &'static str, unit, v: Vec<f64>| {
        let q = quartiles(&v);
        spread.push(format!(
            "\"{name}\": {{\"q1\": {:?}, \"median\": {:?}, \"q3\": {:?}, \"n\": {}}}",
            q[0],
            q[1],
            q[2],
            v.len()
        ));
        m.f(name, median(v), unit);
    };
    rate(
        &mut m,
        "datapath_pkts_per_s",
        "pkt/s",
        dp_cycles
            .iter()
            .map(|c| c.packets as f64 / c.wall_s)
            .collect(),
    );
    rate(
        &mut m,
        "datapath_gbps",
        "Gb/s",
        dp_cycles
            .iter()
            .map(|c| c.payload_bytes as f64 * 8.0 / c.wall_s / 1e9)
            .collect(),
    );
    let mut batch_ns = std::mem::take(&mut p.dp.batch_ns);
    batch_ns.sort_unstable();
    let pct = |q| nearest_rank(&batch_ns, q).expect("batches ran") as f64 / 1e3;
    m.f("datapath_batch_p50_us", pct(0.50), "us");
    m.f("datapath_batch_p99_us", pct(0.99), "us");
    let sim_rates = if own == Workload::FabricBulk {
        fab_iters
            .iter()
            .filter_map(|f| Some(f.events as f64 / f.serial.as_ref()?.run_s))
            .collect()
    } else {
        cos_rounds
            .iter()
            .map(|r| r.sum_u(|c| c.dos_events) as f64 / r.sum(|c| c.dos_run_s))
            .collect()
    };
    rate(&mut m, "sim_events_per_s", "events/s", sim_rates);
    rate(
        &mut m,
        "par_events_per_s",
        "events/s",
        fab_iters
            .iter()
            .map(|f| f.events as f64 / f.par.run_s)
            .collect(),
    );
    rate(
        &mut m,
        "rc_msgs_per_s",
        "msg/s",
        cos_rounds
            .iter()
            .map(|r| r.sum_u(|c| c.rc_messages()) as f64 / r.sum(|c| c.rdma_s + c.rekey_s))
            .collect(),
    );
    let construction = median(
        fab_iters
            .iter()
            .map(|f| f.serial.as_ref().map_or(0.0, |t| t.new_s) + f.par.new_s)
            .collect(),
    ) + median(cos_rounds.iter().map(|r| r.sum(|c| c.dos_new_s)).collect());
    m.f("setup_s", p.setup_s + construction, "s");
    m.f("peak_rss_mb", peak_rss_mb(), "MiB");

    let info = format!(
        "{{\"datapath_batch_samples\": {}, \"rates\": {{{}}}}}",
        batch_ns.len(),
        spread.join(", ")
    );
    (m, info)
}

/// Per-layer metrics (`--trace 1`).
fn measure_traced(args: &Args, threads: usize, out: &mut Outcome) -> (Metrics, Tracer) {
    let seed = Seed(args.seed);
    let mut p = set_up(args.workload, seed, threads, out);
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let own = args.workload;
    let fixed = |path: Workload| match path {
        Workload::AuthDatapath => TRACE_DATAPATH_CYCLES,
        Workload::FabricBulk => TRACE_FABRIC_ITERS,
        Workload::SecureCosim => TRACE_COSIM_ROUNDS,
    };

    // The workload's own path runs the same fixed work untraced, then
    // traced; the ratio of the two is the tracing overhead. The other
    // paths then run traced.
    let t = Instant::now();
    let mut untraced = Samples::new(true);
    for _ in 0..fixed(own) {
        untraced.run(own, &mut p, &mut off, out);
    }
    let untraced_s = t.elapsed().as_secs_f64();
    let before = p.dp.stats();
    let rejects_before = p.dp.parse_rejects;
    let mut s = Samples::new(true);
    let mut wall = [0.0; 3];
    let order = std::iter::once(own).chain(PATHS.into_iter().filter(|&q| q != own));
    for path in order {
        let t = Instant::now();
        for _ in 0..fixed(path) {
            s.run(path, &mut p, &mut tr, out);
        }
        wall[path as usize] = t.elapsed().as_secs_f64();
    }
    let traced_s = wall[own as usize];
    let dp_s = wall[Workload::AuthDatapath as usize];
    let after = p.dp.stats();
    let parse_rejects = p.dp.parse_rejects - rejects_before;
    p.dp.standalone(&mut tr, out);
    let Samples {
        fab: fab_iters,
        cos: cos_rounds,
        ..
    } = s;

    let mut m = Metrics::default();
    // Datapath stages, per size class.
    let mut stage_ns = 0u64;
    for stage in &datapath::STAGES {
        let per = if stage.per_batch { datapath::BATCH } else { 1 };
        for (span, label) in stage.spans.iter().zip(datapath::SIZE_LABELS) {
            let agg = tr.agg(span);
            m.f(
                format!("{}.{label}", stage.metric),
                agg.mean_ns() / per as f64,
                "ns",
            );
            if stage.in_loop {
                stage_ns += agg.total_ns;
            }
        }
    }
    m.f(
        "core.channel.reject_ns",
        tr.agg(datapath::REJECT).mean_ns(),
        "ns",
    );
    m.u("core.channel.fresh", after.fresh - before.fresh, "count");
    m.u(
        "core.channel.duplicates",
        after.duplicates - before.duplicates,
        "count",
    );
    m.u(
        "core.channel.rejected_auth",
        after.rejected_auth - before.rejected_auth,
        "count",
    );
    m.u(
        "core.channel.rejected_vcrc",
        after.rejected_vcrc - before.rejected_vcrc,
        "count",
    );
    m.u(
        "core.channel.rejected_stale",
        after.rejected_stale - before.rejected_stale,
        "count",
    );
    m.u("ib-packet.parse_rejected_vcrc", parse_rejects, "count");
    let ratio = stage_ns as f64 * 1e-9 / dp_s;
    if !(CLOSURE_TOLERANCE.0..=CLOSURE_TOLERANCE.1).contains(&ratio) {
        eprintln!(
            "note: datapath stage spans cover {ratio:.3} of the loop, outside {CLOSURE_TOLERANCE:?}"
        );
    }
    m.f("datapath.stage_sum_ratio", ratio, "ratio");

    // Fabric, both engines, from the traced iteration.
    let f = &fab_iters[0];
    let serial = f.serial.as_ref().expect("traced iterations run serial");
    m.f("ib-sim.serial.run_s", serial.run_s, "s");
    m.f(
        "ib-sim.serial.ns_per_event",
        serial.run_s * 1e9 / f.events as f64,
        "ns",
    );
    m.f("ib-sim.par.run_s", f.par.run_s, "s");
    m.f(
        "ib-sim.par.ns_per_event",
        f.par.run_s * 1e9 / f.events as f64,
        "ns",
    );
    m.u("ib-sim.par.num_domains", f.num_domains as u64, "count");
    m.f(
        "ib-sim.par.speedup_vs_serial",
        serial.run_s / f.par.run_s,
        "ratio",
    );
    m.f("ib-sim.new_s", serial.new_s, "s");
    m.f("ib-sim.par.new_s", f.par.new_s, "s");
    let fp = p.fab.fingerprint.as_ref().expect("fabric ran");
    m.u("ib-sim.peak_packets", fp.peak_packets, "count");
    m.u("ib-sim.events", fp.events, "count");
    m.f("ib-sim.makespan_us", fp.makespan_us(), "us");
    m.f("ib-sim.fct_p99_us", fp.fct_p99_us(), "us");

    // Co-simulation, three phases, over one round of scenarios: times
    // and counts are summed over the round's scenarios (RDMA: over WRITE
    // and READ too). The counts and simulated times repeat exactly.
    let r = &cos_rounds[0];
    let dos_run = r.sum(|c| c.dos_run_s);
    let dos_events = r.sum_u(|c| c.dos_events);
    m.f("ib-sim.dos.run_s", dos_run, "s");
    m.f(
        "ib-sim.dos.ns_per_event",
        dos_run * 1e9 / dos_events as f64,
        "ns",
    );
    m.u("ib-sim.dos.events", dos_events, "count");
    m.u(
        "ib-mgmt.filter_drops",
        r.sum_u(|c| c.dos.filter_drops),
        "count",
    );
    m.u(
        "ib-mgmt.hca_blocked",
        r.sum_u(|c| c.dos.hca_blocked),
        "count",
    );
    m.u("ib-mgmt.traps", r.sum_u(|c| c.dos.traps), "count");
    m.u(
        "ib-mgmt.lookup_cycles",
        r.sum_u(|c| c.dos.lookup_cycles),
        "count",
    );
    let rdma_s = r.sum(|c| c.rdma_s);
    m.f("ib-transport.run_fabric_sim_s", rdma_s, "s");
    m.f(
        "ib-transport.us_per_msg",
        rdma_s * 1e6 / r.sum_u(|c| c.rdma_messages()) as f64,
        "us",
    );
    let rdma_sum =
        |g: fn(&ib_transport::FabricReport) -> u64| r.sum_u(|c| c.rdma.iter().map(g).sum::<u64>());
    m.u(
        "ib-transport.retransmits",
        rdma_sum(|x| x.retransmits),
        "count",
    );
    m.u(
        "ib-transport.dup_suppressed",
        rdma_sum(|x| x.dup_suppressed),
        "count",
    );
    m.u(
        "ib-transport.rejected_auth",
        rdma_sum(|x| x.rejected_auth),
        "count",
    );
    m.u(
        "ib-transport.replays_injected",
        rdma_sum(|x| x.replays_injected),
        "count",
    );
    m.f(
        "ib-transport.completion_us",
        r.sum(|c| c.rdma.iter().map(|x| x.completion_us).sum()),
        "us",
    );
    let rekey_s = r.sum(|c| c.rekey_s);
    m.f("ib-sm.run_rekey_sim_s", rekey_s, "s");
    m.f(
        "ib-sm.us_per_msg",
        rekey_s * 1e6 / r.sum_u(|c| c.rekey.expected) as f64,
        "us",
    );
    m.u("ib-sm.rotations", r.sum_u(|c| c.rekey.rotations), "count");
    m.u(
        "ib-sm.key_updates_tx",
        r.sum_u(|c| c.rekey.key_updates_tx),
        "count",
    );
    m.u("ib-sm.takeovers", r.sum_u(|c| c.rekey.takeovers), "count");
    m.u(
        "ib-sm.rejected_stale_epoch",
        r.sum_u(|c| c.rekey.rejected_stale_epoch),
        "count",
    );
    m.f(
        "ib-sm.time_to_recover_us",
        r.sum(|c| c.rekey.time_to_recover_us),
        "us",
    );

    m.f("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
    for (layer, s) in tr.layer_self_s() {
        m.f(format!("trace.self_s.{layer}"), s, "s");
    }
    (m, tr)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <auth_datapath|fabric_bulk|secure_cosim> \
                 --seed <u64> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    let host = host_json(&args, threads);
    let mut out = Outcome::default();
    let metrics = if args.trace {
        let (m, tr) = measure_traced(&args, threads, &mut out);
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = tr.write_chrome(&path, &host) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("trace: {}", path.display());
        println!("{{\"host\": {host}}}");
        m
    } else {
        let (m, info) = measure(&args, threads, &mut out);
        println!("{{\"host\": {host}, \"info\": {info}}}");
        m
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.to_json()
    );
}
