//! Event-engine throughput: the scheduler microbenchmark and the whole
//! simulator, measured together.
//!
//! Two groups:
//!
//! * `scheduler/*` — a deterministic hold-model workload (prefill, then
//!   pop-one/push-one at the popped time plus a drawn delta, then drain)
//!   over two priority-queue arms:
//!   - `calendar` — the production [`EventQueue`]: timing wheel over
//!     compact keys with a binary-heap overflow;
//!   - `heap` — [`HeapQueue`], the same arena + compact keys under a
//!     plain binary heap (the property-test oracle).
//!
//!   Both arms replay the identical op script and must pop the identical
//!   `(time, payload)` stream (asserted before anything is timed).
//! * `engine/*` — `Simulator::run` over figure-sized cells
//!   (baseline, attack with no filtering / DPT / SIF), reporting
//!   simulator events per wall-second.
//!
//! The acceptance gate mirrors `mac_table4`: arms run interleaved sample
//! by sample so clock throttling cancels in *paired* ratios, and the
//! calendar queue must not lose to the compact-key heap on the hold
//! workload (median paired ratio under the bar, or best paired sample at
//! effective parity).
//!
//! Usage: `sim_engine [--smoke] [--seed S]`

use std::time::{Duration, Instant};

use bench::seed_arg;
use ib_mgmt::enforcement::EnforcementKind;
use ib_runtime::bench::{BenchConfig, Harness};
use ib_runtime::{Json, ToJson};
use ib_sim::config::SimConfig;
use ib_sim::engine::Simulator;
use ib_sim::event::{EventQueue, HeapQueue, BUCKET_WIDTH_PS, HORIZON_PS};
use ib_sim::time::{SimTime, MS, US};

/// Scheduler arms, baseline-last display order (calendar is the product).
const ARMS: [&str; 2] = ["calendar", "heap"];

/// One op script entry: the delta (ps) to add to the popped event's time
/// when re-pushing. The mix matches the simulator's event population:
/// mostly sub-bucket wire/credit deltas, a same-tick burst share, and a
/// far-future tail (attack epochs, key-exchange RTTs) past the wheel
/// horizon.
fn make_deltas(seed: ib_runtime::Seed, steps: usize) -> Vec<SimTime> {
    let mut rng = seed.rng();
    (0..steps)
        .map(|_| match rng.gen_range(0..10u64) {
            0 => 0,                                         // same-tick burst
            1 => HORIZON_PS + rng.gen_range(0..HORIZON_PS), // overflow path
            _ => 1 + rng.gen_range(0..4 * BUCKET_WIDTH_PS), // near future
        })
        .collect()
}

/// The one shape both arms implement, so the workload runner and the
/// equivalence gate are written once.
trait Sched {
    fn push(&mut self, at: SimTime, tag: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl Sched for EventQueue<u64> {
    fn push(&mut self, at: SimTime, tag: u64) {
        EventQueue::push(self, at, tag);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
}

impl Sched for HeapQueue<u64> {
    fn push(&mut self, at: SimTime, tag: u64) {
        HeapQueue::push(self, at, tag);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        HeapQueue::pop(self)
    }
}

/// Run the hold-model workload; returns the popped `(time, payload)`
/// stream and the total op count (pushes + pops).
fn run_workload<S: Sched + ?Sized>(
    q: &mut S,
    prefill: &[SimTime],
    deltas: &[SimTime],
) -> (Vec<(SimTime, u64)>, u64) {
    let mut tag: u64 = 0;
    let mut popped = Vec::with_capacity(prefill.len() + deltas.len());
    for &t in prefill {
        q.push(t, tag);
        tag += 1;
    }
    for &dt in deltas {
        let (t, p) = q.pop().expect("hold model keeps the queue non-empty");
        popped.push((t, p));
        q.push(t + dt, tag);
        tag += 1;
    }
    while let Some(item) = q.pop() {
        popped.push(item);
    }
    let ops = 2 * (prefill.len() + deltas.len()) as u64;
    (popped, ops)
}

fn engine_cfg(kind: EnforcementKind, attackers: usize, duration_ps: SimTime) -> SimConfig {
    SimConfig {
        enforcement: kind,
        num_attackers: attackers,
        attack_probability: 1.0,
        duration: duration_ps,
        warmup: 100 * US,
        ..SimConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--quick");
    let seed = seed_arg(&args);
    let (config, prefill_n, steps, engine_ps, engine_reps) = if smoke {
        (
            BenchConfig {
                warmup: Duration::from_millis(20),
                measurement: Duration::from_millis(80),
                samples: 5,
            },
            1024,
            20_000,
            MS / 2,
            2u32,
        )
    } else {
        (
            BenchConfig {
                warmup: Duration::from_millis(200),
                measurement: Duration::from_millis(300),
                samples: 15,
            },
            4096,
            200_000,
            MS,
            5u32,
        )
    };

    // Deterministic op script, shared by every arm.
    let mut prefill_rng = seed.stream(1).rng();
    let prefill: Vec<SimTime> = (0..prefill_n)
        .map(|_| prefill_rng.gen_range(0..2 * HORIZON_PS))
        .collect();
    let deltas = make_deltas(seed.stream(2), steps);

    // ---- equivalence gate: both arms pop the identical stream ----
    let fresh: [fn() -> Box<dyn Sched>; 2] = [
        || Box::new(EventQueue::<u64>::new()),
        || Box::new(HeapQueue::<u64>::new()),
    ];
    let streams: Vec<Vec<(SimTime, u64)>> = fresh
        .iter()
        .map(|new| run_workload(&mut *new(), &prefill, &deltas).0)
        .collect();
    assert_eq!(
        streams[0], streams[1],
        "calendar and compact-key heap must pop the identical (time, payload) stream"
    );
    let total_ops = 2 * (prefill.len() + deltas.len()) as u64;
    println!(
        "OK: both scheduler arms pop the identical {}-event stream ({total_ops} ops).\n",
        streams[0].len()
    );

    // ---- scheduler timing: arms interleaved sample by sample ----
    // This host's clock throttles by tens of percent over seconds, so a
    // frequency dip lands on both arms of the adjacent sample pair, not
    // on whichever arm happened to run in that window (same idiom as
    // mac_table4). One workload replay is milliseconds, so batch = 1.
    let mut harness = Harness::new(config);
    let mut sample_ns: [Vec<f64>; 2] = [const { Vec::new() }; 2];
    let warmup_end = Instant::now() + config.warmup;
    while Instant::now() < warmup_end {
        for new in &fresh {
            std::hint::black_box(run_workload(&mut *new(), &prefill, &deltas));
        }
    }
    for _ in 0..config.samples {
        for (a, new) in fresh.iter().enumerate() {
            let start = Instant::now();
            std::hint::black_box(run_workload(&mut *new(), &prefill, &deltas));
            sample_ns[a].push(start.elapsed().as_nanos() as f64);
        }
    }
    for (a, &arm) in ARMS.iter().enumerate() {
        // "Bytes" are scheduler ops: the throughput column reads as
        // operations per second.
        harness
            .group("scheduler")
            .throughput_bytes(total_ops)
            .record(arm, &sample_ns[a]);
    }

    // ---- engine timing: whole simulations, events per wall-second ----
    // `threads == 0` is the serial loop; non-zero cells run the same
    // config sharded in lookahead windows at that many threads and are
    // asserted report-identical to their serial counterpart before their
    // throughput is recorded.
    let cells = [
        ("baseline", EnforcementKind::NoFiltering, 0usize, 0usize),
        ("attack-nofilter", EnforcementKind::NoFiltering, 4, 0),
        ("attack-dpt", EnforcementKind::Dpt, 4, 0),
        ("attack-sif", EnforcementKind::Sif, 4, 0),
        ("baseline-par4", EnforcementKind::NoFiltering, 0, 4),
        ("attack-sif-par4", EnforcementKind::Sif, 4, 4),
    ];
    let mut engine_events: Vec<u64> = Vec::new();
    let mut serial_reports: Vec<(EnforcementKind, usize, String)> = Vec::new();
    for &(label, kind, attackers, threads) in &cells {
        let mut events = 0u64;
        let mut ns: Vec<f64> = Vec::new();
        let mut report_json = String::new();
        for _ in 0..engine_reps {
            let cfg = engine_cfg(kind, attackers, engine_ps);
            let mut sim = Simulator::with_threads(cfg, threads.max(1));
            let start = Instant::now();
            let report = sim.run();
            ns.push(start.elapsed().as_nanos() as f64);
            report_json = report.to_json().to_string();
            std::hint::black_box(report);
            events = sim.events_processed(); // identical every rep (determinism)
        }
        if threads == 0 {
            serial_reports.push((kind, attackers, report_json));
        } else {
            let (_, _, serial) = serial_reports
                .iter()
                .find(|(k, a, _)| *k == kind && *a == attackers)
                .expect("parallel cells follow their serial counterpart");
            assert_eq!(
                serial, &report_json,
                "{label}: sharded engine report diverged from serial"
            );
        }
        engine_events.push(events);
        harness
            .group("engine")
            .throughput_bytes(events)
            .record(label, &ns);
    }

    // ---- acceptance gate: calendar ≥ heap on the hold workload ----
    // Median *paired* ratio (calendar / heap within each sample pair),
    // with the smoke bars widened: 5-sample 2 ms windows gate structure,
    // not 5 %-level perf claims. The disjunction covers throttle noise: a
    // genuinely slower calendar queue would both push the median past the
    // bar and never win a paired sample.
    let (med_bar, best_bar) = if smoke { (1.25, 1.10) } else { (1.05, 1.00) };
    let mut ratios: Vec<f64> = sample_ns[0]
        .iter()
        .zip(&sample_ns[1])
        .map(|(c, h)| c / h)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (med, best) = (ratios[ratios.len() / 2], ratios[0]);
    assert!(
        med <= med_bar || best <= best_bar,
        "calendar queue must keep pace with the compact-key heap \
         (median paired ratio {med:.3}, best {best:.3})"
    );
    println!(
        "\nOK: calendar queue holds against the heap baseline \
         (median paired ratio {med:.3}, best {best:.3})."
    );

    let path = harness
        .write_json(
            "sim_engine",
            "sim_engine",
            seed,
            Json::obj([
                ("arms", Json::arr(ARMS.iter().map(|a| a.to_json()))),
                ("prefill", (prefill_n as u64).to_json()),
                ("steps", (steps as u64).to_json()),
                ("scheduler_ops", total_ops.to_json()),
                (
                    "engine_cells",
                    Json::arr(cells.iter().map(|&(l, _, _, _)| l.to_json())),
                ),
                (
                    "engine_threads",
                    Json::arr(cells.iter().map(|&(_, _, _, t)| (t as u64).to_json())),
                ),
                (
                    "engine_events",
                    Json::arr(engine_events.iter().map(|&e| e.to_json())),
                ),
                ("engine_duration_ps", engine_ps.to_json()),
                ("smoke", smoke.to_json()),
            ]),
        )
        .expect("write BENCH_sim_engine.json");
    println!("wrote {}", path.display());
}
