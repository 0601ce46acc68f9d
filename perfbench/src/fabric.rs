//! The bulk fat-tree fabric: one partition, no attacker, no crypto, and a
//! seeded derangement of 64 KiB flows, run on the serial `Simulator` and
//! on `ParSimulator`. Every run must agree with the serial run on every
//! completion time, the event count and the packet high-water mark.

use std::time::Instant;

use ib_runtime::{Rng, Seed};
use ib_sim::{ParSimulator, SimConfig, SimTime, Simulator, TopoSpec};

use crate::trace::Tracer;
use crate::Outcome;

pub const FLOW_BYTES: u64 = 64 * 1024;

/// Simulated results one engine run must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub completions_ps: Vec<SimTime>,
    pub events: u64,
    pub peak_packets: u64,
}

impl Fingerprint {
    pub fn makespan_us(&self) -> f64 {
        self.completions_ps.iter().copied().max().unwrap_or(0) as f64 / 1e6
    }

    /// Nearest-rank p99 of flow completion times, µs.
    pub fn fct_p99_us(&self) -> f64 {
        let mut v = self.completions_ps.clone();
        v.sort_unstable();
        crate::stats::nearest_rank(&v, 0.99).map_or(0.0, |p| p as f64 / 1e6)
    }
}

/// Construction and run time of one engine run.
pub struct Timing {
    pub new_s: f64,
    pub run_s: f64,
}

/// Host timings of one iteration: a serial run (when asked for) and a
/// sharded run.
pub struct Iteration {
    pub serial: Option<Timing>,
    pub par: Timing,
    pub num_domains: usize,
    pub events: u64,
}

pub struct Fabric {
    cfg: SimConfig,
    flows: Vec<(usize, usize)>,
    threads: usize,
    /// The first run's fingerprint (the serial one when it ran); later
    /// runs must match it.
    pub fingerprint: Option<Fingerprint>,
}

/// Node `i` sends one flow to `perm[i]`, a seeded permutation with no
/// fixed point.
fn derangement(n: usize, seed: Seed) -> Vec<(usize, usize)> {
    let mut rng = Rng::from_seed(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    for i in 0..n {
        if perm[i] == i {
            perm.swap(i, (i + 1) % n);
        }
    }
    perm.into_iter().enumerate().collect()
}

fn completions(flows: &[ib_sim::engine::FlowRecord]) -> Vec<SimTime> {
    flows
        .iter()
        .map(|f| f.completed_at.unwrap_or(SimTime::MAX))
        .collect()
}

impl Fabric {
    pub fn new(k: usize, seed: Seed, threads: usize) -> Fabric {
        // One partition so flows pass the receive-side P_Key check; the
        // derangement is the only load.
        let mut cfg = SimConfig {
            topology: TopoSpec::FatTree { k },
            num_partitions: 1,
            seed: seed.stream(10),
            ..SimConfig::default()
        };
        cfg.traffic.realtime_load = 0.0;
        cfg.traffic.best_effort_load = 0.0;
        let flows = derangement(cfg.num_nodes(), seed.stream(11));
        Fabric {
            cfg,
            flows,
            threads,
            fingerprint: None,
        }
    }

    /// Count the iteration's flows against this iteration's serial run,
    /// or else the process's first run. A flow fails if it did not
    /// complete, or if the sharded run or the first run disagrees on its
    /// completion time; a disagreement in the event count or the packet
    /// high-water mark fails every flow.
    fn check(&mut self, serial: Option<Fingerprint>, sharded: &Fingerprint, out: &mut Outcome) {
        let first = &*self
            .fingerprint
            .get_or_insert_with(|| serial.clone().unwrap_or_else(|| sharded.clone()));
        let reference = serial.as_ref().unwrap_or(first);
        let n = reference.completions_ps.len();
        let global = [sharded, first]
            .iter()
            .all(|o| o.events == reference.events && o.peak_packets == reference.peak_packets);
        let bad = if global {
            (0..n)
                .filter(|&i| {
                    let c = reference.completions_ps[i];
                    c == SimTime::MAX
                        || sharded.completions_ps[i] != c
                        || first.completions_ps[i] != c
                })
                .count()
        } else {
            n
        };
        out.attempted += n as u64;
        out.fail_n(bad as u64, || {
            format!(
                "fabric: {bad} of {n} flows failed; events serial {} sharded {} first {}, \
                 peak serial {} sharded {} first {}",
                reference.events,
                sharded.events,
                first.events,
                reference.peak_packets,
                sharded.peak_packets,
                first.peak_packets
            )
        });
    }

    /// One serial run when `with_serial`, then one sharded run, checked
    /// as above.
    pub fn iteration(
        &mut self,
        with_serial: bool,
        tr: &mut Tracer,
        out: &mut Outcome,
        id: u64,
    ) -> Iteration {
        let envelope = tr.begin("bench", "fabric.iteration", id);
        let mut serial = None;
        let mut serial_timing = None;
        if with_serial {
            let t = Instant::now();
            let s = tr.begin("ib-sim", "ib-sim.new", id);
            let mut sim = Simulator::new(self.cfg.clone());
            for &(src, dst) in &self.flows {
                sim.post_flow(src, dst, FLOW_BYTES);
            }
            tr.end(s);
            let new_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            tr.span("ib-sim", "ib-sim.serial.run", id, || {
                sim.run_hosts_until(SimTime::MAX)
            });
            serial_timing = Some(Timing {
                new_s,
                run_s: t.elapsed().as_secs_f64(),
            });
            serial = Some(Fingerprint {
                completions_ps: completions(sim.flows()),
                events: sim.events_processed(),
                peak_packets: sim.peak_packets() as u64,
            });
        }

        let t = Instant::now();
        let s = tr.begin("ib-sim", "ib-sim.par.new", id);
        let mut par = ParSimulator::with_threads(self.cfg.clone(), self.threads);
        for &(src, dst) in &self.flows {
            par.post_flow(src, dst, FLOW_BYTES);
        }
        tr.end(s);
        let new_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        tr.span("ib-sim", "ib-sim.par.run", id, || par.run());
        let par_timing = Timing {
            new_s,
            run_s: t.elapsed().as_secs_f64(),
        };
        let sharded = Fingerprint {
            completions_ps: completions(par.flows()),
            events: par.events_processed(),
            peak_packets: par.peak_packets() as u64,
        };
        let num_domains = par.num_domains();
        drop(par);
        let events = sharded.events;
        self.check(serial, &sharded, out);
        tr.end(envelope);
        Iteration {
            serial: serial_timing,
            par: par_timing,
            num_domains,
            events,
        }
    }
}
