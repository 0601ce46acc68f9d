#!/usr/bin/env bash
# Offline CI gate: the workspace must build, test, format and lint with an
# empty registry (dependency-zero policy — see DESIGN.md "External crates").
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, offline) =="
cargo build --release --offline

echo "== test (offline) =="
cargo test -q --offline

echo "== fmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# Golden legs: the --smoke JSON of fig1 and of each co-simulation figure
# is its behavioural contract. The run-vs-run diffs only catch
# nondeterminism; the diffs against tests/golden/*_smoke.json also catch a
# deterministic behaviour change. A deliberate change regenerates the
# golden in the same commit.
echo "== fig_replay smoke (twice: results must be byte-identical) =="
cargo run -q --release --offline -p bench --bin fig_replay -- --smoke
mv BENCH_fig_replay.json BENCH_fig_replay.first.json
cargo run -q --release --offline -p bench --bin fig_replay -- --smoke
diff BENCH_fig_replay.first.json BENCH_fig_replay.json
rm BENCH_fig_replay.first.json
echo "== fig_replay smoke vs golden (behaviour pinned to tests/golden) =="
diff tests/golden/fig_replay_smoke.json BENCH_fig_replay.json

echo "== mac_table4 smoke (twice: structure must be stable, asserts must hold) =="
# The binary's own acceptance asserts gate the streaming-vs-one-shot
# equivalence and throughput; across runs the numbers move with the
# clock, so compare the *structure* with numerics normalized away.
cargo run -q --release --offline -p bench --bin mac_table4 -- --smoke
mv BENCH_mac_throughput.json BENCH_mac_throughput.first.json
cargo run -q --release --offline -p bench --bin mac_table4 -- --smoke
normalize_numbers() { sed -E 's/-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?/N/g' "$1"; }
diff <(normalize_numbers BENCH_mac_throughput.first.json) \
     <(normalize_numbers BENCH_mac_throughput.json)
rm BENCH_mac_throughput.first.json

echo "== mac_table4 smoke with IB_SIMD=off (scalar fallback: structure must match) =="
# The dispatched kernels must be observationally interchangeable with
# the scalar fallback: forcing IB_SIMD=off flips only numbers (timings,
# speedup ratios, the simd_active flag), never the document structure,
# the rows emitted, or which in-binary asserts run. The binary's own
# equivalence gates re-run under the fallback too, so this leg also
# proves the scalar path *passes* them byte-identically.
mv BENCH_mac_throughput.json BENCH_mac_throughput.simd.json
IB_SIMD=off cargo run -q --release --offline -p bench --bin mac_table4 -- --smoke
diff <(normalize_numbers BENCH_mac_throughput.simd.json) \
     <(normalize_numbers BENCH_mac_throughput.json)
rm BENCH_mac_throughput.simd.json

echo "== fig1 smoke (twice: results must be byte-identical) =="
# The scheduler/arena determinism gate: a calendar-queue or packet-arena
# bug that perturbs event order changes the averaged figure rows, so two
# same-seed runs diverging fails CI immediately.
cargo run -q --release --offline -p bench --bin fig1 -- --smoke
mv BENCH_fig1.json BENCH_fig1.first.json
cargo run -q --release --offline -p bench --bin fig1 -- --smoke
diff BENCH_fig1.first.json BENCH_fig1.json
rm BENCH_fig1.first.json
echo "== fig1 smoke vs golden (behaviour pinned to tests/golden) =="
diff tests/golden/fig1_smoke.json BENCH_fig1.json

echo "== fig_rdma smoke (twice: results must be byte-identical) =="
# The transport-over-fabric gate: SEND / RDMA WRITE / RDMA READ across
# the attacked mesh. The binary's own asserts require 100% delivery,
# zero admitted replays, and selective-repeat >= go-back-N goodput under
# loss; the byte-diff pins the whole co-simulation (endpoints + fabric
# event order) to the seed.
cargo run -q --release --offline -p bench --bin fig_rdma -- --smoke
mv BENCH_fig_rdma.json BENCH_fig_rdma.first.json
cargo run -q --release --offline -p bench --bin fig_rdma -- --smoke
diff BENCH_fig_rdma.first.json BENCH_fig_rdma.json
rm BENCH_fig_rdma.first.json
echo "== fig_rdma smoke vs golden (behaviour pinned to tests/golden) =="
diff tests/golden/fig_rdma_smoke.json BENCH_fig_rdma.json

echo "== fig_rekey smoke (twice: results must be byte-identical) =="
# The key-plane gate: RC fleets under epoch rotation and leader failover.
# The binary's own asserts require 100% eventual delivery in every arm,
# zero stale-epoch admissions, epoch-layer rejections on rotating arms,
# and a successor that re-keys after the leader kill; the byte-diff pins
# the replica election and MAD exchange to the seed.
cargo run -q --release --offline -p bench --bin fig_rekey -- --smoke
mv BENCH_fig_rekey.json BENCH_fig_rekey.first.json
cargo run -q --release --offline -p bench --bin fig_rekey -- --smoke
diff BENCH_fig_rekey.first.json BENCH_fig_rekey.json
rm BENCH_fig_rekey.first.json
echo "== fig_rekey smoke vs golden (behaviour pinned to tests/golden) =="
diff tests/golden/fig_rekey_smoke.json BENCH_fig_rekey.json

echo "== fig_scale smoke (twice: results must be byte-identical) =="
# The scale-out gate: generated fat-tree/dragonfly fabrics, multi-path
# routing, packet vs flow-level engines. The binary's own asserts require
# every flow to complete on every fabric (a routing or dateline-VC bug
# deadlocks or strands flows) and the two engines to agree on the
# calibration mesh; the byte-diff pins topology generation, ECMP hashing
# and the max-min solver to the seed (wall-clock fields are zeroed in
# smoke mode so the diff can hold).
cargo run -q --release --offline -p bench --bin fig_scale -- --smoke
mv BENCH_fig_scale.json BENCH_fig_scale.first.json
cargo run -q --release --offline -p bench --bin fig_scale -- --smoke
diff BENCH_fig_scale.first.json BENCH_fig_scale.json
rm BENCH_fig_scale.first.json

echo "== parallel engine vs serial (fig1 smoke at IB_THREADS=2 and 4) =="
# The sharded-engine gate: the same figure computed by the serial loop
# and by the windowed run (IB_ENGINE=par runs each run_many cell through
# ib_sim::Simulator::with_threads at IB_THREADS workers; one thread would
# be the serial loop again) must be byte-identical at every thread count
# — any divergence in cross-domain merge order, RNG decomposition or
# stats merging shows up here.
cargo run -q --release --offline -p bench --bin fig1 -- --smoke
mv BENCH_fig1.json BENCH_fig1.serial.json
IB_ENGINE=par IB_THREADS=2 cargo run -q --release --offline -p bench --bin fig1 -- --smoke
diff BENCH_fig1.serial.json BENCH_fig1.json
IB_ENGINE=par IB_THREADS=4 cargo run -q --release --offline -p bench --bin fig1 -- --smoke
diff BENCH_fig1.serial.json BENCH_fig1.json
rm BENCH_fig1.serial.json

echo "== parallel engine vs serial (fig_scale smoke at IB_THREADS=1 and 4) =="
# fig_scale runs every packet arm through both engines and asserts
# identical completions, event counts and arena high-waters in-binary;
# across the two IB_THREADS runs the only JSON deltas allowed are the
# recorded thread axis itself, which the filter strips.
IB_THREADS=1 cargo run -q --release --offline -p bench --bin fig_scale -- --smoke
mv BENCH_fig_scale.json BENCH_fig_scale.t1.json
IB_THREADS=4 cargo run -q --release --offline -p bench --bin fig_scale -- --smoke
strip_thread_axis() {
  sed -E 's/"threads":\[?[0-9]+\]?,//g; s/"ib_threads_env":("[^"]*"|null),//g' "$1"
}
diff <(strip_thread_axis BENCH_fig_scale.t1.json) \
     <(strip_thread_axis BENCH_fig_scale.json)
rm BENCH_fig_scale.t1.json

echo "== sim_engine smoke (scheduler equivalence + calendar-vs-heap gate) =="
# The binary's own asserts gate (a) both scheduler arms (calendar queue and
# compact-key heap) popping the identical event stream and (b) the calendar
# queue keeping pace with the compact-key heap on the hold-model workload.
cargo run -q --release --offline -p bench --bin sim_engine -- --smoke

echo "== jsonck: emitted results parse back through ib_runtime::json =="
cargo run -q --release --offline -p bench --bin jsonck -- BENCH_*.json

echo "CI OK"
