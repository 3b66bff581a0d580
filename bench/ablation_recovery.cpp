// Crash-resilience ablation (docs/RECOVERY.md): the snapshot/restore layer
// and the supervisor's circuit breakers, exercised end to end against the
// rotation testbed from tests/recover_test.cpp.
//
// Three claims, each a --check gate (exit 1 when any fails):
//   determinism   a run killed at epoch N, snapshotted THROUGH THE TEXT
//                 FORMAT, restored into a fresh identically-prepared
//                 testbed and continued renders a decision log that is
//                 byte-identical to an uninterrupted run's — for the exact,
//                 1/10-subsampled and adaptive-period sampler configs;
//   throughput    daemon-crash model on a live multithreaded workload: the
//                 phases served after crash+restore run at >= 90% of the
//                 uninterrupted run's throughput for the same phases
//                 (restore must not strand hot buffers in slow memory);
//   breaker       with machine.migrate.stall injected at p=1.0 the
//                 migration breaker opens within K failing epochs while
//                 placement-only service keeps emitting epochs, recloses
//                 after the stall clears, and renders the identical breaker
//                 log when the same seed is run twice (x3 seeds).
//
// Usage: ablation_recovery [--out FILE] [--check]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "hetmem/alloc/allocator.hpp"
#include "hetmem/fault/fault.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/memattr/memattr.hpp"
#include "hetmem/recover/snapshot.hpp"
#include "hetmem/recover/supervisor.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/simmem/array.hpp"
#include "hetmem/simmem/exec.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/topo/presets.hpp"
#include "hetmem/trace/trace.hpp"

namespace {

using namespace hetmem;
using support::kGiB;
using support::kMiB;

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kBufferBytes = 1 * kGiB;
constexpr unsigned kTraceEpochs = 32;
constexpr unsigned kPhases = 16;
constexpr unsigned kCrashAfter = 7;

/// Identically-constructible testbed (tests/trace_test.cpp's Scenario):
/// Xeon with squeezed fast memory and three 1 GiB buffers parked on the
/// NVDIMM node — every instance has the same buffer ids, placements and
/// rankings, the precondition for byte-identical continuation.
struct Scenario {
  sim::SimMachine machine;
  attr::MemAttrRegistry registry;
  alloc::HeterogeneousAllocator allocator;
  support::Bitmap initiator;
  unsigned fast = 0;
  unsigned slow = 0;
  std::vector<sim::BufferId> buffers;
  bool ok = false;

  Scenario()
      : machine(topo::xeon_clx_1lm()),
        registry(machine.topology()),
        allocator(machine, registry),
        initiator(machine.topology().numa_node(0)->cpuset()) {
    if (!hmat::load_into(registry, hmat::generate(machine.topology())).ok()) {
      return;
    }
    for (const topo::Object* node : machine.topology().numa_nodes()) {
      if (node->memory_kind() == topo::MemoryKind::kNVDIMM) {
        slow = node->logical_index();
      }
    }
    const std::uint64_t headroom = kBufferBytes + kBufferBytes / 2;
    const std::uint64_t fast_free = machine.available_bytes(fast);
    if (fast_free > headroom) {
      auto hog =
          machine.allocate(fast_free - headroom, fast, "resident.hog", 4096);
      if (!hog.ok()) return;
    }
    for (unsigned i = 0; i < 3; ++i) {
      auto buffer = machine.allocate(kBufferBytes, slow,
                                     "seg" + std::to_string(i), 1u << 16);
      if (!buffer.ok()) return;
      buffers.push_back(*buffer);
    }
    ok = true;
  }
};

runtime::RuntimePolicyOptions scenario_options() {
  runtime::RuntimePolicyOptions options;
  options.classifier.ema_alpha = 0.85;
  options.classifier.hysteresis_epochs = 2;
  options.engine.expected_future_epochs = 50.0;
  // Without a cost model the sampler times itself on the host clock, and
  // that reading lands in every snapshot. A zero model keeps the snapshot
  // the same on every run; the sampler is not adaptive, so no decision
  // reads it.
  options.sampler.cost_model = [](const runtime::Epoch&) { return 0.0; };
  return options;
}

trace::Trace rotation_trace(unsigned epochs) {
  Scenario probe;
  trace::SynthOptions synth;
  synth.epochs = epochs;
  return trace::synthesize_rotation(probe.buffers, 6, 0.002, synth);
}

trace::Trace slice(const trace::Trace& trace, std::size_t begin,
                   std::size_t end) {
  trace::Trace out = trace;
  out.epochs.assign(trace.epochs.begin() + static_cast<std::ptrdiff_t>(begin),
                    trace.epochs.begin() + static_cast<std::ptrdiff_t>(end));
  return out;
}

// ---------------------------------------------------------------------------
// Gate 1: determinism — kill, restore through text, continue
// ---------------------------------------------------------------------------

struct DeterminismResult {
  std::string config;
  bool setup_ok = false;
  bool log_identical = false;
  bool stats_identical = false;
  std::size_t kill_epoch = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t accepted = 0;
};

DeterminismResult run_determinism(const std::string& config,
                                  const runtime::RuntimePolicyOptions& options,
                                  std::size_t kill_epoch) {
  DeterminismResult result;
  result.config = config;
  result.kill_epoch = kill_epoch;
  const trace::Trace trace = rotation_trace(kTraceEpochs);

  Scenario uninterrupted;
  if (!uninterrupted.ok) return result;
  runtime::RuntimePolicy reference(uninterrupted.allocator,
                                   uninterrupted.initiator, options);
  trace::TraceReplayer ref_replayer(reference);
  (void)ref_replayer.replay(trace);
  const std::string want = reference.render_decision_log();

  // The crashing run: replay the prefix, snapshot, drop everything.
  std::string text;
  {
    Scenario victim;
    if (!victim.ok) return result;
    runtime::RuntimePolicy policy(victim.allocator, victim.initiator, options);
    trace::TraceReplayer replayer(policy);
    (void)replayer.replay(slice(trace, 0, kill_epoch));
    recover::CaptureSources sources;
    sources.machine = &victim.machine;
    sources.allocator = &victim.allocator;
    sources.policy = &policy;
    sources.machine_preset = "xeon_clx_1lm";
    text = recover::serialize(recover::capture(sources));
  }
  result.snapshot_bytes = text.size();

  auto snap = recover::parse(text);
  if (!snap.ok()) return result;
  Scenario restored;
  if (!restored.ok) return result;
  runtime::RuntimePolicy policy(restored.allocator, restored.initiator,
                                options);
  recover::RestoreTargets targets;
  targets.machine = &restored.machine;
  targets.allocator = &restored.allocator;
  targets.policy = &policy;
  if (!recover::restore(*snap, targets).ok()) return result;
  trace::TraceReplayer replayer(policy);
  (void)replayer.replay(slice(trace, kill_epoch, trace.epochs.size()));

  result.setup_ok = true;
  result.log_identical = policy.render_decision_log() == want;
  result.stats_identical =
      policy.engine().stats().accepted == reference.engine().stats().accepted &&
      policy.sampler().epochs_emitted() == reference.sampler().epochs_emitted();
  result.accepted = policy.engine().stats().accepted;
  return result;
}

std::vector<DeterminismResult> run_determinism_suite() {
  std::vector<DeterminismResult> results;
  results.push_back(run_determinism("exact", scenario_options(), 13));

  runtime::RuntimePolicyOptions subsampled = scenario_options();
  subsampled.sampler.sample_period = 10.0;
  results.push_back(run_determinism("subsampled_1_10", subsampled, 11));

  runtime::RuntimePolicyOptions adaptive = scenario_options();
  adaptive.sampler.sample_period = 2.0;
  adaptive.sampler.adaptive = true;
  adaptive.sampler.max_sample_period = 64.0;
  adaptive.sampler.overhead_budget_fraction = 0.01;
  adaptive.sampler.cost_model = [](const runtime::Epoch& epoch) {
    const double period = epoch.sample_period > 0.0 ? epoch.sample_period : 1.0;
    return epoch.duration_ns * 0.04 / period;
  };
  results.push_back(run_determinism("adaptive", adaptive, 9));
  return results;
}

// ---------------------------------------------------------------------------
// Gate 2: throughput — the daemon-crash model
// ---------------------------------------------------------------------------

/// One live multithreaded phase: a streamed scan of seg0 plus dependent
/// random reads of seg1 (the hot pair the policy promotes to fast memory).
double run_one_phase(sim::ExecutionContext& exec, sim::Array<double>& streamed,
                     sim::Array<double>& chased) {
  const sim::PhaseResult& phase = exec.run_phase(
      "serve", kThreads,
      [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin, std::size_t end) {
        if (begin >= end) return;
        streamed.record_bulk_read(ctx, 256.0 * kMiB);
        chased.record_bulk_random_reads(ctx, 1e6);
      });
  return phase.sim_ns;
}

struct ThroughputResult {
  bool ok = false;
  double uninterrupted_tail_ns = 0.0;  // phases [kCrashAfter, kPhases)
  double restored_tail_ns = 0.0;       // same phases, after crash+restore
  double ratio = 0.0;                  // uninterrupted / restored (>= 0.90)
  std::uint64_t snapshot_bytes = 0;
};

ThroughputResult run_throughput() {
  ThroughputResult result;

  // Uninterrupted reference: kPhases live phases, sum the tail.
  {
    Scenario bed;
    if (!bed.ok) return result;
    sim::Array<double> streamed(bed.machine, bed.buffers[0]);
    sim::Array<double> chased(bed.machine, bed.buffers[1]);
    sim::ExecutionContext exec(bed.machine, bed.initiator, kThreads);
    runtime::RuntimePolicy policy(bed.allocator, bed.initiator,
                                  scenario_options());
    policy.attach(exec, [&] {
      streamed.refresh_model();
      chased.refresh_model();
    });
    for (unsigned phase = 0; phase < kPhases; ++phase) {
      const double ns = run_one_phase(exec, streamed, chased);
      if (phase >= kCrashAfter) result.uninterrupted_tail_ns += ns;
    }
  }

  // The daemon: crash after kCrashAfter phases, snapshot between epochs.
  std::string text;
  {
    Scenario victim;
    if (!victim.ok) return result;
    sim::Array<double> streamed(victim.machine, victim.buffers[0]);
    sim::Array<double> chased(victim.machine, victim.buffers[1]);
    sim::ExecutionContext exec(victim.machine, victim.initiator, kThreads);
    runtime::RuntimePolicy policy(victim.allocator, victim.initiator,
                                  scenario_options());
    policy.attach(exec, [&] {
      streamed.refresh_model();
      chased.refresh_model();
    });
    for (unsigned phase = 0; phase < kCrashAfter; ++phase) {
      (void)run_one_phase(exec, streamed, chased);
    }
    recover::CaptureSources sources;
    sources.machine = &victim.machine;
    sources.allocator = &victim.allocator;
    sources.policy = &policy;
    sources.machine_preset = "xeon_clx_1lm";
    text = recover::serialize(recover::capture(sources));
  }
  result.snapshot_bytes = text.size();

  // Restore into a fresh identically-prepared testbed; serve the remaining
  // phases. Restore re-places the buffers (hot segments back in fast
  // memory), so the tail runs at full speed instead of re-learning.
  auto snap = recover::parse(text);
  if (!snap.ok()) return result;
  Scenario restored;
  if (!restored.ok) return result;
  sim::Array<double> streamed(restored.machine, restored.buffers[0]);
  sim::Array<double> chased(restored.machine, restored.buffers[1]);
  sim::ExecutionContext exec(restored.machine, restored.initiator, kThreads);
  runtime::RuntimePolicy policy(restored.allocator, restored.initiator,
                                scenario_options());
  policy.attach(exec, [&] {
    streamed.refresh_model();
    chased.refresh_model();
  });
  recover::RestoreTargets targets;
  targets.machine = &restored.machine;
  targets.allocator = &restored.allocator;
  targets.policy = &policy;
  if (!recover::restore(*snap, targets).ok()) return result;
  // Restore migrated the hot pair back to fast memory underneath the array
  // wrappers — refresh their access models before serving (the same refresh
  // a daemon's reattach hook performs).
  streamed.refresh_model();
  chased.refresh_model();
  for (unsigned phase = kCrashAfter; phase < kPhases; ++phase) {
    result.restored_tail_ns += run_one_phase(exec, streamed, chased);
  }

  // Throughput ratio == inverse time ratio for equal per-phase work.
  result.ratio = result.restored_tail_ns > 0.0
                     ? result.uninterrupted_tail_ns / result.restored_tail_ns
                     : 0.0;
  result.ok = true;
  return result;
}

// ---------------------------------------------------------------------------
// Gate 3: breakers — open under an injected stall, reclose after it clears
// ---------------------------------------------------------------------------

struct BreakerRun {
  bool ok = false;
  std::uint64_t opens = 0;
  std::uint64_t skipped = 0;
  std::uint64_t recloses = 0;
  std::uint64_t engine_failed = 0;
  std::uint64_t epochs_emitted = 0;
  bool closed_at_end = false;
  std::string breaker_log;
};

BreakerRun run_breaker_once(std::uint64_t seed) {
  BreakerRun run;
  Scenario scenario;
  if (!scenario.ok) return run;
  fault::FaultInjector faults(seed);
  scenario.machine.set_fault_injector(&faults);

  runtime::RuntimePolicy policy(scenario.allocator, scenario.initiator,
                                scenario_options());
  recover::SupervisorOptions options;
  options.migration_breaker.failures_to_open = 3;
  options.migration_breaker.successes_to_close = 2;
  options.migration_breaker.cooldown_epochs = 2;
  recover::Supervisor supervisor(&faults, options);
  supervisor.attach(policy);
  trace::TraceReplayer replayer(policy);
  const trace::Trace trace = rotation_trace(48);

  // Wedged migration path for the first 12 epochs...
  fault::FaultSpec stall;
  stall.probability = 1.0;
  faults.configure(fault::site::kMachineMigrateStall, stall);
  (void)replayer.replay(slice(trace, 0, 12));
  // ...then the stall clears and the half-open probes find daylight.
  fault::FaultSpec clear;
  clear.probability = 0.0;
  faults.configure(fault::site::kMachineMigrateStall, clear);
  (void)replayer.replay(slice(trace, 12, 48));

  run.opens = supervisor.migration_breaker().stats().opens;
  run.skipped = supervisor.migration_breaker().stats().skipped;
  run.recloses = supervisor.migration_breaker().stats().recloses;
  run.engine_failed = policy.engine().stats().failed;
  run.epochs_emitted = policy.sampler().epochs_emitted();
  run.closed_at_end =
      supervisor.migration_breaker().state() == recover::BreakerState::kClosed;
  run.breaker_log = supervisor.render_log();
  run.ok = true;
  return run;
}

struct BreakerResult {
  std::uint64_t seed = 0;
  BreakerRun run;
  bool reproducible = false;  // second run with the same seed: same log
  bool pass = false;
};

std::vector<BreakerResult> run_breaker_suite() {
  std::vector<BreakerResult> results;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    BreakerResult result;
    result.seed = seed;
    result.run = run_breaker_once(seed);
    const BreakerRun again = run_breaker_once(seed);
    result.reproducible =
        result.run.ok && again.ok && result.run.breaker_log == again.breaker_log;
    result.pass = result.run.ok && result.run.opens >= 1 &&
                  result.run.skipped > 0 && result.run.engine_failed > 0 &&
                  result.run.recloses >= 1 && result.run.closed_at_end &&
                  result.run.epochs_emitted > 0 && result.reproducible;
    results.push_back(result);
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_recovery.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else {
      std::cerr << "usage: ablation_recovery [--out FILE] [--check]\n";
      return 2;
    }
  }

  const std::vector<DeterminismResult> determinism = run_determinism_suite();
  const ThroughputResult throughput = run_throughput();
  const std::vector<BreakerResult> breakers = run_breaker_suite();

  bool determinism_ok = !determinism.empty();
  for (const DeterminismResult& result : determinism) {
    determinism_ok &=
        result.setup_ok && result.log_identical && result.stats_identical;
  }
  const bool throughput_ok = throughput.ok && throughput.ratio >= 0.90;
  bool breaker_ok = !breakers.empty();
  for (const BreakerResult& result : breakers) breaker_ok &= result.pass;
  const bool all_ok = determinism_ok && throughput_ok && breaker_ok;

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  bench::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("hetmem.bench.recovery/1");
  json.key("config").begin_object();
  json.key("trace_epochs").value(kTraceEpochs);
  json.key("phases").value(kPhases);
  json.key("crash_after_phase").value(kCrashAfter);
  json.key("buffer_bytes").value(static_cast<std::uint64_t>(kBufferBytes));
  json.end_object();
  json.key("determinism").begin_array();
  for (const DeterminismResult& result : determinism) {
    json.begin_object();
    json.key("config").value(result.config);
    json.key("kill_epoch").value(static_cast<std::uint64_t>(result.kill_epoch));
    json.key("snapshot_bytes").value(result.snapshot_bytes);
    json.key("accepted").value(result.accepted);
    json.key("log_identical").value(result.log_identical);
    json.key("stats_identical").value(result.stats_identical);
    json.end_object();
  }
  json.end_array();
  json.key("throughput").begin_object();
  json.key("uninterrupted_tail_ms")
      .value(throughput.uninterrupted_tail_ns / 1e6);
  json.key("restored_tail_ms").value(throughput.restored_tail_ns / 1e6);
  json.key("ratio").value(throughput.ratio);
  json.key("snapshot_bytes").value(throughput.snapshot_bytes);
  json.end_object();
  json.key("breakers").begin_array();
  for (const BreakerResult& result : breakers) {
    json.begin_object();
    json.key("seed").value(result.seed);
    json.key("opens").value(result.run.opens);
    json.key("skipped").value(result.run.skipped);
    json.key("recloses").value(result.run.recloses);
    json.key("engine_failed").value(result.run.engine_failed);
    json.key("epochs_emitted").value(result.run.epochs_emitted);
    json.key("closed_at_end").value(result.run.closed_at_end);
    json.key("reproducible").value(result.reproducible);
    json.end_object();
  }
  json.end_array();
  json.key("gates").begin_object();
  json.key("determinism").value(determinism_ok);
  json.key("throughput").value(throughput_ok);
  json.key("breaker").value(breaker_ok);
  json.key("all").value(all_ok);
  json.end_object();
  json.end_object();
  out << '\n';
  out.close();

  std::cout << "wrote " << out_path << "\n";
  for (const DeterminismResult& result : determinism) {
    std::cout << "determinism[" << result.config << "]: kill@"
              << result.kill_epoch << ", snapshot "
              << support::format_bytes(result.snapshot_bytes) << ", log "
              << (result.log_identical ? "identical" : "DIVERGED")
              << ", stats "
              << (result.stats_identical ? "identical" : "DIVERGED") << "\n";
  }
  std::cout << "throughput: tail "
            << support::format_fixed(throughput.uninterrupted_tail_ns / 1e6, 2)
            << " ms uninterrupted vs "
            << support::format_fixed(throughput.restored_tail_ns / 1e6, 2)
            << " ms after crash+restore -> "
            << support::format_fixed(throughput.ratio * 100.0, 1)
            << "% (floor 90%)\n";
  for (const BreakerResult& result : breakers) {
    std::cout << "breaker seed " << result.seed << ": " << result.run.opens
              << " opens, " << result.run.skipped << " skipped, "
              << result.run.recloses << " recloses, end "
              << (result.run.closed_at_end ? "closed" : "NOT CLOSED")
              << (result.reproducible ? "" : ", NOT REPRODUCIBLE")
              << (result.pass ? "" : " -> FAIL") << "\n";
  }
  std::cout << "gates: determinism " << (determinism_ok ? "ok" : "FAIL")
            << ", throughput " << (throughput_ok ? "ok" : "FAIL")
            << ", breaker " << (breaker_ok ? "ok" : "FAIL") << "\n";
  if (check && !all_ok) return 1;
  return 0;
}
