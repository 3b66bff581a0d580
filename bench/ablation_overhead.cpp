// Sampler-overhead ablation: BENCH_overhead.json (docs/PERF.md "Telemetry
// journal", docs/RUNTIME.md "Adaptive sampling").
//
// Measures what the telemetry journal buys: the per-epoch cost of
// EpochSampler::on_phase — the delta read + subsampling work charged
// between phases — which sums only the buffers journaled since its last
// read, against a baseline that does what the sampler did before the
// journal: merge every thread's full counter vector
// (ExecutionContext::merged_buffer_traffic) and diff the whole buffer
// range. The workload is shaped to make the difference structural, not
// incidental: a wide buffer population (16384) of which each phase touches
// a sliding 64-buffer window, partitioned across 16 threads the way phase
// kernels partition their working set — so the baseline scans 16384 x 16
// counter rows per epoch while the sampler sums the ~64 journaled buffers.
//
//   overhead   sampler and baseline read the same window workload after
//              every phase; each one's cost is accumulated wall time around
//              its read (min of 3 reps); both must emit identical epoch
//              streams.
//   decisions  the phase-flip policy workload of bench/ablation_runtime;
//              its decision log must keep the byte count and FNV-1a digest
//              recorded before the journal replaced the telemetry rings
//              (the transport changes WHERE counters flow, never a bit of
//              WHAT the policy sees).
//   adaptive   the overhead controller under a deterministic cost model
//              (cost fraction 0.04 / period): the effective period walks
//              1 -> 2 -> 4 and parks in the deadband; a trace/2 recording
//              of an adaptive run replays to a byte-identical decision log.
//
// Gates (--check exits 1 when any fails):
//   speedup    the sampler's mean cost per epoch undercuts the full-merge
//              baseline by >= 10x at 16 threads;
//   identical  sampler and baseline emit the same epochs (count, samples,
//              bytes) and the flip decision log matches its recorded digest;
//   adaptive   period trajectory is monotone non-decreasing under sustained
//              pressure, parks within [floor, max], and the terminal period
//              satisfies the budget under the cost model;
//   replay     live adaptive decision log == trace/2 replay decision log.
//
// Usage: ablation_overhead [--out FILE] [--check]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/simmem/array.hpp"
#include "hetmem/simmem/exec.hpp"
#include "hetmem/support/line_codec.hpp"
#include "hetmem/trace/trace.hpp"

namespace {

using namespace hetmem;
using support::kGiB;
using support::kMiB;

constexpr unsigned kThreads = 16;
constexpr std::size_t kBuffers = 16384;
constexpr std::size_t kWindow = 64;
constexpr unsigned kPhases = 150;
constexpr std::uint64_t kSmallBuffer = 64 * 1024;
constexpr int kReps = 3;

support::Bitmap first_initiator(const topo::Topology& topology) {
  for (const topo::Object* node : topology.numa_nodes()) {
    if (!node->cpuset().empty()) return node->cpuset();
  }
  return {};
}

unsigned best_target(const bench::Testbed& bed, attr::AttrId attribute) {
  const auto ranked = bed.registry->targets_ranked(
      attribute,
      attr::Initiator::from_cpuset(first_initiator(bed.topology())));
  return ranked.empty() ? 0 : ranked.front().target->logical_index();
}

// --- overhead section -----------------------------------------------------

/// Digest of an emitted epoch stream; equal digests over exact (period 1)
/// sampling mean equal streams for this workload (sample counts and the
/// exact double sums both match bit for bit).
struct EpochDigest {
  std::uint64_t epochs = 0;
  std::uint64_t samples = 0;
  double total_bytes = 0.0;

  bool operator==(const EpochDigest&) const = default;
};

/// The pre-journal sampler's read: merge every thread's full counter vector,
/// then diff the whole buffer range against the counters last emitted, with
/// the sampler's inclusion rule.
class FullMergeBaseline {
 public:
  /// Reads one exact epoch and returns its (samples, total_memory_bytes).
  std::pair<std::uint64_t, double> read(const sim::ExecutionContext& exec) {
    const std::vector<sim::BufferTraffic> merged = exec.merged_buffer_traffic();
    if (snapshot_.size() < merged.size()) snapshot_.resize(merged.size());
    std::uint64_t samples = 0;
    double total_bytes = 0.0;
    for (std::size_t index = 0; index < merged.size(); ++index) {
      const sim::BufferTraffic& now = merged[index];
      const sim::BufferTraffic& then = snapshot_[index];
      const double reads = now.reads - then.reads;
      const double writes = now.writes - then.writes;
      const double memory_bytes = now.memory_bytes - then.memory_bytes;
      if (!(reads > 0.0 || writes > 0.0 || memory_bytes > 0.0)) continue;
      snapshot_[index] = now;
      ++samples;
      total_bytes += memory_bytes;
    }
    return {samples, total_bytes};
  }

 private:
  std::vector<sim::BufferTraffic> snapshot_;
};

struct OverheadRun {
  double sampler_ns_total = 0.0;
  double baseline_ns_total = 0.0;
  EpochDigest sampler;
  EpochDigest baseline;
};

double elapsed_ns(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Runs the sliding-window workload once; after every phase the sampler
/// and then the baseline read the epoch, each under its own timer.
OverheadRun run_window_workload() {
  OverheadRun run;
  sim::SimMachine machine(topo::xeon_clx_1lm());
  const support::Bitmap initiator = first_initiator(machine.topology());

  std::vector<sim::Array<double>> arrays;
  arrays.reserve(kBuffers);
  for (std::size_t index = 0; index < kBuffers; ++index) {
    auto buffer = machine.allocate(kSmallBuffer, 0, "window.buf", 4096);
    if (!buffer.ok()) return run;
    arrays.emplace_back(machine, *buffer);
  }

  sim::ExecutionContext exec(machine, initiator, kThreads);
  runtime::EpochSampler sampler;  // defaults: one phase per epoch, exact
  FullMergeBaseline baseline;

  // Initialization pass: touch every buffer once so each thread's counter
  // vector spans the whole population (as after any real init sweep), then
  // consume the epoch untimed — we measure the steady state, where the
  // window workload dirties 64 buffers per epoch out of 16384.
  exec.run_phase("init", kBuffers,
                 [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                     std::size_t end) {
                   for (std::size_t slot = begin; slot < end; ++slot) {
                     arrays[slot].record_bulk_read(ctx, 64.0);
                   }
                 });
  (void)sampler.on_phase(exec);
  (void)baseline.read(exec);

  for (unsigned phase = 0; phase < kPhases; ++phase) {
    const std::size_t base =
        (static_cast<std::size_t>(phase) * 17) % (kBuffers - kWindow);
    exec.run_phase("window", kWindow,
                   [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     for (std::size_t slot = begin; slot < end; ++slot) {
                       arrays[base + slot].record_bulk_read(ctx, 4096.0);
                     }
                   });
    auto start = std::chrono::steady_clock::now();
    std::optional<runtime::Epoch> epoch = sampler.on_phase(exec);
    run.sampler_ns_total += elapsed_ns(start);
    if (epoch.has_value()) {
      ++run.sampler.epochs;
      run.sampler.samples += epoch->samples.size();
      run.sampler.total_bytes += epoch->total_memory_bytes;
    }

    start = std::chrono::steady_clock::now();
    const auto [samples, total_bytes] = baseline.read(exec);
    run.baseline_ns_total += elapsed_ns(start);
    ++run.baseline.epochs;
    run.baseline.samples += samples;
    run.baseline.total_bytes += total_bytes;
  }
  return run;
}

struct OverheadResult {
  double sampler_ns_per_epoch = 0.0;
  double baseline_ns_per_epoch = 0.0;
  double speedup = 0.0;
  bool digests_equal = false;
};

OverheadResult run_overhead_section() {
  OverheadResult result;
  double best_sampler = 0.0;
  double best_baseline = 0.0;
  bool digests_equal = true;
  for (int rep = 0; rep < kReps; ++rep) {
    const OverheadRun run = run_window_workload();
    if (rep == 0 || run.sampler_ns_total < best_sampler) {
      best_sampler = run.sampler_ns_total;
    }
    if (rep == 0 || run.baseline_ns_total < best_baseline) {
      best_baseline = run.baseline_ns_total;
    }
    digests_equal = digests_equal && run.sampler == run.baseline &&
                    run.sampler.epochs == kPhases;
  }
  result.sampler_ns_per_epoch = best_sampler / kPhases;
  result.baseline_ns_per_epoch = best_baseline / kPhases;
  result.speedup = result.sampler_ns_per_epoch > 0.0
                       ? result.baseline_ns_per_epoch / result.sampler_ns_per_epoch
                       : 0.0;
  result.digests_equal = digests_equal;
  return result;
}

// --- decision-digest section ----------------------------------------------

constexpr unsigned kFlipThreads = 4;
constexpr unsigned kPhasesPerPart = 24;
constexpr std::uint64_t kBufferBytes = 1 * kGiB;
constexpr std::uint64_t kFastHeadroom = kBufferBytes + kBufferBytes / 2;
// The flip workload's decision log as the telemetry-ring transport wrote
// it, which the journal must reproduce byte for byte.
constexpr std::size_t kFlipLogBytes = 377;
constexpr std::uint64_t kFlipLogFnv1a64 = 0xbb6b8e3b27ae57cbull;

runtime::RuntimePolicyOptions flip_options() {
  runtime::RuntimePolicyOptions options;
  options.classifier.ema_alpha = 0.85;
  options.classifier.hysteresis_epochs = 2;
  options.engine.expected_future_epochs = 50.0;
  return options;
}

struct FlipRun {
  bool ok = false;
  std::string decision_log;
  std::vector<double> periods;
  trace::Trace trace;  // only filled when `record`
};

/// The ablation_runtime phase-flip workload: stream S then chase R, both
/// starting on the capacity target with fast memory squeezed to one slot.
FlipRun run_flip(runtime::RuntimePolicyOptions options, bool record) {
  FlipRun run;
  bench::Testbed bed = bench::make_xeon();
  const support::Bitmap initiator = first_initiator(bed.topology());
  const unsigned fast = best_target(bed, attr::kBandwidth);
  const unsigned slow = best_target(bed, attr::kCapacity);

  const std::uint64_t fast_free = bed.machine->available_bytes(fast);
  if (fast_free > kFastHeadroom) {
    auto hog = bed.machine->allocate(fast_free - kFastHeadroom, fast,
                                     "resident.hog", 4096);
    if (!hog.ok()) return run;
  }
  auto streamed =
      bed.machine->allocate(kBufferBytes, slow, "flip.stream", 1u << 16);
  auto chased =
      bed.machine->allocate(kBufferBytes, slow, "flip.random", 1u << 16);
  if (!streamed.ok() || !chased.ok()) return run;

  sim::Array<double> stream_array(*bed.machine, *streamed);
  sim::Array<double> chase_array(*bed.machine, *chased);
  sim::ExecutionContext exec(*bed.machine, initiator, kFlipThreads);

  runtime::RuntimePolicy policy(*bed.allocator, initiator, options);
  trace::TraceRecorder recorder({.workload = "overhead.flip"});
  const auto refresh = [&] {
    stream_array.refresh_model();
    chase_array.refresh_model();
  };
  if (record) {
    policy.attach(exec, refresh);  // installs post_migration, then replaced:
    recorder.attach(exec, &policy);
  } else {
    policy.attach(exec, refresh);
  }

  for (unsigned phase = 0; phase < kPhasesPerPart; ++phase) {
    exec.run_phase("part1.stream", kFlipThreads,
                   [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     if (begin >= end) return;
                     stream_array.record_bulk_read(ctx, 512.0 * kMiB);
                   });
  }
  for (unsigned phase = 0; phase < kPhasesPerPart; ++phase) {
    exec.run_phase("part2.random", kFlipThreads,
                   [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     if (begin >= end) return;
                     chase_array.record_bulk_random_reads(ctx, 4e6);
                   });
  }

  run.ok = true;
  run.decision_log = policy.render_decision_log();
  run.periods = policy.sampler().period_log();
  if (record) run.trace = recorder.trace();
  return run;
}

/// Replays `recorded` on a freshly prepared identical testbed and returns
/// the replay policy's decision log.
std::string replay_decision_log(const trace::Trace& recorded,
                                runtime::RuntimePolicyOptions options) {
  bench::Testbed bed = bench::make_xeon();
  const support::Bitmap initiator = first_initiator(bed.topology());
  const unsigned fast = best_target(bed, attr::kBandwidth);
  const unsigned slow = best_target(bed, attr::kCapacity);
  const std::uint64_t fast_free = bed.machine->available_bytes(fast);
  if (fast_free > kFastHeadroom) {
    auto hog = bed.machine->allocate(fast_free - kFastHeadroom, fast,
                                     "resident.hog", 4096);
    if (!hog.ok()) return {};
  }
  auto streamed =
      bed.machine->allocate(kBufferBytes, slow, "flip.stream", 1u << 16);
  auto chased =
      bed.machine->allocate(kBufferBytes, slow, "flip.random", 1u << 16);
  if (!streamed.ok() || !chased.ok()) return {};

  runtime::RuntimePolicy policy(*bed.allocator, initiator, options);
  trace::TraceReplayer replayer(policy);
  (void)replayer.replay(recorded);
  return policy.render_decision_log();
}

// --- adaptive section -----------------------------------------------------

/// Deterministic sampler-cost model: fraction of epoch duration = 0.04 /
/// period, so the controller doubles 1 -> 2 -> 4 and parks (0.01 is inside
/// the [budget/4, budget] deadband at period 4).
double modeled_cost(const runtime::Epoch& epoch) {
  return epoch.duration_ns * 0.04 /
         (epoch.sample_period > 0.0 ? epoch.sample_period : 1.0);
}

runtime::RuntimePolicyOptions adaptive_options() {
  runtime::RuntimePolicyOptions options = flip_options();
  options.sampler.adaptive = true;
  options.sampler.cost_model = modeled_cost;
  return options;
}

struct AdaptiveResult {
  bool ok = false;
  std::vector<double> periods;
  bool monotone = true;
  bool clamped = true;
  bool budget_met = false;
  bool replay_identical = false;
};

AdaptiveResult run_adaptive_section() {
  AdaptiveResult result;
  FlipRun live = run_flip(adaptive_options(), /*record=*/true);
  if (!live.ok) return result;
  result.ok = true;
  result.periods = live.periods;
  for (std::size_t index = 1; index < live.periods.size(); ++index) {
    if (live.periods[index] < live.periods[index - 1]) result.monotone = false;
  }
  const runtime::SamplerOptions sampler = adaptive_options().sampler;
  for (double period : live.periods) {
    if (period < sampler.sample_period || period > sampler.max_sample_period) {
      result.clamped = false;
    }
  }
  if (!live.periods.empty()) {
    const double terminal = live.periods.back();
    result.budget_met = 0.04 / terminal <= sampler.overhead_budget_fraction;
  }

  // Byte-identical live == replay through the serialized trace/2 text.
  const std::string text = trace::serialize(live.trace);
  auto parsed = trace::parse(text);
  if (parsed.ok()) {
    result.replay_identical =
        replay_decision_log(*parsed, adaptive_options()) == live.decision_log &&
        !live.decision_log.empty();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_overhead.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else {
      std::cerr << "usage: ablation_overhead [--out FILE] [--check]\n";
      return 2;
    }
  }

  const OverheadResult overhead = run_overhead_section();

  const FlipRun flip = run_flip(flip_options(), false);
  const std::uint64_t flip_digest = support::fnv1a64(flip.decision_log);
  char flip_digest_hex[17];
  std::snprintf(flip_digest_hex, sizeof flip_digest_hex, "%016llx",
                static_cast<unsigned long long>(flip_digest));
  const bool decisions_identical = flip.ok &&
                                   flip.decision_log.size() == kFlipLogBytes &&
                                   flip_digest == kFlipLogFnv1a64;

  const AdaptiveResult adaptive = run_adaptive_section();

  const bool speedup_ok = overhead.speedup >= 10.0;
  const bool identical_ok = overhead.digests_equal && decisions_identical;
  const bool adaptive_ok = adaptive.ok && adaptive.monotone &&
                           adaptive.clamped && adaptive.budget_met &&
                           adaptive.periods.size() >= 2;
  const bool replay_ok = adaptive.replay_identical;

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 2;
  }
  bench::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("hetmem.bench.overhead/2");
  json.key("fixture").value("xeon_clx_1lm");
  json.key("overhead").begin_object();
  json.key("threads").value(kThreads);
  json.key("buffers").value(static_cast<std::uint64_t>(kBuffers));
  json.key("window").value(static_cast<std::uint64_t>(kWindow));
  json.key("epochs").value(kPhases);
  json.key("sampler_ns_per_epoch").value(overhead.sampler_ns_per_epoch);
  json.key("full_merge_ns_per_epoch").value(overhead.baseline_ns_per_epoch);
  json.key("speedup").value(overhead.speedup);
  json.key("epoch_streams_identical").value(overhead.digests_equal);
  json.end_object();
  json.key("decisions").begin_object();
  json.key("log_bytes").value(
      static_cast<std::uint64_t>(flip.decision_log.size()));
  json.key("log_fnv1a64").value(flip_digest_hex);
  json.key("matches_recorded").value(decisions_identical);
  json.end_object();
  json.key("adaptive").begin_object();
  json.key("periods").begin_array();
  for (double period : adaptive.periods) json.value(period);
  json.end_array();
  json.key("monotone").value(adaptive.monotone);
  json.key("clamped").value(adaptive.clamped);
  json.key("budget_met").value(adaptive.budget_met);
  json.key("replay_identical").value(adaptive.replay_identical);
  json.end_object();
  json.key("gates").begin_object();
  json.key("speedup").value(speedup_ok);
  json.key("identical").value(identical_ok);
  json.key("adaptive").value(adaptive_ok);
  json.key("replay").value(replay_ok);
  json.end_object();
  json.end_object();
  out << '\n';

  std::printf("sampler overhead at %u threads, %zu buffers (window %zu):\n",
              kThreads, kBuffers, kWindow);
  std::printf("  journal    %.0f ns/epoch\n  full merge %.0f ns/epoch\n"
              "  speedup %.1fx [%s]\n",
              overhead.sampler_ns_per_epoch, overhead.baseline_ns_per_epoch,
              overhead.speedup, speedup_ok ? "PASS: >= 10x" : "FAIL: < 10x");
  std::printf("epoch streams identical: %s; flip decision log %zu B, "
              "fnv1a64 %s, matches recorded: %s [%s]\n",
              overhead.digests_equal ? "yes" : "NO", flip.decision_log.size(),
              flip_digest_hex,
              decisions_identical ? "yes" : "NO",
              identical_ok ? "PASS" : "FAIL");
  std::printf("adaptive periods:");
  for (double period : adaptive.periods) std::printf(" %g", period);
  std::printf("\n  monotone=%d clamped=%d budget_met=%d [%s]\n",
              adaptive.monotone, adaptive.clamped, adaptive.budget_met,
              adaptive_ok ? "PASS" : "FAIL");
  std::printf("trace/2 live == replay: %s [%s]\n",
              adaptive.replay_identical ? "byte-identical" : "DIVERGED",
              replay_ok ? "PASS" : "FAIL");

  const bool pass = speedup_ok && identical_ok && adaptive_ok && replay_ok;
  std::printf("%s\n", pass ? "ALL GATES PASS"
                           : "GATE VIOLATION (see FAIL lines above)");
  return check && !pass ? 1 : 0;
}
