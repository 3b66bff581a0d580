// Online memory-management runtime: epoch sampling, live reclassification,
// budgeted migration, and the RuntimePolicy façade — including the chaos
// contract (docs/RUNTIME.md): runtime-managed workloads complete with
// validated results under fault injection, and the decision log replays
// byte-identically for a fixed seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/apps/graph500.hpp"
#include "hetmem/apps/stream.hpp"
#include "hetmem/fault/fault.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/probe/probe.hpp"
#include "hetmem/prof/profiler.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/simmem/array.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/topo/presets.hpp"
#include "hetmem/trace/trace.hpp"

namespace hetmem {
namespace {

using support::kGiB;
using support::kMiB;

support::Bitmap first_initiator(const topo::Topology& topology) {
  for (const topo::Object* node : topology.numa_nodes()) {
    if (!node->cpuset().empty()) return node->cpuset();
  }
  return {};
}

/// Synthetic traffic shapes for classifier/engine tests.
sim::BufferTraffic streaming_traffic(double bytes) {
  sim::BufferTraffic traffic;
  traffic.reads = bytes / 64.0;
  traffic.llc_misses = bytes / 64.0;
  traffic.memory_bytes = bytes;
  return traffic;
}

sim::BufferTraffic random_traffic(double misses) {
  sim::BufferTraffic traffic;
  traffic.reads = misses;
  traffic.llc_misses = misses;
  traffic.random_accesses = misses;
  traffic.random_misses = misses;
  traffic.memory_bytes = misses * 64.0;
  return traffic;
}

runtime::ClassifierOptions classifier_options(double alpha,
                                              unsigned hysteresis = 3) {
  runtime::ClassifierOptions options;
  options.ema_alpha = alpha;
  options.hysteresis_epochs = hysteresis;
  return options;
}

/// Hand-built epoch; samples must be given in ascending buffer index.
runtime::Epoch make_epoch(
    std::uint64_t index,
    std::vector<std::pair<std::uint32_t, sim::BufferTraffic>> samples) {
  runtime::Epoch epoch;
  epoch.index = index;
  epoch.duration_ns = 1e9;
  for (auto& [buffer, traffic] : samples) {
    epoch.total_memory_bytes += traffic.memory_bytes;
    epoch.samples.push_back(
        runtime::EpochSample{sim::BufferId{buffer}, traffic});
  }
  return epoch;
}

// ---------------------------------------------------------------------------
// EpochSampler
// ---------------------------------------------------------------------------

class EpochSamplerTest : public ::testing::Test {
 protected:
  EpochSamplerTest() : machine_(topo::xeon_clx_1lm()) {}
  sim::SimMachine machine_;
};

TEST_F(EpochSamplerTest, EmitsDeltasEveryNPhases) {
  auto buffer = machine_.allocate(256 * kMiB, 0, "sampled", 4096);
  ASSERT_TRUE(buffer.ok());
  sim::Array<double> array(machine_, *buffer);
  sim::ExecutionContext exec(machine_, machine_.topology().numa_node(0)->cpuset(),
                             4);

  runtime::EpochSampler sampler({.phases_per_epoch = 2});
  std::optional<runtime::Epoch> epoch;
  for (unsigned phase = 0; phase < 4; ++phase) {
    exec.run_phase("p", 4,
                   [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     if (begin >= end) return;
                     array.record_bulk_read(ctx, 64.0 * kMiB);
                   });
    auto maybe = sampler.on_phase(exec);
    if (phase % 2 == 0) {
      EXPECT_FALSE(maybe.has_value()) << "phase " << phase;
    } else {
      ASSERT_TRUE(maybe.has_value()) << "phase " << phase;
      epoch = maybe;
      // Each epoch covers exactly two identical phases: the second epoch's
      // delta must match the first, not the cumulative counters.
      ASSERT_EQ(epoch->samples.size(), 1u);
      EXPECT_EQ(epoch->samples[0].buffer.index, buffer->index);
      const double per_epoch = epoch->total_memory_bytes;
      const auto merged = exec.merged_buffer_traffic();
      EXPECT_NEAR(per_epoch * (phase == 1 ? 1.0 : 2.0),
                  merged[buffer->index].memory_bytes,
                  merged[buffer->index].memory_bytes * 1e-9);
    }
  }
  EXPECT_EQ(sampler.epochs_emitted(), 2u);
}

TEST_F(EpochSamplerTest, SubsamplingIsDeterministicAndClose) {
  auto buffer = machine_.allocate(kGiB, 0, "sampled", 4096);
  ASSERT_TRUE(buffer.ok());
  sim::Array<double> array(machine_, *buffer);
  sim::ExecutionContext exec(machine_, machine_.topology().numa_node(0)->cpuset(),
                             4);

  runtime::EpochSampler exact({.sample_period = 1.0});
  runtime::EpochSampler coarse_a({.sample_period = 100.0, .seed = 99});
  runtime::EpochSampler coarse_b({.sample_period = 100.0, .seed = 99});

  exec.run_phase("p", 4,
                 [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                     std::size_t end) {
                   if (begin >= end) return;
                   array.record_bulk_read(ctx, 256.0 * kMiB);
                   array.record_bulk_random_reads(ctx, 1e6);
                 });

  auto exact_epoch = exact.on_phase(exec);
  auto epoch_a = coarse_a.on_phase(exec);
  auto epoch_b = coarse_b.on_phase(exec);
  ASSERT_TRUE(exact_epoch.has_value());
  ASSERT_TRUE(epoch_a.has_value());
  ASSERT_TRUE(epoch_b.has_value());

  // Same seed, same inputs -> bit-identical estimates (decision replay).
  ASSERT_EQ(epoch_a->samples.size(), 1u);
  ASSERT_EQ(epoch_b->samples.size(), 1u);
  const sim::BufferTraffic& a = epoch_a->samples[0].traffic;
  const sim::BufferTraffic& b = epoch_b->samples[0].traffic;
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  EXPECT_EQ(a.llc_misses, b.llc_misses);
  EXPECT_EQ(a.random_misses, b.random_misses);

  // 1/100 subsampling stays within a few percent on large counters.
  const sim::BufferTraffic& full = exact_epoch->samples[0].traffic;
  EXPECT_NEAR(a.memory_bytes, full.memory_bytes, full.memory_bytes * 0.05);
  EXPECT_NEAR(a.random_misses, full.random_misses,
              full.random_misses * 0.05 + 100.0);
  // Ratio invariant the classifier divides by survives quantization.
  EXPECT_LE(a.random_misses, a.llc_misses);
}

// ---------------------------------------------------------------------------
// OnlineClassifier
// ---------------------------------------------------------------------------

TEST(OnlineClassifierTest, FirstSightCommitsImmediately) {
  runtime::OnlineClassifier classifier(classifier_options(1.0, 1));
  auto commits =
      classifier.observe(make_epoch(0, {{0, random_traffic(1e6)}}));
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].current, prof::Sensitivity::kLatency);
  EXPECT_EQ(classifier.committed(sim::BufferId{0}),
            prof::Sensitivity::kLatency);
}

TEST(OnlineClassifierTest, HysteresisDelaysCommitForKEpochs) {
  runtime::OnlineClassifier classifier(classifier_options(1.0, 3));
  classifier.observe(make_epoch(0, {{0, streaming_traffic(1e9)}}));
  ASSERT_EQ(classifier.committed(sim::BufferId{0}),
            prof::Sensitivity::kBandwidth);

  // Behavior flips to pointer chasing: commit only on the 3rd consecutive
  // disagreeing epoch.
  EXPECT_TRUE(classifier.observe(make_epoch(1, {{0, random_traffic(1e7)}}))
                  .empty());
  EXPECT_TRUE(classifier.observe(make_epoch(2, {{0, random_traffic(1e7)}}))
                  .empty());
  auto commits =
      classifier.observe(make_epoch(3, {{0, random_traffic(1e7)}}));
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].previous, prof::Sensitivity::kBandwidth);
  EXPECT_EQ(commits[0].current, prof::Sensitivity::kLatency);
}

TEST(OnlineClassifierTest, AlternatingBehaviorNeverCommits) {
  runtime::OnlineClassifier classifier(classifier_options(1.0, 2));
  classifier.observe(make_epoch(0, {{0, streaming_traffic(1e9)}}));

  // Ping-pong workload: the disagreement streak resets every time the
  // instantaneous verdict returns to the committed one, so the buffer never
  // reclassifies (and the engine never migrates it back and forth).
  for (std::uint64_t epoch = 1; epoch <= 8; ++epoch) {
    const sim::BufferTraffic traffic =
        epoch % 2 == 1 ? random_traffic(1e7) : streaming_traffic(1e9);
    EXPECT_TRUE(classifier.observe(make_epoch(epoch, {{0, traffic}})).empty())
        << "epoch " << epoch;
  }
  EXPECT_EQ(classifier.committed(sim::BufferId{0}),
            prof::Sensitivity::kBandwidth);
}

TEST(OnlineClassifierTest, IdleBuffersDecayToInsensitive) {
  runtime::OnlineClassifier classifier(classifier_options(0.5, 1));
  classifier.observe(make_epoch(0, {{0, streaming_traffic(1e9)},
                                    {1, streaming_traffic(1e9)}}));
  ASSERT_EQ(classifier.committed(sim::BufferId{0}),
            prof::Sensitivity::kBandwidth);

  // Buffer 0 goes idle while buffer 1 stays hot: its EMA share decays below
  // the insensitive threshold and the verdict follows.
  bool reclassified = false;
  for (std::uint64_t epoch = 1; epoch <= 16 && !reclassified; ++epoch) {
    for (const runtime::Reclassification& commit :
         classifier.observe(make_epoch(epoch, {{1, streaming_traffic(1e9)}}))) {
      if (commit.buffer.index == 0) {
        EXPECT_EQ(commit.current, prof::Sensitivity::kInsensitive);
        reclassified = true;
      }
    }
  }
  EXPECT_TRUE(reclassified);
}

// ---------------------------------------------------------------------------
// Hysteresis under synthetic phase shifts (trace::synthesize_*)
// ---------------------------------------------------------------------------

/// Runs a synthetic trace's raw epochs through a classifier and returns
/// (epoch, reclassification) pairs for buffer 0.
std::vector<std::pair<std::uint64_t, runtime::Reclassification>>
observe_trace(runtime::OnlineClassifier& classifier,
              const trace::Trace& synthetic) {
  std::vector<std::pair<std::uint64_t, runtime::Reclassification>> commits;
  for (const runtime::Epoch& epoch : synthetic.epochs) {
    for (const runtime::Reclassification& commit :
         classifier.observe(epoch)) {
      commits.emplace_back(epoch.index, commit);
    }
  }
  return commits;
}

TEST(HysteresisPhaseShiftTest, SquareWaveWithinHysteresisWindowNeverOscillates) {
  // Behavior flips faster than the K-epoch hysteresis window can confirm:
  // after the initial commit the classifier must hold its verdict — the
  // disagreement streak resets before reaching K every time.
  trace::SynthOptions options;
  options.epochs = 24;
  for (unsigned half_period : {1u, 2u}) {
    runtime::OnlineClassifier classifier(classifier_options(1.0, 3));
    const trace::Trace synthetic =
        trace::synthesize_square(sim::BufferId{0}, half_period, options);
    const auto commits = observe_trace(classifier, synthetic);
    ASSERT_EQ(commits.size(), 1u) << "half_period " << half_period;
    EXPECT_EQ(commits[0].first, 0u);
    EXPECT_EQ(classifier.committed(sim::BufferId{0}),
              prof::Sensitivity::kBandwidth)
        << "half_period " << half_period;
  }
}

TEST(HysteresisPhaseShiftTest, SustainedSquareWaveCommitsWithinKPlusOne) {
  // Flips slower than the window (half period 8 >> K=3) must all commit,
  // each within K+1 epochs of the flip — even with EMA smoothing lagging
  // the instantaneous counters.
  constexpr unsigned kHysteresis = 3;
  trace::SynthOptions options;
  options.epochs = 32;
  runtime::OnlineClassifier classifier(
      classifier_options(0.85, kHysteresis));
  const trace::Trace synthetic =
      trace::synthesize_square(sim::BufferId{0}, 8, options);
  const auto commits = observe_trace(classifier, synthetic);

  // Initial commit at epoch 0, then one per flip at epochs 8, 16, 24.
  ASSERT_EQ(commits.size(), 4u);
  EXPECT_EQ(commits[0].first, 0u);
  EXPECT_EQ(commits[0].second.current, prof::Sensitivity::kBandwidth);
  const std::uint64_t flips[] = {8, 16, 24};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(commits[i + 1].first, flips[i]) << "flip " << flips[i];
    EXPECT_LE(commits[i + 1].first, flips[i] + kHysteresis + 1)
        << "flip " << flips[i];
    EXPECT_EQ(commits[i + 1].second.current,
              i % 2 == 0 ? prof::Sensitivity::kLatency
                         : prof::Sensitivity::kBandwidth);
  }
}

TEST(HysteresisPhaseShiftTest, RampReclassifiesOnceWithinKPlusOneOfCrossing) {
  // Gradual drift from streaming to pointer chasing: exactly one
  // reclassification, within K+1 epochs of the first epoch whose
  // random-miss ratio crosses the shared 0.5 threshold — no flapping on
  // the way up.
  constexpr unsigned kHysteresis = 3;
  trace::SynthOptions options;
  options.epochs = 24;
  const trace::Trace synthetic =
      trace::synthesize_ramp(sim::BufferId{0}, 6, 8, options);

  std::uint64_t crossing = 0;
  for (const runtime::Epoch& epoch : synthetic.epochs) {
    const sim::BufferTraffic& traffic = epoch.samples[0].traffic;
    if (traffic.random_misses / traffic.llc_misses >= 0.5) {
      crossing = epoch.index;
      break;
    }
  }
  ASSERT_GT(crossing, 6u);  // the ramp, not the flat lead-in, crosses

  runtime::OnlineClassifier classifier(
      classifier_options(1.0, kHysteresis));
  const auto commits = observe_trace(classifier, synthetic);
  ASSERT_EQ(commits.size(), 2u);
  EXPECT_EQ(commits[0].second.current, prof::Sensitivity::kBandwidth);
  EXPECT_EQ(commits[1].second.previous, prof::Sensitivity::kBandwidth);
  EXPECT_EQ(commits[1].second.current, prof::Sensitivity::kLatency);
  EXPECT_GE(commits[1].first, crossing);
  EXPECT_LE(commits[1].first, crossing + kHysteresis + 1);
}

// ---------------------------------------------------------------------------
// Shared thresholds: offline prof and online runtime must agree
// ---------------------------------------------------------------------------

TEST(SharedThresholds, OfflineAndOnlineClassifyIdenticalTrafficIdentically) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  const support::Bitmap initiator = machine.topology().numa_node(0)->cpuset();
  auto streamed = machine.allocate(2 * kGiB, 0, "hot.stream", 4096);
  auto chased = machine.allocate(kGiB, 0, "hot.random", 4096);
  auto cold = machine.allocate(kGiB, 2, "cold", 4096);
  ASSERT_TRUE(streamed.ok() && chased.ok() && cold.ok());
  sim::Array<double> stream_array(machine, *streamed);
  sim::Array<double> chase_array(machine, *chased);
  sim::Array<double> cold_array(machine, *cold);

  sim::ExecutionContext exec(machine, initiator, 4);
  exec.run_phase("mixed", 4,
                 [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                     std::size_t end) {
                   if (begin >= end) return;
                   stream_array.record_bulk_read(ctx, 512.0 * kMiB);
                   chase_array.record_bulk_random_reads(ctx, 4e6);
                   cold_array.record_bulk_read(ctx, 64.0 * support::kKiB);
                 });

  // Offline: the profiler's per-buffer verdicts over the finished run.
  std::vector<prof::Sensitivity> offline(3, prof::Sensitivity::kInsensitive);
  for (const prof::BufferProfile& profile : prof::profile_buffers(exec)) {
    ASSERT_LT(profile.buffer.index, 3u);
    offline[profile.buffer.index] = profile.sensitivity;
  }
  EXPECT_EQ(offline[streamed->index], prof::Sensitivity::kBandwidth);
  EXPECT_EQ(offline[chased->index], prof::Sensitivity::kLatency);
  EXPECT_EQ(offline[cold->index], prof::Sensitivity::kInsensitive);

  // Online: one exact epoch over the same window, no smoothing.
  runtime::EpochSampler sampler;
  runtime::OnlineClassifier classifier(classifier_options(1.0, 1));
  auto epoch = sampler.on_phase(exec);
  ASSERT_TRUE(epoch.has_value());
  classifier.observe(*epoch);
  for (std::uint32_t index = 0; index < 3; ++index) {
    EXPECT_EQ(classifier.committed(sim::BufferId{index}), offline[index])
        << "buffer " << index
        << ": offline and online classification diverged";
  }
}

// ---------------------------------------------------------------------------
// MigrationEngine
// ---------------------------------------------------------------------------

class MigrationEngineTest : public ::testing::Test {
 protected:
  MigrationEngineTest()
      : machine_(topo::xeon_clx_1lm()),
        registry_(machine_.topology()),
        allocator_(machine_, registry_),
        initiator_(machine_.topology().numa_node(0)->cpuset()) {
    EXPECT_TRUE(
        hmat::load_into(registry_, hmat::generate(machine_.topology())).ok());
  }

  unsigned nvdimm_node() const {
    for (const topo::Object* node : machine_.topology().numa_nodes()) {
      if (node->memory_kind() == topo::MemoryKind::kNVDIMM) {
        return node->logical_index();
      }
    }
    return 0;
  }

  sim::SimMachine machine_;
  attr::MemAttrRegistry registry_;
  alloc::HeterogeneousAllocator allocator_;
  support::Bitmap initiator_;
};

TEST_F(MigrationEngineTest, BudgetDefersAndLevelTriggerRetries) {
  const unsigned slow = nvdimm_node();
  auto first = machine_.allocate(2 * kGiB, slow, "hot.a", 4096);
  auto second = machine_.allocate(2 * kGiB, slow, "hot.b", 4096);
  ASSERT_TRUE(first.ok() && second.ok());

  runtime::OnlineClassifier classifier(classifier_options(1.0, 1));
  classifier.observe(make_epoch(0, {{first->index, random_traffic(5e7)},
                                    {second->index, random_traffic(5e7)}}));

  runtime::MigrationEngine engine(allocator_, initiator_,
                                  {.epoch_budget_bytes = 2 * kGiB});
  engine.run_epoch(0, classifier, 4);

  // Both buffers want DRAM; the budget only covers one per epoch.
  EXPECT_EQ(engine.stats().accepted, 1u);
  EXPECT_EQ(machine_.info(*first).node, 0u);
  EXPECT_EQ(machine_.info(*second).node, slow);
  bool budget_rejection = false;
  for (const runtime::Decision& decision : engine.decisions()) {
    if (decision.verdict == runtime::Verdict::kRejectedBudget) {
      budget_rejection = true;
    }
  }
  EXPECT_TRUE(budget_rejection);

  // Level-triggered: the deferred move is retried (and now fits).
  engine.run_epoch(1, classifier, 4);
  EXPECT_EQ(engine.stats().accepted, 2u);
  EXPECT_EQ(machine_.info(*second).node, 0u);
  EXPECT_LE(engine.max_epoch_migrated_bytes(), 2 * kGiB);
}

TEST_F(MigrationEngineTest, BreakevenGateRejectsColdMoves) {
  const unsigned slow = nvdimm_node();
  auto buffer = machine_.allocate(2 * kGiB, slow, "barely.warm", 4096);
  ASSERT_TRUE(buffer.ok());

  // Hot enough to classify latency-sensitive, far too cold to amortize a
  // 2 GiB migration within the horizon.
  runtime::OnlineClassifier classifier(classifier_options(1.0, 1));
  classifier.observe(make_epoch(0, {{buffer->index, random_traffic(1e5)}}));

  runtime::MigrationEngine engine(allocator_, initiator_, {});
  engine.run_epoch(0, classifier, 4);

  EXPECT_EQ(engine.stats().accepted, 0u);
  EXPECT_EQ(machine_.info(*buffer).node, slow);
  ASSERT_FALSE(engine.decisions().empty());
  EXPECT_EQ(engine.decisions().back().verdict,
            runtime::Verdict::kRejectedBreakeven);
}

TEST_F(MigrationEngineTest, RenderAfterRestoredPrefixAppendsNewDecisions) {
  const unsigned slow = nvdimm_node();
  auto buffer = machine_.allocate(2 * kGiB, slow, "barely.warm", 4096);
  ASSERT_TRUE(buffer.ok());
  runtime::OnlineClassifier classifier(classifier_options(1.0, 1));
  classifier.observe(make_epoch(0, {{buffer->index, random_traffic(1e5)}}));

  // The same decisions from an engine with no restored prefix.
  runtime::MigrationEngine plain(allocator_, initiator_, {});
  plain.run_epoch(1, classifier, 4);
  plain.run_epoch(2, classifier, 4);
  const std::string decisions = plain.render_decision_log();
  ASSERT_EQ(plain.decisions().size(), 2u);

  const std::string prefix = "epoch 0 restored narrative\n";
  runtime::MigrationEngine engine(allocator_, initiator_, {});
  engine.restore_log_prefix(prefix);
  EXPECT_EQ(engine.render_decision_log(), prefix);
  engine.run_epoch(1, classifier, 4);
  const std::string first = engine.render_decision_log();
  engine.run_epoch(2, classifier, 4);
  EXPECT_EQ(engine.render_decision_log(), prefix + decisions);
  EXPECT_EQ(first, prefix + decisions.substr(0, decisions.find('\n') + 1));

  // A second restore replaces the rendered text: the new prefix, then every
  // decision the engine holds.
  engine.restore_log_prefix("other\n");
  EXPECT_EQ(engine.render_decision_log(), "other\n" + decisions);
}

TEST_F(MigrationEngineTest, EvictsColdBufferToMakeRoom) {
  const unsigned slow = nvdimm_node();
  const std::uint64_t dram_capacity =
      machine_.topology().numa_node(0)->capacity_bytes();
  // Fill DRAM so the hot buffer only fits by displacing the cold one.
  auto hog = machine_.allocate(dram_capacity - 3 * kGiB, 0, "hog", 4096);
  auto cold = machine_.allocate(2 * kGiB, 0, "cold", 4096);
  auto hot = machine_.allocate(2 * kGiB, slow, "hot", 4096);
  ASSERT_TRUE(hog.ok() && cold.ok() && hot.ok());

  sim::BufferTraffic trickle = streaming_traffic(1e6);  // < 1% share
  runtime::OnlineClassifier classifier(classifier_options(1.0, 1));
  classifier.observe(make_epoch(0, {{cold->index, trickle},
                                    {hot->index, random_traffic(1e8)}}));
  ASSERT_EQ(classifier.committed(*cold), prof::Sensitivity::kInsensitive);
  ASSERT_EQ(classifier.committed(*hot), prof::Sensitivity::kLatency);

  runtime::MigrationEngine engine(allocator_, initiator_, {});
  engine.run_epoch(0, classifier, 4);

  EXPECT_EQ(machine_.info(*hot).node, 0u);
  EXPECT_EQ(machine_.info(*cold).node, slow);
  EXPECT_EQ(machine_.info(*hog).node, 0u);  // untracked: never evicted
  EXPECT_EQ(engine.stats().accepted, 1u);
  EXPECT_EQ(engine.stats().evicted, 1u);

  // Telemetry: the eviction names the move it made room for.
  bool eviction_logged = false;
  for (const runtime::Decision& decision : engine.decisions()) {
    if (decision.verdict == runtime::Verdict::kEvicted) {
      EXPECT_EQ(decision.buffer.index, cold->index);
      EXPECT_EQ(decision.from_node, 0u);
      EXPECT_NE(decision.reason.to_string().find("hot"), std::string::npos);
      eviction_logged = true;
    }
  }
  EXPECT_TRUE(eviction_logged);
}

TEST_F(MigrationEngineTest, DisabledEvictionsRejectInstead) {
  const unsigned slow = nvdimm_node();
  const std::uint64_t dram_capacity =
      machine_.topology().numa_node(0)->capacity_bytes();
  auto hog = machine_.allocate(dram_capacity - 3 * kGiB, 0, "hog", 4096);
  auto cold = machine_.allocate(2 * kGiB, 0, "cold", 4096);
  auto hot = machine_.allocate(2 * kGiB, slow, "hot", 4096);
  ASSERT_TRUE(hog.ok() && cold.ok() && hot.ok());

  runtime::OnlineClassifier classifier(classifier_options(1.0, 1));
  classifier.observe(make_epoch(0, {{cold->index, streaming_traffic(1e6)},
                                    {hot->index, random_traffic(1e8)}}));

  runtime::MigrationEngine engine(allocator_, initiator_,
                                  {.allow_evictions = false});
  engine.run_epoch(0, classifier, 4);
  EXPECT_EQ(engine.stats().accepted, 0u);
  EXPECT_EQ(engine.stats().evicted, 0u);
  EXPECT_EQ(machine_.info(*hot).node, slow);
}

// ---------------------------------------------------------------------------
// RuntimePolicy end-to-end: phase-flipping workload
// ---------------------------------------------------------------------------

struct FlipOutcome {
  double clock_ns = 0.0;
  unsigned node_stream = 0;
  unsigned node_random = 0;
  std::uint64_t accepted = 0;
  std::string decision_log;
};

/// STREAM-then-BFS phase flip on a DRAM-squeezed Xeon: only one of the two
/// 2 GiB buffers fits in fast memory at a time, and which one matters flips
/// mid-run. `with_policy` false = static worst case (everything on NVDIMM).
FlipOutcome run_flip_workload(bool with_policy,
                              runtime::RuntimePolicyOptions options = {}) {
  FlipOutcome outcome;
  sim::SimMachine machine(topo::xeon_clx_1lm());
  attr::MemAttrRegistry registry(machine.topology());
  EXPECT_TRUE(
      hmat::load_into(registry, hmat::generate(machine.topology())).ok());
  alloc::HeterogeneousAllocator allocator(machine, registry);
  const support::Bitmap initiator = machine.topology().numa_node(0)->cpuset();

  unsigned slow = 0;
  for (const topo::Object* node : machine.topology().numa_nodes()) {
    if (node->memory_kind() == topo::MemoryKind::kNVDIMM) {
      slow = node->logical_index();
    }
  }
  const std::uint64_t dram_capacity =
      machine.topology().numa_node(0)->capacity_bytes();
  auto hog = machine.allocate(dram_capacity - 3 * kGiB, 0, "hog", 4096);
  auto streamed = machine.allocate(2 * kGiB, slow, "flip.stream", 1u << 16);
  auto chased = machine.allocate(2 * kGiB, slow, "flip.random", 1u << 16);
  EXPECT_TRUE(hog.ok() && streamed.ok() && chased.ok());

  sim::Array<double> stream_array(machine, *streamed);
  sim::Array<double> chase_array(machine, *chased);
  sim::ExecutionContext exec(machine, initiator, 4);

  runtime::RuntimePolicy policy(allocator, initiator, options);
  if (with_policy) {
    policy.attach(exec, [&] {
      stream_array.refresh_model();
      chase_array.refresh_model();
    });
  }

  for (unsigned phase = 0; phase < 12; ++phase) {
    exec.run_phase("part1.stream", 4,
                   [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     if (begin >= end) return;
                     stream_array.record_bulk_read(ctx, 512.0 * kMiB);
                   });
  }
  for (unsigned phase = 0; phase < 12; ++phase) {
    exec.run_phase("part2.random", 4,
                   [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     if (begin >= end) return;
                     chase_array.record_bulk_random_reads(ctx, 4e6);
                   });
  }

  outcome.clock_ns = exec.clock_ns();
  outcome.node_stream = machine.info(*streamed).node;
  outcome.node_random = machine.info(*chased).node;
  outcome.accepted = policy.engine().stats().accepted;
  outcome.decision_log = policy.render_decision_log();
  return outcome;
}

runtime::RuntimePolicyOptions flip_policy_options() {
  runtime::RuntimePolicyOptions options;
  options.classifier.ema_alpha = 0.6;
  options.classifier.hysteresis_epochs = 2;
  // The part-2 promotion has to pay for an eviction plus a 2 GiB move; a
  // 12-epoch phase amortizes it, the default 10-epoch horizon would not.
  options.engine.expected_future_epochs = 50.0;
  return options;
}

TEST(RuntimePolicyTest, PhaseFlipMigratesAndBeatsStaticWorst) {
  const FlipOutcome worst = run_flip_workload(false);
  const FlipOutcome online = run_flip_workload(true, flip_policy_options());

  // The runtime promoted the stream buffer during part 1, then evicted it
  // and promoted the chase buffer when the hot set flipped.
  EXPECT_GE(online.accepted, 2u);
  EXPECT_EQ(online.node_random, 0u) << online.decision_log;
  EXPECT_NE(online.node_stream, 0u) << online.decision_log;
  EXPECT_LT(online.clock_ns, worst.clock_ns);
}

TEST(RuntimePolicyTest, DecisionLogReplaysByteIdentically) {
  const FlipOutcome first = run_flip_workload(true, flip_policy_options());
  const FlipOutcome second = run_flip_workload(true, flip_policy_options());
  EXPECT_FALSE(first.decision_log.empty());
  EXPECT_EQ(first.decision_log, second.decision_log);
}

TEST(RuntimePolicyTest, SubsampledDecisionsMatchExactOnes) {
  // The ablation claim: placement decisions survive 1/10 - 1/100 sampling.
  auto accepted_moves = [](const FlipOutcome& outcome) {
    std::vector<std::string> moves;
    std::istringstream lines(outcome.decision_log);
    for (std::string line; std::getline(lines, line);) {
      if (line.find(" accepted ") != std::string::npos ||
          line.find(" evicted ") != std::string::npos) {
        moves.push_back(line.substr(0, line.find(" benefit")));
      }
    }
    return moves;
  };
  runtime::RuntimePolicyOptions exact = flip_policy_options();
  runtime::RuntimePolicyOptions tenth = flip_policy_options();
  tenth.sampler.sample_period = 10.0;
  runtime::RuntimePolicyOptions hundredth = flip_policy_options();
  hundredth.sampler.sample_period = 100.0;

  const auto exact_moves = accepted_moves(run_flip_workload(true, exact));
  EXPECT_EQ(accepted_moves(run_flip_workload(true, tenth)), exact_moves);
  EXPECT_EQ(accepted_moves(run_flip_workload(true, hundredth)), exact_moves);
}

TEST(RuntimePolicyTest, StableWorkloadNeverMigratesEvenWithoutHysteresis) {
  // Attribute-placed STREAM is already on its best target; with hysteresis
  // disabled entirely (commit on first disagreement) the engine must still
  // stay quiet — the acceptance bar for "no ping-ponging at rest".
  sim::SimMachine machine(topo::xeon_clx_1lm());
  attr::MemAttrRegistry registry(machine.topology());
  ASSERT_TRUE(
      hmat::load_into(registry, hmat::generate(machine.topology())).ok());
  alloc::HeterogeneousAllocator allocator(machine, registry);
  const support::Bitmap initiator = machine.topology().numa_node(0)->cpuset();

  apps::StreamConfig config;
  config.declared_total_bytes = 3 * kGiB;
  config.backing_elements = 1u << 14;
  config.threads = 4;
  config.iterations = 6;
  apps::BufferPlacement placement;
  placement.attribute = attr::kBandwidth;
  auto runner =
      apps::StreamRunner::create(machine, &allocator, initiator, config,
                                 placement);
  ASSERT_TRUE(runner.ok());

  runtime::RuntimePolicyOptions options;
  options.sampler.phases_per_epoch = 2;  // triad + barrier
  options.classifier.hysteresis_epochs = 1;
  runtime::RuntimePolicy policy(allocator, initiator, options);
  policy.attach((*runner)->exec(), [&] { (*runner)->refresh_arrays(); });

  ASSERT_TRUE((*runner)->run_triad().ok());
  EXPECT_EQ(policy.engine().stats().accepted, 0u);
  EXPECT_EQ(policy.engine().stats().evicted, 0u);
  EXPECT_EQ(allocator.stats().migrations, 0u);
}

// ---------------------------------------------------------------------------
// Chaos composition (PR 1): runtime-managed workloads under fault injection
// ---------------------------------------------------------------------------

struct RuntimeChaosOutcome {
  double stream_checksum = 0.0;
  std::string stream_log;
  std::string bfs_log;
  std::uint64_t migrations = 0;
};

/// Full chaos pipeline with the online runtime attached: corrupted HMAT ->
/// lenient parse -> probe under faults -> resilient allocator -> STREAM and
/// Graph500 placed by *Capacity* (deliberately slow) with RuntimePolicy
/// promoting the hot buffers mid-run, migrations included in the fault
/// schedule.
void run_runtime_chaos(topo::Topology (*factory)(), std::uint64_t seed,
                       RuntimeChaosOutcome* out) {
  sim::SimMachine machine(factory());
  const support::Bitmap initiator = first_initiator(machine.topology());
  ASSERT_FALSE(initiator.empty());

  fault::FaultInjector injector = fault::FaultInjector::preset("heavy", seed);
  const std::string clean_text =
      hmat::serialize(hmat::generate(machine.topology()));
  const fault::HmatCorruption corruption =
      fault::corrupt_hmat_text(clean_text, injector);
  const hmat::ParseReport report = hmat::parse_lenient(corruption.text);

  attr::MemAttrRegistry registry(machine.topology());
  ASSERT_TRUE(hmat::load_into(registry, report.table).ok());

  machine.set_fault_injector(&injector);
  probe::ProbeOptions probe_options;
  probe_options.buffer_bytes = 64 * kMiB;
  probe_options.backing_bytes = 64 * 1024;
  probe_options.chase_accesses = 1000;
  probe_options.threads = 4;
  probe_options.include_remote = false;
  probe_options.faults = &injector;
  probe_options.repeats = 2;
  auto discovery = probe::discover(machine, probe_options);
  ASSERT_TRUE(discovery.ok());
  ASSERT_TRUE(probe::feed_registry(registry, *discovery).ok());

  alloc::HeterogeneousAllocator allocator(machine, registry);
  allocator.set_retry_policy({.max_transient_retries = 8});

  runtime::RuntimePolicyOptions options;
  options.sampler.phases_per_epoch = 2;
  options.classifier.ema_alpha = 1.0;
  options.classifier.hysteresis_epochs = 1;

  // STREAM parked on the Capacity target: the runtime has to earn its keep
  // by promoting the arrays while migrate() randomly throws transients.
  apps::StreamConfig stream_config;
  stream_config.declared_total_bytes = 96 * kMiB;
  stream_config.backing_elements = 1u << 14;
  stream_config.threads = 4;
  stream_config.iterations = 4;
  apps::BufferPlacement capacity_placement;
  capacity_placement.attribute = attr::kCapacity;
  capacity_placement.attribute_rescue = true;
  auto stream_runner = apps::StreamRunner::create(
      machine, &allocator, initiator, stream_config, capacity_placement);
  ASSERT_TRUE(stream_runner.ok()) << "seed " << seed;
  runtime::RuntimePolicy stream_policy(allocator, initiator, options);
  stream_policy.attach((*stream_runner)->exec(),
                       [&] { (*stream_runner)->refresh_arrays(); });
  auto stream_result = (*stream_runner)->run_triad();
  ASSERT_TRUE(stream_result.ok()) << "seed " << seed;
  out->stream_checksum = stream_result->checksum;
  out->stream_log = stream_policy.render_decision_log();

  apps::Graph500Config bfs_config;
  bfs_config.scale_declared = 16;
  bfs_config.scale_backing = 12;
  bfs_config.threads = 4;
  bfs_config.num_roots = 2;
  apps::Graph500Placement bfs_placement;
  bfs_placement.graph = capacity_placement;
  bfs_placement.parents = capacity_placement;
  bfs_placement.frontier = capacity_placement;
  auto bfs_runner = apps::Graph500Runner::create(machine, &allocator, initiator,
                                                 bfs_config, bfs_placement);
  ASSERT_TRUE(bfs_runner.ok()) << "seed " << seed;
  runtime::RuntimePolicy bfs_policy(allocator, initiator, options);
  bfs_policy.attach((*bfs_runner)->exec(),
                    [&] { (*bfs_runner)->refresh_arrays(); });
  auto bfs_result = (*bfs_runner)->run();
  ASSERT_TRUE(bfs_result.ok()) << "seed " << seed;
  EXPECT_TRUE((*bfs_runner)->validate_last_tree().ok()) << "seed " << seed;
  out->bfs_log = bfs_policy.render_decision_log();
  out->migrations = allocator.stats().migrations;
}

TEST(RuntimeChaosTest, WorkloadsCompleteAndDecisionLogReplays) {
  const struct {
    const char* name;
    topo::Topology (*factory)();
  } presets[] = {{"xeon_clx_1lm", topo::xeon_clx_1lm},
                 {"knl_snc4_flat", topo::knl_snc4_flat}};
  for (const auto& preset : presets) {
    SCOPED_TRACE(preset.name);
    for (std::uint64_t seed : {11ull, 12057ull}) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      RuntimeChaosOutcome first, second;
      run_runtime_chaos(preset.factory, seed, &first);
      if (::testing::Test::HasFatalFailure()) return;
      run_runtime_chaos(preset.factory, seed, &second);
      if (::testing::Test::HasFatalFailure()) return;

      // Identical seed -> byte-identical decision telemetry.
      EXPECT_EQ(first.stream_log, second.stream_log);
      EXPECT_EQ(first.bfs_log, second.bfs_log);
      EXPECT_EQ(first.stream_checksum, second.stream_checksum);

      // Migration never corrupts the arithmetic: checksum matches a clean
      // fault-free run of the same STREAM instance.
      sim::SimMachine clean(preset.factory());
      const support::Bitmap initiator = first_initiator(clean.topology());
      apps::StreamConfig stream_config;
      stream_config.declared_total_bytes = 96 * kMiB;
      stream_config.backing_elements = 1u << 14;
      stream_config.threads = 4;
      stream_config.iterations = 4;
      apps::BufferPlacement forced;
      forced.forced_node = 0;
      auto reference = apps::StreamRunner::create(clean, nullptr, initiator,
                                                  stream_config, forced);
      ASSERT_TRUE(reference.ok());
      auto reference_result = (*reference)->run_triad();
      ASSERT_TRUE(reference_result.ok());
      EXPECT_EQ(first.stream_checksum, reference_result->checksum);
    }
  }
}

}  // namespace
}  // namespace hetmem
