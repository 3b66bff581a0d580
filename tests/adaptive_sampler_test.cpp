// Adaptive sample-rate controller tests (docs/RUNTIME.md "Adaptive
// sampling"): the multiplicative-increase/decrease law must keep sampler
// cost under the overhead budget, move the period monotonically under
// sustained pressure, clamp at both ends, and stay bit-for-bit
// deterministic — including across a trace/2 record -> replay round trip at
// every controller-chosen period.
//
// All tests inject SamplerOptions::cost_model so the controller sees a
// deterministic cost instead of wall-clock noise; the law itself is what is
// under test, not the measurement.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/memattr/memattr.hpp"
#include "hetmem/runtime/epoch.hpp"
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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Cost model whose overhead *fraction* is k / period: cost shrinks in
/// proportion to the period, the regime the controller is designed for
/// (fewer samples -> less work). `k` is the fraction at period 1.
runtime::SamplerOptions adaptive_options(double k, double max_period) {
  runtime::SamplerOptions options;
  options.adaptive = true;
  options.max_sample_period = max_period;
  options.cost_model = [k](const runtime::Epoch& epoch) {
    const double period = epoch.sample_period > 0.0 ? epoch.sample_period : 1.0;
    return epoch.duration_ns * k / period;
  };
  return options;
}

/// Drives `sampler` through `epochs` single-phase epochs of identical
/// streaming traffic on a fresh machine; returns the emitted epochs.
std::vector<runtime::Epoch> drive(runtime::EpochSampler& sampler,
                                  unsigned epochs) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  auto buffer = machine.allocate(256 * kMiB, 0, "driven", 4096);
  EXPECT_TRUE(buffer.ok());
  sim::Array<double> array(machine, *buffer);
  sim::ExecutionContext exec(machine,
                             machine.topology().numa_node(0)->cpuset(), 4);
  std::vector<runtime::Epoch> out;
  for (unsigned phase = 0; phase < epochs; ++phase) {
    exec.run_phase("p", 4,
                   [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     if (begin >= end) return;
                     array.record_bulk_read(ctx, 64.0 * kMiB);
                     array.record_bulk_random_reads(ctx, 1e5);
                   });
    auto epoch = sampler.on_phase(exec);
    if (epoch.has_value()) out.push_back(*epoch);
  }
  return out;
}

TEST(AdaptiveSampler, PeriodMonotoneUnderSustainedPressure) {
  // Cost pinned at 100% of epoch duration: the controller must double every
  // epoch and clamp at max_sample_period, never oscillating back down.
  runtime::SamplerOptions options;
  options.adaptive = true;
  options.max_sample_period = 64.0;
  options.cost_model = [](const runtime::Epoch& epoch) {
    return epoch.duration_ns;
  };
  runtime::EpochSampler sampler(options);
  const auto epochs = drive(sampler, 10);
  ASSERT_EQ(epochs.size(), 10u);
  const std::vector<double>& periods = sampler.period_log();
  ASSERT_EQ(periods.size(), 10u);
  const double expected[] = {1, 2, 4, 8, 16, 32, 64, 64, 64, 64};
  for (std::size_t e = 0; e < periods.size(); ++e) {
    EXPECT_EQ(periods[e], expected[e]) << "epoch " << e;
    if (e > 0) {
      EXPECT_GE(periods[e], periods[e - 1]);
    }
    EXPECT_LE(periods[e], options.max_sample_period);
    // Every epoch carries the period that sampled it.
    EXPECT_EQ(epochs[e].sample_period, periods[e]);
  }
}

TEST(AdaptiveSampler, BudgetRespectedUnderBurstyWorkload) {
  // Base overhead 8x the budget at period 1, with a 4x burst on epochs 3-4:
  // the controller must keep climbing through the burst and settle at a
  // period whose terminal fraction is at or under budget, inside the
  // deadband (no oscillation once parked).
  runtime::SamplerOptions options;
  options.adaptive = true;
  options.cost_model = [](const runtime::Epoch& epoch) {
    const double period = epoch.sample_period > 0.0 ? epoch.sample_period : 1.0;
    const double k = (epoch.index == 3 || epoch.index == 4) ? 0.32 : 0.08;
    return epoch.duration_ns * k / period;
  };
  runtime::EpochSampler sampler(options);
  const auto epochs = drive(sampler, 10);
  ASSERT_EQ(epochs.size(), 10u);
  const std::vector<double>& periods = sampler.period_log();
  const double expected[] = {1, 2, 4, 8, 16, 32, 32, 32, 32, 32};
  for (std::size_t e = 0; e < periods.size(); ++e) {
    EXPECT_EQ(periods[e], expected[e]) << "epoch " << e;
  }
  // Terminal state: cost fraction within budget.
  const runtime::Epoch& last = epochs.back();
  ASSERT_GT(last.duration_ns, 0.0);
  EXPECT_LE(sampler.last_cost_ns() / last.duration_ns,
            options.overhead_budget_fraction);
}

TEST(AdaptiveSampler, RecoversToFloorWhenPressureVanishes) {
  // Pressure for the first 4 epochs, then zero cost: the controller must
  // halve back down and clamp at the sample_period floor — the budget law
  // is symmetric, not ratchet-up-only.
  runtime::SamplerOptions options;
  options.adaptive = true;
  options.cost_model = [](const runtime::Epoch& epoch) {
    return epoch.index < 4 ? epoch.duration_ns : 0.0;
  };
  runtime::EpochSampler sampler(options);
  (void)drive(sampler, 10);
  const std::vector<double>& periods = sampler.period_log();
  ASSERT_EQ(periods.size(), 10u);
  const double expected[] = {1, 2, 4, 8, 16, 8, 4, 2, 1, 1};
  for (std::size_t e = 0; e < periods.size(); ++e) {
    EXPECT_EQ(periods[e], expected[e]) << "epoch " << e;
    EXPECT_GE(periods[e], sampler.options().sample_period);
  }
}

TEST(AdaptiveSampler, FixedSeedRunsAreBitIdentical) {
  // Two identical adaptive runs — same seed, same cost model, same workload
  // on identically-constructed machines — must produce the same period
  // trajectory and bit-identical subsampled counters: the controller adds
  // no nondeterminism on top of the seeded rounding stream.
  auto run = [] {
    runtime::EpochSampler sampler(adaptive_options(0.08, 4096.0));
    auto epochs = drive(sampler, 8);  // before copying the period log
    return std::make_pair(std::move(epochs), sampler.period_log());
  };
  const auto [epochs_a, periods_a] = run();
  const auto [epochs_b, periods_b] = run();
  EXPECT_EQ(periods_a, periods_b);
  ASSERT_EQ(epochs_a.size(), epochs_b.size());
  // The trajectory must actually subsample (periods > 1) for this test to
  // prove the RNG stream is aligned, not just that exact mode is exact.
  EXPECT_GT(periods_a.back(), 1.0);
  for (std::size_t e = 0; e < epochs_a.size(); ++e) {
    ASSERT_EQ(epochs_a[e].samples.size(), epochs_b[e].samples.size());
    EXPECT_TRUE(same_bits(epochs_a[e].total_memory_bytes,
                          epochs_b[e].total_memory_bytes));
    for (std::size_t s = 0; s < epochs_a[e].samples.size(); ++s) {
      EXPECT_EQ(epochs_a[e].samples[s].buffer.index,
                epochs_b[e].samples[s].buffer.index);
      EXPECT_TRUE(same_bits(epochs_a[e].samples[s].traffic.memory_bytes,
                            epochs_b[e].samples[s].traffic.memory_bytes));
      EXPECT_TRUE(same_bits(epochs_a[e].samples[s].traffic.reads,
                            epochs_b[e].samples[s].traffic.reads));
    }
  }
}

// ---------------------------------------------------------------------------
// Live == replay at every controller-chosen period (trace/2 round trip)
// ---------------------------------------------------------------------------

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kBufferBytes = 1 * kGiB;

/// Identically-constructible testbed (same shape as tests/trace_test.cpp):
/// Xeon with squeezed fast memory and two 1 GiB buffers parked on the
/// NVDIMM node, so the policy has real migration decisions to make.
struct Scenario {
  sim::SimMachine machine;
  attr::MemAttrRegistry registry;
  alloc::HeterogeneousAllocator allocator;
  support::Bitmap initiator;
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
    const std::uint64_t fast_free = machine.available_bytes(0);
    if (fast_free > headroom) {
      auto hog =
          machine.allocate(fast_free - headroom, 0, "resident.hog", 4096);
      if (!hog.ok()) return;
    }
    for (unsigned i = 0; i < 2; ++i) {
      auto buffer = machine.allocate(kBufferBytes, slow,
                                     "seg" + std::to_string(i), 1u << 16);
      if (!buffer.ok()) return;
      buffers.push_back(*buffer);
    }
    ok = true;
  }
};

runtime::RuntimePolicyOptions adaptive_policy_options() {
  runtime::RuntimePolicyOptions options;
  options.classifier.ema_alpha = 0.85;
  options.classifier.hysteresis_epochs = 2;
  options.engine.expected_future_epochs = 50.0;
  options.sampler.adaptive = true;
  // Fraction 0.04 at period 1 against the default 0.01 budget: the
  // controller walks 1 -> 2 -> 4 and parks, giving at least three distinct
  // chosen periods over the run.
  options.sampler.cost_model = [](const runtime::Epoch& epoch) {
    const double period = epoch.sample_period > 0.0 ? epoch.sample_period : 1.0;
    return epoch.duration_ns * 0.04 / period;
  };
  return options;
}

TEST(AdaptiveReplay, LiveEqualsReplayAtEveryChosenPeriod) {
  Scenario live;
  ASSERT_TRUE(live.ok);
  sim::Array<double> streamed(live.machine, live.buffers[0]);
  sim::Array<double> chased(live.machine, live.buffers[1]);
  sim::ExecutionContext exec(live.machine, live.initiator, kThreads);
  runtime::RuntimePolicy policy(live.allocator, live.initiator,
                                adaptive_policy_options());
  policy.attach(exec, [&] {
    streamed.refresh_model();
    chased.refresh_model();
  });
  trace::TraceRecorder recorder({1, "adaptive"});
  recorder.attach(exec, &policy);

  for (unsigned phase = 0; phase < 8; ++phase) {
    exec.run_phase("part1.stream", kThreads,
                   [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     if (begin >= end) return;
                     streamed.record_bulk_read(ctx, 512.0 * kMiB);
                   });
  }
  for (unsigned phase = 0; phase < 8; ++phase) {
    exec.run_phase("part2.random", kThreads,
                   [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     if (begin >= end) return;
                     chased.record_bulk_random_reads(ctx, 4e6);
                   });
  }
  const std::string live_log = policy.render_decision_log();
  ASSERT_FALSE(live_log.empty());

  // The controller must have actually moved — otherwise this only tests the
  // fixed-period replay path already covered by trace_test.
  const std::vector<double>& periods = policy.sampler().period_log();
  ASSERT_EQ(periods.size(), 16u);
  std::vector<double> distinct;
  for (double period : periods) {
    if (distinct.empty() || distinct.back() != period) {
      distinct.push_back(period);
    }
  }
  ASSERT_GE(distinct.size(), 3u) << "controller never moved";

  // Record -> serialize -> parse: trace/2 carries every chosen period.
  const std::string text = trace::serialize(recorder.trace());
  auto parsed = trace::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(text.rfind("hetmem-trace/2\n", 0), 0u);
  ASSERT_EQ(parsed->epochs.size(), 16u);
  for (std::size_t e = 0; e < parsed->epochs.size(); ++e) {
    EXPECT_TRUE(same_bits(parsed->epochs[e].sample_period, periods[e]))
        << "epoch " << e;
  }

  // Replay on a fresh identical testbed: the recorded periods rule (the
  // cost model is deliberately absent), and the decision log — including
  // its sampler-period section — must come back byte-identical.
  Scenario replayed;
  ASSERT_TRUE(replayed.ok);
  runtime::RuntimePolicyOptions replay_options = adaptive_policy_options();
  replay_options.sampler.cost_model = nullptr;
  runtime::RuntimePolicy replay_policy(replayed.allocator, replayed.initiator,
                                       replay_options);
  trace::TraceReplayer replayer(replay_policy);
  const trace::ReplayStats stats = replayer.replay(*parsed);
  EXPECT_EQ(stats.epochs, 16u);
  EXPECT_EQ(replay_policy.sampler().period_log(), periods);
  EXPECT_EQ(replay_policy.render_decision_log(), live_log);
}

}  // namespace
