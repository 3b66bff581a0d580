// Trace record/replay: lossless serialization, replay determinism, and the
// recorder's non-perturbation contract (docs/RUNTIME.md "Phase shifts &
// trace replay").
//
// The determinism claims under test are exact, not approximate:
//   * parse(serialize(t)) round-trips every double bit for bit (hexfloat);
//   * replaying one trace twice on identically-prepared machines yields
//     byte-identical decision logs (extending the chaos-replay pattern of
//     tests/runtime_test.cpp to recorded inputs);
//   * a live run with a TraceRecorder chained in front of its RuntimePolicy
//     decides exactly what the same run decides without the recorder, and
//     replaying the recording reproduces that decision log byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/memattr/memattr.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/simmem/array.hpp"
#include "hetmem/simmem/exec.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/support/line_codec.hpp"
#include "hetmem/support/rng.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/topo/presets.hpp"
#include "hetmem/trace/trace.hpp"
#include "text_records.hpp"

namespace {

using namespace hetmem;
using hetmem_test::first_tagged;
using hetmem_test::first_word;
using hetmem_test::lines_of;
using hetmem_test::with_field;
using hetmem_test::with_line;
using support::kGiB;
using support::kMiB;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_traces_bitwise_equal(const trace::Trace& a, const trace::Trace& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.phases_per_epoch, b.phases_per_epoch);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    const runtime::Epoch& left = a.epochs[e];
    const runtime::Epoch& right = b.epochs[e];
    EXPECT_EQ(left.index, right.index);
    EXPECT_TRUE(same_bits(left.duration_ns, right.duration_ns));
    EXPECT_TRUE(same_bits(left.sample_period, right.sample_period))
        << "epoch " << e;
    EXPECT_TRUE(same_bits(left.total_memory_bytes, right.total_memory_bytes))
        << "epoch " << e;
    ASSERT_EQ(left.samples.size(), right.samples.size()) << "epoch " << e;
    for (std::size_t s = 0; s < left.samples.size(); ++s) {
      EXPECT_EQ(left.samples[s].buffer.index, right.samples[s].buffer.index);
      const sim::BufferTraffic& lt = left.samples[s].traffic;
      const sim::BufferTraffic& rt = right.samples[s].traffic;
      EXPECT_TRUE(same_bits(lt.reads, rt.reads));
      EXPECT_TRUE(same_bits(lt.writes, rt.writes));
      EXPECT_TRUE(same_bits(lt.llc_misses, rt.llc_misses));
      EXPECT_TRUE(same_bits(lt.memory_bytes, rt.memory_bytes));
      EXPECT_TRUE(same_bits(lt.random_accesses, rt.random_accesses));
      EXPECT_TRUE(same_bits(lt.random_misses, rt.random_misses));
    }
  }
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

TEST(TraceFormatTest, RoundTripIsLosslessOnAwkwardDoubles) {
  // Values chosen to break lesser formats: repeating binary fractions, the
  // largest/smallest normals, a subnormal, and negative zero.
  const double awkward[] = {0.1,     1.0 / 3.0, 1e308, 2.2250738585072014e-308,
                            5e-324,  -0.0,      0.0,   123456789.123456789,
                            0x1.fffffffffffffp+1023};
  trace::Trace original;
  original.workload = "awkward doubles";
  original.threads = 7;
  original.phases_per_epoch = 3;
  for (unsigned e = 0; e < 3; ++e) {
    runtime::Epoch epoch;
    epoch.index = e;
    epoch.duration_ns = awkward[e];
    for (std::uint32_t b = 0; b < 3; ++b) {
      runtime::EpochSample sample;
      sample.buffer = sim::BufferId{b};
      sample.traffic.reads = awkward[(e + b) % 9];
      sample.traffic.writes = awkward[(e + b + 1) % 9];
      sample.traffic.llc_misses = awkward[(e + b + 2) % 9];
      sample.traffic.memory_bytes = awkward[(e + b + 3) % 9];
      sample.traffic.random_accesses = awkward[(e + b + 4) % 9];
      sample.traffic.random_misses = awkward[(e + b + 5) % 9];
      epoch.total_memory_bytes += sample.traffic.memory_bytes;
      epoch.samples.push_back(sample);
    }
    original.epochs.push_back(epoch);
  }

  const std::string text = trace::serialize(original);
  auto parsed = trace::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  expect_traces_bitwise_equal(original, *parsed);
  // Fixed point: serializing the parse reproduces the exact text.
  EXPECT_EQ(trace::serialize(*parsed), text);
}

TEST(TraceFormatTest, RoundTripIsLosslessOnSeededRandomTraces) {
  support::Xoshiro256 rng(0xc0ffee);
  auto random_double = [&rng] {
    // Mantissa in [0.5, 1), exponent spread over ~600 binades: covers huge,
    // tiny and ordinary magnitudes.
    const double mantissa = 0.5 + rng.next_double() / 2.0;
    const int exponent = static_cast<int>(rng.next_below(600)) - 300;
    return std::ldexp(mantissa, exponent);
  };
  for (unsigned round = 0; round < 20; ++round) {
    trace::Trace original;
    original.workload = "fuzz-" + std::to_string(round);
    original.threads = 1 + static_cast<unsigned>(rng.next_below(64));
    const unsigned epochs = 1 + static_cast<unsigned>(rng.next_below(8));
    for (unsigned e = 0; e < epochs; ++e) {
      runtime::Epoch epoch;
      epoch.index = e;
      epoch.duration_ns = random_double();
      epoch.sample_period = random_double();
      const unsigned samples = static_cast<unsigned>(rng.next_below(6));
      for (unsigned s = 0; s < samples; ++s) {
        runtime::EpochSample sample;
        sample.buffer = sim::BufferId{static_cast<std::uint32_t>(
            rng.next_below(1000))};
        sample.traffic.reads = random_double();
        sample.traffic.writes = random_double();
        sample.traffic.llc_misses = random_double();
        sample.traffic.memory_bytes = random_double();
        sample.traffic.random_accesses = random_double();
        sample.traffic.random_misses = random_double();
        epoch.total_memory_bytes += sample.traffic.memory_bytes;
        epoch.samples.push_back(sample);
      }
      original.epochs.push_back(epoch);
    }
    auto parsed = trace::parse(trace::serialize(original));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    expect_traces_bitwise_equal(original, *parsed);
  }
}

TEST(TraceFormatTest, V2RoundTripCarriesSamplePeriods) {
  // trace/2 epoch lines carry the controller-chosen sample period; the
  // hexfloat encoding must round-trip awkward periods bit for bit, and the
  // serialized text must be a fixed point.
  const double awkward_periods[] = {1.0, 2.0, 1.0 / 3.0, 4096.0, 0.0,
                                    123.456};
  trace::Trace original;
  original.workload = "v2 periods";
  original.threads = 3;
  for (unsigned e = 0; e < 6; ++e) {
    runtime::Epoch epoch;
    epoch.index = e;
    epoch.duration_ns = 1000.0 * (e + 1);
    epoch.sample_period = awkward_periods[e];
    runtime::EpochSample sample;
    sample.buffer = sim::BufferId{e};
    sample.traffic.reads = 10.0 + e;
    sample.traffic.memory_bytes = 640.0 * (e + 1);
    epoch.total_memory_bytes += sample.traffic.memory_bytes;
    epoch.samples.push_back(sample);
    original.epochs.push_back(epoch);
  }
  const std::string text = trace::serialize(original);
  EXPECT_EQ(text.rfind("hetmem-trace/2\n", 0), 0u);
  auto parsed = trace::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  expect_traces_bitwise_equal(original, *parsed);
  EXPECT_EQ(trace::serialize(*parsed), text);
}

TEST(TraceFormatTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(trace::parse("").ok());
  EXPECT_FALSE(trace::parse("not-a-trace/9\nend\n").ok());
  // Truncation (no 'end') must be detected, not silently accepted.
  const std::string text = trace::serialize(trace::Trace{});
  EXPECT_TRUE(trace::parse(text).ok());
  EXPECT_FALSE(trace::parse(text.substr(0, text.size() - 4)).ok());
  // Sample record outside any epoch.
  EXPECT_FALSE(
      trace::parse("hetmem-trace/2\ns 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
                   "0x0p+0\nend\n")
          .ok());
  // Non-numeric counter.
  EXPECT_FALSE(
      trace::parse("hetmem-trace/2\nepoch 0 zero\nend\n").ok());
  // Unknown record tag.
  EXPECT_FALSE(trace::parse("hetmem-trace/2\nbogus 1\nend\n").ok());
  // A v2 epoch line is required to carry its sample period.
  EXPECT_FALSE(trace::parse("hetmem-trace/2\nepoch 0 0x0p+0\nend\n").ok());
  EXPECT_TRUE(
      trace::parse("hetmem-trace/2\nepoch 0 0x0p+0 0x1p+0\nend\n").ok());
}

TEST(TraceFormatTest, ParseRecomputesTotalBytesInRecorderOrder) {
  trace::Trace original;
  runtime::Epoch epoch;
  epoch.index = 0;
  epoch.duration_ns = 1.0;
  // Summation order matters for bit-exactness; use values whose sum depends
  // on order to prove parse() adds them exactly as the recorder did.
  const double values[] = {1e16, 1.0, -1e16, 1.0};
  for (std::uint32_t b = 0; b < 4; ++b) {
    runtime::EpochSample sample;
    sample.buffer = sim::BufferId{b};
    sample.traffic.memory_bytes = values[b];
    sample.traffic.reads = 1.0;
    epoch.total_memory_bytes += sample.traffic.memory_bytes;
    epoch.samples.push_back(sample);
  }
  original.epochs.push_back(epoch);
  auto parsed = trace::parse(trace::serialize(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(same_bits(parsed->epochs[0].total_memory_bytes,
                        original.epochs[0].total_memory_bytes));
}

// ---------------------------------------------------------------------------
// Recorder + replay on a live scenario
// ---------------------------------------------------------------------------

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kBufferBytes = 1 * kGiB;

/// Identically-constructible testbed: Xeon with squeezed fast memory and
/// three 1 GiB buffers parked on the NVDIMM node. Every instance has the
/// same buffer ids, placements and rankings — the precondition for replay
/// reproducing a live run's decisions.
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
      auto hog = machine.allocate(fast_free - headroom, fast, "resident.hog",
                                  4096);
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
  return options;
}

TEST(TraceReplayTest, SyntheticRotationReplaysByteIdentically) {
  Scenario probe;
  ASSERT_TRUE(probe.ok);
  trace::SynthOptions synth;
  synth.epochs = 24;
  const trace::Trace trace =
      trace::synthesize_rotation(probe.buffers, 6, 0.002, synth);
  ASSERT_EQ(trace.epochs.size(), 24u);

  std::vector<std::string> logs;
  std::uint64_t accepted = 0;
  for (int run = 0; run < 2; ++run) {
    Scenario scenario;
    ASSERT_TRUE(scenario.ok);
    runtime::RuntimePolicy policy(scenario.allocator, scenario.initiator,
                                  scenario_options());
    trace::TraceReplayer replayer(policy);
    const trace::ReplayStats stats = replayer.replay(trace);
    EXPECT_EQ(stats.epochs, trace.epochs.size());
    logs.push_back(policy.render_decision_log());
    accepted = policy.engine().stats().accepted;
  }
  // The rotation must actually migrate (otherwise this test proves nothing)
  // and both replays must tell the identical story.
  EXPECT_GE(accepted, 3u);
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_FALSE(logs[0].empty());
}

TEST(TraceReplayTest, SubsampledReplayIsDeterministic) {
  Scenario probe;
  ASSERT_TRUE(probe.ok);
  trace::SynthOptions synth;
  synth.epochs = 24;
  const trace::Trace trace =
      trace::synthesize_rotation(probe.buffers, 6, 0.002, synth);

  // A sampling policy consumes stochastic-rounding draws per sample; the
  // seeded stream must make even subsampled replays exactly repeatable.
  std::vector<std::string> logs;
  for (int run = 0; run < 2; ++run) {
    Scenario scenario;
    ASSERT_TRUE(scenario.ok);
    runtime::RuntimePolicyOptions options = scenario_options();
    options.sampler.sample_period = 10.0;
    runtime::RuntimePolicy policy(scenario.allocator, scenario.initiator,
                                  options);
    trace::TraceReplayer replayer(policy);
    (void)replayer.replay(trace);
    EXPECT_EQ(policy.sampler().epochs_emitted(), trace.epochs.size());
    logs.push_back(policy.render_decision_log());
  }
  EXPECT_EQ(logs[0], logs[1]);
}

/// Runs the live two-part workload (stream buffers[0], then pointer-chase
/// buffers[1]) with an attached policy; optionally chains a recorder in
/// front. Returns the decision log.
std::string run_live(Scenario& scenario, trace::TraceRecorder* recorder) {
  sim::Array<double> streamed(scenario.machine, scenario.buffers[0]);
  sim::Array<double> chased(scenario.machine, scenario.buffers[1]);
  sim::ExecutionContext exec(scenario.machine, scenario.initiator, kThreads);
  runtime::RuntimePolicy policy(scenario.allocator, scenario.initiator,
                                scenario_options());
  policy.attach(exec, [&] {
    streamed.refresh_model();
    chased.refresh_model();
  });
  if (recorder != nullptr) recorder->attach(exec, &policy);

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
  return policy.render_decision_log();
}

TEST(TraceReplayTest, RecorderDoesNotPerturbAndReplayMatchesLive) {
  Scenario with_recorder;
  Scenario without_recorder;
  ASSERT_TRUE(with_recorder.ok);
  ASSERT_TRUE(without_recorder.ok);

  trace::TraceRecorder recorder({1, "flip"});
  const std::string live_log = run_live(with_recorder, &recorder);
  const std::string plain_log = run_live(without_recorder, nullptr);
  // Chaining the recorder in front of the policy must not change a single
  // decision byte.
  EXPECT_EQ(live_log, plain_log);
  EXPECT_FALSE(live_log.empty());
  EXPECT_EQ(recorder.epochs_recorded(), 16u);
  EXPECT_EQ(recorder.trace().threads, kThreads);

  // Serialize -> parse -> replay on a fresh machine: byte-identical log.
  auto parsed = trace::parse(trace::serialize(recorder.trace()));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  Scenario replay_scenario;
  ASSERT_TRUE(replay_scenario.ok);
  runtime::RuntimePolicy policy(replay_scenario.allocator,
                                replay_scenario.initiator, scenario_options());
  trace::TraceReplayer replayer(policy);
  const trace::ReplayStats stats = replayer.replay(*parsed);
  EXPECT_EQ(stats.epochs, 16u);
  EXPECT_EQ(policy.render_decision_log(), live_log);
}

TEST(TraceRecorderTest, RecordsRawDeltasAtEpochCadence) {
  Scenario scenario;
  ASSERT_TRUE(scenario.ok);
  sim::Array<double> array(scenario.machine, scenario.buffers[0]);
  sim::ExecutionContext exec(scenario.machine, scenario.initiator, kThreads);
  trace::TraceRecorder recorder({2, "cadence"});
  recorder.attach(exec);

  for (unsigned phase = 0; phase < 5; ++phase) {
    exec.run_phase("stream", kThreads,
                   [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     if (begin >= end) return;
                     array.record_bulk_read(ctx, 256.0 * kMiB);
                   });
  }
  // 5 phases at 2 phases/epoch: two epochs closed, one phase pending.
  EXPECT_EQ(recorder.epochs_recorded(), 2u);
  recorder.force_epoch(exec);
  ASSERT_EQ(recorder.epochs_recorded(), 3u);

  const trace::Trace& trace = recorder.trace();
  // With no policy chained the raw epochs carry no sampler period (0.0 on
  // the wire).
  EXPECT_TRUE(same_bits(trace.epochs[0].sample_period, 0.0));
  EXPECT_EQ(trace.phases_per_epoch, 2u);
  // Raw exact deltas: every phase issues identical traffic, so a two-phase
  // epoch holds bit-exactly twice the flushed single-phase tail — no
  // subsampling noise, no estimation drift.
  ASSERT_EQ(trace.epochs[0].samples.size(), 1u);
  ASSERT_EQ(trace.epochs[2].samples.size(), 1u);
  EXPECT_EQ(trace.epochs[0].samples[0].buffer.index,
            scenario.buffers[0].index);
  const double tail_bytes = trace.epochs[2].samples[0].traffic.memory_bytes;
  EXPECT_GT(tail_bytes, 0.0);
  EXPECT_TRUE(same_bits(trace.epochs[0].samples[0].traffic.memory_bytes,
                        2.0 * tail_bytes));
  EXPECT_TRUE(same_bits(trace.epochs[1].samples[0].traffic.memory_bytes,
                        2.0 * tail_bytes));
  EXPECT_TRUE(same_bits(trace.epochs[0].samples[0].traffic.reads,
                        2.0 * trace.epochs[2].samples[0].traffic.reads));
}

// ---------------------------------------------------------------------------
// The wire format pinned across commits, and every field's rejection path
// ---------------------------------------------------------------------------

/// run_live's recorded trace (16 epochs, 4 threads) as text.
std::string recorded_trace_text() {
  Scenario scenario;
  EXPECT_TRUE(scenario.ok);
  trace::TraceRecorder recorder({1, "flip"});
  (void)run_live(scenario, &recorder);
  EXPECT_EQ(recorder.epochs_recorded(), 16u);
  return trace::serialize(recorder.trace());
}

TEST(TraceFormatTest, RecordedTraceMatchesRecordedDigest) {
  const std::string text = recorded_trace_text();
  // Pinned bytes: any change to how a record is written moves them, and a
  // wire-format change needs a new `hetmem-trace` version.
  EXPECT_EQ(text.size(), 1684u);
  EXPECT_EQ(support::fnv1a64(text), 0x7fe4200b96ca6794ull)
      << std::hex << support::fnv1a64(text);
}

TEST(TraceRejectionTest, EveryNumericFieldIsChecked) {
  const std::vector<std::string> lines = lines_of(recorded_trace_text());
  std::size_t cases = 0;
  auto expect_rejected = [&](std::size_t at, const std::string& line,
                             const std::string& want) {
    auto parsed = trace::parse(with_line(lines, at, line));
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.error().message, "trace parse error at line " +
                                          std::to_string(at + 1) + ": " + want)
        << line;
    ++cases;
  };
  // A field past the record's last is refused too, once per tag, with the
  // record's own error.
  const std::map<std::string, std::string> trailing = {
      {"threads", "bad thread count"},
      {"phases_per_epoch", "bad phases_per_epoch"},
      {"epoch", "bad epoch line"},
      {"s", "bad sample counter"}};
  std::set<std::string> trailed;
  for (std::size_t at = 1; at < lines.size(); ++at) {
    const std::string tag = first_word(lines[at]);
    if (trailing.count(tag) != 0 && trailed.insert(tag).second) {
      expect_rejected(at, lines[at] + " 0", trailing.at(tag));
    }
    const std::size_t fields = static_cast<std::size_t>(
        std::count(lines[at].begin(), lines[at].end(), ' '));
    for (std::size_t field = 1; field <= fields; ++field) {
      std::string want;
      if (tag == "threads") {
        want = "bad thread count";
      } else if (tag == "phases_per_epoch") {
        want = "bad phases_per_epoch";
      } else if (tag == "epoch") {
        want = field < 3 ? "bad epoch line"
                         : "bad epoch line (v2 needs sample_period)";
      } else if (tag == "s") {
        want = field == 1 ? "bad buffer id" : "bad sample counter";
      } else {
        continue;
      }
      expect_rejected(at, with_field(lines[at], field, "x"), want);
    }
  }
  EXPECT_GT(cases, 50u);
  EXPECT_EQ(trailed.size(), trailing.size());
}

TEST(TraceRejectionTest, RangeChecksIntegersAndSigns) {
  // Inputs the parser accepted before its fields went through
  // support::FieldReader: strtoull took signs and cut ids to 32 bits. A
  // buffer id is 64 bits now (generation << 32 | index), and a generation
  // past SimMachine::kMaxGeneration names no buffer.
  const std::vector<std::string> lines = lines_of(recorded_trace_text());
  struct Case {
    const char* tag;
    std::size_t field;
    const char* value;
    const char* message;
  };
  const Case cases[] = {
      {"threads", 1, "4294967296", "bad thread count"},
      {"threads", 1, "-1", "bad thread count"},
      {"phases_per_epoch", 1, "+1", "bad phases_per_epoch"},
      {"epoch", 1, "-1", "bad epoch line"},
      {"s", 1, "18446744073709551616", "bad buffer id"},
      {"s", 1, "9223372036854775808", "bad buffer id"},
  };
  for (const Case& c : cases) {
    const std::size_t at = first_tagged(lines, c.tag);
    ASSERT_LT(at, lines.size()) << c.tag;
    const std::string line = with_field(lines[at], c.field, c.value);
    auto parsed = trace::parse(with_line(lines, at, line));
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.error().message, "trace parse error at line " +
                                          std::to_string(at + 1) + ": " +
                                          c.message)
        << line;
  }
  // hetmem-trace/1 is gone: its epoch lines had no sample period.
  auto v1 = trace::parse("hetmem-trace/1\nepoch 0 0x1p+0\nend\n");
  ASSERT_FALSE(v1.ok());
  EXPECT_EQ(v1.error().message,
            "trace parse error at line 1: expected header hetmem-trace/2");
}

TEST(TraceRejectionTest, SeededDamageFailsOrReachesAFixedPoint) {
  const std::string text = recorded_trace_text();
  support::Xoshiro256 rng(0x7ace5eed);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    auto parsed = trace::parse(hetmem_test::damage(text, rng));
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.error().message.empty());
      ++rejected;
      continue;
    }
    ++accepted;
    const std::string again = trace::serialize(*parsed);
    auto reparsed = trace::parse(again);
    ASSERT_TRUE(reparsed.ok()) << "round " << round << ": "
                               << reparsed.error().message;
    EXPECT_EQ(trace::serialize(*reparsed), again) << "round " << round;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency (picked up by the CI TSan stress lane)
// ---------------------------------------------------------------------------

TEST(TraceConcurrencyTest, ReplayRacesAllocatorTraffic) {
  Scenario scenario;
  ASSERT_TRUE(scenario.ok);
  trace::SynthOptions synth;
  synth.epochs = 16;
  const trace::Trace trace =
      trace::synthesize_rotation(scenario.buffers, 4, 0.002, synth);

  // Replay migrates through the allocator while worker threads hammer the
  // same allocator with small allocate/free cycles on other nodes — the
  // allocation path is advertised thread-safe against the engine's moves.
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (unsigned worker = 0; worker < 2; ++worker) {
    workers.emplace_back([&scenario, &stop, worker] {
      alloc::AllocRequest request;
      request.bytes = 8 * kMiB;
      request.attribute = attr::kCapacity;
      request.initiator = scenario.initiator;
      request.backing_bytes = 4096;
      request.label = "churn" + std::to_string(worker);
      while (!stop.load(std::memory_order_relaxed)) {
        auto allocation = scenario.allocator.mem_alloc(request);
        if (allocation.ok()) {
          (void)scenario.allocator.mem_free(allocation->buffer);
        }
      }
    });
  }

  runtime::RuntimePolicy policy(scenario.allocator, scenario.initiator,
                                scenario_options());
  trace::TraceReplayer replayer(policy);
  const trace::ReplayStats stats = replayer.replay(trace);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(stats.epochs, trace.epochs.size());
  // The replay must have done real work despite the churn.
  EXPECT_GE(policy.engine().stats().considered, 1u);
}

}  // namespace
