// Telemetry journal tests: the epoch delta stream against diffs of full
// merges, reader independence, readers moving between contexts, and the
// batched power fold (docs/PERF.md "Telemetry journal",
// docs/CONCURRENCY.md).
//
// The load-bearing claim is exactness, not approximation: every delta an
// epoch consumer reads must be bit-identical to diffing successive full
// O(threads x buffers) merges, or decision logs would stop replaying
// byte-for-byte.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "hetmem/simmem/exec.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/topo/presets.hpp"

namespace hetmem::sim {
namespace {

using support::kMiB;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_traffic_bitwise_equal(const BufferTraffic& a,
                                  const BufferTraffic& b) {
  EXPECT_TRUE(same_bits(a.reads, b.reads));
  EXPECT_TRUE(same_bits(a.writes, b.writes));
  EXPECT_TRUE(same_bits(a.llc_misses, b.llc_misses));
  EXPECT_TRUE(same_bits(a.memory_bytes, b.memory_bytes));
  EXPECT_TRUE(same_bits(a.random_accesses, b.random_accesses));
  EXPECT_TRUE(same_bits(a.random_misses, b.random_misses));
}

using DeltaStream = std::vector<std::pair<std::uint32_t, BufferTraffic>>;

void expect_streams_bitwise_equal(const DeltaStream& a, const DeltaStream& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    expect_traffic_bitwise_equal(a[i].second, b[i].second);
  }
}

/// One read of `exec` through `reader`, as a stream.
DeltaStream read_deltas(const ExecutionContext& exec, TelemetryReader& reader) {
  DeltaStream stream;
  exec.read_traffic_deltas(
      reader, [&stream](BufferId buffer, const BufferTraffic& delta) {
        stream.emplace_back(buffer.index, delta);
      });
  return stream;
}

// ---------------------------------------------------------------------------
// Delta stream vs diffs of full merges: the bit-exactness contract
// ---------------------------------------------------------------------------

constexpr unsigned kThreads = 4;

/// The reference stream: diff a full merged_buffer_traffic() against the
/// counters last emitted per buffer, over the whole buffer range, with the
/// sampler's inclusion rule.
void append_merge_diff(const ExecutionContext& exec,
                       std::vector<BufferTraffic>& emitted, DeltaStream& out) {
  const std::vector<BufferTraffic> merged = exec.merged_buffer_traffic();
  if (emitted.size() < merged.size()) emitted.resize(merged.size());
  for (std::uint32_t b = 0; b < merged.size(); ++b) {
    BufferTraffic delta;
    delta.reads = merged[b].reads - emitted[b].reads;
    delta.writes = merged[b].writes - emitted[b].writes;
    delta.llc_misses = merged[b].llc_misses - emitted[b].llc_misses;
    delta.memory_bytes = merged[b].memory_bytes - emitted[b].memory_bytes;
    delta.random_accesses =
        merged[b].random_accesses - emitted[b].random_accesses;
    delta.random_misses = merged[b].random_misses - emitted[b].random_misses;
    if (!(delta.reads > 0.0 || delta.writes > 0.0 ||
          delta.memory_bytes > 0.0)) {
      continue;
    }
    emitted[b] = merged[b];
    out.emplace_back(b, delta);
  }
}

/// Runs `phases` phases through `run_phase` and, after every `read_every`-th
/// one, reads the journal stream and the merge-diff stream.
std::pair<DeltaStream, DeltaStream> read_both_streams(
    const ExecutionContext& exec, unsigned phases, unsigned read_every,
    const std::function<void(unsigned)>& run_phase) {
  std::pair<DeltaStream, DeltaStream> streams;
  TelemetryReader reader;
  std::vector<BufferTraffic> emitted;
  for (unsigned phase = 0; phase < phases; ++phase) {
    run_phase(phase);
    if ((phase + 1) % read_every != 0) continue;
    const DeltaStream read = read_deltas(exec, reader);
    streams.first.insert(streams.first.end(), read.begin(), read.end());
    append_merge_diff(exec, emitted, streams.second);
  }
  return streams;
}

// The next two tests keep their names from the ring transport: the "rings"
// side is now the journal's delta stream, the "legacy merge" side the diff
// of successive full merges, and the "overflow" input the one-thread phase
// that once overflowed a 1,024-entry ring.

TEST(TelemetryModes, RingsMatchLegacyMergeBitwise) {
  // Mixed multi-buffer workload: thread t touches a rotating window of
  // buffers with thread- and phase-dependent traffic, so each delta sums
  // several threads' counters, read every phase and every third phase.
  for (unsigned read_every : {1u, 3u}) {
    SCOPED_TRACE(read_every);
    SimMachine machine(topo::xeon_clx_1lm());
    std::vector<BufferId> buffers;
    for (unsigned i = 0; i < 8; ++i) {
      auto buffer = machine.allocate(16 * kMiB, 0, "mix", 4096);
      ASSERT_TRUE(buffer.ok());
      buffers.push_back(*buffer);
    }
    ExecutionContext exec(machine, machine.topology().numa_node(0)->cpuset(),
                          kThreads);
    const auto [journal, merge_diff] = read_both_streams(
        exec, 9, read_every, [&](unsigned phase) {
          exec.run_phase(
              "mix", kThreads,
              [&](ThreadCtx& ctx, unsigned thread, std::size_t begin,
                  std::size_t end) {
                if (begin >= end) return;
                for (unsigned k = 0; k < 3; ++k) {
                  const BufferId id =
                      buffers[(thread + k + phase) % buffers.size()];
                  ctx.record_seq_read(0, id,
                                      (1.0 + thread) * (1u << k) * 4096.0, 1.0);
                  if (k == 0) {
                    ctx.record_seq_write(0, id, 1024.0 * (phase + 1), 1.0);
                    ctx.record_rand_read(0, id, 100.0 * (thread + 1), 0.25);
                  }
                }
              });
        });
    expect_streams_bitwise_equal(journal, merge_diff);
    EXPECT_FALSE(journal.empty());
  }
}

TEST(TelemetryModes, OverflowFallbackLosesNothing) {
  // One thread touching 1,500 buffers in a single phase: the whole population
  // is journaled and read at once, and no buffer is dropped.
  SimMachine machine(topo::xeon_clx_1lm());
  std::vector<BufferId> buffers;
  for (unsigned i = 0; i < 1500; ++i) {
    auto buffer = machine.allocate(64 * 1024, 0, "flood", 4096);
    ASSERT_TRUE(buffer.ok());
    buffers.push_back(*buffer);
  }
  ExecutionContext exec(machine, machine.topology().numa_node(0)->cpuset(), 1);
  const auto [journal, merge_diff] =
      read_both_streams(exec, 1, 1, [&](unsigned) {
        exec.run_phase("flood", 1,
                       [&](ThreadCtx& ctx, unsigned, std::size_t begin,
                           std::size_t end) {
                         if (begin >= end) return;
                         for (std::size_t i = 0; i < buffers.size(); ++i) {
                           ctx.record_seq_read(0, buffers[i],
                                               4096.0 * (1.0 + (i % 5)), 1.0);
                         }
                       });
      });
  expect_streams_bitwise_equal(journal, merge_diff);
  EXPECT_EQ(journal.size(), 1500u);
}

TEST(TelemetryReaders, IndependentCadencesSeeTheSameTotals) {
  // Two consumers with different epoch cadences cursor into the same
  // journal; each must accumulate the identical cumulative totals — readers
  // share no diff state, so one's read never shrinks the other's deltas.
  SimMachine machine(topo::xeon_clx_1lm());
  auto buffer = machine.allocate(64 * kMiB, 0, "shared", 4096);
  ASSERT_TRUE(buffer.ok());
  ExecutionContext exec(machine, machine.topology().numa_node(0)->cpuset(),
                        kThreads);
  TelemetryReader every_phase;
  TelemetryReader at_end;
  double frequent_total = 0.0;
  for (unsigned phase = 0; phase < 6; ++phase) {
    exec.run_phase("p", kThreads,
                   [&](ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     if (begin >= end) return;
                     ctx.record_seq_read(0, *buffer, 8.0 * kMiB, 1.0);
                   });
    exec.read_traffic_deltas(
        every_phase, [&](BufferId, const BufferTraffic& delta) {
          frequent_total += delta.memory_bytes;
        });
  }
  double lump_total = 0.0;
  exec.read_traffic_deltas(at_end,
                           [&](BufferId, const BufferTraffic& delta) {
                             lump_total += delta.memory_bytes;
                           });
  const auto merged = exec.merged_buffer_traffic();
  EXPECT_TRUE(same_bits(lump_total, merged[buffer->index].memory_bytes));
  EXPECT_GT(frequent_total, 0.0);
  EXPECT_NEAR(frequent_total, lump_total, lump_total * 1e-12);
}

TEST(TelemetryReaders, MovingToAnotherContextStartsOver) {
  // One reader reads context A, then B, then A again. Each move must read
  // what a fresh reader reads there: the context's full cumulative traffic.
  // A's journal is longer than B's after ten reads of four buffers and
  // shorter after one read of one buffer, so a cursor carried over from A
  // would run past B's journal or skip B's first entries.
  for (const auto& [phases_on_a, buffers_on_a] :
       {std::pair{10u, 4u}, std::pair{1u, 1u}}) {
    SCOPED_TRACE(phases_on_a);
    SimMachine machine(topo::xeon_clx_1lm());
    std::vector<BufferId> buffers;
    for (unsigned i = 0; i < 4; ++i) {
      auto buffer = machine.allocate(16 * kMiB, 0, "moved", 4096);
      ASSERT_TRUE(buffer.ok());
      buffers.push_back(*buffer);
    }
    const support::Bitmap cpuset = machine.topology().numa_node(0)->cpuset();
    ExecutionContext a(machine, cpuset, kThreads);
    ExecutionContext b(machine, cpuset, kThreads);
    auto run_phase = [&](ExecutionContext& exec, unsigned touched,
                         double bytes) {
      exec.run_phase("p", kThreads,
                     [&](ThreadCtx& ctx, unsigned thread, std::size_t begin,
                         std::size_t end) {
                       if (begin >= end) return;
                       for (unsigned i = 0; i < touched; ++i) {
                         ctx.record_seq_read(0, buffers[i],
                                             bytes * (1.0 + thread + i), 1.0);
                       }
                     });
    };

    TelemetryReader moved;
    for (unsigned phase = 0; phase < phases_on_a; ++phase) {
      run_phase(a, buffers_on_a, 4096.0 * (phase + 1));
      EXPECT_FALSE(read_deltas(a, moved).empty());
    }
    run_phase(b, 4, 1024.0);
    TelemetryReader fresh_b;
    const DeltaStream expected_b = read_deltas(b, fresh_b);
    EXPECT_EQ(expected_b.size(), 4u);
    expect_streams_bitwise_equal(read_deltas(b, moved), expected_b);

    TelemetryReader fresh_a;
    const DeltaStream expected_a = read_deltas(a, fresh_a);
    EXPECT_EQ(expected_a.size(), buffers_on_a);
    expect_streams_bitwise_equal(read_deltas(a, moved), expected_a);
  }
}

// ---------------------------------------------------------------------------
// Batched power fold
// ---------------------------------------------------------------------------

TEST(MachinePowerBatch, MatchesSequentialFoldBitwise) {
  // record_node_traffic_batch advertises "bit-identical to count individual
  // calls" — same EMA updates in the same node order under one lock.
  SimMachine sequential(topo::xeon_clx_1lm());
  SimMachine batched(topo::xeon_clx_1lm());
  const std::size_t nodes = sequential.topology().numa_nodes().size();
  ASSERT_GE(nodes, 2u);
  std::vector<std::uint64_t> reads(nodes);
  std::vector<std::uint64_t> writes(nodes);
  for (unsigned interval = 1; interval <= 3; ++interval) {
    for (std::size_t n = 0; n < nodes; ++n) {
      reads[n] = (n + 1) * 128 * kMiB * interval;
      writes[n] = (n + 1) * 32 * kMiB;
    }
    const double interval_ns = 1e6 * interval;
    for (std::size_t n = 0; n < nodes; ++n) {
      sequential.record_node_traffic(static_cast<unsigned>(n), reads[n],
                                     writes[n], interval_ns);
    }
    batched.record_node_traffic_batch(reads.data(), writes.data(), nodes,
                                      interval_ns);
    for (std::size_t n = 0; n < nodes; ++n) {
      EXPECT_TRUE(same_bits(sequential.power_draw_watts(
                                static_cast<unsigned>(n)),
                            batched.power_draw_watts(static_cast<unsigned>(n))))
          << "node " << n << " interval " << interval;
    }
  }
  EXPECT_GT(batched.power_draw_watts(0), 0.0);
}

}  // namespace
}  // namespace hetmem::sim
