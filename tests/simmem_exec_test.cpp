// Phase resolver and execution-context tests: traffic -> simulated time.
#include "hetmem/simmem/exec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "hetmem/simmem/array.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/topo/builder.hpp"
#include "hetmem/topo/presets.hpp"

// Counts every global operator new in this test binary, so a test can show
// that a call allocates nothing. The array forms forward to these. The
// deletes stay out of line: inlined next to a `new`, GCC would flag the
// malloc/free pair as a new/free mismatch.
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

namespace hetmem::sim {
namespace {

using support::Bitmap;
using support::gb_per_s;
using support::kGiB;
using support::kMiB;

/// One package, 4 cores, one 16 GiB node with round constants:
/// 100 ns latency, 10 GB/s node bandwidth, 4 GB/s per thread.
SimMachine round_machine() {
  topo::TopologyBuilder builder("round");
  auto package = builder.machine().add_package();
  package.add_cores(4, 1);
  package.attach_numa(topo::MemoryKind::kDRAM, 16 * kGiB);
  auto topology = std::move(builder).finalize();
  EXPECT_TRUE(topology.ok());

  MachinePerfModel model(1);
  NodePerf perf;
  perf.idle_latency_ns = 100.0;
  perf.read_bw = gb_per_s(10.0);
  perf.write_bw = gb_per_s(10.0);
  perf.per_thread_read_bw = gb_per_s(4.0);
  perf.per_thread_write_bw = gb_per_s(4.0);
  perf.loaded_latency_k = 0.0;  // keep arithmetic exact for tests
  model.set_node(0, perf);
  return SimMachine(std::move(topology).take(), std::move(model));
}

class ResolverTest : public ::testing::Test {
 protected:
  ResolverTest() : machine_(round_machine()) {
    machine_.set_llc_bytes(kMiB);
    auto buffer = machine_.allocate(kGiB, 0, "buf", 4096);
    EXPECT_TRUE(buffer.ok());
    buffer_ = *buffer;
  }

  PhaseResult resolve(std::vector<ThreadCtx*> contexts) {
    return resolve_phase(machine_, machine_.topology().complete_cpuset(),
                         std::move(contexts), "test");
  }

  SimMachine machine_;
  BufferId buffer_;
};

TEST_F(ResolverTest, PureBandwidthPhase) {
  ThreadCtx ctx(1);
  // 1 GB read at 10 GB/s (1 thread capped at 4 GB/s) => 0.25 s.
  ctx.record_seq_read(0, buffer_, 1e9, 1.0);
  const PhaseResult result = resolve({&ctx});
  EXPECT_NEAR(result.sim_ns, 1e9 / gb_per_s(4.0) * 1e9, 1e3);
  EXPECT_DOUBLE_EQ(result.latency_time_ns_max, 0.0);
}

TEST_F(ResolverTest, BandwidthSaturatesAtNodePeakWithManyThreads) {
  std::vector<ThreadCtx> contexts(4, ThreadCtx(1));
  for (ThreadCtx& ctx : contexts) {
    ctx.record_seq_read(0, buffer_, 1e9, 1.0);  // 4 GB total
  }
  std::vector<ThreadCtx*> raw;
  for (ThreadCtx& ctx : contexts) raw.push_back(&ctx);
  const PhaseResult result = resolve(raw);
  // 4 threads x 4 GB/s = 16 > node peak 10 => 4 GB / 10 GB/s = 0.4 s.
  EXPECT_NEAR(result.sim_ns, 0.4e9, 1e3);
}

TEST_F(ResolverTest, ReadAndWriteTimesAdd) {
  ThreadCtx ctx(1);
  ctx.record_seq_read(0, buffer_, 1e9, 1.0);
  ctx.record_seq_write(0, buffer_, 1e9, 1.0);
  const PhaseResult result = resolve({&ctx});
  EXPECT_NEAR(result.sim_ns, 2.0 * 0.25e9, 1e3);
}

TEST_F(ResolverTest, PureLatencyPhase) {
  ThreadCtx ctx(1);
  ctx.set_mlp(1.0);
  // 1000 dependent misses x 100 ns = 100 us (plus their 64 KB of line
  // traffic, negligible at these sizes).
  ctx.record_rand_read(0, buffer_, 1000, 1.0);
  const PhaseResult result = resolve({&ctx});
  EXPECT_NEAR(result.latency_time_ns_max, 1000 * 100.0, 1.0);
  EXPECT_GE(result.sim_ns, result.bandwidth_time_ns_max);
}

TEST_F(ResolverTest, MlpDividesLatencyCost) {
  ThreadCtx serial(1);
  serial.set_mlp(1.0);
  serial.record_rand_read(0, buffer_, 1000, 1.0);
  ThreadCtx overlapped(1);
  overlapped.set_mlp(4.0);
  overlapped.record_rand_read(0, buffer_, 1000, 1.0);
  EXPECT_NEAR(resolve({&serial}).latency_time_ns_max,
              4.0 * resolve({&overlapped}).latency_time_ns_max, 1.0);
}

TEST_F(ResolverTest, MissRateScalesCharges) {
  ThreadCtx ctx(1);
  ctx.set_mlp(1.0);
  ctx.record_rand_read(0, buffer_, 1000, 0.1);  // 100 expected misses
  const PhaseResult result = resolve({&ctx});
  EXPECT_NEAR(result.latency_time_ns_max, 100 * 100.0, 1.0);
}

TEST_F(ResolverTest, PhaseTimeIsMaxOfLatencyAndBandwidth) {
  ThreadCtx ctx(1);
  ctx.set_mlp(1.0);
  ctx.record_seq_read(0, buffer_, 1e9, 1.0);       // 0.25 s of bandwidth
  ctx.record_rand_read(0, buffer_, 1000, 1.0);     // 0.1 ms of latency
  const PhaseResult result = resolve({&ctx});
  EXPECT_NEAR(result.sim_ns, 0.25e9 + 1000 * 64.0 / gb_per_s(4.0) * 1e9, 1e4);
}

TEST_F(ResolverTest, ComputeTimeAddsToThreadTime) {
  ThreadCtx ctx(1);
  ctx.add_compute_ns(5e6);
  const PhaseResult result = resolve({&ctx});
  EXPECT_NEAR(result.sim_ns, 5e6, 1.0);
  EXPECT_NEAR(result.compute_ns_max, 5e6, 1.0);
}

TEST_F(ResolverTest, SlowestThreadDominates) {
  ThreadCtx fast(1);
  fast.add_compute_ns(1e6);
  ThreadCtx slow(1);
  slow.add_compute_ns(9e6);
  const PhaseResult result = resolve({&fast, &slow});
  EXPECT_NEAR(result.sim_ns, 9e6, 1.0);
}

TEST_F(ResolverTest, MoreBytesNeverFaster) {
  double previous = 0.0;
  for (double bytes = 1e6; bytes <= 1e10; bytes *= 10) {
    ThreadCtx ctx(1);
    ctx.record_seq_read(0, buffer_, bytes, 1.0);
    const double t = resolve({&ctx}).sim_ns;
    EXPECT_GT(t, previous);
    previous = t;
  }
}

TEST_F(ResolverTest, WorkingSetAggregatesUniqueTouchedBuffers) {
  auto second = machine_.allocate(2 * kGiB, 0, "buf2", 4096);
  ASSERT_TRUE(second.ok());
  ThreadCtx a(1);
  ThreadCtx b(1);
  a.record_seq_read(0, buffer_, 100.0, 1.0);
  a.record_seq_read(0, *second, 100.0, 1.0);
  b.record_seq_read(0, buffer_, 100.0, 1.0);  // same buffer: counted once
  const PhaseResult result = resolve({&a, &b});
  EXPECT_EQ(result.nodes[0].working_set_bytes, 3 * kGiB);
}

TEST_F(ResolverTest, EmptyPhaseTakesNoTime) {
  ThreadCtx ctx(1);
  const PhaseResult result = resolve({&ctx});
  EXPECT_DOUBLE_EQ(result.sim_ns, 0.0);
}

TEST_F(ResolverTest, ResetPhaseClearsNodeTrafficKeepsBufferTotals) {
  ThreadCtx ctx(1);
  ctx.record_rand_read(0, buffer_, 10, 1.0);
  ctx.reset_phase();
  EXPECT_FALSE(ctx.node_traffic()[0].any());
  EXPECT_TRUE(ctx.touched_buffers().empty());
  ASSERT_GT(ctx.buffer_traffic().size(), buffer_.index);
  EXPECT_DOUBLE_EQ(ctx.buffer_traffic()[buffer_.index].reads, 10.0);
  // Re-touch after reset works.
  ctx.record_rand_read(0, buffer_, 5, 1.0);
  EXPECT_EQ(ctx.touched_buffers().size(), 1u);
}

// --- per-thread localities (multi-socket runs) ---

TEST(PerThreadLocality, RemoteThreadPaysRemoteLatency) {
  SimMachine machine(topo::xeon_clx_1lm());
  auto buffer = machine.allocate(kGiB, /*node=*/0, "b", 4096);
  ASSERT_TRUE(buffer.ok());
  const support::Bitmap socket0 = machine.topology().numa_node(0)->cpuset();
  const support::Bitmap socket1 = machine.topology().numa_node(1)->cpuset();

  auto chase_ns = [&](const support::Bitmap& binding) {
    ExecutionContext exec(machine, socket0, 2);
    EXPECT_TRUE(exec.set_thread_localities({binding, binding}).ok());
    exec.set_mlp(1.0);
    Array<std::uint32_t> array(machine, *buffer);
    exec.run_phase("c", 2,
                   [&](ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       array.record_bulk_random_reads(ctx, 10000.0);
                     }
                   });
    return exec.clock_ns();
  };
  const double local_ns = chase_ns(socket0);
  const double remote_ns = chase_ns(socket1);
  // Remote factor is 1.6x on latency.
  EXPECT_NEAR(remote_ns / local_ns, 1.6, 0.1);
}

TEST(PerThreadLocality, MixedThreadsSplitBandwidthClasses) {
  SimMachine machine(topo::xeon_clx_1lm());
  auto buffer = machine.allocate(kGiB, /*node=*/0, "b", 4096);
  ASSERT_TRUE(buffer.ok());
  const support::Bitmap socket0 = machine.topology().numa_node(0)->cpuset();
  const support::Bitmap socket1 = machine.topology().numa_node(1)->cpuset();

  auto stream_ns = [&](const support::Bitmap& a, const support::Bitmap& b) {
    ExecutionContext exec(machine, socket0, 2);
    EXPECT_TRUE(exec.set_thread_localities({a, b}).ok());
    Array<double> array(machine, *buffer);
    exec.run_phase("s", 2,
                   [&](ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       array.record_bulk_read(ctx, 1e9);
                     }
                   });
    return exec.clock_ns();
  };
  const double all_local = stream_ns(socket0, socket0);
  const double mixed = stream_ns(socket0, socket1);
  const double all_remote = stream_ns(socket1, socket1);
  EXPECT_GT(mixed, all_local);
  EXPECT_LT(mixed, all_remote);
}

TEST(PerThreadLocality, WrongCountRejected) {
  SimMachine machine(topo::xeon_clx_1lm());
  ExecutionContext exec(machine, machine.topology().numa_node(0)->cpuset(), 4);
  auto status =
      exec.set_thread_localities({machine.topology().numa_node(0)->cpuset()});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, support::Errc::kInvalidArgument);
}

TEST(PerThreadLocality, EmptyLocalityFallsBackToContextInitiator) {
  SimMachine machine(topo::xeon_clx_1lm());
  auto buffer = machine.allocate(kGiB, /*node=*/0, "b", 4096);
  ASSERT_TRUE(buffer.ok());
  const support::Bitmap socket0 = machine.topology().numa_node(0)->cpuset();

  auto run_with = [&](bool set_empty) {
    ExecutionContext exec(machine, socket0, 2);
    if (set_empty) {
      EXPECT_TRUE(
          exec.set_thread_localities({support::Bitmap{}, support::Bitmap{}}).ok());
    }
    exec.set_mlp(1.0);
    Array<std::uint32_t> array(machine, *buffer);
    exec.run_phase("c", 2,
                   [&](ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       array.record_bulk_random_reads(ctx, 10000.0);
                     }
                   });
    return exec.clock_ns();
  };
  EXPECT_DOUBLE_EQ(run_with(false), run_with(true));
}

// --- loaded latency (needs a model with k > 0) ---

TEST(LoadedLatency, HighUtilizationInflatesLatency) {
  topo::TopologyBuilder builder("loaded");
  auto package = builder.machine().add_package();
  package.add_cores(2, 1);
  package.attach_numa(topo::MemoryKind::kDRAM, 16 * kGiB);
  auto topology = std::move(builder).finalize();
  ASSERT_TRUE(topology.ok());
  MachinePerfModel model(1);
  NodePerf perf;
  perf.idle_latency_ns = 100.0;
  perf.read_bw = gb_per_s(10.0);
  perf.write_bw = gb_per_s(10.0);
  perf.per_thread_read_bw = gb_per_s(10.0);
  perf.per_thread_write_bw = gb_per_s(10.0);
  perf.loaded_latency_k = 2.0;
  model.set_node(0, perf);
  SimMachine machine(std::move(topology).take(), std::move(model));
  auto buffer = machine.allocate(kGiB, 0, "b", 4096);
  ASSERT_TRUE(buffer.ok());

  // Saturating stream + dependent loads: latency portion inflated by k.
  ThreadCtx ctx(1);
  ctx.set_mlp(1.0);
  ctx.record_seq_read(0, *buffer, 1e9, 1.0);
  ctx.record_rand_read(0, *buffer, 1000, 1.0);
  const PhaseResult loaded = resolve_phase(
      machine, machine.topology().complete_cpuset(), {&ctx}, "loaded");

  ThreadCtx quiet(1);
  quiet.set_mlp(1.0);
  quiet.record_rand_read(0, *buffer, 1000, 1.0);
  const PhaseResult idle = resolve_phase(
      machine, machine.topology().complete_cpuset(), {&quiet}, "idle");

  EXPECT_GT(loaded.latency_time_ns_max, idle.latency_time_ns_max * 1.5);
}

// --- steady-state resolution ---

TEST(ResolvePhaseInto, ReusedScratchIsBitIdenticalAndAllocationFree) {
  // kv_rotation's resolver load: ~130 touched buffers on two threads, with
  // labels too long for the small-string buffer and overlapping touch sets.
  SimMachine machine(topo::xeon_clx_1lm());
  const unsigned nodes =
      static_cast<unsigned>(machine.topology().numa_nodes().size());
  std::vector<ThreadCtx> threads(2, ThreadCtx(nodes));
  for (unsigned i = 0; i < 130; ++i) {
    auto buffer = machine.allocate(kMiB, i % nodes,
                                   "resolver.buffer." + std::to_string(i), 64);
    ASSERT_TRUE(buffer.ok());
    for (unsigned t = 0; t < threads.size(); ++t) {
      if (i % 3 == t) continue;
      threads[t].touch(*buffer);
      threads[t].record_rand_read(i % nodes, *buffer, 100.0 * (i + 1), 0.5);
      threads[t].record_seq_write(i % nodes, *buffer, 1e5 * (t + 1), 1.0);
    }
  }
  threads[1].add_compute_ns(2e5);
  std::vector<ThreadCtx*> contexts = {&threads[0], &threads[1]};
  const Bitmap initiator = machine.topology().numa_node(0)->cpuset();
  const std::size_t before_pure = g_heap_allocations.load();
  const PhaseResult expected =
      resolve_phase(machine, initiator, contexts, "expected");
  EXPECT_GT(g_heap_allocations.load() - before_pure, 0u)
      << "a fresh scratch allocates, so the counter must see it";

  ResolveScratch scratch;
  PhaseResult result;
  resolve_phase_into(machine, initiator, contexts, scratch, result);
  const std::size_t before = g_heap_allocations.load();
  for (int call = 0; call < 10; ++call) {
    resolve_phase_into(machine, initiator, contexts, scratch, result);
  }
  EXPECT_EQ(g_heap_allocations.load() - before, 0u);

  EXPECT_EQ(result.sim_ns, expected.sim_ns);
  EXPECT_EQ(result.compute_ns_max, expected.compute_ns_max);
  EXPECT_EQ(result.latency_time_ns_max, expected.latency_time_ns_max);
  EXPECT_EQ(result.bandwidth_time_ns_max, expected.bandwidth_time_ns_max);
  ASSERT_EQ(result.nodes.size(), expected.nodes.size());
  for (std::size_t n = 0; n < nodes; ++n) {
    const NodePhaseStats& got = result.nodes[n];
    const NodePhaseStats& want = expected.nodes[n];
    EXPECT_EQ(got.read_bytes, want.read_bytes) << "node " << n;
    EXPECT_EQ(got.write_bytes, want.write_bytes) << "node " << n;
    EXPECT_EQ(got.rand_accesses, want.rand_accesses) << "node " << n;
    EXPECT_EQ(got.bandwidth_time_ns, want.bandwidth_time_ns) << "node " << n;
    EXPECT_EQ(got.latency_stall_ns, want.latency_stall_ns) << "node " << n;
    EXPECT_EQ(got.utilization, want.utilization) << "node " << n;
    EXPECT_EQ(got.working_set_bytes, want.working_set_bytes) << "node " << n;
    EXPECT_GT(got.working_set_bytes, 0u) << "node " << n;
  }
}

// --- ExecutionContext end to end ---

TEST(ExecutionContext, RunPhaseSplitsItemsAcrossSimulatedThreads) {
  SimMachine machine = round_machine();
  ExecutionContext exec(machine, machine.topology().complete_cpuset(), 4);
  std::vector<std::atomic<int>> hits(100);
  exec.run_phase("cover", 100,
                 [&](ThreadCtx&, unsigned, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
                 });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(exec.history().size(), 1u);
}

TEST(ExecutionContext, MoreSimulatedThreadsThanHardware) {
  SimMachine machine = round_machine();
  // 16 simulated ranks on however many real cores this host has.
  ExecutionContext exec(machine, machine.topology().complete_cpuset(), 16);
  std::atomic<int> count{0};
  exec.run_phase("fan", 64, [&](ThreadCtx&, unsigned, std::size_t begin,
                                std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 64);
  EXPECT_EQ(exec.thread_count(), 16u);
}

TEST(ExecutionContext, ClockAccumulatesAcrossPhases) {
  SimMachine machine = round_machine();
  auto buffer = machine.allocate(kGiB, 0, "b", 4096);
  ASSERT_TRUE(buffer.ok());
  ExecutionContext exec(machine, machine.topology().complete_cpuset(), 2);
  Array<std::uint32_t> array(machine, *buffer);
  for (int phase = 0; phase < 3; ++phase) {
    exec.run_phase("p", 2,
                   [&](ThreadCtx& ctx, unsigned, std::size_t, std::size_t) {
                     array.record_bulk_read(ctx, 1e6);
                   });
  }
  EXPECT_EQ(exec.history().size(), 3u);
  double sum = 0.0;
  for (const PhaseResult& r : exec.history()) sum += r.sim_ns;
  EXPECT_DOUBLE_EQ(exec.clock_ns(), sum);
  EXPECT_GT(exec.clock_ns(), 0.0);
}

TEST(ExecutionContext, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimMachine machine = round_machine();
    auto buffer = machine.allocate(kGiB, 0, "b", 64 * 1024);
    EXPECT_TRUE(buffer.ok());
    ExecutionContext exec(machine, machine.topology().complete_cpuset(), 4);
    Array<std::uint32_t> array(machine, *buffer);
    exec.run_phase("p", 4000,
                   [&](ThreadCtx& ctx, unsigned, std::size_t begin,
                       std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       array.load_rand(ctx, i % array.size());
                     }
                   });
    return exec.clock_ns();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(ExecutionContext, MergedBufferTrafficSumsAllThreads) {
  SimMachine machine = round_machine();
  auto buffer = machine.allocate(kGiB, 0, "b", 4096);
  ASSERT_TRUE(buffer.ok());
  ExecutionContext exec(machine, machine.topology().complete_cpuset(), 4);
  Array<std::uint32_t> array(machine, *buffer);
  exec.run_phase("p", 4,
                 [&](ThreadCtx& ctx, unsigned, std::size_t begin,
                     std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     array.record_bulk_random_reads(ctx, 10.0);
                   }
                 });
  auto merged = exec.merged_buffer_traffic();
  ASSERT_GT(merged.size(), buffer->index);
  EXPECT_DOUBLE_EQ(merged[buffer->index].reads, 40.0);
}

}  // namespace
}  // namespace hetmem::sim
