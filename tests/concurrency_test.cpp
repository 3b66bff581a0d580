// Concurrency stress and race tests for the allocation path
// (docs/CONCURRENCY.md). Designed to run clean under ThreadSanitizer: the CI
// TSan lane executes this binary three times, and any data race in the
// machine's sharded arenas, the allocator's atomic statistics, or the
// registry's reader/writer locking fails the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/alloc/pool.hpp"
#include "hetmem/fault/fault.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/memattr/memattr.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/support/rng.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/tenant/tenant.hpp"
#include "hetmem/topo/presets.hpp"

namespace hetmem {
namespace {

using support::kGiB;
using support::kMiB;

// Modest by default so the suite stays fast in sanitizer builds; the
// invariants are interleaving-sensitive, not volume-sensitive.
constexpr unsigned kThreads = 8;
constexpr unsigned kBuffersPerThread = 64;

struct OwnedBuffer {
  sim::BufferId id;
  unsigned node = 0;
  std::uint64_t bytes = 0;
  bool live = false;
};

// --- machine-level stress: alloc/free/migrate/query under a phase barrier ---

// Each thread owns its buffers exclusively; after every barrier one thread
// checks the global invariants while everyone else waits (all threads
// quiescent), then a second barrier releases the next phase.
TEST(MachineConcurrency, PhasedStressKeepsCapacityAccountingExact) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  const std::size_t nodes = machine.topology().numa_nodes().size();

  std::vector<std::vector<OwnedBuffer>> owned(kThreads);
  std::barrier barrier(kThreads);

  auto check_invariants = [&] {
    std::vector<std::uint64_t> expected(nodes, 0);
    std::size_t expected_live = 0;
    for (const auto& per_thread : owned) {
      for (const OwnedBuffer& buffer : per_thread) {
        if (!buffer.live) continue;
        expected[buffer.node] += buffer.bytes;
        ++expected_live;
        const sim::BufferInfo info = machine.info(buffer.id);
        EXPECT_FALSE(info.freed);
        EXPECT_EQ(info.node, buffer.node);
        EXPECT_EQ(info.declared_bytes, buffer.bytes);
      }
    }
    EXPECT_EQ(machine.live_buffer_count(), expected_live);
    for (unsigned n = 0; n < nodes; ++n) {
      EXPECT_EQ(machine.used_bytes(n), expected[n]) << "node " << n;
      EXPECT_LE(machine.used_bytes(n), machine.capacity_bytes(n)) << "node " << n;
    }
  };

  auto worker = [&](unsigned tid) {
    support::Xoshiro256 rng(0x5eed0000 + tid);
    auto pick_node = [&] {
      return static_cast<unsigned>(rng.next_below(nodes));
    };

    // Phase 1: allocate. Sizes stay tiny relative to capacity so success
    // never depends on the interleaving.
    for (unsigned b = 0; b < kBuffersPerThread; ++b) {
      OwnedBuffer buffer;
      buffer.node = pick_node();
      buffer.bytes = (1 + rng.next_below(16)) * kMiB;
      auto id = machine.allocate(buffer.bytes, buffer.node,
                                 "t" + std::to_string(tid) + ".b" +
                                     std::to_string(b),
                                 /*backing_bytes=*/64);
      ASSERT_TRUE(id.ok()) << id.error().to_string();
      buffer.id = *id;
      buffer.live = true;
      owned[tid].push_back(buffer);
    }
    barrier.arrive_and_wait();
    if (tid == 0) check_invariants();
    barrier.arrive_and_wait();

    // Phase 2: migrate half, query the rest (info() is lock-free).
    for (OwnedBuffer& buffer : owned[tid]) {
      if (rng.next_below(2) == 0) {
        const unsigned destination = pick_node();
        auto status = machine.migrate(buffer.id, destination);
        ASSERT_TRUE(status.ok()) << status.error().to_string();
        buffer.node = destination;
      } else {
        const sim::BufferInfo info = machine.info(buffer.id);
        EXPECT_EQ(info.declared_bytes, buffer.bytes);
      }
    }
    barrier.arrive_and_wait();
    if (tid == 0) check_invariants();
    barrier.arrive_and_wait();

    // Phase 3: free every other buffer.
    for (std::size_t b = 0; b < owned[tid].size(); b += 2) {
      auto status = machine.free(owned[tid][b].id);
      ASSERT_TRUE(status.ok()) << status.error().to_string();
      owned[tid][b].live = false;
    }
    barrier.arrive_and_wait();
    if (tid == 0) check_invariants();
    barrier.arrive_and_wait();

    // Phase 4: free the rest.
    for (OwnedBuffer& buffer : owned[tid]) {
      if (!buffer.live) continue;
      ASSERT_TRUE(machine.free(buffer.id).ok());
      buffer.live = false;
    }
    barrier.arrive_and_wait();
    if (tid == 0) check_invariants();
  };

  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) threads.emplace_back(worker, tid);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(machine.live_buffer_count(), 0u);
  for (unsigned n = 0; n < nodes; ++n) EXPECT_EQ(machine.used_bytes(n), 0u);
}

// N racing frees of one buffer: exactly one wins, capacity is released once.
TEST(MachineConcurrency, RacingFreesSucceedExactlyOnce) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  for (unsigned round = 0; round < 50; ++round) {
    auto id = machine.allocate(kMiB, 0, "contested", 64);
    ASSERT_TRUE(id.ok());

    std::atomic<unsigned> successes{0};
    std::barrier barrier(kThreads);
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&] {
        barrier.arrive_and_wait();
        if (machine.free(*id).ok()) successes.fetch_add(1);
      });
    }
    for (std::thread& thread : threads) thread.join();

    EXPECT_EQ(successes.load(), 1u);
    EXPECT_EQ(machine.used_bytes(0), 0u);
    EXPECT_EQ(machine.live_buffer_count(), 0u);
  }
}

// Stale readers versus slot reuse: one thread keeps freeing a buffer and
// allocating the next, which takes the same slot under the next generation
// with a different size, node and label; readers keep querying handles
// they saw published, some of them long dead. A read must describe the
// handle's own buffer or refuse it as stale, never mix in the buffer that
// reused the slot.
TEST(MachineConcurrency, StaleReadersNeverSeeTheBufferThatReusedTheirSlot) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  constexpr std::uint32_t kGenerations = 3000;
  constexpr unsigned kReaders = 3;
  auto bytes_of = [](std::uint32_t generation) {
    return std::uint64_t{4096} * (generation % 7 + 1);
  };
  auto node_of = [](std::uint32_t generation) { return generation % 2; };
  auto label_of = [](std::uint32_t generation) {
    std::string label = "g";
    label += std::to_string(generation);
    return label;
  };
  std::atomic<std::uint64_t> published{sim::BufferId{}.packed()};
  std::atomic<bool> done{false};
  std::atomic<unsigned> mixed{0};

  std::vector<std::thread> readers;
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      sim::BufferId held;  // an older handle, re-read after it went stale
      while (!done.load(std::memory_order_acquire)) {
        const sim::BufferId fresh =
            sim::BufferId::unpack(published.load(std::memory_order_acquire));
        if (!fresh.valid()) continue;
        for (const sim::BufferId id : {fresh, held}) {
          if (!id.valid()) continue;
          const sim::BufferResidency residency = machine.residency(id);
          if (!residency.freed &&
              (residency.declared_bytes != bytes_of(id.generation) ||
               residency.node != node_of(id.generation))) {
            mixed.fetch_add(1);
          }
          const sim::BufferInfo info = machine.info(id);
          if (info.label != "<invalid-buffer>" &&
              (info.label != label_of(id.generation) ||
               info.declared_bytes != bytes_of(id.generation))) {
            mixed.fetch_add(1);
          }
          auto checked = machine.info_checked(id);
          if (checked.ok() && checked->label != label_of(id.generation)) {
            mixed.fetch_add(1);
          }
          // Migrating a buffer to its own node is a no-op; a stale handle
          // is refused and moves nothing.
          const support::Status moved =
              machine.migrate(id, node_of(id.generation));
          if (!moved.ok() &&
              moved.error().code != support::Errc::kInvalidArgument) {
            mixed.fetch_add(1);
          }
          (void)machine.backing(id);
        }
        if (fresh.generation % 64 == 0) held = fresh;
      }
    });
  }

  sim::BufferId previous;
  for (std::uint32_t generation = 0; generation < kGenerations; ++generation) {
    auto id = machine.allocate(bytes_of(generation), node_of(generation),
                               label_of(generation), 64);
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, (sim::BufferId{0, generation}));
    published.store(id->packed(), std::memory_order_release);
    if (previous.valid()) {
      EXPECT_FALSE(machine.free(previous).ok());
      EXPECT_FALSE(machine.migrate(previous, 1).ok());
    }
    std::this_thread::yield();
    ASSERT_TRUE(machine.free(*id).ok());
    previous = *id;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mixed.load(), 0u);
  EXPECT_EQ(machine.total_buffer_count(), 1u);
  EXPECT_EQ(machine.live_buffer_count(), 0u);
  EXPECT_EQ(machine.used_bytes(0) + machine.used_bytes(1), 0u);
}

// Racing migrate vs free of the same buffer: every outcome must be
// well-defined — the buffer ends freed, capacity lands at zero everywhere,
// and the migrate either completed first or failed cleanly.
TEST(MachineConcurrency, MigrateRacingFreeIsWellDefined) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  for (unsigned round = 0; round < 200; ++round) {
    auto id = machine.allocate(kMiB, 0, "mover", 64);
    ASSERT_TRUE(id.ok());

    std::barrier barrier(2);
    std::thread freer([&] {
      barrier.arrive_and_wait();
      EXPECT_TRUE(machine.free(*id).ok());
    });
    std::thread migrator([&] {
      barrier.arrive_and_wait();
      auto status = machine.migrate(*id, 1);
      if (!status.ok()) {
        EXPECT_EQ(status.error().code, support::Errc::kInvalidArgument);
      }
    });
    freer.join();
    migrator.join();

    EXPECT_TRUE(machine.info(*id).freed);
    EXPECT_EQ(machine.used_bytes(0), 0u);
    EXPECT_EQ(machine.used_bytes(1), 0u);
    EXPECT_EQ(machine.live_buffer_count(), 0u);
  }
}

// Allocation storm at the capacity boundary with a concurrent sampler:
// used_bytes must never exceed capacity at any observable instant, and the
// post-storm accounting must equal the sum of successful allocations.
TEST(MachineConcurrency, CapacityIsNeverOversubscribed) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  const std::uint64_t capacity = machine.capacity_bytes(0);
  const std::uint64_t chunk = capacity / 100;  // ~100 fit; 8 threads fight

  std::atomic<bool> done{false};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_LE(machine.used_bytes(0), capacity);
    }
  });

  std::atomic<std::uint64_t> allocated_bytes{0};
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (unsigned b = 0; b < 40; ++b) {
        auto id = machine.allocate(chunk, 0,
                                   "storm.t" + std::to_string(tid), 64);
        if (id.ok()) allocated_bytes.fetch_add(chunk);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  done.store(true, std::memory_order_release);
  sampler.join();

  // 8 threads x 40 requests = 320 > 100 slots: the boundary was contested.
  EXPECT_EQ(machine.used_bytes(0), allocated_bytes.load());
  EXPECT_LE(machine.used_bytes(0), capacity);
  EXPECT_GT(machine.used_bytes(0), capacity - chunk);  // storm filled the node
}

// --- allocator-level stress: stats, trace, and retry accounting ---

struct AllocatorFixture {
  AllocatorFixture()
      : machine(topo::xeon_clx_1lm()),
        registry(machine.topology()),
        allocator(machine, registry) {
    hmat::GenerateOptions options;
    options.local_only = false;
    EXPECT_TRUE(
        hmat::load_into(registry, hmat::generate(machine.topology(), options))
            .ok());
  }
  sim::SimMachine machine;
  attr::MemAttrRegistry registry;
  alloc::HeterogeneousAllocator allocator;
};

TEST(AllocatorConcurrency, StatsAndTraceStayConsistentUnderStress) {
  AllocatorFixture f;
  const support::Bitmap initiator = f.machine.topology().numa_node(0)->cpuset();

  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      support::Xoshiro256 rng(0xa110c + tid);
      std::vector<sim::BufferId> live;
      for (unsigned op = 0; op < 200; ++op) {
        const std::uint64_t roll = rng.next_below(10);
        if (roll < 6 || live.empty()) {
          alloc::AllocRequest request;
          request.bytes = (1 + rng.next_below(8)) * kMiB;
          request.attribute =
              roll % 2 == 0 ? attr::kBandwidth : attr::kLatency;
          request.initiator = initiator;
          request.backing_bytes = 64;
          request.label = "stress.t" + std::to_string(tid);
          auto allocation = f.allocator.mem_alloc(request);
          ASSERT_TRUE(allocation.ok()) << allocation.error().to_string();
          live.push_back(allocation->buffer);
        } else if (roll < 8) {
          const std::size_t victim = rng.next_below(live.size());
          ASSERT_TRUE(f.allocator.mem_free(live[victim]).ok());
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        } else {
          const std::size_t victim = rng.next_below(live.size());
          const unsigned destination = static_cast<unsigned>(rng.next_below(
              f.machine.topology().numa_nodes().size()));
          auto cost = f.allocator.migrate(live[victim], destination);
          ASSERT_TRUE(cost.ok()) << cost.error().to_string();
        }
      }
      for (sim::BufferId id : live) ASSERT_TRUE(f.allocator.mem_free(id).ok());
    });
  }
  for (std::thread& thread : threads) thread.join();

  const alloc::AllocatorStats stats = f.allocator.stats();
  EXPECT_EQ(stats.allocations, stats.frees);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(f.machine.live_buffer_count(), 0u);

  // The trace recorded every event exactly once (the mutex lost none).
  std::uint64_t traced_allocs = 0, traced_frees = 0, traced_migrations = 0;
  for (const alloc::TraceEvent& event : f.allocator.trace()) {
    switch (event.kind) {
      case alloc::TraceEvent::Kind::kAlloc: ++traced_allocs; break;
      case alloc::TraceEvent::Kind::kFree: ++traced_frees; break;
      case alloc::TraceEvent::Kind::kMigrate: ++traced_migrations; break;
      case alloc::TraceEvent::Kind::kFail: break;
    }
  }
  EXPECT_EQ(traced_allocs, stats.allocations);
  EXPECT_EQ(traced_frees, stats.frees);
  EXPECT_EQ(traced_migrations, stats.migrations);
}

// Regression (previously racy): transient-retry accounting under concurrent
// mem_alloc. With an effectively unlimited retry budget every injected
// transient failure is retried, so the allocator's atomic counter must equal
// the injector's own (mutex-guarded) injection count exactly. The old
// unsynchronized `++stats_.transient_retries` lost increments here.
TEST(AllocatorConcurrency, TransientRetryAccountingIsExactUnderStorm) {
  AllocatorFixture f;
  fault::FaultInjector injector =
      fault::FaultInjector::preset("alloc-storm", 0xdeed);
  f.machine.set_fault_injector(&injector);
  f.allocator.set_retry_policy(alloc::RetryPolicy{1u << 20});
  const support::Bitmap initiator = f.machine.topology().numa_node(0)->cpuset();

  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (unsigned op = 0; op < 200; ++op) {
        alloc::AllocRequest request;
        request.bytes = kMiB;
        request.attribute = attr::kLatency;
        request.initiator = initiator;
        request.backing_bytes = 64;
        request.label = "storm.t" + std::to_string(tid);
        auto allocation = f.allocator.mem_alloc(request);
        ASSERT_TRUE(allocation.ok()) << allocation.error().to_string();
        ASSERT_TRUE(f.allocator.mem_free(allocation->buffer).ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::uint64_t injected =
      injector.injected(fault::site::kMachineAllocTransient);
  EXPECT_GT(injected, 0u);  // the storm preset actually fired
  EXPECT_EQ(f.allocator.stats().transient_retries, injected);
  EXPECT_EQ(f.allocator.stats().allocations, kThreads * 200u);
}

// Reservations: racing mem_alloc_reserved calls can never spend the same
// reserved bytes twice.
TEST(AllocatorConcurrency, ReservationIsConsumedAtMostOnce) {
  AllocatorFixture f;
  constexpr unsigned kSlots = 10;
  ASSERT_TRUE(f.allocator.reserve(0, kSlots * kGiB).ok());

  std::atomic<unsigned> successes{0};
  std::barrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      barrier.arrive_and_wait();
      for (unsigned b = 0; b < kSlots; ++b) {
        auto allocation = f.allocator.mem_alloc_reserved(
            0, kGiB, "rsv.t" + std::to_string(tid), 64);
        if (allocation.ok()) successes.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(successes.load(), kSlots);  // 80 attempts, 10 reserved slots
  EXPECT_EQ(f.allocator.reserved_bytes(0), 0u);
  EXPECT_EQ(f.machine.used_bytes(0), kSlots * kGiB);
}

// --- seeded-interleaving fuzz: same-seed replay determinism ---

// Thread t's operation sequence is a pure function of (seed, t); threads own
// their buffers and the workload stays far below every node's capacity, so
// the final machine state cannot depend on how the threads interleaved. Two
// runs with the same seed must produce identical state fingerprints.
std::string run_seeded_schedule(std::uint64_t seed) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  const std::size_t nodes = machine.topology().numa_nodes().size();

  std::vector<std::vector<OwnedBuffer>> owned(kThreads);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      support::Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ull * (tid + 1)));
      for (unsigned op = 0; op < 300; ++op) {
        const std::uint64_t roll = rng.next_below(10);
        auto& mine = owned[tid];
        const bool any_live =
            std::any_of(mine.begin(), mine.end(),
                        [](const OwnedBuffer& b) { return b.live; });
        if (roll < 5 || !any_live) {
          OwnedBuffer buffer;
          buffer.node = static_cast<unsigned>(rng.next_below(nodes));
          buffer.bytes = (1 + rng.next_below(4)) * kMiB;
          auto id = machine.allocate(
              buffer.bytes, buffer.node,
              "fuzz.t" + std::to_string(tid) + ".op" + std::to_string(op), 64);
          ASSERT_TRUE(id.ok());
          buffer.id = *id;
          buffer.live = true;
          mine.push_back(buffer);
        } else if (roll < 8) {
          const std::size_t pick = rng.next_below(mine.size());
          OwnedBuffer& buffer = mine[pick];
          if (!buffer.live) continue;
          const unsigned destination =
              static_cast<unsigned>(rng.next_below(nodes));
          ASSERT_TRUE(machine.migrate(buffer.id, destination).ok());
          buffer.node = destination;
        } else {
          const std::size_t pick = rng.next_below(mine.size());
          OwnedBuffer& buffer = mine[pick];
          if (!buffer.live) continue;
          ASSERT_TRUE(machine.free(buffer.id).ok());
          buffer.live = false;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Fingerprint: every thread's surviving (label, node, bytes) triples in
  // thread order (per-thread order is deterministic), plus per-node usage.
  std::string fingerprint;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    for (const OwnedBuffer& buffer : owned[tid]) {
      if (!buffer.live) continue;
      const sim::BufferInfo info = machine.info(buffer.id);
      fingerprint += info.label + "@" + std::to_string(info.node) + ":" +
                     std::to_string(info.declared_bytes) + "\n";
    }
  }
  for (unsigned n = 0; n < nodes; ++n) {
    fingerprint += "node" + std::to_string(n) + "=" +
                   std::to_string(machine.used_bytes(n)) + "\n";
  }
  return fingerprint;
}

TEST(InterleavingFuzz, SameSeedReplaysToIdenticalFinalState) {
  for (std::uint64_t seed : {1ull, 42ull, 0xfeedfaceull}) {
    const std::string first = run_seeded_schedule(seed);
    const std::string second = run_seeded_schedule(seed);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

TEST(InterleavingFuzz, DifferentSeedsDiverge) {
  EXPECT_NE(run_seeded_schedule(7), run_seeded_schedule(8));
}

// --- ranking cache: readers vs an invalidating writer (docs/PERF.md) ---

// The writer rewrites every node's Bandwidth value to base(node) * g for
// generation g, all nodes in one set_values call; readers rank through the
// *cache*. Two failure modes are hunted here: a torn snapshot (values from
// two different g in one ranking) and stale-after-publish (a reader
// observing registry generation G must never be served a snapshot older
// than G — the acquire on generation() orders the subsequent cache lookup).
TEST(RankingCacheConcurrency, CachedReadersNeverSeeTornOrStaleRankings) {
  topo::Topology topology = topo::xeon_clx_1lm();
  attr::MemAttrRegistry registry(topology);
  const auto& nodes = topology.numa_nodes();
  const auto initiator =
      attr::Initiator::from_cpuset(topology.pus().front()->cpuset());

  auto base = [](unsigned node) { return 100.0 * (node + 1); };
  constexpr unsigned kGenerations = 300;
  for (unsigned n = 0; n < nodes.size(); ++n) {
    ASSERT_TRUE(
        registry.set_value(attr::kBandwidth, *nodes[n], initiator, base(n))
            .ok());
  }

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    std::vector<attr::ValueUpdate> round(nodes.size());
    for (unsigned g = 2; g <= kGenerations; ++g) {
      for (unsigned n = 0; n < nodes.size(); ++n) {
        round[n] = {attr::kBandwidth, nodes[n], initiator, base(n) * g};
      }
      ASSERT_TRUE(registry.set_values(round).ok());
      if (g % 16 == 0) registry.invalidate_rankings();
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      do {
        const std::uint64_t observed = registry.generation();
        const attr::RankingSnapshot snapshot =
            registry.targets_ranked_cached(attr::kBandwidth, initiator);
        ASSERT_FALSE(snapshot->targets.empty());
        // Not torn: every value in the snapshot comes from the same written
        // generation g (base(node) * g for one g across all entries).
        double g = 0.0;
        for (const attr::TargetValue& tv : snapshot->targets) {
          const double ratio = tv.value / base(tv.target->logical_index());
          const double rounded = std::round(ratio);
          ASSERT_NEAR(ratio, rounded, 1e-9) << "torn value " << tv.value;
          if (g == 0.0) {
            g = rounded;
          } else {
            ASSERT_EQ(g, rounded) << "snapshot mixes generations";
          }
        }
        // Not stale-after-publish: the snapshot may not predate the
        // registry generation the reader had already observed.
        ASSERT_GE(snapshot->generation, observed);
      } while (!writer_done.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  // Quiescent: the cache must converge on exactly the final values.
  const attr::RankingSnapshot final_snapshot =
      registry.targets_ranked_cached(attr::kBandwidth, initiator);
  const std::vector<attr::TargetValue> uncached =
      registry.targets_ranked(attr::kBandwidth, initiator);
  ASSERT_EQ(final_snapshot->targets.size(), uncached.size());
  for (std::size_t i = 0; i < uncached.size(); ++i) {
    EXPECT_EQ(final_snapshot->targets[i].target, uncached[i].target);
    EXPECT_EQ(final_snapshot->targets[i].value, uncached[i].value);
  }
}

// --- pool magazines: thread-exit flush returns every block exactly once ---

// Worker threads allocate and free through their magazines and exit with
// warm magazines (cached blocks). The exit hook must hand every cached
// block back exactly once: afterwards the pool's live count equals exactly
// the handles the workers reported as still-live, every remaining block can
// be freed exactly once more, and a full drain re-allocates each (slab,
// index) pair at most once — a double-returned block would surface as a
// duplicate handle here.
TEST(PoolMagazineConcurrency, ThreadExitFlushReturnsEveryBlockExactlyOnce) {
  sim::SimMachine machine(topo::xeon_clx_1lm());
  attr::MemAttrRegistry registry(machine.topology());
  hmat::GenerateOptions options;
  options.local_only = false;
  ASSERT_TRUE(
      hmat::load_into(registry, hmat::generate(machine.topology(), options))
          .ok());
  alloc::HeterogeneousAllocator allocator(machine, registry);
  allocator.set_trace_enabled(false);

  alloc::PoolOptions pool_options;
  pool_options.attribute = attr::kBandwidth;
  pool_options.block_bytes = 64 * support::kKiB;
  pool_options.blocks_per_slab = 64;
  pool_options.magazine_blocks = 16;
  alloc::Pool pool(allocator, machine.topology().numa_node(0)->cpuset(),
                   pool_options, "mag.exit");

  constexpr unsigned kWorkers = 8;
  constexpr unsigned kOpsPerWorker = 400;
  std::vector<std::vector<alloc::PoolBlock>> survivors(kWorkers);
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      support::SplitMix64 rng(0x9000 + w);
      std::vector<alloc::PoolBlock> held;
      for (unsigned op = 0; op < kOpsPerWorker; ++op) {
        if (held.empty() || rng.next() % 2 == 0) {
          auto block = pool.allocate();
          ASSERT_TRUE(block.ok());
          held.push_back(*block);
        } else {
          ASSERT_TRUE(pool.free(held.back()).ok());
          held.pop_back();
        }
      }
      // Keep a few live across thread exit; free the rest into the
      // magazine so it is warm when the exit flush runs.
      while (held.size() > 3) {
        ASSERT_TRUE(pool.free(held.back()).ok());
        held.pop_back();
      }
      survivors[w] = std::move(held);
    });
  }
  for (std::thread& worker : workers) worker.join();

  // Exit flushes ran: live blocks == exactly the survivors.
  std::size_t live = 0;
  for (const auto& held : survivors) live += held.size();
  alloc::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.blocks_live, live);
  EXPECT_EQ(stats.blocks_allocated - stats.blocks_freed, live);

  // Every survivor frees exactly once more (a lost block would already have
  // been pushed back and trip the double-free scan at flush time).
  for (const auto& held : survivors) {
    for (alloc::PoolBlock block : held) {
      ASSERT_TRUE(pool.free(block).ok());
    }
  }
  pool.flush_thread_magazine();
  stats = pool.stats();
  EXPECT_EQ(stats.blocks_live, 0u);

  // Exactly-once: drain the whole pool without growing it; every (slab,
  // index) pair may appear at most once. A block returned twice by the exit
  // flush would be handed out twice here.
  const std::uint64_t capacity =
      stats.slabs_created * pool_options.blocks_per_slab;
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  std::vector<alloc::PoolBlock> drained;
  for (std::uint64_t i = 0; i < capacity; ++i) {
    auto block = pool.allocate();
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(seen.emplace(block->slab, block->index).second)
        << "block handed out twice after exit flush";
    drained.push_back(*block);
  }
  EXPECT_EQ(pool.stats().slabs_created, stats.slabs_created)
      << "drain should not have grown the pool";
  for (alloc::PoolBlock block : drained) ASSERT_TRUE(pool.free(block).ok());
  pool.flush_thread_magazine();
}

// --- tenant lifecycle races: quota refunds are exactly-once (TSan lane) ---

// Worker threads allocate and free under a shared tenant handle while the
// main thread deregisters the tenant mid-storm. Invariants:
//   - a deregistered tenant's outstanding buffers keep refunding on free
//     (the quota returns to exactly zero — no double refund, no leak);
//   - allocations that race the deregistration either succeed (and are
//     charged) or fail cleanly with kInvalidArgument/kBackpressure;
//   - the registry's exactly-once contract holds: the second deregister
//     reports kNotFound even when frees are still in flight.
TEST(TenantConcurrency, DeregistrationRefundsQuotaExactlyOnce) {
  AllocatorFixture f;
  tenant::TenantRegistry tenants;
  f.allocator.set_tenant_registry(&tenants);
  const support::Bitmap initiator = f.machine.topology().numa_node(0)->cpuset();

  tenant::TenantQuota quota;
  quota.total_cap_bytes = 32 * kGiB;
  auto registered =
      tenants.register_tenant("racer", tenant::Priority::kNormal, quota);
  ASSERT_TRUE(registered.ok());
  tenant::TenantHandle handle = *registered;

  std::atomic<bool> start{false};
  std::atomic<std::uint64_t> refused{0};
  std::vector<std::thread> threads;
  std::vector<std::vector<sim::BufferId>> survivors(kThreads);
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      while (!start.load(std::memory_order_acquire)) {}
      support::Xoshiro256 rng(0x7e4a47 + tid);
      std::vector<sim::BufferId> live;
      for (unsigned op = 0; op < 128; ++op) {
        if (rng.next_below(2) == 0 || live.empty()) {
          alloc::AllocRequest request;
          request.bytes = (1 + rng.next_below(4)) * kMiB;
          request.attribute = attr::kLatency;
          request.initiator = initiator;
          request.backing_bytes = 64;
          request.label = "tenant.t" + std::to_string(tid);
          request.tenant = handle;
          auto allocation = f.allocator.mem_alloc(request);
          if (allocation.ok()) {
            live.push_back(allocation->buffer);
          } else {
            // Racing the deregistration: only the two clean refusals are
            // acceptable — never a crash, never a charged-but-failed state.
            ASSERT_TRUE(allocation.error().code ==
                            support::Errc::kInvalidArgument ||
                        allocation.error().code == support::Errc::kBackpressure)
                << allocation.error().to_string();
            refused.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          ASSERT_TRUE(f.allocator.mem_free(live.back()).ok());
          live.pop_back();
        }
      }
      survivors[tid] = std::move(live);
    });
  }
  start.store(true, std::memory_order_release);
  // Let the storm run, then yank the tenant out from under it.
  std::this_thread::yield();
  ASSERT_TRUE(tenants.deregister_tenant(handle).ok());
  EXPECT_EQ(tenants.deregister_tenant(handle).error().code,
            support::Errc::kNotFound)
      << "second deregistration must observe exactly-once semantics";
  for (std::thread& thread : threads) thread.join();

  // Every surviving buffer is still charged; each free refunds exactly once.
  std::uint64_t outstanding = 0;
  for (const auto& per_thread : survivors) {
    for (sim::BufferId id : per_thread) {
      outstanding += f.machine.info(id).declared_bytes;
    }
  }
  EXPECT_EQ(handle->used_bytes(), outstanding);
  for (const auto& per_thread : survivors) {
    for (sim::BufferId id : per_thread) {
      ASSERT_TRUE(f.allocator.mem_free(id).ok());
    }
  }
  EXPECT_EQ(handle->used_bytes(), 0u)
      << "refunds must balance charges exactly (no double refund, no leak)";
  EXPECT_FALSE(handle->live());

  // New allocations under the dead handle are refused deterministically.
  alloc::AllocRequest late;
  late.bytes = kMiB;
  late.attribute = attr::kLatency;
  late.initiator = initiator;
  late.label = "late";
  late.tenant = handle;
  auto refused_late = f.allocator.mem_alloc(late);
  ASSERT_FALSE(refused_late.ok());
  EXPECT_EQ(refused_late.error().code, support::Errc::kInvalidArgument);
  EXPECT_EQ(f.machine.live_buffer_count(), 0u);
}

// Registry churn: registrations, lookups, and deregistrations from many
// threads never corrupt the live set or reuse an id.
TEST(TenantConcurrency, RegistryChurnKeepsIdsUniqueAndLiveSetConsistent) {
  tenant::TenantRegistry tenants;
  std::vector<std::thread> threads;
  std::vector<std::vector<tenant::TenantId>> ids(kThreads);
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (unsigned i = 0; i < 64; ++i) {
        const std::string name =
            "churn." + std::to_string(tid) + "." + std::to_string(i);
        auto handle = tenants.register_tenant(
            name, static_cast<tenant::Priority>(i % 3));
        ASSERT_TRUE(handle.ok());
        ids[tid].push_back((*handle)->id());
        EXPECT_EQ(tenants.find(name), *handle);
        if (i % 2 == 0) {
          ASSERT_TRUE(tenants.deregister_tenant(*handle).ok());
          EXPECT_EQ(tenants.find(name), nullptr);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::set<tenant::TenantId> unique;
  for (const auto& per_thread : ids) {
    for (tenant::TenantId id : per_thread) {
      ASSERT_TRUE(unique.insert(id).second) << "tenant id reused";
    }
  }
  EXPECT_EQ(tenants.live_count(), kThreads * 32u);
}

}  // namespace
}  // namespace hetmem
