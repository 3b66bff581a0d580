// P1: google-benchmark microbenchmarks of the API hot paths.
//
// The paper positions the attributes API inside allocators and runtimes, so
// query and allocation costs must be negligible next to an actual mmap/page
// fault. These measure get_value, best_target, targets_ranked, mem_alloc+
// free round trips, and topology queries on the Fig. 2 Xeon.
#include <benchmark/benchmark.h>

#include <mutex>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/alloc/pool.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/memattr/memattr.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/topo/presets.hpp"

namespace {

using namespace hetmem;

struct Fixture {
  Fixture() : machine(topo::xeon_clx_snc_1lm()), registry(machine.topology()) {
    hmat::GenerateOptions options;
    options.local_only = false;
    (void)hmat::load_into(registry, hmat::generate(machine.topology(), options));
  }
  sim::SimMachine machine;
  attr::MemAttrRegistry registry;
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

void BM_GetValue(benchmark::State& state) {
  Fixture& f = fixture();
  const topo::Object& node = *f.machine.topology().numa_node(0);
  const auto initiator = attr::Initiator::from_cpuset(node.cpuset());
  for (auto _ : state) {
    auto value = f.registry.value(attr::kLatency, node, initiator);
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_GetValue);

void BM_BestTarget(benchmark::State& state) {
  Fixture& f = fixture();
  const auto initiator = attr::Initiator::from_cpuset(
      f.machine.topology().pus().front()->cpuset());
  for (auto _ : state) {
    auto best = f.registry.best_target(attr::kBandwidth, initiator);
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_BestTarget);

void BM_TargetsRanked(benchmark::State& state) {
  Fixture& f = fixture();
  const auto initiator = attr::Initiator::from_cpuset(
      f.machine.topology().pus().front()->cpuset());
  for (auto _ : state) {
    auto ranked = f.registry.targets_ranked(attr::kLatency, initiator);
    benchmark::DoNotOptimize(ranked);
  }
}
BENCHMARK(BM_TargetsRanked);

void BM_LocalNumaNodes(benchmark::State& state) {
  Fixture& f = fixture();
  const support::Bitmap cpuset = f.machine.topology().pus().front()->cpuset();
  for (auto _ : state) {
    auto nodes = f.machine.topology().local_numa_nodes(cpuset);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_LocalNumaNodes);

void BM_MemAllocFree(benchmark::State& state) {
  // Private machine: the loop mutates allocator state.
  sim::SimMachine machine(topo::xeon_clx_snc_1lm());
  attr::MemAttrRegistry registry(machine.topology());
  hmat::GenerateOptions options;
  options.local_only = false;
  (void)hmat::load_into(registry, hmat::generate(machine.topology(), options));
  alloc::HeterogeneousAllocator allocator(machine, registry);

  alloc::AllocRequest request;
  request.bytes = static_cast<std::uint64_t>(state.range(0));
  request.attribute = attr::kLatency;
  request.initiator = machine.topology().numa_node(0)->cpuset();
  request.label = "bench";
  for (auto _ : state) {
    auto allocation = allocator.mem_alloc(request);
    if (allocation.ok()) (void)allocator.mem_free(allocation->buffer);
  }
}
BENCHMARK(BM_MemAllocFree)->Arg(4096)->Arg(1 << 20)->Arg(1 << 30);

// --- multithreaded scaling (docs/CONCURRENCY.md) ---
//
// The sharded allocation path (per-node atomic capacity CAS, lock-free
// buffer-table readers, atomic stats) against a naive global-lock baseline
// wrapping the same allocator behind one mutex — the curve at 1/2/4/8/16
// threads is the acceptance evidence that sharding beats the global lock.
// Tracing is disabled so the hot path is lock-free; iterations are pinned so
// every thread count does identical per-thread work.

struct ThreadedFixture {
  ThreadedFixture()
      : machine(topo::xeon_clx_snc_1lm()),
        registry(machine.topology()),
        allocator(machine, registry) {
    hmat::GenerateOptions options;
    options.local_only = false;
    (void)hmat::load_into(registry, hmat::generate(machine.topology(), options));
    allocator.set_trace_enabled(false);
  }
  sim::SimMachine machine;
  attr::MemAttrRegistry registry;
  alloc::HeterogeneousAllocator allocator;
};

constexpr int kThreadedIterations = 50000;

alloc::AllocRequest threaded_request(const ThreadedFixture& f) {
  alloc::AllocRequest request;
  request.bytes = 4096;
  request.attribute = attr::kLatency;
  request.initiator = f.machine.topology().numa_node(0)->cpuset();
  request.backing_bytes = 64;
  request.label = "bench.mt";
  return request;
}

void BM_MemAllocFreeSharded(benchmark::State& state) {
  static ThreadedFixture f;  // shared across all bench threads
  const alloc::AllocRequest request = threaded_request(f);
  for (auto _ : state) {
    auto allocation = f.allocator.mem_alloc(request);
    if (allocation.ok()) (void)f.allocator.mem_free(allocation->buffer);
  }
}
BENCHMARK(BM_MemAllocFreeSharded)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->Iterations(kThreadedIterations)
    ->UseRealTime();

void BM_MemAllocFreeGlobalLock(benchmark::State& state) {
  static ThreadedFixture f;
  static std::mutex global_lock;
  const alloc::AllocRequest request = threaded_request(f);
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(global_lock);
    auto allocation = f.allocator.mem_alloc(request);
    if (allocation.ok()) (void)f.allocator.mem_free(allocation->buffer);
  }
}
BENCHMARK(BM_MemAllocFreeGlobalLock)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->Iterations(kThreadedIterations)
    ->UseRealTime();

// Read-mostly registry scaling: concurrent targets_ranked through the
// shared (reader) lock.
void BM_TargetsRankedConcurrent(benchmark::State& state) {
  Fixture& f = fixture();
  const auto initiator = attr::Initiator::from_cpuset(
      f.machine.topology().pus().front()->cpuset());
  for (auto _ : state) {
    auto ranked = f.registry.targets_ranked(attr::kLatency, initiator);
    benchmark::DoNotOptimize(ranked);
  }
}
BENCHMARK(BM_TargetsRankedConcurrent)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->Iterations(kThreadedIterations)
    ->UseRealTime();

// --- ranking cache: cached vs uncached hot path (docs/PERF.md) ---
//
// Same allocator, same requests; the only difference is whether
// MemAttrRegistry serves rankings from the generation-stamped cache (a
// lock-free shared_ptr load) or rebuilds them under the shared_mutex on
// every call. The 8-thread pair is the acceptance gate in CI. The cached
// run reports the hit rate as a counter (steady state must be >= 99%).

void BM_MemAllocFreeCached(benchmark::State& state) {
  static ThreadedFixture f;
  const alloc::AllocRequest request = threaded_request(f);
  f.registry.set_ranking_cache_enabled(true);
  if (state.thread_index() == 0) f.registry.reset_ranking_cache_stats();
  for (auto _ : state) {
    auto allocation = f.allocator.mem_alloc(request);
    if (allocation.ok()) (void)f.allocator.mem_free(allocation->buffer);
  }
  if (state.thread_index() == 0) {
    const attr::RankingCacheStats stats = f.registry.ranking_cache_stats();
    state.counters["hit_rate"] = stats.hit_rate();
  }
}
BENCHMARK(BM_MemAllocFreeCached)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->Iterations(kThreadedIterations)
    ->UseRealTime();

void BM_MemAllocFreeUncached(benchmark::State& state) {
  static ThreadedFixture f;
  const alloc::AllocRequest request = threaded_request(f);
  f.registry.set_ranking_cache_enabled(false);
  for (auto _ : state) {
    auto allocation = f.allocator.mem_alloc(request);
    if (allocation.ok()) (void)f.allocator.mem_free(allocation->buffer);
  }
}
BENCHMARK(BM_MemAllocFreeUncached)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->Iterations(kThreadedIterations)
    ->UseRealTime();

// Pure ranked-query scaling through the cache (no allocator around it):
// upper bound on what the snapshot path saves over BM_TargetsRankedConcurrent.
void BM_TargetsRankedCachedConcurrent(benchmark::State& state) {
  Fixture& f = fixture();
  const auto initiator = attr::Initiator::from_cpuset(
      f.machine.topology().pus().front()->cpuset());
  for (auto _ : state) {
    auto ranked = f.registry.targets_ranked_cached(attr::kLatency, initiator);
    benchmark::DoNotOptimize(ranked);
  }
}
BENCHMARK(BM_TargetsRankedCachedConcurrent)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->Iterations(kThreadedIterations)
    ->UseRealTime();

// --- pool magazines: per-thread cached blocks vs the pool mutex ---
//
// Same pool workload (allocate/free churn on one shared pool); magazines
// turn the steady-state path into thread-local vector ops, the baseline
// serializes every operation on the pool mutex.

alloc::PoolOptions pool_bench_options(unsigned magazine_blocks) {
  alloc::PoolOptions options;
  options.attribute = attr::kLatency;
  options.block_bytes = 4096;
  options.blocks_per_slab = 4096;
  options.magazine_blocks = magazine_blocks;
  return options;
}

void BM_PoolMagazine(benchmark::State& state) {
  static ThreadedFixture f;
  static alloc::Pool pool(f.allocator,
                          f.machine.topology().numa_node(0)->cpuset(),
                          pool_bench_options(/*magazine_blocks=*/64),
                          "bench.pool.mag");
  for (auto _ : state) {
    auto block = pool.allocate();
    if (block.ok()) (void)pool.free(*block);
  }
  pool.flush_thread_magazine();
}
BENCHMARK(BM_PoolMagazine)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->Iterations(kThreadedIterations)
    ->UseRealTime();

void BM_PoolMutex(benchmark::State& state) {
  static ThreadedFixture f;
  static alloc::Pool pool(f.allocator,
                          f.machine.topology().numa_node(0)->cpuset(),
                          pool_bench_options(/*magazine_blocks=*/0),
                          "bench.pool.mtx");
  for (auto _ : state) {
    auto block = pool.allocate();
    if (block.ok()) (void)pool.free(*block);
  }
}
BENCHMARK(BM_PoolMutex)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->Iterations(kThreadedIterations)
    ->UseRealTime();

void BM_HmatParse(benchmark::State& state) {
  hmat::GenerateOptions options;
  options.local_only = false;
  options.read_write_split = true;
  topo::Topology topology = topo::fictitious_fig3();
  const std::string text = hmat::serialize(hmat::generate(topology, options));
  for (auto _ : state) {
    auto table = hmat::parse(text);
    benchmark::DoNotOptimize(table);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_HmatParse);

void BM_TopologyConstruction(benchmark::State& state) {
  for (auto _ : state) {
    topo::Topology topology = topo::xeon_clx_snc_1lm();
    benchmark::DoNotOptimize(topology);
  }
}
BENCHMARK(BM_TopologyConstruction);

}  // namespace

BENCHMARK_MAIN();
