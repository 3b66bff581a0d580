// Cross-preset property tests for the attributes API: on every platform the
// paper depicts, the ranking/extremum/consistency invariants must hold for
// every attribute — this is what makes the API trustworthy as an allocation
// oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "hetmem/hmat/hmat.hpp"
#include "hetmem/memattr/memattr.hpp"
#include "hetmem/topo/presets.hpp"

namespace hetmem::attr {
namespace {

class PresetAttrs {
 protected:
  void load(const topo::NamedTopology& preset) {
    topology_ = std::make_unique<topo::Topology>(preset.factory());
    registry_ = std::make_unique<MemAttrRegistry>(*topology_);
    // Fully populated HMAT (local + remote) so per-initiator attributes have
    // values everywhere.
    hmat::GenerateOptions options;
    options.local_only = false;
    options.read_write_split = true;
    auto loaded = hmat::load_into(*registry_, hmat::generate(*topology_, options));
    ASSERT_TRUE(loaded.ok());
  }

  std::unique_ptr<topo::Topology> topology_;
  std::unique_ptr<MemAttrRegistry> registry_;
};

class AttrConsistencyTest
    : public ::testing::TestWithParam<topo::NamedTopology>,
      protected PresetAttrs {
 protected:
  void SetUp() override { load(GetParam()); }
};

// Keyed by preset index, as in chaos_test: gtest prints a NamedTopology
// parameter as its pointer bytes, which move under ASLR, so a test keyed by
// one gets a new ctest name at every test discovery.
class AttrRankingTest : public ::testing::TestWithParam<int>,
                        protected PresetAttrs {
 protected:
  void SetUp() override {
    load(topo::all_presets()[static_cast<std::size_t>(GetParam())]);
  }
};

TEST_P(AttrConsistencyTest, BestTargetIsExtremumOfValuesOverLocalTargets) {
  for (const topo::Object* locality_node : topology_->numa_nodes()) {
    if (locality_node->cpuset().empty()) continue;
    const auto initiator = Initiator::from_cpuset(locality_node->cpuset());
    for (AttrId attr = 0; attr < registry_->attribute_count(); ++attr) {
      if (!registry_->has_values(attr)) continue;
      auto best = registry_->best_target(attr, initiator);
      auto ranked = registry_->targets_ranked(attr, initiator);
      if (ranked.empty()) {
        EXPECT_FALSE(best.ok());
        continue;
      }
      ASSERT_TRUE(best.ok()) << registry_->info(attr).name;
      // best == head of the ranking.
      EXPECT_EQ(best->target, ranked.front().target);
      EXPECT_DOUBLE_EQ(best->value, ranked.front().value);
      // best is the extremum of get_value over all ranked targets.
      const bool higher =
          registry_->info(attr).polarity == Polarity::kHigherFirst;
      for (const TargetValue& tv : ranked) {
        if (higher) {
          EXPECT_GE(best->value, tv.value) << registry_->info(attr).name;
        } else {
          EXPECT_LE(best->value, tv.value) << registry_->info(attr).name;
        }
        // Each ranked value agrees with a direct get_value call.
        auto direct = registry_->value(
            attr, *tv.target,
            registry_->info(attr).need_initiator
                ? std::optional<Initiator>(initiator)
                : std::nullopt);
        ASSERT_TRUE(direct.ok());
        EXPECT_DOUBLE_EQ(*direct, tv.value);
      }
    }
  }
}

TEST_P(AttrRankingTest, RankingIsMonotone) {
  for (const topo::Object* locality_node : topology_->numa_nodes()) {
    if (locality_node->cpuset().empty()) continue;
    const auto initiator = Initiator::from_cpuset(locality_node->cpuset());
    for (AttrId attr = 0; attr < registry_->attribute_count(); ++attr) {
      auto ranked = registry_->targets_ranked(attr, initiator);
      const bool higher =
          registry_->info(attr).polarity == Polarity::kHigherFirst;
      for (std::size_t i = 1; i < ranked.size(); ++i) {
        if (higher) {
          EXPECT_GE(ranked[i - 1].value, ranked[i].value);
        } else {
          EXPECT_LE(ranked[i - 1].value, ranked[i].value);
        }
      }
    }
  }
}

TEST_P(AttrConsistencyTest, RankedTargetsAreLocalToInitiator) {
  for (const topo::Object* locality_node : topology_->numa_nodes()) {
    if (locality_node->cpuset().empty()) continue;
    const auto initiator = Initiator::from_cpuset(locality_node->cpuset());
    for (AttrId attr = 0; attr < registry_->attribute_count(); ++attr) {
      for (const TargetValue& tv :
           registry_->targets_ranked(attr, initiator)) {
        EXPECT_TRUE(tv.target->cpuset().intersects(locality_node->cpuset()));
      }
    }
  }
}

TEST_P(AttrConsistencyTest, LatencyAndBandwidthDisagreeOnlyViaPolarity) {
  // For every initiator, the Bandwidth-best and Latency-best targets must
  // both be *local*; on platforms where one technology wins both (Xeon DRAM)
  // they coincide, on KNL-style platforms they may differ — but both must be
  // defensible: no target may beat the best on its own metric.
  for (const topo::Object* locality_node : topology_->numa_nodes()) {
    if (locality_node->cpuset().empty()) continue;
    const auto initiator = Initiator::from_cpuset(locality_node->cpuset());
    auto best_bw = registry_->best_target(kBandwidth, initiator);
    auto best_lat = registry_->best_target(kLatency, initiator);
    if (!best_bw.ok() || !best_lat.ok()) continue;
    auto bw_of_lat_best =
        registry_->value(kBandwidth, *best_lat->target, initiator);
    ASSERT_TRUE(bw_of_lat_best.ok());
    EXPECT_GE(best_bw->value, *bw_of_lat_best);
    auto lat_of_bw_best =
        registry_->value(kLatency, *best_bw->target, initiator);
    ASSERT_TRUE(lat_of_bw_best.ok());
    EXPECT_LE(best_lat->value, *lat_of_bw_best);
  }
}

TEST_P(AttrConsistencyTest, BestInitiatorConsistentWithStoredValues) {
  for (const topo::Object* target : topology_->numa_nodes()) {
    auto best = registry_->best_initiator(kLatency, *target);
    if (!best.ok()) continue;
    for (const InitiatorValue& iv : registry_->initiators(kLatency, *target)) {
      EXPECT_LE(best->value, iv.value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, AttrConsistencyTest, ::testing::ValuesIn(topo::all_presets()),
    [](const ::testing::TestParamInfo<topo::NamedTopology>& param_info) {
      return param_info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    AllPresets, AttrRankingTest,
    ::testing::Range(0, static_cast<int>(topo::all_presets().size())),
    [](const ::testing::TestParamInfo<int>& param_info) {
      return std::string(
          topo::all_presets()[static_cast<std::size_t>(param_info.param)].name);
    });

// Eq. 1-3 of the paper: the advertised orderings per platform.
TEST(PaperEquations, Fig3PlatformOrderings) {
  topo::Topology topology = topo::fictitious_fig3();
  MemAttrRegistry registry(topology);
  hmat::GenerateOptions options;
  options.local_only = false;
  ASSERT_TRUE(hmat::load_into(registry, hmat::generate(topology, options)).ok());

  // Initiator: first SNC (sees HBM, DRAM, NVDIMM, NAM).
  const topo::Object* pu0 = topology.pus().front();
  const auto initiator = Initiator::from_cpuset(pu0->cpuset());

  auto kind_of = [](const TargetValue& tv) { return tv.target->memory_kind(); };

  // Eq. 1: HBM_BW > DRAM_BW > NVDIMM_BW (> NAM).
  auto by_bw = registry.targets_ranked(kBandwidth, initiator);
  ASSERT_EQ(by_bw.size(), 4u);
  EXPECT_EQ(kind_of(by_bw[0]), topo::MemoryKind::kHBM);
  EXPECT_EQ(kind_of(by_bw[1]), topo::MemoryKind::kDRAM);
  EXPECT_EQ(kind_of(by_bw[2]), topo::MemoryKind::kNVDIMM);
  EXPECT_EQ(kind_of(by_bw[3]), topo::MemoryKind::kNAM);

  // Eq. 3: NVDIMM_Cap > DRAM_Cap > HBM_Cap (NAM is even bigger here).
  auto by_cap = registry.targets_ranked(kCapacity, initiator);
  ASSERT_EQ(by_cap.size(), 4u);
  EXPECT_EQ(kind_of(by_cap[0]), topo::MemoryKind::kNAM);
  EXPECT_EQ(kind_of(by_cap[1]), topo::MemoryKind::kNVDIMM);
  EXPECT_EQ(kind_of(by_cap[2]), topo::MemoryKind::kDRAM);
  EXPECT_EQ(kind_of(by_cap[3]), topo::MemoryKind::kHBM);

  // Eq. 2: DRAM_Lat <= HBM_Lat < NVDIMM_Lat: latency ranking ends with
  // NVDIMM/NAM.
  auto by_lat = registry.targets_ranked(kLatency, initiator);
  ASSERT_EQ(by_lat.size(), 4u);
  EXPECT_EQ(kind_of(by_lat[0]), topo::MemoryKind::kDRAM);
  EXPECT_EQ(kind_of(by_lat[3]), topo::MemoryKind::kNAM);
}

// --- concurrent reads during probe-style writes (docs/CONCURRENCY.md) ---
//
// A writer rewrites every node's Bandwidth value generation after
// generation (base(node) * g, so the relative order never changes) while
// reader threads continuously rank. The registry promises a ranking is
// never torn: each returned value must be exactly base(node) * g for some
// written generation g, the ranking must be sorted for the attribute's
// polarity, and no target may appear twice. A torn 8-byte value or a rank
// computed from a half-visible update breaks one of these.
TEST(AttrConcurrency, RankingsAreNeverTornWhileProbeWritersRun) {
  topo::Topology topology = topo::xeon_clx_1lm();
  MemAttrRegistry registry(topology);
  const auto& nodes = topology.numa_nodes();
  const auto initiator = Initiator::from_cpuset(topology.pus().front()->cpuset());

  auto base = [](unsigned node) { return 100.0 * (node + 1); };
  constexpr unsigned kGenerations = 400;

  // Generation 1 first so readers always have a complete value set.
  for (unsigned n = 0; n < nodes.size(); ++n) {
    ASSERT_TRUE(registry.set_value(kBandwidth, *nodes[n], initiator, base(n)).ok());
  }

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (unsigned g = 2; g <= kGenerations; ++g) {
      for (unsigned n = 0; n < nodes.size(); ++n) {
        ASSERT_TRUE(
            registry.set_value(kBandwidth, *nodes[n], initiator, base(n) * g)
                .ok());
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  auto is_written_value = [&](const TargetValue& tv) {
    const double ratio = tv.value / base(tv.target->logical_index());
    const double generation = std::round(ratio);
    return generation >= 1.0 && generation <= kGenerations &&
           std::abs(ratio - generation) < 1e-9;
  };

  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      do {
        const std::vector<TargetValue> ranked =
            registry.targets_ranked(kBandwidth, initiator);
        ASSERT_FALSE(ranked.empty());
        ASSERT_LE(ranked.size(), nodes.size());
        for (std::size_t i = 0; i < ranked.size(); ++i) {
          ASSERT_TRUE(is_written_value(ranked[i]))
              << "torn value " << ranked[i].value;
          if (i > 0) {
            // Bandwidth is kHigherFirst.
            ASSERT_GE(ranked[i - 1].value, ranked[i].value);
          }
          for (std::size_t j = i + 1; j < ranked.size(); ++j) {
            ASSERT_NE(ranked[i].target, ranked[j].target);
          }
        }
        auto best = registry.best_target(kBandwidth, initiator);
        ASSERT_TRUE(best.ok());
        ASSERT_TRUE(is_written_value(*best));
      } while (!writer_done.load(std::memory_order_acquire));
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
}

// --- generation-invalidated ranking cache (docs/PERF.md) ---
//
// The cache's whole contract is "bit-identical to uncached recomputation".
// These property tests drive randomized mutation interleavings and check the
// cached snapshots against (a) the same registry's uncached methods after
// every step and (b) a completely fresh registry that replays the same
// mutation log — if either ever diverges the invalidation protocol is wrong.

void expect_identical_ranking(const std::vector<TargetValue>& cached,
                              const std::vector<TargetValue>& uncached,
                              const char* what) {
  ASSERT_EQ(cached.size(), uncached.size()) << what;
  for (std::size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].target, uncached[i].target) << what << " rank " << i;
    // Exact (bitwise) double equality on purpose: the cache must memoize,
    // not approximate.
    EXPECT_EQ(cached[i].value, uncached[i].value) << what << " rank " << i;
  }
}

TEST(RankingCacheProperty, RandomInterleavingsMatchUncachedAndFreshRegistry) {
  topo::Topology topology = topo::xeon_clx_1lm();
  const auto& nodes = topology.numa_nodes();
  const auto initiator = Initiator::from_cpuset(topology.pus().front()->cpuset());

  hmat::GenerateOptions options;
  options.local_only = false;
  options.read_write_split = true;
  const hmat::HmatTable table = hmat::generate(topology, options);

  MemAttrRegistry registry(topology);
  ASSERT_TRUE(hmat::load_into(registry, table).ok());

  // Mutation log so the run can be replayed into a fresh registry.
  struct Mutation {
    enum class Kind { kSetValue, kSetConfidence, kMarkAll, kInvalidate } kind;
    AttrId attr = 0;
    unsigned node = 0;
    double value = 0.0;
    Confidence confidence = Confidence::kTrusted;
  };
  std::vector<Mutation> log;

  const AttrId attrs[] = {kBandwidth, kLatency, kReadBandwidth};
  const Confidence confidences[] = {Confidence::kTrusted, Confidence::kNoisy,
                                    Confidence::kStale};
  std::mt19937 rng(20260806u);

  auto check_against_uncached = [&](const MemAttrRegistry& reg) {
    for (AttrId attr : {kBandwidth, kLatency, kCapacity, kReadBandwidth}) {
      expect_identical_ranking(
          reg.targets_ranked_cached(attr, initiator)->targets,
          reg.targets_ranked(attr, initiator), "plain");
      expect_identical_ranking(
          reg.targets_ranked_resilient_cached(attr, initiator)->targets,
          reg.targets_ranked_resilient(attr, initiator), "resilient");
    }
  };

  std::uint64_t last_generation = registry.generation();
  for (unsigned step = 0; step < 400; ++step) {
    Mutation m;
    m.kind = static_cast<Mutation::Kind>(rng() % 4);
    m.attr = attrs[rng() % std::size(attrs)];
    m.node = static_cast<unsigned>(rng() % nodes.size());
    m.value = 1.0 + static_cast<double>(rng() % 100000);
    m.confidence = confidences[rng() % std::size(confidences)];
    switch (m.kind) {
      case Mutation::Kind::kSetValue:
        ASSERT_TRUE(registry
                        .set_value(m.attr, *nodes[m.node], initiator, m.value)
                        .ok());
        break;
      case Mutation::Kind::kSetConfidence:
        // May be kNotFound when the pair has no value yet; that is fine (a
        // failed mutation must simply not corrupt the cache).
        (void)registry.set_confidence(m.attr, *nodes[m.node], initiator,
                                      m.confidence);
        break;
      case Mutation::Kind::kMarkAll:
        registry.mark_all(m.attr, m.confidence);
        break;
      case Mutation::Kind::kInvalidate:
        registry.invalidate_rankings();  // node-offline style event
        break;
    }
    log.push_back(m);

    // The generation counter may only move forward.
    const std::uint64_t generation = registry.generation();
    ASSERT_GE(generation, last_generation);
    last_generation = generation;

    check_against_uncached(registry);
  }

  // Replay into a fresh registry: its uncached rankings must match the
  // original's cached snapshots exactly.
  MemAttrRegistry fresh(topology);
  ASSERT_TRUE(hmat::load_into(fresh, table).ok());
  for (const Mutation& m : log) {
    switch (m.kind) {
      case Mutation::Kind::kSetValue:
        ASSERT_TRUE(
            fresh.set_value(m.attr, *nodes[m.node], initiator, m.value).ok());
        break;
      case Mutation::Kind::kSetConfidence:
        (void)fresh.set_confidence(m.attr, *nodes[m.node], initiator,
                                   m.confidence);
        break;
      case Mutation::Kind::kMarkAll:
        fresh.mark_all(m.attr, m.confidence);
        break;
      case Mutation::Kind::kInvalidate:
        break;  // no value-state effect
    }
  }
  for (AttrId attr : {kBandwidth, kLatency, kCapacity, kReadBandwidth}) {
    expect_identical_ranking(
        registry.targets_ranked_cached(attr, initiator)->targets,
        fresh.targets_ranked(attr, initiator), "fresh plain");
    expect_identical_ranking(
        registry.targets_ranked_resilient_cached(attr, initiator)->targets,
        fresh.targets_ranked_resilient(attr, initiator), "fresh resilient");
  }
}

// Disabling the cache must not change results either (the benchmarks rely
// on the switch being behavior-neutral).
TEST(RankingCacheProperty, DisabledCacheIsBehaviorNeutral) {
  topo::Topology topology = topo::xeon_clx_1lm();
  MemAttrRegistry registry(topology);
  hmat::GenerateOptions options;
  options.local_only = false;
  ASSERT_TRUE(hmat::load_into(registry, hmat::generate(topology, options)).ok());
  const auto initiator = Initiator::from_cpuset(topology.pus().front()->cpuset());

  const auto enabled =
      registry.targets_ranked_resilient_cached(kBandwidth, initiator);
  registry.set_ranking_cache_enabled(false);
  EXPECT_FALSE(registry.ranking_cache_enabled());
  const auto disabled =
      registry.targets_ranked_resilient_cached(kBandwidth, initiator);
  registry.set_ranking_cache_enabled(true);
  expect_identical_ranking(enabled->targets, disabled->targets, "switch");
}

// Every successful mutation bumps the generation exactly once, under an
// exclusive lock — so with W writers each performing K mutations the counter
// must land on exactly start + W*K, and no observer may ever see it move
// backwards. A lost or duplicated bump breaks cache invalidation (a stale
// snapshot could validate against a reused stamp).
TEST(RankingCacheProperty, GenerationStrictlyMonotonicUnderConcurrency) {
  topo::Topology topology = topo::xeon_clx_1lm();
  MemAttrRegistry registry(topology);
  const auto& nodes = topology.numa_nodes();
  const auto initiator = Initiator::from_cpuset(topology.pus().front()->cpuset());

  constexpr unsigned kWriters = 4;
  constexpr unsigned kMutationsPerWriter = 500;
  const std::uint64_t start = registry.generation();

  std::atomic<bool> done{false};
  std::vector<std::thread> observers;
  for (unsigned o = 0; o < 2; ++o) {
    observers.emplace_back([&] {
      std::uint64_t last = registry.generation();
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t now = registry.generation();
        ASSERT_GE(now, last);
        last = now;
      }
    });
  }

  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (unsigned k = 0; k < kMutationsPerWriter; ++k) {
        const unsigned node = (w + k) % nodes.size();
        ASSERT_TRUE(registry
                        .set_value(kBandwidth, *nodes[node], initiator,
                                   1.0 + w * 1000.0 + k)
                        .ok());
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true, std::memory_order_release);
  for (std::thread& observer : observers) observer.join();

  EXPECT_EQ(registry.generation(), start + kWriters * kMutationsPerWriter);
}

}  // namespace
}  // namespace hetmem::attr
