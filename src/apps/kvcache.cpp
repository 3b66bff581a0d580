#include "hetmem/apps/kvcache.hpp"

#include <algorithm>
#include <string>

#include "hetmem/support/rng.hpp"

namespace hetmem::apps {

using support::Errc;
using support::make_error;
using support::Result;

KvCachePlacement KvCachePlacement::all_on_node(unsigned node) {
  KvCachePlacement placement;
  placement.buffers.forced_node = node;
  return placement;
}

KvCacheRunner::KvCacheRunner(sim::SimMachine& machine, KvCacheConfig config)
    : machine_(&machine), config_(config) {
  config_.segments = std::max(1u, config_.segments);
  config_.shift_every_phases = std::max(1u, config_.shift_every_phases);
  config_.threads = std::max(1u, config_.threads);
  config_.backing_lookups_per_thread =
      std::max<std::size_t>(1, config_.backing_lookups_per_thread);
}

KvCacheRunner::~KvCacheRunner() {
  for (sim::BufferId id : owned_) (void)machine_->free(id);
}

Result<std::unique_ptr<KvCacheRunner>> KvCacheRunner::create(
    sim::SimMachine& machine, alloc::HeterogeneousAllocator* allocator,
    const support::Bitmap& initiator, const KvCacheConfig& config,
    const KvCachePlacement& placement) {
  std::unique_ptr<KvCacheRunner> runner(new KvCacheRunner(machine, config));
  const KvCacheConfig& cfg = runner->config_;

  const std::size_t total_keys =
      cfg.backing_keys_per_segment * cfg.segments;
  const std::uint64_t segment_declared =
      std::max<std::uint64_t>(1, cfg.declared_value_bytes / cfg.segments);

  struct Request {
    std::string label;
    std::uint64_t declared;
    std::size_t backing;
    sim::BufferId* out;
  };
  std::vector<Request> requests;
  requests.push_back({"kv.dir", cfg.declared_directory_bytes,
                      total_keys * sizeof(std::uint64_t), &runner->dir_id_});
  requests.push_back({"kv.log", cfg.declared_log_bytes,
                      (64u << 10), &runner->log_id_});
  runner->segment_ids_.resize(cfg.segments);
  for (unsigned segment = 0; segment < cfg.segments; ++segment) {
    requests.push_back({"kv.seg" + std::to_string(segment), segment_declared,
                        cfg.backing_keys_per_segment * sizeof(double),
                        &runner->segment_ids_[segment]});
  }

  for (const Request& request : requests) {
    if (placement.buffers.forced_node.has_value()) {
      auto buffer =
          machine.allocate(request.declared, *placement.buffers.forced_node,
                           request.label, request.backing);
      if (!buffer.ok()) return buffer.error();
      *request.out = *buffer;
    } else {
      if (allocator == nullptr) {
        return make_error(Errc::kInvalidArgument,
                          "attribute placement requires an allocator");
      }
      alloc::AllocRequest alloc_request;
      alloc_request.bytes = request.declared;
      alloc_request.attribute = placement.buffers.attribute;
      alloc_request.initiator = initiator;
      alloc_request.policy = placement.buffers.policy;
      alloc_request.backing_bytes = request.backing;
      alloc_request.label = request.label;
      alloc_request.attribute_rescue = placement.buffers.attribute_rescue;
      auto allocation = allocator->mem_alloc(alloc_request);
      if (!allocation.ok()) return allocation.error();
      *request.out = allocation->buffer;
    }
    runner->owned_.push_back(*request.out);
  }

  runner->exec_ = std::make_unique<sim::ExecutionContext>(machine, initiator,
                                                          cfg.threads);
  runner->exec_->set_mlp(cfg.mlp);

  runner->directory_ =
      std::make_unique<sim::Array<std::uint64_t>>(machine, runner->dir_id_);
  runner->log_ = std::make_unique<sim::Array<double>>(machine, runner->log_id_);
  runner->segments_.resize(cfg.segments);
  for (unsigned segment = 0; segment < cfg.segments; ++segment) {
    runner->segments_[segment] = std::make_unique<sim::Array<double>>(
        machine, runner->segment_ids_[segment]);
  }

  // Untimed construction: identity directory, deterministic values.
  for (std::size_t key = 0; key < total_keys; ++key) {
    runner->directory_->span()[key] = key;
  }
  for (unsigned segment = 0; segment < cfg.segments; ++segment) {
    std::span<double> values = runner->segments_[segment]->span();
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = 1.0 + static_cast<double>((segment * 31 + i) % 17);
    }
  }

  runner->zipf_ = support::ZipfDistribution(total_keys, cfg.zipf_s);
  runner->partial_.assign(cfg.threads, 0.0);
  runner->hits_.assign(cfg.threads * runner->hits_stride(), 0);
  return runner;
}

void KvCacheRunner::refresh_arrays() {
  directory_->refresh_model();
  log_->refresh_model();
  for (auto& segment : segments_) segment->refresh_model();
}

Result<KvCacheResult> KvCacheRunner::run() {
  return run_phases(config_.phases);
}

Result<KvCacheResult> KvCacheRunner::run_phases(unsigned count) {
  const std::size_t keys_per_segment = config_.backing_keys_per_segment;
  const std::size_t total_keys = keys_per_segment * config_.segments;
  const double probes_per_thread =
      config_.lookups_per_phase / config_.threads;
  const double backing_probes =
      static_cast<double>(config_.backing_lookups_per_thread);

  KvCacheResult result;
  const double clock_before = exec_->clock_ns();

  for (unsigned local = 0; local < count; ++local) {
    const unsigned phase = phase_cursor_;
    const unsigned hot = hot_segment(phase);
    std::fill(partial_.begin(), partial_.end(), 0.0);
    const double phase_clock_before = exec_->clock_ns();
    exec_->run_phase(
        "kv.lookup", config_.threads,
        [&](sim::ThreadCtx& ctx, unsigned thread, std::size_t begin,
            std::size_t end) {
          if (begin >= end) return;
          // Seeded per (phase, thread): traffic replays bit-identically and
          // is independent of placement, so checksums survive migrations.
          support::SplitMix64 mix(config_.seed ^
                                  (static_cast<std::uint64_t>(phase) << 32) ^
                                  thread);
          support::Xoshiro256 rng(mix.next());
          std::size_t* hits = hits_.data() + thread * hits_stride();
          std::fill(hits, hits + config_.segments, std::size_t{0});
          double acc = 0.0;
          for (std::size_t probe = 0;
               probe < config_.backing_lookups_per_thread; ++probe) {
            // Zipf rank -> key, rotated so the head ranks land on the hot
            // segment this phase.
            const std::size_t rank = zipf_.sample(rng);
            const std::size_t key =
                (rank + hot * keys_per_segment) % total_keys;
            const std::size_t slot =
                static_cast<std::size_t>(directory_->span()[key]);
            const std::size_t segment = slot / keys_per_segment;
            acc += segments_[segment]->span()[slot % keys_per_segment];
            ++hits[segment];
          }
          partial_[thread] = acc;
          // Declared-scale traffic: directory probes (LLC-resident, ~2%
          // misses), value gathers split by observed segment mix, streamed
          // log appends, and hash/probe compute.
          directory_->record_bulk_random_reads(ctx, probes_per_thread);
          for (unsigned segment = 0; segment < config_.segments; ++segment) {
            if (hits[segment] == 0) continue;
            const double share =
                static_cast<double>(hits[segment]) / backing_probes;
            segments_[segment]->record_bulk_random_reads(
                ctx, probes_per_thread * share);
          }
          log_->record_bulk_write(
              ctx, config_.log_bytes_per_phase / config_.threads);
          ctx.add_compute_ns(probes_per_thread * config_.compute_ns_per_lookup);
        });
    for (double value : partial_) result.checksum += value;
    // Clock delta, not PhaseResult::sim_ns: an attached policy charges its
    // migration cost between phases, and recovery gates must see the run
    // paying for its own management.
    result.phase_ns.push_back(exec_->clock_ns() - phase_clock_before);
    result.hot_segments.push_back(hot);
    ++phase_cursor_;
  }

  const double elapsed_ns = exec_->clock_ns() - clock_before;
  if (elapsed_ns <= 0.0) {
    return make_error(Errc::kInternal, "zero elapsed simulated time");
  }
  result.seconds = elapsed_ns / 1e9;
  result.lookups_per_second =
      config_.lookups_per_phase * count / result.seconds;
  return result;
}

}  // namespace hetmem::apps
