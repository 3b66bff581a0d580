#include "hetmem/prof/profiler.hpp"

#include <algorithm>

#include "hetmem/support/str.hpp"
#include "hetmem/support/table.hpp"
#include "hetmem/support/units.hpp"

namespace hetmem::prof {

BoundnessSummary summarize(const sim::ExecutionContext& exec,
                           const ProfileOptions& options) {
  BoundnessSummary summary;
  const auto& nodes = exec.machine().topology().numa_nodes();

  double total_ns = 0.0;
  double stall_dram = 0.0;
  double stall_pmem = 0.0;
  double stall_hbm = 0.0;
  double bw_dram_ns = 0.0;
  double bw_pmem_ns = 0.0;
  double bw_hbm_ns = 0.0;

  for (const sim::PhaseResult& phase : exec.history()) {
    total_ns += phase.sim_ns;
    bool dram_saturated = false;
    bool pmem_saturated = false;
    bool hbm_saturated = false;
    for (std::size_t n = 0; n < phase.nodes.size(); ++n) {
      const sim::NodePhaseStats& stats = phase.nodes[n];
      const topo::MemoryKind kind = nodes[n]->memory_kind();
      switch (kind) {
        case topo::MemoryKind::kDRAM:
          stall_dram += stats.latency_stall_ns;
          dram_saturated |= stats.utilization >= options.bw_bound_utilization;
          break;
        case topo::MemoryKind::kNVDIMM:
          stall_pmem += stats.latency_stall_ns;
          pmem_saturated |= stats.utilization >= options.bw_bound_utilization;
          break;
        case topo::MemoryKind::kHBM:
          stall_hbm += stats.latency_stall_ns;
          hbm_saturated |= stats.utilization >= options.bw_bound_utilization;
          break;
        default:
          break;
      }
    }
    if (dram_saturated) bw_dram_ns += phase.sim_ns;
    if (pmem_saturated) bw_pmem_ns += phase.sim_ns;
    if (hbm_saturated) bw_hbm_ns += phase.sim_ns;
  }

  if (total_ns <= 0.0) return summary;
  // Stall percentages are per-thread "clockticks": total thread-time is
  // elapsed x thread count.
  const double thread_ns = total_ns * exec.thread_count();
  summary.dram_bound_pct = 100.0 * stall_dram / thread_ns;
  summary.pmem_bound_pct = 100.0 * stall_pmem / thread_ns;
  summary.hbm_bound_pct = 100.0 * stall_hbm / thread_ns;
  summary.dram_bw_bound_pct = 100.0 * bw_dram_ns / total_ns;
  summary.pmem_bw_bound_pct = 100.0 * bw_pmem_ns / total_ns;
  summary.hbm_bw_bound_pct = 100.0 * bw_hbm_ns / total_ns;
  return summary;
}

std::vector<BufferProfile> profile_buffers(const sim::ExecutionContext& exec,
                                           const ProfileOptions& options) {
  std::vector<sim::BufferTraffic> merged = exec.merged_buffer_traffic();
  const sim::SimMachine& machine = exec.machine();

  double total_memory_bytes = 0.0;
  for (const sim::BufferTraffic& bt : merged) total_memory_bytes += bt.memory_bytes;

  std::vector<BufferProfile> profiles;
  for (std::uint32_t index = 0; index < merged.size(); ++index) {
    const sim::BufferTraffic& bt = merged[index];
    if (bt.reads + bt.writes <= 0.0) continue;
    const sim::BufferId buffer = exec.traffic_buffer(index);
    const sim::BufferInfo& info = machine.info(buffer);

    BufferProfile profile;
    profile.buffer = buffer;
    profile.label = info.label;
    profile.node = info.node;
    profile.declared_bytes = info.declared_bytes;
    profile.accesses = bt.reads + bt.writes;
    profile.llc_misses = bt.llc_misses;
    profile.memory_bytes = bt.memory_bytes;
    profile.random_fraction =
        profile.accesses > 0.0 ? bt.random_accesses / profile.accesses : 0.0;

    const double traffic_share =
        total_memory_bytes > 0.0 ? bt.memory_bytes / total_memory_bytes : 0.0;
    profile.sensitivity = classify_sensitivity(traffic_share, bt.llc_misses,
                                               bt.random_misses,
                                               options.classify);
    profiles.push_back(std::move(profile));
  }

  std::stable_sort(profiles.begin(), profiles.end(),
                   [](const BufferProfile& a, const BufferProfile& b) {
                     return a.memory_bytes > b.memory_bytes;
                   });
  return profiles;
}

std::string render_summary(const BoundnessSummary& summary) {
  using support::format_fixed;
  std::string out;
  auto row = [&](const char* name, double bound, double bw_bound) {
    out += std::string(name) + " Bound: " + format_fixed(bound, 1) +
           "% of clockticks" +
           (bound >= 15.0 ? "  [FLAG: latency issue]" : "") + "\n";
    out += std::string(name) + " Bandwidth Bound: " + format_fixed(bw_bound, 1) +
           "% of elapsed time" +
           (bw_bound >= 40.0 ? "  [FLAG: bandwidth issue]" : "") + "\n";
  };
  row("DRAM", summary.dram_bound_pct, summary.dram_bw_bound_pct);
  row("PMem", summary.pmem_bound_pct, summary.pmem_bw_bound_pct);
  row("HBM", summary.hbm_bound_pct, summary.hbm_bw_bound_pct);
  return out;
}

std::string render_hot_buffers(const std::vector<BufferProfile>& profiles,
                               std::size_t top_n) {
  support::TextTable table({"Memory Object", "Node", "Size", "Accesses",
                            "LLC Miss Count", "Memory Traffic", "Random",
                            "Sensitivity"});
  std::size_t shown = 0;
  for (const BufferProfile& profile : profiles) {
    if (shown++ >= top_n) break;
    table.add_row({profile.label, "L#" + std::to_string(profile.node),
                   support::format_bytes(profile.declared_bytes),
                   support::format_fixed(profile.accesses, 0),
                   support::format_fixed(profile.llc_misses, 0),
                   support::format_bytes(
                       static_cast<std::uint64_t>(profile.memory_bytes)),
                   support::format_fixed(100.0 * profile.random_fraction, 0) + "%",
                   sensitivity_name(profile.sensitivity)});
  }
  return table.render();
}

std::string render_timeline(const sim::ExecutionContext& exec,
                            std::size_t max_phases) {
  struct Sample {
    std::string name;
    double sim_ms = 0.0;
    double read_bw = 0.0;   // bytes/s across all nodes
    double write_bw = 0.0;
  };

  // Coalesce history into at most max_phases samples (merging neighbors
  // keeps long runs readable, like a zoomed-out VTune track).
  std::vector<Sample> samples;
  const auto& history = exec.history();
  const std::size_t stride =
      history.empty() ? 1 : (history.size() + max_phases - 1) / max_phases;
  for (std::size_t start = 0; start < history.size(); start += stride) {
    Sample sample;
    double read_bytes = 0.0;
    double write_bytes = 0.0;
    double ns = 0.0;
    for (std::size_t i = start;
         i < std::min(history.size(), start + stride); ++i) {
      const sim::PhaseResult& phase = history[i];
      if (sample.name.empty()) sample.name = phase.name;
      ns += phase.sim_ns;
      for (const sim::NodePhaseStats& stats : phase.nodes) {
        read_bytes += stats.read_bytes;
        write_bytes += stats.write_bytes;
      }
    }
    if (ns <= 0.0) continue;
    sample.sim_ms = ns / 1e6;
    sample.read_bw = read_bytes / (ns / 1e9);
    sample.write_bw = write_bytes / (ns / 1e9);
    samples.push_back(std::move(sample));
  }
  if (samples.empty()) return "(no phases executed)\n";

  double peak = 1.0;
  for (const Sample& sample : samples) {
    peak = std::max({peak, sample.read_bw, sample.write_bw});
  }

  std::string out =
      "bandwidth over time ('#' read, '=' write; full bar = " +
      support::format_bandwidth(peak) + ")\n";
  constexpr std::size_t kBarWidth = 40;
  for (const Sample& sample : samples) {
    const auto read_cells =
        static_cast<std::size_t>(sample.read_bw / peak * kBarWidth);
    const auto write_cells =
        static_cast<std::size_t>(sample.write_bw / peak * kBarWidth);
    out += "  " + support::pad_right(sample.name, 14) +
           support::pad_left(support::format_fixed(sample.sim_ms, 2), 9) +
           " ms |" + std::string(read_cells, '#') +
           std::string(kBarWidth - read_cells, ' ') + "|" +
           std::string(write_cells, '=') +
           std::string(kBarWidth - write_cells, ' ') + "|\n";
  }
  return out;
}

}  // namespace hetmem::prof
