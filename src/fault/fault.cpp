#include "hetmem/fault/fault.hpp"

#include <algorithm>

#include "hetmem/support/line_codec.hpp"
#include "hetmem/support/str.hpp"

namespace hetmem::fault {

FaultInjector::Site& FaultInjector::site_state_locked(std::string_view site) {
  for (Site& s : sites_) {
    if (s.name == site) return s;
  }
  Site s;
  s.name = std::string(site);
  // Seeded from a hash of the name, so a site's random stream depends only
  // on (seed, name), never on the order sites were first touched. That is
  // what makes interleaved consumers (machine, probe, corruption)
  // individually replayable.
  s.rng = support::Xoshiro256(seed_ ^ support::fnv1a64(site));
  sites_.push_back(std::move(s));
  return sites_.back();
}

const FaultInjector::Site* FaultInjector::find_site_locked(
    std::string_view site) const {
  for (const Site& s : sites_) {
    if (s.name == site) return &s;
  }
  return nullptr;
}

void FaultInjector::configure(std::string_view site, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  Site& s = site_state_locked(site);
  s.spec = spec;
  s.armed = spec.probability > 0.0;
  s.burst_remaining = 0;
}

bool FaultInjector::should_fail(std::string_view site) {
  std::lock_guard<std::mutex> lock(mutex_);
  return should_fail_locked(site);
}

bool FaultInjector::should_fail_locked(std::string_view site) {
  Site& s = site_state_locked(site);
  const std::uint64_t sequence = s.consultations++;
  if (!s.armed) return false;
  if (s.spec.max_count != 0 && s.injected >= s.spec.max_count) return false;

  bool fire = false;
  if (s.burst_remaining > 0) {
    --s.burst_remaining;
    fire = true;
  } else if (s.rng.next_double() < s.spec.probability) {
    fire = true;
    if (s.spec.burst > 1) s.burst_remaining = s.spec.burst - 1;
  }
  if (!fire) return false;

  ++s.injected;
  schedule_.push_back(FaultEvent{s.name, sequence});
  return true;
}

double FaultInjector::noise_factor(std::string_view site) {
  // Draw the magnitude unconditionally so the stream position (and thus the
  // rest of the schedule) does not depend on whether this consultation fired.
  std::lock_guard<std::mutex> lock(mutex_);
  const bool fire = should_fail_locked(site);
  Site& s = site_state_locked(site);
  const double unit = s.rng.next_double() * 2.0 - 1.0;  // [-1, 1)
  if (!fire || s.spec.noise_sigma <= 0.0) return 1.0;
  return std::max(0.01, 1.0 + s.spec.noise_sigma * unit);
}

double FaultInjector::uniform(std::string_view site) {
  std::lock_guard<std::mutex> lock(mutex_);
  return site_state_locked(site).rng.next_double();
}

std::uint64_t FaultInjector::injected(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Site* s = find_site_locked(site);
  return s != nullptr ? s->injected : 0;
}

std::uint64_t FaultInjector::consultations(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Site* s = find_site_locked(site);
  return s != nullptr ? s->consultations : 0;
}

std::uint64_t FaultInjector::total_injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const Site& s : sites_) total += s.injected;
  return total;
}

std::string FaultInjector::schedule_fingerprint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const FaultEvent& event : schedule_) {
    if (!out.empty()) out += ' ';
    out += event.site + "@" + std::to_string(event.sequence);
  }
  return out;
}

const std::vector<SiteInfo>& all_sites() {
  static const std::vector<SiteInfo> sites = {
      {site::kMachineAllocTransient, "SimMachine::allocate",
       "the allocation fails with kTransient (retryable)"},
      {site::kMachineNodeOffline, "SimMachine::allocate, "
       "SimMachine::sample_node_faults",
       "the target/sampled node goes offline (sticky) and the call fails"},
      {site::kMachineMigrateTransient, "SimMachine::migrate",
       "the migration fails with kTransient (retryable)"},
      {site::kMachineMigrateStall, "SimMachine::migrate",
       "the migration wedges: kTransient failures that persist across "
       "retries (burst), the stalled-progress signature the recover "
       "watchdog/breakers react to"},
      {site::kRuntimeEpochOverrun, "recover::Watchdog::observe_epoch",
       "the observed epoch is treated as having blown its deadline"},
      {site::kMachineEccBurst, "SimMachine::sample_node_faults",
       "a corrected-ECC-error burst is counted against the sampled node"},
      {site::kMachineNodeDegraded, "SimMachine::sample_node_faults",
       "the sampled node enters the sticky degraded regime"},
      {site::kMachinePowerThrottle, "SimMachine::sample_node_faults",
       "a thermal power-throttle event is counted against the sampled node"},
      {site::kProbeFail, "probe::measure",
       "the measurement fails outright (device busy, counters unavailable)"},
      {site::kProbeNoise, "probe::measure",
       "the measured value is multiplied by a noise factor"},
      {site::kHmatDropEntry, "corrupt_hmat_text",
       "a record line is dropped (firmware omission)"},
      {site::kHmatFlipAccess, "corrupt_hmat_text",
       "a read<->write access token is flipped"},
      {site::kHmatTruncateLine, "corrupt_hmat_text",
       "a record line is truncated mid-token"},
      {site::kHmatDuplicateEntry, "corrupt_hmat_text",
       "a record is duplicated with a perturbed value"},
      {site::kHmatGarbleValue, "corrupt_hmat_text",
       "a numeric value is replaced with garbage"},
  };
  return sites;
}

std::vector<FaultInjector::SiteState> FaultInjector::export_sites() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SiteState> out;
  out.reserve(sites_.size());
  for (const Site& s : sites_) {
    out.push_back(SiteState{s.name, s.spec, s.rng.state(), s.consultations,
                            s.injected, s.burst_remaining, s.armed});
  }
  return out;
}

void FaultInjector::restore_site(const SiteState& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  Site& s = site_state_locked(state.name);
  s.spec = state.spec;
  s.rng.set_state(state.rng);
  s.consultations = state.consultations;
  s.injected = state.injected;
  s.burst_remaining = state.burst_remaining;
  s.armed = state.armed;
}

const std::vector<const char*>& FaultInjector::preset_names() {
  static const std::vector<const char*> names = {"none", "light", "heavy",
                                                 "hmat-chaos", "alloc-storm"};
  return names;
}

FaultInjector FaultInjector::preset(std::string_view name, std::uint64_t seed) {
  FaultInjector injector(seed);
  if (name == "none") return injector;
  if (name == "light") {
    injector.configure(site::kMachineAllocTransient, {.probability = 0.05});
    injector.configure(site::kProbeFail, {.probability = 0.03});
    injector.configure(site::kProbeNoise,
                       {.probability = 0.2, .noise_sigma = 0.05});
    injector.configure(site::kHmatDropEntry, {.probability = 0.05});
    injector.configure(site::kHmatGarbleValue, {.probability = 0.03});
    return injector;
  }
  if (name == "heavy") {
    injector.configure(site::kMachineAllocTransient,
                       {.probability = 0.25, .burst = 2});
    injector.configure(site::kMachineNodeOffline,
                       {.probability = 0.02, .max_count = 1});
    injector.configure(site::kMachineMigrateTransient, {.probability = 0.2});
    // Health-sampling sites: only consulted when a HealthMonitor (or a
    // direct sample_node_faults caller) polls, so arming them here does not
    // change schedules for runs without health monitoring.
    injector.configure(site::kMachineEccBurst,
                       {.probability = 0.05, .burst = 3});
    injector.configure(site::kMachineNodeDegraded,
                       {.probability = 0.01, .max_count = 1});
    injector.configure(site::kProbeFail, {.probability = 0.15});
    injector.configure(site::kProbeNoise,
                       {.probability = 0.6, .noise_sigma = 0.35});
    injector.configure(site::kHmatDropEntry, {.probability = 0.2});
    injector.configure(site::kHmatFlipAccess, {.probability = 0.1});
    injector.configure(site::kHmatTruncateLine, {.probability = 0.1});
    injector.configure(site::kHmatDuplicateEntry, {.probability = 0.15});
    injector.configure(site::kHmatGarbleValue, {.probability = 0.1});
    return injector;
  }
  if (name == "hmat-chaos") {
    injector.configure(site::kHmatDropEntry, {.probability = 0.3});
    injector.configure(site::kHmatFlipAccess, {.probability = 0.2});
    injector.configure(site::kHmatTruncateLine, {.probability = 0.2});
    injector.configure(site::kHmatDuplicateEntry, {.probability = 0.3});
    injector.configure(site::kHmatGarbleValue, {.probability = 0.2});
    return injector;
  }
  if (name == "alloc-storm") {
    injector.configure(site::kMachineAllocTransient,
                       {.probability = 0.5, .burst = 3});
    return injector;
  }
  // Unknown names behave like "none": chaos harnesses iterate preset_names().
  return injector;
}

HmatCorruption corrupt_hmat_text(std::string_view text, FaultInjector& injector) {
  HmatCorruption result;
  for (std::string_view raw_line : support::split(text, '\n')) {
    const std::string_view line = support::trim(raw_line);
    const bool is_record = !line.empty() && line.front() != '#';
    if (!is_record) {
      if (!raw_line.empty()) {
        result.text += std::string(raw_line);
        result.text += '\n';
      }
      continue;
    }

    if (injector.should_fail(site::kHmatDropEntry)) {
      ++result.lines_dropped;
      continue;  // omission: the record never reaches the parser
    }

    std::string mutated(raw_line);
    if (injector.should_fail(site::kHmatFlipAccess)) {
      // Swap read<->write access tokens; promote "access" to "read" so even
      // combined entries get skewed.
      std::size_t pos;
      if ((pos = mutated.find(" read ")) != std::string::npos) {
        mutated.replace(pos, 6, " write ");
        ++result.access_flips;
      } else if ((pos = mutated.find(" write ")) != std::string::npos) {
        mutated.replace(pos, 7, " read ");
        ++result.access_flips;
      } else if ((pos = mutated.find(" access ")) != std::string::npos) {
        mutated.replace(pos, 8, " read ");
        ++result.access_flips;
      }
    }
    if (injector.should_fail(site::kHmatGarbleValue)) {
      if (const std::size_t pos = mutated.rfind('='); pos != std::string::npos) {
        mutated.replace(pos + 1, std::string::npos, "NaN?");
        ++result.values_garbled;
      }
    }
    if (injector.should_fail(site::kHmatTruncateLine)) {
      const double position = injector.uniform(site::kHmatTruncateLine);
      const std::size_t cut = 4 + static_cast<std::size_t>(
                                      static_cast<double>(mutated.size()) * position);
      mutated.resize(std::min(mutated.size(), cut));
      ++result.lines_truncated;
    }

    result.text += mutated;
    result.text += '\n';

    if (injector.should_fail(site::kHmatDuplicateEntry)) {
      // Re-emit the (pre-mutation) record with a perturbed value: a
      // duplicate (initiator, target, attribute) key whose resolution must
      // be deterministic (last-wins) in the parser.
      if (const std::size_t pos = raw_line.rfind('=');
          pos != std::string_view::npos) {
        result.text += raw_line.substr(0, pos + 1);
        result.text += '9';
        result.text += raw_line.substr(pos + 1);
        result.text += '\n';
        ++result.duplicates_added;
      }
    }
  }
  return result;
}

}  // namespace hetmem::fault
