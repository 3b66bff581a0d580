#include "hetmem/simmem/machine.hpp"

#include <algorithm>
#include <utility>

#include "hetmem/fault/fault.hpp"
#include "hetmem/support/units.hpp"

namespace hetmem::sim {

using support::Errc;
using support::make_error;
using support::Result;
using support::Status;

SimMachine::SimMachine(topo::Topology topology, MachinePerfModel model)
    : topology_(std::move(topology)),
      model_(std::move(model)),
      chunks_(std::make_unique<std::atomic<Slot*>[]>(kMaxChunks)),
      node_count_(topology_.numa_nodes().size()),
      llc_bytes_(static_cast<std::uint64_t>(27.5 * 1024 * 1024)) {
  used_ = std::make_unique<std::atomic<std::uint64_t>[]>(node_count_);
  online_ = std::make_unique<std::atomic<std::uint8_t>[]>(node_count_);
  telemetry_ = std::make_unique<NodeCounters[]>(node_count_);
  node_power_.resize(node_count_);
  for (std::size_t n = 0; n < node_count_; ++n) {
    used_[n].store(0, std::memory_order_relaxed);
    online_[n].store(1, std::memory_order_relaxed);
  }
  // A perf model sized for a different topology is a caller bug, but one a
  // production machine must survive: self-heal by recalibrating for the
  // actual topology and record the repair instead of asserting.
  if (model_.node_count() != node_count_) {
    model_ = MachinePerfModel::calibrated_for(topology_);
    model_repaired_ = true;
  }
}

namespace {
// Evaluation-order-safe helper for the delegating constructor: calibrate
// before the topology is moved into the machine.
MachinePerfModel calibrate_then(const topo::Topology& topology) {
  return MachinePerfModel::calibrated_for(topology);
}
}  // namespace

SimMachine::SimMachine(topo::Topology topology)
    : SimMachine([&] {
        MachinePerfModel model = calibrate_then(topology);
        return std::pair<topo::Topology, MachinePerfModel>(std::move(topology),
                                                           std::move(model));
      }()) {}

SimMachine::SimMachine(std::pair<topo::Topology, MachinePerfModel> parts)
    : SimMachine(std::move(parts.first), std::move(parts.second)) {}

SimMachine::~SimMachine() {
  // Chunks are usually created densely, but concurrent claims can create
  // them slightly out of order — scan the whole table.
  for (std::size_t c = 0; c < kMaxChunks; ++c) {
    delete[] chunks_[c].load(std::memory_order_acquire);
  }
}

SimMachine::Slot* SimMachine::find_slot(BufferId id) const {
  if (!id.valid() || id.index >= next_slot_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  Slot* chunk = chunks_[id.index >> kSlotChunkShift].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  Slot* slot = &chunk[id.index & (kSlotsPerChunk - 1)];
  // An acquire load of the state pairs with the release store at publication
  // so the fields of the slot's first buffer are visible.
  if (slot->state.load(std::memory_order_acquire) == SlotState::kUnpublished) {
    return nullptr;
  }
  return slot;
}

SimMachine::Slot* SimMachine::slot_at(std::uint32_t index) {
  const std::size_t chunk_index = index >> kSlotChunkShift;
  Slot* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    std::lock_guard<std::mutex> lock(chunk_growth_mutex_);
    chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Slot[kSlotsPerChunk];
      chunks_[chunk_index].store(chunk, std::memory_order_release);
    }
  }
  return &chunk[index & (kSlotsPerChunk - 1)];
}

SimMachine::Slot* SimMachine::acquire_slot(BufferId& id_out,
                                           std::unique_lock<std::mutex>& lock) {
  std::uint32_t index = UINT32_MAX;
  {
    std::lock_guard<std::mutex> guard(free_mutex_);
    if (!free_list_.empty()) {
      index = free_list_.back();
      free_list_.pop_back();
    }
  }
  if (index != UINT32_MAX) {
    Slot* slot = slot_at(index);
    lock = std::unique_lock<std::mutex>(slot->lifecycle);
    // The release store keeps a reader that sees the new generation from
    // reading the freed buffer's kLive; the fence orders it before every
    // field publish() rewrites (see Slot::generation).
    const std::uint32_t generation =
        slot->generation.load(std::memory_order_relaxed) + 1;
    slot->generation.store(generation, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
    id_out = BufferId{index, generation};
    return slot;
  }
  index = next_slot_.fetch_add(1, std::memory_order_acq_rel);
  if (index >= kMaxChunks * kSlotsPerChunk) return nullptr;  // table exhausted
  Slot* slot = slot_at(index);
  lock = std::unique_lock<std::mutex>(slot->lifecycle);
  id_out = BufferId{index, 0};
  return slot;
}

void SimMachine::publish(Slot& slot, std::uint64_t declared_bytes,
                         unsigned node, std::string label,
                         std::size_t backing_bytes) {
  slot.label = std::move(label);
  slot.declared_bytes.store(declared_bytes, std::memory_order_relaxed);
  slot.backing_bytes.store(backing_bytes, std::memory_order_relaxed);
  slot.storage = std::make_unique<std::byte[]>(backing_bytes);  // zeroed
  slot.node.store(node, std::memory_order_relaxed);
  slot.data.store(slot.storage.get(), std::memory_order_release);
  // Publication point: readers that see kLive also see the fields above.
  slot.state.store(SlotState::kLive, std::memory_order_release);
}

template <typename Read>
bool SimMachine::read_current(const Slot& slot, std::uint32_t generation,
                              Read read) {
  if (slot.generation.load(std::memory_order_acquire) != generation) {
    return false;
  }
  read(slot);
  // Pairs with the release fence in acquire_slot(): a read that saw any
  // field of a newer buffer also sees the newer generation below.
  std::atomic_thread_fence(std::memory_order_acquire);
  return slot.generation.load(std::memory_order_relaxed) == generation;
}

bool SimMachine::reserve_capacity(unsigned node, std::uint64_t bytes) {
  const std::uint64_t capacity = topology_.numa_nodes()[node]->capacity_bytes();
  std::uint64_t used = used_[node].load(std::memory_order_relaxed);
  do {
    if (used + bytes > capacity) return false;
  } while (!used_[node].compare_exchange_weak(used, used + bytes,
                                              std::memory_order_relaxed));
  return true;
}

Result<BufferId> SimMachine::allocate(std::uint64_t declared_bytes, unsigned node,
                                      std::string label, std::size_t backing_bytes) {
  if (node >= node_count_) {
    return make_error(Errc::kInvalidArgument,
                      "no NUMA node with logical index " + std::to_string(node));
  }
  if (declared_bytes == 0) {
    return make_error(Errc::kInvalidArgument, "zero-byte allocation");
  }
  if (faults_ != nullptr) {
    if (faults_->should_fail(fault::site::kMachineAllocTransient)) {
      telemetry_[node].transient_faults.fetch_add(1, std::memory_order_relaxed);
      return make_error(Errc::kTransient,
                        "injected transient allocation failure on node " +
                            std::to_string(node));
    }
    if (faults_->should_fail(fault::site::kMachineNodeOffline)) {
      online_[node].store(0, std::memory_order_relaxed);
    }
  }
  if (online_[node].load(std::memory_order_relaxed) == 0) {
    telemetry_[node].offline_rejections.fetch_add(1, std::memory_order_relaxed);
    return make_error(Errc::kOutOfCapacity,
                      "node " + std::to_string(node) + " is offline");
  }
  if (!reserve_capacity(node, declared_bytes)) {
    const std::uint64_t capacity = topology_.numa_nodes()[node]->capacity_bytes();
    const std::uint64_t used = used_[node].load(std::memory_order_relaxed);
    telemetry_[node].capacity_rejections.fetch_add(1, std::memory_order_relaxed);
    return make_error(Errc::kOutOfCapacity,
                      "node " + std::to_string(node) + " has " +
                          support::format_bytes(capacity > used ? capacity - used
                                                                : 0) +
                          " free, need " + support::format_bytes(declared_bytes));
  }

  if (backing_bytes == 0) {
    backing_bytes = static_cast<std::size_t>(
        std::min<std::uint64_t>(declared_bytes, 64 * support::kKiB));
  }

  BufferId id;
  std::unique_lock<std::mutex> lock;
  Slot* slot = acquire_slot(id, lock);
  if (slot == nullptr) {
    used_[node].fetch_sub(declared_bytes, std::memory_order_relaxed);
    return make_error(Errc::kOutOfCapacity, "buffer table exhausted");
  }
  publish(*slot, declared_bytes, node, std::move(label), backing_bytes);
  live_count_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Status SimMachine::free(BufferId id) {
  Slot* slot = find_slot(id);
  if (slot == nullptr) {
    return make_error(Errc::kInvalidArgument, "invalid buffer id");
  }
  {
    std::lock_guard<std::mutex> lock(slot->lifecycle);
    if (slot->generation.load(std::memory_order_relaxed) != id.generation) {
      return make_error(Errc::kInvalidArgument,
                        "stale buffer id (its slot holds a newer buffer)");
    }
    if (slot->state.load(std::memory_order_relaxed) != SlotState::kLive) {
      return make_error(Errc::kInvalidArgument,
                        "double free of buffer " + slot->label);
    }
    slot->state.store(SlotState::kFreed, std::memory_order_release);
    used_[slot->node.load(std::memory_order_relaxed)].fetch_sub(
        slot->declared_bytes.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    slot->data.store(nullptr, std::memory_order_release);
    slot->storage.reset();
    live_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (id.generation < kMaxGeneration) {
    std::lock_guard<std::mutex> guard(free_mutex_);
    free_list_.push_back(id.index);
  }
  return {};
}

Status SimMachine::migrate(BufferId id, unsigned destination_node) {
  Slot* slot = find_slot(id);
  if (slot == nullptr) {
    return make_error(Errc::kInvalidArgument, "invalid buffer id");
  }
  if (destination_node >= node_count_) {
    return make_error(Errc::kInvalidArgument, "no such destination node");
  }
  std::lock_guard<std::mutex> lock(slot->lifecycle);
  if (slot->generation.load(std::memory_order_relaxed) != id.generation ||
      slot->state.load(std::memory_order_relaxed) != SlotState::kLive) {
    return make_error(Errc::kInvalidArgument, "migrate of freed buffer");
  }
  const unsigned source = slot->node.load(std::memory_order_relaxed);
  if (source == destination_node) return {};
  if (faults_ != nullptr &&
      faults_->should_fail(fault::site::kMachineMigrateTransient)) {
    // Attributed to the destination: the write side is what the injected
    // busy-page/migration-slot fault models.
    telemetry_[destination_node].transient_faults.fetch_add(
        1, std::memory_order_relaxed);
    return make_error(Errc::kTransient,
                      "injected transient migration failure for buffer " +
                          slot->label);
  }
  if (faults_ != nullptr &&
      faults_->should_fail(fault::site::kMachineMigrateStall)) {
    // A wedged migration thread: like the transient site but typically
    // configured with a burst so whole epochs of attempts fail — the
    // stalled-progress signature the recover watchdog/breakers detect.
    telemetry_[destination_node].transient_faults.fetch_add(
        1, std::memory_order_relaxed);
    return make_error(Errc::kTransient,
                      "injected migration stall for buffer " + slot->label);
  }
  if (online_[destination_node].load(std::memory_order_relaxed) == 0) {
    telemetry_[destination_node].offline_rejections.fetch_add(
        1, std::memory_order_relaxed);
    return make_error(Errc::kOutOfCapacity,
                      "destination node " + std::to_string(destination_node) +
                          " is offline");
  }
  const std::uint64_t declared =
      slot->declared_bytes.load(std::memory_order_relaxed);
  if (!reserve_capacity(destination_node, declared)) {
    telemetry_[destination_node].capacity_rejections.fetch_add(
        1, std::memory_order_relaxed);
    return make_error(Errc::kOutOfCapacity,
                      "destination node " + std::to_string(destination_node) +
                          " cannot hold " + support::format_bytes(declared));
  }
  used_[source].fetch_sub(declared, std::memory_order_relaxed);
  slot->node.store(destination_node, std::memory_order_relaxed);
  return {};
}

bool SimMachine::copy_info(BufferId id, BufferInfo& out) const {
  Slot* slot = find_slot(id);
  if (slot == nullptr) return false;
  std::lock_guard<std::mutex> lock(slot->lifecycle);
  if (slot->generation.load(std::memory_order_relaxed) != id.generation) {
    return false;
  }
  out.label = slot->label;
  out.node = slot->node.load(std::memory_order_relaxed);
  out.declared_bytes = slot->declared_bytes.load(std::memory_order_relaxed);
  out.backing_bytes = slot->backing_bytes.load(std::memory_order_relaxed);
  out.freed = slot->state.load(std::memory_order_relaxed) != SlotState::kLive;
  return true;
}

BufferInfo SimMachine::info(BufferId id) const {
  BufferInfo snapshot;
  if (!copy_info(id, snapshot)) {
    return BufferInfo{"<invalid-buffer>", 0, 0, 0, true};
  }
  return snapshot;
}

Result<BufferInfo> SimMachine::info_checked(BufferId id) const {
  BufferInfo snapshot;
  if (!copy_info(id, snapshot)) {
    return make_error(Errc::kInvalidArgument, "invalid buffer id");
  }
  return snapshot;
}

BufferResidency SimMachine::residency(BufferId id) const {
  const Slot* slot = find_slot(id);
  if (slot == nullptr) return {};
  BufferResidency residency;
  const bool current = read_current(*slot, id.generation, [&](const Slot& s) {
    residency.freed =
        s.state.load(std::memory_order_acquire) != SlotState::kLive;
    residency.node = s.node.load(std::memory_order_relaxed);
    residency.declared_bytes =
        s.declared_bytes.load(std::memory_order_relaxed);
  });
  return current ? residency : BufferResidency{};
}

const std::byte* SimMachine::backing(BufferId id) const {
  const Slot* slot = find_slot(id);
  if (slot == nullptr) return nullptr;
  const std::byte* data = nullptr;
  const bool current = read_current(*slot, id.generation, [&](const Slot& s) {
    data = s.data.load(std::memory_order_acquire);
  });
  return current ? data : nullptr;
}

std::byte* SimMachine::backing(BufferId id) {
  return const_cast<std::byte*>(std::as_const(*this).backing(id));
}

std::uint64_t SimMachine::capacity_bytes(unsigned node) const {
  if (node >= node_count_) return 0;
  return topology_.numa_nodes()[node]->capacity_bytes();
}

std::uint64_t SimMachine::used_bytes(unsigned node) const {
  if (node >= node_count_) return 0;
  return used_[node].load(std::memory_order_relaxed);
}

std::uint64_t SimMachine::available_bytes(unsigned node) const {
  if (node >= node_count_ || online_[node].load(std::memory_order_relaxed) == 0) {
    return 0;
  }
  const std::uint64_t capacity = capacity_bytes(node);
  const std::uint64_t used = used_bytes(node);
  return capacity > used ? capacity - used : 0;
}

Status SimMachine::set_node_online(unsigned node, bool online) {
  if (node >= node_count_) {
    return make_error(Errc::kInvalidArgument,
                      "no NUMA node with logical index " + std::to_string(node));
  }
  online_[node].store(online ? 1 : 0, std::memory_order_relaxed);
  return {};
}

bool SimMachine::node_online(unsigned node) const {
  return node < node_count_ && online_[node].load(std::memory_order_relaxed) != 0;
}

Status SimMachine::set_node_degraded(unsigned node, bool degraded) {
  if (node >= node_count_) {
    return make_error(Errc::kInvalidArgument,
                      "no NUMA node with logical index " + std::to_string(node));
  }
  const std::uint8_t previous =
      telemetry_[node].degraded.exchange(degraded ? 1 : 0,
                                         std::memory_order_relaxed);
  if (degraded && previous == 0) {
    telemetry_[node].degraded_events.fetch_add(1, std::memory_order_relaxed);
  }
  return {};
}

bool SimMachine::node_degraded(unsigned node) const {
  return node < node_count_ &&
         telemetry_[node].degraded.load(std::memory_order_relaxed) != 0;
}

NodeTelemetry SimMachine::node_telemetry(unsigned node) const {
  NodeTelemetry snapshot;
  if (node >= node_count_) return snapshot;
  const NodeCounters& counters = telemetry_[node];
  snapshot.capacity_rejections =
      counters.capacity_rejections.load(std::memory_order_relaxed);
  snapshot.offline_rejections =
      counters.offline_rejections.load(std::memory_order_relaxed);
  snapshot.transient_faults =
      counters.transient_faults.load(std::memory_order_relaxed);
  snapshot.ecc_errors = counters.ecc_errors.load(std::memory_order_relaxed);
  snapshot.degraded_events =
      counters.degraded_events.load(std::memory_order_relaxed);
  snapshot.thermal_throttle_events =
      counters.thermal_throttle_events.load(std::memory_order_relaxed);
  snapshot.degraded = counters.degraded.load(std::memory_order_relaxed) != 0;
  snapshot.online = online_[node].load(std::memory_order_relaxed) != 0;
  return snapshot;
}

void SimMachine::restore_node_telemetry(unsigned node,
                                        const NodeTelemetry& telemetry) {
  if (node >= node_count_) return;
  NodeCounters& counters = telemetry_[node];
  counters.capacity_rejections.store(telemetry.capacity_rejections,
                                     std::memory_order_relaxed);
  counters.offline_rejections.store(telemetry.offline_rejections,
                                    std::memory_order_relaxed);
  counters.transient_faults.store(telemetry.transient_faults,
                                  std::memory_order_relaxed);
  counters.ecc_errors.store(telemetry.ecc_errors, std::memory_order_relaxed);
  counters.degraded_events.store(telemetry.degraded_events,
                                 std::memory_order_relaxed);
  counters.thermal_throttle_events.store(telemetry.thermal_throttle_events,
                                         std::memory_order_relaxed);
  counters.degraded.store(telemetry.degraded ? 1 : 0,
                          std::memory_order_relaxed);
  online_[node].store(telemetry.online ? 1 : 0, std::memory_order_relaxed);
}

SimMachine::NodePowerState SimMachine::node_power_state(unsigned node) const {
  if (node >= node_count_) return {};
  std::lock_guard<std::mutex> lock(power_mutex_);
  return NodePowerState{node_power_[node].dynamic_watts_ema,
                        node_power_[node].seeded};
}

void SimMachine::restore_node_power_state(unsigned node,
                                          const NodePowerState& state) {
  if (node >= node_count_) return;
  std::lock_guard<std::mutex> lock(power_mutex_);
  node_power_[node].dynamic_watts_ema = state.dynamic_watts_ema;
  node_power_[node].seeded = state.seeded;
}

void SimMachine::sample_node_faults(unsigned node) {
  if (node >= node_count_ || faults_ == nullptr) return;
  if (faults_->should_fail(fault::site::kMachineEccBurst)) {
    telemetry_[node].ecc_errors.fetch_add(1, std::memory_order_relaxed);
  }
  if (faults_->should_fail(fault::site::kMachineNodeDegraded)) {
    (void)set_node_degraded(node, true);
  }
  if (faults_->should_fail(fault::site::kMachineNodeOffline)) {
    online_[node].store(0, std::memory_order_relaxed);
  }
  if (faults_->should_fail(fault::site::kMachinePowerThrottle)) {
    report_thermal_throttle(node);
  }
}

void SimMachine::record_node_traffic(unsigned node, std::uint64_t read_bytes,
                                     std::uint64_t write_bytes,
                                     double interval_ns) {
  if (node >= node_count_ || interval_ns <= 0.0) return;
  const NodePowerModel& power = model_.node_power(node);
  const double dynamic_nj = static_cast<double>(read_bytes) * power.read_nj_per_byte +
                            static_cast<double>(write_bytes) * power.write_nj_per_byte;
  const double instant_watts = dynamic_nj / interval_ns;  // nJ/ns == W
  std::lock_guard<std::mutex> lock(power_mutex_);
  NodePower& state = node_power_[node];
  if (!state.seeded) {
    state.dynamic_watts_ema = instant_watts;
    state.seeded = true;
  } else {
    state.dynamic_watts_ema = 0.5 * state.dynamic_watts_ema + 0.5 * instant_watts;
  }
}

void SimMachine::record_node_traffic_batch(const std::uint64_t* read_bytes,
                                           const std::uint64_t* write_bytes,
                                           std::size_t count,
                                           double interval_ns) {
  if (interval_ns <= 0.0) return;
  if (count > node_count_) count = node_count_;
  std::lock_guard<std::mutex> lock(power_mutex_);
  for (std::size_t node = 0; node < count; ++node) {
    const NodePowerModel& power = model_.node_power(static_cast<unsigned>(node));
    const double dynamic_nj =
        static_cast<double>(read_bytes[node]) * power.read_nj_per_byte +
        static_cast<double>(write_bytes[node]) * power.write_nj_per_byte;
    const double instant_watts = dynamic_nj / interval_ns;  // nJ/ns == W
    NodePower& state = node_power_[node];
    if (!state.seeded) {
      state.dynamic_watts_ema = instant_watts;
      state.seeded = true;
    } else {
      state.dynamic_watts_ema =
          0.5 * state.dynamic_watts_ema + 0.5 * instant_watts;
    }
  }
}

double SimMachine::power_draw_watts(unsigned node) const {
  if (node >= node_count_) return 0.0;
  const NodePowerModel& power = model_.node_power(node);
  const double capacity_gib =
      static_cast<double>(capacity_bytes(node)) / static_cast<double>(support::kGiB);
  double dynamic_watts = 0.0;
  {
    std::lock_guard<std::mutex> lock(power_mutex_);
    dynamic_watts = node_power_[node].dynamic_watts_ema;
  }
  return power.static_w_per_gib * capacity_gib + dynamic_watts;
}

void SimMachine::report_thermal_throttle(unsigned node) {
  if (node >= node_count_) return;
  telemetry_[node].thermal_throttle_events.fetch_add(1, std::memory_order_relaxed);
}

std::vector<BufferId> SimMachine::live_buffers_on(unsigned node) const {
  std::vector<BufferId> live;
  live_buffers_on(node, live);
  return live;
}

void SimMachine::live_buffers_on(unsigned node,
                                 std::vector<BufferId>& out) const {
  out.clear();
  collect_live(&node, out);
}

std::vector<BufferId> SimMachine::live_buffers() const {
  std::vector<BufferId> live;
  collect_live(nullptr, live);
  return live;
}

void SimMachine::collect_live(const unsigned* node,
                              std::vector<BufferId>& out) const {
  const std::uint32_t total = next_slot_.load(std::memory_order_acquire);
  for (std::uint32_t index = 0; index < total; ++index) {
    const Slot* slot = find_slot(BufferId{index});
    if (slot == nullptr) continue;
    const std::uint32_t generation =
        slot->generation.load(std::memory_order_acquire);
    bool wanted = false;
    const bool current = read_current(*slot, generation, [&](const Slot& s) {
      wanted = s.state.load(std::memory_order_acquire) == SlotState::kLive &&
               (node == nullptr ||
                s.node.load(std::memory_order_relaxed) == *node);
    });
    if (current && wanted) out.push_back(BufferId{index, generation});
  }
}

std::vector<BufferId> SimMachine::free_slots() const {
  std::vector<std::uint32_t> indices;
  {
    std::lock_guard<std::mutex> guard(free_mutex_);
    indices.assign(free_list_.rbegin(), free_list_.rend());
  }
  std::vector<BufferId> slots;
  slots.reserve(indices.size());
  for (std::uint32_t index : indices) {
    const Slot* slot = find_slot(BufferId{index});
    slots.push_back(BufferId{
        index, slot->generation.load(std::memory_order_acquire)});
  }
  return slots;
}

Status SimMachine::restore_buffer_table(
    std::uint32_t slot_count, const std::vector<RestoredBuffer>& live,
    const std::vector<BufferId>& free_slots) {
  if (live_count_.load(std::memory_order_relaxed) != 0) {
    return make_error(Errc::kInvalidArgument,
                      "buffer table restore needs a machine with no live "
                      "buffer");
  }
  if (slot_count < next_slot_.load(std::memory_order_acquire) ||
      slot_count > kMaxChunks * kSlotsPerChunk) {
    return make_error(Errc::kInvalidArgument,
                      "restored buffer table has " +
                          std::to_string(slot_count) + " slot(s), machine has " +
                          std::to_string(total_buffer_count()));
  }
  // Each slot named at most once, below the watermark, with a generation
  // that a live buffer or a reusable free slot can hold.
  std::vector<std::uint32_t> named;
  named.reserve(live.size() + free_slots.size());
  for (const RestoredBuffer& buffer : live) {
    if (buffer.id.index >= slot_count ||
        buffer.id.generation > kMaxGeneration || buffer.node >= node_count_ ||
        buffer.declared_bytes == 0) {
      return make_error(Errc::kInvalidArgument,
                        "bad restored buffer '" + buffer.label + "'");
    }
    named.push_back(buffer.id.index);
  }
  for (BufferId id : free_slots) {
    if (id.index >= slot_count || id.generation >= kMaxGeneration) {
      return make_error(Errc::kInvalidArgument,
                        "bad restored free slot " + std::to_string(id.index));
    }
    named.push_back(id.index);
  }
  std::sort(named.begin(), named.end());
  if (std::adjacent_find(named.begin(), named.end()) != named.end()) {
    return make_error(Errc::kInvalidArgument,
                      "restored buffer table names a slot twice");
  }

  // A slot no record names stays retired: freed (or never published) and
  // off the free list.
  next_slot_.store(slot_count, std::memory_order_release);
  {
    std::lock_guard<std::mutex> guard(free_mutex_);
    free_list_.clear();
  }
  for (const RestoredBuffer& buffer : live) {
    if (!reserve_capacity(buffer.node, buffer.declared_bytes)) {
      return make_error(Errc::kOutOfCapacity,
                        "node " + std::to_string(buffer.node) +
                            " cannot hold restored buffer '" + buffer.label +
                            "'");
    }
    Slot* slot = slot_at(buffer.id.index);
    std::lock_guard<std::mutex> lock(slot->lifecycle);
    slot->generation.store(buffer.id.generation, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
    publish(*slot, buffer.declared_bytes, buffer.node, buffer.label,
            buffer.backing_bytes);
    live_count_.fetch_add(1, std::memory_order_relaxed);
  }
  // free_slots() lists the next reuse first; the free list reuses back().
  std::lock_guard<std::mutex> guard(free_mutex_);
  for (auto it = free_slots.rbegin(); it != free_slots.rend(); ++it) {
    Slot* slot = slot_at(it->index);
    {
      std::lock_guard<std::mutex> lock(slot->lifecycle);
      slot->generation.store(it->generation, std::memory_order_release);
      slot->state.store(SlotState::kFreed, std::memory_order_release);
    }
    free_list_.push_back(it->index);
  }
  return {};
}

}  // namespace hetmem::sim
