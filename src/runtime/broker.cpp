#include "hetmem/runtime/broker.hpp"

namespace hetmem::runtime {

support::Result<double> MigrationBroker::Reservation::move(
    sim::BufferId buffer, unsigned to_node) {
  if (broker_ == nullptr) {
    return support::make_error(support::Errc::kInvalidArgument,
                               "migration without a live reservation");
  }
  alloc::HeterogeneousAllocator& allocator = *broker_->allocator_;
  const std::uint64_t bytes =
      allocator.machine().residency(buffer).declared_bytes;
  if (bytes > reserved_ - moved_) {
    return support::make_error(support::Errc::kInvalidArgument,
                               "migration exceeds its reservation");
  }
  support::Result<double> result = allocator.migrate(buffer, to_node);
  if (result.ok()) moved_ += bytes;
  return result;
}

void MigrationBroker::Reservation::settle() {
  if (broker_ == nullptr) return;
  broker_->refund(*this, reserved_ - moved_);
  broker_ = nullptr;
}

MigrationBroker::MigrationBroker(alloc::HeterogeneousAllocator& allocator,
                                 std::uint64_t epoch_budget_bytes)
    : allocator_(&allocator), budget_(epoch_budget_bytes) {}

void MigrationBroker::open(std::uint64_t epoch_index) {
  if (epoch_ == epoch_index) return;
  epoch_ = epoch_index;
  left_ = budget_;
  if (arbiter_ != nullptr) arbiter_->begin_epoch(epoch_index, budget_);
}

std::uint64_t MigrationBroker::remaining(std::uint64_t epoch_index) {
  open(epoch_index);
  return left_;
}

MigrationBroker::Reservation MigrationBroker::reserve(
    std::uint64_t epoch_index, sim::BufferId payer, std::uint64_t bytes) {
  open(epoch_index);
  if (bytes > left_) {
    return Reservation(nullptr, Refusal::kBudget, epoch_index,
                       tenant::kNoTenant, 0);
  }
  tenant::TenantId id = tenant::kNoTenant;
  if (arbiter_ != nullptr) {
    const tenant::TenantHandle owner = allocator_->tenant_of(payer);
    if (owner != nullptr) id = owner->id();
    if (!arbiter_->try_draw(epoch_index, id, bytes)) {
      return Reservation(nullptr, Refusal::kTenantShare, epoch_index, id, 0);
    }
  }
  // An unlimited pool never depletes: UINT64_MAX is the "unlimited"
  // sentinel, not a real pool size.
  if (left_ != UINT64_MAX) left_ -= bytes;
  return Reservation(this, Refusal::kNone, epoch_index, id, bytes);
}

void MigrationBroker::refund(const Reservation& reservation,
                             std::uint64_t bytes) {
  if (bytes == 0) return;
  if (reservation.epoch_ == epoch_ && left_ != UINT64_MAX) left_ += bytes;
  if (arbiter_ != nullptr) {
    arbiter_->refund(reservation.epoch_, reservation.payer_, bytes);
  }
}

}  // namespace hetmem::runtime
