#include "spatial/epoch.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace popan::spatial {

EpochManager::EpochManager(size_t max_readers) : slots_(max_readers) {
  POPAN_CHECK(max_readers >= 1)
      << "an epoch manager needs at least one reader slot";
}

EpochManager::~EpochManager() { ReclaimAll(); }

void EpochManager::Pin::Release() {
  if (manager_ == nullptr) return;
  manager_->ReleaseSlot(slot_);
  manager_ = nullptr;
}

StatusOr<EpochManager::Pin> EpochManager::TryPinReader() {
  // Claim a free slot. Readers race on `claimed` only; a claimed slot is
  // touched by exactly one reader until it is released.
  size_t slot = slots_.size();
  for (size_t i = 0; i < slots_.size(); ++i) {
    bool expected = false;
    if (slots_[i].claimed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      slot = i;
      break;
    }
  }
  if (slot >= slots_.size()) {
    return Status::ResourceExhausted(
        "all " + std::to_string(slots_.size()) +
        " epoch reader slots are pinned");
  }
  // Publish the pin, then confirm the global epoch did not move past it;
  // on a move, republish the newer value. After this loop the pinned
  // value equals the global epoch as observed after the pin became
  // visible, which is what the reclamation bound relies on.
  uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slots_[slot].epoch.store(epoch, std::memory_order_seq_cst);
    uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
    if (now == epoch) break;
    epoch = now;
  }
  return Pin(this, slot, epoch);
}

EpochManager::Pin EpochManager::PinReader() {
  StatusOr<Pin> pin = TryPinReader();
  POPAN_CHECK(pin.ok()) << pin.status().ToString();
  return std::move(pin).value();
}

void EpochManager::ReleaseSlot(size_t slot) {
  slots_[slot].epoch.store(kIdle, std::memory_order_seq_cst);
  slots_[slot].claimed.store(false, std::memory_order_release);
}

void EpochManager::Retire(void* ptr, void (*deleter)(void*, void*),
                          void* context) {
  popan::AssumeRole writer(writer_role_);
  limbo_.push_back(LimboEntry{current_epoch(), ptr, context, deleter});
  objects_retired_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t EpochManager::AdvanceEpoch() {
  uint64_t next = global_epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  epochs_advanced_.fetch_add(1, std::memory_order_relaxed);
  return next;
}

uint64_t EpochManager::MinPinnedEpoch(uint64_t fallback) const {
  uint64_t min = fallback;
  for (const ReaderSlot& slot : slots_) {
    uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
    if (e != kIdle && e < min) min = e;
  }
  return min;
}

size_t EpochManager::Reclaim() {
  popan::AssumeRole writer(writer_role_);
  uint64_t bound = MinPinnedEpoch(current_epoch());
  size_t freed = 0;
  while (!limbo_.empty() && limbo_.front().epoch < bound) {
    LimboEntry entry = limbo_.front();
    limbo_.pop_front();
    entry.deleter(entry.ptr, entry.context);
    ++freed;
  }
  if (freed != 0) {
    objects_reclaimed_.fetch_add(freed, std::memory_order_relaxed);
  }
  return freed;
}

size_t EpochManager::ReclaimAll() {
  popan::AssumeRole writer(writer_role_);
  size_t freed = 0;
  while (!limbo_.empty()) {
    LimboEntry entry = limbo_.front();
    limbo_.pop_front();
    entry.deleter(entry.ptr, entry.context);
    ++freed;
  }
  if (freed != 0) {
    objects_reclaimed_.fetch_add(freed, std::memory_order_relaxed);
  }
  return freed;
}

}  // namespace popan::spatial
