#ifndef POPAN_SPATIAL_EPOCH_H_
#define POPAN_SPATIAL_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "util/mutex.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace popan::spatial {

/// Epoch-based memory reclamation for single-writer / multi-reader
/// structures (the concurrency substrate under snapshot_view.h).
///
/// The protocol, and why it is safe:
///
///  - A global epoch counter only ever increases, and only the writer
///    advances it (AdvanceEpoch).
///  - A reader entering a read-side critical section *pins* the current
///    epoch into a per-reader slot (Pin): it stores the epoch it read,
///    then re-reads the global counter and retries until the two agree,
///    so a published pin is never older than the global epoch was at any
///    point during the pinning loop.
///  - The writer retires an object (Retire) the moment it unlinks it from
///    the newest published version, tagging it with the current epoch.
///    Retired objects wait in a limbo list ordered by tag.
///  - Reclaim frees exactly the limbo prefix whose tags are strictly
///    below the minimum pinned epoch (or below the current epoch when no
///    reader is pinned).
///
/// All epoch/slot/publication accesses use sequentially consistent
/// atomics, which gives the invariant the proof rests on: a reader whose
/// pin settled at epoch e observes, on its subsequent (seq_cst) load of
/// the structure's head pointer, a version at least as new as the one
/// current when the pin settled. Every object reachable from that version
/// is either still live or was retired *after* the pin settled — and any
/// retire after the pin carries a tag >= e (the counter is monotone), so
/// the free condition `tag < min(pinned)` can never free it. Release
/// semantics on the head-pointer publication (included in seq_cst) make
/// the contents of new nodes visible before the pointer to them.
///
/// Threading contract:
///  - Retire / AdvanceEpoch / Reclaim / ReclaimAll: the single writer
///    thread only (the limbo list is deliberately unsynchronized). The
///    limbo list is GUARDED_BY(writer_role_), a ThreadRole capability:
///    under clang -Wthread-safety any method that touches it without
///    opening an AssumeRole scope fails the build.
///  - Pin / unpin (Pin destructor): any thread, any number up to
///    kMaxReaders concurrent pins.
///  - Counters (current_epoch, epochs_advanced, ...): any thread.
class EpochManager {
 public:
  /// Default concurrent pinned readers supported. Slots are cache-line
  /// padded and allocated once at construction, so pinning never
  /// allocates or locks; 64 comfortably covers the bench's 16-reader
  /// scaling ceiling. Callers with a known client budget (the shard
  /// router's per-shard managers) size the manager explicitly instead.
  static constexpr size_t kMaxReaders = 64;

  /// Slot value meaning "not pinned".
  static constexpr uint64_t kIdle = ~uint64_t{0};

  /// `max_readers` is the number of reader slots (must be >= 1); the
  /// exhaustion contract (ResourceExhausted once every slot is pinned)
  /// is the same at any size.
  explicit EpochManager(size_t max_readers = kMaxReaders);
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII read-side critical section: pins the current epoch on
  /// construction (via EpochManager::Pin()) and releases the slot on
  /// destruction. Movable so views can carry it; an empty (moved-from or
  /// default-constructed) guard releases nothing.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept
        : manager_(other.manager_), slot_(other.slot_), epoch_(other.epoch_) {
      other.manager_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Release();
        manager_ = other.manager_;
        slot_ = other.slot_;
        epoch_ = other.epoch_;
        other.manager_ = nullptr;
      }
      return *this;
    }
    ~Pin() { Release(); }

    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    bool active() const { return manager_ != nullptr; }

    /// The epoch this pin protects (everything retired at or after it).
    uint64_t epoch() const { return epoch_; }

    void Release();

   private:
    friend class EpochManager;
    Pin(EpochManager* manager, size_t slot, uint64_t epoch)
        : manager_(manager), slot_(slot), epoch_(epoch) {}

    EpochManager* manager_ = nullptr;
    size_t slot_ = 0;
    uint64_t epoch_ = 0;
  };

  /// Enters a read-side critical section: claims a free reader slot and
  /// pins the current epoch into it. Returns ResourceExhausted when all
  /// max_readers() slots are simultaneously live — a runtime condition a
  /// server with many connections must handle by shedding the request,
  /// not by crashing.
  [[nodiscard]] StatusOr<Pin> TryPinReader();

  /// CHECK-ing form of TryPinReader for callers with a bounded reader
  /// count (benches, storm harnesses): aborts on slot exhaustion, which
  /// for them is a structural bug, not load.
  [[nodiscard]] Pin PinReader();

  /// Writer: places `ptr` in limbo, tagged with the current epoch, to be
  /// released by a later Reclaim, once no pinned reader can reach it, as
  /// deleter(ptr, context). The context names where the object goes back
  /// to (the snapshot tree passes its node pool).
  void Retire(void* ptr, void (*deleter)(void* ptr, void* context),
              void* context = nullptr);

  /// Typed convenience form of Retire: `delete ptr` when reclaimed.
  template <typename T>
  void RetireObject(const T* ptr) {
    Retire(const_cast<T*>(ptr),
           [](void* p, void*) { delete static_cast<T*>(p); });
  }

  /// Writer: advances the global epoch; returns the new value.
  uint64_t AdvanceEpoch();

  /// Writer: frees every limbo entry whose tag is strictly below the
  /// minimum pinned epoch (the current epoch when nothing is pinned).
  /// Returns the number of objects freed.
  size_t Reclaim();

  /// Writer: frees the entire limbo list unconditionally. Only legal when
  /// no reader can still be inside a read-side critical section (shutdown
  /// / destructor path).
  size_t ReclaimAll();

  /// The number of reader slots this manager was constructed with.
  size_t max_readers() const { return slots_.size(); }

  /// The current global epoch (starts at 1).
  uint64_t current_epoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }

  /// Total AdvanceEpoch calls — the "epochs retired" figure the
  /// concurrency bench gates on.
  uint64_t epochs_advanced() const {
    return epochs_advanced_.load(std::memory_order_relaxed);
  }

  /// Objects handed to Retire so far.
  uint64_t objects_retired() const {
    return objects_retired_.load(std::memory_order_relaxed);
  }

  /// Objects actually freed by Reclaim/ReclaimAll so far.
  uint64_t objects_reclaimed() const {
    return objects_reclaimed_.load(std::memory_order_relaxed);
  }

  /// Retired-but-not-yet-freed objects. Writer thread only (reads the
  /// unsynchronized limbo list).
  size_t limbo_size() const {
    popan::AssumeRole writer(writer_role_);
    return limbo_.size();
  }

  /// The smallest epoch any active reader has pinned, or `fallback` when
  /// no reader is pinned. Any-thread safe; the writer's reclamation bound.
  uint64_t MinPinnedEpoch(uint64_t fallback) const;

 private:
  friend class Pin;

  struct alignas(64) ReaderSlot {
    std::atomic<uint64_t> epoch{kIdle};
    std::atomic<bool> claimed{false};
  };

  struct LimboEntry {
    uint64_t epoch;  // tag: global epoch at retire time
    void* ptr;
    void* context;
    void (*deleter)(void*, void*);
  };

  void ReleaseSlot(size_t slot);

  std::atomic<uint64_t> global_epoch_{1};
  // Sized once at construction and never resized: slot addresses must be
  // stable while pins are outstanding.
  std::vector<ReaderSlot> slots_;
  /// The single-writer affinity contract, as a checkable capability: every
  /// access to limbo_ must sit inside a popan::AssumeRole scope naming
  /// this role. See the threading contract above.
  popan::ThreadRole writer_role_;
  // Tags are nondecreasing (the epoch is monotone), so the reclaimable
  // entries are always a prefix.
  std::deque<LimboEntry> limbo_ GUARDED_BY(writer_role_);
  std::atomic<uint64_t> epochs_advanced_{0};
  std::atomic<uint64_t> objects_retired_{0};
  std::atomic<uint64_t> objects_reclaimed_{0};
};

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_EPOCH_H_
