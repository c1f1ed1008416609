#ifndef POPAN_SPATIAL_NODE_POOL_H_
#define POPAN_SPATIAL_NODE_POOL_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "spatial/node_arena.h"
#include "util/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define POPAN_NODE_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define POPAN_NODE_POOL_ASAN 1
#endif
#endif
#ifdef POPAN_NODE_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace popan::spatial {

/// Heap blocks for the PR-tree leaves that outgrow the lanes of their slot
/// (see PrNode), with a running count of the blocks and bytes held so a
/// tree reports its footprint in O(1).
class SpillBlocks {
 public:
  /// A block of `doubles` uninitialized elements.
  double* Allocate(size_t doubles) {
    ++count_;
    bytes_ += doubles * sizeof(double);
    return new double[doubles];
  }

  /// Returns a block Allocate(`doubles`) made.
  void Free(double* block, size_t doubles) {
    POPAN_DCHECK(count_ > 0 && bytes_ >= doubles * sizeof(double));
    --count_;
    bytes_ -= doubles * sizeof(double);
    delete[] block;
  }

  /// Blocks currently allocated.
  size_t count() const { return count_; }

  /// Bytes those blocks hold.
  size_t bytes() const { return bytes_; }

 private:
  size_t count_ = 0;
  size_t bytes_ = 0;
};

/// Fixed-size node slots for one PR tree, carved from chunks of
/// kChunkSlots slots that never move, and recycled last-in first-out. The
/// slot size is set at run time (PrNode::SlotBytes of the tree's
/// capacity). Reserve allocates all the chunks it adds as one block, so a
/// bulk load makes one allocation, not one per chunk. `Handle` is how the
/// owner names a slot:
///   - NodeIndex (PrTree): 32-bit handles, resolved through the chunk
///     table;
///   - void* (CowPrTree): the slot's address, because snapshot readers
///     follow raw child pointers and retired slots come back by address.
/// A free slot's first bytes hold the handle of the next free slot, so the
/// free list takes no memory of its own. The pool also owns the leaves'
/// spill blocks (spills()), so everything a tree's nodes hold is counted
/// in one place.
///
/// Single-threaded: the owning tree's writer is the only caller. Slots
/// are raw storage; the owner constructs nodes in them and releases what
/// the nodes own (spill blocks) before freeing. Under AddressSanitizer a
/// free slot is poisoned past its link, so a reader that follows a stale
/// pointer into a recycled-but-unreused slot is reported.
template <typename Handle>
class NodePool {
  static constexpr bool kIndexed = std::is_same_v<Handle, NodeIndex>;
  static_assert(kIndexed || std::is_same_v<Handle, void*>,
                "a node pool hands out NodeIndex or void* handles");

 public:
  static constexpr size_t kChunkSlots = 256;

  explicit NodePool(size_t slot_bytes) : slot_bytes_(slot_bytes) {
    POPAN_CHECK(slot_bytes >= sizeof(Handle) && slot_bytes % 8 == 0)
        << "bad slot size " << slot_bytes;
  }

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;
  NodePool(NodePool&&) noexcept = default;
  NodePool& operator=(NodePool&&) noexcept = default;

  /// A free slot: the most recently freed one, else a fresh one.
  Handle Allocate() {
    ++live_;
    if (free_ != Null()) {
      const Handle h = free_;
      std::memcpy(&free_, At(h), sizeof(Handle));
      Unpoison(At(h), slot_bytes_);
      return h;
    }
    POPAN_CHECK(carved_ < kNullNode) << "node pool exhausted";
    if (carved_ == chunks_.size() * kChunkSlots) {
      AddChunks(1);
      ++growth_count_;
    }
    const size_t i = carved_++;
    Unpoison(SlotAt(i), slot_bytes_);  // Clear may have left it poisoned
    if constexpr (kIndexed) {
      return static_cast<NodeIndex>(i);
    } else {
      return SlotAt(i);
    }
  }

  /// Returns slot `h` to the free list; the next Allocate hands it out.
  void Free(Handle h) {
    POPAN_DCHECK(live_ > 0);
    --live_;
    std::memcpy(At(h), &free_, sizeof(Handle));
    Poison(static_cast<std::byte*>(At(h)) + sizeof(Handle),
           slot_bytes_ - sizeof(Handle));
    free_ = h;
  }

  /// The slot's storage (slot_bytes() bytes, 8-byte aligned).
  void* At(Handle h) const {
    if constexpr (kIndexed) {
      POPAN_DCHECK(h < carved_) << "index " << h;
      return SlotAt(h);
    } else {
      return h;
    }
  }

  /// Allocates chunks up front so the pool holds at least `slots` slots
  /// (live, free or not yet carved): a bulk load sized this way never
  /// allocates a chunk mid-run. A hint; the pool still grows on demand.
  void Reserve(size_t slots) {
    const size_t chunks = (slots + kChunkSlots - 1) / kChunkSlots;
    if (chunks > chunks_.size()) AddChunks(chunks - chunks_.size());
  }

  /// Drops every slot, keeping the chunks for reuse. The owner must have
  /// released what its nodes own.
  void Clear() {
    carved_ = 0;
    live_ = 0;
    free_ = Null();
  }

  size_t slot_bytes() const { return slot_bytes_; }

  /// Slots handed out and not freed.
  size_t LiveCount() const { return live_; }

  /// Slots ever carved: live plus free-listed.
  size_t SlotCount() const { return carved_; }

  /// Chunks held (each kChunkSlots slots, never moved or freed before
  /// the pool).
  size_t ChunkCount() const { return chunks_.size(); }

  /// Chunks Allocate had to add on demand (Reserve's do not count): flat
  /// across a well-reserved bulk load.
  size_t GrowthCount() const { return growth_count_; }

  SpillBlocks& spills() { return spills_; }
  const SpillBlocks& spills() const { return spills_; }

 private:
  static constexpr Handle Null() {
    if constexpr (kIndexed) {
      return kNullNode;
    } else {
      return nullptr;
    }
  }

  /// Marks free-slot bytes unreadable to AddressSanitizer, and readable
  /// again on reuse (no-ops in other builds).
  static void Poison([[maybe_unused]] void* bytes,
                     [[maybe_unused]] size_t size) {
#ifdef POPAN_NODE_POOL_ASAN
    __asan_poison_memory_region(bytes, size);
#endif
  }
  static void Unpoison([[maybe_unused]] void* bytes,
                       [[maybe_unused]] size_t size) {
#ifdef POPAN_NODE_POOL_ASAN
    __asan_unpoison_memory_region(bytes, size);
#endif
  }

  void* SlotAt(size_t i) const {
    return chunks_[i / kChunkSlots] + (i % kChunkSlots) * slot_bytes_;
  }

  /// Adds `count` chunks carved from one new block.
  void AddChunks(size_t count) {
    const size_t chunk_bytes = kChunkSlots * slot_bytes_;
    std::byte* block =
        blocks_.emplace_back(new std::byte[count * chunk_bytes]).get();
    for (size_t k = 0; k < count; ++k) {
      chunks_.push_back(block + k * chunk_bytes);
    }
  }

  size_t slot_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> blocks_;  // owns the chunks
  std::vector<std::byte*> chunks_;
  size_t carved_ = 0;
  size_t live_ = 0;
  size_t growth_count_ = 0;
  Handle free_ = Null();
  SpillBlocks spills_;
};

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_NODE_POOL_H_
