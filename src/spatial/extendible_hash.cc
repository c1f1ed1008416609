#include "spatial/extendible_hash.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace popan::spatial {

ExtendibleHash::ExtendibleHash(const ExtendibleHashOptions& options)
    : options_(options) {
  POPAN_CHECK(options_.bucket_capacity >= 1);
  POPAN_CHECK(options_.max_global_depth <= 60);
  directory_.push_back(0);
  buckets_.push_back(Bucket{});
  census_.AddLeaf(0, 0);
}

uint64_t ExtendibleHash::PseudoKey(uint64_t key) const {
  if (options_.identity_hash) return key;
  // SplitMix64 finalizer: a strong 64-bit mixer, so the top bits that
  // address the directory are uniform even for sequential keys.
  uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t ExtendibleHash::DirIndex(uint64_t pseudo) const {
  if (global_depth_ == 0) return 0;
  return static_cast<size_t>(pseudo >> (64 - global_depth_));
}

Status ExtendibleHash::Insert(uint64_t key) {
  uint64_t pseudo = PseudoKey(key);
  {
    const Bucket& b = buckets_[directory_[DirIndex(pseudo)]];
    if (std::find(b.keys.begin(), b.keys.end(), key) != b.keys.end()) {
      return Status::AlreadyExists("duplicate key");
    }
  }
  for (;;) {
    size_t idx = DirIndex(pseudo);
    Bucket& b = buckets_[directory_[idx]];
    if (b.keys.size() < options_.bucket_capacity) {
      census_.RemoveLeaf(b.keys.size(), b.local_depth);
      b.keys.push_back(key);
      census_.AddLeaf(b.keys.size(), b.local_depth);
      ++size_;
      return Status::OK();
    }
    if (!SplitBucket(idx)) {
      return Status::ResourceExhausted(
          "bucket split would exceed max_global_depth");
    }
  }
}

bool ExtendibleHash::SplitBucket(size_t dir_idx) {
  uint32_t bi = directory_[dir_idx];
  if (buckets_[bi].local_depth == global_depth_) {
    if (global_depth_ >= options_.max_global_depth) return false;
    DoubleDirectory();
  }
  const size_t new_local = buckets_[bi].local_depth + 1;
  POPAN_DCHECK(new_local <= global_depth_);
  census_.RemoveLeaf(buckets_[bi].keys.size(), new_local - 1);

  // New bucket takes the '1' half of the split prefix; the old keeps '0'.
  uint32_t nbi = static_cast<uint32_t>(buckets_.size());
  buckets_.push_back(Bucket{new_local, {}});
  buckets_[bi].local_depth = new_local;

  // Redirect the directory slots of the '1' half. A slot j (global_depth_
  // top bits) belongs to the '1' half iff its bit at top position
  // new_local-1 is set.
  const uint64_t half_bit = uint64_t{1} << (global_depth_ - new_local);
  for (size_t j = 0; j < directory_.size(); ++j) {
    if (directory_[j] == bi && (j & half_bit)) directory_[j] = nbi;
  }

  // Redistribute keys by the discriminating pseudokey bit.
  std::vector<uint64_t> keys = std::move(buckets_[bi].keys);
  buckets_[bi].keys.clear();
  for (uint64_t key : keys) {
    uint64_t pseudo = PseudoKey(key);
    if ((pseudo >> (64 - new_local)) & 1) {
      buckets_[nbi].keys.push_back(key);
    } else {
      buckets_[bi].keys.push_back(key);
    }
  }
  census_.AddLeaf(buckets_[bi].keys.size(), new_local);
  census_.AddLeaf(buckets_[nbi].keys.size(), new_local);
  return true;
}

void ExtendibleHash::DoubleDirectory() {
  // Indexing is by the TOP global_depth bits, so extending the prefix by
  // one bit maps old slot i to new slots 2i and 2i+1.
  std::vector<uint32_t> doubled(directory_.size() * 2);
  for (size_t i = 0; i < directory_.size(); ++i) {
    doubled[2 * i] = directory_[i];
    doubled[2 * i + 1] = directory_[i];
  }
  directory_ = std::move(doubled);
  ++global_depth_;
}

bool ExtendibleHash::Contains(uint64_t key) const {
  const Bucket& b = buckets_[directory_[DirIndex(PseudoKey(key))]];
  return std::find(b.keys.begin(), b.keys.end(), key) != b.keys.end();
}

Status ExtendibleHash::Erase(uint64_t key) {
  uint64_t pseudo = PseudoKey(key);
  Bucket& b = buckets_[directory_[DirIndex(pseudo)]];
  auto it = std::find(b.keys.begin(), b.keys.end(), key);
  if (it == b.keys.end()) return Status::NotFound("key not stored");
  census_.RemoveLeaf(b.keys.size(), b.local_depth);
  *it = b.keys.back();
  b.keys.pop_back();
  census_.AddLeaf(b.keys.size(), b.local_depth);
  --size_;
  TryMerge(pseudo);
  TryShrinkDirectory();
  return Status::OK();
}

void ExtendibleHash::TryMerge(uint64_t pseudo) {
  for (;;) {
    size_t idx = DirIndex(pseudo);
    uint32_t bi = directory_[idx];
    Bucket& b = buckets_[bi];
    if (b.local_depth == 0) return;
    // The buddy covers the same prefix with the last bit flipped.
    size_t buddy_idx = idx ^ (size_t{1} << (global_depth_ - b.local_depth));
    uint32_t buddy_bi = directory_[buddy_idx];
    if (buddy_bi == bi) return;  // should not happen; defensive
    Bucket& buddy = buckets_[buddy_bi];
    if (buddy.local_depth != b.local_depth) return;
    if (b.keys.size() + buddy.keys.size() > options_.bucket_capacity) return;

    // Merge buddy into b and drop buddy.
    census_.RemoveLeaf(b.keys.size(), b.local_depth);
    census_.RemoveLeaf(buddy.keys.size(), buddy.local_depth);
    b.keys.insert(b.keys.end(), buddy.keys.begin(), buddy.keys.end());
    --b.local_depth;
    census_.AddLeaf(b.keys.size(), b.local_depth);
    for (uint32_t& slot : directory_) {
      if (slot == buddy_bi) slot = bi;
    }
    // Swap-pop the dead bucket, fixing pointers to the moved one.
    uint32_t last = static_cast<uint32_t>(buckets_.size() - 1);
    if (buddy_bi != last) {
      buckets_[buddy_bi] = std::move(buckets_[last]);
      for (uint32_t& slot : directory_) {
        if (slot == last) slot = buddy_bi;
      }
    }
    buckets_.pop_back();
    // The merged bucket may now merge with *its* buddy; loop.
  }
}

void ExtendibleHash::TryShrinkDirectory() {
  while (global_depth_ > 0) {
    for (const Bucket& b : buckets_) {
      if (b.local_depth == global_depth_) return;
    }
    std::vector<uint32_t> halved(directory_.size() / 2);
    for (size_t i = 0; i < halved.size(); ++i) {
      POPAN_DCHECK(directory_[2 * i] == directory_[2 * i + 1]);
      halved[i] = directory_[2 * i];
    }
    directory_ = std::move(halved);
    --global_depth_;
  }
}

Status ExtendibleHash::CheckInvariants() const {
  if (directory_.size() != (size_t{1} << global_depth_)) {
    return Status::Internal("directory size != 2^global_depth");
  }
  size_t keys_seen = 0;
  for (size_t bi = 0; bi < buckets_.size(); ++bi) {
    const Bucket& b = buckets_[bi];
    if (b.local_depth > global_depth_) {
      return Status::Internal("local depth exceeds global depth");
    }
    // Every bucket must be pointed to by exactly 2^(global-local)
    // contiguous (aligned) slots.
    size_t expected_slots = size_t{1} << (global_depth_ - b.local_depth);
    size_t actual_slots = 0;
    size_t first_slot = directory_.size();
    for (size_t j = 0; j < directory_.size(); ++j) {
      if (directory_[j] == bi) {
        ++actual_slots;
        first_slot = std::min(first_slot, j);
      }
    }
    if (actual_slots != expected_slots) {
      return Status::Internal("bucket pointer multiplicity mismatch");
    }
    if (actual_slots > 0 && first_slot % expected_slots != 0) {
      return Status::Internal("bucket slot range misaligned");
    }
    // Keys must live in the bucket their pseudokey addresses.
    for (uint64_t key : b.keys) {
      if (directory_[DirIndex(PseudoKey(key))] != bi) {
        return Status::Internal("key stored in the wrong bucket");
      }
    }
    keys_seen += b.keys.size();
  }
  if (keys_seen != size_) {
    return Status::Internal("size mismatch");
  }
  const Census walked = TakeBucketCensus(*this);
  if (census_ != walked) {
    return Status::Internal("live census drift: walked " +
                            walked.ToString() + " live " + census_.ToString());
  }
  return Status::OK();
}

}  // namespace popan::spatial
