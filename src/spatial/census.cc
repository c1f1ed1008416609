#include "spatial/census.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace popan::spatial {

void Census::AddLeaf(size_t occupancy, size_t depth) {
  AddLeaves(occupancy, depth, 1);
}

void Census::AddLeaves(size_t occupancy, size_t depth, uint64_t count) {
  if (count == 0) return;
  if (occupancy >= count_by_occupancy_.size()) {
    count_by_occupancy_.resize(occupancy + 1, 0);
  }
  count_by_occupancy_[occupancy] += count;
  if (depth >= by_depth_.size()) {
    by_depth_.resize(depth + 1);
  }
  if (occupancy >= by_depth_[depth].size()) {
    by_depth_[depth].resize(occupancy + 1, 0);
  }
  by_depth_[depth][occupancy] += count;
  leaf_count_ += count;
  item_count_ += occupancy * count;
}

void Census::Merge(const Census& other) {
  if (other.count_by_occupancy_.size() > count_by_occupancy_.size()) {
    count_by_occupancy_.resize(other.count_by_occupancy_.size(), 0);
  }
  for (size_t i = 0; i < other.count_by_occupancy_.size(); ++i) {
    count_by_occupancy_[i] += other.count_by_occupancy_[i];
  }
  if (other.by_depth_.size() > by_depth_.size()) {
    by_depth_.resize(other.by_depth_.size());
  }
  for (size_t d = 0; d < other.by_depth_.size(); ++d) {
    if (other.by_depth_[d].size() > by_depth_[d].size()) {
      by_depth_[d].resize(other.by_depth_[d].size(), 0);
    }
    for (size_t i = 0; i < other.by_depth_[d].size(); ++i) {
      by_depth_[d][i] += other.by_depth_[d][i];
    }
  }
  leaf_count_ += other.leaf_count_;
  item_count_ += other.item_count_;
}

uint64_t Census::CountAt(size_t occupancy) const {
  if (occupancy >= count_by_occupancy_.size()) return 0;
  return count_by_occupancy_[occupancy];
}

uint64_t Census::CountAt(size_t occupancy, size_t depth) const {
  if (depth >= by_depth_.size()) return 0;
  if (occupancy >= by_depth_[depth].size()) return 0;
  return by_depth_[depth][occupancy];
}

size_t Census::MaxOccupancy() const {
  for (size_t i = count_by_occupancy_.size(); i-- > 0;) {
    if (count_by_occupancy_[i] != 0) return i;
  }
  return 0;
}

size_t Census::MaxDepth() const {
  for (size_t d = by_depth_.size(); d-- > 0;) {
    for (uint64_t c : by_depth_[d]) {
      if (c != 0) return d;
    }
  }
  return 0;
}

std::vector<size_t> Census::DepthsPresent() const {
  std::vector<size_t> out;
  for (size_t d = 0; d < by_depth_.size(); ++d) {
    if (LeavesAtDepth(d) > 0) out.push_back(d);
  }
  return out;
}

uint64_t Census::LeavesAtDepth(size_t depth) const {
  if (depth >= by_depth_.size()) return 0;
  uint64_t total = 0;
  for (uint64_t c : by_depth_[depth]) total += c;
  return total;
}

uint64_t Census::ItemsAtDepth(size_t depth) const {
  if (depth >= by_depth_.size()) return 0;
  uint64_t total = 0;
  for (size_t i = 0; i < by_depth_[depth].size(); ++i) {
    total += by_depth_[depth][i] * i;
  }
  return total;
}

double Census::AverageOccupancyAtDepth(size_t depth) const {
  uint64_t leaves = LeavesAtDepth(depth);
  if (leaves == 0) return 0.0;
  return static_cast<double>(ItemsAtDepth(depth)) /
         static_cast<double>(leaves);
}

num::Vector Census::Proportions(size_t min_size) const {
  size_t size = std::max(min_size, count_by_occupancy_.size());
  num::Vector out(size);
  if (leaf_count_ == 0) return out;
  for (size_t i = 0; i < count_by_occupancy_.size(); ++i) {
    out[i] = static_cast<double>(count_by_occupancy_[i]) /
             static_cast<double>(leaf_count_);
  }
  return out;
}

double Census::AverageOccupancy() const {
  if (leaf_count_ == 0) return 0.0;
  return static_cast<double>(item_count_) / static_cast<double>(leaf_count_);
}

double Census::StorageUtilization(size_t capacity) const {
  POPAN_CHECK(capacity > 0);
  return AverageOccupancy() / static_cast<double>(capacity);
}

namespace {

// a[i] == b[i] with missing tail entries treated as zero.
bool PaddedEqual(const std::vector<uint64_t>& a,
                 const std::vector<uint64_t>& b) {
  size_t n = std::max(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    uint64_t av = i < a.size() ? a[i] : 0;
    uint64_t bv = i < b.size() ? b[i] : 0;
    if (av != bv) return false;
  }
  return true;
}

}  // namespace

bool operator==(const Census& a, const Census& b) {
  if (a.leaf_count_ != b.leaf_count_ || a.item_count_ != b.item_count_) {
    return false;
  }
  if (!PaddedEqual(a.count_by_occupancy_, b.count_by_occupancy_)) {
    return false;
  }
  static const std::vector<uint64_t> kEmpty;
  size_t depths = std::max(a.by_depth_.size(), b.by_depth_.size());
  for (size_t d = 0; d < depths; ++d) {
    const std::vector<uint64_t>& ad = d < a.by_depth_.size() ? a.by_depth_[d]
                                                             : kEmpty;
    const std::vector<uint64_t>& bd = d < b.by_depth_.size() ? b.by_depth_[d]
                                                             : kEmpty;
    if (!PaddedEqual(ad, bd)) return false;
  }
  return true;
}

Census LiveHistogram::ToCensus() const {
  Census census;
  for (size_t d = 0; d < rows_.size(); ++d) {
    for (size_t occ = 0; occ < rows_[d].size(); ++occ) {
      census.AddLeaves(occ, d, rows_[d][occ]);
    }
  }
  return census;
}

std::string Census::ToString() const {
  std::ostringstream os;
  os << "Census{leaves=" << leaf_count_ << ", items=" << item_count_
     << ", avg_occupancy=" << AverageOccupancy() << ", by_occupancy=[";
  for (size_t i = 0; i < count_by_occupancy_.size(); ++i) {
    if (i != 0) os << ", ";
    os << i << ":" << count_by_occupancy_[i];
  }
  os << "]}";
  return os.str();
}

}  // namespace popan::spatial
