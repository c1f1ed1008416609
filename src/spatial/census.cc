#include "spatial/census.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace popan::spatial {

void Census::Merge(const Census& other) {
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
}

uint64_t Census::CountAt(size_t occupancy) const {
  uint64_t total = 0;
  for (const std::vector<uint64_t>& row : by_depth_) {
    if (occupancy < row.size()) total += row[occupancy];
  }
  return total;
}

uint64_t Census::CountAt(size_t occupancy, size_t depth) const {
  if (depth >= by_depth_.size()) return 0;
  if (occupancy >= by_depth_[depth].size()) return 0;
  return by_depth_[depth][occupancy];
}

uint64_t Census::LeafCount() const {
  uint64_t total = 0;
  for (size_t d = 0; d < by_depth_.size(); ++d) total += LeavesAtDepth(d);
  return total;
}

uint64_t Census::ItemCount() const {
  uint64_t total = 0;
  for (size_t d = 0; d < by_depth_.size(); ++d) total += ItemsAtDepth(d);
  return total;
}

std::vector<uint64_t> Census::ByOccupancy() const {
  std::vector<uint64_t> out;
  for (const std::vector<uint64_t>& row : by_depth_) {
    if (row.size() > out.size()) out.resize(row.size(), 0);
    for (size_t i = 0; i < row.size(); ++i) out[i] += row[i];
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

size_t Census::MaxOccupancy() const {
  const size_t columns = ByOccupancy().size();
  return columns == 0 ? 0 : columns - 1;
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
  const std::vector<uint64_t> counts = ByOccupancy();
  num::Vector out(std::max(min_size, counts.size()));
  const uint64_t leaves = LeafCount();
  if (leaves == 0) return out;
  for (size_t i = 0; i < counts.size(); ++i) {
    out[i] = static_cast<double>(counts[i]) / static_cast<double>(leaves);
  }
  return out;
}

double Census::AverageOccupancy() const {
  const uint64_t leaves = LeafCount();
  if (leaves == 0) return 0.0;
  return static_cast<double>(ItemCount()) / static_cast<double>(leaves);
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

std::string Census::ToString() const {
  const std::vector<uint64_t> counts = ByOccupancy();
  std::ostringstream os;
  os << "Census{leaves=" << LeafCount() << ", items=" << ItemCount()
     << ", avg_occupancy=" << AverageOccupancy() << ", by_occupancy=[";
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) os << ", ";
    os << i << ":" << counts[i];
  }
  os << "]}";
  return os.str();
}

}  // namespace popan::spatial
