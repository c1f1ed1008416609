#include "util/text_io.h"

#include <charconv>
#include <cmath>
#include <istream>
#include <sstream>

namespace popan {

bool ReadTokens(std::istream* in, std::vector<std::string>* tokens,
                size_t* consumed) {
  std::string line;
  if (!std::getline(*in, line)) return false;
  if (consumed != nullptr) {
    // getline consumed the delimiter unless it stopped at end of stream.
    *consumed = line.size() + (in->eof() ? 0 : 1);
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  tokens->clear();
  std::istringstream ls(line);
  std::string token;
  while (ls >> token) tokens->push_back(token);
  return true;
}

[[nodiscard]] StatusOr<uint64_t> ParseU64(const std::string& s) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("not an integer: " + s);
  }
  return value;
}

[[nodiscard]] StatusOr<double> ParseDouble(const std::string& s) {
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size() ||
      !std::isfinite(value)) {
    return Status::InvalidArgument("bad real number: " + s);
  }
  return value;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t Fnv1aU64(uint64_t hash, uint64_t value) {
  for (size_t i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace popan
