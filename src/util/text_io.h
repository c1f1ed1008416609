#ifndef POPAN_UTIL_TEXT_IO_H_
#define POPAN_UTIL_TEXT_IO_H_

#include <cstddef>
#include <cstdint>
#include <ios>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/statusor.h"

namespace popan {

/// Shared line-oriented parsing helpers for the text formats in
/// src/spatial (WAL, quadtree serialization, snapshots). One definition
/// here keeps the dialect identical across every reader: lines split on
/// whitespace, a trailing '\r' is stripped (CRLF files parse the same as
/// LF files), numbers parse via std::from_chars with no locale surprises.

/// Reads one line from `in` and splits it on whitespace into `tokens`
/// (cleared first). A trailing '\r' is stripped before splitting. Returns
/// false at end of stream. When `consumed` is non-null it receives the
/// number of raw bytes consumed from the stream, including the newline
/// when one was present; callers tracking byte offsets (e.g. the WAL's
/// intact-prefix length) sum these.
bool ReadTokens(std::istream* in, std::vector<std::string>* tokens,
                size_t* consumed = nullptr);

/// Parses a whole-string base-10 unsigned integer.
[[nodiscard]] StatusOr<uint64_t> ParseU64(const std::string& s);

/// Parses a whole-string real number; rejects NaN and infinities, which
/// none of the on-disk formats admit.
[[nodiscard]] StatusOr<double> ParseDouble(const std::string& s);

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
inline constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over a byte buffer — the checksum primitive behind WAL records,
/// snapshot trailers and the deterministic transcripts. `hash` is the
/// running hash to continue, so hashing a buffer in pieces equals one
/// pass over the whole.
uint64_t Fnv1a(const void* data, size_t size, uint64_t hash = kFnv1aBasis);
inline uint64_t Fnv1a(const std::string& s) {
  return Fnv1a(s.data(), s.size());
}

/// Continues the running FNV-1a `hash` over the 8 bytes of `value`, low
/// byte first.
uint64_t Fnv1aU64(uint64_t hash, uint64_t value);

/// RAII guard that restores a stream's format flags and precision on
/// destruction, so formatted writers (std::setprecision(17) and friends)
/// cannot leak sticky state into the caller's stream.
class StreamFormatGuard {
 public:
  explicit StreamFormatGuard(std::ios_base* stream)
      : stream_(stream),
        flags_(stream->flags()),
        precision_(stream->precision()) {}
  ~StreamFormatGuard() {
    stream_->flags(flags_);
    stream_->precision(precision_);
  }

  StreamFormatGuard(const StreamFormatGuard&) = delete;
  StreamFormatGuard& operator=(const StreamFormatGuard&) = delete;

 private:
  std::ios_base* stream_;
  std::ios_base::fmtflags flags_;
  std::streamsize precision_;
};

}  // namespace popan

#endif  // POPAN_UTIL_TEXT_IO_H_
