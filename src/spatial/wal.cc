#include "spatial/wal.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <system_error>
#include <vector>

#include "util/check.h"
#include "util/text_io.h"

namespace popan::spatial {

namespace {

constexpr char kMagic[] = "popan-wal";
constexpr char kVersion[] = "v1";

/// Everything ReplayWal learns from a header line.
struct WalHeader {
  PrTreeOptions options;
  geo::Box2 bounds{geo::Point2(0, 0), geo::Point2(1, 1)};
  uint64_t anchor = 0;
  size_t bytes = 0;  ///< raw bytes the header line occupied
};

[[nodiscard]] StatusOr<WalHeader> ParseHeader(std::istream* in) {
  std::vector<std::string> tokens;
  size_t consumed = 0;
  if (!ReadTokens(in, &tokens, &consumed) || in->eof() ||
      (tokens.size() != 8 && tokens.size() != 9) || tokens[0] != kMagic ||
      tokens[1] != kVersion) {
    return Status::InvalidArgument("missing or malformed WAL header");
  }
  POPAN_ASSIGN_OR_RETURN(uint64_t capacity, ParseU64(tokens[2]));
  POPAN_ASSIGN_OR_RETURN(uint64_t max_depth, ParseU64(tokens[3]));
  POPAN_ASSIGN_OR_RETURN(double lox, ParseDouble(tokens[4]));
  POPAN_ASSIGN_OR_RETURN(double loy, ParseDouble(tokens[5]));
  POPAN_ASSIGN_OR_RETURN(double hix, ParseDouble(tokens[6]));
  POPAN_ASSIGN_OR_RETURN(double hiy, ParseDouble(tokens[7]));
  if (capacity == 0 || !(lox < hix) || !(loy < hiy)) {
    return Status::InvalidArgument("degenerate WAL header");
  }
  WalHeader header;
  // Headers written before anchoring existed have 8 tokens; they are
  // anchored at 0 by construction.
  if (tokens.size() == 9) {
    POPAN_ASSIGN_OR_RETURN(header.anchor, ParseU64(tokens[8]));
  }
  header.options.capacity = static_cast<size_t>(capacity);
  header.options.max_depth = static_cast<size_t>(max_depth);
  header.bounds =
      geo::Box2(geo::Point2(lox, loy), geo::Point2(hix, hiy));
  header.bytes = consumed;
  return header;
}

/// Room FormatRecord needs: four numbers of at most kRoom characters
/// (`%.17g` takes at most 24, a u64 20) and five separators.
constexpr size_t kRoom = 32;
constexpr size_t kRecordRoom = 4 * kRoom + 5;

/// Renders one record line into `out` (kRecordRoom bytes) and returns its
/// end. Coordinates print as `ostream << setprecision(17)` prints them
/// (`%.17g`), so logs keep their bytes.
char* FormatRecord(char* out, uint64_t seq, char op, const geo::Point2& p) {
  out = std::to_chars(out, out + kRoom, seq).ptr;
  *out++ = ' ';
  *out++ = op;
  for (double v : {p.x(), p.y()}) {
    *out++ = ' ';
    out = std::to_chars(out, out + kRoom, v, std::chars_format::general, 17)
              .ptr;
  }
  *out++ = ' ';
  out = std::to_chars(out, out + kRoom, WalChecksum(seq, op, p.x(), p.y()))
            .ptr;
  *out++ = '\n';
  return out;
}

/// The shared replay core: applies intact records on top of `recovery`'s
/// tree, which the caller has seeded with the log's base state.
void ReplayRecords(std::istream* in, WalRecovery* recovery) {
  std::vector<std::string> tokens;
  uint64_t expected_seq = recovery->anchor + 1;
  size_t pending = 0;  // blank-line bytes awaiting the next intact record
  for (;;) {
    size_t consumed = 0;
    if (!ReadTokens(in, &tokens, &consumed)) break;
    auto truncate = [recovery](std::string reason) {
      recovery->truncated_tail = true;
      recovery->truncation_reason = std::move(reason);
    };
    if (tokens.empty()) {  // blank line: harmless
      pending += consumed;
      continue;
    }
    if (in->eof()) {
      // The line was not newline-terminated: a record is only durable
      // once its terminator hit the stream, however plausible the bytes
      // look — the classic torn final write.
      truncate("torn record (no terminator)");
      break;
    }
    if (tokens.size() != 5) {
      truncate("short record (torn write)");
      break;
    }
    StatusOr<uint64_t> seq = ParseU64(tokens[0]);
    StatusOr<double> x = ParseDouble(tokens[2]);
    StatusOr<double> y = ParseDouble(tokens[3]);
    StatusOr<uint64_t> checksum = ParseU64(tokens[4]);
    if (!seq.ok() || !x.ok() || !y.ok() || !checksum.ok() ||
        tokens[1].size() != 1) {
      truncate("unparsable record");
      break;
    }
    char op = tokens[1][0];
    if (op != 'I' && op != 'E') {
      truncate("unknown operation");
      break;
    }
    if (seq.value() != expected_seq) {
      truncate("sequence gap");
      break;
    }
    if (WalChecksum(seq.value(), op, x.value(), y.value()) !=
        checksum.value()) {
      truncate("checksum mismatch");
      break;
    }
    geo::Point2 p(x.value(), y.value());
    Status applied = op == 'I' ? recovery->tree.Insert(p)
                               : recovery->tree.Erase(p);
    if (!applied.ok()) {
      truncate("record does not apply: " + applied.ToString());
      break;
    }
    recovery->last_sequence = seq.value();
    ++recovery->records_applied;
    ++expected_seq;
    recovery->valid_bytes += pending + consumed;
    pending = 0;
  }
  recovery->next_sequence = recovery->last_sequence + 1;
}

}  // namespace

uint64_t WalChecksum(uint64_t sequence, char op, double x, double y) {
  // Hash the exact binary content, not the decimal rendering, so the
  // checksum is immune to formatting differences.
  unsigned char buffer[8 + 1 + 8 + 8];
  std::memcpy(buffer, &sequence, 8);
  buffer[8] = static_cast<unsigned char>(op);
  std::memcpy(buffer + 9, &x, 8);
  std::memcpy(buffer + 17, &y, 8);
  return Fnv1a(buffer, sizeof(buffer));
}

WalWriter::WalWriter(std::ostream* out, const geo::Box2& bounds,
                     const PrTreeOptions& options, uint64_t anchor)
    : out_(out), bounds_(bounds), next_sequence_(anchor + 1) {
  POPAN_CHECK(out_ != nullptr);
  StreamFormatGuard guard(out_);
  *out_ << kMagic << " " << kVersion << " " << options.capacity << " "
        << options.max_depth << " " << std::setprecision(17)
        << bounds.lo().x() << " " << bounds.lo().y() << " "
        << bounds.hi().x() << " " << bounds.hi().y() << " " << anchor
        << "\n";
}

WalWriter::WalWriter(std::ostream* out, const geo::Box2& bounds,
                     ResumeAt resume)
    : out_(out), bounds_(bounds), next_sequence_(resume.next_sequence) {
  POPAN_CHECK(out_ != nullptr);
  POPAN_CHECK(resume.next_sequence >= 1);
}

StatusOr<uint64_t> WalWriter::Append(char op, const geo::Point2& p) {
  // Validate at append time: a record the reader would reject must never
  // reach the log, where it would silently truncate everything after it.
  if (!std::isfinite(p.x()) || !std::isfinite(p.y())) {
    return Status::InvalidArgument("non-finite coordinate in WAL record");
  }
  if (!bounds_.Contains(p)) {
    return Status::OutOfRange("point " + p.ToString() +
                              " outside the logged bounds");
  }
  uint64_t seq = next_sequence_++;
  char line[kRecordRoom];
  out_->write(line, FormatRecord(line, seq, op, p) - line);
  if (!in_run_) out_->flush();
  if (!out_->good()) {
    return Status::Internal("WAL record " + std::to_string(seq) +
                            " did not reach the log stream");
  }
  return seq;
}

void WalWriter::BeginRun() {
  POPAN_DCHECK(!in_run_) << "WAL write runs do not nest";
  in_run_ = true;
}

Status WalWriter::EndRun() {
  POPAN_DCHECK(in_run_) << "EndRun without BeginRun";
  in_run_ = false;
  out_->flush();
  if (!out_->good()) {
    return Status::Internal("WAL flush failed before record " +
                            std::to_string(next_sequence_));
  }
  return Status::OK();
}

StatusOr<uint64_t> WalWriter::LogInsert(const geo::Point2& p) {
  return Append('I', p);
}

StatusOr<uint64_t> WalWriter::LogErase(const geo::Point2& p) {
  return Append('E', p);
}

[[nodiscard]] StatusOr<WalRecovery> ReplayWal(std::istream* in) {
  POPAN_ASSIGN_OR_RETURN(WalHeader header, ParseHeader(in));
  if (header.anchor != 0) {
    return Status::InvalidArgument(
        "log anchored at sequence " + std::to_string(header.anchor) +
        " requires its snapshot; use the base-tree overload");
  }
  WalRecovery recovery{PrTree<2>(header.bounds, header.options),
                       0, 0, 0, 1, header.bytes, false, ""};
  ReplayRecords(in, &recovery);
  return recovery;
}

[[nodiscard]] StatusOr<WalRecovery> ReplayWal(const std::string& text) {
  std::istringstream in(text);
  return ReplayWal(&in);
}

[[nodiscard]]
StatusOr<WalRecovery> ReplayWal(std::istream* in, const PrTree<2>& base,
                                uint64_t base_sequence) {
  POPAN_ASSIGN_OR_RETURN(WalHeader header, ParseHeader(in));
  if (header.anchor != base_sequence) {
    return Status::FailedPrecondition(
        "log anchored at sequence " + std::to_string(header.anchor) +
        " does not continue base state at sequence " +
        std::to_string(base_sequence));
  }
  if (header.options.capacity != base.capacity() ||
      header.options.max_depth != base.max_depth() ||
      header.bounds != base.bounds()) {
    return Status::FailedPrecondition(
        "log geometry/options do not match the base tree");
  }
  WalRecovery recovery{base, header.anchor, 0, header.anchor,
                       header.anchor + 1, header.bytes, false, ""};
  ReplayRecords(in, &recovery);
  return recovery;
}

[[nodiscard]] StatusOr<WalRecovery> ReplayWal(const std::string& text,
                                const PrTree<2>& base,
                                uint64_t base_sequence) {
  std::istringstream in(text);
  return ReplayWal(&in, base, base_sequence);
}

[[nodiscard]] StatusOr<std::ofstream> ResumeWalFile(const std::string& path,
                                                    size_t valid_bytes) {
  std::error_code ec;
  uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::NotFound("WAL file not readable: " + path + ": " +
                            ec.message());
  }
  if (valid_bytes > size) {
    return Status::InvalidArgument(
        "valid_bytes " + std::to_string(valid_bytes) +
        " exceeds WAL file size " + std::to_string(size) +
        " — recovery result from a different file?");
  }
  // Cut the torn tail off BEFORE the first append: a torn record has no
  // trailing newline, so appending into the untruncated file would glue
  // the first resumed record onto the partial line.
  if (valid_bytes < size) {
    std::filesystem::resize_file(path, valid_bytes, ec);
    if (ec) {
      return Status::Internal("cannot truncate WAL file to its intact " +
                              std::string("prefix: ") + ec.message());
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out.is_open()) {
    return Status::Internal("cannot reopen WAL file for append: " + path);
  }
  return out;
}

}  // namespace popan::spatial
