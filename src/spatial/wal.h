#ifndef POPAN_SPATIAL_WAL_H_
#define POPAN_SPATIAL_WAL_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/pr_tree.h"
#include "util/statusor.h"

namespace popan::spatial {

/// A write-ahead log for a dynamic PR quadtree — the storage-engine idiom
/// for durability: every mutation is appended (with a sequence number and
/// a checksum) before it is applied, and a crashed process recovers by
/// loading the last checksummed snapshot (serialization.h WriteSnapshot,
/// checkpoint.h Recover) and replaying the log tail over it. Records are
/// line-oriented:
///
///   popan-wal v1 <capacity> <max_depth> <lo.x> <lo.y> <hi.x> <hi.y> <anchor>
///   <seq> I <x> <y> <checksum>
///   <seq> E <x> <y> <checksum>
///
/// `anchor` is the sequence number of the last record already reflected in
/// the state the log starts from: 0 for a log over an empty tree, the
/// snapshot's sequence for a log started by Checkpoint(). The first record
/// carries sequence anchor + 1. (Headers without the anchor token are read
/// as anchor 0, so pre-anchor logs stay replayable.)
///
/// The checksum covers the record's logical content, so torn or corrupted
/// tail records are detected and recovery stops at the last intact one —
/// replay never applies garbage. The writer validates records at append
/// time (finite, in-bounds coordinates), so it never logs a record the
/// reader would reject. Coordinates print as `%.17g`, which round-trips
/// every double.
///
/// Each record is flushed to the OS as it is appended, except inside a
/// write run (BeginRun .. EndRun): there the records collect in the
/// stream's buffer and EndRun flushes them together. A record, or a
/// run's flush, that the stream fails to take is an error (Internal): the
/// caller must treat the log as lost from that record on and stop.
class WalWriter {
 public:
  /// Tag for the resume constructor below.
  struct ResumeAt {
    uint64_t next_sequence = 1;
  };

  /// Starts a fresh log for a tree with the given geometry/options,
  /// writing the header immediately. `anchor` is the sequence the log is
  /// anchored at (see above); the default 0 starts a log over an empty
  /// tree. The stream must outlive the writer.
  WalWriter(std::ostream* out, const geo::Box2& bounds,
            const PrTreeOptions& options, uint64_t anchor = 0);

  /// Resumes an existing log in place: writes no header and assigns
  /// `resume.next_sequence` to the next record. Use after recovery, with
  /// WalRecovery::next_sequence, once the log file has been truncated to
  /// WalRecovery::valid_bytes (so the resumed records land right after the
  /// last intact one instead of colliding with a discarded tail).
  WalWriter(std::ostream* out, const geo::Box2& bounds, ResumeAt resume);

  /// Appends an insert record; returns the sequence number assigned.
  /// Fails (InvalidArgument / OutOfRange) without writing anything when
  /// the point is non-finite or outside the logged bounds — such a record
  /// would truncate replay at recovery time — and with Internal when the
  /// stream fails to take the record.
  [[nodiscard]] StatusOr<uint64_t> LogInsert(const geo::Point2& p);

  /// Appends an erase record, with the same validation and errors.
  [[nodiscard]] StatusOr<uint64_t> LogErase(const geo::Point2& p);

  /// Opens a write run: records appended until EndRun are not flushed
  /// one by one.
  void BeginRun();

  /// Flushes the run's records to the OS and closes the run. Internal
  /// when the stream fails.
  [[nodiscard]] Status EndRun();

  /// Sequence number of the next record.
  uint64_t next_sequence() const { return next_sequence_; }

 private:
  [[nodiscard]] StatusOr<uint64_t> Append(char op, const geo::Point2& p);

  std::ostream* out_;
  geo::Box2 bounds_;
  uint64_t next_sequence_ = 1;
  bool in_run_ = false;
};

/// The result of a recovery.
struct WalRecovery {
  PrTree<2> tree;               ///< state after replaying intact records
  uint64_t anchor = 0;          ///< sequence the log was anchored at
  uint64_t records_applied = 0;
  uint64_t last_sequence = 0;   ///< == anchor when no records applied
  /// The sequence a resumed writer must use (last_sequence + 1) — the fix
  /// for the resume/collision bug: appending with a fresh sequence-1
  /// writer would collide with the existing records and replay would
  /// discard everything after the old tail as a sequence gap.
  uint64_t next_sequence = 1;
  /// Byte length of the intact prefix of the log (header plus every
  /// applied record). Truncate the file here before resuming with
  /// WalWriter::ResumeAt so new records follow the last intact one.
  size_t valid_bytes = 0;
  /// True when replay stopped early at a corrupt/torn record (everything
  /// before it was applied; the tail was discarded).
  bool truncated_tail = false;
  std::string truncation_reason;
};

/// Replays a log from the beginning onto an empty tree. Fails
/// (InvalidArgument) only for an unusable header — including a log
/// anchored at a nonzero sequence, which needs its snapshot (use the
/// base-tree overload or checkpoint.h Recover). Data-record corruption is
/// not an error — it marks the end of the usable log, exactly like a torn
/// write after a crash. Records that no longer apply cleanly (duplicate
/// insert, erase of a missing point) also stop replay: they indicate a
/// log/state mismatch.
[[nodiscard]] StatusOr<WalRecovery> ReplayWal(std::istream* in);
[[nodiscard]] StatusOr<WalRecovery> ReplayWal(const std::string& text);

/// Replays a log anchored at `base_sequence` onto a copy of `base` (the
/// state a snapshot restored). Fails with InvalidArgument for an unusable
/// header and FailedPrecondition when the header's anchor or geometry do
/// not match `base` — that pairing mismatch means the caller handed the
/// wrong snapshot/log pair, not a torn tail.
[[nodiscard]]
StatusOr<WalRecovery> ReplayWal(std::istream* in, const PrTree<2>& base,
                                uint64_t base_sequence);
[[nodiscard]] StatusOr<WalRecovery> ReplayWal(const std::string& text,
                                const PrTree<2>& base,
                                uint64_t base_sequence);

/// Prepares a crashed log file for resumed appends: truncates it to
/// `valid_bytes` (the intact prefix recovery measured) and opens it for
/// appending, ready to hand to WalWriter::ResumeAt.
///
/// The truncation is NOT optional. A torn tail record has no trailing
/// newline, so a writer that simply opens the file in append mode glues
/// its first record onto the partial line — producing a hybrid line whose
/// checksum cannot match, which silently discards that record (and
/// everything after it) at the next recovery. Cutting the file back to
/// the intact prefix first is what makes the resumed records land on a
/// record boundary.
///
/// Errors: NotFound when the file does not exist, InvalidArgument when
/// `valid_bytes` exceeds the file size (the recovery result belongs to a
/// different file), Internal when the filesystem refuses the truncation
/// or the append-mode open fails.
[[nodiscard]] StatusOr<std::ofstream> ResumeWalFile(const std::string& path,
                                                    size_t valid_bytes);

/// The checksum used for log records (FNV-1a over the formatted content);
/// exposed so tests can craft valid and corrupt records.
uint64_t WalChecksum(uint64_t sequence, char op, double x, double y);

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_WAL_H_
