#ifndef POPAN_TOOLS_POPAN_LINT_LINT_H_
#define POPAN_TOOLS_POPAN_LINT_LINT_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace popan::lint {

/// popan-lint: the repo-specific static-analysis pass that machine-checks
/// the two load-bearing guarantees of this codebase — determinism
/// (bit-identical results for any thread count) and the typed Status
/// error contract on the durability path — plus the stream-hygiene bug
/// class fixed by hand in the durability PR. It is a tokenizing line
/// scanner, not a compiler plugin: no libclang dependency, so it runs in
/// milliseconds on every file of the tree and in every CI leg.
///
/// Rule catalog (IDs are stable; suppressions name them):
///
///   determinism-random     rand()/srand()/std::random_device anywhere but
///                          src/util/random.{h,cc} — all randomness must
///                          flow from seeded Pcg32/RngStreamFamily.
///   determinism-time       time()/clock()/system_clock/high_resolution_
///                          clock everywhere; steady_clock::now outside
///                          bench/ and src/sim/bench_json.{h,cc} (wall
///                          time may be *measured* in bench timing
///                          sections, never fed into results).
///   unordered-iteration    iterating an unordered_{map,set} in src/sim/
///                          or src/spatial/ — hash-order leaks into
///                          results or serialized output.
///   nodiscard-status       a function declared to return Status/StatusOr
///                          without [[nodiscard]] on the declaration (same
///                          line or the line above).
///   status-unchecked-value .value() on a Status-bearing expression with
///                          no prior .ok()/.status() check of the same
///                          variable in the enclosing function, or any
///                          .IgnoreError().
///   stream-format-guard    setprecision/hex/fixed/scientific/uppercase/
///                          setbase applied to a stream outside a live
///                          StreamFormatGuard scope — sticky format state
///                          is how snapshot/WAL writers corrupt their
///                          caller's stream.
///   raw-mutex-lock         .lock()/.unlock() (also via ->) on any receiver
///                          not declared as a std::lock_guard/scoped_lock/
///                          unique_lock/shared_lock wrapper. RAII guards
///                          are the only sanctioned locking form: a raw
///                          unlock skipped by an early return or exception
///                          is how the concurrency layer deadlocks.
///   raw-simd-intrinsic     vendor SIMD intrinsics (_mm_*/_mm256_*/
///                          _mm512_*, NEON vld1q_*/vceqq_*/... spellings)
///                          anywhere but src/util/simd.h. All vector code
///                          must go through the dispatched kernels there,
///                          so POPAN_FORCE_SCALAR and the parity storm
///                          exercise a scalar twin of every SIMD path —
///                          an inline intrinsic has no fallback and no
///                          bitwise-parity coverage.
///   unannotated-guarded-member
///                          in src/sim/, src/server/ and src/spatial/: a
///                          class that declares a mutex member (std::mutex
///                          or popan::Mutex) must GUARDED_BY/PT_GUARDED_BY-
///                          annotate its sibling data members, so clang
///                          -Wthread-safety can prove the lock discipline.
///                          Synchronization primitives themselves (mutexes,
///                          condition variables, ThreadRole), atomics,
///                          thread handles, and static/constexpr members
///                          are exempt.
///   atomic-implicit-ordering
///                          a std::atomic load/store/exchange/fetch_*/
///                          compare_exchange_* call whose argument list
///                          does not spell a std::memory_order. Implicit
///                          seq_cst hides intent: the epoch pin-confirm
///                          loop's orderings are load-bearing, and a
///                          reader must be able to tell deliberate seq_cst
///                          from an accidental default.
///   raw-thread-spawn       std::thread construction (including
///                          vector<std::thread> pools) or .detach()
///                          outside the sanctioned homes: the ThreadPool
///                          implementation (src/sim/thread_pool.*) and the
///                          storm harnesses (src/sim/rw_storm.*,
///                          src/shard/shard_storm.*). Everything else
///                          routes work through sim::ThreadPool so shutdown
///                          joins are structural, or carries a reasoned
///                          suppression (e.g. a test's server thread).
///   shard-key-arithmetic   raw bit surgery (shifts, literal masks,
///                          compound mask assignments) on a Morton-key
///                          identifier — word parts "key"/"morton", so
///                          "monkey" never reads as a key — anywhere but
///                          the codec files (src/spatial/morton.*,
///                          hash_codec.*, excell.*) and the shard
///                          key-range algebra (src/shard/key_range.*).
///                          Key manipulation must go through their
///                          helpers so depth bounds and the canonical
///                          staircase invariants live in one place.
///                          Stream piping (chained << / >>), template
///                          closers, and generic hash mixing on
///                          non-key identifiers stay clean.
///
/// Suppression syntax: `// popan-lint: allow(<rule>[, <rule>...])`.
/// On a line with code it silences that line; on a line of its own it
/// silences the next line. Every suppression should carry a reason in the
/// surrounding comment.
struct Finding {
  std::string rule;     ///< stable rule ID from the catalog above
  std::string path;     ///< logical path (classifies allowlists)
  int line = 0;         ///< 1-based
  std::string message;  ///< human-readable explanation

  /// Renders "path:line: [rule] message" — the format CI and editors parse.
  std::string ToString() const;
};

/// Lints `content` as if it lived at `logical_path`. The path string (not
/// the filesystem) decides the per-directory allowlists, so tests can lint
/// fixture text under any path they like.
std::vector<Finding> LintText(const std::string& logical_path,
                              const std::string& content);

/// Reads and lints a file on disk; the path doubles as the logical path.
/// I/O failure is reported as a single pseudo-finding with rule "io-error".
std::vector<Finding> LintFile(const std::string& path);

/// Recursively collects the lintable files (.h/.cc/.cpp) under `root`'s
/// src/, bench/, tests/ and tools/ directories, skipping build output,
/// VCS metadata, bench result archives, and lint fixture corpora
/// (directories named build, .git, results, fixtures).
std::vector<std::string> CollectFiles(const std::string& root);

/// The whole tool as a function: lints the given explicit files, or walks
/// `--root <dir>` (default ".") when none are given; prints findings and
/// a summary to `out`. Returns the process exit code: 0 clean, 1 findings,
/// 2 usage or I/O error. main() is a one-line wrapper around this so tests
/// can assert exit codes and output verbatim.
int RunLint(const std::vector<std::string>& args, std::ostream& out);

}  // namespace popan::lint

#endif  // POPAN_TOOLS_POPAN_LINT_LINT_H_
