// Tests for tools/popan_lint: every rule in the catalog has a positive
// fixture (exact rule IDs and line numbers asserted) and a suppressed
// twin that must lint clean. Fixtures live in tests/tools/fixtures/ --
// a directory CollectFiles skips, so the deliberately-violating corpus
// never fails the tree scan. Path-gated rules are exercised by linting
// fixture text under synthetic logical paths via LintText.

#include "lint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace popan::lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(POPAN_LINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// (rule, line) pairs, in report order, for compact whole-file asserts.
std::vector<std::pair<std::string, int>> RulesAndLines(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, int>> out;
  for (const Finding& f : findings) out.emplace_back(f.rule, f.line);
  return out;
}

using Expected = std::vector<std::pair<std::string, int>>;

// --- determinism-random ------------------------------------------------

TEST(PopanLintTest, DeterminismRandomFlagsRandAndRandomDevice) {
  std::vector<Finding> findings =
      LintText("src/core/demo.cc", ReadFixture("determinism_random.cc"));
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"determinism-random", 9}, {"determinism-random", 14}}));
}

TEST(PopanLintTest, DeterminismRandomAllowedInRandomHeader) {
  // The same content is legal inside the one blessed implementation file.
  EXPECT_TRUE(
      LintText("src/util/random.h", ReadFixture("determinism_random.cc"))
          .empty());
  EXPECT_TRUE(
      LintText("src/util/random.cc", ReadFixture("determinism_random.cc"))
          .empty());
}

TEST(PopanLintTest, DeterminismRandomSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/core/demo.cc",
                       ReadFixture("determinism_random_suppressed.cc"))
                  .empty());
}

// --- determinism-time --------------------------------------------------

TEST(PopanLintTest, DeterminismTimeFlagsAllClocksOutsideBench) {
  std::vector<Finding> findings =
      LintText("src/sim/demo.cc", ReadFixture("determinism_time.cc"));
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"determinism-time", 9},
                      {"determinism-time", 13},
                      {"determinism-time", 18}}));
}

TEST(PopanLintTest, DeterminismTimeAllowsSteadyClockInBench) {
  // Under bench/ the steady_clock read (line 18) is a timing section;
  // time() and system_clock stay banned.
  std::vector<Finding> findings =
      LintText("bench/demo.cc", ReadFixture("determinism_time.cc"));
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"determinism-time", 9}, {"determinism-time", 13}}));
}

TEST(PopanLintTest, DeterminismTimeSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/sim/demo.cc",
                       ReadFixture("determinism_time_suppressed.cc"))
                  .empty());
}

// --- unordered-iteration -----------------------------------------------

TEST(PopanLintTest, UnorderedIterationFlagsRangeForAndBegin) {
  for (const char* path :
       {"src/sim/demo.cc", "src/spatial/demo.cc", "src/query/demo.cc"}) {
    std::vector<Finding> findings =
        LintText(path, ReadFixture("unordered_iteration.cc"));
    EXPECT_EQ(RulesAndLines(findings),
              (Expected{{"unordered-iteration", 9},
                        {"unordered-iteration", 16}}))
        << path;
  }
}

TEST(PopanLintTest, UnorderedIterationScopedToSimSpatialAndQuery) {
  // Hash-order iteration elsewhere (analysis helpers, tests) is fine.
  EXPECT_TRUE(
      LintText("src/core/demo.cc", ReadFixture("unordered_iteration.cc"))
          .empty());
}

TEST(PopanLintTest, UnorderedIterationSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/sim/demo.cc",
                       ReadFixture("unordered_iteration_suppressed.cc"))
                  .empty());
}

TEST(PopanLintTest, QueryUnorderedIterationFixtureFlags) {
  std::vector<Finding> findings = LintText(
      "src/query/demo.cc", ReadFixture("query_unordered_iteration.cc"));
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"unordered-iteration", 11},
                      {"unordered-iteration", 18}}));
}

TEST(PopanLintTest, QueryUnorderedIterationSuppressionsSilence) {
  EXPECT_TRUE(
      LintText("src/query/demo.cc",
               ReadFixture("query_unordered_iteration_suppressed.cc"))
          .empty());
}

// --- nodiscard-status --------------------------------------------------

TEST(PopanLintTest, NodiscardStatusFlagsBareDeclarationsOnly) {
  std::vector<Finding> findings =
      LintText("src/spatial/demo.h", ReadFixture("nodiscard_status.cc"));
  // The annotated declarations (inline and line-above) must not appear.
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"nodiscard-status", 8}, {"nodiscard-status", 10}}));
}

TEST(PopanLintTest, QueryNodiscardStatusFixtureFlags) {
  std::vector<Finding> findings =
      LintText("src/query/demo.h", ReadFixture("query_nodiscard_status.cc"));
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"nodiscard-status", 8}, {"nodiscard-status", 10}}));
}

TEST(PopanLintTest, QueryNodiscardStatusSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/query/demo.h",
                       ReadFixture("query_nodiscard_status_suppressed.cc"))
                  .empty());
}

TEST(PopanLintTest, NodiscardStatusSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/spatial/demo.h",
                       ReadFixture("nodiscard_status_suppressed.cc"))
                  .empty());
}

// --- status-unchecked-value --------------------------------------------

TEST(PopanLintTest, UncheckedValueFlagsUncheckedChainedAndIgnoreError) {
  std::vector<Finding> findings =
      LintText("src/spatial/demo.cc", ReadFixture("status_unchecked_value.cc"));
  // UseChecked's guarded .value() (line 23) must not appear.
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"status-unchecked-value", 13},
                      {"status-unchecked-value", 17},
                      {"status-unchecked-value", 27}}));
}

TEST(PopanLintTest, UncheckedValueSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/spatial/demo.cc",
                       ReadFixture("status_unchecked_value_suppressed.cc"))
                  .empty());
}

// --- stream-format-guard -----------------------------------------------

TEST(PopanLintTest, StreamFormatGuardFlagsBareManipulators) {
  std::vector<Finding> findings =
      LintText("src/sim/demo.cc", ReadFixture("stream_format_guard.cc"));
  // WriteGuarded's manipulators (line 17) are under a live guard.
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"stream-format-guard", 11},
                      {"stream-format-guard", 12}}));
}

TEST(PopanLintTest, StreamFormatGuardSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/sim/demo.cc",
                       ReadFixture("stream_format_guard_suppressed.cc"))
                  .empty());
}

// --- raw-mutex-lock ----------------------------------------------------

TEST(PopanLintTest, RawMutexLockFlagsDirectLockCallsOnly) {
  std::vector<Finding> findings =
      LintText("src/sim/demo.cc", ReadFixture("raw_mutex_lock.cc"));
  // The lock_guard/scoped_lock declarations and the deferred unique_lock's
  // own .lock()/.unlock() (lines 27-28) must not appear; try_lock never
  // matches the rule's word boundaries.
  EXPECT_EQ(RulesAndLines(findings), (Expected{{"raw-mutex-lock", 11},
                                               {"raw-mutex-lock", 12},
                                               {"raw-mutex-lock", 16},
                                               {"raw-mutex-lock", 17},
                                               {"raw-mutex-lock", 32}}));
}

TEST(PopanLintTest, RawMutexLockAppliesOnAnyPath) {
  // Unlike the path-gated rules, mutex discipline holds tree-wide.
  std::vector<Finding> findings =
      LintText("tests/demo.cc", ReadFixture("raw_mutex_lock.cc"));
  EXPECT_EQ(findings.size(), 5u);
}

TEST(PopanLintTest, RawMutexLockSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/sim/demo.cc",
                       ReadFixture("raw_mutex_lock_suppressed.cc"))
                  .empty());
}

// --- raw-simd-intrinsic ------------------------------------------------

TEST(PopanLintTest, RawSimdIntrinsicFlagsX86AndNeonSpellings) {
  std::vector<Finding> findings =
      LintText("src/spatial/demo.cc", ReadFixture("raw_simd_intrinsic.cc"));
  // One finding per offending line; the lookalike identifiers (prefix not
  // at an identifier start, bare prefix with no suffix) stay clean.
  EXPECT_EQ(RulesAndLines(findings), (Expected{{"raw-simd-intrinsic", 8},
                                               {"raw-simd-intrinsic", 9},
                                               {"raw-simd-intrinsic", 13},
                                               {"raw-simd-intrinsic", 14},
                                               {"raw-simd-intrinsic", 15},
                                               {"raw-simd-intrinsic", 19},
                                               {"raw-simd-intrinsic", 20}}));
}

TEST(PopanLintTest, RawSimdIntrinsicAllowedOnlyInSimdHeader) {
  // The dispatch wrapper is the one blessed home; everywhere else —
  // including tests and bench code — the rule applies.
  EXPECT_TRUE(
      LintText("src/util/simd.h", ReadFixture("raw_simd_intrinsic.cc"))
          .empty());
  EXPECT_EQ(
      LintText("bench/demo.cc", ReadFixture("raw_simd_intrinsic.cc")).size(),
      7u);
}

TEST(PopanLintTest, RawSimdIntrinsicSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/spatial/demo.cc",
                       ReadFixture("raw_simd_intrinsic_suppressed.cc"))
                  .empty());
}

// --- unannotated-guarded-member ----------------------------------------

TEST(PopanLintTest, UnannotatedGuardedMemberFlagsMembersOfMutexClasses) {
  std::vector<Finding> findings = LintText(
      "src/sim/demo.cc", ReadFixture("unannotated_guarded_member.cc"));
  // Sync primitives, atomics, thread handles, statics, and annotated
  // members stay clean; the mutex-free struct is skipped entirely.
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"unannotated-guarded-member", 12},
                      {"unannotated-guarded-member", 13},
                      {"unannotated-guarded-member", 30}}));
}

TEST(PopanLintTest, UnannotatedGuardedMemberScopedToConcurrentSubtrees) {
  // Only src/sim, src/server, and src/spatial carry the annotation
  // discipline; analysis helpers and tests are exempt.
  for (const char* path :
       {"src/sim/demo.cc", "src/server/demo.cc", "src/spatial/demo.cc"}) {
    EXPECT_EQ(
        LintText(path, ReadFixture("unannotated_guarded_member.cc")).size(),
        3u)
        << path;
  }
  for (const char* path : {"src/core/demo.cc", "tests/demo.cc", "bench/demo.cc"}) {
    EXPECT_TRUE(
        LintText(path, ReadFixture("unannotated_guarded_member.cc")).empty())
        << path;
  }
}

TEST(PopanLintTest, UnannotatedGuardedMemberSuppressionsSilence) {
  EXPECT_TRUE(
      LintText("src/sim/demo.cc",
               ReadFixture("unannotated_guarded_member_suppressed.cc"))
          .empty());
}

// --- atomic-implicit-ordering ------------------------------------------

TEST(PopanLintTest, AtomicImplicitOrderingFlagsBareAccessors) {
  std::vector<Finding> findings = LintText(
      "src/spatial/demo.cc", ReadFixture("atomic_implicit_ordering.cc"));
  // The explicitly-ordered calls — including the one whose memory_order
  // sits on a continuation line — and std::exchange stay clean.
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"atomic-implicit-ordering", 10},
                      {"atomic-implicit-ordering", 11},
                      {"atomic-implicit-ordering", 12},
                      {"atomic-implicit-ordering", 14}}));
}

TEST(PopanLintTest, AtomicImplicitOrderingAppliesOnAnyPath) {
  // Ordering discipline holds tree-wide, tests and bench included.
  EXPECT_EQ(
      LintText("tests/demo.cc", ReadFixture("atomic_implicit_ordering.cc"))
          .size(),
      4u);
}

TEST(PopanLintTest, AtomicImplicitOrderingSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/spatial/demo.cc",
                       ReadFixture("atomic_implicit_ordering_suppressed.cc"))
                  .empty());
}

// --- raw-thread-spawn --------------------------------------------------

TEST(PopanLintTest, RawThreadSpawnFlagsConstructionContainerAndDetach) {
  std::vector<Finding> findings =
      LintText("src/spatial/demo.cc", ReadFixture("raw_thread_spawn.cc"));
  // hardware_concurrency() (static member) and the reference parameter
  // stay clean.
  EXPECT_EQ(RulesAndLines(findings), (Expected{{"raw-thread-spawn", 7},
                                               {"raw-thread-spawn", 8},
                                               {"raw-thread-spawn", 9}}));
}

TEST(PopanLintTest, RawThreadSpawnAllowedInPoolAndHarnessFiles) {
  // The pool and the storm harness are the sanctioned homes for raw
  // threads.
  for (const char* path :
       {"src/sim/thread_pool.cc", "src/sim/thread_pool.h",
        "src/sim/rw_storm.cc"}) {
    EXPECT_TRUE(LintText(path, ReadFixture("raw_thread_spawn.cc")).empty())
        << path;
  }
  // The traffic simulator drives the server through ConsumeBytes and
  // starts no thread of its own.
  EXPECT_FALSE(LintText("src/server/traffic_sim.cc",
                        ReadFixture("raw_thread_spawn.cc"))
                   .empty());
}

TEST(PopanLintTest, RawThreadSpawnSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/spatial/demo.cc",
                       ReadFixture("raw_thread_spawn_suppressed.cc"))
                  .empty());
}

// --- shard-key-arithmetic ----------------------------------------------

TEST(PopanLintTest, ShardKeyArithmeticFlagsShiftsAndMasks) {
  std::vector<Finding> findings = LintText(
      "src/shard/router.cc", ReadFixture("shard_key_arithmetic.cc"));
  // The lookalikes stay clean: "monkey"/"keyboard" substrings, chained
  // stream insertion, and hash mixing on non-key identifiers.
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"shard-key-arithmetic", 7},
                      {"shard-key-arithmetic", 8},
                      {"shard-key-arithmetic", 9},
                      {"shard-key-arithmetic", 10},
                      {"shard-key-arithmetic", 11},
                      {"shard-key-arithmetic", 12}}));
}

TEST(PopanLintTest, ShardKeyArithmeticAllowedInCodecAndKeyRangeFiles) {
  // The Morton codec, the hash-directory codecs, and the key-range
  // algebra are the sanctioned homes for key bit surgery.
  for (const char* path :
       {"src/spatial/morton.cc", "src/spatial/morton.h",
        "src/spatial/hash_codec.cc", "src/spatial/excell.cc",
        "src/shard/key_range.h", "src/shard/key_range.cc"}) {
    EXPECT_TRUE(
        LintText(path, ReadFixture("shard_key_arithmetic.cc")).empty())
        << path;
  }
}

TEST(PopanLintTest, ShardKeyArithmeticSuppressionsSilence) {
  EXPECT_TRUE(LintText("src/shard/router.cc",
                       ReadFixture("shard_key_arithmetic_suppressed.cc"))
                  .empty());
}

// --- suppression edge cases --------------------------------------------

TEST(PopanLintTest, SuppressionAllowListCoversMultipleRules) {
  // Line 11 violates raw-mutex-lock AND atomic-implicit-ordering; one
  // allow(a, b) comment silences both.
  std::vector<Finding> findings = LintText(
      "src/core/demo.cc", ReadFixture("suppression_edge_cases.cc"));
  for (const auto& [rule, line] : RulesAndLines(findings)) {
    EXPECT_NE(line, 11) << rule;
  }
}

TEST(PopanLintTest, SuppressionUnknownRuleNameIsInert) {
  // allow(no-such-rule, raw-mutex-lock) still silences the known rule
  // (line 16), while allow(no-such-rule) alone silences nothing (line 17).
  std::vector<Finding> findings = LintText(
      "src/core/demo.cc", ReadFixture("suppression_edge_cases.cc"));
  std::vector<std::pair<std::string, int>> got = RulesAndLines(findings);
  EXPECT_NE(std::find(got.begin(), got.end(),
                      std::make_pair(std::string("atomic-implicit-ordering"),
                                     17)),
            got.end());
  for (const auto& [rule, line] : got) EXPECT_NE(line, 16) << rule;
}

TEST(PopanLintTest, SuppressionOnLineAboveCoversOnlyNextLine) {
  // The standalone allow on line 21 covers the lock on line 22 but not
  // the unlock on line 23.
  std::vector<Finding> findings = LintText(
      "src/core/demo.cc", ReadFixture("suppression_edge_cases.cc"));
  EXPECT_EQ(RulesAndLines(findings),
            (Expected{{"atomic-implicit-ordering", 17},
                      {"raw-mutex-lock", 23}}));
}

// --- output format and exit codes --------------------------------------

TEST(PopanLintTest, FindingToStringIsPathLineRuleMessage) {
  Finding f{"determinism-random", "src/core/demo.cc", 42, "boom"};
  EXPECT_EQ(f.ToString(), "src/core/demo.cc:42: [determinism-random] boom");
}

TEST(PopanLintTest, CleanFixtureHasNoFindings) {
  EXPECT_TRUE(
      LintText("src/sim/demo.cc", ReadFixture("clean.cc")).empty());
}

TEST(PopanLintTest, RunLintExitsZeroOnCleanFile) {
  std::ostringstream out;
  EXPECT_EQ(RunLint({FixturePath("clean.cc")}, out), 0);
  EXPECT_NE(out.str().find("popan-lint: clean (1 files)"), std::string::npos)
      << out.str();
}

TEST(PopanLintTest, RunLintExitsOneOnFindingsAndPrintsThem) {
  std::ostringstream out;
  EXPECT_EQ(RunLint({FixturePath("stream_format_guard.cc")}, out), 1);
  // Findings render as path:line: [rule] message, one per line.
  EXPECT_NE(out.str().find(FixturePath("stream_format_guard.cc") +
                           ":11: [stream-format-guard]"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("popan-lint: 2 finding(s) in 1 file(s)"),
            std::string::npos)
      << out.str();
}

TEST(PopanLintTest, RunLintExitsTwoOnMissingFile) {
  std::ostringstream out;
  EXPECT_EQ(RunLint({FixturePath("no_such_fixture.cc")}, out), 2);
  EXPECT_NE(out.str().find("[io-error]"), std::string::npos) << out.str();
}

TEST(PopanLintTest, RunLintExitsTwoWhenRootHasNoLintableFiles) {
  // The fixture directory itself contains no src/bench/tests/tools
  // subtrees, so a walk rooted there finds nothing.
  std::ostringstream out;
  EXPECT_EQ(RunLint({"--root", std::string(POPAN_LINT_FIXTURE_DIR)}, out), 2);
}

TEST(PopanLintTest, RunLintHelpExitsZero) {
  std::ostringstream out;
  EXPECT_EQ(RunLint({"--help"}, out), 0);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(PopanLintTest, CollectFilesSkipsFixtureDirectories) {
  // Walking the real repo root must not pick up this test's corpus of
  // intentional violations.
  std::vector<std::string> files = CollectFiles(POPAN_LINT_REPO_ROOT);
  ASSERT_FALSE(files.empty());
  for (const std::string& f : files) {
    EXPECT_EQ(f.find("fixtures"), std::string::npos) << f;
  }
}

TEST(PopanLintTest, WholeTreeIsCleanAtHead) {
  // The acceptance bar for the whole PR: the tree lints clean. Running it
  // in-process here keeps CI honest even if the workflow forgets the
  // dedicated lint job.
  std::ostringstream out;
  EXPECT_EQ(RunLint({"--root", std::string(POPAN_LINT_REPO_ROOT)}, out), 0)
      << out.str();
}

}  // namespace
}  // namespace popan::lint
