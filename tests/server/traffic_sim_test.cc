// Traffic simulator determinism: the whole point of the counter-based
// RNG streams is that a run's transcripts are a pure function of the
// config, with every request answered exactly once.

#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "server/traffic_sim.h"

namespace popan::server {
namespace {

TrafficConfig BaseConfig(uint64_t seed) {
  TrafficConfig config;
  config.clients = 4;
  config.steps = 48;
  config.seed = seed;
  return config;
}

void ExpectSameResult(const TrafficResult& a, const TrafficResult& b) {
  EXPECT_EQ(a.combined_checksum, b.combined_checksum);
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.total_notifications, b.total_notifications);
  EXPECT_EQ(a.final_size, b.final_size);
  EXPECT_EQ(a.final_sequence, b.final_sequence);
  ASSERT_EQ(a.transcripts.size(), b.transcripts.size());
  for (size_t c = 0; c < a.transcripts.size(); ++c) {
    EXPECT_EQ(a.transcripts[c].request_checksum,
              b.transcripts[c].request_checksum) << "client " << c;
    EXPECT_EQ(a.transcripts[c].response_checksum,
              b.transcripts[c].response_checksum) << "client " << c;
    EXPECT_EQ(a.transcripts[c].notification_checksum,
              b.transcripts[c].notification_checksum) << "client " << c;
    EXPECT_EQ(a.transcripts[c].responses_error,
              b.transcripts[c].responses_error) << "client " << c;
    EXPECT_EQ(a.transcripts[c].notifications,
              b.transcripts[c].notifications) << "client " << c;
  }
}

TEST(TrafficSimTest, RunTouchesEveryRequestKind) {
  TrafficConfig config = BaseConfig(7);
  config.steps = 128;
  TrafficResult result = RunTraffic(config);
  EXPECT_EQ(result.total_requests, config.clients * config.steps);
  EXPECT_GT(result.total_notifications, 0u);
  EXPECT_GT(result.final_size, 0u);
  EXPECT_GT(result.final_sequence, result.final_size);  // erases happened
  uint64_t ok = 0;
  for (const ClientTranscript& t : result.transcripts) {
    EXPECT_EQ(t.requests, config.steps);
    ok += t.responses_ok;
  }
  EXPECT_GT(ok, 0u);
}

TEST(TrafficSimTest, SameSeedSameResult) {
  TrafficResult a = RunTraffic(BaseConfig(42));
  TrafficResult b = RunTraffic(BaseConfig(42));
  ExpectSameResult(a, b);
}

TEST(TrafficSimTest, SeedSweepMatrix) {
  // The CI server job's determinism matrix: POPAN_TRAFFIC_SEEDS seeds
  // (default 4 locally, 64 in CI) x {1, 4, 16} clients, two runs of each
  // bit-identical, every request answered exactly once.
  size_t seeds = 4;
  if (const char* env = std::getenv("POPAN_TRAFFIC_SEEDS")) {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) seeds = parsed;
  }
  for (uint64_t seed = 0; seed < seeds; ++seed) {
    for (size_t clients : {1u, 4u, 16u}) {
      TrafficConfig config;
      config.clients = clients;
      config.steps = 32;
      config.seed = seed;
      TrafficResult reference = RunTraffic(config);
      TrafficResult again = RunTraffic(config);
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " clients " << clients);
      ExpectSameResult(reference, again);
      for (const ClientTranscript& t : reference.transcripts) {
        EXPECT_EQ(t.responses_ok + t.responses_error, t.requests);
      }
    }
  }
}

TEST(TrafficSimTest, DifferentSeedsDiverge) {
  TrafficResult a = RunTraffic(BaseConfig(1));
  TrafficResult b = RunTraffic(BaseConfig(2));
  EXPECT_NE(a.combined_checksum, b.combined_checksum);
}

TEST(TrafficSimTest, ClientCountChangesTraffic) {
  TrafficConfig one = BaseConfig(5);
  one.clients = 1;
  TrafficConfig many = BaseConfig(5);
  many.clients = 8;
  TrafficResult a = RunTraffic(one);
  TrafficResult b = RunTraffic(many);
  EXPECT_EQ(a.total_requests, one.steps);
  EXPECT_EQ(b.total_requests, many.clients * many.steps);
  EXPECT_NE(a.combined_checksum, b.combined_checksum);
}

}  // namespace
}  // namespace popan::server
