// Query-server bench: the seeded traffic simulator driven end to end
// (wire encode -> ServerCore::ConsumeBytes -> snapshot reads and writes
// -> notifications) at several client scales. Every transcript field is
// a pure function of (seed, config), so the checksums and final state
// are gated exactly against bench/results/BENCH_server.json;
// requests/s is reported ungated.
//
//   POPAN_SERVER_STEPS    requests per client     (default 256)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "server/traffic_sim.h"
#include "sim/bench_json.h"
#include "sim/table.h"
#include "util/status.h"

namespace {

using popan::server::RunTraffic;
using popan::server::TrafficConfig;
using popan::server::TrafficResult;
using popan::sim::BenchJson;
using popan::sim::TextTable;
using popan::sim::WallTimer;

size_t EnvOr(const char* name, size_t fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<size_t>(parsed);
    }
  }
  return fallback;
}

}  // namespace

int main() {
  const size_t kSteps = EnvOr("POPAN_SERVER_STEPS", 256);
  const uint64_t kSeed = 1987;
  const std::vector<size_t> kClients = {1, 4, 16};

  std::printf("Server traffic bench: %zu steps/client, seed %llu\n\n",
              kSteps, static_cast<unsigned long long>(kSeed));

  BenchJson json("server");
  json.Add("steps_per_client", static_cast<uint64_t>(kSteps));
  std::vector<std::string> gate_fields;

  TextTable table("Simulated clients vs one command thread");
  table.SetHeader({"clients", "requests", "notifications", "req/s",
                   "final size", "checksum"});

  for (size_t clients : kClients) {
    TrafficConfig config;
    config.clients = clients;
    config.steps = kSteps;
    config.seed = kSeed;
    WallTimer timer;
    TrafficResult result = RunTraffic(config);
    double seconds = timer.Seconds();
    double rps = static_cast<double>(result.total_requests) / seconds;

    char checksum_hex[32];
    std::snprintf(checksum_hex, sizeof(checksum_hex), "%016llx",
                  static_cast<unsigned long long>(result.combined_checksum));
    table.AddRow({std::to_string(clients),
                  std::to_string(result.total_requests),
                  std::to_string(result.total_notifications),
                  TextTable::Fmt(rps, 0),
                  std::to_string(result.final_size),
                  std::string(checksum_hex)});

    std::string tag = "c";
    tag += std::to_string(clients);
    json.Add("requests_" + tag, result.total_requests)
        .Add("notifications_" + tag, result.total_notifications)
        .Add("final_size_" + tag, result.final_size)
        .Add("final_sequence_" + tag, result.final_sequence)
        .Add("checksum_" + tag, result.combined_checksum)
        .Add("requests_per_sec_" + tag, rps);
    gate_fields.insert(gate_fields.end(),
                       {"requests_" + tag, "notifications_" + tag,
                        "final_size_" + tag, "final_sequence_" + tag,
                        "checksum_" + tag});
  }

  std::printf("%s\n", table.Render().c_str());

  json.WriteFile();
  popan::Status gate = GateAgainstReference(json, gate_fields);
  if (!gate.ok()) {
    std::fprintf(stderr, "reference gate FAILED: %s\n",
                 gate.message().c_str());
    return 1;
  }
  return 0;
}
