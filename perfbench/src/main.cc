// popan_perf: the wire-level load generator and benchmark for popan_server.
//
//   popan_perf run --workload NAME --seed N --seconds S --trace 0|1
//                  --server PATH --tmp DIR [--spans-dir DIR]
//                  [--git-rev REV] [--source-digest HEX]
//   popan_perf selftest-pause --server PATH --tmp DIR
//   popan_perf selftest-order
//
// `run` with --trace 0 starts the real server kSetups times (set-up is timed
// each time; the last one serves the load), drives the mix and prints the
// end-to-end metrics. With --trace 1 it makes one such run for the
// /proc and client-side layer counters, then a traced run of the same
// seed and load against SocketServer + ServerCore hosted in this process
// over a timing decorator, then the socketless replays, and prints the
// per-layer metrics. Every result ends with a `RECORD {json}` line that
// carries the provenance. Exit code 1 means a correctness check failed.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "loadgen.h"
#include "query/query.h"
#include "server_child.h"
#include "spatial/pr_tree.h"
#include "stats.h"
#include "trace.h"
#include "util/simd.h"
#include "wire.h"
#include "workload.h"

#ifndef POPAN_PERF_BUILD_TYPE
#define POPAN_PERF_BUILD_TYPE "unknown"
#endif

namespace popan::perfbench {
namespace {

using server::MsgType;

/// The whole process is bounded: a run that hangs is killed with its
/// server child.
constexpr unsigned kWatchdogSeconds = 170;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string tmp;
  std::string spans_dir;
  std::string git_rev = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--tmp") {
      args->tmp = value;
    } else if (flag == "--spans-dir") {
      args->spans_dir = value;
    } else if (flag == "--git-rev") {
      args->git_rev = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->seconds > 0.0;
}

void OnFatalSignal(int sig) {
  KillAllServerChildren();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

/// A flat JSON object, keys in insertion order.
class Json {
 public:
  Json& Num(const std::string& key, double value) {
    std::ostringstream out;
    out.precision(17);
    out << value;
    return Raw(key, out.str());
  }
  Json& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Us(double ns) { return ns * 1e-3; }

template <typename T>
double QuantileUs(std::vector<T> values, double q) {
  return Us(Quantile(&values, q));
}

/// One run against the real popan_server binary.
struct RealRun {
  std::vector<double> setup_s;
  LoadResult load;
  ProcSample before;
  ProcSample after;
  std::vector<std::string> violations;
  std::string flags;
};

RealRun RunRealServer(const Args& args, const WorkloadSpec& spec,
                      const std::vector<geo::Point2>& preload, int setups) {
  RealRun run;
  std::unique_ptr<ServerChild> child;
  std::string dir;
  for (int k = 0; k < setups; ++k) {
    if (child) {
      child->Kill();
      std::filesystem::remove_all(dir);
    }
    dir = args.tmp + "/server-" + std::to_string(k);
    std::filesystem::create_directories(dir);
    std::vector<std::string> flags = ServerFlags(spec, dir);
    run.flags.clear();
    for (const std::string& f : ServerFlags(spec, "<tmp>")) {
      run.flags += (run.flags.empty() ? "" : " ") + f;
    }
    int64_t start = NowNs();
    int64_t deadline = start + 60'000'000'000LL;
    StatusOr<std::unique_ptr<ServerChild>> spawned =
        ServerChild::Spawn(args.server, flags, deadline);
    if (!spawned.ok()) {
      run.violations.push_back("server start: " + spawned.status().ToString());
      return run;
    }
    child = std::move(spawned).value();
    std::string error;
    if (!Preload(child->port(), preload, deadline, &error)) {
      run.violations.push_back(error);
      return run;
    }
    run.setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  StatusOr<ProcSample> before = ReadProc(child->pid());
  LoadOptions options;
  options.seconds = args.seconds;
  run.load = RunLoad(spec, args.seed, child->port(), preload.size(),
                     DealPreload(preload, spec.connections), options);
  StatusOr<ProcSample> after = ReadProc(child->pid());
  if (!child->Alive()) {
    run.violations.push_back("the server exited during the run");
  }
  if (before.ok() && after.ok()) {
    run.before = before.value();
    run.after = after.value();
  } else {
    run.violations.push_back("cannot read the server's /proc counters");
  }
  child->Kill();
  std::filesystem::remove_all(dir);
  return run;
}

/// range_scan: the sampled responses must equal query::Execute on a
/// PrQuadtree built in this process from the same seeded points.
void CheckOracle(const std::vector<geo::Point2>& preload,
                 const std::vector<ReadSample>& samples,
                 std::vector<std::string>* violations) {
  if (samples.empty()) return;
  spatial::PrTreeOptions options;
  options.capacity = 4;
  options.max_depth = 16;
  spatial::PrQuadtree tree(geo::Box2::UnitCube(1.0), options);
  for (const geo::Point2& p : preload) {
    if (!tree.Insert(p).ok()) {
      violations->push_back("oracle could not insert a preload point");
      return;
    }
  }
  size_t mismatches = 0;
  for (const ReadSample& sample : samples) {
    const server::Request& r = sample.request;
    query::QuerySpec spec;
    if (r.type == MsgType::kRange) {
      spec = query::QuerySpec::Range(r.box);
    } else if (r.type == MsgType::kPartialMatch) {
      spec = query::QuerySpec::PartialMatch(r.axis, r.value);
    } else {
      spec = query::QuerySpec::NearestK(r.point, r.k);
    }
    query::QueryResult expected = query::Execute(tree, spec);
    if (expected.points != sample.response.points ||
        expected.cost != sample.response.cost) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    violations->push_back(std::to_string(mismatches) + " of " +
                          std::to_string(samples.size()) +
                          " sampled reads differ from the oracle");
  }
}

std::string Provenance(const Args& args, const WorkloadSpec& spec,
                       const std::string& flags) {
  Json json;
  json.Num("host_cpus", std::thread::hardware_concurrency())
      .Str("simd_isa", simd::IsaName())
      .Str("compiler", std::string("gcc-compatible ") + __VERSION__)
      .Str("build_type", POPAN_PERF_BUILD_TYPE)
      .Str("git_rev", args.git_rev)
      .Str("source_digest", args.source_digest)
      .Num("seed", static_cast<double>(args.seed));
  Json constants;
  constants.Str("workload", spec.name)
      .Str("server_flags", "--port 0" + (flags.empty() ? "" : " " + flags))
      .Num("preload_points", static_cast<double>(spec.preload))
      .Str("data", spec.clustered ? "8 gaussian clusters, sigma 0.03"
                                  : "uniform")
      .Num("connections", static_cast<double>(spec.connections))
      .Str("loop", spec.loop == Loop::kOpen ? "open" : "closed")
      .Num("window", static_cast<double>(spec.window))
      .Num("rate_rps", spec.rate_rps)
      .Num("subscriptions_per_connection",
           static_cast<double>(spec.subscriptions_per_connection))
      .Num("warmup_s", LoadOptions().warmup_s)
      .Num("measure_s", args.seconds)
      .Num("setups", args.trace ? 1 : kSetups);
  json.Raw("constants", constants.str());
  return json.str();
}

void Emit(const Args& args, const WorkloadSpec& spec, const std::string& flags,
          const std::vector<Metric>& metrics, const LoadResult& load,
          const std::vector<std::string>& violations,
          const std::vector<std::pair<std::string, double>>& extra) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [name, value] : extra) {
    std::printf("info   %-40s %.6g\n", name.c_str(), value);
  }
  for (const std::string& e : load.errors) {
    std::printf("error  %s\n", e.c_str());
  }
  for (const std::string& v : violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }
  Json metric_json;
  for (const Metric& m : metrics) {
    Json one;
    one.Num("value", m.value).Str("unit", m.unit);
    metric_json.Raw(m.name, one.str());
  }
  Json info;
  for (const auto& [name, value] : extra) info.Num(name, value);
  Json record;
  record.Str("workload", spec.name)
      .Num("trace", args.trace ? 1 : 0)
      .Raw("correct", violations.empty() ? "true" : "false")
      .Num("attempted", static_cast<double>(load.attempted))
      .Num("failed", static_cast<double>(load.failed))
      .Raw("metrics", metric_json.str())
      .Raw("info", info.str())
      .Raw("provenance", Provenance(args, spec, flags));
  std::printf("RECORD %s\n", record.str().c_str());
  std::fflush(stdout);
}

/// Client-side and /proc figures of a real-server run.
struct ClientFigures {
  double throughput_rps;
  double p50_us;
  double p99_us;
  double failed_frac;
};

size_t SliceCount(const LoadResult& load) {
  return static_cast<size_t>(std::ceil(load.window_s * 1e9 / kSliceNs));
}

/// The q-quantile of each kSliceNs slice of the window, then the
/// interquartile mean over the slices: a stall or a noisy neighbour that
/// hits a few slices shows in the whole-window tail
/// (loadgen.latency_p999_us) but cannot swing this.
double SliceQuantileUs(const LoadResult& load, double q) {
  std::vector<std::vector<int64_t>> slices(SliceCount(load));
  for (size_t i = 0; i < load.latency_ns.size(); ++i) {
    if (load.latency_slice[i] < slices.size()) {
      slices[load.latency_slice[i]].push_back(load.latency_ns[i]);
    }
  }
  std::vector<double> per_slice;
  for (std::vector<int64_t>& slice : slices) {
    if (!slice.empty()) per_slice.push_back(Us(Quantile(&slice, q)));
  }
  return InterquartileMean(per_slice);
}

/// Successful responses per second in each slice, interquartile mean
/// over the slices.
double SliceRps(const LoadResult& load) {
  std::vector<double> rates(SliceCount(load), 0.0);
  for (uint32_t slice : load.latency_slice) {
    if (slice < rates.size()) rates[slice] += 1e9 / kSliceNs;
  }
  return InterquartileMean(rates);
}

ClientFigures Figures(const LoadResult& load) {
  ClientFigures f;
  f.throughput_rps = SliceRps(load);
  f.p50_us = SliceQuantileUs(load, 0.50);
  f.p99_us = SliceQuantileUs(load, 0.99);
  f.failed_frac =
      Ratio(static_cast<double>(load.failed), static_cast<double>(load.attempted));
  return f;
}

int RunUntraced(const Args& args, const WorkloadSpec& spec) {
  std::vector<geo::Point2> preload = PreloadPoints(spec, args.seed);
  RealRun run = RunRealServer(args, spec, preload, kSetups);
  std::vector<std::string> violations = run.violations;
  violations.insert(violations.end(), run.load.violations.begin(),
                    run.load.violations.end());
  if (spec.name == "range_scan") CheckOracle(preload, run.load.oracle, &violations);
  ClientFigures f = Figures(run.load);
  std::vector<Metric> metrics = {
      {"throughput_rps", f.throughput_rps, "1/s"},
      {"latency_p50_us", f.p50_us, "us"},
      {"latency_p99_us", f.p99_us, "us"},
      {"setup_s", Median(run.setup_s), "s"},
      {"server_rss_mb", run.after.peak_rss_mb, "MB"},
  };
  std::vector<std::pair<std::string, double>> extra = {
      {"failed_frac", f.failed_frac},
      {"latency_samples", static_cast<double>(run.load.latency_ns.size())},
      {"throughput_window_rps",
       Ratio(static_cast<double>(run.load.ok_in_window), run.load.window_s)},
      {"latency_p50_window_us", QuantileUs(run.load.latency_ns, 0.5)},
      {"latency_p99_window_us", QuantileUs(run.load.latency_ns, 0.99)},
      {"latency_p999_window_us", QuantileUs(run.load.latency_ns, 0.999)},
      {"setup_runs", static_cast<double>(run.setup_s.size())},
      {"final_size", static_cast<double>(run.load.final_size)},
      {"oracle_samples", static_cast<double>(run.load.oracle.size())},
  };
  Emit(args, spec, run.flags, metrics, run.load, violations, extra);
  return violations.empty() ? 0 : 1;
}

void WriteSpans(const std::string& path, std::vector<Span>* spans,
                const LoadResult& load) {
  std::unordered_map<uint64_t, uint64_t> by_seq(load.write_ids.begin(),
                                                load.write_ids.end());
  std::unordered_map<uint64_t, uint64_t> by_key(load.read_ids.begin(),
                                                load.read_ids.end());
  std::ofstream out(path, std::ios::trunc);
  out << "name\tstart_ns\tend_ns\tparent\trequest_id\n";
  for (Span& span : *spans) {
    bool write = span.kind == SpanKind::kApplyInsert ||
                 span.kind == SpanKind::kApplyErase;
    const auto& index = write ? by_seq : by_key;
    auto it = index.find(span.key);
    if (it != index.end()) span.request_id = it->second;
    out << SpanName(span.kind) << '\t' << span.start_ns << '\t'
        << span.end_ns << '\t' << span.parent << '\t' << span.request_id
        << '\n';
  }
}

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  std::vector<geo::Point2> preload = PreloadPoints(spec, args.seed);

  // (a) The real server: /proc counters and client-side layer figures.
  RealRun real = RunRealServer(args, spec, preload, 1);
  std::vector<std::string> violations = real.violations;
  violations.insert(violations.end(), real.load.violations.begin(),
                    real.load.violations.end());
  if (spec.name == "range_scan") CheckOracle(preload, real.load.oracle, &violations);
  const LoadResult& a = real.load;
  ClientFigures fa = Figures(a);
  const double requests = static_cast<double>(a.attempted);

  // (b) The traced in-process server, same seed and load.
  Tracer tracer;
  BackendCounters counters;
  LoadResult b;
  uint64_t wal_bytes = 0;
  uint64_t shards_end = 0;
  {
    std::string dir = args.tmp + "/inproc";
    std::filesystem::create_directories(dir);
    StatusOr<std::unique_ptr<TracedStore>> store =
        BuildTracedStore(spec, dir, &tracer);
    if (!store.ok()) {
      std::fprintf(stderr, "traced store: %s\n", store.status().ToString().c_str());
      return 2;
    }
    std::string wal_path = store.value()->wal_path;
    StatusOr<std::unique_ptr<InProcessServer>> server =
        InProcessServer::Start(std::move(store).value());
    if (!server.ok()) {
      std::fprintf(stderr, "in-process server: %s\n",
                   server.status().ToString().c_str());
      return 2;
    }
    uint64_t wal_header = wal_path.empty() ? 0 : std::filesystem::file_size(wal_path);
    std::string error;
    if (!Preload(server.value()->port(), preload, NowNs() + 60'000'000'000LL,
                 &error)) {
      violations.push_back("traced preload: " + error);
    } else {
      LoadOptions options;
      options.seconds = args.seconds;
      options.record = true;
      options.on_window = [&tracer](int64_t start, int64_t end) {
        tracer.SetWindow(start, end);
      };
      b = RunLoad(spec, args.seed, server.value()->port(), preload.size(),
                  DealPreload(preload, spec.connections), options);
      violations.insert(violations.end(), b.violations.begin(),
                        b.violations.end());
    }
    server.value()->Stop();
    counters = server.value()->store().backend->counters();
    if (const shard::ShardRouter* router = server.value()->store().router) {
      shards_end = router->shard_count();
    }
    if (!wal_path.empty()) {
      wal_bytes = std::filesystem::file_size(wal_path) - wal_header;
    }
    server.value().reset();
    std::filesystem::remove_all(dir);
  }
  ClientFigures fb = Figures(b);

  // (c) Socketless replays of what (b) recorded.
  Tracer replay_tracer;
  std::string replay_dir = args.tmp + "/replay";
  std::filesystem::create_directories(replay_dir);
  StatusOr<ConsumeReplay> consume =
      ReplayConsume(spec, replay_dir, preload, b.frames, &replay_tracer);
  if (!consume.ok()) {
    violations.push_back("consume replay: " + consume.status().ToString());
  }
  ConsumeReplay c = consume.ok() ? consume.value() : ConsumeReplay{};
  double decode_ns = ReplayDecodeNs(b.frames);
  double encode_ns = ReplayEncodeNs(b.responses);
  double wal_append_us =
      spec.wal ? ReplayWalAppendUs(b.frames, replay_dir + "/append.wal") : 0.0;
  double match_ns = ReplayMatchNs(b.frames, b.boxes);
  std::filesystem::remove_all(replay_dir);

  double consume_us = Us(Ratio(c.consume_ns, static_cast<double>(c.requests)));
  double subs_ns = spec.subscriptions_per_connection > 0
                       ? match_ns * static_cast<double>(c.point_writes)
                       : 0.0;
  double self_us = Us(Ratio(c.consume_ns - c.store_ns - subs_ns,
                            static_cast<double>(c.requests)));

  auto d = [&tracer](SpanKind kind) -> const std::vector<int64_t>& {
    return tracer.durations(kind);
  };
  std::vector<int64_t> applies = d(SpanKind::kApplyInsert);
  applies.insert(applies.end(), d(SpanKind::kApplyErase).begin(),
                 d(SpanKind::kApplyErase).end());
  double window_writes = static_cast<double>(counters.window_writes);
  double a_point_writes = static_cast<double>(a.point_writes_in_window);

  std::vector<Metric> metrics = {
      {"socket_server.syscalls_per_req",
       Ratio(static_cast<double>(real.after.syscalls - real.before.syscalls), requests),
       "count"},
      {"socket_server.wakeups_per_req",
       Ratio(static_cast<double>(real.after.voluntary_switches -
                                 real.before.voluntary_switches),
             requests),
       "count"},
      {"socket_server.bytes_out_per_req",
       Ratio(static_cast<double>(a.bytes_in_window),
             static_cast<double>(a.ok_in_window)),
       "B"},
      {"socket_server.self_us_p50", fa.p50_us - consume_us, "us"},
      {"protocol.decode_request_ns", decode_ns, "ns"},
      {"protocol.encode_response_ns", encode_ns, "ns"},
      {"server_core.consume_us_per_req", consume_us, "us"},
      {"server_core.self_us_per_req", self_us, "us"},
      {"store.apply_insert_us_p50", QuantileUs(d(SpanKind::kApplyInsert), 0.5), "us"},
      {"store.apply_insert_us_p99", QuantileUs(d(SpanKind::kApplyInsert), 0.99), "us"},
      {"store.apply_erase_us_p50", QuantileUs(d(SpanKind::kApplyErase), 0.5), "us"},
      {"store.apply_max_ms", QuantileUs(applies, 1.0) * 1e-3, "ms"},
      {"store.prepare_read_us_p50", QuantileUs(d(SpanKind::kPrepareRead), 0.5), "us"},
      {"store.range_us_p50", QuantileUs(d(SpanKind::kRange), 0.5), "us"},
      {"store.range_us_p99", QuantileUs(d(SpanKind::kRange), 0.99), "us"},
      {"store.knn_us_p50", QuantileUs(d(SpanKind::kNearestK), 0.5), "us"},
      {"store.partial_us_p50", QuantileUs(d(SpanKind::kPartialMatch), 0.5), "us"},
      {"store.pin_failures", static_cast<double>(counters.pin_failures), "count"},
      {"epoch.retired_per_write",
       Ratio(static_cast<double>(counters.retired), window_writes), "count"},
      {"epoch.versions_per_write",
       Ratio(static_cast<double>(counters.versions), window_writes), "count"},
      {"epoch.limbo_peak", static_cast<double>(counters.limbo_peak), "count"},
      {"wal.bytes_per_write",
       Ratio(static_cast<double>(wal_bytes), static_cast<double>(counters.writes)),
       "B"},
      {"wal.append_us", wal_append_us, "us"},
      {"query.nodes_per_read", Ratio(a.nodes, static_cast<double>(a.reads)), "count"},
      {"query.results_per_read", Ratio(a.results, static_cast<double>(a.reads)),
       "count"},
      {"query.points_scanned_per_result", Ratio(a.scanned, a.results), "ratio"},
      {"query.cost_vs_model", Ratio(a.model_nodes, a.predicted_nodes), "ratio"},
      {"router.shards_end", static_cast<double>(shards_end), "count"},
      {"router.splits", static_cast<double>(counters.splits), "count"},
      {"router.merges", static_cast<double>(counters.merges), "count"},
      {"router.fanout_per_read",
       Ratio(static_cast<double>(counters.fanout),
             static_cast<double>(counters.range_reads)),
       "count"},
      {"subscriptions.notifications_per_write",
       Ratio(static_cast<double>(a.notifications_in_window), a_point_writes),
       "count"},
      {"subscriptions.match_ns", match_ns, "ns"},
      {"subscriptions.delivery_us_p50", QuantileUs(a.delivery_ns, 0.5), "us"},
      {"process.cpu_us_per_req",
       Ratio((real.after.cpu_s - real.before.cpu_s) * 1e6, requests), "us"},
      {"loadgen.late_us_p99", QuantileUs(a.late_ns, 0.99), "us"},
      {"loadgen.cpu_us_per_req", Ratio(a.loadgen_cpu_s * 1e6, requests), "us"},
      {"loadgen.latency_p999_us", QuantileUs(a.latency_ns, 0.999), "us"},
      {"trace.overhead_frac", 1.0 - Ratio(fb.throughput_rps, fa.throughput_rps),
       "ratio"},
  };
  std::vector<std::pair<std::string, double>> extra = {
      {"throughput_rps_untraced", fa.throughput_rps},
      {"throughput_rps_traced", fb.throughput_rps},
      {"failed_frac", fa.failed_frac},
      {"latency_samples", static_cast<double>(a.latency_ns.size())},
      {"replayed_requests", static_cast<double>(c.requests)},
      {"spans", static_cast<double>(tracer.spans().size())},
  };
  if (!args.spans_dir.empty()) {
    std::filesystem::create_directories(args.spans_dir);
    WriteSpans(args.spans_dir + "/" + spec.name + ".spans.tsv", &tracer.spans(), b);
    WriteSpans(args.spans_dir + "/" + spec.name + ".replay.spans.tsv",
               &replay_tracer.spans(), LoadResult{});
  }
  LoadResult totals = a;
  totals.attempted += b.attempted;
  totals.failed += b.failed;
  Emit(args, spec, real.flags, metrics, totals, violations, extra);
  return violations.empty() ? 0 : 1;
}

/// Self-test: the server child is stopped for a fixed pause during an
/// open-loop run. Latency from the intended send time must include the
/// pause, while the generator's own lateness stays small.
int SelfTestPause(const Args& args) {
  WorkloadSpec spec = *FindWorkload("mixed_sharded");
  spec.preload = 1 << 14;
  spec.loop = Loop::kOpen;
  spec.rate_rps = 2500.0;
  std::vector<geo::Point2> preload = PreloadPoints(spec, 7);
  std::filesystem::create_directories(args.tmp);
  StatusOr<std::unique_ptr<ServerChild>> child = ServerChild::Spawn(
      args.server, ServerFlags(spec, args.tmp), NowNs() + 30'000'000'000LL);
  if (!child.ok()) {
    std::fprintf(stderr, "%s\n", child.status().ToString().c_str());
    return 2;
  }
  std::string error;
  if (!Preload(child.value()->port(), preload, NowNs() + 30'000'000'000LL,
               &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  LoadOptions options;
  options.warmup_s = 0.5;
  options.seconds = 3.0;
  options.pause_pid = child.value()->pid();
  options.pause_at_s = 1.5;
  options.pause_ms = 300.0;
  LoadResult r = RunLoad(spec, 7, child.value()->port(), preload.size(),
                         DealPreload(preload, spec.connections), options);
  child.value()->Kill();
  Json json;
  json.Num("pause_ms", options.pause_ms)
      .Num("latency_p99_us", QuantileUs(r.latency_ns, 0.99))
      .Num("latency_max_us", QuantileUs(r.latency_ns, 1.0))
      .Num("send_latency_p99_us", QuantileUs(r.send_latency_ns, 0.99))
      .Num("late_us_p99", QuantileUs(r.late_ns, 0.99))
      .Num("attempted", static_cast<double>(r.attempted))
      .Num("failed", static_cast<double>(r.failed))
      .Num("violations", static_cast<double>(r.violations.size()));
  std::printf("%s\n", json.str().c_str());
  return 0;
}

/// Self-test: responses that come back out of request order are caught.
int SelfTestOrder() {
  std::deque<Pending> pending;
  Pending insert;
  insert.type = MsgType::kInsert;
  Pending range;
  range.type = MsgType::kRange;
  pending.push_back(insert);
  pending.push_back(range);
  server::Response range_response;
  range_response.type = server::ResponseTypeFor(MsgType::kRange);
  server::Response insert_response;
  insert_response.type = server::ResponseTypeFor(MsgType::kInsert);
  std::string swapped = server::EncodeResponseFrame(range_response) +
                        server::EncodeResponseFrame(insert_response);
  Connection conn(-1);
  conn.Inject(swapped);
  std::string_view payload;
  Status error;
  bool got = conn.NextPayload(&payload, &error);
  bool caught = got && Classify(payload, pending) == FrameKind::kUnexpected;
  // The same frames in request order pass.
  std::string_view second;
  bool in_order = conn.NextPayload(&second, &error) &&
                  Classify(second, pending) == FrameKind::kResponse;
  std::printf("{\"out_of_order_caught\": %s, \"in_order_accepted\": %s}\n",
              caught ? "true" : "false", in_order ? "true" : "false");
  return caught && in_order ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: popan_perf run --workload NAME --seed N --seconds S "
                 "--trace 0|1 --server PATH --tmp DIR\n"
                 "       popan_perf selftest-pause --server PATH --tmp DIR\n"
                 "       popan_perf selftest-order\n");
    return 2;
  }
  std::signal(SIGALRM, OnFatalSignal);
  std::signal(SIGTERM, OnFatalSignal);
  std::signal(SIGINT, OnFatalSignal);
  std::signal(SIGPIPE, SIG_IGN);
  ::alarm(kWatchdogSeconds);
  if (args.mode == "selftest-order") return SelfTestOrder();
  if (args.server.empty() || args.tmp.empty()) return 2;
  if (args.mode == "selftest-pause") return SelfTestPause(args);
  if (args.mode != "run") return 2;
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? RunTraced(args, *spec) : RunUntraced(args, *spec);
}

}  // namespace
}  // namespace popan::perfbench

int main(int argc, char** argv) { return popan::perfbench::Main(argc, argv); }
