// Session benchmark: drives `SaqlEngine::Session` the way a deployment
// does — un-interned agent batches pushed into a live session, each
// followed by a watermark advance, then Close — over one of four
// workloads, checks the alerts against references computed without the
// engine, and prints one JSON result line.
//
//   session_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Run from the root of a checkout: queries are read from `queries/`,
// scratch files go to `.bench_run/<workload>-<pid>/` (removed at exit) and
// traces to `.bench_traces/`. See README.md for the workloads and metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "collect/enterprise_sim.h"

namespace sessionbench {
namespace {

namespace fs = std::filesystem;

struct Workload {
  const char* name;
  size_t shards;
  bool record;
  bool fleet;
};

constexpr Workload kWorkloads[] = {
    {"apt-direct", 1, false, false},
    {"apt-sharded", 2, false, false},
    {"apt-recorded", 1, true, false},
    {"tenant-fleet", 1, false, true},
};

/// The checked-in corpus: the paper's Queries 1-4 and the APT demo's
/// seven queries. Names are the ones alerts and metrics carry.
constexpr const char* kCorpus[][2] = {
    {"query1", "query1_rule.saql"},
    {"query2", "query2_timeseries.saql"},
    {"query3", "query3_invariant.saql"},
    {"query4", "query4_outlier.saql"},
    {"r1", "apt/r1_initial_compromise.saql"},
    {"r2", "apt/r2_malware_infection.saql"},
    {"r3", "apt/r3_privilege_escalation.saql"},
    {"r4", "apt/r4_penetration.saql"},
    {"a6", "apt/a6_invariant_excel.saql"},
    {"a7", "apt/a7_timeseries_network.saql"},
    {"a8", "apt/a8_outlier_dbscan.saql"},
};

// The APT feed: the paper's demo enterprise at 20 workstations (24 hosts,
// 20 events/s each) over 30 simulated minutes, so query2's three 10-minute
// windows and the invariant models' training windows fill.
constexpr int kAptWorkstations = 20;
constexpr int kAptMinutes = 30;

// The tenant fleet: 512 tenant queries in 4 shapes over a stream whose
// subjects cycle 160 tenant executables.
constexpr int kTenantQueries = 512;
constexpr int kTenantExes = 160;
constexpr size_t kFleetEvents = 300000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have[2] = !value.empty() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return argc == 9 && have[0] && have[1] && have[2] && have[3];
}

bool LoadCorpus(std::vector<NamedQuery>* out) {
  for (const auto& [name, file] : kCorpus) {
    std::ifstream in(std::string("queries/") + file);
    if (!in) {
      std::cerr << "cannot read queries/" << file
                << " (run from the root of a checkout)\n";
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    out->push_back({name, text.str()});
  }
  return true;
}

Input BuildAptInput(uint64_t seed, const std::vector<NamedQuery>& corpus,
                    Trace* trace) {
  saql::EnterpriseSimulator::Options opts;
  opts.num_workstations = kAptWorkstations;
  opts.duration = kAptMinutes * saql::kMinute;
  opts.seed = seed;
  saql::EnterpriseSimulator sim(opts);
  Input in;
  {
    Trace::Scope span(trace, "collect.generate");
    in.feed = sim.Generate();
  }
  in.queries = corpus;
  AptTruth truth;
  truth.steps = sim.attack_steps();
  truth.attack_start = opts.start + opts.attack_offset;
  truth.attacker_ip = opts.attack.attacker_ip;
  truth.dump_bytes = opts.attack.dump_bytes;
  in.apt = std::move(truth);
  return in;
}

/// 512 stateless tenant queries over 4 structural shapes (128 each):
/// exact exe_name equality, equality plus a numeric pid residual, and a
/// LIKE prefix on the executable — the member-matching mix of a
/// multi-tenant deployment.
std::vector<TenantSpec> TenantSpecs() {
  static const std::pair<saql::EventOp, saql::EntityType> kShapes[4] = {
      {saql::EventOp::kWrite, saql::EntityType::kNetwork},
      {saql::EventOp::kRead, saql::EntityType::kFile},
      {saql::EventOp::kWrite, saql::EntityType::kFile},
      {saql::EventOp::kStart, saql::EntityType::kProcess},
  };
  std::vector<TenantSpec> out;
  for (int i = 0; i < kTenantQueries; ++i) {
    const int tenant = i / 4;
    TenantSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.op = kShapes[i % 4].first;
    spec.object = kShapes[i % 4].second;
    spec.like = tenant % 4 == 3;
    spec.exe = "tenant" + std::to_string(tenant) + (spec.like ? "%" : ".exe");
    if (tenant % 4 == 1) spec.pid_above = 1000;
    out.push_back(std::move(spec));
  }
  return out;
}

std::string TenantQueryText(const TenantSpec& spec) {
  static const char* const kObject[] = {"proc q", "file f", "ip i"};
  std::string subject = "exe_name = \"" + spec.exe + "\"";
  if (spec.pid_above >= 0) {
    subject += ", pid > " + std::to_string(spec.pid_above);
  }
  return "proc p[" + subject + "] " + saql::EventOpName(spec.op) + " " +
         kObject[static_cast<int>(spec.object)] + " as e return distinct p";
}

Input BuildFleetInput(uint64_t seed, Trace* trace) {
  Input in;
  {
    Trace::Scope span(trace, "collect.generate");
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> tenant(0, kTenantExes - 1);
    std::uniform_int_distribution<int> shape(0, 3);
    std::uniform_int_distribution<int> pid(900, 1299);
    static const std::pair<saql::EventOp, saql::EntityType> kShapes[4] = {
        {saql::EventOp::kWrite, saql::EntityType::kNetwork},
        {saql::EventOp::kRead, saql::EntityType::kFile},
        {saql::EventOp::kWrite, saql::EntityType::kFile},
        {saql::EventOp::kStart, saql::EntityType::kProcess},
    };
    const saql::Timestamp start = 1582761600LL * saql::kSecond;
    in.feed.reserve(kFleetEvents);
    for (size_t i = 0; i < kFleetEvents; ++i) {
      saql::Event e;
      e.id = i + 1;
      e.ts = start + static_cast<saql::Timestamp>(i) * 10 * saql::kMillisecond;
      e.agent_id = "edge-" + std::to_string(i % 9);
      e.subject.exe_name = "tenant" + std::to_string(tenant(rng)) + ".exe";
      e.subject.pid = pid(rng);
      e.subject.user = i % 2 == 0 ? "svc" : "alice";
      const auto& [op, type] = kShapes[shape(rng)];
      e.op = op;
      e.object_type = type;
      switch (type) {
        case saql::EntityType::kProcess:
          e.obj_proc.exe_name = "worker.exe";
          e.obj_proc.pid = 4000 + static_cast<int64_t>(i % 50);
          break;
        case saql::EntityType::kFile:
          e.obj_file.path = "/srv/data/file" + std::to_string(i % 200);
          break;
        case saql::EntityType::kNetwork:
          e.obj_net.src_ip = "10.1.9.9";
          e.obj_net.dst_ip = "10.1.0." + std::to_string(i % 40 + 1);
          e.obj_net.dst_port = 443;
          break;
      }
      e.amount = 512 + static_cast<int64_t>(i % 2048);
      in.feed.push_back(std::move(e));
    }
  }
  in.tenants = TenantSpecs();
  for (const TenantSpec& spec : in.tenants) {
    in.queries.push_back({spec.name, TenantQueryText(spec)});
  }
  return in;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::string> SortedKeys(const std::vector<saql::Alert>& alerts) {
  std::vector<std::string> keys;
  keys.reserve(alerts.size());
  for (const saql::Alert& a : alerts) keys.push_back(AlertKey(a));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  fs::path path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  const int64_t start_ns = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: session_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::vector<NamedQuery> corpus;
  if (!LoadCorpus(&corpus)) return 1;

  ScratchDir scratch{fs::path(".bench_run") /
                     (std::string(w->name) + "-" + std::to_string(getpid()))};
  std::error_code ec;
  fs::create_directories(scratch.path, ec);
  if (ec) {
    std::cerr << "cannot create " << scratch.path << ": " << ec.message()
              << "\n";
    return 1;
  }

  Trace trace(args.trace);
  Input input = w->fleet ? BuildFleetInput(args.seed, &trace)
                         : BuildAptInput(args.seed, corpus, &trace);

  // Pass 0 warms the process-wide interner (a deployed process has seen
  // these strings before) and is not timed; its first push ends the
  // set-up.
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> rates;
  std::vector<double> delays;  // per-pass median alert delay
  std::vector<std::string> reference_keys;
  std::string last_log;
  PassResult last;
  double setup_s = 0;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  int64_t measure_start = 0;
  for (int pass = 0;; ++pass) {
    if (pass > 1 && NowNs() - measure_start >= budget_ns) break;
    SessionConfig config;
    config.shards = w->shards;
    if (w->record) {
      for (const std::string& file : LogFiles(last_log)) fs::remove(file, ec);
      last_log = (scratch.path / ("pass" + std::to_string(pass) + ".saqllog"))
                     .string();
      config.record_path = last_log;
    }
    PassResult r = RunPass(&input.feed, input.queries, config, &trace);
    if (pass == 0) {
      setup_s = static_cast<double>(r.first_push_ns - start_ns) * 1e-9;
      measure_start = NowNs();
    }
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) problems.push_back(e);
    if (r.attempted == 0) break;  // could not even open a session
    std::vector<std::string> keys = SortedKeys(r.alerts);
    if (pass == 0) {
      reference_keys = std::move(keys);
    } else {
      if (keys != reference_keys) {
        problems.push_back("pass " + std::to_string(pass) +
                           " alerted differently from pass 0");
      }
      rates.push_back(static_cast<double>(r.events) / r.seconds);
      delays.push_back(Quantile(r.alert_delays_ms, 0.5));
    }
    std::cout << "pass " << pass << ": " << r.events << " events in "
              << r.seconds << " s (" << static_cast<double>(r.events) /
                                            r.seconds
              << " events/s), " << r.alerts.size() << " alerts\n";
    last = std::move(r);
  }
  const double peak_rss_mb = PeakRssMiB();

  // Output checks on the last pass, against references built without the
  // engine.
  auto add = [&problems](std::vector<std::string> found) {
    problems.insert(problems.end(), found.begin(), found.end());
  };
  add(CheckNoEvalErrors(last.query_stats));
  if (input.apt) add(CheckAttackAlerts(input.feed, *input.apt, last.alerts));
  if (w->shards > 1) {
    PassResult one_lane = RunPass(&input.feed, input.queries, {}, nullptr);
    add(one_lane.errors);
    add(CheckSameAlerts(last.alerts, one_lane.alerts, "1-lane pass"));
  }
  if (w->record) add(CheckRecovered(last_log, input.feed));
  if (w->fleet) {
    add(CheckTenantMatches(input.feed, input.tenants, last.query_stats));
  }

  std::vector<LayerMetric> layers;
  if (args.trace) {
    layers = MeasureLayers(&input, corpus, scratch.path.string(), &trace,
                           &problems);
    fs::create_directories(".bench_traces", ec);
    const std::string path = ".bench_traces/" + std::string(w->name) +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!trace.WriteJson(path)) problems.push_back("cannot write " + path);
    std::cout << "trace written to " << path << "\n";
  }

  for (const std::string& p : problems) {
    std::cout << "CHECK FAILED: " << p << "\n";
  }
  std::cout << "timed passes: " << rates.size() << ", median rate "
            << Quantile(rates, 0.5) << " events/s, median alert delay "
            << Quantile(delays, 0.5) << " ms\n";

  std::ostringstream json;
  json << "{\"correct\": " << (problems.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  auto metric = [&json, first = true](const std::string& name, double value,
                                      const std::string& unit) mutable {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << JsonNumber(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (args.trace) {
    for (const LayerMetric& m : layers) metric(m.name, m.value, m.unit);
  } else {
    // The quartile of passes least slowed by the host (README.md, "Why
    // quartiles").
    metric("events_per_s", Quantile(rates, 0.75), "events/s");
    metric("alert_delay_ms", Quantile(delays, 0.25), "ms");
    metric("setup_s", setup_s, "s");
    metric("peak_rss_mb", peak_rss_mb, "MiB");
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace sessionbench

int main(int argc, char** argv) { return sessionbench::Main(argc, argv); }
