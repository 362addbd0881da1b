// E13: end-to-end detection latency. Two measurements:
//   1. The wall-clock cost of the single event that completes the paper's
//      Query 1 attack sequence (partial match primed, then the exfil event
//      arrives) — the "needle" latency from event to alert.
//   2. Full-run latency: how long the engine takes to chew through the
//      whole attack stream with all 8 demo queries deployed, and the
//      sustained events/second that implies.
// Expected shape: rule alerts fire within the processing of the matching
// event itself (microseconds); stateful alerts are bounded by the window
// slide, which event-time replay makes visible in alert timestamps rather
// than wall time.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "collect/enterprise_sim.h"
#include "engine/compiled_query.h"
#include "engine/engine.h"

namespace saql {
namespace {

Event MakeEvent(const char* subj, int64_t pid, EventOp op, Timestamp ts) {
  Event e;
  e.ts = ts;
  e.agent_id = "db-server-01";
  e.subject.exe_name = subj;
  e.subject.pid = pid;
  e.op = op;
  return e;
}

void BM_RuleAlertLatency(benchmark::State& state) {
  // Prime Query 1's partial match with the first three steps, then time
  // the completing exfiltration event (forking keeps the 3-step partial
  // alive, so every iteration completes a fresh match).
  Result<AnalyzedQueryPtr> aq =
      CompileSaql(bench::ReadQueryFile("query1_rule.saql"));
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  Result<std::unique_ptr<CompiledQuery>> q =
      CompiledQuery::Create(aq.value(), "q1");
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  uint64_t alerts = 0;
  (*q)->SetAlertSink([&](const Alert&) { ++alerts; });

  Event e1 = MakeEvent("cmd.exe", 11, EventOp::kStart, 100);
  e1.object_type = EntityType::kProcess;
  e1.obj_proc = {12, "osql.exe", "user"};
  Event e2 = MakeEvent("sqlservr.exe", 13, EventOp::kWrite, 200);
  e2.object_type = EntityType::kFile;
  e2.obj_file.path = "C:\\MSSQL\\Backup\\backup1.dmp";
  Event e3 = MakeEvent("sbblv.exe", 14, EventOp::kRead, 300);
  e3.object_type = EntityType::kFile;
  e3.obj_file.path = "C:\\MSSQL\\Backup\\backup1.dmp";
  Event e4 = MakeEvent("sbblv.exe", 14, EventOp::kWrite, 400);
  e4.object_type = EntityType::kNetwork;
  e4.obj_net = {"10.10.0.9", "66.77.88.129", 49001, 443, "tcp"};
  e4.amount = 2500000;

  (*q)->OnEvent(e1);
  (*q)->OnEvent(e2);
  (*q)->OnEvent(e3);
  for (auto _ : state) {
    (*q)->OnEvent(e4);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["alerts"] = static_cast<double>(alerts);
}
BENCHMARK(BM_RuleAlertLatency);

void BM_FullDemoRun(benchmark::State& state) {
  static const EventBatch* stream = [] {
    EnterpriseSimulator::Options opts;
    opts.num_workstations = 3;
    opts.duration = 30 * kMinute;
    opts.events_per_host_per_second = 10;
    opts.attack_offset = 12 * kMinute;
    EnterpriseSimulator sim(opts);
    return new EventBatch(sim.Generate());
  }();
  const char* const files[] = {
      "apt/r1_initial_compromise.saql", "apt/r2_malware_infection.saql",
      "apt/r3_privilege_escalation.saql", "apt/r4_penetration.saql",
      "query1_rule.saql", "apt/a6_invariant_excel.saql",
      "apt/a7_timeseries_network.saql", "apt/a8_outlier_dbscan.saql"};
  VectorEventSource source(*stream);
  uint64_t alerts = 0;
  for (auto _ : state) {
    state.PauseTiming();
    bench::ForgetSymbols(&source);
    state.ResumeTiming();
    SaqlEngine engine;
    int i = 0;
    for (const char* f : files) {
      Status st =
          engine.AddQuery(bench::ReadQueryFile(f), "q" + std::to_string(i++));
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    engine.SetAlertSink([&](const Alert&) { ++alerts; });
    Status st = engine.Run(&source);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream->size()));
  state.counters["alerts_per_run"] =
      static_cast<double>(alerts) / static_cast<double>(state.iterations());
  state.counters["stream_events"] = static_cast<double>(stream->size());
}
BENCHMARK(BM_FullDemoRun)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace saql

BENCHMARK_MAIN();
