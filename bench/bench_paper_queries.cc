// E1-E4: cost of each of the paper's four queries (§II-B, Queries 1-4)
// over the realistic enterprise stream with the APT attack injected. These
// are the per-model-type data points of the full paper's evaluation; the
// expected shape is rule < time-series < invariant < outlier in per-event
// cost (pattern matching is cheap; DBSCAN per window is the most
// expensive stage).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "collect/enterprise_sim.h"
#include "engine/engine.h"

namespace saql {
namespace {

const EventBatch& AttackStream() {
  static const EventBatch* stream = [] {
    EnterpriseSimulator::Options opts;
    opts.num_workstations = 3;
    opts.duration = 30 * kMinute;
    opts.events_per_host_per_second = 10;
    opts.attack_offset = 12 * kMinute;
    EnterpriseSimulator sim(opts);
    return new EventBatch(sim.Generate());
  }();
  return *stream;
}

void RunPaperQuery(benchmark::State& state, const std::string& file) {
  const EventBatch& events = AttackStream();
  VectorEventSource source(events);
  uint64_t alerts = 0;
  for (auto _ : state) {
    state.PauseTiming();
    bench::ForgetSymbols(&source);
    state.ResumeTiming();
    SaqlEngine engine;
    Status st = engine.AddQuery(bench::ReadQueryFile(file), "q");
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    st = engine.Run(&source);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    alerts += engine.alerts().size();
    benchmark::DoNotOptimize(engine.alerts());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
  state.counters["alerts_per_run"] =
      static_cast<double>(alerts) / static_cast<double>(state.iterations());
  state.counters["stream_events"] = static_cast<double>(events.size());
}

void BM_Query1_RuleExfiltration(benchmark::State& state) {
  RunPaperQuery(state, "query1_rule.saql");
}
BENCHMARK(BM_Query1_RuleExfiltration)->Unit(benchmark::kMillisecond);

void BM_Query2_TimeSeriesSma(benchmark::State& state) {
  RunPaperQuery(state, "apt/a7_timeseries_network.saql");
}
BENCHMARK(BM_Query2_TimeSeriesSma)->Unit(benchmark::kMillisecond);

void BM_Query3_InvariantApache(benchmark::State& state) {
  RunPaperQuery(state, "query3_invariant.saql");
}
BENCHMARK(BM_Query3_InvariantApache)->Unit(benchmark::kMillisecond);

void BM_Query4_OutlierDbscan(benchmark::State& state) {
  RunPaperQuery(state, "query4_outlier.saql");
}
BENCHMARK(BM_Query4_OutlierDbscan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace saql

BENCHMARK_MAIN();
