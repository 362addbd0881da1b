#ifndef SAQL_SESSIONBENCH_BENCH_H_
#define SAQL_SESSIONBENCH_BENCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "collect/apt_scenario.h"
#include "core/event.h"
#include "engine/alert.h"
#include "engine/compiled_query.h"
#include "stream/stream_executor.h"
#include "trace.h"

namespace sessionbench {

/// Events per `Session::Push`, as an agent batch arrives.
inline constexpr size_t kBatch = 1024;

struct NamedQuery {
  std::string name;
  std::string text;
};

/// What the simulator injected, read from its own configuration: the
/// reference the attack checks compare alerts against.
struct AptTruth {
  std::vector<saql::AptStep> steps;  ///< c1..c5, with their events
  saql::Timestamp attack_start = 0;
  std::string attacker_ip;
  int64_t dump_bytes = 0;
};

/// One tenant query of the fleet workload in plain form, for the scan
/// that recounts its matches without the engine.
struct TenantSpec {
  std::string name;
  saql::EventOp op = saql::EventOp::kRead;
  saql::EntityType object = saql::EntityType::kFile;
  std::string exe;       ///< exact subject exe_name, or a LIKE pattern
  bool like = false;     ///< `exe` holds `%` wildcards
  int64_t pid_above = -1;  ///< subject pid > this, when >= 0
};

/// Everything a workload feeds the engine, built from `--seed`.
struct Input {
  saql::EventBatch feed;
  std::vector<NamedQuery> queries;
  std::optional<AptTruth> apt;      ///< apt-* workloads
  std::vector<TenantSpec> tenants;  ///< tenant-fleet
};

/// How a pass opens its session.
struct SessionConfig {
  size_t shards = 1;
  std::string record_path;  ///< empty = recording off
};

using QueryStatsList =
    std::vector<std::pair<std::string, saql::CompiledQuery::QueryStats>>;

/// One pass of the feed through a fresh engine and session.
struct PassResult {
  int64_t first_push_ns = 0;
  double seconds = 0;      ///< first Push start to Close end
  double cpu_seconds = 0;  ///< process CPU time over the same span
  uint64_t events = 0;
  uint64_t attempted = 0;  ///< Push, AdvanceWatermark, Close, recording
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> alert_delays_ms;
  std::vector<saql::Alert> alerts;
  QueryStatsList query_stats;
  saql::ExecutorStats exec;
  size_t groups = 0;
  size_t indexed_groups = 0;
  double forward_ratio = 0;
};

/// Clears `Event::syms` so the next push interns from scratch, as events
/// arrive from agents.
void ClearSymbols(saql::EventBatch* feed);

/// Registers `queries` on a fresh engine, opens a session per `config`,
/// pushes `feed` in `kBatch` batches (each followed by
/// `AdvanceWatermark(max_event_ts())`) and closes. Spans go to `trace`.
PassResult RunPass(saql::EventBatch* feed,
                   const std::vector<NamedQuery>& queries,
                   const SessionConfig& config, Trace* trace);

/// The files of the event log at `log_path`: the log itself and any
/// `<log_path>.wal.<N>` siblings.
std::vector<std::string> LogFiles(const std::string& log_path);

/// The `p`-quantile of `values` (0 <= p <= 1), interpolating linearly
/// between order statistics; 0 when empty.
double Quantile(std::vector<double> values, double p);

/// Order-free rendering of an alert ("query|ts|group|label=value...").
std::string AlertKey(const saql::Alert& alert);

// checks.cc -------------------------------------------------------------

/// Output checks made apart from the engine. Each returns one message per
/// failure; empty means the check passed.
std::vector<std::string> CheckNoEvalErrors(const QueryStatsList& stats);
std::vector<std::string> CheckAttackAlerts(const saql::EventBatch& feed,
                                           const AptTruth& truth,
                                           const std::vector<saql::Alert>&
                                               alerts);
std::vector<std::string> CheckSameAlerts(const std::vector<saql::Alert>& a,
                                         const std::vector<saql::Alert>& b,
                                         const std::string& what);
std::vector<std::string> CheckRecovered(const std::string& log_path,
                                        const saql::EventBatch& feed);
std::vector<std::string> CheckTenantMatches(
    const saql::EventBatch& feed, const std::vector<TenantSpec>& tenants,
    const QueryStatsList& stats);

// layers.cc -------------------------------------------------------------

/// One per-layer metric of the traced run.
struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Runs the traced per-layer probes over `input` (scratch files under
/// `run_dir`) and returns their metrics, read from the spans they add to
/// `trace` (which already holds the set-up's `collect.generate` span).
/// Failed calls are appended to `errors`.
std::vector<LayerMetric> MeasureLayers(Input* input,
                                       const std::vector<NamedQuery>& corpus,
                                       const std::string& run_dir,
                                       Trace* trace,
                                       std::vector<std::string>* errors);

}  // namespace sessionbench

#endif  // SAQL_SESSIONBENCH_BENCH_H_
