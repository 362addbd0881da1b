// The traced run's per-layer probes. Each probe calls one module's public
// functions from here, inside spans named "<module>.<function>", and the
// metrics are read back from those spans (README.md maps each metric to
// the end-to-end metric it should move).

#include <algorithm>
#include <filesystem>
#include <memory>

#include "analysis/fleet_analysis.h"
#include "analysis/query_analysis.h"
#include "bench.h"
#include "core/interner.h"
#include "engine/engine.h"
#include "parser/analyzer.h"
#include "storage/columnar_log.h"
#include "storage/durable_log.h"

namespace sessionbench {

namespace {

namespace fs = std::filesystem;

// Rounds of the repeated probes; metrics take the median round.
constexpr int kRounds = 3;

uint64_t FileBytes(const std::string& log_path) {
  uint64_t total = 0;
  std::error_code ec;
  for (const std::string& file : LogFiles(log_path)) {
    total += fs::file_size(file, ec);
  }
  return total;
}

/// Appends the feed to `writer` in `kBatch` chunks, each call in a span
/// called `span`. The chunk copies are made outside the spans.
template <typename Writer>
saql::Status AppendChunks(const saql::EventBatch& feed, Writer* writer,
                          Trace* trace, const char* span) {
  saql::EventBatch chunk;
  for (size_t off = 0; off < feed.size(); off += kBatch) {
    const size_t len = std::min(kBatch, feed.size() - off);
    chunk.assign(feed.begin() + static_cast<std::ptrdiff_t>(off),
                 feed.begin() + static_cast<std::ptrdiff_t>(off + len));
    Trace::Scope s(trace, span);
    saql::Status st = writer->AppendBatch(chunk);
    if (!st.ok()) return st;
  }
  return saql::Status::Ok();
}

}  // namespace

std::vector<LayerMetric> MeasureLayers(Input* input,
                                       const std::vector<NamedQuery>& corpus,
                                       const std::string& run_dir,
                                       Trace* trace,
                                       std::vector<std::string>* errors) {
  saql::EventBatch& feed = input->feed;
  const double n = static_cast<double>(feed.size());
  auto fail = [errors](const std::string& what, const saql::Status& st) {
    if (!st.ok()) errors->push_back(what + ": " + st.ToString());
  };

  // Registration, one layer at a time, then through the engine.
  {
    Trace::Scope probe(trace, "layer.register");
    std::vector<saql::FleetAnalysis::Member> members;
    for (const NamedQuery& q : input->queries) {
      saql::Result<saql::AnalyzedQueryPtr> aq = [&] {
        Trace::Scope s(trace, "parser.compile");
        return saql::CompileSaql(q.text);
      }();
      if (!aq.ok()) {
        fail("CompileSaql " + q.name, aq.status());
        continue;
      }
      auto compiled = saql::CompiledQuery::Create(*aq, q.name);
      if (!compiled.ok()) {
        fail("CompiledQuery::Create " + q.name, compiled.status());
        continue;
      }
      {
        Trace::Scope s(trace, "analysis.lint");
        trace->Count("analysis.findings",
                     static_cast<double>(
                         saql::QueryAnalysis::Lint(**compiled).size()));
      }
      members.push_back({q.name, *aq});
    }
    {
      Trace::Scope s(trace, "analysis.fleet");
      trace->Count("analysis.fleet_relations",
                   static_cast<double>(
                       saql::FleetAnalysis::Analyze(members).relations.size()));
    }
    saql::SaqlEngine engine;
    for (const NamedQuery& q : input->queries) {
      Trace::Scope s(trace, "engine.add_query");
      fail("AddQuery " + q.name, engine.AddQuery(q.text, q.name));
    }
    Trace::Scope s(trace, "engine.open_session");
    auto session = engine.OpenSession();
    fail("OpenSession", session.status());
  }

  // Interning alone, on un-interned copies of the feed.
  for (int round = 0; round < kRounds; ++round) {
    ClearSymbols(&feed);
    Trace::Scope probe(trace, "layer.intern");
    for (size_t off = 0; off < feed.size(); off += kBatch) {
      Trace::Scope s(trace, "core.intern_event_span");
      saql::InternEventSpan(feed.data() + off,
                            std::min(kBatch, feed.size() - off));
    }
  }

  // One lane, no recording: the engine's own calls.
  PassResult one;
  {
    Trace::Scope probe(trace, "layer.one_lane");
    one = RunPass(&feed, input->queries, {}, trace);
  }
  // Two lanes: Push is the session thread splitting, Close drains lanes.
  PassResult two;
  {
    Trace::Scope probe(trace, "layer.two_lanes");
    SessionConfig config;
    config.shards = 2;
    two = RunPass(&feed, input->queries, config, trace);
  }
  for (const PassResult* r : {&one, &two}) {
    errors->insert(errors->end(), r->errors.begin(), r->errors.end());
  }
  for (std::string& e : CheckSameAlerts(two.alerts, one.alerts,
                                        "1-lane probe")) {
    errors->push_back("2-lane probe: " + e);
  }

  // Marginal cost of each corpus query: alone in a session over the feed,
  // minus an empty session, rounds interleaved so drift hits all alike.
  std::vector<std::string> configs = {""};
  for (const NamedQuery& q : corpus) configs.push_back(q.name);
  std::vector<std::vector<double>> pass_seconds(configs.size());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t c = 0; c < configs.size(); ++c) {
      std::vector<NamedQuery> queries;
      for (const NamedQuery& q : corpus) {
        if (q.name == configs[c]) queries.push_back(q);
      }
      const std::string span = "layer.query." +
                               (configs[c].empty() ? "none" : configs[c]);
      Trace::Scope probe(trace, span.c_str());
      PassResult r = RunPass(&feed, queries, {}, nullptr);
      errors->insert(errors->end(), r.errors.begin(), r.errors.end());
      pass_seconds[c].push_back(r.seconds);
    }
  }

  // Storage: the durable write path and the columnar encoder alone.
  const std::string wal_path = run_dir + "/layer-durable.saqllog";
  {
    Trace::Scope probe(trace, "layer.durable");
    saql::DurableLogWriter writer(wal_path, saql::DurableLogWriter::Options());
    fail("DurableLogWriter", writer.status());
    fail("DurableLogWriter::AppendBatch",
         AppendChunks(feed, &writer, trace, "storage.wal_append"));
    Trace::Scope s(trace, "storage.durable_close");
    fail("DurableLogWriter::Close", writer.Close());
  }
  const uint64_t log_bytes = FileBytes(wal_path);
  for (std::string& e : CheckRecovered(wal_path, feed)) {
    errors->push_back("durable probe: " + e);
  }
  const std::string col_path = run_dir + "/layer-columnar.saqllog";
  {
    Trace::Scope probe(trace, "layer.columnar");
    saql::ColumnarLogWriter writer(col_path);
    fail("ColumnarLogWriter", writer.status());
    fail("ColumnarLogWriter::AppendBatch",
         AppendChunks(feed, &writer, trace, "storage.columnar_append"));
    Trace::Scope s(trace, "storage.columnar_close");
    fail("ColumnarLogWriter::Close", writer.Close());
  }

  std::vector<LayerMetric> m;
  auto add = [&m, trace](const std::string& name, double value,
                         const std::string& unit) {
    m.push_back({name, value, unit});
    trace->Count("metric." + name, value);
  };
  add("collect.generate_s", trace->Seconds("collect.generate"), "s");
  add("parser.compile_ms", trace->Seconds("parser.compile") * 1e3, "ms");
  add("analysis.lint_ms", trace->Seconds("analysis.lint") * 1e3, "ms");
  add("analysis.fleet_ms", trace->Seconds("analysis.fleet") * 1e3, "ms");
  add("engine.add_query_ms",
      trace->Seconds("engine.add_query", "layer.register") * 1e3, "ms");
  add("engine.open_session_ms",
      trace->Seconds("engine.open_session", "layer.register") * 1e3, "ms");
  add("core.intern_ns_per_event",
      trace->Seconds("core.intern_event_span") / kRounds / n * 1e9,
      "ns/event");
  add("engine.push_ns_per_event",
      trace->Seconds("engine.push", "layer.one_lane") / n * 1e9, "ns/event");
  const std::vector<double> wm =
      trace->Durations("engine.advance_watermark", "layer.one_lane");
  add("engine.watermark_us_per_batch",
      wm.empty() ? 0 : trace->Seconds("engine.advance_watermark",
                                      "layer.one_lane") /
                           static_cast<double>(wm.size()) * 1e6,
      "us/batch");
  add("engine.close_ms", trace->Seconds("engine.close", "layer.one_lane") * 1e3,
      "ms");
  const double empty = Quantile(pass_seconds[0], 0.5);
  for (size_t c = 1; c < configs.size(); ++c) {
    add("engine.query_ns_per_event." + configs[c],
        (Quantile(pass_seconds[c], 0.5) - empty) / n * 1e9, "ns/event");
  }
  uint64_t matches = 0, windows = 0;
  for (const auto& [name, s] : one.query_stats) {
    matches += s.matches;
    windows += s.windows_closed;
  }
  add("stream.deliveries_per_event",
      one.exec.events == 0 ? 0
                           : static_cast<double>(one.exec.deliveries) /
                                 static_cast<double>(one.exec.events),
      "deliveries/event");
  add("stream.forward_ratio", one.forward_ratio, "ratio");
  add("engine.groups", static_cast<double>(one.groups), "count");
  add("engine.indexed_groups", static_cast<double>(one.indexed_groups),
      "count");
  add("engine.member_matches", static_cast<double>(matches), "count");
  add("engine.windows_closed", static_cast<double>(windows), "count");
  add("stream.split_ns_per_event",
      trace->Seconds("engine.push", "layer.two_lanes") / n * 1e9, "ns/event");
  add("stream.drain_ms",
      trace->Seconds("engine.close", "layer.two_lanes") * 1e3, "ms");
  add("stream.cpu_per_wall",
      two.seconds > 0 ? two.cpu_seconds / two.seconds : 0, "cpu_s/s");
  add("storage.wal_append_ns_per_event",
      trace->Seconds("storage.wal_append") / n * 1e9, "ns/event");
  add("storage.columnar_write_ns_per_event",
      trace->Seconds("storage.columnar_append") / n * 1e9, "ns/event");
  add("storage.bytes_per_event", static_cast<double>(log_bytes) / n,
      "bytes/event");
  return m;
}

}  // namespace sessionbench
