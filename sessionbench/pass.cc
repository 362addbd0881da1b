// One pass of a feed through a fresh engine and session, timed call by
// call: the unit every workload and every traced probe repeats.

#include <time.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>

#include "bench.h"
#include "engine/engine.h"

namespace sessionbench {

namespace {

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// One session call of the pass: when it started and how far in event
/// time it carries the stream (batch max ts for Push, the watermark for
/// AdvanceWatermark, +inf for Close).
struct Call {
  int64_t start_ns = 0;
  saql::Timestamp covers = 0;
  bool push = false;
};

/// An alert as it reached the sink.
struct Arrival {
  int64_t ns = 0;
  size_t call = 0;               ///< the call running when it arrived
  saql::Timestamp trigger = 0;   ///< completing event ts, or window end
  bool window = false;
};

/// Index of the call that delivered the alert's completing event (rule
/// alerts: the first Push carrying ts >= trigger) or ended its window
/// (window alerts: the first AdvanceWatermark or Close reaching the
/// window end). `covers` never decreases along the calls.
size_t DeliveringCall(const std::vector<Call>& calls, const Arrival& a) {
  auto it = std::lower_bound(
      calls.begin(), calls.end(), a.trigger,
      [](const Call& c, saql::Timestamp t) { return c.covers < t; });
  size_t idx = static_cast<size_t>(it - calls.begin());
  if (a.window) {
    while (idx < calls.size() && calls[idx].push) ++idx;
  }
  return std::min(idx, a.call);
}

}  // namespace

void ClearSymbols(saql::EventBatch* feed) {
  for (saql::Event& e : *feed) e.syms = saql::EventSymbols{};
}

std::vector<std::string> LogFiles(const std::string& log_path) {
  namespace fs = std::filesystem;
  const fs::path log(log_path);
  const std::string name = log.filename().string();
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(log.parent_path(), ec)) {
    const std::string file = entry.path().filename().string();
    if (file == name || file.rfind(name + ".wal.", 0) == 0) {
      out.push_back(entry.path().string());
    }
  }
  return out;
}

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string AlertKey(const saql::Alert& alert) {
  std::string key = alert.query_name + "|" + std::to_string(alert.ts) + "|";
  if (alert.window) {
    key += std::to_string(alert.window->start) + "-" +
           std::to_string(alert.window->end);
  }
  key += "|" + alert.group;
  for (const auto& [label, value] : alert.values) {
    key += "|" + label + "=" + value.ToString();
  }
  return key;
}

PassResult RunPass(saql::EventBatch* feed,
                   const std::vector<NamedQuery>& queries,
                   const SessionConfig& config, Trace* trace) {
  PassResult r;
  ClearSymbols(feed);
  const size_t n = feed->size();
  r.events = n;

  saql::SaqlEngine engine;
  for (const NamedQuery& q : queries) {
    Trace::Scope span(trace, "engine.add_query");
    saql::Status st = engine.AddQuery(q.text, q.name);
    if (!st.ok()) {
      r.errors.push_back("AddQuery " + q.name + ": " + st.ToString());
      return r;
    }
  }

  std::vector<Call> calls;
  calls.reserve(2 * (n / kBatch + 1) + 1);
  std::vector<Arrival> arrivals;
  saql::SessionOptions options;
  options.num_shards = config.shards;
  options.record_path = config.record_path;
  options.alert_sink = [&](const saql::Alert& a) {
    arrivals.push_back({NowNs(), calls.empty() ? 0 : calls.size() - 1,
                        a.window ? a.window->end : a.ts,
                        a.window.has_value()});
    r.alerts.push_back(a);
  };

  std::unique_ptr<saql::SaqlEngine::Session> session;
  {
    Trace::Scope span(trace, "engine.open_session");
    auto opened = engine.OpenSession(options);
    if (!opened.ok()) {
      r.errors.push_back("OpenSession: " + opened.status().ToString());
      return r;
    }
    session = std::move(*opened);
  }

  auto count = [&r](const saql::Status& st, const char* what) {
    ++r.attempted;
    if (!st.ok()) {
      ++r.failed;
      if (r.errors.size() < 4) {
        r.errors.push_back(what + (": " + st.ToString()));
      }
    }
  };

  const int64_t cpu_start = CpuNs();
  r.first_push_ns = NowNs();
  int64_t end_ns = 0;
  {
    Trace::Scope stream_span(trace, "engine.stream");
    for (size_t off = 0; off < n; off += kBatch) {
      const size_t len = std::min(kBatch, n - off);
      calls.push_back({NowNs(), (*feed)[off + len - 1].ts, true});
      {
        Trace::Scope span(trace, "engine.push");
        count(session->Push(feed->data() + off, len), "Push");
      }
      const saql::Timestamp wm = session->max_event_ts();
      calls.push_back({NowNs(), wm, false});
      {
        Trace::Scope span(trace, "engine.advance_watermark");
        count(session->AdvanceWatermark(wm), "AdvanceWatermark");
      }
    }
    calls.push_back(
        {NowNs(), std::numeric_limits<saql::Timestamp>::max(), false});
    {
      Trace::Scope span(trace, "engine.close");
      count(session->Close(), "Close");
    }
    end_ns = NowNs();
  }
  r.cpu_seconds = static_cast<double>(CpuNs() - cpu_start) * 1e-9;
  r.seconds = static_cast<double>(end_ns - r.first_push_ns) * 1e-9;
  if (!config.record_path.empty()) {
    count(session->recording_status(), "recording");
  }

  r.alert_delays_ms.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    const Call& from = calls[DeliveringCall(calls, a)];
    r.alert_delays_ms.push_back(static_cast<double>(a.ns - from.start_ns) *
                                1e-6);
  }
  session.reset();
  r.query_stats = engine.query_stats();
  r.exec = engine.executor_stats();
  r.groups = engine.num_groups();
  r.indexed_groups = engine.num_indexed_groups();
  r.forward_ratio = engine.forward_ratio();
  return r;
}

}  // namespace sessionbench
