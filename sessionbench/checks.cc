// Output checks made apart from the engine: every expectation below is
// derived from the simulator's attack script or recomputed from the feed
// with plain loops, never from a stored copy of earlier output.

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench.h"
#include "storage/recovery.h"

namespace sessionbench {

namespace {

// Entity names the attack script (collect/apt_scenario.cc) gives its
// tools; the alerts of the rule queries must name them.
constexpr char kBackdoor[] = "sbblv.exe";
constexpr char kDumper[] = "gsecdump.exe";
constexpr char kDumpFile[] = "backup1.dmp";

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::string RenderValues(const saql::Alert& a) {
  std::string out;
  for (const auto& [label, value] : a.values) {
    out += label + "=" + value.ToString() + " ";
  }
  return out;
}

std::vector<const saql::Alert*> AlertsOf(
    const std::vector<saql::Alert>& alerts, const std::string& query) {
  std::vector<const saql::Alert*> out;
  for (const saql::Alert& a : alerts) {
    if (a.query_name == query) out.push_back(&a);
  }
  return out;
}

/// `%` matches any run of characters; everything else matches itself.
bool LikeMatch(const std::string& pattern, const std::string& text) {
  size_t p = 0, t = 0, star = std::string::npos, resume = 0;
  while (t < text.size()) {
    if (p < pattern.size() && pattern[p] == '%') {
      star = p++;
      resume = t;
    } else if (p < pattern.size() && pattern[p] == text[t]) {
      ++p;
      ++t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++resume;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

/// A per-process moving-average spike query (query2, a7), restated: per
/// executable and tumbling window, the average network write amount; a
/// window alerts when its average exceeds `factor` times the mean of the
/// group's two previous non-empty windows.
struct SpikeRule {
  const char* query;
  saql::Duration window;
  double factor;
  bool older_positive;  ///< also require the oldest average > 0
};

std::set<std::pair<std::string, saql::Timestamp>> RecomputeSpikes(
    const saql::EventBatch& feed, const SpikeRule& rule) {
  std::map<std::string, std::map<saql::Timestamp, std::pair<double, int64_t>>>
      cells;
  for (const saql::Event& e : feed) {
    if (e.op != saql::EventOp::kWrite ||
        e.object_type != saql::EntityType::kNetwork) {
      continue;
    }
    const saql::Timestamp start = e.ts - ((e.ts % rule.window) + rule.window) %
                                             rule.window;
    auto& cell = cells[e.subject.exe_name][start];
    cell.first += static_cast<double>(e.amount);
    ++cell.second;
  }
  std::set<std::pair<std::string, saql::Timestamp>> out;
  for (const auto& [exe, windows] : cells) {
    std::deque<double> history;  // newest first
    for (const auto& [start, cell] : windows) {
      history.push_front(cell.first / static_cast<double>(cell.second));
      if (history.size() > 3) history.pop_back();
      if (history.size() < 3) continue;
      if (rule.older_positive && !(history[2] > 0)) continue;
      if (history[0] > rule.factor * ((history[1] + history[2]) / 2)) {
        out.insert({exe, start + rule.window});
      }
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> CheckNoEvalErrors(const QueryStatsList& stats) {
  std::vector<std::string> out;
  for (const auto& [name, s] : stats) {
    if (s.eval_errors != 0) {
      out.push_back(name + ": " + std::to_string(s.eval_errors) +
                    " eval errors");
    }
  }
  return out;
}

std::vector<std::string> CheckAttackAlerts(
    const saql::EventBatch& feed, const AptTruth& truth,
    const std::vector<saql::Alert>& alerts) {
  std::vector<std::string> out;

  // No alert before the injected attack starts.
  for (const saql::Alert& a : alerts) {
    if (a.ts < truth.attack_start) {
      out.push_back("alert before the attack: " + a.ToString());
    }
  }

  // c1..c5: each scripted step is reported by its rule query, inside the
  // step's time span, naming the step's entities.
  struct StepRule {
    const char* query;
    int step;
    std::vector<std::string> names;
  };
  const StepRule rules[] = {
      {"r1", 1, {truth.attacker_ip}},
      {"r2", 2, {kBackdoor}},
      {"r3", 3, {kDumper}},
      {"r4", 4, {kBackdoor}},
      {"query1", 5, {kDumpFile, truth.attacker_ip}},
  };
  for (const StepRule& rule : rules) {
    const saql::AptStep* step = nullptr;
    for (const saql::AptStep& s : truth.steps) {
      if (s.step == rule.step) step = &s;
    }
    std::vector<const saql::Alert*> got = AlertsOf(alerts, rule.query);
    if (step == nullptr || step->events.empty()) {
      out.push_back("attack step c" + std::to_string(rule.step) +
                    " missing from the feed");
      continue;
    }
    if (got.empty()) {
      out.push_back(std::string(rule.query) + " did not report step c" +
                    std::to_string(rule.step));
    }
    for (const saql::Alert* a : got) {
      if (a->ts < step->events.front().ts || a->ts > step->events.back().ts) {
        out.push_back(std::string(rule.query) + " alert outside step c" +
                      std::to_string(rule.step) + ": " + a->ToString());
      }
      const std::string rendered = Lower(RenderValues(*a));
      for (const std::string& name : rule.names) {
        if (rendered.find(Lower(name)) == std::string::npos) {
          out.push_back(std::string(rule.query) + " alert does not name " +
                        name + ": " + a->ToString());
        }
      }
    }
  }

  // query4, a8: the attacker's address, with the window's write volume
  // equal to the exfiltrated dump (every chunk counted once).
  for (const char* query : {"query4", "a8"}) {
    std::vector<const saql::Alert*> got = AlertsOf(alerts, query);
    if (got.empty()) out.push_back(std::string(query) + " did not alert");
    for (const saql::Alert* a : got) {
      bool sum_ok = false;
      for (const auto& [label, value] : a->values) {
        if (value.is_numeric() && value.ToDouble().ok() &&
            *value.ToDouble() == static_cast<double>(truth.dump_bytes)) {
          sum_ok = true;
        }
      }
      if (a->group != truth.attacker_ip || !sum_ok) {
        out.push_back(std::string(query) + " alert is not the " +
                      std::to_string(truth.dump_bytes) + "-byte dump to " +
                      truth.attacker_ip + ": " + a->ToString());
      }
    }
  }

  // query2, a7: the alert set equals the plain per-process, per-window
  // recomputation over the feed.
  const SpikeRule spikes[] = {
      {"query2", 10 * saql::kMinute, 1.5, false},
      {"a7", saql::kMinute, 5.0, true},
  };
  for (const SpikeRule& rule : spikes) {
    std::set<std::pair<std::string, saql::Timestamp>> want =
        RecomputeSpikes(feed, rule);
    std::set<std::pair<std::string, saql::Timestamp>> got;
    for (const saql::Alert* a : AlertsOf(alerts, rule.query)) {
      got.insert({a->group, a->window ? a->window->end : a->ts});
    }
    if (want.empty()) {
      out.push_back(std::string(rule.query) + ": recomputation finds no spike");
    }
    if (got != want) {
      out.push_back(std::string(rule.query) + ": " +
                    std::to_string(got.size()) + " alerts, recomputation "
                    "expects " + std::to_string(want.size()) +
                    " (group, window end) pairs, not the same set");
    }
  }
  return out;
}

std::vector<std::string> CheckSameAlerts(const std::vector<saql::Alert>& a,
                                         const std::vector<saql::Alert>& b,
                                         const std::string& what) {
  std::vector<std::string> ka, kb;
  for (const saql::Alert& x : a) ka.push_back(AlertKey(x));
  for (const saql::Alert& x : b) kb.push_back(AlertKey(x));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  if (ka == kb) return {};
  return {"alert multiset (" + std::to_string(ka.size()) +
          " alerts) differs from the " + what + " (" +
          std::to_string(kb.size()) + " alerts)"};
}

std::vector<std::string> CheckRecovered(const std::string& log_path,
                                        const saql::EventBatch& feed) {
  saql::Result<saql::RecoveredLog> rec = saql::RecoverDurableLog(log_path);
  if (!rec.ok()) return {"RecoverDurableLog: " + rec.status().ToString()};
  const saql::EventBatch& got = rec->events;
  if (got.size() != feed.size()) {
    return {"recovered " + std::to_string(got.size()) + " events, pushed " +
            std::to_string(feed.size())};
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != feed[i].id || got[i].ts != feed[i].ts) {
      return {"recovered event " + std::to_string(i) + " has id " +
              std::to_string(got[i].id) + ", pushed id " +
              std::to_string(feed[i].id)};
    }
  }
  return {};
}

std::vector<std::string> CheckTenantMatches(
    const saql::EventBatch& feed, const std::vector<TenantSpec>& tenants,
    const QueryStatsList& stats) {
  std::map<std::tuple<saql::EventOp, saql::EntityType>, std::vector<size_t>>
      by_shape;
  for (size_t i = 0; i < tenants.size(); ++i) {
    by_shape[{tenants[i].op, tenants[i].object}].push_back(i);
  }
  std::vector<uint64_t> want(tenants.size(), 0);
  for (const saql::Event& e : feed) {
    auto it = by_shape.find({e.op, e.object_type});
    if (it == by_shape.end()) continue;
    for (size_t i : it->second) {
      const TenantSpec& t = tenants[i];
      const bool exe = t.like ? LikeMatch(t.exe, e.subject.exe_name)
                              : t.exe == e.subject.exe_name;
      if (exe && (t.pid_above < 0 || e.subject.pid > t.pid_above)) ++want[i];
    }
  }
  std::map<std::string, uint64_t> got;
  for (const auto& [name, s] : stats) got[name] = s.matches;
  std::vector<std::string> out;
  for (size_t i = 0; i < tenants.size(); ++i) {
    auto it = got.find(tenants[i].name);
    if (it == got.end() || it->second != want[i]) {
      out.push_back(tenants[i].name + ": engine counted " +
                    (it == got.end() ? std::string("nothing")
                                     : std::to_string(it->second)) +
                    " matches, the scan " + std::to_string(want[i]));
      if (out.size() >= 8) break;
    }
  }
  return out;
}

}  // namespace sessionbench
