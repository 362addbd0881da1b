#ifndef SAQL_SESSIONBENCH_TRACE_H_
#define SAQL_SESSIONBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace sessionbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span and counter recorder for the traced run. Spans are
/// opened around the benchmark's own calls into the engine's modules
/// (name = "<module>.<function>"), nest through a stack (parent = index
/// of the enclosing open span, -1 at top level), and are written out as
/// JSON when the run ends. A disabled trace records nothing.
class Trace {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    /// `trace` may be null (no span).
    Scope(Trace* trace, const char* name) : trace_(trace) {
      if (trace_ != nullptr && trace_->enabled_) index_ = trace_->Open(name);
    }
    ~Scope() {
      if (index_ >= 0) trace_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int index_ = -1;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}

  /// Adds `value` to counter `name`.
  void Count(const std::string& name, double value) {
    if (enabled_) counters_[name] += value;
  }

  /// Durations in seconds of the spans called `name`, in order; with a
  /// non-empty `ancestor`, only those nested (at any depth) in a span of
  /// that name.
  std::vector<double> Durations(const std::string& name,
                                const std::string& ancestor = "") const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      bool under = ancestor.empty();
      for (int p = s.parent; !under && p >= 0;
           p = spans_[static_cast<size_t>(p)].parent) {
        under = spans_[static_cast<size_t>(p)].name == ancestor;
      }
      if (under) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
      }
    }
    return out;
  }

  /// Total seconds of the spans `Durations(name, ancestor)` selects.
  double Seconds(const std::string& name,
                 const std::string& ancestor = "") const {
    double total = 0;
    for (double d : Durations(name, ancestor)) total += d;
    return total;
  }

  /// Writes every span and counter as one JSON document.
  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": "
          << s.end_ns << ", \"parent\": " << s.parent << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "],\n\"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters_) {
      out << (first ? "\n" : ",\n") << "  \"" << name << "\": " << value;
      first = false;
    }
    out << "\n}}\n";
    return static_cast<bool>(out);
  }

 private:
  int Open(const char* name) {
    int index = static_cast<int>(spans_.size());
    spans_.push_back({name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(index);
    return index;
  }
  void Close(int index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counters_;
};

}  // namespace sessionbench

#endif  // SAQL_SESSIONBENCH_TRACE_H_
