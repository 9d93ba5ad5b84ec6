// In-memory spans, samples and correctness checks of one benchmark run.
//
// Every call into a library layer is bracketed by a Timed scope. The scope
// always measures wall time (the untraced end-to-end numbers come from
// it); when tracing is on it also records a span with its name, start,
// end and parent. Spans stay in memory and are written out once, with
// the samples and checks, when the run ends. perfbench/run.py turns them
// into per-layer self times.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  double start = 0.0;
  double end = 0.0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Recorder {
 public:
  Recorder() : origin_(Clock::now()) {}

  /// Seconds since the recorder was made.
  double now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  bool tracing() const { return tracing_; }
  void set_tracing(bool on) { tracing_ = on; }

  int open(std::string name) {
    if (!tracing_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), stack_.empty() ? -1 : stack_.back(), now(), 0.0});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }
  void rename(int id, std::string name) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].name = std::move(name);
  }

  /// One observation of a named quantity (a time, a count, a ratio).
  void sample(const std::string& name, double value) { samples_[name].push_back(value); }

  /// One attempted operation whose outputs were checked. A failed check is
  /// one failed operation; its detail is printed and kept in the output.
  bool check(const std::string& name, bool ok, const std::string& detail = {}) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      checks_.push_back({name, ok, detail});
      std::fprintf(stderr, "perfbench: check failed: %s %s\n", name.c_str(), detail.c_str());
    } else if (passed_names_.insert(name).second) {
      checks_.push_back({name, ok, detail});  // keep one passing entry per name
    }
    return ok;
  }

  void info(const std::string& key, std::string value) { info_[key] = std::move(value); }

  /// Write everything as one JSON object.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  bool tracing_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<Check> checks_;
  std::set<std::string> passed_names_;
  std::map<std::string, std::string> info_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// Wall time of one layer call, and its span when tracing. stop() ends the
/// scope early and returns the elapsed seconds; the destructor stops an
/// unstopped scope.
class Timed {
 public:
  Timed(Recorder& rec, std::string name)
      : rec_(rec), id_(rec.open(std::move(name))), start_(Clock::now()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double stop() {
    if (!stopped_) {
      seconds_ = std::chrono::duration<double>(Clock::now() - start_).count();
      rec_.close(id_);
      stopped_ = true;
    }
    return seconds_;
  }
  void rename(std::string name) { rec_.rename(id_, std::move(name)); }

 private:
  Recorder& rec_;
  int id_;
  Clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace perfbench
