#pragma once
/// \file spans.hpp
/// Span recorder for the traced run. Spans are opened by the benchmark
/// around its own calls into a syclport layer (the program itself is
/// not instrumented), kept in memory, and written out once as Chrome
/// trace-event JSON, which Perfetto and chrome://tracing open directly.
/// Only the benchmark's main thread records, so nesting is a stack.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string layer;  ///< Chrome "cat": the syclport layer called
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
};

class SpanLog {
 public:
  /// Recording is off unless a traced pass or probe turns it on.
  bool enabled = false;

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(clock::now() - origin_)
        .count();
  }

  /// Open a span; returns its index or -1 when recording is off.
  std::int64_t open(std::string name, std::string layer) {
    if (!enabled) return -1;
    SpanRecord r;
    r.name = std::move(name);
    r.layer = std::move(layer);
    r.id = static_cast<std::int64_t>(spans_.size());
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.ts_us = now_us();
    spans_.push_back(std::move(r));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].dur_us =
        now_us() - spans_[static_cast<std::size_t>(id)].ts_us;
    stack_.pop_back();
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Write every closed span as a complete ("X") trace event; the span
  /// id and parent go into args so a reader can recover the tree.
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const SpanRecord& s : spans_) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"" << s.name
          << "\",\"cat\":\"" << s.layer << "\",\"ts\":" << s.ts_us
          << ",\"dur\":" << s.dur_us << ",\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point origin_ = clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> stack_;
};

/// The process-wide log (the benchmark is single-threaded on its side).
inline SpanLog& spans() {
  static SpanLog log;
  return log;
}

/// RAII span around one call into a layer.
class Span {
 public:
  Span(std::string name, std::string layer)
      : id_(spans().open(std::move(name), std::move(layer))) {}
  ~Span() { spans().close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t id_;
};

}  // namespace perfbench
