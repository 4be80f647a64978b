// Copyright 2026 The QPGC Authors.
//
// In-memory span recorder for the benchmark's traced run. A span is one
// timed call into a library layer: name, start, end, parent span and the id
// of the operation it belongs to (every span opened while no other span is
// open starts a new operation; its descendants share that id). Spans stay
// in a vector until the run ends and are written out as JSON lines.
//
// Per-layer numbers are self times: a span's duration minus the part its
// direct children cover. Spans nest strictly (one recording thread), so the
// children never overlap.

#ifndef QPGC_PERFBENCH_TRACE_H_
#define QPGC_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  uint64_t op = 0;
  int64_t parent = -1;  // index into the span vector, -1 for an op root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t items = 1;  // calls timed together under this span
  int64_t child_ns = 0;
};

class Tracer {
 public:
  size_t Open(const char* name) {
    Span s;
    s.name = name;
    if (stack_.empty()) {
      s.op = ++last_op_;
    } else {
      s.parent = static_cast<int64_t>(stack_.back());
      s.op = spans_[stack_.back()].op;
    }
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    spans_.back().start_ns = NowNs();
    return spans_.size() - 1;
  }

  void Close(size_t idx, uint64_t items) {
    Span& s = spans_[idx];
    s.end_ns = NowNs();
    s.items = items;
    stack_.pop_back();
    if (s.parent >= 0) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of spans named `name`, summed within each operation (one
  /// value per operation that has such spans), in nanoseconds. With
  /// `per_item` the sum is divided by the summed item counts: the time per
  /// call of calls timed together in blocks.
  std::vector<double> SelfNs(const std::string& name, bool per_item) const {
    std::map<uint64_t, std::pair<int64_t, uint64_t>> per_op;
    for (const Span& s : spans_) {
      if (name != s.name) continue;
      auto& acc = per_op[s.op];
      acc.first += s.end_ns - s.start_ns - s.child_ns;
      acc.second += s.items;
    }
    std::vector<double> out;
    out.reserve(per_op.size());
    for (const auto& [op, acc] : per_op) {
      out.push_back(static_cast<double>(acc.first) /
                    (per_item ? static_cast<double>(acc.second) : 1.0));
    }
    return out;
  }

  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"items\":%llu,"
                   "\"self_ns\":%lld}\n",
                   i, s.name, static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.items),
                   static_cast<long long>(s.end_ns - s.start_ns - s.child_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
  uint64_t last_op_ = 0;
};

/// Records one span when given a tracer; does nothing on nullptr (the
/// untraced run, and the untraced half of the traced run's rounds).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t items = 1)
      : tracer_(tracer), items_(items) {
    if (tracer_ != nullptr) idx_ = tracer_->Open(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(idx_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint64_t items_;
  size_t idx_ = 0;
};

}  // namespace perfbench

#endif  // QPGC_PERFBENCH_TRACE_H_
