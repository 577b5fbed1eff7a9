// In-memory span recorder for the traced benchmark run, plus the two
// computations built on it: per-layer self time (a span's duration minus
// the part of it its children cover) and the layer-to-end-to-end account
// (layer self times plus an explicit unattributed residual equal the
// end-to-end figure).
//
// Spans are recorded by the benchmark around its own calls into the
// library; nothing inside the library is instrumented.  A disabled tracer
// records nothing, so the same replay code measures the tracing overhead.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string; the layer metric's stem
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< index of the enclosing span, -1 at the root
  std::int64_t id = 0;       ///< request or step id shared by related spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and returns its index; -1 (and nothing recorded) when the
  /// tracer is disabled.
  int open(const char* name, int parent, std::int64_t id);
  void close(int span);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start_ns, end_ns, parent, id.
  void write_jsonl(std::ostream& out) const;

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, std::int64_t id)
      : tracer_(tracer), index_(tracer.open(name, parent, id)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// Total self time and span count of one layer (all spans sharing a name).
struct LayerTime {
  double self_ns = 0;
  std::int64_t spans = 0;
};

/// Self time per span name.  A span's self time is its duration minus the
/// union of its children's intervals.  A span left open, or a child that
/// reaches outside its parent, would make a self time meaningless or
/// negative: that is reported through `error` (non-empty) and the returned
/// map must not be used.
[[nodiscard]] std::map<std::string, LayerTime> self_times(
    const std::vector<Span>& spans, std::string& error);

/// The layer-to-end-to-end account of one workload, in one unit.
struct Account {
  double end_to_end = 0;
  std::vector<std::pair<std::string, double>> layers;
  /// end_to_end minus the sum of the layers: the time no span attributes.
  /// When the layers come from a replay (a separate execution), run-to-run
  /// noise can make it slightly negative; it is reported as measured.
  double residual = 0;
  /// Non-empty when a layer's self time is negative.
  std::string error;
};

[[nodiscard]] Account make_account(
    double end_to_end, std::vector<std::pair<std::string, double>> layers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
