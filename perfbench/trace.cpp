#include "trace.h"

#include <algorithm>

namespace perfbench {

int Tracer::open(const char* name, int parent, std::int64_t id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.id = id;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << "}\n";
  }
}

std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans,
                                            std::string& error) {
  error.clear();
  const std::size_t n = spans.size();
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) {
      error = std::string("span '") + s.name + "' was never closed";
      return {};
    }
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= i) {
      error = std::string("span '") + s.name + "' names a later parent";
      return {};
    }
    if (s.start_ns < spans[p].start_ns || s.end_ns > spans[p].end_ns) {
      error = std::string("span '") + s.name + "' reaches outside its parent '" +
              spans[p].name + "'";
      return {};
    }
    children[p].push_back(i);
  }

  std::map<std::string, LayerTime> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < n; ++i) {
    intervals.clear();
    for (const std::size_t c : children[i]) {
      intervals.emplace_back(spans[c].start_ns, spans[c].end_ns);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    for (const auto& [b, e] : intervals) {
      if (run_end < run_start || b > run_end) {
        if (run_end >= run_start) covered += run_end - run_start;
        run_start = b;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end >= run_start) covered += run_end - run_start;
    LayerTime& layer = out[spans[i].name];
    layer.self_ns +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered);
    ++layer.spans;
  }
  return out;
}

Account make_account(double end_to_end,
                     std::vector<std::pair<std::string, double>> layers) {
  Account account;
  account.end_to_end = end_to_end;
  double sum = 0;
  for (const auto& [name, value] : layers) {
    if (value < 0 && account.error.empty()) {
      account.error = "negative self time for layer " + name;
    }
    sum += value;
  }
  account.layers = std::move(layers);
  account.residual = end_to_end - sum;
  return account;
}

}  // namespace perfbench
