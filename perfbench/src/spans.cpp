#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <ostream>

namespace perfbench {

std::int64_t nowNs() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
      .count();
}

std::uint64_t nextSpanId() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::unordered_map<std::uint64_t, std::int64_t> selfTimes(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::unordered_map<std::uint64_t, std::int64_t> out;
  for (const Span& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t lo = std::max(c->startNs, s.startNs);
        const std::int64_t hi = std::min(c->endNs, s.endNs);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ = 0;
    std::int64_t reach = s.startNs;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        union_ += hi - from;
        reach = hi;
      }
    }
    out[s.id] = s.durationNs() - union_;
  }
  return out;
}

void writeJsonLines(const std::vector<Span>& spans, std::ostream& out) {
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"layer\":\"" << s.layer
        << "\",\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
        << ",\"end_ns\":" << s.endNs << "}\n";
  }
}

}  // namespace perfbench
