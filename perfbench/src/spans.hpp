#pragma once
// In-memory span recording for the traced run. Spans are recorded by the
// benchmark around its own calls into each library layer (no tracing inside
// the program), kept in per-thread logs, and written out once at exit.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // request id the span belongs to (0 = none)
  const char* layer = "";     // graph / expr / core / service
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;

  [[nodiscard]] std::int64_t durationNs() const noexcept { return endNs - startNs; }
};

/// Nanoseconds on the steady clock since the first call in this process.
[[nodiscard]] std::int64_t nowNs() noexcept;

/// Unique span id (process-wide, never 0).
[[nodiscard]] std::uint64_t nextSpanId() noexcept;

/// One thread's spans. Not thread-safe: give each thread its own log and
/// merge after joining.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Time `fn` as a span; returns the span id (0 when disabled).
  template <typename Fn>
  std::uint64_t record(std::uint64_t request, std::uint64_t parent, const char* layer,
                       const char* name, Fn&& fn) {
    if (!enabled_) {
      fn();
      return 0;
    }
    Span s{nextSpanId(), parent, request, layer, name, nowNs(), 0};
    fn();
    s.endNs = nowNs();
    spans_.push_back(s);
    return s.id;
  }

  /// Append a span whose bounds the caller measured itself.
  void add(const Span& span) {
    if (enabled_) spans_.push_back(span);
  }

  [[nodiscard]] std::vector<Span>& spans() noexcept { return spans_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (children clipped to the
/// parent; overlapping children count once).
[[nodiscard]] std::unordered_map<std::uint64_t, std::int64_t> selfTimes(
    const std::vector<Span>& spans);

/// One JSON object per line.
void writeJsonLines(const std::vector<Span>& spans, std::ostream& out);

}  // namespace perfbench
