// Measurement scaffolding shared by every workload: the clock, exact
// sample statistics, the span tracer of the traced run, and the report
// printed as the last line of a run's output.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double SecondsBetween(std::int64_t start_ns,
                                           std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// Median of `values` (copied; the caller's order is kept).
[[nodiscard]] double Median(std::vector<double> values);

/// Mean of `values` after dropping the lowest and the highest `trim`
/// share of them. The host this benchmark was sized on changes speed in
/// phases of ~15-20 s; a run's mean moves smoothly with the share of the
/// run spent in a slow phase, where its median jumps between the phases,
/// and the trim drops single stalls.
[[nodiscard]] double TrimmedMean(std::vector<double> values, double trim);

/// The trim of every end-to-end figure.
constexpr double kTrim = 0.1;

/// Nearest-rank percentile, `q` in (0, 1].
[[nodiscard]] double Percentile(std::vector<double> values, double q);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double PeakRssMb();

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Name of a deliberate wrong answer to feed the workload's checker
  /// (empty in measured runs); see --inject in main.cc.
  std::string inject;
};

/// Counts operations into fixed wall-clock windows so a throughput can
/// be reported as a trimmed mean of the window rates: a short stall from
/// outside the benchmark moves one window, which the trim drops.
class WindowedRate {
 public:
  WindowedRate(std::int64_t start_ns, std::int64_t window_ns)
      : start_ns_(start_ns), window_ns_(window_ns) {}

  void Add(std::int64_t now_ns, std::uint64_t ops);

  /// Mean ops/s over the windows that closed before `end_ns`; the
  /// partial last window is dropped.
  [[nodiscard]] double MeanRate(std::int64_t end_ns) const;
  /// TrimmedMean of the same windows' rates.
  [[nodiscard]] double TrimmedMeanRate(std::int64_t end_ns, double trim) const;
  [[nodiscard]] std::size_t windows(std::int64_t end_ns) const;

 private:
  std::int64_t start_ns_;
  std::int64_t window_ns_;
  std::vector<std::uint64_t> counts_;
};

/// In-memory span recorder for the traced run. A span is one call (or one
/// loop of `ops` calls) into a module's public function, timed from the
/// benchmark's own files. Spans carry their parent (the span open on the
/// same thread when they began) and are written out when the run ends.
class Tracer {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0: a root span
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t ops = 1;
  };

  class Span {
   public:
    Span(Tracer* tracer, const char* name, std::uint64_t ops);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;  // null when tracing is off
    Record record_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span covering `ops` operations; closes at scope end.
  [[nodiscard]] Span Open(const char* name, std::uint64_t ops = 1) {
    return Span(enabled_ ? this : nullptr, name, ops);
  }

  /// Records a span whose interval was measured by the caller.
  void Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t ops = 1);

  /// Records a count read at a layer boundary (a program counter, a
  /// size); a later call with the same name replaces it.
  void Count(const std::string& name, double value);
  [[nodiscard]] double count(const std::string& name) const;

  /// Median per-operation duration of the spans named `name`, in ns;
  /// 0 when there are none.
  [[nodiscard]] double MedianPerOpNs(const std::string& name) const;

  /// Writes every span, then every count, as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;

 private:
  void Finish(Record record);

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::map<std::string, double> counts_;
  std::uint64_t next_id_ = 1;
};

/// What a run prints as its last line, plus the check failures it found.
class Report {
 public:
  /// Marks the run incorrect and says why on stderr.
  void Incorrect(const std::string& why);
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Reports the median per-operation time of the spans named `span` as
  /// the metric "<span>_<unit>"; `unit` is ns, us or ms.
  void SpanMetric(const Tracer& tracer, const std::string& span,
                  const std::string& unit);

  /// Adds `other`'s operation counts and correctness to this report, and
  /// takes each of its metrics that this report does not have yet.
  void Merge(const Report& other);
  [[nodiscard]] bool Has(const std::string& name) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::size_t problems_ = 0;
  std::vector<Entry> metrics_;
};

}  // namespace perfbench
