#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

double TrimmedMean(std::vector<double> values, double trim) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto drop = static_cast<std::size_t>(
      trim * static_cast<double>(values.size()));
  double sum = 0.0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return values[index];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void WindowedRate::Add(std::int64_t now_ns, std::uint64_t ops) {
  if (now_ns < start_ns_) return;
  const auto window =
      static_cast<std::size_t>((now_ns - start_ns_) / window_ns_);
  if (counts_.size() <= window) counts_.resize(window + 1, 0);
  counts_[window] += ops;
}

std::size_t WindowedRate::windows(std::int64_t end_ns) const {
  if (end_ns <= start_ns_) return 0;
  return std::min(counts_.size(),
                  static_cast<std::size_t>((end_ns - start_ns_) / window_ns_));
}

double WindowedRate::TrimmedMeanRate(std::int64_t end_ns, double trim) const {
  const std::size_t closed = windows(end_ns);
  std::vector<double> rates;
  rates.reserve(closed);
  const double window_s = static_cast<double>(window_ns_) / 1e9;
  for (std::size_t i = 0; i < closed; ++i) {
    rates.push_back(static_cast<double>(counts_[i]) / window_s);
  }
  return TrimmedMean(std::move(rates), trim);
}

double WindowedRate::MeanRate(std::int64_t end_ns) const {
  const std::size_t closed = windows(end_ns);
  if (closed == 0) return 0.0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < closed; ++i) total += counts_[i];
  return static_cast<double>(total) /
         (static_cast<double>(closed) * static_cast<double>(window_ns_) / 1e9);
}

namespace {
thread_local std::vector<std::uint64_t> open_spans;
}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, std::uint64_t ops)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    record_.id = tracer_->next_id_++;
  }
  record_.parent = open_spans.empty() ? 0 : open_spans.back();
  record_.name = name;
  record_.ops = ops;
  open_spans.push_back(record_.id);
  record_.start_ns = NowNs();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = NowNs();
  open_spans.pop_back();
  tracer_->Finish(std::move(record_));
}

void Tracer::Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t ops) {
  if (!enabled_) return;
  Record record;
  record.parent = open_spans.empty() ? 0 : open_spans.back();
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.ops = ops;
  std::lock_guard<std::mutex> lock(mu_);
  record.id = next_id_++;
  records_.push_back(std::move(record));
}

void Tracer::Finish(Record record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

void Tracer::Count(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counts_[name] = value;
}

double Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

double Tracer::MedianPerOpNs(const std::string& name) const {
  std::vector<double> per_op;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Record& record : records_) {
    if (record.name != name || record.ops == 0) continue;
    per_op.push_back(static_cast<double>(record.end_ns - record.start_ns) /
                     static_cast<double>(record.ops));
  }
  return Median(std::move(per_op));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Record& r : records_) {
    std::fprintf(out,
                 "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"ops\": %llu}\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent), r.name.c_str(),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<unsigned long long>(r.ops));
  }
  for (const auto& [name, value] : counts_) {
    std::fprintf(out, "{\"count\": \"%s\", \"value\": %.17g}\n",
                 name.c_str(), value);
  }
  return std::fclose(out) == 0;
}

void Report::Incorrect(const std::string& why) {
  correct_ = false;
  // The first few reasons are enough to locate a fault; a systematic one
  // would otherwise print once per reply.
  if (problems_++ < 5) std::fprintf(stderr, "INCORRECT: %s\n", why.c_str());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Incorrect("metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back(Entry{name, value, unit});
}

void Report::SpanMetric(const Tracer& tracer, const std::string& span,
                        const std::string& unit) {
  const double ns_per_unit = unit == "ms" ? 1e6 : unit == "us" ? 1e3 : 1.0;
  Metric(span + "_" + unit, tracer.MedianPerOpNs(span) / ns_per_unit, unit);
}

void Report::Merge(const Report& other) {
  attempted += other.attempted;
  failed += other.failed;
  if (!other.correct_) correct_ = false;
  for (const Entry& entry : other.metrics_) {
    if (!Has(entry.name)) metrics_.push_back(entry);
  }
}

bool Report::Has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Entry& entry) { return entry.name == name; });
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    if (i != 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
