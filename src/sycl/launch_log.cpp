#include "sycl/launch_log.hpp"

#include <algorithm>
#include <map>

#include "core/statistics.hpp"

namespace sycl {

launch_log& launch_log::instance() {
  static launch_log log;
  return log;
}

TimingSummary summarize_timings(const std::vector<double>& seconds) {
  TimingSummary ts;
  ts.count = seconds.size();
  for (double s : seconds) ts.total_s += s;
  if (ts.count == 0) return ts;
  ts.mean_s = ts.total_s / static_cast<double>(ts.count);
  ts.p50_s = syclport::stats::percentile(seconds, 50.0);
  ts.p95_s = syclport::stats::percentile(seconds, 95.0);
  ts.p99_s = syclport::stats::percentile(seconds, 99.0);
  return ts;
}

TimingSummary launch_log::timing_summary() const {
  std::vector<double> samples;
  {
    std::lock_guard lock(mu_);
    samples.reserve(records_.size());
    for (const launch_record& r : records_) samples.push_back(r.host_seconds);
  }
  return summarize_timings(samples);
}

std::vector<std::pair<std::string, TimingSummary>>
launch_log::kernel_timing_summaries() const {
  std::map<std::string, std::vector<double>> per_kernel;
  {
    std::lock_guard lock(mu_);
    for (const launch_record& r : records_)
      per_kernel[r.kernel_name].push_back(r.host_seconds);
  }
  std::vector<std::pair<std::string, TimingSummary>> out;
  out.reserve(per_kernel.size());
  for (const auto& [name, samples] : per_kernel)
    out.emplace_back(name, summarize_timings(samples));
  return out;
}

}  // namespace sycl
