#pragma once
/// \file statistics.hpp
/// Small statistics helpers used by the study aggregation layer:
/// arithmetic/harmonic/geometric means, sample standard deviation, and
/// weighted averages (the paper weight-averages effective bandwidth
/// over kernels by time, §4.3).

#include <cstddef>
#include <span>

namespace syclport::stats {

/// Arithmetic mean; returns 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Sample standard deviation (N-1 denominator); returns 0 when N < 2.
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Harmonic mean; returns 0 if the span is empty or any element is <= 0.
[[nodiscard]] double harmonic_mean(std::span<const double> xs) noexcept;

/// Geometric mean; returns 0 if the span is empty or any element is <= 0.
[[nodiscard]] double geometric_mean(std::span<const double> xs) noexcept;

/// Weighted arithmetic mean of `xs` with weights `ws`; spans must have
/// equal size. Returns 0 when the total weight is <= 0.
[[nodiscard]] double weighted_mean(std::span<const double> xs,
                                   std::span<const double> ws) noexcept;

/// Minimum / maximum; return 0 for empty input.
[[nodiscard]] double min(std::span<const double> xs) noexcept;
[[nodiscard]] double max(std::span<const double> xs) noexcept;

/// Median (by copy + nth_element); returns 0 for empty input.
[[nodiscard]] double median(std::span<const double> xs);

/// The p-th percentile of `xs` (p in [0, 100]), linearly interpolated
/// between order statistics (the "linear" / type-7 definition, so
/// percentile(xs, 50) == median and percentile(xs, 100) == max).
/// Returns 0 for empty input; p is clamped to [0, 100]. The launch_log
/// tail-latency summaries (p50/p95/p99) are built on this.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

}  // namespace syclport::stats
