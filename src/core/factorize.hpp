#pragma once
/// \file factorize.hpp
/// Near-balanced factorization of a rank count over 1-3 dimensions:
/// the rank grid the halo cost model (hwmodel/comm_model) prices.

#include <array>

namespace syclport {

/// Factorize `n` into `dims` near-equal factors (product == n). Greedy:
/// smallest prime factor goes to the currently-smallest dimension.
[[nodiscard]] std::array<int, 3> balanced_factors(int n, int dims);

}  // namespace syclport
