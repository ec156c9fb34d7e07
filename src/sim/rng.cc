#include "sim/rng.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace vstream::sim {

BernoulliThreshold::BernoulliThreshold(double p) : p_(p), threshold_(0) {
  // p <= 0 and p >= 1 never draw; NaN draws but never succeeds, which a
  // threshold of 0 gives.
  if (!(p > 0.0 && p < 1.0)) return;
  // Smallest word w with canonical_double(w) >= p.  The top word maps to
  // nextafter(1, 0) >= p, so the answer lies in [0, max].
  std::uint64_t lo = 0;
  std::uint64_t hi = Mt64::max();
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (canonical_double(mid) >= p) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  threshold_ = lo;
}

double Rng::lognormal_median(double median, double sigma) {
  if (median <= 0.0) throw std::invalid_argument("lognormal median must be > 0");
  return std::lognormal_distribution<double>(std::log(median), sigma)(engine_);
}

double Rng::pareto(double x_m, double alpha) {
  if (x_m <= 0.0 || alpha <= 0.0) {
    throw std::invalid_argument("pareto parameters must be > 0");
  }
  // Inverse-CDF sampling: F(x) = 1 - (x_m/x)^alpha.
  const double u = 1.0 - uniform01();  // in (0, 1]
  return x_m / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::discrete(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("discrete: empty weights");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) throw std::invalid_argument("discrete: non-positive total");
  double target = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: land on the last bucket
}

Rng Rng::fork() {
  return Rng(fork_seed());
}

}  // namespace vstream::sim
