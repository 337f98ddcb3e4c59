// Deterministic pseudo-random number generation for workloads.
//
// All randomness in netstore flows through Rng so that every experiment is
// reproducible from a seed.  The generator is xoshiro256** (public domain,
// Blackman & Vigna), which is fast and has no observable statistical
// defects at the scales used here.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace netstore::sim {

/// splitmix64 finalizer: a full-avalanche 64-bit mix.  Every output bit
/// depends on every input bit, which makes it the right building block for
/// composite hash keys (hash-map bucket indices take the LOW bits, so
/// unmixed fields cluster).  Combine fields as mix64(a ^ mix64(b)).
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Seedable deterministic PRNG with the distributions the workloads need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  /// Re-initializes state from `seed` via splitmix64, so nearby seeds give
  /// uncorrelated streams.
  void reseed(std::uint64_t seed) {
    for (auto& s : state_) {
      seed += 0x9e3779b97f4a7c15ull;
      s = mix64(seed);
    }
  }

  /// Next raw 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform(std::uint64_t n) {
    // Debiased multiply-shift (Lemire).
    __uint128_t m = static_cast<__uint128_t>(next()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    uniform(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform real in [0, 1).
  double uniform01() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform01() < p; }

  /// Exponentially distributed value with the given mean.
  double exponential(double mean) {
    double u = uniform01();
    if (u >= 1.0) u = std::nextafter(1.0, 0.0);
    return -mean * std::log1p(-u);
  }

  /// Pareto-distributed value with the given tail index `shape` (> 0) and
  /// minimum `scale` (> 0): x = scale / u^(1/shape).  Heavy-tailed — for
  /// shape <= 2 the variance is infinite, which is the regime measured for
  /// user think times and file popularity; the occasional enormous pause
  /// is the point, not an outlier.
  double pareto(double shape, double scale) {
    double u = uniform01();
    if (u <= 0.0) u = std::nextafter(0.0, 1.0);
    return scale * std::pow(u, -1.0 / shape);
  }

  /// Pareto value parameterized by its mean (requires shape > 1, where the
  /// mean scale*shape/(shape-1) is finite).
  double pareto_with_mean(double shape, double mean) {
    return pareto(shape, mean * (shape - 1.0) / shape);
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform(i)]);
    }
  }

  /// Random permutation of [0, n).
  std::vector<std::uint64_t> permutation(std::uint64_t n) {
    std::vector<std::uint64_t> p(n);
    std::iota(p.begin(), p.end(), 0);
    shuffle(p);
    return p;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Zipf-distributed sampler over [0, n) with exponent `theta` (theta = 0 is
/// uniform; ~0.99 matches commonly measured file-popularity skew).  Uses
/// the standard inverse-CDF-with-rejection method of Gray et al.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double theta);

  std::uint64_t sample(Rng& rng) const;

  [[nodiscard]] std::uint64_t n() const { return n_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2_;
};

}  // namespace netstore::sim
