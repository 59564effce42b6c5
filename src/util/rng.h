// Deterministic random number generation for the whole workbench.
//
// Everything downstream of the synthetic data generator must be exactly
// reproducible from a single 64-bit seed, including when different antennas /
// services / hours are generated in different orders or in parallel. We
// therefore expose:
//
//  * Rng            — a SplitMix64-seeded xoshiro256** engine with the usual
//                     distribution helpers (uniform, normal, lognormal,
//                     Poisson, gamma, Dirichlet-style share perturbation);
//  * derive_seed    — a stable hash combiner used to derive independent
//                     substreams, e.g. derive_seed(seed, antenna, service).
//
// std::mt19937 + std:: distributions are avoided on purpose: their outputs
// are not guaranteed to be identical across standard library implementations,
// which would make the recorded experiment outputs non-portable.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace icn::util {

/// Stable 64-bit stream-splitting hash (SplitMix64 finalizer chain).
/// derive_seed(s, a, b) != derive_seed(s, b, a) for a != b.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a);
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                        std::uint64_t b);
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                        std::uint64_t b, std::uint64_t c);

/// Deterministic, implementation-independent random engine with the
/// distribution helpers needed by the traffic models.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the engine; two Rng constructed from the same seed produce the
  /// same sequence on every platform.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 uniformly distributed bits (xoshiro256**).
  std::uint64_t next_u64();

  // UniformRandomBitGenerator interface (for std::shuffle etc.).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal();
  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);
  /// Lognormal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Poisson count with mean lambda >= 0 (exact for small lambda,
  /// normal-approximation with continuity correction for lambda > 256).
  std::uint64_t poisson(double lambda);
  /// Gamma(shape k > 0, scale theta > 0) via Marsaglia–Tsang.
  double gamma(double shape, double scale);

  /// Dirichlet draw: normalized gamma(alpha_i, 1) vector.
  /// Requires every alpha > 0 and alphas non-empty.
  std::vector<double> dirichlet(std::span<const double> alphas);

  /// Picks an index with probability proportional to weights[i].
  /// Requires non-empty weights, all >= 0, and a positive sum.
  std::size_t categorical(std::span<const double> weights);

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace icn::util
