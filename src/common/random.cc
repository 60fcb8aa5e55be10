#include "common/random.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace dstore {

namespace {
// SplitMix64: seeds the xoshiro state from a single 64-bit seed.
uint64_t SplitMix64(uint64_t* state) {
  const uint64_t z = Mix64(*state);
  *state += kGoldenGamma;
  return z;
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Random::Random(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Random::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Random::Uniform(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Random::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

bool Random::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return NextDouble() < p;
}

double Random::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586;
  spare_gaussian_ = mag * std::sin(two_pi * u2);
  has_spare_gaussian_ = true;
  return mag * std::cos(two_pi * u2);
}

double Random::LogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

double Random::Exponential(double mean) {
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -mean * std::log(u);
}

Bytes Random::RandomBytes(size_t n) {
  Bytes out(n);
  size_t i = 0;
  while (i + 8 <= n) {
    uint64_t r = NextUint64();
    for (int b = 0; b < 8; ++b) out[i++] = static_cast<uint8_t>(r >> (8 * b));
  }
  if (i < n) {
    uint64_t r = NextUint64();
    while (i < n) {
      out[i++] = static_cast<uint8_t>(r);
      r >>= 8;
    }
  }
  return out;
}

Bytes Random::CompressibleBytes(size_t n, double redundancy) {
  redundancy = std::clamp(redundancy, 0.0, 1.0);
  // A fixed 64-byte pattern provides the redundant portion; random bytes
  // provide the incompressible portion. Interleaving in small runs keeps the
  // achieved compression ratio close to `redundancy` across block sizes.
  Bytes pattern = RandomBytes(64);
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    const size_t run = std::min<size_t>(64, n - out.size());
    if (Bernoulli(redundancy)) {
      out.insert(out.end(), pattern.begin(), pattern.begin() + run);
    } else {
      Bytes rnd = RandomBytes(run);
      out.insert(out.end(), rnd.begin(), rnd.end());
    }
  }
  return out;
}

}  // namespace dstore
