#include "crypto/rand.hpp"

#include <sys/random.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tc::crypto {

void RandomBytes(MutableBytesView out) {
  // A signal can cut a getrandom(2) call short: it then returns fewer bytes
  // than asked (only above 256) or fails with EINTR. Any other failure is
  // an entropy failure.
  while (!out.empty()) {
    const ssize_t n = getrandom(out.data(), out.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      std::fprintf(stderr, "fatal: getrandom failed: %s\n",
                   std::strerror(errno));
      std::abort();
    }
    out = out.subspan(static_cast<size_t>(n));
  }
}

Key128 RandomKey128() {
  Key128 k;
  RandomBytes(k.secret_bytes());
  return k;
}

uint64_t RandomU64() {
  uint64_t v;
  RandomBytes(MutableBytesView(reinterpret_cast<uint8_t*>(&v), sizeof(v)));
  return v;
}

uint64_t DeterministicRng::NextU64() {
  // splitmix64: tiny, full-period, good enough for synthetic workloads.
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t DeterministicRng::NextBelow(uint64_t bound) {
  // Modulo bias is irrelevant for workload synthesis.
  return NextU64() % bound;
}

double DeterministicRng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double DeterministicRng::NextGaussian() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  double mag = std::sqrt(-2.0 * std::log(u1));
  spare_ = mag * std::sin(2.0 * M_PI * u2);
  have_spare_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

void DeterministicRng::Fill(MutableBytesView out) {
  size_t i = 0;
  while (i < out.size()) {
    uint64_t v = NextU64();
    for (int b = 0; b < 8 && i < out.size(); ++b, ++i) {
      out[i] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
}

}  // namespace tc::crypto
