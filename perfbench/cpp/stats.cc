#include "stats.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double SupportedTailPercentile(size_t n, size_t min_beyond) {
  // In tenths of a percent, so the comparison is exact.
  for (size_t p : {999, 990, 950, 900, 750, 500}) {
    if (n * (1000 - p) >= min_beyond * 1000) return static_cast<double>(p) / 10.0;
  }
  return 0.0;
}

namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t ValueHash(const fgac::Value& v) {
  if (v.is_null()) return 0x9e3779b97f4a7c15ULL;
  if (v.is_bool()) return Mix64(v.bool_value() ? 3 : 5);
  if (v.is_numeric()) {
    return Mix64(static_cast<uint64_t>(std::llround(v.AsDouble() * 1e6)) ^
                 0x51ed270b27f0a3c1ULL);
  }
  return Mix64(std::hash<std::string>{}(v.string_value()));
}

}  // namespace

void Fingerprint::Add(const fgac::Row& row) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  for (const fgac::Value& v : row) h = Mix64(h ^ ValueHash(v)) + 0x9e37;
  sum += h;
  mix += Mix64(h ^ 0xa5a5a5a5a5a5a5a5ULL);
  ++rows;
}

void Fingerprint::Add(const Fingerprint& other) {
  sum += other.sum;
  mix += other.mix;
  rows += other.rows;
}

Fingerprint FingerprintOf(const fgac::storage::Relation& relation) {
  return FingerprintOf(relation.rows());
}

Fingerprint FingerprintOf(const std::vector<fgac::Row>& rows) {
  Fingerprint f;
  for (const fgac::Row& r : rows) f.Add(r);
  return f;
}

}  // namespace perfbench
