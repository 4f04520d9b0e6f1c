#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/value.h"
#include "storage/relation.h"

namespace perfbench {

/// Value at quantile `q` (0..1) of `v`, interpolating linearly between the
/// two closest ranks. 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that leaves at
/// least `min_beyond` of `n` samples above it, or 0 when even the median
/// does not.
double SupportedTailPercentile(size_t n, size_t min_beyond = 10);

/// Order-insensitive fingerprint of a multiset of rows. Numbers are
/// compared after rounding to 1e-6, so two answers that differ only in
/// floating-point summation order match; strings and NULLs compare exactly.
struct Fingerprint {
  uint64_t sum = 0;
  uint64_t mix = 0;
  uint64_t rows = 0;

  void Add(const fgac::Row& row);
  void Add(const Fingerprint& other);
  bool operator==(const Fingerprint& o) const {
    return sum == o.sum && mix == o.mix && rows == o.rows;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
};

Fingerprint FingerprintOf(const fgac::storage::Relation& relation);
Fingerprint FingerprintOf(const std::vector<fgac::Row>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
