//===- benchmark/Stats.h - Order statistics and MMU -------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The summary statistics the benchmark reports: medians and minima of
/// per-pass figures, exact nearest-rank percentiles of pause samples, and minimum
/// mutator utilisation (Cheng & Blelloch, PLDI 2001) computed from
/// collection begin/end stamps.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_BENCHMARK_STATS_H
#define TILGC_BENCHMARK_STATS_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace tilgc {
namespace benchmark {

/// Median of \p Xs (mean of the middle pair for an even count); 0 if empty.
double median(std::vector<double> Xs);

/// Smallest of \p Xs; 0 if empty.
double lowest(const std::vector<double> &Xs);

/// Exact nearest-rank percentile (rank ceil(Q * n)) of \p Xs; 0 if empty.
double percentile(std::vector<double> Xs, double Q);

/// Pause durations pooled over many program runs, kept exactly as counts
/// per nanosecond value (collections of one program repeat the same few
/// thousand durations, so the pool stays small however many runs it holds).
class PausePool {
public:
  void add(const std::vector<uint64_t> &PausesNs);
  /// Exact nearest-rank percentile (rank ceil(Q * n)) in microseconds; 0 if
  /// empty.
  double percentileUs(double Q) const;
  bool empty() const { return Total == 0; }

private:
  std::map<uint64_t, uint64_t> Counts;
  uint64_t Total = 0;
};

/// A closed time interval in nanoseconds.
using Interval = std::pair<uint64_t, uint64_t>;

/// Minimum mutator utilisation over windows of \p WindowNs inside
/// [\p Begin, \p End], given the collector's pause intervals. A span shorter
/// than the window is judged as one window covering the whole span. Returns
/// 1 when nothing paused.
double minMutatorUtilisation(std::vector<Interval> Pauses, uint64_t Begin,
                             uint64_t End, uint64_t WindowNs);

} // namespace benchmark
} // namespace tilgc

#endif // TILGC_BENCHMARK_STATS_H
