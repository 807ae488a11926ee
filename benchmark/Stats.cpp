//===- benchmark/Stats.cpp - Order statistics and MMU ----------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

namespace tilgc {
namespace benchmark {

double median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

double lowest(const std::vector<double> &Xs) {
  return Xs.empty() ? 0 : *std::min_element(Xs.begin(), Xs.end());
}

double percentile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  double Rank = std::ceil(Q * static_cast<double>(Xs.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Xs[std::min(Idx, Xs.size() - 1)];
}

void PausePool::add(const std::vector<uint64_t> &PausesNs) {
  for (uint64_t Ns : PausesNs)
    ++Counts[Ns];
  Total += PausesNs.size();
}

double PausePool::percentileUs(double Q) const {
  if (Total == 0)
    return 0;
  double Rank = std::ceil(Q * static_cast<double>(Total));
  uint64_t Want = Rank < 1 ? 1 : static_cast<uint64_t>(Rank);
  uint64_t Seen = 0;
  for (const auto &[Ns, Count] : Counts) {
    Seen += Count;
    if (Seen >= Want)
      return static_cast<double>(Ns) / 1e3;
  }
  return static_cast<double>(Counts.rbegin()->first) / 1e3;
}

double minMutatorUtilisation(std::vector<Interval> Pauses, uint64_t Begin,
                             uint64_t End, uint64_t WindowNs) {
  if (End <= Begin)
    return 1;
  // Clip to the span, then merge overlaps so the paused time is a union.
  std::vector<Interval> Merged;
  std::sort(Pauses.begin(), Pauses.end());
  for (Interval P : Pauses) {
    P.first = std::max(P.first, Begin);
    P.second = std::min(P.second, End);
    if (P.second <= P.first)
      continue;
    if (!Merged.empty() && P.first <= Merged.back().second)
      Merged.back().second = std::max(Merged.back().second, P.second);
    else
      Merged.push_back(P);
  }
  if (Merged.empty())
    return 1;

  // Cum[I] = paused time in the merged intervals before interval I.
  std::vector<uint64_t> Cum(Merged.size() + 1, 0);
  for (size_t I = 0; I < Merged.size(); ++I)
    Cum[I + 1] = Cum[I] + (Merged[I].second - Merged[I].first);
  auto PausedBefore = [&](uint64_t T) {
    auto It = std::upper_bound(
        Merged.begin(), Merged.end(), T,
        [](uint64_t V, const Interval &P) { return V < P.first; });
    if (It == Merged.begin())
      return uint64_t{0};
    size_t I = static_cast<size_t>(It - Merged.begin()) - 1;
    return Cum[I] + (std::min(Merged[I].second, T) - Merged[I].first);
  };

  uint64_t W = std::min(WindowNs, End - Begin);
  uint64_t Last = End - W;
  // The paused time inside [S, S + W] is piecewise linear in S; its maximum
  // sits where either window edge meets a pause edge, or at the span ends.
  std::vector<uint64_t> Starts = {Begin, Last};
  for (const Interval &P : Merged)
    for (uint64_t Edge : {P.first, P.second}) {
      Starts.push_back(Edge);
      Starts.push_back(Edge >= W ? Edge - W : 0);
    }
  double Min = 1;
  for (uint64_t S : Starts) {
    S = std::clamp(S, Begin, Last);
    uint64_t Paused = PausedBefore(S + W) - PausedBefore(S);
    Min = std::min(Min, 1.0 - static_cast<double>(Paused) /
                                  static_cast<double>(W));
  }
  return Min;
}

} // namespace benchmark
} // namespace tilgc
