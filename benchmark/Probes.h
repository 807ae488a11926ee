//===- benchmark/Probes.h - Runtime-layer probe loops -----------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Probe loops that price single mutator-side entry points of the runtime
/// (frame push/pop, raise, allocation, the write barrier, the TLAB path)
/// under a given configuration. Each figure is the median over repetitions
/// of a loop's client time per operation, so collections a loop provokes are
/// excluded.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_BENCHMARK_PROBES_H
#define TILGC_BENCHMARK_PROBES_H

#include "runtime/Mutator.h"

#include <cstdint>

namespace tilgc {
namespace benchmark {

struct ProbeCosts {
  double FrameNs = 0;         ///< One Frame push + pop.
  double RaiseNs = 0;         ///< Raise caught one frame above its handler.
  double RaisePerFrameNs = 0; ///< Extra cost per frame the raise crosses.
  double AllocNs = 0;         ///< Two-field record, single-mutator path.
  double BarrierNs = 0;       ///< Barriered pointer writeField.
  double GroupAllocNs = 0;    ///< Two-field record through a group's TLAB.
  /// From the collections of the TLAB probe's group (GcThreads >= 2): p99
  /// of the safepoint-wait phase, and worker-span time over workers x copy
  /// phase time.
  double SafepointWaitP99Us = 0;
  double WorkerBusyShare = 0;
};

/// Runs every probe under \p Config (its observer, trace path and stack
/// markers are dropped where they do not apply). \p Iters scales every
/// loop; \p GroupMutators is the thread count of the TLAB probe, which runs
/// with at least two evacuation threads.
ProbeCosts runProbes(const MutatorConfig &Config, unsigned GroupMutators,
                     uint64_t Iters);

} // namespace benchmark
} // namespace tilgc

#endif // TILGC_BENCHMARK_PROBES_H
