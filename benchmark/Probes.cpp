//===- benchmark/Probes.cpp - Runtime-layer probe loops --------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "Probes.h"

#include "Stats.h"

#include "runtime/MutatorGroup.h"

#include <algorithm>
#include <chrono>
#include <vector>

namespace tilgc {
namespace benchmark {
namespace {

constexpr int Reps = 5;
/// Frames the raise-depth probe crosses between the raise and its handler.
constexpr unsigned RaiseDepth = 8;

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t probeKey() {
  static const uint32_t Key = TraceTableRegistry::global().define(
      FrameLayout("benchmark-probe", {Trace::pointer(), Trace::pointer(),
                                      Trace::nonPointer()}));
  return Key;
}

uint32_t probeSite() {
  static const uint32_t Site =
      AllocSiteRegistry::global().define("benchmark-probe");
  return Site;
}

/// Median over Reps of Body's client seconds (wall minus the GC time the
/// loop provoked) per operation, in nanoseconds.
template <typename BodyT>
double perOpNs(Mutator &M, uint64_t Ops, BodyT Body) {
  std::vector<double> Ns;
  for (int R = 0; R < Reps; ++R) {
    double Gc0 = M.gcStats().gcSeconds();
    double T0 = nowSec();
    Body();
    double Client = nowSec() - T0 - (M.gcStats().gcSeconds() - Gc0);
    Ns.push_back(Client * 1e9 / static_cast<double>(Ops));
  }
  return median(Ns);
}

/// Raises from Depth C++ frames, each with its activation record, above
/// the caller's.
template <unsigned Depth> [[gnu::noinline]] void raiseThrough(Mutator &M) {
  Frame F(M, probeKey());
  if constexpr (Depth == 0)
    M.raise(Value::fromInt(1));
  else
    raiseThrough<Depth - 1>(M);
}

template <unsigned Depth> double raiseNs(Mutator &M, uint64_t Iters) {
  return perOpNs(M, Iters, [&] {
    for (uint64_t I = 0; I < Iters; ++I) {
      Frame F(M, probeKey());
      uint64_t H = M.pushHandler(F.base());
      try {
        raiseThrough<Depth>(M);
      } catch (MLRaise &E) {
        if (E.HandlerId != H)
          throw;
      }
    }
  });
}

void allocLoop(Mutator &M, Frame &F, uint64_t Iters) {
  for (uint64_t I = 0; I < Iters; ++I) {
    Value V = M.allocRecord(probeSite(), 2, 0b10);
    M.initField(V, 0, Value::fromInt(static_cast<int64_t>(I)));
    // Keep one object live, so each collection the loop provokes is cheap.
    F.set(1, V);
  }
}

/// Rendezvous and parallel-evacuation figures of the TLAB probe's group.
class GroupObserver : public GcObserver {
public:
  void onGcEnd(const GcEvent &E) override {
    uint64_t Wait =
        E.PhaseDurNs[static_cast<unsigned>(GcPhase::SafepointWait)];
    if (Wait)
      WaitsUs.push_back(static_cast<double>(Wait) / 1e3);
    if (E.WorkerSpans.empty())
      return;
    for (const GcWorkerSpan &S : E.WorkerSpans)
      BusyNs += static_cast<double>(S.EndNs - S.BeginNs);
    CapacityNs += static_cast<double>(
        E.Workers * E.PhaseDurNs[static_cast<unsigned>(GcPhase::Copy)]);
  }
  std::vector<double> WaitsUs;
  double BusyNs = 0;
  double CapacityNs = 0;
};

} // namespace

ProbeCosts runProbes(const MutatorConfig &Config, unsigned GroupMutators,
                     uint64_t Iters) {
  MutatorConfig C = Config;
  C.Observer = nullptr;
  C.TraceOutPath.clear();
  ProbeCosts P;
  {
    Mutator M(C);
    Frame Outer(M, probeKey());
    P.FrameNs = perOpNs(M, Iters, [&] {
      for (uint64_t I = 0; I < Iters; ++I) {
        Frame F(M, probeKey());
        F.setInt(3, static_cast<int64_t>(I));
      }
    });

    uint64_t RaiseIters = Iters / 20 + 1;
    P.RaiseNs = raiseNs<0>(M, RaiseIters);
    double Deep = raiseNs<RaiseDepth>(M, RaiseIters);
    P.RaisePerFrameNs = (Deep - P.RaiseNs) / RaiseDepth;

    P.AllocNs = perOpNs(M, Iters, [&] { allocLoop(M, Outer, Iters); });

    // Barriered stores into a tenured record: the store every barrier kind
    // must remember. Each repetition starts from a collected (empty) store
    // buffer.
    Outer.set(1, M.allocRecord(probeSite(), 2, 0b11));
    Outer.set(2, M.allocRecord(probeSite(), 2, 0b10));
    std::vector<double> Ns;
    for (int R = 0; R < Reps; ++R) {
      M.collect(false);
      Value Obj = Outer.get(1), Target = Outer.get(2);
      double T0 = nowSec();
      for (uint64_t I = 0; I < Iters; ++I)
        M.writeField(Obj, static_cast<uint32_t>(I & 1), Target, true);
      Ns.push_back((nowSec() - T0) * 1e9 / static_cast<double>(Iters));
    }
    P.BarrierNs = median(Ns);
  }
  {
    // Enough allocation for a thousand collections or so, so the p99 has
    // samples beyond it.
    uint64_t GroupIters = 10 * Iters;
    GroupObserver Obs;
    C.UseStackMarkers = false; // Rejected in group mode.
    C.GcThreads = std::max(2u, C.GcThreads);
    C.Observer = &Obs;
    std::vector<double> Ns;
    for (int R = 0; R < Reps; ++R) {
      MutatorGroup G(C, GroupMutators);
      std::vector<double> Wall(GroupMutators, 0);
      G.run([&](Mutator &M, unsigned I) {
        Frame F(M, probeKey());
        double T0 = nowSec();
        allocLoop(M, F, GroupIters);
        Wall[I] = nowSec() - T0;
      });
      double Gc = G.gcStats().gcSeconds();
      for (double W : Wall)
        Ns.push_back((W - Gc) * 1e9 / static_cast<double>(GroupIters));
    }
    P.GroupAllocNs = median(Ns);
    P.SafepointWaitP99Us = percentile(Obs.WaitsUs, 0.99);
    P.WorkerBusyShare = Obs.CapacityNs > 0 ? Obs.BusyNs / Obs.CapacityNs : 0;
  }
  return P;
}

} // namespace benchmark
} // namespace tilgc
