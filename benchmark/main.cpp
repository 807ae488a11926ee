//===- benchmark/main.cpp - The repository benchmark -----------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the eleven Table-1 programs under one of three collector set-ups
/// (workloads) for a given number of seconds and prints the end-to-end
/// metrics, or with --trace 1 the per-layer metrics, as one JSON line.
/// README.md describes the workloads, the metrics and the checks.
///
/// Structure of one run:
///  1. Input preparation, untimed: per program the k*Min calibration run
///     and the reference checksum (Workload::expected).
///  2. Set-up, timed as setup_s: profiling passes deriving every program's
///     pretenure set at the paper's 80% cutoff (the median of SetupReps).
///  3. One untimed warm-up pass, then a fixed number of timed passes:
///     --seconds over the workload's reference pass time, so that the count
///     depends on the run length alone and never on the speed of the code
///     measured. A time metric is, per program, the lowest over the timed
///     passes, summed over programs: other tenants of a shared host only
///     ever slow a pass down, and the fastest pass is the steadiest
///     estimate of what the code costs (README.md gives the spreads). A
///     pause percentile is, per program, exact over every pause of every
///     timed pass, and then the geometric mean over programs. With
///     --trace 1 untraced and traced passes alternate, half the count each,
///     and the probe loops of Probes.h run at the end.
///
/// Every program run is one operation per mutator; it fails when any check
/// on it fails (checksum, heap verification, allocation volume, pause
/// budget, phase accounting) or when it throws.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Probes.h"
#include "Stats.h"

#include "gc/GenerationalCollector.h"
#include "observe/GcTelemetry.h"
#include "runtime/MutatorGroup.h"
#include "workloads/Workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace tilgc;
using namespace tilgc::benchmark;

namespace {

#ifndef TILGC_BENCH_BUILD_TYPE
#define TILGC_BENCH_BUILD_TYPE "unspecified"
#endif

/// Scale 1.0 is the workloads' default benchmarking size.
constexpr double DefaultScale = 1.0;
constexpr double SmokeScale = 0.05;
constexpr int SetupReps = 5;
constexpr unsigned PrepareThreads = 3;
constexpr uint64_t ProbeIters = 200000;
constexpr uint64_t SmokeProbeIters = 2000;
constexpr uint64_t PauseBudgetUs = 500;
constexpr double PretenureCutoff = 0.8;

using Figures = std::map<std::string, double>;

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  double Scale = DefaultScale;
  bool ScaleGiven = false;
  bool Smoke = false;
  /// Self-test hook: perturbs this program's reference checksum, so every
  /// run of it must be counted as failed.
  std::string WrongReference;
};

struct WorkloadSpec {
  const char *Name;
  double K;
  unsigned Mutators;
  /// Seconds one pass takes on the reference host (README.md); the timed
  /// pass count is --seconds over this.
  double PassSec;
  void (*Configure)(MutatorConfig &);
};

const WorkloadSpec Specs[] = {
    // The paper's full configuration (§5 stack markers, §6 pretenuring).
    {"paper", 4.0, 1, 1.4,
     [](MutatorConfig &C) {
       C.UseStackMarkers = true;
       C.MarkerPeriod = 25;
     }},
    // GC-bound: a tight budget, the region compactor sliced to a pause SLO,
    // and the barrier that switches to cards under Peg's store flood.
    {"pause-slo", 2.0, 1, 1.9,
     [](MutatorConfig &C) {
       C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
       C.MaxPauseMicros = PauseBudgetUs;
       C.Barrier = GenerationalCollector::BarrierKind::Hybrid;
     }},
    // Two mutator threads on one heap, with parallel evacuation. Not in
    // BENCHMARK.json: its pause tail follows the host's scheduling.
    {"group", 4.0, 2, 3.0, [](MutatorConfig &C) { C.GcThreads = 2; }},
};

double nowSec() {
  return static_cast<double>(GcTelemetry::nowNs()) / 1e9;
}

//===----------------------------------------------------------------------===//
// Observers
//===----------------------------------------------------------------------===//

/// Records every collection's exact pause. Registered on every run, traced
/// or not, so that arming the telemetry plane costs every run the same.
class PauseObserver : public GcObserver {
public:
  PauseObserver() {
    Pauses.reserve(1 << 14);
    MajorPauses.reserve(1 << 12);
  }
  void onGcEnd(const GcEvent &E) override {
    Pauses.push_back(E.PauseNs);
    if (E.Gen == GcGeneration::Major)
      MajorPauses.push_back(E.PauseNs);
  }
  std::vector<uint64_t> Pauses;
  std::vector<uint64_t> MajorPauses;
};

/// The traced run's observer: also keeps phase self times, pause intervals
/// (for MMU) and the region census.
class TraceObserver : public PauseObserver {
public:
  void onGcEnd(const GcEvent &E) override {
    PauseObserver::onGcEnd(E);
    Intervals.emplace_back(E.BeginNs, E.EndNs);
    PausedNs += E.PauseNs;
    for (unsigned I = 0; I < NumGcPhases; ++I)
      PhaseNs[I] += E.PhaseDurNs[I];
    if (E.phaseTotalNs() > E.PauseNs)
      ++PhaseOverruns;
    RegionsDense += E.RegionsDense;
    RegionsEvacuated += E.RegionsEvacuated;
  }
  std::vector<Interval> Intervals;
  uint64_t PausedNs = 0;
  uint64_t PhaseNs[NumGcPhases] = {};
  uint64_t PhaseOverruns = 0;
  uint64_t RegionsDense = 0;
  uint64_t RegionsEvacuated = 0;
};

std::string phaseMetric(unsigned I) {
  std::string Name = std::string("gc.") + gcPhaseName(static_cast<GcPhase>(I));
  std::replace(Name.begin(), Name.end(), '-', '_');
  return Name + "_s";
}

//===----------------------------------------------------------------------===//
// Programs and passes
//===----------------------------------------------------------------------===//

enum class Mode { Profile, Untraced, Traced };

struct Program {
  std::string Name;
  /// One private instance per mutator thread.
  std::vector<std::unique_ptr<Workload>> Instances;
  uint64_t Expected = 0;
  /// One mutator's configuration: k*Min budget, pretenure set once derived.
  MutatorConfig Config;
  /// One mutator's allocation volume, from the first profiling run.
  uint64_t RefBytesAllocated = 0;
  std::vector<PretenureDecision> Pretenure;
  std::vector<Figures> Untraced, Traced;
  /// Every pause of the untraced passes.
  PausePool Pauses;
};


struct Ledger {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  unsigned Reported = 0;

  void record(unsigned Ops, const Program &P, const std::string &Why) {
    Attempted += Ops;
    if (Why.empty())
      return;
    Failed += Ops;
    if (Reported++ < 20)
      std::fprintf(stderr, "FAILED %s: %s\n", P.Name.c_str(), Why.c_str());
  }
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value;
};

class Bench {
public:
  Bench(const WorkloadSpec &Spec, const Options &Opts, Ledger &L)
      : Spec(Spec), Opts(Opts), L(L), Rng(Opts.Seed) {}

  void prepare();
  double profilePass();
  void pass(Mode M);
  /// Forgets every pass so far (the warm-up).
  void discardRounds() {
    for (Program &P : Programs) {
      P.Untraced.clear();
      P.Traced.clear();
      P.Pauses = PausePool();
    }
  }
  /// Prints the run's stamp and every metric as text, and returns the
  /// metrics the JSON line carries: end-to-end ones, or with \p Probes
  /// (a traced run) the per-layer ones.
  std::vector<Metric> report(double PrepareSec, int TimedRounds,
                             int TracedRounds,
                             const std::vector<double> &SetupSec,
                             const ProbeCosts *Probes);

private:
  /// Runs \p P once; an untraced run adds its pauses to P.Pauses.
  Figures runProgram(Program &P, Mode M);
  std::vector<double> samples(const Program &P, bool Traced,
                              const std::string &Name) const;
  /// Sum over programs of each program's lowest figure over the untraced
  /// passes: the estimator of the end-to-end times.
  double fastest(const std::string &Name) const;
  /// Sum over programs of each program's median figure over the passes.
  double typical(bool Traced, const std::string &Name) const;
  /// Lowest over programs of each program's median traced figure.
  double worstProgram(const std::string &Name) const;
  /// Geometric mean over the programs that paused of each program's exact
  /// pause percentile \p Q over its untraced passes, in microseconds.
  double pausePercentileUs(double Q) const;

  const WorkloadSpec &Spec;
  const Options &Opts;
  Ledger &L;
  std::mt19937_64 Rng;
  std::vector<Program> Programs;
};

void Bench::prepare() {
  const std::vector<std::unique_ptr<Workload>> &All = allWorkloads();
  for (const std::unique_ptr<Workload> &W : All) {
    Program P;
    P.Name = W->name();
    for (unsigned I = 0; I < Spec.Mutators; ++I)
      P.Instances.push_back(makeWorkloadByName(W->name()));
    P.Config.Name = P.Name;
    Spec.Configure(P.Config);
    Programs.push_back(std::move(P));
  }
  // Untimed, so the references may use more cores than the measured
  // passes: FFT's alone is an O(n^2) loop that outlasts most programs'
  // runs. They are plain C++ that touches no runtime state. The
  // calibration runs a Mutator and so stays on this thread: the runtime's
  // process-wide caches (the stack-scan plans) are single-threaded.
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next++) < Programs.size();) {
      Program &P = Programs[I];
      P.Expected = P.Instances[0]->expected(Opts.Scale);
      if (P.Name == Opts.WrongReference)
        P.Expected += 1;
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < PrepareThreads; ++T)
    Pool.emplace_back(Worker);
  // The registry's instances outlive every Bench, so minBytesFor's cache,
  // keyed by instance and scale, never serves one program's Min to another.
  for (size_t I = 0; I < Programs.size(); ++I)
    Programs[I].Config.BudgetBytes = static_cast<size_t>(
        Spec.K * static_cast<double>(bench::minBytesFor(*All[I], Opts.Scale)));
  for (std::thread &T : Pool)
    T.join();
}

Figures Bench::runProgram(Program &P, Mode Md) {
  // Observers outlive the runtime they are registered with.
  PauseObserver Plain;
  TraceObserver Tracer;
  PauseObserver &Obs = Md == Mode::Traced ? Tracer : Plain;
  MutatorConfig C = P.Config;
  C.Observer = &Obs;
  unsigned N = Md == Mode::Profile ? 1 : Spec.Mutators;
  C.BudgetBytes *= N;
  if (Md == Mode::Profile)
    C.EnableProfiling = true;
  else
    C.Pretenure = P.Pretenure;

  Figures F;
  std::string Why;
  auto Check = [&Why](bool Ok, std::string Msg) {
    if (!Ok && Why.empty())
      Why = std::move(Msg);
  };
  rusage R0{}, R1{};
  std::vector<uint64_t> Sums(N, 0);
  uint64_t Begin = 0, End = 0;

  // Everything read from the runtime after the timed region.
  auto Harvest = [&](Mutator &Primary, GcStats &S, uint64_t Raises,
                     uint64_t Updates) {
    if (Md == Mode::Profile) {
      std::vector<PretenureDecision> Set =
          Primary.profiler()->derivePretenureSet(PretenureCutoff);
      for (PretenureDecision &D : Set)
        D.EliminateScan = false; // Pretenuring alone, as in Tables 6-7.
      End = GcTelemetry::nowNs(); // Deriving the set is set-up work too.
      if (P.RefBytesAllocated == 0) {
        P.RefBytesAllocated = S.BytesAllocated;
        P.Pretenure = Set;
      }
      bool Same = Set.size() == P.Pretenure.size();
      for (size_t I = 0; Same && I < Set.size(); ++I)
        Same = Set[I].SiteId == P.Pretenure[I].SiteId;
      Check(Same, "profiling derived a different pretenure set");
    }
    for (unsigned I = 0; I < N; ++I)
      Check(Sums[I] == P.Expected,
            "mutator " + std::to_string(I) + " checksum " +
                std::to_string(Sums[I]) + " != reference " +
                std::to_string(P.Expected));
    std::string Err;
    Check(Primary.verifyHeap(Err), "heap verification: " + Err);
    Check(S.BytesAllocated == N * P.RefBytesAllocated,
          "allocated " + std::to_string(S.BytesAllocated) + " bytes, not " +
              std::to_string(N) + " x " +
              std::to_string(P.RefBytesAllocated));
    if (C.MaxPauseMicros) {
      std::vector<double> Major(Obs.MajorPauses.begin(),
                                Obs.MajorPauses.end());
      double P99 = percentile(Major, 0.99);
      Check(P99 <= static_cast<double>(C.MaxPauseMicros) * 1e3,
            "major pause p99 " + std::to_string(P99 / 1e3) +
                " us over the budget");
    }

    F["run_s"] = static_cast<double>(End - Begin) / 1e9;
    F["gc_s"] = S.gcSeconds();
    F["footprint_mb"] = static_cast<double>(S.MaxFootprintBytes) / 1e6;
    if (Md == Mode::Untraced)
      P.Pauses.add(Obs.Pauses);
    if (Md != Mode::Traced)
      return;

    Check(Tracer.PhaseOverruns == 0,
          std::to_string(Tracer.PhaseOverruns) +
              " events with phase total over the pause");
    uint64_t PhaseSum = 0;
    for (unsigned I = 0; I < NumGcPhases; ++I) {
      F[phaseMetric(I)] = static_cast<double>(Tracer.PhaseNs[I]) / 1e9;
      PhaseSum += Tracer.PhaseNs[I];
    }
    F["gc.unattributed_s"] = (static_cast<double>(Tracer.PausedNs) -
                              static_cast<double>(PhaseSum)) /
                             1e9;
    auto &GC = static_cast<GenerationalCollector &>(Primary.collector());
    F["gc.minors"] = static_cast<double>(Obs.Pauses.size() -
                                         Obs.MajorPauses.size());
    F["gc.majors"] = static_cast<double>(S.NumMajorGC);
    F["gc.slices"] = static_cast<double>(GC.incrementalSlices());
    F["gc.cycles"] = static_cast<double>(GC.incrementalCycles());
    F["gc.bytes_copied"] = static_cast<double>(S.BytesCopied);
    F["gc.major_bytes_moved"] = static_cast<double>(S.MajorBytesMoved);
    F["gc.mmu_10ms"] =
        minMutatorUtilisation(Tracer.Intervals, Begin, End, 10000000);
    F["gc.mmu_100ms"] =
        minMutatorUtilisation(Tracer.Intervals, Begin, End, 100000000);

    F["stack.frames_scanned"] = static_cast<double>(S.FramesScanned);
    F["stack.frames_reused"] = static_cast<double>(S.FramesReused);
    F["stack.slots_visited"] = static_cast<double>(S.SlotsVisited);
    F["stack.plan_words"] = static_cast<double>(S.PlanWordsScanned);

    F["heap.ssb_entries"] = static_cast<double>(S.SSBEntriesProcessed);
    F["heap.cards_scanned"] = static_cast<double>(S.CardsScanned);
    F["heap.card_slots_visited"] = static_cast<double>(S.CardSlotsVisited);
    F["heap.crossing_map_updates"] =
        static_cast<double>(S.CrossingMapUpdates);
    F["heap.regions_dense"] = static_cast<double>(Tracer.RegionsDense);
    F["heap.regions_evacuated"] =
        static_cast<double>(Tracer.RegionsEvacuated);
    F["heap.page_faults"] =
        static_cast<double>((R1.ru_minflt - R0.ru_minflt) +
                            (R1.ru_majflt - R0.ru_majflt));
    F["heap.sys_s"] =
        static_cast<double>(R1.ru_stime.tv_sec - R0.ru_stime.tv_sec) +
        static_cast<double>(R1.ru_stime.tv_usec - R0.ru_stime.tv_usec) / 1e6;

    F["runtime.raises"] = static_cast<double>(Raises);
    F["runtime.pointer_updates"] = static_cast<double>(Updates);
    F["runtime.objects_allocated"] = static_cast<double>(S.ObjectsAllocated);
    F["runtime.bytes_allocated"] = static_cast<double>(S.BytesAllocated);
    F["profile.pretenured_bytes"] = static_cast<double>(S.PretenuredBytes);
  };

  try {
    if (Md == Mode::Traced)
      getrusage(RUSAGE_SELF, &R0);
    Begin = GcTelemetry::nowNs();
    if (N == 1) {
      Mutator M(C);
      Sums[0] = P.Instances[0]->run(M, Opts.Scale);
      End = GcTelemetry::nowNs();
      if (Md == Mode::Traced)
        getrusage(RUSAGE_SELF, &R1);
      Harvest(M, M.gcStats(), M.raises(), M.pointerUpdates());
    } else {
      MutatorGroup G(C, N);
      G.run([&](Mutator &M, unsigned I) {
        Sums[I] = P.Instances[I]->run(M, Opts.Scale);
      });
      End = GcTelemetry::nowNs();
      if (Md == Mode::Traced)
        getrusage(RUSAGE_SELF, &R1);
      uint64_t Raises = 0, Updates = 0;
      for (unsigned I = 0; I < N; ++I) {
        Raises += G.mutator(I).raises();
        Updates += G.mutator(I).pointerUpdates();
      }
      Harvest(G.mutator(0), G.gcStats(), Raises, Updates);
    }
  } catch (const std::exception &E) {
    Check(false, std::string("threw: ") + E.what());
  }
  L.record(N, P, Why);
  return F;
}

double Bench::profilePass() {
  double Sec = 0;
  for (Program &P : Programs)
    Sec += runProgram(P, Mode::Profile)["run_s"];
  return Sec;
}

void Bench::pass(Mode Md) {
  std::vector<Program *> Order;
  for (Program &P : Programs)
    Order.push_back(&P);
  std::shuffle(Order.begin(), Order.end(), Rng);
  for (Program *P : Order) {
    Figures F = runProgram(*P, Md);
    (Md == Mode::Traced ? P->Traced : P->Untraced).push_back(std::move(F));
  }
}

std::vector<double> Bench::samples(const Program &P, bool Traced,
                                   const std::string &Name) const {
  std::vector<double> Xs;
  for (const Figures &F : Traced ? P.Traced : P.Untraced) {
    auto It = F.find(Name);
    if (It != F.end())
      Xs.push_back(It->second);
  }
  return Xs;
}

double Bench::fastest(const std::string &Name) const {
  double Sum = 0;
  for (const Program &P : Programs)
    Sum += lowest(samples(P, false, Name));
  return Sum;
}

double Bench::typical(bool Traced, const std::string &Name) const {
  double Sum = 0;
  for (const Program &P : Programs)
    Sum += median(samples(P, Traced, Name));
  return Sum;
}

double Bench::worstProgram(const std::string &Name) const {
  double Min = 1;
  for (const Program &P : Programs)
    Min = std::min(Min, median(samples(P, true, Name)));
  return Min;
}

double Bench::pausePercentileUs(double Q) const {
  double LogSum = 0;
  unsigned Paused = 0;
  for (const Program &P : Programs) {
    if (P.Pauses.empty())
      continue;
    // 1 ns is the resolution of GcEvent::PauseNs.
    LogSum += std::log(std::max(P.Pauses.percentileUs(Q), 1e-3));
    ++Paused;
  }
  return Paused ? std::exp(LogSum / Paused) : 0;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

std::string number(double V) {
  char Buf[48];
  if (V == std::floor(V) && std::fabs(V) < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  else
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (size_t I = 0; I < Ms.size(); ++I)
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
         number(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  return S + "}";
}

std::string resultJson(const Ledger &L, const std::vector<Metric> &Ms) {
  return std::string("{\"correct\": ") + (L.Failed ? "false" : "true") +
         ", \"attempted\": " + std::to_string(L.Attempted) +
         ", \"failed\": " + std::to_string(L.Failed) +
         ", \"metrics\": " + metricsJson(Ms) + "}";
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

std::vector<Metric> Bench::report(double PrepareSec, int TimedRounds,
                                  int TracedRounds,
                                  const std::vector<double> &SetupSec,
                                  const ProbeCosts *Probes) {
  std::printf("# tilgc benchmark: workload=%s seed=%llu scale=%g "
              "rounds=%d traced_rounds=%d setup_reps=%zu prepare_s=%.1f "
              "build=%s NDEBUG=1 compiler=\"%s %s\" nproc=%u\n",
              Spec.Name, (unsigned long long)Opts.Seed, Opts.Scale,
              TimedRounds, TracedRounds, SetupSec.size(), PrepareSec,
              TILGC_BENCH_BUILD_TYPE,
#ifdef __clang__
              "clang",
#else
              "gcc",
#endif
              __VERSION__, std::thread::hardware_concurrency());
  double SetupS = median(SetupSec);
  std::vector<Metric> EndToEnd = {
      {"run_s", "s", fastest("run_s")},
      {"setup_s", "s", SetupS},
      {"gc_s", "s", fastest("gc_s")},
      {"pause_p50_us", "us", pausePercentileUs(0.50)},
      {"pause_p99_us", "us", pausePercentileUs(0.99)},
      {"footprint_mb", "MB", fastest("footprint_mb")},
  };
  std::vector<Metric> Layers;
  if (Probes) {
    const ProbeCosts &C = *Probes;
    double TracedRun = typical(true, "run_s");
    double Raises = typical(true, "runtime.raises");
    double Updates = typical(true, "runtime.pointer_updates");
    double Objects = typical(true, "runtime.objects_allocated");
    double AllocNs = Spec.Mutators > 1 ? C.GroupAllocNs : C.AllocNs;
    // Work of all mutator threads, spread over the threads that ran it.
    double LayerS = (Raises * C.RaiseNs + Updates * C.BarrierNs +
                     Objects * AllocNs) /
                    1e9 / Spec.Mutators;
    Layers = {
        {"runtime.frame_ns", "ns", C.FrameNs},
        {"runtime.raise_ns", "ns", C.RaiseNs},
        {"runtime.raise_per_frame_ns", "ns", C.RaisePerFrameNs},
        {"runtime.alloc_ns", "ns", C.AllocNs},
        {"runtime.barrier_ns", "ns", C.BarrierNs},
        {"runtime.group_alloc_ns", "ns", C.GroupAllocNs},
        {"runtime.raises", "count", Raises},
        {"runtime.pointer_updates", "count", Updates},
        {"runtime.objects_allocated", "count", Objects},
        {"runtime.bytes_allocated", "bytes",
         typical(true, "runtime.bytes_allocated")},
        {"runtime.client_residual_s", "s",
         TracedRun - typical(true, "gc_s") - LayerS},
    };
    for (unsigned I = 0; I < NumGcPhases; ++I)
      Layers.push_back({phaseMetric(I), "s", typical(true, phaseMetric(I))});
    double Sites = 0;
    for (const Program &P : Programs)
      Sites += static_cast<double>(P.Pretenure.size());
    double Scanned = typical(true, "stack.frames_scanned");
    double Reused = typical(true, "stack.frames_reused");
    double Copied = typical(true, "gc.bytes_copied");
    std::vector<Metric> Rest = {
        {"gc.unattributed_s", "s", typical(true, "gc.unattributed_s")},
        {"gc.minors", "count", typical(true, "gc.minors")},
        {"gc.majors", "count", typical(true, "gc.majors")},
        {"gc.slices", "count", typical(true, "gc.slices")},
        {"gc.cycles", "count", typical(true, "gc.cycles")},
        {"gc.bytes_copied", "bytes", Copied},
        {"gc.copy_mb_per_s", "MB/s",
         ratio(Copied / 1e6, typical(true, "gc.copy_s"))},
        {"gc.major_bytes_moved", "bytes",
         typical(true, "gc.major_bytes_moved")},
        {"gc.worker_busy_share", "ratio", C.WorkerBusyShare},
        {"gc.safepoint_wait_p99_us", "us", C.SafepointWaitP99Us},
        {"gc.mmu_10ms", "ratio", worstProgram("gc.mmu_10ms")},
        {"gc.mmu_100ms", "ratio", worstProgram("gc.mmu_100ms")},
        {"stack.frames_scanned", "count", Scanned},
        {"stack.frames_reused", "count", Reused},
        {"stack.reuse_ratio", "ratio", ratio(Reused, Scanned + Reused)},
        {"stack.slots_visited", "count", typical(true, "stack.slots_visited")},
        {"stack.plan_words", "count", typical(true, "stack.plan_words")},
        {"heap.ssb_entries", "count", typical(true, "heap.ssb_entries")},
        {"heap.cards_scanned", "count", typical(true, "heap.cards_scanned")},
        {"heap.card_slots_visited", "count",
         typical(true, "heap.card_slots_visited")},
        {"heap.crossing_map_updates", "count",
         typical(true, "heap.crossing_map_updates")},
        {"heap.regions_dense", "count", typical(true, "heap.regions_dense")},
        {"heap.regions_evacuated", "count",
         typical(true, "heap.regions_evacuated")},
        {"heap.page_faults", "count", typical(true, "heap.page_faults")},
        {"heap.sys_s", "s", typical(true, "heap.sys_s")},
        {"profile.overhead_ratio", "ratio",
         ratio(SetupS, typical(false, "run_s"))},
        {"profile.pretenured_sites", "count", Sites},
        {"profile.pretenured_bytes", "bytes",
         typical(true, "profile.pretenured_bytes")},
        {"observe.tracing_overhead_s", "s",
         TracedRun - typical(false, "run_s")},
    };
    Layers.insert(Layers.end(), Rest.begin(), Rest.end());
  }
  for (const std::vector<Metric> *Group : {&EndToEnd, &Layers})
    for (const Metric &M : *Group)
      std::printf("#   %-30s %16s %s\n", M.Name.c_str(),
                  number(M.Value).c_str(), M.Unit.c_str());
  return Probes ? Layers : EndToEnd;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

const char *Usage =
    "usage: tilgc_bench --workload <paper|pause-slo|group> [--seed N]\n"
    "                   [--seconds S] [--trace 0|1] [--scale X]\n"
    "       tilgc_bench --smoke [--scale X] [--wrong-reference PROGRAM]\n";

bool parseNumber(const char *Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return End != Text && *End == '\0' && std::isfinite(Out);
}

/// Parses argv into \p O; returns an error message, or "" on success.
std::string parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    std::string Value;
    size_t Eq = Flag.find('=');
    if (Eq != std::string::npos) {
      Value = Flag.substr(Eq + 1);
      Flag.resize(Eq);
    } else if (Flag != "--smoke") {
      if (I + 1 >= Argc)
        return Flag + " needs a value";
      Value = Argv[++I];
    }
    double V = 0;
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      if (!parseNumber(Value.c_str(), V) || V < 0 || V != std::floor(V))
        return "--seed must be a whole number, got '" + Value + "'";
      O.Seed = static_cast<uint64_t>(V);
    } else if (Flag == "--seconds") {
      if (!parseNumber(Value.c_str(), V) || V <= 0)
        return "--seconds must be a positive number, got '" + Value + "'";
      O.Seconds = V;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return "--trace must be 0 or 1, got '" + Value + "'";
      O.Trace = Value == "1";
    } else if (Flag == "--scale") {
      if (!parseNumber(Value.c_str(), V) || V <= 0)
        return "--scale must be a positive number, got '" + Value + "'";
      O.Scale = V;
      O.ScaleGiven = true;
    } else if (Flag == "--smoke") {
      O.Smoke = true;
    } else if (Flag == "--wrong-reference") {
      if (!makeWorkloadByName(Value.c_str()))
        return "unknown program '" + Value + "'";
      O.WrongReference = Value;
    } else {
      return "unknown argument '" + Flag + "'";
    }
  }
  if (O.Smoke) {
    if (!O.ScaleGiven)
      O.Scale = SmokeScale;
    return "";
  }
  for (const WorkloadSpec &S : Specs)
    if (O.Workload == S.Name)
      return "";
  return "unknown workload '" + O.Workload + "'";
}

/// One run of one workload: prints the text report and returns the metrics
/// of the JSON line.
std::vector<Metric> runWorkload(const WorkloadSpec &Spec, const Options &O,
                                Ledger &L) {
  Bench B(Spec, O, L);
  double Start = nowSec();
  B.prepare();
  double PrepareSec = nowSec() - Start;
  std::vector<double> SetupSec;
  for (int R = 0; R < (O.Smoke ? 1 : SetupReps); ++R)
    SetupSec.push_back(B.profilePass());

  int Timed = 1, Traced = 1;
  if (O.Smoke) {
    B.pass(Mode::Untraced);
    B.pass(Mode::Traced);
  } else {
    B.pass(Mode::Untraced); // Warm-up, discarded below.
    B.discardRounds();
    int Passes =
        std::max(1, static_cast<int>(std::lround(O.Seconds / Spec.PassSec)));
    Timed = O.Trace ? std::max(1, Passes / 2) : Passes;
    Traced = O.Trace ? Timed : 0;
    for (int R = 0; R < Timed; ++R) {
      B.pass(Mode::Untraced);
      if (O.Trace)
        B.pass(Mode::Traced);
    }
  }
  if (!O.Trace && !O.Smoke)
    return B.report(PrepareSec, Timed, Traced, SetupSec, nullptr);
  MutatorConfig C;
  Spec.Configure(C);
  ProbeCosts Costs = runProbes(C, std::max(2u, Spec.Mutators),
                               O.Smoke ? SmokeProbeIters : ProbeIters);
  return B.report(PrepareSec, Timed, Traced, SetupSec, &Costs);
}

} // namespace

int main(int Argc, char **Argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "tilgc_bench: refusing to report from an "
                       "assert-enabled build; build with NDEBUG (Release)\n");
  return 3;
#endif
  Options O;
  std::string Error = parseArgs(Argc, Argv, O);
  if (!Error.empty()) {
    std::fprintf(stderr, "tilgc_bench: %s\n%s", Error.c_str(), Usage);
    return 2;
  }
  Ledger L;
  if (!O.Smoke) {
    for (const WorkloadSpec &S : Specs)
      if (O.Workload == S.Name) {
        std::vector<Metric> Ms = runWorkload(S, O, L);
        std::printf("%s\n", resultJson(L, Ms).c_str());
      }
    return 0;
  }
  // Smoke: every workload, one small pass each way, every check on.
  for (const WorkloadSpec &S : Specs) {
    Ledger Own;
    std::vector<Metric> Ms = runWorkload(S, O, Own);
    std::printf("# %s: %s\n", S.Name, resultJson(Own, Ms).c_str());
    L.Attempted += Own.Attempted;
    L.Failed += Own.Failed;
  }
  std::printf("%s\n", resultJson(L, {}).c_str());
  return L.Failed ? 1 : 0;
}
