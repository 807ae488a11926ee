//===- tests/oom_test.cpp - Structured OOM protocol --------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-pressure acceptance suite: every workload driven past a tiny
/// hard heap limit must surface a *catchable* HeapExhausted carrying a
/// heap-state dump — never an assert, never a null dereference — and must
/// leave a heap the verifier still certifies. Compiled twice: into the
/// regular assert-enabled test binary and into the NDEBUG resilience binary
/// (tilgc_resilience_ndebug), because the protocol must hold in release
/// builds where asserts are erased.
///
//===----------------------------------------------------------------------===//

#include "gc/HeapError.h"
#include "runtime/Mutator.h"
#include "runtime/MutatorGroup.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace tilgc;

namespace {

uint32_t oomSite() {
  static const uint32_t S = AllocSiteRegistry::global().define("oom.list");
  return S;
}

uint32_t oomKey() {
  static const uint32_t K = TraceTableRegistry::global().define(
      FrameLayout("oom.roots", {Trace::pointer(), Trace::pointer()}));
  return K;
}

/// Retains an ever-growing cons list until the collector throws. Returns
/// the caught exception's message + dump; fails the test on any other
/// outcome.
HeapExhausted exhaust(Mutator &M, Frame &F) {
  try {
    for (uint64_t I = 0;; ++I) {
      Value Cell = M.allocRecord(oomSite(), 2, 0b10);
      M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(I)));
      M.initField(Cell, 1, F.get(1));
      F.set(1, Cell);
      if (I > (64u << 20)) // Paranoia bound; the cap trips far earlier.
        break;
    }
  } catch (const HeapExhausted &E) {
    return E;
  }
  ADD_FAILURE() << "allocation loop never hit the hard limit";
  return HeapExhausted(0, OomStage::RetryAfterMinor, "");
}

void expectStructuredDump(const HeapExhausted &E, const char *CollectorTag) {
  std::string What = E.what();
  EXPECT_NE(What.find("heap exhausted"), std::string::npos) << What;
  EXPECT_NE(What.find("tilgc heap state"), std::string::npos) << What;
  // The dump names the collector, the spaces and the top allocation sites.
  EXPECT_NE(What.find(CollectorTag), std::string::npos) << What;
  EXPECT_NE(What.find("hard limit"), std::string::npos) << What;
  EXPECT_NE(What.find("oom.list"), std::string::npos) << What;
  EXPECT_GT(E.requestedBytes(), 0u);
}

MutatorConfig tinyConfig(CollectorKind Kind, const char *Name) {
  MutatorConfig C;
  C.Kind = Kind;
  C.Name = Name;
  C.BudgetBytes = 256u << 10;
  C.HardLimitBytes = 1u << 20;
  C.NurseryLimitBytes = 64u << 10;
  C.VerifyLevel = 1;
  return C;
}

} // namespace

TEST(OomProtocol, GenerationalThrowsCatchablyWithDump) {
  Mutator M(tinyConfig(CollectorKind::Generational, "gen-oom"));
  Frame F(M, oomKey());
  HeapExhausted E = exhaust(M, F);
  expectStructuredDump(E, "generational collector 'gen-oom'");
  EXPECT_GE(M.gcStats().HeapExhaustedThrows, 1u);

  // The failed request must not have corrupted anything: the heap walks
  // clean and the retained list is intact and readable.
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
  uint64_t Count = 0;
  for (Value V = F.get(1); !V.isNull(); V = Mutator::getField(V, 1))
    ++Count;
  EXPECT_GT(Count, 1000u);

  // Exhaustion is sticky under a hard cap (the copy reserve is part of the
  // footprint), but it must *stay* structured: a second attempt throws
  // again rather than crashing.
  HeapExhausted E2 = exhaust(M, F);
  EXPECT_NE(std::string(E2.what()).find("heap exhausted"),
            std::string::npos);
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

TEST(OomProtocol, SemispaceThrowsCatchablyWithDump) {
  Mutator M(tinyConfig(CollectorKind::Semispace, "semi-oom"));
  Frame F(M, oomKey());
  HeapExhausted E = exhaust(M, F);
  expectStructuredDump(E, "semispace collector 'semi-oom'");
  EXPECT_GE(M.gcStats().HeapExhaustedThrows, 1u);

  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
  uint64_t Count = 0;
  for (Value V = F.get(1); !V.isNull(); V = Mutator::getField(V, 1))
    ++Count;
  EXPECT_GT(Count, 1000u);
}

TEST(OomProtocol, MarkCompactCompletesWhereSemispaceReservationDies) {
  // The retired pre-flight workaround, proven structurally: a semispace
  // major needs from + to standing at once, so a budget whose space pair
  // overshoots the hard cap dies at the first major's pre-flight. The
  // compactor keeps ONE standing tenured space inside the same cap and
  // completes the same retention in place.
  auto config = [](GenerationalCollector::MajorGcKind K, const char *Name) {
    MutatorConfig C;
    C.Kind = CollectorKind::Generational;
    C.Name = Name;
    C.BudgetBytes = 1536u << 10; // Space pair 2x736K; single space 736K.
    C.HardLimitBytes = 1u << 20;
    C.NurseryLimitBytes = 64u << 10;
    C.VerifyLevel = 1;
    C.MajorGc = K;
    return C;
  };
  auto retain = [](Mutator &M, Frame &F, uint64_t Cells) {
    for (uint64_t I = 0; I < Cells; ++I) {
      Value Cell = M.allocRecord(oomSite(), 2, 0b10);
      M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(I)));
      M.initField(Cell, 1, F.get(1));
      F.set(1, Cell);
    }
    M.collect(/*Major=*/true);
  };
  constexpr uint64_t Cells = 12000; // ~384K retained.

  {
    Mutator M(config(GenerationalCollector::MajorGcKind::Semispace,
                     "pair-exceeds-cap"));
    Frame F(M, oomKey());
    try {
      retain(M, F, Cells);
      ADD_FAILURE() << "the 2x reservation fit under the cap";
    } catch (const HeapExhausted &E) {
      expectStructuredDump(E, "generational collector 'pair-exceeds-cap'");
    }
    std::string Error;
    EXPECT_TRUE(M.verifyHeap(Error)) << Error;
  }
  {
    Mutator M(config(GenerationalCollector::MajorGcKind::MarkCompact,
                     "compact-fits-cap"));
    Frame F(M, oomKey());
    retain(M, F, Cells); // Must NOT throw.
    EXPECT_GE(M.gcStats().NumMajorGC, 1u);
    EXPECT_EQ(M.gcStats().HeapExhaustedThrows, 0u);
    EXPECT_LE(M.gcStats().MaxFootprintBytes, size_t{1u << 20})
        << "the compactor's peak footprint breached the hard limit";
    uint64_t Count = 0;
    for (Value V = F.get(1); !V.isNull(); V = Mutator::getField(V, 1))
      ++Count;
    EXPECT_EQ(Count, Cells);
    std::string Error;
    EXPECT_TRUE(M.verifyHeap(Error)) << Error;
  }
}

TEST(OomProtocol, MarkCompactExhaustionIsNotSticky) {
  // Contrast with GenerationalThrowsCatchablyWithDump: the semispace
  // major's exhaustion is sticky (the copy reserve is part of the standing
  // footprint), but the compactor throws from the growth fallback with the
  // heap intact and nothing extra reserved — dropping data and retrying
  // must succeed.
  MutatorConfig C = tinyConfig(CollectorKind::Generational, "mc-retry");
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  Mutator M(C);
  Frame F(M, oomKey());
  HeapExhausted E = exhaust(M, F);
  expectStructuredDump(E, "generational collector 'mc-retry'");
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;

  // Drop the retained list: the live set is now tiny.
  F.set(1, Value::null());
  uint64_t ThrowsBefore = M.gcStats().HeapExhaustedThrows;
  M.collect(/*Major=*/true); // In-place compaction reclaims everything.
  for (uint64_t I = 0; I < 2000; ++I) { // ~64K: far under the cap.
    Value Cell = M.allocRecord(oomSite(), 2, 0b10);
    M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(I)));
    M.initField(Cell, 1, F.get(1));
    F.set(1, Cell);
  }
  EXPECT_EQ(M.gcStats().HeapExhaustedThrows, ThrowsBefore)
      << "retry after dropping data must not re-throw";
  uint64_t Count = 0;
  for (Value V = F.get(1); !V.isNull(); V = Mutator::getField(V, 1))
    ++Count;
  EXPECT_EQ(Count, 2000u);
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

TEST(OomProtocol, LargeObjectAllocationRespectsHardLimit) {
  Mutator M(tinyConfig(CollectorKind::Generational, "gen-los-oom"));
  Frame F(M, oomKey());
  try {
    for (uint64_t I = 0;; ++I) {
      // Over LargeObjectThresholdBytes: routed to the LOS.
      Value Arr = M.allocPtrArray(oomSite(), 2048);
      M.initField(Arr, 0, F.get(1));
      F.set(1, Arr);
      ASSERT_LT(I, 64u << 20);
    }
  } catch (const HeapExhausted &E) {
    expectStructuredDump(E, "generational collector");
  }
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

TEST(OomProtocol, ZeroHardLimitPreservesSoftBudgetGrowth) {
  // The paper's behavior: no hard limit means collections grow past the
  // budget (counting overruns) and never throw.
  MutatorConfig C = tinyConfig(CollectorKind::Generational, "gen-soft");
  C.HardLimitBytes = 0;
  Mutator M(C);
  Frame F(M, oomKey());
  for (uint64_t I = 0; I < 40000; ++I) {
    Value Cell = M.allocRecord(oomSite(), 2, 0b10);
    M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(I)));
    M.initField(Cell, 1, F.get(1));
    F.set(1, Cell);
  }
  EXPECT_EQ(M.gcStats().HeapExhaustedThrows, 0u);
  EXPECT_GT(M.gcStats().BudgetOverruns, 0u);
}

/// Every Table 1 workload, both collectors: under a tiny hard limit the run
/// either completes (then a retained allocation loop forces the limit) or
/// throws HeapExhausted — and in all cases the heap verifies clean after.
class WorkloadOom
    : public ::testing::TestWithParam<std::tuple<size_t, CollectorKind>> {};

TEST_P(WorkloadOom, StructuredFailurePastHardLimit) {
  const auto &Workloads = allWorkloads();
  Workload &W = *Workloads[std::get<0>(GetParam())];
  CollectorKind Kind = std::get<1>(GetParam());

  MutatorConfig C = tinyConfig(Kind, W.name());
  C.HardLimitBytes = 384u << 10;
  C.BudgetBytes = 128u << 10;
  Mutator M(C);
  bool Threw = false;
  try {
    uint64_t Sum = W.run(M, /*Scale=*/0.12);
    // Fit under the cap: the checksum must still be right, and a retained
    // loop must then hit the limit structurally.
    EXPECT_EQ(Sum, W.expected(0.12)) << W.name();
    Frame F(M, oomKey());
    HeapExhausted E = exhaust(M, F);
    EXPECT_NE(std::string(E.what()).find("tilgc heap state"),
              std::string::npos);
    Threw = true;
  } catch (const HeapExhausted &E) {
    EXPECT_NE(std::string(E.what()).find("tilgc heap state"),
              std::string::npos);
    Threw = true;
  } catch (const MLRaise &) {
    // Some workloads legitimately unwind through ML exceptions; the
    // allocation failure surfaced before a handler was reinstalled. The
    // heap must still be intact (checked below).
  }
  EXPECT_TRUE(Threw) << W.name() << ": never saw HeapExhausted";
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << W.name() << ": " << Error;
  EXPECT_GE(M.gcStats().HeapExhaustedThrows, Threw ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadOom,
    ::testing::Combine(::testing::Range<size_t>(0, 11),
                       ::testing::Values(CollectorKind::Generational,
                                         CollectorKind::Semispace)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, CollectorKind>>
           &Info) {
      std::string Name = allWorkloads()[std::get<0>(Info.param)]->name();
      for (char &Ch : Name)
        if (!isalnum(static_cast<unsigned char>(Ch)))
          Ch = '_';
      return Name + (std::get<1>(Info.param) == CollectorKind::Generational
                         ? "_gen"
                         : "_semi");
    });

TEST(OomProtocolDeath, UncaughtMLExceptionDiesStructurally) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MutatorConfig C;
        C.Name = "uncaught-exn";
        Mutator M(C);
        Frame F(M, oomKey());
        M.raise(Value::fromInt(7)); // No handler installed.
      },
      "uncaught ML exception in mutator 'uncaught-exn'");
}

TEST(OomProtocolDeath, HostAllocationFailureDiesStructurally) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A reservation so large the host refuses it: the always-on fatal path
  // (not an NDEBUG-erased assert, not a null dereference).
  EXPECT_DEATH(
      {
        Space S;
        S.reserve(~size_t{0} / 2);
      },
      "space reservation of .* failed: host out of memory");
}

TEST(OomProtocolDeath, ShadowStackReservationFailureDiesStructurally) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A slot capacity past the host's address space: the mapping is refused
  // and the stack dies through the always-on fatal path.
  EXPECT_DEATH({ ShadowStack S(size_t{1} << 60); },
               "shadow stack reservation of .* failed");
}

//===----------------------------------------------------------------------===//
// Multi-mutator exhaustion: a hard cap shared by K threads must surface a
// catchable HeapExhausted on EVERY thread (each unwinds through its own
// stop-the-world slow path) and leave a heap the verifier certifies.
// Compiled into the NDEBUG twin too: the protocol cannot lean on asserts.
//===----------------------------------------------------------------------===//

TEST(OomProtocolMultiMutator, HardCapUnwindsEveryThread) {
  MutatorConfig C = tinyConfig(CollectorKind::Generational, "mm-oom");
  C.HardLimitBytes = 2u << 20;
  const unsigned K = 3;
  MutatorGroup G(C, K);
  std::vector<int> Caught(K, 0);
  G.run([&](Mutator &M, unsigned I) {
    Frame F(M, oomKey());
    try {
      for (uint64_t J = 0;; ++J) {
        Value Cell = M.allocRecord(oomSite(), 2, 0b10);
        M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(J)));
        M.initField(Cell, 1, F.get(1));
        F.set(1, Cell);
        if (J > (64u << 20)) // Paranoia bound; the cap trips far earlier.
          break;
      }
    } catch (const HeapExhausted &E) {
      std::string What = E.what();
      if (What.find("heap exhausted") != std::string::npos &&
          What.find("tilgc heap state") != std::string::npos)
        Caught[I] = 1;
    }
    // Dropping this thread's list (Frame pops here) frees room, so the
    // remaining threads run on until the cap trips for each in turn.
  });
  for (unsigned I = 0; I < K; ++I)
    EXPECT_EQ(Caught[I], 1) << "thread " << I
                            << " did not catch a structured HeapExhausted";
  EXPECT_GE(G.gcStats().HeapExhaustedThrows, uint64_t(K));
  std::string Error;
  EXPECT_TRUE(G.mutator(0).verifyHeap(Error)) << Error;
}
