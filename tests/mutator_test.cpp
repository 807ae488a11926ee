//===- tests/mutator_test.cpp - Runtime + collector integration tests ------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "gc/HeapError.h"
#include "workloads/MLLib.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

uint32_t siteTest() {
  static const uint32_t S = AllocSiteRegistry::global().define("test.site");
  return S;
}

uint32_t keyTest() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "test.mutator",
      {Trace::pointer(), Trace::pointer(), Trace::pointer(), Trace::pointer()}));
  return K;
}

MutatorConfig smallConfig(CollectorKind Kind, bool Markers = false) {
  MutatorConfig C;
  C.Kind = Kind;
  C.BudgetBytes = 256u << 10; // Tiny: forces frequent collections.
  C.UseStackMarkers = Markers;
  return C;
}

/// Builds an int list 1..N and checks its contents after forcing GCs.
void buildAndCheckList(Mutator &M, int N) {
  Frame F(M, keyTest());
  for (int I = N; I >= 1; --I)
    F.set(1, consInt(M, siteTest(), I, slot(F, 1)));

  M.collect(/*Major=*/false);
  M.collect(/*Major=*/true);

  Value P = F.get(1);
  for (int I = 1; I <= N; ++I) {
    ASSERT_FALSE(P.isNull());
    EXPECT_EQ(headInt(P), I);
    P = tail(P);
  }
  EXPECT_TRUE(P.isNull());
}

} // namespace

TEST(MutatorTest, SemispacePreservesLists) {
  Mutator M(smallConfig(CollectorKind::Semispace));
  buildAndCheckList(M, 5000);
  EXPECT_GT(M.gcStats().NumGC, 0u);
}

TEST(MutatorTest, GenerationalPreservesLists) {
  Mutator M(smallConfig(CollectorKind::Generational));
  buildAndCheckList(M, 5000);
  EXPECT_GT(M.gcStats().NumGC, 0u);
}

TEST(MutatorTest, GenerationalWithMarkersPreservesLists) {
  Mutator M(smallConfig(CollectorKind::Generational, /*Markers=*/true));
  buildAndCheckList(M, 5000);
}

TEST(MutatorTest, SemispaceWithMarkersPreservesLists) {
  Mutator M(smallConfig(CollectorKind::Semispace, /*Markers=*/true));
  buildAndCheckList(M, 5000);
}

TEST(MutatorTest, SharedStructureIsPreservedNotDuplicated) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  // Two records sharing a tail: after GC they must still share.
  F.set(1, consInt(M, siteTest(), 7, slot(F, 3)));
  F.set(2, consPtr(M, siteTest(), slot(F, 1), slot(F, 3)));
  F.set(3, consPtr(M, siteTest(), slot(F, 1), slot(F, 3)));
  M.collect(true);
  EXPECT_EQ(head(F.get(2)).asPtr(), head(F.get(3)).asPtr())
      << "shared substructure must stay shared after copying";
  EXPECT_EQ(headInt(head(F.get(2))), 7);
}

TEST(MutatorTest, CyclicStructuresSurvive) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  Value A = M.allocRecord(siteTest(), 2, 0b11);
  F.set(1, A);
  Value B = M.allocRecord(siteTest(), 2, 0b11);
  F.set(2, B);
  M.writeField(F.get(1), 0, F.get(2), true);
  M.writeField(F.get(2), 0, F.get(1), true);
  M.collect(false);
  M.collect(true);
  // A -> B -> A.
  EXPECT_EQ(Mutator::getField(Mutator::getField(F.get(1), 0), 0).asPtr(),
            F.get(1).asPtr());
}

TEST(MutatorTest, WriteBarrierCatchesOldToYoungPointers) {
  MutatorConfig C = smallConfig(CollectorKind::Generational);
  Mutator M(C);
  Frame F(M, keyTest());
  // Make an old object.
  F.set(1, M.allocRecord(siteTest(), 2, 0b11));
  M.collect(false); // Promotes it.
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  ASSERT_TRUE(GC.inTenured(F.get(1).asPtr()));
  // Young object, stored into the old one (barriered write).
  F.set(2, consInt(M, siteTest(), 99, slot(F, 3)));
  M.writeField(F.get(1), 0, F.get(2), true);
  F.set(2, Value::null()); // Heap reference only through the old object.
  M.collect(false);
  Value Young = Mutator::getField(F.get(1), 0);
  ASSERT_FALSE(Young.isNull());
  EXPECT_EQ(headInt(Young), 99);
  EXPECT_TRUE(GC.inTenured(Young.asPtr())) << "survivor must be promoted";
}

TEST(MutatorTest, MissingBarrierWouldLoseData) {
  // Sanity-check the test above is meaningful: initField on an *old* object
  // is the unbarriered path, and the new-large-object/pretenured-region
  // scans do not cover ordinary tenured records, so this would be unsound —
  // which is exactly why Mutator documents initField as fresh-objects-only.
  // (No assertion here; this test documents the contract.)
  SUCCEED();
}

TEST(MutatorTest, LargeArraysGoToLOS) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  F.set(1, M.allocNonPtrArray(siteTest(), 4096)); // 32KB > threshold.
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  EXPECT_TRUE(GC.inLOS(F.get(1).asPtr()));
  Word *Payload = F.get(1).asPtr();
  M.collect(false);
  EXPECT_EQ(F.get(1).asPtr(), Payload) << "large objects never move";
  // Unreachable large objects are swept at major collections.
  F.set(1, Value::null());
  M.collect(true);
  EXPECT_EQ(GC.largeObjectSpace().objectCount(), 0u);
}

TEST(MutatorTest, LargePtrArrayKeepsYoungReferents) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  F.set(1, M.allocPtrArray(siteTest(), 1024)); // In the LOS.
  F.set(2, consInt(M, siteTest(), 5, slot(F, 3)));
  // Initializing store into a fresh large object: no barrier, covered by
  // the new-large-object scan.
  M.initField(F.get(1), 10, F.get(2));
  F.set(2, Value::null());
  M.collect(false);
  Value Kept = Mutator::getField(F.get(1), 10);
  ASSERT_FALSE(Kept.isNull());
  EXPECT_EQ(headInt(Kept), 5);
}

TEST(MutatorTest, RegistersAreRoots) {
  // A frame layout that declares r2 to hold a pointer.
  static const uint32_t KReg = TraceTableRegistry::global().define(
      FrameLayout("test.reg", {Trace::nonPointer()},
                  {RegAction{2, Trace::pointer()}}));
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  F.set(3, Value::null());
  Frame FR(M, KReg);
  M.setRegister(2, consInt(M, siteTest(), 123, slot(F, 3)));
  M.collect(false);
  M.collect(true);
  EXPECT_EQ(headInt(M.getRegister(2)), 123);
}

TEST(MutatorTest, ExceptionsUnwindToHandler) {
  Mutator M(smallConfig(CollectorKind::Generational, /*Markers=*/true));
  Frame F(M, keyTest());
  F.set(1, consInt(M, siteTest(), 1, slot(F, 2)));

  uint64_t H = M.pushHandler(F.base());
  bool Caught = false;
  try {
    // Deep recursion, then raise.
    struct Helper {
      static void deep(Mutator &M, int N, SlotRef Exn) {
        Frame G(M, keyTest());
        G.set(1, Exn.get());
        if (N <= 0) {
          if (!G.get(1).isNull()) // Always true; visible return path.
            M.raise(G.get(1));
          return;
        }
        deep(M, N - 1, slot(G, 1));
      }
    };
    Helper::deep(M, 200, slot(F, 1));
    FAIL() << "raise must not return";
  } catch (MLRaise &R) {
    ASSERT_EQ(R.HandlerId, H);
    Caught = true;
    F.set(2, R.Exn);
  }
  ASSERT_TRUE(Caught);
  EXPECT_EQ(M.stack().topFrameBase(), F.base())
      << "shadow stack must be unwound to the handler frame";
  EXPECT_EQ(headInt(F.get(2)), 1);
  EXPECT_EQ(M.raises(), 1u);
  // The heap still works after the unwind.
  buildAndCheckList(M, 1000);
}

TEST(MutatorTest, ExceptionsInterleavedWithCollections) {
  Mutator M(smallConfig(CollectorKind::Generational, /*Markers=*/true));
  Frame F(M, keyTest());

  struct Helper {
    static void deep(Mutator &M, int N, int RaiseAt) {
      Frame G(M, keyTest());
      // Allocate on the way down so collections interleave with depth.
      G.set(1, consInt(M, siteTest(), N, slot(G, 2)));
      if (N == RaiseAt)
        M.raise(G.get(1));
      if (N > 0)
        deep(M, N - 1, RaiseAt);
    }
  };

  for (int Round = 0; Round < 50; ++Round) {
    uint64_t H = M.pushHandler(F.base());
    try {
      Helper::deep(M, 300, Round * 3);
      M.popHandler(H);
    } catch (MLRaise &R) {
      ASSERT_EQ(R.HandlerId, H);
      F.set(1, R.Exn);
      EXPECT_EQ(headInt(F.get(1)), Round * 3);
    }
  }
  EXPECT_GT(M.gcStats().NumGC, 0u);
}

TEST(MutatorTest, PointerUpdatesAreCounted) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  F.set(1, M.allocRecord(siteTest(), 2, 0b11));
  for (int I = 0; I < 10; ++I)
    M.writeField(F.get(1), 0, Value::null(), true);
  M.writeField(F.get(1), 1, Value::null(), true);
  EXPECT_EQ(M.pointerUpdates(), 11u);
}

TEST(MutatorTest, StatsTrackAllocationSplit) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  F.set(1, M.allocRecord(siteTest(), 2, 0));
  F.set(2, M.allocNonPtrArray(siteTest(), 100));
  const GcStats &S = M.gcStats();
  EXPECT_EQ(S.ObjectsAllocated, 2u);
  EXPECT_EQ(S.RecordBytesAllocated, (2u + HeaderWords) * 8u);
  EXPECT_EQ(S.ArrayBytesAllocated, (100u + HeaderWords) * 8u);
  EXPECT_EQ(S.BytesAllocated,
            S.RecordBytesAllocated + S.ArrayBytesAllocated);
}

TEST(MutatorTest, DeepStacksWithMarkersAcrossManyCollections) {
  // The central §5 scenario: a deep stack that stays put while the top
  // churns; minor collections must reuse the deep prefix.
  Mutator M(smallConfig(CollectorKind::Generational, /*Markers=*/true));
  Frame F(M, keyTest());

  struct Helper {
    /// Builds a deep stack, then at the bottom loops allocating garbage to
    /// force many collections.
    static uint64_t deep(Mutator &M, int N) {
      Frame G(M, keyTest());
      G.set(1, consInt(M, siteTest(), N, slot(G, 2)));
      if (N > 0)
        return deep(M, N - 1) + static_cast<uint64_t>(headInt(G.get(1)));
      uint64_t Sum = 0;
      for (int I = 0; I < 20000; ++I) {
        G.set(3, consInt(M, siteTest(), I, slot(G, 4)));
        Sum += static_cast<uint64_t>(headInt(G.get(3)));
      }
      return Sum;
    }
  };

  uint64_t Got = Helper::deep(M, 500);
  uint64_t WantTop = 500ull * 501 / 2;
  uint64_t WantLoop = 19999ull * 20000 / 2;
  EXPECT_EQ(Got, WantTop + WantLoop);

  const GcStats &S = M.gcStats();
  EXPECT_GT(S.NumGC, 5u);
  EXPECT_GT(S.FramesReused, S.FramesScanned)
      << "with a stable deep stack, most frames must be reused";
}

TEST(MutatorTest, HeapExhaustedThroughHandlerFramesLeavesRuntimeConsistent) {
  // A foreign C++ exception (here the hard cap's HeapExhausted) unwinds
  // through frames that each hold a live ML handler, some of them marked.
  // The frames pop as it passes and their handlers go with them. The
  // compacting major makes exhaustion non-sticky, so the mutator can go on.
  MutatorConfig C = smallConfig(CollectorKind::Generational, /*Markers=*/true);
  C.Name = "foreign-unwind";
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  C.MarkerPeriod = 3;
  C.BudgetBytes = 128u << 10;
  C.HardLimitBytes = 384u << 10;
  C.VerifyReuseInvariant = true;
  Mutator M(C);
  Frame Top(M, keyTest());
  const size_t FramesBefore = M.stack().frameCount();
  const size_t TopBefore = M.stack().top();

  struct Helper {
    /// Recurses to depth N with a handler on every frame, then retains a
    /// list at the bottom until the hard cap trips.
    static void hoard(Mutator &M, int N) {
      Frame F(M, keyTest());
      uint64_t H = M.pushHandler(F.base());
      if (N > 0)
        hoard(M, N - 1);
      else
        for (int I = 0; I < (1 << 24); ++I)
          F.set(1, consInt(M, siteTest(), I, slot(F, 1)));
      M.popHandler(H);
    }
  };

  bool Exhausted = false;
  try {
    Helper::hoard(M, 40);
  } catch (const HeapExhausted &) {
    Exhausted = true;
  }
  ASSERT_TRUE(Exhausted) << "the hard cap never tripped";
  EXPECT_EQ(M.stack().frameCount(), FramesBefore);
  EXPECT_EQ(M.stack().top(), TopBefore);
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;

  // The handlers went with their frames: a raise now finds none (a stale
  // one would send it to a dead frame instead).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(M.raise(Value::fromInt(1)),
               "uncaught ML exception in mutator 'foreign-unwind'");

  uint64_t H = M.pushHandler(Top.base());
  bool Caught = false;
  try {
    Frame G(M, keyTest());
    G.set(1, consInt(M, siteTest(), 5, slot(G, 2)));
    M.raise(G.get(1));
  } catch (MLRaise &R) {
    EXPECT_EQ(R.HandlerId, H);
    Top.set(1, R.Exn);
    Caught = true;
  }
  ASSERT_TRUE(Caught);
  EXPECT_EQ(headInt(Top.get(1)), 5);
  EXPECT_EQ(M.stack().topFrameBase(), Top.base());

  // The mutator stays usable: the hoarded list is garbage now.
  uint64_t ThrowsBefore = M.gcStats().HeapExhaustedThrows;
  buildAndCheckList(M, 1000);
  EXPECT_EQ(M.gcStats().HeapExhaustedThrows, ThrowsBefore);
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

namespace {

/// What one scripted raise run observes, for the transport differential.
struct TransportTrace {
  uint64_t Checksum = 0;
  std::vector<size_t> FramesAtCatch;
  std::vector<size_t> BoundaryAtCatch;
  uint64_t Raises = 0;
  uint64_t FramesScanned = 0;
  uint64_t FramesReused = 0;
  uint64_t SlotsVisited = 0;
  uint64_t PlanWords = 0;
  uint64_t NumGC = 0;
  uint64_t BytesAllocated = 0;
  uint64_t StubPops = 0;
  size_t FramesAtEnd = 0;
};

/// Records a caught raise: its payload and the stack state it left.
void noteCatch(Mutator &M, TransportTrace &T, const MLRaise &R) {
  T.Checksum = T.Checksum * 1099511628211ULL +
               static_cast<uint64_t>(headInt(R.Exn));
  T.FramesAtCatch.push_back(M.stack().frameCount());
  T.BoundaryAtCatch.push_back(M.collector().markerManager()->reuseBoundary());
}

/// Descends to depth N allocating on the way, with a handler on every
/// seventh frame. At depth RaiseAt it forces a collection (placing markers
/// along the chain) and raises to the nearest handler above, across marked
/// frames. With \p Returning the MLRaise travels up as a return value,
/// otherwise as a C++ throw; a raise still travelling is returned.
std::optional<MLRaise> descend(Mutator &M, TransportTrace &T, int N,
                               int RaiseAt, bool Returning) {
  Frame F(M, keyTest());
  F.set(1, consInt(M, siteTest(), N, slot(F, 2)));
  if (N == RaiseAt) {
    for (int I = 0; I < 300; ++I)
      F.set(3, consInt(M, siteTest(), I, slot(F, 3)));
    M.collect(false);
    if (Returning)
      return M.unwindToHandler(F.get(1));
    M.raise(F.get(1));
  }
  if (N == 0)
    return std::nullopt;
  const bool Handles = N % 7 == 0;
  const uint64_t H = Handles ? M.pushHandler(F.base()) : 0;
  std::optional<MLRaise> R;
  try {
    R = descend(M, T, N - 1, RaiseAt, Returning);
  } catch (MLRaise &E) {
    if (!Handles || E.HandlerId != H)
      throw;
    R = E;
  }
  if (!R) {
    if (Handles)
      M.popHandler(H);
    return std::nullopt;
  }
  if (!Handles)
    return R;
  EXPECT_EQ(R->HandlerId, H);
  noteCatch(M, T, *R);
  F.set(2, R->Exn);
  return std::nullopt;
}

TransportTrace runTransport(bool Returning) {
  MutatorConfig C = smallConfig(CollectorKind::Generational, /*Markers=*/true);
  C.MarkerPeriod = 5;
  C.VerifyReuseInvariant = true;
  Mutator M(C);
  TransportTrace T;
  {
    Frame Top(M, keyTest());
    for (int Round = 0; Round < 60; ++Round) {
      // Every fifth round returns normally; the others raise from varying
      // depths, landing on handlers anywhere from 1 to 6 frames up.
      int RaiseAt = Round % 5 == 4 ? -1 : (Round * 37) % 150 + 1;
      uint64_t H = M.pushHandler(Top.base());
      std::optional<MLRaise> R;
      try {
        R = descend(M, T, 160, RaiseAt, Returning);
      } catch (MLRaise &E) {
        R = E;
      }
      if (R) {
        EXPECT_EQ(R->HandlerId, H);
        noteCatch(M, T, *R);
      } else {
        M.popHandler(H);
      }
      EXPECT_EQ(M.stack().topFrameBase(), Top.base());
    }
  }
  T.FramesAtEnd = M.stack().frameCount();
  const GcStats &S = M.gcStats();
  T.Raises = M.raises();
  T.FramesScanned = S.FramesScanned;
  T.FramesReused = S.FramesReused;
  T.SlotsVisited = S.SlotsVisited;
  T.PlanWords = S.PlanWordsScanned;
  T.NumGC = S.NumGC;
  T.BytesAllocated = S.BytesAllocated;
  T.StubPops = M.collector().markerManager()->numStubPops();
  return T;
}

} // namespace

TEST(MutatorTest, ThrowingAndReturningRaisesAgree) {
  TransportTrace Thrown = runTransport(/*Returning=*/false);
  TransportTrace Returned = runTransport(/*Returning=*/true);
  // The script exercised what it is meant to: raises across reused, marked
  // frames, caught at several depths.
  EXPECT_EQ(Thrown.Raises, 48u);
  EXPECT_GT(Thrown.FramesReused, 0u);
  EXPECT_GT(Thrown.StubPops, 0u);
  EXPECT_EQ(Thrown.FramesAtEnd, 0u);

  EXPECT_EQ(Returned.Checksum, Thrown.Checksum);
  EXPECT_EQ(Returned.FramesAtCatch, Thrown.FramesAtCatch);
  EXPECT_EQ(Returned.BoundaryAtCatch, Thrown.BoundaryAtCatch);
  EXPECT_EQ(Returned.Raises, Thrown.Raises);
  EXPECT_EQ(Returned.FramesScanned, Thrown.FramesScanned);
  EXPECT_EQ(Returned.FramesReused, Thrown.FramesReused);
  EXPECT_EQ(Returned.SlotsVisited, Thrown.SlotsVisited);
  EXPECT_EQ(Returned.PlanWords, Thrown.PlanWords);
  EXPECT_EQ(Returned.NumGC, Thrown.NumGC);
  EXPECT_EQ(Returned.BytesAllocated, Thrown.BytesAllocated);
  EXPECT_EQ(Returned.StubPops, Thrown.StubPops);
  EXPECT_EQ(Returned.FramesAtEnd, Thrown.FramesAtEnd);
}

TEST(MutatorTest, PegGcVisibleOutputIsPinned) {
  // Peg delivers its raises by return value. Its GC-visible output is the
  // one the throwing transport produced: same checksum, allocation, raise
  // count, stack-scan work and (empty) pretenure set.
  std::unique_ptr<Workload> W = makeWorkloadByName("Peg");
  MutatorConfig C;
  C.BudgetBytes = 1u << 20;
  C.UseStackMarkers = true;
  C.MarkerPeriod = 5;
  C.EnableProfiling = true;
  Mutator M(C);
  const double Scale = 0.25;
  uint64_t Sum = W->run(M, Scale);
  EXPECT_EQ(Sum, W->expected(Scale));
  EXPECT_EQ(Sum, 0x659167002decd0d0ULL);
  const GcStats &S = M.gcStats();
  EXPECT_EQ(S.BytesAllocated, 4320984u);
  EXPECT_EQ(M.raises(), 30000u);
  EXPECT_EQ(S.NumGC, 16u);
  EXPECT_EQ(S.FramesScanned, 172u);
  EXPECT_EQ(S.FramesReused, 285u);
  EXPECT_TRUE(M.profiler()->derivePretenureSet(/*OldCutoff=*/0.8).empty());
  EXPECT_EQ(M.stack().frameCount(), 0u);
}
