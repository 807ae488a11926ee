//===- tests/heap_test.cpp - Heap substrate unit tests ---------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "heap/CardTable.h"
#include "heap/LargeObjectSpace.h"
#include "heap/Space.h"
#include "heap/StoreBuffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace tilgc;

TEST(SpaceTest, BumpAllocationAndCapacity) {
  Space S;
  S.reserve(1024);
  EXPECT_EQ(S.usedBytes(), 0u);
  EXPECT_TRUE(S.empty());

  Word D = header::make(ObjectKind::Record, 2, 0b01);
  Word *P1 = S.allocate(D, meta::make(1, 0));
  ASSERT_NE(P1, nullptr);
  EXPECT_TRUE(S.contains(P1));
  EXPECT_EQ(descriptorOf(P1), D);
  EXPECT_EQ(S.usedBytes(), (2u + HeaderWords) * 8u);

  Word *P2 = S.allocate(D, meta::make(2, 0));
  ASSERT_NE(P2, nullptr);
  EXPECT_NE(P1, P2);
}

TEST(SpaceTest, AllocationFailsWhenFull) {
  Space S;
  S.reserve(64); // 8 words: room for one 2-field record (4 words) + part.
  Word D = header::make(ObjectKind::Record, 2, 0);
  EXPECT_NE(S.allocate(D, 0), nullptr);
  EXPECT_NE(S.allocate(D, 0), nullptr);
  EXPECT_EQ(S.allocate(D, 0), nullptr) << "third object must not fit";
}

TEST(SpaceTest, ResetEmptiesButKeepsCapacity) {
  Space S;
  S.reserve(1024);
  Word D = header::make(ObjectKind::Record, 2, 0);
  ASSERT_NE(S.allocate(D, 0), nullptr);
  size_t Cap = S.capacityBytes();
  S.reset();
  EXPECT_EQ(S.usedBytes(), 0u);
  EXPECT_EQ(S.capacityBytes(), Cap);
}

TEST(SpaceTest, InlineStopBoundsOnlyTheInlinePath) {
  Space S;
  S.reserve(1024);
  Word D = header::make(ObjectKind::Record, 2, 0); // 4 words = 32 bytes
  // Unlowered, the inline stop is the soft limit.
  for (int I = 0; I < 32; ++I)
    ASSERT_NE(S.allocateInline(D, 0), nullptr);
  EXPECT_EQ(S.allocateInline(D, 0), nullptr);
  S.reset();

  // A stop at 100 bytes admits three records (96 bytes) inline; the
  // fourth would cross it. allocate() ignores the stop.
  S.setInlineStopBytes(100);
  for (int I = 0; I < 3; ++I)
    ASSERT_NE(S.allocateInline(D, 0), nullptr);
  EXPECT_EQ(S.allocateInline(D, 0), nullptr);
  EXPECT_NE(S.allocate(D, 0), nullptr);
  // A stop at the current fill fails every inline allocation.
  S.setInlineStopBytes(S.usedBytes());
  EXPECT_EQ(S.allocateInline(D, 0), nullptr);
  S.clearInlineStop();
  EXPECT_NE(S.allocateInline(D, 0), nullptr);

  // reset() and a soft-limit change raise a lowered stop again; a stop
  // past the soft limit clamps to it.
  S.setInlineStopBytes(0);
  S.reset();
  EXPECT_NE(S.allocateInline(D, 0), nullptr);
  S.setInlineStopBytes(0);
  S.setSoftLimitBytes(64);
  EXPECT_NE(S.allocateInline(D, 0), nullptr);
  S.setInlineStopBytes(1 << 20);
  EXPECT_EQ(S.allocateInline(D, 0), nullptr) << "64-byte soft limit is full";
}

TEST(SpaceTest, WalkVisitsInAllocationOrder) {
  Space S;
  S.reserve(4096);
  Word D1 = header::make(ObjectKind::Record, 1, 0);
  Word D2 = header::make(ObjectKind::NonPtrArray, 7);
  Word *P1 = S.allocate(D1, meta::make(11, 0));
  Word *P2 = S.allocate(D2, meta::make(22, 0));

  std::vector<Word *> Seen;
  S.walk([&](Word *Payload, Word Descriptor, bool Forwarded) {
    EXPECT_FALSE(Forwarded);
    (void)Descriptor;
    Seen.push_back(Payload);
  });
  EXPECT_EQ(Seen, (std::vector<Word *>{P1, P2}));
}

TEST(SpaceTest, WalkSeesThroughForwarding) {
  Space From, To;
  From.reserve(4096);
  To.reserve(4096);
  Word D = header::make(ObjectKind::NonPtrArray, 5);
  Word *Old = From.allocate(D, meta::make(7, 0));
  Word *Moved = To.allocate(D, meta::make(7, 0));
  descriptorOf(Old) = header::makeForward(Moved);
  // A second, unforwarded object after the forwarded one.
  Word *Second = From.allocate(header::make(ObjectKind::Record, 1, 0),
                               meta::make(8, 0));

  int Count = 0;
  From.walk([&](Word *Payload, Word Descriptor, bool Forwarded) {
    ++Count;
    if (Payload == Old) {
      EXPECT_TRUE(Forwarded);
      EXPECT_EQ(header::length(Descriptor), 5u);
    } else {
      EXPECT_EQ(Payload, Second);
      EXPECT_FALSE(Forwarded);
    }
  });
  EXPECT_EQ(Count, 2);
}

TEST(StoreBufferTest, KeepsDuplicatesAndCounts) {
  StoreBuffer SSB;
  Word Slot1 = 0, Slot2 = 0;
  SSB.record(&Slot1);
  SSB.record(&Slot2);
  SSB.record(&Slot1); // Duplicate kept — the Peg pathology.
  EXPECT_EQ(SSB.size(), 3u);
  EXPECT_EQ(SSB.totalRecorded(), 3u);
  SSB.clear();
  EXPECT_EQ(SSB.size(), 0u);
  EXPECT_EQ(SSB.totalRecorded(), 3u) << "lifetime count survives clears";
}

TEST(LargeObjectSpaceTest, AllocateContainsMarkSweep) {
  LargeObjectSpace LOS;
  Word D = header::make(ObjectKind::NonPtrArray, 1024);
  Word *A = LOS.allocate(D, meta::make(1, 0));
  Word *B = LOS.allocate(D, meta::make(2, 0));
  EXPECT_TRUE(LOS.contains(A));
  EXPECT_TRUE(LOS.contains(B));
  EXPECT_EQ(LOS.objectCount(), 2u);
  EXPECT_EQ(LOS.liveBytes(), 2 * objectTotalBytes(D));

  EXPECT_TRUE(LOS.mark(A));
  EXPECT_FALSE(LOS.mark(A)) << "second mark reports already-marked";

  std::vector<Word *> Dead;
  LOS.sweep([&](Word *Payload, Word) { Dead.push_back(Payload); });
  EXPECT_EQ(Dead, (std::vector<Word *>{B}));
  EXPECT_TRUE(LOS.contains(A));
  EXPECT_FALSE(LOS.contains(B));
  EXPECT_EQ(LOS.liveBytes(), objectTotalBytes(D));

  // Marks were cleared by the sweep: everything dies now.
  Dead.clear();
  LOS.sweep([&](Word *Payload, Word) { Dead.push_back(Payload); });
  EXPECT_EQ(Dead, (std::vector<Word *>{A}));
  EXPECT_EQ(LOS.objectCount(), 0u);
}

TEST(CardTableTest, MarkAndScanDirtyFields) {
  Space S;
  S.reserve(64 * 1024);
  CardTable CT;
  CrossingMap CM;
  CT.attach(S);
  CM.attach(S);

  // Two pointer arrays far enough apart to live on different cards.
  Word DBig = header::make(ObjectKind::PtrArray, 256);
  Word *A = S.allocate(DBig, meta::make(1, 0));
  CM.recordObject(A - HeaderWords, objectTotalWords(DBig));
  Word *B = S.allocate(DBig, meta::make(2, 0));
  CM.recordObject(B - HeaderWords, objectTotalWords(DBig));
  for (unsigned I = 0; I < 256; ++I)
    A[I] = B[I] = 0;

  CT.mark(&A[3]);
  CT.mark(&B[200]);
  EXPECT_EQ(CT.numDirtyCards(), 2u);

  std::vector<Word *> Fields;
  CT.forEachDirtyField(S, CM, [&](Word *F) { Fields.push_back(F); });
  // Every visited field must be on a dirty card; the specific marked slots
  // must be included.
  EXPECT_NE(std::find(Fields.begin(), Fields.end(), &A[3]), Fields.end());
  EXPECT_NE(std::find(Fields.begin(), Fields.end(), &B[200]), Fields.end());
  // Fields from clean cards of other objects must not be visited; &B[0]
  // lies 200 slots (1600 bytes, >3 cards) before the marked one.
  EXPECT_EQ(std::find(Fields.begin(), Fields.end(), &B[0]), Fields.end());

  CT.clear();
  EXPECT_EQ(CT.numDirtyCards(), 0u);
}
