//===- tests/harness_test.cpp - Bench harness tests -------------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared bench harness: the k*Min calibration cache and the --scale
/// argument check.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "workloads/MLLib.h"

#include <gtest/gtest.h>

#include <new>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

uint32_t siteHarness() {
  static const uint32_t S =
      AllocSiteRegistry::global().define("test.harness");
  return S;
}
uint32_t keyHarness() {
  static const uint32_t K = TraceTableRegistry::global().define(
      FrameLayout("test.harness", {Trace::pointer()}));
  return K;
}

/// A program whose live data is one list of \p Cells cells, held across a
/// forced major collection so the calibration run samples it.
class LiveList : public Workload {
public:
  LiveList(const char *Name, int Cells) : Name(Name), Cells(Cells) {}
  const char *name() const override { return Name; }
  const char *description() const override { return "a live list"; }
  unsigned paperLines() const override { return 0; }
  uint64_t run(Mutator &M, double) override {
    Frame F(M, keyHarness());
    for (int I = 0; I < Cells; ++I)
      F.set(1, consInt(M, siteHarness(), I, slot(F, 1)));
    M.collect(/*Major=*/true);
    return static_cast<uint64_t>(Cells);
  }
  uint64_t expected(double) override { return static_cast<uint64_t>(Cells); }

private:
  const char *Name;
  int Cells;
};

} // namespace

TEST(HarnessMinBytes, CacheIsKeyedByProgramNotAddress) {
  // Two programs built one after the other in the same storage share an
  // address; each must still get its own Min.
  alignas(LiveList) unsigned char Storage[sizeof(LiveList)];
  auto *Small = new (Storage) LiveList("harness.small", 100);
  uint64_t SmallMin = bench::minBytesFor(*Small, 1.0);
  Small->~LiveList();
  auto *Large = new (Storage) LiveList("harness.large", 40000);
  uint64_t LargeMin = bench::minBytesFor(*Large, 1.0);
  Large->~LiveList();

  EXPECT_EQ(SmallMin, uint64_t{2} * (16u << 10)) << "the 16 KB live floor";
  EXPECT_GE(LargeMin, uint64_t{2} * 40000 * 2 * sizeof(Word));

  // A fresh instance of a program reuses that program's calibration.
  LiveList Again("harness.large", 40000);
  EXPECT_EQ(bench::minBytesFor(Again, 1.0), LargeMin);
}

namespace {
double scaleOf(std::vector<const char *> Args) {
  Args.insert(Args.begin(), "bench");
  return bench::scaleFromArgs(static_cast<int>(Args.size()),
                              const_cast<char **>(Args.data()));
}
} // namespace

TEST(HarnessScale, ParsesPositiveScales) {
  EXPECT_EQ(scaleOf({"--scale=0.5"}), 0.5);
  EXPECT_EQ(scaleOf({"Peg", "--reps=3", "--scale=3"}), 3.0);
  EXPECT_EQ(scaleOf({"1.5"}), 1.5);
  EXPECT_EQ(scaleOf({"Peg"}), 2.0);
}

TEST(HarnessScaleDeath, RejectsBadScalesWithExitCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char *Arg : {"--scale=garbage", "--scale=", "--scale=0",
                          "--scale=-1", "--scale=1x", "--scale=nan",
                          "--scale=inf"})
    EXPECT_EXIT(scaleOf({Arg}), ::testing::ExitedWithCode(2),
                "--scale wants a positive number")
        << Arg;
}
