//===- support/Timer.h - Accumulating wall-clock timers -------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Accumulating timers used to split execution time into the paper's
/// Total / GC / Client and GC-stack / GC-copy buckets. The paper used UNIX
/// virtual timers; we use steady_clock, which preserves the shapes the
/// evaluation cares about.
///
/// Misuse discipline: the checks here used to be assert-only, which meant
/// an NDEBUG build silently *discarded* accumulated time on a double
/// start() and returned a stale total from seconds() mid-region.
/// Consistent with the project's removal of NDEBUG-erased checks, misuse
/// is now tolerated-and-counted in every build mode:
///
///  * start() on a running timer nests (a depth counter); the original
///    start point — and therefore the accumulated total — is preserved,
///    and the misuse is counted.
///  * stop() at depth zero is a counted no-op; an inner stop() just
///    unwinds one nesting level (only the outermost stop accumulates).
///  * seconds() is a live read: while running it includes the elapsed
///    time of the open region instead of returning a stale total.
///  * reset() while running is counted, zeroes the total and restarts
///    the open region at now (the depth is preserved).
///
/// Timers and the GC telemetry plane read one clock, monotonicNowNs().
/// startAt()/stopAt() take a stamp the caller already holds, so a region
/// that opens or closes together with a pause event costs no extra read.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_SUPPORT_TIMER_H
#define TILGC_SUPPORT_TIMER_H

#include "support/Compiler.h"

#include <chrono>
#include <cstdint>

namespace tilgc {

/// Monotonic nanoseconds since the first call in this process (steady
/// clock). Out of line, so a timer site costs a call, not an inlined
/// static-initialisation guard.
uint64_t monotonicNowNs();

/// An accumulating stopwatch with counted misuse tolerance (see the file
/// comment).
class Timer {
public:
  void start() {
    if (enter())
      BeginNs = monotonicNowNs();
  }
  /// start() with a monotonicNowNs() stamp the caller already read.
  void startAt(uint64_t NowNs) {
    if (enter())
      BeginNs = NowNs;
  }

  void stop() {
    if (leave())
      AccumulatedNs += static_cast<int64_t>(monotonicNowNs() - BeginNs);
  }
  /// stop() with a monotonicNowNs() stamp the caller already read.
  void stopAt(uint64_t NowNs) {
    if (leave())
      AccumulatedNs += static_cast<int64_t>(NowNs - BeginNs);
  }

  /// Total accumulated time in seconds — a live read: an open region
  /// contributes its elapsed time so far.
  double seconds() const {
    int64_t Ns = AccumulatedNs;
    if (TILGC_UNLIKELY(Depth != 0))
      Ns += static_cast<int64_t>(monotonicNowNs() - BeginNs);
    return static_cast<double>(Ns) * 1e-9;
  }

  /// Resets the accumulated total to zero. Counted as misuse while
  /// running; the open region restarts at now.
  void reset() {
    if (TILGC_UNLIKELY(Depth != 0)) {
      ++MisuseCount;
      BeginNs = monotonicNowNs();
    }
    AccumulatedNs = 0;
  }

  bool isRunning() const { return Depth != 0; }

  /// Current start/stop nesting depth (1 while properly running).
  unsigned depth() const { return Depth; }

  /// Lifetime count of tolerated misuses: nested starts, unmatched stops,
  /// and resets while running. Surfaced as GcStats::timerMisuses().
  uint64_t misuses() const { return MisuseCount; }

private:
  /// Opens a region; true when this is the outermost start (the caller
  /// stamps BeginNs), false for a counted nested start that keeps the
  /// outer region's start point.
  bool enter() {
    if (TILGC_UNLIKELY(Depth != 0)) {
      ++Depth;
      ++MisuseCount;
      return false;
    }
    Depth = 1;
    return true;
  }
  /// Closes a region; true when the outermost region closed (the caller
  /// accumulates). An unmatched stop is a counted no-op and an inner stop
  /// of a misused nest only unwinds one level.
  bool leave() {
    if (TILGC_UNLIKELY(Depth == 0)) {
      ++MisuseCount;
      return false;
    }
    return --Depth == 0;
  }

  uint64_t BeginNs = 0;
  int64_t AccumulatedNs = 0;
  unsigned Depth = 0;
  uint64_t MisuseCount = 0;
};

/// RAII region that accumulates into a Timer.
class TimerScope {
public:
  explicit TimerScope(Timer &T) : T(T) { T.start(); }
  /// Opens the region at a monotonicNowNs() stamp the caller already read.
  TimerScope(Timer &T, uint64_t BeginNs) : T(T) { T.startAt(BeginNs); }
  ~TimerScope() { T.stop(); }
  TimerScope(const TimerScope &) = delete;
  TimerScope &operator=(const TimerScope &) = delete;

private:
  Timer &T;
};

/// RAII region that *pauses* a running Timer (e.g. to exclude GC time from a
/// client timer).
class TimerPause {
public:
  explicit TimerPause(Timer &T) : T(T), WasRunning(T.isRunning()) {
    if (WasRunning)
      T.stop();
  }
  ~TimerPause() {
    if (WasRunning)
      T.start();
  }
  TimerPause(const TimerPause &) = delete;
  TimerPause &operator=(const TimerPause &) = delete;

private:
  Timer &T;
  bool WasRunning;
};

} // namespace tilgc

#endif // TILGC_SUPPORT_TIMER_H
