//===- stack/ShadowStack.h - Activation-record stack ------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutator's stack of activation records. TIL manages activation
/// records on a contiguous stack rather than in the heap (paper §2.2); we
/// reproduce that as an array of word slots. Slot 0 of each frame holds the
/// return-address key; the remaining slots are the frame's locals/spills,
/// described by the trace table.
///
/// Pointer-slot discipline: workload code keeps every heap pointer that must
/// survive a possible collection in a frame slot (never in a C++ local),
/// because the collectors move objects and update the slots in place.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_STACK_SHADOWSTACK_H
#define TILGC_STACK_SHADOWSTACK_H

#include "object/Object.h"
#include "stack/TraceTable.h"

#include <cassert>
#include <cstddef>
#include <vector>

namespace tilgc {

/// A contiguous stack of activation records plus the frame-base side chain
/// used to iterate it.
///
/// The slot array is a lazily-zeroed anonymous reservation: pages are
/// committed (and zero-filled by the host) on first touch, so a runtime
/// instance pays for the stack depth it reaches, not for the capacity.
class ShadowStack {
public:
  explicit ShadowStack(size_t CapacitySlots = 1u << 22);
  ~ShadowStack();
  ShadowStack(const ShadowStack &) = delete;
  ShadowStack &operator=(const ShadowStack &) = delete;

  /// Pushes a frame of \p NumSlots slots with return-address key \p Key.
  /// All non-key slots are zeroed (null pointers). Returns the frame base
  /// (the slot index of the key slot).
  size_t pushFrame(uint32_t Key, uint32_t NumSlots) {
    assert(Top + NumSlots <= Capacity && "shadow stack overflow");
    size_t Base = Top;
    Slots[Base] = Key;
    for (uint32_t I = 1; I < NumSlots; ++I)
      Slots[Base + I] = 0;
    Top = Base + NumSlots;
    Bases.push_back(Base);
    return Base;
  }

  /// Pops the topmost frame, which must start at \p FrameBase.
  void popFrame(size_t FrameBase) {
    assert(!Bases.empty() && Bases.back() == FrameBase &&
           "popping a frame that is not on top");
    Bases.pop_back();
    Top = FrameBase;
    if (Bases.size() < MinFrames)
      MinFrames = Bases.size();
  }

  /// Unwinds (pops without individual bookkeeping) every frame strictly
  /// above \p FrameBase, making it the topmost frame. \p NumSlots is the
  /// target frame's size (the caller resolves it, since the target's key
  /// slot may hold a stub key). Used by the exception-raise path.
  void unwindTo(size_t FrameBase, uint32_t NumSlots) {
    while (!Bases.empty() && Bases.back() > FrameBase)
      Bases.pop_back();
    assert(!Bases.empty() && Bases.back() == FrameBase &&
           "unwind target is not a live frame");
    Top = FrameBase + NumSlots;
    if (Bases.size() < MinFrames)
      MinFrames = Bases.size();
  }

  Word &slot(size_t FrameBase, unsigned I) {
    assert(FrameBase + I < Top && "slot index outside stack");
    return Slots[FrameBase + I];
  }
  const Word &slot(size_t FrameBase, unsigned I) const {
    assert(FrameBase + I < Top && "slot index outside stack");
    return Slots[FrameBase + I];
  }

  /// Address of a slot; stable for the life of the stack (the backing array
  /// is never reallocated), which the scan cache relies on.
  Word *slotAddress(size_t FrameBase, unsigned I) {
    return &Slots[FrameBase + I];
  }

  /// True if \p P points into this stack's slot storage (collectors use
  /// this to filter stack slots out of heap remembered sets).
  bool ownsSlot(const Word *P) const {
    return P >= Slots && P < Slots + Capacity;
  }

  /// The return-address key of the frame at \p FrameBase. May be StubKey if
  /// the collector marked this frame.
  uint32_t keyOf(size_t FrameBase) const {
    return static_cast<uint32_t>(Slots[FrameBase]);
  }
  void setKey(size_t FrameBase, uint32_t Key) { Slots[FrameBase] = Key; }

  /// One past the topmost frame's last slot (0 when empty). A frame whose
  /// base is at or above it has already been unwound by a raise.
  size_t top() const { return Top; }

  size_t frameCount() const { return Bases.size(); }
  bool empty() const { return Bases.empty(); }
  /// Base of the I-th frame from the bottom (0 = oldest).
  size_t frameBase(size_t I) const {
    assert(I < Bases.size() && "frame index out of range");
    return Bases[I];
  }
  size_t topFrameBase() const {
    assert(!Bases.empty() && "no frames");
    return Bases.back();
  }

  /// Minimum frame count observed since the last resetWaterMark() — the
  /// collector uses this for Table 2's "New Frames in Stack" metric.
  size_t minFramesSinceMark() const { return MinFrames; }
  void resetWaterMark() { MinFrames = Bases.size(); }

private:
  Word *Slots;
  size_t Capacity;
  std::vector<size_t> Bases;
  size_t Top = 0;
  size_t MinFrames = 0;
};

} // namespace tilgc

#endif // TILGC_STACK_SHADOWSTACK_H
