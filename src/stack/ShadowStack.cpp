//===- stack/ShadowStack.cpp - Activation-record stack --------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "stack/ShadowStack.h"

#include "support/Fatal.h"

#include <sys/mman.h>

using namespace tilgc;

ShadowStack::ShadowStack(size_t CapacitySlots) : Capacity(CapacitySlots) {
  // MAP_NORESERVE: the capacity is address space, not commitment; the host
  // hands out zero pages as the stack first reaches them.
  void *P = ::mmap(nullptr, Capacity * sizeof(Word), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    fatalError("shadow stack reservation of %zu bytes failed: host out of "
               "address space",
               Capacity * sizeof(Word));
  Slots = static_cast<Word *>(P);
  Bases.reserve(CapacitySlots / 4);
}

ShadowStack::~ShadowStack() { ::munmap(Slots, Capacity * sizeof(Word)); }
