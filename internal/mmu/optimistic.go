//go:build amd64 && !race

package mmu

// optimisticReads turns Snap on. On amd64 a load is not reordered with
// a later load, by the processor (TSO) or by the compiler, which keeps
// every memory operation on the near side of an atomic one: the bytes
// an optimistic read copies are loaded before Settled loads the word
// again, so a version that has not moved covers them (DESIGN.md §17).
const optimisticReads = true
