//go:build !amd64 || race

package mmu

// optimisticReads is off where the argument of optimistic.go does not
// hold, and under the race detector: elsewhere a plain load may be
// satisfied after the load that validates it, and an optimistic read's
// byte loads race with an exclusive writer by design, which the
// detector would rightly report. Every read there takes the page with
// Hold (DESIGN.md §17).
const optimisticReads = false
