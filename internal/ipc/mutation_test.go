//go:build mirage_mutation

package ipc

import (
	"testing"

	"mirage/internal/check"
	"mirage/internal/core"
)

// TestMutationLeftWriteOutstandingSeenByVerifyTrace: with core's
// MutateLeaveWriteOutstanding on, a site that installs a write grant
// keeps its write request marked outstanding. The write completes and
// the trace is clean; only the engine's record of the page shows what
// was left behind — and VerifyTrace, which every simulated sweep point
// goes through, must report it as site-page-idle.
//
// Run it alone, like internal/check's mutation kills:
//
//	go test -tags mirage_mutation ./internal/ipc -run TestMutation
func TestMutationLeftWriteOutstandingSeenByVerifyTrace(t *testing.T) {
	core.MutateLeaveWriteOutstanding = true
	defer func() { core.MutateLeaveWriteOutstanding = false }()
	viols, err := remoteWrite(t).VerifyTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viols {
		if v.Invariant == check.InvIdlePage {
			t.Logf("caught: %v", v)
			return
		}
	}
	t.Fatalf("violations %v, want %s", viols, check.InvIdlePage)
}
