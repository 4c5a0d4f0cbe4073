//go:build !mirage_model

package mmu

import "sync/atomic"

// The types of a page's word and frame pointer are sync/atomic's, and a
// waiter's pause before it looks at a busy word again (take) is
// nothing. Under -tags mirage_model the word model (model_test.go)
// supplies all three, handing the goroutine to its scheduler before
// each operation; that file is a test file, so the tag builds the
// package only under go test.
type atomicWord = atomic.Uint64

type atomicFrame = atomic.Pointer[byte]

func (e *pte) waiting(seen uint64) {}
