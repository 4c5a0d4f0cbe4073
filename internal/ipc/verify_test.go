package ipc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/obs"
)

// remoteWrite runs the smallest cross-site cycle on a traced two-site
// cluster: site 0 creates a segment, site 1 writes a word of it. Both
// hold their attaches past the run, so the segment is still there for
// the end-of-run checks.
func remoteWrite(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster(2, Config{Engine: core.Options{Obs: obs.New()}})
	c.Site(0).Spawn("creator", 0, func(p *Proc) {
		id, err := p.Shmget(7, 512, mem.Create, rw)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := p.Shmat(id, false); err != nil {
			t.Error(err)
		}
		p.Sleep(time.Minute)
	})
	c.Site(1).Spawn("writer", 0, func(p *Proc) {
		p.Sleep(time.Millisecond)
		id, err := p.Shmget(7, 512, 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		h, err := p.Shmat(id, false)
		if err != nil {
			t.Error(err)
			return
		}
		if err := h.SetUint32(0, 7); err != nil {
			t.Error(err)
		}
		p.Sleep(time.Minute)
	})
	c.RunFor(time.Second)
	return c
}

// TestVerifyTraceOnTheClusterItself: a traced cluster verifies its own
// run clean, its digest is the sha256 of what WriteTrace writes, and an
// untraced cluster refuses to verify or digest.
func TestVerifyTraceOnTheClusterItself(t *testing.T) {
	c := remoteWrite(t)
	viols, err := c.VerifyTrace()
	if err != nil || len(viols) != 0 {
		t.Fatalf("VerifyTrace = %v, %v; want a clean run", viols, err)
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); c.TraceDigest() != hex.EncodeToString(sum[:]) {
		t.Errorf("TraceDigest %s is not the sha256 of WriteTrace's output", c.TraceDigest())
	}
	bare := NewCluster(2, Config{})
	if _, err := bare.VerifyTrace(); err == nil {
		t.Error("an untraced cluster verified")
	}
	if d := bare.TraceDigest(); d != "" {
		t.Errorf("an untraced cluster has digest %q", d)
	}
}

// TestWrittenTraceIsTheBuffer: a replicated run whose library crashes
// writes a trace that decodes to exactly the events the cluster
// recorded and checked inline — the failover triggers' successor and
// the post-election leader's log activity included — so the offline
// check (miragetrace check) reads the run the inline one read.
func TestWrittenTraceIsTheBuffer(t *testing.T) {
	c := NewCluster(4, Config{
		Chaos:  crashAt(0, 2*time.Second, 0),
		Engine: core.Options{Reliability: testRel(), Failover: &core.Failover{Replicas: 2}, Obs: obs.New()},
	})
	c.Site(0).Spawn("lib", 0, func(p *Proc) {
		id, _ := p.Shmget(7, 512, mem.Create, rw)
		h, _ := p.Shmat(id, false)
		h.SetUint32(0, 1)
		p.Sleep(time.Minute)
	})
	for s := 1; s < 4; s++ {
		c.Site(s).Spawn("adder", 0, func(p *Proc) {
			h := attachRetry(t, p)
			for i := 0; h != nil && i < 40; i++ {
				h.AddUint32(0, 1) // ErrUnreachable is expected around the takeover
				p.Sleep(100 * time.Millisecond)
			}
			p.Sleep(time.Minute)
		})
	}
	c.RunFor(8 * time.Second)

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	_, got, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Obs.Buffer().Events()
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, recorded %d", len(got), len(want))
	}
	var successor, leader bool
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d decodes as %+v, recorded %+v", i, got[i], want[i])
		}
		successor = successor || want[i].Type == obs.EvFailover && want[i].To != 0
		leader = leader || want[i].Type == obs.EvReplicate && want[i].From != 0
	}
	if !successor || !leader {
		t.Errorf("run too short to test: failover with a successor %v, log activity led from site ≠ 0 %v", successor, leader)
	}
}
