package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenExports locks the exact bytes both exporters, and the
// summary `miragetrace summarize` prints, produce for a fixed event
// sequence. Any schema change must be deliberate: rerun
// with -update and bump SchemaVersion if the JSONL shape changed.
func TestGoldenExports(t *testing.T) {
	hdr := NewHeader(ClockVirtual, 2)
	events := sampleEvents()

	var jsonl, chrome, summary bytes.Buffer
	if err := WriteJSONL(&jsonl, hdr, events); err != nil {
		t.Fatal(err)
	}
	if _, err := Summarize(events).WriteTo(&summary); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&chrome, hdr, events); err != nil {
		t.Fatal(err)
	}

	check := func(name string, got []byte) {
		t.Helper()
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run `go test -run TestGoldenExports -update ./internal/obs`): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
	check("trace.jsonl", jsonl.Bytes())
	check("chrome.json", chrome.Bytes())
	check("summary.txt", summary.Bytes())

	// The golden trace must also read back cleanly.
	gotHdr, gotEvents, err := ReadJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr || len(gotEvents) != len(events) {
		t.Fatalf("golden trace did not round-trip: %+v, %d events", gotHdr, len(gotEvents))
	}
}
