package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("short", 1)
	tb.Row("a-much-longer-name", 123456)
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("underline: %q", lines[1])
	}
	if !strings.Contains(lines[3], "123456") {
		t.Fatalf("row: %q", lines[3])
	}
}

func TestTableFormatsTypes(t *testing.T) {
	tb := NewTable("c")
	tb.Row(3.14159)
	tb.Row(27500 * time.Microsecond)
	var buf bytes.Buffer
	tb.WriteTo(&buf)
	out := buf.String()
	if !strings.Contains(out, "3.1") {
		t.Fatalf("float formatting: %q", out)
	}
	if !strings.Contains(out, "27.5ms") {
		t.Fatalf("duration formatting: %q", out)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(3, 2); got != "1.50x" {
		t.Fatalf("Ratio = %q", got)
	}
	if got := Ratio(1, 0); got != "∞" {
		t.Fatalf("Ratio zero = %q", got)
	}
}
