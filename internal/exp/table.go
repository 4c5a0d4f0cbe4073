package exp

// The small formatting helpers the command-line tools print tables with,
// in a stable, paper-like layout.

import (
	"fmt"
	"io"
	"strings"
	"time"
	"unicode/utf8"
)

// Table renders rows with aligned columns. Rows are added as cells;
// the first row is the header.
type Table struct {
	rows [][]string
}

// NewTable creates a table with the given header.
func NewTable(header ...string) *Table {
	t := &Table{}
	t.rows = append(t.rows, header)
	return t
}

// Row appends a data row; cells are formatted with %v.
func (t *Table) Row(cells ...any) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			out[i] = fmt.Sprintf("%.1f", v)
		case time.Duration:
			out[i] = v.Round(10 * time.Microsecond).String()
		default:
			out[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, out)
}

// WriteTo prints the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, 0)
	for _, r := range t.rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var total int64
	line := func(s string) error {
		n, err := fmt.Fprintln(w, s)
		total += int64(n)
		return err
	}
	for ri, r := range t.rows {
		var b strings.Builder
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		if err := line(strings.TrimRight(b.String(), " ")); err != nil {
			return total, err
		}
		if ri == 0 {
			var u strings.Builder
			for i := range r {
				if i > 0 {
					u.WriteString("  ")
				}
				u.WriteString(strings.Repeat("-", widths[i]))
			}
			if err := line(u.String()); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Ratio renders a/b with a guard for zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "∞"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
