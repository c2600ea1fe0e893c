// Package mmio reads and writes Matrix Market coordinate files, the
// interchange format of the SuiteSparse collection the paper evaluates on.
// Supported: matrix coordinate {pattern|real|integer} {general|symmetric}.
// Values are kept when present; symmetric inputs are expanded to general
// form, since the matching algorithms work on the full pattern.
package mmio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// ErrFormat reports an unsupported or malformed Matrix Market file.
var ErrFormat = errors.New("mmio: bad MatrixMarket file")

// Read parses a Matrix Market stream into a CSR. Entries are assembled by
// sparse.FromCOO, so a repeated entry keeps the value that comes last.
func Read(r io.Reader) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty input", ErrFormat)
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("%w: bad header %q", ErrFormat, sc.Text())
	}
	format, field, symmetry := header[2], header[3], header[4]
	if format != "coordinate" {
		return nil, fmt.Errorf("%w: only coordinate format supported, got %q", ErrFormat, format)
	}
	switch field {
	case "pattern", "real", "integer":
	default:
		return nil, fmt.Errorf("%w: unsupported field %q", ErrFormat, field)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("%w: unsupported symmetry %q", ErrFormat, symmetry)
	}

	// Size line (skipping comments).
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: missing size line", ErrFormat)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("%w: bad size line %q", ErrFormat, line)
		}
		break
	}
	weighted := field != "pattern"
	entries := make([]sparse.Coord, 0, nnz)
	read := 0
	for read < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: expected %d entries, got %d", ErrFormat, nnz, read)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("%w: bad entry line %q", ErrFormat, line)
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: bad entry line %q", ErrFormat, line)
		}
		v := 1.0
		if weighted {
			if len(f) < 3 {
				return nil, fmt.Errorf("%w: missing value on %q", ErrFormat, line)
			}
			var err error
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad value on %q", ErrFormat, line)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrFormat, i, j, rows, cols)
		}
		entries = append(entries, sparse.Coord{I: int32(i - 1), J: int32(j - 1), V: v})
		if symmetry == "symmetric" && i != j {
			entries = append(entries, sparse.Coord{I: int32(j - 1), J: int32(i - 1), V: v})
		}
		read++
	}
	return sparse.FromCOO(rows, cols, entries, weighted)
}

// ReadFile reads a Matrix Market file from disk.
func ReadFile(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write emits a in Matrix Market coordinate format (pattern if a.Val is
// nil, real otherwise; always general symmetry).
func Write(w io.Writer, a *sparse.CSR) error {
	field := "pattern"
	if a.Val != nil {
		field = "real"
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate %s general\n", field); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.RowsN, a.ColsN, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.RowsN; i++ {
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			if a.Val == nil {
				if _, err := fmt.Fprintf(bw, "%d %d\n", i+1, a.Idx[p]+1); err != nil {
					return err
				}
			} else {
				if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, a.Idx[p]+1, a.Val[p]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes a to a Matrix Market file on disk.
func WriteFile(path string, a *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
