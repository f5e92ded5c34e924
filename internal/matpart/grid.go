package matpart

import (
	"fmt"
	"math"
)

// BlockRect is a process's rectangle on an n×n block grid (the matrix of
// b×b blocks of the parallel multiplication): columns [Col, Col+Cols) ×
// rows [Row, Row+Rows).
type BlockRect struct {
	// Proc is the process index.
	Proc int
	// Col, Row is the lower-left block coordinate.
	Col, Row int
	// Cols, Rows is the extent in blocks.
	Cols, Rows int
}

// Blocks returns the number of b×b blocks (computation units) in the
// rectangle.
func (r BlockRect) Blocks() int { return r.Cols * r.Rows }

// PartitionGrid discretises the continuous column-based arrangement onto an
// n×n block grid: every process receives an integer rectangle, the
// rectangles tile the grid exactly, and block counts approximate the
// prescribed areas. Column boundaries and per-column row boundaries are
// placed by cumulative rounding, which keeps every rounding error below
// one block row/column.
//
// Degenerate instances are handled explicitly rather than by caller luck:
// zero-area processes receive empty rectangles (Cols = Rows = 0) exactly
// as Partition gives them empty continuous rectangles, and whenever the
// arrangement fits the grid (at most n columns, at most n rectangles per
// column) every positive-area process is guaranteed at least one block —
// cumulative rounding reserves one strip per remaining column and one row
// per remaining rectangle, so a wide neighbour can no longer round a thin
// column or a short rectangle down to nothing. If the arrangement cannot
// fit (more than n columns, or a column with more than n rectangles), the
// tiling stays exact and the smallest-area processes of the overfull
// column/sequence receive zero blocks.
func PartitionGrid(areas []float64, n int) ([]BlockRect, error) {
	if n <= 0 {
		return nil, fmt.Errorf("matpart: grid size must be positive, got %d", n)
	}
	rects, _, err := Partition(areas)
	if err != nil {
		return nil, err
	}
	// Group rectangles into columns by X (they share exact X values).
	type colGroup struct {
		x     float64
		width float64
		rs    []Rect
	}
	byX := map[float64]*colGroup{}
	order := []float64{}
	for _, r := range rects {
		if r.W == 0 {
			continue
		}
		g, ok := byX[r.X]
		if !ok {
			g = &colGroup{x: r.X, width: r.W}
			byX[r.X] = g
			order = append(order, r.X)
		}
		g.rs = append(g.rs, r)
	}
	sortFloats(order)
	out := make([]BlockRect, len(areas))
	for i := range out {
		out[i].Proc = i
	}
	colStart := 0
	cum := 0.0
	for ci, x := range order {
		g := byX[x]
		cum += g.width
		colEnd := int(math.Round(cum * float64(n)))
		if ci == len(order)-1 {
			colEnd = n // the last column always closes the grid
		}
		// Reserve one strip per remaining column so a wide column cannot
		// round a thin successor down to zero strips, and give this column
		// at least one strip. When there are more columns than strips the
		// bounds conflict; exhausting the grid (colStart = n) then leaves
		// the trailing columns empty.
		if rem := len(order) - ci - 1; colEnd > n-rem {
			colEnd = n - rem
		}
		if colEnd < colStart+1 {
			colEnd = colStart + 1
		}
		if colEnd > n {
			colEnd = n
		}
		wCols := colEnd - colStart
		// Stack the column's rectangles bottom-up by cumulative rounding
		// of their heights, with the same one-row reservation per
		// remaining rectangle.
		sortRectsByY(g.rs)
		rowStart := 0
		cumH := 0.0
		for k, r := range g.rs {
			cumH += r.H
			rowEnd := int(math.Round(cumH * float64(n)))
			if k == len(g.rs)-1 {
				rowEnd = n // last rectangle always closes the column
			}
			if rem := len(g.rs) - k - 1; rowEnd > n-rem {
				rowEnd = n - rem
			}
			if rowEnd < rowStart+1 {
				rowEnd = rowStart + 1
			}
			if rowEnd > n {
				rowEnd = n
			}
			rows := rowEnd - rowStart
			if wCols == 0 {
				rows = 0 // an empty column holds no blocks
			}
			out[r.Proc] = BlockRect{Proc: r.Proc, Col: colStart, Row: rowStart, Cols: wCols, Rows: rows}
			rowStart = rowEnd
		}
		colStart = colEnd
	}
	// The cumulative rounding of the final column must close the grid.
	if colStart != n {
		return nil, fmt.Errorf("matpart: internal error: columns cover %d of %d", colStart, n)
	}
	return out, nil
}

// CheckTiling verifies that the rectangles tile the n×n grid exactly:
// every block covered once. It is exported for tests and for validating
// user-supplied arrangements.
func CheckTiling(rects []BlockRect, n int) error {
	covered := make([]int, n*n)
	for _, r := range rects {
		if r.Cols == 0 || r.Rows == 0 {
			continue
		}
		if r.Col < 0 || r.Row < 0 || r.Col+r.Cols > n || r.Row+r.Rows > n {
			return fmt.Errorf("matpart: rectangle %+v outside the %dx%d grid", r, n, n)
		}
		for c := r.Col; c < r.Col+r.Cols; c++ {
			for w := r.Row; w < r.Row+r.Rows; w++ {
				covered[c*n+w]++
			}
		}
	}
	for i, c := range covered {
		if c != 1 {
			return fmt.Errorf("matpart: block (%d,%d) covered %d times", i/n, i%n, c)
		}
	}
	return nil
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func sortRectsByY(rs []Rect) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Y < rs[j-1].Y; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// Render draws the arrangement as an ASCII grid, one character per block
// (process 0 = 'A', 1 = 'B', …, wrapping after 52), at most maxSide
// characters per side (larger grids are downsampled by block sampling).
// It is how fupermod-sim matmul -layout visualises the Beaumont arrangement
// of the paper's Fig. 1.
func Render(rects []BlockRect, n, maxSide int) (string, error) {
	if err := CheckTiling(rects, n); err != nil {
		return "", err
	}
	if maxSide <= 0 {
		maxSide = 64
	}
	owner := make([]int, n*n)
	for _, r := range rects {
		for c := r.Col; c < r.Col+r.Cols; c++ {
			for w := r.Row; w < r.Row+r.Rows; w++ {
				owner[w*n+c] = r.Proc
			}
		}
	}
	letter := func(p int) byte {
		const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
		return alphabet[p%len(alphabet)]
	}
	side := n
	if side > maxSide {
		side = maxSide
	}
	var b []byte
	for row := side - 1; row >= 0; row-- { // row 0 at the bottom, as in the unit square
		gr := row * n / side
		for col := 0; col < side; col++ {
			gc := col * n / side
			b = append(b, letter(owner[gr*n+gc]))
		}
		b = append(b, '\n')
	}
	return string(b), nil
}
