package main

import (
	"fmt"

	"spkadd"
	"spkadd/internal/matrix"
)

// shape describes one family of generated matrices.
type shape struct {
	Rows, Cols, D int  // D is the draws per column
	RMAT          bool // Graph500 R-MAT instead of Erdős–Rényi
}

// splitmix64 derives independent generator seeds from the workload
// seed, so nearby workload seeds give unrelated inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// generate returns n matrices of shape s drawn from seed. Values are
// small integers (1..8), so every float sum the benchmark checks is
// exact whatever order the program adds in.
func generate(s shape, n int, seed uint64) []*spkadd.Matrix {
	out := make([]*spkadd.Matrix, n)
	for i := range out {
		ms := splitmix64(seed ^ splitmix64(uint64(i)+1))
		if s.RMAT {
			out[i] = spkadd.RandomRMAT(s.Rows, s.Cols, s.D, ms)
		} else {
			out[i] = spkadd.RandomER(s.Rows, s.Cols, s.D, ms)
		}
		v := ms
		for p := range out[i].Val {
			v = splitmix64(v)
			out[i].Val[p] = float64(1 + v%8)
		}
	}
	return out
}

// nnzSum is the number of input entries in as.
func nnzSum(as []*spkadd.Matrix) int {
	n := 0
	for _, a := range as {
		n += a.NNZ()
	}
	return n
}

// refBlockCols bounds the dense reference to rows × refBlockCols
// values at a time, so checking a wide sum stays within tens of MB.
const refBlockCols = 32

// checkSum compares got entry for entry with the dense reference sum
// Σ weights[i]·as[i] (a nil weights means all ones), one column block
// at a time.
func checkSum(got *spkadd.Matrix, as []*spkadd.Matrix, weights []int) error {
	rows, cols := as[0].Rows, as[0].Cols
	if got.Rows != rows || got.Cols != cols {
		return fmt.Errorf("result is %dx%d, want %dx%d", got.Rows, got.Cols, rows, cols)
	}
	terms := make([]*spkadd.Matrix, 0, len(as))
	for c0 := 0; c0 < cols; c0 += refBlockCols {
		c1 := min(c0+refBlockCols, cols)
		terms = terms[:0]
		for i, a := range as {
			w := 1
			if weights != nil {
				w = weights[i]
			}
			if w == 0 {
				continue
			}
			v := a.ColView(c0, c1)
			if w != 1 {
				v = v.Clone().Scale(float64(w))
			}
			terms = append(terms, v)
		}
		want := matrix.NewCSC(rows, c1-c0, 0)
		if len(terms) > 0 {
			want = matrix.ReferenceAdd(terms)
		}
		if !got.ColView(c0, c1).Equal(want) {
			return fmt.Errorf("columns [%d,%d) differ from the dense reference", c0, c1)
		}
	}
	return nil
}
