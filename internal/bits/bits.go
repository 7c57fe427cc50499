// Package bits holds the word-packed Boolean row representation
// shared by the packed execution engine, the core machine's bit
// banks, and the mesh baseline's Cannon product: a matrix of 0/1
// values stored 64 columns per uint64 word, so one word operation
// (OR-accumulate, popcount, set-bit scan) processes 64 base
// processors at once.
//
// The package is pure data movement — no timing lives here. Every
// simulated bit-time is charged by the caller (the tree routers, the
// mesh's closed-form systolic schedule, or the packed engine's fused
// duration tables); bits only guarantees that the packed values are
// exactly the Boolean image of the scalar []int64 registers they
// shadow.
package bits

import (
	"fmt"
	mathbits "math/bits"
)

// WordBits is the packing width: columns per uint64 word.
const WordBits = 64

// Words returns the number of uint64 words needed for n columns.
func Words(n int) int { return (n + WordBits - 1) / WordBits }

// Matrix is an n×n Boolean matrix packed row-major, Words(n) words
// per row. The trailing bits of the last word of each row (columns
// ≥ n) are always zero — every mutator maintains this, so whole-row
// word comparisons and popcounts need no masking.
type Matrix struct {
	// N is the matrix side (rows and columns).
	N int
	// W is Words(N), the stride in words between consecutive rows.
	W int

	bits []uint64
}

// NewMatrix returns an all-zero n×n packed matrix.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic(fmt.Sprintf("bits: non-positive matrix side %d", n))
	}
	w := Words(n)
	return &Matrix{N: n, W: w, bits: make([]uint64, n*w)}
}

// Row returns row i's words, aliased into the matrix storage.
func (m *Matrix) Row(i int) []uint64 { return m.bits[i*m.W : (i+1)*m.W : (i+1)*m.W] }

// Get reports whether bit (i,j) is set.
func (m *Matrix) Get(i, j int) bool {
	return m.bits[i*m.W+j/WordBits]&(1<<(j%WordBits)) != 0
}

// Set sets bit (i,j).
func (m *Matrix) Set(i, j int) { m.bits[i*m.W+j/WordBits] |= 1 << (j % WordBits) }

// Clear clears bit (i,j).
func (m *Matrix) Clear(i, j int) { m.bits[i*m.W+j/WordBits] &^= 1 << (j % WordBits) }

// SetTo sets bit (i,j) to v.
func (m *Matrix) SetTo(i, j int, v bool) {
	if v {
		m.Set(i, j)
	} else {
		m.Clear(i, j)
	}
}

// Equal reports whether two matrices hold the same bits. Sizes must
// match for equality; the trailing-zero invariant makes whole-word
// comparison exact.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.N != o.N {
		return false
	}
	for i, w := range m.bits {
		if o.bits[i] != w {
			return false
		}
	}
	return true
}

// Or accumulates src into dst word-wise: dst |= src. This is the one
// word op that replaces 64 scalar OR steps in the Boolean product.
func Or(dst, src []uint64) {
	_ = dst[len(src)-1]
	for w, s := range src {
		dst[w] |= s
	}
}

// ForEach calls f(j) for every set bit j in the row, ascending. It
// scans word-at-a-time with trailing-zero counts, so sparse rows cost
// O(words + popcount) rather than O(columns).
func ForEach(row []uint64, f func(j int)) {
	for wi, w := range row {
		base := wi * WordBits
		for w != 0 {
			f(base + mathbits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// ForEachMasked calls f(j) for every set bit j of row ∧ mask,
// ascending, visiting only the word indices listed in words — the
// dirty-word sweep of the incremental packed engine: words holds the
// non-zero word indices of mask, so a row scan costs O(dirty words +
// surviving popcount) regardless of the row's full width.
func ForEachMasked(row, mask []uint64, words []int, f func(j int)) {
	for _, wi := range words {
		w := row[wi] & mask[wi]
		base := wi * WordBits
		for w != 0 {
			f(base + mathbits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// PackRow fills dst (at least Words(len(src)) words, pre-zeroed by
// the caller or overwritten here) with the Boolean image of src:
// bit j set iff src[j] != 0.
func PackRow(dst []uint64, src []int64) {
	n := len(src)
	for w := 0; w < Words(n); w++ {
		dst[w] = 0
	}
	for j, v := range src {
		if v != 0 {
			dst[j/WordBits] |= 1 << (j % WordBits)
		}
	}
}

// FromRows packs the Boolean image of the square scalar matrix rows
// (bit set iff the entry is nonzero).
func FromRows(rows [][]int64) *Matrix {
	m := NewMatrix(len(rows))
	for i, row := range rows {
		if len(row) != m.N {
			panic(fmt.Sprintf("bits: ragged row %d: %d columns in a %d×%d matrix", i, len(row), m.N, m.N))
		}
		PackRow(m.Row(i), row)
	}
	return m
}
