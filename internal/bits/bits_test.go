package bits

import (
	"math/rand"
	"slices"
	"testing"
)

func TestWords(t *testing.T) {
	cases := map[int]int{1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3, 1024: 16}
	for n, want := range cases {
		if got := Words(n); got != want {
			t.Errorf("Words(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSetGetClear(t *testing.T) {
	m := NewMatrix(70) // straddles a word boundary
	pts := [][2]int{{0, 0}, {0, 63}, {0, 64}, {0, 69}, {69, 69}, {35, 64}}
	for _, p := range pts {
		m.Set(p[0], p[1])
	}
	for _, p := range pts {
		if !m.Get(p[0], p[1]) {
			t.Fatalf("bit (%d,%d) not set", p[0], p[1])
		}
	}
	if m.Get(1, 0) || m.Get(0, 62) {
		t.Fatal("unset bit reads set")
	}
	m.Clear(0, 64)
	if m.Get(0, 64) {
		t.Fatal("cleared bit still set")
	}
	m.SetTo(2, 3, true)
	m.SetTo(0, 0, false)
	if !m.Get(2, 3) || m.Get(0, 0) {
		t.Fatal("SetTo mismatch")
	}
}

func TestTrailingBitsStayZero(t *testing.T) {
	m := NewMatrix(70)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			m.Set(i, j)
		}
	}
	for i := 0; i < m.N; i++ {
		row := m.Row(i)
		if row[1]>>(70-64) != 0 {
			t.Fatalf("row %d trailing bits set: %x", i, row[1])
		}
		n := 0
		ForEach(row, func(int) { n++ })
		if n != 70 {
			t.Fatalf("row %d has %d set bits, want 70", i, n)
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 64, 65, 130} {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = make([]int64, n)
			for j := range rows[i] {
				if rng.Intn(3) == 0 {
					// Any nonzero value packs to 1, including negatives.
					rows[i][j] = rng.Int63n(9) - 4
					if rows[i][j] == 0 {
						rows[i][j] = -1
					}
				}
			}
		}
		m := FromRows(rows)
		for i := range rows {
			for j := range rows[i] {
				if m.Get(i, j) != (rows[i][j] != 0) {
					t.Fatalf("n=%d (%d,%d): Get = %v for entry %d", n, i, j, m.Get(i, j), rows[i][j])
				}
			}
		}
		if !m.Equal(FromRows(rows)) {
			t.Fatalf("n=%d: repacked matrix not equal", n)
		}
	}
}

func TestOrPopcount(t *testing.T) {
	a := []uint64{0xF0F0, 0x1}
	b := []uint64{0x0F0F, 0x2}
	Or(a, b)
	if a[0] != 0xFFFF || a[1] != 0x3 {
		t.Fatalf("Or = %x %x", a[0], a[1])
	}
	n := 0
	ForEach(a, func(int) { n++ })
	if n != 18 {
		t.Fatalf("Or left %d set bits, want 18", n)
	}
}

func TestForEachNextSet(t *testing.T) {
	m := NewMatrix(130)
	want := []int{0, 5, 63, 64, 100, 129}
	for _, j := range want {
		m.Set(0, j)
	}
	var got []int
	ForEach(m.Row(0), func(j int) { got = append(got, j) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	for j := 0; j < m.N; j++ {
		if set := m.Get(0, j); set != slices.Contains(want, j) {
			t.Fatalf("Get(0, %d) = %v", j, set)
		}
	}
	empty := NewMatrix(64)
	ForEach(empty.Row(0), func(j int) { t.Fatalf("ForEach visited %d in an empty row", j) })
}

func TestPackRowMatchesScalarOr(t *testing.T) {
	// The OR-accumulate over packed rows must equal the scalar Boolean
	// product row: the exact property CannonMatMul's bitset branch
	// relies on.
	rng := rand.New(rand.NewSource(9))
	const n = 97
	a := make([]int64, n)
	b := make([][]int64, n)
	for l := range b {
		b[l] = make([]int64, n)
		for j := range b[l] {
			b[l][j] = int64(rng.Intn(2))
		}
	}
	for l := range a {
		a[l] = int64(rng.Intn(2))
	}
	bm := FromRows(b)
	acc := make([]uint64, Words(n))
	for l := 0; l < n; l++ {
		if a[l] != 0 {
			Or(acc, bm.Row(l))
		}
	}
	for j := 0; j < n; j++ {
		want := false
		for l := 0; l < n; l++ {
			if a[l] != 0 && b[l][j] != 0 {
				want = true
				break
			}
		}
		got := acc[j/WordBits]&(1<<(j%WordBits)) != 0
		if got != want {
			t.Fatalf("column %d: packed %v, scalar %v", j, got, want)
		}
	}
}

func TestForEachMasked(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		row := make([]uint64, Words(n))
		mask := make([]uint64, Words(n))
		inMask := make([]bool, n)
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				row[j/WordBits] |= 1 << (j % WordBits)
			}
			if rng.Intn(4) == 0 {
				mask[j/WordBits] |= 1 << (j % WordBits)
				inMask[j] = true
			}
		}
		var words []int
		for wi, w := range mask {
			if w != 0 {
				words = append(words, wi)
			}
		}
		var got []int
		ForEachMasked(row, mask, words, func(j int) { got = append(got, j) })
		var want []int
		ForEach(row, func(j int) {
			if inMask[j] {
				want = append(want, j)
			}
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d masked bits, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: bit %d = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}
