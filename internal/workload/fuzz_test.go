package workload

import "testing"

// FuzzPermIsPermutation: every seed and size yields a permutation.
func FuzzPermIsPermutation(f *testing.F) {
	f.Add(uint64(1), uint8(8))
	f.Add(uint64(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8) {
		n := int(nRaw%128) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[v] = true
		}
	})
}

// FuzzGnpDraw: the lane draw matches the plain per-pair loop (edges in
// order, final state) for any seed, size up to 1,100 and density.
func FuzzGnpDraw(f *testing.F) {
	f.Add(uint64(1), uint16(1024), 2.0/1024)
	f.Add(uint64(0), uint16(2), 1.0)
	f.Add(uint64(7), uint16(100), 0.3)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, p float64) {
		checkDraw(t, seed, int(nRaw%1100)+1, p)
	})
}
