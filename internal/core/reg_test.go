package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestNewRegConcurrent interns overlapping names from many goroutines
// at once, each in its own order: every name must get exactly one
// handle, shared by all goroutines, distinct from every other name's
// and from the paper registers', and String must give the name back.
func TestNewRegConcurrent(t *testing.T) {
	const goroutines, names = 16, 64
	got := make([][]Reg, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rs := make([]Reg, names)
			for n := 0; n < names; n++ {
				i := (n + 7*g) % names
				rs[i] = NewReg(fmt.Sprintf("concurrent.%d", i))
			}
			got[g] = rs
		}(g)
	}
	wg.Wait()
	owner := make(map[Reg]int)
	for n := 0; n < names; n++ {
		r := got[0][n]
		for g := range got {
			if got[g][n] != r {
				t.Fatalf("name %d: goroutine %d got handle %d, goroutine 0 got %d", n, g, got[g][n], r)
			}
		}
		if prev, dup := owner[r]; dup {
			t.Fatalf("names %d and %d share handle %d", prev, n, r)
		}
		owner[r] = n
		if int(r) < paperRegs {
			t.Fatalf("name %d got paper register handle %d", n, r)
		}
		if want := fmt.Sprintf("concurrent.%d", n); r.String() != want {
			t.Fatalf("handle %d names %q, want %q", r, r.String(), want)
		}
	}
	for _, r := range []Reg{RegA, RegB, RegC, RegD, RegR, RegFlag} {
		if NewReg(r.String()) != r {
			t.Fatalf("NewReg(%q) = %d, want the constant %d", r.String(), NewReg(r.String()), r)
		}
	}
}
