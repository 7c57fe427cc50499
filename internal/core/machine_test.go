package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vlsi"
)

func testMachine(t *testing.T, k int) *Machine {
	t.Helper()
	m, err := NewDefault(k, k*k)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(3, vlsi.DefaultConfig(9)); err == nil {
		t.Error("non-power-of-two K accepted")
	}
	if _, err := New(4, vlsi.Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRegisters(t *testing.T) {
	m := testMachine(t, 4)
	if m.Get(RegA, 2, 3) != 0 {
		t.Error("fresh register not zero")
	}
	m.Set(RegA, 2, 3, 77)
	if m.Get(RegA, 2, 3) != 77 {
		t.Error("register write lost")
	}
	// Distinct registers are distinct banks.
	if m.Get(RegB, 2, 3) != 0 {
		t.Error("register banks aliased")
	}
}

func TestRootRegisters(t *testing.T) {
	m := testMachine(t, 4)
	m.SetRowRoot(1, 5)
	m.SetColRoot(2, 9)
	if m.RowRoot(1) != 5 || m.ColRoot(2) != 9 {
		t.Error("root registers broken")
	}
}

func TestVectorString(t *testing.T) {
	if Row(3).String() != "row(3)" || Col(7).String() != "column(7)" {
		t.Error("vector rendering wrong")
	}
}

func TestVectorAddressing(t *testing.T) {
	m := testMachine(t, 4)
	m.Set(RegA, 1, 2, 42)
	if m.at(RegA, Row(1), 2) != 42 {
		t.Error("row addressing wrong")
	}
	if m.at(RegA, Col(2), 1) != 42 {
		t.Error("column addressing wrong")
	}
	m.setAt(RegB, Col(3), 0, 7)
	if m.Get(RegB, 0, 3) != 7 {
		t.Error("column write wrong")
	}
}

func TestRootToLeafAll(t *testing.T) {
	m := testMachine(t, 8)
	m.SetRowRoot(2, 99)
	done := m.RootToLeaf(Row(2), nil, RegA, 10)
	if done <= 10 {
		t.Error("broadcast took no time")
	}
	for j := 0; j < 8; j++ {
		if m.Get(RegA, 2, j) != 99 {
			t.Errorf("BP(2,%d).A = %d, want 99", j, m.Get(RegA, 2, j))
		}
	}
	// Other rows untouched.
	if m.Get(RegA, 3, 0) != 0 {
		t.Error("broadcast leaked into row 3")
	}
}

func TestRootToLeafSelector(t *testing.T) {
	// The paper's example: broadcast to all BPs (0, j) with j even.
	m := testMachine(t, 8)
	m.SetRowRoot(0, 7)
	even := func(k int) bool { return k%2 == 0 }
	m.RootToLeaf(Row(0), even, RegA, 0)
	for j := 0; j < 8; j++ {
		want := int64(0)
		if j%2 == 0 {
			want = 7
		}
		if m.Get(RegA, 0, j) != want {
			t.Errorf("BP(0,%d).A = %d, want %d", j, m.Get(RegA, 0, j), want)
		}
	}
}

func TestLeafToRoot(t *testing.T) {
	// The paper's example: column(0), source = (5, B).
	m := testMachine(t, 8)
	m.Set(RegB, 5, 0, 1234)
	done := m.LeafToRoot(Col(0), One(5), RegB, 0)
	if m.ColRoot(0) != 1234 {
		t.Errorf("column root = %d, want 1234", m.ColRoot(0))
	}
	if done <= 0 {
		t.Error("gather took no time")
	}
}

func TestLeafToRootSelectorArity(t *testing.T) {
	m := testMachine(t, 4)
	if d := m.LeafToRoot(Row(0), func(int) bool { return false }, RegA, 7); d != 7 {
		t.Error("failed primitive advanced time")
	}
	var se *SelectorError
	if !errors.As(m.Err(), &se) || se.Selected != 0 {
		t.Errorf("no-BP selection: err = %v", m.Err())
	}
	m.ClearErr()
	m.LeafToRoot(Row(0), func(k int) bool { return k < 2 }, RegA, 0)
	if !errors.As(m.Err(), &se) || se.Selected != 2 {
		t.Errorf("two-BP selection: err = %v", m.Err())
	}
}

// TestLeafToRootFormsMatchSelector pins the index and key forms of
// LEAFTOROOT to the selector form: the same root word, completion time
// and trace event on a good selection, and the same *SelectorError
// with the time unchanged on a selection of zero or two BPs. The key
// form's two-BP case is an R bank holding a duplicate rank.
func TestLeafToRootFormsMatchSelector(t *testing.T) {
	const k = 8
	type outcome struct {
		root, done int64
		err        string
		events     []string
	}
	run := func(f func(m *Machine) int64) outcome {
		m := testMachine(t, k)
		for j := 0; j < k; j++ {
			m.Set(RegA, j, 3, int64(100+j))
			m.Set(RegR, j, 3, int64(j))
		}
		m.Set(RegR, 6, 3, 2) // rank 2 twice, rank 6 never
		var o outcome
		m.Tracer = func(op string, vec Vector, start, end vlsi.Time) {
			o.events = append(o.events, fmt.Sprintf("%s %v %d %d", op, vec, start, end))
		}
		o.done = f(m)
		o.root = m.ColRoot(3)
		if err := m.Err(); err != nil {
			o.err = err.Error()
			var se *SelectorError
			if !errors.As(err, &se) || se.Op != "LEAFTOROOT" {
				t.Fatalf("err %v is not a LEAFTOROOT *SelectorError", err)
			}
		}
		return o
	}
	vec := Col(3)
	byRank := func(rank int64) Sel {
		return func(j int) bool { return j == int(rank) && j != 6 || j == 6 && rank == 2 }
	}
	for _, c := range []struct {
		name      string
		sel       Sel
		form      func(m *Machine) vlsi.Time
		wantError bool
	}{
		{"index 5", One(5), func(m *Machine) vlsi.Time { return m.LeafToRootAt(vec, 5, RegA, 9) }, false},
		{"index 8", One(8), func(m *Machine) vlsi.Time { return m.LeafToRootAt(vec, 8, RegA, 9) }, true},
		{"index -1", One(-1), func(m *Machine) vlsi.Time { return m.LeafToRootAt(vec, -1, RegA, 9) }, true},
		{"key 4", byRank(4), func(m *Machine) vlsi.Time { return m.LeafToRootKey(vec, RegR, 4, RegA, 9) }, false},
		{"key 6 (no BP)", byRank(6), func(m *Machine) vlsi.Time { return m.LeafToRootKey(vec, RegR, 6, RegA, 9) }, true},
		{"key 2 (two BPs)", byRank(2), func(m *Machine) vlsi.Time { return m.LeafToRootKey(vec, RegR, 2, RegA, 9) }, true},
	} {
		want := run(func(m *Machine) int64 { return int64(m.LeafToRoot(vec, c.sel, RegA, 9)) })
		got := run(func(m *Machine) int64 { return int64(c.form(m)) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: form gave %+v, selector %+v", c.name, got, want)
		}
		if (want.err != "") != c.wantError {
			t.Errorf("%s: selector form error %q, want an error: %v", c.name, want.err, c.wantError)
		}
	}
}

// mustStick asserts that f records a sticky error of type target
// (a pointer-to-pointer as with errors.As) and clears it.
func mustStick(t *testing.T, m *Machine, what string, target any, f func()) {
	t.Helper()
	m.ClearErr()
	f()
	if m.Err() == nil {
		t.Errorf("%s recorded no error", what)
		return
	}
	if !errors.As(m.Err(), target) {
		t.Errorf("%s: err %v is not %T", what, m.Err(), target)
	}
	m.ClearErr()
}

func TestCountLeafToRoot(t *testing.T) {
	m := testMachine(t, 8)
	for j := 0; j < 8; j++ {
		if j%3 == 0 {
			m.Set(RegFlag, 1, j, 1)
		}
	}
	m.CountLeafToRoot(Row(1), RegFlag, 0)
	if m.RowRoot(1) != 3 { // j = 0, 3, 6
		t.Errorf("count = %d, want 3", m.RowRoot(1))
	}
}

func TestSumLeafToRoot(t *testing.T) {
	m := testMachine(t, 8)
	for j := 0; j < 8; j++ {
		m.Set(RegA, 2, j, int64(j))
	}
	m.SumLeafToRoot(Row(2), nil, RegA, 0)
	if m.RowRoot(2) != 28 {
		t.Errorf("sum = %d, want 28", m.RowRoot(2))
	}
	// Selected subset.
	m.SumLeafToRoot(Row(2), func(k int) bool { return k >= 6 }, RegA, 0)
	if m.RowRoot(2) != 13 {
		t.Errorf("partial sum = %d, want 13", m.RowRoot(2))
	}
}

func TestMinLeafToRoot(t *testing.T) {
	m := testMachine(t, 8)
	vals := []int64{9, 4, Null, 7, 12, 4, 99, 3}
	for j, v := range vals {
		m.Set(RegA, 0, j, v)
	}
	m.MinLeafToRoot(Row(0), nil, RegA, 0)
	if m.RowRoot(0) != 3 {
		t.Errorf("min = %d, want 3 (Null ignored)", m.RowRoot(0))
	}
	// Empty selection yields Null.
	m.MinLeafToRoot(Row(0), func(int) bool { return false }, RegA, 0)
	if m.RowRoot(0) != Null {
		t.Errorf("empty min = %d, want Null", m.RowRoot(0))
	}
	// All-Null selection yields Null.
	for j := range vals {
		m.Set(RegB, 0, j, Null)
	}
	m.MinLeafToRoot(Row(0), nil, RegB, 0)
	if m.RowRoot(0) != Null {
		t.Errorf("all-Null min = %d, want Null", m.RowRoot(0))
	}
}

func TestLeafToLeaf(t *testing.T) {
	m := testMachine(t, 8)
	m.Set(RegA, 3, 3, 55)
	done := m.LeafToLeaf(Row(3), One(3), RegA, nil, RegB, 0)
	for j := 0; j < 8; j++ {
		if m.Get(RegB, 3, j) != 55 {
			t.Errorf("BP(3,%d).B = %d, want 55", j, m.Get(RegB, 3, j))
		}
	}
	// Composite of two primitives: strictly longer than either alone.
	m2 := testMachine(t, 8)
	m2.Set(RegA, 3, 3, 55)
	up := m2.LeafToRoot(Row(3), One(3), RegA, 0)
	if done <= up {
		t.Error("composite no longer than its first leg")
	}
}

func TestCompareExchange(t *testing.T) {
	m := testMachine(t, 8)
	vals := []int64{5, 1, 7, 3, 2, 8, 6, 4}
	for j, v := range vals {
		m.Set(RegA, 0, j, v)
	}
	m.CompareExchange(Row(0), 1, RegA, nil, 0)
	for j := 0; j < 8; j += 2 {
		a, b := m.Get(RegA, 0, j), m.Get(RegA, 0, j+1)
		if a > b {
			t.Errorf("pair (%d,%d) not ascending: %d > %d", j, j+1, a, b)
		}
	}
	// Descending pairs.
	m2 := testMachine(t, 8)
	for j, v := range vals {
		m2.Set(RegA, 0, j, v)
	}
	m2.CompareExchange(Row(0), 2, RegA, func(int) bool { return false }, 0)
	for j := 0; j < 8; j++ {
		if j&2 != 0 {
			continue
		}
		if m2.Get(RegA, 0, j) < m2.Get(RegA, 0, j+2) {
			t.Errorf("pair (%d,%d) not descending", j, j+2)
		}
	}
	var me *MisuseError
	mustStick(t, m, "bad stride", &me, func() { m.CompareExchange(Row(0), 8, RegA, nil, 0) })
	mustStick(t, m, "non-pow2 stride", &me, func() { m.CompareExchange(Row(0), 3, RegA, nil, 0) })
	var ve *VectorError
	mustStick(t, m, "bad vector", &ve, func() { m.CompareExchange(Row(99), 1, RegA, nil, 0) })
}

func TestParDo(t *testing.T) {
	m := testMachine(t, 4)
	count := 0
	done := m.ParDo(true, 5, func(vec Vector, rel vlsi.Time) vlsi.Time {
		count++
		return rel + vlsi.Time(vec.Index)
	})
	if count != 4 {
		t.Errorf("ParDo ran %d times", count)
	}
	if done != 8 { // rel 5 + max index 3
		t.Errorf("ParDo completion %d, want 8", done)
	}
}

func TestTracer(t *testing.T) {
	m := testMachine(t, 4)
	var ops []string
	m.Tracer = func(op string, vec Vector, start, end vlsi.Time) {
		ops = append(ops, op)
		if end < start {
			t.Errorf("%s: end %d before start %d", op, end, start)
		}
	}
	m.SetRowRoot(0, 1)
	m.RootToLeaf(Row(0), nil, RegA, 0)
	m.CountLeafToRoot(Row(0), RegFlag, 0)
	if len(ops) != 2 || ops[0] != "ROOTTOLEAF" || ops[1] != "COUNT-LEAFTOROOT" {
		t.Errorf("trace = %v", ops)
	}
}

func TestLocalCosts(t *testing.T) {
	m := testMachine(t, 4)
	if m.Local(10, m.CostCompare()) != 10+vlsi.Time(m.WordBits()) {
		t.Error("compare cost wrong")
	}
	if m.CostMul() != 2*m.WordBits() {
		t.Error("mul cost wrong")
	}
	var me *MisuseError
	mustStick(t, m, "negative cost", &me, func() { m.Local(0, -1) })
}

func TestResetRestoresTiming(t *testing.T) {
	m := testMachine(t, 8)
	m.SetRowRoot(0, 1)
	a := m.RootToLeaf(Row(0), nil, RegA, 0)
	b := m.RootToLeaf(Row(0), nil, RegA, 0) // pipelined behind a
	if b <= a {
		t.Error("second broadcast not behind first")
	}
	m.Reset()
	c := m.RootToLeaf(Row(0), nil, RegA, 0)
	if c != a {
		t.Errorf("Reset did not restore timing: %d vs %d", c, a)
	}
}

// TestPrimitiveTimeShape measures the Section II-B claim: each
// primitive costs Θ(log² N) bit-times under the log-delay model.
func TestPrimitiveTimeShape(t *testing.T) {
	var logs, broadcast, reduce []float64
	for k := 8; k <= 256; k *= 2 {
		m := testMachine(t, k)
		m.SetRowRoot(0, 1)
		b := m.RootToLeaf(Row(0), nil, RegA, 0)
		m.Reset()
		r := m.CountLeafToRoot(Row(0), RegFlag, 0)
		logs = append(logs, float64(vlsi.Log2Ceil(k)))
		broadcast = append(broadcast, float64(b))
		reduce = append(reduce, float64(r))
	}
	for name, ys := range map[string][]float64{"broadcast": broadcast, "reduce": reduce} {
		e := vlsi.GrowthExponent(logs, ys)
		if e < 1.0 || e > 3.0 {
			t.Errorf("%s time grows as log^%.2f K; want ~log²", name, e)
		}
	}
}

func TestAreaShape(t *testing.T) {
	// Area is Θ(K² log² K): ratio to K²·w² bounded.
	for k := 8; k <= 256; k *= 2 {
		m := testMachine(t, k)
		w := float64(m.WordBits())
		r := float64(m.Area()) / (float64(k) * float64(k) * w * w)
		if r < 0.5 || r > 40 {
			t.Errorf("K=%d: area ratio %v out of band", k, r)
		}
	}
}

func TestPermuteVector(t *testing.T) {
	m := testMachine(t, 8)
	for j := 0; j < 8; j++ {
		m.Set(RegA, 0, j, int64(10+j))
	}
	perm := []int{7, 6, 5, 4, 3, 2, 1, 0} // reversal
	done := m.PermuteVector(Row(0), perm, RegA, RegB, 0)
	for j := 0; j < 8; j++ {
		if m.Get(RegB, 0, 7-j) != int64(10+j) {
			t.Errorf("B(0,%d) = %d, want %d", 7-j, m.Get(RegB, 0, 7-j), 10+j)
		}
	}
	// The four words of each half cross the same root edge, so they
	// serialize there: at least (K/2)·w bit-times.
	if w := vlsi.Time(m.WordBits()); done < 4*w {
		t.Errorf("reversal took %d, below the root serialization bound %d", done, 4*w)
	}
}

func TestPermuteVectorIdentityCheap(t *testing.T) {
	mi := testMachine(t, 32)
	mr := testMachine(t, 32)
	id := make([]int, 32)
	rev := make([]int, 32)
	for j := range id {
		id[j] = j
		rev[j] = 31 - j
	}
	tID := mi.PermuteVector(Row(0), id, RegA, RegB, 0)
	tRev := mr.PermuteVector(Row(0), rev, RegA, RegB, 0)
	if tID >= tRev {
		t.Errorf("identity permute (%d) not cheaper than reversal (%d)", tID, tRev)
	}
}

func TestPermuteVectorValidation(t *testing.T) {
	m := testMachine(t, 4)
	var me *MisuseError
	mustStick(t, m, "short perm", &me, func() {
		m.PermuteVector(Row(0), []int{0, 1}, RegA, RegB, 0)
	})
	mustStick(t, m, "duplicate target", &me, func() {
		m.PermuteVector(Row(0), []int{0, 0, 1, 2}, RegA, RegB, 0)
	})
	mustStick(t, m, "out of range", &me, func() {
		m.PermuteVector(Row(0), []int{0, 1, 2, 9}, RegA, RegB, 0)
	})
}

func TestPermuteVectorQuick(t *testing.T) {
	m := testMachine(t, 16)
	f := func(seed uint64) bool {
		// Random permutation via Fisher–Yates on a small LCG.
		perm := make([]int, 16)
		for i := range perm {
			perm[i] = i
		}
		s := seed | 1
		for i := 15; i > 0; i-- {
			s = s*6364136223846793005 + 1442695040888963407
			j := int(s % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		for j := 0; j < 16; j++ {
			m.Set(RegA, 2, j, int64(j*j))
		}
		m.Reset()
		m.PermuteVector(Row(2), perm, RegA, RegB, 0)
		for j := 0; j < 16; j++ {
			if m.Get(RegB, 2, perm[j]) != int64(j*j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSelectorCombinators(t *testing.T) {
	for k := 0; k < 16; k++ {
		if One(5)(k) != (k == 5) {
			t.Fatalf("One(5)(%d)", k)
		}
		if And(One(5), All)(k) != (k == 5) || And(All, One(5))(k) != (k == 5) {
			t.Fatalf("And(%d)", k)
		}
		// nil algebra: nil means "all".
		if !And(nil, nil)(k) || And(One(3), nil)(k) != (k == 3) || And(nil, One(3))(k) != (k == 3) {
			t.Fatalf("nil algebra at %d", k)
		}
	}
}

func TestSelectorQuick(t *testing.T) {
	// And is the pointwise conjunction, whichever operand is nil.
	f := func(a, b uint8, kRaw uint8) bool {
		k := int(kRaw % 32)
		lo := int(b % 16)
		sa := One(int(a % 32))
		var sb Sel = func(k int) bool { return k >= lo && k < lo+8 }
		return And(sa, sb)(k) == (sa(k) && sb(k)) &&
			And(sb, sa)(k) == And(sa, sb)(k) &&
			And(sa, nil)(k) == sa(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
