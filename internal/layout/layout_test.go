package layout

import (
	"math"
	"strings"
	"testing"

	"repro/internal/vlsi"
)

func TestWireLen(t *testing.T) {
	w := Wire{From: Point{0, 0}, To: Point{3, 4}}
	if w.Len() != 7 {
		t.Errorf("Manhattan length = %d, want 7", w.Len())
	}
}

func TestChipBoundsEmpty(t *testing.T) {
	c := &Chip{}
	if c.Area() != 0 {
		t.Errorf("empty chip area = %d", c.Area())
	}
}

func TestEmbedTreeStructure(t *testing.T) {
	leafPos := []int{10, 20, 30, 40, 50, 60, 70, 80}
	pos, g := embedTree(leafPos, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.K != len(leafPos) {
		t.Errorf("K = %d, want %d leaves", g.K, len(leafPos))
	}
	// Root sits at the midpoint of the leaf span.
	if pos[1] < 40 || pos[1] > 50 {
		t.Errorf("root position %d not central", pos[1])
	}
	// Edge lengths grow with height: root edges are the longest.
	if g.EdgeLen[2] < g.EdgeLen[8] {
		t.Errorf("root edge %d shorter than low edge %d", g.EdgeLen[2], g.EdgeLen[8])
	}
}

func TestEmbedTreeNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("embedTree accepted 3 leaves")
		}
	}()
	embedTree([]int{1, 2, 3}, 2)
}

func TestBuildOTNValidation(t *testing.T) {
	if _, err := BuildOTN(3, 8); err == nil {
		t.Error("non-power-of-two base accepted")
	}
	if _, err := BuildOTN(4, 0); err == nil {
		t.Error("zero word width accepted")
	}
}

func TestBuildOTNCounts(t *testing.T) {
	o, err := BuildOTN(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := countRects(o.Chip, "bp"); got != 16 {
		t.Errorf("BPs = %d, want 16", got)
	}
	// 2K trees with K−1 internal nodes each: 2·4·3 = 24 IPs.
	if got := countRects(o.Chip, "ip"); got != 24 {
		t.Errorf("IPs = %d, want 24", got)
	}
	// Each tree contributes 2K−2 edges; 8 trees × 6 = 48 wires.
	if got := len(o.Chip.Wires); got != 48 {
		t.Errorf("wires = %d, want 48", got)
	}
	if err := o.RowTree.Validate(); err != nil {
		t.Error(err)
	}
	if err := o.ColTree.Validate(); err != nil {
		t.Error(err)
	}
}

// TestOTNAreaGrowth checks the Θ(K² log² K) area of the OTN layout:
// the ratio area/(K·w)² must stay bounded above and below across a
// sweep (w = word bits = Θ(log K)).
func TestOTNAreaGrowth(t *testing.T) {
	var ratios []float64
	for k := 4; k <= 256; k *= 2 {
		w := vlsi.WordBitsFor(k * k)
		o, err := BuildOTN(k, w)
		if err != nil {
			t.Fatal(err)
		}
		r := float64(o.Area()) / (float64(k) * float64(w) * float64(k) * float64(w))
		ratios = append(ratios, r)
	}
	for _, r := range ratios {
		if r < 0.5 || r > 40 {
			t.Errorf("area/(K w)² ratio %v outside [0.5, 40]: not Θ(K² log² K)", r)
		}
	}
}

// TestOTNRootEdgeLength checks the paper's claim that the longest tree
// branch is Θ(N log N) units (with N = K here, pitch = Θ(log N)).
func TestOTNRootEdgeLength(t *testing.T) {
	for k := 8; k <= 128; k *= 2 {
		w := vlsi.WordBitsFor(k * k)
		o, err := BuildOTN(k, w)
		if err != nil {
			t.Fatal(err)
		}
		root := o.RowTree.EdgeLen[2] // edge from root's child to root
		want := float64(k*o.Pitch) / 4
		if float64(root) < want/4 || float64(root) > want*4 {
			t.Errorf("K=%d: root edge %d, want Θ(K·pitch/4)=%.0f", k, root, want)
		}
	}
}

func TestBuildCycle(t *testing.T) {
	c, err := BuildCycle(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if countRects(c.Chip, "bp") != 8 {
		t.Errorf("cycle BPs = %d", countRects(c.Chip, "bp"))
	}
	if len(c.EdgeLen) != 8 {
		t.Fatalf("edge lengths = %d", len(c.EdgeLen))
	}
	for q, l := range c.EdgeLen {
		if l < 1 {
			t.Errorf("edge %d length %d", q, l)
		}
	}
	// The closing edge is the longest.
	if c.EdgeLen[7] <= c.EdgeLen[0] {
		t.Errorf("closing edge %d not longest (first %d)", c.EdgeLen[7], c.EdgeLen[0])
	}
	if _, err := BuildCycle(0, 8); err == nil {
		t.Error("zero-length cycle accepted")
	}
}

func TestBuildOTCCounts(t *testing.T) {
	o, err := BuildOTC(4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := countRects(o.Chip, "bp"); got != 64 {
		t.Errorf("BPs = %d, want 4·4·4 = 64", got)
	}
	if err := o.RowTree.Validate(); err != nil {
		t.Error(err)
	}
	if len(o.CycleEdgeLen) != 4 {
		t.Errorf("cycle edges = %d", len(o.CycleEdgeLen))
	}
	if _, err := BuildOTC(5, 4, 8); err == nil {
		t.Error("non-power-of-two OTC accepted")
	}
}

// TestOTCAreaBeatsOTN verifies the Section V claim: with K = N/log N
// cycles of length log N, the OTC's area is asymptotically below the
// area of the (N×N)-OTN with the same number of base processors.
func TestOTCAreaBeatsOTN(t *testing.T) {
	prevRatio := math.Inf(1)
	for _, n := range []int{64, 256, 512} {
		w := vlsi.Log2Ceil(n)
		k := n / w
		k = 1 << vlsi.Log2Floor(k) // power-of-two cycle count
		otc, err := BuildOTC(k, w, w)
		if err != nil {
			t.Fatal(err)
		}
		otn, err := BuildOTN(1<<vlsi.Log2Ceil(n), w)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(otc.Area()) / float64(otn.Area())
		if ratio >= 1 {
			t.Errorf("N=%d: OTC area %d not below OTN area %d", n, otc.Area(), otn.Area())
		}
		if ratio > prevRatio*1.5 {
			t.Errorf("N=%d: OTC/OTN area ratio %v not trending down (prev %v)", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestBuildMesh(t *testing.T) {
	m, err := BuildMesh(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if countRects(m.Chip, "bp") != 16 {
		t.Errorf("PEs = %d", countRects(m.Chip, "bp"))
	}
	// 2·K·(K−1) neighbour links.
	if len(m.Chip.Wires) != 24 {
		t.Errorf("wires = %d, want 24", len(m.Chip.Wires))
	}
	for _, w := range m.Chip.Wires {
		if w.Len() != m.Pitch {
			t.Errorf("mesh wire length %d, want pitch %d", w.Len(), m.Pitch)
		}
	}
	if _, err := BuildMesh(0, 8); err == nil {
		t.Error("empty mesh accepted")
	}
	if _, err := BuildMesh(4, 0); err == nil {
		t.Error("zero word width accepted")
	}
}

func TestPSNAndCCCFormulas(t *testing.T) {
	// Areas are increasing and asymptotically Θ(n²/log² n): the ratio
	// to n² shrinks, the ratio to n stays growing.
	var prev vlsi.Area
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		a := PSNArea(n, vlsi.WordBitsFor(n))
		if a <= prev {
			t.Errorf("PSNArea not increasing at %d", n)
		}
		prev = a
	}
	if PSNMaxWire(1024) != 1024/10 {
		t.Errorf("PSNMaxWire(1024) = %d", PSNMaxWire(1024))
	}
	if CCCMaxWire(1024) != 1024/10 {
		t.Errorf("CCCMaxWire(1024) = %d", CCCMaxWire(1024))
	}
	// Dimension wires grow with d and are capped.
	if CCCDimWire(1024, 1) >= CCCDimWire(1024, 6) {
		t.Error("CCCDimWire not growing with dimension")
	}
	if CCCDimWire(1024, 30) != CCCMaxWire(1024) {
		t.Error("CCCDimWire not capped at max wire")
	}
}

func TestSVGRendering(t *testing.T) {
	o, err := BuildOTN(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	svg := o.Chip.SVG()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Error("not a well-formed SVG document")
	}
	if strings.Count(svg, "<line") != len(o.Chip.Wires) {
		t.Errorf("SVG has %d lines, want %d", strings.Count(svg, "<line"), len(o.Chip.Wires))
	}
	if strings.Count(svg, "<circle") != 24 {
		t.Errorf("SVG has %d IP dots, want 24", strings.Count(svg, "<circle"))
	}
}

func TestASCIIRendering(t *testing.T) {
	o, err := BuildOTN(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	art := o.Chip.ASCII(1)
	grid := art[strings.IndexByte(art, '\n')+1:] // skip the title line
	if strings.Count(grid, "O") != 16 {
		t.Errorf("ASCII has %d BPs, want 16", strings.Count(grid, "O"))
	}
	if !strings.Contains(art, "*") {
		t.Error("ASCII has no IP markers")
	}
}

func TestChipStats(t *testing.T) {
	o, _ := BuildOTN(4, 8)
	s := o.Chip.Stats()
	if !strings.Contains(s, "OTN") || !strings.Contains(s, "area") {
		t.Errorf("unexpected stats string %q", s)
	}
}

func TestCrossings(t *testing.T) {
	// Two crossing wires.
	c := &Chip{Wires: []Wire{
		{From: Point{0, 5}, To: Point{10, 5}},
		{From: Point{5, 0}, To: Point{5, 10}},
	}}
	if got := crossings(c); got != 1 {
		t.Errorf("simple cross = %d, want 1", got)
	}
	// Touching at an endpoint is not a proper crossing.
	c2 := &Chip{Wires: []Wire{
		{From: Point{0, 5}, To: Point{10, 5}},
		{From: Point{10, 5}, To: Point{10, 10}},
	}}
	if got := crossings(c2); got != 0 {
		t.Errorf("endpoint touch = %d, want 0", got)
	}
	// Parallel wires never cross.
	c3 := &Chip{Wires: []Wire{
		{From: Point{0, 5}, To: Point{10, 5}},
		{From: Point{0, 7}, To: Point{10, 7}},
	}}
	if got := crossings(c3); got != 0 {
		t.Errorf("parallel = %d, want 0", got)
	}
}

func TestOTNCrossingsGrow(t *testing.T) {
	// The standard OTN layout's crossing count grows with K — row
	// and column trees overlap throughout the base.
	small, err := BuildOTN(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	big, err := BuildOTN(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cs, cb := crossings(small.Chip), crossings(big.Chip)
	if cs <= 0 {
		t.Errorf("4×4 OTN has %d crossings; expected some", cs)
	}
	if cb <= cs {
		t.Errorf("crossings did not grow: %d then %d", cs, cb)
	}
}

func TestMeshHasNoCrossings(t *testing.T) {
	m, err := BuildMesh(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := crossings(m.Chip); got != 0 {
		t.Errorf("mesh crossings = %d, want 0 (planar nearest-neighbour wiring)", got)
	}
}

// crossings counts proper wire crossings on the chip. Wires are
// rectilinear; a diagonal connection is decomposed into its
// horizontal-then-vertical dogleg. The paper notes (Section II-A)
// that Leighton's alternative OTN layout has "the same O(N² log² N)
// area but a factor of log N fewer wire crossings" — this metric
// makes that comparison measurable.
func crossings(c *Chip) int {
	type seg struct{ x1, y1, x2, y2 int }
	var hs, vs []seg
	add := func(x1, y1, x2, y2 int) {
		if y1 == y2 && x1 != x2 {
			if x1 > x2 {
				x1, x2 = x2, x1
			}
			hs = append(hs, seg{x1, y1, x2, y2})
		} else if x1 == x2 && y1 != y2 {
			if y1 > y2 {
				y1, y2 = y2, y1
			}
			vs = append(vs, seg{x1, y1, x2, y2})
		}
	}
	for _, w := range c.Wires {
		if w.From.X == w.To.X || w.From.Y == w.To.Y {
			add(w.From.X, w.From.Y, w.To.X, w.To.Y)
			continue
		}
		// Dogleg: horizontal leg at From.Y, then vertical at To.X.
		add(w.From.X, w.From.Y, w.To.X, w.From.Y)
		add(w.To.X, w.From.Y, w.To.X, w.To.Y)
	}
	n := 0
	for _, h := range hs {
		for _, v := range vs {
			if v.x1 > h.x1 && v.x1 < h.x2 && h.y1 > v.y1 && h.y1 < v.y2 {
				n++
			}
		}
	}
	return n
}

// countRects returns the number of components with the given kind tag.
func countRects(c *Chip, kind string) int {
	n := 0
	for _, r := range c.Rects {
		if r.Kind == kind {
			n++
		}
	}
	return n
}
