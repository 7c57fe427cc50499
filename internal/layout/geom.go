// Package layout places the paper's networks on a model chip and
// measures the geometric quantities Thompson's theory consumes: the
// bounding-box area of the layout and the length of every wire.
//
// Units are λ-units: 1 unit is the side of one bit of storage and the
// width of one wire (assumptions 1 and 2 of the model). Layouts are
// rectilinear; wire lengths are Manhattan lengths.
//
// The package reproduces the paper's three figures:
//
//   - Fig. 1 — layout of a (4×4)-OTN (BuildOTN).
//   - Fig. 2 — layout of one cycle of the OTC (CycleBlock).
//   - Fig. 3 — layout of a (4×4)-OTC (BuildOTC).
//
// and provides the mesh layout plus closed-form areas for the cited
// PSN and CCC layouts used in Tables I–IV.
package layout

import (
	"fmt"

	"repro/internal/vlsi"
)

// Point is a position on the chip in λ-units.
type Point struct {
	X, Y int
}

// Rect is an axis-aligned placed component.
type Rect struct {
	X, Y, W, H int
	// Kind tags the component for rendering ("bp", "ip", "port"...).
	Kind string
	// Label is an optional identifier such as "BP(1,2)".
	Label string
}

// Wire is a rectilinear wire segment between two points.
type Wire struct {
	From, To Point
	// Kind tags the net for rendering ("rowtree", "coltree",
	// "cycle", "mesh").
	Kind string
}

// Len returns the Manhattan length of the wire.
func (w Wire) Len() int {
	return abs(w.From.X-w.To.X) + abs(w.From.Y-w.To.Y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Chip is a placed layout.
type Chip struct {
	Name  string
	Rects []Rect
	Wires []Wire
}

// Bounds returns the bounding box (minX, minY, maxX, maxY) of the
// layout. An empty chip has zero bounds.
func (c *Chip) Bounds() (minX, minY, maxX, maxY int) {
	first := true
	expand := func(x, y int) {
		if first {
			minX, minY, maxX, maxY = x, y, x, y
			first = false
			return
		}
		if x < minX {
			minX = x
		}
		if y < minY {
			minY = y
		}
		if x > maxX {
			maxX = x
		}
		if y > maxY {
			maxY = y
		}
	}
	for _, r := range c.Rects {
		expand(r.X, r.Y)
		expand(r.X+r.W, r.Y+r.H)
	}
	for _, w := range c.Wires {
		expand(w.From.X, w.From.Y)
		expand(w.To.X, w.To.Y)
	}
	return
}

// Area returns the bounding-box area of the layout in square λ-units
// — the quantity that enters the paper's A·T² figures.
func (c *Chip) Area() vlsi.Area {
	minX, minY, maxX, maxY := c.Bounds()
	return vlsi.Area(int64(maxX-minX) * int64(maxY-minY))
}

// MaxWireLen returns the length of the longest wire on the chip. For
// the OTN this is Θ(N log N) (the top edges of the trees), the length
// the paper uses to derive the Θ(log N) per-edge delay.
func (c *Chip) MaxWireLen() int {
	m := 0
	for _, w := range c.Wires {
		if l := w.Len(); l > m {
			m = l
		}
	}
	return m
}

// Stats summarizes a chip for reports.
func (c *Chip) Stats() string {
	return fmt.Sprintf("%s: %d components, %d wires, area %d, max wire %d",
		c.Name, len(c.Rects), len(c.Wires), c.Area(), c.MaxWireLen())
}
