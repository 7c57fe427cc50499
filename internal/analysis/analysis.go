// Package analysis regenerates the paper's evaluation: every table
// (I–IV) and the layout figures, as parameter sweeps over the
// simulated networks, rendered next to the asymptotic claims the
// paper prints. Absolute bit-time counts are not expected to match a
// 1983 testbed; what the harness checks — and what the renderer
// surfaces — is the *shape*: who wins, by roughly what factor, and
// how each measurement grows across the sweep.
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/vlsi"
)

// Claim is one network's row of a paper table: the printed asymptotic
// area, time and A·T².
type Claim struct {
	Area, Time, AT2 vlsi.Asym
}

// Row is one measured point of an experiment.
type Row struct {
	// Network names the interconnection scheme.
	Network string
	// N is the problem size.
	N int
	// Area and Time are the measured (simulated) values.
	Area vlsi.Area
	Time vlsi.Time
	// Claim is the paper's asymptotic entry for this network.
	Claim Claim
	// Analytic marks rows whose time comes from a documented cost
	// derivation rather than a functional run (the paper's own
	// PSN/CCC graph rows are derivations too).
	Analytic bool
}

// AT2 is the row's figure of merit.
func (r Row) AT2() float64 {
	return vlsi.Metric{Area: r.Area, Time: r.Time}.AT2()
}

// Experiment is a regenerated table or figure.
type Experiment struct {
	// ID is the paper artefact ("Table I", "Fig. 1", "§VIII.4"...).
	ID string
	// Title describes the workload.
	Title string
	// Rows holds every measured point.
	Rows []Row
	// Notes records substitutions and derivations.
	Notes []string
}

// Networks returns the distinct network names in first-seen order.
func (e *Experiment) Networks() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range e.Rows {
		if !seen[r.Network] {
			seen[r.Network] = true
			out = append(out, r.Network)
		}
	}
	return out
}

// rowsOf returns the rows of one network sorted by N.
func (e *Experiment) rowsOf(network string) []Row {
	var out []Row
	for _, r := range e.Rows {
		if r.Network == network {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].N < out[j].N })
	return out
}

// Exponents fits growth exponents (vs N) of the measured area, time
// and A·T² of one network across the sweep.
func (e *Experiment) Exponents(network string) (areaExp, timeExp, at2Exp float64) {
	rows := e.rowsOf(network)
	var ns, as, ts, m2 []float64
	for _, r := range rows {
		ns = append(ns, float64(r.N))
		as = append(as, float64(r.Area))
		ts = append(ts, float64(r.Time))
		m2 = append(m2, r.AT2())
	}
	return vlsi.GrowthExponent(ns, as), vlsi.GrowthExponent(ns, ts), vlsi.GrowthExponent(ns, m2)
}

// BestAT2 returns the network with the smallest measured A·T² at the
// largest common problem size, and that size.
func (e *Experiment) BestAT2() (network string, n int) {
	largest := map[string]Row{}
	for _, r := range e.Rows {
		if cur, ok := largest[r.Network]; !ok || r.N > cur.N {
			largest[r.Network] = r
		}
	}
	// Use the largest N available for every network.
	minN := math.MaxInt64
	for _, r := range largest {
		if r.N < minN {
			minN = r.N
		}
	}
	best := math.Inf(1)
	for _, name := range e.Networks() {
		for _, r := range e.rowsOf(name) {
			if r.N == minN && r.AT2() < best {
				best = r.AT2()
				network, n = name, minN
			}
		}
	}
	return network, n
}

// Markdown renders the experiment as GitHub-flavoured markdown
// tables, for inclusion in reports such as EXPERIMENTS.md.
func (e *Experiment) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", e.ID, e.Title)
	b.WriteString("| network | N | area (λ²) | time (bit-times) | A·T² |\n")
	b.WriteString("|---|---:|---:|---:|---:|\n")
	for _, name := range e.Networks() {
		for _, r := range e.rowsOf(name) {
			tag := ""
			if r.Analytic {
				tag = " *(analytic)*"
			}
			fmt.Fprintf(&b, "| %s%s | %d | %d | %d | %.4g |\n",
				r.Network, tag, r.N, r.Area, r.Time, r.AT2())
		}
	}
	b.WriteString("\n| network | area fit | time fit | A·T² fit | paper area | paper time | paper A·T² |\n")
	b.WriteString("|---|---:|---:|---:|---|---|---|\n")
	for _, name := range e.Networks() {
		rows := e.rowsOf(name)
		a, t, m := e.Exponents(name)
		c := rows[0].Claim
		fmt.Fprintf(&b, "| %s | %.2f | %.2f | %.2f | %s | %s | %s |\n",
			name, a, t, m, c.Area.Label, c.Time.Label, c.AT2.Label)
	}
	if best, n := e.BestAT2(); best != "" {
		fmt.Fprintf(&b, "\nBest measured A·T² at N=%d: **%s**.\n", n, best)
	}
	for _, note := range e.Notes {
		fmt.Fprintf(&b, "\n> %s\n", note)
	}
	b.WriteString("\n")
	return b.String()
}

// Render prints the experiment as an aligned text table followed by
// the per-network growth fits and the paper's claims.
func (e *Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", e.ID, e.Title)
	fmt.Fprintf(&b, "%-10s %8s %14s %14s %14s %s\n", "network", "N", "area", "time", "A*T^2", "")
	for _, name := range e.Networks() {
		for _, r := range e.rowsOf(name) {
			tag := ""
			if r.Analytic {
				tag = "(analytic)"
			}
			fmt.Fprintf(&b, "%-10s %8d %14d %14d %14.4g %s\n",
				r.Network, r.N, r.Area, r.Time, r.AT2(), tag)
		}
	}
	b.WriteString("\ngrowth fits (exponent vs N) and paper claims:\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s   %-18s %-18s %-18s\n",
		"network", "area^", "time^", "AT2^", "paper area", "paper time", "paper AT2")
	for _, name := range e.Networks() {
		rows := e.rowsOf(name)
		a, t, m := e.Exponents(name)
		c := rows[0].Claim
		fmt.Fprintf(&b, "%-10s %10.2f %10.2f %10.2f   %-18s %-18s %-18s\n",
			name, a, t, m, c.Area.Label, c.Time.Label, c.AT2.Label)
	}
	if best, n := e.BestAT2(); best != "" {
		fmt.Fprintf(&b, "\nbest measured A*T^2 at N=%d: %s\n", n, best)
	}
	for _, note := range e.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}
