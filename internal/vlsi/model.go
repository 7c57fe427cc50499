// Package vlsi implements Thompson's VLSI model of computation as used
// by Nath, Maheshwari and Bhatt in "Efficient VLSI Networks for
// Parallel Processing Based on Orthogonal Trees" (IEEE ToC, 1983).
//
// The model (paper Section I-A):
//
//  1. One bit of logic or storage occupies Θ(1) chip area.
//  2. Wires are Θ(1) units wide and may cross at right angles.
//  3. A wire of length K is fed by a driver of log K amplification
//     stages, so the first bit needs Θ(log K) time to traverse the
//     wire; the stages are individually clocked, so subsequent bits
//     follow in a pipeline at one bit per time unit.
//
// Time in this package is measured in "bit-times": the period of the
// single-bit link clock. Words are Θ(log N) bits and all processing is
// bit-serial, exactly as the paper assumes.
//
// Three wire-delay disciplines are provided:
//
//   - LogDelay: Thompson's logarithmic model (the paper's default).
//   - ConstantDelay: the Θ(1)-per-wire model of Preparata–Vuillemin,
//     used by the paper's Section VII-D comparison (Table IV).
//   - LinearDelay: the pessimistic Θ(K) model of Bilardi et al.,
//     provided for sensitivity experiments.
package vlsi

import (
	"fmt"
	"math/bits"
)

// Time is a simulated duration or instant, measured in bit-times.
type Time int64

// Area is a chip area measured in square λ-units (one unit = the side
// of one bit of storage).
type Area int64

// Log2Ceil returns ⌈log₂ x⌉ for x ≥ 1, and 0 for x ≤ 1.
func Log2Ceil(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// Log2Floor returns ⌊log₂ x⌋ for x ≥ 1, and 0 for x ≤ 1.
func Log2Floor(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x)) - 1
}

// IsPow2 reports whether x is a positive power of two.
func IsPow2(x int) bool {
	return x > 0 && x&(x-1) == 0
}

// A DelayModel maps a wire length to the latency of its first bit.
// All models pipeline subsequent bits at one bit per bit-time
// (assumption 3 of Thompson's model).
type DelayModel interface {
	// FirstBit returns the time for the leading bit of a word to
	// cross a wire of the given length (in λ-units). Implementations
	// must return a value ≥ 1 for any length ≥ 0 and must be
	// monotonically non-decreasing in length.
	FirstBit(length int) Time
	// Name identifies the model in reports and traces.
	Name() string
}

// LogDelay is Thompson's logarithmic wire-delay model: a wire of
// length K behind its log K-stage driver delays the first bit by
// ⌈log₂ K⌉ bit-times (at least 1).
type LogDelay struct{}

// FirstBit implements DelayModel.
func (LogDelay) FirstBit(length int) Time {
	if length <= 2 {
		return 1
	}
	return Time(Log2Ceil(length))
}

// Name implements DelayModel.
func (LogDelay) Name() string { return "log-delay" }

// ConstantDelay charges one bit-time per wire regardless of length.
// This is the model under which the paper's Table IV compares sorting
// performance (Section VII-D).
type ConstantDelay struct{}

// FirstBit implements DelayModel.
func (ConstantDelay) FirstBit(length int) Time { return 1 }

// Name implements DelayModel.
func (ConstantDelay) Name() string { return "constant-delay" }

// LinearDelay charges time proportional to wire length (no drivers).
type LinearDelay struct{}

// FirstBit implements DelayModel.
func (LinearDelay) FirstBit(length int) Time {
	if length < 1 {
		return 1
	}
	return Time(length)
}

// Name implements DelayModel.
func (LinearDelay) Name() string { return "linear-delay" }

// Config carries the two parameters every simulated network needs: the
// machine word width in bits and the wire-delay discipline.
type Config struct {
	// WordBits is the width w of every datum moved through the
	// network. The paper assumes w = Θ(log N).
	WordBits int
	// Model is the wire-delay discipline.
	Model DelayModel
}

// DefaultConfig returns the paper's default configuration for a
// problem of size n: Θ(log n)-bit words under the logarithmic delay
// model. Word width is at least 8 bits so small instances still move
// realistic words.
func DefaultConfig(n int) Config {
	return Config{WordBits: WordBitsFor(n), Model: LogDelay{}}
}

// WordBitsFor returns the word width used for a problem of size n:
// ⌈log₂ n⌉+1 bits, but never fewer than 8.
func WordBitsFor(n int) int {
	w := Log2Ceil(n) + 1
	if w < 8 {
		w = 8
	}
	return w
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.WordBits <= 0 {
		return fmt.Errorf("vlsi: word width must be positive, got %d", c.WordBits)
	}
	if c.Model == nil {
		return fmt.Errorf("vlsi: nil delay model")
	}
	return nil
}

// WireTransit returns the total time for a w-bit word to cross a
// single wire of the given length: first-bit latency plus w−1
// pipelined follow-on bits.
func (c Config) WireTransit(length int) Time {
	return c.Model.FirstBit(length) + Time(c.WordBits-1)
}

// MaxTime returns the later of two instants.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MaxTimes returns the latest of a set of instants (0 if empty).
func MaxTimes(ts ...Time) Time {
	var m Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}
