package core

import (
	"fmt"
	"sync"
)

// Reg is a register present in every base processor: a small integer
// handle that indexes the machine's register file directly. The
// paper's programs use a handful of registers per BP (Section II-B
// sizes BPs at "three or four" O(log N)-bit registers); the six it
// names are the constants below, and any other register is interned
// once by name with NewReg.
type Reg int

// The register names used by the paper's programs.
const (
	RegA Reg = iota
	RegB
	RegC
	RegD
	RegR
	RegFlag

	// paperRegs counts the registers every machine allocates at
	// construction, in one arena.
	paperRegs = int(RegFlag) + 1
)

// regNames is the process-wide interning table: the name of every
// handle ever issued, in handle order, and its inverse. It only
// grows, so a handle stays valid for the life of the process and
// means the same register on every machine.
var regNames = struct {
	sync.Mutex
	names  []string
	byName map[string]Reg
}{
	names:  []string{"A", "B", "C", "D", "R", "flag"},
	byName: map[string]Reg{"A": RegA, "B": RegB, "C": RegC, "D": RegD, "R": RegR, "flag": RegFlag},
}

// NewReg returns the register called name, interning it on first use:
// every call with the same name returns the same handle, and the
// paper's names return the constants above. It is safe for concurrent
// use. Programs intern their registers once (package variables, or
// once per run), never per access.
func NewReg(name string) Reg {
	regNames.Lock()
	defer regNames.Unlock()
	if r, ok := regNames.byName[name]; ok {
		return r
	}
	r := Reg(len(regNames.names))
	regNames.names = append(regNames.names, name)
	regNames.byName[name] = r
	return r
}

// String returns the name the register was interned under.
func (r Reg) String() string {
	regNames.Lock()
	defer regNames.Unlock()
	if r >= 0 && int(r) < len(regNames.names) {
		return regNames.names[r]
	}
	return fmt.Sprintf("Reg(%d)", int(r))
}
