package report

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file is the report's compact binary form: the bytes otserve's
// result cache keeps per stored answer. A stored entry stays resident
// for as long as the cache's byte budget allows, and the cache only
// ever hands the bytes back to DecodeCompact, so they need not be
// JSON. The layout is
//
//	flags       uvarint: the bool fields and which optional fields follow
//	alg         name
//	network     name
//	model       name
//	n, seed     uvarint each
//	time, area  uvarint each
//	at2         8 bytes, little-endian IEEE 754 bits
//	optional    in flag order: events, healthy_time, faults, error,
//	            job_id, session_id, batch, updates, affected,
//	            components, then the 15 health counters
//
// A name is one byte: the index of a known name in compactNames plus
// one, or 0 followed by a string. A string is a uvarint length and
// its bytes. Integer fields are written as the uvarint of their
// two's-complement bits, so the small non-negative values every run
// produces take a byte or two and any value round-trips. A sort of
// N=64 with a full 64-bit seed takes 29 bytes against about 165 as
// compact JSON.

// compactNames are the alg, network and model names runs report;
// append only, since stored bytes name them by index.
var compactNames = [...]string{
	"sort", "cc",
	"otn", "scaled", "otc",
	"log-delay", "constant-delay", "linear-delay",
}

// Compact flag bits.
const (
	cfRecovered = 1 << iota
	cfCorrectSet
	cfCorrect
	cfReplayed
	cfDeduped
	cfCached
	cfCoalesced
	cfEvents
	cfHealthyTime
	cfFaults
	cfError
	cfJobID
	cfSessionID
	cfBatch
	cfUpdates
	cfAffected
	cfComponents
	cfHealth
	cfAll = cfHealth<<1 - 1
)

// errCompact is the error every malformed compact encoding decodes to.
var errCompact = errors.New("report: malformed compact encoding")

// EncodeCompact returns the report's compact binary form, allocated
// at exactly its length.
func EncodeCompact(r *Report) []byte {
	flags, n := r.compactFlags()
	return r.appendCompact(make([]byte, 0, n), flags)
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func intLen(v int64) int { return uvarintLen(uint64(v)) }

func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func nameLen(s string) int {
	if nameCode(s) != 0 {
		return 1
	}
	return 1 + strLen(s)
}

// nameCode is the known name's one-byte code, 0 for a literal.
func nameCode(s string) byte {
	for i, k := range compactNames {
		if s == k {
			return byte(i + 1)
		}
	}
	return 0
}

// compactFlags returns the report's flag word and its encoded length.
func (r *Report) compactFlags() (flags uint64, n int) {
	set := func(bit uint64, on bool, size int) {
		if on {
			flags |= bit
			n += size
		}
	}
	set(cfRecovered, r.Recovered, 0)
	if r.Correct != nil {
		set(cfCorrectSet, true, 0)
		set(cfCorrect, *r.Correct, 0)
	}
	set(cfReplayed, r.Replayed, 0)
	set(cfDeduped, r.Deduped, 0)
	set(cfCached, r.Cached, 0)
	set(cfCoalesced, r.Coalesced, 0)
	set(cfEvents, r.Events != 0, intLen(int64(r.Events)))
	set(cfHealthyTime, r.HealthyTime != 0, intLen(r.HealthyTime))
	set(cfFaults, r.Faults != 0, intLen(int64(r.Faults)))
	set(cfError, r.Error != "", strLen(r.Error))
	set(cfJobID, r.JobID != "", strLen(r.JobID))
	set(cfSessionID, r.SessionID != "", strLen(r.SessionID))
	set(cfBatch, r.Batch != 0, intLen(int64(r.Batch)))
	set(cfUpdates, r.Updates != 0, intLen(int64(r.Updates)))
	set(cfAffected, r.Affected != 0, intLen(int64(r.Affected)))
	set(cfComponents, r.Components != 0, intLen(int64(r.Components)))
	if h := r.Health; h != nil {
		size := 0
		for _, v := range h.counters() {
			size += intLen(v)
		}
		set(cfHealth, true, size)
	}
	n += uvarintLen(flags) + nameLen(r.Alg) + nameLen(r.Network) + nameLen(r.Model) +
		intLen(int64(r.N)) + uvarintLen(r.Seed) + intLen(r.Time) + intLen(r.Area) + 8
	return flags, n
}

// counters lists the health counters in encoding order.
func (h *Health) counters() [15]int64 {
	return [15]int64{
		int64(h.DeadEdges), int64(h.DeadIPs), int64(h.StuckBPs), int64(h.Transients),
		int64(h.Retries), int64(h.Reroutes), h.RetryLatency, h.RerouteLatency,
		int64(h.Arrivals), int64(h.Checkpoints), int64(h.Rollbacks), int64(h.Healed),
		h.CheckpointOverhead, h.RollbackLatency, int64(h.Failures),
	}
}

func (r *Report) appendCompact(b []byte, flags uint64) []byte {
	appendInt := func(v int64) { b = binary.AppendUvarint(b, uint64(v)) }
	appendStr := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	appendName := func(s string) {
		c := nameCode(s)
		b = append(b, c)
		if c == 0 {
			appendStr(s)
		}
	}
	b = binary.AppendUvarint(b, flags)
	appendName(r.Alg)
	appendName(r.Network)
	appendName(r.Model)
	appendInt(int64(r.N))
	b = binary.AppendUvarint(b, r.Seed)
	appendInt(r.Time)
	appendInt(r.Area)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.AT2))
	if flags&cfEvents != 0 {
		appendInt(int64(r.Events))
	}
	if flags&cfHealthyTime != 0 {
		appendInt(r.HealthyTime)
	}
	if flags&cfFaults != 0 {
		appendInt(int64(r.Faults))
	}
	if flags&cfError != 0 {
		appendStr(r.Error)
	}
	if flags&cfJobID != 0 {
		appendStr(r.JobID)
	}
	if flags&cfSessionID != 0 {
		appendStr(r.SessionID)
	}
	if flags&cfBatch != 0 {
		appendInt(int64(r.Batch))
	}
	if flags&cfUpdates != 0 {
		appendInt(int64(r.Updates))
	}
	if flags&cfAffected != 0 {
		appendInt(int64(r.Affected))
	}
	if flags&cfComponents != 0 {
		appendInt(int64(r.Components))
	}
	if flags&cfHealth != 0 {
		for _, v := range r.Health.counters() {
			appendInt(v)
		}
	}
	return b
}

// compactReader walks an encoding; the first malformed field sets err
// and every later read returns zero.
type compactReader struct {
	b   []byte
	err error
}

func (d *compactReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errCompact
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *compactReader) int() int64 { return int64(d.uvarint()) }

func (d *compactReader) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.err = errCompact
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *compactReader) name() string {
	if d.err != nil {
		return ""
	}
	if len(d.b) == 0 {
		d.err = errCompact
		return ""
	}
	c := d.b[0]
	d.b = d.b[1:]
	switch {
	case c == 0:
		return d.str()
	case int(c) <= len(compactNames):
		return compactNames[c-1]
	}
	d.err = errCompact
	return ""
}

func (d *compactReader) fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = errCompact
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// DecodeCompact is EncodeCompact's inverse. Bytes that are not an
// encoding — truncated, with unknown flags or name codes, or with
// trailing bytes — return an error.
func DecodeCompact(b []byte) (*Report, error) {
	d := compactReader{b: b}
	flags := d.uvarint()
	if d.err == nil && flags&^cfAll != 0 {
		return nil, fmt.Errorf("%w: flags %#x", errCompact, flags)
	}
	r := &Report{
		Recovered: flags&cfRecovered != 0,
		Replayed:  flags&cfReplayed != 0,
		Deduped:   flags&cfDeduped != 0,
		Cached:    flags&cfCached != 0,
		Coalesced: flags&cfCoalesced != 0,
	}
	if flags&cfCorrectSet != 0 {
		c := flags&cfCorrect != 0
		r.Correct = &c
	} else if flags&cfCorrect != 0 {
		return nil, fmt.Errorf("%w: correct without its presence bit", errCompact)
	}
	r.Alg, r.Network, r.Model = d.name(), d.name(), d.name()
	r.N = int(d.int())
	r.Seed = d.uvarint()
	r.Time, r.Area = d.int(), d.int()
	r.AT2 = math.Float64frombits(d.fixed64())
	if flags&cfEvents != 0 {
		r.Events = int(d.int())
	}
	if flags&cfHealthyTime != 0 {
		r.HealthyTime = d.int()
	}
	if flags&cfFaults != 0 {
		r.Faults = int(d.int())
	}
	if flags&cfError != 0 {
		r.Error = d.str()
	}
	if flags&cfJobID != 0 {
		r.JobID = d.str()
	}
	if flags&cfSessionID != 0 {
		r.SessionID = d.str()
	}
	if flags&cfBatch != 0 {
		r.Batch = int(d.int())
	}
	if flags&cfUpdates != 0 {
		r.Updates = int(d.int())
	}
	if flags&cfAffected != 0 {
		r.Affected = int(d.int())
	}
	if flags&cfComponents != 0 {
		r.Components = int(d.int())
	}
	if flags&cfHealth != 0 {
		var c [15]int64
		for i := range c {
			c[i] = d.int()
		}
		r.Health = &Health{
			DeadEdges: int(c[0]), DeadIPs: int(c[1]), StuckBPs: int(c[2]), Transients: int(c[3]),
			Retries: int(c[4]), Reroutes: int(c[5]), RetryLatency: c[6], RerouteLatency: c[7],
			Arrivals: int(c[8]), Checkpoints: int(c[9]), Rollbacks: int(c[10]), Healed: int(c[11]),
			CheckpointOverhead: c[12], RollbackLatency: c[13], Failures: int(c[14]),
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCompact, len(d.b))
	}
	return r, nil
}
