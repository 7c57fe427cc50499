package report

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// sameReport is deep equality over every field, with AT2 compared by
// its bits so a NaN equals itself.
func sameReport(a, b *Report) bool {
	if math.Float64bits(a.AT2) != math.Float64bits(b.AT2) {
		return false
	}
	x, y := *a, *b
	x.AT2, y.AT2 = 0, 0
	return reflect.DeepEqual(&x, &y)
}

// fieldSource deals fuzz bytes out as 64-bit field values, zero once
// they run out.
type fieldSource []byte

func (s *fieldSource) next() uint64 {
	var buf [8]byte
	n := copy(buf[:], *s)
	*s = (*s)[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// reportFrom builds a report that sets every field from the inputs:
// known or literal names, any integer, optional pointers present or
// not.
func reportFrom(vals []byte, name, text string) *Report {
	s := fieldSource(vals)
	pick := func() string {
		if i := s.next() % (uint64(len(compactNames)) + 1); i < uint64(len(compactNames)) {
			return compactNames[i]
		}
		return name
	}
	bits := s.next()
	bit := func(i uint) bool { return bits&(1<<i) != 0 }
	str := func(i uint) string {
		if bit(i) {
			return text
		}
		return ""
	}
	r := &Report{
		Alg: pick(), Network: pick(), Model: pick(),
		N: int(s.next()), Seed: s.next(),
		Events: int(s.next()), HealthyTime: int64(s.next()),
		Time: int64(s.next()), Area: int64(s.next()), AT2: math.Float64frombits(s.next()),
		Faults: int(s.next()), Recovered: bit(0), Error: str(1),
		JobID: str(2), SessionID: str(3),
		Batch: int(s.next()), Updates: int(s.next()), Affected: int(s.next()), Components: int(s.next()),
		Replayed: bit(4), Deduped: bit(5), Cached: bit(6), Coalesced: bit(7),
	}
	if bit(8) {
		c := bit(9)
		r.Correct = &c
	}
	if bit(10) {
		r.Health = &Health{
			DeadEdges: int(s.next()), DeadIPs: int(s.next()), StuckBPs: int(s.next()),
			Transients: int(s.next()), Retries: int(s.next()), Reroutes: int(s.next()),
			RetryLatency: int64(s.next()), RerouteLatency: int64(s.next()),
			Arrivals: int(s.next()), Checkpoints: int(s.next()), Rollbacks: int(s.next()),
			Healed: int(s.next()), CheckpointOverhead: int64(s.next()),
			RollbackLatency: int64(s.next()), Failures: int(s.next()),
		}
	}
	return r
}

// FuzzCompactReport checks the compact form both ways. A report built
// from the inputs must round-trip to a deep-equal report, from a body
// of exactly its length, and every truncation of that body must fail
// to decode. Arbitrary bytes must decode to an error or to a report
// that itself round-trips — never panic.
func FuzzCompactReport(f *testing.F) {
	yes := true
	for _, r := range []*Report{
		{Alg: "sort", Network: "otn", Model: "log-delay", N: 64, Seed: 1983,
			Time: 350, Area: 2166784, AT2: 265431040000, Recovered: true},
		{Alg: "cc", Network: "scaled", Model: "constant-delay", N: 16, Seed: 9,
			Events: 3, HealthyTime: 120, Faults: 2, Correct: &yes, Error: "unrecovered",
			Health: &Health{DeadEdges: 2, Retries: 1, RetryLatency: 40, Failures: 1}},
		{Alg: "cc", Network: "otn", Model: "linear-delay", SessionID: "s1", Batch: 4,
			Updates: 9, Affected: 3, Components: 7, JobID: "j", Cached: true},
	} {
		f.Add(EncodeCompact(r), []byte{1, 2, 3}, "bogus", "text")
	}
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{}, "", "")
	f.Fuzz(func(t *testing.T, raw, vals []byte, name, text string) {
		if r, err := DecodeCompact(raw); err == nil {
			back, err := DecodeCompact(EncodeCompact(r))
			if err != nil || !sameReport(r, back) {
				t.Fatalf("decoded %+v re-encodes to %+v (%v)", r, back, err)
			}
		} else if r != nil {
			t.Fatalf("error %v with a report", err)
		}

		r := reportFrom(vals, name, text)
		b := EncodeCompact(r)
		if len(b) != cap(b) {
			t.Fatalf("body of %d bytes in a buffer of %d", len(b), cap(b))
		}
		got, err := DecodeCompact(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !sameReport(r, got) {
			t.Fatalf("round trip\n%+v\ngave\n%+v", r, got)
		}
		for n := 0; n < len(b); n++ {
			if _, err := DecodeCompact(b[:n]); err == nil {
				t.Fatalf("a %d-byte truncation of a %d-byte body decoded", n, len(b))
			}
		}
	})
}

// TestCompactKeepsJSON pins what the result cache relies on: a
// report's JSON after a compact round trip is the JSON it had.
func TestCompactKeepsJSON(t *testing.T) {
	no := false
	for _, r := range []*Report{
		{Alg: "sort", Network: "otn", Model: "log-delay", N: 64, Seed: 0x9E3779B97F4A7C15,
			Time: 350, Area: 2166784, AT2: 265431040000, Recovered: true},
		{Alg: "sort", Network: "otn", Model: "log-delay", N: 32, Seed: 7, Faults: 1,
			Time: 500, Area: 1 << 20, AT2: 2.5e11, Correct: &no,
			Health: HealthOf(nil), Error: "core: LEAFTOROOT selected 0 BPs"},
		{Alg: "cc", Network: "otx", Model: "custom", N: 8, Health: &Health{Reroutes: 3}},
	} {
		want, _ := json.Marshal(r)
		got, err := DecodeCompact(EncodeCompact(r))
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := json.Marshal(got); string(b) != string(want) {
			t.Fatalf("JSON after the round trip\n%s\nwant\n%s", b, want)
		}
	}
}
