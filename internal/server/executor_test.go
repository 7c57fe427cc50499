package server

import (
	"context"
	"testing"

	"repro/internal/mcache"
)

// BenchmarkExecutorRun times Executor.Run, the host cost of one served
// job past admission and the result cache, for each job class of the
// bench/ jobs_engine workload. Every iteration draws a fresh seed, as
// the workload's unique jobs do; machines come from a warm cache, as
// they do on a running server.
func BenchmarkExecutorRun(b *testing.B) {
	one := 1
	for _, c := range []struct {
		name string
		job  Job
	}{
		{"sort64", Job{Alg: "sort", N: 64}},
		{"cc64", Job{Alg: "cc", N: 64}},
		{"cc1024", Job{Alg: "cc", N: 1024}},
		{"sort32faults1", Job{Alg: "sort", N: 32, Faults: 1}},
		{"cc16events1", Job{Alg: "cc", N: 16, Events: &one}},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := NewExecutor(mcache.New())
			ctx := context.Background()
			run := func(seed uint64) {
				j := c.job
				j.Seed = seed
				if _, err := e.Run(ctx, &j); err != nil {
					b.Fatalf("seed %d: %v", seed, err)
				}
			}
			run(0) // build the machine and the shared tables once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(uint64(i + 1))
			}
		})
	}
}
