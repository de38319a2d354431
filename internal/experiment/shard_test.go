package experiment

import (
	"testing"

	"repro/internal/workloads"
)

func shardTestConfig(t *testing.T) Config {
	t.Helper()
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 12 // shrink for test speed; mechanics are unchanged
	return Config{Workload: w, Experiments: 16, Seed: 3, HorizonMult: 2, InjectFrac: 0.8, Workers: 2}
}

// TestShardPartitionEquivalence is the local half of the distributed
// exactness proof: running a campaign as disjoint owner-range shards and
// concatenating their canonical append sequences in shard order must
// reproduce the monolithic run's sequence — indexes and record bytes —
// with and without the dedup/early-exit fast paths. internal/dist proves
// the same property end-to-end over HTTP (merged journal files cmp equal).
func TestShardPartitionEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name             string
		dedup, earlyExit bool
	}{
		{"plain", false, false},
		{"dedup-early-exit", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shardTestConfig(t)
			cfg.Dedup, cfg.EarlyExit = tc.dedup, tc.earlyExit
			g := PrepareGolden(cfg)

			mono := &seqSink{recs: map[int]Record{}}
			want, err := Resume(cfg, RunOptions{Golden: g, Sink: mono})
			if err != nil {
				t.Fatalf("monolithic run failed: %v", err)
			}
			if want.Completed != cfg.Experiments {
				t.Fatalf("monolithic run completed %d/%d", want.Completed, cfg.Experiments)
			}

			// Uneven shard boundaries on purpose; together they partition
			// [0, Experiments).
			shards := []Shard{{0, 5}, {5, 9}, {9, 16}}
			merged := &seqSink{recs: map[int]Record{}}
			completedSum := 0
			for _, sh := range shards {
				sink := &seqSink{recs: map[int]Record{}}
				sh := sh
				c, err := Resume(cfg, RunOptions{Golden: g, Sink: sink, Shard: &sh})
				if err != nil {
					t.Fatalf("shard [%d,%d) failed: %v", sh.Lo, sh.Hi, err)
				}
				completedSum += c.Completed
				if c.Completed != len(sink.order) {
					t.Fatalf("shard [%d,%d) completed %d records but appended %d",
						sh.Lo, sh.Hi, c.Completed, len(sink.order))
				}
				// Every record of this shard must be owned by it: the
				// record's own index, or its dedup owner for adoptees.
				for _, i := range sink.order {
					rec := sink.recs[i]
					owner := i
					if rec.AdoptedFrom >= 0 {
						owner = rec.AdoptedFrom
					}
					if owner < sh.Lo || owner >= sh.Hi {
						t.Fatalf("shard [%d,%d) emitted record %d with owner %d outside the shard",
							sh.Lo, sh.Hi, i, owner)
					}
					merged.order = append(merged.order, i)
					merged.recs[i] = rec
				}
			}
			if completedSum != cfg.Experiments {
				t.Fatalf("shards completed %d records in total, want %d", completedSum, cfg.Experiments)
			}
			assertSameAppends(t, tc.name, mono, merged)
		})
	}
}

// TestShardValidation: malformed shard ranges must be rejected loudly.
func TestShardValidation(t *testing.T) {
	cfg := shardTestConfig(t)
	cfg.Experiments = 4
	g := PrepareGolden(cfg)
	for _, sh := range []Shard{{-1, 2}, {0, 5}, {3, 3}, {3, 2}} {
		sh := sh
		if _, err := Resume(cfg, RunOptions{Golden: g, Shard: &sh}); err == nil {
			t.Fatalf("Resume accepted invalid shard [%d,%d)", sh.Lo, sh.Hi)
		}
	}
}
