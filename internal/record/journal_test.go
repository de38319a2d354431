package record

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func journalTestConfig(t *testing.T) experiment.Config {
	t.Helper()
	w, err := workloads.ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	w.Iters = 12 // shrink for test speed
	return experiment.Config{Workload: w, Experiments: 5, Seed: 11, HorizonMult: 2, InjectFrac: 0.8, Workers: 2}
}

// journalRecordsEqual is the bit-exact record comparison (NaN-safe).
func journalRecordsEqual(a, b *experiment.Record) bool {
	f64 := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Injection == b.Injection &&
		a.Outcome == b.Outcome &&
		f64(a.FinalTrainAcc, b.FinalTrainAcc) &&
		f64(a.FinalTestAcc, b.FinalTestAcc) &&
		a.NonFiniteIter == b.NonFiniteIter &&
		f64(a.HistAtT, b.HistAtT) && f64(a.HistAtT1, b.HistAtT1) &&
		f64(a.MvarAtT, b.MvarAtT) && f64(a.MvarAtT1, b.MvarAtT1) &&
		a.DetectIter == b.DetectIter &&
		a.InjectedElems == b.InjectedElems &&
		a.Masked == b.Masked &&
		a.DeviceFault == b.DeviceFault &&
		a.QuarantineIter == b.QuarantineIter &&
		a.Quarantines == b.Quarantines &&
		a.Rejoins == b.Rejoins &&
		a.DegradedIters == b.DegradedIters &&
		a.CommRetries == b.CommRetries &&
		a.AdoptedFrom == b.AdoptedFrom &&
		a.EarlyExitIter == b.EarlyExitIter &&
		a.ConvergedIter == b.ConvergedIter &&
		a.RecoveryStrategy == b.RecoveryStrategy &&
		a.TimeToRecoverIters == b.TimeToRecoverIters &&
		f64(a.AccuracyCost, b.AccuracyCost) &&
		a.JITSnapshots == b.JITSnapshots &&
		a.Resizes == b.Resizes &&
		a.Readmits == b.Readmits
}

// interruptingSink journals every record and cancels the campaign after
// `after` appends.
type interruptingSink struct {
	*Journal
	mu     sync.Mutex
	after  int
	seen   int
	cancel context.CancelFunc
}

func (s *interruptingSink) Append(i int, rec experiment.Record) error {
	err := s.Journal.Append(i, rec)
	s.mu.Lock()
	s.seen++
	if s.seen >= s.after {
		s.cancel()
	}
	s.mu.Unlock()
	return err
}

// TestJournalResumeEquivalence is the end-to-end crash-safety proof
// through the real journal: interrupt a journaled campaign after K
// records, reopen the journal (full JSON round trip through disk), resume,
// and require byte-identical Records and Tally versus an uninterrupted
// run.
func TestJournalResumeEquivalence(t *testing.T) {
	cfg := journalTestConfig(t)
	g := experiment.PrepareGolden(cfg)
	digest := g.Ref().Digest()
	want := experiment.RunWithGolden(cfg, g)

	for _, k := range []int{1, 3, 5} {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		j, err := CreateJournal(path, cfg, digest)
		if err != nil {
			t.Fatal(err)
		}
		j.SetFlushEvery(2) // exercise fsync batching
		ctx, cancel := context.WithCancel(context.Background())
		sink := &interruptingSink{Journal: j, after: k, cancel: cancel}
		stats := telemetry.NewCampaignStats("resnet", cfg.Experiments, 2)
		j.SetStats(stats)
		_, runErr := experiment.Resume(cfg, experiment.RunOptions{
			Context: ctx, Golden: g, Sink: sink, Stats: stats,
		})
		cancel()
		if runErr != nil && !errors.Is(runErr, context.Canceled) {
			t.Fatalf("K=%d: interrupted run: %v", k, runErr)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if snap := stats.Snapshot(); snap.JournalAppends == 0 || snap.JournalFlushes == 0 {
			t.Fatalf("K=%d: telemetry missed journal activity: %+v", k, snap)
		}

		j2, prior, err := OpenJournal(path, cfg, digest)
		if err != nil {
			t.Fatalf("K=%d: OpenJournal: %v", k, err)
		}
		if len(prior) < k {
			t.Fatalf("K=%d: journal replayed %d records, want >= %d", k, len(prior), k)
		}
		resumed, err := experiment.Resume(cfg, experiment.RunOptions{
			Golden: g, Prior: prior, Sink: j2,
		})
		if err != nil {
			t.Fatalf("K=%d: resume: %v", k, err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if len(resumed.Records) != len(want.Records) {
			t.Fatalf("K=%d: %d records, want %d", k, len(resumed.Records), len(want.Records))
		}
		for i := range want.Records {
			if !journalRecordsEqual(&want.Records[i], &resumed.Records[i]) {
				t.Fatalf("K=%d: record %d differs after journal round trip:\nwant %+v\ngot  %+v",
					k, i, want.Records[i], resumed.Records[i])
			}
		}
		if want.Tally != resumed.Tally {
			t.Fatalf("K=%d: tally differs: want %+v got %+v", k, want.Tally, resumed.Tally)
		}

		// The finished journal now covers the whole campaign: a further
		// resume replays everything and runs nothing.
		_, full, err := OpenJournal(path, cfg, digest)
		if err != nil {
			t.Fatalf("K=%d: reopening finished journal: %v", k, err)
		}
		if len(full) != cfg.Experiments {
			t.Fatalf("K=%d: finished journal holds %d records, want %d", k, len(full), cfg.Experiments)
		}
	}
}

// TestJournalBytesSchedulingInvariant is the on-disk half of the
// scheduling exactness proof: the journal file a campaign writes must be
// byte-for-byte identical to the cold-start campaign's (one worker, no
// forking, so dispatch is index order) across worker counts and with or
// without snapshot forking, which is what regroups the dispatch order. The
// header binds no execution knobs and the campaign releases appends through
// a canonical sequence, so any byte difference here is a determinism
// regression.
func TestJournalBytesSchedulingInvariant(t *testing.T) {
	cfg := journalTestConfig(t)
	digest := experiment.PrepareGolden(cfg).Ref().Digest()

	writeJournal := func(stride, workers int) []byte {
		t.Helper()
		c := cfg
		c.SnapshotStride = stride
		c.Workers = workers
		path := filepath.Join(t.TempDir(), "run.jsonl")
		j, err := CreateJournal(path, c, digest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := experiment.Resume(c, experiment.RunOptions{Sink: j}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	want := writeJournal(-1, 1) // cold start: the canonical order
	for _, v := range []struct {
		stride  int
		workers int
	}{{0, 1}, {0, 2}, {0, 3}, {-1, 2}} {
		got := writeJournal(v.stride, v.workers)
		if !bytes.Equal(got, want) {
			t.Fatalf("journal bytes differ for stride=%d workers=%d (%d vs %d bytes)",
				v.stride, v.workers, len(got), len(want))
		}
	}
}

// completeJournal builds one finished journaled campaign and returns the
// journal path plus the matching (cfg, digest).
func completeJournal(t *testing.T) (string, experiment.Config, string) {
	t.Helper()
	cfg := journalTestConfig(t)
	g := experiment.PrepareGolden(cfg)
	digest := g.Ref().Digest()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := CreateJournal(path, cfg, digest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.Resume(cfg, experiment.RunOptions{Golden: g, Sink: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, cfg, digest
}

// mutateJournal copies the journal through fn into a fresh file.
func mutateJournal(t *testing.T, path string, fn func([]byte) []byte) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "mutated.jsonl")
	if err := os.WriteFile(out, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJournalCorruption: every way a journal can lie about itself must
// fail loudly with an actionable error — never resume silently.
func TestJournalCorruption(t *testing.T) {
	path, cfg, digest := completeJournal(t)

	t.Run("truncated last line is a repairable torn tail", func(t *testing.T) {
		torn := mutateJournal(t, path, func(raw []byte) []byte {
			return raw[:len(raw)-7] // chop mid-record, past the last newline
		})
		_, _, err := OpenJournal(torn, cfg, digest)
		if !IsTornTail(err) {
			t.Fatalf("want TornTailError, got %v", err)
		}
		if !strings.Contains(err.Error(), "repair") {
			t.Fatalf("torn-tail error is not actionable: %v", err)
		}
		removed, err := RepairJournal(torn)
		if err != nil || removed == 0 {
			t.Fatalf("RepairJournal removed %d bytes, err %v", removed, err)
		}
		_, prior, err := OpenJournal(torn, cfg, digest)
		if err != nil {
			t.Fatalf("repaired journal still unreadable: %v", err)
		}
		if len(prior) != cfg.Experiments-1 {
			t.Fatalf("repaired journal holds %d records, want %d", len(prior), cfg.Experiments-1)
		}
		// Repair on a healthy journal is a no-op.
		if n, err := RepairJournal(path); n != 0 || err != nil {
			t.Fatalf("RepairJournal on healthy journal: removed %d, err %v", n, err)
		}
	})

	t.Run("seed mismatch", func(t *testing.T) {
		other := cfg
		other.Seed++
		_, _, err := OpenJournal(path, other, digest)
		if err == nil || !strings.Contains(err.Error(), "seed") {
			t.Fatalf("want seed-mismatch error, got %v", err)
		}
	})

	t.Run("config fingerprint mismatch", func(t *testing.T) {
		other := cfg
		other.HorizonMult = 3
		_, _, err := OpenJournal(path, other, digest)
		if err == nil || !strings.Contains(err.Error(), "horizon_mult: journal=2, run=3") {
			t.Fatalf("want an error naming the differing field with both values, got %v", err)
		}
	})

	t.Run("journal from a different binary", func(t *testing.T) {
		_, _, err := OpenJournal(path, cfg, "0123456789abcdef")
		if err == nil || !strings.Contains(err.Error(), "different binary") {
			t.Fatalf("want different-binary error, got %v", err)
		}
	})

	t.Run("future container version", func(t *testing.T) {
		bumped := mutateJournal(t, path, func(raw []byte) []byte {
			lines := strings.SplitN(string(raw), "\n", 2)
			var hdr map[string]any
			if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
				t.Fatal(err)
			}
			hdr["version"] = journalVersion + 1
			out, err := json.Marshal(hdr)
			if err != nil {
				t.Fatal(err)
			}
			return []byte(string(out) + "\n" + lines[1])
		})
		_, _, err := OpenJournal(bumped, cfg, digest)
		if err == nil || !strings.Contains(err.Error(), "unsupported journal") {
			t.Fatalf("want version-mismatch error, got %v", err)
		}
	})

	t.Run("corrupt interior line", func(t *testing.T) {
		corrupt := mutateJournal(t, path, func(raw []byte) []byte {
			lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			lines[1] = `{"i":0,"record":` // valid newline, garbage JSON
			return []byte(strings.Join(lines, "\n") + "\n")
		})
		_, _, err := OpenJournal(corrupt, cfg, digest)
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("want corruption error, got %v", err)
		}
	})

	t.Run("duplicate record index", func(t *testing.T) {
		dup := mutateJournal(t, path, func(raw []byte) []byte {
			lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			return []byte(strings.Join(append(lines, lines[1]), "\n") + "\n")
		})
		_, _, err := OpenJournal(dup, cfg, digest)
		if err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("want duplicate error, got %v", err)
		}
	})

	t.Run("record index out of range", func(t *testing.T) {
		narrower := cfg
		narrower.Experiments = 1
		// Different Experiments also changes the header; craft a journal
		// whose header says 1 experiment but which carries index 3.
		forged := mutateJournal(t, path, func(raw []byte) []byte {
			lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			var hdr map[string]any
			if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
				t.Fatal(err)
			}
			hdr["spec"] = narrower.Spec()
			out, err := json.Marshal(hdr)
			if err != nil {
				t.Fatal(err)
			}
			keep := []string{string(out)}
			for _, l := range lines[1:] {
				if strings.Contains(l, `"i":3`) {
					keep = append(keep, l)
				}
			}
			return []byte(strings.Join(keep, "\n") + "\n")
		})
		_, _, err := OpenJournal(forged, narrower, digest)
		if err == nil || !strings.Contains(err.Error(), "outside campaign range") {
			t.Fatalf("want out-of-range error, got %v", err)
		}
	})

	t.Run("empty journal", func(t *testing.T) {
		empty := filepath.Join(t.TempDir(), "empty.jsonl")
		if err := os.WriteFile(empty, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenJournal(empty, cfg, digest)
		if err == nil || !strings.Contains(err.Error(), "empty") {
			t.Fatalf("want empty-journal error, got %v", err)
		}
	})

	t.Run("create refuses to clobber", func(t *testing.T) {
		if _, err := CreateJournal(path, cfg, digest); err == nil {
			t.Fatal("CreateJournal overwrote an existing journal")
		}
	})
}

// TestJournalRejectsOldRecordSchemas: a journal this binary does not write
// — a v1 header as the parent of the Spec change wrote it, another tool's
// format, another release's record schema (older lines lack fields the live
// record encodes with -1 sentinels and would decode them as 0) — is refused
// with the one unsupported-journal message, which says what to do.
func TestJournalRejectsOldRecordSchemas(t *testing.T) {
	path, cfg, digest := completeJournal(t)
	v2, err := json.Marshal(headerFor(cfg, digest))
	if err != nil {
		t.Fatal(err)
	}
	for name, header := range map[string]string{
		"parent-written v1 header": `{"format":"fi-journal","version":1,"record_schema":"campaign-record-v4","workload":"resnet","experiments":5,"seed":11,"config_hash":"eb70388a2927f935","golden_digest":"` + digest + `"}`,
		"foreign format":           strings.Replace(string(v2), journalFormat, "other-journal", 1),
		"foreign record schema":    strings.Replace(string(v2), journalRecordSchema, "campaign-record-v3", 1),
	} {
		t.Run(name, func(t *testing.T) {
			forged := mutateJournal(t, path, func(raw []byte) []byte {
				return []byte(header + "\n" + strings.SplitN(string(raw), "\n", 2)[1])
			})
			_, _, err := OpenJournal(forged, cfg, digest)
			if err == nil || !strings.Contains(err.Error(), "unsupported journal") ||
				!strings.Contains(err.Error(), "re-run the campaign from scratch") {
				t.Fatalf("journal not refused with the unsupported-journal message: %v", err)
			}
		})
	}
}

// TestCampaignRecordRoundTrip: the wire encoding must round-trip records
// bit for bit, including the uint64 RNG seeds and float extremes.
func TestCampaignRecordRoundTrip(t *testing.T) {
	path, cfg, digest := completeJournal(t)
	_, prior, err := OpenJournal(path, cfg, digest)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range prior {
		enc := EncodeCampaignRecord(&rec)
		back, err := DecodeCampaignRecord(enc)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !journalRecordsEqual(&rec, &back) {
			t.Fatalf("record %d does not round-trip:\nin  %+v\nout %+v", i, rec, back)
		}
	}
}

// TestNonFiniteRecordRoundTrip: a fault that blows up the gradient history
// or moving variance leaves ±Inf/NaN in a record — values encoding/json
// rejects. The journal must still persist and replay such records exactly
// (they marshal as "+Inf"/"-Inf"/"NaN" markers via record.Float).
func TestNonFiniteRecordRoundTrip(t *testing.T) {
	path, cfg, digest := completeJournal(t)
	_, prior, err := OpenJournal(path, cfg, digest)
	if err != nil {
		t.Fatal(err)
	}
	var rec experiment.Record
	for _, r := range prior {
		rec = r
		break
	}
	rec.HistAtT = math.Inf(1)
	rec.HistAtT1 = math.Inf(-1)
	rec.MvarAtT = math.NaN()
	rec.FinalTestAcc = math.Inf(1)

	line, err := json.Marshal(journalLine{Index: 0, Record: EncodeCampaignRecord(&rec)})
	if err != nil {
		t.Fatalf("encoding a non-finite record must not fail: %v", err)
	}
	var back journalLine
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCampaignRecord(back.Record)
	if err != nil {
		t.Fatal(err)
	}
	if !journalRecordsEqual(&rec, &got) {
		t.Fatalf("non-finite record does not round-trip:\nin  %+v\nout %+v", rec, got)
	}
}
