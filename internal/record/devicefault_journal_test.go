package record

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/rng"
)

// TestDeviceFaultRecordRoundTrip: the v2 wire form must round-trip the
// device-fault fields bit for bit, including the uint64 corruption seeds
// and the -1 sentinel of QuarantineIter.
func TestDeviceFaultRecordRoundTrip(t *testing.T) {
	recs := []experiment.Record{
		{
			DeviceFault: fault.DeviceFault{
				Kind: fault.DeviceLinkSDC, Device: 5, Iteration: 9, BitPos: 30,
				Lane: 7, Flips: 3, DelayTicks: 120, RepairIter: 14,
				Seed: rng.Seed{State: math.MaxUint64, Stream: math.MaxUint64 >> 1},
			},
			NonFiniteIter: -1, DetectIter: 9, QuarantineIter: 9,
			Quarantines: 2, Rejoins: 1, DegradedIters: 17, CommRetries: 4,
			InjectedElems: 33,
		},
		// An FF record must stay device-fault-free (nil wire pointer) and
		// keep its QuarantineIter sentinel.
		{NonFiniteIter: -1, DetectIter: -1, QuarantineIter: -1, Masked: true},
	}
	for i := range recs {
		enc := EncodeCampaignRecord(&recs[i])
		if recs[i].DeviceFault.Kind == fault.DeviceFaultNone && enc.DeviceFault != nil {
			t.Fatalf("record %d: FF record encoded a device-fault object", i)
		}
		back, err := DecodeCampaignRecord(enc)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !journalRecordsEqual(&recs[i], &back) {
			t.Fatalf("record %d does not round-trip:\nin  %+v\nout %+v", i, recs[i], back)
		}
	}
	if _, err := DecodeDeviceFault(DeviceFaultJSON{Kind: "bogus"}); err == nil {
		t.Fatal("unknown device-fault kind decoded without error")
	}
}

// TestDeviceFaultJournalResume: end-to-end crash-safety through the real
// journal for the device-fault flavor — journal a mitigated campaign,
// reopen it with only a prefix of the records, resume, and require
// byte-identical records versus the uninterrupted run.
func TestDeviceFaultJournalResume(t *testing.T) {
	cfg := journalTestConfig(t)
	cfg.DeviceFaults = true
	cfg.Quarantine = true
	g := experiment.PrepareGolden(cfg)
	digest := g.Ref().Digest()
	want := experiment.RunWithGolden(cfg, g)

	path := filepath.Join(t.TempDir(), "df.jsonl")
	j, err := CreateJournal(path, cfg, digest)
	if err != nil {
		t.Fatal(err)
	}
	// Journal only the first 2 records, as if the campaign died there.
	for i := 0; i < 2; i++ {
		if err := j.Append(i, want.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, prior, err := OpenJournal(path, cfg, digest)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 2 {
		t.Fatalf("replayed %d records, want 2", len(prior))
	}
	resumed, err := experiment.Resume(cfg, experiment.RunOptions{Golden: g, Prior: prior, Sink: j2})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range want.Records {
		if !journalRecordsEqual(&want.Records[i], &resumed.Records[i]) {
			t.Fatalf("resumed record %d differs:\nwant %+v\ngot  %+v",
				i, want.Records[i], resumed.Records[i])
		}
	}
}
