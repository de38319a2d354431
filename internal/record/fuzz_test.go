package record

// Native fuzz targets for the journal reader and repairer: the journal is
// the one file the campaign tool parses that a crash can leave in an
// arbitrary state (torn tail, interleaved garbage, truncated header), so
// its parser must never panic and the repairer must converge — any byte
// soup either parses, fails with an error, or repairs to something that no
// longer reports a torn tail. ci.sh runs both targets as short fuzz smokes.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
)

// fuzzHeader is the header fuzz inputs are validated against. A fixed
// literal (rather than a live campaign config) keeps the target fast and
// hermetic; the binding checks only compare Spec fields and strings.
func fuzzHeader() journalHeader {
	return journalHeader{
		Format:       journalFormat,
		Version:      journalVersion,
		RecordSchema: journalRecordSchema,
		Spec: experiment.Spec{Workload: "resnet", Iters: 12, Devices: 8, PerDeviceBatch: 2,
			Experiments: 8, Seed: 11, HorizonMult: 1.5, InjectFrac: 0.8, Fault: "ff"},
		GoldenDigest: "deadbeefdeadbeef",
	}
}

// fuzzSeedCorpus builds representative journal states: valid, torn,
// interleaved, and corrupt.
func fuzzSeedCorpus(t interface{ Fatal(...any) }) [][]byte {
	hdr, err := json.Marshal(fuzzHeader())
	if err != nil {
		t.Fatal(err)
	}
	recLine := `{"i":3,"record":{"injection":{"kind":"g1","pass":"forward","seed_state":1,"seed_stream":2},"outcome":"Benign","final_train_acc":0.5,"final_test_acc":"NaN","non_finite_iter":-1,"detect_iter":-1,"quarantine_iter":-1,"masked":true}}`
	dfLine := `{"i":4,"record":{"injection":{"kind":"datapath","pass":"forward"},"outcome":"DegradedComplete","non_finite_iter":-1,"detect_iter":6,"quarantine_iter":6,"quarantines":1,"device_fault":{"kind":"stuck-at","device":3,"iteration":6,"bit_pos":30}}}`
	h := string(hdr)
	return [][]byte{
		[]byte(h + "\n"),                                // header only
		[]byte(h + "\n" + recLine + "\n"),               // one FF record
		[]byte(h + "\n" + dfLine + "\n"),                // one device-fault record
		[]byte(h + "\n" + recLine + "\n" + recLine),     // torn tail (no trailing newline)
		[]byte(h + "\n" + recLine[:40] + "\n"),          // corrupt interior line
		[]byte(h + "\n" + "\x00\xff garbage\n"),         // binary garbage line
		[]byte(recLine + "\n"),                          // record where the header should be
		[]byte("{}\n"),                                  // empty-object header
		{},                                              // empty file
		[]byte(h + "\n" + recLine + "\n" + recLine[:7]), // torn mid-record
	}
}

// FuzzParseJournal: parseJournal must never panic on arbitrary bytes —
// every input either yields records or a descriptive error.
func FuzzParseJournal(f *testing.F) {
	for _, seed := range fuzzSeedCorpus(f) {
		f.Add(seed)
	}
	want := fuzzHeader()
	f.Fuzz(func(t *testing.T, raw []byte) {
		done, err := parseJournal("fuzz.jsonl", raw, want)
		if err == nil {
			// Parsed journals must respect the campaign range contract.
			for i := range done {
				if i < 0 || i >= want.Spec.Experiments {
					t.Fatalf("parseJournal accepted out-of-range index %d", i)
				}
			}
		}
	})
}

// FuzzRepairJournal: repairing any byte soup must leave a file that no
// longer reports a torn tail, and repairing twice must be a no-op (the
// repairer converges).
func FuzzRepairJournal(f *testing.F) {
	for _, seed := range fuzzSeedCorpus(f) {
		f.Add(seed)
	}
	want := fuzzHeader()
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RepairJournal(path); err != nil {
			t.Fatalf("RepairJournal errored on writable file: %v", err)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(repaired) > 0 && repaired[len(repaired)-1] != '\n' {
			t.Fatalf("repair left an unterminated final line (%d bytes)", len(repaired))
		}
		if _, err := parseJournal(path, repaired, want); errors.As(err, new(*TornTailError)) {
			t.Fatalf("repaired journal still reports a torn tail: %v", err)
		}
		if n, err := RepairJournal(path); n != 0 || err != nil {
			t.Fatalf("second repair not a no-op: removed %d, err %v", n, err)
		}
	})
}
