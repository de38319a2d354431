package record

// Write-ahead campaign journal: crash-safe JSONL persistence of completed
// FI experiments, so a long campaign (the paper runs tens of thousands of
// injections per workload, Sec 3.3) survives crashes, OOM kills, and
// SIGINT without losing finished work.
//
// Layout: line 1 is a JSON header binding the journal to one exact
// campaign — its resolved identity (experiment.Spec, embedded whole) and
// the golden reference run's trace digest (which measures the binary's
// numeric behavior: any kernel/model/data change alters it). Each
// subsequent line is one completed record, `{"i":<index>,"record":{...}}`,
// appended as the worker pool finishes it and fsynced in batches.
//
// Resume contract: OpenJournal validates every header binding and replays
// the record lines into a map the campaign runner adopts verbatim
// (experiment.Resume). Because records round-trip exactly — finite floats
// are encoded with Go's shortest-round-trip formatting, non-finite ones as
// "+Inf"/"-Inf"/"NaN" markers (record.Float), integers verbatim —
// a resumed campaign is byte-identical to an uninterrupted one
// (TestJournalResumeEquivalence). Any mismatch (different spec, different
// binary, torn or corrupt lines) fails loudly with an
// actionable error instead of silently mixing divergent trajectories; a
// torn final line — the signature of a hard crash mid-append — is
// distinguished as *TornTailError and can be truncated away with
// RepairJournal.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/outcome"
	"repro/internal/telemetry"
)

const (
	// journalFormat / journalVersion identify the container layout; v2
	// embeds the campaign's experiment.Spec in the header.
	journalFormat  = "fi-journal"
	journalVersion = 2
	// journalRecordSchema names the record-line field set; bump when
	// CampaignRecordJSON changes incompatibly. Lines of an older schema
	// lack fields the live record encodes with -1 sentinels and would
	// decode them as 0, so a journal of any other schema is refused.
	journalRecordSchema = "campaign-record-v4"
	// defaultFlushEvery is the fsync batch size: the journal makes work
	// durable every this many appended records (and on Flush/Close).
	defaultFlushEvery = 16
)

// journalHeader is line 1 of a journal file.
type journalHeader struct {
	Format       string          `json:"format"`
	Version      int             `json:"version"`
	RecordSchema string          `json:"record_schema"`
	Spec         experiment.Spec `json:"spec"`
	GoldenDigest string          `json:"golden_digest"`
	// Shard marks a per-shard journal of a distributed campaign
	// (internal/dist): the owner-index range "lo-hi" this file covers
	// ("" for monolithic journals, including the merged output of
	// MergeShardJournals — which is how a merged journal's header stays
	// byte-identical to a single-process run's). See shard.go.
	Shard string `json:"shard,omitempty"`
}

// journalLine is one completed experiment.
type journalLine struct {
	Index  int                `json:"i"`
	Record CampaignRecordJSON `json:"record"`
}

// TornTailError reports a journal whose final line is incomplete — the
// normal aftermath of a crash or power loss mid-append. ValidSize is the
// byte offset of the last complete line; everything past it is garbage.
type TornTailError struct {
	Path      string
	ValidSize int64
	TotalSize int64
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("record: journal %s has a torn final line (%d trailing bytes after offset %d, likely a crash mid-append); run `repro campaign -repair-journal` or record.RepairJournal to truncate it, then resume",
		e.Path, e.TotalSize-e.ValidSize, e.ValidSize)
}

// Journal is an append-only, fsync-batched campaign record log. It
// implements experiment.Sink; Append is safe for concurrent use by the
// campaign worker pool.
type Journal struct {
	mu         sync.Mutex
	f          *os.File
	bw         *bufio.Writer
	path       string
	pending    int
	flushEvery int
	stats      *telemetry.CampaignStats
}

// SetStats attaches a telemetry ledger; subsequent appends and fsync
// batches are counted on it.
func (j *Journal) SetStats(s *telemetry.CampaignStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stats = s
}

// SetFlushEvery overrides the fsync batch size (records per fsync;
// minimum 1). Smaller batches lose less work to a hard crash, larger
// batches cost fewer fsyncs.
func (j *Journal) SetFlushEvery(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < 1 {
		n = 1
	}
	j.flushEvery = n
}

// headerFor derives the header binding a journal to cfg and the golden
// reference run's trace digest.
func headerFor(cfg experiment.Config, goldenDigest string) journalHeader {
	return journalHeader{
		Format:       journalFormat,
		Version:      journalVersion,
		RecordSchema: journalRecordSchema,
		Spec:         cfg.Spec(),
		GoldenDigest: goldenDigest,
	}
}

// CreateJournal creates a new journal at path for the campaign described
// by cfg, whose golden reference trace hashes to goldenDigest
// (train.Trace.Digest of experiment.Golden.Ref()). The header is written
// and fsynced before returning, so even an immediately-killed campaign
// leaves a resumable (empty) journal. Fails if path already exists —
// continuing an existing journal goes through OpenJournal.
func CreateJournal(path string, cfg experiment.Config, goldenDigest string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("record: creating journal: %w", err)
	}
	j := &Journal{f: f, bw: bufio.NewWriter(f), path: path, flushEvery: defaultFlushEvery}
	if err := j.writeHeader(headerFor(cfg, goldenDigest)); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.flushLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// writeHeader marshals hdr and buffers it as line 1 (callers flush).
func (j *Journal) writeHeader(hdr journalHeader) error {
	b, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("record: encoding journal header: %w", err)
	}
	j.bw.Write(b)
	if err := j.bw.WriteByte('\n'); err != nil {
		return fmt.Errorf("record: writing journal header to %s: %w", j.path, err)
	}
	return nil
}

// OpenJournal opens an existing journal for resumption: it validates that
// the header matches cfg and goldenDigest, replays every record line, and
// reopens the file for appending. The returned map holds the completed
// records by experiment index, ready for experiment.RunOptions.Prior.
//
// Every mismatch is a loud error: a header this binary does not write
// (unsupported journal), a different campaign (each differing Spec field
// named with both values), wrong golden digest (journal from a different
// binary — the numeric kernels, model definitions, or datasets changed, so
// the golden trajectory this journal's records forked from no longer
// exists), torn final line (*TornTailError, repairable), or corrupt/
// duplicate/out-of-range record lines.
func OpenJournal(path string, cfg experiment.Config, goldenDigest string) (*Journal, map[int]experiment.Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("record: opening journal: %w", err)
	}
	done, err := parseJournal(path, raw, headerFor(cfg, goldenDigest))
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("record: reopening journal for append: %w", err)
	}
	j := &Journal{f: f, bw: bufio.NewWriter(f), path: path, flushEvery: defaultFlushEvery}
	return j, done, nil
}

// parseJournal validates raw journal bytes against the expected header and
// replays the record lines.
func parseJournal(path string, raw []byte, want journalHeader) (map[int]experiment.Record, error) {
	recLines, err := journalRecordLines(path, raw, want)
	if err != nil {
		return nil, err
	}
	return decodeRecordLines(path, recLines, want.Spec.Experiments)
}

// journalRecordLines validates the header of raw journal bytes and returns
// the raw record lines that follow it, verbatim and in file order.
func journalRecordLines(path string, raw []byte, want journalHeader) ([]string, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("record: journal %s is empty (not even a header); delete it and start fresh", path)
	}
	lines, err := splitJournalLines(path, raw)
	if err != nil {
		return nil, err
	}
	var got journalHeader
	dec := json.NewDecoder(strings.NewReader(lines[0]))
	dec.DisallowUnknownFields() // a field this binary does not know may change record bytes
	if err := dec.Decode(&got); err != nil || dec.More() || got.Format != want.Format ||
		got.Version != want.Version || got.RecordSchema != want.RecordSchema {
		return nil, fmt.Errorf("record: unsupported journal %s: this binary reads %s v%d with record schema %s, and the file's first line is not such a header (it reads as %q v%d, %q) — it was written by another tool or release; re-run the campaign from scratch",
			path, want.Format, want.Version, want.RecordSchema, got.Format, got.Version, got.RecordSchema)
	}
	if diff := specDiff(got.Spec, want.Spec); len(diff) > 0 {
		return nil, fmt.Errorf("record: journal %s was written for a different campaign — %s; resume with the original parameters or start a new journal",
			path, strings.Join(diff, "; "))
	}
	if got.GoldenDigest != want.GoldenDigest {
		return nil, fmt.Errorf("record: journal %s golden-run digest %s does not match this binary's %s — the journal was written by a different binary (numeric kernels, model definitions, or datasets changed), so its records forked from a trajectory this binary cannot reproduce; re-run the campaign from scratch",
			path, got.GoldenDigest, want.GoldenDigest)
	}
	if got.Shard != want.Shard {
		if want.Shard == "" {
			return nil, fmt.Errorf("record: journal %s is a per-shard journal covering owner range %s of a distributed campaign, not a whole-campaign journal — merge the campaign's shards (record.MergeShardJournals / campaignd) instead of resuming from one of them",
				path, got.Shard)
		}
		return nil, fmt.Errorf("record: journal %s covers shard %q, expected shard %q — the file belongs to a different shard of the campaign; point at the matching shard journal",
			path, got.Shard, want.Shard)
	}
	return lines[1:], nil
}

// specDiff names every field two campaign identities differ in, with both
// values, by the field's JSON name.
func specDiff(journal, run experiment.Spec) []string {
	var diff []string
	j, r := reflect.ValueOf(journal), reflect.ValueOf(run)
	for i := 0; i < j.NumField(); i++ {
		if jv, rv := j.Field(i).Interface(), r.Field(i).Interface(); !reflect.DeepEqual(jv, rv) {
			name, _, _ := strings.Cut(j.Type().Field(i).Tag.Get("json"), ",")
			diff = append(diff, fmt.Sprintf("%s: journal=%v, run=%v", name, jv, rv))
		}
	}
	return diff
}

// decodeRecordLines replays raw record lines into completed records by
// experiment index, rejecting corrupt, out-of-range, and duplicate lines.
// path labels errors ("" for lines that never lived in a file, e.g. a
// shard upload arriving at the campaignd coordinator).
func decodeRecordLines(path string, lines []string, experiments int) (map[int]experiment.Record, error) {
	src, skew := "journal "+path, 2 // +2: 1-based, after the header line
	if path == "" {
		src, skew = "record lines", 1
	}
	done := make(map[int]experiment.Record, len(lines))
	for ln, line := range lines {
		var jl journalLine
		if err := json.Unmarshal([]byte(line), &jl); err != nil {
			return nil, fmt.Errorf("record: %s line %d is corrupt (%v) — the file was modified outside the campaign tool; restore it from backup or start fresh", src, ln+skew, err)
		}
		if jl.Index < 0 || jl.Index >= experiments {
			return nil, fmt.Errorf("record: %s line %d: record index %d outside campaign range [0,%d)", src, ln+skew, jl.Index, experiments)
		}
		if _, dup := done[jl.Index]; dup {
			return nil, fmt.Errorf("record: %s line %d: duplicate record for experiment %d — the journal was appended to by two concurrent campaigns; start fresh", src, ln+skew, jl.Index)
		}
		rec, err := DecodeCampaignRecord(jl.Record)
		if err != nil {
			return nil, fmt.Errorf("record: %s line %d: %w", src, ln+skew, err)
		}
		done[jl.Index] = rec
	}
	return done, nil
}

// DecodeJournalLines replays raw journal record lines (as produced by
// EncodeJournalLine / LineBuffer, without the header) into completed
// records by experiment index. Corrupt, out-of-range, and duplicate lines
// are rejected loudly. The campaignd coordinator validates every ingested
// shard upload through this before accepting it.
func DecodeJournalLines(lines []string, experiments int) (map[int]experiment.Record, error) {
	return decodeRecordLines("", lines, experiments)
}

// splitJournalLines splits raw into newline-terminated lines, reporting a
// torn tail when the final line is unterminated (crash mid-append).
func splitJournalLines(path string, raw []byte) ([]string, error) {
	if raw[len(raw)-1] != '\n' {
		valid := int64(strings.LastIndexByte(string(raw), '\n') + 1)
		return nil, &TornTailError{Path: path, ValidSize: valid, TotalSize: int64(len(raw))}
	}
	var lines []string
	for _, l := range strings.Split(string(raw), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("record: journal %s contains no header line; delete it and start fresh", path)
	}
	return lines, nil
}

// RepairJournal truncates a torn final line (see TornTailError), returning
// the number of bytes removed. A journal without a torn tail is left
// untouched (returns 0). The lost partial record simply re-runs on resume.
func RepairJournal(path string) (removed int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("record: repairing journal: %w", err)
	}
	if len(raw) == 0 || raw[len(raw)-1] == '\n' {
		return 0, nil
	}
	valid := int64(strings.LastIndexByte(string(raw), '\n') + 1)
	if err := os.Truncate(path, valid); err != nil {
		return 0, fmt.Errorf("record: truncating torn journal tail: %w", err)
	}
	return int64(len(raw)) - valid, nil
}

// EncodeJournalLine renders one completed record as the exact journal line
// bytes Journal.Append writes, without the trailing newline. Shared with
// LineBuffer so a distributed worker's in-memory shard lines are
// byte-identical to what a local journal would have appended.
func EncodeJournalLine(idx int, rec experiment.Record) ([]byte, error) {
	line, err := json.Marshal(journalLine{Index: idx, Record: EncodeCampaignRecord(&rec)})
	if err != nil {
		return nil, fmt.Errorf("record: encoding journal record %d: %w", idx, err)
	}
	return line, nil
}

// Append writes one completed record. Safe for concurrent use; the write
// becomes durable at the next fsync batch boundary, Flush, or Close.
func (j *Journal) Append(idx int, rec experiment.Record) error {
	line, err := EncodeJournalLine(idx, rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("record: append to closed journal %s", j.path)
	}
	j.bw.Write(line)
	if err := j.bw.WriteByte('\n'); err != nil {
		return fmt.Errorf("record: appending to journal %s: %w", j.path, err)
	}
	j.stats.JournalAppend()
	j.pending++
	if j.pending >= j.flushEvery {
		return j.flushLocked()
	}
	return nil
}

// Flush forces buffered records to disk (write + fsync).
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.flushLocked()
}

func (j *Journal) flushLocked() error {
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("record: flushing journal %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("record: fsyncing journal %s: %w", j.path, err)
	}
	j.pending = 0
	j.stats.JournalFlush()
	return nil
}

// Close flushes and closes the journal. The Journal must not be used
// afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	flushErr := j.flushLocked()
	closeErr := j.f.Close()
	j.f = nil
	if flushErr != nil {
		return flushErr
	}
	if closeErr != nil {
		return fmt.Errorf("record: closing journal %s: %w", j.path, closeErr)
	}
	return nil
}

// statically assert the Sink contract.
var _ experiment.Sink = (*Journal)(nil)

// EncodeCampaignRecord converts one experiment record to its wire form
// (shared by campaign archives and the journal).
func EncodeCampaignRecord(r *experiment.Record) CampaignRecordJSON {
	return CampaignRecordJSON{
		Injection:     EncodeInjection(r.Injection),
		Outcome:       r.Outcome.String(),
		FinalTrainAcc: Float(r.FinalTrainAcc),
		FinalTestAcc:  Float(r.FinalTestAcc),
		NonFiniteIter: r.NonFiniteIter,
		HistAtT:       Float(r.HistAtT), HistAtT1: Float(r.HistAtT1),
		MvarAtT: Float(r.MvarAtT), MvarAtT1: Float(r.MvarAtT1),
		DetectIter:     r.DetectIter,
		InjectedElems:  r.InjectedElems,
		Masked:         r.Masked,
		DeviceFault:    encodeDeviceFaultPtr(r.DeviceFault),
		QuarantineIter: r.QuarantineIter,
		Quarantines:    r.Quarantines,
		Rejoins:        r.Rejoins,
		DegradedIters:  r.DegradedIters,
		CommRetries:    r.CommRetries,
		AdoptedFrom:    r.AdoptedFrom,
		EarlyExitIter:  r.EarlyExitIter,
		ConvergedIter:  r.ConvergedIter,

		RecoveryStrategy:   r.RecoveryStrategy,
		TimeToRecoverIters: r.TimeToRecoverIters,
		AccuracyCost:       Float(r.AccuracyCost),
		JITSnapshots:       r.JITSnapshots,
		Resizes:            r.Resizes,
		Readmits:           r.Readmits,
	}
}

// encodeDeviceFaultPtr keeps FF-record lines free of the device-fault
// object: only records carrying a real fault encode one.
func encodeDeviceFaultPtr(f fault.DeviceFault) *DeviceFaultJSON {
	if f.Kind == fault.DeviceFaultNone {
		return nil
	}
	j := EncodeDeviceFault(f)
	return &j
}

// DecodeCampaignRecord converts the wire form back to a live record. The
// round trip is exact: JSON numbers are written with shortest-round-trip
// float formatting and parsed back to the identical bit patterns, which is
// what lets a resumed campaign be byte-identical to an uninterrupted one.
func DecodeCampaignRecord(j CampaignRecordJSON) (experiment.Record, error) {
	inj, err := DecodeInjection(j.Injection)
	if err != nil {
		return experiment.Record{}, err
	}
	o, err := outcomeFromName(j.Outcome)
	if err != nil {
		return experiment.Record{}, err
	}
	rec := experiment.Record{
		Injection:     inj,
		Outcome:       o,
		FinalTrainAcc: float64(j.FinalTrainAcc),
		FinalTestAcc:  float64(j.FinalTestAcc),
		NonFiniteIter: j.NonFiniteIter,
		HistAtT:       float64(j.HistAtT), HistAtT1: float64(j.HistAtT1),
		MvarAtT: float64(j.MvarAtT), MvarAtT1: float64(j.MvarAtT1),
		DetectIter:     j.DetectIter,
		InjectedElems:  j.InjectedElems,
		Masked:         j.Masked,
		QuarantineIter: j.QuarantineIter,
		Quarantines:    j.Quarantines,
		Rejoins:        j.Rejoins,
		DegradedIters:  j.DegradedIters,
		CommRetries:    j.CommRetries,
		AdoptedFrom:    j.AdoptedFrom,
		EarlyExitIter:  j.EarlyExitIter,
		ConvergedIter:  j.ConvergedIter,

		RecoveryStrategy:   j.RecoveryStrategy,
		TimeToRecoverIters: j.TimeToRecoverIters,
		AccuracyCost:       float64(j.AccuracyCost),
		JITSnapshots:       j.JITSnapshots,
		Resizes:            j.Resizes,
		Readmits:           j.Readmits,
	}
	if j.DeviceFault != nil {
		df, err := DecodeDeviceFault(*j.DeviceFault)
		if err != nil {
			return experiment.Record{}, err
		}
		rec.DeviceFault = df
	}
	return rec, nil
}

// outcomeFromName resolves a serialized outcome name or errors.
func outcomeFromName(name string) (outcome.Outcome, error) {
	if o := outcomeByName(name); o != nil {
		return *o, nil
	}
	return 0, fmt.Errorf("record: unknown outcome %q", name)
}

// IsTornTail reports whether err is a repairable torn-tail journal error.
func IsTornTail(err error) bool {
	var t *TornTailError
	return errors.As(err, &t)
}
