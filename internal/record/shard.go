package record

// Per-shard journals and the deterministic merge of a distributed campaign
// (internal/dist).
//
// A distributed campaign partitions its experiment index space into
// contiguous owner ranges ("shards"); each worker runs one shard through
// experiment.Resume with RunOptions.Shard and produces the canonical
// journal lines for exactly its owners and their dedup adoptees, in the
// same relative order a monolithic run would have appended them. The
// coordinator persists each completed shard as a shard journal — a normal
// journal whose header additionally binds the owner range — and, once all
// shards are in, merges them by concatenating their record lines in shard
// order beneath a monolithic header. Because owners ascend within shards
// exactly as they do monolithically, the merged file is byte-identical to
// the journal a single-process run writes (TestMergeShardJournals, and the
// end-to-end proof in internal/dist under -race).

import (
	"bufio"
	"fmt"
	"os"
	"sync"

	"repro/internal/experiment"
)

// ShardBinding renders a shard's owner-index range [lo, hi) as the stable
// string bound into shard journal headers.
func ShardBinding(lo, hi int) string { return fmt.Sprintf("%d-%d", lo, hi) }

// LineBuffer is an in-memory experiment.Sink that encodes each appended
// record into the exact line bytes Journal.Append would have written
// (EncodeJournalLine). Distributed workers run their shard into one and
// ship Lines() to the coordinator; the bytes survive the trip verbatim, so
// the merged journal needs no re-encoding to stay byte-identical.
type LineBuffer struct {
	mu    sync.Mutex
	lines []string
}

// Append implements experiment.Sink.
func (b *LineBuffer) Append(idx int, rec experiment.Record) error {
	line, err := EncodeJournalLine(idx, rec)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, string(line))
	return nil
}

// Flush implements experiment.Sink (memory needs no flushing).
func (b *LineBuffer) Flush() error { return nil }

// Lines returns the appended lines in append order (the shard's canonical
// sequence, since the campaign runner orders appends before the sink).
func (b *LineBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.lines...)
}

var _ experiment.Sink = (*LineBuffer)(nil)

// validateShardRange bounds-checks an owner range against the campaign.
func validateShardRange(cfg experiment.Config, lo, hi int) error {
	if lo < 0 || hi > cfg.Experiments || lo >= hi {
		return fmt.Errorf("record: shard [%d,%d) is not a non-empty subrange of campaign index space [0,%d)", lo, hi, cfg.Experiments)
	}
	return nil
}

// WriteShardJournal persists one completed shard of a distributed campaign:
// a journal whose header binds, on top of the usual campaign identity
// (spec and golden digest), the shard's owner range [lo, hi). lines are the shard's canonical record lines
// (LineBuffer.Lines); each must decode and carry an in-range index, so a
// corrupted upload is rejected before it ever reaches a file. The file is
// written whole and fsynced; an existing file is an error (a shard is
// ingested exactly once per epoch — the coordinator removes a stale file
// before re-ingesting a reassigned shard).
func WriteShardJournal(path string, cfg experiment.Config, goldenDigest string, lo, hi int, lines []string) error {
	if err := validateShardRange(cfg, lo, hi); err != nil {
		return err
	}
	if _, err := DecodeJournalLines(lines, cfg.Experiments); err != nil {
		return fmt.Errorf("record: shard [%d,%d) upload invalid: %w", lo, hi, err)
	}
	hdr := headerFor(cfg, goldenDigest)
	hdr.Shard = ShardBinding(lo, hi)
	return writeWholeJournal(path, hdr, lines)
}

// ShardLines opens and validates the shard journal at path — the header
// must match the campaign and the exact owner range — and returns its raw
// record lines in file order plus the decoded records by index.
func ShardLines(path string, cfg experiment.Config, goldenDigest string, lo, hi int) ([]string, map[int]experiment.Record, error) {
	if err := validateShardRange(cfg, lo, hi); err != nil {
		return nil, nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("record: opening shard journal: %w", err)
	}
	want := headerFor(cfg, goldenDigest)
	want.Shard = ShardBinding(lo, hi)
	lines, err := journalRecordLines(path, raw, want)
	if err != nil {
		return nil, nil, err
	}
	done, err := decodeRecordLines(path, lines, cfg.Experiments)
	if err != nil {
		return nil, nil, err
	}
	return lines, done, nil
}

// ShardFile names one shard journal of a campaign for merging.
type ShardFile struct {
	Path   string
	Lo, Hi int
}

// MergeShardJournals merges a complete distributed campaign's shard
// journals into one monolithic journal at dst. The shards must partition
// the campaign index space exactly — sorted, gap-free, starting at 0 and
// ending at cfg.Experiments — and together contribute every record exactly
// once; any hole, overlap, duplicate, or header mismatch fails loudly
// before dst is created. Record lines are concatenated verbatim in shard
// order beneath a monolithic header, which — because every shard emitted
// the monolithic canonical sequence restricted to its owners — makes dst
// byte-identical to the journal an uninterrupted single-process run of the
// same campaign writes. dst must not already exist.
func MergeShardJournals(dst string, cfg experiment.Config, goldenDigest string, shards []ShardFile) error {
	if len(shards) == 0 {
		return fmt.Errorf("record: merging zero shards")
	}
	var all []string
	seen := make(map[int]experiment.Record, cfg.Experiments)
	next := 0
	for _, s := range shards {
		if s.Lo != next {
			return fmt.Errorf("record: shard journals do not partition the campaign: expected a shard starting at %d, got [%d,%d) — shards must be sorted, contiguous, and gap-free", next, s.Lo, s.Hi)
		}
		lines, done, err := ShardLines(s.Path, cfg, goldenDigest, s.Lo, s.Hi)
		if err != nil {
			return err
		}
		for i := range done {
			if _, dup := seen[i]; dup {
				return fmt.Errorf("record: record %d appears in more than one shard journal — the shards overlap or a shard was ingested twice", i)
			}
			seen[i] = done[i]
		}
		all = append(all, lines...)
		next = s.Hi
	}
	if next != cfg.Experiments {
		return fmt.Errorf("record: shard journals cover owner range [0,%d) but the campaign has %d experiments — a shard is missing", next, cfg.Experiments)
	}
	if len(seen) != cfg.Experiments {
		return fmt.Errorf("record: merged shards hold %d records, campaign has %d — a shard journal is incomplete", len(seen), cfg.Experiments)
	}
	return writeWholeJournal(dst, headerFor(cfg, goldenDigest), all)
}

// writeWholeJournal writes a complete journal (header + record lines) to a
// fresh file and fsyncs it. Refuses to overwrite.
func writeWholeJournal(path string, hdr journalHeader, lines []string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("record: creating journal: %w", err)
	}
	j := &Journal{f: f, bw: bufio.NewWriter(f), path: path, flushEvery: defaultFlushEvery}
	if err := j.writeHeader(hdr); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	for _, line := range lines {
		j.bw.WriteString(line)
		if err := j.bw.WriteByte('\n'); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("record: writing journal %s: %w", path, err)
		}
	}
	if err := j.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}
