package dist

// Distributed campaign worker: the client side of the campaignd protocol.
// RunWorker polls the coordinator for shard leases and runs each one
// through the exact same machinery a local campaign uses —
// experiment.PrepareGolden once per golden identity (cached across shards
// and across campaigns that fork from the same run), experiment.Resume with
// RunOptions.Shard, the
// dedup/early-exit fast paths untouched — capturing the shard's canonical
// journal lines in a record.LineBuffer and uploading them on completion.
// A background goroutine renews the lease at TTL/3; if a renewal is fenced
// (HTTP 409/410: the lease expired and the shard was re-granted, or the
// campaign was cancelled) the shard's run is cancelled and its result
// dropped — the worker moves on rather than double-reporting.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/record"
	"repro/internal/telemetry"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://127.0.0.1:8080".
	Coordinator string
	// ID is the worker's self-chosen identity shown in lease status views
	// (default "worker-<pid>").
	ID string
	// Drain makes the worker exit cleanly once the coordinator reports
	// every campaign terminal, instead of polling forever.
	Drain bool
	// Poll is the idle polling interval when no shard is available
	// (default 500ms).
	Poll time.Duration
	// Workers sizes the per-shard experiment pool (0 = GOMAXPROCS). Purely
	// an execution knob; journal bytes are identical across all values.
	Workers int
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Output receives progress lines (default: discard).
	Output io.Writer
	// Stats receives lease-retry counts (telemetry.DistStats.LeaseRetried);
	// nil is fine — every method on DistStats is nil-safe.
	Stats *telemetry.DistStats

	// onLease is a test hook observing each granted lease before the shard
	// runs.
	onLease func(*Lease)
}

// Lease-poll retry policy: a coordinator restart or a blip in the network
// should not kill a worker that may be hours into a campaign's golden
// cache. Transient failures (transport errors, 5xx) back off exponentially
// with jitter and only become fatal after maxLeaseRetries consecutive
// failures; any 4xx is a protocol-level rejection and stays immediately
// fatal.
var (
	leaseBackoffBase = 200 * time.Millisecond
	leaseBackoffCap  = 5 * time.Second
)

const maxLeaseRetries = 6

// errFenced marks a shard whose lease was lost mid-run; the worker drops
// the shard and continues.
var errFenced = errors.New("dist: lease fenced")

// RunWorker runs the lease-poll-execute-upload loop until ctx is
// cancelled, the coordinator drains (with Drain set), or a fatal error
// (unreachable coordinator, binary drift). A context cancellation mid-
// shard abandons the lease — the coordinator's sweeper reassigns it.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Coordinator == "" {
		return errors.New("dist: worker needs a coordinator URL")
	}
	if opts.ID == "" {
		opts.ID = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.Output == nil {
		opts.Output = io.Discard
	}
	return newWorker(opts).run(ctx)
}

// newWorker builds the loop's state from defaulted options.
func newWorker(opts WorkerOptions) *worker {
	return &worker{opts: opts, base: strings.TrimRight(opts.Coordinator, "/"),
		stats: make(map[string]*telemetry.CampaignStats)}
}

// run is the lease-poll loop.
func (w *worker) run(ctx context.Context) error {
	opts := w.opts
	retries := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp LeaseResponse
		status, body, err := w.post(ctx, "/lease", LeaseRequest{Worker: opts.ID}, &resp)
		if err != nil || status >= 500 {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			retries++
			if retries > maxLeaseRetries {
				if err != nil {
					return fmt.Errorf("dist: leasing from %s: %w (after %d retries)", w.base, err, maxLeaseRetries)
				}
				return fmt.Errorf("dist: coordinator rejected lease request: HTTP %d: %s (after %d retries)", status, body, maxLeaseRetries)
			}
			opts.Stats.LeaseRetried()
			delay := leaseBackoff(retries)
			if err != nil {
				fmt.Fprintf(opts.Output, "worker %s: lease poll failed (%v), retry %d/%d in %v\n",
					opts.ID, err, retries, maxLeaseRetries, delay)
			} else {
				fmt.Fprintf(opts.Output, "worker %s: lease poll failed (HTTP %d), retry %d/%d in %v\n",
					opts.ID, status, retries, maxLeaseRetries, delay)
			}
			if !sleepCtx(ctx, delay) {
				return ctx.Err()
			}
			continue
		}
		if status != http.StatusOK {
			return fmt.Errorf("dist: coordinator rejected lease request: HTTP %d: %s", status, body)
		}
		retries = 0
		if resp.Lease == nil {
			if resp.Drained && opts.Drain {
				fmt.Fprintf(opts.Output, "worker %s: coordinator drained, exiting\n", opts.ID)
				return nil
			}
			if !sleepCtx(ctx, opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		if err := w.runShard(ctx, resp.Lease); err != nil {
			if errors.Is(err, errFenced) {
				fmt.Fprintf(opts.Output, "worker %s: lease %s[%d,%d) fenced, dropping shard\n",
					opts.ID, resp.Lease.Campaign, resp.Lease.Lo, resp.Lease.Hi)
				continue
			}
			return err
		}
		fmt.Fprintf(opts.Output, "worker %s: completed %s[%d,%d)\n",
			opts.ID, resp.Lease.Campaign, resp.Lease.Lo, resp.Lease.Hi)
	}
}

// maxGoldens bounds the worker's golden cache. A Golden holds a snapshot
// cache of up to 256 MiB, so a long-lived worker must not keep one per
// campaign it ever leased; two covers a worker alternating between two
// queued campaigns without re-preparing either.
const maxGoldens = 2

// worker carries the loop's state: the HTTP client, the golden cache and
// the per-campaign telemetry ledgers.
type worker struct {
	opts WorkerOptions
	base string
	// goldens holds the most recently used Goldens, newest first, keyed by
	// golden identity: a re-submitted or swept spec (another population,
	// other fast-path flags, another recovery strategy) forks from the run
	// already prepared.
	goldens []*goldenEntry
	// stats is one ledger per campaign (a few hundred bytes each).
	stats map[string]*telemetry.CampaignStats
}

type goldenEntry struct {
	key    experiment.GoldenKey
	golden *experiment.Golden
	digest string
}

// golden returns the cached Golden for cfg's golden identity, preparing it
// on a miss and evicting the least recently used entry past maxGoldens.
func (w *worker) golden(cfg experiment.Config, campaign string) *goldenEntry {
	key := cfg.GoldenKey()
	for i, e := range w.goldens {
		if e.key == key {
			copy(w.goldens[1:i+1], w.goldens[:i])
			w.goldens[0] = e
			return e
		}
	}
	fmt.Fprintf(w.opts.Output, "worker %s: preparing golden reference for campaign %s (%s)\n", w.opts.ID, campaign, cfg.Workload.Name)
	g := experiment.PrepareGolden(cfg)
	e := &goldenEntry{key: key, golden: g, digest: g.Ref().Digest()}
	w.goldens = append([]*goldenEntry{e}, w.goldens...)
	if len(w.goldens) > maxGoldens {
		w.goldens = w.goldens[:maxGoldens]
	}
	return e
}

// runShard executes one leased shard end to end.
func (w *worker) runShard(ctx context.Context, l *Lease) error {
	if w.opts.onLease != nil {
		w.opts.onLease(l)
	}
	if err := ctx.Err(); err != nil {
		return err // killed right after the grant: abandon, the lease expires
	}
	cfg, err := l.Spec.Config()
	if err != nil {
		return fmt.Errorf("dist: coordinator sent an unrunnable spec for campaign %s: %w", l.Campaign, err)
	}
	cfg.Workers = w.opts.Workers
	if fp := cfg.Fingerprint(); fp != l.Fingerprint {
		return fmt.Errorf("dist: campaign %s fingerprint mismatch: coordinator says %s, this worker resolves the spec to %s — coordinator and worker run drifted binaries; upgrade one side", l.Campaign, l.Fingerprint, fp)
	}
	entry := w.golden(cfg, l.Campaign)
	if l.GoldenDigest != "" && entry.digest != l.GoldenDigest {
		return fmt.Errorf("dist: campaign %s golden digest mismatch: campaign established %s, this worker's binary produces %s — numerically different binaries cannot share a campaign", l.Campaign, l.GoldenDigest, entry.digest)
	}
	stats := w.stats[l.Campaign]
	if stats == nil {
		stats = telemetry.NewCampaignStats(cfg.Workload.Name, cfg.Experiments, cfg.WorkerCount())
		w.stats[l.Campaign] = stats
	}
	telemetry.Activate(stats)

	// Renew the lease in the background; a fenced renewal cancels the run.
	shardCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		w.renewLoop(shardCtx, l, cancel)
	}()

	buf := &record.LineBuffer{}
	sh := &experiment.Shard{Lo: l.Lo, Hi: l.Hi}
	_, runErr := experiment.Resume(cfg, experiment.RunOptions{
		Context: shardCtx, Golden: entry.golden, Sink: buf, Shard: sh, Stats: stats,
	})
	cancel(nil)
	<-renewDone
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) {
			if ctx.Err() != nil {
				return ctx.Err() // the worker itself is shutting down
			}
			return errFenced // renewal was rejected mid-run
		}
		return fmt.Errorf("dist: running campaign %s shard [%d,%d): %w", l.Campaign, l.Lo, l.Hi, runErr)
	}

	status, body, err := w.post(ctx, "/complete", CompleteRequest{
		Worker:       w.opts.ID,
		Campaign:     l.Campaign,
		Lo:           l.Lo,
		Hi:           l.Hi,
		Epoch:        l.Epoch,
		Fingerprint:  l.Fingerprint,
		GoldenDigest: entry.digest,
		Lines:        buf.Lines(),
	}, nil)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("dist: uploading campaign %s shard [%d,%d): %w", l.Campaign, l.Lo, l.Hi, err)
	}
	switch {
	case status < 300:
		return nil
	case status == http.StatusConflict || status == http.StatusGone:
		return fmt.Errorf("%w: %s", errFenced, body)
	default:
		return fmt.Errorf("dist: coordinator rejected campaign %s shard [%d,%d): HTTP %d: %s", l.Campaign, l.Lo, l.Hi, status, body)
	}
}

// renewLoop renews l at TTL/3 until ctx ends; a 409/410 response fences
// the shard's run via cancel. Transient transport errors are retried at
// the next tick (the TTL absorbs them).
func (w *worker) renewLoop(ctx context.Context, l *Lease, cancel context.CancelCauseFunc) {
	ttl := time.Duration(l.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			status, body, err := w.post(ctx, "/renew", RenewRequest{
				Worker: w.opts.ID, Campaign: l.Campaign, Lo: l.Lo, Hi: l.Hi, Epoch: l.Epoch,
			}, nil)
			if err != nil {
				continue
			}
			if status == http.StatusConflict || status == http.StatusGone {
				cancel(fmt.Errorf("%w: %s", errFenced, body))
				return
			}
		}
	}
}

// post sends one JSON request and decodes the JSON reply into out (when
// non-nil and the status is 2xx). Returns the HTTP status and, for non-2xx
// replies, the trimmed error body.
func (w *worker) post(ctx context.Context, path string, in, out any) (int, string, error) {
	payload, err := json.Marshal(in)
	if err != nil {
		return 0, "", fmt.Errorf("encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, strings.TrimSpace(string(body)), nil
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, "", fmt.Errorf("decoding %s response: %w", path, err)
		}
	}
	return resp.StatusCode, "", nil
}

// leaseBackoff computes the delay before retry attempt n (1-based):
// exponential from leaseBackoffBase, capped at leaseBackoffCap, with up to
// 25% random jitter so a fleet of workers restarted together doesn't
// hammer a recovering coordinator in lockstep. The jitter is plain
// math/rand — lease timing is pure control plane and never touches the
// deterministic record path.
func leaseBackoff(n int) time.Duration {
	d := leaseBackoffBase << (n - 1)
	if d > leaseBackoffCap || d <= 0 {
		d = leaseBackoffCap
	}
	return d + time.Duration(rand.Int63n(int64(d)/4+1))
}

// sleepCtx sleeps for d or until ctx ends; reports whether the full sleep
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
