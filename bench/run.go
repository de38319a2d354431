package main

// The four workloads and what one pass of each does. A pass is one full
// campaign over the workload's population against a prepared
// experiment.Golden; everything here drives the program through its public
// functions only.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/record"
	"repro/internal/recovery"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

const (
	// campaignWorkers pins the load: two campaign workers (dist: two
	// workers × one pool worker), never "GOMAXPROCS", so a number means the
	// same thing on every host.
	campaignWorkers = 2
	// defaultPopulation is the experiments per campaign.
	defaultPopulation = 64
	// localSetupReps / distSetupReps are the set-up repetitions per run.
	localSetupReps = 9
	distSetupReps  = 5
	// distShardSize, distWorkerPoll and distStatusPoll pin the service's
	// timing knobs: the default 500 ms idle poll would quantise a 9 s pass
	// by up to 6 %.
	distShardSize  = 8
	distWorkerPoll = 10 * time.Millisecond
	distStatusPoll = 20 * time.Millisecond
)

// workloadDef describes one benchmark workload.
type workloadDef struct {
	name string
	// why is the one-line reason the workload is in the set.
	why string
	// model is the workloads.ByName model the campaign trains.
	model string
	// nominalPassS is one pass's wall time at the speed of the commit that
	// defined the benchmark. It only turns -seconds into a pass count, so
	// that two commits run the same number of passes however fast they are.
	nominalPassS float64
	// seeds are the campaign seeds -seed selects from (seed mod len): ten
	// populations whose executed training iterations match within a few
	// parts in a thousand, so a run's cost does not depend on which one it
	// drew. README.md says how they were chosen.
	seeds []int64
	// configure, when set, turns the base campaign config into the
	// workload's.
	configure func(*experiment.Config)
	// journal: each pass streams its records into a real record.Journal.
	journal bool
	// dist: passes go through a loopback coordinator and two workers.
	dist bool
}

var workloadDefs = []workloadDef{
	{
		name:  "ff-resnet",
		why:   "Reference FF bit-flip campaign on resnet; tensor/nn/train kernels do nearly all the work, so kernel, engine-pool and snapshot changes must show here",
		model: "resnet", nominalPassS: 8.4,
		seeds: ffSeeds,
	},
	{
		name:  "ff-resnet-fastpath",
		why:   "FF campaign on resnet with dedup, early exit and a real fsync-batched journal; experiment and record carry a large share, kernels run about half the iterations",
		model: "resnet", nominalPassS: 4.6,
		seeds: fastpathSeeds,
		configure: func(c *experiment.Config) {
			c.Dedup, c.EarlyExit, c.EarlyExitStride = true, true, 1
		},
		journal: true,
	},
	{
		name:  "devfault-transformer-jit",
		why:   "Device-fault campaign with quarantine and JIT recovery on transformer; comm, detect.GroupCheck and recovery run every iteration on attention GEMM shapes, conv and journal do nothing",
		model: "transformer", nominalPassS: 4.5,
		seeds: devfaultSeeds,
		configure: func(c *experiment.Config) {
			c.DeviceFaults, c.Quarantine, c.Recovery = true, true, recovery.StrategyJIT
		},
	},
	{
		name:  "dist-resnet",
		why:   "The ff-resnet population through a loopback coordinator and two workers; the gap to ff-resnet is lease, upload, shard-journal ingest and merge overhead",
		model: "resnet", nominalPassS: 9.2,
		seeds: ffSeeds,
		dist:  true,
	},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, d := range workloadDefs {
		if d.name == name {
			return d, nil
		}
		names = append(names, d.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// campaignSeed maps the benchmark's -seed onto one of the workload's
// matched populations.
func (d workloadDef) campaignSeed(seed int64) int64 {
	i := seed % int64(len(d.seeds))
	if i < 0 {
		i += int64(len(d.seeds))
	}
	return d.seeds[i]
}

// setupReps is the number of set-up repetitions per run.
func (d workloadDef) setupReps() int {
	if d.dist {
		return distSetupReps
	}
	return localSetupReps
}

// passes turns a measuring time into the workload's pass count.
func (d workloadDef) passes(seconds int) int {
	return max(2, int(float64(seconds)/d.nominalPassS+0.5))
}

// params are one run's inputs. Everything the program sees is derived from
// them: the same params give the same campaign configs and specs.
type params struct {
	def        workloadDef
	seed       int64 // the benchmark seed as given
	population int
	iters      int // 0 = the model's default training length
	passes     int
	trace      bool
	traceOut   string
	// dir is a scratch directory inside the working directory for journals
	// and coordinator data; the run removes it when it ends.
	dir string
}

// config resolves the workload's experiment.Config — exactly what
// `campaign -workload W -n N -seed S` (plus the workload's flags) runs.
func (p params) config() (experiment.Config, error) {
	w, err := workloads.ByName(p.def.model)
	if err != nil {
		return experiment.Config{}, err
	}
	if p.iters > 0 {
		w.Iters = p.iters
	}
	cfg := experiment.Config{
		Workload:    w,
		Experiments: p.population,
		Seed:        p.def.campaignSeed(p.seed),
		Workers:     campaignWorkers,
		HorizonMult: 1.5,
	}
	if p.def.configure != nil {
		p.def.configure(&cfg)
	}
	return cfg, nil
}

// spec is the dist.CampaignSpec equivalent of config for an n-experiment
// campaign.
func (p params) spec(n, shardSize int) dist.CampaignSpec {
	return dist.CampaignSpec{
		Workload:    p.def.model,
		Experiments: n,
		Seed:        p.def.campaignSeed(p.seed),
		Iters:       p.iters,
		ShardSize:   shardSize,
	}
}

// passResult is what one timed pass yields.
type passResult struct {
	wall, cpu float64
	completed int
	// failed counts experiments missing from the pass plus records that
	// differ from the reference pass at the same index.
	failed int
	// camp is the pass's campaign (nil for dist passes, whose workers do
	// not expose it).
	camp *experiment.Campaign
	// stats is the pass's telemetry ledger (traced passes only).
	stats *telemetry.CampaignStats
	// journal is the path of the journal the pass wrote, if any, and shards
	// the shard journals a dist pass merged it from.
	journal string
	shards  []record.ShardFile
}

func (r passResult) perSecond() float64 { return float64(r.completed) / r.wall }
func (r passResult) cpuPerExp() float64 { return r.cpu / float64(r.completed) }
func (r passResult) busyShare() float64 { return r.cpu / (r.wall * campaignWorkers) }

// oracle is the untimed reference pass's output, which every timed pass is
// checked against: the encoded journal line of every record, in index
// order, and (dist) the whole journal file.
type oracle struct {
	lines   []string
	journal []byte
	camp    *experiment.Campaign
}

// digest hashes the reference records so two commits can be compared by
// eye: a change meant only to speed the campaign up must leave it alone.
func (o *oracle) digest() string {
	h := sha256.New()
	for _, l := range o.lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// encodeRecords renders a campaign's records as journal lines in index
// order. With ignoreProvenance the equivalence layer's AdoptedFrom /
// EarlyExitIter fields are cleared first, leaving the outcome payload an
// exhaustive run must reproduce.
func encodeRecords(c *experiment.Campaign, ignoreProvenance bool) ([]string, error) {
	lines := make([]string, len(c.Records))
	for i, rec := range c.Records {
		if ignoreProvenance {
			rec.AdoptedFrom, rec.EarlyExitIter = -1, -1
		}
		line, err := record.EncodeJournalLine(i, rec)
		if err != nil {
			return nil, err
		}
		lines[i] = string(line)
	}
	return lines, nil
}

// countDiffering returns how many of got's lines differ from want's at the
// same position, counting every missing or surplus line as differing.
func countDiffering(got, want []string) int {
	n := 0
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			n++
		}
	}
	return n
}

// local runs the three single-process workloads.
type local struct {
	p      params
	cfg    experiment.Config
	golden *experiment.Golden
	// journal is the journal the latest set-up created for the next pass.
	journal     *record.Journal
	journalPath string
	journals    int
	ref         *oracle
}

// setup is one set-up repetition: everything before the first experiment
// can be dispatched. What it prepares serves the next pass.
func (l *local) setup() (float64, error) {
	l.dropJournal()
	t0 := time.Now()
	cfg, err := l.p.config()
	if err != nil {
		return 0, err
	}
	g := experiment.PrepareGolden(cfg)
	if l.p.def.journal {
		l.journals++
		l.journalPath = filepath.Join(l.p.dir, fmt.Sprintf("pass-%d.jsonl", l.journals))
		if l.journal, err = record.CreateJournal(l.journalPath, cfg, g.Ref().Digest()); err != nil {
			return 0, err
		}
	}
	s := time.Since(t0).Seconds()
	l.cfg, l.golden = cfg, g
	return s, nil
}

// dropJournal closes and removes a journal no pass consumed.
func (l *local) dropJournal() {
	if l.journal != nil {
		l.journal.Close()
		os.Remove(l.journalPath)
		l.journal = nil
	}
}

// reference runs the untimed oracle pass: the same mode again for the
// workloads whose property is determinism, the exhaustive campaign (no
// dedup, no early exit) for the fast path.
func (l *local) reference() error {
	cfg := l.cfg
	cfg.Dedup, cfg.EarlyExit = false, false
	c, err := experiment.Resume(cfg, experiment.RunOptions{Golden: l.golden})
	if err != nil {
		return err
	}
	if c.Completed != cfg.Experiments {
		return fmt.Errorf("reference pass completed %d of %d experiments", c.Completed, cfg.Experiments)
	}
	lines, err := encodeRecords(c, l.p.def.journal)
	if err != nil {
		return err
	}
	l.ref = &oracle{lines: lines, camp: c}
	return nil
}

// pass runs one campaign against the latest set-up. With rec non-nil the
// pass is traced: the telemetry ledger is on and the journal sits behind a
// span-recording Sink.
func (l *local) pass(rec *recorder) (passResult, error) {
	res := passResult{journal: l.journalPath}
	opts := experiment.RunOptions{Golden: l.golden}
	if l.journal != nil {
		opts.Sink = l.journal
	}
	passID, t0 := 0, time.Now()
	if rec != nil {
		passID = rec.newID()
		res.stats = telemetry.NewCampaignStats(l.cfg.Workload.Name, l.cfg.Experiments, campaignWorkers)
		opts.Stats = res.stats
		if l.journal != nil {
			l.journal.SetStats(res.stats)
			opts.Sink = &tracedSink{inner: l.journal, rec: rec, parent: passID}
		}
	}
	c0 := now()
	c, err := experiment.Resume(l.cfg, opts)
	if err == nil && l.journal != nil {
		err = l.journal.Close()
		l.journal = nil
	}
	res.wall, res.cpu = c0.since()
	if rec != nil {
		rec.addID(passID, "experiment.pass", t0, time.Now(), 0, "")
	}
	if err != nil {
		return res, err
	}
	res.camp, res.completed = c, c.Completed
	lines, err := encodeRecords(c, l.p.def.journal)
	if err != nil {
		return res, err
	}
	res.failed = countDiffering(lines, l.ref.lines)
	return res, nil
}

// service is an in-process campaignd: a coordinator behind a loopback
// listener and two dist.RunWorker goroutines.
type service struct {
	coord   *dist.Coordinator
	srv     *http.Server
	base    string
	dataDir string
	// client polls status and fetches journals; each worker has its own.
	client  *http.Client
	workers []*http.Client
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	errMu   sync.Mutex
	workErr error
	dstats  *telemetry.DistStats
}

// startService brings the service up. With rec non-nil the coordinator's
// handler and every worker's transport are wrapped in span recorders.
func startService(dataDir string, rec *recorder) (*service, error) {
	coord, err := dist.NewCoordinator(dist.Options{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	var handler http.Handler = coord
	if rec != nil {
		handler = &tracedHandler{inner: coord, rec: rec}
	}
	s := &service{
		coord:   coord,
		srv:     &http.Server{Handler: handler},
		base:    "http://" + ln.Addr().String(),
		dataDir: dataDir,
		client:  &http.Client{Transport: &http.Transport{}},
		dstats:  &telemetry.DistStats{},
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < campaignWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		var rt http.RoundTripper = &http.Transport{}
		if rec != nil {
			rt = &tracedTransport{inner: rt, rec: rec, worker: id}
		}
		client := &http.Client{Transport: rt}
		s.workers = append(s.workers, client)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			err := dist.RunWorker(ctx, dist.WorkerOptions{
				Coordinator: s.base, ID: id, Poll: distWorkerPoll,
				Workers: 1, Client: client, Stats: s.dstats,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				s.errMu.Lock()
				s.workErr = errors.Join(s.workErr, err)
				s.errMu.Unlock()
			}
		}()
	}
	return s, nil
}

// stop shuts the workers, the listener and the coordinator down and waits
// for every goroutine the service started.
func (s *service) stop() error {
	s.cancel()
	err := s.srv.Shutdown(context.Background())
	s.wg.Wait()
	s.coord.Close()
	for _, c := range append(s.workers, s.client) {
		c.CloseIdleConnections()
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return errors.Join(err, s.workErr)
}

// runCampaign submits spec and polls its status until it is done,
// returning the final status.
func (s *service) runCampaign(spec dist.CampaignSpec) (dist.CampaignStatus, error) {
	var st dist.CampaignStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Post(s.base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusCreated {
		return st, fmt.Errorf("submitting campaign: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var sub dist.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		return st, err
	}
	for {
		raw, err := s.get("/campaigns/" + sub.ID)
		if err != nil {
			return st, err
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return st, err
		}
		switch st.State {
		case dist.StateDone:
			return st, nil
		case dist.StateFailed, dist.StateCancelled:
			return st, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
		}
		s.errMu.Lock()
		werr := s.workErr
		s.errMu.Unlock()
		if werr != nil {
			return st, fmt.Errorf("a worker died: %w", werr)
		}
		time.Sleep(distStatusPoll)
	}
}

func (s *service) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// distRun runs the dist-resnet workload.
type distRun struct {
	p      params
	svc    *service
	starts int
	ref    *oracle
	// cfg and golden are the in-process oracle's, kept for the probes, and
	// goldenPrep the time PrepareGolden took there.
	cfg        experiment.Config
	golden     *experiment.Golden
	goldenPrep float64
}

// setup is one cold service start: a new coordinator, listener and two new
// workers run a 4-experiment, 2-shard campaign of the same workload and
// seed until its merged journal is served.
func (d *distRun) setup() (float64, error) {
	d.starts++
	t0 := time.Now()
	svc, err := startService(filepath.Join(d.p.dir, fmt.Sprintf("cold-%d", d.starts)), nil)
	if err != nil {
		return 0, err
	}
	st, err := svc.runCampaign(d.p.spec(4, 2))
	if err == nil {
		_, err = svc.get("/campaigns/" + st.ID + "/journal")
	}
	s := time.Since(t0).Seconds()
	return s, errors.Join(err, svc.stop())
}

// reference runs the campaign in process into a journal file: the bytes
// the coordinator's merged journal must equal.
func (d *distRun) reference() error {
	cfg, err := d.p.config()
	if err != nil {
		return err
	}
	t0 := time.Now()
	g := experiment.PrepareGolden(cfg)
	d.goldenPrep = time.Since(t0).Seconds()
	path := filepath.Join(d.p.dir, "oracle.jsonl")
	j, err := record.CreateJournal(path, cfg, g.Ref().Digest())
	if err != nil {
		return err
	}
	c, err := experiment.Resume(cfg, experiment.RunOptions{Golden: g, Sink: j})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if c.Completed != cfg.Experiments {
		return fmt.Errorf("reference pass completed %d of %d experiments", c.Completed, cfg.Experiments)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines, err := encodeRecords(c, false)
	if err != nil {
		return err
	}
	d.ref = &oracle{lines: lines, journal: raw, camp: c}
	d.cfg, d.golden = cfg, g
	return nil
}

// start brings up the service the timed passes share.
func (d *distRun) start(name string, rec *recorder) (err error) {
	d.svc, err = startService(filepath.Join(d.p.dir, name), rec)
	return err
}

// pass is POST /campaigns → state done; the merged journal is fetched
// after the clock stops and compared with the oracle's byte for byte.
func (d *distRun) pass(rec *recorder) (passResult, error) {
	var res passResult
	t0, c0 := time.Now(), now()
	st, err := d.svc.runCampaign(d.p.spec(d.p.population, distShardSize))
	res.wall, res.cpu = c0.since()
	if rec != nil {
		rec.add("experiment.pass", t0, time.Now(), 0, st.ID)
	}
	if err != nil {
		return res, err
	}
	res.completed = st.RecordsDone
	raw, err := d.svc.get("/campaigns/" + st.ID + "/journal")
	if err != nil {
		return res, err
	}
	res.journal = filepath.Join(d.svc.dataDir, st.ID+".jsonl")
	for _, sh := range st.Shards {
		res.shards = append(res.shards, record.ShardFile{Lo: sh.Lo, Hi: sh.Hi,
			Path: filepath.Join(d.svc.dataDir, fmt.Sprintf("%s.shard-%s.jsonl", st.ID, record.ShardBinding(sh.Lo, sh.Hi)))})
	}
	if !bytes.Equal(raw, d.ref.journal) {
		got, want := strings.Split(string(raw), "\n"), strings.Split(string(d.ref.journal), "\n")
		// A differing header condemns the whole journal.
		if res.failed = countDiffering(got[1:], want[1:]); got[0] != want[0] {
			res.failed = d.p.population
		}
	}
	return res, nil
}

func (d *distRun) close() error {
	if d.svc == nil {
		return nil
	}
	err := d.svc.stop()
	d.svc = nil
	return err
}
