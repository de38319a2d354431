// Package record serializes traces, injections, and campaign results so
// experiments can be archived, diffed, and replayed — the repository
// counterpart of the paper artifact's replay_inj_*.txt output files and
// injection config CSVs.
//
// Three formats are provided:
//
//   - JSON for full-fidelity archives (traces, injections, campaign
//     records);
//   - the artifact's line-oriented text format for traces ("iter N loss L
//     acc A"), which is convenient to eyeball and to plot; and
//   - the write-ahead campaign journal (journal.go): an append-only,
//     fsync-batched JSONL log of completed experiments whose header binds
//     it to one exact campaign (config fingerprint, seed, golden-run
//     digest), making long campaigns crash-safe and resumable
//     byte-identically via experiment.Resume.
package record

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/accel"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/train"
)

// InjectionJSON is the serializable form of a fault injection. It is a
// plain mirror of fault.Injection with stable field names, so recorded
// experiments survive refactors of the internal type.
type InjectionJSON struct {
	Kind      string  `json:"kind"`
	LayerIdx  int     `json:"layer"`
	Pass      string  `json:"pass"`
	Iteration int     `json:"iteration"`
	CycleFrac float64 `json:"cycle_frac"`
	N         int     `json:"n"`
	Unit      int     `json:"unit"`
	DeltaFrac float64 `json:"delta_frac"`
	BitPos    uint    `json:"bit_pos"`
	Source    string  `json:"source,omitempty"`
	SeedState uint64  `json:"seed_state"`
	SeedStrm  uint64  `json:"seed_stream"`
}

// kindToName and passToName give stable serialization names.
var kindToName = map[accel.FFKind]string{
	accel.DatapathOther: "datapath", accel.DatapathUpperExponent: "upper-exp",
	accel.LocalControl: "local",
	accel.GlobalG1:     "g1", accel.GlobalG2: "g2", accel.GlobalG3: "g3",
	accel.GlobalG4: "g4", accel.GlobalG5: "g5", accel.GlobalG6: "g6",
	accel.GlobalG7: "g7", accel.GlobalG8: "g8", accel.GlobalG9: "g9",
	accel.GlobalG10: "g10",
}

var passToName = map[fault.Pass]string{
	fault.Forward: "forward", fault.BackwardInput: "backward-input",
	fault.BackwardWeight: "backward-weight",
}

// KindFromName resolves a serialized FF kind name.
func KindFromName(name string) (accel.FFKind, error) {
	for k, n := range kindToName {
		if n == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("record: unknown FF kind %q", name)
}

// PassFromName resolves a serialized pass name.
func PassFromName(name string) (fault.Pass, error) {
	for p, n := range passToName {
		if n == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("record: unknown pass %q", name)
}

// EncodeInjection converts an injection to its serializable form.
func EncodeInjection(inj fault.Injection) InjectionJSON {
	return InjectionJSON{
		Kind: kindToName[inj.Kind], LayerIdx: inj.LayerIdx,
		Pass: passToName[inj.Pass], Iteration: inj.Iteration,
		CycleFrac: inj.CycleFrac, N: inj.N, Unit: inj.Unit,
		DeltaFrac: inj.DeltaFrac, BitPos: inj.BitPos,
		Source:    inj.Source.String(),
		SeedState: inj.Seed.State, SeedStrm: inj.Seed.Stream,
	}
}

// DecodeInjection converts the serialized form back.
func DecodeInjection(j InjectionJSON) (fault.Injection, error) {
	kind, err := KindFromName(j.Kind)
	if err != nil {
		return fault.Injection{}, err
	}
	pass, err := PassFromName(j.Pass)
	if err != nil {
		return fault.Injection{}, err
	}
	source := fault.FromDRAM
	switch j.Source {
	case "", "dram":
	case "on-chip":
		source = fault.FromOnChip
	default:
		return fault.Injection{}, fmt.Errorf("record: unknown fetch source %q", j.Source)
	}
	return fault.Injection{
		Kind: kind, LayerIdx: j.LayerIdx, Pass: pass, Iteration: j.Iteration,
		CycleFrac: j.CycleFrac, N: j.N, Unit: j.Unit, DeltaFrac: j.DeltaFrac,
		BitPos: j.BitPos, Source: source,
		Seed: rng.Seed{State: j.SeedState, Stream: j.SeedStrm},
	}, nil
}

// ReadInjectionJSON parses an injection from r.
func ReadInjectionJSON(r io.Reader) (fault.Injection, error) {
	var j InjectionJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return fault.Injection{}, fmt.Errorf("record: parsing injection: %w", err)
	}
	return DecodeInjection(j)
}

// DeviceFaultJSON is the serializable form of a system-level device/link
// fault — like InjectionJSON, a plain mirror of fault.DeviceFault with
// stable field names.
type DeviceFaultJSON struct {
	Kind       string `json:"kind"`
	Device     int    `json:"device"`
	Iteration  int    `json:"iteration"`
	BitPos     uint   `json:"bit_pos"`
	Lane       int    `json:"lane"`
	Flips      int    `json:"flips"`
	DelayTicks int    `json:"delay_ticks"`
	RepairIter int    `json:"repair_iter"`
	SeedState  uint64 `json:"seed_state"`
	SeedStrm   uint64 `json:"seed_stream"`
}

// EncodeDeviceFault converts a device fault to its serializable form.
func EncodeDeviceFault(f fault.DeviceFault) DeviceFaultJSON {
	return DeviceFaultJSON{
		Kind: f.Kind.String(), Device: f.Device, Iteration: f.Iteration,
		BitPos: f.BitPos, Lane: f.Lane, Flips: f.Flips,
		DelayTicks: f.DelayTicks, RepairIter: f.RepairIter,
		SeedState: f.Seed.State, SeedStrm: f.Seed.Stream,
	}
}

// DecodeDeviceFault converts the serialized form back.
func DecodeDeviceFault(j DeviceFaultJSON) (fault.DeviceFault, error) {
	kind, ok := fault.DeviceFaultKindByName(j.Kind)
	if !ok {
		return fault.DeviceFault{}, fmt.Errorf("record: unknown device-fault kind %q", j.Kind)
	}
	return fault.DeviceFault{
		Kind: kind, Device: j.Device, Iteration: j.Iteration,
		BitPos: j.BitPos, Lane: j.Lane, Flips: j.Flips,
		DelayTicks: j.DelayTicks, RepairIter: j.RepairIter,
		Seed: rng.Seed{State: j.SeedState, Stream: j.SeedStrm},
	}, nil
}

// TraceJSON is the serializable form of a training trace.
type TraceJSON struct {
	Workload      string    `json:"workload"`
	FaultIter     int       `json:"fault_iter"`
	TrainLoss     []float64 `json:"train_loss"`
	TrainAcc      []float64 `json:"train_acc"`
	TestIters     []int     `json:"test_iters,omitempty"`
	TestAcc       []float64 `json:"test_acc,omitempty"`
	TestLoss      []float64 `json:"test_loss,omitempty"`
	NonFiniteIter int       `json:"non_finite_iter"`
	NonFiniteAt   string    `json:"non_finite_at,omitempty"`
	Completed     int       `json:"completed"`
}

// WriteTraceJSON serializes a trace to w.
func WriteTraceJSON(w io.Writer, t *train.Trace) error {
	j := TraceJSON{
		Workload: t.Workload, FaultIter: t.FaultIter,
		TrainLoss: t.TrainLoss, TrainAcc: t.TrainAcc,
		TestIters: t.TestIters, TestAcc: t.TestAcc, TestLoss: t.TestLoss,
		NonFiniteIter: t.NonFiniteIter, NonFiniteAt: t.NonFiniteAt,
		Completed: t.Completed,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(j)
}

// WriteTraceText writes the artifact-style line format:
//
//	# workload resnet fault_iter 40
//	iter 0 loss 1.3862 acc 0.2500
//	...
//	test 99 loss 0.4210 acc 0.8750
//	nan 41 loss@device0
func WriteTraceText(w io.Writer, t *train.Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# workload %s fault_iter %d\n", t.Workload, t.FaultIter)
	for i := range t.TrainLoss {
		fmt.Fprintf(bw, "iter %d loss %.6g acc %.6g\n", i, t.TrainLoss[i], t.TrainAcc[i])
	}
	for i, it := range t.TestIters {
		fmt.Fprintf(bw, "test %d loss %.6g acc %.6g\n", it, t.TestLoss[i], t.TestAcc[i])
	}
	if t.NonFiniteIter >= 0 {
		fmt.Fprintf(bw, "nan %d %s\n", t.NonFiniteIter, t.NonFiniteAt)
	}
	return bw.Flush()
}

// Float carries a float64 that may be non-finite through JSON. A fault
// that blows up the gradient history or moving variance leaves ±Inf/NaN in
// a record's hist/mvar fields — values encoding/json refuses to emit — so
// these marshal as the strings "+Inf", "-Inf", "NaN" and decode back to
// the identical values. Finite values use Go's shortest-round-trip float
// formatting, preserving bit patterns exactly.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		case "NaN":
			*f = Float(math.NaN())
		default:
			return fmt.Errorf("record: %q is not a non-finite float marker (+Inf, -Inf, NaN)", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// CampaignRecordJSON is the serializable form of one campaign experiment.
type CampaignRecordJSON struct {
	Injection     InjectionJSON `json:"injection"`
	Outcome       string        `json:"outcome"`
	FinalTrainAcc Float         `json:"final_train_acc"`
	FinalTestAcc  Float         `json:"final_test_acc"`
	NonFiniteIter int           `json:"non_finite_iter"`
	HistAtT       Float         `json:"hist_at_t"`
	HistAtT1      Float         `json:"hist_at_t1"`
	MvarAtT       Float         `json:"mvar_at_t"`
	MvarAtT1      Float         `json:"mvar_at_t1"`
	DetectIter    int           `json:"detect_iter"`
	InjectedElems int           `json:"injected_elems"`
	Masked        bool          `json:"masked"`
	// Device-fault campaign fields (schema v2). DeviceFault is nil on FF
	// records; QuarantineIter is always encoded (-1 = never) so the
	// round trip stays exact for both campaign flavors.
	DeviceFault    *DeviceFaultJSON `json:"device_fault,omitempty"`
	QuarantineIter int              `json:"quarantine_iter"`
	Quarantines    int              `json:"quarantines,omitempty"`
	Rejoins        int              `json:"rejoins,omitempty"`
	DegradedIters  int              `json:"degraded_iters,omitempty"`
	CommRetries    int              `json:"comm_retries,omitempty"`
	// Equivalence-layer provenance (schema v3). Like quarantine_iter these
	// are always encoded with -1 as the "did not happen" value, so the
	// round trip stays exact whether or not the campaign ran with
	// -dedup/-early-exit.
	AdoptedFrom   int `json:"adopted_from"`
	EarlyExitIter int `json:"early_exit_iter"`
	// Recovery-strategy fields (schema v4). TimeToRecoverIters is always
	// encoded (-1 = group never returned to full strength) and AccuracyCost
	// always encoded (0 is a legitimate measured cost), so the round trip
	// stays exact across strategies; the activity counters are omitempty
	// because they are zero everywhere except jit/elastic records.
	RecoveryStrategy   string `json:"recovery_strategy,omitempty"`
	TimeToRecoverIters int    `json:"time_to_recover_iters"`
	AccuracyCost       Float  `json:"accuracy_cost"`
	JITSnapshots       int    `json:"jit_snapshots,omitempty"`
	Resizes            int    `json:"resizes,omitempty"`
	Readmits           int    `json:"readmits,omitempty"`
}

// CampaignJSON is the serializable form of a campaign summary.
type CampaignJSON struct {
	Workload    string               `json:"workload"`
	Experiments int                  `json:"experiments"`
	Seed        int64                `json:"seed"`
	RefAcc      float64              `json:"ref_acc"`
	Records     []CampaignRecordJSON `json:"records"`
}

// WriteCampaignJSON serializes a campaign to w.
func WriteCampaignJSON(w io.Writer, c *experiment.Campaign) error {
	j := CampaignJSON{
		Workload:    c.Cfg.Workload.Name,
		Experiments: c.Cfg.Experiments,
		Seed:        c.Cfg.Seed,
		RefAcc:      c.RefAcc,
	}
	for i := range c.Records {
		j.Records = append(j.Records, EncodeCampaignRecord(&c.Records[i]))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(j)
}

// ReadCampaignJSON parses a campaign summary written by WriteCampaignJSON.
// It returns the wire structure: the live Campaign's traces are not
// archived, so DecodeCampaignRecord recovers its records and nothing more.
func ReadCampaignJSON(r io.Reader) (*CampaignJSON, error) {
	var j CampaignJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("record: parsing campaign: %w", err)
	}
	return &j, nil
}

// WriteCampaignCSV writes one row per experiment for spreadsheet analysis.
func WriteCampaignCSV(w io.Writer, c *experiment.Campaign) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "kind,layer,pass,iteration,n,outcome,final_train_acc,final_test_acc,non_finite_iter,hist_at_t,hist_at_t1,mvar_at_t,mvar_at_t1,detect_iter,injected_elems,masked,adopted_from,early_exit_iter,recovery_strategy,time_to_recover_iters,accuracy_cost")
	for i := range c.Records {
		r := &c.Records[i]
		fmt.Fprintf(bw, "%s,%d,%s,%d,%d,%s,%.6g,%.6g,%d,%.6g,%.6g,%.6g,%.6g,%d,%d,%v,%d,%d,%s,%d,%.6g\n",
			kindToName[r.Injection.Kind], r.Injection.LayerIdx,
			passToName[r.Injection.Pass], r.Injection.Iteration, r.Injection.N,
			r.Outcome, r.FinalTrainAcc, r.FinalTestAcc, r.NonFiniteIter,
			r.HistAtT, r.HistAtT1, r.MvarAtT, r.MvarAtT1,
			r.DetectIter, r.InjectedElems, r.Masked,
			r.AdoptedFrom, r.EarlyExitIter,
			r.RecoveryStrategy, r.TimeToRecoverIters, r.AccuracyCost)
	}
	return bw.Flush()
}
