// Package spec defines the canonical run specification shared by every
// front end: the slacksim and sweep CLIs, the slacksimd HTTP service, and
// the Go client all parse, validate and normalize the same Spec, so a
// run means the same thing no matter how it was requested. A normalized
// Spec also has a stable content address (Key) used by the service's
// result cache to serve identical runs without re-simulating.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"slacksim"
	"slacksim/internal/adaptive"
	"slacksim/internal/engine"
	"slacksim/internal/memtrace"
	"slacksim/internal/sampling"
	"slacksim/internal/synth"
	"slacksim/internal/violation"
	"slacksim/internal/workload"
)

// TraceSpec carries a recorded memory trace for the "trace" workload
// kind. Data is the encoded trace (internal/memtrace format; base64 in
// JSON); Digest is its hex SHA-256, filled during normalization. Key()
// hashes the digest only, so the content address of a replay spec stays
// small and two specs carrying the same trace bytes share a key.
type TraceSpec struct {
	Digest string `json:"digest,omitempty"`
	Data   []byte `json:"data,omitempty"`
}

// Spec is one fully-described simulation run. The zero value is not
// runnable; call Normalize to apply defaults and Validate before use.
// The json names are the service's request contract.
type Spec struct {
	// Workload names a built-in benchmark ("fft", "lu", "barnes", ...).
	Workload string `json:"workload"`
	// Scale multiplies the workload's input size (default 1).
	Scale int `json:"scale,omitempty"`
	// Cores is the number of target cores (default 8).
	Cores int `json:"cores,omitempty"`
	// Scheme is the slack scheme in CLI syntax: "cc", "s<N>", "su",
	// "q<N>", "p2p<N>", or "adaptive" (default "cc").
	Scheme string `json:"scheme,omitempty"`
	// TargetRate and Band tune the adaptive controller (ignored by other
	// schemes; zeroed during normalization so they never affect the Key).
	// A negative Band requests a zero-width band — an explicit zero would
	// be indistinguishable from "use the default" in JSON.
	TargetRate float64 `json:"target_rate,omitempty"`
	Band       float64 `json:"band,omitempty"`
	// AdaptivePeriod, AdaptiveInitialBound, AdaptiveMinBound and
	// AdaptiveMaxBound complete the adaptive controller configuration
	// (zero selects the paper's defaults; ignored by other schemes).
	AdaptivePeriod       int64 `json:"adaptive_period,omitempty"`
	AdaptiveInitialBound int64 `json:"adaptive_initial_bound,omitempty"`
	AdaptiveMinBound     int64 `json:"adaptive_min_bound,omitempty"`
	AdaptiveMaxBound     int64 `json:"adaptive_max_bound,omitempty"`
	// AdaptivePolicy selects the bound-adjustment policy: "aimd" (the
	// default) or "aiad" (the ablation alternative).
	AdaptivePolicy string `json:"adaptive_policy,omitempty"`
	// Seed drives the deterministic host's scheduling.
	Seed int64 `json:"seed,omitempty"`
	// MaxInstructions stops the run after N total committed instructions.
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	// CheckpointInterval takes a global checkpoint every N cycles.
	CheckpointInterval int64 `json:"checkpoint_interval,omitempty"`
	// Rollback enables speculative slack simulation (deterministic host).
	Rollback bool `json:"rollback,omitempty"`
	// MapViolationsOnly restricts adaptation/rollback to map violations.
	MapViolationsOnly bool `json:"map_only,omitempty"`
	// Parallel selects the goroutine-parallel host.
	Parallel bool `json:"parallel,omitempty"`
	// MeasureViolations charges violation-detection overhead to the host
	// cost model even for schemes that do not require it (the Figure 3
	// instrumented bounded runs). Implied by adaptive, rollback, and
	// interval tracking.
	MeasureViolations bool `json:"measure_violations,omitempty"`
	// TrackIntervals enables per-interval violation statistics for the
	// given interval lengths (the paper's Tables 3 and 4).
	TrackIntervals []int64 `json:"track_intervals,omitempty"`
	// Synth parameterizes the synthetic workload generator; meaningful
	// only when Workload is "synth" (nil there selects the defaults, and
	// normalization clears it everywhere else).
	Synth *synth.Config `json:"synth,omitempty"`
	// Trace carries the recorded memory trace replayed when Workload is
	// "trace"; required for that workload kind, cleared otherwise.
	Trace *TraceSpec `json:"trace,omitempty"`
	// SampleInterval, SampleDetailEvery and SampleConfidence enable
	// interval sampling when any is nonzero: detailed (cycle-accurate)
	// intervals interleaved with fast-forwarded ones, reporting estimated
	// cycles with a confidence bound. Zeros within an enabled plan take
	// the sampling defaults. Requires the cc scheme on the deterministic
	// host.
	SampleInterval    uint64  `json:"sample_interval,omitempty"`
	SampleDetailEvery int     `json:"sample_detail_every,omitempty"`
	SampleConfidence  float64 `json:"sample_confidence,omitempty"`
}

// Normalize returns the spec with defaults applied and identity-free
// noise removed: names are trimmed and lower-cased, zero Scale/Cores
// become their defaults, and adaptive tuning fields are cleared for
// non-adaptive schemes. Two specs describing the same run normalize to
// the same value, which is what Key hashes.
func (s Spec) Normalize() Spec {
	s.Workload = strings.ToLower(strings.TrimSpace(s.Workload))
	s.Scheme = strings.ToLower(strings.TrimSpace(s.Scheme))
	if s.Scheme == "" {
		s.Scheme = "cc"
	}
	if s.Scale < 1 {
		s.Scale = 1
	}
	if s.Cores == 0 {
		s.Cores = 8
	}
	if s.Scheme != "adaptive" {
		s.TargetRate, s.Band = 0, 0
		s.AdaptivePeriod, s.AdaptiveInitialBound = 0, 0
		s.AdaptiveMinBound, s.AdaptiveMaxBound = 0, 0
		s.AdaptivePolicy = ""
	} else {
		// Fill the paper's base configuration in so "adaptive" and an
		// explicitly-spelled default adapt to the same cache key.
		def := slacksim.Schemes.AdaptiveDefault().Adaptive
		if s.TargetRate == 0 {
			s.TargetRate = def.TargetRate
		}
		if s.Band == 0 {
			s.Band = def.Band
		} else if s.Band < 0 {
			s.Band = -1 // canonical "explicitly zero" band
		}
		if s.AdaptivePeriod == 0 {
			s.AdaptivePeriod = def.Period
		}
		if s.AdaptiveInitialBound == 0 {
			s.AdaptiveInitialBound = def.InitialBound
		}
		if s.AdaptiveMinBound == 0 {
			s.AdaptiveMinBound = def.MinBound
		}
		if s.AdaptiveMaxBound == 0 {
			s.AdaptiveMaxBound = def.MaxBound
		}
		s.AdaptivePolicy = strings.ToLower(strings.TrimSpace(s.AdaptivePolicy))
		if s.AdaptivePolicy == "" {
			s.AdaptivePolicy = "aimd"
		}
	}
	if s.Scheme == "adaptive" || s.Rollback || len(s.TrackIntervals) > 0 {
		// The engine measures violations on these paths regardless, so
		// fold the implication into the canonical form (and the Key).
		s.MeasureViolations = true
	}
	if len(s.TrackIntervals) == 0 {
		s.TrackIntervals = nil
	}
	if s.Workload == "synth" {
		var c synth.Config
		if s.Synth != nil {
			c = *s.Synth
		}
		s.Synth = c.Normalize()
	} else {
		s.Synth = nil
	}
	if s.Workload == "trace" {
		if s.Trace != nil && len(s.Trace.Data) > 0 {
			t := *s.Trace
			t.Digest = memtrace.Digest(t.Data)
			s.Trace = &t
		}
	} else {
		s.Trace = nil
	}
	if p := s.samplingPlan(); p != nil {
		s.SampleInterval = p.IntervalInsts
		s.SampleDetailEvery = p.DetailEvery
		s.SampleConfidence = p.Confidence
	}
	return s
}

// samplingPlan returns the normalized sampling plan the spec's sampling
// fields describe, or nil when sampling is disabled (all three zero).
func (s Spec) samplingPlan() *sampling.Plan {
	if s.SampleInterval == 0 && s.SampleDetailEvery == 0 && s.SampleConfidence == 0 {
		return nil
	}
	p := sampling.Plan{
		IntervalInsts: s.SampleInterval,
		DetailEvery:   s.SampleDetailEvery,
		Confidence:    s.SampleConfidence,
	}
	return p.Normalize()
}

// Validate reports whether the normalized spec describes a runnable
// simulation. It checks the workload name, scheme syntax and parameters,
// and host/feature combinations, mirroring what the engine would reject
// at run time so front ends fail fast with a clear message.
func (s Spec) Validate() error {
	s = s.Normalize()
	switch s.Workload {
	case "":
		return fmt.Errorf("spec: workload is required")
	case "synth":
		if err := s.Synth.Validate(); err != nil {
			return err
		}
	case "trace":
		if s.Trace == nil || len(s.Trace.Data) == 0 {
			return fmt.Errorf("spec: workload \"trace\" requires trace data")
		}
		tr, err := memtrace.Decode(s.Trace.Data)
		if err != nil {
			return err
		}
		if tr.Cores != s.Cores {
			return fmt.Errorf("spec: trace records %d cores but spec asks for %d", tr.Cores, s.Cores)
		}
	default:
		if _, err := workload.ByName(s.Workload, s.Scale); err != nil {
			return err
		}
	}
	if s.Cores < 1 {
		return fmt.Errorf("spec: cores must be positive, got %d", s.Cores)
	}
	sch, err := s.scheme()
	if err != nil {
		return err
	}
	if err := sch.Validate(); err != nil {
		return err
	}
	switch s.AdaptivePolicy {
	case "", "aimd", "aiad":
	default:
		return fmt.Errorf("spec: unknown adaptive policy %q (want aimd or aiad)", s.AdaptivePolicy)
	}
	if s.Rollback && s.CheckpointInterval <= 0 {
		return fmt.Errorf("spec: rollback requires a checkpoint interval")
	}
	if s.Rollback && s.Parallel {
		return fmt.Errorf("spec: rollback is only supported on the deterministic host")
	}
	if s.CheckpointInterval < 0 {
		return fmt.Errorf("spec: negative checkpoint interval")
	}
	for _, iv := range s.TrackIntervals {
		if iv <= 0 {
			return fmt.Errorf("spec: track intervals must be positive, got %d", iv)
		}
	}
	if p := s.samplingPlan(); p != nil {
		if err := p.Validate(); err != nil {
			return err
		}
		// Mirror the engine's sampling constraints so front ends fail
		// fast: detailed intervals are the cycle-accurate reference.
		if s.Scheme != "cc" {
			return fmt.Errorf("spec: sampling requires the cc scheme, got %q", s.Scheme)
		}
		if s.Parallel {
			return fmt.Errorf("spec: sampling is only supported on the deterministic host")
		}
		if s.CheckpointInterval > 0 || s.Rollback {
			return fmt.Errorf("spec: sampling cannot be combined with checkpointing")
		}
		if len(s.TrackIntervals) > 0 {
			return fmt.Errorf("spec: sampling cannot be combined with interval tracking")
		}
	}
	return nil
}

// Key returns the spec's content address: the hex SHA-256 of a canonical
// fixed-order rendering of the normalized spec. Identical runs — however
// their specs were spelled — share a key; any field that changes the
// simulation changes the key. The segment schema is append-only (keys
// name results already persisted in the durable store) and is pinned in
// testdata/keyschema.golden, enforced by the keyappend analyzer.
//
//slacksim:appendonly testdata/keyschema.golden
func (s Spec) Key() string {
	n := s.Normalize()
	canon := fmt.Sprintf(
		"v2|workload=%s|scale=%d|cores=%d|scheme=%s|target=%g|band=%g|seed=%d|maxinst=%d|ckpt=%d|rollback=%t|maponly=%t|parallel=%t|measure=%t|track=%v|aperiod=%d|ainit=%d|amin=%d|amax=%d|apolicy=%s",
		n.Workload, n.Scale, n.Cores, n.Scheme, n.TargetRate, n.Band,
		n.Seed, n.MaxInstructions, n.CheckpointInterval,
		n.Rollback, n.MapViolationsOnly, n.Parallel,
		n.MeasureViolations, n.TrackIntervals,
		n.AdaptivePeriod, n.AdaptiveInitialBound, n.AdaptiveMinBound,
		n.AdaptiveMaxBound, n.AdaptivePolicy)
	// Scenario segments are appended only when present so every
	// pre-scenario spec keeps the content address it has always had —
	// those keys name results already persisted in the durable store.
	if n.Synth != nil {
		canon += "|synth=" + n.Synth.Canonical()
	}
	if n.Trace != nil {
		canon += "|trace=" + n.Trace.Digest
	}
	if p := n.samplingPlan(); p != nil {
		canon += "|sample=" + p.Canonical()
	}
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}

// scheme builds the fully-parameterized scheme a normalized spec
// describes, including the controller fields ParseScheme's CLI surface
// does not carry.
func (s Spec) scheme() (slacksim.Scheme, error) {
	sch, err := ParseScheme(s.Scheme, s.TargetRate, s.Band)
	if err != nil {
		return slacksim.Scheme{}, err
	}
	if sch.Kind == engine.Adaptive {
		if s.AdaptivePeriod > 0 {
			sch.Adaptive.Period = s.AdaptivePeriod
		}
		if s.AdaptiveInitialBound > 0 {
			sch.Adaptive.InitialBound = s.AdaptiveInitialBound
		}
		if s.AdaptiveMinBound > 0 {
			sch.Adaptive.MinBound = s.AdaptiveMinBound
		}
		if s.AdaptiveMaxBound > 0 {
			sch.Adaptive.MaxBound = s.AdaptiveMaxBound
		}
	}
	return sch, nil
}

// Config builds the slacksim.Config for this spec. Front-end-only knobs
// (tracing, progress hooks, interrupts) are not part of a Spec; callers
// set them on the returned Config.
func (s Spec) Config() (slacksim.Config, error) {
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return slacksim.Config{}, err
	}
	sch, err := n.scheme()
	if err != nil {
		return slacksim.Config{}, err
	}
	cfg := slacksim.Config{
		Workload:           n.Workload,
		Scale:              n.Scale,
		Cores:              n.Cores,
		Scheme:             sch,
		Seed:               n.Seed,
		MaxInstructions:    n.MaxInstructions,
		CheckpointInterval: n.CheckpointInterval,
		Rollback:           n.Rollback,
		MapViolationsOnly:  n.MapViolationsOnly,
		Parallel:           n.Parallel,
		MeasureViolations:  n.MeasureViolations,
		TrackIntervals:     n.TrackIntervals,
	}
	if n.AdaptivePolicy == "aiad" {
		cfg.AdaptivePolicy = slacksim.AIAD
	}
	cfg.Synth = n.Synth
	if n.Trace != nil {
		cfg.TraceData = n.Trace.Data
	}
	cfg.Sampling = n.samplingPlan()
	return cfg, nil
}

// FromRun converts one in-process experiment cell — a workload name,
// input scale, core count and engine run configuration — into the
// canonical Spec describing the identical run, so grid runners can hand
// cells to remote workers and get byte-identical results back. Run
// configurations a Spec cannot express (custom host pacing, tracers,
// selective violation sets beyond map-only, asymmetric Lax-P2P) are
// reported as errors rather than silently approximated.
func FromRun(workload string, scale, cores int, rc engine.RunConfig) (Spec, error) {
	sp := Spec{
		Workload:           workload,
		Scale:              scale,
		Cores:              cores,
		Seed:               rc.Seed,
		MaxInstructions:    rc.MaxInstructions,
		CheckpointInterval: rc.CheckpointInterval,
		Rollback:           rc.Rollback,
		MeasureViolations:  rc.MeasureViolations,
		TrackIntervals:     append([]int64(nil), rc.TrackIntervals...),
	}
	switch sch := rc.Scheme; sch.Kind {
	case engine.CC:
		sp.Scheme = "cc"
	case engine.Bounded:
		sp.Scheme = fmt.Sprintf("s%d", sch.Bound)
	case engine.Unbounded:
		sp.Scheme = "su"
	case engine.Quantum:
		sp.Scheme = fmt.Sprintf("q%d", sch.Quantum)
	case engine.LaxP2P:
		if sch.SyncPeriod != sch.P2PMaxAhead {
			return Spec{}, fmt.Errorf("spec: lax-p2p with period %d != max-ahead %d has no spec form",
				sch.SyncPeriod, sch.P2PMaxAhead)
		}
		sp.Scheme = fmt.Sprintf("p2p%d", sch.SyncPeriod)
	case engine.Adaptive:
		a := sch.Adaptive
		sp.Scheme = "adaptive"
		sp.TargetRate = a.TargetRate
		sp.Band = a.Band
		if a.Band == 0 {
			sp.Band = -1
		}
		sp.AdaptivePeriod = a.Period
		sp.AdaptiveInitialBound = a.InitialBound
		sp.AdaptiveMinBound = a.MinBound
		sp.AdaptiveMaxBound = a.MaxBound
	default:
		return Spec{}, fmt.Errorf("spec: scheme %v has no spec form", sch.Kind)
	}
	if rc.AdaptivePolicy == adaptive.AIAD {
		sp.AdaptivePolicy = "aiad"
	}
	switch {
	case len(rc.Selected) == 0:
	case len(rc.Selected) == 1 && rc.Selected[0] == violation.Map:
		sp.MapViolationsOnly = true
	default:
		return Spec{}, fmt.Errorf("spec: violation selection %v has no spec form", rc.Selected)
	}
	if rc.MaxCycles != 0 || rc.MaxChunk != 0 || rc.HostDriftCap != 0 ||
		rc.Tracer != nil || rc.MemRecorder != nil {
		return Spec{}, fmt.Errorf("spec: run config uses host knobs a spec cannot carry")
	}
	if rc.Sampling != nil {
		sp.SampleInterval = rc.Sampling.IntervalInsts
		sp.SampleDetailEvery = rc.Sampling.DetailEvery
		sp.SampleConfidence = rc.Sampling.Confidence
	}
	sp = sp.Normalize()
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// ParseScheme parses the CLI scheme syntax shared by every front end:
// "cc", "s<N>" (bounded), "su"/"unbounded", "q<N>" (quantum), "p2p<N>"
// (Lax-P2P with period = max-ahead = N), or "adaptive". target and band,
// when positive, override the adaptive controller's defaults; a negative
// band requests a zero-width band.
func ParseScheme(s string, target, band float64) (slacksim.Scheme, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch {
	case s == "cc":
		return slacksim.Schemes.CC(), nil
	case s == "su" || s == "unbounded":
		return slacksim.Schemes.Unbounded(), nil
	case s == "adaptive":
		cfg := slacksim.Schemes.AdaptiveDefault().Adaptive
		if target > 0 {
			cfg.TargetRate = target
		}
		if band > 0 {
			cfg.Band = band
		} else if band < 0 {
			cfg.Band = 0
		}
		return slacksim.Schemes.Adaptive(cfg), nil
	case strings.HasPrefix(s, "p2p"):
		period, err := strconv.ParseInt(s[3:], 10, 64)
		if err != nil {
			return slacksim.Scheme{}, fmt.Errorf("spec: bad lax-p2p scheme %q", s)
		}
		return slacksim.Schemes.LaxP2P(period, period), nil
	case strings.HasPrefix(s, "s"):
		b, err := strconv.ParseInt(s[1:], 10, 64)
		if err != nil {
			return slacksim.Scheme{}, fmt.Errorf("spec: bad bounded scheme %q", s)
		}
		return slacksim.Schemes.Bounded(b), nil
	case strings.HasPrefix(s, "q"):
		q, err := strconv.ParseInt(s[1:], 10, 64)
		if err != nil {
			return slacksim.Scheme{}, fmt.Errorf("spec: bad quantum scheme %q", s)
		}
		return slacksim.Schemes.Quantum(q), nil
	}
	return slacksim.Scheme{}, fmt.Errorf("spec: unknown scheme %q (want cc, s<N>, su, q<N>, p2p<N>, adaptive)", s)
}
