package main

import (
	"fmt"
	"math/rand/v2"

	"slacksim"
	"slacksim/internal/spec"
	"slacksim/internal/synth"
)

// Every input the system under test sees is generated here from the
// workload seed; the same seed yields the same specs in the same order.

// Stream constants keep the generators' random sequences independent of
// each other for one seed.
const (
	streamEngine = iota + 1
	streamCatalogue
	streamRequests
	streamFleet
	streamFleetWarm
)

func newRNG(seed int64, stream, sub uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream<<32|sub))
}

// hostSeed draws a deterministic-host scheduling seed (never 0, which
// would read as "unset").
func hostSeed(r *rand.Rand) int64 { return r.Int64N(1<<30) + 1 }

// engineJob is one simulation an engine workload runs per pass.
type engineJob struct {
	name string
	cfg  slacksim.Config
	// raceFree marks kernels that synchronize only at barriers: their cc
	// timing is host-independent, so the parallel host must reproduce
	// the deterministic host's per-core clocks. Lock-based kernels
	// (barnes, water) order their lock acquisitions by host interleaving
	// and are only required to commit the same instructions.
	raceFree bool
}

var kernels = []string{"fft", "lu", "barnes", "water"}

func isRaceFree(kernel string) bool { return kernel == "fft" || kernel == "lu" }

// engineJobs builds the pass of an engine workload: the runs executed
// back to back, identical in every pass. The seed picks each run's
// host-scheduling seed.
func engineJobs(workload string, seed int64, scale int) ([]engineJob, error) {
	r := newRNG(seed, streamEngine, 0)
	S := slacksim.Schemes
	var jobs []engineJob
	add := func(kernel, tag string, cfg slacksim.Config) {
		cfg.Workload, cfg.Scale, cfg.Cores = kernel, scale, 8
		if !cfg.Parallel {
			cfg.Seed = hostSeed(r)
		}
		jobs = append(jobs, engineJob{name: kernel + "/" + tag, cfg: cfg, raceFree: isRaceFree(kernel)})
	}
	switch workload {
	case "engine-cc":
		for _, k := range kernels {
			add(k, "cc", slacksim.Config{Scheme: S.CC()})
		}
	case "engine-slack":
		for _, k := range kernels {
			add(k, "su", slacksim.Config{Scheme: S.Unbounded()})
		}
		for _, k := range kernels {
			add(k, "adaptive", slacksim.Config{Scheme: S.AdaptiveDefault()})
		}
	case "engine-spec":
		add("fft", "s16-ck250-rb", slacksim.Config{Scheme: S.Bounded(16), CheckpointInterval: 250, Rollback: true})
		add("water", "s16-ck250-rb", slacksim.Config{Scheme: S.Bounded(16), CheckpointInterval: 250, Rollback: true})
		add("water", "adaptive-ck1000-rb-map", slacksim.Config{Scheme: S.AdaptiveDefault(), CheckpointInterval: 1000, Rollback: true, MapViolationsOnly: true})
	case "engine-par":
		for _, k := range []string{"fft", "barnes", "water"} {
			add(k, "cc-par", slacksim.Config{Scheme: S.CC(), Parallel: true})
			add(k, "s16-par", slacksim.Config{Scheme: S.Bounded(16), Parallel: true})
		}
	default:
		return nil, fmt.Errorf("not an engine workload: %s", workload)
	}
	return jobs, nil
}

// synthPatterns are the generator patterns the service workloads use.
// prodcons (and mixed, which includes it) is left out: see README.md,
// "Defects found".
var synthPatterns = []string{synth.PatternZipf, synth.PatternMigratory}

// synthSpec draws one small synthetic-workload spec. Every spec has the
// same shape, so that the instructions behind a served result do not
// depend on which specs the seed made popular.
func synthSpec(r *rand.Rand, pattern, scheme string) spec.Spec {
	return spec.Spec{
		Workload: "synth",
		Scheme:   scheme,
		Seed:     hostSeed(r),
		Synth: &synth.Config{
			Seed:    hostSeed(r),
			Pattern: pattern,
			Ops:     32,
			Phases:  2,
		},
	}
}

// catalogue generates serve-hot's n specs (scheme s16, alternating
// patterns), normalized as the server will see them.
func catalogue(seed int64, n int) []spec.Spec {
	r := newRNG(seed, streamCatalogue, 0)
	out := make([]spec.Spec, n)
	for i := range out {
		out[i] = synthSpec(r, synthPatterns[i%len(synthPatterns)], "s16").Normalize()
	}
	return out
}

// zipfExponent skews serve-hot's request stream: with a 64-entry memory
// tier over 256 specs it sends roughly 7 in 10 requests to the memory
// tier and the rest to the disk store, so both tiers carry weight.
const zipfExponent = 1.01

// requestStream is one closed-loop client's endless sequence of catalogue
// indexes, Zipf-distributed with index 0 the most popular.
type requestStream struct{ z *rand.Zipf }

func newRequestStream(seed int64, client, catalogueSize int) *requestStream {
	r := newRNG(seed, streamRequests, uint64(client))
	return &requestStream{z: rand.NewZipf(r, zipfExponent, 1, uint64(catalogueSize-1))}
}

func (s *requestStream) next() int { return int(s.z.Uint64()) }

// fleetSchemes and fleetKinds span fleet-cold's 24 spec shapes.
var (
	fleetSchemes = []string{"cc", "s16", "su", "adaptive"}
	fleetKinds   = []string{"fft", "lu", "barnes", "water", "synth-zipf", "synth-migratory"}
)

// fleetStream is fleet-cold's endless sequence of unique specs: blocks of
// the 24 shapes, each block shuffled, every spec carrying seeds no
// earlier spec had, so no request can be served from any cache.
type fleetStream struct {
	r     *rand.Rand
	block []spec.Spec
	seeds map[int64]bool
}

// newFleetStream starts the sequence of the given stream constant:
// streamFleet for the timed phase, streamFleetWarm for set-up's warm block.
func newFleetStream(seed int64, stream uint64) *fleetStream {
	return &fleetStream{r: newRNG(seed, stream, 0), seeds: make(map[int64]bool)}
}

// uniqueSeed draws a host seed not handed out before.
func (s *fleetStream) uniqueSeed() int64 {
	for {
		v := hostSeed(s.r)
		if !s.seeds[v] {
			s.seeds[v] = true
			return v
		}
	}
}

func (s *fleetStream) next() spec.Spec {
	if len(s.block) == 0 {
		for _, kind := range fleetKinds {
			for _, scheme := range fleetSchemes {
				var sp spec.Spec
				switch kind {
				case "synth-zipf":
					sp = synthSpec(s.r, synth.PatternZipf, scheme)
				case "synth-migratory":
					sp = synthSpec(s.r, synth.PatternMigratory, scheme)
				default:
					sp = spec.Spec{Workload: kind, Scale: 1, Scheme: scheme}
				}
				sp.Seed = s.uniqueSeed()
				s.block = append(s.block, sp.Normalize())
			}
		}
		s.r.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	sp := s.block[len(s.block)-1]
	s.block = s.block[:len(s.block)-1]
	return sp
}
