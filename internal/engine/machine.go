package engine

import (
	"fmt"

	"slacksim/internal/core"
	"slacksim/internal/event"
	"slacksim/internal/isa"
	"slacksim/internal/mem"
	"slacksim/internal/syncctl"
	"slacksim/internal/uncore"
	"slacksim/internal/violation"
)

// MachineConfig describes the target CMP.
type MachineConfig struct {
	NumCores int
	// CoreConfig builds the configuration of core i; nil means
	// core.DefaultConfig.
	CoreConfig func(i int) core.Config
	// Uncore describes the shared memory system; zero value means
	// uncore.DefaultConfig.
	Uncore uncore.Config
}

// DefaultMachineConfig returns the paper's 8-core target.
func DefaultMachineConfig() MachineConfig {
	return MachineConfig{NumCores: 8}
}

// Workload supplies the per-core programs and initializes target memory
// before simulation starts (the simulation measures from after workload
// thread creation, as the paper does).
type Workload interface {
	// Name identifies the workload in results.
	Name() string
	// Programs returns one program per core.
	Programs(numCores int) ([]*isa.Program, error)
	// InitMemory fills the target memory image with the input set.
	InitMemory(m *mem.Memory) error
}

// Machine is an assembled target system ready to simulate: cores, queues,
// the uncore, shared memory, the synchronization controller, and the
// violation detector.
type Machine struct {
	cfg    MachineConfig
	cores  []*core.Core
	outQs  []*event.Queue[event.Request]
	inQs   []*event.Queue[event.Msg]
	unc    *uncore.Uncore
	mem    *mem.Memory
	sync   *syncctl.Controller
	det    *violation.Detector
	wkName string
	// progs are the loaded workload's compiled programs. Programs are
	// immutable during simulation, so a pooled machine reuses them when it
	// is reloaded with a workload of the same name (built-in workload names
	// embed every program-affecting parameter) instead of recompiling.
	progs []*isa.Program

	// snapPool is the machine's pooled checkpoint graph: both hosts copy
	// into this one set of snapshot objects at every boundary instead of
	// allocating fresh ones, and a pooled machine carries the warmed graph
	// into its next run. Built lazily by snapGraph.
	snapPool *globalSnapshot
}

// defaultedUncore resolves a zero-value Uncore config the way NewMachine
// does (shared with MachinePool so shapes match).
func defaultedUncore(cfg MachineConfig) uncore.Config {
	return uncore.DefaultConfig(cfg.NumCores)
}

// NewMachine builds the target machine and loads the workload.
func NewMachine(cfg MachineConfig, w Workload) (*Machine, error) {
	if cfg.NumCores <= 0 {
		return nil, fmt.Errorf("engine: NumCores must be positive")
	}
	if cfg.Uncore.NumCores == 0 {
		cfg.Uncore = defaultedUncore(cfg)
	}
	if cfg.Uncore.NumCores != cfg.NumCores {
		return nil, fmt.Errorf("engine: uncore configured for %d cores, machine has %d",
			cfg.Uncore.NumCores, cfg.NumCores)
	}
	progs, err := w.Programs(cfg.NumCores)
	if err != nil {
		return nil, fmt.Errorf("engine: workload %s: %w", w.Name(), err)
	}
	if len(progs) != cfg.NumCores {
		return nil, fmt.Errorf("engine: workload %s produced %d programs for %d cores",
			w.Name(), len(progs), cfg.NumCores)
	}

	m := &Machine{
		cfg:    cfg,
		mem:    mem.New(),
		sync:   syncctl.New(cfg.NumCores),
		det:    violation.NewDetector(),
		wkName: w.Name(),
		progs:  progs,
	}
	if err := w.InitMemory(m.mem); err != nil {
		return nil, fmt.Errorf("engine: workload %s init: %w", w.Name(), err)
	}
	for i := 0; i < cfg.NumCores; i++ {
		// Each core's out-queue is its private shard of the global queue,
		// merged by the manager at drain time. Neither queue synchronizes:
		// during a round only the core's worker touches them, between
		// rounds only the manager (which is also where the uncore pushes
		// replies and invalidations into in-queues), and the round
		// barrier orders the hand-offs.
		m.outQs = append(m.outQs, event.NewQueue[event.Request]())
		m.inQs = append(m.inQs, event.NewQueue[event.Msg]())
	}
	m.unc, err = uncore.New(cfg.Uncore, m.inQs, m.det)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.NumCores; i++ {
		ccfg := core.DefaultConfig(i)
		if cfg.CoreConfig != nil {
			ccfg = cfg.CoreConfig(i)
		}
		c, err := core.New(ccfg, progs[i], m.mem, m.sync, m.outQs[i], m.inQs[i])
		if err != nil {
			return nil, err
		}
		m.cores = append(m.cores, c)
	}
	return m, nil
}

// NumCores returns the core count.
func (m *Machine) NumCores() int { return m.cfg.NumCores }

// Cores exposes the cores (tests, stats).
func (m *Machine) Cores() []*core.Core { return m.cores }

// Uncore exposes the shared memory-system model.
func (m *Machine) Uncore() *uncore.Uncore { return m.unc }

// Memory exposes the target memory image (workload result checks).
func (m *Machine) Memory() *mem.Memory { return m.mem }

// Sync exposes the synchronization controller.
func (m *Machine) Sync() *syncctl.Controller { return m.sync }

// Detector exposes the violation detector.
func (m *Machine) Detector() *violation.Detector { return m.det }

// WorkloadName returns the loaded workload's name.
func (m *Machine) WorkloadName() string { return m.wkName }

// snapGraph returns the machine's pooled snapshot graph, building it on
// first use. Exactly one checkpoint is live at a time on either host (old
// checkpoints are discarded, as in the paper), so one graph per machine
// suffices; every boundary overwrites it in place through the components'
// SnapshotInto methods.
func (m *Machine) snapGraph() *globalSnapshot {
	if m.snapPool == nil {
		m.snapPool = m.newSnapGraph() //lint:allow hotpathalloc -- one-time pool warm-up; every later boundary overwrites the graph in place
	}
	return m.snapPool
}

// newSnapGraph builds the pooled snapshot graph: the one-time warm-up
// allocation behind snapGraph.
func (m *Machine) newSnapGraph() *globalSnapshot {
	s := &globalSnapshot{
		mem:  mem.New(),
		sync: syncctl.New(m.cfg.NumCores),
		det:  violation.NewDetector(),
		unc:  &uncore.Snapshot{},
		inQs: make([][]event.Msg, m.cfg.NumCores),
		outs: make([][]event.Request, m.cfg.NumCores),
	}
	for range m.cores {
		s.cores = append(s.cores, &core.Snapshot{})
	}
	return s
}

// committed sums committed instructions across cores.
func (m *Machine) committed() uint64 {
	var n uint64
	for _, c := range m.cores {
		n += c.Committed()
	}
	return n
}

// stateWords estimates the machine's live checkpoint size in 64-bit words.
func (m *Machine) stateWords() int {
	n := m.mem.AllocatedWords() + m.unc.StateWords()
	for _, c := range m.cores {
		// A fresh snapshot would be exact; approximate with cache sizes to
		// avoid building one just for accounting.
		n += c.L1I().StateWords() + c.L1D().StateWords() + 256
	}
	return n
}
