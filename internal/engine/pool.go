package engine

import (
	"fmt"
	"strings"
	"sync"

	"slacksim/internal/uncore"
)

// shapeKey is a Machine's pooling identity: two machines with equal keys
// are interchangeable after reset. It fingerprints the resolved
// configuration (core count, uncore config, and — when a custom
// CoreConfig is supplied — every core's resolved Config). The workload is
// NOT part of the key, because reset reloads it. For the common
// nil-CoreConfig case the key is a plain comparable struct, so computing
// and looking it up allocates nothing.
type shapeKey struct {
	numCores int
	uncore   uncore.Config
	// cores fingerprints the per-core configs when CoreConfig is non-nil;
	// empty for the default configuration. A machine built with a custom
	// CoreConfig that happens to return core.DefaultConfig keys
	// differently from a nil CoreConfig — that only costs a pool miss.
	cores string
}

func shapeOf(cfg MachineConfig) shapeKey {
	k := shapeKey{numCores: cfg.NumCores, uncore: cfg.Uncore}
	if cfg.CoreConfig != nil {
		var b strings.Builder
		for i := 0; i < cfg.NumCores; i++ {
			fmt.Fprintf(&b, "|%+v", cfg.CoreConfig(i))
		}
		k.cores = b.String()
	}
	return k
}

// reset returns the machine to a freshly-built state running workload w,
// keeping every warmed allocation: cache arrays, MSHR waiter backings,
// status-map slot arrays, memory page free lists, ROB free lists, out-queue
// chunks, compiled programs (when the workload name matches), and the
// pooled checkpoint snapshot graph. After reset the machine is
// indistinguishable (state-wise) from NewMachine(cfg, w).
func (m *Machine) reset(w Workload) error {
	progs := m.progs
	if w.Name() != m.wkName {
		var err error
		progs, err = w.Programs(m.cfg.NumCores)
		if err != nil {
			return fmt.Errorf("engine: workload %s: %w", w.Name(), err)
		}
		if len(progs) != m.cfg.NumCores {
			return fmt.Errorf("engine: workload %s produced %d programs for %d cores",
				w.Name(), len(progs), m.cfg.NumCores)
		}
	}
	m.mem.Reset()
	if err := w.InitMemory(m.mem); err != nil {
		return fmt.Errorf("engine: workload %s init: %w", w.Name(), err)
	}
	m.sync.Reset()
	m.det.Reset()
	m.unc.Reset()
	for i, c := range m.cores {
		if err := c.Reset(progs[i]); err != nil {
			return err
		}
		m.outQs[i].Restore(nil)
		m.inQs[i].Restore(nil)
	}
	m.wkName = w.Name()
	m.progs = progs
	return nil
}

// MachinePool recycles Machines between runs. A Machine's first run warms
// every internal pool (caches, slot arrays, free lists, the checkpoint
// snapshot graph); reusing the machine makes subsequent runs effectively
// allocation-free. Machines are keyed by configuration shape, so a pool
// can serve a mix of configurations. Safe for concurrent use.
type MachinePool struct {
	mu   sync.Mutex
	free map[shapeKey][]*Machine
}

// NewMachinePool returns an empty pool.
func NewMachinePool() *MachinePool {
	return &MachinePool{free: make(map[shapeKey][]*Machine)}
}

// Get returns a machine for cfg loaded with w: a recycled machine of the
// same shape when one is available (reset for w), a freshly-built one
// otherwise.
func (p *MachinePool) Get(cfg MachineConfig, w Workload) (*Machine, error) {
	if cfg.Uncore.NumCores == 0 && cfg.NumCores > 0 {
		// Mirror NewMachine's defaulting so the shape of a zero-Uncore
		// config matches the machine it builds.
		cfg.Uncore = defaultedUncore(cfg)
	}
	key := shapeOf(cfg)
	p.mu.Lock()
	var m *Machine
	if q := p.free[key]; len(q) > 0 {
		m = q[len(q)-1]
		q[len(q)-1] = nil
		p.free[key] = q[:len(q)-1]
	}
	p.mu.Unlock()
	if m != nil {
		if err := m.reset(w); err != nil {
			return nil, err
		}
		return m, nil
	}
	return NewMachine(cfg, w)
}

// Put returns a machine to the pool for reuse. The caller must be done
// with it entirely — including any Results-independent inspection of its
// components — because the next Get may hand it to another run.
func (p *MachinePool) Put(m *Machine) {
	if m == nil {
		return
	}
	key := shapeOf(m.cfg)
	p.mu.Lock()
	p.free[key] = append(p.free[key], m)
	p.mu.Unlock()
}
