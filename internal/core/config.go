// Package core implements the cycle-level out-of-order core model that a
// SlackSim core thread simulates: a 4-way-issue machine with up to 64
// in-flight instructions, split 16KB L1 I/D caches kept lock-up free with
// MSHRs, and a NetBurst-like execution discipline in which register values
// are fetched just before execution (paper, Section 2). One call to Tick
// simulates one target clock of the core and its L1s.
package core

import (
	"fmt"

	"slacksim/internal/cache"
)

// Config describes one target core.
type Config struct {
	// ID is the core's index in the CMP.
	ID int

	// FetchWidth, IssueWidth and CommitWidth are instructions per cycle.
	FetchWidth, IssueWidth, CommitWidth int
	// ROBSize bounds in-flight instructions (the paper's cores allow 64).
	ROBSize int
	// FetchBufSize bounds the fetch-to-dispatch buffer.
	FetchBufSize int

	// DataMSHRs and InstMSHRs size the lock-up-free miss machinery.
	DataMSHRs, InstMSHRs int

	// L1I and L1D configure the private caches.
	L1I, L1D cache.Config

	// BimodalEntries sizes the branch direction predictor.
	BimodalEntries int
	// MispredictPenalty is the fetch-redirect bubble in cycles.
	MispredictPenalty int

	// MemPortsPerCycle, FPopsPerCycle, DivsPerCycle bound per-cycle issue
	// by functional-unit class (total issue is bounded by IssueWidth).
	MemPortsPerCycle, FPopsPerCycle, DivsPerCycle int

	// LockRetryInterval is how many target cycles a core spins before
	// retrying a contended lock.
	LockRetryInterval int64

	// CodeBase is the byte address where this core's program image lives;
	// it must not collide with any data region or other core's code.
	CodeBase uint64
}

// DefaultConfig returns the paper's target-core configuration for core id
// in a machine of numCores cores.
func DefaultConfig(id int) Config {
	return Config{
		ID:           id,
		FetchWidth:   4,
		IssueWidth:   4,
		CommitWidth:  4,
		ROBSize:      64,
		FetchBufSize: 8,
		DataMSHRs:    8,
		InstMSHRs:    2,
		L1I: cache.Config{
			Name: fmt.Sprintf("c%d.l1i", id), SizeBytes: 16 << 10, Assoc: 4, LatencyCycles: 1,
		},
		L1D: cache.Config{
			Name: fmt.Sprintf("c%d.l1d", id), SizeBytes: 16 << 10, Assoc: 4, LatencyCycles: 2,
		},
		BimodalEntries:    512,
		MispredictPenalty: 3,
		MemPortsPerCycle:  2,
		FPopsPerCycle:     2,
		DivsPerCycle:      1,
		LockRetryInterval: 16,
		CodeBase:          0x1000_0000_0000 + uint64(id)<<32,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("core %d: widths must be positive", c.ID)
	}
	if c.ROBSize <= 0 || c.FetchBufSize <= 0 {
		return fmt.Errorf("core %d: ROB and fetch buffer must be positive", c.ID)
	}
	if c.DataMSHRs <= 0 || c.InstMSHRs <= 0 {
		return fmt.Errorf("core %d: MSHR counts must be positive", c.ID)
	}
	if c.BimodalEntries <= 0 || c.BimodalEntries&(c.BimodalEntries-1) != 0 {
		return fmt.Errorf("core %d: bimodal entries must be a positive power of two", c.ID)
	}
	if c.LockRetryInterval <= 0 {
		return fmt.Errorf("core %d: lock retry interval must be positive", c.ID)
	}
	if err := c.L1I.Validate(); err != nil {
		return err
	}
	return c.L1D.Validate()
}
