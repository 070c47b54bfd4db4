package adaptive

import "slacksim/internal/wire"

// Encode appends the controller, configuration first, for a run
// snapshot.
func (c *Controller) Encode(w *wire.Writer) {
	w.Float(c.cfg.TargetRate)
	w.Float(c.cfg.Band)
	w.Varint(c.cfg.InitialBound)
	w.Varint(c.cfg.MinBound)
	w.Varint(c.cfg.MaxBound)
	w.Varint(c.cfg.Period)
	w.Byte(byte(c.policy))
	w.Varint(c.bound)
	w.Uvarint(c.Adjustments)
	w.Uvarint(c.Holds)
	w.Float(c.boundSum)
	w.Uvarint(c.samples)
}

// Decode reads a controller written by Encode into c. A configuration
// that Validate rejects fails the Reader.
func (c *Controller) Decode(r *wire.Reader) {
	cfg := Config{TargetRate: r.Float(), Band: r.Float(), InitialBound: r.Varint(),
		MinBound: r.Varint(), MaxBound: r.Varint(), Period: r.Varint()}
	*c = Controller{cfg: cfg, policy: Policy(r.Byte()), bound: r.Varint(),
		Adjustments: r.Uvarint(), Holds: r.Uvarint(), boundSum: r.Float(), samples: r.Uvarint()}
	if err := cfg.Validate(); err != nil {
		r.Failf("%w", err)
	}
}
