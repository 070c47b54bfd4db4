// Fixture for the allow-directive rules: a reason-less //lint:allow
// still suppresses, but is itself reported, so a waiver can never be
// silent.
package lintdirective

import "sync"

type box struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (b *box) bareAllow() int {
	return b.n //lint:allow guardedby
}
