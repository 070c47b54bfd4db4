package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"slacksim/client"
	"slacksim/internal/durable"
	"slacksim/internal/service/server"
	"slacksim/internal/spec"
)

// Sizing shared by the service workloads: this box has two CPUs, so two
// simulation worker slots in total, and two closed-loop clients on
// serve-hot.
const (
	numWorkers = 2
	numClients = 2
	// clientPoll is the client's status-poll interval while a job runs.
	// It is fixed and recorded because it quantizes every cold job's
	// latency.
	clientPoll = 2 * time.Millisecond
	// fullCheckEvery: one reply in this many is re-encoded and compared
	// byte for byte with the set-up result; every reply is checked for
	// state, cache flag, key and cycle count. Re-encoding all of them
	// would spend more client CPU than the server spends serving.
	fullCheckEvery = 16
)

// dial returns a client with a connection pool of its own, as a client in
// a process of its own would have: client.New shares
// http.DefaultTransport, which keeps two idle connections per host, so a
// third concurrent poller in this process would redial on every request.
// hangUp closes the pool.
func dial(url string) (cl *client.Client, hangUp func()) {
	tr := &http.Transport{}
	return client.NewWithHTTPClient(url, &http.Client{Transport: tr}), tr.CloseIdleConnections
}

// node is one slacksimd as cmd/slacksimd assembles it with -data: a
// persistent store behind a memory-tier result cache, a job journal, a
// worker pool, and a real loopback listener.
type node struct {
	url     string
	srv     *server.Server
	hs      *http.Server
	store   *durable.Store
	cache   *durable.ResultCache
	journal *durable.Journal
	served  chan error
}

func startNode(dir string, workers, memEntries int) (*node, error) {
	store, err := durable.OpenStore(filepath.Join(dir, "store"), durable.StoreOptions{})
	if err != nil {
		return nil, err
	}
	journal, _, err := durable.OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		store.Close()
		return nil, err
	}
	n := &node{store: store, journal: journal, cache: durable.NewResultCache(store, memEntries)}
	n.srv = server.New(server.Config{Workers: workers, Cache: n.cache, Journal: journal})
	if err := n.listen(n.srv.Handler()); err != nil {
		n.closeState()
		return nil, err
	}
	return n, nil
}

// listen serves h on a fresh loopback port.
func (n *node) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{Handler: h}
	n.served = make(chan error, 1)
	go func() { n.served <- n.hs.Serve(ln) }()
	return nil
}

func (n *node) closeState() {
	n.journal.Close()
	n.store.Close()
}

// stop drains the server, closes the listener and waits for the serving
// goroutine, then closes the journal and the store.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if n.srv != nil {
		n.srv.Drain(ctx)
	}
	n.hs.Shutdown(ctx)
	<-n.served
	if n.store != nil {
		n.closeState()
	}
}

// serveState is serve-hot after set-up: a running node whose store holds
// every catalogue result.
type serveState struct {
	node *node
	cat  []spec.Spec
	keys []string
	// want[i] is the JSON encoding of spec i's result as first computed.
	want   [][]byte
	cycles []int64
	insts  []uint64
}

func setupServe(env *runEnv) (*serveState, error) {
	size, mem := 256, 64
	if env.smoke {
		size, mem = 16, 4
	}
	dir, err := env.subdir("serve")
	if err != nil {
		return nil, err
	}
	n, err := startNode(dir, numWorkers, mem)
	if err != nil {
		return nil, err
	}
	st := &serveState{node: n, cat: catalogue(env.seed, size)}
	st.keys, st.want = make([]string, size), make([][]byte, size)
	st.cycles, st.insts = make([]int64, size), make([]uint64, size)

	// Cold fill: every spec simulated once, by both clients.
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(n.url)
			for i := c; i < size; i += numClients {
				j, err := cl.SubmitWait(context.Background(), st.cat[i], clientPoll)
				if err == nil && (j.State != "done" || j.Result == nil) {
					err = fmt.Errorf("state %s: %s", j.State, j.Error)
				}
				if err != nil {
					errs[c] = fmt.Errorf("cold fill of spec %d: %w", i, err)
					return
				}
				st.keys[i] = j.Key
				st.want[i], _ = json.Marshal(j.Result)
				st.cycles[i], st.insts[i] = j.Result.Cycles, j.Result.Committed
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		n.stop()
		return nil, err
	}
	return st, nil
}

// hit submits catalogue spec idx and checks the reply: it must be a
// finished job served from the cache with the result set-up computed.
func (st *serveState) hit(cl *client.Client, idx int, full bool, chk *checker) (time.Duration, uint64) {
	start := time.Now()
	j, err := cl.Submit(context.Background(), st.cat[idx])
	took := time.Since(start)
	switch {
	case err != nil:
		chk.op(false, "submit spec %d: %v", idx, err)
		return took, 0
	case j.State != "done" || !j.Cached || j.Result == nil:
		chk.op(false, "spec %d: state=%s cached=%v result=%v, want a cached done job", idx, j.State, j.Cached, j.Result != nil)
		return took, 0
	case j.Key != st.keys[idx] || j.Result.Cycles != st.cycles[idx] || j.Result.Committed != st.insts[idx]:
		chk.op(false, "spec %d: reply is not the set-up result (key %s, %d cycles)", idx, j.Key, j.Result.Cycles)
		return took, 0
	}
	if full {
		got, _ := json.Marshal(j.Result)
		if !bytes.Equal(got, st.want[idx]) {
			chk.op(false, "spec %d: result bytes differ from the set-up result", idx)
			return took, 0
		}
	}
	chk.op(true, "")
	return took, j.Result.Committed
}

// load is the outcome of one closed-loop phase.
type load struct {
	wall time.Duration
	jobs []finished
}

func (l load) jobsPerS() float64 { return float64(len(l.jobs)) / l.wall.Seconds() }

func (l load) latencies() []float64 {
	out := make([]float64, len(l.jobs))
	for i, j := range l.jobs {
		out[i] = j.latency
	}
	return out
}

// drive runs one closed-loop client per stream for d, each following its
// own seeded request sequence.
func (st *serveState) drive(streams []*requestStream, d time.Duration, chk *checker, each func(took time.Duration)) load {
	parts := make([][]finished, len(streams))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, hangUp := dial(st.node.url)
			defer hangUp()
			for n := 0; time.Since(start) < d; n++ {
				took, insts := st.hit(cl, streams[c].next(), n%fullCheckEvery == 0, chk)
				parts[c] = append(parts[c], finished{at: time.Since(start).Seconds(), latency: ms(took), insts: insts})
				if each != nil {
					each(took)
				}
			}
		}(c)
	}
	wg.Wait()
	l := load{wall: time.Since(start)}
	for _, p := range parts {
		l.jobs = append(l.jobs, p...)
	}
	return l
}

func (st *serveState) streams(seed int64, n int) []*requestStream {
	out := make([]*requestStream, n)
	for c := range out {
		out[c] = newRequestStream(seed, c, len(st.cat))
	}
	return out
}

// serveWindow is the slice length of serve-hot's timed phase: a few
// thousand hits each.
const serveWindow = 0.5

func measureServe(env *runEnv, chk *checker) (map[string]float64, error) {
	st, setupS, err := repeatSetup(func() (*serveState, error) { return setupServe(env) }, func(s *serveState) { s.node.stop() })
	if err != nil {
		return nil, err
	}
	defer st.node.stop()
	if env.traced {
		return traceServe(env, st, chk)
	}
	l := st.drive(st.streams(env.seed, numClients), env.duration(), chk, nil)
	env.note("jobs", len(l.jobs))
	values := sliceMetrics(windows(l.jobs, env.window(serveWindow)))
	values["setup_s"] = setupS
	return values, nil
}
