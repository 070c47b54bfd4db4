package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"slacksim"
	"slacksim/client"
	"slacksim/internal/durable"
	"slacksim/internal/spec"
)

// recordingRunner runs RealRunner and keeps the Results each run returned.
type recordingRunner struct {
	mu   sync.Mutex
	runs []*slacksim.Results
}

func (r *recordingRunner) run(rc RunContext) (*slacksim.Results, error) {
	res, err := RealRunner(rc)
	if err == nil {
		r.mu.Lock()
		r.runs = append(r.runs, res)
		r.mu.Unlock()
	}
	return res, err
}

// legacyView is the job view as the server encoded it when it held
// *slacksim.Results: the result a typed member, re-encoded per reply.
type legacyView struct {
	ID        string             `json:"id"`
	State     string             `json:"state"`
	Key       string             `json:"key"`
	Spec      spec.Spec          `json:"spec"`
	Cached    bool               `json:"cached,omitempty"`
	Coalesced bool               `json:"coalesced,omitempty"`
	Progress  *slacksim.Progress `json:"progress,omitempty"`
	Result    *slacksim.Results  `json:"result,omitempty"`
	Error     string             `json:"error,omitempty"`
}

// legacyJob decodes what the typed view of job id would have been, with
// res as its result, into a client.Job.
func legacyJob(t *testing.T, s *Server, id string, cached bool, res *slacksim.Results) client.Job {
	t.Helper()
	j, ok := s.queue.Get(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	v := legacyView{ID: j.ID, State: j.State().String(), Key: j.Key, Spec: j.Payload.(spec.Spec), Cached: cached, Result: res}
	if p, ok := j.LastEvent().(slacksim.Progress); ok {
		v.Progress = &p
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var out client.Job
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkReply requires body to be one compact JSON job view and returns
// its result member's bytes as sent, with the whole reply decoded.
func checkReply(t *testing.T, where string, body []byte) (json.RawMessage, client.Job) {
	t.Helper()
	body = bytes.TrimSuffix(body, []byte("\n"))
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatalf("%s: reply is not JSON: %v", where, err)
	}
	if !bytes.Equal(compact.Bytes(), body) {
		t.Fatalf("%s: reply is not compact JSON:\n%s", where, body)
	}
	var raw struct {
		Result json.RawMessage `json:"result"`
	}
	var job client.Job
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	return raw.Result, job
}

func httpDo(t *testing.T, hc *http.Client, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestResultBytesIdenticalOnEveryPath: the result member of a finished
// job's GET, a memory-tier hit, a disk-tier hit and the SSE terminal
// event are all json.Marshal of the Results the runner returned, byte
// for byte, and each whole reply decodes into the client.Job the typed
// view would have produced.
func TestResultBytesIdenticalOnEveryPath(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	store, err := durable.OpenStore(filepath.Join(t.TempDir(), "store"), durable.StoreOptions{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	rr := &recordingRunner{}
	s := New(Config{Workers: 1, QueueDepth: 4, Runner: rr.run, Cache: durable.NewResultCache(store, 16)})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.NewWithHTTPClient(hs.URL, hs.Client())
	sp := testSpec()
	body, _ := json.Marshal(sp)

	fresh, err := c.SubmitWait(ctx, sp, 5*time.Millisecond)
	if err != nil || fresh.State != "done" {
		t.Fatalf("fresh run: %+v, %v", fresh, err)
	}
	if len(rr.runs) != 1 {
		t.Fatalf("runner ran %d times, want 1", len(rr.runs))
	}
	res := rr.runs[0]
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	check := func(where string, srv *Server, id string, cached bool, body []byte) {
		t.Helper()
		got, job := checkReply(t, where, body)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: result bytes differ from json.Marshal of the run's Results:\n got %s\nwant %s", where, got, want)
		}
		if legacy := legacyJob(t, srv, id, cached, res); !reflect.DeepEqual(job, legacy) {
			t.Errorf("%s: reply decodes to %+v, the typed view to %+v", where, job, legacy)
		}
	}

	code, got := httpDo(t, hs.Client(), http.MethodGet, hs.URL+"/v1/jobs/"+fresh.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("GET: %d %s", code, got)
	}
	check("GET of the finished job", s, fresh.ID, false, got)

	before := s.cache.Stats().Hits
	code, got = httpDo(t, hs.Client(), http.MethodPost, hs.URL+"/v1/jobs", body)
	if code != http.StatusOK || s.cache.Stats().Hits != before+1 {
		t.Fatalf("memory hit: %d %s", code, got)
	}
	var hit client.Job
	_ = json.Unmarshal(got, &hit)
	check("memory-tier hit", s, hit.ID, true, got)

	var terminal int
	if err := c.Events(ctx, fresh.ID, func(ev client.Event) error {
		if ev.Name != "progress" {
			terminal++
			check("SSE terminal event", s, fresh.ID, false, ev.Data)
		}
		return nil
	}); err != nil || terminal != 1 {
		t.Fatalf("events: %d terminal, %v", terminal, err)
	}

	// A fresh cache over the same store: its memory tier is empty, so the
	// hit is served from disk.
	s2 := New(Config{Workers: 1, QueueDepth: 4, Runner: rr.run, Cache: durable.NewResultCache(store, 16)})
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	storeHits := store.Stats().Hits
	code, got = httpDo(t, hs2.Client(), http.MethodPost, hs2.URL+"/v1/jobs", body)
	if code != http.StatusOK || store.Stats().Hits != storeHits+1 {
		t.Fatalf("disk hit: %d %s", code, got)
	}
	_ = json.Unmarshal(got, &hit)
	check("disk-tier hit", s2, hit.ID, true, got)
	if len(rr.runs) != 1 {
		t.Fatalf("a hit ran the engine (%d runs)", len(rr.runs))
	}
}

// TestSubmitBodyOverCapIs413: a submit body past maxSpecBody is refused
// with 413 and the usual error body, and the next submission is served.
func TestSubmitBodyOverCapIs413(t *testing.T) {
	g := newGatedRunner()
	hs := httptest.NewServer(New(Config{Workers: 1, QueueDepth: 4, Runner: g.run}).Handler())
	defer hs.Close()
	c := client.NewWithHTTPClient(hs.URL, hs.Client())

	huge := append([]byte(`{"workload":"fft","pad":"`), bytes.Repeat([]byte("x"), maxSpecBody)...)
	huge = append(huge, `"}`...)
	code, got := httpDo(t, hs.Client(), http.MethodPost, hs.URL+"/v1/jobs", huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap body: status %d, want 413: %.200s", code, got)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(got, &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("over-cap body: error body %q (%v)", got, err)
	}

	g.release <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := c.SubmitWait(ctx, testSpec(), 5*time.Millisecond)
	if err != nil || j.State != "done" || j.Result == nil {
		t.Fatalf("submit after a 413: %+v, %v", j, err)
	}
}

// TestUndecodableStoreRecordIsDroppedAndReRun: a store record that passes
// its CRC but is not a Results is never served. The lookup counts as a
// miss, the submission runs the engine, and the run's result replaces the
// record.
func TestUndecodableStoreRecordIsDroppedAndReRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	store, err := durable.OpenStore(filepath.Join(t.TempDir(), "store"), durable.StoreOptions{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sp := testSpec()
	key := sp.Normalize().Key()
	if err := store.Put(key, []byte(`["not","a","result"]`)); err != nil {
		t.Fatal(err)
	}

	cache := durable.NewResultCache(store, 16)
	if blob, ok := cache.Get(key); ok {
		t.Fatalf("undecodable record served: %s", blob)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("after the bad record: cache stats %+v, want one miss and nothing promoted", st)
	}

	g := newGatedRunner()
	g.release <- struct{}{}
	s, c := startServer(t, Config{Workers: 1, QueueDepth: 4, Runner: g.run, Cache: cache})
	j, err := c.SubmitWait(ctx, sp, 5*time.Millisecond)
	if err != nil || j.State != "done" || j.Cached || j.Result == nil || j.Result.Cycles != 42 {
		t.Fatalf("submission over the bad record: %+v, %v", j, err)
	}
	if got := s.runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want the bad record re-run once", got)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses < 2 {
		t.Fatalf("cache stats %+v, want the submission's lookup a miss and no hit", st)
	}
	blob, ok := store.Get(key)
	var res slacksim.Results
	if !ok || json.Unmarshal(blob, &res) != nil || res.Cycles != 42 {
		t.Fatalf("store after the re-run holds %s, want the run's result", blob)
	}
}
