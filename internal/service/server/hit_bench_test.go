package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"slacksim/internal/durable"
	"slacksim/internal/spec"
)

// BenchmarkSubmitHit times POST /v1/jobs answered from the result cache,
// through Handler with no sockets: request decode, spec normalization and
// key, the cache lookup, and the reply. mem hits the memory tier every
// time. disk alternates two specs over a one-entry memory tier, so every
// lookup misses it and is served from the store.
func BenchmarkSubmitHit(b *testing.B) {
	b.Run("mem", func(b *testing.B) {
		benchSubmitHit(b, Config{Workers: 1}, testSpec())
	})
	b.Run("disk", func(b *testing.B) {
		store, err := durable.OpenStore(filepath.Join(b.TempDir(), "store"), durable.StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		other := testSpec()
		other.Seed = 2
		benchSubmitHit(b, Config{Workers: 1, Cache: durable.NewResultCache(store, 1)}, testSpec(), other)
	})
}

func benchSubmitHit(b *testing.B, cfg Config, specs ...spec.Spec) {
	h := New(cfg).Handler()
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		bodies[i], _ = json.Marshal(sp)
		rec := post(h, bodies[i])
		var j struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil || rec.Code != http.StatusAccepted {
			b.Fatalf("fill spec %d: status %d: %s", i, rec.Code, rec.Body)
		}
		waitDone(b, h, j.ID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(h, bodies[i%len(bodies)]); rec.Code != http.StatusOK {
			b.Fatalf("hit: status %d: %s", rec.Code, rec.Body)
		}
	}
}

func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	return rec
}

// waitDone polls job id until it is done.
func waitDone(b *testing.B, h http.Handler, id string) {
	url := "/v1/jobs/" + id
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		var v struct {
			State string `json:"state"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &v)
		switch v.State {
		case "done":
			return
		case "failed", "cancelled":
			b.Fatalf("fill job %s: %s", url, rec.Body)
		}
	}
	b.Fatalf("fill job %s did not finish", url)
}
