package main

import (
	"reflect"
	"testing"
)

func catalogueKeys(seed int64) []string {
	var keys []string
	for _, sp := range catalogue(seed, 32) {
		keys = append(keys, sp.Key())
	}
	return keys
}

func requestOrder(seed int64, client int) []int {
	s := newRequestStream(seed, client, 256)
	out := make([]int, 500)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func fleetKeys(seed int64) []string {
	s := newFleetStream(seed, streamFleet)
	out := make([]string, 100)
	for i := range out {
		out[i] = s.next().Key()
	}
	return out
}

func engineSeeds(t *testing.T, workload string, seed int64) []int64 {
	jobs, err := engineJobs(workload, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for _, j := range jobs {
		out = append(out, j.cfg.Seed)
	}
	return out
}

// Same seed, same inputs in the same order; another seed, other inputs.
func TestGeneratorsAreDeterministic(t *testing.T) {
	for name, gen := range map[string]func(seed int64) any{
		"catalogue":     func(s int64) any { return catalogueKeys(s) },
		"request order": func(s int64) any { return requestOrder(s, 0) },
		"fleet stream":  func(s int64) any { return fleetKeys(s) },
		"engine seeds":  func(s int64) any { return engineSeeds(t, "engine-slack", s) },
	} {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 generated two different sequences", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same sequence", name)
		}
	}
	if reflect.DeepEqual(requestOrder(7, 0), requestOrder(7, 1)) {
		t.Error("the two clients follow the same request order")
	}
}

func TestGeneratedSpecsAreValidAndDistinct(t *testing.T) {
	seen := map[string]bool{}
	check := func(what string, keys []string) {
		for _, k := range keys {
			if seen[k] {
				t.Errorf("%s: spec key %s generated twice", what, k)
			}
			seen[k] = true
		}
	}
	check("catalogue", catalogueKeys(3))
	check("fleet stream", fleetKeys(3))
	for _, sp := range catalogue(3, 32) {
		if err := sp.Validate(); err != nil {
			t.Errorf("catalogue spec invalid: %v", err)
		}
	}
	s := newFleetStream(3, streamFleet)
	for i := 0; i < 48; i++ {
		if err := s.next().Validate(); err != nil {
			t.Errorf("fleet spec invalid: %v", err)
		}
	}
}

// The request stream must lean on a head of popular specs yet reach the
// whole catalogue, or serve-hot would exercise only one cache tier.
func TestRequestStreamIsSkewed(t *testing.T) {
	count := make([]int, 256)
	s := newRequestStream(1, 0, 256)
	const n = 20000
	for i := 0; i < n; i++ {
		count[s.next()]++
	}
	head := 0
	for _, c := range count[:64] {
		head += c
	}
	if share := float64(head) / n; share < 0.6 || share > 0.9 {
		t.Errorf("the 64 most popular specs draw %.0f%% of requests, want 60-90%%", 100*share)
	}
	if count[255] == 0 {
		t.Error("the least popular spec is never requested")
	}
}
