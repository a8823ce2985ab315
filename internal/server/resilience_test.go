package server

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"discovery/internal/fault"
	"discovery/internal/store"
)

// TestBrownoutFactorCurve pins the clamp curve: identity below the
// threshold, linear decay to MinFraction at full occupancy, monotone and
// continuous in between, and flat 1 when disabled.
func TestBrownoutFactorCurve(t *testing.T) {
	c := BrownoutConfig{Threshold: 0.75, MinFraction: 0.1}.withDefaults()
	for _, tc := range []struct {
		occupancy, want float64
	}{
		{0, 1},
		{0.5, 1},
		{0.75, 1},     // at the threshold: still full budget
		{0.875, 0.55}, // halfway down the ramp
		{1, 0.1},      // the floor
		{1.5, 0.1},    // occupancy can momentarily read past 1
	} {
		if got := c.factor(tc.occupancy); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("factor(%v) = %v, want %v", tc.occupancy, got, tc.want)
		}
	}
	prev := 2.0
	for o := 0.0; o <= 1.0; o += 0.01 {
		f := c.factor(o)
		if f > prev+1e-9 {
			t.Fatalf("factor not monotone at occupancy %v", o)
		}
		prev = f
	}
	off := BrownoutConfig{Disable: true}.withDefaults()
	if off.factor(1) != 1 {
		t.Fatal("disabled brownout still clamping")
	}
}

// TestBrownoutClampsBudget drives process with a saturated queue reading
// and asserts the clamp is applied, counted, and disclosed in the
// response diagnostics.
func TestBrownoutClampsBudget(t *testing.T) {
	st := store.NewMemory()
	s := New(Config{Store: st})
	defer func() { s.Close(); st.Close() }()

	req := &Request{Bench: "md5", Version: "seq"}
	resp, herr := s.process(context.Background(), req, 0, 1.0)
	if herr != nil {
		t.Fatalf("process under full occupancy: %+v", herr)
	}
	if resp.Diagnostics.BrownoutMS <= 0 {
		t.Fatalf("brownout clamp not disclosed: %+v", resp.Diagnostics)
	}
	if s.brownouts.Load() != 1 {
		t.Fatalf("brownouts counter %d, want 1", s.brownouts.Load())
	}

	// Below the threshold nothing is clamped.
	resp, herr = s.process(context.Background(), req, 0, 0.5)
	if herr != nil {
		t.Fatalf("process at half occupancy: %+v", herr)
	}
	if resp.Diagnostics.BrownoutMS != 0 || s.brownouts.Load() != 1 {
		t.Fatalf("clamp below threshold: diag %+v counter %d", resp.Diagnostics, s.brownouts.Load())
	}
}

// TestStatsDuringStoreOutage: /stats reads the store's size once from the
// bare store, so under an outage it answers without a Retry backoff, and it
// leaves /healthz store_failing to the gets and puts that keep failing.
func TestStatsDuringStoreOutage(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []string
	}{
		{"gets and puts fail", []string{"store.get", "store.put"}},
		{"every operation fails", []string{"store.get", "store.put", "store.len"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sleeps atomic.Int64
			retrySleep = func(time.Duration) { sleeps.Add(1) }
			t.Cleanup(func() { retrySleep = time.Sleep })
			spec := fault.PlanSpec{Name: tc.name}
			for _, op := range tc.ops {
				spec.Rules = append(spec.Rules, fault.Rule{Op: op, Every: 1, Action: fault.ActionError})
			}
			plan, err := fault.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			_, ts := newTestServer(t, Config{Store: plan.Store(store.NewMemory())})
			if _, code := analyze(t, ts, `{"bench":"md5","version":"seq"}`); code != 200 {
				t.Fatalf("request under store outage: status %d", code)
			}
			before := sleeps.Load()
			if before == 0 {
				t.Fatal("the request's failing store operations were not retried")
			}
			var stats statsJSON
			getJSON(t, ts, "/stats", &stats)
			if n := sleeps.Load() - before; n != 0 {
				t.Errorf("/stats slept %d Retry backoff(s) under the outage", n)
			}
			var health struct {
				Status       string `json:"status"`
				StoreFailing bool   `json:"store_failing"`
			}
			getJSON(t, ts, "/healthz", &health)
			if health.Status != "degraded" || !health.StoreFailing {
				t.Errorf("healthz after /stats under outage: %+v, want degraded with store_failing", health)
			}
		})
	}
}
