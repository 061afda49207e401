package proto

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/sim"
)

func newTestEstimator() *rttEstimator {
	return newRTTEstimator(2*time.Millisecond, 200*time.Microsecond, 100*time.Millisecond)
}

func TestRTTFirstSampleSeedsRFC6298(t *testing.T) {
	e := newTestEstimator()
	if got := e.RTO(); got != 2*time.Millisecond {
		t.Fatalf("pre-sample RTO = %v, want the initial 2ms", got)
	}
	e.Observe(400 * time.Microsecond)
	if e.SRTT() != 400*time.Microsecond {
		t.Errorf("SRTT = %v, want R", e.SRTT())
	}
	if e.RTTVar() != 200*time.Microsecond {
		t.Errorf("RTTVAR = %v, want R/2", e.RTTVar())
	}
	// RTO = SRTT + 4·RTTVAR = 400µs + 800µs.
	if e.RTO() != 1200*time.Microsecond {
		t.Errorf("RTO = %v, want 1.2ms", e.RTO())
	}
}

func TestRTTSubsequentSamplesSmooth(t *testing.T) {
	e := newTestEstimator()
	e.Observe(400 * time.Microsecond)
	e.Observe(800 * time.Microsecond)
	// RTTVAR = 3/4·200µs + 1/4·|400−800|µs = 250µs
	// SRTT   = 7/8·400µs + 1/8·800µs = 450µs
	if e.RTTVar() != 250*time.Microsecond {
		t.Errorf("RTTVAR = %v, want 250µs", e.RTTVar())
	}
	if e.SRTT() != 450*time.Microsecond {
		t.Errorf("SRTT = %v, want 450µs", e.SRTT())
	}
	if e.RTO() != 450*time.Microsecond+4*250*time.Microsecond {
		t.Errorf("RTO = %v, want SRTT+4·RTTVAR", e.RTO())
	}
}

func TestRTTGranularityFloorsVarianceTerm(t *testing.T) {
	e := newTestEstimator()
	// A perfectly steady RTT decays RTTVAR toward zero; the variance
	// term must floor at the clock granularity, not collapse onto SRTT.
	for i := 0; i < 64; i++ {
		e.Observe(500 * time.Microsecond)
	}
	if e.RTTVar() >= rttGranularity/4 {
		t.Fatalf("RTTVAR = %v did not decay below G/4", e.RTTVar())
	}
	if got := e.RTO(); got != e.SRTT()+rttGranularity {
		t.Errorf("RTO = %v, want SRTT+G = %v", got, e.SRTT()+rttGranularity)
	}
}

func TestRTTClampsToMinAndMax(t *testing.T) {
	e := newTestEstimator()
	e.Observe(10 * time.Microsecond) // RTO would be 50µs, below the floor
	if e.RTO() != 200*time.Microsecond {
		t.Errorf("RTO = %v, want the 200µs floor", e.RTO())
	}
	e.Observe(time.Second) // RTO would explode past the ceiling
	if e.RTO() != 100*time.Millisecond {
		t.Errorf("RTO = %v, want the 100ms ceiling", e.RTO())
	}
}

func TestRTTBackoffDoublesAndCaps(t *testing.T) {
	e := newTestEstimator()
	e.Observe(400 * time.Microsecond) // RTO 1.2ms
	want := 1200 * time.Microsecond
	for i := 0; i < 10; i++ {
		e.Backoff()
		want *= 2
		if want > 100*time.Millisecond {
			want = 100 * time.Millisecond
		}
		if e.RTO() != want {
			t.Fatalf("backoff %d: RTO = %v, want %v", i+1, e.RTO(), want)
		}
	}
	// The next accepted sample recomputes from SRTT/RTTVAR, leaving the
	// backed-off value behind.
	e.Observe(400 * time.Microsecond)
	if e.RTO() >= 100*time.Millisecond {
		t.Errorf("RTO = %v still at the ceiling after a fresh sample", e.RTO())
	}
}

func TestRTTKarnRuleRevokesRetransmittedStamps(t *testing.T) {
	e := newTestEstimator()
	e.Sent(1, sim.Time(1000))
	e.Retransmitted(1)
	if _, ok := e.Acked(1, sim.Time(500_000)); ok {
		t.Fatal("ack of a retransmitted segment produced a sample (Karn violation)")
	}
	if e.Samples() != 0 {
		t.Fatalf("samples = %d after a Karn-ambiguous ack", e.Samples())
	}

	// A never-retransmitted segment samples normally.
	e.Sent(2, sim.Time(2000))
	sample, ok := e.Acked(2, sim.Time(2000+int64(300*time.Microsecond)))
	if !ok || sample != 300*time.Microsecond {
		t.Fatalf("Acked = (%v, %v), want a 300µs sample", sample, ok)
	}
	// The stamp is consumed: a duplicate ack cannot double-sample.
	if _, ok := e.Acked(2, sim.Time(9_999_999)); ok {
		t.Fatal("duplicate ack produced a second sample")
	}
}

func TestRTTNegativeSampleRejected(t *testing.T) {
	e := newTestEstimator()
	e.Sent(3, sim.Time(5000))
	if _, ok := e.Acked(3, sim.Time(4000)); ok {
		t.Fatal("negative round-trip accepted as a sample")
	}
	if e.Samples() != 0 {
		t.Fatalf("samples = %d", e.Samples())
	}
}

// TestAdaptiveRDPMaxRetriesStillFails pins the interaction between the
// RTT-estimated timer and the retry cap: a dead peer must still
// terminate the session with ErrMaxRetries — the adaptive timer changes
// the pacing of the barren rounds, not the cap's semantics.
func TestAdaptiveRDPMaxRetriesStillFails(t *testing.T) {
	sp := newLossyStackPair(t, 1.0, 11) // every A→B cell lost
	rA := NewRDP(sp.hA, sp.ipA)
	sess, err := rA.Open(RDPOpen{
		Remote: 2, VCI: 10, Window: 2, MaxRetries: 6,
		RetransmitTimeout: time.Millisecond, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := sess.(*rdpSession)
	var pushErr error
	sp.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			m, _ := msg.FromBytes(sp.hA.Kernel, pattern(500, byte(i)))
			if pushErr = tx.Push(p, m); pushErr != nil {
				break
			}
		}
		tx.WaitAcked(p)
	})
	sp.eng.Run()
	sp.eng.Shutdown()
	if !errors.Is(pushErr, ErrMaxRetries) {
		t.Fatalf("blocked Push returned %v, want ErrMaxRetries", pushErr)
	}
	if !errors.Is(tx.Err(), ErrMaxRetries) {
		t.Fatalf("Err() = %v, want ErrMaxRetries", tx.Err())
	}
	st := rA.Stats()
	if st.Failed != 1 {
		t.Errorf("Failed = %d, want 1", st.Failed)
	}
	if len(rA.adaptive) != 0 {
		t.Errorf("failed session still counted among %d live adaptive sessions", len(rA.adaptive))
	}
	// No ack ever arrived, so Karn's rule must have kept the estimator
	// sample-free: every in-flight segment was retransmitted.
	if st.RTTSamples != 0 {
		t.Errorf("RTTSamples = %d from a dead peer", st.RTTSamples)
	}
}

// TestAdaptiveRDPRecoversFromLossWithSamples checks the live half: under
// moderate loss the adaptive session delivers everything in order while
// the estimator accumulates samples from the clean exchanges.
func TestAdaptiveRDPRecoversFromLossWithSamples(t *testing.T) {
	sp := newLossyStackPair(t, 0.01, 7)
	rA := NewRDP(sp.hA, sp.ipA)
	rB := NewRDP(sp.hB, sp.ipB)
	a, err := rA.Open(RDPOpen{Remote: 2, VCI: 10, Window: 4, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rB.Open(RDPOpen{Remote: 1, VCI: 10, Window: 4, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := a.(*rdpSession), b.(*rdpSession)
	const n = 16
	var got [][]byte
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		data, _ := m.Bytes()
		got = append(got, data)
	})
	sp.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, _ := msg.FromBytes(sp.hA.Kernel, pattern(3000, byte(i)))
			if err := tx.Push(p, m); err != nil {
				t.Error(err)
				return
			}
		}
		tx.WaitAcked(p)
	})
	sp.eng.Run()
	sp.eng.Shutdown()
	if len(got) != n {
		t.Fatalf("delivered %d/%d", len(got), n)
	}
	for i, data := range got {
		if !bytes.Equal(data, pattern(3000, byte(i))) {
			t.Fatalf("message %d corrupted or reordered", i)
		}
	}
	st := rA.Stats()
	if st.Retransmits == 0 {
		t.Error("no retransmits under 1% cell loss — the loss injector is off")
	}
	if st.RTTSamples == 0 {
		t.Error("no RTT samples accumulated by a live adaptive session")
	}
}

// TestAdaptiveRDPCloseReleasesSession opens and closes adaptive
// sessions on one RDP: each close must drop the session from the
// cwnd/ssthresh gauges and return its retransmitter proc to the pool,
// so neither the tracked set nor the goroutine count grows.
func TestAdaptiveRDPCloseReleasesSession(t *testing.T) {
	sp := newLossyStackPair(t, 0, 5)
	defer sp.eng.Shutdown()
	reg := metrics.New()
	rA := NewRDP(sp.hA, sp.ipA)
	rA.RegisterMetrics(reg, "A/rdp")
	cycle := func() {
		s, err := rA.Open(RDPOpen{Remote: 2, VCI: 10, Window: 4, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		sp.eng.Run() // the retransmitter starts and blocks
		s.Close()
		sp.eng.Run() // it sees the close and returns
	}
	cycle() // warm the proc pool
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		cycle()
	}
	if n := len(rA.adaptive); n != 0 {
		t.Errorf("%d closed sessions still tracked as adaptive", n)
	}
	for _, name := range []string{"A/rdp/cwnd_segments", "A/rdp/ssthresh_segments"} {
		if v, ok := reg.Get(name); !ok || v.Value != 0 {
			t.Errorf("%s = %+v after every session closed, want 0", name, v)
		}
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Errorf("goroutines grew from %d to %d over 50 open/close cycles", base, n)
	}
}
