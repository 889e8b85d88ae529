package httpapi

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

// The full closed -> open -> half-open -> closed walk, on a fake clock.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	cb := NewCircuitBreaker(BreakerConfig{
		FailureThreshold: 2,
		OpenFor:          time.Minute,
		now:              func() time.Time { return now },
	})

	if !cb.Allow() {
		t.Fatal("fresh breaker refused a request")
	}
	cb.Record(false)
	if got := cb.State(); got != BreakerClosed {
		t.Fatalf("state after 1 failure = %v, want closed (threshold is 2)", got)
	}
	if !cb.Allow() {
		t.Fatal("closed breaker refused a request")
	}
	cb.Record(false)
	if got := cb.State(); got != BreakerOpen {
		t.Fatalf("state after 2 failures = %v, want open", got)
	}

	// Open: refused until the cooldown elapses.
	if cb.Allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	now = now.Add(59 * time.Second)
	if cb.Allow() {
		t.Fatal("open breaker admitted a request 1s before the cooldown ends")
	}
	now = now.Add(time.Second)

	// Cooldown over: exactly one probe goes through.
	if !cb.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if got := cb.State(); got != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if cb.Allow() {
		t.Fatal("half-open breaker admitted a second request while the probe is in flight")
	}

	// Probe fails: re-open immediately, new cooldown from now.
	cb.Record(false)
	if got := cb.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if cb.Allow() {
		t.Fatal("re-opened breaker admitted a request without a new cooldown")
	}

	// Second probe succeeds: closed, failure run zeroed.
	now = now.Add(time.Minute)
	if !cb.Allow() {
		t.Fatal("second probe refused")
	}
	cb.Record(true)
	if got := cb.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	st := cb.Stats()
	if st.Failures != 0 || st.Opens != 2 || st.Rejected != 4 {
		t.Fatalf("stats = %+v, want failures=0 opens=2 rejected=4", st)
	}
}

// A nil breaker is a no-op: everything is admitted, nothing panics.
func TestBreakerNilIsNoop(t *testing.T) {
	var cb *CircuitBreaker
	if !cb.Allow() {
		t.Fatal("nil breaker refused a request")
	}
	cb.Record(false)
	if got := cb.State(); got != BreakerClosed {
		t.Fatalf("nil breaker state = %v, want closed", got)
	}
	if st := cb.Stats(); st.State != "closed" {
		t.Fatalf("nil breaker stats = %+v", st)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if got := parseRetryAfter(""); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	if got := parseRetryAfter("7"); got != 7*time.Second {
		t.Errorf("\"7\" = %v, want 7s", got)
	}
	if got := parseRetryAfter("-3"); got != 0 {
		t.Errorf("negative seconds = %v, want 0", got)
	}
	if got := parseRetryAfter("soon"); got != 0 {
		t.Errorf("garbage = %v, want 0", got)
	}
	// HTTP-date form: a date in the future yields a positive delay, one in
	// the past yields zero.
	future := time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got < 59*time.Minute || got > time.Hour {
		t.Errorf("future date = %v, want ~1h", got)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(past); got != 0 {
		t.Errorf("past date = %v, want 0", got)
	}
}

// A shed batch (429 + Retry-After) is retried — adopting the server's
// hint as the backoff base, capped by MaxRetryDelay — and delivered in
// full once the node admits it.
func TestBatchingClientRetries429HonoringRetryAfter(t *testing.T) {
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
	inner := NewShufflerHandler(shuf)
	var sheds atomic.Int32
	sheds.Store(1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/reports" && sheds.Add(-1) >= 0 {
			w.Header().Set("Retry-After", "1") // way beyond the client's cap
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	bc := NewBatchingClient(NewClient(ts.URL, ""), BatchingConfig{
		MaxBatch: 4, MaxAge: time.Hour, MaxRetries: 3,
		RetryBase: time.Millisecond, MaxRetryDelay: 20 * time.Millisecond,
	})
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := bc.Report(transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	// Flush, not Close: Close collapses backoff sleeps, which is exactly
	// the wait this test needs to observe.
	if err := bc.Flush(); err != nil {
		t.Fatalf("flush after a shed batch: %v", err)
	}
	elapsed := time.Since(start)
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	// The adopted 1s hint is jittered to >= 500ms and then capped at 20ms:
	// the wait is observable but bounded.
	if elapsed < 10*time.Millisecond {
		t.Fatalf("delivered in %v — the Retry-After hint was not honored", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("delivery took %v — MaxRetryDelay did not cap the 1s hint", elapsed)
	}
	st := bc.Stats()
	if st.Batches != 1 || st.Retries != 1 || st.DroppedBatches != 0 {
		t.Fatalf("stats %+v, want 1 batch delivered on 1 retry", st)
	}
	if got := shuf.Stats().Received; got != 4 {
		t.Fatalf("shuffler received %d, want all 4 shed-then-retried reports", got)
	}
}

// Close collapses backoff: a client stuck in a long retry ladder against
// a dead node drains in attempt time, not accumulated sleep time.
func TestBatchingClientCloseCollapsesBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	bc := NewBatchingClient(NewClient(ts.URL, ""), BatchingConfig{
		MaxBatch: 1, MaxAge: time.Hour, MaxRetries: 3, RetryBase: 10 * time.Second,
	})
	if err := bc.Report(transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := bc.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("close took %v against a 10s retry base — backoff was not collapsed", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "status 503") {
		t.Fatalf("close error = %v, want the sticky 503", err)
	}
	if st := bc.Stats(); st.DroppedBatches != 1 || st.Retries != 3 {
		t.Fatalf("stats %+v, want the full attempt budget spent", st)
	}
}

// An open breaker fails sends fast and locally: the node sees zero
// requests, and the abandonment error says why.
func TestBatchingClientBreakerFailsFast(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	cb := NewCircuitBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour})
	cb.Record(false) // the model-sync path already learned the node is down

	bc := NewBatchingClient(NewClient(ts.URL, ""), BatchingConfig{
		MaxBatch: 1, MaxAge: time.Hour, MaxRetries: 2,
		RetryBase: time.Millisecond, Breaker: cb,
	})
	if err := bc.Report(transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}}); err != nil {
		t.Fatal(err)
	}
	err := bc.Close()
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("close error = %v, want ErrBreakerOpen", err)
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("node saw %d requests through an open breaker, want 0", got)
	}
	if st := bc.Stats(); st.DroppedBatches != 1 || st.DroppedReports != 1 {
		t.Fatalf("stats %+v, want the batch abandoned", st)
	}
}

// Consecutive send failures open the shared breaker, and a probe after
// the cooldown closes it again — end to end through the batching client.
func TestBatchingClientBreakerOpensAndRecovers(t *testing.T) {
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
	inner := NewShufflerHandler(shuf)
	var failures atomic.Int32
	failures.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/reports" && failures.Add(-1) >= 0 {
			http.Error(w, "melting", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cb := NewCircuitBreaker(BreakerConfig{FailureThreshold: 2, OpenFor: 20 * time.Millisecond})
	bc := NewBatchingClient(NewClient(ts.URL, ""), BatchingConfig{
		MaxBatch: 1, MaxAge: time.Hour, MaxRetries: 8,
		RetryBase: 30 * time.Millisecond, Breaker: cb,
	})
	if err := bc.Report(transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}}); err != nil {
		t.Fatal(err)
	}
	// Flush keeps the backoff sleeps alive (Close would collapse them and
	// the cooldown could never elapse between attempts).
	if err := bc.Flush(); err != nil {
		t.Fatalf("flush: %v (breaker never recovered)", err)
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := cb.State(); got != BreakerClosed {
		t.Fatalf("breaker state after recovery = %v, want closed", got)
	}
	if st := cb.Stats(); st.Opens != 1 {
		t.Fatalf("breaker stats %+v, want exactly 1 open episode", st)
	}
	if got := shuf.Stats().Received; got != 1 {
		t.Fatalf("shuffler received %d, want the recovered report", got)
	}
}
