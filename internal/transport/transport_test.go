package transport

import (
	"net/http"
	"sync"
	"testing"
)

func TestMetadataIsZero(t *testing.T) {
	if !(Metadata{}).IsZero() {
		t.Fatal("empty metadata should be zero")
	}
	cases := []Metadata{
		{DeviceID: "d"},
		{Addr: "1.2.3.4"},
		{SentAt: 1},
	}
	for i, m := range cases {
		if m.IsZero() {
			t.Fatalf("case %d should not be zero", i)
		}
	}
}

func TestBusSendReceive(t *testing.T) {
	b := NewBus(4)
	e := Envelope{Meta: Metadata{DeviceID: "d1"}, Tuple: Tuple{Code: 3, Action: 1, Reward: 0.5}}
	if err := b.Send(e); err != nil {
		t.Fatal(err)
	}
	got := <-b.Receive()
	if got.Tuple.Code != 3 || got.Meta.DeviceID != "d1" {
		t.Fatalf("received %+v", got)
	}
}

func TestBusCloseStopsSends(t *testing.T) {
	b := NewBus(1)
	b.Close()
	if err := b.Send(Envelope{}); err != ErrClosed {
		t.Fatalf("Send after Close: %v, want ErrClosed", err)
	}
	// Idempotent close must not panic.
	b.Close()
	// Receive channel must be closed.
	if _, ok := <-b.Receive(); ok {
		t.Fatal("receive channel should be closed")
	}
}

func TestBusDrainsBufferedAfterClose(t *testing.T) {
	b := NewBus(2)
	if err := b.Send(Envelope{Tuple: Tuple{Code: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(Envelope{Tuple: Tuple{Code: 2}}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	var codes []int
	for e := range b.Receive() {
		codes = append(codes, e.Tuple.Code)
	}
	if len(codes) != 2 || codes[0] != 1 || codes[1] != 2 {
		t.Fatalf("drained %v", codes)
	}
}

func TestBusTrySend(t *testing.T) {
	b := NewBus(1)
	if !b.TrySend(Envelope{}) {
		t.Fatal("TrySend into empty buffer failed")
	}
	if b.TrySend(Envelope{}) {
		t.Fatal("TrySend into full buffer succeeded")
	}
	<-b.Receive()
	if !b.TrySend(Envelope{}) {
		t.Fatal("TrySend after drain failed")
	}
	b.Close()
	// Drain the remaining one so the channel closes cleanly.
	for range b.Receive() {
	}
	if b.TrySend(Envelope{}) {
		t.Fatal("TrySend after close succeeded")
	}
}

func TestBusConcurrentProducers(t *testing.T) {
	b := NewBus(64)
	const producers, each = 8, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := b.Send(Envelope{Tuple: Tuple{Code: p}}); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	done := make(chan int)
	go func() {
		n := 0
		for range b.Receive() {
			n++
		}
		done <- n
	}()
	wg.Wait()
	b.Close()
	if n := <-done; n != producers*each {
		t.Fatalf("received %d envelopes, want %d", n, producers*each)
	}
}

func TestNewBusNegativeBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBus(-1) did not panic")
		}
	}()
	NewBus(-1)
}

func TestRetryableStatus(t *testing.T) {
	for _, tc := range []struct {
		status int
		want   bool
	}{
		{http.StatusTooManyRequests, true},
		{http.StatusRequestTimeout, true},
		{http.StatusInternalServerError, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusBadRequest, false},
		{http.StatusUnauthorized, false},
		{http.StatusNotFound, false},
		{http.StatusRequestEntityTooLarge, false},
		{http.StatusAccepted, false},
	} {
		if got := RetryableStatus(tc.status); got != tc.want {
			t.Errorf("RetryableStatus(%d) = %v, want %v", tc.status, got, tc.want)
		}
	}
}
