package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The per-miss record (flightCall: coalescing state, solve context and
// trace in one allocation) and the recycled cache entries.

// TestSolveContextDeadline: the solve context expires at its deadline
// whether or not anything ever asked for its channel — Err reads the
// clock — and a channel made afterwards is already closed.
func TestSolveContextDeadline(t *testing.T) {
	var c flightCall
	ctx := c.ctx.start(20 * time.Millisecond)
	if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > 20*time.Millisecond {
		t.Fatalf("Deadline() = %v, %v", dl, ok)
	}
	if err := ctx.Err(); err != nil {
		t.Fatalf("Err() = %v before the deadline", err)
	}
	if c.ctx.done != nil || c.ctx.timer != nil {
		t.Fatal("Err made a channel or armed a timer")
	}
	time.Sleep(25 * time.Millisecond)
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v after the deadline", err)
	}
	select {
	case <-ctx.Done():
	default:
		t.Fatal("Done() is open after Err reported the deadline")
	}
	c.stop() // finish's cancel after the deadline changes nothing
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v after a later cancel", err)
	}

	// Armed by Done, the timer closes the channel at the deadline.
	var d flightCall
	ctx = d.ctx.start(10 * time.Millisecond)
	select {
	case <-ctx.Done():
		if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err() = %v once Done closed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Done() never closed at the deadline")
	}
}

// TestSolveContextCancel: the last waiter's leave cancels the solve
// context, closing a channel made before or after, and running the
// AfterFunc callbacks not stopped; a stopped one never runs.
func TestSolveContextCancel(t *testing.T) {
	g := newFlightGroup()
	c, _ := g.join("k")
	ctx := c.ctx.start(time.Minute)
	done := ctx.Done()
	ran := make(chan string, 2)
	type afterFuncer interface {
		AfterFunc(func()) func() bool
	}
	af := ctx.(afterFuncer)
	af.AfterFunc(func() { ran <- "kept" })
	stop := af.AfterFunc(func() { ran <- "stopped" })
	if !stop() || stop() {
		t.Fatal("stop() did not report true once, then false")
	}
	g.leave("k", c)
	select {
	case <-done:
	default:
		t.Fatal("the last leave left Done() open")
	}
	if err := ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v after the last leave", err)
	}
	if got := <-ran; got != "kept" || len(ran) != 0 {
		t.Fatalf("callbacks ran: %q and %d more; want only the kept one", got, len(ran))
	}
	// Registered after the cancel, a callback still runs.
	af.AfterFunc(func() { ran <- "late" })
	if got := <-ran; got != "late" {
		t.Fatalf("late callback: %q", got)
	}
}

// TestSolveContextDerivedStartsNoGoroutine: a forward attempt's timeout
// context, derived from the solve context with context.WithTimeout,
// starts no goroutine to watch its parent — propagateCancel finds the
// solve context's AfterFunc — and still follows the parent's
// cancellation. Goroutine ids are handed out in sequence on a single P,
// so two probe goroutines started either side of the derivation differ
// by exactly one when nothing was started in between; anything else
// alive can only add to the count, so one clean attempt in five is
// proof. A parent with AfterFunc hidden is the control: context watches
// it with a goroutine, and the probe sees it.
func TestSolveContextDerivedStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	probe := func() int64 {
		ch := make(chan int64)
		go func() { ch <- goid() }()
		return <-ch
	}
	runtime.GC()
	derive := func(hide bool) int64 {
		started := int64(-1)
		for attempt := 0; attempt < 5 && started != 0; attempt++ {
			var c flightCall
			parent := c.ctx.start(time.Minute)
			if hide {
				parent = struct{ context.Context }{parent}
			}
			before := probe()
			actx, cancel := context.WithTimeout(parent, time.Minute)
			n := probe() - before - 1
			c.stop()
			select {
			case <-actx.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("the derived context outlived its parent's cancel")
			}
			if err := actx.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("derived Err() = %v, want the parent's cancel", err)
			}
			cancel()
			if started < 0 || n < started {
				started = n
			}
		}
		return started
	}
	if n := derive(false); n != 0 {
		t.Errorf("deriving a timeout context from the solve context started %d goroutine(s), want 0", n)
	}
	if n := derive(true); n < 1 {
		t.Errorf("the control started %d goroutines: the probe cannot see one", n)
	}
}

// TestRecycledEntriesStayApart runs a 4-entry cache through a run of
// evictions and checks that each insert reuses the entry the last one
// evicted, that the spare is never linked, and that every body a view
// handed out still reads as it did.
func TestRecycledEntriesStayApart(t *testing.T) {
	c := newSieveCache(4, 0)
	type served struct {
		body []byte
		want string
	}
	var views []served
	seen := map[*sieveEntry]bool{}
	for i := range 64 {
		key := fmt.Sprintf("k%d", i)
		c.Put(key, []byte(key+"-body"))
		if b, ok := c.view(key); ok {
			views = append(views, served{b, string(b)})
		}
		checkRecycling(t, c)
		for e := c.root.newer; e != &c.root; e = e.newer {
			seen[e] = true
		}
		for _, v := range views {
			if !bytes.Equal(v.body, []byte(v.want)) {
				t.Fatalf("a served body changed from %q to %q", v.want, v.body)
			}
		}
	}
	// 4 entries fill the cache, plus the one the first eviction frees;
	// every later insert reuses the last victim.
	if len(seen) > 5 {
		t.Errorf("%d distinct entries for 64 inserts into a 4-entry cache; the victims are not reused", len(seen))
	}
}

// TestRecycledEntriesConcurrent is the race detector's half: readers
// view values and raw keys while writers insert through a full cache,
// so entries are recycled under the readers' feet. A body read must
// always be the one its key was written with, and a raw key's canonical
// key the one it was remembered with.
func TestRecycledEntriesConcurrent(t *testing.T) {
	c := newSieveCache(8, 0)
	body := func(k int) []byte { return []byte(fmt.Sprintf("body-%d-%s", k, bytes.Repeat([]byte{'x'}, k%7))) }
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				k := (g*13 + i*7) % 40
				key := fmt.Sprint(k)
				switch i % 4 {
				case 0:
					c.Put(key, body(k))
				case 1:
					c.PutRef("raw"+key, 1+k%5, string(body(k)))
				case 2:
					if v, ok := c.view(key); ok && string(v) != string(body(k)) {
						t.Errorf("view(%s) = %q", key, v)
					}
				case 3:
					if label, ref, ok := c.ref([]byte("raw" + key)); ok && (label != 1+k%5 || ref != string(body(k))) {
						t.Errorf("ref(raw%s) = %d, %q", key, label, ref)
					}
				}
			}
		}()
	}
	wg.Wait()
	checkRecycling(t, c)
}
