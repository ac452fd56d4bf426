package respcache

import (
	"bytes"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/httpproto"
)

// renderHead builds a realistic cached-GET head the way copshttp does.
func renderHead(body []byte, modTime time.Time) []byte {
	resp := &httpproto.Response{
		Status:  200,
		Proto:   "HTTP/1.1",
		Headers: httpproto.NewHeader(),
		Body:    body,
	}
	resp.Headers.Set("Content-Type", "text/html")
	resp.Headers.Set("Accept-Ranges", "bytes")
	resp.Headers.Set("Last-Modified", httpproto.FormatHTTPDate(modTime))
	return httpproto.AppendResponseHead(nil, resp)
}

func TestStoreLookupRoundTrip(t *testing.T) {
	c := New(4, time.Second)
	body := []byte("<html>hot document</html>")
	mt := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	now := time.Now()
	c.storeAt("/index.html", renderHead(body, mt), body, mt, int64(len(body)), now)

	head, got, st := c.Probe("/index.html", new(Ref), now)
	if st != Hit {
		t.Fatal("fresh entry did not hit")
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body mismatch: %q", got)
	}
	want := renderHead(body, mt)
	// The stored head's Date was patched to now; normalize before diffing.
	i := bytes.Index(want, datePrefix) + len(datePrefix)
	copy(want[i:i+dateLen], httpproto.FormatHTTPDate(now))
	if !bytes.Equal(head, want) {
		t.Fatalf("head mismatch:\n got %q\nwant %q", head, want)
	}
	if st := c.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDateCrossesSecondBoundary is the wire-equality audit of the cached
// Date rendering: an entry rendered at second T must serve Date: T+1 at
// second T+1, with every other head byte frozen.
func TestDateCrossesSecondBoundary(t *testing.T) {
	c := New(1, time.Hour) // wide window: only the Date may move
	body := []byte("payload")
	mt := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	t0 := time.Date(2026, 8, 8, 9, 30, 15, 100e6, time.UTC)
	c.storeAt("/doc", renderHead(body, mt), body, mt, int64(len(body)), t0)

	headAtT0, _, st := c.Probe("/doc", new(Ref), t0)
	if st != Hit {
		t.Fatal("miss at T")
	}
	wantDate := []byte(httpproto.FormatHTTPDate(t0))
	if !bytes.Contains(headAtT0, append(append([]byte(nil), datePrefix...), wantDate...)) {
		t.Fatalf("head at T does not carry Date %q:\n%q", wantDate, headAtT0)
	}

	t1 := t0.Add(time.Second) // crosses the wall-clock second boundary
	headAtT1, _, st := c.Probe("/doc", new(Ref), t1)
	if st != Hit {
		t.Fatal("miss at T+1")
	}
	// Wire equality: the two heads must differ in exactly the 29 Date
	// bytes and nowhere else.
	if len(headAtT0) != len(headAtT1) {
		t.Fatalf("head length changed across the boundary: %d vs %d", len(headAtT0), len(headAtT1))
	}
	off := bytes.Index(headAtT0, datePrefix) + len(datePrefix)
	if got, want := string(headAtT1[off:off+dateLen]), httpproto.FormatHTTPDate(t1); got != want {
		t.Fatalf("Date at T+1 = %q, want %q (stale cached date served across a second boundary)", got, want)
	}
	if !bytes.Equal(headAtT0[:off], headAtT1[:off]) || !bytes.Equal(headAtT0[off+dateLen:], headAtT1[off+dateLen:]) {
		t.Fatalf("non-Date bytes changed across the boundary:\n T  %q\n T1 %q", headAtT0, headAtT1)
	}

	// Within one second the image is shared, not re-copied.
	again, _, _ := c.Probe("/doc", new(Ref), t1.Add(200*time.Millisecond))
	if &again[0] != &headAtT1[0] {
		t.Fatal("same-second lookups did not share one head image")
	}
}

// TestProbeNeverRollsDateBack probes at second T+1 and then with a
// reading still in second T, as a window sharing an older clock reading
// does after another connection rolled the entry over: the newer image
// is served, never re-rendered for the earlier second.
func TestProbeNeverRollsDateBack(t *testing.T) {
	c := New(1, time.Hour)
	body := []byte("payload")
	mt := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	t0 := time.Date(2026, 8, 8, 9, 30, 15, 900e6, time.UTC)
	c.storeAt("/doc", renderHead(body, mt), body, mt, int64(len(body)), t0)

	later, _, st := c.Probe("/doc", new(Ref), t0.Add(200*time.Millisecond))
	if st != Hit {
		t.Fatal("miss at T+1")
	}
	lagging, _, st := c.Probe("/doc", new(Ref), t0)
	if st != Hit {
		t.Fatal("miss at T")
	}
	if &lagging[0] != &later[0] {
		off := bytes.Index(lagging, datePrefix) + len(datePrefix)
		t.Fatalf("a reading in second T rendered Date %q after T+1 was served", lagging[off:off+dateLen])
	}
}

func TestRevalidateWindow(t *testing.T) {
	c := New(2, 50*time.Millisecond)
	body := []byte("x")
	mt := time.Unix(1_000_000, 0)
	now := time.Now()
	c.storeAt("/a", renderHead(body, mt), body, mt, 1, now)

	if _, _, st := c.Probe("/a", new(Ref), now.Add(40*time.Millisecond)); st != Hit {
		t.Fatal("entry inside the window missed")
	}
	if _, _, st := c.Probe("/a", new(Ref), now.Add(60*time.Millisecond)); st != Stale {
		t.Fatal("entry outside the window served without revalidation")
	}
	if st := c.Stats(); st.Stale != 1 {
		t.Fatalf("stale count = %d, want 1", st.Stale)
	}

	// A confirming stat with matching metadata restarts the window.
	if dropped := c.Confirm("/a", mt, 1); dropped {
		t.Fatal("matching Confirm dropped the entry")
	}
	if _, _, st := c.Probe("/a", new(Ref), time.Now()); st != Hit {
		t.Fatal("confirmed entry missed")
	}

	// A mismatching stat drops the entry and tells the caller to drop
	// the file-cache bytes too.
	if dropped := c.Confirm("/a", mt.Add(time.Second), 1); !dropped {
		t.Fatal("mismatching Confirm kept the entry")
	}
	if _, _, st := c.Probe("/a", new(Ref), time.Now()); st != Miss {
		t.Fatal("dropped entry still served")
	}
}

// TestRevalidateServesConfirmedEntry covers the inline revalidation: a
// Stale probe, a matching stat through Revalidate, and the confirmed
// entry comes back ready to send, counted once as a hit and once as a
// revalidation; a mismatching stat drops the entry instead.
func TestRevalidateServesConfirmedEntry(t *testing.T) {
	c := New(1, 50*time.Millisecond)
	body := []byte("hot")
	mt := time.Unix(1_000_000, 0)
	c.storeAt("/a", renderHead(body, mt), body, mt, 3, time.Now().Add(-time.Second))

	if _, _, st := c.Probe("/missing", new(Ref), time.Now()); st != Miss {
		t.Fatalf("missing key probed %v, want Miss", st)
	}
	if head, _, st := c.Probe("/a", new(Ref), time.Now()); st != Stale || head != nil {
		t.Fatalf("entry past the window probed %v (head %q), want Stale and no bytes", st, head)
	}
	head, got, dropped := c.Revalidate("/a", mt, 3)
	if dropped || head == nil || !bytes.Equal(got, body) {
		t.Fatalf("matching Revalidate: head %q body %q dropped %v", head, got, dropped)
	}
	if _, _, st := c.Probe("/a", new(Ref), time.Now()); st != Hit {
		t.Fatalf("revalidated entry probed %v, want Hit (window restarted)", st)
	}
	if st := c.Stats(); st.Hits != 2 || st.Revalidated != 1 || st.Stale != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits (one revalidated), 1 stale, 1 miss", st)
	}

	if head, _, dropped := c.Revalidate("/a", mt, 4); head != nil || !dropped {
		t.Fatalf("mismatching Revalidate: head %q dropped %v, want nil and dropped", head, dropped)
	}
	if head, _, dropped := c.Revalidate("/a", mt, 3); head != nil || dropped {
		t.Fatalf("Revalidate of a dropped entry: head %q dropped %v, want nil and not dropped", head, dropped)
	}
	if st := c.Stats(); st.Revalidated != 1 || st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRevalidateConcurrentRevisions races inline revalidations against
// stores of new revisions, queued confirmations and invalidations of one
// key: a Revalidate that matched a stat must return that revision's
// bytes, never those of a revision stored after it.
func TestRevalidateConcurrentRevisions(t *testing.T) {
	c := New(1, time.Nanosecond) // every probe past the window
	mt := time.Unix(1_000_000, 0)
	body := func(rev int) []byte { return []byte(strconv.Itoa(rev)) }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				rev := 10 + (i+w)%5 // the size doubles as the revision number
				switch i % 4 {
				case 0:
					b := body(rev)
					c.Store("/k", renderHead(b, mt), b, mt, int64(rev))
				case 1:
					c.Confirm("/k", mt, int64(rev))
				case 2:
					c.Invalidate("/k")
				}
				c.Probe("/k", new(Ref), time.Now())
				if head, got, _ := c.Revalidate("/k", mt, int64(rev)); head != nil && !bytes.Equal(got, body(rev)) {
					t.Errorf("Revalidate for revision %d returned %q", rev, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestInvalidate(t *testing.T) {
	c := New(1, time.Second)
	body := []byte("x")
	mt := time.Unix(1, 0)
	c.Store("/a", renderHead(body, mt), body, mt, 1)
	c.Invalidate("/a")
	if _, _, st := c.Probe("/a", new(Ref), time.Now()); st != Miss {
		t.Fatal("invalidated entry still served")
	}
	c.Invalidate("/missing") // no-op, no counter bump
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestHeadWithoutDateNotStored(t *testing.T) {
	c := New(1, time.Second)
	c.Store("/a", []byte("HTTP/1.1 200 OK\r\n\r\n"), []byte("x"), time.Unix(1, 0), 1)
	if c.Len() != 0 {
		t.Fatal("dateless head was stored")
	}
}

func TestSameSecondLookupAllocFree(t *testing.T) {
	c := New(4, time.Hour)
	body := make([]byte, 16<<10)
	mt := time.Unix(1_000_000, 0)
	now := time.Now()
	c.storeAt("/hot", renderHead(body, mt), body, mt, int64(len(body)), now)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, st := c.Probe("/hot", new(Ref), now); st != Hit {
			t.Fatal("hot entry missed")
		}
	})
	if allocs > 0 {
		t.Fatalf("same-second lookup allocates: %.1f allocs/op", allocs)
	}
}

// TestRefSkipsTheMapWhileAlive probes through a Ref with the key's shard
// mutex held by the test: a live memoized entry is served without the
// lock, allocation-free, and it is the entry the map holds.
func TestRefSkipsTheMapWhileAlive(t *testing.T) {
	c := New(4, time.Hour)
	body := []byte("hot")
	mt := time.Unix(1_000_000, 0)
	c.Store("/hot", renderHead(body, mt), body, mt, 3)
	var ref Ref
	if _, _, st := c.Probe("/hot", &ref, time.Now()); st != Hit || ref.e == nil {
		t.Fatalf("first probe: %v, memo %v", st, ref.e)
	}
	s := c.shardFor("/hot")
	s.mu.Lock()
	done := make(chan State, 1)
	go func() {
		_, got, st := c.Probe("/hot", &ref, time.Now())
		if !bytes.Equal(got, body) {
			st = Miss
		}
		done <- st
	}()
	select {
	case st := <-done:
		if st != Hit {
			t.Fatalf("memoized probe: %v, want Hit with the stored body", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a probe through a live Ref waited on the shard mutex")
	}
	s.mu.Unlock()
	now := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, st := c.Probe("/hot", &ref, now); st != Hit {
			t.Fatal("memoized entry missed")
		}
	})
	if allocs > 0 {
		t.Fatalf("memoized probe allocates: %.1f allocs/op", allocs)
	}
}

// TestRefAfterRemoval memoizes an entry, removes it each way the cache
// removes entries, and checks that the memoized entry holds no head or
// body any more and that a Probe through the stale Ref looks the key up
// again: a miss, or the replacing revision.
func TestRefAfterRemoval(t *testing.T) {
	mt := time.Unix(1_000_000, 0)
	old, fresh := []byte("old"), []byte("fresh")
	for _, tc := range []struct {
		name   string
		remove func(c *Cache)
		want   State
	}{
		{"Invalidate", func(c *Cache) { c.Invalidate("/a") }, Miss},
		{"Confirm mismatch", func(c *Cache) { c.Confirm("/a", mt.Add(time.Second), 3) }, Miss},
		{"Revalidate mismatch", func(c *Cache) { c.Revalidate("/a", mt, 4) }, Miss},
		{"Store replace", func(c *Cache) {
			c.Store("/a", renderHead(fresh, mt), fresh, mt.Add(time.Second), int64(len(fresh)))
		}, Hit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(1, time.Hour)
			c.Store("/a", renderHead(old, mt), old, mt, int64(len(old)))
			var ref Ref
			if _, got, st := c.Probe("/a", &ref, time.Now()); st != Hit || !bytes.Equal(got, old) {
				t.Fatalf("first probe: %v %q", st, got)
			}
			memo := ref.e
			tc.remove(c)
			if img := memo.cur.Load(); img != nil {
				t.Fatalf("removed entry still holds head %q and body %q", img.head, img.body)
			}
			_, got, st := c.Probe("/a", &ref, time.Now())
			if st != tc.want {
				t.Fatalf("probe through the stale Ref: %v, want %v", st, tc.want)
			}
			if st == Hit && !bytes.Equal(got, fresh) {
				t.Fatalf("probe through the stale Ref served %q, want %q", got, fresh)
			}
			if ref.e == memo {
				t.Fatal("the Ref still names the removed entry")
			}
		})
	}
}

// TestRolloverNeverRevivesRemoved races Date rollovers on a memoized
// entry against its removal: once Invalidate returns, the entry's image
// stays nil.
func TestRolloverNeverRevivesRemoved(t *testing.T) {
	mt := time.Unix(1_000_000, 0)
	body := []byte("x")
	t0 := time.Now()
	for i := 0; i < 200; i++ {
		c := New(1, time.Hour)
		c.storeAt("/a", renderHead(body, mt), body, mt, 1, t0)
		var ref Ref
		c.Probe("/a", &ref, t0)
		memo := ref.e
		var wg sync.WaitGroup
		started := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 1; s <= 1000; s++ {
				if head, _ := memo.rendered(t0.Add(time.Duration(s) * time.Second)); head == nil {
					return
				}
				if s == 1 {
					close(started)
				}
			}
		}()
		<-started
		c.Invalidate("/a")
		wg.Wait()
		if memo.cur.Load() != nil {
			t.Fatal("a rollover republished the image of a removed entry")
		}
	}
}
