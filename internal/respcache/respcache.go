// Package respcache is the rendered-response cache behind the
// run-to-completion fast path (nserver.Config.FastPath): for cacheable
// GETs it keeps the fully pre-encoded response head alongside the body
// bytes, so a hot-URL hit is served by a single writev of two slices the
// server already holds — no Response struct, no header rendering, no
// date formatting on the serve path.
//
// The head contains a Date field, which must advance every second while
// everything else stays frozen. Re-rendering the head per second would
// reintroduce the work the cache exists to avoid, and patching the
// stored bytes in place would race with an in-flight writev reading
// them. Each entry therefore keeps its current head behind an atomic
// pointer: on the first hit whose clock reading falls in a new second
// the head is copied once, the 29 RFC 1123 date bytes are overwritten at
// the fixed offset recorded when the entry was stored (the same
// fixed-position trick AppendResponseHead uses for Content-Length), and
// the pointer is swapped. Every later hit in that second shares the
// image untouched. The reading is the caller's (Probe takes it), so the
// Date is current for the caller's clock reading, and a server that
// serves a pipelined window in one pass reads the clock once for it.
//
// Entries are invalidated in lockstep with the file cache (its OnRemove
// hook calls Invalidate) and carry the (modTime, size) observed when
// they were rendered; Confirm checks a fresh stat against that pair and
// drops the entry on mismatch. A hit is only served while the entry's
// last confirmation is younger than the revalidate window, so a mutated
// file is re-statted — and caught — within that bound. Probe tells such
// a stale entry from a missing one, and Revalidate is the confirmation
// for a caller that stats the file itself and serves the entry on a
// match: the fast path does that inline, at most once per window per
// hot file, on a connection's reader goroutine.
//
// A caller that asks for the same key again and again (a keep-alive
// connection re-fetching its hot URL) probes through a Ref: a memo of the
// entry the key last resolved to, which skips the shard lock and the map
// while that entry is alive. The entry's body lives in its head image,
// and every removal — Invalidate, a Confirm or Revalidate mismatch, a
// Store that replaces the entry — stores a nil image. A memoized entry
// therefore pins neither bytes nor a stale answer: a nil image sends the
// Probe back to the map.
package respcache

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpproto"
)

// DefaultRevalidateAfter bounds how long a rendered entry may be served
// without a confirming stat. Hot URLs cost at most one stat per window;
// a mutated file is detected within it.
const DefaultRevalidateAfter = 100 * time.Millisecond

// dateLen is the byte length of an RFC 1123 GMT HTTP date — always 29.
const dateLen = 29

// datePrefix locates the Date field inside a rendered head.
var datePrefix = []byte("\r\nDate: ")

// headImage is one second's rendering of an entry's head, with the body
// it frames. The bytes are immutable once published; rollover builds a
// fresh image.
type headImage struct {
	sec  int64 // absolute second the Date field renders
	head []byte
	body []byte
}

// entry is one cacheable rendered response. Its image is nil once the
// entry has left the cache (see remove).
type entry struct {
	dateOff int   // offset of the Date value inside the head
	modTime int64 // UnixNano of the file mtime the head renders
	size    int64 // file size the head's Content-Length renders
	// verified is the UnixNano of the most recent confirming stat; a
	// lookup older than the revalidate window is refused (counted as
	// stale) so the slow path re-stats the file.
	verified atomic.Int64
	cur      atomic.Pointer[headImage]
}

// rendered returns the head with the Date field current for now, and the
// body; both are nil once the entry is removed. The same-second path is a
// pointer load; rollover copies the head once and patches the date bytes
// at the fixed offset. The swap is a compare-and-swap, so a rollover never
// revives a removed entry. An image already rendered for a later second
// is served as it is: a caller whose clock reading lags another's (a
// reading shared by a pipelined window) never rolls the Date back.
func (e *entry) rendered(now time.Time) (head, body []byte) {
	sec := now.Unix()
	for {
		img := e.cur.Load()
		if img == nil {
			return nil, nil
		}
		if img.sec >= sec {
			return img.head, img.body
		}
		head := append([]byte(nil), img.head...)
		copy(head[e.dateOff:e.dateOff+dateLen], httpproto.FormatHTTPDate(now))
		// A racing rollover publishes an equivalent image; either serves.
		if e.cur.CompareAndSwap(img, &headImage{sec: sec, head: head, body: img.body}) {
			return head, img.body
		}
	}
}

// remove drops the entry's image, so a Ref still naming the entry holds
// no bytes and looks its key up again.
func (e *entry) remove() { e.cur.Store(nil) }

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// Cache is the sharded rendered-response cache. It is safe for
// concurrent use; the hot Probe path takes at most one shard mutex (none
// through a live Ref) and performs no allocation within a wall-clock
// second.
type Cache struct {
	shards []*shard
	mask   uint32
	ttl    int64 // revalidate window, nanoseconds

	hits          atomic.Uint64
	misses        atomic.Uint64
	stale         atomic.Uint64
	revalidated   atomic.Uint64
	invalidations atomic.Uint64
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Stale         uint64 // probes that found the entry past the revalidate window
	Revalidated   uint64 // stale entries confirmed by Revalidate and served (each also a hit)
	Invalidations uint64 // entries dropped by Confirm mismatch, Invalidate, or file-cache removal
	Entries       int
}

var shardSeed = maphash.MakeSeed()

// New creates a rendered-response cache with the given shard count
// (rounded up to a power of two, minimum 1) and revalidate window
// (DefaultRevalidateAfter when <= 0).
func New(shards int, revalidateAfter time.Duration) *Cache {
	n := 1
	for n < shards {
		n *= 2
	}
	if revalidateAfter <= 0 {
		revalidateAfter = DefaultRevalidateAfter
	}
	c := &Cache{
		shards: make([]*shard, n),
		mask:   uint32(n - 1),
		ttl:    revalidateAfter.Nanoseconds(),
	}
	for i := range c.shards {
		c.shards[i] = &shard{entries: make(map[string]*entry)}
	}
	return c
}

func (c *Cache) shardFor(key string) *shard {
	if c.mask == 0 {
		return c.shards[0]
	}
	return c.shards[uint32(maphash.String(shardSeed, key))&c.mask]
}

// State classifies a Probe.
type State uint8

const (
	// Miss: no rendered entry for the key.
	Miss State = iota
	// Stale: an entry that outlived the revalidate window; it may be
	// served only after a fresh stat confirms it (Revalidate).
	Stale
	// Hit: a fresh entry, returned ready to send.
	Hit
)

// Ref memoizes the entry a key last resolved to, for a caller that
// probes the same key repeatedly. The zero Ref is empty. A Ref is not
// safe for concurrent use; each caller keeps its own.
type Ref struct {
	key string
	e   *entry
}

// Probe looks key up at time now and tells a fresh entry from a stale or
// missing one. When ref names a live entry for key, the lookup is that
// entry; otherwise it is one shard-lock trip, whose result ref remembers.
// Only a Hit returns the pre-encoded head and body; the slices are shared
// and must not be modified, and the head's Date field is current for the
// caller's clock reading now (or a later second another caller already
// rendered). The caller reads the clock, so a batch of probes served
// together can share one reading.
func (c *Cache) Probe(key string, ref *Ref, now time.Time) (head, body []byte, st State) {
	var e *entry
	if ref.key == key && ref.e != nil && ref.e.cur.Load() != nil {
		e = ref.e
	} else {
		s := c.shardFor(key)
		s.mu.Lock()
		e = s.entries[key]
		s.mu.Unlock()
		ref.key, ref.e = key, e
	}
	if e == nil {
		c.misses.Add(1)
		return nil, nil, Miss
	}
	if now.UnixNano()-e.verified.Load() > c.ttl {
		c.stale.Add(1)
		return nil, nil, Stale
	}
	if head, body = e.rendered(now); head == nil {
		// Removed since the lookup: as good as never found.
		c.misses.Add(1)
		return nil, nil, Miss
	}
	c.hits.Add(1)
	return head, body, Hit
}

// Store records the rendered response for key. head must be a complete
// response head as produced by AppendResponseHead, rendered at (or just
// before) now and owned by the cache from here on; body is retained by
// reference. modTime and size are the stat pair the head renders —
// Confirm compares future stats against them. A head without a Date
// field is not cacheable and is ignored.
func (c *Cache) Store(key string, head, body []byte, modTime time.Time, size int64) {
	c.storeAt(key, head, body, modTime, size, time.Now())
}

func (c *Cache) storeAt(key string, head, body []byte, modTime time.Time, size int64, now time.Time) {
	i := bytes.Index(head, datePrefix)
	if i < 0 {
		return
	}
	off := i + len(datePrefix)
	if off+dateLen > len(head) {
		return
	}
	// The head may have been rendered in the previous second; patch the
	// date for now so the published image's sec claim is truthful.
	copy(head[off:off+dateLen], httpproto.FormatHTTPDate(now))
	e := &entry{
		dateOff: off,
		modTime: modTime.UnixNano(),
		size:    size,
	}
	e.verified.Store(now.UnixNano())
	e.cur.Store(&headImage{sec: now.Unix(), head: head, body: body})
	s := c.shardFor(key)
	s.mu.Lock()
	if old := s.entries[key]; old != nil {
		old.remove()
	}
	s.entries[key] = e
	s.mu.Unlock()
}

// Confirm records a fresh stat observation for key. When a rendered
// entry exists and its (modTime, size) pair matches, its revalidate
// window restarts; on mismatch the entry is dropped. It reports whether
// a stale entry was dropped — the caller should then also drop the
// underlying file-cache bytes, which the stat just proved outdated.
func (c *Cache) Confirm(key string, modTime time.Time, size int64) (dropped bool) {
	_, dropped = c.confirm(key, modTime, size, time.Now())
	return dropped
}

// Revalidate is Confirm for a caller that serves the entry on a match: a
// Stale probe, a fresh stat taken by the caller, then this. On a match it
// returns the confirmed entry's head and body, counted as a hit and a
// revalidation; otherwise both are nil and dropped is Confirm's report.
// The slices belong to the entry the stat matched, never to a revision
// stored after it.
func (c *Cache) Revalidate(key string, modTime time.Time, size int64) (head, body []byte, dropped bool) {
	now := time.Now()
	e, dropped := c.confirm(key, modTime, size, now)
	if e == nil {
		return nil, nil, dropped
	}
	if head, body = e.rendered(now); head == nil {
		return nil, nil, false
	}
	c.hits.Add(1)
	c.revalidated.Add(1)
	return head, body, false
}

// confirm is the one shard-lock trip behind Confirm and Revalidate: it
// returns the entry the stat matched (its window restarted at now), or
// nil, reporting whether a mismatched entry was dropped.
func (c *Cache) confirm(key string, modTime time.Time, size int64, now time.Time) (e *entry, dropped bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && (e.modTime != modTime.UnixNano() || e.size != size) {
		delete(s.entries, key)
		e.remove()
		s.mu.Unlock()
		c.invalidations.Add(1)
		return nil, true
	}
	if ok {
		e.verified.Store(now.UnixNano())
	}
	s.mu.Unlock()
	return e, false
}

// Invalidate drops the rendered entry for key, if any. The file cache's
// OnRemove hook points here so the two caches invalidate in lockstep.
func (c *Cache) Invalidate(key string) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		delete(s.entries, key)
		e.remove()
	}
	s.mu.Unlock()
	if ok {
		c.invalidations.Add(1)
	}
}

// Len returns the number of rendered entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Stale:         c.stale.Load(),
		Revalidated:   c.revalidated.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
	}
}
