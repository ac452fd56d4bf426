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
// pointer: on the first hit of a new wall-clock second the head is
// copied once, the 29 RFC 1123 date bytes are overwritten at the fixed
// offset recorded when the entry was stored (the same fixed-position
// trick AppendResponseHead uses for Content-Length), and the pointer is
// swapped. Every later hit in that second shares the image untouched.
//
// Entries are invalidated in lockstep with the file cache (its OnRemove
// hook calls Invalidate) and carry the (modTime, size) observed when
// they were rendered; Confirm checks a fresh stat against that pair and
// drops the entry on mismatch. A hit is only served while the entry's
// last confirmation is younger than the revalidate window, so a mutated
// file is re-statted — and caught — within that bound even though the
// fast path itself never touches the filesystem.
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

// headImage is one second's rendering of an entry's head. The bytes are
// immutable once published; rollover builds a fresh image.
type headImage struct {
	sec  int64 // absolute second the Date field renders
	head []byte
}

// entry is one cacheable rendered response.
type entry struct {
	body    []byte
	dateOff int   // offset of the Date value inside the head
	modTime int64 // UnixNano of the file mtime the head renders
	size    int64 // file size the head's Content-Length renders
	// verified is the UnixNano of the most recent confirming stat; a
	// lookup older than the revalidate window is refused (counted as
	// stale) so the slow path re-stats the file.
	verified atomic.Int64
	cur      atomic.Pointer[headImage]
}

// rendered returns the head with the Date field current for now. The
// same-second path is a pointer load; rollover copies the head once and
// patches the date bytes at the fixed offset.
func (e *entry) rendered(now time.Time) []byte {
	sec := now.Unix()
	img := e.cur.Load()
	if img.sec == sec {
		return img.head
	}
	head := append([]byte(nil), img.head...)
	copy(head[e.dateOff:e.dateOff+dateLen], httpproto.FormatHTTPDate(now))
	next := &headImage{sec: sec, head: head}
	// A racing rollover publishes an equivalent image; last store wins.
	e.cur.Store(next)
	return head
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// Cache is the sharded rendered-response cache. It is safe for
// concurrent use; the hot Lookup path takes one shard mutex and
// performs no allocation within a wall-clock second.
type Cache struct {
	shards []*shard
	mask   uint32
	ttl    int64 // revalidate window, nanoseconds

	hits          atomic.Uint64
	misses        atomic.Uint64
	stale         atomic.Uint64
	invalidations atomic.Uint64
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Stale         uint64 // lookups refused because the entry outlived the revalidate window
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

// Lookup returns the pre-encoded head and body for key if a fresh
// rendered entry exists. The returned slices are shared and must not be
// modified; the head's Date field is current for the calling second.
func (c *Cache) Lookup(key string) (head, body []byte, ok bool) {
	return c.lookupAt(key, time.Now())
}

func (c *Cache) lookupAt(key string, now time.Time) (head, body []byte, ok bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, found := s.entries[key]
	s.mu.Unlock()
	if !found {
		c.misses.Add(1)
		return nil, nil, false
	}
	if now.UnixNano()-e.verified.Load() > c.ttl {
		c.stale.Add(1)
		return nil, nil, false
	}
	c.hits.Add(1)
	return e.rendered(now), e.body, true
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
		body:    body,
		dateOff: off,
		modTime: modTime.UnixNano(),
		size:    size,
	}
	e.verified.Store(now.UnixNano())
	e.cur.Store(&headImage{sec: now.Unix(), head: head})
	s := c.shardFor(key)
	s.mu.Lock()
	s.entries[key] = e
	s.mu.Unlock()
}

// Confirm records a fresh stat observation for key. When a rendered
// entry exists and its (modTime, size) pair matches, its revalidate
// window restarts; on mismatch the entry is dropped. It reports whether
// a stale entry was dropped — the caller should then also drop the
// underlying file-cache bytes, which the stat just proved outdated.
func (c *Cache) Confirm(key string, modTime time.Time, size int64) (dropped bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && (e.modTime != modTime.UnixNano() || e.size != size) {
		delete(s.entries, key)
		s.mu.Unlock()
		c.invalidations.Add(1)
		return true
	}
	if ok {
		e.verified.Store(time.Now().UnixNano())
	}
	s.mu.Unlock()
	return false
}

// Invalidate drops the rendered entry for key, if any. The file cache's
// OnRemove hook points here so the two caches invalidate in lockstep.
func (c *Cache) Invalidate(key string) {
	s := c.shardFor(key)
	s.mu.Lock()
	_, ok := s.entries[key]
	if ok {
		delete(s.entries, key)
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
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
	}
}
